"""Dissipative qubit channel: amplitude damping mixed with a phase rotation.

The channel applies, with probability p, the damping pair
``E0 = ((1, 0), (0, sqrt(1-alpha)))`` and ``E1 = ((0, sqrt(alpha)), (0, 0))``
and, with probability 1-p, the rotation R_z(theta).  Averaging over noisy
parameters (theta centered normal with variance 2*lambda_pd; alpha a
half-normal of scale sqrt(2*lambda_ad), clamped to [0, 1]) relaxes the
populations by ``1 - p*sqrt(4*lambda_ad/pi)`` per step and the coherence by
``p*(1 - sqrt(lambda_ad/pi)) + (1-p)*e^{-lambda_pd}`` to first order in
lambda_ad.  The mixing probability compatible with relaxation no faster
than dephasing is ``(1 - e^{-lambda_pd}) / (1 - e^{-lambda_pd} +
sqrt(lambda_ad/pi))``.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .qubit import DensityMatrix2, checked

FIRST_ORDER_LIMIT = 0.01  # lambda_ad ceiling of the first-order formulas


class NoiseScales(checked("NoiseScales", [("lambda_ad", float), ("lambda_pd", float)])):
    """Dimensionless amplitude-damping and phase-damping noise scales."""

    __slots__ = ()

    def __new__(cls, lambda_ad: float, lambda_pd: float):
        lambda_ad, lambda_pd = float(lambda_ad), float(lambda_pd)
        for v in (lambda_ad, lambda_pd):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("noise scales must be finite and nonnegative")
        return super().__new__(cls, lambda_ad, lambda_pd)


class AveragedChannelResult(NamedTuple):
    """Noise-averaged output state with per-entry standard errors.

    ``stderr_pop`` is the standard error of the |0> population estimate;
    ``stderr_coh`` the larger of the standard errors of the real and
    imaginary parts of the coherence.  ``clamp_fraction`` reports how often
    the sampled damping strength had to be clamped into [0, 1].
    """

    rho_avg: DensityMatrix2
    stderr_pop: float
    stderr_coh: float
    clamp_fraction: float


def averaged_channel_mc(
    rho0: DensityMatrix2,
    p: float,
    scales: NoiseScales,
    trials: int,
    seed: int,
    threads: int = 1,
) -> AveragedChannelResult:
    """Average the channel over sampled (alpha, theta) noise parameters.

    theta ~ Normal(0, 2*lambda_pd); alpha = |Normal(0, 2*lambda_ad)|
    clamped to [0, 1].  These laws reproduce every coefficient of the
    first-order averaged matrix: E[alpha] = sqrt(4*lambda_ad/pi),
    E[sqrt(1-alpha)] = 1 - sqrt(lambda_ad/pi) + O(lambda_ad) and
    E[e^{-i theta}] = e^{-lambda_pd}.  theta takes the cosine and alpha the
    sine of the Box-Muller pair of each trajectory's raw slot 0, two
    independent standard normals; the phasor comes from
    :func:`montecarlo.phasors`.  Each block works in place on its draws and
    yields the population before it builds the coherence, so it holds at
    most six block-sized float arrays at once: theta, alpha, the complex
    coherence and the reducer's complex copy of it, each complex array
    counting as two.
    """
    import numpy as np
    from . import montecarlo, rng

    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    a0, b0 = rho0.a, rho0.b
    sd_theta = math.sqrt(2.0 * scales.lambda_pd)
    sd_x = math.sqrt(2.0 * scales.lambda_ad)
    for name, sd in (("lambda_pd", sd_theta), ("lambda_ad", sd_x)):
        if math.isinf(sd):
            raise ValueError(f"{name} is too large for Monte Carlo: 2 * {name} overflows")

    def points(theta: np.ndarray, alpha: np.ndarray):
        # a0 + p * alpha * (1 - a0)
        a_out = np.multiply(alpha, p, out=rng._empty(len(alpha)))
        a_out *= 1.0 - a0
        a_out += a0
        yield a_out
        del a_out  # reduced: its array is free for the phasors
        # b0 * (p * sqrt(1 - alpha) + (1 - p) * e^{-i theta})
        b_out = montecarlo.phasors(theta)
        b_out *= 1.0 - p
        np.subtract(1.0, alpha, out=alpha)
        np.sqrt(alpha, out=alpha)
        alpha *= p
        b_out.real += alpha
        b_out *= b0
        yield b_out

    def sampler(keys: np.ndarray):
        alpha = rng._empty(len(keys))
        theta = rng.slot_normal(keys, 0, sine=alpha)
        theta *= sd_theta
        alpha *= sd_x
        np.abs(alpha, out=alpha)
        clamped = int(np.count_nonzero(alpha > 1.0))
        np.minimum(alpha, 1.0, out=alpha)
        # the points hold no keys, so the keys' array is free once drawn
        return points(theta, alpha), clamped

    ((mean_a, stderr_pop), (mean_b, stderr_coh)), clamps = montecarlo.run(
        sampler, trials, seed, threads, operator.add, 0)
    rho = DensityMatrix2(mean_a.real, mean_b, 1.0 - mean_a.real)
    return AveragedChannelResult(rho, stderr_pop, stderr_coh, clamps / trials)


def draw_charge(trials: int) -> int:
    """Raw 64-bit draws :func:`averaged_channel_mc` reads: one Box-Muller pair, 1 a trial."""
    return trials


def _step_factors(p: float, scales: NoiseScales) -> tuple[float, float]:
    """First-order per-step population factor g1 and coherence factor g2."""
    g1 = 1.0 - p * math.sqrt(4.0 * scales.lambda_ad / math.pi)
    g2 = p * (1.0 - math.sqrt(scales.lambda_ad / math.pi))
    g2 += (1.0 - p) * math.exp(-scales.lambda_pd)
    return g1, g2


def averaged_channel_first_order(
    rho0: DensityMatrix2,
    p: float,
    scales: NoiseScales,
) -> DensityMatrix2:
    """Closed-form noise-averaged state, first order in lambda_ad.

    The population entries are relaxed by ``1 - p*sqrt(4*lambda_ad/pi)``
    and the coherence by ``p*(1 - sqrt(lambda_ad/pi)) +
    (1-p)*e^{-lambda_pd}``, read as density-matrix entries (populations and
    off-diagonal), the only reading consistent with the unaveraged channel.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if scales.lambda_ad > FIRST_ORDER_LIMIT:
        raise ValueError(
            f"lambda_ad={scales.lambda_ad!r} outside first-order regime "
            f"(limit {FIRST_ORDER_LIMIT!r})"
        )
    relax, coh = _step_factors(p, scales)
    # a + (1-relax)(1-a) == 1 - relax*(1-a), exact when relax == 1
    a = rho0.a + (1.0 - relax) * (1.0 - rho0.a)
    return DensityMatrix2(a, rho0.b * coh, rho0.c * relax)


def max_mixing_probability(scales: NoiseScales) -> float:
    """Largest mixing probability keeping relaxation no faster than dephasing.

    ``(1 - e^{-lambda_pd}) / (1 - e^{-lambda_pd} + sqrt(lambda_ad/pi))``;
    undefined when both scales vanish.
    """
    if scales.lambda_ad == scales.lambda_pd == 0.0:
        raise ValueError("mixing bound undefined when both noise scales are zero")
    u = -math.expm1(-scales.lambda_pd)
    if u == 0.0:  # u / (u + v) with v > 0, or with v underflowed to 0
        return u
    return u / (u + math.sqrt(scales.lambda_ad / math.pi))


class RelaxationTimes(NamedTuple):
    """Population relaxation time t1 and coherence time t2 (may be inf)."""

    t1: float
    t2: float


def relaxation_times(
    p: float, scales: NoiseScales, tau0: float = 1.0
) -> RelaxationTimes:
    """Relaxation timescales of the noise-averaged channel iterated every tau0.

    With per-step population factor ``g1 = 1 - p*sqrt(4*lambda_ad/pi)`` and
    coherence factor ``g2 = p*(1 - sqrt(lambda_ad/pi)) +
    (1-p)*e^{-lambda_pd}``: ``t1 = -tau0/ln(g1)`` and ``t2 = -2*tau0/ln(g2)``
    (the coherence magnitude decays as ``e^{-2t/t2}``, i.e. with time
    constant t2/2).  Under this convention ``p <= max_mixing_probability``
    is exactly equivalent to ``t1 >= t2/2``, with equality at the bound.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if tau0 <= 0.0 or not math.isfinite(tau0):
        raise ValueError("tau0 must be finite and positive")
    g1, g2 = _step_factors(p, scales)
    if min(g1, g2) <= 0.0:  # neither exceeds 1 for p in [0, 1] and nonnegative scales
        raise ValueError("per-step factor is not positive; out of regime")
    t1 = math.inf if g1 >= 1.0 else -tau0 / math.log(g1)
    t2 = math.inf if g2 >= 1.0 else -2.0 * tau0 / math.log(g2)
    return RelaxationTimes(t1, t2)
