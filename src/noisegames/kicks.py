"""Independent identically distributed phase kicks and their decay factors.

A kick law P(theta) acts on a qubit through repeated random z-rotations.
Its characteristic value ``E[e^{i theta}] = gamma * e^{i phi}`` determines
the exact n-step evolution: populations are untouched and the coherence
picks up a factor ``gamma^n e^{-i n phi}``.  Three laws are supported:

* :class:`DeltaMixture`  -- finitely many angles with probabilities;
* :class:`ExponentialKicks` -- density ``e^{-theta/(omega*tau1)}/(omega*tau1)``
  on theta >= 0, giving ``gamma = (1 + (omega*tau1)^2)^{-1/2}`` and
  ``phi = arctan(omega*tau1)``;
* :class:`GaussianKicks` -- mean mu, variance sigma2, giving
  ``gamma = e^{-sigma2/2}`` and ``phi = mu``.

The closed forms in :func:`char_function` are the only route to these
values here; the tests hold them against quadrature of the defining
integrals.  Each route returns the whole coherence curve over 0..n kicks:
:func:`evolve_iid` exactly, :func:`evolve_iid_mc` by Monte Carlo.
Trajectories are averaged by the Monte Carlo engine of
:mod:`noisegames.montecarlo`, which shifts each block by its own first
trajectory; kicks 2j and 2j + 1 of trajectory t read the two halves of
its raw slot j (a Gaussian law that slot's Box-Muller pair) through
:func:`montecarlo.kick_draws`, so a curve is one pass over the
trajectories and no other.  A trajectory's coherence after k kicks is b
times the running product of its kicks' phasors e^{-i theta}, one complex
multiply per kick: a delta mixture looks each phasor up in a table built
once, and the continuous laws build theirs with
:func:`montecarlo.phasors`, from one ``tan`` per kick.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator, NamedTuple, Union

from .qubit import DensityMatrix2, checked

TWO_PI = 2.0 * math.pi

_WEIGHT_FLOOR = 1e-15  # delta-mixture weights below this are dropped


def canonical_angle(theta: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


class DeltaMixture(checked("DeltaMixture", [("pairs", tuple)])):
    """Discrete kick law: tuple of (weight, angle) pairs summing to one."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[float, float], ...]):
        kept = []
        for w, ang in pairs:
            w, ang = float(w), float(ang)
            if not (math.isfinite(w) and math.isfinite(ang)):
                raise ValueError("weights and angles must be finite")
            if w < -_WEIGHT_FLOOR:
                raise ValueError("weights must be nonnegative")
            if w >= _WEIGHT_FLOOR:
                kept.append((w, ang))
        if not kept:
            raise ValueError("mixture needs at least one weighted angle")
        if abs(math.fsum(w for w, _ in kept) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        return super().__new__(cls, tuple(kept))

    @classmethod
    def uniform(cls, angles) -> "DeltaMixture":
        angles = tuple(float(a) for a in angles)
        return cls(tuple((1.0 / len(angles), a) for a in angles))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.pairs)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.pairs)


class ExponentialKicks(checked("ExponentialKicks", [("omega", float), ("tau1", float)])):
    """One-sided exponential kick law with scale omega * tau1 > 0."""

    __slots__ = ()

    def __new__(cls, omega: float, tau1: float):
        omega, tau1 = float(omega), float(tau1)
        s = omega * tau1
        if not math.isfinite(s) or s <= 0.0:
            raise ValueError("omega * tau1 must be finite and positive")
        return super().__new__(cls, omega, tau1)

    @property
    def scale(self) -> float:
        return self.omega * self.tau1


class GaussianKicks(checked("GaussianKicks", [("mu", float), ("sigma2", float)])):
    """Gaussian kick law with mean mu and variance sigma2 >= 0."""

    __slots__ = ()

    def __new__(cls, mu: float, sigma2: float):
        mu, sigma2 = float(mu), float(sigma2)
        if not (math.isfinite(mu) and math.isfinite(sigma2)):
            raise ValueError("mu and sigma2 must be finite")
        if sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        return super().__new__(cls, mu, sigma2)


KickDistribution = Union[DeltaMixture, ExponentialKicks, GaussianKicks]


class DecayFactor(NamedTuple):
    """Per-step coherence decay gamma in [0, 1] and phase drift phi."""

    gamma: float
    phi: float


class EvolutionPlan(checked("EvolutionPlan", [("steps", int)])):
    """Discrete evolution of ``steps`` kicks."""

    __slots__ = ()

    def __new__(cls, steps: int):
        if int(steps) != steps or steps < 0:
            raise ValueError("steps must be a nonnegative integer")
        return super().__new__(cls, int(steps))


def char_function(dist: KickDistribution) -> DecayFactor:
    """Characteristic value E[e^{i theta}] of a kick law, in polar form.

    The phase is reported canonically in (-pi, pi].
    """
    if isinstance(dist, DeltaMixture):
        re = math.fsum(w * math.cos(a) for w, a in dist.pairs)
        im = math.fsum(w * math.sin(a) for w, a in dist.pairs)
        gamma = math.hypot(re, im)
        phi = math.atan2(im, re) if gamma > 0.0 else 0.0
        return DecayFactor(min(gamma, 1.0), phi)
    if isinstance(dist, GaussianKicks):
        return DecayFactor(math.exp(-0.5 * dist.sigma2), canonical_angle(dist.mu))
    if isinstance(dist, ExponentialKicks):
        s = dist.scale
        return DecayFactor(1.0 / math.sqrt(1.0 + s * s), math.atan(s))
    raise TypeError(f"unsupported kick distribution: {type(dist).__name__}")


def evolve_iid(
    rho0: DensityMatrix2, dist: KickDistribution, plan: EvolutionPlan
) -> list[complex]:
    """Exact coherence after 0, 1, ..., ``plan.steps`` IID kicks.

    Populations are unchanged; the coherence is multiplied once per step by
    ``gamma * e^{-i phi}``.  The per-step factor is applied sequentially,
    so entry n1 + n2 equals entry n2 of the curve started from entry n1,
    bit for bit.
    """
    df = char_function(dist)
    step = df.gamma * cmath.exp(-1j * df.phi)
    out = [rho0.b]
    for _ in range(plan.steps):
        out.append(out[-1] * step)
    return out


def _kick_phasors(dist: KickDistribution, keys: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Phasor e^{-i theta} of kicks 0, ..., ``steps`` - 1 of each trajectory, in turn.

    A delta mixture picks each kick's angle (:func:`montecarlo.branch_pair`)
    and looks its phasor up in a table built once.  The other laws build
    theta in place, as mu + sigma * z from :func:`rng.slot_normal` or as
    -scale * ln((half + 1) * 2^-32) from :func:`rng.slot_halves`, for
    :func:`montecarlo.phasors`.
    """
    import numpy as np
    from . import montecarlo, rng

    if isinstance(dist, DeltaMixture):
        pair = montecarlo.branch_pair(montecarlo.draw_edges(dist.weights))
        table = np.exp(-1j * np.asarray(dist.angles, dtype=np.float64))
        # every index is in range; "clip" only spares numpy a buffered copy
        kick = lambda i: np.take(table, i, out=rng._empty(len(keys), np.complex128), mode="clip")
        return map(kick, montecarlo.kick_draws(keys, steps, pair))
    if isinstance(dist, GaussianKicks):
        pair, sigma = rng.slot_normal, math.sqrt(dist.sigma2)

        def angle(theta: np.ndarray) -> np.ndarray:
            theta *= sigma
            theta += dist.mu
            return theta
    elif isinstance(dist, ExponentialKicks):
        pair = rng.slot_halves

        def angle(theta: np.ndarray) -> np.ndarray:
            theta += 1.0
            theta *= 2.0**-32
            np.log(theta, out=theta)
            theta *= -dist.scale
            return theta
    else:
        raise TypeError(f"unsupported kick distribution: {type(dist).__name__}")
    return map(montecarlo.phasors, map(angle, montecarlo.kick_draws(keys, steps, pair)))


def draw_charge(steps: int, trials: int) -> int:
    """Raw 64-bit draws a kicked curve reads for ``trials`` trajectories of ``steps`` kicks.

    Kicks 2j and 2j + 1 share raw slot j (:func:`montecarlo.kick_draws`), so
    :func:`evolve_iid_mc` and :func:`memory.evolve_memory_mc` read
    ceil(steps / 2) draws a trajectory.
    """
    return trials * -(-steps // 2)


def evolve_iid_mc(
    rho0: DensityMatrix2,
    dist: KickDistribution,
    plan: EvolutionPlan,
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[complex, float]]:
    """Monte Carlo ``(b, stderr)`` after 0, 1, ..., ``plan.steps`` kicks, in one pass.

    ``stderr`` is the larger of the standard errors of b's real and
    imaginary parts; the populations stay ``rho0``'s.  Deterministic for
    fixed (seed, trials) under any thread count: trajectory t draws from
    the stream keyed by (seed, t) and block sums are combined in a fixed
    order.
    """
    if isinstance(dist, ExponentialKicks) and math.isinf(dist.scale * math.log(2.0**-32)):
        raise ValueError("omega * tau1 is too large for Monte Carlo: its kick angles overflow")
    from . import montecarlo

    phasors = lambda keys: _kick_phasors(dist, keys, plan.steps)
    return montecarlo.kicked_curve(rho0.b, phasors, trials, seed, threads)
