"""Kicked coherences as running phasor products.

A trajectory's coherence after n kicks is b times the running product of
its kicks' phasors e^{-i theta}.  Against the exp-of-sum form
b * e^{-i (theta_1 + ... + theta_n)} it may drift by rounding only: each
product step and each phasor adds a few units in the last place, and the
exp-of-sum form itself rounds a phase sum of size |sum theta|.  Per sample,
up to n = 2,000 kicks,

    |z - b e^{-i sum theta}| <= n * eps * (1 + |sum theta|) * |b|,
    ||z| - |b||              <= 2 * n * eps * |b|.

The statistical guard holds every Monte Carlo curve point within 5 standard
errors of its exact partner, at several seeds.
"""

import math

import numpy as np
import pytest

from _oracles import chain_phase_sums, iid_phase_sums
from noisegames import kicks, memory, rng
from noisegames.kicks import DeltaMixture, EvolutionPlan, ExponentialKicks, GaussianKicks
from noisegames.memory import KernelVariant, kernel
from noisegames.qubit import DensityMatrix2

EPS = np.finfo(np.float64).eps
N_MAX = 2000
B0 = 0.3 + 0.2j
KEYS = rng.stream_keys(77, 0, 500)

LAWS = {
    "gaussian": GaussianKicks(0.3, 0.5),
    "exponential": ExponentialKicks(1.0, 0.7),
    "delta": DeltaMixture(((0.2, -math.pi / 2), (0.5, 0.0), (0.3, math.pi / 2))),
}


def running_products(phasors):
    """B0 per key, then times each kick's phasor in turn, as a curve's trajectories carry it."""
    z = np.full(len(KEYS), B0)
    yield z
    for f in phasors:
        z = z * f
        yield z


def assert_drift_bounded(products, phase_sums):
    n = -1
    for n, (z, total) in enumerate(zip(products, phase_sums, strict=True)):
        exp_of_sum = B0 * np.exp(-1j * total)
        drift = np.abs(z - exp_of_sum)
        assert np.all(drift <= n * EPS * (1.0 + np.abs(total)) * abs(B0)), n
        assert np.all(np.abs(np.abs(z) - abs(B0)) <= 2 * n * EPS * abs(B0)), n
    assert n == N_MAX


@pytest.mark.parametrize("name", list(LAWS))
def test_iid_product_drift_is_bounded(name):
    dist = LAWS[name]
    products = running_products(kicks._kick_phasors(dist, KEYS, N_MAX))
    assert_drift_bounded(products, iid_phase_sums(dist, KEYS, N_MAX))


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_chain_product_drift_is_bounded(variant):
    kern = kernel(variant, 1e-3)
    phasors = memory._chain_phasors(kern, KEYS, N_MAX)
    products = running_products(phasors)
    assert_drift_bounded(products, chain_phase_sums(kern, KEYS, N_MAX))


# --- statistical guard: every curve point within 5 sigma of the exact route ---

RHO0 = DensityMatrix2(0.6, 0.3 + 0.2j, 0.4)
STEPS = 20
TRIALS = 20_000
SEEDS = (11, 12, 13, 14)


def assert_within_5_sigma(estimates, exact):
    assert len(estimates) == len(exact)
    for k, ((b_mc, se), b) in enumerate(zip(estimates, exact)):
        # a point where every trajectory agrees has no spread: it must match
        # its partner up to rounding
        tol = 5.0 * se + 1e-12
        assert abs(b_mc.real - b.real) <= tol, k
        assert abs(b_mc.imag - b.imag) <= tol, k


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(LAWS))
def test_iid_curve_within_5_sigma(name, seed):
    dist, plan = LAWS[name], EvolutionPlan(STEPS)
    estimates = kicks.evolve_iid_mc(RHO0, dist, plan, TRIALS, seed)
    assert_within_5_sigma(estimates, kicks.evolve_iid(RHO0, dist, plan))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_memory_curve_within_5_sigma(variant, seed):
    kern = kernel(variant, 1e-3)
    estimates = memory.evolve_memory_mc(RHO0, kern, STEPS, TRIALS, seed)
    trace = memory.coherence_recursion(kern, STEPS)
    exact = [RHO0.b] + [RHO0.b * fa.conjugate() for fa, _ in trace.values]
    assert_within_5_sigma(estimates, exact)
