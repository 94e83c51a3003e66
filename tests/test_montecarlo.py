"""The shared Monte Carlo engine against per-point estimators written by hand.

140_000 trials span three blocks of ``rng.BLOCK_SIZE`` (the last one
partial), so every curve point exercises the cross-block merge.  Each block
is shifted by its own first sample, and the merge moves every block onto
block 0's shift; the oracle estimators fold their blocks the same way.
"""

import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from _oracles import iid_mc_point, memory_mc_point, phasors_strided, stream_key
from noisegames import montecarlo, rng
from noisegames.dissipative import NoiseScales, averaged_channel_mc
from noisegames.grover import AdaptiveTracking, FixedHorizon, GameConfig, evaluate_strategy
from noisegames.kicks import (
    DeltaMixture,
    EvolutionPlan,
    ExponentialKicks,
    GaussianKicks,
    evolve_iid_mc,
)
from noisegames.memory import KernelVariant, evolve_memory_mc, kernel
from noisegames.qubit import DensityMatrix2

TRIALS = 140_000
STEPS = 4
SEED = 2024
RHO0 = DensityMatrix2(0.6, 0.45, 0.4)

assert 2 * rng.BLOCK_SIZE < TRIALS < 3 * rng.BLOCK_SIZE

DISTS = {
    "gaussian": GaussianKicks(0.3, 0.5),
    "exponential": ExponentialKicks(1.0, 0.7),
    "delta": DeltaMixture(((0.2, -math.pi / 2), (0.5, 0.0), (0.3, math.pi / 2))),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", list(DISTS))
def test_iid_curve_matches_per_point_estimator(name, threads):
    dist = DISTS[name]
    curve = evolve_iid_mc(RHO0, dist, EvolutionPlan(STEPS), TRIALS, SEED, threads)
    assert len(curve) == STEPS + 1
    for k, point in enumerate(curve):
        assert point == iid_mc_point(RHO0.b, dist, k, TRIALS, SEED, threads), k


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_memory_curve_matches_per_point_estimator(variant, threads):
    kern = kernel(variant, 1e-3)
    curve = evolve_memory_mc(RHO0, kern, STEPS, TRIALS, SEED, threads)
    assert len(curve) == STEPS + 1
    for k, point in enumerate(curve):
        assert point == memory_mc_point(RHO0.b, kern, k, TRIALS, SEED, threads), k


def test_constant_samples_have_zero_stderr():
    def points(count):
        yield np.full(count, 0.1 + 0.2j)
        yield np.full(count, 0.3)

    estimates, _ = montecarlo.run(lambda keys: (points(len(keys)), None), TRIALS, SEED)
    complex_point, real_point = estimates
    assert complex_point == (0.1 + 0.2j, 0.0)
    assert real_point == (0.3, 0.0)


def test_estimate_is_independent_of_block_split():
    values = np.linspace(-1.0, 2.0, 1000) + 1j * np.linspace(0.5, -0.5, 1000) ** 2
    mean, stderr = montecarlo.estimate([montecarlo.block_moments(values)])
    # each part is shifted by its own first value, so the merge re-centres it
    parts = [montecarlo.block_moments(v) for v in np.split(values, [10, 500])]
    assert len({b[1][0] for b in parts}) == len({b[2][0] for b in parts}) == 3
    split_mean, split_stderr = montecarlo.estimate(parts)
    assert mean == pytest.approx(np.mean(values), abs=1e-15)
    assert stderr == pytest.approx(
        max(np.std(values.real, ddof=1), np.std(values.imag, ddof=1)) / math.sqrt(1000)
    )
    assert split_mean == pytest.approx(mean, abs=1e-15)
    assert split_stderr == pytest.approx(stderr, rel=1e-12)


def test_rejects_empty_run():
    with pytest.raises(ValueError):
        montecarlo.run(lambda keys: ([keys.astype(float)], None), 0, SEED)


@pytest.mark.parametrize("threads", [1, 3])
def test_sampler_sees_each_trajectory_once(threads):
    calls = []

    def sampler(keys):
        calls.append(len(keys))
        return [keys.astype(float)], int(keys[0] % 1000)

    def fold(acc, tally):
        assert threading.current_thread() is threading.main_thread()
        return acc + [tally]

    estimates, tallies = montecarlo.run(sampler, TRIALS, SEED, threads, fold, [])
    assert sum(calls) == TRIALS
    assert len(calls) == len(tallies) == -(-TRIALS // rng.BLOCK_SIZE)
    # the fold sees the tallies in block order
    starts = range(0, TRIALS, rng.BLOCK_SIZE)
    assert tallies == [int(stream_key(SEED, s) % 1000) for s in starts]
    assert len(estimates) == 1
    # without a fold the tallies are dropped
    assert montecarlo.run(sampler, TRIALS, SEED, threads) == (estimates, None)


def test_curve_points_equal_single_point_runs():
    # complex initial coherence: both routes shift by trajectory 0's own sample
    rho = DensityMatrix2(0.3, 0.2 + 0.25j, 0.7)
    dist, kern = DISTS["gaussian"], kernel(KernelVariant.COMBINED, 1e-3)
    iid = evolve_iid_mc(rho, dist, EvolutionPlan(3), 3000, SEED)
    chains = evolve_memory_mc(rho, kern, 3, 3000, SEED)
    for k in range(4):
        assert iid[k] == evolve_iid_mc(rho, dist, EvolutionPlan(k), 3000, SEED)[-1]
        assert chains[k] == evolve_memory_mc(rho, kern, k, 3000, SEED)[-1]


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("scale", [0.1, 3.0, 100.0, 1e6])
def test_phasors_match_complex_exponential(scale):
    theta = scale * np.random.default_rng(5).standard_normal(1 << 16)
    theta = np.concatenate([theta, [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]])
    z = montecarlo.phasors(theta.copy())
    assert np.max(np.abs(z - np.exp(-1j * theta))) <= 2 * EPS
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 2 * EPS


def test_phasors_are_the_strided_kernel_bit_for_bit():
    gen = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.pi, -math.pi, 1e3, -1e3]
    theta = np.concatenate(
        [
            special,
            gen.standard_normal(1 << 14),
            gen.uniform(-math.pi, math.pi, 1 << 14),
            gen.uniform(1e3, 1e6, 1 << 13) * gen.choice([-1.0, 1.0], 1 << 13),
            gen.exponential(1.0, (1 << 14) + (1 << 13) - len(special)),
        ]
    )
    assert len(theta) == 1 << 16
    assert np.count_nonzero((theta != 0) & (np.abs(theta) < np.finfo(np.float64).tiny)) == 4
    assert np.count_nonzero(np.abs(theta) > 1e3) > 8000
    want = phasors_strided(theta.copy()).tobytes()
    assert montecarlo.phasors(theta.copy()).tobytes() == want
    # inside a block the arrays come from the thread's set
    got = rng.run_blocks(1, lambda start, count: montecarlo.phasors(theta.copy()).tobytes(),
                         fold=lambda acc, block: acc + [block], initial=[])
    assert got == [want]


@pytest.mark.parametrize(
    "weights",
    [
        (0.2, 0.5, 0.3),
        (1.0,),
        (0.5,) + (1 / 6,) * 3,
        (1 / 256,) * 256,
        (1 / 300,) * 300,
        (1 / 255,) * 255,
        (1 / 257,) * 257,
        (0.5, 0.5, 2e-15),  # a running sum of exactly 1.0 before the last
        (0.6, 0.4 + 5e-13, 1e-15),  # and one above 1.0
    ],
)
def test_branch_index_matches_searchsorted(weights):
    # stream layout 6: a draw x's branch is that of its high half h = x >> 32,
    # and the branch of x << 32 that of its low half, each as u = half * 2^-32
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    edges = montecarlo.draw_edges(weights)
    # the draws either side of every threshold, and the extremes
    x = np.concatenate([
        np.random.default_rng(6).integers(0, 2**64, 10_000, dtype=np.uint64),
        edges - np.uint64(1),
        edges,
        edges + np.uint64(2**32 - 1),
        edges >> np.uint64(32),
        (edges >> np.uint64(32)) - np.uint64(1),
        np.array([0, 2**32 - 1, 2**64 - 1], dtype=np.uint64),
    ])
    mask = np.uint64(2**32 - 1)
    for draw, half in ((x, x >> np.uint64(32)), (x << np.uint64(32), x & mask)):
        index = montecarlo.branch_index(edges, draw)
        want = np.searchsorted(cum, half * 2.0**-32, side="right")
        assert np.array_equal(index, want)
        if len(edges) <= 255:
            assert index.dtype == np.uint8
    assert len(edges) == np.count_nonzero(cum[:-1] <= 1.0 - 2.0**-32)


@pytest.mark.parametrize(
    "weights",
    [
        (1 / 3,) * 3,
        (1e-12, 1.0 - 1e-12),
        (1.0 - 1e-12, 1e-12),
        (0.5, 1e-12, 0.5 - 1e-12),
        (1e-12,) * 4 + (1.0 - 4e-12,),
        (1 / 256,) * 256,
        tuple(j / 45_150 for j in range(1, 301)),  # 300 unequal branches
        (0.5, 0.5, 2e-15),
    ],
    ids=["thirds", "tiny-first", "tiny-last", "tiny-middle", "tiny-repeated", "256", "300",
         "sum-at-1"],
)
def test_draw_edges_give_each_branch_its_weight_within_2_to_the_minus_32(weights):
    # branch j takes the draws whose high half lies in [E_{j-1}, E_j), with
    # E_0 = 0 and E_last = 2^32, so its probability is (E_j - E_{j-1}) * 2^-32
    edges = [int(e) >> 32 for e in montecarlo.draw_edges(weights)]
    assert all(int(e) & (2**32 - 1) == 0 for e in montecarlo.draw_edges(weights))
    assert edges == sorted(edges)
    bounds = [0, *edges] + [2**32] * (len(weights) - len(edges))
    for j, w in enumerate(weights):
        probability = Fraction(bounds[j + 1] - bounds[j], 2**32)
        assert abs(probability - Fraction(w)) <= Fraction(1, 2**32), j


def test_real_moments_equal_complex_cast():
    values = np.random.default_rng(7).normal(1.0, 3.0, 1000)
    moments = montecarlo.block_moments(values)
    # repr tells the sign of a zero apart
    assert repr(moments) == repr(montecarlo.block_moments(values.astype(np.complex128)))


@pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 34_464, 65_536])
def test_one_pass_complex_moments_equal_per_part_moments(size):
    # pairwise summation changes its grouping at 8 and 128 entries
    gen = np.random.default_rng(size)
    values = gen.normal(0.3, 2.0, size) * 1e3 + 1j * gen.normal(-1.0, 1e-3, size)
    values[size // 2] = complex(-0.0, 0.0)

    def part(p):
        w = np.ascontiguousarray(p) - float(p[0])
        return float(p[0]), float(np.add.reduce(w)), float(np.add.reduce(w * w))

    want = (size, part(values.real), part(values.imag))
    assert repr(montecarlo.block_moments(values)) == repr(want)


# Every family that runs on the engine, as a function of (trials, threads).
FAMILIES = {
    "dissipative": lambda trials, threads: averaged_channel_mc(
        RHO0, 0.4, NoiseScales(2e-3, 1e-2), trials, SEED, threads
    ),
    **{
        f"iid-{name}": lambda trials, threads, dist=dist: evolve_iid_mc(
            RHO0, dist, EvolutionPlan(3), trials, SEED, threads
        )
        for name, dist in DISTS.items()
    },
    "memory": lambda trials, threads: evolve_memory_mc(
        RHO0, kernel(KernelVariant.COMBINED, 1e-3), 3, trials, SEED, threads
    ),
    "grover-fixed": lambda trials, threads: evaluate_strategy(
        FixedHorizon(100), GameConfig(8), trials, SEED, threads
    ),
    "grover-adaptive": lambda trials, threads: evaluate_strategy(
        AdaptiveTracking(1), GameConfig(4), trials, SEED, threads
    ),
}


@pytest.fixture
def fresh_arrays(monkeypatch):
    """Make every array request allocate, as no block reused a buffer."""

    def fresh():
        monkeypatch.setattr(rng._BlockArrays, "empty", lambda self, shape, dtype: np.empty(shape, dtype))

    return fresh


@pytest.mark.parametrize("trials", [65_537, 131_073])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_reused_buffers_change_no_bit(family, trials, fresh_arrays):
    # the last block is partial; at one thread it follows the full ones
    run = FAMILIES[family]
    reused = [repr(run(trials, threads)) for threads in (1, 2, 3)]
    fresh_arrays()
    assert reused == [repr(run(trials, 1))] * 3


def test_small_run_between_large_runs_changes_nothing():
    large = lambda: repr(FAMILIES["dissipative"](131_073, 2))
    small = lambda: repr(FAMILIES["iid-gaussian"](1000, 1))
    first, between, last = large(), small(), large()
    assert first == last and between == small()
