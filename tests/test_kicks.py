import cmath
import math

import numpy as np
import pytest

from _oracles import (
    as_complex,
    char_function_quadrature,
    delta_point,
    derive_stream,
    gaussian_for_target,
    gaussian_from_clock,
    is_decoherence_free,
    kick_half,
    kick_uniform,
)
from noisegames import kicks, montecarlo, rng
from noisegames.kicks import (
    DeltaMixture,
    EvolutionPlan,
    ExponentialKicks,
    GaussianKicks,
    char_function,
    evolve_iid,
    evolve_iid_mc,
)
from noisegames.memory import KernelVariant, evolve_memory_mc, kernel
from noisegames.qubit import DensityMatrix2, plus_state

UNIFORM_TRIPLE = DeltaMixture.uniform([-math.pi / 2, 0.0, math.pi / 2])


class TestCharFunction:
    def test_uniform_triple_is_one_third(self):
        df = char_function(UNIFORM_TRIPLE)
        assert abs(df.gamma - 1.0 / 3.0) < 1e-12
        assert df.phi == 0.0

    def test_gaussian_point_mass(self):
        df = char_function(GaussianKicks(0.0, 0.0))
        assert df.gamma == 1.0 and df.phi == 0.0

    def test_exponential_unit_scale(self):
        df = char_function(ExponentialKicks(1.0, 1.0))
        assert df.gamma == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert df.phi == pytest.approx(math.pi / 4.0, abs=1e-15)
        z = char_function_quadrature(ExponentialKicks(1.0, 1.0))
        assert abs(z - as_complex(df)) < 1e-9

    @pytest.mark.parametrize("mu", [-2.0, -0.5, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("sigma2", [0.0, 0.1, 0.5, 2.0, 5.0])
    def test_gaussian_matches_quadrature(self, mu, sigma2):
        dist = GaussianKicks(mu, sigma2)
        assert abs(as_complex(char_function(dist)) - char_function_quadrature(dist)) < 1e-9

    @pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("tau1", [0.2, 0.7, 1.0, 1.5, 4.0])
    def test_exponential_matches_quadrature(self, omega, tau1):
        dist = ExponentialKicks(omega, tau1)
        assert abs(as_complex(char_function(dist)) - char_function_quadrature(dist)) < 1e-9

    def test_magnitude_never_exceeds_one(self):
        stream = derive_stream(21, 0)
        for _ in range(200):
            n = 1 + stream.randint(5)
            w = stream.uniform_open(n)
            angles = (stream.uniform(n) * 2.0 - 1.0) * math.pi
            dist = DeltaMixture(tuple(zip(w / w.sum(), angles)))
            assert char_function(dist).gamma <= 1.0 + 1e-12

    def test_mixture_matches_summed_integral(self):
        stream = derive_stream(22, 0)
        for _ in range(50):
            n = 1 + stream.randint(5)
            w = stream.uniform_open(n)
            angles = (stream.uniform(n) * 2.0 - 1.0) * math.pi
            dist = DeltaMixture(tuple(zip(w / w.sum(), angles)))
            assert abs(as_complex(char_function(dist)) - char_function_quadrature(dist)) < 1e-9

class TestEvolveIid:
    def test_zero_steps_unchanged(self):
        rho = DensityMatrix2(0.3, 0.2 - 0.1j, 0.7)
        assert evolve_iid(rho, UNIFORM_TRIPLE, EvolutionPlan(0)) == [rho.b]

    def test_uniform_triple_two_steps(self):
        out = evolve_iid(plus_state(), UNIFORM_TRIPLE, EvolutionPlan(2))
        assert len(out) == 3
        assert abs(out[-1] - 1.0 / 18.0) < 1e-12

    def test_inverse_construction_one_step(self):
        dist = gaussian_for_target(0.9, 0.1)
        out = evolve_iid(plus_state(), dist, EvolutionPlan(1))
        assert abs(out[-1] - 0.5 * 0.9 * cmath.exp(-0.1j)) < 1e-12

    def test_semigroup_exact(self):
        rho = DensityMatrix2(0.4, 0.25 + 0.1j, 0.6)
        for dist in (UNIFORM_TRIPLE, GaussianKicks(0.3, 0.5), ExponentialKicks(1.0, 0.7)):
            once = evolve_iid(rho, dist, EvolutionPlan(13))[-1]
            mid = DensityMatrix2(rho.a, evolve_iid(rho, dist, EvolutionPlan(5))[-1], rho.c)
            split = evolve_iid(mid, dist, EvolutionPlan(8))[-1]
            assert once == split  # bitwise: same multiplication sequence

    @pytest.mark.parametrize(
        "dist",
        [GaussianKicks(0.3, 0.5), ExponentialKicks(1.0, 0.7), UNIFORM_TRIPLE],
        ids=["gaussian", "exponential", "delta"],
    )
    def test_curve_matches_chained_steps(self, dist):
        # the curve steps b in one loop; one-step evolve_iid calls each rebuild
        # the factor and a state, and must agree with it bit for bit
        rho = DensityMatrix2(0.4, 0.25 + 0.1j, 0.6)
        curve = evolve_iid(rho, dist, EvolutionPlan(300))
        states = [rho]
        for _ in range(300):
            b = evolve_iid(states[-1], dist, EvolutionPlan(1))[-1]
            states.append(DensityMatrix2(rho.a, b, rho.c))
        hexes = lambda bs: [(b.real.hex(), b.imag.hex()) for b in bs]
        assert hexes(curve) == hexes(s.b for s in states)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            EvolutionPlan(-1)
        with pytest.raises(ValueError):
            EvolutionPlan(2.5)


class TestEvolveIidMc:
    def test_point_mass_exact(self):
        dist = delta_point(0.8)
        b, se = evolve_iid_mc(plus_state(), dist, EvolutionPlan(3), 1000, seed=1)[-1]
        assert se < 1e-12
        assert abs(b - 0.5 * cmath.exp(-3 * 0.8j)) < 1e-12

    def test_uniform_triple_one_step(self):
        b, se = evolve_iid_mc(plus_state(), UNIFORM_TRIPLE, EvolutionPlan(1), 100_000, seed=2)[-1]
        exact = 0.5 / 3.0
        assert abs(b.real - exact) < 3 * se
        assert abs(b.imag) < 3 * se

    def test_gaussian_ten_steps(self):
        b, se = evolve_iid_mc(
            plus_state(), GaussianKicks(0.0, 0.5), EvolutionPlan(10), 100_000, seed=3
        )[-1]
        assert abs(abs(b) - 0.5 * math.exp(-2.5)) < 3 * se

    def test_populations_untouched(self):
        # kicks act on the coherence alone: the curve is of rho0.b's (b, stderr)
        # points, the same for any populations
        dist, plan = GaussianKicks(0.1, 0.2), EvolutionPlan(4)
        curve = evolve_iid_mc(DensityMatrix2(0.2, 0.1j, 0.8), dist, plan, 100, seed=4)
        assert curve == evolve_iid_mc(DensityMatrix2(0.5, 0.1j, 0.5), dist, plan, 100, seed=4)
        assert curve[0] == (0.1j, 0.0) and all(type(b) is complex for b, _ in curve)

    def test_deterministic_and_thread_invariant(self):
        args = (plus_state(), GaussianKicks(0.2, 0.3), EvolutionPlan(5), 200_000)
        a = evolve_iid_mc(*args, seed=9, threads=1)
        b = evolve_iid_mc(*args, seed=9, threads=8)
        assert a == b

    def test_error_shrinks_like_root_k(self):
        # 3-sigma bands at trials = 40000 * k for k in {1, 4, 16}.
        exact = evolve_iid(plus_state(), GaussianKicks(0.0, 0.8), EvolutionPlan(3))[-1]
        for k in (1, 4, 16):
            b, se = evolve_iid_mc(
                plus_state(), GaussianKicks(0.0, 0.8), EvolutionPlan(3), 40_000 * k, seed=5
            )[-1]
            assert abs(b.real - exact.real) < 3 * se
            assert abs(b.imag - exact.imag) < 3 * se
            assert se < 1.1 * 0.7 / math.sqrt(40_000 * k)


class TestGaussianPairs:
    """Layouts 4 and 6: kick k takes the cosine (even k) or sine (odd k) of Box-Muller pair k // 2."""

    @pytest.mark.parametrize("steps", [1, 4, 5])
    def test_kicks_read_cosine_then_sine(self, steps):
        keys = rng.stream_keys(21, 0, 1000)
        got = [z.copy() for z in montecarlo.kick_draws(keys, steps, rng.slot_normal)]
        assert len(got) == steps
        for k, z in enumerate(got):
            cosine, sine = rng.slot_normal(keys, k // 2)
            assert z.tobytes() == (sine if k % 2 else cosine).tobytes(), k

    @pytest.mark.parametrize("steps", [6, 7])
    def test_short_run_is_prefix_of_long_run(self, steps):
        rho, dist = DensityMatrix2(0.6, 0.3 + 0.2j, 0.4), GaussianKicks(0.3, 0.5)
        full = evolve_iid_mc(rho, dist, EvolutionPlan(20), 3000, seed=4)
        assert evolve_iid_mc(rho, dist, EvolutionPlan(steps), 3000, seed=4) == full[: steps + 1]

    def test_even_steps_thread_invariant_across_blocks(self):
        # odd steps: tests/test_montecarlo.py::test_reused_buffers_change_no_bit
        run = lambda threads: repr(
            evolve_iid_mc(plus_state(), GaussianKicks(0.1, 0.8), EvolutionPlan(4), 65_537, 6, threads)
        )
        one = run(1)
        assert run(2) == one and run(3) == one


class TestStreamLayout6:
    """Kicks 2j and 2j + 1 read the high and the low 32 bits of raw slot j."""

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_exponential_kicks_read_the_halves(self, steps):
        keys = rng.stream_keys(22, 0, 1000)
        got = [half.tobytes() for half in montecarlo.kick_draws(keys, steps, rng.slot_halves)]
        assert got == [kick_half(keys, s).astype(np.float64).tobytes() for s in range(steps)]

    @pytest.mark.parametrize("branches", [3, 300])  # the count and the binary-search paths
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_delta_kicks_read_the_halves(self, branches, steps):
        keys = rng.stream_keys(23, 0, 1000)
        weights = np.arange(1, branches + 1) / (branches * (branches + 1) / 2)
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        edges = montecarlo.draw_edges(weights)
        got = list(montecarlo.kick_draws(keys, steps, montecarlo.branch_pair(edges)))
        assert len(got) == steps
        for s, index in enumerate(got):
            want = np.searchsorted(cum, kick_uniform(keys, s), side="right")
            assert index.tolist() == want.tolist(), s


def _iid_run(dist):
    return lambda steps, trials: evolve_iid_mc(plus_state(), dist, EvolutionPlan(steps), trials, 5)


def _memory_run(variant):
    return lambda steps, trials: evolve_memory_mc(plus_state(), kernel(variant, 0.1), steps, trials, 5)


KICKED_RUNS = {
    "gaussian": _iid_run(GaussianKicks(0.2, 0.3)),
    "exponential": _iid_run(ExponentialKicks(0.7, 0.5)),
    "delta-3": _iid_run(DeltaMixture.uniform([-1.0, 0.0, 1.0])),
    # 299 edges: the binary-search path of montecarlo.branch_index
    "delta-300": _iid_run(DeltaMixture.uniform(np.linspace(-3.0, 3.0, 300))),
    **{f"memory-{v.value}": _memory_run(v) for v in KernelVariant},
}


@pytest.mark.parametrize("steps", range(6))
@pytest.mark.parametrize("law", KICKED_RUNS)
def test_kicked_curve_draws_its_charge(law, steps, monkeypatch):
    # every kicked law reads raw slots through montecarlo.kick_draws, so its
    # draws, counted at rng._draw, are the shared charge, odd steps included
    drawn = []
    draw = rng._draw
    monkeypatch.setattr(rng, "_draw", lambda *a: drawn.append(a[2].size) or draw(*a))
    trials = 1000
    assert len(KICKED_RUNS[law](steps, trials)) == steps + 1
    assert sum(drawn) == kicks.draw_charge(steps, trials)


class TestNamedConstructions:
    def test_clock_at_zero(self):
        dist = gaussian_from_clock(0.0, 2.0)
        assert dist.mu == 0.0 and dist.sigma2 == 0.0

    def test_clock_at_half_pi(self):
        dist = gaussian_from_clock(math.pi / 2.0, 1.0)
        assert dist.mu == pytest.approx(1.0, abs=1e-15)
        assert dist.sigma2 == pytest.approx(2.0, abs=1e-15)

    def test_clock_decay_at_unit_ratio(self):
        dist = gaussian_from_clock(1.0, 1.0)
        df = char_function(dist)
        assert df.gamma == pytest.approx(math.exp(-(1.0 - math.cos(1.0))), abs=1e-15)
        assert df.gamma == pytest.approx(0.6314745151064698, abs=1e-12)
        assert abs(char_function_quadrature(dist) - as_complex(df)) < 1e-9

    def test_clock_requires_positive_rate(self):
        with pytest.raises(ValueError):
            gaussian_from_clock(1.0, 0.0)

    def test_target_point_mass(self):
        dist = gaussian_for_target(1.0, 0.0)
        assert dist.sigma2 == 0.0

    def test_target_half(self):
        dist = gaussian_for_target(0.5, 0.2)
        assert dist.mu == 0.2
        assert dist.sigma2 == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert dist.sigma2 == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_target_round_trip(self):
        df = char_function(gaussian_for_target(0.9, -0.3))
        assert abs(df.gamma - 0.9) < 1e-9
        assert abs(df.phi - (-0.3)) < 1e-9

    def test_target_validation(self):
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                gaussian_for_target(bad, 0.0)


class TestDecoherenceFree:
    def test_single_delta(self):
        assert is_decoherence_free(delta_point(1.3), 1e-9)

    def test_two_pi_spaced(self):
        dist = DeltaMixture(((0.5, 0.7), (0.5, 0.7 + 2.0 * math.pi)))
        assert is_decoherence_free(dist, 1e-9)

    def test_uniform_triple_decays(self):
        assert not is_decoherence_free(UNIFORM_TRIPLE, 1e-9)

    def test_rejects_other_variants(self):
        with pytest.raises(TypeError):
            is_decoherence_free(GaussianKicks(0.0, 0.0), 1e-9)


class TestValidation:
    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DeltaMixture(((0.5, 0.0), (0.4, 1.0)))

    def test_mixture_drops_dust_weights(self):
        dist = DeltaMixture(((1.0 - 1e-16, 0.0), (1e-16, 2.0)))
        assert len(dist.pairs) == 1

    def test_exponential_needs_positive_scale(self):
        with pytest.raises(ValueError):
            ExponentialKicks(1.0, 0.0)
        with pytest.raises(ValueError):
            ExponentialKicks(-1.0, 1.0)

    def test_gaussian_needs_nonnegative_variance(self):
        with pytest.raises(ValueError):
            GaussianKicks(0.0, -0.1)
