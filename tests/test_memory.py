import cmath
import math

import pytest

from _oracles import (
    as_mixture,
    chain_phasors,
    coherence_recursion_by_label,
    coherence_recursion_from,
    effective_decay_by_label,
)
from noisegames import memory, montecarlo, rng
from noisegames.kicks import char_function
from noisegames.memory import (
    KernelBranch,
    KernelVariant,
    MemoryKernel,
    SetLabel,
    coherence_recursion,
    evolve_memory_mc,
    kernel,
    set_a_support,
    set_b_support,
)
from noisegames.qubit import DensityMatrix2, plus_state

EPS = 1e-3


class TestKernel:
    def test_combined_from_class_a(self):
        k = kernel(KernelVariant.COMBINED, EPS)
        mix = as_mixture(k, SetLabel.SET_A)
        got = dict(zip(mix.angles, mix.weights))
        assert got[EPS] == pytest.approx(0.5)
        for ang in set_a_support():
            assert got[ang] == pytest.approx(1.0 / 6.0)

    def test_pure_a_from_outside_kicks_to_zero(self):
        k = kernel(KernelVariant.PURE_A, EPS)
        branches = k.branches(SetLabel.SET_B)  # class of pi/4 etc.
        assert len(branches) == 1
        assert branches[0].angle == 0.0 and branches[0].weight == 1.0
        assert branches[0].to_label is SetLabel.SET_A

    def test_pure_b_inside_is_uniform(self):
        k = kernel(KernelVariant.PURE_B, EPS)
        mix = as_mixture(k, SetLabel.SET_B)
        assert sorted(mix.angles) == sorted(set_b_support(EPS))
        assert all(w == pytest.approx(1.0 / 3.0) for w in mix.weights)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            kernel(KernelVariant.COMBINED, math.pi / 8.0)

    def test_closure_one_step_from_every_support_angle(self):
        # Every branch angle reachable from either class lies in the union
        # of the two supports, with a consistent destination label, and
        # each class's branch weights are a probability law.
        for variant in KernelVariant:
            k = kernel(variant, EPS)
            supports = {
                SetLabel.SET_A: set_a_support(),
                SetLabel.SET_B: set_b_support(EPS),
            }
            for label in SetLabel:
                branches = k.branches(label)
                assert all(br.weight >= 0.0 for br in branches)
                assert abs(math.fsum(br.weight for br in branches) - 1.0) <= 1e-12
                for br in branches:
                    assert any(
                        abs(br.angle - s) < 1e-9 for s in supports[br.to_label]
                    )

    def test_pure_decay_factors_are_one_third(self):
        for variant, label in (
            (KernelVariant.PURE_A, SetLabel.SET_A),
            (KernelVariant.PURE_B, SetLabel.SET_B),
        ):
            mix = as_mixture(kernel(variant, EPS), label)
            assert abs(char_function(mix).gamma - 1.0 / 3.0) < 1e-12


class TestRecursion:
    def test_first_step_matches_hand_computation(self):
        eps = 0.3
        tr = coherence_recursion(kernel(KernelVariant.COMBINED, eps), 1)
        assert abs(tr.values[0][0] - (cmath.exp(1j * eps) / 2.0 + 1.0 / 6.0)) < 1e-15
        assert abs(tr.values[0][1] - (0.5 + cmath.exp(1j * eps) / 6.0)) < 1e-15

    def test_combined_at_zero_eps_is_two_thirds_power(self):
        tr = coherence_recursion(kernel(KernelVariant.COMBINED, 0.0), 12)
        for k, (fa, fb) in enumerate(tr.values, start=1):
            assert abs(fa - (2.0 / 3.0) ** k) < 1e-12
            assert abs(fb - (2.0 / 3.0) ** k) < 1e-12

    def test_pure_a_is_one_third_power(self):
        tr = coherence_recursion(kernel(KernelVariant.PURE_A, EPS), 8)
        for k, (fa, _) in enumerate(tr.values, start=1):
            assert abs(fa - (1.0 / 3.0) ** k) < 1e-12

    def test_contraction_at_zero_eps(self):
        tr = coherence_recursion(kernel(KernelVariant.COMBINED, 0.0), 30)
        prev = 1.0
        for fa, fb in tr.values:
            assert abs(fa) <= prev + 1e-12 and abs(fb) <= prev + 1e-12
            prev = max(abs(fa), abs(fb))

    def test_magnitude_bounded(self):
        # every kernel's recursion is an average of unit phases, so it never
        # leaves the unit disc, however long it runs
        for variant in KernelVariant:
            tr = coherence_recursion(kernel(variant, 0.3), 3000)
            assert all(abs(fa) <= 1 + 1e-12 and abs(fb) <= 1 + 1e-12 for fa, fb in tr.values)


def decay(variant, eps, n):
    return coherence_recursion(kernel(variant, eps), n).decay_per_step


class TestEffectiveDecay:
    def test_combined_exact_at_zero_eps(self):
        for n in (2, 5, 20, 50):
            assert abs(decay(KernelVariant.COMBINED, 0.0, n) - 2 / 3) < 1e-12

    def test_combined_near_two_thirds_at_small_eps(self):
        assert abs(decay(KernelVariant.COMBINED, EPS, 50) - 2 / 3) < 5e-3

    def test_pure_variants_exact_one_third(self):
        assert abs(decay(KernelVariant.PURE_A, EPS, 50) - 1 / 3) < 1e-12
        assert abs(decay(KernelVariant.PURE_B, EPS, 50) - 1 / 3) < 1e-12

    def test_switching_beats_both_components(self):
        combined = decay(KernelVariant.COMBINED, 1e-6, 60)
        pure_a = decay(KernelVariant.PURE_A, 1e-6, 60)
        pure_b = decay(KernelVariant.PURE_B, 1e-6, 60)
        assert combined > max(pure_a, pure_b)

    def test_needs_two_steps(self):
        assert decay(KernelVariant.COMBINED, 0.0, 1) is None

    def test_long_runs_past_float_underflow(self):
        # f_n itself underflows near n = 1750 at rate 2/3 and n = 680 at 1/3
        n = 3000
        assert abs(decay(KernelVariant.COMBINED, 0.0, n) - 2 / 3) < 1e-12
        assert abs(decay(KernelVariant.COMBINED, EPS, n) - 2 / 3) < 5e-3
        assert abs(decay(KernelVariant.PURE_A, EPS, n) - 1 / 3) < 1e-12
        assert abs(decay(KernelVariant.PURE_B, EPS, n) - 1 / 3) < 1e-12


def _mixed_kernel(count_a: int, count_b: int) -> MemoryKernel:
    """Equal weights per class; destinations and angles vary by branch."""
    A, B = SetLabel.SET_A, SetLabel.SET_B
    return MemoryKernel(
        KernelVariant.COMBINED,
        0.0,
        tuple(KernelBranch(1 / count_a, 0.01 * j, B if j % 2 else A) for j in range(count_a)),
        tuple(KernelBranch(1 / count_b, -0.02 * j, A if j % 3 == 0 else B) for j in range(count_b)),
    )


CHAIN_KERNELS = {
    **{
        f"{variant.value}-eps{eps}": kernel(variant, eps)
        for variant in KernelVariant
        for eps in (0.0, 0.1, -0.3)
    },
    # each class at most 256 branches, merged thresholds past 255
    "200-and-256-branches": _mixed_kernel(200, 256),
}


def test_wide_chain_kernel_picks_by_binary_search():
    kern = CHAIN_KERNELS["200-and-256-branches"]
    edges = (montecarlo.draw_edges([br.weight for br in kern.branches(c)]) for c in SetLabel)
    assert len(set().union(*(e.tolist() for e in edges))) > montecarlo._COUNT_MAX_EDGES


class TestMonteCarlo:
    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_matches_recursion(self, variant, n):
        k = kernel(variant, EPS)
        expected = 0.5 * coherence_recursion(k, n).final_a.conjugate()
        b, se = evolve_memory_mc(plus_state(), k, n, 100_000, seed=37)[-1]
        tol = 3 * max(se, 1e-12)
        assert abs(b.real - expected.real) < tol
        assert abs(b.imag - expected.imag) < tol

    def test_pure_a_single_step(self):
        kern = kernel(KernelVariant.PURE_A, EPS)
        b, se = evolve_memory_mc(plus_state(), kern, 1, 100_000, seed=2)[-1]
        assert abs(b.real - 1.0 / 6.0) < 3 * se

    def test_complex_phase_convention(self):
        # at nonzero eps the estimate converges to b * conj(f_n), not b * f_n
        k = kernel(KernelVariant.COMBINED, 0.3)
        f3 = coherence_recursion(k, 3).final_a
        b, se = evolve_memory_mc(plus_state(), k, 3, 200_000, seed=5)[-1]
        assert abs(b - 0.5 * f3.conjugate()) < 4 * se
        assert abs(b - 0.5 * f3) > 10 * se  # wrong reading

    def test_deterministic_single_trial(self):
        k = kernel(KernelVariant.COMBINED, EPS)
        a = evolve_memory_mc(plus_state(), k, 7, 1, seed=11)
        b = evolve_memory_mc(plus_state(), k, 7, 1, seed=11)
        assert a == b

    def test_thread_invariance(self):
        k = kernel(KernelVariant.COMBINED, EPS)
        a = evolve_memory_mc(plus_state(), k, 5, 150_000, seed=4, threads=1)
        b = evolve_memory_mc(plus_state(), k, 5, 150_000, seed=4, threads=8)
        assert a == b

    def test_more_than_256_branches(self):
        # 200 class-A branches kick 0 into B, then 100 class-B branches kick
        # pi: class B's branch indices lie past 255 in the shared table
        A, B = SetLabel.SET_A, SetLabel.SET_B
        kern = MemoryKernel(
            KernelVariant.COMBINED,
            0.0,
            tuple(KernelBranch(1 / 200, 0.0, B) for _ in range(200)),
            tuple(KernelBranch(1 / 100, math.pi, A) for _ in range(100)),
        )
        exact = [0.5 * f.conjugate() for f, _ in coherence_recursion(kern, 2).values]
        curve = evolve_memory_mc(plus_state(), kern, 2, 1000, seed=3)
        for (b, se), want in zip(curve[1:], exact):
            assert se == 0.0
            assert abs(b - want) < 1e-15

    @pytest.mark.parametrize("kern", CHAIN_KERNELS.values(), ids=CHAIN_KERNELS.keys())
    def test_chain_phasors_match_oracle_chain(self, kern):
        # one pick over both classes' merged thresholds, from the raw draw,
        # gives the oracle's per-class searchsorted over uniforms bit for bit
        keys = rng.stream_keys(8, 0, 20_000)
        got = [p.tobytes() for p in memory._chain_phasors(kern, keys, 6)]
        assert got == [p.tobytes() for p in chain_phasors(kern, keys, 6)]

    def test_one_branch_pick_per_kick(self, monkeypatch):
        calls = []
        pick = montecarlo.branch_index

        def counted(*args):
            calls.append(args)
            return pick(*args)

        monkeypatch.setattr(montecarlo, "branch_index", counted)
        keys = rng.stream_keys(8, 0, 100)
        assert len(list(memory._chain_phasors(kernel(KernelVariant.COMBINED, 0.1), keys, 5))) == 5
        assert len(calls) == 5

    def test_populations_untouched(self):
        # kicks act on the coherence alone: the curve is of rho0.b's (b, stderr)
        # points, the same for any populations
        kern = kernel(KernelVariant.PURE_B, EPS)
        curve = evolve_memory_mc(DensityMatrix2(0.3, 0.2j, 0.7), kern, 6, 500, seed=1)
        assert curve == evolve_memory_mc(DensityMatrix2(0.5, 0.2j, 0.5), kern, 6, 500, seed=1)
        assert curve[0] == (0.2j, 0.0) and all(type(b) is complex for b, _ in curve)


@pytest.mark.parametrize("variant", list(KernelVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3000])
def test_recursion_matches_label_keyed_oracle(variant, eps, n):
    # positional coefficients sum the same terms in the same order as the
    # class-keyed dicts, so every bit agrees, the sign of zero included
    k = kernel(variant, eps)
    trace = coherence_recursion(k, n)
    hexes = lambda pairs: [(z.real.hex(), z.imag.hex()) for pair in pairs for z in pair]
    assert hexes(trace.values) == hexes(coherence_recursion_by_label(k, n))
    if n >= 2:
        assert trace.decay_per_step.hex() == effective_decay_by_label(k, n).hex()


@pytest.mark.parametrize("variant", list(KernelVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.3])
def test_tail_rounded_once_past_underflow(variant, eps):
    # Started from (2**1000, 2**1000), the unscaled recursion stays normal
    # wherever the true f_k is at least 2**-2022, so scaling it back by
    # 2**-1000 rounds each component once.  The rescaled recursion must give
    # those bits, also where f_k is subnormal.  Below 2**-2022 both flush to
    # zero, and the sign of the reference's zero carries no information.
    n = 3000
    k = kernel(variant, eps)
    high = coherence_recursion_from(k, n, 2.0**1000)
    want = [math.ldexp(x, -1000) for pair in high for z in pair for x in (z.real, z.imag)]
    got = [x for pair in coherence_recursion(k, n).values for z in pair for x in (z.real, z.imag)]
    bits = lambda xs: [x.hex() if x else "0" for x in xs]
    assert bits(got) == bits(want)
