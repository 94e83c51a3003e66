import cmath
import math

import numpy as np
import pytest

from _oracles import (
    DampingPhaseParams,
    apply_channel,
    apply_unitary,
    averaged_channel_exact,
    build_damping_phase_channel,
    damping_moments,
    derive_stream,
    random_state,
    rz,
)
from noisegames import montecarlo, rng
from noisegames.dissipative import (
    NoiseScales,
    _step_factors,
    averaged_channel_first_order,
    averaged_channel_mc,
    max_mixing_probability,
    relaxation_times,
)
from noisegames.qubit import DensityMatrix2, plus_state


class TestChannel:
    def test_full_damping_sends_to_ground(self):
        ch = build_damping_phase_channel(DampingPhaseParams(1.0, 1.0, 0.3))
        out = apply_channel(ch, DensityMatrix2(0.2, 0.1 + 0.3j, 0.8))
        assert out.a == pytest.approx(1.0, abs=1e-12)
        assert abs(out.b) < 1e-12 and out.c == pytest.approx(0.0, abs=1e-12)

    def test_zero_strength_is_identity(self):
        ch = build_damping_phase_channel(DampingPhaseParams(0.6, 0.0, 0.0))
        rho = DensityMatrix2(0.4, 0.2 - 0.1j, 0.6)
        out = apply_channel(ch, rho)
        assert abs(out.a - rho.a) < 1e-12 and abs(out.b - rho.b) < 1e-12

    def test_zero_mixing_is_pure_rotation(self):
        ch = build_damping_phase_channel(DampingPhaseParams(0.0, 0.7, 1.3))
        rho = DensityMatrix2(0.4, 0.2 - 0.1j, 0.6)
        out = apply_channel(ch, rho)
        want = apply_unitary(rz(1.3), rho)
        assert abs(out.b - want.b) < 1e-12
        assert out.a == pytest.approx(want.a, abs=1e-12)

    def test_matches_displayed_entries(self):
        stream = derive_stream(19, 0)
        for _ in range(50):
            p, alpha = (float(x) for x in stream.uniform(2))
            theta = float(stream.uniform(1)[0]) * 6.0 - 3.0
            rho = random_state(stream)
            out = apply_channel(
                build_damping_phase_channel(DampingPhaseParams(p, alpha, theta)), rho
            )
            a, b, c = rho.a, rho.b, rho.c
            assert out.a == pytest.approx(1.0 - (1.0 - alpha * p) * (1.0 - a), abs=1e-12)
            assert out.c == pytest.approx(c * (1.0 - alpha * p), abs=1e-12)
            want_b = b * (
                p * math.sqrt(1.0 - alpha) + (1.0 - p) * cmath.exp(-1j * theta)
            )
            assert abs(out.b - want_b) < 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DampingPhaseParams(1.2, 0.5, 0.0)
        with pytest.raises(ValueError):
            DampingPhaseParams(0.5, -0.1, 0.0)


class TestAveragedMc:
    def test_zero_noise_is_identity(self):
        res = averaged_channel_mc(plus_state(), 0.7, NoiseScales(0.0, 0.0), 1000, seed=1)
        assert res.rho_avg == plus_state()
        assert res.stderr_pop == 0.0 and res.stderr_coh == 0.0
        assert res.clamp_fraction == 0.0

    def test_diagonal_relaxation_factor(self):
        # p = 1: population of |1> relaxes by 1 - sqrt(4 lambda_ad / pi)
        lam = 1e-4
        res = averaged_channel_mc(plus_state(), 1.0, NoiseScales(lam, 0.0), 400_000, seed=2)
        want_c = 0.5 * (1.0 - math.sqrt(4.0 * lam / math.pi))
        assert abs(res.rho_avg.c - want_c) < 3 * res.stderr_pop

    def test_offdiagonal_dephasing_factor(self):
        res = averaged_channel_mc(plus_state(), 0.0, NoiseScales(0.0, 0.02), 400_000, seed=3)
        assert abs(res.rho_avg.b.real - 0.5 * math.exp(-0.02)) < 3 * res.stderr_coh

    def test_output_is_valid_state(self):
        res = averaged_channel_mc(
            DensityMatrix2(0.1, 0.25j, 0.9), 0.4, NoiseScales(1e-3, 1e-2), 50_000, seed=4
        )
        assert abs(res.rho_avg.a + res.rho_avg.c - 1.0) < 1e-12

    def test_thread_invariance(self):
        args = (plus_state(), 0.5, NoiseScales(1e-3, 1e-2), 300_000)
        a = averaged_channel_mc(*args, seed=5, threads=1)
        for threads in (2, 8):
            b = averaged_channel_mc(*args, seed=5, threads=threads)
            assert a == b, threads

    def test_one_pair_gives_theta_and_alpha(self, monkeypatch):
        # stream layout 6: theta is the cosine and alpha the clamped sine of
        # the Box-Muller pair of raw slot 0; no other raw slot is drawn
        scales, seed, n = NoiseScales(0.5, 0.3), 11, rng.BLOCK_SIZE
        seen = {"theta": [], "points": [], "slots": set()}
        draw, phasors, block_moments = rng._draw, montecarlo.phasors, montecarlo.block_moments

        def spy_draw(keys, first, out, t):
            seen["slots"].update(range(first, first + len(out)))
            return draw(keys, first, out, t)

        def spy_phasors(theta):
            seen["theta"].append(theta.copy())
            return phasors(theta)

        def spy_moments(values):
            seen["points"].append(values.copy())
            return block_moments(values)

        monkeypatch.setattr(rng, "_draw", spy_draw)
        monkeypatch.setattr(montecarlo, "phasors", spy_phasors)
        monkeypatch.setattr(montecarlo, "block_moments", spy_moments)
        # a0 = 0 and p = 1 make the population exactly alpha
        res = averaged_channel_mc(DensityMatrix2(0.0, 0.0, 1.0), 1.0, scales, n, seed)
        monkeypatch.undo()
        assert seen["slots"] == {0}
        cosine, sine = rng.slot_normal(rng.stream_keys(seed, 0, n), 0)
        theta = cosine * math.sqrt(2.0 * scales.lambda_pd)
        alpha = np.minimum(np.abs(sine * math.sqrt(2.0 * scales.lambda_ad)), 1.0)
        (got_theta,), (got_alpha, _) = seen["theta"], seen["points"]
        assert got_theta.tobytes() == theta.tobytes()
        assert got_alpha.tobytes() == alpha.tobytes()
        assert res.clamp_fraction == np.count_nonzero(alpha == 1.0) / n > 0.0


def _exact_partner_z(lambda_ad: float) -> dict[str, float]:
    """(MC - exact) / stderr of a, b_re, b_im and the clamp fraction at 2^20 trials."""
    rho, p, trials = DensityMatrix2(0.3, 0.2 + 0.35j, 0.7), 0.5, 1 << 20
    scales = NoiseScales(lambda_ad, 1e-2)
    mc = averaged_channel_mc(rho, p, scales, trials, seed=5)
    exact = averaged_channel_exact(rho, p, scales)
    clamp = damping_moments(lambda_ad)[2]
    clamp_err = math.sqrt(clamp * (1.0 - clamp) / trials)
    return {
        "a": (mc.rho_avg.a - exact.a) / mc.stderr_pop,
        "b_re": (mc.rho_avg.b.real - exact.b.real) / mc.stderr_coh,
        "b_im": (mc.rho_avg.b.imag - exact.b.imag) / mc.stderr_coh,
        # a clamp probability that underflows to 0 admits no clamp at all
        "clamp": (mc.clamp_fraction - clamp) / clamp_err if clamp_err
        else math.inf if mc.clamp_fraction else 0.0,
        "clamp_fraction": mc.clamp_fraction,
    }


class TestExactPartner:
    @pytest.mark.parametrize("lambda_ad", [1e-4, 1e-2, 0.05, 0.2, 1.0])
    def test_mc_is_within_four_sigma_of_the_exact_channel(self, lambda_ad):
        z = _exact_partner_z(lambda_ad)
        assert max(abs(z[k]) for k in ("a", "b_re", "b_im", "clamp")) <= 4.0, z

    @pytest.mark.parametrize("lambda_ad", [1e-2, 0.2])
    def test_twenty_seed_mean_z_shows_no_bias(self, lambda_ad):
        # each z has variance 1, so the mean of 20 independent runs has
        # standard error 1 / sqrt(20)
        rho, p, scales = DensityMatrix2(0.3, 0.2 + 0.35j, 0.7), 0.5, NoiseScales(lambda_ad, 1e-2)
        exact = averaged_channel_exact(rho, p, scales)
        z = {"a": [], "b_re": [], "b_im": []}
        for seed in range(100, 120):
            mc = averaged_channel_mc(rho, p, scales, 1 << 16, seed)
            z["a"].append((mc.rho_avg.a - exact.a) / mc.stderr_pop)
            z["b_re"].append((mc.rho_avg.b.real - exact.b.real) / mc.stderr_coh)
            z["b_im"].append((mc.rho_avg.b.imag - exact.b.imag) / mc.stderr_coh)
        for part, values in z.items():
            assert abs(sum(values) / len(values)) <= 3.0 / math.sqrt(len(values)), part

    @pytest.mark.parametrize("lambda_ad", [1e-8, 1e-6, 1e-4])
    def test_exact_moments_meet_the_first_order_series(self, lambda_ad):
        mean, root, clamp = damping_moments(lambda_ad)
        assert mean == pytest.approx(math.sqrt(4.0 * lambda_ad / math.pi), rel=1e-12)
        assert root == pytest.approx(1.0 - math.sqrt(lambda_ad / math.pi), abs=2.0 * lambda_ad)
        assert clamp == 0.0


class TestFirstOrder:
    def test_zero_noise_identity(self):
        rho = DensityMatrix2(0.3, 0.1 + 0.2j, 0.7)
        assert averaged_channel_first_order(rho, 0.5, NoiseScales(0.0, 0.0)) == rho

    def test_offdiagonal_factor_value(self):
        out = averaged_channel_first_order(plus_state(), 0.5, NoiseScales(1e-4, 1e-2))
        factor = out.b.real / 0.5
        want = 0.5 * (1.0 - math.sqrt(1e-4 / math.pi)) + 0.5 * math.exp(-1e-2)
        assert factor == pytest.approx(want, abs=1e-15)
        assert factor == pytest.approx(0.9922039689568453, abs=1e-12)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            averaged_channel_first_order(plus_state(), 0.5, NoiseScales(0.05, 0.0))

    @pytest.mark.parametrize("lam_ad", [1e-3, 1e-4])
    @pytest.mark.parametrize("lam_pd", [1e-2, 1e-3])
    def test_agrees_with_mc(self, lam_ad, lam_pd):
        scales = NoiseScales(lam_ad, lam_pd)
        rho = plus_state()
        mc = averaged_channel_mc(rho, 0.5, scales, 200_000, seed=6)
        fo = averaged_channel_first_order(rho, 0.5, scales)
        tol_pop = max(3 * mc.stderr_pop, 5 * lam_ad)
        tol_coh = max(3 * mc.stderr_coh, 5 * lam_ad)
        assert abs(mc.rho_avg.a - fo.a) < tol_pop
        assert abs(mc.rho_avg.c - fo.c) < tol_pop
        assert abs(mc.rho_avg.b.real - fo.b.real) < tol_coh
        assert abs(mc.rho_avg.b.imag - fo.b.imag) < tol_coh


class TestMixingBound:
    def test_no_damping_allows_full_mixing(self):
        assert max_mixing_probability(NoiseScales(0.0, 0.3)) == 1.0

    def test_no_dephasing_forbids_mixing(self):
        # at 5e-324, sqrt(lambda_ad / pi) underflows to 0
        for lambda_ad in (1e-4, 5e-324):
            assert max_mixing_probability(NoiseScales(lambda_ad, 0.0)) == 0.0

    def test_reference_value(self):
        p = max_mixing_probability(NoiseScales(1e-4, 1e-2))
        assert p == pytest.approx(0.6381558895643837, abs=1e-12)

    def test_undefined_when_noiseless(self):
        with pytest.raises(ValueError):
            max_mixing_probability(NoiseScales(0.0, 0.0))

    def test_monotone_on_grid(self):
        ads = [10 ** (-6 + 0.4 * i) for i in range(10)]
        pds = [10 ** (-4 + 0.35 * i) for i in range(10)]
        for pd in pds:
            vals = [max_mixing_probability(NoiseScales(ad, pd)) for ad in ads]
            assert all(x > y for x, y in zip(vals, vals[1:]))  # decreasing in ad
        for ad in ads:
            vals = [max_mixing_probability(NoiseScales(ad, pd)) for pd in pds]
            assert all(x < y for x, y in zip(vals, vals[1:]))  # increasing in pd


class TestRelaxationTimes:
    def test_equality_at_the_bound(self):
        scales = NoiseScales(1e-4, 1e-2)
        t = relaxation_times(max_mixing_probability(scales), scales)
        assert t.t1 / (t.t2 / 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_no_mixing_limits(self):
        t = relaxation_times(0.0, NoiseScales(1e-4, 1e-2))
        assert t.t1 == math.inf
        # coherence amplitude time constant t2/2 ~ tau0 / lambda_pd
        assert t.t2 / 2.0 == pytest.approx(1.0 / 1e-2, rel=1e-2)

    def test_bound_is_exact_threshold(self):
        scales = NoiseScales(1e-4, 1e-2)
        p_max = max_mixing_probability(scales)
        below = relaxation_times(p_max * 0.98, scales)
        above = relaxation_times(min(p_max * 1.02, 1.0), scales)
        assert below.t1 >= below.t2 / 2.0
        assert above.t1 < above.t2 / 2.0

    def test_threshold_scan(self):
        scales = NoiseScales(1e-3, 5e-3)
        p_max = max_mixing_probability(scales)
        for p in (0.0, 0.3, 0.6, 0.9, 1.0):
            t = relaxation_times(p, scales)
            assert (t.t1 >= t.t2 / 2.0) == (p <= p_max)

    def test_times_are_nonnegative_or_inf(self):
        # g1, g2 <= 1 for p in [0, 1] and nonnegative scales, so no time is
        # negative or nan; a factor of 1 gives inf
        for ad in (0.0, 1e-300, 1e-8, 1e-4, 1e-2, 0.7):
            for pd in (0.0, 1e-300, 1e-8, 1e-2, 1.0, 50.0):
                for p in [i / 100 for i in range(101)]:
                    assert max(_step_factors(p, NoiseScales(ad, pd))) <= 1.0, (p, ad, pd)
                    t = relaxation_times(p, NoiseScales(ad, pd))
                    assert t.t1 >= 0.0 and t.t2 >= 0.0, (p, ad, pd)
        t = relaxation_times(0.5, NoiseScales(0.0, 0.0))
        assert t.t1 == t.t2 == math.inf

    def test_out_of_regime_raises(self):
        with pytest.raises(ValueError):
            relaxation_times(1.0, NoiseScales(1.0, 0.0))
