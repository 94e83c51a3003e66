"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (timings included where the criterion carries a budget).
"""

import cmath
import io
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    GAME_A,
    GAME_B,
    apply_channel,
    apply_word,
    as_complex,
    char_function_quadrature,
    coherence_gain_witness,
    derive_stream,
    embed_2d,
    expected_fixed_horizon_win,
    gaussian_for_target,
    general_rates,
    grover_iterate,
    off_diagonal_gain_spec,
    random_diagonal_channel,
    textbook_grover_matrix,
    uniform_state,
    unit_images,
)
from noisegames import cli
from noisegames.dissipative import (
    NoiseScales,
    averaged_channel_first_order,
    averaged_channel_mc,
    max_mixing_probability,
    relaxation_times,
)
from noisegames.grover import (
    AdaptiveTracking,
    FixedHorizon,
    GameConfig,
    evaluate_strategy,
    optimal_k,
    pure_game_payoff,
    quarter_pi_k,
    reduce_word,
    success_closed_form,
)
from noisegames.kicks import (
    DeltaMixture,
    ExponentialKicks,
    GaussianKicks,
    char_function,
)
from noisegames.memory import (
    KernelVariant,
    coherence_recursion,
    evolve_memory_mc,
    kernel,
    set_a_support,
    set_b_support,
)
from noisegames.parrondo import (
    CombinedGame,
    RotationGame,
    exact_rate,
    simulate,
)
from noisegames.qubit import ATOL_STATE, DensityMatrix2, plus_state


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def test_criterion_1_characteristic_functions():
    with criterion(1, "characteristic functions", budget=1.0):
        eps = 1e-3
        gamma_a = char_function(DeltaMixture.uniform(set_a_support())).gamma
        gamma_b = char_function(DeltaMixture.uniform(set_b_support(eps))).gamma
        assert abs(gamma_a - 1.0 / 3.0) < 1e-12
        assert abs(gamma_b - 1.0 / 3.0) < 1e-12

        for mu in (-2.0, -0.5, 0.0, 1.0, 3.0):
            for sigma2 in (0.0, 0.1, 0.5, 2.0, 5.0):
                dist = GaussianKicks(mu, sigma2)
                assert (
                    abs(as_complex(char_function(dist)) - char_function_quadrature(dist))
                    < 1e-9
                )
        for omega in (0.1, 0.5, 1.0, 2.0, 8.0):
            for tau1 in (0.2, 0.7, 1.0, 1.5, 4.0):
                dist = ExponentialKicks(omega, tau1)
                assert (
                    abs(as_complex(char_function(dist)) - char_function_quadrature(dist))
                    < 1e-9
                )


def test_criterion_2_inverse_construction():
    with criterion(2, "inverse construction round-trip", budget=1.0):
        stream = derive_stream(1001, 0)
        for _ in range(100):
            u = stream.uniform(2)
            gamma = 1e-6 + (1.0 - 2e-6) * float(u[0])
            phi = math.pi - 2.0 * math.pi * float(u[1])  # (-pi, pi]
            df = char_function(gaussian_for_target(gamma, phi))
            assert abs(df.gamma - gamma) < 1e-9
            assert abs(as_complex(df) - gamma * cmath.exp(1j * phi)) < 1e-9


def test_criterion_3_memory_parrondo_effect():
    with criterion(3, "memory-channel switching gain", budget=10.0):
        eps = 1e-3
        decay = lambda variant, e: coherence_recursion(kernel(variant, e), 50).decay_per_step
        assert abs(decay(KernelVariant.COMBINED, 0.0) - 2 / 3) < 1e-12
        assert abs(decay(KernelVariant.COMBINED, eps) - 2 / 3) < 5e-3
        assert abs(decay(KernelVariant.PURE_A, eps) - 1 / 3) < 1e-12
        assert abs(decay(KernelVariant.PURE_B, eps) - 1 / 3) < 1e-12

        for variant in KernelVariant:
            kern = kernel(variant, eps)
            expected = 0.5 * coherence_recursion(kern, 20).final_a.conjugate()
            b, se = evolve_memory_mc(plus_state(), kern, 20, 100_000, seed=303)[-1]
            tol = 3.0 * max(se, 1e-12)
            assert abs(b.real - expected.real) < tol
            assert abs(b.imag - expected.imag) < tol


def test_criterion_4_wheel_games():
    with criterion(4, "wheel games exact and simulated", budget=30.0):
        from fractions import Fraction

        assert exact_rate(CombinedGame((GAME_A,))).net_rate == Fraction(-1, 3)
        assert exact_rate(CombinedGame((GAME_B,))).net_rate == Fraction(-1, 7)
        combined = CombinedGame((GAME_A, GAME_B))
        assert exact_rate(combined).win_prob == Fraction(11, 21)

        rates = general_rates(7, 11)
        assert (rates.rate_m, rates.rate_n, rates.rate_combined) == (
            Fraction(-1, 7),
            Fraction(-1, 11),
            Fraction(1, 77),
        )
        # the closed forms agree with exhaustive residue counting
        game_7, game_11 = RotationGame(7), RotationGame(11)
        assert rates.rate_m == exact_rate(CombinedGame((game_7,))).net_rate
        assert rates.rate_n == exact_rate(CombinedGame((game_11,))).net_rate
        assert rates.rate_combined == exact_rate(CombinedGame((game_7, game_11))).net_rate

        rounds = 1_000_000
        for games, exact in (
            ((GAME_A,), Fraction(1, 3)),
            ((GAME_B,), Fraction(3, 7)),
            ((GAME_A, GAME_B), Fraction(11, 21)),
        ):
            sim = simulate(CombinedGame(games), rounds, seed=404)
            p = float(exact)
            sigma = math.sqrt(p * (1.0 - p) / rounds)
            assert abs(sim.win_prob - p) < 3.0 * sigma


def _assert_states(a, b, c):
    """The checks DensityMatrix2 enforces, on arrays of states (a, b, c)."""
    assert np.all(np.isfinite(a) & np.isfinite(b) & np.isfinite(c))
    assert np.all(np.abs(a + c - 1.0) <= ATOL_STATE)
    assert np.all((a >= -ATOL_STATE) & (c >= -ATOL_STATE))
    assert np.all(np.abs(b) ** 2 <= a * c + ATOL_STATE)


def test_criterion_5_no_coherence_gain():
    with criterion(5, "no coherence booster", budget=60.0):
        gen = derive_stream(505, 0)
        n_channels, n_states = 10_000, 100
        channels = []
        u = np.empty((n_channels, 3 * n_states))
        for i in range(n_channels):
            channels.append(random_diagonal_channel(gen))
            u[i] = gen.uniform(3 * n_states)
        img = unit_images(channels)  # (channel, unit 00/01/10/11, row, column)
        # each channel's states, drawn as (a, r, chi) triples
        a = u[:, 0::3]
        r = u[:, 1::3] * np.sqrt(np.maximum(a * (1.0 - a), 0.0))
        b = r * np.exp(1j * ((u[:, 2::3] * 2.0 - 1.0) * math.pi))
        c = 1.0 - a
        _assert_states(a, b, c)
        # rho = a|0><0| + b|0><1| + conj(b)|1><0| + c|1><1|, mapped linearly
        coeffs = np.stack([a, b, b.conj(), c], axis=-1)
        out = np.einsum("csu,curk->csrk", coeffs, img)
        a_out, b_out, c_out = out[..., 0, 0].real, out[..., 0, 1], out[..., 1, 1].real
        _assert_states(a_out, b_out, c_out)
        assert np.max(np.abs(b_out) - np.abs(b)) <= 1e-10
        # scalar cross-check on the first state of every channel
        for i, ch in enumerate(channels):
            rho = apply_channel(ch, DensityMatrix2(a[i, 0], b[i, 0], c[i, 0]))
            assert abs(rho.a - a_out[i, 0]) <= 1e-12
            assert abs(rho.b - b_out[i, 0]) <= 1e-12
            assert abs(rho.c - c_out[i, 0]) <= 1e-12

        witness = coherence_gain_witness(off_diagonal_gain_spec(1.2, 0.0))
        assert witness.violated
        assert witness.min_eig <= -0.05
        assert abs(witness.min_eig - (-0.1)) < 1e-12


def test_criterion_6_dissipative_channel():
    with criterion(6, "noise-averaged dissipative channel", budget=60.0):
        rho = plus_state()
        p = 0.5
        for lam_ad in (1e-3, 1e-4):
            for lam_pd in (1e-2, 1e-3):
                scales = NoiseScales(lam_ad, lam_pd)
                mc = averaged_channel_mc(rho, p, scales, 1_000_000, seed=606)
                fo = averaged_channel_first_order(rho, p, scales)
                tol_pop = max(3.0 * mc.stderr_pop, 5.0 * lam_ad)
                tol_coh = max(3.0 * mc.stderr_coh, 5.0 * lam_ad)
                assert abs(mc.rho_avg.a - fo.a) < tol_pop
                assert abs(mc.rho_avg.c - fo.c) < tol_pop
                assert abs(mc.rho_avg.b.real - fo.b.real) < tol_coh
                assert abs(mc.rho_avg.b.imag - fo.b.imag) < tol_coh

        scales = NoiseScales(1e-4, 1e-2)
        u = -math.expm1(-scales.lambda_pd)
        v = math.sqrt(scales.lambda_ad / math.pi)
        p_max = max_mixing_probability(scales)
        assert p_max == pytest.approx(u / (u + v), abs=1e-15)
        times = relaxation_times(p_max, scales)
        assert abs(times.t1 / (times.t2 / 2.0) - 1.0) < 0.02


def test_criterion_7_grover_identity():
    with criterion(7, "composed operator is the search iterate"):
        for n in range(2, 11):
            config = GameConfig(n, target=(1 << n) // 3)
            g = textbook_grover_matrix(n, config.target)
            state = uniform_state(config)
            for _ in range(2):
                want = g @ state
                got = grover_iterate(state, config)
                assert np.max(np.abs(got - want)) < 1e-12
                state = got

        config = GameConfig(6, 17)
        stream = derive_stream(707, 0)
        for _ in range(10):
            word = "".join("A" if int(b) & 1 else "B" for b in stream.u64(200))
            full = apply_word(word, config, "full")
            two = embed_2d(apply_word(word, config, "2d"), config)
            assert np.max(np.abs(full - two)) < 1e-10

        small = GameConfig(4, 11)
        for _ in range(1000):
            length = 1 + stream.randint(120)
            word = "".join("A" if int(b) & 1 else "B" for b in stream.u64(length))
            direct = apply_word(word, small, "full")
            reduced = apply_word(reduce_word(word), small, "full")
            assert np.max(np.abs(direct - reduced)) < 1e-10


def test_criterion_8_strategies():
    with criterion(8, "stopping strategies", budget=60.0):
        # single-operator games pay exactly 1/2^n
        for n in range(2, 11):
            config = GameConfig(n)
            assert pure_game_payoff(config) == 2.0**-n

        # informed stopping at the optimal word wins everywhere
        for n in range(2, 11):
            config = GameConfig(n, target=n)
            k = optimal_k(config)
            out = evaluate_strategy(AdaptiveTracking(k), config, 1000, seed=808)
            assert out.win_prob > 0.5
            assert out.win_prob >= success_closed_form(k, config) - 1e-10

        # the ceil(pi sqrt(N) / 4) fixed rule does NOT clear 1/2 for all n:
        # its random-word expectation stays below 1/2 throughout 2..10, and
        # even granting the word (BA)^k it fails at n = 2 and 3.
        report = {}
        for n in range(2, 11):
            config = GameConfig(n)
            k = quarter_pi_k(config)
            report[n] = {
                "expected_win": expected_fixed_horizon_win(4 * k, n),
                "closed_form_at_k": success_closed_form(k, config),
            }
        assert all(r["expected_win"] < 0.5 for r in report.values())
        assert report[2]["closed_form_at_k"] < 0.5
        assert report[3]["closed_form_at_k"] < 0.5
        assert report[5]["closed_form_at_k"] > 0.5
        for n, r in report.items():
            print(
                f"  4k-rule n={n}: random-word win {r['expected_win']:.4f}, "
                f"(BA)^k win {r['closed_form_at_k']:.4f}"
            )

        # Monte Carlo agrees with the exact random-walk expectation
        for n in (4, 10):
            config = GameConfig(n, target=1)
            m = 4 * quarter_pi_k(config)
            out = evaluate_strategy(FixedHorizon(m), config, 100_000, seed=809)
            want = expected_fixed_horizon_win(m, n)
            assert abs(out.win_prob - want) < 3.0 * out.stderr


def test_criterion_9_reproducibility():
    with criterion(9, "bit-identical reruns across thread counts"):
        cases = [
            ["iid", "--dist", "exponential", "--omega", "1.0", "--tau1", "0.5",
             "--steps", "5", "--trials", "20000", "--seed", "99"],
            ["memory", "--variant", "combined", "--epsilon", "0.001", "--steps", "6",
             "--trials", "20000", "--seed", "99"],
            ["dissipative", "--p", "0.4", "--lambda-ad", "0.0001", "--lambda-pd",
             "0.01", "--trials", "100000", "--seed", "99"],
            ["parrondo", "--moduli", "3,7", "--trials", "100000", "--seed", "99"],
            ["grover", "--n-qubits", "6", "--strategy", "quarter-pi",
             "--trials", "30000", "--seed", "99"],
        ]
        for argv in cases:
            outputs = []
            for threads in ("1", "8"):
                for _ in range(2):
                    buf = io.StringIO()
                    code = cli.run(argv + ["--threads", threads], stdout=buf)
                    assert code == 0
                    outputs.append(buf.getvalue())
            assert len(set(outputs)) == 1
            results = json.loads(outputs[0])["results"]
            assert results  # non-empty result block
