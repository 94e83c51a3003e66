import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    TwoDState,
    alternating_word,
    apply_A,
    apply_B,
    apply_word,
    derive_stream,
    embed_2d,
    expected_fixed_horizon_win,
    grover_iterate,
    optimal_k_by_scan,
    reduced_length_distribution,
    reduced_length_distributions,
    textbook_grover_matrix,
    uniform_2d,
    uniform_state,
    walk_adaptive,
    walk_fixed_horizon,
    walk_reduced_length,
    word_success,
)
from noisegames import grover, montecarlo, rng
from noisegames.grover import (
    AdaptiveTracking,
    FixedHorizon,
    GameConfig,
    _reduced_length,
    evaluate_strategy,
    fixed_horizon_win_prob,
    optimal_k,
    pure_game_payoff,
    quarter_pi_k,
    reduce_word,
    success_closed_form,
    success_curve,
)


def random_words(count, max_len, seed):
    stream = derive_stream(seed, 0)
    out = []
    for _ in range(count):
        length = 1 + stream.randint(max_len)
        bits = stream.u64(length)
        out.append("".join("A" if int(b) & 1 else "B" for b in bits))
    return out


class TestOperators:
    def test_sign_flip(self):
        c = GameConfig(2, 3)
        out = apply_A(uniform_state(c), c)
        assert np.allclose(out, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_a_squares_to_identity(self):
        c = GameConfig(5, 17)
        state = uniform_state(c)
        state = apply_B(apply_A(state, c), c)  # some non-trivial state
        assert np.max(np.abs(apply_A(apply_A(state, c), c) - state)) < 1e-12

    def test_b_fixes_uniform(self):
        c = GameConfig(6, 9)
        psi = uniform_state(c)
        assert np.max(np.abs(apply_B(psi, c) - psi)) < 1e-12

    def test_b_squares_to_identity(self):
        c = GameConfig(4, 2)
        state = apply_A(uniform_state(c), c)
        assert np.max(np.abs(apply_B(apply_B(state, c), c) - state)) < 1e-12

    def test_b_on_basis_state(self):
        c = GameConfig(2, 0)
        state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(apply_B(state, c), [-0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_norm_preserved_along_random_word(self):
        c = GameConfig(5, 11)
        state = uniform_state(c)
        for letter in "ABABBAABAB" * 3:
            state = apply_A(state, c) if letter == "A" else apply_B(state, c)
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12

    def test_subspace_invariance(self):
        # all non-target amplitudes stay equal to each other
        c = GameConfig(4, 6)
        state = apply_word(random_words(1, 60, 3)[0], c, "full")
        rest = np.delete(state, c.target)
        assert np.max(np.abs(rest - rest[0])) < 1e-10


class TestGroverEquivalence:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_composed_step_is_textbook_grover(self, n):
        c = GameConfig(n, target=(1 << n) - 2)
        g = textbook_grover_matrix(n, c.target)
        state = uniform_state(c)
        for _ in range(3):
            want = g @ state
            got = grover_iterate(state, c)
            assert np.max(np.abs(got - want)) < 1e-12
            state = got

    def test_exact_search_at_four_items(self):
        c = GameConfig(2, 3)
        out = grover_iterate(uniform_state(c), c)
        assert abs(abs(out[3]) ** 2 - 1.0) < 1e-12

    def test_closed_form_matches_simulation(self):
        c = GameConfig(4, 5)
        state = uniform_state(c)
        for k in range(1, 8):
            state = grover_iterate(state, c)
            assert abs(abs(state[c.target]) ** 2 - success_closed_form(k, c)) < 1e-10

    def test_closed_form_values(self):
        assert success_closed_form(0, GameConfig(4)) == pytest.approx(1 / 16)
        assert success_closed_form(1, GameConfig(2)) == pytest.approx(1.0, abs=1e-12)
        assert success_closed_form(3, GameConfig(4)) == pytest.approx(
            0.9613189697265625, abs=1e-12
        )
        assert success_closed_form(4, GameConfig(4)) == pytest.approx(
            0.5817041397094724, abs=1e-12
        )


class TestTwoDMode:
    def test_uniform_embedding(self):
        c = GameConfig(3, 4)
        assert np.max(np.abs(embed_2d(uniform_2d(c), c) - uniform_state(c))) < 1e-14

    def test_matches_full_mode_on_random_words(self):
        c = GameConfig(3, 4)
        for word in random_words(5, 200, 11):
            full = apply_word(word, c, "full")
            two = embed_2d(apply_word(word, c, "2d"), c)
            assert np.max(np.abs(full - two)) < 1e-10

    def test_norm_invariant(self):
        with pytest.raises(ValueError):
            TwoDState(1.0, 1.0)

    def test_capacity_guard(self):
        big = GameConfig(30, 0)
        with pytest.raises(ValueError):
            uniform_state(big)
        assert uniform_2d(big).success == pytest.approx(2.0**-30)


class TestReduceWord:
    def test_examples(self):
        assert reduce_word("AABBA") == "A"
        assert reduce_word("BA") == "BA"
        assert reduce_word("BBBB") == ""

    def test_idempotent(self):
        for word in random_words(50, 40, 7):
            r = reduce_word(word)
            assert reduce_word(r) == r

    def test_reduced_shape(self):
        for word in random_words(100, 60, 8):
            r = reduce_word(word)
            assert "AA" not in r and "BB" not in r
            assert r == "" or r.endswith("A")

    def test_semantically_sound(self):
        c = GameConfig(4, 9)
        for word in random_words(30, 80, 9):
            full = apply_word(word, c, "full")
            red = apply_word(reduce_word(word), c, "full")
            assert np.max(np.abs(full - red)) < 1e-10

    def test_word_power_equals_iterates(self):
        c = GameConfig(3, 1)
        state = uniform_state(c)
        for k in range(1, 5):
            state = grover_iterate(state, c)
            assert np.max(np.abs(apply_word("BA" * k, c, "full") - state)) < 1e-12

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            reduce_word("ABC")


class TestPayoffs:
    def test_pure_game_payoff_exact(self):
        for n in range(2, 11):
            assert pure_game_payoff(GameConfig(n)) == 2.0**-n

    def test_pure_payoff_from_statevector(self):
        c = GameConfig(5, 3)
        psi = uniform_state(c)
        for state in (psi, apply_A(psi, c), apply_B(psi, c)):
            assert abs(abs(state[c.target]) ** 2 - pure_game_payoff(c)) < 1e-12

    def test_reduced_word_payoff_depends_on_b_count(self):
        c = GameConfig(4, 4)
        theta = math.asin(1.0 / math.sqrt(c.size))
        for length in range(0, 13):
            word = alternating_word(length)
            want = math.sin((2.0 * (length // 2) + 1.0) * theta) ** 2
            assert word_success(word, c) == pytest.approx(want, abs=1e-12)


class TestKChoices:
    def test_optimal_k_values(self):
        assert optimal_k(GameConfig(2)) == 1
        assert optimal_k(GameConfig(4)) == 3
        assert optimal_k(GameConfig(10)) == 25
        assert success_closed_form(25, GameConfig(10)) > 0.999

    def test_optimal_k_matches_full_scan(self):
        # includes n = 1, where every k ties at 1/2 and float noise picks k = 3
        for n in range(1, 25):
            assert optimal_k(GameConfig(n)) == optimal_k_by_scan(n)

    def test_quarter_pi_values(self):
        assert quarter_pi_k(GameConfig(2)) == 2
        assert quarter_pi_k(GameConfig(4)) == 4
        assert quarter_pi_k(GameConfig(10)) == 26

    def test_rule_overshoots_for_small_n(self):
        for n in (2, 3):
            c = GameConfig(n)
            assert success_closed_form(quarter_pi_k(c), c) < 0.5
            assert success_closed_form(optimal_k(c), c) > 0.5


class TestEvaluateStrategy:
    def test_zero_horizon_is_pure_payoff(self):
        c = GameConfig(6, 2)
        out = evaluate_strategy(FixedHorizon(0), c, 100, seed=1)
        assert out.win_prob == pytest.approx(pure_game_payoff(c), abs=1e-15)
        assert out.stderr == 0.0
        assert out.reduced_length_histogram == {0: 100}

    def test_fixed_horizon_matches_dp_oracle(self):
        c = GameConfig(6, 5)
        m = 4 * quarter_pi_k(c)
        out = evaluate_strategy(FixedHorizon(m), c, 100_000, seed=2)
        want = expected_fixed_horizon_win(m, 6)
        assert abs(out.win_prob - want) < 3 * out.stderr

    def test_histogram_totals_and_range(self):
        m = 17
        out = evaluate_strategy(FixedHorizon(m), GameConfig(4, 0), 5000, seed=3)
        assert sum(out.reduced_length_histogram.values()) == 5000
        assert all(0 <= s <= m for s in out.reduced_length_histogram)

    def test_walk_agrees_with_string_reduction(self):
        # the walk consumes letters in playing order, i.e. the word string
        # right to left
        for word in random_words(200, 30, 13):
            s = np.zeros(1, dtype=np.int64)
            for letter in reversed(word):
                s = walk_reduced_length(s, np.array([letter == "A"]))
            assert int(s[0]) == len(reduce_word(word))

    def test_adaptive_exact_win(self):
        c = GameConfig(6, 7)
        k = optimal_k(c)
        out = evaluate_strategy(AdaptiveTracking(k), c, 5000, seed=4)
        assert out.win_prob >= success_closed_form(k, c) - 1e-10
        assert out.censored == 0
        assert min(out.stopping_time_histogram) >= 2 * k

    def test_cap_is_whole_draws(self):
        # adaptive tracking reads whole 64-letter draws up to the cap
        assert grover.ADAPTIVE_CAP % 64 == 0

    def test_censored_trials_have_no_stopping_time(self, monkeypatch):
        # E[T] = 24 * 25 = 600 letters, so a 128-letter cap censors most trials
        monkeypatch.setattr(grover, "ADAPTIVE_CAP", 128)
        out = evaluate_strategy(AdaptiveTracking(12), GameConfig(8), 200, seed=0)
        assert 0 < out.censored < 200
        assert sum(out.stopping_time_histogram.values()) == 200 - out.censored
        assert all(24 <= t <= 128 for t in out.stopping_time_histogram)

    def test_censored_trials_score_the_length_they_hold(self, monkeypatch):
        # k_star = 50 needs E[T] = 100 * 101 letters and at least 100, so a
        # 64-letter cap censors all
        monkeypatch.setattr(grover, "ADAPTIVE_CAP", 64)
        c = GameConfig(12)
        out = evaluate_strategy(AdaptiveTracking(optimal_k(c)), c, 500, seed=0)
        assert out.censored == 500
        held = out.reduced_length_histogram
        assert sum(held.values()) == 500 and max(held) <= 64
        want = math.fsum(n * success_closed_form(s // 2, c) for s, n in held.items()) / 500
        assert out.win_prob == pytest.approx(want, rel=1e-12)
        assert out.win_prob < 0.5 < success_closed_form(optimal_k(c), c)
        assert out.stderr > 0.0

    def test_uncensored_adaptive_is_the_closed_form(self):
        c = GameConfig(5, 3)
        out = evaluate_strategy(AdaptiveTracking(3), c, 3000, seed=8)
        assert out.censored == 0
        assert out.win_prob == success_closed_form(3, c)
        assert out.stderr == 0.0
        assert out.reduced_length_histogram == {6: 3000}

    def test_adaptive_deterministic(self):
        c = GameConfig(4, 1)
        a = evaluate_strategy(AdaptiveTracking(2), c, 2000, seed=5)
        b = evaluate_strategy(AdaptiveTracking(2), c, 2000, seed=5)
        assert a == b

    def test_thread_invariance(self):
        c = GameConfig(8, 100)
        quarter_pi = FixedHorizon(4 * quarter_pi_k(c))
        a = evaluate_strategy(quarter_pi, c, 150_000, seed=6, threads=1)
        b = evaluate_strategy(quarter_pi, c, 150_000, seed=6, threads=8)
        assert a == b


class TestTrialPayoffs:
    """Every trial scores the closed form of its final length, bit for bit.

    numpy's float64 sin and math.sin differ in the last bit at some
    lengths: 12 and 13 at n = 6, 4 and 5 at n = 40.
    """

    @staticmethod
    def record_payoffs(monkeypatch) -> list:
        """Each block's per-trial payoffs, in block order, as the engine reduces them."""
        seen = []
        reduce = montecarlo.block_moments

        def recording(values):
            seen.append(values.copy())
            return reduce(values)

        monkeypatch.setattr(montecarlo, "block_moments", recording)
        return seen

    @staticmethod
    def closed_form(lengths: np.ndarray, c: GameConfig) -> list[float]:
        return [success_closed_form(s // 2, c) for s in lengths.tolist()]

    @pytest.mark.parametrize("n, m, pair", [(6, 28, (12, 13)), (40, 9, (4, 5))])
    def test_fixed_horizon_trials(self, n, m, pair, monkeypatch):
        c = GameConfig(n)
        seen = self.record_payoffs(monkeypatch)
        evaluate_strategy(FixedHorizon(m), c, 20_000, seed=3)
        lengths = walk_fixed_horizon(m, 20_000, 3)
        assert np.isin(pair, lengths).all()
        assert np.concatenate(seen).tolist() == self.closed_form(lengths, c)

    def test_censored_adaptive_trials(self, monkeypatch):
        # k_star = 12 needs 24 letters at least and 600 on average, so a
        # 128-letter cap censors most trials, at lengths below 24
        monkeypatch.setattr(grover, "ADAPTIVE_CAP", 128)
        c = GameConfig(6)
        seen = self.record_payoffs(monkeypatch)
        out = evaluate_strategy(AdaptiveTracking(12), c, 5000, seed=4)
        _, lengths, censored = walk_adaptive(12, 5000, 4, 128)
        assert out.censored == censored.size > 0
        assert np.isin((12, 13), lengths[censored]).all()
        assert np.concatenate(seen).tolist() == self.closed_form(lengths, c)

    def test_exact_fixed_horizon_sums_the_closed_form(self):
        c = GameConfig(6)
        law = reduced_length_distribution(28)
        assert 12 in law and 13 in law
        want = math.fsum(float(p) * success_closed_form(s // 2, c) for s, p in law.items())
        assert fixed_horizon_win_prob(28, c) == want

    @pytest.mark.parametrize("strategy", [
        FixedHorizon(37), AdaptiveTracking(0), AdaptiveTracking(3), AdaptiveTracking(12),
        AdaptiveTracking(10**20),
    ])
    def test_histograms_count_every_trial(self, strategy, monkeypatch):
        # 70,000 trials are two blocks; a 128-letter cap censors some or all
        # adaptive trials from k_star = 3 on
        monkeypatch.setattr(grover, "ADAPTIVE_CAP", 128)
        out = evaluate_strategy(strategy, GameConfig(6), 70_000, seed=5, threads=2)
        assert sum(out.reduced_length_histogram.values()) == 70_000
        if isinstance(strategy, AdaptiveTracking):
            stopped = sum(out.stopping_time_histogram.values())
            assert out.censored == 70_000 - stopped
            assert out.reduced_length_histogram.get(2 * strategy.k_star, 0) == stopped


class TestSuccessCurve:
    def test_curve_is_the_closed_form_bit_for_bit(self):
        # the n = 32 CSV curve, 102,945 rows: a range takes the odd numbers
        # as a range, a 1-tuple through success_closed_form does not
        c = GameConfig(32)
        ks = range(math.ceil(math.pi * math.sqrt(c.size) / 2.0) + 1)
        assert len(ks) == 102_945
        theta = math.asin(1.0 / math.sqrt(c.size))
        got = list(map(float.hex, success_curve(ks, c)))
        assert got == [float.hex(success_closed_form(k, c)) for k in ks]
        assert got == [float.hex(math.sin((2 * k + 1) * theta) ** 2) for k in ks]

    @pytest.mark.parametrize("ks", [range(0), range(5, 40, 3), range(40, 5, -7)])
    def test_any_iterable_of_ints(self, ks):
        c = GameConfig(10)
        want = list(map(float.hex, success_curve(list(ks), c)))
        assert list(map(float.hex, success_curve(ks, c))) == want
        assert list(map(float.hex, success_curve((k for k in ks), c))) == want
        assert want == [float.hex(success_closed_form(k, c)) for k in ks]


class TestConfigValidation:
    def test_target_range(self):
        with pytest.raises(ValueError):
            GameConfig(2, 4)

    def test_qubit_range(self):
        with pytest.raises(ValueError):
            GameConfig(0)
        with pytest.raises(ValueError):
            GameConfig(61)


class TestSignedLetterCount:
    """The reduced length as a function of the signed count of A letters."""

    @given(st.text(alphabet="AB", max_size=80))
    def test_closed_form_length_is_word_reduction(self, word):
        played = word[::-1]  # the rightmost letter is played first
        d = sum((-1) ** t for t, letter in enumerate(played) if letter == "A")
        closed = int(_reduced_length(np.array([d]), len(played))[0])
        walk = np.zeros(1, dtype=np.int64)
        for letter in played:
            walk = walk_reduced_length(walk, np.array([letter == "A"]))
        assert closed == len(reduce_word(word)) == int(walk[0])

    def test_win_prob_sums_the_rational_dp_law(self):
        # bit for bit: each term's probability is the DP law's, rounded once
        for m, law in zip(range(80), reduced_length_distributions()):
            for n in (1, 3, 8):
                c = GameConfig(n)
                want = math.fsum(float(p) * success_closed_form(s // 2, c) for s, p in law.items())
                assert fixed_horizon_win_prob(m, c) == want, (m, n)

    @pytest.mark.parametrize("n, want", [
        (16, "0x1.8f8db6a7353f2p-7"), (20, "0x1.9164214bbe428p-9"), (24, "0x1.91d913b240914p-11"),
    ], ids=["16", "20", "24"])
    def test_win_prob_at_quarter_pi_horizons(self, n, want):
        # the rational law's values; n = 24 is a horizon of m = 12,868 letters
        c = GameConfig(n)
        assert fixed_horizon_win_prob(4 * quarter_pi_k(c), c).hex() == want

    def test_win_prob_is_the_dp_expectation(self):
        for m, n in ((0, 3), (1, 3), (17, 4), (28, 6), (101, 8)):
            assert fixed_horizon_win_prob(m, GameConfig(n)) == pytest.approx(
                expected_fixed_horizon_win(m, n), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize(
        "n, trials, seed",
        [
            # seed 21 keeps the ids these cases had before the seed was a parameter
            pytest.param(n, trials, seed, id=f"{n}-{trials}" + (seed != 21) * f"-seed{seed}")
            for seed in (21, 5, 77, 1234)
            for n, trials in ((6, 100_000), (16, 20_000))
        ],
    )
    def test_monte_carlo_agrees_with_exact_at_quarter_pi(self, n, trials, seed):
        c = GameConfig(n)
        m = 4 * quarter_pi_k(c)
        out = evaluate_strategy(FixedHorizon(m), c, trials, seed=seed)
        exact = fixed_horizon_win_prob(m, c)
        assert abs(out.win_prob - exact) < 5 * out.stderr

    @pytest.mark.parametrize("k_star", [1, 2, 3, 5, 8])
    def test_adaptive_mean_stopping_time_is_L_times_L_plus_1(self, k_star):
        # the reduced length is a +-1 walk from 0, lazy at 0, stopped when it
        # first reaches L = 2 k_star; that takes L (L + 1) letters on average
        trials, big_l = 4000, 2 * k_star
        out = evaluate_strategy(AdaptiveTracking(k_star), GameConfig(8), trials, seed=k_star)
        assert out.censored == 0
        hist = out.stopping_time_histogram
        t = np.repeat(np.fromiter(hist, dtype=np.int64), list(hist.values()))
        assert abs(t.mean() - big_l * (big_l + 1)) < 5 * t.std(ddof=1) / math.sqrt(trials)

    # 63..129 put the horizon on both sides of one and two 64-letter draws
    @pytest.mark.parametrize("m", [*range(40), 63, 64, 65, 127, 128, 129])
    def test_fixed_horizon_lengths_are_the_walk(self, m):
        out = evaluate_strategy(FixedHorizon(m), GameConfig(5), 2000, seed=m)
        assert out.reduced_length_histogram == Counter(walk_fixed_horizon(m, 2000, m).tolist())

    @pytest.mark.parametrize("grid", [None, 40])
    def test_few_trials_read_many_draws_per_call(self, grid, monkeypatch):
        # 3 trials of 5,000 letters are 79 draws each: one call holds all of
        # them, or 13 at a time when the grid is 40 draws
        if grid is not None:
            monkeypatch.setattr(grover, "_GRID_ELEMENTS", grid)
        out = evaluate_strategy(FixedHorizon(5000), GameConfig(5), 3, seed=9)
        assert out.reduced_length_histogram == Counter(walk_fixed_horizon(5000, 3, 9).tolist())

    @staticmethod
    def assert_adaptive_is_the_walk(monkeypatch, k_star, trials, seed, cap, threads=1):
        monkeypatch.setattr(grover, "ADAPTIVE_CAP", cap)
        out = evaluate_strategy(AdaptiveTracking(k_star), GameConfig(7), trials, seed, threads)
        stop_at, s, censored = walk_adaptive(k_star, trials, seed, cap)
        assert out.censored == censored.size
        assert out.stopping_time_histogram == Counter(np.delete(stop_at, censored).tolist())
        assert out.reduced_length_histogram == Counter(s.tolist())
        return out

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_lengths_and_stopping_times_across_blocks(self, threads, monkeypatch):
        # 70,000 trials are two trajectory blocks
        out = evaluate_strategy(FixedHorizon(37), GameConfig(6), 70_000, seed=5, threads=threads)
        assert out.reduced_length_histogram == Counter(walk_fixed_horizon(37, 70_000, 5).tolist())
        for cap in (64, 128, grover.ADAPTIVE_CAP):
            self.assert_adaptive_is_the_walk(monkeypatch, 3, 70_000, 5, cap, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tallies_fold_as_the_blocks_finish(self, threads, monkeypatch):
        # 16x the blocks: the folded counters stay the same size, and only the
        # blocks' moments (a few hundred bytes each) are kept until the end
        monkeypatch.setattr(rng, "BLOCK_SIZE", 256)

        def peak(blocks: int) -> int:
            tracemalloc.start()
            try:
                evaluate_strategy(AdaptiveTracking(1), GameConfig(2), blocks * 256, 1, threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(800) - peak(50) < 512 * 1024

    @pytest.mark.parametrize("k_star", [0, 1, 2, 5])
    @pytest.mark.parametrize("cap", [0, 64, 128, 192])
    def test_adaptive_is_the_walk_under_caps(self, k_star, cap, monkeypatch):
        self.assert_adaptive_is_the_walk(monkeypatch, k_star, 3000, k_star, cap)

    # Up to k_star = 8 one byte can reach both -k_star and +k_star.
    @pytest.mark.parametrize("k_star", range(11))
    def test_byte_tables_are_the_walk(self, k_star, monkeypatch):
        # blocks of 128 trials, so that two threads share the 300 trials
        monkeypatch.setattr(rng, "BLOCK_SIZE", 128)
        stopped = 0
        for cap in (0, 64, 128, 192):
            for threads in (1, 2):
                out = self.assert_adaptive_is_the_walk(
                    monkeypatch, k_star, 300, k_star, cap, threads
                )
                stopped += 300 - out.censored
        assert stopped > 0
