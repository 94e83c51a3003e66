import itertools
import math
import os
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from _oracles import (
    GAME_A,
    GAME_B,
    eigenvalue_counts_by_sieve,
    general_rates,
    power_iteration_residual_by_roll,
    simulate_by_positions,
    step_weights,
    winning_positions_by_cosine,
)
from noisegames import parrondo, rng
from noisegames.parrondo import (
    CombinedGame,
    RotationGame,
    exact_rate,
    is_winning,
    simulate,
    spectrum,
)


class TestWinning:
    def test_vertical_wins(self):
        assert is_winning(0, 3)

    def test_two_thirds_turn_loses(self):
        assert not is_winning(1, 3)

    def test_just_inside_quarter_turn_wins(self):
        assert is_winning(5, 21)  # 10 pi / 21 < pi / 2

    def test_matches_cosine_oracle(self):
        for L in (3, 7, 9, 11, 21, 77, 4389):
            ours = sum(1 for k in range(L) if is_winning(k, L))
            assert ours == winning_positions_by_cosine(L)
            assert np.count_nonzero(is_winning(np.arange(L), L)) == ours

    def test_winning_count_closed_form(self):
        # (M-1)/2 winners when M = 3 (mod 4), (M+1)/2 when M = 1 (mod 4)
        for m in range(3, 120, 2):
            count = sum(1 for k in range(m) if is_winning(k, m))
            want = (m - 1) // 2 if m % 4 == 3 else (m + 1) // 2
            assert count == want


class TestPlayRound:
    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            RotationGame(4)


# every tuple of one to three odd moduli below 16 with L <= 400
SMALL_WHEELS = [
    moduli
    for size in (1, 2, 3)
    for moduli in itertools.combinations_with_replacement(range(1, 16, 2), size)
    if math.lcm(*moduli) <= 400
]


def _dense_step_matrix(combined: CombinedGame) -> np.ndarray:
    """The L x L float transition matrix, row k holding the law of k's next position."""
    L = combined.modulus
    dense = np.zeros((L, L))
    for off, w in step_weights(combined).items():
        dense[np.arange(L), (np.arange(L) + off) % L] += float(w)
    return dense


def _assert_doubly_stochastic(combined: CombinedGame) -> None:
    """Dense exact check that every row and column of the L x L transition
    matrix sums to 1 (the property that makes the uniform law stationary)."""
    L = combined.modulus
    weights = step_weights(combined)
    dense = [[Fraction(0)] * L for _ in range(L)]
    for k in range(L):
        for off, w in weights.items():
            dense[k][(k + off) % L] += w
    assert all(sum(row) == 1 for row in dense)
    assert all(sum(dense[k][j] for k in range(L)) == 1 for j in range(L))


class TestStationary:
    @pytest.mark.parametrize(
        "moduli", [(3,), (7,), (3, 7), (3, 9), (3, 3), (5, 9), (3, 7, 11)]
    )
    def test_transition_matrix_doubly_stochastic(self, moduli):
        _assert_doubly_stochastic(CombinedGame(tuple(RotationGame(m) for m in moduli)))

    def test_single_game_uniform(self):
        combined = CombinedGame((GAME_A,))
        assert spectrum(combined).residual == 0.0  # one round of game A is uniform
        assert combined.pairwise_coprime()

    def test_combined_uniform_21(self):
        assert spectrum(CombinedGame((GAME_A, GAME_B))).residual < 1e-12

    def test_non_coprime_warns_but_reaches_everything(self):
        combined = CombinedGame((RotationGame(3), RotationGame(9)))
        assert not combined.pairwise_coprime()
        assert spectrum(combined).residual < 1e-12  # the 9-game alone reaches all

    def test_duplicate_game_flagged(self):
        combined = CombinedGame((RotationGame(3), RotationGame(3)))
        assert spectrum(combined).residual < 1e-12
        assert not combined.pairwise_coprime()

    @pytest.mark.parametrize("moduli", [(3, 7), (3, 9), (5, 7, 11), (19, 23), (19, 23, 29)])
    def test_exact_residual_and_roll_iteration_reach_uniform(self, moduli):
        combined = CombinedGame(tuple(RotationGame(m) for m in moduli))
        assert spectrum(combined).residual < 1e-12
        assert power_iteration_residual_by_roll(combined) < 1e-12

    def test_spectrum_matches_dense_eigenvalues(self):
        assert len(SMALL_WHEELS) == 150
        for moduli in SMALL_WHEELS:
            combined = CombinedGame(tuple(RotationGame(m) for m in moduli))
            dense = _dense_step_matrix(combined)
            eigenvalues = np.sort(np.linalg.eigvals(dense).real)
            multiplicities = spectrum(combined).multiplicities
            assert sum(multiplicities.values()) == combined.modulus
            assert max(multiplicities) == len(moduli) and multiplicities[len(moduli)] == 1
            counts = np.repeat(list(multiplicities), list(multiplicities.values()))
            assert np.allclose(eigenvalues, np.sort(counts / len(moduli)), atol=1e-9), moduli

    def test_multiplicities_are_the_sieve_histogram(self):
        # the small wheels, repeated moduli and modulus 1, and L = 2^20 - 1
        repeated = [(3, 3, 3, 9), (1, 1, 5), (9, 3, 9, 27, 1), (15, 5, 3, 15), (1,) * 5]
        wide = [(1048575,), (3, 25, 11, 31, 41), (1023, 1025), (1048575, 1, 1048575)]
        for moduli in SMALL_WHEELS + repeated + wide:
            combined = CombinedGame(tuple(RotationGame(m) for m in moduli))
            counts = eigenvalue_counts_by_sieve(combined)
            values, sizes = np.unique(counts, return_counts=True)
            want = dict(zip(values.tolist(), sizes.tolist()))
            spec = spectrum(combined)
            assert spec.multiplicities == want and list(spec.multiplicities) == sorted(want), moduli
            # the gap and residual as the sieve's array gave them, bit for bit
            G, L = len(moduli), combined.modulus
            second = int(counts[1:].max(initial=0))
            rounds = math.ceil(math.log(1e-14) / math.log(second / G)) if second else 1
            sizes = np.bincount(counts[1:]).tolist()
            residual = math.fsum(k * (c / G) ** rounds for c, k in enumerate(sizes)) / L
            assert spec.spectral_gap == Fraction(G - second, G)
            assert spec.residual.hex() == residual.hex(), moduli

    @pytest.mark.parametrize("moduli", [(3, 7), (3, 9), (3, 3), (5, 9), (5, 7, 11), (19, 23)])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_deviation_is_row_zero_of_the_matrix_power(self, moduli, n):
        combined = CombinedGame(tuple(RotationGame(m) for m in moduli))
        row = np.linalg.matrix_power(_dense_step_matrix(combined), n)[0]
        expected = np.max(np.abs(row - 1 / combined.modulus))
        assert np.argmax(np.abs(row - 1 / combined.modulus)) == 0 or expected < 1e-15
        deviation = parrondo._deviation(spectrum(combined).multiplicities, n)
        assert abs(deviation - expected) < 1e-12, (moduli, n)

    @pytest.mark.parametrize(
        "moduli, gap",
        [
            ((3, 7), Fraction(1, 2)),
            ((19, 23), Fraction(1, 2)),
            ((5, 7, 11), Fraction(1, 3)),
            ((3,), Fraction(1)),
            ((1,), Fraction(1)),
            ((3, 3), Fraction(1)),
            ((3, 9), Fraction(1, 2)),
            ((5, 9), Fraction(1, 2)),
        ],
    )
    def test_spectral_gap(self, moduli, gap):
        assert spectrum(CombinedGame(tuple(RotationGame(m) for m in moduli))).spectral_gap == gap

    def test_residual_rounds_are_the_least_reaching_1e_14(self):
        # (3, 7): lambda_2 = 1/2 and 2^-47 <= 1e-14 < 2^-46, so n = 47
        spec = spectrum(CombinedGame((GAME_A, GAME_B)))
        assert spec.residual == parrondo._deviation(spec.multiplicities, 47) == 8 * 2.0**-47 / 21

    def test_pairwise_coprime_is_linear_in_the_games(self):
        pairwise = lambda ms: all(math.gcd(a, b) == 1 for a, b in itertools.combinations(ms, 2))
        for size in (1, 2, 3, 4):
            for moduli in itertools.combinations_with_replacement(range(1, 30, 2), size):
                combined = CombinedGame(tuple(RotationGame(m) for m in moduli))
                assert combined.pairwise_coprime() == pairwise(moduli), moduli
        ones = CombinedGame((RotationGame(1),) * 200_000)
        start = time.perf_counter()
        assert ones.pairwise_coprime()
        assert not CombinedGame(ones.games + (GAME_A, GAME_A)).pairwise_coprime()
        assert time.perf_counter() - start < 0.5

    def test_strides_generate_the_whole_cycle(self):
        # For each prime p of L = lcm(moduli), the game whose modulus holds
        # p's full power has a stride L/m prime to p: the strides have
        # gcd 1, so every mixture reaches all of Z_L.
        odd = range(1, 40, 2)
        for size in (1, 2, 3):
            for moduli in itertools.combinations_with_replacement(odd, size):
                L = math.lcm(*moduli)
                assert math.gcd(*(L // m for m in moduli)) == 1, moduli


class TestExactRates:
    def test_game_a(self):
        s = exact_rate(CombinedGame((GAME_A,)))
        assert s.win_prob == Fraction(1, 3) and s.net_rate == Fraction(-1, 3)

    def test_game_b(self):
        s = exact_rate(CombinedGame((GAME_B,)))
        assert s.win_prob == Fraction(3, 7) and s.net_rate == Fraction(-1, 7)

    def test_combined_wins(self):
        s = exact_rate(CombinedGame((GAME_A, GAME_B)))
        assert s.win_prob == Fraction(11, 21)
        assert s.net_rate == Fraction(1, 21)
        assert s.support_size == 21

    @pytest.mark.parametrize(
        "moduli", [(3,), (3, 7), (3, 9), (3, 3), (3, 7, 11, 19, 23)]
    )
    def test_rate_is_winning_count_over_cycle(self, moduli):
        L = math.lcm(*moduli)
        s = exact_rate(CombinedGame(tuple(RotationGame(m) for m in moduli)))
        assert s.win_prob == Fraction(winning_positions_by_cosine(L), L)
        assert s.support_size == L

    def test_closed_form_count_matches_the_winning_mask(self):
        for L in [*range(1, 4001, 2), 2**20 - 1]:
            wins = int(np.count_nonzero(is_winning(np.arange(L), L)))
            assert exact_rate(CombinedGame((RotationGame(L),))).win_prob == Fraction(wins, L)


class TestGeneralRates:
    def test_three_seven(self):
        r = general_rates(3, 7)
        assert (r.rate_m, r.rate_n, r.rate_combined) == (
            Fraction(-1, 3),
            Fraction(-1, 7),
            Fraction(1, 21),
        )

    def test_seven_eleven(self):
        r = general_rates(7, 11)
        assert (r.rate_m, r.rate_n, r.rate_combined) == (
            Fraction(-1, 7),
            Fraction(-1, 11),
            Fraction(1, 77),
        )

    @pytest.mark.parametrize("m, n", [(3, 7), (7, 11), (3, 11), (11, 19), (19, 23)])
    def test_closed_forms_match_residue_counting(self, m, n):
        r = general_rates(m, n)
        game_m, game_n = RotationGame(m), RotationGame(n)
        assert r.rate_m == exact_rate(CombinedGame((game_m,))).net_rate
        assert r.rate_n == exact_rate(CombinedGame((game_n,))).net_rate
        assert r.rate_combined == exact_rate(CombinedGame((game_m, game_n))).net_rate

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            general_rates(3, 9)

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            general_rates(5, 7)


class TestCombineEven:
    def test_four_games(self):
        combined = CombinedGame(tuple(RotationGame(m) for m in (3, 7, 11, 19)))
        for g in combined.games:
            assert exact_rate(CombinedGame((g,))).net_rate == Fraction(-1, g.m)
        stats = exact_rate(combined)
        assert stats.support_size == 4389
        assert stats.win_prob == Fraction(2195, 4389)
        assert stats.net_rate == Fraction(1, 4389)


class TestSimulate:
    @pytest.mark.parametrize(
        "games,exact",
        [
            ((GAME_A,), Fraction(1, 3)),
            ((GAME_B,), Fraction(3, 7)),
            ((GAME_A, GAME_B), Fraction(11, 21)),
        ],
    )
    def test_three_sigma_agreement(self, games, exact):
        rounds = 200_000
        sim = simulate(CombinedGame(games), rounds, seed=8)
        p = float(exact)
        sigma = math.sqrt(p * (1.0 - p) / rounds)
        assert abs(sim.win_prob - p) < 3 * sigma

    def test_deterministic(self):
        g = CombinedGame((GAME_A, GAME_B))
        assert simulate(g, 5000, seed=9) == simulate(g, 5000, seed=9)

    def test_thread_invariance(self):
        g = CombinedGame((GAME_A, GAME_B))
        for rounds in (1, rng.BLOCK_SIZE - 1, rng.BLOCK_SIZE + 1, 300_000):
            one = simulate(g, rounds, seed=10, threads=1)
            for threads in (2, 3, 8):
                assert simulate(g, rounds, seed=10, threads=threads) == one, (rounds, threads)

    def test_waves_change_no_bit(self, monkeypatch):
        # L = 392,863: seven blocks, each with an L-entry histogram, in one run_blocks call
        g = CombinedGame(tuple(RotationGame(m) for m in (19, 23, 29, 31)))
        rounds = 6 * rng.BLOCK_SIZE + 1
        run_blocks = rng.run_blocks
        totals = []

        def counted(total, worker, threads=1, **kwargs):
            totals.append((total, threads))
            return run_blocks(total, worker, threads, **kwargs)

        monkeypatch.setattr(rng, "run_blocks", counted)
        stats = [simulate(g, rounds, seed=12, threads=t) for t in (1, 2, 3)]
        assert stats == [stats[0]] * 3
        assert totals == [(rounds, t) for t in (1, 2, 3)]
        assert stats[0].wins == simulate_by_positions(g, rounds, seed=12)

    def test_waves_are_sized_by_the_pool(self, monkeypatch):
        # on 2 CPUs, 64 requested threads fold as 2 do, with at most 4 blocks in flight
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        g = CombinedGame(tuple(RotationGame(m) for m in (19, 23, 29, 31)))
        rounds = 6 * rng.BLOCK_SIZE + 1
        run_blocks = rng.run_blocks
        lock = threading.Lock()
        started, folded, in_flight = [0], [0], []

        def counted(total, worker, threads=1, *, fold, initial):
            def watched_worker(start, count):
                with lock:
                    started[0] += 1
                    in_flight.append(started[0] - folded[0])
                return worker(start, count)

            def watched_fold(acc, result):
                folded[0] += 1
                return fold(acc, result)

            return run_blocks(total, watched_worker, threads, fold=watched_fold, initial=initial)

        monkeypatch.setattr(rng, "run_blocks", counted)
        two, many = (simulate(g, rounds, seed=12, threads=t) for t in (2, 64))
        assert two == many
        assert folded[0] == started[0] == 14
        assert max(in_flight) <= 4

    def test_round_validation(self):
        with pytest.raises(ValueError):
            simulate(CombinedGame((GAME_A,)), 0, seed=0)

    @pytest.mark.parametrize("moduli", [(3, 7), (19, 23), (3, 5, 7), (3, 3), (3, 5, 7, 11)])
    @pytest.mark.parametrize(
        "rounds",
        [
            1,
            rng.BLOCK_SIZE - 1,
            rng.BLOCK_SIZE,
            rng.BLOCK_SIZE + 1,
            3 * rng.BLOCK_SIZE + 12_345,
        ],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_histogram_merge_matches_positions(self, moduli, rounds, threads):
        g = CombinedGame(tuple(RotationGame(m) for m in moduli))
        sim = simulate(g, rounds, seed=11, threads=threads)
        assert sim.wins == simulate_by_positions(g, rounds, seed=11, threads=threads)


class TestWheelSlots:
    @pytest.mark.parametrize("moduli", [(3, 7), (3, 3), (3, 9), (5, 7, 11), (3, 5, 7, 11)])
    def test_slots_reproduce_step_weights(self, moduli):
        g = CombinedGame(tuple(RotationGame(m) for m in moduli))
        L = g.modulus
        P = len(moduli) * L
        bits = 64 - max((P - 1).bit_length(), 1)
        # The least top-bits draw of each slot i, so that (x * P) >> bits == i.
        x = np.array([-(-(i << bits) // P) for i in range(P)], dtype=np.uint64)
        i = np.arange(P)
        assert np.array_equal((x * np.uint64(P)) >> np.uint64(bits), i)
        # Walking the slots in order, each step's turn is the difference.
        walk = parrondo._block_walk(parrondo._step_table(g), L, x, bits)
        rotations = np.diff(walk, prepend=0) % L
        stride = np.repeat([L // m for m in moduli], L)
        assert np.array_equal(rotations, (i % L) // stride * stride)
        offsets, counts = np.unique(rotations, return_counts=True)
        law = {int(o): Fraction(int(c), P) for o, c in zip(offsets, counts)}
        assert law == step_weights(g)

    def test_table_counts_give_the_float_step_law(self):
        # offset o's slots in the table over P are the exact law's weights
        # as floats, for every tuple of one to three odd moduli below 40
        tuples = 0
        for size in (1, 2, 3):
            for moduli in itertools.combinations_with_replacement(range(1, 40, 2), size):
                g = CombinedGame(tuple(RotationGame(m) for m in moduli))
                table = parrondo._step_table(g)
                counts = np.bincount(table.view(np.int64), minlength=g.modulus)
                offsets = np.flatnonzero(counts)
                law = step_weights(g)
                assert offsets.tolist() == sorted(law), moduli
                assert (counts[offsets] / len(table)).tolist() == [
                    float(law[o]) for o in sorted(law)
                ], moduli
                tuples += 1
        assert tuples == 1770
