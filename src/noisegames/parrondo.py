"""Wheel-rotation games with exact rational Markov-chain analysis.

A wheel carries a radial vector; a game with modulus m rotates it by a
uniformly random multiple of 2*pi/m.  The player wins a round when the
vector ends in the closed upper half-plane (angle within [-pi/2, pi/2]).
Positions live on the cycle Z_L (angle 2*pi*k/L).  Every mixture's
stationary law is uniform on Z_L (see :func:`exact_rate`), so its winning
probability is an exact count of winning positions over L.

Single games with odd modulus m lose at rate 1/m when m = 3 (mod 4) and
win at rate 1/m when m = 1 (mod 4).  Randomly mixing games with coprime
moduli multiplies the cycle sizes; mixing two losing games with
m = n = 3 (mod 4) yields a combined game winning at rate 1/(m*n) -- losing
dynamics combined at random turn profitable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng


def is_winning(k, L: int):
    """True where position k of Z_L lies in the closed interval [-pi/2, pi/2].

    Exact integer test on an int or an integer array ``k``:
    cos(2*pi*k/L) >= 0 iff 4*k <= L or 4*k >= 3*L.  For odd L no position
    sits on the boundary, so the closed-interval convention is never
    exercised by the games below.
    """
    return (4 * k <= L) | (4 * k >= 3 * L)


@dataclass(frozen=True, slots=True)
class RotationGame:
    """Robot that rotates by 2*pi*j/m, j uniform on 0..m-1 (m odd)."""

    m: int

    def __post_init__(self):
        if int(self.m) != self.m:
            raise ValueError("modulus must be an integer")
        object.__setattr__(self, "m", int(self.m))
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("modulus must be odd and positive")


@dataclass(frozen=True, slots=True)
class CombinedGame:
    """Uniform random mixture of rotation games, played on Z_lcm(moduli)."""

    games: tuple[RotationGame, ...]

    def __post_init__(self):
        if not self.games:
            raise ValueError("need at least one game")
        object.__setattr__(self, "games", tuple(self.games))

    @property
    def modulus(self) -> int:
        return math.lcm(*(g.m for g in self.games))

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(g.m for g in self.games)

    def pairwise_coprime(self) -> bool:
        ms = self.moduli
        return all(
            math.gcd(ms[i], ms[j]) == 1
            for i in range(len(ms))
            for j in range(i + 1, len(ms))
        )


@dataclass(frozen=True, slots=True)
class StationaryDistribution:
    """What the envelope reports about a combined game's stationary law.

    The law itself is uniform on Z_L (see :func:`exact_rate`).
    ``reducible_warning`` flags non-pairwise-coprime moduli, where the
    exact-rate results for products of games do not apply.
    ``power_iteration_residual`` is the largest deviation of a float
    power-iterated distribution from 1/L.
    """

    reducible_warning: bool
    power_iteration_residual: float


# Entries the power iteration gathers at once: offsets are taken in groups of
# at most this many entries, so the gathered rows stay in cache.  At --moduli
# 19,23,29 (L = 12,673) one call took a median 81 ms at 2^16, 85-107 ms at
# 2^15, 2^17, 2^18 and 2^20 and 149 ms at 2^14, against 103-142 ms with one
# np.roll per offset (numpy 2.4, 2-core Xeon VM).
_GATHER_ENTRIES = 1 << 16


def stationary_distribution(combined: CombinedGame) -> StationaryDistribution:
    """Float power iteration from a point mass, measured against 1/L.

    One step adds ``w * np.roll(v, off)`` over the offsets in increasing
    order from zero, where ``off`` is the turn of ``count`` of the P = G*L
    slots of :func:`_step_table` and ``w = count / P``.  ``np.roll(v, off)``
    is the window of length L at L - off over v written twice, so each
    group of offsets is one gather of windows, and the sum runs down the
    gathered rows in offset order after the carry from the groups before.
    The iterated distribution must reach the uniform law to 1e-12, or a
    ``RuntimeError`` is raised.
    """
    L = combined.modulus
    table = _step_table(combined)
    counts = np.bincount(table.view(np.int64), minlength=L)
    offs = np.flatnonzero(counts)
    ws = (counts[offs] / len(table))[:, None]
    starts = L - offs
    doubled = np.empty(2 * L)
    windows = np.lib.stride_tricks.sliding_window_view(doubled, L)
    per_group = max(_GATHER_ENTRIES // L, 1)
    terms = np.empty((min(per_group, len(offs)) + 1, L))
    v = np.zeros(L)
    v[0] = 1.0
    for _ in range(200_000):
        doubled[:L] = v
        doubled[L:] = v
        nxt = np.zeros(L)
        for i in range(0, len(offs), per_group):
            group = slice(i, i + per_group)
            rows = terms[: len(starts[group]) + 1]
            rows[0] = nxt
            np.multiply(windows[starts[group]], ws[group], out=rows[1:])
            np.add.reduce(rows, axis=0, out=nxt)
        if np.max(np.abs(nxt - v)) < 1e-14:
            v = nxt
            break
        v = nxt
    residual = float(np.max(np.abs(v - 1 / L)))
    if residual > 1e-12:
        raise RuntimeError(
            f"power iteration disagrees with exact stationary law ({residual!r})"
        )
    return StationaryDistribution(not combined.pairwise_coprime(), residual)


@dataclass(frozen=True, slots=True)
class GameStats:
    """Exact winning probability and net rate (win minus loss) of a game."""

    win_prob: Fraction
    support_size: int

    @property
    def net_rate(self) -> Fraction:
        return 2 * self.win_prob - 1


def exact_rate(combined: CombinedGame) -> GameStats:
    """Exact stationary winning probability and net win/loss rate.

    The stationary law is uniform on all of Z_L, L = lcm of the moduli, so
    the winning probability is the count of winning positions over L:

    * Irreducible: for each prime p of L, the game whose modulus holds
      p's full power has stride L/m prime to p, so the strides have gcd 1
      and the step offsets generate Z_L.
    * Doubly stochastic: the step law is the same at every position (a
      circulant matrix) and its weights sum to 1, so columns sum to 1 as
      well as rows, and the uniform law is stationary -- by
      irreducibility, the only one.
    """
    L = combined.modulus
    wins = int(np.count_nonzero(is_winning(np.arange(L), L)))
    return GameStats(Fraction(wins, L), L)


@dataclass(frozen=True, slots=True)
class SimulatedStats:
    """Empirical tallies of a simulated play from position 0."""

    wins: int
    rounds: int

    @property
    def win_prob(self) -> float:
        return self.wins / self.rounds

    @property
    def net_rate(self) -> float:
        return 2.0 * self.wins / self.rounds - 1.0


# Histogram entries that a wave of simulated blocks holds at once when L is
# small (16 MiB of int64); a wave always has at least one block per thread.
_WAVE_ENTRIES = 1 << 21


def _step_table(combined: CombinedGame) -> np.ndarray:
    """Turn of each of the P = G*L (game, rotation) slots, as a uint64 table.

    Slot i plays game g = i // L, which turns (i mod L) // s_g steps of
    s_g = L/m_g: every game takes L slots and each of its m_g rotations
    s_g of them.
    """
    L = combined.modulus
    turn = np.tile(np.arange(L, dtype=np.uint64), len(combined.moduli))
    stride = np.repeat(np.array([L // m for m in combined.moduli], dtype=np.uint64), L)
    turn //= stride
    turn *= stride
    return turn


def _block_walk(step: np.ndarray, L: int, x: np.ndarray, bits: int) -> np.ndarray:
    """Position after each round of a block, relative to its start, written over ``x``.

    ``x`` holds the top ``bits`` bits of each round's draw.  The round
    plays slot i = (x * P) >> bits of the P = len(step) slots of
    :func:`_step_table` and turns ``step[i]``; x * P < 2^64, as x < 2^bits
    and P <= 2^(64 - bits).  The turns are gathered into an array of the
    thread's block set.
    """
    x *= np.uint64(len(step))
    x >>= np.uint64(bits)
    # Every slot is below P, so "clip" moves no index.
    turn = step.take(x.view(np.int64), mode="clip", out=rng._empty(len(x), np.uint64))
    # An in-place accumulate holds the GIL for its whole loop; into another
    # array it does not, and two threads' walks overlap.
    position = np.cumsum(turn, out=x)
    # x mod L as x - (x // L) * L: numpy divides by a scalar in about 0.05
    # ms per block, and takes the remainder in about 0.28 ms.
    np.floor_divide(position, np.uint64(L), out=turn)
    turn *= np.uint64(L)
    position -= turn
    return position.view(np.int64)


def simulate(
    combined: CombinedGame, rounds: int, seed: int, threads: int = 1
) -> SimulatedStats:
    """Play ``rounds`` rounds from k = 0 and tally wins.

    The walk is one trajectory: round r reads slot r of the stream keyed by
    (seed, 0).  The top b = 64 - bitlen(P - 1) bits of that draw map by
    multiply-shift, ``(x * P) >> b``, onto the P = G*L (game, rotation)
    slots (Lemire, ACM TOMACS 2019), so each slot's probability is off 1/P
    by less than 2P / 2^64 and the law of a round by at most 2P^2 / 2^64
    in total.  The turn of every slot is looked up in one table of P
    entries (:func:`_step_table`), built once per call beside the O(L)
    win mask; with pairwise coprime odd moduli above 1, G <= log_3 L.
    Each block keeps only the histogram of its positions relative to its
    own start and its last relative position.  The blocks run in waves of
    max(threads, 2^21 // L) blocks, and each wave is folded before the
    next one starts, so the histograms held at once take
    O(threads * L + 2^21) entries whatever the rounds.
    Waves start on block boundaries and the blocks are folded in block
    order, so tallies are bit-identical under any thread count.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    L = combined.modulus
    bits = 64 - max((len(combined.moduli) * L - 1).bit_length(), 1)
    top = np.uint64(64 - bits)
    key = rng.stream_keys(seed, 0, 1)
    winning = is_winning(np.arange(L, dtype=np.int64), L).astype(np.int64)
    step = _step_table(combined)

    def worker(start: int, count: int):
        x = rng.slot_u64(key, start, count).reshape(count)
        x >>= top
        rel = _block_walk(step, L, x, bits)
        return np.bincount(rel, minlength=L), int(rel[-1])

    wins = 0
    carry = 0
    per_wave = rng.BLOCK_SIZE * max(threads, _WAVE_ENTRIES // L, 1)
    for first in range(0, rounds, per_wave):
        wave = lambda start, count: worker(first + start, count)
        for hist, last in rng.run_blocks(min(per_wave, rounds - first), wave, threads=threads):
            # A block started at position ``carry`` visits (rel + carry) % L.
            wins += int(hist @ np.roll(winning, -carry))
            carry = (carry + last) % L
    return SimulatedStats(wins, rounds)
