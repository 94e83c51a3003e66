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

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .qubit import checked


def is_winning(k, L: int):
    """True where position k of Z_L lies in the closed interval [-pi/2, pi/2].

    Exact integer test on an int or an integer array ``k``:
    cos(2*pi*k/L) >= 0 iff 4*k <= L or 4*k >= 3*L.  For odd L no position
    sits on the boundary, so the closed-interval convention is never
    exercised by the games below.
    """
    return (4 * k <= L) | (4 * k >= 3 * L)


class RotationGame(checked("RotationGame", [("m", int)])):
    """Robot that rotates by 2*pi*j/m, j uniform on 0..m-1 (m odd)."""

    __slots__ = ()

    def __new__(cls, m: int):
        if int(m) != m:
            raise ValueError("modulus must be an integer")
        m = int(m)
        if m < 1 or m % 2 == 0:
            raise ValueError("modulus must be odd and positive")
        return super().__new__(cls, m)


class CombinedGame(checked("CombinedGame", [("games", tuple)])):
    """Uniform random mixture of rotation games, played on Z_lcm(moduli)."""

    __slots__ = ()

    def __new__(cls, games: tuple[RotationGame, ...]):
        if not games:
            raise ValueError("need at least one game")
        return super().__new__(cls, tuple(games))

    @property
    def modulus(self) -> int:
        return math.lcm(*(g.m for g in self.games))

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(g.m for g in self.games)

    def pairwise_coprime(self) -> bool:
        """Whether each modulus is coprime to the lcm of those before it."""
        before = itertools.accumulate(self.moduli, math.lcm, initial=1)
        return all(math.gcd(m, lcm) == 1 for m, lcm in zip(self.moduli, before))


class Spectrum(NamedTuple):
    multiplicities: dict[int, int]
    spectral_gap: Fraction
    residual: float


def _prime_powers(m: int) -> dict[int, int]:
    """The prime factorization {p: e} of m >= 1, by trial division."""
    powers = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            powers[p] = powers.get(p, 0) + 1
            m //= p
        p += 1 + p % 2  # 2, then the odd numbers
    if m > 1:
        powers[m] = 1
    return powers


def spectrum(combined: CombinedGame) -> Spectrum:
    """The step law's eigenvalues, exact, from the Fourier basis of Z_L.

    The step law is circulant, so the Fourier mode j of Z_L is an
    eigenvector (Gray, "Toeplitz and Circulant Matrices: A Review", 2006).
    Game g turns by a uniform multiple of L/m_g, so its eigenvalue there is
    1 if m_g divides j, else 0, and the mixture's is c_j / G with c_j =
    #{g : m_g | j}: G only at j = 0, coprime moduli or not.  As every m_g
    divides L, c_j depends on j only through d = gcd(j, L), a divisor of
    L, and phi(L / d) of the j in Z_L have that gcd; ``multiplicities[c]``
    sums phi(L / d) over the divisors d with c(d) = c, in O(tau(L) *
    distinct moduli) from the factorization of L.
    ``spectral_gap`` is 1 - lambda_2, lambda_2 = max_{j != 0} c_j / G (0 if
    L = 1), and ``residual`` the largest deviation from 1/L of the law n
    rounds from position 0, n = ceil(log(1e-14) / log(lambda_2)) the least
    with lambda_2^n <= 1e-14 (n = 1 when lambda_2 = 0).
    """
    from fractions import Fraction

    G = len(combined.games)
    games = Counter(combined.moduli)
    powers = _prime_powers(combined.modulus)  # L = prod p^e
    sizes: Counter = Counter()
    for exponents in itertools.product(*(range(e + 1) for e in powers.values())):
        d = math.prod(p**b for p, b in zip(powers, exponents))
        # phi(L / d), L / d = prod p^(e - b)
        phi = math.prod(p ** (e - b - 1) * (p - 1)
                        for (p, e), b in zip(powers.items(), exponents) if b < e)
        sizes[sum(k for m, k in games.items() if d % m == 0)] += phi
    multiplicities = dict(sorted(sizes.items()))
    second = max((c for c in multiplicities if c < G), default=0)
    rounds = math.ceil(math.log(1e-14) / math.log(second / G)) if second else 1
    return Spectrum(multiplicities, Fraction(G - second, G), _deviation(multiplicities, rounds))


def _deviation(multiplicities: dict[int, int], n: int) -> float:
    """max_k |(P^n delta_0)(k) - 1/L| = (1/L) sum_{j != 0} lambda_j^n (at k = 0).

    ``multiplicities`` is :attr:`Spectrum.multiplicities`: G is its largest
    c, held by j = 0 alone, and L the sum of its values.
    """
    G, L = max(multiplicities), sum(multiplicities.values())
    return math.fsum(size * (c / G) ** n for c, size in multiplicities.items() if c < G) / L


class GameStats(NamedTuple):
    """Exact winning probability and net rate (win minus loss) of a game."""

    win_prob: Fraction
    support_size: int

    @property
    def net_rate(self) -> Fraction:
        return 2 * self.win_prob - 1


def exact_rate(combined: CombinedGame) -> GameStats:
    """Exact stationary winning probability and net win/loss rate.

    The stationary law is uniform on all of Z_L, L = lcm of the moduli, so
    the winning probability is the count of winning positions over L: the
    uniform law is the Fourier mode 0 of Z_L, the only eigenvector of the
    step law with eigenvalue 1, and every other eigenvalue lies in [0, 1)
    (:func:`spectrum`), so the law from any start tends to it.
    """
    from fractions import Fraction

    L = combined.modulus
    return GameStats(Fraction(_winning_arc(L)[1], L), L)


def _winning_arc(L: int) -> tuple[int, int]:
    """Start and length of the arc :func:`is_winning` holds: ceil(3L/4) .. L - 1, 0 .. L // 4."""
    first = -(-3 * L // 4)
    return first % L, L - first + L // 4 + 1


class SimulatedStats(NamedTuple):
    """Empirical tallies of a simulated play from position 0."""

    wins: int
    rounds: int

    @property
    def win_prob(self) -> float:
        return self.wins / self.rounds

    @property
    def net_rate(self) -> float:
        return 2.0 * self.wins / self.rounds - 1.0


def _step_table(combined: CombinedGame) -> np.ndarray:
    """Turn of each of the P = G*L (game, rotation) slots, as a uint64 table.

    Slot i plays game g = i // L, which turns (i mod L) // s_g steps of
    s_g = L/m_g: every game takes L slots and each of its m_g rotations
    s_g of them.
    """
    import numpy as np

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
    import numpy as np
    from . import rng

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


def draw_charge(rounds: int) -> int:
    """Raw 64-bit draws :func:`simulate` reads: one a round."""
    return rounds


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
    entries (:func:`_step_table`), built once per call; with pairwise
    coprime odd moduli above 1, G <= log_3 L.  A block returns its sorted
    positions relative to its start and its last one, and the blocks fold
    in block order, by binary search for the positions on the winning arc
    less the carried position, so tallies are bit-identical at any thread count.
    """
    import numpy as np
    from . import rng

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    L = combined.modulus
    bits = 64 - max((len(combined.moduli) * L - 1).bit_length(), 1)
    top = np.uint64(64 - bits)
    key = rng.stream_keys(seed, 0, 1)
    first, length = _winning_arc(L)
    step = _step_table(combined)

    def worker(start: int, count: int):
        x = rng.slot_u64(key, start, count).reshape(count)
        x >>= top
        rel = _block_walk(step, L, x, bits)
        return np.sort(rel), int(rel[-1])

    def fold(acc, block):
        (wins, carry), (rel, last) = acc, block
        # rel + carry on the arc: rel in [lo, lo + length), wrapping past L to [0, lo + length - L)
        lo = (first - carry) % L
        a, b, c = np.searchsorted(rel, [lo, lo + length, lo + length - L])
        return wins + int(b - a + c), (carry + last) % L

    wins, _ = rng.run_blocks(rounds, worker, threads, fold=fold, initial=(0, 0))
    return SimulatedStats(wins, rounds)
