"""Wheel-rotation games with exact rational Markov-chain analysis.

A wheel carries a radial vector; a game with modulus m rotates it by a
uniformly random multiple of 2*pi/m.  The player wins a round when the
vector ends in the closed upper half-plane (angle within [-pi/2, pi/2]).
Positions live on the cycle Z_L (angle 2*pi*k/L), so winning and all
stationary probabilities are exact integer/rational computations.

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


@dataclass(frozen=True, slots=True)
class WheelPosition:
    """Position k on the L-cycle, i.e. angle 2*pi*k/L."""

    k: int
    L: int

    def __post_init__(self):
        if int(self.k) != self.k or int(self.L) != self.L:
            raise ValueError("k and L must be integers")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "L", int(self.L))
        if self.L < 1:
            raise ValueError("modulus must be positive")
        if not (0 <= self.k < self.L):
            raise ValueError("position must satisfy 0 <= k < L")

    @property
    def angle(self) -> float:
        return 2.0 * math.pi * self.k / self.L


def is_winning(pos: WheelPosition) -> bool:
    """True iff the angle lies in the closed interval [-pi/2, pi/2].

    Exact integer test: cos(2*pi*k/L) >= 0 iff 4*k <= L or 4*k >= 3*L.
    For odd L no position sits on the boundary, so the closed-interval
    convention is never exercised by the games below.
    """
    return 4 * pos.k <= pos.L or 4 * pos.k >= 3 * pos.L


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


GAME_A = RotationGame(3)
GAME_B = RotationGame(7)


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

    def step_weights(self) -> dict[int, Fraction]:
        """Exact one-round transition law as offset -> probability."""
        L = self.modulus
        out: dict[int, Fraction] = {}
        share = Fraction(1, len(self.games))
        for g in self.games:
            stride = L // g.m
            w = share / g.m
            for j in range(g.m):
                off = (j * stride) % L
                out[off] = out.get(off, Fraction(0)) + w
        return out


@dataclass(frozen=True, slots=True)
class StationaryDistribution:
    """Exact stationary law of a combined game on its cycle.

    ``weights[k]`` is the stationary probability of position k (uniform on
    the reachable subgroup from k = 0, zero elsewhere).
    ``reducible_warning`` flags non-pairwise-coprime moduli, where the
    exact-rate results for products of games do not apply.
    ``power_iteration_residual`` is the largest deviation of an
    independently power-iterated distribution from the exact one.
    """

    weights: tuple[Fraction, ...]
    support: tuple[int, ...]
    reducible_warning: bool
    power_iteration_residual: float


def stationary_distribution(combined: CombinedGame) -> StationaryDistribution:
    """Exact stationary distribution, cross-checked by power iteration.

    The step law is translation invariant on Z_L, so once its weights are
    checked to be nonnegative and to sum exactly to 1 the transition matrix
    is doubly stochastic by construction, and the uniform law on the
    reachable subgroup is stationary.  Float power iteration from a point
    mass must reproduce it to 1e-12.
    """
    L = combined.modulus
    weights = combined.step_weights()

    if sum(weights.values()) != 1:
        raise RuntimeError("transition law does not sum to 1")
    if any(w < 0 for w in weights.values()):
        raise RuntimeError("negative transition probability")

    # Reachable subgroup from 0 is generated by the step offsets.
    d = L
    for off in weights:
        d = math.gcd(d, off)
    support = tuple(range(0, L, d))
    size = len(support)
    exact = [Fraction(0)] * L
    for k in support:
        exact[k] = Fraction(1, size)

    # Independent cross-check: float power iteration from a point mass.
    v = np.zeros(L)
    v[0] = 1.0
    offs = sorted(weights)
    ws = [float(weights[o]) for o in offs]
    for _ in range(200_000):
        nxt = np.zeros(L)
        for off, w in zip(offs, ws):
            nxt += w * np.roll(v, off)
        if np.max(np.abs(nxt - v)) < 1e-14:
            v = nxt
            break
        v = nxt
    residual = float(np.max(np.abs(v - np.array([float(x) for x in exact]))))
    if residual > 1e-12:
        raise RuntimeError(
            f"power iteration disagrees with exact stationary law ({residual!r})"
        )

    return StationaryDistribution(
        tuple(exact), support, not combined.pairwise_coprime(), residual
    )


@dataclass(frozen=True, slots=True)
class GameStats:
    """Exact winning probability and net rate (win minus loss) of a game."""

    win_prob: Fraction
    net_rate: Fraction
    support_size: int

    def __post_init__(self):
        if not (0 <= self.win_prob <= 1):
            raise ValueError("win probability must lie in [0, 1]")
        if self.net_rate != 2 * self.win_prob - 1:
            raise ValueError("net rate must equal 2*win_prob - 1")

    @classmethod
    def from_stationary(cls, stat: StationaryDistribution) -> "GameStats":
        """Winning probability and net rate under a stationary law."""
        L = len(stat.weights)
        wins = sum(1 for k in stat.support if is_winning(WheelPosition(k, L)))
        win_prob = Fraction(wins, len(stat.support))
        return cls(win_prob, 2 * win_prob - 1, len(stat.support))


def exact_rate(combined: CombinedGame) -> GameStats:
    """Exact stationary winning probability and net win/loss rate."""
    return GameStats.from_stationary(stationary_distribution(combined))


@dataclass(frozen=True, slots=True)
class GeneralRates:
    """Net rates of two coprime games and of their random mixture."""

    rate_m: Fraction
    rate_n: Fraction
    rate_combined: Fraction


def general_rates(m: int, n: int) -> GeneralRates:
    """Rates (-1/m, -1/n, +1/(m*n)) for coprime m = n = 3 (mod 4).

    The closed forms are verified against exhaustive residue counting via
    :func:`exact_rate`; a mismatch raises rather than returning.
    """
    m, n = int(m), int(n)
    for v in (m, n):
        if v < 3 or v % 4 != 3:
            raise ValueError("moduli must be >= 3 and congruent to 3 mod 4")
    if math.gcd(m, n) != 1:
        raise ValueError("moduli must be coprime")
    rate_m = exact_rate(CombinedGame((RotationGame(m),))).net_rate
    rate_n = exact_rate(CombinedGame((RotationGame(n),))).net_rate
    rate_mn = exact_rate(CombinedGame((RotationGame(m), RotationGame(n)))).net_rate
    expect = (Fraction(-1, m), Fraction(-1, n), Fraction(1, m * n))
    if (rate_m, rate_n, rate_mn) != expect:
        raise RuntimeError(
            f"counted rates {(rate_m, rate_n, rate_mn)} disagree with {expect}"
        )
    return GeneralRates(rate_m, rate_n, rate_mn)


def combine_even(games) -> CombinedGame:
    """Random mixture of an even number of losing games.

    Requires pairwise-coprime moduli, each >= 3 and congruent to 3 mod 4.
    The combined rate is computable exactly via :func:`exact_rate`; no
    closed form is asserted beyond the two-game case.
    """
    games = tuple(games)
    if len(games) == 0 or len(games) % 2 != 0:
        raise ValueError("need an even, positive number of games")
    for g in games:
        if g.m < 3 or g.m % 4 != 3:
            raise ValueError("moduli must be >= 3 and congruent to 3 mod 4")
    combined = CombinedGame(games)
    if not combined.pairwise_coprime():
        raise ValueError("moduli must be pairwise coprime")
    return combined


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


def simulate(
    combined: CombinedGame, rounds: int, seed: int, threads: int = 1
) -> SimulatedStats:
    """Play ``rounds`` rounds from k = 0 and tally wins.

    Round r draws its game choice and rotation from the stream keyed by
    (seed, r).  Each block keeps only the histogram of its positions
    relative to its own start and its last relative position, so memory is
    O(L) per block; the blocks are merged in fixed order, so tallies are
    bit-identical under any thread count.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    L = combined.modulus
    n_games = len(combined.games)
    moduli = np.array(combined.moduli, dtype=np.int64)
    strides = np.array([L // g.m for g in combined.games], dtype=np.int64)
    k = np.arange(L, dtype=np.int64)
    winning = ((4 * k <= L) | (4 * k >= 3 * L)).astype(np.int64)

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        g = np.minimum(
            (rng.slot_uniform(keys, 0) * n_games).astype(np.int64), n_games - 1
        )
        j = np.minimum(
            (rng.slot_uniform(keys, 1) * moduli[g]).astype(np.int64), moduli[g] - 1
        )
        rel = np.cumsum(j * strides[g]) % L
        return np.bincount(rel, minlength=L), int(rel[-1])

    wins = 0
    carry = 0
    for hist, last in rng.run_blocks(rounds, worker, threads=threads):
        # A block started at position ``carry`` visits (rel + carry) % L.
        wins += int(hist @ np.roll(winning, -carry))
        carry = (carry + last) % L
    return SimulatedStats(wins, rounds)
