"""Search-as-a-game: random sign flips and reflections find a marked item.

Two operators act on n qubits prepared uniform: ``A`` flips the sign of
the marked basis state, ``B = 2|psi><psi| - I`` reflects about the uniform
state.  Played alone, either operator leaves the measurement payoff at
1/2^n.  Played in random alternation the sequence reduces -- A*A = B*B = I
and B fixes the start state -- to an alternating word, and each surviving
``BA`` pair is exactly one Grover iterate, so a player who stops at the
right reduced word measures the marked item with probability
``sin^2((2k+1) * asin(1/sqrt(N)))``.

A and B generate the infinite dihedral group, which acts faithfully on
the odd integers: A is y -> -y, B is y -> 2 - y, and the start state is
y = 1 (B fixes it).  A word carries 1 to y, and its reduced length is
y - 1 for y > 0 and -y for y < 0.  After t random letters
y = 1 + 2 * (-1)^t * d, where d counts the A's at even slots minus those
at odd slots, so the Monte Carlo needs only that count, and the length
law after m fair letters is binomial (:func:`fixed_horizon_win_prob` sums it).
Letter t of a trial is bit ``t % 64`` of its raw draw at slot ``t // 64``
(1 for A): one 64-bit draw carries 64 letters, and a bit's position has
the parity of its letter's slot, so the binomial count behind that law is
one popcount per draw.  Adaptive tracking reads the same bits 8 letters at
a time: tables over the 256 bytes give each byte's change in d and the
first letter in it, if any, at which the length reaches its target.
No state vector is ever formed: the payoff of a word is the closed form of
its reduced length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Union

from .qubit import checked

TWO_D_MAX_QUBITS = 60


class GameConfig(checked("GameConfig", [("n_qubits", int), ("target", int)])):
    """Search instance: n qubits, N = 2^n items, one marked target."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, target: int = 0):
        if int(n_qubits) != n_qubits or not (1 <= n_qubits <= TWO_D_MAX_QUBITS):
            raise ValueError(f"n_qubits must lie in [1, {TWO_D_MAX_QUBITS}]")
        n_qubits, target = int(n_qubits), int(target)
        if not (0 <= target < 2**n_qubits):
            raise ValueError("target must lie in [0, 2^n - 1]")
        return super().__new__(cls, n_qubits, target)

    @property
    def size(self) -> int:
        return 2**self.n_qubits


def success_closed_form(k: int, config: GameConfig) -> float:
    """Success probability after k composed iterates from uniform.

    ``sin^2((2k+1) * asin(1/sqrt(N)))``: each iterate rotates the state by
    twice the initial angle inside the invariant plane.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(success_curve((k,), config))


def success_curve(ks: Iterable[int], config: GameConfig) -> Iterator[float]:
    """:func:`success_closed_form` at each k of ``ks``, bit for bit.

    The angle asin(1/sqrt(N)) is computed once for the whole curve, and
    ``sin((2k + 1) * theta) ** 2`` is built by ``map`` calls, with no
    Python frame per k; the odd numbers of a ``range`` are a range.
    """
    theta = math.asin(1.0 / math.sqrt(config.size))
    if isinstance(ks, range):
        odd = range(2 * ks.start + 1, 2 * ks.stop + 1, 2 * ks.step)
    else:
        odd = map(operator.add, map(operator.mul, ks, itertools.repeat(2)), itertools.repeat(1))
    angles = map(operator.mul, odd, itertools.repeat(theta))
    return map(pow, map(math.sin, angles), itertools.repeat(2))


def reduce_word(word: str) -> str:
    """Normal form of an operator word (leftmost letter acts last).

    Adjacent equal letters cancel (both operators square to the identity)
    and a trailing rightmost B is dropped (it fixes the start state).  The
    result is empty or alternates and ends in A.
    """
    reduced: list[str] = []
    for letter in word:
        if letter not in ("A", "B"):
            raise ValueError(f"letters must be 'A' or 'B', got {letter!r}")
        if reduced and reduced[-1] == letter:
            reduced.pop()
        else:
            reduced.append(letter)
    if reduced and reduced[-1] == "B":
        reduced.pop()
    return "".join(reduced)


def pure_game_payoff(config: GameConfig) -> float:
    """Payoff available from either single-operator game: exactly 1/2^n.

    Under A alone the reachable states are |psi> and A|psi>, both with
    marked-state probability 1/N; under B alone the state never moves.
    """
    return 1.0 / config.size


def quarter_pi_k(config: GameConfig) -> int:
    """The ceil(pi * sqrt(N) / 4) iterate count (not necessarily optimal)."""
    return math.ceil(math.pi * math.sqrt(config.size) / 4.0)


def optimal_k(config: GameConfig) -> int:
    """Iterate count in 0..ceil(pi*sqrt(N)/2) maximizing the closed-form success.

    Ties go to the smaller k.  The success sin^2((2k+1)*theta) peaks where
    (2k+1)*theta = pi/2 + j*pi, so only the integers next to each such peak
    and the two ends of the range can hold the maximum; checking those
    gives the same k as scanning the whole range, in O(1).
    """
    k_max = math.ceil(math.pi * math.sqrt(config.size) / 2.0)
    theta = math.asin(1.0 / math.sqrt(config.size))
    candidates = {0, k_max}
    j = 0
    while (peak := (math.pi / 2.0 + j * math.pi) / (2.0 * theta) - 0.5) < k_max + 1:
        near = math.floor(peak)
        candidates.update(k for k in range(near - 1, near + 3) if 0 <= k <= k_max)
        j += 1
    # max keeps the first of equal values, so ties go to the smaller k
    return max(sorted(candidates), key=lambda k: success_closed_form(k, config))


class FixedHorizon(checked("FixedHorizon", [("m", int)])):
    """Stop unconditionally after m random operations."""

    __slots__ = ()

    def __new__(cls, m: int):
        if int(m) != m or m < 0:
            raise ValueError("horizon must be a nonnegative integer")
        return super().__new__(cls, int(m))


class AdaptiveTracking(checked("AdaptiveTracking", [("k_star", int)])):
    """Track the reduced word and stop when it equals (BA)^k_star."""

    __slots__ = ()

    def __new__(cls, k_star: int):
        if int(k_star) != k_star or k_star < 0:
            raise ValueError("k_star must be a nonnegative integer")
        return super().__new__(cls, int(k_star))


Strategy = Union[FixedHorizon, AdaptiveTracking]


class StrategyOutcome(NamedTuple):
    """Evaluation of a stopping strategy.

    ``reduced_length_histogram[s]`` counts trials whose reduced word had
    length s when play ended.  Adaptive tracking also fills
    ``stopping_time_histogram[t]``, the trials stopped after t operations,
    and ``censored``, the trials that hit the step cap first: they have no
    stopping time and are scored by the length they hold at the cap.
    """

    win_prob: float
    stderr: float
    reduced_length_histogram: dict[int, int]
    stopping_time_histogram: dict[int, int] | None = None
    censored: int = 0


_LETTERS = 64  # letter t of a trial is bit t % 64 of its draw at slot t // 64
_ODD = 0xAAAAAAAAAAAAAAAA  # bits at odd positions: letters at odd slots
_GRID_ELEMENTS = 1 << 16  # draws per fixed-horizon call, letters per adaptive chunk
# Letters an adaptive trial plays before it is censored: 15,625 whole draws,
# so adaptive tracking never reads part of a draw.
ADAPTIVE_CAP = 1_000_000


_WINDOW = 5  # hit-table rows: offsets of d from a target in [-5, 5]


@functools.cache
def _byte_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per byte of 8 letters: its gain in d, and where d first meets an even or odd target.

    Letter j of a byte is bit j (1 for A); a byte starts at an even slot,
    so letter j adds (-1)^j to d when it is an A.  Entry (o + _WINDOW, b)
    of a hit table is the first letter j of byte b, of the table's slot
    parity, after which d equals the target when it starts the byte o
    above it, or 8 when no letter does.  Within a byte d moves by at most
    4, so the rows o = +-_WINDOW hold only 8s.  The tables are read-only
    and built by the first adaptive run: built at import, they raised the
    peak resident set of every CLI run by about 0.5 MiB.
    """
    import numpy as np

    letters = (np.arange(256) >> np.arange(8)[:, None]) & 1
    prefix = np.cumsum(letters * np.where(np.arange(8) % 2, -1, 1)[:, None], axis=0)
    offsets = np.arange(-_WINDOW, _WINDOW + 1)
    meets = prefix + offsets[:, None, None] == 0  # (offset, letter, byte)
    tables = [prefix[-1]]
    for parity in (0, 1):
        at = meets & (np.arange(8) % 2 == parity)[:, None]
        tables.append(np.where(at.any(axis=1), at.argmax(axis=1), 8).astype(np.int8))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _reduced_length(d: np.ndarray, t: int) -> np.ndarray:
    """Reduced-word lengths after t letters with signed A-counts ``d``; overwrites ``d``.

    ``d`` is (A's at even slots) - (A's at odd slots).  The start point 1
    is carried to y = 1 + 2 * (-1)^t * d, and the length is y - 1 for
    y > 0 and -y for y < 0: 2e for e = (-1)^t * d >= 0, else -1 - 2e.
    """
    import numpy as np

    if t % 2:
        np.negative(d, out=d)
    negative = d < 0
    d *= 2
    return np.subtract(-1, d, out=d, where=negative)


def _score(lengths: np.ndarray, config: GameConfig) -> tuple[np.ndarray, dict[int, int]]:
    """Each trial's payoff, and the trials at each length; overwrites ``lengths``.

    A reduced word of length s contains floor(s/2) B's, hence acts like
    that many composed iterates (a leading A only flips the marked
    amplitude's sign), so each length seen is scored once by
    :func:`success_curve` at s // 2: :func:`success_closed_form` bit for bit.
    Lengths are counted over the block's span only, min to max.
    """
    import numpy as np
    from . import rng

    lo = int(lengths.min())
    lengths -= lo
    counts = np.bincount(lengths)
    seen = np.flatnonzero(counts)
    distinct = (seen + lo).tolist()
    table = np.empty(counts.size)  # the entries of unseen lengths are never read
    table[seen] = np.fromiter(success_curve((s // 2 for s in distinct), config), np.float64)
    payoff = table.take(lengths, out=rng._empty(lengths.size))
    return payoff, dict(zip(distinct, counts[seen].tolist()))


def fixed_horizon_win_prob(m: int, config: GameConfig) -> float:
    """Exact win probability of stopping after m random letters, in O(m) terms.

    It sums the binomial law of the reduced length: K = (A's at even
    slots) + (B's at odd slots) is Bin(m, 1/2), and the signed count
    d = K - floor(m/2) gives the length ``_reduced_length(d, m)`` with
    probability C(m, K) / 2^m, an integer quotient rounded once.  Each
    probability times the closed-form payoff of its length is a term, and
    ``math.fsum`` adds the m + 1 terms.
    """
    import numpy as np

    m = FixedHorizon(m).m
    lengths = _reduced_length(np.arange(m + 1) - m // 2, m).tolist()
    payoff = success_curve((s // 2 for s in lengths), config)
    binomials = itertools.accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1)
    total = 1 << m
    return math.fsum(c / total * w for c, w in zip(binomials, payoff))


def fixed_horizon_draws(m: int) -> int:
    """Raw 64-bit draws one trial of an m-letter horizon reads: ceil(m / 64)."""
    return -(-m // _LETTERS)


def draw_charge(strategy: Strategy, trials: int) -> int:
    """Raw 64-bit draws charged to :func:`evaluate_strategy` for ``trials`` trials.

    A fixed horizon reads exactly :func:`fixed_horizon_draws` a trial.  An
    adaptive trial is charged its expected work, not a bound: the draws of
    min(L * (L + 1), ADAPTIVE_CAP) letters, L = 2 * k_star, as its stopping
    time T has the gambler's-ruin mean L * (L + 1) (Feller, vol. 1,
    ch. XIV) and E[min(T, cap)] <= min(E[T], cap).
    """
    if isinstance(strategy, FixedHorizon):
        return trials * fixed_horizon_draws(strategy.m)
    L = 2 * strategy.k_star
    return trials * fixed_horizon_draws(min(L * (L + 1), ADAPTIVE_CAP))


def _play_fixed(m: int, keys: np.ndarray) -> tuple[np.ndarray, None]:
    """Each trial's reduced length after m letters, and no stopping times."""
    import numpy as np
    from . import rng

    words = fixed_horizon_draws(m)
    # letters past m in the last draw are not played
    tail = np.uint64((1 << (m % _LETTERS or _LETTERS)) - 1)
    # K = (A's at even slots) + (B's at odd slots) = d + floor(m/2)
    big_k = rng._empty(keys.size, np.int64)
    big_k.fill(0)
    counts = rng._empty(keys.size, np.int64)
    per_call = max(_GRID_ELEMENTS // keys.size, 1)
    for first in range(0, words, per_call):
        w = rng.slot_u64(keys, first, min(per_call, words - first))
        w ^= _ODD  # a set bit is now an A at an even slot or a B at an odd one
        if first + per_call >= words:
            w[-1] &= tail
        big_k += np.sum(np.bitwise_count(w), axis=0, dtype=np.int64, out=counts)
    big_k -= m // 2
    return _reduced_length(big_k, m), None


def _play_adaptive(k: int, keys: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Each trial's final reduced length, and the trials stopped after each t letters.

    A trial stops after the first letter t at which d = (-1)^(t+1) * k.
    Its draws are read in word-aligned chunks as bytes of 8 letters, and d
    at each byte's start, the running sum of the bytes' gains, looks up the
    first hit inside the byte in :func:`_byte_tables`.
    """
    import numpy as np
    from . import rng

    # |d| <= ADAPTIVE_CAP, so from this k on every offset clips to an end
    # row of 8s, as it would at k itself, and 256 * reach fits an int64
    reach = min(k, ADAPTIVE_CAP + _WINDOW)
    byte_gain, hit_even, hit_odd = _byte_tables()
    stop_at = rng._empty(keys.size, np.int64)
    stop_at.fill(0)
    d = rng._empty(keys.size, np.int64)
    d.fill(0)
    stopped = np.ones(keys.size, dtype=bool)
    # a chunk holds at least one draw per trial, so trials go in groups;
    # at k = 0 every trial stops before its first letter
    group = _GRID_ELEMENTS // _LETTERS
    for g in range(0, keys.size if k else 0, group):
        active = np.arange(g, min(g + group, keys.size))
        step = 0
        while active.size and step < ADAPTIVE_CAP:
            per_trial = _GRID_ELEMENTS // (_LETTERS * active.size)
            n = min(_LETTERS * per_trial, ADAPTIVE_CAP - step)  # whole draws, as the cap is
            w = rng.slot_u64(keys[active], step // _LETTERS, n // _LETTERS)
            # row i holds letters step .. step+n-1 of trial active[i], 8 to a byte
            letters = np.ascontiguousarray(w.T).astype("<u8", copy=False).view(np.uint8)
            byte = letters.astype(np.intp)
            gain = byte_gain.take(byte)
            start = d[active]
            at = np.cumsum(gain, axis=1)
            end = at[:, -1] + start
            # d at each byte's start as the byte's index in the hit tables:
            # (offset from the target + _WINDOW) * 256 + byte, and an
            # offset past the window clips to an end row of 8s
            at -= gain
            at += (start + _WINDOW)[:, None]
            at *= 256
            at += byte
            hit_at = hit_even.take(at + 256 * reach, mode="clip")  # target -k
            np.minimum(hit_at, hit_odd.take(at - 256 * reach, mode="clip"), out=hit_at)
            hit = hit_at < 8
            first = hit.argmax(axis=1)
            rows = np.arange(active.size)
            done = hit[rows, first]
            stop_at[active[done]] = step + 1 + 8 * first[done] + hit_at[rows, first][done]
            d[active] = end
            active = active[~done]
            step += n
        stopped[active] = False
    lengths = _reduced_length(d, ADAPTIVE_CAP)  # what a censored trial holds at the cap
    if not stopped.any():  # always when 2 * k > ADAPTIVE_CAP, which need not fit an int64
        return lengths, {}
    lengths[stopped] = 2 * k
    # stopping times can span the whole cap, so they are sorted, not binned
    times, counts = np.unique(stop_at[stopped], return_counts=True)
    return lengths, dict(zip(times.tolist(), counts.tolist()))


def evaluate_strategy(
    strategy: Strategy, config: GameConfig, trials: int, seed: int, threads: int = 1
) -> StrategyOutcome:
    """Evaluate a stopping strategy for the random-operator game.

    Letter t of trial i is bit ``t % 64`` of its draw at slot ``t // 64``
    (1 for A), and the reduced length after t letters depends only on the
    signed A-count d (see :func:`_reduced_length`).  A fixed horizon ends
    each trial after m letters (:func:`_play_fixed`); adaptive tracking
    (:func:`_play_adaptive`) ends a stopped trial at length 2 * k_star and
    a censored one at the length it holds after :data:`ADAPTIVE_CAP`
    letters.  Both strategies score each trial by that length alone, in
    :func:`_score`, which also counts the trials at each length.  A block
    returns its lengths and stopping times as counts, folded as it finishes.
    """
    from . import montecarlo

    if isinstance(strategy, FixedHorizon):
        play = functools.partial(_play_fixed, strategy.m)
    elif isinstance(strategy, AdaptiveTracking):
        play = functools.partial(_play_adaptive, strategy.k_star)
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")

    def sampler(keys: np.ndarray):
        lengths, stops = play(keys)
        payoff, tally = _score(lengths, config)
        return [payoff], (tally, stops)

    def fold(acc, block):
        acc[0].update(block[0])
        acc[1].update(block[1])  # None for a fixed horizon
        return acc

    [(mean, stderr)], (lengths, times) = montecarlo.run(
        sampler, trials, seed, threads, fold, (Counter(), Counter()))
    hist = dict(sorted(lengths.items()))
    if isinstance(strategy, FixedHorizon):
        return StrategyOutcome(mean.real, stderr, hist)
    # censored trials never stopped, so they have no stopping time
    return StrategyOutcome(mean.real, stderr, hist, dict(sorted(times.items())),
                           trials - times.total())
