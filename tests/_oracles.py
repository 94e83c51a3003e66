"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written from first principles (dense
matrices, exact rational dynamic programming, float trigonometry) so that
it shares no code path with the implementations it checks.  The exceptions
are the search-game letter walks, the per-point Monte Carlo estimators and
the wheel-game position merge at the end: they keep the package's random
streams (and kick laws) and fix the results the faster routes must match.
"""

import math
from fractions import Fraction

import numpy as np

from noisegames import rng
from noisegames.kicks import DeltaMixture, ExponentialKicks, GaussianKicks
from noisegames.memory import SetLabel


def textbook_grover_matrix(n_qubits: int, target: int) -> np.ndarray:
    """One Grover step as an explicit matrix: oracle then diffusion."""
    n = 2**n_qubits
    oracle = np.eye(n, dtype=complex)
    oracle[target, target] = -1.0
    psi = np.full((n, 1), 1.0 / math.sqrt(n), dtype=complex)
    diffusion = 2.0 * (psi @ psi.conj().T) - np.eye(n, dtype=complex)
    return diffusion @ oracle


def reduced_length_distribution(m: int) -> dict[int, Fraction]:
    """Exact law of the reduced-word length after m fair letters.

    The length does a random walk: up or down with probability 1/2 from
    positive lengths, up (letter A) or stay (letter B, absorbed by the
    start state) from zero.
    """
    half = Fraction(1, 2)
    probs = {0: Fraction(1)}
    for _ in range(m):
        nxt: dict[int, Fraction] = {}
        for s, p in probs.items():
            down = s - 1 if s > 0 else 0
            nxt[down] = nxt.get(down, Fraction(0)) + p * half
            nxt[s + 1] = nxt.get(s + 1, Fraction(0)) + p * half
        probs = nxt
    return probs


def expected_fixed_horizon_win(m: int, n_qubits: int) -> float:
    """Exact expected win probability of the m-step fixed-horizon strategy."""
    theta = math.asin(1.0 / math.sqrt(2**n_qubits))
    dist = reduced_length_distribution(m)
    return math.fsum(
        float(p) * math.sin((2.0 * (s // 2) + 1.0) * theta) ** 2
        for s, p in dist.items()
    )


def winning_positions_by_cosine(modulus: int) -> int:
    """Count k in [0, modulus) with cos(2 pi k / modulus) >= 0, by floats.

    Safe for odd moduli, where no position comes within ~pi/modulus of the
    boundary.
    """
    return sum(
        1 for k in range(modulus) if math.cos(2.0 * math.pi * k / modulus) >= 0.0
    )


def optimal_k_by_scan(n_qubits: int) -> int:
    """Best iterate count by scanning every k in 0..ceil(pi*sqrt(N)/2).

    Ties go to the smaller k, so float noise between equal peaks decides
    as it does for the package's closed form.
    """
    size = 2**n_qubits
    theta = math.asin(1.0 / math.sqrt(size))
    k_max = math.ceil(math.pi * math.sqrt(size) / 2.0)
    best_k, best = 0, math.sin(theta) ** 2
    for k in range(1, k_max + 1):
        val = math.sin((2 * k + 1) * theta) ** 2
        if val > best:
            best_k, best = k, val
    return best_k


def alternating_word(length: int) -> str:
    """The unique reduced word of a given length (alternates, ends in A)."""
    if length == 0:
        return ""
    if length % 2 == 0:
        return "BA" * (length // 2)
    return "A" + "BA" * (length // 2)



# --- The search game walked letter by letter ---
#
# The reduced word of a random word is determined by its length, so playing
# one letter moves the length by -1, 0 or +1.  These walks replay every
# trial's letters one step at a time; evaluate_strategy must match them.


def walk_reduced_length(s: np.ndarray, is_a: np.ndarray) -> np.ndarray:
    """Advance reduced-word lengths by one random letter (vectorized).

    The reduced word is determined by its length: it alternates and ends
    in A, so its leftmost letter is A when the length is odd and B when it
    is even.  A new letter cancels iff it equals that leftmost letter; at
    length 0 the letter B is absorbed by the start state.
    """
    odd = (s % 2) == 1
    cancels = (s > 0) & (odd == is_a)
    return np.where(cancels, s - 1, np.where((s == 0) & ~is_a, s, s + 1))


def _letters_are_a(keys: np.ndarray, slot: int) -> np.ndarray:
    return (rng.slot_u64(keys, slot) >> np.uint64(63)).astype(bool)


def walk_fixed_horizon(m: int, trials: int, seed: int) -> np.ndarray:
    """Reduced length of every trial after m letters."""
    keys = rng.stream_keys(seed, 0, trials)
    s = np.zeros(trials, dtype=np.int64)
    for step in range(m):
        s = walk_reduced_length(s, _letters_are_a(keys, step))
    return s


def walk_adaptive(k_star: int, trials: int, seed: int, cap: int):
    """Stop each trial when its length reaches 2*k_star, or at ``cap`` letters.

    Returns (stopping times, 0 for censored trials; lengths held at the
    stop or the cap; indices of the censored trials).
    """
    keys = rng.stream_keys(seed, 0, trials)
    s = np.zeros(trials, dtype=np.int64)
    stop_at = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials) if k_star else np.arange(0)
    step = 0
    while active.size and step < cap:
        s[active] = walk_reduced_length(s[active], _letters_are_a(keys[active], step))
        step += 1
        hit = s[active] == 2 * k_star
        stop_at[active[hit]] = step
        active = active[~hit]
    return stop_at, s, active

# --- Per-point Monte Carlo estimators as written before the shared engine ---
#
# Each call reruns every trajectory from scratch for a single step count and
# folds the block moments by hand.  Curves from noisegames.montecarlo must
# match these point for point, bit for bit.


def _moments_to_mean_stderr(ref: complex, partials, trials: int):
    sum_re = math.fsum(p[0] for p in partials)
    sum_im = math.fsum(p[1] for p in partials)
    sum_re2 = math.fsum(p[2] for p in partials)
    sum_im2 = math.fsum(p[3] for p in partials)
    mean = ref + complex(sum_re / trials, sum_im / trials)
    if trials > 1:
        var_re = max(sum_re2 - sum_re * sum_re / trials, 0.0) / (trials - 1)
        var_im = max(sum_im2 - sum_im * sum_im / trials, 0.0) / (trials - 1)
        stderr = math.sqrt(max(var_re, var_im) / trials)
    else:
        stderr = 0.0
    return mean, stderr


def _block_sums(w: np.ndarray):
    re, im = w.real, w.imag
    return (
        float(np.sum(re)),
        float(np.sum(im)),
        float(np.sum(re * re)),
        float(np.sum(im * im)),
    )


def _iid_angles(dist, keys: np.ndarray, steps: int) -> np.ndarray:
    total = np.zeros(len(keys), dtype=np.float64)
    if isinstance(dist, DeltaMixture):
        cum = np.cumsum(np.asarray(dist.weights, dtype=np.float64))
        cum[-1] = 1.0
        angles = np.asarray(dist.angles, dtype=np.float64)
        for s in range(steps):
            u = rng.slot_uniform(keys, s)
            total += angles[np.searchsorted(cum, u, side="right")]
    elif isinstance(dist, GaussianKicks):
        sigma = math.sqrt(dist.sigma2)
        for s in range(steps):
            total += dist.mu + sigma * rng.slot_normal(keys, s)
    elif isinstance(dist, ExponentialKicks):
        scale = dist.scale
        for s in range(steps):
            total += -scale * np.log(rng.slot_uniform_open(keys, s))
    else:
        raise TypeError(type(dist).__name__)
    return total


def iid_mc_point(b0: complex, dist, steps: int, trials: int, seed: int, threads: int):
    """(mean coherence, stderr) after ``steps`` IID kicks."""
    ref = complex(
        b0 * np.exp(-1j * _iid_angles(dist, rng.stream_keys(seed, 0, 1), steps))[0]
    )

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        return _block_sums(b0 * np.exp(-1j * _iid_angles(dist, keys, steps)) - ref)

    partials = rng.run_blocks(trials, worker, threads=threads)
    return _moments_to_mean_stderr(ref, partials, trials)


def memory_mc_point(b0: complex, kern, n: int, trials: int, seed: int, threads: int):
    """(mean coherence, stderr) after n kicks of a memory kernel from class A."""
    tables = {}
    for label in (SetLabel.SET_A, SetLabel.SET_B):
        branches = kern.branches(label)
        cum = np.cumsum([br.weight for br in branches])
        cum[-1] = 1.0
        angles = np.array([br.angle for br in branches])
        to_a = np.array([br.to_label is SetLabel.SET_A for br in branches])
        tables[label] = (cum, angles, to_a)
    cum_a, ang_a, next_a_from_a = tables[SetLabel.SET_A]
    cum_b, ang_b, next_a_from_b = tables[SetLabel.SET_B]

    def chain_phases(keys: np.ndarray) -> np.ndarray:
        in_a = np.ones(len(keys), dtype=bool)
        total = np.zeros(len(keys), dtype=np.float64)
        for s in range(n):
            u = rng.slot_uniform(keys, s)
            ia = np.searchsorted(cum_a, u, side="right")
            ib = np.searchsorted(cum_b, u, side="right")
            total += np.where(in_a, ang_a[ia], ang_b[ib])
            in_a = np.where(in_a, next_a_from_a[ia], next_a_from_b[ib])
        return total

    ref = complex(b0 * np.exp(-1j * chain_phases(rng.stream_keys(seed, 0, 1)))[0])

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        return _block_sums(b0 * np.exp(-1j * chain_phases(keys)) - ref)

    partials = rng.run_blocks(trials, worker, threads=threads)
    return _moments_to_mean_stderr(ref, partials, trials)


# --- The wheel-game simulation as written before residue histograms ---


def simulate_by_positions(combined, rounds: int, seed: int, threads: int = 1) -> int:
    """Wins of ``parrondo.simulate`` by its position-array merge.

    Every block keeps the whole array of its positions relative to its
    start (8 bytes per round); the merge shifts each array by the carried
    position and tests every round for a win.
    """
    L = combined.modulus
    n_games = len(combined.games)
    moduli = np.array(combined.moduli, dtype=np.int64)
    strides = np.array([L // g.m for g in combined.games], dtype=np.int64)

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        g = np.minimum(
            (rng.slot_uniform(keys, 0) * n_games).astype(np.int64), n_games - 1
        )
        j = np.minimum(
            (rng.slot_uniform(keys, 1) * moduli[g]).astype(np.int64), moduli[g] - 1
        )
        return np.cumsum(j * strides[g]) % L

    wins = 0
    carry = 0
    for rel in rng.run_blocks(rounds, worker, threads=threads):
        pos = (rel + carry) % L
        wins += int(np.count_nonzero((4 * pos <= L) | (4 * pos >= 3 * L)))
        carry = int(pos[-1])
    return wins
