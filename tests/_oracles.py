"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written from first principles (dense
matrices, exact rational dynamic programming, float trigonometry,
adaptive quadrature) so that it shares no arithmetic with the
implementations it checks.  These parts take something from the package:

* ``Stream`` is a sequential cursor over the package's slot-addressed
  draws (``rng.stream_keys`` and ``rng.slot_u64``);
* ``random_diagonal_channel`` and ``random_state`` return the package's
  ``KrausChannel`` and ``DensityMatrix2``, whose constructors validate them;
* the state simulators of the search game take its ``GameConfig``, and
  ``char_function_quadrature`` takes the package's kick laws;
* the search-game letter walks, the per-point Monte Carlo estimators, the
  exp-of-sum kicked coherences and the wheel-game position merge keep the
  package's random streams (and kick laws) and fix the results the faster
  routes must match; the per-point estimators also take the package's
  ``montecarlo.phasors`` for the continuous kick laws;
* the memory-kernel recursion keyed by ``SetLabel`` takes the package's
  kernels, the roll-per-offset power iteration takes its wheel games, and
  the JSON/CSV writers take the values the CLI prints.
"""

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from noisegames import montecarlo, rng
from noisegames.grover import GameConfig
from noisegames.kicks import TWO_PI, DeltaMixture, ExponentialKicks, GaussianKicks
from noisegames.memory import SetLabel
from noisegames.qubit import DensityMatrix2, KrausChannel


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



# --- A sequential view of the counter-based streams ---


_STREAM_BUFFER_SLOTS = 1 << 16


class Stream:
    """Sequential view of one derived stream (draws advance a slot cursor).

    Slots are drawn ahead, 65,536 at a time, by one array-slot
    ``rng.slot_u64`` call and served from that buffer; each value is the
    draw at its slot, as if it were drawn alone.
    """

    __slots__ = ("keys", "_slot", "_buffer", "_buffer_start")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self._slot = 0
        self._buffer = np.empty(0, dtype=np.uint64)
        self._buffer_start = 0

    def _take(self, n: int) -> np.ndarray:
        lo = self._slot - self._buffer_start
        if lo + n > self._buffer.size:
            slots = np.arange(self._slot, self._slot + max(n, _STREAM_BUFFER_SLOTS))
            self._buffer = rng.slot_u64(self.keys, slots)[:, 0].copy()
            self._buffer_start, lo = self._slot, 0
        self._slot += n
        return self._buffer[lo : lo + n].copy()

    def u64(self, n: int = 1) -> np.ndarray:
        return self._take(n)

    def uniform(self, n: int = 1) -> np.ndarray:
        return (self._take(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_open(self, n: int = 1) -> np.ndarray:
        x = (self._take(n) >> np.uint64(11)).astype(np.float64)
        return (x + 1.0) * 2.0**-53

    def normal(self, n: int = 1) -> np.ndarray:
        u1 = self.uniform_open(n)
        u2 = self.uniform(n)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) from one draw (bias below bound * 2**-53)."""
        if bound <= 0:
            raise ValueError("randint bound must be positive")
        x = int(self._take(1)[0]) >> 11
        return (x * bound) >> 53


def derive_stream(master_seed: int, index: int) -> Stream:
    """Independent stream for ``(master_seed, index)``.

    Deterministic and platform-independent; streams for distinct indices
    under the same seed have distinct keys (and in particular distinct
    first outputs).
    """
    return Stream(rng.stream_keys(master_seed, index, 1))


# --- Random channels and states for property tests ---


def random_diagonal_channel(stream: Stream, max_terms: int = 4) -> KrausChannel:
    """Random diagonal-Kraus (dephasing-type) channel; always CPTP.

    Diagonal Kraus operators fix both populations, so these channels are
    exactly the random diagonal-fixing maps used to probe the no-gain
    property.
    """
    if max_terms < 2:
        raise ValueError("need at least two terms")
    n = 2 + stream.randint(max_terms - 1)
    w = stream.uniform_open(n)
    w = w / w.sum()
    re1, im1 = stream.normal(n), stream.normal(n)
    re2, im2 = stream.normal(n), stream.normal(n)
    d1 = re1 + 1j * im1
    d2 = re2 + 1j * im2
    d1 = d1 / math.sqrt(float(np.sum(w * np.abs(d1) ** 2)))
    d2 = d2 / math.sqrt(float(np.sum(w * np.abs(d2) ** 2)))
    terms = tuple(
        (float(w[i]), ((complex(d1[i]), 0.0j), (0.0j, complex(d2[i]))))
        for i in range(n)
    )
    return KrausChannel(terms)


def random_state(stream: Stream) -> DensityMatrix2:
    """Random valid qubit state (uniform populations, coherence in the disc)."""
    u = stream.uniform(3)
    a = float(u[0])
    c = 1.0 - a
    r = float(u[1]) * math.sqrt(max(a * c, 0.0))
    chi = (float(u[2]) * 2.0 - 1.0) * math.pi
    return DensityMatrix2(a, r * cmath.exp(1j * chi), c)


# --- Characteristic values by quadrature ---


def char_function_quadrature(dist) -> complex:
    """E[e^{i theta}] by adaptive quadrature of the defining integral.

    Independent oracle for ``kicks.char_function``: Gaussian laws are
    integrated over [mu - 10 sigma, mu + 10 sigma] and exponential laws
    over [0, 40 * omega * tau1] (tail mass below 1e-12), absolute
    tolerance 1e-11.  Point masses have no density and are summed exactly.
    """
    if isinstance(dist, DeltaMixture):
        re = math.fsum(w * math.cos(a) for w, a in dist.pairs)
        im = math.fsum(w * math.sin(a) for w, a in dist.pairs)
        return complex(re, im)
    if isinstance(dist, GaussianKicks):
        if dist.sigma2 == 0.0:
            return cmath.exp(1j * dist.mu)
        sigma = math.sqrt(dist.sigma2)
        norm = 1.0 / (sigma * math.sqrt(TWO_PI))

        def pdf(t: float) -> float:
            return norm * math.exp(-0.5 * ((t - dist.mu) / sigma) ** 2)

        lo, hi = dist.mu - 10.0 * sigma, dist.mu + 10.0 * sigma
    elif isinstance(dist, ExponentialKicks):
        s = dist.scale

        def pdf(t: float) -> float:
            return math.exp(-t / s) / s

        lo, hi = 0.0, 40.0 * s
    else:
        raise TypeError(f"unsupported kick distribution: {type(dist).__name__}")
    from scipy.integrate import quad

    re, _ = quad(lambda t: math.cos(t) * pdf(t), lo, hi, epsabs=1e-11, limit=400)
    im, _ = quad(lambda t: math.sin(t) * pdf(t), lo, hi, epsabs=1e-11, limit=400)
    return complex(re, im)


# --- The search game simulated as a state ---
#
# Both operators act on the full 2^n statevector, and on the invariant
# two-dimensional span of the marked state and the uniform rest, which has
# no practical size limit.  The package scores words by closed forms only.

FULL_MODE_MAX_QUBITS = 24  # 16M amplitudes; desk-scale memory guard


def _require_full_mode(config: GameConfig) -> None:
    if config.n_qubits > FULL_MODE_MAX_QUBITS:
        raise ValueError(
            f"full statevector mode is capped at {FULL_MODE_MAX_QUBITS} qubits; "
            "use 2d mode"
        )


def uniform_state(config: GameConfig) -> np.ndarray:
    """The uniform superposition as a full statevector."""
    _require_full_mode(config)
    n = config.size
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def apply_A(state: np.ndarray, config: GameConfig) -> np.ndarray:
    """Sign flip of the marked amplitude (full mode)."""
    out = np.array(state, dtype=complex)
    out[config.target] = -out[config.target]
    return out


def apply_B(state: np.ndarray, config: GameConfig) -> np.ndarray:
    """Reflection about the uniform state: amp -> 2*mean - amp (full mode)."""
    out = np.asarray(state, dtype=complex)
    return 2.0 * out.mean() - out


def grover_iterate(state: np.ndarray, config: GameConfig) -> np.ndarray:
    """One step of the composed game operator: A then B."""
    return apply_B(apply_A(state, config), config)


@dataclass(frozen=True, slots=True)
class TwoDState:
    """State in the invariant plane span{marked, uniform-rest}.

    ``c_target`` multiplies the marked basis state; ``c_rest`` multiplies
    the normalized uniform superposition of the other N-1 states.  Both
    game operators preserve this plane, so it simulates any word at any n.
    """

    c_target: complex
    c_rest: complex

    def __post_init__(self):
        object.__setattr__(self, "c_target", complex(self.c_target))
        object.__setattr__(self, "c_rest", complex(self.c_rest))
        norm = abs(self.c_target) ** 2 + abs(self.c_rest) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("two-dimensional state must be normalized")

    @property
    def success(self) -> float:
        """Probability of measuring the marked state."""
        return abs(self.c_target) ** 2


def uniform_2d(config: GameConfig) -> TwoDState:
    n = config.size
    return TwoDState(1.0 / math.sqrt(n), math.sqrt((n - 1.0) / n))


def apply_A_2d(state: TwoDState, config: GameConfig) -> TwoDState:
    return TwoDState(-state.c_target, state.c_rest)


def apply_B_2d(state: TwoDState, config: GameConfig) -> TwoDState:
    n = config.size
    s = 1.0 / math.sqrt(n)
    c = math.sqrt((n - 1.0) / n)
    ct, cr = state.c_target, state.c_rest
    return TwoDState(
        (2.0 * s * s - 1.0) * ct + 2.0 * s * c * cr,
        2.0 * s * c * ct + (2.0 * c * c - 1.0) * cr,
    )


def embed_2d(state: TwoDState, config: GameConfig) -> np.ndarray:
    """Full statevector carried by a two-dimensional state."""
    _require_full_mode(config)
    n = config.size
    out = np.full(n, state.c_rest / math.sqrt(n - 1.0), dtype=complex)
    out[config.target] = state.c_target
    return out


State = Union[np.ndarray, TwoDState]


def apply_word(word: str, config: GameConfig, mode: str = "full") -> State:
    """Apply an operator word (rightmost letter first) to the uniform state."""
    if mode == "full":
        state: State = uniform_state(config)
        ops = {"A": apply_A, "B": apply_B}
    elif mode == "2d":
        state = uniform_2d(config)
        ops = {"A": apply_A_2d, "B": apply_B_2d}
    else:
        raise ValueError(f"mode must be 'full' or '2d', got {mode!r}")
    for letter in reversed(word):
        if letter not in ops:
            raise ValueError(f"letters must be 'A' or 'B', got {letter!r}")
        state = ops[letter](state, config)
    return state


def word_success(word: str, config: GameConfig) -> float:
    """Probability of measuring the marked state after applying ``word``."""
    state = apply_word(word, config, mode="2d")
    return state.success


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


def _letters_are_a(keys: np.ndarray, t: int) -> np.ndarray:
    """Letter t of each trial: bit t % 64 of its draw at slot t // 64 (1 for A)."""
    return ((rng.slot_u64(keys, t // 64) >> np.uint64(t % 64)) & np.uint64(1)).astype(bool)


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
# Each call reruns every trajectory from scratch for a single step count,
# multiplies b by each kick's phasor e^{-i theta} in kick order, and folds the
# block moments by hand: each block is shifted by its own first value, and
# the blocks' sums are moved onto block 0's shift before they are merged.
# Curves from noisegames.montecarlo must match these point for point, bit
# for bit.


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


def _first_value_block(z: np.ndarray):
    """(size, first value, sums of z - first) of one block of samples."""
    return len(z), complex(z[0]), _block_sums(z - z[0])


def _merge_on_block_zero(blocks):
    """Mean and stderr of first-value-shifted blocks, re-centred on block 0's value.

    Moving a block's sums from shift r to r0 adds d = r - r0 to every
    sample: the sum gains n*d and the sum of squares d*(2*sum + n*d).
    """
    origin = blocks[0][1]
    moved = []
    for n, first, (s_re, s_im, q_re, q_im) in blocks:
        d_re = first.real - origin.real
        d_im = first.imag - origin.imag
        moved.append((
            s_re + n * d_re,
            s_im + n * d_im,
            q_re + d_re * (2.0 * s_re + n * d_re),
            q_im + d_im * (2.0 * s_im + n * d_im),
        ))
    return _moments_to_mean_stderr(origin, moved, sum(b[0] for b in blocks))


def _delta_branch(dist, keys: np.ndarray, s: int) -> np.ndarray:
    cum = np.cumsum(np.asarray(dist.weights, dtype=np.float64))
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.slot_uniform(keys, s), side="right")


def _iid_angle(dist, keys: np.ndarray, s: int) -> np.ndarray:
    """theta of kick s + 1 of every trajectory."""
    if isinstance(dist, DeltaMixture):
        return np.asarray(dist.angles, dtype=np.float64)[_delta_branch(dist, keys, s)]
    if isinstance(dist, GaussianKicks):
        # stream layout 4: kick s takes the cosine (even s) or the sine (odd s)
        # of Box-Muller pair s // 2
        sine = np.empty(len(keys))
        cosine = rng.slot_normal(keys, s // 2, sine=sine)
        return dist.mu + math.sqrt(dist.sigma2) * (sine if s % 2 else cosine)
    if isinstance(dist, ExponentialKicks):
        return -dist.scale * np.log(rng.slot_uniform_open(keys, s))
    raise TypeError(type(dist).__name__)


def _iid_phasor(dist, keys: np.ndarray, s: int) -> np.ndarray:
    """e^{-i theta} of kick s + 1 of every trajectory; a delta mixture's from a table."""
    if isinstance(dist, DeltaMixture):
        table = np.exp(-1j * np.asarray(dist.angles, dtype=np.float64))
        return table[_delta_branch(dist, keys, s)]
    return montecarlo.phasors(_iid_angle(dist, keys, s))


def _iid_coherences(b0: complex, dist, keys: np.ndarray, steps: int) -> np.ndarray:
    z = np.full(len(keys), b0, dtype=np.complex128)
    for s in range(steps):
        z *= _iid_phasor(dist, keys, s)
    return z


def iid_mc_point(b0: complex, dist, steps: int, trials: int, seed: int, threads: int):
    """(mean coherence, stderr) after ``steps`` IID kicks."""

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        return _first_value_block(_iid_coherences(b0, dist, keys, steps))

    return _merge_on_block_zero(rng.run_blocks(trials, worker, threads=threads))


def _chain_tables(kern):
    tables = {}
    for label in (SetLabel.SET_A, SetLabel.SET_B):
        branches = kern.branches(label)
        cum = np.cumsum([br.weight for br in branches])
        cum[-1] = 1.0
        angles = np.array([br.angle for br in branches])
        to_a = np.array([br.to_label is SetLabel.SET_A for br in branches])
        tables[label] = (cum, angles, to_a)
    return tables[SetLabel.SET_A], tables[SetLabel.SET_B]


def _chain_draws(kern, keys: np.ndarray, n: int):
    """(in class A, branch drawn from A, branch drawn from B) per chain at each kick."""
    (cum_a, _, next_a_from_a), (cum_b, _, next_a_from_b) = _chain_tables(kern)
    in_a = np.ones(len(keys), dtype=bool)
    for s in range(n):
        u = rng.slot_uniform(keys, s)
        ia = np.searchsorted(cum_a, u, side="right")
        ib = np.searchsorted(cum_b, u, side="right")
        yield in_a, ia, ib
        in_a = np.where(in_a, next_a_from_a[ia], next_a_from_b[ib])


def memory_mc_point(b0: complex, kern, n: int, trials: int, seed: int, threads: int):
    """(mean coherence, stderr) after n kicks of a memory kernel from class A."""
    (_, ang_a, _), (_, ang_b, _) = _chain_tables(kern)
    phasor_a, phasor_b = np.exp(-1j * ang_a), np.exp(-1j * ang_b)

    def chain_coherences(keys: np.ndarray) -> np.ndarray:
        z = np.full(len(keys), b0, dtype=np.complex128)
        for in_a, ia, ib in _chain_draws(kern, keys, n):
            z *= np.where(in_a, phasor_a[ia], phasor_b[ib])
        return z

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        return _first_value_block(chain_coherences(keys))

    return _merge_on_block_zero(rng.run_blocks(trials, worker, threads=threads))


# --- Kicked coherences as written before running phasor products ---
#
# Each trajectory's kick angles are summed, and the coherence after k kicks
# is b * e^{-i (theta_1 + ... + theta_k)}, one complex exponential per point.


def iid_phase_sums(dist, keys: np.ndarray, steps: int):
    """Cumulative kick phase per trajectory after 0, 1, ..., ``steps`` kicks."""
    total = np.zeros(len(keys), dtype=np.float64)
    yield total.copy()
    for s in range(steps):
        total += _iid_angle(dist, keys, s)
        yield total.copy()


def chain_phase_sums(kern, keys: np.ndarray, n: int):
    """Cumulative kick phase per chain (from class A) after 0, 1, ..., n kicks."""
    (_, ang_a, _), (_, ang_b, _) = _chain_tables(kern)
    total = np.zeros(len(keys), dtype=np.float64)
    yield total.copy()
    for in_a, ia, ib in _chain_draws(kern, keys, n):
        total += np.where(in_a, ang_a[ia], ang_b[ib])
        yield total.copy()


# --- The wheel games' closed-form rates ---


@dataclass(frozen=True, slots=True)
class GeneralRates:
    """Net rates of two coprime games and of their random mixture."""

    rate_m: Fraction
    rate_n: Fraction
    rate_combined: Fraction


def general_rates(m: int, n: int) -> GeneralRates:
    """Rates (-1/m, -1/n, +1/(m*n)) for coprime m = n = 3 (mod 4).

    The closed forms; :func:`exact_rate` reproduces them by counting
    residues on the cycle of each game and of their mixture.
    """
    m, n = int(m), int(n)
    for v in (m, n):
        if v < 3 or v % 4 != 3:
            raise ValueError("moduli must be >= 3 and congruent to 3 mod 4")
    if math.gcd(m, n) != 1:
        raise ValueError("moduli must be coprime")
    return GeneralRates(Fraction(-1, m), Fraction(-1, n), Fraction(1, m * n))


# --- The wheel-game simulation as written before residue histograms ---


def simulate_by_positions(combined, rounds: int, seed: int, threads: int = 1) -> int:
    """Wins of ``parrondo.simulate`` by its position-array merge.

    Round r reads slot r of the stream keyed by (seed, 0) and takes slot
    i = (top b bits * P) >> b of the P = G*L (game, rotation) slots, with
    b = 64 - bitlen(P - 1); game i // L rotates by (i mod L) // stride
    steps of stride = L / m.  Every block keeps the whole array of its
    positions relative to its start (8 bytes per round); the merge shifts
    each array by the carried position and tests every round for a win.
    """
    L = combined.modulus
    P = len(combined.games) * L
    bits = 64 - max((P - 1).bit_length(), 1)
    strides = np.array([L // g.m for g in combined.games], dtype=np.int64)
    key = rng.stream_keys(seed, 0, 1)

    def worker(start: int, count: int):
        x = rng.slot_u64(key, np.arange(start, start + count, dtype=np.uint64))[:, 0]
        i = ((x >> np.uint64(64 - bits)) * np.uint64(P) >> np.uint64(bits)).astype(np.int64)
        stride = strides[i // L]
        return np.cumsum((i % L) // stride * stride) % L

    wins = 0
    carry = 0
    for rel in rng.run_blocks(rounds, worker, threads=threads):
        pos = (rel + carry) % L
        wins += int(np.count_nonzero((4 * pos <= L) | (4 * pos >= 3 * L)))
        carry = int(pos[-1])
    return wins


# --- The wheel-game power iteration as written with one roll per offset ---


def power_iteration_residual_by_roll(combined) -> float:
    """Largest deviation from 1/L of the power-iterated law, one ``np.roll`` per offset."""
    L = combined.modulus
    weights = combined.step_weights()
    offs = sorted(weights)
    ws = [float(weights[o]) for o in offs]
    v = np.zeros(L)
    v[0] = 1.0
    for _ in range(200_000):
        nxt = np.zeros(L)
        for off, w in zip(offs, ws):
            nxt += w * np.roll(v, off)
        if np.max(np.abs(nxt - v)) < 1e-14:
            v = nxt
            break
        v = nxt
    return float(np.max(np.abs(v - 1 / L)))


# --- The memory-kernel recursion as written with class-keyed dicts ---


def _recursion_step_by_label(kern):
    weighted = {
        label: [(b.weight * cmath.exp(1j * b.angle), b.to_label) for b in kern.branches(label)]
        for label in SetLabel
    }
    return lambda f: {
        label: sum(coef * f[dest] for coef, dest in weighted[label]) for label in SetLabel
    }


def coherence_recursion_by_label(kern, n: int) -> list[tuple[complex, complex]]:
    """(f_k at class A, f_k at class B) for k = 1..n, one dict per step.

    Carried scaled by an exact power of two whenever its larger magnitude
    falls below 2**-512, each value rebuilt per component with
    ``math.ldexp``, as ``memory.coherence_recursion`` does.
    """
    step = _recursion_step_by_label(kern)
    f = {SetLabel.SET_A: 1.0 + 0.0j, SetLabel.SET_B: 1.0 + 0.0j}
    exponent = 0
    out = []
    for _ in range(n):
        f = step(f)
        out.append(tuple(
            complex(math.ldexp(f[label].real, exponent), math.ldexp(f[label].imag, exponent))
            for label in SetLabel
        ))
        top = max(abs(v) for v in f.values())
        if 0.0 < top < 2.0**-512:
            e = math.frexp(top)[1]
            f = {label: v * math.ldexp(1.0, -e) for label, v in f.items()}
            exponent += e
    return out


def coherence_recursion_from(kern, n: int, start: float) -> list[tuple[complex, complex]]:
    """The class-keyed recursion for k = 1..n from f_0 = ``start`` at both classes, unscaled."""
    step = _recursion_step_by_label(kern)
    f = {SetLabel.SET_A: complex(start), SetLabel.SET_B: complex(start)}
    out = []
    for _ in range(n):
        f = step(f)
        out.append((f[SetLabel.SET_A], f[SetLabel.SET_B]))
    return out


def effective_decay_by_label(kern, n: int) -> float:
    """The decay rate of ``memory.coherence_recursion``, in a pass of its own.

    The dict-keyed recursion and rescaling of the two-pass route the package
    first had.
    """
    step = _recursion_step_by_label(kern)
    f = step({SetLabel.SET_A: 1.0 + 0.0j, SetLabel.SET_B: 1.0 + 0.0j})
    first = abs(f[SetLabel.SET_A])
    exponent = 0
    for _ in range(n - 1):
        f = step(f)
        top = max(abs(v) for v in f.values())
        if 0.0 < top < 2.0**-512:
            e = math.frexp(top)[1]
            f = {label: v * math.ldexp(1.0, -e) for label, v in f.items()}
            exponent += e
    last = abs(f[SetLabel.SET_A])
    return (last / first) ** (1.0 / (n - 1)) * 2.0 ** (exponent / (n - 1))


# --- The CLI's writers as first written, on the stdlib encoder ---


def jsonable(value):
    """Deterministic JSON-safe rendering (fractions as 'p/q', inf as 'inf')."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def json_text(value) -> str:
    """``value`` as the CLI wrote it: ``jsonable`` then the stdlib encoder."""
    return json.dumps(jsonable(value), indent=2, sort_keys=True)


def csv_lines(header: list[str], rows) -> str:
    """A CSV as the CLI wrote it: each cell ``str`` of its ``jsonable`` form."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(jsonable(x)) for x in row))
    return "\n".join(lines)
