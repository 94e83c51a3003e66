"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately written from first principles (dense
matrices, exact rational dynamic programming, float trigonometry,
adaptive quadrature) so that it shares no arithmetic with the
implementations it checks.  These parts take something from the package:

* ``Stream`` is a sequential cursor over the package's slot-addressed
  draws (``rng.stream_keys`` and ``rng.slot_u64``), and ``stream_key``
  derives one stream's key in Python integers from the package's seed
  words and finalizer;
* ``kick_half``, ``kick_uniform`` and ``box_muller_pair`` read stream
  layout 6 (two 32-bit halves a raw draw) from ``rng.slot_u64``;
* ``random_state`` returns the package's ``DensityMatrix2``, whose
  constructor validates it, and ``random_diagonal_channel`` a
  ``KrausChannel`` of the qubit-channel algebra below;
* the state simulators of the search game take its ``GameConfig``,
  ``char_function_quadrature`` takes the package's kick laws and
  ``averaged_channel_exact`` its dissipative noise scales;
* the search-game letter walks, the per-point Monte Carlo estimators, the
  exp-of-sum kicked coherences and the wheel-game position merge keep the
  package's random streams (and kick laws) and fix the results the faster
  routes must match; the per-point estimators also take the package's
  ``montecarlo.phasors`` for the continuous kick laws, and
  ``phasors_strided`` is that kernel as first written, on the strided
  real and imaginary views of its result;
* the memory-kernel recursion keyed by ``SetLabel`` takes the package's
  kernels, the roll-per-offset power iteration, the exact step law
  ``step_weights`` and the eigenvalue sieve ``eigenvalue_counts_by_sieve``
  take its wheel games (``GAME_A`` and ``GAME_B`` are the 3- and 7-games),
  and the JSON/CSV writers take the values the CLI prints.

Two sections are reference implementations the package used to carry
although no CLI run reaches them: the qubit-channel algebra (unitaries,
Kraus channels, Choi matrices and the coherence-gain witness, which act on
the package's ``DensityMatrix2``) and the kick-law helpers (the Gaussian
law of a finite clock or of a target decay factor, the decoherence-free
test, and the point-mass, complex-factor and kernel-mixture views of the
package's kick laws).
"""

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from noisegames import montecarlo, rng
from noisegames.grover import GameConfig
from noisegames.kicks import (
    TWO_PI,
    DecayFactor,
    DeltaMixture,
    ExponentialKicks,
    GaussianKicks,
    char_function,
)
from noisegames.memory import MemoryKernel, SetLabel
from noisegames.parrondo import RotationGame
from noisegames.qubit import ATOL_STATE, DensityMatrix2, _finite


def textbook_grover_matrix(n_qubits: int, target: int) -> np.ndarray:
    """One Grover step as an explicit matrix: oracle then diffusion."""
    n = 2**n_qubits
    oracle = np.eye(n, dtype=complex)
    oracle[target, target] = -1.0
    psi = np.full((n, 1), 1.0 / math.sqrt(n), dtype=complex)
    diffusion = 2.0 * (psi @ psi.conj().T) - np.eye(n, dtype=complex)
    return diffusion @ oracle


def reduced_length_distributions() -> Iterator[dict[int, Fraction]]:
    """Exact laws of the reduced-word length after 0, 1, 2, ... fair letters.

    The length does a random walk: up or down with probability 1/2 from
    positive lengths, up (letter A) or stay (letter B, absorbed by the
    start state) from zero.  Each law is one step of the walk from the last.
    """
    half = Fraction(1, 2)
    probs = {0: Fraction(1)}
    while True:
        yield probs
        nxt: dict[int, Fraction] = {}
        for s, p in probs.items():
            down = s - 1 if s > 0 else 0
            nxt[down] = nxt.get(down, Fraction(0)) + p * half
            nxt[s + 1] = nxt.get(s + 1, Fraction(0)) + p * half
        probs = nxt


def reduced_length_distribution(m: int) -> dict[int, Fraction]:
    """Exact law of the reduced-word length after m fair letters."""
    return next(itertools.islice(reduced_length_distributions(), m, None))


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


def stream_key(seed: int, index: int) -> int:
    """Key of stream ``index`` under ``seed`` (pure, injective in index)."""
    s0, s1 = rng._seed_words(seed)
    k = rng._mix_int(((index & rng._MASK64) * rng._KEY_MULT + s0) & rng._MASK64)
    return rng._mix_int(k ^ s1)


class Stream:
    """Sequential view of one derived stream (draws advance a slot cursor).

    Slots are drawn ahead, 65,536 at a time, by one run of
    ``rng.slot_u64`` and served from that buffer; each value is the draw
    at its slot, as if it were drawn alone.
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
            count = max(n, _STREAM_BUFFER_SLOTS)
            self._buffer = rng.slot_u64(self.keys, self._slot, count)[:, 0].copy()
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


# --- The qubit-channel algebra ---
#
# Weighted Kraus channels, maps fixed by their images of the four matrix
# units, the Choi-matrix test of complete positivity and the coherence-gain
# witness.  No CLI run computes a channel: these check the claim that no
# non-dissipative map can increase coherence, and they build the
# damping/rotation channel whose noise average the package computes in
# closed form.  ``coherence_gain_witness`` shows why: any diagonal-fixing map
# whose off-diagonal images have combined gain above one sends some pure
# state to a matrix with a negative eigenvalue.

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

# Channel-level tolerance (outputs of long weighted products), against the
# package's constructor-level ATOL_STATE.
ATOL_CHANNEL = 1e-10

_I2: Matrix2 = ((1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j))


def _as_matrix2(m) -> Matrix2:
    """Coerce a 2x2 array-like of numbers into a validated Matrix2."""
    rows = tuple(tuple(complex(x) for x in row) for row in m)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected a 2x2 matrix")
    for row in rows:
        for z in row:
            if not _finite(z):
                raise ValueError("matrix entries must be finite")
    return rows  # type: ignore[return-value]


def maximally_mixed() -> DensityMatrix2:
    return DensityMatrix2(0.5, 0.0j, 0.5)


@dataclass(frozen=True, slots=True)
class Unitary2:
    """2x2 unitary, validated to satisfy U+U = I within 1e-12 elementwise."""

    u00: complex
    u01: complex
    u10: complex
    u11: complex

    def __post_init__(self):
        for name in ("u00", "u01", "u10", "u11"):
            z = complex(getattr(self, name))
            object.__setattr__(self, name, z)
            if not _finite(z):
                raise ValueError("unitary entries must be finite")
        g00 = abs(self.u00) ** 2 + abs(self.u10) ** 2
        g11 = abs(self.u01) ** 2 + abs(self.u11) ** 2
        g01 = self.u00.conjugate() * self.u01 + self.u10.conjugate() * self.u11
        if abs(g00 - 1.0) > ATOL_STATE or abs(g11 - 1.0) > ATOL_STATE or abs(g01) > ATOL_STATE:
            raise ValueError("matrix is not unitary within 1e-12")


def rz(theta: float) -> Unitary2:
    """Phase rotation diag(e^{-i theta/2}, e^{+i theta/2})."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    return Unitary2(cmath.exp(-0.5j * theta), 0.0j, 0.0j, cmath.exp(0.5j * theta))


def _sandwich(k: Matrix2, rho: DensityMatrix2) -> tuple[float, complex, float]:
    """Entries (00, 01, 11) of K rho K+ for a 2x2 operator K."""
    a, b, c = rho.a, rho.b, rho.c
    bc = b.conjugate()
    (k00, k01), (k10, k11) = k
    t00 = k00 * a + k01 * bc
    t01 = k00 * b + k01 * c
    t10 = k10 * a + k11 * bc
    t11 = k10 * b + k11 * c
    s00 = t00 * k00.conjugate() + t01 * k01.conjugate()
    s01 = t00 * k10.conjugate() + t01 * k11.conjugate()
    s11 = t10 * k10.conjugate() + t11 * k11.conjugate()
    return s00.real, s01, s11.real


def apply_unitary(u: Unitary2, rho: DensityMatrix2) -> DensityMatrix2:
    """Conjugation U rho U+; preserves trace and both eigenvalues."""
    return DensityMatrix2(*_sandwich(((u.u00, u.u01), (u.u10, u.u11)), rho))


@dataclass(frozen=True, slots=True)
class KrausChannel:
    """Weighted Kraus decomposition rho -> sum_i w_i K_i rho K_i+.

    Trace preservation (sum_i w_i K_i+ K_i = I within 1e-10) is enforced at
    construction, so channel application cannot silently leak probability.
    """

    terms: tuple[tuple[float, Matrix2], ...]

    def __post_init__(self):
        cleaned = []
        for w, op in self.terms:
            w = float(w)
            if not math.isfinite(w) or w < -ATOL_STATE or w > 1.0 + ATOL_STATE:
                raise ValueError("Kraus weights must lie in [0, 1]")
            cleaned.append((w, _as_matrix2(op)))
        object.__setattr__(self, "terms", tuple(cleaned))
        # completeness: sum w K+K = I
        g00 = g01 = g11 = 0.0 + 0.0j
        for w, ((k00, k01), (k10, k11)) in self.terms:
            g00 += w * (abs(k00) ** 2 + abs(k10) ** 2)
            g01 += w * (k00.conjugate() * k01 + k10.conjugate() * k11)
            g11 += w * (abs(k01) ** 2 + abs(k11) ** 2)
        if (
            abs(g00 - 1.0) > ATOL_CHANNEL
            or abs(g11 - 1.0) > ATOL_CHANNEL
            or abs(g01) > ATOL_CHANNEL
        ):
            raise ValueError("Kraus terms do not preserve trace within 1e-10")

    @classmethod
    def identity(cls) -> "KrausChannel":
        return cls(((1.0, _I2),))


def apply_channel(ch: KrausChannel, rho: DensityMatrix2) -> DensityMatrix2:
    """Apply a trace-preserving Kraus channel; output is a valid state."""
    a = c = 0.0
    b = 0.0 + 0.0j
    for w, op in ch.terms:
        if w == 0.0:
            continue
        s00, s01, s11 = _sandwich(op, rho)
        a += w * s00
        b += w * s01
        c += w * s11
    return DensityMatrix2(a, b, c)


def min_eigenvalue(h) -> float:
    """Smaller eigenvalue of a Hermitian 2x2 matrix, in closed form.

    Accepts a DensityMatrix2 or any 2x2 array-like; rejects inputs that are
    not Hermitian within 1e-12.
    """
    if isinstance(h, DensityMatrix2):
        p, q, r = h.a, h.b, h.c
    else:
        m = _as_matrix2(h)
        if (
            abs(m[0][0].imag) > ATOL_STATE
            or abs(m[1][1].imag) > ATOL_STATE
            or abs(m[0][1] - m[1][0].conjugate()) > ATOL_STATE
        ):
            raise ValueError("matrix is not Hermitian within 1e-12")
        p, q, r = m[0][0].real, m[0][1], m[1][1].real
    half_gap = math.hypot((p - r) / 2.0, abs(q))
    return (p + r) / 2.0 - half_gap


@dataclass(frozen=True, slots=True)
class QubitMapSpec:
    """Linear qubit map fixed by its images of the four matrix units.

    ``img_ij`` is the image of the matrix unit |i><j|.  No physicality is
    assumed; use :func:`is_cptp` to test it.  A map preserves Hermiticity
    iff ``img10 == img01+`` and the diagonal images are Hermitian.
    """

    img00: Matrix2
    img01: Matrix2
    img10: Matrix2
    img11: Matrix2

    def __post_init__(self):
        for name in ("img00", "img01", "img10", "img11"):
            object.__setattr__(self, name, _as_matrix2(getattr(self, name)))

    @classmethod
    def from_kraus(cls, ch: KrausChannel) -> "QubitMapSpec":
        """Image-of-matrix-units description of a Kraus channel (one-way)."""
        units = (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1)))
        images = []
        for unit in units:
            (e00, e01), (e10, e11) = _as_matrix2(unit)
            out = [[0.0j, 0.0j], [0.0j, 0.0j]]
            for w, ((k00, k01), (k10, k11)) in ch.terms:
                # K E K+ written out for the 2x2 case
                t00 = k00 * e00 + k01 * e10
                t01 = k00 * e01 + k01 * e11
                t10 = k10 * e00 + k11 * e10
                t11 = k10 * e01 + k11 * e11
                out[0][0] += w * (t00 * k00.conjugate() + t01 * k01.conjugate())
                out[0][1] += w * (t00 * k10.conjugate() + t01 * k11.conjugate())
                out[1][0] += w * (t10 * k00.conjugate() + t11 * k01.conjugate())
                out[1][1] += w * (t10 * k10.conjugate() + t11 * k11.conjugate())
            images.append((tuple(out[0]), tuple(out[1])))
        return cls(*images)

    @classmethod
    def identity(cls) -> "QubitMapSpec":
        return cls(
            ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))
        )


def unit_images(channels: list[KrausChannel]) -> np.ndarray:
    """Images of |0><0|, |0><1|, |1><0|, |1><1| under each channel, from arrays.

    Shape (channel, unit, row, column).  The image of |i><j| is
    sum_t w_t K_t[:, i] K_t[:, j]+, the sum :meth:`QubitMapSpec.from_kraus`
    writes out; channels with fewer terms are padded with zero weights.
    """
    n_terms = max(len(ch.terms) for ch in channels)
    w = np.zeros((len(channels), n_terms))
    k = np.zeros((len(channels), n_terms, 2, 2), dtype=complex)
    for c, ch in enumerate(channels):
        for t, (weight, op) in enumerate(ch.terms):
            w[c, t] = weight
            k[c, t] = op
    images = np.einsum("ct,ctri,ctkj->cijrk", w, k, k.conj())
    return images.reshape(len(channels), 4, 2, 2)


def _unit_images(spec: QubitMapSpec) -> dict[tuple[int, int], Matrix2]:
    """Image of each matrix unit |i><j|, keyed by (i, j)."""
    return {(0, 0): spec.img00, (0, 1): spec.img01, (1, 0): spec.img10, (1, 1): spec.img11}


def choi_matrix(spec: QubitMapSpec) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) F(|i><j|), a 4x4 complex array.

    Hermitian iff the map preserves Hermiticity; positive semidefinite iff
    the map is completely positive.
    """
    c = np.zeros((4, 4), dtype=complex)
    for (i, j), img in _unit_images(spec).items():
        for k in range(2):
            for l in range(2):
                c[2 * i + k, 2 * j + l] = img[k][l]
    return c


def is_cptp(spec: QubitMapSpec, tol: float = ATOL_CHANNEL) -> bool:
    """True iff the map is completely positive and trace-preserving.

    Checks that the Choi matrix is Hermitian and has eigenvalues >= -tol
    (standard Hermitian eigensolver, ascending), and that the trace of each
    matrix-unit image equals delta_ij within tol.
    """
    c = choi_matrix(spec)
    if np.max(np.abs(c - c.conj().T)) > tol:
        return False
    eigs = np.linalg.eigvalsh((c + c.conj().T) / 2.0)
    if eigs[0] < -tol:
        return False
    for (i, j), img in _unit_images(spec).items():
        want = 1.0 if i == j else 0.0
        if abs(img[0][0] + img[1][1] - want) > tol:
            return False
    return True


def off_diagonal_gain_spec(beta: complex, beta_prime: complex) -> QubitMapSpec:
    """Diagonal-fixing, Hermiticity-preserving map with prescribed gains.

    Fixes both diagonal matrix units and sends the off-diagonal units to
    matrices whose (0,1) entries are ``beta`` and ``beta_prime``.  For
    ``abs(beta) + abs(beta_prime) > 1`` the map cannot be a channel.
    """
    beta = complex(beta)
    beta_prime = complex(beta_prime)
    return QubitMapSpec(
        ((1, 0), (0, 0)),
        ((0, beta), (beta_prime.conjugate(), 0)),
        ((0, beta_prime), (beta.conjugate(), 0)),
        ((0, 0), (0, 1)),
    )


@dataclass(frozen=True, slots=True)
class GainWitness:
    """Outcome of the coherence-gain positivity test.

    When ``violated`` is true, ``output`` is the image of ``input_state``
    and has the reported negative minimum eigenvalue, certifying that the
    map is not positive (hence not a channel).
    """

    violated: bool
    theta: float
    input_state: DensityMatrix2
    output: Matrix2
    min_eig: float


def coherence_gain_witness(spec: QubitMapSpec, tol: float = ATOL_STATE) -> GainWitness:
    """Find a pure state whose image under a diagonal-fixing map is not positive.

    Requires ``spec`` to fix both diagonal matrix units.  With
    ``beta = img01[0][1]`` and ``beta_prime = img10[0][1]``, the maximum of
    ``abs(beta + e^{i theta} beta_prime)`` over theta is
    ``abs(beta) + abs(beta_prime)``; if that exceeds 1 the returned state
    ``0.5 * ((1, e^{i theta/2}), (e^{-i theta/2}, 1))`` is mapped to a
    matrix with off-diagonal magnitude above 1/2 and hence a negative
    eigenvalue.  The returned ``theta`` is the phase at which the state's
    image attains that maximal magnitude.
    """
    identity_imgs = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    for img, want in zip((spec.img00, spec.img11), identity_imgs):
        ref = _as_matrix2(want)
        for i in range(2):
            for j in range(2):
                if abs(img[i][j] - ref[i][j]) > tol:
                    raise ValueError("map must fix both diagonal matrix units")

    beta = spec.img01[0][1]
    beta_prime = spec.img10[0][1]
    gain = abs(beta) + abs(beta_prime)
    arg_b = cmath.phase(beta) if beta != 0 else 0.0
    arg_bp = cmath.phase(beta_prime) if beta_prime != 0 else 0.0
    theta = math.remainder(arg_bp - arg_b, 2.0 * math.pi)

    half = cmath.exp(0.5j * theta)
    rho0 = DensityMatrix2(0.5, 0.5 * half, 0.5)
    out = [[0.0j, 0.0j], [0.0j, 0.0j]]
    for coeff, img in (
        (0.5, spec.img00),
        (0.5, spec.img11),
        (0.5 * half, spec.img01),
        (0.5 * half.conjugate(), spec.img10),
    ):
        for i in range(2):
            for j in range(2):
                out[i][j] += coeff * img[i][j]
    # Hermitian part; identical to out for Hermiticity-preserving maps.
    herm = (
        (out[0][0].real + 0.0j, (out[0][1] + out[1][0].conjugate()) / 2.0),
        ((out[1][0] + out[0][1].conjugate()) / 2.0, out[1][1].real + 0.0j),
    )
    low = min_eigenvalue(herm)
    output: Matrix2 = (tuple(out[0]), tuple(out[1]))  # type: ignore[assignment]
    return GainWitness(gain > 1.0 + tol, theta, rho0, output, low)


@dataclass(frozen=True, slots=True)
class DampingPhaseParams:
    """Mixing probability p, damping strength alpha, rotation angle theta."""

    p: float
    alpha: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


def build_damping_phase_channel(params: DampingPhaseParams) -> KrausChannel:
    """Three-term Kraus channel (p, E0), (p, E1), (1-p, R_z(theta))."""
    root = math.sqrt(1.0 - params.alpha)
    e0 = ((1.0 + 0.0j, 0.0j), (0.0j, root + 0.0j))
    e1 = ((0.0j, math.sqrt(params.alpha) + 0.0j), (0.0j, 0.0j))
    rot = (
        (cmath.exp(-0.5j * params.theta), 0.0j),
        (0.0j, cmath.exp(0.5j * params.theta)),
    )
    return KrausChannel(((params.p, e0), (params.p, e1), (1.0 - params.p, rot)))


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


# --- Kick-law helpers ---
#
# Constructors and predicates over the package's kick laws that only the
# tests use.


def delta_point(angle: float) -> DeltaMixture:
    """The point mass at ``angle`` as a one-angle delta mixture."""
    return DeltaMixture(((1.0, float(angle)),))


def as_complex(df: DecayFactor) -> complex:
    """A decay factor as the complex number gamma * e^{i phi}."""
    return df.gamma * cmath.exp(1j * df.phi)


def as_mixture(kern: MemoryKernel, label: SetLabel) -> DeltaMixture:
    """The conditional kick law from ``label`` as a plain delta mixture."""
    return DeltaMixture(
        tuple((br.weight, br.angle) for br in kern.branches(label))
    )


def gaussian_from_clock(omega: float, clock_rate: float) -> GaussianKicks:
    """Gaussian kick law of precession at ``omega`` sampled by a finite clock.

    A coherent rotation advanced in ticks of a clock running at
    ``clock_rate`` dephases like a Gaussian law with
    ``mu = sin(omega/clock_rate)`` and
    ``sigma2 = 2 * (1 - cos(omega/clock_rate))``.
    """
    clock_rate = float(clock_rate)
    if not math.isfinite(clock_rate) or clock_rate <= 0.0:
        raise ValueError("clock_rate must be positive")
    x = float(omega) / clock_rate
    return GaussianKicks(math.sin(x), 2.0 * (1.0 - math.cos(x)))


def gaussian_for_target(gamma: float, phi: float) -> GaussianKicks:
    """Gaussian kick law realizing a prescribed per-step decay factor.

    ``mu = phi`` and ``sigma2 = -2 ln gamma``; round-trips through
    :func:`char_function` to (gamma, phi mod 2 pi) within 1e-9.
    """
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    return GaussianKicks(float(phi), -2.0 * math.log(gamma))


def is_decoherence_free(dist: DeltaMixture, tol: float = 1e-9) -> bool:
    """True iff the mixture causes no decay (gamma = 1 within tol).

    Equivalently: all angles carrying weight are congruent modulo 2 pi
    within tolerance, the only escape from strict decay.
    """
    if not isinstance(dist, DeltaMixture):
        raise TypeError("decoherence-free criterion applies to delta mixtures only")
    return char_function(dist).gamma >= 1.0 - tol


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


# --- The noise-averaged dissipative channel, exactly ---


def damping_moments(lambda_ad: float) -> tuple[float, float, float]:
    """E[alpha], E[sqrt(1 - alpha)] and P(alpha = 1) for alpha = min(|X|, 1).

    X ~ Normal(0, s^2) with s^2 = 2 * lambda_ad.  E[alpha] is
    ``s*sqrt(2/pi)*(1 - e^{-1/(2 s^2)}) + erfc(1/(s*sqrt(2)))``, the clamp
    probability ``erfc(1/(s*sqrt(2)))``, and E[sqrt(1 - alpha)] the
    integral of sqrt(1 - x) against the half-normal density over [0, 1]
    (the clamped mass contributes 0), by adaptive quadrature over
    [0, min(1, 12 s)] (the density beyond 12 s is below e^{-72}).
    """
    if lambda_ad == 0.0:
        return 0.0, 1.0, 0.0
    s = math.sqrt(2.0 * lambda_ad)
    clamp = math.erfc(1.0 / (s * math.sqrt(2.0)))
    mean = s * math.sqrt(2.0 / math.pi) * -math.expm1(-1.0 / (2.0 * s * s)) + clamp
    norm = math.sqrt(2.0 / math.pi) / s
    from scipy.integrate import quad

    root, _ = quad(
        lambda x: math.sqrt(1.0 - x) * norm * math.exp(-0.5 * (x / s) ** 2),
        0.0, min(1.0, 12.0 * s), epsabs=1e-13, epsrel=1e-12, limit=400,
    )
    return mean, root, clamp


def averaged_channel_exact(rho0: DensityMatrix2, p: float, scales) -> DensityMatrix2:
    """The noise-averaged output of ``dissipative.averaged_channel_mc``, exactly.

    With alpha = min(|X|, 1) as in :func:`damping_moments` and theta ~
    Normal(0, 2*lambda_pd), so that E[e^{-i theta}] = e^{-lambda_pd}:
    ``a = a0 + p*E[alpha]*(1 - a0)`` and
    ``b = b0*(p*E[sqrt(1 - alpha)] + (1 - p)*e^{-lambda_pd})``.
    """
    mean, root, _ = damping_moments(scales.lambda_ad)
    a = rho0.a + p * mean * (1.0 - rho0.a)
    b = rho0.b * (p * root + (1.0 - p) * math.exp(-scales.lambda_pd))
    return DensityMatrix2(a, b, 1.0 - a)


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
    return ((rng.slot_u64(keys, t // 64, 1)[0] >> np.uint64(t % 64)) & np.uint64(1)).astype(bool)


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


def _listed(blocks: list, block) -> list:
    """A ``rng.run_blocks`` fold that keeps every block's result, in block order."""
    blocks.append(block)
    return blocks


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


def kick_half(keys: np.ndarray, s: int) -> np.ndarray:
    """The 32-bit half of a raw draw that kick s + 1 reads (stream layout 6), as uint64.

    Kicks 2j and 2j + 1 (s = 2j and 2j + 1) read the high and the low 32
    bits of the trajectory's raw draw at slot j.
    """
    x = rng.slot_u64(keys, s // 2, 1)[0]
    return x & np.uint64(0xFFFFFFFF) if s % 2 else x >> np.uint64(32)


def kick_uniform(keys: np.ndarray, s: int) -> np.ndarray:
    """The uniform ``kick_half * 2^-32`` in [0, 1) of kick s + 1."""
    return kick_half(keys, s).astype(np.float64) * 2.0**-32


def box_muller_pair(keys: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(cosine, sine) normals of the Box-Muller pair of raw slot j, from its halves.

    u1 = (h + 1) * 2^-32 and u2 = l * 2^-32; R = sqrt(-2 ln u1) times
    (1 - t^2) / (1 + t^2) and 2t / (1 + t^2), t = tan(pi * u2), in the
    package's operation order, so the values match ``rng.slot_normal`` bit
    for bit.
    """
    high = kick_half(keys, 2 * j).astype(np.float64)
    low = kick_half(keys, 2 * j + 1).astype(np.float64)
    r = np.sqrt(-2.0 * np.log((high + 1.0) * 2.0**-32))
    t = np.tan(np.pi * (low * 2.0**-32))
    denominator = t * t + 1.0
    return r * ((1.0 - t * t) / denominator), r * ((t * 2.0) / denominator)


def _delta_branch(dist, keys: np.ndarray, s: int) -> np.ndarray:
    cum = np.cumsum(np.asarray(dist.weights, dtype=np.float64))
    cum[-1] = 1.0
    return np.searchsorted(cum, kick_uniform(keys, s), side="right")


def _iid_angle(dist, keys: np.ndarray, s: int) -> np.ndarray:
    """theta of kick s + 1 of every trajectory."""
    if isinstance(dist, DeltaMixture):
        return np.asarray(dist.angles, dtype=np.float64)[_delta_branch(dist, keys, s)]
    if isinstance(dist, GaussianKicks):
        # stream layouts 4 and 6: kick s takes the cosine (even s) or the sine
        # (odd s) of Box-Muller pair s // 2
        cosine, sine = box_muller_pair(keys, s // 2)
        return dist.mu + math.sqrt(dist.sigma2) * (sine if s % 2 else cosine)
    if isinstance(dist, ExponentialKicks):
        return -dist.scale * np.log(kick_uniform(keys, s) + 2.0**-32)
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

    return _merge_on_block_zero(rng.run_blocks(trials, worker, threads, fold=_listed, initial=[]))


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
        u = kick_uniform(keys, s)
        ia = np.searchsorted(cum_a, u, side="right")
        ib = np.searchsorted(cum_b, u, side="right")
        yield in_a, ia, ib
        in_a = np.where(in_a, next_a_from_a[ia], next_a_from_b[ib])


def chain_phasors(kern, keys: np.ndarray, n: int):
    """Phasor e^{-i theta} of kicks 1, ..., n of each chain (from class A), in turn."""
    (_, ang_a, _), (_, ang_b, _) = _chain_tables(kern)
    phasor_a, phasor_b = np.exp(-1j * ang_a), np.exp(-1j * ang_b)
    for in_a, ia, ib in _chain_draws(kern, keys, n):
        yield np.where(in_a, phasor_a[ia], phasor_b[ib])


def memory_mc_point(b0: complex, kern, n: int, trials: int, seed: int, threads: int):
    """(mean coherence, stderr) after n kicks of a memory kernel from class A."""

    def chain_coherences(keys: np.ndarray) -> np.ndarray:
        z = np.full(len(keys), b0, dtype=np.complex128)
        for phasor in chain_phasors(kern, keys, n):
            z *= phasor
        return z

    def worker(start: int, count: int):
        keys = rng.stream_keys(seed, start, count)
        return _first_value_block(chain_coherences(keys))

    return _merge_on_block_zero(rng.run_blocks(trials, worker, threads, fold=_listed, initial=[]))


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


# --- The wheel games' closed-form rates and exact step law ---


GAME_A = RotationGame(3)
GAME_B = RotationGame(7)


def step_weights(combined) -> dict[int, Fraction]:
    """Exact one-round transition law of a ``CombinedGame`` as offset -> probability."""
    L = combined.modulus
    out: dict[int, Fraction] = {}
    share = Fraction(1, len(combined.games))
    for g in combined.games:
        stride = L // g.m
        w = share / g.m
        for j in range(g.m):
            off = (j * stride) % L
            out[off] = out.get(off, Fraction(0)) + w
    return out


def eigenvalue_counts_by_sieve(combined) -> np.ndarray:
    """c_j = #{g : m_g | j} at every frequency j of Z_L, one strided add per game.

    The step law's eigenvalue at frequency j is c_j / G, so the histogram
    of this array is ``parrondo.spectrum``'s multiplicities.
    """
    counts = np.zeros(combined.modulus, np.int64)
    for m in combined.moduli:
        counts[::m] += 1
    return counts


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
    positions relative to its start (8 bytes per round); the fold shifts
    each array by the carried position and tests every round for a win.
    """
    L = combined.modulus
    P = len(combined.games) * L
    bits = 64 - max((P - 1).bit_length(), 1)
    strides = np.array([L // g.m for g in combined.games], dtype=np.int64)
    key = rng.stream_keys(seed, 0, 1)

    def worker(start: int, count: int):
        x = rng.slot_u64(key, start, count)[:, 0]
        i = ((x >> np.uint64(64 - bits)) * np.uint64(P) >> np.uint64(bits)).astype(np.int64)
        stride = strides[i // L]
        return np.cumsum((i % L) // stride * stride) % L

    def fold(acc, rel):
        wins, carry = acc
        pos = (rel + carry) % L
        return wins + int(np.count_nonzero((4 * pos <= L) | (4 * pos >= 3 * L))), int(pos[-1])

    return rng.run_blocks(rounds, worker, threads, fold=fold, initial=(0, 0))[0]


# --- The phasor kernel as written on strided views of its result ---


def phasors_strided(theta: np.ndarray) -> np.ndarray:
    """e^{-i theta} per entry, from t = tan(theta/2); overwrites ``theta``.

    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2t / (1 + t^2).  One
    Newton step, (c, s) *= 1.5 - 0.5 * (c^2 + s^2), brings the modulus back
    to 1 within 2 eps.  numpy 2.4 has an AVX-512 kernel for float64 ``tan``
    but none for ``cos``, ``sin`` or complex ``exp`` (README).
    """
    out = rng._empty(len(theta), np.complex128)
    c, s = out.real, out.imag
    t = theta
    t *= 0.5
    np.tan(t, out=t)
    np.multiply(t, t, out=c)
    np.multiply(t, -2.0, out=s)
    np.subtract(1.0, c, out=t)
    c += 1.0
    s /= c
    np.divide(t, c, out=c)
    np.multiply(c, c, out=t)
    t += np.multiply(s, s, out=rng._empty(len(s)))
    t *= -0.5
    t += 1.5
    c *= t
    s *= t
    return out


# --- The wheel-game power iteration as written with one roll per offset ---


def power_iteration_residual_by_roll(combined) -> float:
    """Largest deviation from 1/L of the power-iterated law, one ``np.roll`` per offset."""
    L = combined.modulus
    weights = step_weights(combined)
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
