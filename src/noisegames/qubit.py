"""Single-qubit density matrices, unitaries, Kraus channels and map checks.

The state carrier is :class:`DensityMatrix2`, the 2x2 Hermitian matrix
``((a, b), (conj(b), c))`` with unit trace; ``abs(b)`` is the coherence.
Physical channels are :class:`KrausChannel`; arbitrary (possibly
unphysical) linear maps are described by :class:`QubitMapSpec`, which
fixes the images of the four matrix units and supports a Choi-matrix
positivity test.  Everything here is deterministic; the module draws no
random numbers.

:func:`coherence_gain_witness` demonstrates why no non-dissipative map can
increase coherence: any diagonal-fixing map whose off-diagonal images have
combined gain above one sends some pure state to a matrix with a negative
eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

# Constructor-level tolerance (exact inputs, a few float ops deep) versus
# channel-level tolerance (outputs of long weighted products).
ATOL_STATE = 1e-12
ATOL_CHANNEL = 1e-10

_I2: Matrix2 = ((1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j))


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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


@dataclass(frozen=True, slots=True)
class DensityMatrix2:
    """Qubit state ``((a, b), (conj(b), c))``: populations a, c; coherence b."""

    a: float
    b: complex
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not (math.isfinite(self.a) and math.isfinite(self.c) and _finite(self.b)):
            raise ValueError("density matrix entries must be finite")
        if abs(self.a + self.c - 1.0) > ATOL_STATE:
            raise ValueError(f"trace must be 1 (got {self.a + self.c!r})")
        if self.a < -ATOL_STATE or self.c < -ATOL_STATE:
            raise ValueError("populations must be nonnegative")
        if abs(self.b) ** 2 > self.a * self.c + ATOL_STATE:
            raise ValueError("positivity violated: |b|^2 > a*c")


def plus_state() -> DensityMatrix2:
    """The pure state with maximal coherence, a = c = 1/2, b = 1/2."""
    return DensityMatrix2(0.5, 0.5 + 0.0j, 0.5)


def maximally_mixed() -> DensityMatrix2:
    return DensityMatrix2(0.5, 0.0j, 0.5)


def coherence(rho: DensityMatrix2) -> float:
    """Magnitude of the off-diagonal element, in [0, 1/2]."""
    return abs(rho.b)


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
