"""The single-qubit state carrier and its coherence.

:class:`DensityMatrix2` is the 2x2 Hermitian matrix
``((a, b), (conj(b), c))`` with unit trace; ``abs(b)`` is the coherence.
Its constructor checks that the matrix is a valid state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Tolerance of the state checks (exact inputs, a few float ops deep).
ATOL_STATE = 1e-12


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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


def coherence(rho: DensityMatrix2) -> float:
    """Magnitude of the off-diagonal element, in [0, 1/2]."""
    return abs(rho.b)
