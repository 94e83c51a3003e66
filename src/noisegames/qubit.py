"""The single-qubit state carrier and its coherence.

:class:`DensityMatrix2` is the 2x2 Hermitian matrix
``((a, b), (conj(b), c))`` with unit trace; ``abs(b)`` is the coherence.
Its constructor checks that the matrix is a valid state, where a state
enters from outside (the CLI's initial state, a library caller's).  Every
record that checks its fields builds on :func:`checked`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Tolerance of the state checks (exact inputs, a few float ops deep).
ATOL_STATE = 1e-12


def checked(typename: str, fields: list[tuple[str, type]]) -> type:
    """The named-tuple base of a record that checks its fields in ``__new__``.

    Its ``_make``, which ``_replace`` calls, builds with ``cls(*iterable)``,
    so neither gives a record that the checks would refuse.
    """
    base = NamedTuple(typename, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


class DensityMatrix2(checked("DensityMatrix2", [("a", float), ("b", complex), ("c", float)])):
    """Qubit state ``((a, b), (conj(b), c))``: populations a, c; coherence b."""

    __slots__ = ()

    def __new__(cls, a: float, b: complex, c: float):
        a, b, c = float(a), complex(b), float(c)
        if not (math.isfinite(a) and math.isfinite(c) and _finite(b)):
            raise ValueError("density matrix entries must be finite")
        if abs(a + c - 1.0) > ATOL_STATE:
            raise ValueError(f"trace must be 1 (got {a + c!r})")
        if a < -ATOL_STATE or c < -ATOL_STATE:
            raise ValueError("populations must be nonnegative")
        if abs(b) ** 2 > a * c + ATOL_STATE:
            raise ValueError("positivity violated: |b|^2 > a*c")
        return super().__new__(cls, a, b, c)

def plus_state() -> DensityMatrix2:
    """The pure state with maximal coherence, a = c = 1/2, b = 1/2."""
    return DensityMatrix2(0.5, 0.5 + 0.0j, 0.5)


def coherence(rho: DensityMatrix2) -> float:
    """Magnitude of the off-diagonal element, in [0, 1/2]."""
    return abs(rho.b)
