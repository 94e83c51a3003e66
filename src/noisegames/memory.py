"""Correlated phase kicks over two angle classes and their exact recursion.

Each kick depends on the class of the previous one.  Class A is the angle
set {-pi/2, 0, pi/2}; class B is {-3pi/4, eps, pi/4}.  Three kernels are
built: one that stays uniform inside A, one that stays uniform inside B,
and their random half/half combination.  Both pure kernels decay coherence
by 1/3 per step; the combination decays by 2/3 + O(eps) -- random switching
between two equally harmful noise sources retains more coherence than
either source alone.

Every kernel branch lands back inside the two classes (closure), so the
infinite-dimensional kick recursion collapses exactly to two complex
numbers per step, tracked by :func:`coherence_recursion` in one pass that
also yields the sustained decay rate.  Sampled chains go through the same
Monte Carlo engine as IID kicks: :func:`evolve_memory_mc` returns the
whole curve in one pass, and carries each chain's coherence as the same
running product of kick phasors, looked up in a per-branch table.
"""

from __future__ import annotations

import bisect
import cmath
import enum
import math
from typing import Callable, Iterator, NamedTuple

from .qubit import DensityMatrix2

class SetLabel(enum.Enum):
    SET_A = "A"
    SET_B = "B"


class KernelVariant(enum.Enum):
    PURE_A = "pure-a"
    PURE_B = "pure-b"
    COMBINED = "combined"


def set_a_support() -> tuple[float, float, float]:
    return (-math.pi / 2.0, 0.0, math.pi / 2.0)


def set_b_support(epsilon: float) -> tuple[float, float, float]:
    return (-3.0 * math.pi / 4.0, float(epsilon), math.pi / 4.0)


class KernelBranch(NamedTuple):
    """One conditional outcome: weight, kicked angle, destination class."""

    weight: float
    angle: float
    to_label: SetLabel


class MemoryKernel(NamedTuple):
    """Conditional kick law P(theta2 | class of theta1) over the two classes.

    Destination classes are part of each branch, so membership is resolved
    by kernel construction rather than set lookup; the recursion therefore
    stays well defined at eps = 0 where the two supports share the angle 0.
    """

    variant: KernelVariant
    epsilon: float
    from_a: tuple[KernelBranch, ...]
    from_b: tuple[KernelBranch, ...]

    def branches(self, label: SetLabel) -> tuple[KernelBranch, ...]:
        return self.from_a if label is SetLabel.SET_A else self.from_b


def kernel(variant: KernelVariant, epsilon: float) -> MemoryKernel:
    """Build one of the three kick kernels.

    ``abs(epsilon) < pi/8`` keeps the class-B support distinct.  The
    combined kernel is the half/half mixture of the two pure ones, which
    from class A puts weight 1/2 on the deterministic kick to eps and 1/6
    on each class-A angle (and symmetrically from class B).
    """
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or abs(epsilon) >= math.pi / 8.0:
        raise ValueError("epsilon must satisfy |epsilon| < pi/8")
    a_angles = set_a_support()
    b_angles = set_b_support(epsilon)
    A, B = SetLabel.SET_A, SetLabel.SET_B
    third = 1.0 / 3.0
    sixth = 1.0 / 6.0
    if variant is KernelVariant.PURE_A:
        from_a = tuple(KernelBranch(third, ang, A) for ang in a_angles)
        from_b = (KernelBranch(1.0, 0.0, A),)
    elif variant is KernelVariant.PURE_B:
        from_a = (KernelBranch(1.0, epsilon, B),)
        from_b = tuple(KernelBranch(third, ang, B) for ang in b_angles)
    elif variant is KernelVariant.COMBINED:
        from_a = (KernelBranch(0.5, epsilon, B),) + tuple(
            KernelBranch(sixth, ang, A) for ang in a_angles
        )
        from_b = (KernelBranch(0.5, 0.0, A),) + tuple(
            KernelBranch(sixth, ang, B) for ang in b_angles
        )
    else:
        raise ValueError(f"unknown kernel variant: {variant!r}")
    return MemoryKernel(variant, epsilon, from_a, from_b)


class CoherenceTrace(NamedTuple):
    """Values of the kick recursion at the two classes for k = 1..n.

    ``values[k-1]`` is ``(f_k at class A, f_k at class B)``; class A is the
    class of the initial angle 0 and class B the class of eps.
    ``decay_per_step`` is the sustained per-step decay factor (see
    :func:`coherence_recursion`), ``None`` when n = 1 or f_1 at class A
    is zero.
    """

    values: tuple[tuple[complex, complex], ...]
    decay_per_step: float | None

    @property
    def final_a(self) -> complex:
        return self.values[-1][0]

    @property
    def final_b(self) -> complex:
        return self.values[-1][1]


def _recursion_step(kern: MemoryKernel) -> Callable[[tuple], tuple]:
    """The linear map (f_k at A, f_k at B) -> (f_{k+1} at A, f_{k+1} at B).

    Step k+1 averages ``e^{i theta} * f_k(destination)`` over the kernel
    branches, in branch order; phase cancellations inside each class emerge
    from the full branch sums rather than being assumed.
    """
    index = {SetLabel.SET_A: 0, SetLabel.SET_B: 1}  # position in the pair f
    from_a, from_b = (
        [(b.weight * cmath.exp(1j * b.angle), index[b.to_label]) for b in kern.branches(label)]
        for label in index
    )

    def step(f: tuple) -> tuple:
        to_a = to_b = 0  # from the int 0, as sum() starts: a lone -0.0 term gives 0.0
        for coef, dest in from_a:
            to_a += coef * f[dest]
        for coef, dest in from_b:
            to_b += coef * f[dest]
        return to_a, to_b

    return step


def coherence_recursion(kern: MemoryKernel, n: int) -> CoherenceTrace:
    """Exact expectation E[e^{i(theta_1+...+theta_k)} | starting class], k = 1..n.

    f_k underflows in long runs (near n = 1750 at rate 2/3), so the pair is
    carried scaled: whenever its larger magnitude falls below 2**-512 it is
    multiplied by an exact power of two.  Each value is the scaled pair
    rebuilt with ``math.ldexp`` per component, so it is rounded once, not
    carried through subnormal arithmetic; shorter runs are never rescaled.

    ``decay_per_step`` is the geometric mean of the step factors after the
    first kick, ``(abs(f_n) / abs(f_1)) ** (1 / (n - 1))`` at the class of
    the initial angle 0, taken from the scaled pair and the exponents
    taken out.  The first kick only enters the kernel's recurrent class (a
    deterministic, decay-free move for the pure-B kernel), so including it
    would understate the sustained rate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    step = _recursion_step(kern)
    f = step((1.0 + 0.0j, 1.0 + 0.0j))
    first = abs(f[0])
    out = [f]
    exponent = 0  # the true f_k is f * 2**exponent
    rebuilt = lambda z: complex(math.ldexp(z.real, exponent), math.ldexp(z.imag, exponent))
    for _ in range(n - 1):
        f = step(f)
        out.append((rebuilt(f[0]), rebuilt(f[1])) if exponent else f)
        top = max(abs(f[0]), abs(f[1]))
        if 0.0 < top < 2.0**-512:
            e = math.frexp(top)[1]
            scale = math.ldexp(1.0, -e)
            f = (f[0] * scale, f[1] * scale)
            exponent += e
    decay = None
    if n >= 2 and first > 0.0:
        decay = (abs(f[0]) / first) ** (1.0 / (n - 1)) * 2.0 ** (exponent / (n - 1))
    return CoherenceTrace(tuple(out), decay)


def _chain_phasors(kern: MemoryKernel, keys: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Phasor e^{-i theta} of kicks 1, ..., n of each chain, in turn.

    Chains start in class A (initial angle 0); kicks 2j and 2j + 1 pick by
    the two halves of the chain's own raw slot j.  Both classes' thresholds
    (:func:`montecarlo.draw_edges`) are merged once into one sorted set of
    ``width - 1`` edges, so :func:`montecarlo.branch_indices` makes one pick
    a kick, for every chain in either class.  Row ``interval + width *
    (chain in class B)`` of two tables built once holds the branch's phasor
    and its destination class's ``width * (class is B)``.
    """
    import numpy as np
    from . import montecarlo, rng

    if n < 0:
        raise ValueError("n must be nonnegative")
    edges = [
        montecarlo.draw_edges([br.weight for br in kern.branches(label)]).tolist()
        for label in SetLabel
    ]
    merged = sorted(set(edges[0] + edges[1]))
    width = len(merged) + 1
    # the branch each class takes on each interval, by the interval's lowest draw
    rows = [
        first + bisect.bisect_right(class_edges, low)
        for first, class_edges in zip((0, len(kern.from_a)), edges)
        for low in [0, *merged]
    ]
    branches = kern.from_a + kern.from_b
    phasors = np.exp(-1j * np.array([br.angle for br in branches]))[rows]
    to_offset = np.array(
        [0 if branches[r].to_label is SetLabel.SET_A else width for r in rows], dtype=np.intp
    )
    offset = np.zeros(len(keys), dtype=np.intp)
    row = rng._empty(len(keys), np.intp)
    thresholds = np.array(merged, dtype=np.uint64)
    for index in montecarlo.branch_indices(thresholds, keys, n):
        np.add(index, offset, out=row)
        # every row is in range; "clip" only spares numpy a buffered copy
        np.take(to_offset, row, out=offset, mode="clip")
        yield np.take(phasors, row, out=rng._empty(len(keys), np.complex128), mode="clip")


def evolve_memory_mc(
    rho0: DensityMatrix2,
    kern: MemoryKernel,
    n: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[complex, float]]:
    """Monte Carlo ``(b, stderr)`` after 0, 1, ..., n kicks over sampled chains, in one pass.

    Each chain starts in class A (initial angle 0); each step draws a
    kernel branch for the current class, rotates the coherence by
    e^{-i theta}, and moves to the branch's destination class.  Point k
    converges to ``b * conj(f_k at class A)`` from
    :func:`coherence_recursion`.
    """
    from . import montecarlo

    phasors = lambda keys: _chain_phasors(kern, keys, n)
    return montecarlo.kicked_curve(rho0.b, phasors, trials, seed, threads)
