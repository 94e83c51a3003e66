"""The Monte Carlo engine shared by every family that estimates a mean.

Trajectory t under master seed s draws only from the stream keyed by (s, t),
and :func:`rng.run_blocks` cuts the trajectories into fixed blocks.
:func:`run` hands each block's keys to a sampler and reduces every array of
values it returns to the block's moments: its count, its first value r, and
the sums of ``v - r`` and ``(v - r)^2`` of the real and imaginary parts.
Shifting by a sample keeps the variance exact for constant samples and well
conditioned otherwise.  :func:`estimate` moves every block onto block 0's
shift and merges the blocks in block order with ``math.fsum`` (Chan, Golub &
LeVeque, 1979), so estimates are bit-identical at any thread count.

Two per-draw kernels serve the samplers: :func:`phasors` turns kick angles
into e^{-i theta} and :func:`branch_index` picks a branch of a finite law
straight from a raw 64-bit draw's 32-bit half, by the thresholds of
:func:`draw_edges`.  :func:`kicked_curve` runs both kick families' curves:
each point a ``(b, stderr)`` pair of :func:`run`.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import rng

# (first value, sum of v - first, sum of (v - first)^2) of one part
Part = tuple[float, float, float]
# (count, real part, imaginary part)
Moments = tuple[int, Part, Part]
Sampler = Callable[[np.ndarray], tuple[Iterable[np.ndarray], Any]]


# Up to 255 edges (256 branches) the count fits in uint8 and beats the
# binary search.  Per 65,536 draws (numpy 2.4, 2-core Xeon VM) the count
# takes 0.05 ms against 0.94 ms at 4 branches and 3.7 ms against 4.4 ms at
# 256; at 320 branches a uint16 count takes 6.3 ms against 5.1 ms, at 512
# 9.7 ms against 5.5 ms.
_COUNT_MAX_EDGES = 255


def phasors(theta: np.ndarray) -> np.ndarray:
    """e^{-i theta} per entry, from t = tan(theta/2); overwrites ``theta``.

    cos theta = (1 - t^2) / (1 + t^2) and sin theta = 2t / (1 + t^2).  One
    Newton step, (c, s) *= 1.5 - 0.5 * (c^2 + s^2), brings the modulus back
    to 1 within 2 eps.  numpy 2.4 has an AVX-512 kernel for float64 ``tan``
    but none for ``cos``, ``sin`` or complex ``exp`` (README).  Every pass
    runs over contiguous arrays: until the parts are written into the
    complex result at the end, the two halves of its float view hold c and
    the scratch for s^2, so besides ``theta`` and the result the kernel
    takes one block-sized array, for s.
    """
    n = len(theta)
    out = rng._empty(n, np.complex128)
    c, scratch = out.view(np.float64).reshape(2, n)
    s = rng._empty(n)
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
    t += np.multiply(s, s, out=scratch)
    t *= -0.5
    t += 1.5
    s *= t
    cosine = np.multiply(c, t, out=t)  # frees the result's memory
    np.copyto(out.real, cosine)
    np.copyto(out.imag, s)
    return out


def kicked_curve(b: complex, factors: Callable[[np.ndarray], Iterable[np.ndarray]], trials: int,
                 seed: int, threads: int = 1) -> list[tuple[complex, float]]:
    """Mean coherence and its standard error after 0, 1, ... kicks, in one pass.

    ``factors(keys)`` yields each kick's phasor e^{-i theta} per
    trajectory, in kick order; a trajectory's coherence is ``b`` times
    their running product, one block-sized array updated in place.
    """
    def products(keys: np.ndarray) -> Iterator[np.ndarray]:
        z = rng._empty(len(keys), np.complex128)
        z.fill(b)
        yield z
        for f in factors(keys):
            z *= f
            del f  # its array is free for the next factor
            yield z

    return run(lambda keys: (products(keys), None), trials, seed, threads)[0]


def draw_edges(weights: Sequence[float]) -> np.ndarray:
    """The raw-draw thresholds of a finite law, as sorted uint64, for :func:`branch_index`.

    Branch j takes the raw draws x whose high half has h * 2**-32 in
    [c_{j-1}, c_j), c the running sums of ``weights`` with the last taken
    as 1, so within 2**-32 of its weight: h * 2**-32 >= c exactly when
    x >= ceil(c * 2**32) << 32, and a ceiling of 2**32 or more is never
    reached and gives no threshold.
    """
    ceilings = (math.ceil(c * 2.0**32) for c in itertools.accumulate(map(float, weights[:-1])))
    return np.array([e << 32 for e in ceilings if e < 1 << 32], dtype=np.uint64)


def branch_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The number of ``edges`` at or below each raw draw in ``x`` (uint64).

    With ``edges = draw_edges(weights)`` this is the law's branch for the
    high half of each draw, ``np.searchsorted(cum, (x >> 32) * 2**-32,
    side="right")`` for the law's cumulative weights ``cum`` with
    ``cum[-1] = 1``.  Up to 255 edges the index is the ``uint8`` count of
    ``x >= edge``; above that it is ``np.searchsorted(edges, x, side="right")``.
    """
    if len(edges) > _COUNT_MAX_EDGES:
        return np.searchsorted(edges, x, side="right")
    index = np.zeros(len(x), dtype=np.uint8)
    for edge in edges:
        index += x >= edge
    return index


def branch_indices(edges: np.ndarray, keys: np.ndarray, kicks: int) -> Iterator[np.ndarray]:
    """:func:`branch_index` of kicks 0, ..., ``kicks`` - 1 of each key: x, then x << 32, a draw x."""
    for j in range(0, kicks, 2):
        x = rng.slot_u64(keys, j // 2, 1)[0]
        pair = [branch_index(edges, x)]
        if j + 1 < kicks:
            x <<= np.uint64(32)
            pair.append(branch_index(edges, x))
        del x  # both picked: its buffer is free while the kicks are used
        yield from pair


def _part_moments(part: np.ndarray, w: np.ndarray) -> Part:
    """First value of ``part`` and its shifted sums, with ``w`` as scratch."""
    shift = float(part[0])
    np.subtract(part, shift, out=w)
    s1 = float(np.add.reduce(w))
    np.multiply(w, w, out=w)
    return shift, s1, float(np.add.reduce(w))


def block_moments(values: np.ndarray) -> Moments:
    """Count of ``values`` and, per part, their first value and shifted sums.

    A real array's imaginary part is (0.0, 0.0, 0.0), with no pass over it.
    A complex array takes one complex subtraction of its first value and
    one in-place squaring of the float view of the result; each part's
    sums reduce the strided real or imaginary view, with the bytes of a
    pass over that part alone.
    """
    if not np.iscomplexobj(values):
        return len(values), _part_moments(values, rng._empty(len(values))), (0.0, 0.0, 0.0)
    first = complex(values[0])
    w = np.subtract(values, first, out=rng._empty(len(values), np.complex128))
    sums = float(np.add.reduce(w.real)), float(np.add.reduce(w.imag))
    floats = w.view(np.float64)
    np.multiply(floats, floats, out=floats)
    return (
        len(values),
        (first.real, sums[0], float(np.add.reduce(w.real))),
        (first.imag, sums[1], float(np.add.reduce(w.imag))),
    )


def estimate(blocks: Sequence[Moments]) -> tuple[complex, float]:
    """Mean and standard error (the larger of the real and imaginary parts').

    Block sums on shift r move onto block 0's shift r0 exactly as the
    samples would: with d = r - r0, ``S1 + n*d`` and ``S2 + d*(2*S1 + n*d)``.
    """
    trials = sum(b[0] for b in blocks)
    means, variances = [], []
    for part in (1, 2):
        origin = blocks[0][part][0]
        sums, squares = [], []
        for b in blocks:
            n, (shift, s1, s2) = b[0], b[part]
            d = shift - origin
            sums.append(s1 + n * d)
            squares.append(s2 + d * (2.0 * s1 + n * d))
        s1, s2 = math.fsum(sums), math.fsum(squares)
        means.append(origin + s1 / trials)
        if trials > 1:
            variances.append(max(s2 - s1 * s1 / trials, 0.0) / (trials - 1))
    stderr = math.sqrt(max(variances) / trials) if variances else 0.0
    return complex(*means), stderr


def run(sampler: Sampler, trials: int, seed: int, threads: int = 1, fold: Callable | None = None,
        initial: Any = None) -> tuple[list[tuple[complex, float]], Any]:
    """Mean and standard error of each value array a sampler returns, in one pass.

    ``sampler(keys)`` takes one block's trajectory keys, from the thread's
    set of arrays (``rng._empty``), and returns ``(points, tally)``.
    ``points`` holds one array of per-trajectory values per estimate; each
    is reduced as soon as it is yielded, so a curve stays at one block of
    memory.  ``tally`` is whatever else the block counts.  Returns the
    estimates and the tallies folded by ``fold(acc, tally)`` from
    ``initial`` in block order (``initial`` without ``fold``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def worker(start: int, count: int):
        points, tally = sampler(rng.stream_keys(seed, start, count))
        # map holds no point past its reduction, so its array is free for the next
        return list(map(block_moments, points)), tally

    blocks = []  # each block's moments, for estimate's fsum in block order

    def fold_block(acc, block):
        blocks.append(block[0])
        return acc if fold is None else fold(acc, block[1])

    tally = rng.run_blocks(trials, worker, threads, fold=fold_block, initial=initial)
    return [estimate(point) for point in zip(*blocks)], tally
