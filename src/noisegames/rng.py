"""Deterministic counter-based random streams for reproducible Monte Carlo.

All randomness in this package reduces to a single pure function of
``(seed, stream index, draw slot)`` built on the SplitMix64 finalizer.
Stream ``i`` under master seed ``s`` is the SplitMix64 sequence started at
key ``stream_keys(s, i, 1)[0]``; draw slot ``d`` of that stream is
``mix(key + (d + 1) * GOLDEN)``.  Every draw is addressed by its slot
(:func:`slot_u64`, and the 32-bit halves and Box-Muller pair of one slot
built on it); no stream carries a cursor or other hidden state, so any
partition of trajectories into blocks or threads reproduces results bit
for bit.  Draws come in runs of consecutive slots, as a wheel-game walk
reads its rounds; a single slot is a run of one.  Keys and slot offsets
are both counters built from one table (:func:`_counters`).

:func:`run_blocks` folds Monte Carlo blocks in block order as they finish;
each of its threads draws and computes every block in one set of arrays
(:func:`_empty`), so no block frees memory for the next to fault back in.

Key derivation is injective in the index for a fixed seed (odd multiplier
followed by bijective mixing), so distinct trajectories can never collide
onto the same stream.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15   # SplitMix64 increment
_KEY_MULT = 0xD1342543DE82EF95  # odd multiplier: index -> key stays injective

# Trajectory-block size for parallel Monte Carlo.  Fixed regardless of
# thread count, so block boundaries (and hence float summation order)
# never depend on the execution schedule.
BLOCK_SIZE = 1 << 16

# the indices j of one block
_INDICES = np.arange(BLOCK_SIZE, dtype=np.uint64)


def _free_refs() -> int:
    """``sys.getrefcount`` of a buffer that only a list holds, seen as :meth:`_BlockArrays.empty` sees it.

    Measured, not assumed: the count includes the loop variable and the
    call's argument, which interpreters may hold differently.
    """
    for b in [np.empty(0, dtype=np.uint8)]:
        return sys.getrefcount(b)


class _BlockArrays:
    """One thread's set of block-sized arrays for one :func:`run_blocks` call.

    Each array is a byte buffer; :meth:`empty` views the smallest free one
    that fits as the requested shape and dtype.  A buffer is free when the
    set holds the only reference to it: every array viewing it keeps a
    reference to it as its base, so one still in use, or handed out of the
    block, is never given out twice.  When no free buffer fits, the largest
    free one is replaced by a fitting one, so the set holds at most as many
    buffers as a block holds arrays at once.
    """

    _FREE_REFS = _free_refs()

    def __init__(self):
        self._buffers: list[np.ndarray] = []  # in increasing size
        self._itemsizes: dict = {}  # dtype argument -> its item size

    def empty(self, shape, dtype) -> np.ndarray:
        itemsize = self._itemsizes.get(dtype)
        if itemsize is None:
            itemsize = self._itemsizes[dtype] = np.dtype(dtype).itemsize
        nbytes = (shape if isinstance(shape, int) else math.prod(shape)) * itemsize
        largest = None
        for b in self._buffers:
            if sys.getrefcount(b) == self._FREE_REFS:
                if nbytes <= len(b):  # the smallest free one that fits
                    return np.ndarray(shape, dtype, b)
                largest = b  # the last free one seen is the largest
        if largest is not None:
            self._buffers = [b for b in self._buffers if b is not largest]
        best = np.empty(nbytes, dtype=np.uint8)
        bisect.insort(self._buffers, best, key=len)
        return np.ndarray(shape, dtype, best)


# .arrays: the set of the run_blocks call that runs a block on this thread,
# set for the block and restored after it, so no caller sees another's set
_thread = threading.local()


def _empty(shape, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``, from the calling thread's set inside :func:`run_blocks`."""
    arrays = getattr(_thread, "arrays", None)
    if arrays is None:
        return np.empty(shape, dtype)
    return arrays.empty(shape, dtype)


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping).

    Works in place on ``z``, which is returned; ``t`` is scratch of the
    same shape.  Integer array arithmetic wraps without a warning.
    """
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _mix_int(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seed_words(seed: int) -> tuple[int, int]:
    s0 = _mix_int((seed & _MASK64) + _GOLDEN)
    s1 = _mix_int(s0 + _GOLDEN)
    return s0, s1


def _counters(out: np.ndarray, first: int, step: int, base: int) -> np.ndarray:
    """``out[j] = (first + j) * step + base`` mod 2^64, a block at a time.

    Each block is ``_INDICES * step`` plus the block's first counter.
    """
    for lo in range(0, len(out), len(_INDICES)):
        piece = out[lo : lo + len(_INDICES)]
        np.multiply(_INDICES[: len(piece)], np.uint64(step), out=piece)
        piece += np.uint64(((first + lo) * step + base) & _MASK64)
    return out


def stream_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Keys of streams ``start .. start+count-1``, as a uint64 array.

    Key i is ``mix(mix(i * _KEY_MULT + s0) ^ s1)`` for the seed's words
    ``s0, s1``.
    """
    s0, s1 = _seed_words(seed)
    k = _counters(_empty(count, np.uint64), start, _KEY_MULT, s0)
    t = _empty(count, np.uint64)
    _mix(k, t)
    k ^= np.uint64(s1)
    return _mix(k, t)


def _draw(keys: np.ndarray, first: int, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`slot_u64` into ``out``, with ``t`` (same shape) as the finalizer's scratch.

    The offsets ``(slot + 1) * GOLDEN`` are built in the first ``len(out)``
    entries of ``t``.
    """
    offsets = _counters(t.reshape(-1)[: len(out)], first, _GOLDEN, _GOLDEN)
    np.add(keys, offsets[:, None], out=out)
    return _mix(out, t)


def slot_u64(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """Raw 64-bit draws of every key in ``keys`` at slots ``first .. first+count-1``.

    The result has shape ``(count, len(keys))``; row i is slot ``first + i``
    (mod 2^64) of each key's stream.
    """
    out = _empty((count, len(keys)), np.uint64)
    return _draw(keys, first, out, _empty(out.shape, np.uint64))


def slot_halves(keys: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 32 bits of each key's raw draw at ``slot``, as float64 in its two arrays."""
    h = _empty(len(keys), np.uint64)  # asked for first, so it may take a smaller buffer
    x = slot_u64(keys, slot, 1)[0]
    np.right_shift(x, np.uint64(32), out=h)
    x &= np.uint64(0xFFFFFFFF)
    # a 1-d cast onto its own memory runs in place, with no temporary
    np.copyto(h.view(np.float64), h.view(np.int64))
    np.copyto(x.view(np.float64), x.view(np.int64))
    return h.view(np.float64), x.view(np.float64)


def slot_normal(keys: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Each key's Box-Muller pair, R * cos(2*pi*u2) and R * sin(2*pi*u2), from raw slot ``slot``.

    The slot's halves give u1 = (h + 1) * 2^-32 and u2 = l * 2^-32, so
    R = sqrt(-2 ln u1) <= sqrt(64 ln 2).  The cosine is ``(1 - t^2) /
    (1 + t^2)`` and the sine ``2t / (1 + t^2)`` with ``t = tan(pi*u2)``,
    since numpy 2.4 has an AVX-512 kernel for float64 ``tan`` but none for
    ``cos`` or ``sin`` (README); each stays within 4 eps * R of numpy's.
    """
    sine = _empty(len(keys))  # asked for first, so it may take a smaller buffer
    r, t = slot_halves(keys, slot)
    r += 1.0
    r *= 2.0**-32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= np.pi * 2.0**-32
    np.tan(t, out=t)
    np.multiply(t, 2.0, out=sine)
    np.multiply(t, t, out=t)
    denominator = np.add(t, 1.0, out=_empty(len(t)))
    np.subtract(1.0, t, out=t)
    t /= denominator
    sine /= denominator
    sine *= r
    r *= t
    return r, sine


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_blocks(total: int, worker: Callable[[int, int], Any], threads: int = 1, *,
               fold: Callable[[Any, Any], Any], initial: Any) -> Any:
    """``fold(... fold(initial, r_0) ..., r_n)`` of ``r_i = worker(start, count)`` on block i.

    Blocks of ``BLOCK_SIZE`` depend only on ``total`` and fold on the calling
    thread in block order, so the result is bit-identical at any ``threads``
    (``worker`` must be pure).  The pool has ``threads`` threads, at most the
    usable CPUs, and at most 2 blocks per pool thread are started and not yet
    folded.  A worker's exception propagates, and no later block is folded.
    Each thread's set of arrays for :func:`_empty` lasts for this call.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    blocks = ((s, min(BLOCK_SIZE, total - s)) for s in range(0, total, BLOCK_SIZE))
    sets = threading.local()  # .arrays: each thread's set for this call only

    def block(start: int, count: int) -> Any:
        if not hasattr(sets, "arrays"):
            sets.arrays = _BlockArrays()
        outer = getattr(_thread, "arrays", None)
        _thread.arrays = sets.arrays
        try:
            return worker(start, count)
        finally:
            _thread.arrays = outer

    threads = min(threads, _usable_cpus())
    if threads <= 1 or total <= BLOCK_SIZE:
        return functools.reduce(fold, itertools.starmap(block, blocks), initial)
    acc, window = initial, collections.deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start, count in blocks:
            window.append(pool.submit(block, start, count))
            if len(window) == 2 * threads:
                acc = fold(acc, window.popleft().result())
        while window:
            acc = fold(acc, window.popleft().result())
    return acc
