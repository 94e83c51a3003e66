"""Deterministic counter-based random streams for reproducible Monte Carlo.

All randomness in this package reduces to a single pure function of
``(seed, stream index, draw slot)`` built on the SplitMix64 finalizer.
Stream ``i`` under master seed ``s`` is the SplitMix64 sequence started at
``stream_key(s, i)``; draw slot ``d`` of that stream is
``mix(key + (d + 1) * GOLDEN)``.  Every draw is addressed by its slot
(:func:`slot_u64` and the uniform and normal maps built on it); no stream
carries a cursor or other hidden state, so any partition of trajectories
into blocks or threads reproduces results bit for bit.  An array of slots
reads a run of one stream at once, as a wheel-game walk reads its rounds.
The maps work in place on the fresh arrays they draw, so a block allocates
few temporaries.

Key derivation is injective in the index for a fixed seed (odd multiplier
followed by bijective mixing), so distinct trajectories can never collide
onto the same stream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15   # SplitMix64 increment
_KEY_MULT = 0xD1342543DE82EF95  # odd multiplier: index -> key stays injective

# Default trajectory-block size for parallel Monte Carlo.  Fixed regardless
# of thread count, so block boundaries (and hence float summation order)
# never depend on the execution schedule.
BLOCK_SIZE = 1 << 16

_T = TypeVar("_T")


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping).

    Works in place: ``z`` must be a fresh array, and is returned.
    """
    with np.errstate(over="ignore"):
        t = np.right_shift(z, np.uint64(30))
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


def stream_key(seed: int, index: int) -> int:
    """Key of stream ``index`` under ``seed`` (pure, injective in index)."""
    s0, s1 = _seed_words(seed)
    k = _mix_int(((index & _MASK64) * _KEY_MULT + s0) & _MASK64)
    return _mix_int(k ^ s1)


def stream_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Keys of streams ``start .. start+count-1``, as a uint64 array.

    Bit-identical to ``stream_key`` applied elementwise.
    """
    s0, s1 = _seed_words(seed)
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = _mix(idx * np.uint64(_KEY_MULT) + np.uint64(s0))
    return _mix(k ^ np.uint64(s1))


def slot_u64(keys: np.ndarray, slot: int | np.ndarray) -> np.ndarray:
    """Raw 64-bit draw at ``slot`` for every stream key in ``keys``.

    ``slot`` may be a 1-D integer array instead: the result then has shape
    ``(len(slot), len(keys))`` and row i equals ``slot_u64(keys, slot[i])``.
    """
    # shape (1,) for a scalar slot, (S, 1) for an array; wraps mod 2^64
    offset = (np.asarray(slot, dtype=np.uint64)[..., None] + np.uint64(1)) * np.uint64(_GOLDEN)
    return _mix(keys + offset)


def _top_53_bits(keys: np.ndarray, slot: int) -> np.ndarray:
    x = slot_u64(keys, slot)
    x >>= np.uint64(11)
    return x.astype(np.float64)


def slot_uniform(keys: np.ndarray, slot: int) -> np.ndarray:
    """Uniform draws in [0, 1) at ``slot`` (53-bit resolution)."""
    x = _top_53_bits(keys, slot)
    x *= 2.0**-53
    return x


def slot_uniform_open(keys: np.ndarray, slot: int) -> np.ndarray:
    """Uniform draws in (0, 1] at ``slot`` (safe under log)."""
    x = _top_53_bits(keys, slot)
    x += 1.0
    x *= 2.0**-53
    return x


def slot_normal(keys: np.ndarray, slot: int) -> np.ndarray:
    """One standard normal per key via Box-Muller, R * cos(2*pi*u2).

    Normal ``slot`` consumes raw slots ``2*slot`` and ``2*slot + 1``; keep
    normal and uniform slot ranges disjoint within one kernel.  The cosine
    is ``(1 - t^2) / (1 + t^2)`` with ``t = tan(pi*u2)``, since numpy 2.4
    has an AVX-512 kernel for float64 ``tan`` but none for ``cos``
    (README); the result stays within 4 eps * R of ``R * np.cos(2*pi*u2)``.
    """
    r = slot_uniform_open(keys, 2 * slot)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = slot_uniform(keys, 2 * slot + 1)
    t *= np.pi
    np.tan(t, out=t)
    np.multiply(t, t, out=t)
    denominator = t + 1.0
    np.subtract(1.0, t, out=t)
    t /= denominator
    r *= t
    return r


def run_blocks(
    total: int,
    worker: Callable[[int, int], _T],
    threads: int = 1,
    block_size: int = BLOCK_SIZE,
) -> list[_T]:
    """Apply ``worker(start, count)`` over fixed-size index blocks.

    Returns the per-block results in block order.  Block boundaries depend
    only on ``total`` and ``block_size``, never on ``threads``; a caller
    that combines the partial results in list order therefore gets
    bit-identical totals for any thread count.  ``worker`` must be a pure
    function of its arguments.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    starts = list(range(0, total, block_size))
    counts = [min(block_size, total - s) for s in starts]
    if threads <= 1 or len(starts) <= 1:
        return [worker(s, c) for s, c in zip(starts, counts)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, starts, counts))
