"""The Monte Carlo engine shared by every family: blocks -> moments -> estimate.

Trajectory t under master seed s draws only from the stream keyed by (s, t),
and :func:`rng.run_blocks` cuts the trajectories into fixed blocks.  Each
block is reduced to the sums of ``v - ref`` and ``(v - ref)^2`` of the real
and imaginary parts, for a fixed ``ref`` near the samples; the shift keeps
the variance exact for constant samples and well conditioned otherwise.
Block moments are merged in block order with ``math.fsum`` (Chan, Golub &
LeVeque, 1979), so estimates are bit-identical at any thread count.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from . import rng

Moments = tuple[float, float, float, float]
Sampler = Callable[[np.ndarray], Iterable[np.ndarray]]


def block_moments(values: np.ndarray, ref: complex) -> Moments:
    """Sums of ``v - ref`` and ``(v - ref)^2``, real then imaginary parts."""
    w = values - ref
    re, im = w.real, w.imag
    return float(np.sum(re)), float(np.sum(im)), float(np.sum(re * re)), float(np.sum(im * im))


def estimate(ref: complex, blocks: Sequence[Moments], trials: int) -> tuple[complex, float]:
    """Mean and standard error (the larger of the real and imaginary parts')."""
    sum_re = math.fsum(b[0] for b in blocks)
    sum_im = math.fsum(b[1] for b in blocks)
    sum_re2 = math.fsum(b[2] for b in blocks)
    sum_im2 = math.fsum(b[3] for b in blocks)
    mean = ref + complex(sum_re / trials, sum_im / trials)
    if trials > 1:
        var_re = max(sum_re2 - sum_re * sum_re / trials, 0.0) / (trials - 1)
        var_im = max(sum_im2 - sum_im * sum_im / trials, 0.0) / (trials - 1)
        stderr = math.sqrt(max(var_re, var_im) / trials)
    else:
        stderr = 0.0
    return mean, stderr


def curve(
    sampler: Sampler, trials: int, seed: int, threads: int = 1
) -> list[tuple[complex, float]]:
    """Mean and standard error of every curve point, in one pass.

    ``sampler(keys)`` yields one array of per-trajectory values per point;
    each is reduced as soon as it is yielded, so memory stays at one block.
    Point k is shifted by trajectory 0's value, from the sampler run on it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    refs = [v[0].item() for v in sampler(rng.stream_keys(seed, 0, 1))]

    def worker(start: int, count: int) -> list[Moments]:
        values = sampler(rng.stream_keys(seed, start, count))
        return [block_moments(v, ref) for v, ref in zip(values, refs)]

    blocks = rng.run_blocks(trials, worker, threads=threads)
    return [estimate(ref, [b[k] for b in blocks], trials) for k, ref in enumerate(refs)]
