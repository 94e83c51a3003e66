import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy import stats

from _oracles import box_muller_pair, derive_stream, stream_key
from noisegames import rng


def test_scalar_and_vector_keys_agree():
    keys = rng.stream_keys(12345, 100, 50)
    for i in (0, 7, 49):
        assert int(keys[i]) == stream_key(12345, 100 + i)
    # two pieces of the counter table, with indices wrapping past 2^64 - 1
    b = rng.BLOCK_SIZE
    keys = rng.stream_keys(12345, 2**64 - 5, b + 10)
    for i in (0, 4, 5, b - 1, b, b + 9):
        assert int(keys[i]) == stream_key(12345, 2**64 - 5 + i)


@pytest.mark.parametrize(
    "step, base", [(rng._KEY_MULT, 12345), (rng._GOLDEN, rng._GOLDEN)], ids=["keys", "slots"]
)
def test_counters_are_first_plus_j_times_step_plus_base(step, base):
    # three pieces of the index table, with first + j wrapping past 2^64 - 1
    # in the second
    b = rng.BLOCK_SIZE
    first = 2**64 - b - 3
    out = rng._counters(np.empty(2 * b + 5, dtype=np.uint64), first, step, base)
    assert out.tolist() == [((first + j) * step + base) % 2**64 for j in range(2 * b + 5)]


def test_stream_matches_slot_addressing():
    keys = rng.stream_keys(9, 4, 1)
    s = derive_stream(9, 4)
    got = s.u64(5)
    want = [int(rng.slot_u64(keys, d, 1)[0, 0]) for d in range(5)]
    assert list(got) == want


def test_same_seed_same_stream():
    a = derive_stream(7, 3).uniform(100)
    b = derive_stream(7, 3).uniform(100)
    assert np.array_equal(a, b)


def test_different_indices_differ():
    a = derive_stream(7, 3).u64(4)
    b = derive_stream(7, 4).u64(4)
    assert not np.array_equal(a, b)


def test_million_streams_no_first_output_collision():
    firsts = rng.slot_u64(rng.stream_keys(0, 0, 1_000_000), 0, 1)
    assert np.unique(firsts).size == 1_000_000


def test_uniform_range_and_chi_square():
    u = derive_stream(2024, 0).uniform(1 << 16)
    assert np.all((u >= 0.0) & (u < 1.0))
    counts, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_normal_moments():
    z = derive_stream(5, 1).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_randint_bounds_and_determinism():
    s = derive_stream(11, 0)
    vals = [s.randint(7) for _ in range(1000)]
    assert set(vals) <= set(range(7))
    s2 = derive_stream(11, 0)
    assert vals == [s2.randint(7) for _ in range(1000)]
    with pytest.raises(ValueError):
        s.randint(0)


def listed(total, worker, threads=1):
    """The block results of ``rng.run_blocks``, folded into a list in block order."""
    return rng.run_blocks(total, worker, threads, fold=lambda acc, r: acc + [r], initial=[])


def test_run_blocks_order_and_thread_invariance(monkeypatch):
    def worker(start, count):
        keys = rng.stream_keys(3, start, count)
        return float(np.sum(rng.slot_halves(keys, 0)[0]))

    monkeypatch.setattr(rng, "BLOCK_SIZE", 1 << 14)
    serial = listed(300_000, worker, threads=1)
    threaded = listed(300_000, worker, threads=8)
    assert serial == threaded
    assert len(serial) == (300_000 + (1 << 14) - 1) // (1 << 14)


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    workers = set()

    def worker(start, count):
        workers.add(threading.get_ident())
        keys = rng.stream_keys(3, start, count)
        return [z.tobytes() for z in rng.slot_normal(keys, 0)]

    monkeypatch.setattr(rng, "BLOCK_SIZE", 1 << 14)
    serial = listed(300_000, worker, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    workers.clear()
    threaded = listed(300_000, worker, threads=8)
    assert len(workers) <= 2
    assert threaded == serial


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_blocks_fold_in_order_through_a_window_of_two_per_thread(threads, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rng, "BLOCK_SIZE", 1000)
    lock = threading.Lock()
    started, unfolded = [], []  # unfolded: started and not yet folded, at each start
    folded = []

    def worker(start, count):
        if start == fail_at:
            raise RuntimeError(f"block at {start}")
        with lock:
            started.append(start)
            unfolded.append(len(started) - len(folded))
        return start, int(rng.stream_keys(3, start, count).sum(dtype=np.uint64))

    def fold(acc, result):
        time.sleep(0.002)  # the workers run ahead of a slow fold
        with lock:
            folded.append(result[0])
        return acc + [result]

    total = 40_500
    fail_at = None
    got = rng.run_blocks(total, worker, threads, fold=fold, initial=[])
    starts = list(range(0, total, 1000))
    assert folded == starts and [r[0] for r in got] == starts
    assert max(unfolded) <= 2 * min(threads, 2)
    if threads > 1:
        assert max(unfolded) == 4  # the window fills
    assert got == listed(total, worker)
    folded.clear()
    fail_at = 7000
    with pytest.raises(RuntimeError, match="block at 7000"):
        rng.run_blocks(total, worker, threads, fold=fold, initial=[])
    assert folded == starts[:7]


def test_usable_cpus_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert rng._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng._usable_cpus() == 1


def test_uniform_open_never_zero():
    u = derive_stream(1, 1).uniform_open(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


_B = rng.BLOCK_SIZE


@pytest.mark.parametrize(
    "first, count, keys, rows",
    [
        (0, 9, 40, None),
        (7, 9, 40, None),
        (1000, 9, 40, None),
        # these two wrap past slot 2^64 - 1
        (2**63 - 2, 9, 40, None),
        (2**64 - 3, 9, 40, None),
        # three pieces of the counter table, wrapping at row _B + 3
        (2**64 - _B - 3, 2 * _B + 5, 3, [0, 1, 2, 3, _B - 1, _B, _B + 1, _B + 2, _B + 3,
                                          _B + 4, 2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * _B + 4]),
    ],
    ids=["at-0", "at-7", "at-1000", "wrap-2^63", "wrap-2^64", "three-pieces"],
)
def test_run_rows_are_splitmix64_at_their_slots(first, count, keys, rows):
    keys = rng.stream_keys(3, 10, keys)
    run = rng.slot_u64(keys, first, count)
    assert run.shape == (count, len(keys))
    for i in range(count) if rows is None else rows:
        slot = (first + i) % 2**64
        # Python integers as the independent reference for each draw
        want = [rng._mix_int(int(k) + rng._GOLDEN * (slot + 1)) for k in keys]
        assert run[i].tolist() == want, i
    # a single slot's halves are the high and low 32 bits of the run's first row
    high, low = rng.slot_halves(keys, first)
    assert high.dtype == low.dtype == np.float64
    assert high.tolist() == [float(x >> 32) for x in run[0].tolist()]
    assert low.tolist() == [float(x & 0xFFFFFFFF) for x in run[0].tolist()]


def test_empty_run():
    assert rng.slot_u64(rng.stream_keys(3, 10, 4), 5, 0).shape == (0, 4)


def test_normal_is_box_muller_cosine():
    # stream layout 6: u1 = (h + 1) * 2^-32 and u2 = l * 2^-32 from the halves
    # of raw slot 3 alone; the cosine and the sine come from tan(pi * u2) and
    # may differ from np.cos and np.sin in the last bits only
    keys = rng.stream_keys(8, 0, 1 << 18)
    x = rng.slot_u64(keys, 3, 1)[0]
    high = (x >> np.uint64(32)).astype(np.float64)
    low = (x & np.uint64(2**32 - 1)).astype(np.float64)
    radius = np.sqrt(-2.0 * np.log((high + 1.0) * 2.0**-32))
    angle = 2.0 * np.pi * (low * 2.0**-32)
    assert radius.max() <= math.sqrt(64.0 * math.log(2.0))
    z, sine = rng.slot_normal(keys, 3)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(z - radius * np.cos(angle)) <= 4 * eps * radius)
    assert np.all(np.abs(sine - radius * np.sin(angle)) <= 4 * eps * radius)


@pytest.mark.parametrize("slot", [0, 5, 2**64 - 1])
def test_normal_pair_reads_its_raw_slot_alone(slot, monkeypatch):
    # stream layout 6: the pair of slot j is built from the halves of raw slot j
    keys = rng.stream_keys(4, 0, 5000)
    read = []
    draw = rng._draw

    def spy(keys, first, out, t):
        read.append((first, out.shape[0]))
        return draw(keys, first, out, t)

    monkeypatch.setattr(rng, "_draw", spy)
    cosine, sine = rng.slot_normal(keys, slot)
    monkeypatch.undo()
    assert read == [(slot, 1)]
    want_cosine, want_sine = box_muller_pair(keys, slot)
    assert cosine.tobytes() == want_cosine.tobytes()
    assert sine.tobytes() == want_sine.tobytes()


def test_pair_normals_are_standard_and_uncorrelated():
    keys = rng.stream_keys(9, 0, 200_000)
    cosine, sine = rng.slot_normal(keys, 5)
    for z in (cosine, sine):
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.02
        assert stats.kstest(z, "norm").pvalue > 0.001
    assert abs(np.mean(cosine * sine)) < 0.01


def test_blocks_of_a_thread_reuse_one_buffer(monkeypatch):
    # three full blocks, then a partial one, all in the calling thread
    addresses = []

    def worker(start, count):
        addresses.append(rng._empty(count).__array_interface__["data"][0])

    monkeypatch.setattr(rng, "BLOCK_SIZE", 1000)
    listed(3 * 1000 + 1, worker)
    assert len(addresses) == 4 and len(set(addresses)) == 1


def test_block_arrays_hand_out_the_smallest_free_buffer_that_fits():
    # a buffer is busy while any array views it; when no free one fits, the
    # largest free one is replaced by one of the asked size
    arrays = rng._BlockArrays()
    sizes = lambda: sorted(len(b) for b in arrays._buffers)
    buffer = lambda nbytes: next(b for b in arrays._buffers if len(b) == nbytes)
    big = arrays.empty(8, np.float64)
    small = arrays.empty((2, 1), np.complex64)
    assert (small.shape, small.dtype, sizes()) == ((2, 1), np.complex64, [16, 64])
    tail = small[1:]
    del big, small
    one = arrays.empty(1, np.uint8)  # the 16-byte buffer is busy through tail
    assert one.base is buffer(64)
    del one, tail
    assert arrays.empty(3, np.int16).base is buffer(16)
    huge = arrays.empty(100, np.float64)
    assert sizes() == [16, 800] and huge.base is buffer(800)


@pytest.mark.parametrize("threads", [1, 8])
def test_arrays_handed_out_of_a_block_stay_its_own(threads, monkeypatch):
    def worker(start, count):
        held = rng._empty(count, np.int64)
        held.fill(start)
        scratch = rng._empty(count, np.int64)  # must not share held's buffer
        scratch.fill(-1)
        return held

    # a thread per core at most, switching as often as the interpreter allows
    monkeypatch.setattr(rng, "BLOCK_SIZE", 1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocks = listed(100_500, worker, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    want = [[s] * min(1000, 100_500 - s) for s in range(0, 100_500, 1000)]
    assert [b.tolist() for b in blocks] == want


@pytest.mark.parametrize("threads", [1, 3])
def test_no_arrays_kept_once_run_blocks_returns(threads, monkeypatch):
    refs = []

    def worker(start, count):
        refs.append(weakref.ref(rng._thread.arrays))
        refs.append(weakref.ref(rng._empty(count).base))
        return count

    monkeypatch.setattr(rng, "BLOCK_SIZE", 1000)
    assert rng.run_blocks(10_500, worker, threads, fold=int.__add__, initial=0) == 10_500
    assert len(refs) == 22 and all(ref() is None for ref in refs)
    assert getattr(rng._thread, "arrays", None) is None


def test_arrays_outside_run_blocks_are_fresh():
    a, b = rng._empty(1000), rng._empty(1000)
    assert a.base is None and b.base is None
