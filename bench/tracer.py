"""Spans around the public functions of every ``noisegames`` layer.

The layers are the package's modules.  :meth:`Tracer.install` wraps each
public module-level function and patches the wrapper into every namespace
where the original is bound, so calls by module attribute
(``rng.slot_normal``), by global name inside the module
(``optimal_k`` -> ``success_closed_form``) and through names imported
into other modules (``cli.coherence``) all open a span.

A span records its id, its parent, its thread and its start and end times
in per-thread arrays; spans stay in memory until :meth:`Tracer.dump`.  Each
thread keeps its own stack of open spans.  Workers handed to
``rng.run_blocks`` are wrapped in a block span whose parent is the
``run_blocks`` span, so the parent carries across the thread pool and the
block's own work is charged to the layer that asked for it.

Counts come from call arguments and results, recorded by the wrapper.
Random draws are counted only at the outermost ``rng`` span (one whose
parent is not an ``rng`` span), in raw 64-bit slots.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "noisegames"
LAYERS = ("rng", "qubit", "kicks", "memory", "dissipative", "parrondo", "grover", "cli")

# A layer with an exact and a Monte Carlo route is split into two groups.
# A span opened by one of these functions, and every span of the same layer
# beneath it, belongs to the Monte Carlo group of its layer.
MC_ENTRIES = {
    "kicks.evolve_iid_mc": "kicks.mc",
    "memory.evolve_memory_mc": "memory.mc",
    "dissipative.averaged_channel_mc": "dissipative.mc",
    "parrondo.simulate": "parrondo.sim",
    "grover.evaluate_strategy": "grover.eval",
}
DEFAULT_GROUP = {
    "rng": "rng",
    "qubit": "qubit",
    "kicks": "kicks.exact",
    "memory": "memory.recursion",
    "dissipative": "dissipative.exact",
    "parrondo": "parrondo.exact",
    "grover": "grover.exact",
    "cli": "cli",
}
GROUPS = tuple(dict.fromkeys(list(DEFAULT_GROUP.values()) + list(MC_ENTRIES.values())))

GROUP_IDS = {group: i for i, group in enumerate(GROUPS)}
# Groups whose self time is reported; dissipative's exact route is a few
# closed forms and is left in the spans file only.
SELF_TIME_GROUPS = tuple(g for g in GROUPS if g != "dissipative.exact")

# Raw 64-bit slots consumed per key by each draw function.
DRAW_SLOTS = {
    "slot_u64": ("rng.draws.u64", 1),
    "slot_uniform": ("rng.draws.uniform", 1),
    "slot_uniform_open": ("rng.draws.uniform", 1),
    "slot_normal": ("rng.draws.normal", 2),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Work counted per call: span name -> (count, amount from args, kwargs, result).
CALL_COUNTS = {
    "kicks.evolve_iid": ("kicks.exact.steps", lambda a, k, r: _arg(a, k, 2, "plan").steps),
    "kicks.evolve_iid_mc": (
        "kicks.mc.traj_steps",
        lambda a, k, r: _arg(a, k, 3, "trials") * _arg(a, k, 2, "plan").steps,
    ),
    "memory.evolve_memory_mc": (
        "memory.mc.traj_steps",
        lambda a, k, r: _arg(a, k, 3, "trials") * _arg(a, k, 2, "n"),
    ),
    "dissipative.averaged_channel_mc": (
        "dissipative.mc.samples",
        lambda a, k, r: _arg(a, k, 3, "trials"),
    ),
    "parrondo.stationary_distribution": ("parrondo.stationary.calls", lambda a, k, r: 1),
    "parrondo.simulate": ("parrondo.sim.rounds", lambda a, k, r: _arg(a, k, 1, "rounds")),
    "grover.success_closed_form": ("grover.closed_form.calls", lambda a, k, r: 1),
    "grover.evaluate_strategy": ("grover.eval.censored", lambda a, k, r: r.censored),
}


class _ThreadLog:
    """Spans closed on one thread, and that thread's stack of open spans."""

    __slots__ = ("sid", "parent", "name", "group", "t0", "t1", "stack", "counts")

    def __init__(self):
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.group = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[tuple[int, str, str]] = []  # (span id, layer, group)
        self.counts: Counter = Counter()

    def record(self, sid, parent, name, group, t0, t1):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name)
        self.group.append(group)
        self.t0.append(t0)
        self.t1.append(t1)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, log: _ThreadLog, layer: str, group: str | None):
        """Push a span; returns (id, group, parent id, parent layer, parent group)."""
        parent, parent_layer, parent_group = log.stack[-1] if log.stack else (-1, None, None)
        if group is None:
            group = parent_group if parent_layer == layer else DEFAULT_GROUP[layer]
        sid = next(self._ids)
        log.stack.append((sid, layer, group))
        return sid, group, parent, parent_layer, parent_group

    def wrap(self, name: str, fn):
        """Wrapper that records a span named ``layer.function`` per call."""
        name_id = self._name_id(name)
        if name == "rng.run_blocks":
            return self._wrap_run_blocks(name_id, fn)
        layer, func = name.split(".", 1)
        entry_group = MC_ENTRIES.get(name)
        draw_key, draw_slots = DRAW_SLOTS.get(func, (None, 0)) if layer == "rng" else (None, 0)
        call_count = CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            log = self._log()
            sid, group, parent, parent_layer, parent_group = self._open(log, layer, entry_group)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                log.stack.pop()
                log.record(sid, parent, name_id, GROUP_IDS[group], t0, t1)
            counts = log.counts
            if layer == "rng":
                if parent_layer != "rng":
                    counts[f"{parent_group}.rng_calls"] += 1
                    if draw_key:
                        counts[draw_key] += draw_slots * len(args[0])
            elif layer == "qubit":
                if parent_layer != "qubit":
                    counts["qubit.calls"] += 1
            elif call_count:
                counts[call_count[0]] += call_count[1](args, kwargs, result)
            return result

        return span

    def _wrap_run_blocks(self, name_id: int, fn):
        block_names: dict[str, int] = {}

        @functools.wraps(fn)
        def run_blocks(total, worker, threads=1, **kwargs):
            log = self._log()
            sid, _, parent, _, parent_group = self._open(log, "rng", None)
            caller_group = parent_group or "rng"
            caller_layer = caller_group.split(".", 1)[0]
            if caller_group not in block_names:
                block_names[caller_group] = self._name_id(f"{caller_group}.block")
            block_name = block_names[caller_group]
            busy: list[float] = []

            def block(start, count):
                wlog = self._log()
                bid = next(self._ids)
                wlog.stack.append((bid, caller_layer, caller_group))
                b0 = perf_counter()
                try:
                    return worker(start, count)
                finally:
                    b1 = perf_counter()
                    wlog.stack.pop()
                    wlog.record(bid, sid, block_name, GROUP_IDS[caller_group], b0, b1)
                    busy.append(b1 - b0)

            t0 = perf_counter()
            try:
                result = fn(total, block, threads=threads, **kwargs)
            finally:
                t1 = perf_counter()
                log.stack.pop()
                log.record(sid, parent, name_id, GROUP_IDS["rng"], t0, t1)
            log.counts[f"{caller_group}.rng_calls"] += 1
            log.counts["rng.blocks"] += len(busy)
            log.counts["rng.pool.busy_s"] += sum(busy)
            log.counts["rng.pool.capacity_s"] += max(int(threads), 1) * (t1 - t0)
            return result

        return run_blocks

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch a span wrapper over every public function of every layer."""
        package = sys.modules[PACKAGE]
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans as arrays indexed by span id."""
        dtypes = {"sid": np.int64, "parent": np.int64, "name": np.int32, "group": np.int32,
                  "t0": np.float64, "t1": np.float64}
        cols = {k: [np.zeros(0, dtype=t)] for k, t in dtypes.items()}
        cols["thread"] = [np.zeros(0, dtype=np.int64)]
        for thread, log in enumerate(self._logs):
            for key, dtype in dtypes.items():
                cols[key].append(np.array(getattr(log, key), dtype=dtype))
            cols["thread"].append(np.full(len(log.sid), thread, dtype=np.int64))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(out["sid"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        if not np.array_equal(out["sid"], np.arange(len(order))):
            raise RuntimeError("spans are still open")
        return out

    def counts(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    def dump(self, stem: str) -> None:
        """Write the spans (``stem.npz``, indexed by span id) and a per-name
        summary (``stem.json``)."""
        spans = self.spans()
        np.savez(
            stem + ".npz",
            parent=spans["parent"], t0=spans["t0"], t1=spans["t1"],
            name=spans["name"].astype(np.int16), group=spans["group"].astype(np.int8),
            thread=spans["thread"].astype(np.int16),
        )
        own = self_times(spans["parent"], spans["thread"], spans["t0"], spans["t1"])
        calls = np.bincount(spans["name"], minlength=len(self.names))
        own_by_name = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        summary = {
            "names": self.names,
            "groups": list(GROUPS),
            "per_name": {
                name: {"calls": int(calls[i]), "self_s": float(own_by_name[i])}
                for i, name in enumerate(self.names)
                if calls[i]
            },
            "counts": dict(sorted(self.counts().items())),
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and work counts of everything traced so far."""
        spans = self.spans()
        own = self_times(spans["parent"], spans["thread"], spans["t0"], spans["t1"])
        by_group = dict(
            zip(GROUPS, np.bincount(spans["group"], weights=own, minlength=len(GROUPS)))
        )
        is_draw = np.array([n.startswith("rng.slot_") for n in self.names], dtype=bool)
        draw_s = float(own[is_draw[spans["name"]]].sum())
        c = self.counts()
        draws = c["rng.draws.u64"] + c["rng.draws.uniform"] + c["rng.draws.normal"]
        capacity = c["rng.pool.capacity_s"]
        metrics = {
            "rng.draws": draws,
            "rng.draws.normal": c["rng.draws.normal"],
            "rng.draws.uniform": c["rng.draws.uniform"],
            "rng.draws.u64": c["rng.draws.u64"],
            "rng.ns_per_draw": 1e9 * draw_s / draws if draws else 0.0,
            "rng.blocks": c["rng.blocks"],
            "rng.pool_util": c["rng.pool.busy_s"] / capacity if capacity else 0.0,
            "kicks.mc.traj_steps": c["kicks.mc.traj_steps"],
            "kicks.exact.steps": c["kicks.exact.steps"],
            "memory.mc.traj_steps": c["memory.mc.traj_steps"],
            "dissipative.mc.samples": c["dissipative.mc.samples"],
            "parrondo.stationary.calls": c["parrondo.stationary.calls"],
            "parrondo.sim.rounds": c["parrondo.sim.rounds"],
            "grover.closed_form.calls": c["grover.closed_form.calls"],
            "grover.eval.rng_calls": c["grover.eval.rng_calls"],
            "grover.eval.censored": c["grover.eval.censored"],
            "qubit.calls": c["qubit.calls"],
        }
        for group in SELF_TIME_GROUPS:
            metrics[f"{group}.self_s"] = float(by_group[group])
        return metrics


def self_times(parent: np.ndarray, thread: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus the part its children cover.

    Spans are indexed by id (``parent[i] < 0`` for a root).  Children on
    the parent's own thread run one after another, so their durations add;
    where any child ran on another thread (pool workers), the covered part
    is the union of the children's intervals.
    """
    n = len(t0)
    dur = t1 - t0
    has_parent = parent >= 0
    kids = np.nonzero(has_parent)[0]
    cover = np.bincount(parent[kids], weights=dur[kids], minlength=n) if n else np.zeros(0)
    foreign = kids[thread[kids] != thread[parent[kids]]]
    for p in np.unique(parent[foreign]):
        members = kids[parent[kids] == p]
        covered, reach = 0.0, -np.inf
        for i in members[np.argsort(t0[members])]:
            start = max(t0[i], reach)
            if t1[i] > start:
                covered += t1[i] - start
            reach = max(reach, t1[i])
        cover[p] = covered
    return np.maximum(dur - cover, 0.0)
