"""Benchmark of the ``noisegames`` CLI.

    python3 bench/run.py --workload {curve-mc,exact,point-mc} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload's invocations run in this process through
``noisegames.cli.run``, after one untimed warm-up per subcommand, and
repeat until ``--seconds`` have passed.  Every output is checked outside
the timed region.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (the
sum over invocations of each one's median time), ``setup_s`` (median cold
start of the CLI in a fresh interpreter) and ``peak_rss_mb`` (peak
resident set of this process).  Both times are scaled by the machine's
measured speed in the same run (see ``calibration_s``).  With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics, the spans are written under ``bench/out/``, and the
difference between the two is ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5

# Host load on this class of shared VM slows all code by up to ~25 % for
# minutes at a time.  Each run therefore also times a fixed calibration
# kernel (interpreter work plus numpy uint64/float work) between samples,
# and scales its times by CALIBRATION_REF_S / (median kernel time).  The
# reference is the kernel's time on the machine described in DESIGN.md
# when it is not slowed, so there the scaled times are plain seconds.
CALIBRATION_REF_S = 0.045
# Buffers are allocated once, so the kernel adds a constant to peak RSS.
_CAL_WORDS = np.arange(1 << 18, dtype=np.uint64)
_CAL_MIX = np.empty_like(_CAL_WORDS)
_CAL_SHIFT = np.empty_like(_CAL_WORDS)
_CAL_FLOAT = np.empty(len(_CAL_WORDS))

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "rng.draws": "count",
    "rng.draws.normal": "count",
    "rng.draws.uniform": "count",
    "rng.draws.u64": "count",
    "rng.self_s": "s",
    "rng.ns_per_draw": "ns",
    "rng.blocks": "count",
    "rng.pool_util": "ratio",
    "kicks.mc.traj_steps": "count",
    "kicks.mc.self_s": "s",
    "kicks.exact.steps": "count",
    "kicks.exact.self_s": "s",
    "memory.mc.traj_steps": "count",
    "memory.mc.self_s": "s",
    "memory.recursion.self_s": "s",
    "dissipative.mc.samples": "count",
    "dissipative.mc.self_s": "s",
    "parrondo.stationary.calls": "count",
    "parrondo.exact.self_s": "s",
    "parrondo.sim.rounds": "count",
    "parrondo.sim.self_s": "s",
    "grover.closed_form.calls": "count",
    "grover.exact.self_s": "s",
    "grover.eval.rng_calls": "count",
    "grover.eval.self_s": "s",
    "grover.eval.censored": "count",
    "qubit.calls": "count",
    "qubit.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "setup.import_s": "s",
    "trace.overhead_frac": "ratio",
}

# Cold start of the CLI, timed inside a fresh interpreter.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import noisegames.cli as cli
t1 = time.perf_counter()
cli.build_parser()
t2 = time.perf_counter()
print(t2 - t0, t1 - t0, cli.__file__)
"""


class StartError(Exception):
    """The benchmark cannot run in this directory."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def calibration_s() -> float:
    """Seconds taken by the fixed calibration kernel, once."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc += (i * i) % 7
    for i in range(30_000):
        table[i % 97] = table.get(i % 97, 0) + i
    mix, shift = _CAL_MIX, _CAL_SHIFT
    np.copyto(mix, _CAL_WORDS)
    with np.errstate(over="ignore"):
        for _ in range(12):
            np.right_shift(mix, np.uint64(30), out=shift)
            np.bitwise_xor(mix, shift, out=mix)
            np.multiply(mix, np.uint64(0xBF58476D1CE4E5B9), out=mix)
    np.copyto(_CAL_FLOAT, mix, casting="unsafe")
    np.sin(_CAL_FLOAT, out=_CAL_FLOAT).sum()
    return perf_counter() - t0


def speed_scale(calibrations: list[float]) -> float:
    """Factor that turns this run's times into reference-machine seconds."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def measure_setup(samples: int) -> tuple[float, float, list[float]]:
    """Median (import + build_parser, import alone) over fresh interpreters,
    and a calibration time taken after each.

    One extra first sample compiles the bytecode cache and is dropped.
    """
    totals, imports, calibrations = [], [], []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise StartError(f"cannot import noisegames.cli: {proc.stderr.strip()[-500:]}")
        total, imported, where = proc.stdout.strip().split(maxsplit=2)
        if not _from_src(where):
            raise StartError(f"noisegames imported from {where}, not {SRC}")
        if i:
            totals.append(float(total))
            imports.append(float(imported))
            calibrations.append(calibration_s())
    return statistics.median(totals), statistics.median(imports), calibrations


def import_cli():
    sys.path.insert(0, str(SRC))
    import noisegames.cli as cli

    if not _from_src(cli.__file__):
        raise StartError(f"noisegames imported from {cli.__file__}, not {SRC}")
    return cli


class Tally:
    """Attempted and failed invocations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: set[str] = set()

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def judge(self, inv, rc: int, text: str, reference: str | None = None) -> None:
        """Count one invocation; it fails on a nonzero exit code, on output
        that differs from ``reference``, or on a failed check."""
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}"]
        elif reference is not None and text != reference:
            problems = ["output differs from the reference run"]
        else:
            try:
                problems = inv.check(text, inv.params)
                if inv.notes:
                    self.notes.update(inv.notes(text))
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check could not read the output: {exc!r}"]
        if problems:
            self.fail(f"{' '.join(inv.argv)}: {'; '.join(problems)}")


def run_pass(cli, invocations, calibrations: list | None = None):
    """Run each invocation once; returns (seconds, outputs, exit codes).

    With ``calibrations``, the calibration kernel is timed after each
    invocation and appended there.
    """
    times, texts, codes = [], [], []
    for inv in invocations:
        buf = io.StringIO()
        gc.collect()
        t0 = perf_counter()
        rc = cli.run(inv.argv, stdout=buf)
        times.append(perf_counter() - t0)
        texts.append(buf.getvalue())
        codes.append(rc)
        if calibrations is not None:
            calibrations.append(calibration_s())
    return times, texts, codes


def summed_medians(samples: list[list[float]]) -> float:
    """Sum over invocations of each invocation's median time."""
    return sum(statistics.median(col) for col in zip(*samples))


def measure(cli, workload, seconds: float, trace: bool, tally: Tally, stem: str) -> dict:
    for inv in workload.warmups:
        _, (text,), (rc,) = run_pass(cli, [inv])
        tally.judge(inv, rc, text)

    invs = workload.invocations
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    layer_samples: list[dict] = []
    calibrations: list[float] = []
    reference: list[str] | None = None
    tracer = None
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        times, texts, codes = run_pass(cli, invs, calibrations)
        untraced.append(times)
        for i, inv in enumerate(invs):
            tally.judge(inv, codes[i], texts[i], reference and reference[i])
        reference = reference or texts
        if trace:
            with Tracer() as tracer:
                times, texts, codes = run_pass(cli, invs)
            traced.append(times)
            for i, inv in enumerate(invs):
                tally.judge(inv, codes[i], texts[i], reference[i])
            layer_samples.append(tracer.layer_metrics())

    for i, twin in workload.twins.items():
        _, (text,), (rc,) = run_pass(cli, [twin])
        tally.judge(twin, rc, text, reference[i])

    scale = speed_scale(calibrations)
    print(f"{len(untraced)} passes; calibration {statistics.median(calibrations):.4f} s"
          f" (scale {scale:.3f}); median raw seconds per invocation:")
    for inv, col in zip(invs, zip(*untraced)):
        print(f"  {statistics.median(col):9.4f}  {' '.join(inv.argv)}")
        print("   ", " ".join(f"{t:.3f}" for t in col))
    if not trace:
        print(f"unscaled wall_s {summed_medians(untraced):.6g} s")
        return {"wall_s": summed_medians(untraced) * scale}
    tracer.dump(stem)
    metrics = {}
    for name in layer_samples[0]:
        values = [sample[name] for sample in layer_samples]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                tally.attempted += 1
                tally.fail(f"trace count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    base = summed_medians(untraced)
    metrics["trace.overhead_frac"] = (summed_medians(traced) - base) / base
    metrics["cli.out_bytes"] = sum(len(t.encode()) for t in reference)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "noisegames" / "cli.py").is_file():
            raise StartError(f"no noisegames sources under {SRC}")
        if args.workload not in WORKLOADS:
            raise StartError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        setup_s, import_s, setup_calibrations = measure_setup(SETUP_SAMPLES)
        cli = import_cli()
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = str(OUT / args.workload)
    values = measure(cli, workload, args.seconds, bool(args.trace), tally, stem)
    if args.trace:
        values["setup.import_s"] = import_s
        units = PER_LAYER_UNITS
    else:
        values["setup_s"] = setup_s * speed_scale(setup_calibrations)
        print(f"unscaled setup_s {setup_s:.6g} s")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':28s} {tally.failed / max(tally.attempted, 1):>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} invocations)")
    for note in sorted(tally.notes):
        print(f"  note: {note}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
