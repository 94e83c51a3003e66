"""Print the CLI's byte ledger: each invocation's exit code and output hash.

The invocations are every benchmark invocation, warm-up and twin
(``bench/workloads.py``) at workload seeds 1, 2026 and 77, each run at
``--threads`` 1, 2 and 3, then the example commands of README.md, and
then runs that reach every path of the finite-law kick samplers, each at
``--threads`` 1 and 2: ``memory`` chains of every kernel at nonzero
epsilon, and delta ``iid`` mixtures from 1 to 300 angles (both sides of
the 255-edge switch to a binary search), uniform and weighted, one of
them with a running weight sum of exactly 1.0 before the last and
one above it, then a wheel game on Z_(2^20 - 1), whose 5 blocks fold
through a window of 2 per pool thread, at ``--threads`` 1, 2 and 16, then
two-block ``dissipative`` Monte Carlo runs over a grid of mixing
probabilities and noise scales, and one from a complex coherence, at ``--threads`` 1 and 2,
then two-block Gaussian ``iid`` curves of 1 and 3 steps (a last kick
without its pair's sine) and an exponential curve, at ``--threads`` 1 and
2, then ``grover`` Monte Carlo runs at ``--threads`` 1 and 2 (fixed
horizons of 0 to 1,000 letters, quarter-pi horizons at 1, 6, 16 and 40
qubits, and adaptive tracking at the optimal ``--k-star`` and at one that
censors), then runs that read both 32-bit halves of their draws, at
``--threads`` 1 and 2 (steps 1, 2, 3 and 20 of delta, Gaussian and
exponential ``iid`` curves and of ``memory`` chains at epsilon 0 and 0.1,
a delta law with a weight of 1e-12, and a 300-angle delta law, whose
branch picks take the binary search on both halves), and after them the
CSV of each subcommand that has one (``iid`` and ``memory`` curves of
3,000 steps, the wheel of ``parrondo --moduli 19,23`` and a ``grover``
curve longer than one ``writers.CHUNK_ROWS`` chunk), each to stdout and
to an ``--out`` file, then ``grover`` Monte Carlo runs of 7 and 5
blocks, more than a window of 2 blocks per pool thread holds, at
``--threads`` 1, 2 and 3, then, at ``--threads`` 1, inputs refused by
every check of a record's constructor that a CLI input can reach (the
state, the noise scales, the search instance and both stopping rules,
each kick law and the wheel's moduli), whose bytes are the exit code and
the message, then noiseless ``iid`` curves of ``cli.CURVE_MAX_STEPS``
kicks, whose pure state's |b| drifts past |b0| by rounding (Gaussian at
mu 0.5 on the exact route, at mu 0.1 and a one-angle delta law by Monte
Carlo), at ``--threads`` 1 and 2, and last a ``--config`` round trip per
subcommand: a Monte Carlo run's ``inputs`` echo, written to a file, run
again with ``--config`` at ``--threads`` 1 and 2.
Each line is ``<exit code> <sha256> <argv>``, where the hash covers what
the run printed to stdout and to stderr and the files it wrote with
``--out`` or read with ``--config``; a round trip's line ends with
``# inputs of`` the argv whose echo it read.  Two checkouts give every
invocation the same exit code and the same output bytes exactly when
their ledgers are equal::

    python3 tools/byte_ledger.py > ledger.txt    # in each checkout
    diff ledger_a.txt ledger_b.txt

Every invocation runs in this process against the ``src`` of the checkout
that holds this file; ``--out`` paths are written in a temporary directory.
The CLI is imported before numpy, so the package binds no family module
at import and each run loads its own family on first use, as a cold
``noisegames`` command does; the script stops at start-up if a family
module is already loaded after that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from noisegames import cli  # noqa: E402

_FAMILIES = ("dissipative", "grover", "kicks", "memory", "parrondo")
_EAGER = [name for name in (f"noisegames.{f}" for f in _FAMILIES) if name in sys.modules]
if _EAGER:
    sys.exit(f"family modules loaded with the CLI, not at their first run: {', '.join(_EAGER)}")

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2026, 77)
THREADS = (1, 2, 3)


def bench_argvs() -> list[list[str]]:
    """Each distinct argv of the benchmark's invocations, in workload order."""
    argvs = {}
    for seed in SEEDS:
        for make in WORKLOADS.values():
            w = make(seed)
            for inv in [*w.invocations, *w.warmups, *w.twins.values()]:
                for threads in THREADS:
                    argv = inv.with_params(threads=threads).argv
                    argvs.setdefault(tuple(argv), argv)
    return list(argvs.values())


def readme_argvs() -> list[list[str]]:
    """The README's example commands, without the leading ``noisegames``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("noisegames ")]


def branch_argvs() -> list[list[str]]:
    """Runs through each branch-picking path, at 1 and 2 threads."""
    common = ["--steps=5", "--trials=70000", "--seed=9"]
    runs = [
        ["memory", f"--variant={variant}", f"--epsilon={eps}", *common]
        for variant in ("pure-a", "pure-b", "combined")
        for eps in ("0.1", "-0.3")
    ]
    for count in (1, 3, 255, 256, 257, 300):
        angles = ",".join(f"{0.01 * j - 1.2:.2f}" for j in range(count))
        total = count * (count + 1) // 2  # unequal weights j / total, summing to 1
        weights = ",".join(repr(j / total) for j in range(1, count + 1))
        runs.append(["iid", "--dist=delta", f"--angles={angles}", *common])
        runs.append(["iid", "--dist=delta", f"--angles={angles}", f"--weights={weights}", *common])
    for weights in ("0.5,0.5,2e-15", "0.6,0.4000000000005,1e-15"):  # a sum of 1.0, then above
        runs.append(["iid", "--dist=delta", "--angles=0.3,-1,2", f"--weights={weights}", *common])
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


def wheel_argvs() -> list[list[str]]:
    """A wheel game of 5 blocks, at 1, 2 and 16 threads (a 4-block window on 2 CPUs)."""
    argv = ["parrondo", "--moduli", "1048575", "--trials", "300000"]
    return [argv + [f"--threads={threads}"] for threads in (1, 2, 16)]


def window_argvs() -> list[list[str]]:
    """Search runs of 7 and 5 blocks, at 1, 2 and 3 threads: more blocks than a window holds."""
    runs = [
        ["grover", "--n-qubits=2", "--strategy=adaptive", "--trials=400000"],
        ["grover", "--n-qubits=4", "--strategy=fixed", "--m=100", "--trials=300000"],
    ]
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2, 3)]


def dissipative_argvs() -> list[list[str]]:
    """Two-block dissipative Monte Carlo runs over p and the noise scales, at 1 and 2 threads."""
    common = ["--trials=70000", "--seed=9"]
    runs = [
        ["dissipative", f"--p={p}", f"--lambda-ad={ad}", f"--lambda-pd={pd}", *common]
        for p in ("0", "0.5", "1")
        for ad in ("0", "1e-4", "1e-2")
        for pd in ("0", "1e-2")
    ]
    runs.append(["dissipative", "--a0=0.3", "--b0-re=0.2", "--b0-im=0.35", *common])
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


def curve_argvs() -> list[list[str]]:
    """Two-block odd-step Gaussian curves and an exponential curve, at 1 and 2 threads."""
    common = ["--trials=70000", "--seed=9"]
    runs = [["iid", "--mu=0.2", "--sigma2=0.3", f"--steps={steps}", *common] for steps in (1, 3)]
    runs.append(["iid", "--dist=exponential", "--omega=0.7", "--tau1=0.5", "--steps=4", *common])
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


def search_argvs() -> list[list[str]]:
    """Search-game Monte Carlo runs of every strategy, at 1 and 2 threads."""
    common = ["--trials=70000", "--seed=9"]
    runs = [["grover", "--n-qubits=6", "--strategy=fixed", f"--m={m}", *common]
            for m in (0, 1, 63, 64, 65, 1000)]
    runs += [["grover", f"--n-qubits={n}", *common] for n in (1, 6, 16)]
    runs.append(["grover", "--n-qubits=40", "--trials=200", "--seed=9"])
    runs.append(["grover", "--n-qubits=6", "--strategy=adaptive", *common])
    # E[T] = 4000 * 4001 letters, far past ADAPTIVE_CAP: all 20 trials are censored
    runs.append(["grover", "--n-qubits=6", "--strategy=adaptive", "--k-star=2000",
                 "--trials=20", "--seed=9"])
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


def halves_argvs() -> list[list[str]]:
    """Runs that take two kicks from each raw draw, at 1 and 2 threads."""
    common = ["--trials=70000", "--seed=9"]
    laws = [
        ["iid", "--dist=delta", "--angles=0.3,-1,2", "--weights=0.5,0.3,0.2"],
        ["iid", "--mu=0.2", "--sigma2=0.3"],
        ["iid", "--dist=exponential", "--omega=0.7", "--tau1=0.5"],
        ["memory", "--epsilon=0"],
        ["memory", "--epsilon=0.1"],
    ]
    runs = [[*law, f"--steps={steps}", *common] for law in laws for steps in (1, 2, 3, 20)]
    # the first angle is drawn with probability 2^-32, not 1e-12
    runs.append(["iid", "--dist=delta", "--angles=0.3,-1", "--weights=1e-12,0.999999999999",
                 "--steps=4", *common])
    angles = ",".join(f"{0.01 * j - 1.2:.2f}" for j in range(300))
    runs.append(["iid", "--dist=delta", f"--angles={angles}", "--steps=4", *common])
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


def csv_argvs() -> list[list[str]]:
    """Each subcommand's CSV, to stdout and to an --out file."""
    runs = [
        ["iid", "--exact", "--steps=3000"],
        ["memory", "--exact", "--steps=3000"],
        ["parrondo", "--moduli=19,23"],
        ["grover", "--n-qubits=24"],  # 6,434 rows
    ]
    return [argv + ["--format=csv", *out] for argv in runs for out in ([], ["--out=curve.csv"])]


def refusal_argvs() -> list[list[str]]:
    """Inputs refused by each record constructor check that a CLI input reaches, at 1 thread."""
    runs = [
        ["dissipative", "--a0=nan"],
        ["dissipative", "--a0=1e17"],  # c = 1 - a0 rounds, so the trace is 0
        ["dissipative", "--a0=1.5"],
        ["iid", "--b0-re=0.9"],
        ["dissipative", "--lambda-pd=-1"],
        ["dissipative", "--lambda-ad=inf"],
        ["grover", "--n-qubits=0"],
        ["grover", "--target=16"],
        ["grover", "--strategy=fixed", "--m=-1"],
        ["grover", "--strategy=adaptive", "--k-star=-1"],
        ["iid", "--sigma2=-1"],
        ["iid", "--mu=inf"],
        ["iid", "--dist=exponential", "--omega=0"],
        ["iid", "--dist=delta", "--angles=0,nan"],
        ["iid", "--dist=delta", "--angles=0,1", "--weights=-0.5,1.5"],
        ["iid", "--dist=delta", "--angles=0,1", "--weights=0.5,0.6"],
        ["iid", "--dist=delta", "--angles=0,1", "--weights=0,0"],
        ["parrondo", "--moduli=4"],
        ["parrondo", "--moduli=3,-7"],
    ]
    return [argv + ["--threads=1"] for argv in runs]


def long_curve_argvs() -> list[list[str]]:
    """Noiseless ``iid`` curves of ``cli.CURVE_MAX_STEPS`` kicks, at 1 and 2 threads."""
    steps = f"--steps={cli.CURVE_MAX_STEPS}"
    runs = [["iid", "--mu=0.5", steps], ["iid", "--mu=0.1", steps, "--trials=2"],
            ["iid", "--dist=delta", "--angles=0.5", steps, "--trials=2"]]
    return [argv + [f"--threads={threads}"] for argv in runs for threads in (1, 2)]


# One Monte Carlo run per subcommand, whose ``inputs`` echo is read back from CONFIG.
CONFIG = "inputs.json"
CONFIG_SOURCES = [
    ["iid", "--dist=delta", "--angles=0.3,-1,2", "--weights=0.5,0.3,0.2", "--steps=5",
     "--trials=1000", "--seed=9"],
    ["memory", "--variant=pure-b", "--epsilon=0.1", "--steps=5", "--trials=1000", "--seed=9"],
    ["dissipative", "--p=0.3", "--a0=0.3", "--b0-re=0.2", "--b0-im=0.35", "--trials=1000",
     "--seed=9"],
    ["parrondo", "--moduli=3,7", "--trials=10000", "--seed=9"],
    ["grover", "--n-qubits=6", "--strategy=adaptive", "--trials=1000", "--seed=9"],
]


def config_runs() -> list[tuple[list[str], list[str]]]:
    """(argv, source): each source's echo run again from ``--config``, at 1 and 2 threads."""
    return [([source[0], f"--config={CONFIG}", f"--threads={threads}"], source)
            for source in CONFIG_SOURCES for threads in (1, 2)]


def entry(argv: list[str], source: list[str] | None = None) -> str:
    """One ledger line for ``argv``, run in a fresh temporary directory.

    With ``source``, that run's ``inputs`` echo is first written to
    ``CONFIG`` there, and the line ends with ``# inputs of`` its argv.
    """
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if source is not None:
                echo = io.StringIO()
                assert cli.run(source, stdout=echo) == 0, source
                Path(CONFIG).write_text(json.dumps(json.loads(echo.getvalue())["inputs"]))
            with contextlib.redirect_stderr(err):
                code = cli.run(argv, stdout=out)
            digest = hashlib.sha256(out.getvalue().encode())
            digest.update(b"\0" + err.getvalue().encode())
            for name in sorted(os.listdir(tmp)):
                digest.update(b"\0" + name.encode() + b"\0" + Path(name).read_bytes())
        finally:
            os.chdir(here)
    line = f"{code} {digest.hexdigest()} {shlex.join(argv)}"
    return line if source is None else f"{line}  # inputs of {shlex.join(source)}"


def main() -> None:
    for argv in [*bench_argvs(), *readme_argvs(), *branch_argvs(), *wheel_argvs(),
                 *dissipative_argvs(), *curve_argvs(), *search_argvs(), *halves_argvs(),
                 *csv_argvs(), *window_argvs(), *refusal_argvs(), *long_curve_argvs()]:
        print(entry(argv), flush=True)
    for argv, source in config_runs():
        print(entry(argv, source), flush=True)


if __name__ == "__main__":
    main()
