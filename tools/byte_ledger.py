"""Print the CLI's byte ledger: each invocation's exit code and output hash.

The invocations are every benchmark invocation, warm-up and twin
(``bench/workloads.py``) at workload seeds 1, 2026 and 77, each run at
``--threads`` 1, 2 and 3, and then the example commands of README.md.
Each line is ``<exit code> <sha256> <argv>``, where the hash covers what
the run printed to stdout and to stderr and the file it wrote with
``--out``.  Two checkouts give every invocation the same exit code and the
same output bytes exactly when their ledgers are equal::

    python3 tools/byte_ledger.py > ledger.txt    # in each checkout
    diff ledger_a.txt ledger_b.txt

Every invocation runs in this process against the ``src`` of the checkout
that holds this file; ``--out`` paths are written in a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from noisegames import cli  # noqa: E402
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


def entry(argv: list[str]) -> str:
    """One ledger line for ``argv``, run in a fresh temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err):
                code = cli.run(argv, stdout=out)
            digest = hashlib.sha256(out.getvalue().encode())
            digest.update(b"\0" + err.getvalue().encode())
            for name in sorted(os.listdir(tmp)):
                digest.update(b"\0" + name.encode() + b"\0" + Path(name).read_bytes())
        finally:
            os.chdir(here)
    return f"{code} {digest.hexdigest()} {shlex.join(argv)}"


def main() -> None:
    for argv in [*bench_argvs(), *readme_argvs()]:
        print(entry(argv), flush=True)


if __name__ == "__main__":
    main()
