import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def in_tools(script: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter run in ``tools/``.

    A fresh one, as byte_ledger.py stops when the CLI's families are
    already loaded.
    """
    proc = subprocess.run([sys.executable, "-c", script], cwd=TOOLS,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def committed() -> tuple[list[str], list[str]]:
    """The committed ledger's header and its invocation lines."""
    lines = (TOOLS / "byte_ledger.txt").read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert lines[:len(header)] == header and header[0].startswith("# numpy ")
    return header, lines[len(header):]


def test_committed_ledger_lists_the_scripts_invocations():
    # The committed ledger is a header of build lines and then one line per
    # invocation, in the script's order; only the argv column is checked here.
    listing = ("import byte_ledger\n"
               "for argv, source in byte_ledger.invocations():\n"
               "    print(byte_ledger.label(argv, source))\n")
    _, lines = committed()
    assert [line.split(" ", 2)[2] for line in lines] == in_tools(listing)


def test_fast_ledger_groups_keep_their_bytes():
    # Rerunning the whole ledger (byte_ledger.py --check) takes about 25 s;
    # these groups, 162 lines, take about 2 s and leave out only the bench,
    # branch, window and long-curve groups.  As with --check, a ledger made
    # on another build is no reference.
    rerun = ("import byte_ledger as b\n"
             "argvs = [*b.readme_argvs(), *b.wheel_argvs(), *b.dissipative_argvs(),\n"
             "         *b.curve_argvs(), *b.search_argvs(), *b.halves_argvs(), *b.csv_argvs(),\n"
             "         *b.refusal_argvs()]\n"
             "print(*b.header(), sep='\\n')\n"
             "for argv, source in [(argv, None) for argv in argvs] + b.config_runs():\n"
             "    print(b.entry(argv, source))\n")
    header, lines = committed()
    got = in_tools(rerun)
    if got[:len(header)] != header:
        pytest.skip("byte_ledger.txt was made on another build (see its header)")
    want = {line.split(" ", 2)[2]: line for line in lines}
    entries = got[len(header):]
    assert len(entries) == 162
    assert [line for line in entries if want[line.split(" ", 2)[2]] != line] == []
