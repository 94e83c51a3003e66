import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_committed_ledger_lists_the_scripts_invocations():
    # The committed ledger is a header of build lines and then one line per
    # invocation, in the script's order.  Rerunning the invocations
    # (byte_ledger.py --check) takes about 20 s, so only the argv column is
    # checked here, in a fresh interpreter, as the script stops when the
    # CLI's families are already loaded.
    listing = ("import byte_ledger\n"
               "for argv, source in byte_ledger.invocations():\n"
               "    print(byte_ledger.label(argv, source))\n")
    proc = subprocess.run([sys.executable, "-c", listing], cwd=TOOLS,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = (TOOLS / "byte_ledger.txt").read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert lines[:len(header)] == header and header[0].startswith("# numpy ")
    committed = [line.split(" ", 2)[2] for line in lines[len(header):]]
    assert committed == proc.stdout.splitlines()
