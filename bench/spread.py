"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads curve-mc,exact,point-mc --seeds 1-10 \\
        --seconds 30 [--json FILE]

Runs ``bench/run.py`` once per (workload, seed), one after another, prints
every run's metrics with their units and its ``failed_frac``, and prints
for each metric the median and the distance between the first and
third quartiles as a share of the median (``statistics.quantiles(n=4)``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="curve-mc,exact,point-mc")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            results.append(result)
            shown = "  ".join(
                f"{k} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
            )
            failed_frac = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: rc {proc.returncode}  {shown}  "
                  f"failed_frac {failed_frac:.6g} ratio", flush=True)
        runs[workload] = results
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                print(f"  {workload:9s} {name:14s} median {med:.4f}  "
                      f"iqr/median {(q3 - q1) / med:.4f}  "
                      f"range {min(values):.4f}..{max(values):.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
