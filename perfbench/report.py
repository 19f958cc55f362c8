"""Every workload in one command: a table of metrics, units and checks.

    python3 perfbench/report.py [--trace 0|1]

Runs ``run.py`` once per workload, one after another, at the default
seed and for ``SECONDS`` each, and prints each metric by name with its
unit, then each workload's failed runs against runs attempted.  Exits 1
if any workload failed its output checks.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE
from workloads import DEFAULT_SEED, WORKLOADS

SECONDS = 25


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(DEFAULT_SEED),
             "--seconds", str(SECONDS), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':32s} {'unit':10s} " + " ".join(f"{n:>16s}" for n in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        print(f"{m:32s} {unit:10s} " + " ".join(f"{results[n]['metrics'][m]['value']:16.6g}" for n in names))
    print(f"{'failed_frac':32s} {'runs':10s} "
          + " ".join(f"{results[n]['failed']:>9d}/{results[n]['attempted']:<6d}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
