"""One-off measurements recorded in NOTES.md; not benchmark workloads.

    python3 perfbench/oneoff.py      # from the repository root

1. ``runner.converge`` on a two-rung eps ladder with ``threads=2`` against
   ``threads=1``, in ``PAIRS`` alternating pairs, each in a fresh interpreter.
2. ``runner.write_trajectory_csv`` throughput against the number of
   recorded snapshots (N=400, d=1).
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import child_env, environment

WORK = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench" / "oneoff"
PAIRS = 4

CONVERGE = """
import sys, time
sys.path.insert(0, "src")
from blobflow.config import ExperimentConfig
from blobflow.runner import converge
cfg = ExperimentConfig.from_dict({
    "kernel": {"family": "gaussian", "eps": 0.2, "d": 1},
    "energy": {"kind": "power", "m": 2.0},
    "solver": "particle", "n_particles": 400, "integrator": "rk4",
    "dt": 0.001, "T": 0.2, "record_every": 20,
    "initial": {"kind": "quantile", "density": {"kind": "barenblatt", "m": 2.0, "t0": 1.0}},
    "output_dir": sys.argv[2], "sweep": {"eps": [0.2, 0.1]},
})
t = time.perf_counter()
converge(cfg, threads=int(sys.argv[1]))
print(time.perf_counter() - t)
"""


def converge_threads() -> dict:
    times = {1: [], 2: []}
    for k in range(PAIRS):
        for threads in ((1, 2) if k % 2 == 0 else (2, 1)):
            out = WORK / f"converge_{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", CONVERGE, str(threads), str(out)],
                capture_output=True, text=True, env=child_env(), check=True, timeout=600,
            )
            shutil.rmtree(out, ignore_errors=True)
            times[threads].append(float(proc.stdout.strip().splitlines()[-1]))
    return {f"threads_{t}": {"median_s": statistics.median(v), "runs_s": v} for t, v in times.items()}


def csv_throughput() -> list:
    sys.path.insert(0, "src")
    import numpy as np

    from blobflow.particles import ParticleEnsemble, Trajectory
    from blobflow.runner import write_trajectory_csv

    rng = np.random.default_rng(0)
    rows = []
    for snaps in (8, 32, 128, 512):
        traj = Trajectory(
            snapshots=[(0.001 * k, ParticleEnsemble(rng.standard_normal((400, 1)))) for k in range(snaps)],
            diagnostics=[],
        )
        path = WORK / "trajectory.csv"
        samples = []
        for _ in range(3):
            t = time.perf_counter()
            write_trajectory_csv(traj, path)
            samples.append(time.perf_counter() - t)
        sec = statistics.median(samples)
        size = path.stat().st_size
        rows.append({"snapshots": snaps, "rows": 400 * snaps, "bytes": size, "median_s": sec,
                     "rows_per_s": 400 * snaps / sec, "mb_per_s": size / sec / 1e6})
    return rows


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        report = {"environment": environment(), "converge": converge_threads(),
                  "write_trajectory_csv": csv_throughput()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
