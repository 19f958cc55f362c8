"""blobflow benchmark: one workload, end-to-end or traced, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload blob1d_bump --seed 0 --seconds 25 --trace 0

The workload runs as a closed loop with one client: one child process
(``child.py``) at a time does the workload's set-up and one user-facing
run, as a CLI invocation does, and the next starts when it has ended,
until ``--seconds`` have passed and at least ``MIN_RUNS`` runs are done.
Every run's outputs are checked against the reference outputs stored in
``reference.json``; a run fails if it reports not ok, if F' was ever
requested at a negative density, if a checked output left its tolerance,
or if its process crashed.

``--trace 0`` reports the end-to-end metrics, medians over the runs.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics, medians over the traced runs, plus the tracing
overhead: median traced ``run_s`` minus median untraced ``run_s``.

The last line of standard output is the JSON result; the lines before it
are a readable account, including the environment record.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import tail
from workloads import DEFAULT_SEED, WORKLOADS, level_for

HERE = Path(__file__).resolve().parent

MIN_RUNS = 5
BLAS_THREADS = 1
TIME_LIMIT_S = 150.0  # hard stop for child processes, well inside 180 s

# Output tolerances against the stored reference outputs.  Reordered
# floating-point sums move these values by ~1e-12 relative; a coarser grid
# or a dropped term moves them by 1e-5 or more.
REL_TOL = 1e-7
ABS_TOL = 1e-12
POS_TOL = 1e-9
CHECKED = ("w2_vs_ref", "energy_final", "z_l1_sum", "weak_residual_max", "local_residual_max")


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under ``kind``."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("BLOBFLOW_OUTPUT_ROOT", None)
    return env


class Session:
    """Child processes of one workload at one seed, inside a work directory."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.level = level_for(seed)
        root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.work = root / "perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.started = time.monotonic()
        self.count = 0

    def time_left(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, trace: bool = False) -> dict | None:
        """One child process; its report, or None when it crashed or timed out.

        The report's ``setup_s`` is measured from just before the process start.
        """
        self.count += 1
        run_dir = self.work / f"run{self.count}"
        cfg_path = self.work / f"config{self.count}.json"
        cfg_path.write_text(json.dumps(self.wl.config(self.level, str(run_dir))))
        cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path)]
        cmd += ["--diagnose"] * self.wl.diagnose + ["--trace"] * trace
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            print(f"child {self.count}: timed out", flush=True)
            return None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"child {self.count}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", flush=True)
            return None
        rep = json.loads(lines[-1])
        rep["setup_s"] = rep["setup_end"] - t0
        return rep


def check(rep: dict | None, ref: dict | None) -> list:
    """Reasons this run's outputs fail; empty when they pass."""
    if rep is None:
        return ["run crashed or timed out"]
    bad = []
    if not rep["ok"]:
        bad.append(f"run not ok: {rep.get('error')}")
    if rep["neg_prime_calls"] != 0:
        bad.append(f"neg_prime_calls={rep['neg_prime_calls']}")
    if ref is None:
        return bad + ["no stored reference output"]
    for key in CHECKED:
        if key in ref:
            got = rep.get(key)
            if got is None or not abs(got - ref[key]) <= REL_TOL * abs(ref[key]) + ABS_TOL:
                bad.append(f"{key}={got!r}, stored {ref[key]!r}")
    if "positions" in ref:
        got = rep.get("positions")
        worst = (
            max(abs(a - b) for pa, pb in zip(got, ref["positions"]) for a, b in zip(pa, pb))
            if got is not None and len(got) == len(ref["positions"]) else float("inf")
        )
        if not worst <= POS_TOL:
            bad.append(f"final positions differ by {worst:.3e}")
    return bad


def load_reference(workload: str, level: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(level))


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runs: list, names) -> dict:
    return {k: median([r[k] for r in runs]) for k in names}


def per_layer(traced: list, plain: list) -> dict:
    out = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    steps = [s for r in traced for s in r["step_samples"]]
    out["particles.step_s_p50"] = median(steps) if steps else 0.0
    out["particles.step_s_tail"] = tail(steps) if steps else 0.0
    out["runner.csv_bytes"] = median([r["csv_bytes"] for r in traced])
    # quantile placement happens in set-up; the run hits its table cache
    out["reference.quantile_s"] = median([r["setup_layers"]["reference.quantile_s"] for r in traced])
    out["trace.spans"] = median([r["spans"] for r in traced])
    out["trace.overhead_s"] = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in plain])
    return out


def measure(args) -> int:
    if not (Path("src") / "blobflow" / "__init__.py").is_file():
        print("perfbench: run from a blobflow checkout (src/blobflow is missing)", file=sys.stderr)
        return 2
    sess = Session(args.workload, args.seed)
    ref = load_reference(args.workload, sess.level)
    print("environment " + json.dumps(environment()), flush=True)
    print(f"workload {args.workload} seed {args.seed} level {sess.level} "
          f"t0 {sess.wl.t0_for(sess.level)!r} trace {args.trace}", flush=True)

    deadline = time.monotonic() + args.seconds
    plain, traced = [], []
    failures = 0
    while len(plain) < MIN_RUNS or time.monotonic() < deadline:
        if sess.time_left() < 30:
            break
        use_trace = bool(args.trace) and len(traced) < len(plain)
        rep = sess.spawn(trace=use_trace)
        bad = check(rep, ref)
        if bad:
            failures += 1
            print(f"child {sess.count} FAILED: " + "; ".join(bad), flush=True)
        if rep is not None:
            (traced if use_trace else plain).append(rep)
    attempted = sess.count
    shutil.rmtree(sess.work, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print("perfbench: no run completed", file=sys.stderr)
        return 1

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = per_layer(traced, plain)
        print(f"traced runs {len(traced)}, untraced runs {len(plain)}", flush=True)
    else:
        metrics = end_to_end(plain, units)
        for k in ("run_s", "setup_s"):
            print(f"{k} samples ({len(plain)}): " + " ".join(f"{r[k]:.4f}" for r in plain), flush=True)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 1
    for k, v in metrics.items():
        print(f"  {k:32s} {v:.6g} {units[k]}", flush=True)
    print(f"failed_frac {failures}/{attempted}", flush=True)
    result = {
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
