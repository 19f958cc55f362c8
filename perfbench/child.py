"""One run of one workload in a fresh interpreter; prints one JSON line.

Usage (from the repository root, as ``run.py`` calls it):

    python3 perfbench/child.py CONFIG.json [--diagnose] [--trace]

Set-up is everything a CLI user pays before the first solver step: the
interpreter start, ``import blobflow``, parsing and validating the config,
initial sampling and the kernel-moment caches.  Its end is reported as a
``time.monotonic`` reading, which the parent subtracts from its own
reading taken just before it started this process.  The run is
``runner.execute`` on the config (plus ``runner.diagnose`` on its
directory), timed with ``perf_counter``: the first and only run of the
process, as a CLI user runs it.  Peak RSS is read right after it.  The
outputs the parent checks, and the W2 distance to the analytic reference,
are computed after that.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from blobflow import runner  # noqa: E402
from blobflow.config import ExperimentConfig  # noqa: E402
from blobflow.kernels import kernel_moments  # noqa: E402
from blobflow.reference import BarenblattProfile  # noqa: E402
from blobflow.transport import w2_1d_positions, w2_assignment_positions  # noqa: E402


def _radial_reference(m: float, t0: float, t: float, side: int) -> np.ndarray:
    """side*side equal-weight points of the 2d Barenblatt profile at time t.

    Radii are the profile's radial quantiles (i + 1/2)/side, each repeated
    at side equally spaced angles.
    """
    prof = BarenblattProfile(m=m, d=2, t0=t0)
    r = np.linspace(0.0, prof.support_radius(t), 200001)
    mass = r * prof.density(t, np.stack([r, np.zeros_like(r)], axis=-1))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (mass[1:] + mass[:-1]) * np.diff(r))])
    radii = np.interp((np.arange(side) + 0.5) / side, cdf / cdf[-1], r)
    angles = 2.0 * np.pi * (np.arange(side) + 0.5) / side
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    return np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=-1)


def outputs(cfg: ExperimentConfig, result, run_dir: str) -> dict:
    """The run's checked outputs and its W2 distance to the reference."""
    dens = cfg.initial_density()
    out = {"ok": bool(result.ok), "error": result.manifest.get("error"),
           "neg_prime_calls": int(result.manifest.get("neg_prime_calls", -1))}
    if result.chain is not None:
        chain = result.chain
        final = chain.states[-1].positions
        ref = dens.quantile_ensemble(final.size, t=chain.horizon).positions
        out["w2_vs_ref"] = w2_1d_positions(final, ref)
        out["energy_final"] = float(chain.records[-1].energy)
    elif result.trajectory is not None:
        traj = result.trajectory
        final = traj.final().positions
        out["energy_final"] = float(traj.diagnostics[-1]["energy"])
        if final.shape[1] == 1:
            ref = dens.quantile_ensemble(final.shape[0], t=cfg.T).positions
            out["w2_vs_ref"] = w2_1d_positions(final, ref)
        else:
            base = dens.axes[0]
            ref = _radial_reference(base.m, base.t0, cfg.T, int(round(np.sqrt(final.shape[0]))))
            out["w2_vs_ref"] = w2_assignment_positions(final, ref)
            out["positions"] = final.tolist()
    if os.path.exists(os.path.join(run_dir, "error_term.csv")):
        def col(name, k):
            return np.loadtxt(os.path.join(run_dir, name), delimiter=",", skiprows=1, ndmin=2)[:, k]

        out["z_l1_sum"] = float(col("error_term.csv", 1).sum())
        out["weak_residual_max"] = float(col("weak_residual.csv", 1).max())
        out["local_residual_max"] = float(col("local_residual.csv", 1).max())
    out["csv_bytes"] = sum(
        os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir) if f.endswith(".csv")
    )
    return out


def main(argv) -> int:
    cfg_path = argv[0]
    recorder = None
    if "--trace" in argv:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        recorder.active = True

    cfg = ExperimentConfig.from_file(cfg_path)
    cfg.initial_ensemble()
    kernel_moments(cfg.kernel_spec())
    report = {"setup_end": time.monotonic()}
    if recorder is not None:
        report["setup_layers"] = tracing.layer_metrics(recorder.spans)
        recorder.spans.clear()

    started = time.perf_counter()
    # looked up on the module, so a traced process records these spans too
    result = runner.execute(cfg, cfg.output_dir)
    if "--diagnose" in argv:
        runner.diagnose(cfg.output_dir)
    report["run_s"] = time.perf_counter() - started
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.active = False
        report["layers"] = tracing.layer_metrics(recorder.spans)
        report["step_samples"] = tracing.step_samples(recorder.spans)
        report["spans"] = len(recorder.spans)
    report.update(outputs(cfg, result, cfg.output_dir))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
