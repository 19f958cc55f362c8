"""Run execution and artifact persistence for the experiment harness.

Every run writes into its own directory: trajectory and diagnostics CSVs
plus a manifest JSON echoing the config, library versions, wall time, and
the pass/fail status of the invariants asserted during the run.  Partial
outputs are kept when a run aborts; the failure lands in the manifest.
Every CSV goes through ``grids.write_csv`` (floats as their shortest
round-trip repr), so identical configs reproduce byte-identical artifacts.
"""
from __future__ import annotations

import dataclasses
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, DomainEscapeError
from .fields import (
    TestFunction, error_term_grid, error_term_z, local_weak_form_residual, mollify, mollify_auto, weak_form_residual
)
from .grids import GridField, cover_points, write_csv, write_field_csv
from .jko import JkoChain, StepRecord, flow_interchange_diagnostic, run_jko
from .particles import ParticleEnsemble, Trajectory, simulate, step_plan
from .reference import BarenblattProfile, heat_solution
from .transport import w2

ENERGY_SLACK = 1e-8
COM_TOL = 1e-8


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    d = traj.snapshots[0][1].d
    # each snapshot's time formatted once, as str formats each float cell, not once per particle
    t = np.repeat(np.array([str(float(t)) for t, _ in traj.snapshots], dtype=object), [ens.n for _, ens in traj.snapshots])
    ids = np.concatenate([np.arange(ens.n) for _, ens in traj.snapshots])
    pos = np.concatenate([ens.positions for _, ens in traj.snapshots])
    write_csv(path, "t,id," + ",".join(f"x{a}" for a in range(d)), [t, ids, *pos.T])


def read_trajectory_csv(path) -> Trajectory:
    """The snapshots of a trajectory CSV, whose rows come grouped by snapshot in increasing t."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    d = data.shape[1] - 2
    gaps = np.diff(data[:, 0])
    if np.any(gaps < 0):
        raise ValueError(f"{path}: rows must come grouped by snapshot in increasing t")
    snapshots = []
    for block in np.split(data, np.flatnonzero(gaps) + 1):
        block = block[np.argsort(block[:, 1])]
        t = float(block[0, 0])
        snapshots.append((t, ParticleEnsemble(block[:, 2 : 2 + d], time=t)))
    return Trajectory(snapshots=snapshots, diagnostics=[])


def write_diagnostics_csv(traj: Trajectory, path: Path) -> None:
    d = traj.snapshots[0][1].d
    diag = traj.diagnostics
    col = lambda key: np.array([e[key] for e in diag], dtype=float)
    com = np.array([np.atleast_1d(e["com"]) for e in diag], dtype=float).reshape(len(diag), d)
    header = "t,energy,m2," + ",".join(f"com{a}" for a in range(d)) + ",dw_step"
    write_csv(path, header, [col("t"), col("energy"), col("m2"), *com.T, col("dw_step")])


def particle_invariants(traj: Trajectory, kernel_family: str = "gaussian") -> dict:
    energies = np.array([d["energy"] for d in traj.diagnostics])
    coms = np.array([np.atleast_1d(d["com"]) for d in traj.diagnostics])
    drift = float(np.max(np.abs(coms - coms[0]))) if len(coms) else 0.0
    monotone = bool(np.all(np.diff(energies) <= ENERGY_SLACK))
    # trapezoid force balance is spectrally accurate for the analytic
    # gaussian family only; the C^2 bump kernel caps it at O(h^2 eps^-3)
    com_tol = COM_TOL if kernel_family == "gaussian" else 1e-3
    return {
        "mass_exact": True,  # weights are structural (1/N each, never touched)
        "energy_monotone": monotone,
        "com_drift": drift,
        "com_conserved": drift <= com_tol,
    }


def jko_invariants(chain: JkoChain) -> dict:
    ok_steps = all(
        r.dw2 / (2.0 * chain.tau) + r.energy <= r.energy_prev + 1e-10 * (1.0 + abs(r.energy_prev))
        for r in chain.records
    )
    e = chain.energies()
    return {
        "per_step_energy_inequality": bool(ok_steps),
        "energy_monotone": bool(np.all(np.diff(e) <= 1e-10 * (1.0 + np.abs(e[:-1])))),
        "sorted_states": all(bool(np.all(np.diff(s.positions) >= 0)) for s in chain.states),
        "total_dw2": chain.total_dw2(),
        "dw2_budget": chain.dw2_budget(),
        # slack absorbs the per-step grid jitter in the telescoped energies
        "dw2_within_budget": bool(
            chain.total_dw2()
            <= chain.dw2_budget() + 1e-10 * len(chain.records) * (1.0 + abs(float(chain.energies()[0])))
        ),
        "holder_constant": chain.holder_constant(),
        "max_m2": chain.max_m2(),
    }


@dataclass
class RunResult:
    directory: Path
    manifest: dict
    trajectory: Trajectory | None = None
    chain: JkoChain | None = None

    @property
    def ok(self) -> bool:
        inv = self.manifest.get("invariants", {})
        flags = [v for v in inv.values() if isinstance(v, bool)]
        return self.manifest.get("status") == "ok" and all(flags)


def execute(cfg: ExperimentConfig, out_dir: Path | None = None) -> RunResult:
    """Run one configured experiment and persist its artifacts."""
    out = Path(out_dir) if out_dir is not None else cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": cfg.to_dict(),
        "versions": {"blobflow": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "status": "ok",
        "error": None,
    }
    started = time.perf_counter()
    traj = chain = None
    try:
        kernel = cfg.kernel_spec()
        model = cfg.energy_model()
        quad = cfg.quadrature_spec()
        initial = cfg.initial_ensemble()
        if cfg.solver == "particle":
            try:
                traj = simulate(
                    initial,
                    kernel,
                    model,
                    T=cfg.T,
                    dt=cfg.dt,
                    quad=quad,
                    integrator=cfg.integrator,
                    record_every=cfg.record_every,
                )
            except DomainEscapeError as exc:
                traj = exc.partial  # the snapshots before the escape, written by the finally clause
                raise
            finally:
                if traj is not None:
                    write_trajectory_csv(traj, out / "trajectory.csv")
                    write_diagnostics_csv(traj, out / "diagnostics.csv")
            manifest["invariants"] = particle_invariants(traj, kernel.family)
            manifest["dt"] = step_plan(cfg.T, cfg.dt, cfg.record_every, kernel, model)[1]
        else:
            chain = run_jko(
                initial.positions[:, 0],
                kernel,
                model,
                tau=cfg.tau,
                T=cfg.T,
                quad=quad,
            )
            names = [f.name for f in dataclasses.fields(StepRecord)]
            cols = [[getattr(r, a) for r in chain.records] for a in names]
            write_csv(out / "jko_steps.csv", ",".join(names), cols)
            final = chain.states[-1].positions
            write_csv(out / "final_particles.csv", "id,x", [np.arange(final.size), final])
            manifest["invariants"] = jko_invariants(chain)
        # the mollified density is nonnegative, so F' at a negative argument is a bug
        manifest["invariants"]["neg_prime_free"] = model.neg_prime_calls == 0
        manifest["neg_prime_calls"] = model.neg_prime_calls
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["traceback"] = traceback.format_exc()
    manifest["wall_time_s"] = time.perf_counter() - started
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=float) + "\n")
    return RunResult(directory=out, manifest=manifest, trajectory=traj, chain=chain)


# ---------------------------------------------------------------------------
# diagnostics on a stored trajectory

def diagnose(run_dir, phi: dict | None = None) -> dict:
    """Error-term and weak-form residual suites on a saved trajectory.

    phi holds TestFunction keyword arguments; the family defaults to
    gaussian_bump, the centre to the mean of every recorded position, and
    the width to 1.5 times their largest distance from it (at least 1).
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    if cfg.solver != "particle":
        raise ConfigError(f"the diagnose suites need a particle run's trajectory.csv; {run_dir} holds a {cfg.solver} run")
    kernel = cfg.kernel_spec()
    model = cfg.energy_model()
    quad = cfg.quadrature_spec()
    traj = read_trajectory_csv(run_dir / "trajectory.csv")
    hull = np.concatenate([e.positions for _, e in traj.snapshots])
    center = hull.mean(axis=0)
    width = max(1.0, 1.5 * float(np.max(np.abs(hull - center))))
    try:
        phi = TestFunction(**{"family": "gaussian_bump", "center": center, "width": width, **(phi or {})})
    except ValueError as exc:
        raise ConfigError(f"test function: {exc}") from exc
    if phi.d != hull.shape[1]:
        raise ConfigError(f"test function: the centre has {phi.d} coordinates, the run is {hull.shape[1]}-dimensional")

    reps = [
        error_term_z(ens, kernel, phi, error_term_grid(ens.positions, kernel, phi, quad))
        for _, ens in traj.snapshots
    ]
    z_cols = [[r.l1_norm for r in reps], [r.l1_bound for r in reps], [int(r.pointwise_ok) for r in reps]]
    write_csv(run_dir / "error_term.csv", "t,z_l1,z_l1_bound,pointwise_ok", [traj.times(), *z_cols])

    res = weak_form_residual(traj, kernel, model, phi, quad)
    write_csv(run_dir / "weak_residual.csv", "t,residual", [traj.times(), res])

    grid = quad.grid_for(hull, kernel)
    series = [(t, mollify(e, kernel, grid)) for t, e in traj.snapshots]
    local = local_weak_form_residual(series, model, phi)
    write_csv(run_dir / "local_residual.csv", "t,residual", [traj.times(), local])
    return {
        "error_term": str(run_dir / "error_term.csv"),
        "weak_residual": str(run_dir / "weak_residual.csv"),
        "local_residual": str(run_dir / "local_residual.csv"),
    }


def compare_trajectories(path_a, path_b, out_path) -> list:
    """Distance-vs-time table between two stored trajectories."""
    ta = read_trajectory_csv(path_a)
    tb = read_trajectory_csv(path_b)
    times_b = {round(t, 12): ens for t, ens in tb.snapshots}
    rows = []
    for t, ens in ta.snapshots:
        other = times_b.get(round(t, 12))
        if other is None:
            continue
        rows.append([float(t), w2(ens, other)])
    write_csv(out_path, "t,w2", list(zip(*rows)))
    return rows


# ---------------------------------------------------------------------------
# convergence harness

def converge(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Sweep eps (and particle counts), measure errors against the reference.

    Writes one run directory per sweep entry plus report.csv with tidy rows
    (eps, n, step, metric, value) and summary.json with monotonicity flags
    for each metric along the eps ladder.  Both solvers' rungs are measured
    the same way; only flow_interchange_sum, which needs a JKO chain's
    records, is NaN on a particle rung.
    """
    if not cfg.sweep:
        raise ConfigError("converge needs a sweep section")
    dens = cfg.initial_density()
    model = cfg.energy_model()
    if not isinstance(dens, BarenblattProfile) or model.kind != "power":
        raise ConfigError(
            "missing reference: the convergence harness needs a self-similar "
            "reference (barenblatt initial data with a power-law energy), and the "
            "barenblatt initial density is built in 1d only; this config starts "
            f"from a {type(dens).__name__} in d = {cfg.kernel_spec().d} with a {model.kind} energy"
        )
    eps_list = list(cfg.sweep.get("eps") or [cfg.kernel["eps"]])
    n_list = list(cfg.sweep.get("n_particles") or [cfg.n_particles])
    out_root = cfg.resolved_output_dir()
    out_root.mkdir(parents=True, exist_ok=True)
    phi = TestFunction("gaussian_bump", np.zeros(1), max(1.0, dens.support_radius(cfg.T)))
    quad = cfg.quadrature_spec()

    def rung(job):
        """Run one sweep entry; (eps, n) and its {metric: value}."""
        eps, n = job
        sub = ExperimentConfig.from_dict(
            {
                **cfg.to_dict(),
                "kernel": {**cfg.kernel, "eps": eps},
                "n_particles": n,
                "sweep": None,
                "output_dir": str(out_root / f"eps_{eps}_n_{n}"),
            }
        )
        result = execute(sub)
        if result.manifest["status"] != "ok":
            raise RuntimeError(f"sweep run eps={eps} n={n} failed: {result.manifest['error']}")
        traj, chain = result.trajectory, result.chain
        if chain is None:
            initial, final, t_ref = traj.snapshots[0][1], traj.final(), cfg.T
            metrics = {"energy_final": traj.diagnostics[-1]["energy"], "flow_interchange_sum": float("nan")}
        else:
            initial, final, t_ref = chain.states[0].ensemble(), chain.states[-1].ensemble(), chain.horizon
            metrics = {"energy_final": chain.records[-1].energy, "flow_interchange_sum": flow_interchange_diagnostic(chain).sum_d}
        kernel = sub.kernel_spec()
        vfield = mollify_auto(final, kernel, quad)
        ref_dens = dens.density(t_ref, vfield.grid.axes()[0])
        return job, {
            **metrics,
            "w2_final_vs_reference": w2(final, dens.quantile_ensemble(n, t=t_ref)),
            "l1_final_vs_reference": vfield.integrate(np.abs(vfield.values - ref_dens)),
            "z_eps_l1": error_term_z(final, kernel, phi, error_term_grid(final.positions, kernel, phi, quad)).l1_norm,
            "w2_initial_vs_density": w2(initial, dens.quantile_ensemble(n)),
        }

    from concurrent.futures import ThreadPoolExecutor  # only converge runs rungs in threads; no run pays for the import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        table = dict(pool.map(rung, [(eps, n) for eps in eps_list for n in n_list]))

    step_label = cfg.tau if cfg.solver == "jko" else (cfg.dt if cfg.dt is not None else "auto")
    rows = [[float(eps), int(n), step_label, metric, float(value)] for (eps, n), row in table.items() for metric, value in row.items()]
    rows.sort(key=lambda r: (-r[0], r[1], r[3]))
    write_csv(out_root / "report.csv", "eps,n,step,metric,value", list(zip(*rows)))

    def decreasing(metric, keys):
        """Whether the finite values of metric strictly decrease along the given rungs."""
        finite = [v for v in (table[k][metric] for k in keys) if np.isfinite(v)]
        return bool(len(finite) >= 2 and all(a > b for a, b in zip(finite, finite[1:])))

    rungs = sorted(table)
    summary = {"monotone_in_eps": {}, "monotone_in_n": {}, "eps": eps_list, "n_particles": n_list}
    for metric in ("w2_final_vs_reference", "l1_final_vs_reference", "z_eps_l1"):
        for n in n_list:
            summary["monotone_in_eps"][f"{metric}_n{n}"] = decreasing(metric, [k for k in reversed(rungs) if k[1] == n])
    for metric in ("w2_final_vs_reference", "w2_initial_vs_density"):
        for eps in eps_list:
            summary["monotone_in_n"][f"{metric}_eps{eps}"] = decreasing(metric, [k for k in rungs if k[0] == eps])
    (out_root / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return {"report": str(out_root / "report.csv"), "summary": summary, "rows": rows}


# the options of each reference kind, with their defaults
REFERENCE_DEFAULTS = {"barenblatt": {"m": 2.0, "t0": 1.0, "mass": 1.0}, "heat": {"sigma2": 1.0}}


def emit_reference(kind: str, out_path, *, m=None, t0=None, mass=None, sigma2=None, t=0.0, spacing=0.01) -> None:
    """Sample a reference profile onto a grid and persist it as CSV.

    m, t0 and mass set the barenblatt profile, sigma2 the heat one, each
    defaulting as ``REFERENCE_DEFAULTS`` says; t is the sampling time and
    spacing the grid's.  An option of the other kind raises ConfigError,
    naming it and its kind, before anything is written.
    """
    given = {"m": m, "t0": t0, "mass": mass, "sigma2": sigma2}
    if kind not in REFERENCE_DEFAULTS:
        raise ConfigError(f"unknown reference kind {kind!r}")
    for owner, defaults in REFERENCE_DEFAULTS.items():
        for name in defaults:
            if owner != kind and given[name] is not None:
                raise ConfigError(f"reference option {name!r} sets the {owner} profile; kind {kind!r} does not take it")
    opts = {name: float(value if given[name] is None else given[name]) for name, value in REFERENCE_DEFAULTS[kind].items()}
    t, spacing = float(t), float(spacing)
    if kind == "barenblatt":
        fld = BarenblattProfile(d=1, **opts).sample_field(t, spacing)
    else:
        grid = cover_points(np.zeros((1, 1)), 8.0 * np.sqrt(opts["sigma2"] + 2.0 * t), spacing)
        fld = GridField(grid, heat_solution(t, grid.axes()[0], opts["sigma2"]))
    write_field_csv(fld, out_path)
