import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from blobflow.cli import main
from blobflow.config import ExperimentConfig
from blobflow.energy import EnergyModel
from blobflow.errors import ConfigError, SizeLimitError
from blobflow.grids import Grid, GridField, QuadratureSpec, write_csv, write_field_csv
from blobflow.kernels import MollifierSpec
from blobflow.particles import ParticleEnsemble, Trajectory
from blobflow.reference import BarenblattProfile
from blobflow.runner import (
    compare_trajectories, converge, diagnose, emit_reference, execute, read_trajectory_csv, write_trajectory_csv,
)
from blobflow.transport import w2


def particle_config(out, **overrides):
    cfg = {
        "kernel": {"family": "gaussian", "eps": 0.2, "d": 1},
        "energy": {"kind": "power", "m": 2.0},
        "solver": "particle",
        "n_particles": 8,
        "T": 0.01,
        "dt": 1e-3,
        "record_every": 5,
        "initial": {"kind": "quantile", "density": {"kind": "barenblatt", "t0": 1.0}},
        "output_dir": str(out),
    }
    cfg.update(overrides)
    return cfg


def _read_field(path) -> GridField:
    """A gridded field from its documented CSV (value last) and its .meta.json sidecar."""
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    grid = Grid(np.asarray(meta["origin"]), meta["spacing"], tuple(meta["extents"]))
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]
    return GridField(grid, values.reshape(grid.shape))


def test_validation_reports_all_errors_at_once():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            particle_config("x", n_particles=0, T=-1.0, integrator="magic", record_every=0)
        )
    msg = str(err.value)
    for frag in ("n_particles", "T:", "integrator", "record_every"):
        assert frag in msg


def test_validation_rejects_unknown_keys_and_entropy_bump():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**particle_config("x"), "bogus": 1})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(
            particle_config(
                "x",
                kernel={"family": "bump", "eps": 0.2, "d": 1},
                energy={"kind": "entropy"},
            )
        )
    assert "gaussian" in str(err.value)


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"quadrature": {"pad_factor": 2}}, "pad_factor"),  # padding is the kernel's support radius
        ({"quadrature": {"h_over_esp": 0.25}}, "h_over_esp"),
        ({"seed": 0}, "seed"),  # every sampler is deterministic
        # every section is one constructor's keyword arguments: a typo is not a default
        ({"kernel": {"famly": "bump", "eps": 0.2, "d": 1}}, "famly"),
        ({"kernel": {"family": "gaussian", "eps": 0.2, "d": 1.5}}, "integer 1 or 2"),
        ({"energy": {"kind": "power", "exponent": 1.5}}, "exponent"),
        ({"energy": {"kind": "power", "m": 2.0, "neg_prime_calls": 0}}, "neg_prime_calls"),
        ({"initial": {"kind": "quantile", "density": {"kind": "barenblatt", "t_0": 0.25}}}, "t_0"),
        ({"initial": {"kind": "quantile", "densty": {"kind": "gaussian"}}}, "densty"),
        ({"initial": {"kind": "sobol", "density": {"kind": "uniform"}}}, "sampler kind"),
        ({"initial": {"kind": "quantile", "density": {"kind": "cauchy"}}}, "density kind"),
        ({"initial": {"kind": "uniform_grid", "density": {"kind": "gaussian"}}}, "uniform_grid"),
        ({"initial": {"kind": "quantile", "density": {"kind": "product", "axes": [{}, {}]}}, "n_particles": 9},
         "does not match kernel d=1"),
        ({"kernel": {"family": "gaussian", "eps": 0.2, "d": 2}, "n_particles": 8,
          "initial": {"kind": "quantile", "density": {"kind": "product", "axes": [{}, {}]}}}, "square"),
        ({"kernel": {"family": "gaussian", "eps": 0.2, "d": 2}, "n_particles": 16,
          "initial": {"density": {"kind": "product", "axes": [{"kind": "product", "axes": [{}, {}]}, {}]}}},
         "one-dimensional axis"),
        ({"quadrature": {"domain": [[3.0, -3.0], [0, 1]]}}, "lo < hi"),
        ({"quadrature": {"domain": [[-3.0, 3.0], [0, 1]]}}, "domain gives 2 axes, kernel d=1"),
        ({"T": "x"}, "T:"),
        ({"quadrature": {"h_over_eps": 0}}, "h_over_eps"),
        ({"quadrature": {"h_over_eps": -0.25}}, "h_over_eps"),
        ({"quadrature": {"h_over_eps": float("nan")}}, "h_over_eps"),
        ({"quadrature": {"h_over_eps": "x"}}, "h_over_eps"),
        ({"kernel": {"family": "gaussian", "eps": float("inf"), "d": 1}}, "finite"),
    ],
)
def test_validation_rejects_removed_and_misspelt_knobs(extra, key):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({**particle_config("x"), **extra})
    assert key in str(err.value)


def test_readme_schema_lists_exactly_the_config_knobs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    schema = json.loads(re.sub(r"//[^\n]*", "", block))
    assert list(schema) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert set(schema["quadrature"]) == {f.name for f in dataclasses.fields(QuadratureSpec)}
    assert set(schema["kernel"]) == {f.name for f in dataclasses.fields(MollifierSpec) if f.init}
    assert set(schema["energy"]) == {f.name for f in dataclasses.fields(EnergyModel) if f.init}
    ExperimentConfig.from_dict(schema)  # the documented example validates


def test_tau_cap_message_carries_computed_cap():
    cfg = particle_config("x", solver="jko", tau=0.5)
    cfg.pop("dt")
    cfg.pop("record_every")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(cfg)
    assert "0.176" in str(err.value)


def test_execute_writes_artifacts_and_is_reproducible(tmp_path):
    cfg_a = ExperimentConfig.from_dict(particle_config(tmp_path / "a"))
    cfg_b = ExperimentConfig.from_dict(particle_config(tmp_path / "b"))
    ra = execute(cfg_a)
    rb = execute(cfg_b)
    assert ra.ok and rb.ok
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["invariants"]["energy_monotone"]
    traj = read_trajectory_csv(tmp_path / "a" / "trajectory.csv")
    assert traj.snapshots[0][1].n == 8
    assert len(traj.snapshots) == 3


def test_execute_jko_artifacts(tmp_path):
    cfg = particle_config(tmp_path / "j", solver="jko", tau=1e-3, T=0.005)
    cfg.pop("dt")
    cfg.pop("record_every")
    result = execute(ExperimentConfig.from_dict(cfg))
    assert result.ok
    steps = (tmp_path / "j" / "jko_steps.csv").read_text().splitlines()
    assert steps[0] == "n,energy_prev,energy,dw2,entropy,fi_term,mass_term,inner_iterations,grad_sup"
    assert len(steps) == 6
    assert (tmp_path / "j" / "final_particles.csv").exists()


def counting_quantiles(monkeypatch):
    """The calls of BarenblattProfile.cdf_inverse from now on, in a list that grows as they happen."""
    calls = []
    cdf_inverse = BarenblattProfile.cdf_inverse

    def counted(self, *args, **kwargs):
        calls.append(self)
        return cdf_inverse(self, *args, **kwargs)

    monkeypatch.setattr(BarenblattProfile, "cdf_inverse", counted)
    return calls


@pytest.mark.parametrize("solver", ["particle", "jko"])
def test_a_run_samples_its_start_once(tmp_path, monkeypatch, solver):
    # validation samples the start, and execute reuses that sample
    calls = counting_quantiles(monkeypatch)
    raw = particle_config(tmp_path / "a") if solver == "particle" else jko_config(tmp_path / "a", T=0.003)
    assert execute(ExperimentConfig.from_dict(raw)).ok
    assert len(calls) == 1


def test_a_config_changed_after_validation_samples_afresh(tmp_path, monkeypatch):
    calls = counting_quantiles(monkeypatch)
    cfg = ExperimentConfig.from_dict(particle_config(tmp_path / "a"))
    changed = {
        "replaced n_particles": dataclasses.replace(cfg, n_particles=12, output_dir=str(tmp_path / "b")),
        "replaced initial": dataclasses.replace(
            cfg, initial={"kind": "quantile", "density": {"kind": "barenblatt", "t0": 2.0}}, output_dir=str(tmp_path / "c")),
    }
    assert len(calls) == 1
    for name, other in changed.items():
        start = execute(other).trajectory.snapshots[0][1].positions
        fresh = ExperimentConfig.from_dict({**other.to_dict(), "output_dir": str(tmp_path / "fresh")})
        assert np.array_equal(start, fresh.initial_ensemble().positions), name
    assert len(calls) == 1 + 2 * len(changed)
    # in place too: an assigned field, or a nested key of a section
    cfg.n_particles = 10
    assert cfg.initial_ensemble().n == 10
    cfg.initial["density"]["t0"] = 3.0
    assert np.array_equal(
        cfg.initial_ensemble().positions,
        ExperimentConfig.from_dict({**cfg.to_dict(), "output_dir": "x"}).initial_ensemble().positions,
    )
    assert cfg.initial_density().t0 == 3.0 and len(calls) == 1 + 2 * len(changed) + 3


@pytest.mark.parametrize("solver", ["particle", "jko"])
def test_negative_f_prime_fails_the_run(tmp_path, monkeypatch, solver):
    f_prime = EnergyModel.f_prime

    def leaky(self, x):
        f_prime(self, np.array([-1.0]))  # registers one negative argument
        return f_prime(self, x)

    monkeypatch.setattr(EnergyModel, "f_prime", leaky)
    cfg = particle_config(tmp_path / "run", T=0.002, record_every=1)
    if solver == "jko":
        cfg.update(solver="jko", tau=1e-3)
        cfg.pop("dt")
        cfg.pop("record_every")
    result = execute(ExperimentConfig.from_dict(cfg))
    assert result.manifest["status"] == "ok" and result.manifest["neg_prime_calls"] > 0
    assert result.manifest["invariants"]["neg_prime_free"] is False
    assert not result.ok
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate" if solver == "particle" else "jko", "--config", str(path)]) == 1


def test_failed_run_preserves_manifest(tmp_path):
    # pinned domain too small for the kernel support: abort is recorded
    cfg = particle_config(
        tmp_path / "f", quadrature={"domain": [[-0.5, 0.5]]}, n_particles=4
    )
    result = execute(ExperimentConfig.from_dict(cfg))
    assert result.manifest["status"] == "error"
    assert not result.ok
    assert (tmp_path / "f" / "manifest.json").exists()


def test_domain_escape_keeps_its_traceback(tmp_path):
    # the box covers the initial data but not the spreading front (escape at step 8)
    cfg = particle_config(tmp_path / "f", quadrature={"domain": [[-3.05, 3.05]]})
    manifest = execute(ExperimentConfig.from_dict(cfg)).manifest
    assert manifest["error"].startswith("DomainEscapeError: particles escaped the quadrature box at step 8")
    assert json.loads((tmp_path / "f" / "manifest.json").read_text())["traceback"] == manifest["traceback"]
    assert "DomainEscapeError" in manifest["traceback"]
    assert "in simulate" in manifest["traceback"]


def test_domain_escape_keeps_the_snapshots_before_it(tmp_path):
    # same escape as above: the snapshots at t = 0 and t = 0.005 precede step 8
    cfg = particle_config(tmp_path / "f", quadrature={"domain": [[-3.05, 3.05]]})
    manifest = execute(ExperimentConfig.from_dict(cfg)).manifest
    assert manifest["error"] and manifest["traceback"]
    traj = (tmp_path / "f" / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 1 + 2 * 8
    assert read_trajectory_csv(tmp_path / "f" / "trajectory.csv").times().tolist() == [0.0, 0.005]
    assert len((tmp_path / "f" / "diagnostics.csv").read_text().splitlines()) == 1 + 2
    on_disk = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert on_disk["error"] == manifest["error"] and on_disk["traceback"] == manifest["traceback"]


def test_domain_escape_at_a_recorded_snapshot_keeps_the_snapshots_before_it(tmp_path):
    # recorded every step, the escape is seen by the snapshot's own deposit after step 8
    cfg = particle_config(
        tmp_path / "f", quadrature={"domain": [[-3.05, 3.05]]}, integrator="euler", record_every=1
    )
    manifest = execute(ExperimentConfig.from_dict(cfg)).manifest
    assert manifest["error"].startswith("DomainEscapeError: particles escaped the quadrature box at step 8")
    times = read_trajectory_csv(tmp_path / "f" / "trajectory.csv").times()
    np.testing.assert_allclose(times, 1e-3 * np.arange(8), rtol=0, atol=1e-15)
    assert len((tmp_path / "f" / "diagnostics.csv").read_text().splitlines()) == 1 + 8
    on_disk = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert on_disk["error"] == manifest["error"] and on_disk["traceback"] == manifest["traceback"]


def test_integer_eps_and_m_run_the_float_experiment(tmp_path):
    spelt = {
        "int": ({"family": "gaussian", "eps": 1, "d": 1}, {"kind": "power", "m": 3}),
        "float": ({"family": "gaussian", "eps": 1.0, "d": 1}, {"kind": "power", "m": 3.0}),
    }
    for name, (kernel, energy) in spelt.items():
        cfg = particle_config(tmp_path / name, kernel=kernel, energy=energy, dt=None, record_every=1)
        assert execute(ExperimentConfig.from_dict(cfg)).ok
    for artifact in ("trajectory.csv", "diagnostics.csv"):
        assert (tmp_path / "int" / artifact).read_bytes() == (tmp_path / "float" / artifact).read_bytes()


def test_manifest_records_the_integrated_step(tmp_path):
    # dt=0.001 does not divide T=0.0025: simulate takes three steps of T/3
    result = execute(ExperimentConfig.from_dict(particle_config(tmp_path / "r", T=0.0025, record_every=1)))
    assert result.manifest["dt"] == 0.0025 / 3
    assert np.diff(result.trajectory.times()) == pytest.approx([result.manifest["dt"]] * 3, rel=1e-12)


def test_converge_is_independent_of_thread_count(tmp_path):
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        cfg = particle_config(out, n_particles=16, T=0.004, record_every=4, sweep={"eps": [0.4, 0.2]})
        converge(ExperimentConfig.from_dict(cfg), threads=threads)
        outputs.append([(out / name).read_bytes() for name in ("report.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOBFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = ExperimentConfig.from_dict(particle_config("rel/run"))
    assert cfg.resolved_output_dir() == tmp_path / "root" / "rel" / "run"


def test_cli_simulate_and_diagnose(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(particle_config(tmp_path / "run", n_particles=6)))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["diagnose", str(tmp_path / "run")]) == 0
    for name in ("error_term.csv", "weak_residual.csv", "local_residual.csv"):
        assert (tmp_path / "run" / name).exists()


def test_cli_solver_mismatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(particle_config(tmp_path / "run")))
    assert main(["jko", "--config", str(path)]) == 2


def test_cli_compare(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(particle_config(tmp_path / "r1", n_particles=6)))
    main(["simulate", "--config", str(path)])
    path.write_text(json.dumps(particle_config(tmp_path / "r2", n_particles=6, kernel={"family": "gaussian", "eps": 0.3, "d": 1})))
    main(["simulate", "--config", str(path)])
    out = tmp_path / "cmp.csv"
    assert main(["compare", str(tmp_path / "r1" / "trajectory.csv"), str(tmp_path / "r2" / "trajectory.csv"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,w2"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 0.0  # identical initial data


def test_compare_2d_needs_equal_counts_within_the_assignment_cap(tmp_path):
    def stored(name, pos):
        write_trajectory_csv(Trajectory([(0.0, ParticleEnsemble(np.asarray(pos, dtype=float)))], []), tmp_path / name)
        return tmp_path / name

    two = stored("two.csv", [[0, 0], [0, 0]])
    four = stored("four.csv", [[0, 0], [0, 0], [5, 5], [5, 5]])
    with pytest.raises(ValueError, match="particle counts differ"):
        compare_trajectories(two, four, tmp_path / "cmp.csv")
    big = stored("big.csv", np.zeros((513, 2)))
    with pytest.raises(SizeLimitError):
        compare_trajectories(big, big, tmp_path / "cmp.csv")


def test_cli_reference_roundtrip(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(["reference", "--kind", "barenblatt", "--m", "2", "--t0", "1", "--spacing", "0.002", "--out", str(out)]) == 0
    field = _read_field(out)
    assert field.mass() == pytest.approx(1.0, abs=1e-6)  # trapezoid kink error ~ h^2
    assert main(["reference", "--kind", "heat", "--sigma2", "1.0", "--t", "0.2", "--out", str(tmp_path / "h.csv")]) == 0


def test_emit_reference_rejects_a_misspelt_keyword(tmp_path):
    with pytest.raises(TypeError, match="spacng"):
        emit_reference("heat", tmp_path / "h.csv", spacng=0.5)
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize(
    "kind,option,owner", [("heat", ["--m", "3"], "barenblatt"), ("barenblatt", ["--sigma2", "9"], "heat")]
)
def test_cli_reference_rejects_the_other_kinds_option(tmp_path, capsys, kind, option, owner):
    out = tmp_path / "ref.csv"
    assert main(["reference", "--kind", kind, *option, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(option[0].lstrip("-")) in err and owner in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["barenblatt", "heat"])
def test_cli_reference_defaults_are_emit_references(tmp_path, kind):
    assert main(["reference", "--kind", kind, "--out", str(tmp_path / "cli.csv")]) == 0
    emit_reference(kind, tmp_path / "api.csv")
    for suffix in ("", ".meta.json"):
        assert (tmp_path / f"cli.csv{suffix}").read_bytes() == (tmp_path / f"api.csv{suffix}").read_bytes()


def test_field_csv_roundtrip(tmp_path):
    grid = Grid(np.array([-1.0, 0.0]), 0.5, (3, 4))
    field = GridField(grid, np.arange(12.0).reshape(3, 4))
    write_field_csv(field, tmp_path / "f.csv")
    back = _read_field(tmp_path / "f.csv")
    np.testing.assert_array_equal(back.values, field.values)
    assert back.grid.shape == (3, 4)
    assert back.grid.spacing == 0.5


def test_trajectory_csv_roundtrip_and_row_order(tmp_path):
    rng = np.random.default_rng(0)
    snaps = [(t, ParticleEnsemble(rng.normal(size=(5, 2)), time=t)) for t in (0.0, 0.1, 0.30000000000000004)]
    write_trajectory_csv(Trajectory(snapshots=snaps, diagnostics=[]), tmp_path / "t.csv")
    back = read_trajectory_csv(tmp_path / "t.csv")
    assert back.times().tolist() == [t for t, _ in snaps]
    for (_, a), (_, b) in zip(snaps, back.snapshots):
        np.testing.assert_array_equal(a.positions, b.positions)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "r.csv").write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    with pytest.raises(ValueError, match="increasing t"):
        read_trajectory_csv(tmp_path / "r.csv")


def test_trajectory_csv_formats_each_time_as_its_float_cells_would(tmp_path):
    rng = np.random.default_rng(1)
    snaps = [(t, ParticleEnsemble(rng.normal(size=(4, 2)), time=t)) for t in (0.1 + 0.2, 1e-7, 3.0, np.float64(1 / 3))]
    write_trajectory_csv(Trajectory(snapshots=snaps, diagnostics=[]), tmp_path / "t.csv")
    # one float cell per row, formatted by write_csv
    t = np.concatenate([np.full(ens.n, float(t)) for t, ens in snaps])
    ids = np.concatenate([np.arange(ens.n) for _, ens in snaps])
    pos = np.concatenate([ens.positions for _, ens in snaps])
    write_csv(tmp_path / "cells.csv", "t,id,x0,x1", [t, ids, *pos.T])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_cli_converge(tmp_path):
    cfg = particle_config(
        tmp_path / "sweep",
        n_particles=32,
        T=0.01,
        dt=1e-3,
        record_every=10,
        sweep={"eps": [0.4, 0.3, 0.2]},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path), "--threads", "2"]) == 0
    report = (tmp_path / "sweep" / "report.csv").read_text().splitlines()
    assert report[0] == "eps,n,step,metric,value"
    assert len(report) > 6
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert "monotone_in_eps" in summary
    assert "monotone_in_n" in summary
    # three sweep entries: three run directories plus one report
    for eps in (0.4, 0.3, 0.2):
        assert (tmp_path / "sweep" / f"eps_{eps}_n_32" / "manifest.json").exists()


def test_cli_converge_refuses_a_repeated_sweep_value(tmp_path, capsys):
    # two rungs of one value would run into one directory, at the same time with --threads 2
    cfg = particle_config(tmp_path / "sweep", sweep={"eps": [0.4, 0.4, 0.2], "n_particles": [8, 16, 8]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "sweep: eps lists 0.4 more than once" in err and "sweep: n_particles lists 8 more than once" in err
    assert not (tmp_path / "sweep").exists()
    with pytest.raises(ConfigError) as err:  # a value is named once, however often it repeats
        ExperimentConfig.from_dict(particle_config("x", sweep={"eps": [0.4, 0.2, 0.4, 0.4]}))
    assert str(err.value).count("more than once") == 1


def test_cli_converge_jko(tmp_path):
    cfg = particle_config(tmp_path / "jsweep", solver="jko", tau=1e-3, T=0.003, n_particles=16, sweep={"eps": [0.4, 0.2]})
    cfg.pop("dt")
    cfg.pop("record_every")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path)]) == 0
    report = (tmp_path / "jsweep" / "report.csv").read_text()
    assert "flow_interchange_sum" in report


def test_converge_measures_a_jko_rung_from_its_chain(tmp_path):
    # a uniform_grid start is not the density's quantile ensemble, so the rung's initial W2 is nonzero
    start = {"kind": "uniform_grid", "density": {"kind": "barenblatt", "t0": 1.0}}
    cfg = particle_config(tmp_path / "sweep", solver="jko", tau=1e-3, T=0.003, n_particles=16, initial=start, sweep={"eps": [0.2]})
    cfg.pop("dt")
    cfg.pop("record_every")
    got = {metric: value for _, _, _, metric, value in converge(ExperimentConfig.from_dict(cfg))["rows"]}
    rung = ExperimentConfig.from_dict({**cfg, "sweep": None, "output_dir": str(tmp_path / "rung")})
    initial = execute(rung).chain.states[0].ensemble()
    assert got["w2_initial_vs_density"] == w2(initial, rung.initial_density().quantile_ensemble(16)) > 0
    assert np.isfinite(got["z_eps_l1"])


def test_cli_converge_requires_reference(tmp_path):
    cfg = particle_config(
        tmp_path / "sweep2",
        initial={"kind": "quantile", "density": {"kind": "gaussian"}},
        sweep={"eps": [0.4, 0.2]},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path)]) == 2


def test_converge_names_the_1d_only_reference_on_a_2d_start(tmp_path):
    baren = {"kind": "barenblatt", "t0": 1.0}
    cfg = particle_config(
        tmp_path / "sweep2d",
        kernel={"family": "gaussian", "eps": 0.3, "d": 2},
        n_particles=16,
        initial={"kind": "quantile", "density": {"kind": "product", "axes": [baren, baren]}},
        sweep={"eps": [0.4, 0.3]},
    )
    with pytest.raises(ConfigError) as err:
        converge(ExperimentConfig.from_dict(cfg))
    msg = str(err.value)
    assert msg.startswith("missing reference")
    for frag in ("built in 1d only", "ProductDensity", "d = 2", "power energy"):
        assert frag in msg
    assert not (tmp_path / "sweep2d").exists()


def test_cli_accept_single(capsys):
    assert main(["accept", "--criterion", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 6")


@pytest.mark.parametrize("criterion", ["foo", "99"])
def test_cli_accept_refuses_an_unknown_criterion_with_a_usage_line(capsys, criterion):
    with pytest.raises(SystemExit) as exit_:
        main(["accept", "--criterion", criterion])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def jko_config(out, **overrides):
    cfg = particle_config(out, solver="jko", tau=1e-3)
    cfg.pop("dt")
    cfg.pop("record_every")
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("key, value", [("dt", 0.005), ("integrator", "euler"), ("record_every", 3)])
def test_jko_config_refuses_particle_keys(key, value):
    ExperimentConfig.from_dict(jko_config("x"))
    with pytest.raises(ConfigError, match=rf"{key}: only the particle solver reads it"):
        ExperimentConfig.from_dict(jko_config("x", **{key: value}))


def test_jko_config_names_every_particle_key():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(jko_config("x", dt=0.005, integrator="euler", record_every=3))
    assert all(f"{key}: only the particle solver" in str(err.value) for key in ("dt", "integrator", "record_every"))


def test_particle_config_refuses_tau():
    with pytest.raises(ConfigError, match="tau: only the jko solver reads it"):
        ExperimentConfig.from_dict(particle_config("x", tau=1e-3))


def test_manifest_echoes_of_both_solvers_revalidate(tmp_path):
    # converge and diagnose rebuild configs from to_dict(), which carries every key
    for cfg in (particle_config(tmp_path / "p"), jko_config(tmp_path / "j")):
        ExperimentConfig.from_dict(ExperimentConfig.from_dict(cfg).to_dict())


def test_invalid_energy_m_is_reported_once():
    # the barenblatt takes its m from the energy section; only that section is at fault
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(particle_config("x", energy={"kind": "power", "m": 0.5}))
    assert "energy: power-law exponent must exceed 1" in str(err.value)
    assert "initial:" not in str(err.value)
    # an error of the initial section's own still shows next to it
    bad_t0 = {"kind": "quantile", "density": {"kind": "barenblatt", "t0": -1.0}}
    with pytest.raises(ConfigError, match="initial: time offset must be positive"):
        ExperimentConfig.from_dict(particle_config("x", energy={"kind": "power", "m": 0.5}, initial=bad_t0))
    # an entropy energy leaves the profile's default m at 2
    assert ExperimentConfig.from_dict(particle_config("x", energy={"kind": "entropy"})).initial_density().m == 2.0


def _run_2d(tmp_path):
    baren = {"kind": "barenblatt", "t0": 1.0}
    cfg = particle_config(
        tmp_path / "run2d",
        kernel={"family": "gaussian", "eps": 0.3, "d": 2},
        n_particles=16,
        initial={"kind": "quantile", "density": {"kind": "product", "axes": [baren, baren]}},
    )
    assert execute(ExperimentConfig.from_dict(cfg)).ok
    return tmp_path / "run2d"


def _diagnosed(run) -> dict:
    return {name: (run / name).read_bytes() for name in ("error_term.csv", "weak_residual.csv", "local_residual.csv")}


def test_cli_diagnose_2d_centre(tmp_path):
    run = _run_2d(tmp_path)
    assert main(["diagnose", str(run), "--phi-center", "0.1", "-0.2", "--phi-width", "1.5"]) == 0
    centred = _diagnosed(run)
    diagnose(run, {"center": [0.1, -0.2], "width": 1.5})
    assert _diagnosed(run) == centred
    diagnose(run, {"center": [0.0, 0.0], "width": 1.5})
    assert _diagnosed(run)["error_term.csv"] != centred["error_term.csv"]


def test_cli_diagnose_width_only_on_a_2d_run(tmp_path):
    run = _run_2d(tmp_path)
    assert main(["diagnose", str(run), "--phi-width", "1.5"]) == 0
    width_only = _diagnosed(run)
    # a missing centre is the mean of the recorded positions, in the run's own dimension
    traj = read_trajectory_csv(run / "trajectory.csv")
    diagnose(run, {"center": np.concatenate([e.positions for _, e in traj.snapshots]).mean(axis=0), "width": 1.5})
    assert _diagnosed(run) == width_only


def test_cli_diagnose_refuses_a_centre_of_the_wrong_dimension(tmp_path, capsys):
    run = _run_2d(tmp_path)
    assert main(["diagnose", str(run), "--phi-center", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "1 coordinates" in err and "2-dimensional" in err


def test_cli_diagnose_refuses_width_zero(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(particle_config(tmp_path / "run", n_particles=6)))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["diagnose", str(tmp_path / "run"), "--phi-width", "0"]) == 2
    assert "width must be positive" in capsys.readouterr().err


def test_cli_diagnose_refuses_a_jko_run(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(jko_config(tmp_path / "run", n_particles=6, T=0.002)))
    assert main(["jko", "--config", str(path)]) == 0
    files = sorted((tmp_path / "run").iterdir())
    assert main(["diagnose", str(tmp_path / "run")]) == 2
    assert "need a particle run's trajectory.csv" in capsys.readouterr().err
    assert sorted((tmp_path / "run").iterdir()) == files
