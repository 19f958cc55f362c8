"""What a fresh interpreter imports, and when.

``import blobflow`` loads numpy and not the heavy scipy subpackages, and
``blobflow.runner`` not even the bare scipy package; each scipy
subpackage loads only where a run needs it, and never inside a timed run:
after the set-up a CLI invocation pays (parse and validate the config,
sample the initial ensemble, the kernel moments), running a benchmark
workload first-imports no numpy or scipy module.  The heap policy that
``import blobflow`` sets keeps a run from faulting its freed pair arrays
back in on every call.  Each check runs in its own interpreter, since a
module any earlier test imported, or heap any earlier test freed, would
hide it.
"""
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.linalg", "scipy.signal", "scipy.sparse", "scipy.spatial")

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS, level_for  # noqa: E402


def _fresh(code: str):
    """Run code in a new interpreter with src/ and perfbench/ importable; the JSON it prints last."""
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_heavy_scipy():
    loaded = _fresh("import json, sys, blobflow, blobflow.cli; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_the_energy_lower_bound_criterion_loads_no_heavy_scipy():
    # criterion 11 takes the energy of gridded 1d densities, a direct sum that numpy computes
    passed, loaded = _fresh(
        "import json, sys\n"
        "from blobflow.acceptance import criterion_11\n"
        "passed = criterion_11().passed\n"
        "print(json.dumps([passed, sorted(sys.modules)]))"
    )
    assert passed
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_runner_import_loads_no_thread_pool():
    # only converge runs its rungs in a thread pool, so only converge imports concurrent.futures
    loaded = _fresh("import json, sys, blobflow.runner; print(json.dumps(sorted(sys.modules)))")
    assert "blobflow.runner" in loaded
    assert [m for m in loaded if m.startswith("concurrent")] == []


def test_runner_import_loads_no_scipy_and_the_manifest_names_its_version(tmp_path):
    # the manifest's scipy version is read from scipy's version.py, so not even the bare package loads
    raw = WORKLOADS["jko1d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    loaded, ok = _fresh(
        "import json, sys\n"
        "from blobflow import runner\n"
        "from blobflow.config import ExperimentConfig\n"
        "loaded = sorted(sys.modules)\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
        "print(json.dumps([loaded, runner.execute(cfg, cfg.output_dir).ok]))"
    )
    import scipy

    assert ok and [m for m in loaded if m.split(".")[0] == "scipy"] == []
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


@pytest.mark.parametrize("d", [1, 2])
def test_validating_a_particle_config_loads_no_heavy_scipy(d):
    density = {"kind": "barenblatt", "m": 2.0}
    cfg = {
        "kernel": {"family": "gaussian", "eps": 0.3, "d": d},
        "energy": {"kind": "power", "m": 2.0},
        "n_particles": 16,
        "T": 0.002,
        "dt": 0.001,
        "initial": {"kind": "quantile", "density": density if d == 1 else {"kind": "product", "axes": [density] * 2}},
    }
    loaded = _fresh(
        "import json, sys\n"
        "from blobflow.config import ExperimentConfig\n"
        f"ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(cfg))}))\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_a_2d_run_and_compare_load_no_heavy_scipy(tmp_path):
    raw = WORKLOADS["blob2d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    traj = str(tmp_path / "run" / "trajectory.csv")
    loaded = _fresh(
        "import json, sys\n"
        "from blobflow import runner\n"
        "from blobflow.config import ExperimentConfig\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
        "assert runner.execute(cfg, cfg.output_dir).ok\n"
        f"runner.compare_trajectories({traj!r}, {traj!r}, {str(tmp_path / 'cmp.csv')!r})\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert [m for m in loaded if m.startswith(HEAVY)] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_benchmark_run_first_imports_nothing_after_set_up(tmp_path, name):
    wl = WORKLOADS[name]
    raw = wl.config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    late, ok = _fresh(
        "import json, sys\n"
        "from blobflow import runner\n"
        "from blobflow.config import ExperimentConfig\n"
        "from blobflow.kernels import kernel_moments\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
        "cfg.initial_ensemble()\n"
        "kernel_moments(cfg.kernel_spec())\n"
        "before = set(sys.modules)\n"
        "result = runner.execute(cfg, cfg.output_dir)\n"
        + "runner.diagnose(cfg.output_dir)\n" * wl.diagnose
        + "late = sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(json.dumps([late, result.ok]))"
    )
    assert ok
    assert late == []


# jko1d_gauss makes thousands of deposits of 67-176 KiB pair arrays; with glibc's
# default 128 KiB mmap and trim thresholds each one is faulted back in after the
# last was released: about 8000 minor faults across execute, against about 100
# under the package's heap policy
HEAP_POLICY_MINFLT = 1000


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_heap_policy_keeps_a_jko_run_from_refaulting_its_pairs(tmp_path):
    raw = WORKLOADS["jko1d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "run"))
    scipy_subpackages, faults, ok = _fresh(
        "import json, resource, sys\n"
        "import blobflow\n"
        "scipy_subpackages = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
        "from blobflow import runner\n"
        "from blobflow.config import ExperimentConfig\n"
        "from blobflow.kernels import kernel_moments\n"
        f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
        "cfg.initial_ensemble()\n"
        "kernel_moments(cfg.kernel_spec())\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "result = runner.execute(cfg, cfg.output_dir)\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(json.dumps([scipy_subpackages, faults, result.ok]))"
    )
    assert ok
    assert scipy_subpackages == []
    assert faults < HEAP_POLICY_MINFLT
