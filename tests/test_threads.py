"""A run's artifacts do not depend on the number of BLAS threads.

OpenBLAS runs a matrix product of fewer than 2 * 2**18 multiply-adds, or a
dot product of at most 10000 terms, on one thread; a larger one it splits
over threads, which sums in another order.  The 2d gaussian's per-axis
route keeps every product under ``grids.PRODUCT_MACS``, and every dot
product of the package is ``grids.dot``, which takes ``grids.DOT_TERMS``
terms at a time, so a 2d run writes the same bytes on one thread and on
two.  Each run has its own interpreter, since OpenBLAS reads its thread
count when it loads.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blobflow"

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS, level_for  # noqa: E402


def test_a_2d_run_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for threads in (1, 2):
        raw = WORKLOADS["blob2d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / str(threads)))
        code = (
            "import json\n"
            "from blobflow import runner\n"
            "from blobflow.config import ExperimentConfig\n"
            f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
            "assert runner.execute(cfg, cfg.output_dir).ok\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_2d_gaussian_deposit_and_velocity_keep_their_bits_on_two_blas_threads(tmp_path):
    # one block holds every row, so only the pieces keep each product on one thread: a single product over the 400
    # points of this deposit would block its sums one way on one thread and another way on two
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    raw = WORKLOADS["blob2d_gauss"].config(level_for(DEFAULT_SEED), str(tmp_path / "unused"))
    for threads in (1, 2):
        code = (
            "import json, numpy as np\n"
            "from blobflow import grids\n"
            "from blobflow.config import ExperimentConfig\n"
            "from blobflow.energy import mollified_density\n"
            "from blobflow.particles import velocity_on_grid\n"
            f"cfg = ExperimentConfig.from_dict(json.loads({json.dumps(json.dumps(raw))}))\n"
            "grids.BLOCK_PAIRS = 1 << 30\n"
            "pos, kernel = cfg.initial_ensemble().positions, cfg.kernel_spec()\n"
            "grid = cfg.quadrature_spec().grid_for(pos, kernel)\n"
            "dep = mollified_density(pos, kernel, grid, carry=pos)\n"
            "vel = velocity_on_grid(dep, cfg.energy_model())\n"
            f"np.savez({str(tmp_path / f'{threads}.npz')!r}, density=dep.density, carried=dep.carried, vel=vel)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    one, two = np.load(tmp_path / "1.npz"), np.load(tmp_path / "2.npz")
    for name in ("density", "carried", "vel"):
        assert np.array_equal(one[name], two[name])


def test_long_dots_and_the_unequal_count_w2_keep_their_bits_on_two_blas_threads():
    # above DOT_TERMS terms OpenBLAS splits one np.dot over threads: 30000 random terms, and the merged breakpoints of
    # these unequal 1d ensembles (13001 to 60000), changed their last bits between one thread and two
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = (
        "import numpy as np\n"
        "from blobflow import grids, transport\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.normal(size=(2, 30000))\n"
        "print(grids.dot(a, b).hex())\n"
        "for n, m in ((7001, 6000), (20001, 15000), (30000, 29999), (12000, 11000)):\n"
        "    print(transport.w2(rng.normal(size=(n, 1)), rng.normal(size=(m, 1))).hex())\n"
    )
    out = []
    for threads in (1, 2):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert len(out[0].split()) == 5 and out[0] == out[1]


def test_only_grids_calls_np_dot():
    # a dot product anywhere else would take its bits from the BLAS thread count beyond DOT_TERMS terms
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "dot" and isinstance(node.value, ast.Name)
                    and node.value.id == "np"):
                callers.add(path.stem)
    assert callers == {"grids"}
