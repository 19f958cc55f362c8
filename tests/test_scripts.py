"""The experiment scripts the README documents run end to end.

Each script builds its config through ExperimentConfig.from_dict, so this
also checks that validation accepts the configs the scripts build.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, artifact, header",
    [
        ("jko_energy_decay.py", ["--steps", "5", "--n-particles", "16"], "jko_steps.csv",
         "n,energy_prev,energy,dw2,entropy,fi_term,mass_term,inner_iterations,grad_sup"),
        ("eps_convergence.py", ["--eps", "0.4", "0.2", "--n-particles", "32", "--horizon", "0.01"], "report.csv",
         "eps,n,step,metric,value"),
    ],
)
def test_script_runs_and_writes_its_table(tmp_path, script, args, artifact, header):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / artifact).read_text().splitlines()
    assert lines[0] == header and len(lines) > 1
