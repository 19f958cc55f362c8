"""The package's two studies run through the CLI on their committed configs, and the README quickstart runs.

Each study is a config under ``configs/``; the README shows the CLI line
that runs it, and this runs that line in-process on the file as committed.
"""
import json
import re
from pathlib import Path

import pytest

from blobflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

STUDIES = {
    "eps_convergence": ("converge", {"report.csv": "eps,n,step,metric,value"}),
    "jko_energy_decay": ("jko", {
        "jko_steps.csv": "n,energy_prev,energy,dw2,entropy,fi_term,mass_term,inner_iterations,grad_sup",
        "final_particles.csv": "id,x",
    }),
}


def test_the_readme_runs_every_committed_study():
    shown = set(re.findall(r"^blobflow (\w+) +--config configs/(\w+)\.json", README, re.M))
    committed = {p.stem for p in (ROOT / "configs").glob("*.json")}
    assert shown == {(STUDIES[name][0], name) for name in committed}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_a_committed_study_runs_through_the_cli(tmp_path, monkeypatch, name):
    command, headers = STUDIES[name]
    config = ROOT / "configs" / f"{name}.json"
    monkeypatch.setenv("BLOBFLOW_OUTPUT_ROOT", str(tmp_path))
    assert main([command, "--config", str(config)]) == 0
    out = tmp_path / json.loads(config.read_text())["output_dir"]
    for artifact, header in headers.items():
        lines = (out / artifact).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1


def test_the_readme_quickstart_runs_as_written(capsys):
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == ["W2 to reference", "energy decay", "flow interchange"]
