"""Smoke tests of the scripts the README documents."""

import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SCRIPT = SCRIPTS / "run_s_curve.py"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_s_curve_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--n", "60", "--snr", "20", "--copies", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("monotone=True" in line for line in lines)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[-1].endswith("True")


def test_readme_round_trip_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    script = re.search(r"A full synthetic round trip:\n\n```bash\n(.*?)```", readme, re.S).group(1)
    intact = f'intact() {{ {shlex.quote(sys.executable)} -m intact "$@"; }}\n'
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(["bash", "-ec", intact + script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert "alignment_residual" in metrics


@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_bench_perf_row_smoke(kind):
    row = load_script("bench_perf").run_row(kind, 60, 1)
    assert set(row) == {
        "kind", "n", "wall_s", "raw_wall_s", "peak_rss_mb", "outer_iterations",
        "stop_reason", "final_objective", "alignment_residual", "model_load_s",
    } | ({"embed_s", "embed_peak_mb"} if kind == "linear" else set())
    assert (row["kind"], row["n"]) == (kind, 60)
    assert row["wall_s"] > 0 and row["raw_wall_s"] > 0
    assert row["peak_rss_mb"] > 10
    assert row["outer_iterations"] >= 1 and row["stop_reason"] == "objective_tol"
    assert math.isfinite(row["final_objective"]) and row["final_objective"] > 0
    assert 0 <= row["alignment_residual"] < 1
    assert kind != "linear" or (row["embed_s"] > 0 and row["embed_peak_mb"] > 0)
