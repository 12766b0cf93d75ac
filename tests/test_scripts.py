"""Smoke test of the experiment script the README documents."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_s_curve.py"


def test_run_s_curve_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--n", "60", "--snr", "20", "--copies", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("monotone=True" in line for line in lines)
