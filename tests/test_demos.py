"""The demo scripts run against this checkout.

``svg_export.py`` runs from a copy in a temporary directory, so it writes
there and not into ``demos/out/``; its SVGs must equal the tracked ones
byte for byte.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py") if p.name != "svg_export.py")


def run_demo(script, cwd):
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=child_env(), cwd=cwd, timeout=120)


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_runs(tmp_path, name):
    res = run_demo(DEMOS / name, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout and not res.stderr
    if name == "optimality_check.py":
        assert "disagreements: 0" in res.stdout


def test_svg_export_writes_the_tracked_svgs(tmp_path):
    script = tmp_path / "svg_export.py"
    shutil.copy(DEMOS / "svg_export.py", script)
    res = run_demo(script, tmp_path)
    assert res.returncode == 0, res.stderr
    tracked = sorted(p.name for p in (DEMOS / "out").glob("*.svg"))
    assert len(tracked) == 4
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == tracked
    for name in tracked:
        assert (tmp_path / "out" / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
