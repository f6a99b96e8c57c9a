"""The experiment scripts under scripts/ run to completion.

Both call library functions that verify their results (coordinate_transform,
velocity_add, compare_with_isometric), so a check that refuses their inputs
shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["galilean_sweep.py", "order_dependence_demo.py"])
def test_script_exits_zero(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
