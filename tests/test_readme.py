"""The README's quick tour runs and prints what its comments say.

The python block under "Quick tour" runs in a subprocess with ``src`` on
PYTHONPATH, as tests/test_scripts.py runs the scripts, so a renamed or
removed API name, or a changed value, fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quick_tour() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Quick tour\n\n```python\n(.*?)```", text, re.S).group(1)


def test_quick_tour_prints_its_commented_values():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _quick_tour()],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    gamma, residual, sum_x = map(float, proc.stdout.split())
    assert gamma == 1.25
    assert residual <= 1e-15
    assert abs(sum_x - 0.8 / 1.15) <= 1e-15
