"""The package imports with numpy alone; scipy is loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# every CLI call imports gluecop.cli, so it is held to the same floor
@pytest.mark.parametrize("module", ["gluecop", "gluecop.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # any scipy module, scipy.stats included: scipy is loaded on first use
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = (f"import sys, {module}; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
