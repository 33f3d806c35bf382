"""Each fenced ``python`` block of README.md runs in a fresh interpreter, so
a public name the README uses cannot be removed or renamed unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda c: c.splitlines()[0][:40])
def test_readme_block_runs(code, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    # the child fails on a numpy floating-point warning, as pytest does here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
