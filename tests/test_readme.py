"""Each fenced ``python`` block of README.md runs in a fresh interpreter,
and each backticked ``module.name`` of a package module resolves, so a name
the README uses cannot be removed, renamed or moved unnoticed."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
MODULES = {path.stem for path in (ROOT / "src" / "gluecop").glob("*.py")}
DOTTED = list(dict.fromkeys(
    re.findall(r"`([A-Za-z_]\w*\.[A-Za-z_]\w*)[^`]*`", README)))
REFERENCES = [ref for ref in DOTTED if ref.split(".")[0] in MODULES]
# heads of backticked dotted names that are not package modules: other
# packages, a file and the copula variable of an example
OUTSIDE = {"scipy", "csv", "pyproject", "c"}


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


def test_readme_has_module_references():
    assert REFERENCES


def test_dotted_names_are_package_modules_or_known_outside():
    # a module that is gone, or renamed, leaves an unknown head behind
    assert {ref.split(".")[0] for ref in DOTTED} - MODULES <= OUTSIDE


@pytest.mark.parametrize("ref", REFERENCES)
def test_module_reference_resolves(ref):
    module, name = ref.split(".")
    assert hasattr(import_module("gluecop." + module), name)
