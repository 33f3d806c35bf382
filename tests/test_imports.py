"""The package imports with numpy alone; scipy is loaded on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _scipy_loaded_after(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; report whether any scipy module
    got loaded."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code += "\nprint(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


# every CLI call imports gluecop.cli, so it is held to the same floor
@pytest.mark.parametrize("module", ["gluecop", "gluecop.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # any scipy module, scipy.stats included: scipy is loaded on first use
    assert not _scipy_loaded_after(f"import {module}")


def test_simulate_example4_pipeline_leaves_scipy_unloaded():
    # drawing the parabola needs no normal CDF; only Example4Model's
    # response marginal and copula do
    assert not _scipy_loaded_after(
        "import warnings\n"
        "import numpy as np\n"
        "from gluecop import fit_piecewise, piecewise_regression, simulate_example4\n"
        "s = simulate_example4(2000, 0.1, seed=3)\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    model = fit_piecewise(s).model\n"
        "xs = np.linspace(*model.marginal_x.support, 11)\n"
        "for statistic in ('median', 'mean'):\n"
        "    piecewise_regression(model, xs, statistic=statistic)")


def test_fit_piecewise_leaves_scipy_unloaded():
    # rho inversion for every family and both signs runs on numpy alone
    assert not _scipy_loaded_after(
        "import warnings\n"
        "from gluecop import (ClaytonCopula, FrankCopula, GumbelCopula, Sample,\n"
        "                     fit_piecewise, glue, simulate_copula)\n"
        "c = glue([ClaytonCopula(3.0), FrankCopula(-8.0), GumbelCopula(3.0)],\n"
        "         (0.3, 0.65))\n"
        "ps = simulate_copula(c, 3000, seed=3)\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    fit = fit_piecewise(Sample(x=ps.u, y=ps.v))\n"
        "assert len(fit.segments) == 3, fit.break_points")
