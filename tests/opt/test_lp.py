"""Unit tests for the LP layer."""

import subprocess
import sys

import numpy as np
import pytest

from repro.opt.lp import solve_lp


class TestSolveLp:
    def test_simple_minimisation(self):
        # min x0 + x1  s.t. x0 + x1 >= 1, 0 <= x <= 1
        result = solve_lp(
            [1.0, 1.0],
            a_ub=np.array([[-1.0, -1.0]]),
            b_ub=[-1.0],
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(1.0)

    def test_default_bounds_are_unit_box(self):
        result = solve_lp([-1.0, -2.0])
        assert result.is_optimal
        assert result.objective == pytest.approx(-3.0)
        assert np.allclose(result.values, [1.0, 1.0])

    def test_equality_constraint(self):
        result = solve_lp(
            [1.0, 0.0],
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=[1.0],
        )
        assert result.is_optimal
        assert result.values[0] == pytest.approx(0.0)
        assert result.values[1] == pytest.approx(1.0)

    def test_infeasible(self):
        result = solve_lp(
            [1.0],
            a_eq=np.array([[1.0]]),
            b_eq=[5.0],  # impossible with x in [0, 1]
        )
        assert result.status == "infeasible"
        assert not result.is_optimal

    def test_custom_bounds(self):
        result = solve_lp([1.0], bounds=[(2.0, 3.0)])
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)


def test_importing_repro_does_not_load_scipy():
    """scipy is loaded by the first LP solve, not by ``import repro``."""
    code = "import sys, repro, repro.opt.lp; assert 'scipy' not in sys.modules, 'scipy loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_importing_repro_does_not_load_the_runtime():
    """The runtime and analysis names load on first use, not on ``import repro``."""
    code = (
        "import sys, repro\n"
        "heavy = ['asyncio', 'sqlite3', 'multiprocessing', 'concurrent.futures',\n"
        "         'repro.runtime', 'repro.obs', 'repro.analysis']\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro import ComponentCache, summary_text\n"
        "import repro.runtime, repro.analysis\n"
        "assert ComponentCache is repro.runtime.ComponentCache\n"
        "assert summary_text is repro.analysis.summary_text\n"
        "assert all(hasattr(repro, name) for name in repro.__all__)\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
