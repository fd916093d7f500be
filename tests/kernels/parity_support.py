"""Kernel-mode switches and checks shared by the parity suites here.

The candidate side of a parity test runs in one of :data:`MODES`: the
compiled core (skipped where it cannot be built), or ``auto`` with the build
disabled and an empty cache — the path every user without a C compiler runs,
where dispatch must land on the reference code.  Test modules import the
fixtures below by name so pytest registers them.
"""

from __future__ import annotations

import pytest

from repro.core.kernels import active_core, set_kernel_mode
from repro.core.kernels.ccore import compiled_core

COMPILED_AVAILABLE = compiled_core() is not None

needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled solve core unavailable"
)

#: ``auto`` with the build disabled and an empty cache: the path every user
#: without a C compiler runs (dispatch must select the reference solvers).
NO_COMPILER = "no-compiler"

MODES = [pytest.param("compiled", marks=needs_compiled), NO_COMPILER]


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    """Never leak an in-process mode override into other tests."""
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


@pytest.fixture
def enter_mode(monkeypatch, tmp_path):
    """Return a switch into one of :data:`MODES` for the candidate run.

    ``no-compiler`` forgets the loaded core and disables its build, so the
    dispatch sees exactly what a machine without a C compiler sees; the
    memoised load is forgotten again afterwards so later tests reload it.
    """
    from repro.core.kernels import ccore

    def enter(mode):
        if mode == NO_COMPILER:
            monkeypatch.setenv(ccore.BUILD_ENV, "0")
            monkeypatch.setenv(ccore.CACHE_DIR_ENV, str(tmp_path))
            ccore.reset()
            set_kernel_mode("auto")
            assert active_core() is None
        else:
            set_kernel_mode(mode)

    yield enter
    ccore.reset()


def assert_same_coloring(reference, candidate, context):
    assert candidate == reference, context
    # Dict insertion order is part of the contract: downstream wire encoders
    # and expand_coloring iterate items() in insertion order.
    assert list(candidate.items()) == list(reference.items()), context


class FailingLib:
    """The loaded library with one entry point reporting allocation failure."""

    def __init__(self, lib, failing: str) -> None:
        self._lib = lib
        self._failing = failing

    def __getattr__(self, name):
        if name == self._failing:
            return lambda *args: -1
        return getattr(self._lib, name)
