"""Compiled solve kernels over the flat-array graph form.

The per-component solvers in :mod:`repro.core` are the reference
implementations: dict-walking pure Python, written for clarity and pinned by
the golden tables.  The kernels in this package pack the
:class:`repro.graph.flat.FlatGraph` arrays (CSR adjacency, flat earlier-edge
arrays) and run the greedy, linear and backtracking inner loops in the
compiled C core (``_solvecore.c``), while producing **bit-identical output**:
same colorings, same tie-breaks, same search statistics.  Parity is the hard
acceptance gate (``tests/kernels/``), which is why the C loops replicate the
reference float expression order operation for operation.

There are two paths: the compiled core, and the reference solvers (plus the
numpy SDP loop) as the plain fallback.  The SDP relaxation loop
(``repro.opt.sdp.VectorProgramSolver._minimise``) is dispatched by the same
modes through :func:`sdp_core`: the compiled core runs it in
``auto``/``compiled``, the numpy loop (the reference) in ``off``.  Both
produce the same floats.

Dispatch is controlled by the ``REPRO_SOLVE_KERNELS`` environment variable
(checked once per solve, overridable in-process via :func:`set_kernel_mode`):

``auto`` (default)
    Use the compiled core when it is available (building it on first use),
    the reference solvers otherwise.
``compiled``
    *Require* the compiled core — raise instead of silently falling back
    (CI uses this to keep the compiled path honest).
``off``
    Never load the compiled core; run the reference solvers.

The mode deliberately lives outside :class:`repro.core.options.AlgorithmOptions`:
options are fingerprinted into cache keys, and because every mode produces
identical output, keys must not (and do not) depend on which path ran.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigurationError

#: Environment variable selecting the kernel mode.
KERNEL_MODE_ENV = "REPRO_SOLVE_KERNELS"

_VALID_MODES = ("auto", "compiled", "off")

#: The C loops keep per-color counters and bitmasks with this bound (mirrors
#: ``MAX_COLORS`` in ``_solvecore.c``); more colors run the reference solvers.
MAX_COMPILED_COLORS = 64

#: In-process override (tests, benchmarks); ``None`` defers to the env var.
_forced_mode: Optional[str] = None


def kernel_mode() -> str:
    """Return the active kernel mode (``auto``/``compiled``/``off``)."""
    if _forced_mode is not None:
        return _forced_mode
    raw = os.environ.get(KERNEL_MODE_ENV, "").strip().lower()
    if not raw:
        return "auto"
    if raw not in _VALID_MODES:
        raise ConfigurationError(
            f"{KERNEL_MODE_ENV}={raw!r} is not a kernel mode; "
            f"expected one of {', '.join(_VALID_MODES)}"
        )
    return raw


def set_kernel_mode(mode: Optional[str]) -> Optional[str]:
    """Force the kernel mode in-process; ``None`` re-enables the env var.

    Returns the previous override so callers can restore it.
    """
    global _forced_mode
    if mode is not None and mode not in _VALID_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {mode!r}; expected one of {', '.join(_VALID_MODES)}"
        )
    previous = _forced_mode
    _forced_mode = mode
    return previous


def select_kernel(algorithm: str, num_colors: int):
    """Return the kernel module for ``algorithm``, or ``None`` to use the reference.

    ``algorithm`` is one of ``greedy``, ``linear``, ``backtrack``.  A kernel
    is returned only when the compiled core is loaded (see
    :func:`active_core`) and ``num_colors`` is within
    :data:`MAX_COMPILED_COLORS`; anything else selects the reference solver.
    """
    if num_colors > MAX_COMPILED_COLORS or active_core() is None:
        return None
    if algorithm == "greedy":
        from repro.core.kernels import greedy_kernel

        return greedy_kernel
    if algorithm == "linear":
        from repro.core.kernels import linear_kernel

        return linear_kernel
    if algorithm == "backtrack":
        from repro.core.kernels import backtrack_kernel

        return backtrack_kernel
    return None


def active_core():
    """Return the loaded compiled core for the current mode, or ``None``.

    ``off`` never loads it; ``compiled`` raises
    :class:`~repro.errors.ConfigurationError` when it cannot be built or
    loaded (no silent fallback); ``auto`` returns it opportunistically.
    """
    mode = kernel_mode()
    if mode == "off":
        return None
    from repro.core.kernels.ccore import compiled_core

    core = compiled_core()
    if core is None and mode == "compiled":
        raise ConfigurationError(
            f"{KERNEL_MODE_ENV}=compiled but the compiled solve core is "
            "unavailable (no C compiler, build disabled via "
            "REPRO_KERNELS_BUILD=0, or the build failed); use mode "
            "'auto'/'off' to run the reference solvers"
        )
    return core


def sdp_core():
    """Return the compiled core for the SDP relaxation loop, or ``None``.

    Like :func:`active_core`, plus a check that the core's sums reproduce
    the installed numpy build's bit for bit (``CompiledCore.sdp_matches_numpy``,
    run once per process on first use).  On a mismatch ``auto`` returns
    ``None`` (the numpy loop runs) and ``compiled`` raises
    :class:`~repro.errors.ConfigurationError`.
    """
    core = active_core()
    if core is None or core.sdp_matches_numpy():
        return core
    if kernel_mode() == "compiled":
        raise ConfigurationError(
            f"{KERNEL_MODE_ENV}=compiled but the compiled SDP loop does not "
            "reproduce this numpy build's summation order; use mode "
            "'auto'/'off' to run the numpy loop"
        )
    return None


__all__ = [
    "KERNEL_MODE_ENV",
    "MAX_COMPILED_COLORS",
    "active_core",
    "kernel_mode",
    "sdp_core",
    "select_kernel",
    "set_kernel_mode",
]
