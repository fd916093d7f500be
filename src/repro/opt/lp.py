"""Thin linear-programming layer over :func:`scipy.optimize.linprog`.

The branch-and-bound ILP solver relaxes its 0-1 model to an LP at every
search node; this module gives it a stable, minimal interface (and a single
place to switch solver back-ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError


@dataclass
class LpResult:
    """Result of one LP solve.

    Attributes
    ----------
    status:
        ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
    objective:
        Optimal objective value (only meaningful when optimal).
    values:
        Optimal variable values (empty when not optimal).
    """

    status: str
    objective: float
    values: np.ndarray

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(
    objective: Sequence[float],
    a_ub: Optional[np.ndarray] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[np.ndarray] = None,
    b_eq: Optional[Sequence[float]] = None,
    bounds: Optional[List[Tuple[float, float]]] = None,
) -> LpResult:
    """Minimise ``objective . x`` subject to the given linear constraints.

    Bounds default to ``[0, 1]`` per variable, matching the relaxation of a
    0-1 integer program.
    """
    # Imported on first use: only the ILP backend solves LPs, and loading
    # scipy.optimize would otherwise cost every process that imports repro
    # tens of MB and most of its start-up time.
    from scipy.optimize import linprog

    objective = np.asarray(objective, dtype=float)
    if bounds is None:
        bounds = [(0.0, 1.0)] * len(objective)
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if result.status == 0:
        return LpResult("optimal", float(result.fun), np.asarray(result.x))
    if result.status == 2:
        return LpResult("infeasible", float("inf"), np.empty(0))
    if result.status == 3:
        return LpResult("unbounded", float("-inf"), np.empty(0))
    raise SolverError(f"LP solver failed with status {result.status}: {result.message}")
