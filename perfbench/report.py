"""Result record and order statistics shared by the workloads."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one run measured: metrics, operation counts, notes for humans."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < 50:
            self.notes.append(f"FAILED {reason}")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]
