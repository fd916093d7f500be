"""Reference runs for the service workloads: direct serial ``Decomposer`` runs.

Run as ``python3 perfbench/reference.py IN OUT``.  ``IN`` is a JSON list of
``[name, rects]``; ``OUT`` receives, in the same order, one
``[digest, conflicts, stitches]`` per entry, where ``digest`` is the SHA-256
of the canonical JSON payload a server would send for that layout.

The service workloads start these as plain child processes and wait for
them, rather than using a ``multiprocessing`` pool, whose resource tracker
would outlive the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Tuple

import workloads

ALGORITHM = "linear"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference(name: str, rects) -> Tuple[str, int, int]:
    """Canonical payload digest, conflicts and stitches of a direct run."""
    from repro import Decomposer, DecomposerOptions
    from repro.service.protocol import canonical_json, result_to_payload

    options = DecomposerOptions.for_quadruple_patterning(ALGORITHM)
    result = Decomposer(options).decompose(workloads.to_layout(name, rects), layer="metal1")
    payload = result_to_payload(name, "metal1", result)
    return digest(canonical_json(payload)), result.solution.conflicts, result.solution.stitches


def main(source: str, target: str) -> int:
    with open(source) as handle:
        jobs = json.load(handle)
    results = [reference(name, rects) for name, rects in jobs]
    with open(target, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
