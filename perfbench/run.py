"""End-to-end benchmark of the decomposer (Fig. 2 flow, library to cluster).

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-linear --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``table1-linear``  the 15 Table 1 circuits, K=4, ``linear``, serial
``table1-sdp``     the same circuits (scaled), K=4, ``sdp-backtrack``, serial
``serve-cells``    cell traffic to ``python -m repro.service``
``cluster-cells``  the same traffic to a coordinator and two cluster nodes

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs separately
with spans around each layer (library workloads) or ``/metrics`` and
``/stats`` reads around the timed phase (service workloads) and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  Every output is checked; a check that
fails counts in ``failed`` and makes ``correct`` false.

The Table 1 timings are scaled to a reference machine speed measured by a
probe between the decompose calls (see ``speed.py``), because a shared
machine slows whole runs down by tens of percent.

The program is imported from ``src/`` of the checkout.  Everything the run
writes (compiled kernel, cache dbs, logs, spans) stays under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1-linear", "table1-sdp", "serve-cells", "cluster-cells")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool):
    """Metric names and units the mode must print, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def prepare_environment(workdir: Path) -> None:
    """Point the program and every child process at the checkout only."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # A persistent kernel cache: every set-up measures a warm kernel.
    os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".perfbench" / "kernels")
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)


def _terminate(signum, frame):
    # Unwind through ``finally`` so every server process gets stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    names = list(units)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    prepare_environment(workdir)
    try:
        if args.workload.startswith("table1"):
            from library import run_table1

            spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
            outcome = run_table1(args.workload, args.seed, args.seconds, bool(args.trace), spans)
            absent = ("service.", "runtime.", "cluster.")
        else:
            from serving import run_serving

            outcome = run_serving(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            absent = ("graph.", "core.", "opt.")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in outcome.notes:
        print(line)
    if args.trace:
        for name in names:
            if name.startswith(absent):
                outcome.metrics.setdefault(name, (0.0, units[name]))
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1
    if outcome.attempted == 0:
        print(f"perfbench: {args.workload} attempted nothing", file=sys.stderr)
        return 1
    metrics = {}
    for name in names:
        value, unit = outcome.metrics[name]
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
