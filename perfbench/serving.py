"""Service and cluster workloads: cell traffic over HTTP.

``serve-cells`` drives ``python -m repro.service`` (2 workers, a fresh
SQLite cache db per run); ``cluster-cells`` drives ``repro-decompose cluster
coordinator`` in front of two ``cluster node`` processes (1 worker and a
fresh cache db each).  One load generator (this process) sends
``POST /decompose`` (K=4, ``linear``) in a closed loop over 2 connections.

Cache state is the same in every run: the dbs start empty, and one untimed
warm-up request stores every library cell before the timed phase.  In the
timed phase library cells hit and fresh cells miss, so the cache counts of a
fixed request list do not depend on arrival order.

Every server process is started in its own session and stopped with SIGTERM
(SIGKILL after a grace period) in ``finally``; its exit status is checked,
and the session's remaining processes are killed and waited for.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, Iterable, List, Optional, Tuple

import workloads
from reference import ALGORITHM, digest
from report import Outcome, percentile
from tracing import Span, self_times

HERE = Path(__file__).resolve().parent

CONNECTIONS = 2
SETUP_REPEATS = 3
COLORS = 4
#: Requests whose quality totals are reported (and, in the traced run, the
#: fixed request list), per second of run time.
QUALITY_REQUESTS_PER_SECOND = 3
#: Fixed node ports: the coordinator's hash ring places components by node
#: address, so ephemeral ports would give every run a different load split
#: (40/60 to 50/50 for two nodes).  This pair splits about 50/50.
NODE_PORTS = (47352, 47353)
LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")
STAGES = ("parse", "queue_wait", "execute", "encode")
CLUSTER_STAGES = ("build", "divide", "hash", "route", "merge")


# ------------------------------------------------------------- processes
class Proc:
    """One server process in its own session, logging to a file."""

    def __init__(self, args: List[str], log: Path) -> None:
        self.log = log
        with open(log, "wb") as handle:
            self.popen = subprocess.Popen(
                [sys.executable, "-m", *args],
                stdout=handle,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )

    def address(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = LISTEN_RE.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.popen.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"{self.log.name}: no listening address: {self.log.read_text()[-500:]}")

    def stop(self, grace: float = 30.0) -> Optional[int]:
        """SIGTERM, wait, SIGKILL the session if needed; return the exit code."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            code = self.popen.wait(grace)
        except subprocess.TimeoutExpired:
            code = None
        _kill_session(self.popen.pid)
        self.popen.wait()
        return code

    def peak_rss_mb(self) -> float:
        """Sum of the session's per-process peak resident sets (VmHWM)."""
        total = 0
        for pid in _session_pids(self.popen.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            total += int(match.group(1)) if match else 0
        return total / 1024


def _session_pids(sid: int) -> List[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[3]) == sid:  # field 6 of stat: session id
                pids.append(int(entry.name))
    return pids


def _kill_session(sid: int) -> None:
    """Kill whatever is left of the session and wait until it is gone."""
    deadline = time.monotonic() + 30
    while _session_pids(sid) and time.monotonic() < deadline:
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        time.sleep(0.05)


class Deployment:
    """The processes of one workload and a client bound to its front end."""

    def __init__(self, workload: str, workdir: Path, index: int) -> None:
        from repro.service import ServiceClient

        self.procs: List[Proc] = []
        self.nodes: List[Proc] = []
        tag = f"{workload}-{index}"
        start = time.perf_counter()
        try:
            if workload == "serve-cells":
                front = self._spawn(
                    ["repro.service", "--port", "0", "--workers", "2",
                     "--cache-db", str(workdir / f"{tag}.db")],
                    workdir / f"{tag}.log",
                )
                self.nodes = [front]
            else:
                self.nodes = [
                    self._spawn(
                        ["repro.cli", "cluster", "node", "--port", str(NODE_PORTS[n]), "--workers", "1",
                         "--cache-db", str(workdir / f"{tag}-node{n}.db")],
                        workdir / f"{tag}-node{n}.log",
                    )
                    for n in range(2)
                ]
                peers = ",".join(f"{h}:{p}" for h, p in (node.address() for node in self.nodes))
                front = self._spawn(
                    ["repro.cli", "cluster", "coordinator", "--port", "0", "--peers", peers],
                    workdir / f"{tag}-coordinator.log",
                )
            host, port = front.address()
            self.client = ServiceClient(host, port, timeout=120.0)
            self.client.wait_until_healthy(timeout=60.0)
            self.node_clients = [ServiceClient(*node.address()) for node in self.nodes]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _spawn(self, args: List[str], log: Path) -> Proc:
        proc = Proc(args, log)
        self.procs.append(proc)
        return proc

    def peak_rss_mb(self) -> float:
        return sum(proc.peak_rss_mb() for proc in self.procs)

    def stop(self) -> List[Tuple[str, Optional[int]]]:
        """Stop front end first, then nodes; return (log name, exit code)."""
        for client in [getattr(self, "client", None), *getattr(self, "node_clients", [])]:
            if client is not None:
                client.close()
        return [(proc.log.name, proc.stop()) for proc in reversed(self.procs)]


def _stop_checked(deployment: Deployment, outcome: Outcome) -> None:
    for name, code in deployment.stop():
        outcome.attempted += 1
        if code != 0:
            outcome.fail(f"{name}: exit status {code}")


# ------------------------------------------------------------- load
class Sent:
    __slots__ = ("request", "payload", "start", "latency", "error")

    def __init__(self, request, payload, start, latency, error) -> None:
        self.request, self.payload, self.error = request, payload, error
        self.start, self.latency = start, latency


def drive(client, requests: Iterable, seconds: Optional[float]) -> Tuple[List[Sent], float]:
    """Closed loop over ``CONNECTIONS`` threads until ``seconds`` have passed.

    With ``seconds=None`` every request is sent once.  Requests are drawn in
    order, so the first ``n`` sent are the stream's first ``n``.  A
    request's latency excludes building its ``Layout``.  Returns the sent
    requests and the wall time.
    """
    from repro.service.client import ServiceError

    sent: List[Sent] = []
    lock = threading.Lock()
    pending = iter(requests)
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def worker() -> None:
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                request = next(pending, None)
            if request is None:
                return
            layout = workloads.to_layout(request.name, request.rects)
            t0 = time.perf_counter()
            try:
                payload = client.decompose(
                    layout, name=request.name, colors=COLORS, algorithm=ALGORITHM
                )
                error = None
            except ServiceError as exc:
                payload, error = None, f"{request.name}: HTTP {exc.status}: {exc}"
            latency = time.perf_counter() - t0
            with lock:
                sent.append(Sent(request, payload, t0, latency, error))

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent, time.perf_counter() - start


# ------------------------------------------------------------- check
#: Child processes for the direct reference runs.
REFERENCE_PROCESSES = 2


def _reference_runs(jobs: List[Tuple[str, list]], workdir: Path) -> List[Tuple[str, int, int]]:
    """``reference.py`` over ``jobs``, split across plain child processes.

    Every child is waited for, and killed first if it has not ended, on
    every path out of here.
    """
    procs = []
    outputs = []
    try:
        for index in range(REFERENCE_PROCESSES):
            source = workdir / f"reference-{index}.json"
            source.write_text(json.dumps(jobs[index::REFERENCE_PROCESSES]))
            outputs.append(workdir / f"reference-{index}.out.json")
            procs.append(
                subprocess.Popen(
                    [sys.executable, str(HERE / "reference.py"), str(source), str(outputs[-1])],
                    stdin=subprocess.DEVNULL,
                )
            )
        for proc in procs:
            if proc.wait(timeout=150) != 0:
                raise RuntimeError(f"reference run failed with exit status {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results: List[Tuple[str, int, int]] = [("", 0, 0)] * len(jobs)
    for index, output in enumerate(outputs):
        results[index::REFERENCE_PROCESSES] = [tuple(r) for r in json.loads(output.read_text())]
    return results


def check(sent: List[Sent], outcome: Outcome, workdir: Path) -> Dict[str, Tuple[int, int]]:
    """Byte-match every response against a direct run.

    Returns the direct runs' (conflicts, stitches) per request name.  The
    direct runs use two child processes, outside the timed phase.
    """
    from repro.service.protocol import canonical_json

    for s in sent:
        outcome.attempted += 1
        if s.error is not None:
            outcome.fail(s.error)
    answered = [s for s in sent if s.error is None]
    references = {}
    jobs = [(s.request.name, s.request.rects) for s in answered]
    for s, (expected, conflicts, stitches) in zip(answered, _reference_runs(jobs, workdir)):
        references[s.request.name] = (conflicts, stitches)
        if digest(canonical_json(s.payload)) != expected:
            outcome.fail(f"{s.request.name}: response differs from a direct Decomposer run")
    return references


# ------------------------------------------------------------- scrape
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(client) -> Dict[str, float]:
    """``/metrics`` samples keyed by ``name{labels}``."""
    samples = {}
    for line in client.metrics_text().splitlines():
        match = _SAMPLE_RE.match(line)
        if match and not line.startswith("#"):
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def _stage(samples: Dict[str, float], stage: str) -> float:
    return samples.get(f'repro_stage_duration_seconds_sum{{stage="{stage}"}}', 0.0)


def _cache_session(client) -> Dict[str, int]:
    session = client.stats().get("cache", {}).get("session", {})
    return {key: session.get(key, 0) for key in ("hits", "misses", "stores")}


class Snapshot:
    """Everything the traced run reads from the public endpoints."""

    def __init__(self, deployment: Deployment, workload: str) -> None:
        self.front = scrape(deployment.client)
        self.nodes = [scrape(c) for c in deployment.node_clients]
        self.cache = [_cache_session(c) for c in deployment.node_clients]
        stats = deployment.client.stats() if workload == "cluster-cells" else {}
        self.coordinator = stats.get("coordinator", {})


# ------------------------------------------------------------- workloads
def run_serving(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    traffic = workloads.CellTraffic(seed)
    setups = []
    for index in range(SETUP_REPEATS):
        deployment = Deployment(workload, workdir, index)
        setups.append(deployment.setup_s)
        if index < SETUP_REPEATS - 1:
            _stop_checked(deployment, outcome)
    try:
        warm, _ = drive(deployment.client, [traffic.warmup()], None)
        if not trace:
            sent, wall = drive(deployment.client, traffic.requests("main"), seconds)
            rss = deployment.peak_rss_mb()
            # Quality totals cover a fixed prefix of the stream, so they do
            # not depend on how many requests the timed phase got through.
            quality = traffic.first("main", QUALITY_REQUESTS_PER_SECOND * seconds)
            late, _ = drive(deployment.client, quality[len(sent):], None)
            sent_all = sent + late
        else:
            untraced, untraced_wall = drive(deployment.client, traffic.requests("main"), seconds / 2)
            quality = traffic.first("traced", QUALITY_REQUESTS_PER_SECOND * seconds)
            before = Snapshot(deployment, workload)
            sent, wall = drive(deployment.client, quality, None)
            after = Snapshot(deployment, workload)
            sent_all = untraced + sent
    finally:
        _stop_checked(deployment, outcome)

    references = check(warm + sent_all, outcome, workdir)
    names = {r.name for r in quality}
    outcome.metric("conflicts", sum(c for n, (c, _) in references.items() if n in names), "count")
    outcome.metric("stitches", sum(s for n, (_, s) in references.items() if n in names), "count")
    repeated = 1 - sum(r.fresh for r in quality) / sum(r.cells for r in quality)
    outcome.note(f"{repeated:.1%} of the cells in {len(quality)} requests repeat a library cell")
    done = [s for s in sent if s.error is None]
    features_per_s = sum(len(s.request.rects) for s in done) / wall
    if not trace:
        latencies = [s.latency for s in done]
        outcome.metric("features_per_s", features_per_s, "features/s")
        outcome.metric("req_p50_ms", 1e3 * percentile(latencies, 50), "ms")
        outcome.metric("req_p90_ms", 1e3 * percentile(latencies, 90), "ms")
        outcome.note(f"{len(latencies)} requests in {wall:.2f} s over {CONNECTIONS} connections")
        outcome.metric("setup_s", median(setups), "s")
        outcome.metric("peak_rss_mb", rss, "MB")
        return outcome
    _per_layer(outcome, before, after, sent)
    untraced_fps = sum(len(s.request.rects) for s in untraced if s.error is None) / untraced_wall
    # Client request spans are the roots: the time none covers is the load
    # generator's own (building layouts, thread hand-offs).
    spans = [Span("request", s.start, s.start + s.latency, None, i) for i, s in enumerate(sent)]
    outcome.metric("trace.unattributed_s", self_times(spans, wall)[1], "s")
    outcome.metric("trace.wall_s", wall, "s")
    outcome.metric("trace.features_per_s", features_per_s, "features/s")
    outcome.metric("trace.untraced_features_per_s", untraced_fps, "features/s")
    outcome.metric("trace.overhead_ratio", untraced_fps / features_per_s, "ratio")
    return outcome


def _per_layer(outcome: Outcome, before: Snapshot, after: Snapshot, sent) -> None:
    """Deltas of the endpoints' counters over the traced request list.

    A coordinator has no ``queue_wait`` or ``encode`` stage; those read 0.
    ``transport`` is the client latency the front end's stages do not cover.
    """
    server = 0.0
    for stage in STAGES:
        delta = _stage(after.front, stage) - _stage(before.front, stage)
        server += delta
        outcome.metric(f"service.{stage}_s", delta, "s")
    outcome.metric("service.transport_s", sum(s.latency for s in sent) - server, "s")
    lookup = "repro_cache_lookup_seconds_sum"
    outcome.metric(
        "runtime.cache_lookup_s",
        sum(a.get(lookup, 0.0) - b.get(lookup, 0.0) for a, b in zip(after.nodes, before.nodes)),
        "s",
    )
    counts = {
        key: sum(a[key] - b[key] for a, b in zip(after.cache, before.cache))
        for key in ("hits", "misses", "stores")
    }
    for key, value in counts.items():
        outcome.metric(f"runtime.cache_{key}", value, "count")
    lookups = counts["hits"] + counts["misses"]
    outcome.metric("runtime.cache_hit_ratio", counts["hits"] / lookups if lookups else 0.0, "ratio")
    for stage in CLUSTER_STAGES:
        outcome.metric(f"cluster.{stage}_s", _stage(after.front, stage) - _stage(before.front, stage), "s")
    for key in ("node_requests", "components_routed"):
        outcome.metric(
            f"cluster.{key}", after.coordinator.get(key, 0) - before.coordinator.get(key, 0), "count"
        )

