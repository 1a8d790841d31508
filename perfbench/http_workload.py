"""The ``http-mixed`` workload: a read mix over HTTP with live writes.

``serve_http(store=<scale_world_spec("1m"), 4 shards>, backend="process")``
runs in this process; :data:`CONNECTIONS` :class:`HttpSparqlClient`
connections drive it.  Two load shapes share one phase runner:

* **closed loop** (the end-to-end metrics): each connection sends its
  next read when the previous one is answered, for the whole run.  Its
  throughput is the capacity of the deployment under this mix.
* **open loop** (traced run only, reported per layer): reads follow a
  fixed schedule at :data:`LO_RATE` and :data:`HI_RATE` and are timed
  from the moment they were due, so a stall also charges the reads
  queued behind it.  At most :data:`CONNECTIONS` are in flight.

The open loop is not gated: with two connections and reads of 2 ms to
0.5 s, one stall of a slow read behind another backs the schedule up,
and five seeds gave a p90 of 49 to 100 ms at 10/s and a p50 of 7 to
48 ms at 30 to 50/s.  The closed loop averages over ~1,000 reads a run.

The seeded read mix, as exact shares of every block of
:data:`BLOCK` reads (entities skewed over the world's 125k):

* 40% entity lookups ``{ e ?p ?o }``
* 20% ASK ``{ e p ?o }``
* 20% 50-row pages ``{ ?s p ?o }`` at OFFSETs up to 1950
* 10% two-pattern joins ``{ e ?p ?o . ?o q ?x }``
* 10% ``COUNT(DISTINCT ?s)`` over one predicate

The joins are anchored on an entity.  Unanchored ``{ ?s p ?o . ?o q ?x }``
joins ran 40 to 460 ms each in process and up to 1 s over HTTP, which
left the two connections blocked often enough that no latency figure
repeated from run to run.

Alongside, a writer thread calls ``refresh(mutate=...)`` every
:data:`WRITE_EVERY_S` seconds, adding :data:`WRITE_TRIPLES` triples with
fresh subjects and a predicate no read mentions, so every read answer
stays the same across refreshes.  About one read in :data:`CHECK_EVERY`
(seeded) keeps its response body, which must equal, byte for byte, the
in-process serialisation of the same query over the same store.
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.endpoint.endpoint import SparqlEndpoint, parse_cache_info
from repro.http import HttpSparqlClient, serve_http
from repro.obs import metrics as obs_metrics
from repro.rdf.terms import IRI
from repro.rdf.triple import Triple
from repro.sparql import serialize
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.synthetic.stream import generate_scale_world, scale_world_spec

from align_workload import engine_layer_metrics
from common import percentile
import layers

SCALE = "1m"
SHARDS = 4
CONNECTIONS = 2
#: Open-loop offered rates in reads per second: about 40% and 80% of the
#: closed-loop capacity (~70 reads/s with writes, 2 connections, this
#: mix) measured on a 2-vCPU machine at the commit that introduced the
#: benchmark.
LO_RATE = 28.0
HI_RATE = 56.0
#: Open-loop reads answered later than this after they were due miss it.
LATENCY_LIMIT_S = 1.0
#: Upper bound on closed-loop reads per second, to size the input list.
MAX_RATE = 400.0
WRITE_EVERY_S = 4.0
WRITE_TRIPLES = 16
CHECK_EVERY = 20
JSON_MIME = "application/sparql-results+json"


def world_spec():
    return scale_world_spec(SCALE)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
#: The read mix as exact shares of every block of reads.
MIX = (("lookup", 0.4), ("ask", 0.2), ("page", 0.2), ("join", 0.1), ("count", 0.1))
BLOCK = 100
PREDICATES = 24
PAGE_SIZE = 50
PAGE_DEPTH = 40


def _stratified(rng: random.Random, count: int) -> List[float]:
    """``count`` seeded uniforms, one in each of ``count`` equal strata, shuffled.

    Every seed then offers the same cost distribution (entity ranks,
    predicates, page depths) with different members, so the run-to-run
    spread measures the system rather than the luck of the draw.
    """
    values = [(index + rng.random()) / count for index in range(count)]
    rng.shuffle(values)
    return values


def _make_block(rng: random.Random, entities: int, prefix: str) -> List[Tuple[str, str]]:
    """One block of :data:`BLOCK` reads in the exact :data:`MIX` shares.

    Entities are skewed towards low ids (rank ``entities * u**3``), where
    the generator puts the high-degree hubs.
    """
    sizes = {kind: round(BLOCK * share) for kind, share in MIX}
    draws = {
        kind: list(zip(
            (f"s:e{int(entities * u ** 3)}" for u in _stratified(rng, size)),
            (f"s:p{int(PREDICATES * u)}" for u in _stratified(rng, size)),
            (PAGE_SIZE * int(PAGE_DEPTH * u) for u in _stratified(rng, size)),
        ))
        for kind, size in sizes.items()
    }
    kinds = [kind for kind, size in sizes.items() for _ in range(size)]
    rng.shuffle(kinds)
    reads = []
    for kind in kinds:
        entity, predicate, offset = draws[kind].pop()
        if kind == "lookup":
            text = f"SELECT ?p ?o WHERE {{ {entity} ?p ?o }}"
        elif kind == "ask":
            text = f"ASK {{ {entity} {predicate} ?o }}"
        elif kind == "page":
            text = (
                f"SELECT ?s ?o WHERE {{ ?s {predicate} ?o }} "
                f"LIMIT {PAGE_SIZE} OFFSET {offset}"
            )
        elif kind == "join":
            text = f"SELECT ?p ?o ?x WHERE {{ {entity} ?p ?o . ?o {predicate} ?x }}"
        else:
            text = f"SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE {{ ?s {predicate} ?o }}"
        reads.append((kind, prefix + text))
    return reads


def make_reads(rng: random.Random, count: int, entities: int, namespace: str) -> List[Tuple[str, str]]:
    """At least ``count`` seeded ``(kind, query)`` pairs of the read mix."""
    prefix = f"PREFIX s: <{namespace}> "
    reads: List[Tuple[str, str]] = []
    while len(reads) < count:
        reads.extend(_make_block(rng, entities, prefix))
    return reads


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
@dataclass
class HttpSetup:
    world: object
    server: object
    snapshot_dir: Path
    written: int = 0


def _write_batch(namespace: str, tag: str, count: int):
    predicate = IRI(namespace + "bench-written")
    value = IRI(namespace + "bench-value")

    def mutate(store) -> None:
        for index in range(count):
            store.add(Triple(IRI(f"{namespace}bench-{tag}-{index}"), predicate, value))

    return mutate


def build(work_dir: Path, index: int) -> HttpSetup:
    """Generate the world, serve it, and take the store's first write.

    The first mutation of a freshly loaded (frozen) store pays a one-off
    conversion of its indexes; it happens here, not under the timed load.
    """
    world = generate_scale_world(world_spec(), shard_count=SHARDS)
    snapshot_dir = work_dir / f"http-{index}"
    server = serve_http(
        store=world.store, backend="process", snapshot_dir=snapshot_dir, name="bench"
    )
    setup = HttpSetup(world, server, snapshot_dir)
    try:
        with HttpSparqlClient(server.url) as client:
            client.health()
        server.refresh(mutate=_write_batch(world.spec.namespace.base, f"setup{index}", 1))
        setup.written += 1
    except BaseException:
        server.stop()
        raise
    return setup


def build_three(work_dir: Path, report) -> Tuple[HttpSetup, List[float]]:
    """Set up three times (``setup_s`` is their median); keep the last.

    Each earlier set-up is stopped and collected before the next starts,
    so one world at a time lives in this process.
    """
    setup_s: List[float] = []
    setup: Optional[HttpSetup] = None
    for index in range(3):
        if setup is not None:
            setup.server.stop()
            setup = None
            gc.collect()
        started = time.perf_counter()
        setup = build(work_dir, index)
        setup_s.append(time.perf_counter() - started)
    report(f"setup_s {[round(value, 3) for value in setup_s]}")
    return setup, setup_s


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    rate: Optional[float]
    latency_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    backlog_max: int = 0
    failed: List[str] = field(default_factory=list)
    bodies: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    refresh_s: List[float] = field(default_factory=list)
    refresh_reports: List[dict] = field(default_factory=list)
    delta_bytes: List[int] = field(default_factory=list)
    writes_failed: List[str] = field(default_factory=list)
    protocol: Dict[str, int] = field(default_factory=dict)
    logged_rows: int = 0
    logged_queries: int = 0
    wall_s: float = 0.0
    reads: int = 0


def _dir_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def run_phase(
    setup: HttpSetup, rate: Optional[float], seconds: float, tag: str, seed: int
) -> PhaseResult:
    """Send seeded reads for ``seconds`` with scheduled writes alongside.

    ``rate`` reads per second on a fixed schedule (open loop), or with
    ``rate=None`` as fast as the connections get answers (closed loop).
    """
    count = max(1, int((rate or MAX_RATE) * seconds))
    spec = setup.world.spec
    rng = random.Random(f"{seed}/{tag}")
    reads = make_reads(rng, count, spec.entities, spec.namespace.base)
    checked = {index for index in range(count) if rng.random() < 1.0 / CHECK_EVERY}
    phase = PhaseResult(rate=rate)
    lock = threading.Lock()
    cursor = [0]
    url = setup.server.url
    endpoint = setup.server.server.endpoint
    namespace = spec.namespace.base
    first_executor = endpoint.executor
    first_stats = first_executor.protocol_stats()
    logged_before = len(endpoint.log)
    start = time.perf_counter() + 0.05
    stop = start + seconds
    finished = threading.Event()

    def count_protocol(executor) -> None:
        # Executor ledgers are cumulative over the executor's life; only
        # this phase's share counts.
        stats = executor.protocol_stats()
        for key, value in stats.items():
            if executor is first_executor:
                value -= first_stats.get(key, 0)
            phase.protocol[key] = phase.protocol.get(key, 0) + value

    def sender(connection: int) -> None:
        with HttpSparqlClient(url, client_id=f"bench-{connection}") as client:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if rate is None:
                    if index >= count or time.perf_counter() >= stop:
                        return
                    due = time.perf_counter()
                else:
                    if index >= count:
                        return
                    due = start + index / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                backlog = int((sent - start) * rate) - index if rate else 0
                kind, text = reads[index]
                try:
                    _, body = client.query_text(text, accept=JSON_MIME)
                except Exception as error:  # recorded as a failed request
                    with lock:
                        phase.reads += 1
                        phase.failed.append(f"{kind}: {type(error).__name__}: {error}")
                    continue
                done = time.perf_counter()
                with lock:
                    phase.reads += 1
                    phase.latency_s.append(done - due)
                    phase.service_s.append(done - sent)
                    phase.late_s.append(sent - due)
                    phase.backlog_max = max(phase.backlog_max, backlog)
                    if index in checked:
                        phase.bodies[index] = (text, body)

    def writer() -> None:
        batch = 0
        while True:
            due = start + WRITE_EVERY_S / 2 + batch * WRITE_EVERY_S
            if due >= stop:
                return
            if finished.wait(max(0.0, due - time.perf_counter())):
                return
            executor = endpoint.executor
            size_before = _dir_bytes(setup.snapshot_dir)
            began = time.perf_counter()
            try:
                report = setup.server.refresh(
                    mutate=_write_batch(namespace, f"{tag}-{seed}-{batch}", WRITE_TRIPLES)
                )
            except Exception as error:  # recorded as a failed write
                phase.writes_failed.append(f"refresh: {type(error).__name__}: {error}")
            else:
                phase.refresh_s.append(time.perf_counter() - began)
                phase.refresh_reports.append(report)
                phase.delta_bytes.append(_dir_bytes(setup.snapshot_dir) - size_before)
                setup.written += WRITE_TRIPLES
                if executor is not endpoint.executor:
                    count_protocol(executor)
            batch += 1

    threads = [threading.Thread(target=sender, args=(index,)) for index in range(CONNECTIONS)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads[:-1]:
        thread.join()
    phase.wall_s = time.perf_counter() - start
    finished.set()
    threads[-1].join()
    count_protocol(endpoint.executor)
    # Reads the page cache did not answer reach the endpoint's log.
    logged = list(endpoint.log)[logged_before:]
    phase.logged_queries = len(logged)
    phase.logged_rows = sum(entry.row_count for entry in logged)
    return phase


# --------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------- #
def check(setup: HttpSetup, phases: List[PhaseResult]) -> List[str]:
    """Sampled bodies equal in-process serialisation; every write landed."""
    reference = SparqlEndpoint(
        setup.world.store, name="reference", evaluator_factory=ShardedQueryEvaluator
    )
    problems = []
    for phase in phases:
        if not phase.bodies:
            problems.append(f"no response body was sampled in a {len(phase.latency_s)}-read phase")
        for index, (text, body) in sorted(phase.bodies.items()):
            expected = serialize.to_sparql_json(reference.query(text))
            if body != expected:
                problems.append(f"HTTP body of read {index} differs from in-process: {text}")
    namespace = setup.world.spec.namespace.base
    count_text = (
        f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{namespace}bench-written> ?o }}"
    )
    written = reference.select(count_text).scalar_int()
    if written != setup.written:
        problems.append(f"{written} written triples in the store, expected {setup.written}")
    return problems


# --------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------- #
def _goodput(phase: PhaseResult) -> float:
    """Reads answered within the limit per second; failures miss it."""
    met = sum(1 for value in phase.latency_s if value <= LATENCY_LIMIT_S)
    return met / phase.wall_s


def _describe(name: str, phase: PhaseResult) -> str:
    ok = phase.latency_s
    load = f"offered {phase.rate:g}/s" if phase.rate else f"closed loop x{CONNECTIONS}"
    return (
        f"{name}: {load} for {phase.wall_s:.1f} s, {phase.reads} reads "
        f"({phase.reads / phase.wall_s:.1f}/s), {len(phase.failed)} failed; "
        f"p50 {median(ok) * 1000:.2f} ms, p95 {percentile(ok, 95) * 1000:.2f} ms, "
        f"p99 {percentile(ok, 99) * 1000:.2f} ms (n={len(ok)}); goodput "
        f"{_goodput(phase):.2f}/s within {LATENCY_LIMIT_S * 1000:.0f} ms; late p99 "
        f"{percentile(phase.late_s, 99) * 1000:.2f} ms, backlog max {phase.backlog_max}; "
        f"refresh ms {[round(value * 1000, 1) for value in phase.refresh_s]}"
    )


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path, report):
    """Set up, drive the load for ``seconds`` in all, check, and record."""
    setup, setup_s = build_three(work_dir, report)
    registry = obs_metrics.registry()
    timer = None
    try:
        if trace:
            # open lo | open hi | closed | closed traced, a quarter each.
            lo = run_phase(setup, LO_RATE, seconds / 4, "lo", seed)
            hi = run_phase(setup, HI_RATE, seconds / 4, "hi", seed)
            closed = run_phase(setup, None, seconds / 4, "closed", seed)
            timer = layers.LayerTimer()
            layers.install_http(timer)
            registry.reset()
            parse_before = parse_cache_info()
            try:
                traced = run_phase(setup, None, seconds / 4, "closed-traced", seed)
            finally:
                timer.restore()
            parse_after = parse_cache_info()
            phases = [lo, hi, closed, traced]
            names = ("open lo", "open hi", "closed", "closed traced")
        else:
            closed = run_phase(setup, None, seconds, "closed", seed)
            phases = [closed]
            names = ("closed",)
        counters = registry.snapshot()
        problems = check(setup, phases)
    finally:
        setup.server.stop()
    for phase in phases:
        problems.extend(phase.writes_failed)
    for name, phase in zip(names, phases):
        report(_describe(name, phase))

    failed = sum(len(phase.failed) + len(phase.writes_failed) for phase in phases)
    attempted = sum(phase.reads + len(phase.refresh_s) + len(phase.writes_failed) for phase in phases)
    record = {"attempted": attempted, "failed": failed, "problems": problems}
    if failed:
        report(f"first failures: {[f for p in phases for f in p.failed + p.writes_failed][:3]}")
    if trace:
        record["metrics"] = {}
        record["layers"] = _layer_metrics(timer, phases, counters, parse_before, parse_after)
        return record
    record["metrics"] = {
        "setup_s": median(setup_s),
        "op_p50_ms": median(closed.latency_s) * 1000,
        "op_p95_ms": percentile(closed.latency_s, 95) * 1000,
        "ops_per_s": len(closed.latency_s) / closed.wall_s,
        "queries_per_op": closed.logged_queries / closed.reads,
        "rows_per_op": closed.logged_rows / closed.reads,
    }
    return record


def _layer_metrics(timer, phases, counters, parse_before, parse_after) -> Dict:
    lo, hi, untraced, traced = phases
    requests = float(traced.reads)
    refreshes = float(len(traced.refresh_s)) or 1.0
    self_ms = timer.totals()["self_ms"]
    registry_counters = counters["counters"]
    latency = counters["histograms"].get("http.latency", {})
    hits = registry_counters.get("http.cache.hits", 0)
    misses = registry_counters.get("http.cache.misses", 0)
    parse_hits = parse_after.hits - parse_before.hits
    parse_misses = parse_after.misses - parse_before.misses
    all_refresh = [value for phase in phases for value in phase.refresh_s]
    paused = [
        report["paused_seconds"] for phase in phases for report in phase.refresh_reports
    ]
    deltas = [value for phase in phases for value in phase.delta_bytes]
    metrics = {
        "endpoint.query.self_ms": self_ms.get("endpoint.query", 0.0) / requests,
        "endpoint.parse.ms": self_ms.get("endpoint.parse", 0.0) / requests,
        "endpoint.parse.hit_ratio": parse_hits / max(1, parse_hits + parse_misses),
        "sparql.evaluate.ms": self_ms.get("sparql.evaluate", 0.0) / requests,
        "shard.worker.wait_ms": self_ms.get("shard.wait", 0.0) / requests,
        "http.client.ms": self_ms.get("http.client", 0.0) / requests,
        "http.server.ms": latency.get("sum", 0.0) / max(1, latency.get("count", 0)) * 1000,
        "http.serialize.ms": self_ms.get("http.serialize", 0.0) / requests,
        "http.cache.hit_ratio": hits / max(1, hits + misses),
        "http.rejected.overload": registry_counters.get("http.rejected.overload", 0),
        "http.lo_p50_ms": median(lo.latency_s) * 1000,
        "http.lo_p95_ms": percentile(lo.latency_s, 95) * 1000,
        "http.hi_p50_ms": median(hi.latency_s) * 1000,
        "http.hi_p95_ms": percentile(hi.latency_s, 95) * 1000,
        "http.hi_goodput_qps": _goodput(hi),
        "store.refresh_ms": median(all_refresh) * 1000 if all_refresh else 0.0,
        "store.refresh.paused_ms": median(paused) * 1000 if paused else 0.0,
        "store.save_delta.ms": self_ms.get("store.save_delta", 0.0) / refreshes,
        "store.delta_bytes": median(deltas) if deltas else 0.0,
        "store.pool_boot_ms": self_ms.get("store.pool_boot", 0.0) / refreshes,
        "loadgen.late_p99_ms": percentile(hi.late_s, 99) * 1000,
        "loadgen.backlog_max": hi.backlog_max,
        # Closed loop: wall time per read, traced over untraced.
        "trace.overhead_ratio": (traced.wall_s / traced.reads)
        / (untraced.wall_s / untraced.reads),
    }
    metrics.update(engine_layer_metrics(registry_counters, requests))
    for key in ("dispatched", "row_batches", "agg_partials", "failed"):
        metrics[f"shard.worker.{key}"] = traced.protocol.get(key, 0) / requests
    server_layers = {
        name: value
        for name, value in self_ms.items()
        if not name.startswith(("http.client", "store."))
    }
    wall_ms = sum(traced.service_s) * 1000
    table = layers.attribution_table(
        f"{int(requests)} traced closed-loop reads, server-side layers inside "
        "client request time",
        server_layers,
        wall_ms,
        note="wall = summed client send-to-answer time; the remainder is "
        "HTTP client, socket and event-loop time",
    )
    return {"metrics": metrics, "table": table}
