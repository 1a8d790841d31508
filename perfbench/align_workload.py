"""The ``align-proc8`` workload: the paper's Table 1 pass.

One pass runs the three methods of Table 1 (SSE + pca, SSE + cwa,
UBS + pca) in both directions over ``yago_dbpedia_spec()`` at sample
size 10 with the paper's thresholds: 6 direction runs over 40 and 35
query relations, 225 ``align_relation`` calls.  One aligner thread
drives it as a closed loop.  In ``align-proc8`` each KB is an 8-shard
store behind ``sharded_endpoint(..., backend="process", pool_size=nproc)``.
``check_agreement.py`` runs the same pass over the other
:data:`DEPLOYMENTS`, the single in-process ``TripleStore`` among them.

Endpoints are built once per set-up and reused by every pass; their
accounting is reset before each direction run and the process-wide parse
cache is cleared before each pass.  The seed permutes the order of the
six direction runs.  Every run uses a fresh aligner (fresh sampling RNG),
so the Table 1 of a pass does not depend on the order, and each pass is
checked against the committed reference of its workload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Tuple

from repro.align.aligner import RemoteDataset, SofyaAligner
from repro.align.config import AlignmentConfig
from repro.align.result import AlignmentResult
from repro.endpoint.client import EndpointClient
from repro.endpoint.endpoint import clear_parse_cache, parse_cache_info
from repro.endpoint.simulation import sharded_endpoint
from repro.evaluation.experiment import AlignmentExperiment
from repro.http import HttpSparqlClient, serve_http
from repro.obs import metrics as obs_metrics
from repro.shard.sharded_store import ShardedTripleStore
from repro.synthetic.generator import generate_world
from repro.synthetic.presets import yago_dbpedia_spec

from common import percentile
import layers

SAMPLE_SIZE = 10
SHARDS = 8
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: The three Table 1 rows with the paper's thresholds (τ > 0.3 / 0.1).
METHODS: Tuple[Tuple[str, AlignmentConfig], ...] = (
    ("pca", AlignmentConfig.paper_pca_baseline(SAMPLE_SIZE)),
    ("cwa", AlignmentConfig.paper_cwa_baseline(SAMPLE_SIZE)),
    ("ubs", AlignmentConfig.paper_ubs(SAMPLE_SIZE)),
)


@dataclass
class AlignSetup:
    """One set-up: the world, its endpoints and the per-direction relations.

    ``endpoints`` are the endpoints that keep the query accounting (for
    HTTP, the served endpoint behind the socket); ``datasets`` are what
    the aligner talks to.
    """

    experiment: AlignmentExperiment
    endpoints: Dict[str, object]
    datasets: Dict[str, RemoteDataset]
    relations: Dict[Tuple[str, str], list]
    closers: List[Callable[[], None]]

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


@dataclass
class PassResult:
    wall_s: float
    relation_s: List[float]
    queries: int
    rows: int
    table: Dict[str, Dict[str, List[float]]]
    digest: str
    parse_hits: int
    parse_misses: int


def world_spec():
    return yago_dbpedia_spec()


#: Deployments by name: (shard count, backend); ``None`` shards is one
#: plain ``TripleStore``.  The timed workload uses ``proc8``;
#: ``check_agreement.py`` compares all of them.
DEPLOYMENTS = {
    "local": (None, None),
    "shard1": (1, "thread"),
    "shard2": (2, "thread"),
    "thread8": (SHARDS, "thread"),
    "proc8": (SHARDS, "process"),
    "http8": (SHARDS, "http"),
}


def _serve(deployment: str, name: str, kb, work_dir: Path, closers: list):
    """``(accounting endpoint, query client)`` for one KB."""
    shards, backend = DEPLOYMENTS[deployment]
    if shards is None:
        endpoint = kb.endpoint(name=name)
        return endpoint, EndpointClient(endpoint)
    store = ShardedTripleStore.from_store(kb.store, shards)
    if backend == "thread":
        endpoint = sharded_endpoint(store, name=name, backend="thread")
        closers.append(endpoint.close)
        return endpoint, EndpointClient(endpoint)
    endpoint = sharded_endpoint(
        store,
        name=name,
        backend="process",
        pool_size=min(shards, os.cpu_count() or 1),
        snapshot_dir=work_dir / name,
    )
    if backend == "process":
        closers.append(endpoint.close)
        return endpoint, EndpointClient(endpoint)
    server = serve_http(endpoint, name=name, own_endpoint=True)
    closers.append(server.stop)
    client = HttpSparqlClient(server.url)
    closers.append(client.close)
    return endpoint, EndpointClient(client)


def build(deployment: str, work_dir: Path) -> AlignSetup:
    """Generate the world and stand up both KB endpoints."""
    world = generate_world(world_spec())
    experiment = AlignmentExperiment(world)
    endpoints: Dict[str, object] = {}
    datasets: Dict[str, RemoteDataset] = {}
    closers: List[Callable[[], None]] = []
    try:
        for name, kb in world.kbs.items():
            endpoints[name], client = _serve(deployment, name, kb, work_dir, closers)
            datasets[name] = RemoteDataset(name, client, kb.namespace)
    except BaseException:
        while closers:
            closers.pop()()
        raise
    first, second = world.names()
    relations = {
        (premise, conclusion): experiment.query_relations(premise, conclusion)
        for premise, conclusion in ((first, second), (second, first))
    }
    return AlignSetup(experiment, endpoints, datasets, relations, closers)


def run_order(setup: AlignSetup, seed: int) -> List[Tuple[str, AlignmentConfig, str, str]]:
    """The six (method, direction) runs in the seed's order."""
    runs = [
        (method, config, premise, conclusion)
        for method, config in METHODS
        for premise, conclusion in setup.relations
    ]
    random.Random(seed).shuffle(runs)
    return runs


def run_pass(setup: AlignSetup, order) -> PassResult:
    """One Table 1 pass; returns its timings, cost and Table 1."""
    experiment = setup.experiment
    clear_parse_cache()
    relation_s: List[float] = []
    queries = rows = 0
    table: Dict[str, Dict[str, List[float]]] = {}
    accepted: List[str] = []
    started = time.perf_counter()
    for method, config, premise, conclusion in order:
        for endpoint in setup.endpoints.values():
            endpoint.reset_accounting()
        aligner = SofyaAligner(
            source=setup.datasets[conclusion],
            target=setup.datasets[premise],
            links=experiment.world.links,
            config=config,
        )
        result = AlignmentResult(
            source_kb=conclusion, target_kb=premise, config=config
        )
        for relation in setup.relations[(premise, conclusion)]:
            call_started = time.perf_counter()
            alignment = aligner.align_relation(relation)
            relation_s.append(time.perf_counter() - call_started)
            result.add(alignment)
        for endpoint in setup.endpoints.values():
            snapshot = endpoint.log.snapshot()
            queries += int(snapshot["queries"])
            rows += int(snapshot["rows"])
        evaluated = experiment.evaluate_direction(
            premise, conclusion, result, config.confidence_threshold
        )
        table.setdefault(method, {})[evaluated.direction] = [
            round(evaluated.precision, 9),
            round(evaluated.f1, 9),
        ]
        accepted.extend(
            f"{method}|{evaluated.direction}|{left.value}|{right.value}"
            for left, right in result.predicted_pairs(config.confidence_threshold)
        )
    wall = time.perf_counter() - started
    info = parse_cache_info()
    digest = hashlib.sha256("\n".join(sorted(accepted)).encode("utf-8")).hexdigest()
    return PassResult(
        wall_s=wall,
        relation_s=relation_s,
        queries=queries,
        rows=rows,
        table=table,
        digest=digest,
        parse_hits=info.hits,
        parse_misses=info.misses,
    )


def reference_for(workload: str) -> Dict:
    references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return references[workload]


def check_pass(result: PassResult, reference: Dict) -> List[str]:
    """Mismatches between one pass's Table 1 and the committed reference."""
    problems = []
    if result.table != reference["table"]:
        problems.append(f"Table 1 {result.table} != reference {reference['table']}")
    if result.digest != reference["digest"]:
        problems.append(
            f"accepted-rule digest {result.digest[:12]} != reference "
            f"{reference['digest'][:12]}"
        )
    return problems


def _executors(setup: AlignSetup) -> List:
    return [
        endpoint.executor
        for endpoint in setup.endpoints.values()
        if getattr(endpoint, "executor", None) is not None
    ]


def _protocol_totals(setup: AlignSetup) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for executor in _executors(setup):
        for key, value in executor.protocol_stats().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_layer_metrics(counters: Dict[str, int], units: float) -> Dict[str, float]:
    """``sparql.*`` counters from the process-wide metrics registry."""
    vectorized = counters.get("kernel.vectorized", 0)
    fallbacks = sum(
        value for name, value in counters.items() if name.startswith("kernel.fallback.")
    )
    modes = {
        mode: counters.get("scatter.mode." + mode, 0)
        for mode in ("fast-count", "fold", "scatter", "ship", "global")
    }
    metrics = {
        "sparql.kernel.vectorized_ratio": _ratio(vectorized, vectorized + fallbacks),
        "sparql.scatter.global_share": _ratio(modes["global"], sum(modes.values())),
    }
    for mode, value in modes.items():
        metrics["sparql.scatter." + mode] = value / units
    return metrics


def _run_passes(setup, order, seconds, results, reference, problems) -> None:
    """Checked passes while the next one still fits in ``seconds`` (at least one)."""
    started = time.perf_counter()
    while not results or (
        time.perf_counter() - started + results[-1].wall_s <= seconds
    ):
        results.append(run_pass(setup, order))
        problems.extend(check_pass(results[-1], reference))


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path, report):
    """Set up three times, then run passes for ``seconds``; returns the record."""
    deployment = workload.split("-", 1)[1]
    setup_s: List[float] = []
    setup = None
    for index in range(3):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        setup = build(deployment, work_dir / str(index))
        setup_s.append(time.perf_counter() - started)
    reference = reference_for(workload)
    order = run_order(setup, seed)
    report(f"run order: {[(m, p + '⊂' + c) for m, _, p, c in order]}")

    passes: List[PassResult] = []
    traced: List[PassResult] = []
    problems: List[str] = []
    timer = None
    try:
        _run_passes(setup, order, seconds / 2 if trace else seconds, passes, reference, problems)
        if trace:
            timer = layers.LayerTimer()
            layers.install_align(timer)
            obs_metrics.registry().reset()
            before = _protocol_totals(setup)
            _run_passes(setup, order, seconds / 2, traced, reference, problems)
            after = _protocol_totals(setup)
            counters = obs_metrics.registry().snapshot()["counters"]
    finally:
        if timer is not None:
            timer.restore()
        setup.close()

    relations = len(passes[0].relation_s)
    relation_s = [value for result in passes for value in result.relation_s]
    walls = [result.wall_s for result in passes]
    record = {
        "attempted": sum(len(result.relation_s) for result in passes + traced),
        "failed": 0,
        "problems": problems,
        "metrics": {
            "setup_s": median(setup_s),
            "op_p50_ms": median(relation_s) * 1000,
            "op_p95_ms": percentile(relation_s, 95) * 1000,
            "ops_per_s": sum(len(r.relation_s) for r in passes) / sum(walls),
            "queries_per_op": passes[0].queries / relations,
            "rows_per_op": passes[0].rows / relations,
        },
    }
    report(
        f"align_wall_s median {median(walls):.3f} s over {len(walls)} passes; "
        f"relation_p50_ms {median(relation_s) * 1000:.2f}, relation_p95_ms "
        f"{percentile(relation_s, 95) * 1000:.2f} over {len(relation_s)} calls; "
        f"queries/pass {passes[0].queries}, rows/pass {passes[0].rows}; "
        f"setup_s {[round(value, 3) for value in setup_s]}"
    )
    report(f"Table 1: {json.dumps(passes[0].table, ensure_ascii=False, sort_keys=True)}")
    report(f"accepted-rule digest: {passes[0].digest}")
    if trace:
        record["layers"] = _layer_metrics(timer, traced, walls, counters, before, after)
    return record


def _layer_metrics(timer, traced, untraced_walls, counters, before, after) -> Dict:
    units = float(len(traced))
    totals = timer.totals()
    self_ms = totals["self_ms"]
    queries = totals["phase_queries"]
    traced_wall_ms = sum(result.wall_s for result in traced) * 1000
    metrics: Dict[str, float] = {}
    for phase in ("candidates", "sample", "ubs", "equivalence"):
        metrics[f"align.{phase}.ms"] = self_ms.get(f"align.{phase}", 0.0) / units
        metrics[f"align.{phase}.queries"] = queries.get(f"align.{phase}", 0) / units
    metrics["align.self_ms"] = self_ms.get("align.relation", 0.0) / units
    metrics["endpoint.client.self_ms"] = self_ms.get("endpoint.client", 0.0) / units
    metrics["endpoint.query.self_ms"] = self_ms.get("endpoint.query", 0.0) / units
    metrics["endpoint.parse.ms"] = self_ms.get("endpoint.parse", 0.0) / units
    hits = sum(result.parse_hits for result in traced)
    misses = sum(result.parse_misses for result in traced)
    metrics["endpoint.parse.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["endpoint.rows_used_ratio"] = _ratio(
        totals["rows_returned"], sum(result.rows for result in traced)
    )
    metrics["sparql.evaluate.ms"] = self_ms.get("sparql.evaluate", 0.0) / units
    metrics.update(engine_layer_metrics(counters, units))
    for key in ("dispatched", "row_batches", "agg_partials", "failed"):
        metrics[f"shard.worker.{key}"] = (after.get(key, 0) - before.get(key, 0)) / units
    metrics["shard.worker.wait_ms"] = self_ms.get("shard.wait", 0.0) / units
    metrics["trace.overhead_ratio"] = median(
        [result.wall_s for result in traced]
    ) / median(untraced_walls)
    table = layers.attribution_table(
        f"{len(traced)} traced pass(es), aligner thread",
        self_ms,
        traced_wall_ms,
        note="ms summed over the traced passes",
    )
    return {"metrics": metrics, "table": table}
