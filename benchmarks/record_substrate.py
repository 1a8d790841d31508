"""Record substrate micro-benchmark numbers into a JSON artefact.

Standalone timing runner (no pytest-benchmark) so results can be captured
for both the seed store and the dictionary-encoded store and diffed in
``BENCH_substrate.json``.  Usage::

    PYTHONPATH=src python benchmarks/record_substrate.py --label seed --out seed.json
    PYTHONPATH=src python benchmarks/record_substrate.py --label pr1 --out pr1.json \
        --baseline seed.json --combined BENCH_substrate.json

Each benchmark reports the best-of-``repeats`` wall time in milliseconds on
the largest synthetic preset (the paper-scale YAGO-like/DBpedia-like pair).

``--check COMMITTED.json`` turns the run into a regression guard: every
``*_ms`` metric is compared against the committed artefact's "after"
numbers and the process exits non-zero if any metric regressed more than
``--max-regression`` (default 2x).  Combined with ``--smoke`` (a much
smaller world, so it is strictly *easier* to beat the committed numbers)
this gives CI a cheap tripwire for catastrophic slowdowns without flaking
on machine variance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.endpoint.client import EndpointClient  # noqa: E402
from repro.endpoint.endpoint import SparqlEndpoint  # noqa: E402
from repro.sparql.evaluate import evaluate_query  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402
from _harness import best_of  # noqa: E402

#: Timed runs per metric (best-of).
REPEATS = 5


def run_benchmarks(spec=None) -> dict:
    world = generate_world(spec if spec is not None else yago_dbpedia_spec())
    yago = world.kb("yago")
    store = yago.store
    relation = sorted(yago.relations(), key=lambda info: -info.fact_count)[0].iri

    probes = list(store.match())[:500]
    client = EndpointClient(SparqlEndpoint(store, name="bench"))
    subjects = list(store.subjects(relation))[:40]

    join_query = (
        f"SELECT ?s ?o WHERE {{ ?s <{relation.value}> ?o . "
        f"?s <http://www.w3.org/2002/07/owl#sameAs> ?x }} LIMIT 100"
    )
    count_query = f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{relation.value}> ?o }}"
    ask_query = (
        f"ASK {{ ?s <{relation.value}> ?o . "
        f"?s <http://www.w3.org/2002/07/owl#sameAs> ?x }}"
    )

    results = {
        "triples": len(store),
        "pattern_match_by_predicate_ms": best_of(
            lambda: sum(1 for _ in store.match(predicate=relation)), REPEATS
        ),
        "membership_probe_ms": best_of(
            lambda: sum(1 for t in probes if t in store), REPEATS
        ),
        "count_by_predicate_ms": best_of(
            lambda: store.count(predicate=relation), REPEATS, inner=10
        ),
        "sparql_join_limit100_ms": best_of(
            lambda: evaluate_query(store, join_query), REPEATS
        ),
        "sparql_count_ms": best_of(
            lambda: evaluate_query(store, count_query), REPEATS
        ),
        "sparql_ask_ms": best_of(
            lambda: evaluate_query(store, ask_query), REPEATS, inner=5
        ),
        "endpoint_batched_facts_ms": best_of(
            lambda: client.facts_of_subjects(subjects, relation), REPEATS
        ),
        "endpoint_repeat_ask_100_ms": best_of(
            lambda: [
                client.subject_has_relation(subject, relation)
                for subject in subjects[:20]
            ],
            REPEATS,
        ),
    }
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--baseline", default=None, help="baseline JSON to diff against")
    parser.add_argument("--combined", default=None, help="write combined before/after JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny run for CI smoke checks")
    parser.add_argument(
        "--check",
        default=None,
        metavar="COMMITTED_JSON",
        help="fail when any *_ms metric regresses versus this artefact's after-numbers",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="allowed slowdown factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=0.05,
        help="absolute slack in ms added to every --check threshold, so "
        "sub-microsecond O(1) metrics cannot flake on slow runners",
    )
    args = parser.parse_args()

    spec = None
    if args.smoke:
        # A much smaller world: cheap enough for CI, still end-to-end.
        spec = yago_dbpedia_spec(families=5, people=60, works=40, places=20, orgs=15)

    results = {"label": args.label, "results": run_benchmarks(spec)}
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    if args.check:
        committed = json.loads(Path(args.check).read_text(encoding="utf-8"))
        reference = committed.get("after", committed).get("results", {})
        failures = []
        for key, reference_value in reference.items():
            measured = results["results"].get(key)
            if (
                key.endswith("_ms")
                and isinstance(reference_value, (int, float))
                and isinstance(measured, (int, float))
                and measured > reference_value * args.max_regression + args.noise_floor
            ):
                failures.append((key, reference_value, measured))
        if failures:
            for key, reference_value, measured in failures:
                print(
                    f"REGRESSION {key}: {measured:.4f} ms > "
                    f"{args.max_regression:g}x committed {reference_value:.4f} ms "
                    f"+ {args.noise_floor:g} ms"
                )
            sys.exit(2)
        print(f"regression check ok ({len(reference)} metrics, {args.max_regression:g}x headroom)")

    if args.baseline and args.combined:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        speedups = {}
        for key, after_value in results["results"].items():
            before_value = baseline["results"].get(key)
            if key.endswith("_ms") and isinstance(before_value, (int, float)) and after_value:
                speedups[key.replace("_ms", "_speedup")] = round(before_value / after_value, 2)
        combined = {
            "benchmark": "benchmarks/record_substrate.py",
            "preset": "yago_dbpedia_spec() (paper-scale, largest preset)",
            "before": baseline,
            "after": results,
            "speedup": speedups,
        }
        Path(args.combined).write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(speedups, indent=2))


if __name__ == "__main__":
    main()
