"""Record join-planner and bulk-load benchmark numbers into a JSON artefact.

Companion to ``record_substrate.py`` for the PR 2 hot paths: multi-pattern
SPARQL joins (cardinality-driven planner with merge/hash operators), the
columnar bulk-load path, and the membership probe.  The script is
*portable across revisions* — it only uses APIs present since PR 1 and
falls back when the new fast paths are absent (``bulk_load`` falls back to
``add_all``, the evaluator falls back to its only strategy) — so the same
file can be dropped into a PR 1 checkout to produce the baseline::

    # in a PR 1 worktree
    PYTHONPATH=src python benchmarks/record_join.py --label pr1 --out pr1.json
    # in the current tree
    PYTHONPATH=src python benchmarks/record_join.py --label pr2 --out pr2.json \
        --baseline pr1.json --combined BENCH_join.json

The join queries deliberately put the most selective pattern *last* in
query text: a realistic shape that PR 1's constant-count reordering could
not fix (all patterns have one constant) and the cardinality planner can.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sparql.evaluate import QueryEvaluator  # noqa: E402
from repro.sparql.parser import parse_query  # noqa: E402
from repro.store.triplestore import TripleStore  # noqa: E402
from repro.synthetic.generator import generate_world  # noqa: E402
from repro.synthetic.presets import yago_dbpedia_spec  # noqa: E402
from _harness import best_of  # noqa: E402

SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"

#: Timed runs per metric (best-of).
REPEATS = 5


def run_benchmarks() -> dict:
    world = generate_world(yago_dbpedia_spec())
    yago = world.kb("yago")
    store = yago.store
    relations = sorted(yago.relations(), key=lambda info: -info.fact_count)
    big = relations[0].iri
    mid = relations[len(relations) // 2].iri
    small = relations[-1].iri

    evaluator = QueryEvaluator(store)
    join3 = parse_query(
        f"SELECT ?s ?o ?x WHERE {{ ?s <{big.value}> ?o . "
        f"?s <{SAME_AS}> ?x . ?s <{small.value}> ?n }}"
    )
    join4 = parse_query(
        f"SELECT ?s WHERE {{ ?s <{big.value}> ?o . ?s <{SAME_AS}> ?x . "
        f"?s <{mid.value}> ?m . ?s <{small.value}> ?n }}"
    )
    ask_skewed = parse_query(
        f"ASK {{ ?s <{big.value}> ?o . ?s <{mid.value}> ?m . "
        f"?s <{small.value}> ?n }}"
    )

    all_triples = [triple for kb in world.kbs.values() for triple in kb.store]

    def build_store() -> None:
        fresh = TripleStore(name="bench-load")
        loader = getattr(fresh, "bulk_load", None)
        if loader is None:  # PR 1: per-triple insertion was the only path
            fresh.add_all(all_triples)
        else:
            loader(all_triples)

    probes = list(store)[:500]

    return {
        "yago_triples": len(store),
        "preset_triples": len(all_triples),
        "sparql_join3_selective_last_ms": best_of(
            lambda: evaluator.evaluate(join3), REPEATS
        ),
        "sparql_join4_selective_last_ms": best_of(
            lambda: evaluator.evaluate(join4), REPEATS
        ),
        "sparql_ask_skewed_ms": best_of(
            lambda: evaluator.evaluate(ask_skewed), REPEATS, inner=5
        ),
        "bulk_load_preset_ms": best_of(build_store, REPEATS),
        "membership_probe_ms": best_of(
            lambda: sum(1 for triple in probes if triple in store), REPEATS
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--baseline", default=None, help="baseline JSON to diff against")
    parser.add_argument("--combined", default=None, help="write combined before/after JSON")
    args = parser.parse_args()

    results = {"label": args.label, "results": run_benchmarks()}
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    if args.baseline and args.combined:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        speedups = {}
        for key, after_value in results["results"].items():
            before_value = baseline["results"].get(key)
            if key.endswith("_ms") and isinstance(before_value, (int, float)) and after_value:
                speedups[key.replace("_ms", "_speedup")] = round(before_value / after_value, 2)
        combined = {
            "benchmark": "benchmarks/record_join.py",
            "preset": "yago_dbpedia_spec() (paper-scale, largest preset)",
            "before": baseline,
            "after": results,
            "speedup": speedups,
        }
        # The membership satellite targets the *seed* number, not just PR 1:
        # surface it next to the new measurement when the substrate artefact
        # is available.
        substrate = _ROOT / "BENCH_substrate.json"
        if substrate.exists():
            try:
                seed = json.loads(substrate.read_text(encoding="utf-8"))["before"]["results"]
                combined["seed_reference"] = {
                    "membership_probe_ms": seed.get("membership_probe_ms")
                }
            except (KeyError, ValueError):  # pragma: no cover - defensive
                pass
        Path(args.combined).write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(speedups, indent=2))


if __name__ == "__main__":
    main()
