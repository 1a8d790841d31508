"""Sharded query plans: shards probed vs pruned, scatter, ship or global.

Builds the YAGO-like KB over a 4-shard :class:`ShardedTripleStore` and
prints ``ShardedQueryEvaluator.explain`` output for the query shapes the
aligner issues:

* a star query (all patterns share one subject variable) — *scattered*:
  the planned operator pipeline runs per shard and the streams chain;
* the same star with a ``VALUES`` clause — routing narrows to the shards
  owning the listed subjects, the rest are pruned before any scan;
* a cross-subject chain join — *shipped*: the pattern anchored on one
  subject variable runs per shard and the other pattern's matches are
  broadcast to every routed shard as a hash table;
* a constant-subject probe — evaluated on the *global* merged view, where
  the subject routes it to its owning shard.

Run with::

    PYTHONPATH=src python examples/sharded_explain.py
"""

from repro.rdf.ntriples import term_to_ntriples
from repro.shard import ShardedTripleStore
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.synthetic import generate_world, yago_dbpedia_spec


def show(evaluator: ShardedQueryEvaluator, title: str, query: str) -> None:
    print(f"--- {title}")
    print(query.strip())
    print()
    print(evaluator.explain(query).describe())
    result = evaluator.evaluate(query)
    try:
        size = len(result)  # type: ignore[arg-type]
    except TypeError:
        size = int(bool(result))
    print(f"=> {size} rows\n")


def main() -> None:
    spec = yago_dbpedia_spec(
        families=10,
        yago_relation_count=30,
        dbpedia_relation_count=80,
        people=220,
        works=160,
        places=80,
        orgs=60,
        seed=41,
    )
    world = generate_world(spec, shard_count=4)
    yago = world.kb("yago")
    store = yago.store
    assert isinstance(store, ShardedTripleStore)
    print(f"{store!r}  shard sizes: {store.shard_sizes()}")
    print(f"boundaries (subject-ID cut points): {store.boundaries}\n")

    evaluator = ShardedQueryEvaluator(store)
    relation = yago.namespace.term("y_equivalent00")
    shadow = yago.namespace.term("y_equivalent00_shadow")
    subjects = list(store.subjects(relation))[:3]
    values = " ".join(term_to_ntriples(subject) for subject in subjects)

    show(
        evaluator,
        "star query: scattered, full pipeline per shard",
        f"SELECT ?s ?o ?o2 WHERE {{ ?s <{relation.value}> ?o . "
        f"?s <{shadow.value}> ?o2 }}",
    )
    show(
        evaluator,
        "VALUES-routed star: only the owning shards evaluate",
        f"SELECT ?s ?p ?o WHERE {{ VALUES ?s {{ {values} }} ?s ?p ?o }}",
    )
    show(
        evaluator,
        "chain join: shipped, one side broadcast to the routed shards",
        f"SELECT ?s ?x ?p WHERE {{ ?s <{relation.value}> ?x . "
        f"?x ?p ?s }}",
    )
    # A fact present in exactly one shard: count pruning removes the rest.
    sample = next(iter(store.match(predicate=relation)))
    show(
        evaluator,
        "subject-routed probe: one shard probed, the rest pruned",
        f"SELECT ?o WHERE {{ {term_to_ntriples(sample.subject)} <{relation.value}> ?o }}",
    )


if __name__ == "__main__":
    main()
