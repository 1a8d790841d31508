"""Differential fuzzing: vectorized kernels vs the unplanned reference.

For hypothesis-generated datasets, every query family must produce the
same solution multiset whether the group is evaluated by the block
kernels or by the unplanned per-row reference — across every backend the
kernels claim to support:

* the warm single store,
* a cold mmap-reopened snapshot of it,
* ``ShardedQueryEvaluator`` at 1, 2 and 8 thread-backed shards,
* the process-backed scatter executor (whose workers build their own
  vectorized evaluators over the per-shard snapshots).

The reference is always ``QueryEvaluator(..., use_planner=False)``.
LIMIT pages may legitimately differ in *which* rows they pick, so they
assert size + subset-of-universe instead of identity (ASK and LIMIT also
exercise the early-exit path through the block stream).
"""

import multiprocessing
import os
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    AskQuery,
    CountExpression,
    GroupGraphPattern,
    OptionalNode,
    ProjectionItem,
    SelectQuery,
    TriplePatternNode,
    UnionNode,
    ValuesNode,
)
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.triplestore import TripleStore

EX = Namespace("http://diffvec.test/")

START_METHOD = os.environ.get("REPRO_WORKER_START_METHOD") or None
if START_METHOD and START_METHOD not in multiprocessing.get_all_start_methods():
    pytest.skip(
        f"start method {START_METHOD!r} unsupported on this platform",
        allow_module_level=True,
    )

SHARD_COUNTS = (1, 2, 8)

# Deliberately tiny vocabulary so random BGPs actually join; repeated
# variables within one pattern (e.g. ?a ?a ?b) are drawn too, exercising
# the kernels' refusal path.
_iris = st.sampled_from([EX[f"n{index}"] for index in range(6)])
_literals = st.sampled_from(
    [Literal("v0"), Literal("v1", language="en"), Literal(7)]
)
_objects = st.one_of(_iris, _literals)
_variables = st.sampled_from([Variable(name) for name in "abc"])
_subject_terms = st.one_of(_variables, _iris)
_object_terms = st.one_of(_variables, _iris)
_patterns = st.builds(
    TriplePatternNode, _subject_terms, _subject_terms, _object_terms
)
_pattern_lists = st.lists(_patterns, min_size=1, max_size=3)
_triples = st.lists(st.builds(Triple, _iris, _iris, _objects), max_size=40)
_values_nodes = st.lists(
    st.tuples(st.one_of(st.none(), _iris), st.one_of(st.none(), _iris)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: ValuesNode(
        variables=(Variable("a"), Variable("b")), rows=tuple(rows)
    )
)


def _multiset(result) -> Counter:
    return Counter(frozenset(row.items()) for row in result)


def _select(*elements, **modifiers) -> SelectQuery:
    return SelectQuery(
        projection=(),
        where=GroupGraphPattern(tuple(elements)),
        select_all=True,
        **modifiers,
    )


def _vectorized_evaluators(triples, stack: ExitStack):
    """``(unplanned reference, [(label, vectorized evaluator), ...])``."""
    reference = QueryEvaluator(TripleStore(triples=triples), use_planner=False)
    warm = TripleStore(triples=triples)
    evaluators = [("warm", QueryEvaluator(warm))]
    tmp = Path(tempfile.mkdtemp(prefix="diffvec-"))
    warm.save(tmp / "store.snap")
    evaluators.append(("cold-mmap", QueryEvaluator(TripleStore.open(tmp / "store.snap"))))
    for count in SHARD_COUNTS:
        store = ShardedTripleStore(num_shards=count, triples=triples)
        evaluators.append((f"thread-{count}", ShardedQueryEvaluator(store)))
    process_store = ShardedTripleStore(num_shards=2, triples=triples)
    executor = stack.enter_context(
        process_store.serve(tmp / "shards", start_method=START_METHOD)
    )
    evaluators.append(
        (
            "process-2",
            ShardedQueryEvaluator(process_store, backend="process", executor=executor),
        )
    )
    return reference, evaluators


class TestDifferentialVectorized:
    @given(
        triples=_triples,
        bgp=_pattern_lists,
        required=_patterns,
        optionals=st.lists(_patterns, min_size=1, max_size=2),
        left=st.lists(_patterns, min_size=1, max_size=2),
        right=st.lists(_patterns, min_size=1, max_size=2),
        values=_values_nodes,
        ask_patterns=_pattern_lists,
        limit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=8, deadline=None)
    def test_vectorized_agrees_with_scalar_battery(
        self,
        triples,
        bgp,
        required,
        optionals,
        left,
        right,
        values,
        ask_patterns,
        limit,
    ):
        multiset_queries = [
            ("bgp", _select(*bgp)),
            (
                "optional",
                _select(
                    required, OptionalNode(GroupGraphPattern(tuple(optionals)))
                ),
            ),
            (
                "union",
                _select(
                    UnionNode(
                        branches=(
                            GroupGraphPattern(tuple(left)),
                            GroupGraphPattern(tuple(right)),
                        )
                    )
                ),
            ),
            ("values", _select(values, *bgp)),
            (
                "count",
                SelectQuery(
                    projection=(
                        ProjectionItem(
                            expression=CountExpression(), alias=Variable("c")
                        ),
                        ProjectionItem(
                            expression=CountExpression(
                                variable=Variable("a"), distinct=True
                            ),
                            alias=Variable("d"),
                        ),
                    ),
                    where=GroupGraphPattern(tuple(bgp)),
                ),
            ),
        ]
        ask = AskQuery(where=GroupGraphPattern(tuple(ask_patterns)))
        paged = _select(*bgp, limit=limit)

        with ExitStack() as stack:
            reference, evaluators = _vectorized_evaluators(triples, stack)
            expectations = {
                label: _multiset(reference.evaluate(query))
                for label, query in multiset_queries
            }
            expected_ask = bool(reference.evaluate(ask))
            universe = expectations["bgp"]
            expected_page = min(limit, sum(universe.values()))

            for label, evaluator in evaluators:
                for family, query in multiset_queries:
                    assert (
                        _multiset(evaluator.evaluate(query))
                        == expectations[family]
                    ), f"{family} @ {label}"
                assert bool(evaluator.evaluate(ask)) == expected_ask, label
                page = _multiset(evaluator.evaluate(paged))
                assert sum(page.values()) == expected_page, label
                for row, count in page.items():
                    assert universe[row] >= count, label
