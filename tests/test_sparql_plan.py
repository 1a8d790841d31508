"""Tests for the cardinality-driven BGP planner and its join operators."""

import pytest

from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.sparql.ast import TriplePatternNode
from repro.sparql.bindings import Variable
from repro.sparql.evaluate import QueryEvaluator, evaluate_query
from repro.sparql.plan import CardinalityEstimator, plan_bgp
from repro.store.triplestore import TripleStore

EX = Namespace("http://plan.test/")

S = Variable("s")
X = Variable("x")
Y = Variable("y")


def skewed_store() -> TripleStore:
    """A store with one big, one mid and one tiny predicate.

    * ``big``: 120 facts over 60 subjects (fan-out 2)
    * ``mid``: 20 facts over 20 subjects (all also big-subjects)
    * ``tiny``: 4 facts over 4 subjects (all also big- and mid-subjects)
    """
    store = TripleStore()
    for index in range(60):
        store.add(Triple(EX[f"e{index}"], EX.big, EX[f"v{index}"]))
        store.add(Triple(EX[f"e{index}"], EX.big, EX[f"u{index}"]))
    for index in range(20):
        store.add(Triple(EX[f"e{index}"], EX.mid, EX[f"w{index}"]))
    for index in range(4):
        store.add(Triple(EX[f"e{index}"], EX.tiny, EX[f"t{index}"]))
    return store


def fanout_store() -> TripleStore:
    """5 ``t`` facts, each subject fanning out over 100 ``f`` objects, 50 ``g``."""
    store = TripleStore()
    for i in range(5):
        store.add(Triple(EX[f"s{i}"], EX.t, EX[f"a{i}"]))
        for j in range(100):
            store.add(Triple(EX[f"s{i}"], EX.f, EX[f"x{j}"]))
    for j in range(50):
        store.add(Triple(EX[f"x{j}"], EX.g, EX[f"c{j}"]))
    return store


class TestPlanOrdering:
    def test_most_selective_pattern_runs_first_despite_text_order(self):
        store = skewed_store()
        patterns = [
            TriplePatternNode(S, EX.big, X),
            TriplePatternNode(S, EX.mid, Y),
            TriplePatternNode(S, EX.tiny, Variable("t")),
        ]
        plan = plan_bgp(store, patterns)
        ordered_predicates = [step.pattern.predicate for step in plan.steps]
        assert ordered_predicates == [EX.tiny, EX.mid, EX.big]
        assert plan.operators()[0] == "scan"

    def test_constant_count_alone_does_not_decide(self):
        # Both patterns have one constant; the planner must order by size.
        store = skewed_store()
        patterns = [
            TriplePatternNode(S, EX.big, X),
            TriplePatternNode(S, EX.tiny, Y),
        ]
        plan = plan_bgp(store, patterns)
        assert plan.steps[0].pattern.predicate == EX.tiny

    def test_unknown_constant_estimates_zero_and_runs_first(self):
        store = skewed_store()
        estimator = CardinalityEstimator(store)
        ghost = TriplePatternNode(S, EX.never_seen, X)
        assert estimator.pattern_estimate(ghost, set()) == 0.0
        plan = plan_bgp(store, [TriplePatternNode(S, EX.big, X), ghost])
        assert plan.steps[0].pattern is ghost

    def test_disconnected_pattern_deferred_to_last(self):
        store = skewed_store()
        disconnected = TriplePatternNode(Variable("a"), EX.mid, Variable("b"))
        patterns = [
            disconnected,
            TriplePatternNode(S, EX.tiny, Variable("t")),
            TriplePatternNode(S, EX.big, X),
        ]
        plan = plan_bgp(store, patterns)
        assert plan.steps[-1].pattern is disconnected
        assert plan.steps[-1].operator == "hash"
        assert plan.steps[-1].join_variables == ()


class TestOperatorSelection:
    def test_nested_join_for_selective_probe(self):
        # After scanning tiny (4 rows) the stream is smaller than mid's 20
        # facts, so probing the index per solution beats building a table.
        store = skewed_store()
        patterns = [
            TriplePatternNode(S, EX.tiny, Variable("t")),
            TriplePatternNode(S, EX.mid, Y),
        ]
        plan = plan_bgp(store, patterns)
        assert plan.operators() == ["scan", "nested"]
        assert plan.steps[1].join_variables == (S,)

    def test_hash_when_stream_larger_than_build(self):
        # t (5 rows) scans first, f fans the stream out to ~500 rows, and
        # only then is g (50 facts) joined: 500 probes against a 50-entry
        # build side, so the planner picks the hash operator for g.
        store = fanout_store()
        patterns = [
            TriplePatternNode(S, EX.t, Variable("a")),
            TriplePatternNode(S, EX.f, X),
            TriplePatternNode(X, EX.g, Variable("c")),
        ]
        plan = plan_bgp(store, patterns)
        assert [step.pattern.predicate for step in plan.steps] == [EX.t, EX.f, EX.g]
        assert plan.steps[1].operator == "nested"
        assert plan.steps[2].operator == "hash"
        assert plan.steps[2].join_variables == (X,)


class TestEvaluatorIntegration:
    def test_explain_exposes_the_executed_plan(self):
        store = skewed_store()
        evaluator = QueryEvaluator(store)
        query = (
            f"SELECT ?s WHERE {{ ?s <{EX.big.value}> ?x . "
            f"?s <{EX.tiny.value}> ?t }}"
        )
        plan = evaluator.explain(query)
        assert plan.steps[0].pattern.predicate == EX.tiny
        # The cached plan is reused for the identical group.
        assert evaluator.explain(query) is plan

    def test_plan_cache_invalidated_when_store_changes(self):
        store = skewed_store()
        evaluator = QueryEvaluator(store)
        query = f"SELECT ?s WHERE {{ ?s <{EX.big.value}> ?x }}"
        first = evaluator.explain(query)
        store.add(Triple(EX.extra, EX.big, EX.value))
        assert evaluator.explain(query) is not first

    def test_merge_plan_returns_same_rows_as_naive(self):
        store = skewed_store()
        query = (
            f"SELECT ?s WHERE {{ ?s <{EX.tiny.value}> <{EX.t0.value}> . "
            f"?s <{EX.big.value}> <{EX.v0.value}> }}"
        )
        planner_rows = sorted(map(str, QueryEvaluator(store).evaluate(query).column("s")))
        naive_rows = sorted(
            map(str, QueryEvaluator(store, use_planner=False).evaluate(query).column("s"))
        )
        assert planner_rows == naive_rows
        assert planner_rows == [str(EX.e0)]

    def test_hash_plan_returns_same_rows_as_naive(self):
        # The planner labels the g step "hash"; it runs as a per-row probe
        # and must still return every t/f/g solution.
        store = fanout_store()
        query = (
            f"SELECT * WHERE {{ ?s <{EX.t.value}> ?a . ?s <{EX.f.value}> ?x . "
            f"?x <{EX.g.value}> ?c }}"
        )
        assert QueryEvaluator(store).explain(query).operators()[2] == "hash"
        planned = QueryEvaluator(store).evaluate(query)
        naive = QueryEvaluator(store, use_planner=False).evaluate(query)
        assert sorted(map(repr, planned)) == sorted(map(repr, naive))
        assert len(planned) == 5 * 50

    def test_three_pattern_join_matches_naive(self):
        store = skewed_store()
        query = (
            f"SELECT ?s ?x ?y WHERE {{ ?s <{EX.big.value}> ?x . "
            f"?s <{EX.mid.value}> ?y . ?s <{EX.tiny.value}> ?t }}"
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = QueryEvaluator(store, use_planner=False).evaluate(query)
        assert sorted(map(repr, planned)) == sorted(map(repr, naive))
        assert len(planned) == 8

    def test_disconnected_product_matches_naive(self):
        store = skewed_store()
        query = (
            f"SELECT ?s ?a WHERE {{ ?s <{EX.tiny.value}> ?t . "
            f"?a <{EX.mid.value}> ?m }}"
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = QueryEvaluator(store, use_planner=False).evaluate(query)
        assert sorted(map(repr, planned)) == sorted(map(repr, naive))
        assert len(planned) == 4 * 20

    def test_ask_and_limit_short_circuit_still_work(self):
        store = skewed_store()
        ask = (
            f"ASK {{ ?s <{EX.tiny.value}> ?t . ?s <{EX.big.value}> ?x }}"
        )
        assert bool(evaluate_query(store, ask)) is True
        limited = evaluate_query(
            store,
            f"SELECT ?s WHERE {{ ?s <{EX.big.value}> ?x . "
            f"?s <{EX.mid.value}> ?y }} LIMIT 3",
        )
        assert len(limited) == 3

    def test_values_with_undef_rows_matches_naive(self):
        # A VALUES variable left UNDEF in some rows is only bound in some
        # solutions; the planner must not claim it bound (a hash join
        # keyed on it would silently drop the unbound-row solutions).
        store = TripleStore()
        for i in range(5):
            store.add(Triple(EX[f"h{i}"], EX.p1, EX[f"hx{i}"]))
            for j in range(60):
                store.add(Triple(EX[f"h{i}"], EX.p2, EX[f"hy{j}"]))
        for j in range(20):
            store.add(Triple(EX[f"z{j}"], EX.p3, EX[f"hy{j}"]))
        query = (
            f"SELECT ?s ?o WHERE {{ VALUES ?o {{ UNDEF <{EX.hy0.value}> }} "
            f"?s <{EX.p1.value}> ?x . ?s <{EX.p2.value}> ?y . "
            f"?z <{EX.p3.value}> ?o }}"
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = QueryEvaluator(store, use_planner=False).evaluate(query)
        assert sorted(map(repr, planned)) == sorted(map(repr, naive))

    def test_values_query_with_planner_matches_naive(self):
        store = skewed_store()
        query = (
            f"SELECT ?s ?x WHERE {{ VALUES ?s {{ <{EX.e0.value}> <{EX.e1.value}> }} "
            f"?s <{EX.big.value}> ?x . ?s <{EX.mid.value}> ?y }}"
        )
        planned = QueryEvaluator(store).evaluate(query)
        naive = QueryEvaluator(store, use_planner=False).evaluate(query)
        assert sorted(map(repr, planned)) == sorted(map(repr, naive))
        assert len(planned) == 4


class TestPlanContextLifecycle:
    def test_plan_context_does_not_keep_stores_alive(self):
        import gc
        import weakref

        from repro.sparql import plan as plan_module

        store = skewed_store()
        QueryEvaluator(store).evaluate(
            f"SELECT ?s WHERE {{ ?s <{EX.big.value}> ?x . ?s <{EX.mid.value}> ?y }}"
        )
        assert store in plan_module._CONTEXTS
        ref = weakref.ref(store)
        del store
        gc.collect()
        assert ref() is None, "plan context must not pin the store"


class TestCardinalityEstimates:
    def test_constant_pattern_counts_are_exact(self):
        store = skewed_store()
        estimator = CardinalityEstimator(store)
        assert estimator.pattern_estimate(TriplePatternNode(S, EX.big, X), set()) == 120.0
        assert estimator.pattern_estimate(TriplePatternNode(S, EX.tiny, X), set()) == 4.0

    def test_bound_variable_divides_by_distinct_count(self):
        store = skewed_store()
        estimator = CardinalityEstimator(store)
        # 120 big facts over 60 distinct subjects -> 2 expected per subject.
        estimate = estimator.pattern_estimate(TriplePatternNode(S, EX.big, X), {S})
        assert estimate == pytest.approx(2.0)

    def test_estimates_cached_per_estimator(self):
        store = skewed_store()
        estimator = CardinalityEstimator(store)
        pattern = TriplePatternNode(S, EX.big, X)
        estimator.pattern_estimate(pattern, {S})
        assert ("s", None, store.term_id(EX.big), None) in estimator._distinct_cache
