"""Cardinality-driven planning of basic graph patterns.

The evaluator used to order triple patterns by a constant-count heuristic
and join them with nested index lookups only.  This module replaces the
ordering step with a *greedy cost-based planner* and decides, per pattern,
which physical join operator the evaluator should run:

1. **Estimation.**  :class:`CardinalityEstimator` turns a triple pattern
   into a row estimate using only the bookkeeping the ID indexes already
   maintain (``count_for_key`` / ``third_count`` / ``distinct_third_count``
   behind :meth:`TripleStore.count_ids` and
   :meth:`TripleStore.count_distinct_ids`).  Constants are counted
   exactly; a variable that an earlier pattern has already bound divides
   the estimate by the number of distinct values in that position
   (uniformity assumption).

2. **Ordering.**  :func:`plan_bgp` greedily picks, at every step, the
   remaining pattern with the smallest estimated output given the
   variables bound so far, preferring patterns connected to the current
   partial solution so Cartesian products are deferred to last.

3. **Operator selection.**  Each planned step is annotated with the
   physical operator the evaluator should use:

   * ``scan`` — the first pattern: stream matches straight off an index.
   * ``merge`` — a sort-merge semi-join against the sorted third-level
     run of a two-constant pattern, when the solution stream is known to
     be nondecreasing on the pattern's single variable (the first scan
     establishes this order; left-streaming joins preserve it).
   * ``hash`` — build a hash table over the pattern's matches (the
     smaller estimated side), probe with the streamed solutions.  Also
     used for disconnected patterns so a Cartesian product scans the
     store once instead of once per solution.
   * ``nested`` — the classic per-solution index lookup, kept for
     selective patterns where probing the index directly is cheapest.

   The block kernels (:mod:`repro.sparql.kernels`) honour these labels
   for root groups; every other step runs as a per-solution index probe
   whatever its label.

Plans are plain data (:class:`BGPPlan` / :class:`PlanStep`), so tests and
diagnostics can inspect the chosen order and operators without running
the query.  Planning never affects correctness — operators are chosen
only from structural facts (shared variables, constant positions,
sortedness) — so a stale estimate can cost time but not answers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sparql.ast import TriplePatternNode
from repro.sparql.bindings import Variable
from repro.store.triplestore import TripleStore

#: Physical operator labels used in :class:`PlanStep`.
SCAN = "scan"
MERGE = "merge"
HASH = "hash"
NESTED = "nested"

#: Cap on cached plans per store (the cache is cleared wholesale when full).
PLAN_CACHE_LIMIT = 512


def resolve_pattern_ids(
    dictionary, pattern: TriplePatternNode
) -> Optional[List[Optional[int]]]:
    """The pattern's positions as dictionary IDs (``None`` per variable).

    Returns ``None`` when a constant term is unknown to the dictionary —
    the pattern provably matches nothing.  Shared by the evaluator, the
    shard router's callers and the cross-shard join shipper so every layer
    resolves constants identically.
    """
    id_for = dictionary.id_for
    consts: List[Optional[int]] = []
    for term in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(term, Variable):
            consts.append(None)
        else:
            tid = id_for(term)
            if tid is None:
                return None
            consts.append(tid)
    return consts


class PlanContext:
    """Shared planning state for one store: estimator + plan cache.

    Keyed weakly by store (see :func:`plan_context`) so every evaluator —
    including the throwaway instances :func:`evaluate_query` creates per
    call — reuses the same cached estimates and plans.  The context is
    replaced whenever the store's ``data_version`` stamp changes — the
    stamp is bumped by *every* mutation, so an add+remove pair that
    leaves the size unchanged still drops stale plans.  Plans depend on
    the data only through estimates, so a stale context could only ever
    cost time, never answers — but fresh estimates keep the operator
    choices honest as the store evolves.
    """

    __slots__ = ("version", "estimator", "plans")

    def __init__(self, store: TripleStore):
        self.version = store.data_version
        # The estimator must not keep the store alive: this context lives
        # in a WeakKeyDictionary keyed by the store, and a strong reference
        # from the value back to the key would pin the entry forever.
        self.estimator = CardinalityEstimator(weakref.proxy(store))
        self.plans: Dict = {}


_CONTEXTS: "weakref.WeakKeyDictionary[TripleStore, PlanContext]" = (
    weakref.WeakKeyDictionary()
)


def plan_context(store: TripleStore) -> PlanContext:
    """The shared :class:`PlanContext` for ``store`` (fresh after mutation)."""
    context = _CONTEXTS.get(store)
    if context is None or context.version != store.data_version:
        context = PlanContext(store)
        _CONTEXTS[store] = context
    return context


class CardinalityEstimator:
    """Estimates triple-pattern cardinalities from index bookkeeping.

    All estimates come from O(1) index counts except the distinct-value
    counts used for bound variables, which may union per-key ID runs; those
    are cached for the lifetime of the estimator (the shared plan context
    drops its estimator whenever the store's ``data_version`` mutation
    stamp changes).
    """

    __slots__ = ("_store", "_distinct_cache")

    def __init__(self, store: TripleStore):
        self._store = store
        self._distinct_cache: Dict[Tuple, int] = {}

    def pattern_estimate(
        self, pattern: TriplePatternNode, bound: Set[Variable]
    ) -> float:
        """Estimated matches of ``pattern`` per solution with ``bound`` vars.

        Constants unknown to the store's dictionary make the estimate 0
        (the pattern provably matches nothing).
        """
        store = self._store
        id_for = store.dictionary.id_for
        consts: List[Optional[int]] = []
        bound_positions: List[str] = []
        for position, term in zip(
            "spo", (pattern.subject, pattern.predicate, pattern.object)
        ):
            if isinstance(term, Variable):
                consts.append(None)
                if term in bound:
                    bound_positions.append(position)
            else:
                tid = id_for(term)
                if tid is None:
                    return 0.0
                consts.append(tid)
        s, p, o = consts
        estimate = float(store.count_ids(s, p, o))
        if not estimate:
            return 0.0
        for position in bound_positions:
            estimate /= max(1, self._distinct(position, s, p, o))
        return estimate

    def _distinct(self, position: str, s, p, o) -> int:
        key = (position, s, p, o)
        cached = self._distinct_cache.get(key)
        if cached is None:
            if len(self._distinct_cache) >= PLAN_CACHE_LIMIT * 4:
                # Distinct constants can be unbounded on a static store
                # (one entry per queried subject/object); cap like plans.
                self._distinct_cache.clear()
            cached = self._store.count_distinct_ids(position, s, p, o)
            self._distinct_cache[key] = cached
        return cached


@dataclass(frozen=True)
class PlanStep:
    """One planned pattern: its physical operator and cost annotations."""

    pattern: TriplePatternNode
    operator: str
    estimate: float
    join_variables: Tuple[Variable, ...] = ()
    merge_variable: Optional[Variable] = None
    #: The pattern's standalone match estimate (no bound variables) — what a
    #: hash/scan build of this pattern alone would materialise.  The
    #: vectorized kernels use it to decide whether upgrading a ``nested``
    #: step to a block probe-join is worth the build cost.
    build_estimate: float = 0.0

    def describe(self) -> str:
        """One-line human-readable rendering (used by ``BGPPlan.describe``)."""
        parts = [self.operator, f"est={self.estimate:.1f}"]
        if self.join_variables:
            joined = ", ".join(f"?{v.name}" for v in self.join_variables)
            parts.append(f"on [{joined}]")
        pattern = " ".join(
            f"?{t.name}" if isinstance(t, Variable) else str(t)
            for t in (self.pattern.subject, self.pattern.predicate, self.pattern.object)
        )
        return f"{' '.join(parts)}  {{ {pattern} }}"


@dataclass(frozen=True)
class BGPPlan:
    """An ordered sequence of :class:`PlanStep` for one basic graph pattern."""

    steps: Tuple[PlanStep, ...]

    def operators(self) -> List[str]:
        """The operator labels in execution order."""
        return [step.operator for step in self.steps]

    def patterns(self) -> List[TriplePatternNode]:
        """The triple patterns in execution order."""
        return [step.pattern for step in self.steps]

    def describe(self) -> str:
        """A multi-line rendering of the plan for logs and debugging."""
        return "\n".join(step.describe() for step in self.steps)


def _constant_count(pattern: TriplePatternNode) -> int:
    return sum(
        0 if isinstance(term, Variable) else 1
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def plan_bgp(
    store: TripleStore,
    patterns: Sequence[TriplePatternNode],
    bound: Iterable[Variable] = (),
    single_input: bool = True,
    estimator: Optional[CardinalityEstimator] = None,
) -> BGPPlan:
    """Plan a basic graph pattern: order patterns and pick join operators.

    Parameters
    ----------
    patterns:
        The group's triple patterns in syntactic order.
    bound:
        Variables already bound before the BGP runs (initial binding of a
        nested group / EXISTS, or VALUES rows).
    single_input:
        Whether the BGP starts from exactly one input solution.  Only then
        can the first scan establish a global sort order that merge joins
        may rely on (VALUES rows fan the input out, so blocks of sorted
        output would interleave).
    """
    estimator = estimator if estimator is not None else CardinalityEstimator(store)
    bound_now: Set[Variable] = set(bound)
    remaining: List[Tuple[int, TriplePatternNode]] = list(enumerate(patterns))
    steps: List[PlanStep] = []
    cardinality = 1.0
    sorted_by: Optional[Variable] = None

    while remaining:
        best = None
        best_key = None
        for index, pattern in remaining:
            per_solution = estimator.pattern_estimate(pattern, bound_now)
            connected = not steps or bool(set(pattern.variables()) & bound_now)
            key = (0 if connected else 1, cardinality * per_solution, index)
            if best_key is None or key < best_key:
                best_key = key
                best = (index, pattern, per_solution)
        index, pattern, per_solution = best  # type: ignore[misc]
        remaining.remove((index, pattern))

        pattern_vars = set(pattern.variables())
        shared = tuple(sorted(pattern_vars & bound_now, key=lambda v: v.name))
        two_consts = _constant_count(pattern) == 2
        merge_variable: Optional[Variable] = None
        build_estimate = estimator.pattern_estimate(pattern, set())

        if not steps:
            operator = SCAN
            if single_input and two_consts and len(pattern_vars) == 1 and not shared:
                # The scan streams the pattern's sorted third-level run, so
                # the whole solution stream is nondecreasing on this var.
                sorted_by = next(iter(pattern_vars))
        elif sorted_by is not None and two_consts and pattern_vars == {sorted_by}:
            operator = MERGE
            merge_variable = sorted_by
        elif shared:
            operator = HASH if build_estimate < cardinality else NESTED
        else:
            # Disconnected pattern: materialise it once and cross, instead
            # of rescanning the index for every streamed solution.
            operator = HASH

        cardinality = cardinality * per_solution
        steps.append(
            PlanStep(
                pattern=pattern,
                operator=operator,
                estimate=cardinality,
                join_variables=shared,
                merge_variable=merge_variable,
                build_estimate=build_estimate,
            )
        )
        bound_now |= pattern_vars

    return BGPPlan(tuple(steps))
