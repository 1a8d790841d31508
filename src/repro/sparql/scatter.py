"""Scatter/gather query evaluation over a sharded triple store.

:class:`ShardedQueryEvaluator` extends :class:`QueryEvaluator` with one
distributed plan, a :class:`~repro.sparql.distjoin.ShipPlan`, chosen
per group by *structure alone* (so the choice can cost time, never
answers).  A plan names a partition variable, an *anchor* sub-group
whose every solution binds that variable to one subject ID — subject
range partitioning puts all triples of that subject in one shard, so
the anchor runs per shard against that shard's local evaluator — and
the broadcast tables probed after it:

* **scatter** — a *co-partitioned* group: every triple pattern,
  recursively through OPTIONAL / UNION / nested groups / FILTER EXISTS,
  has the same variable in subject position (the star shape of the
  aligner's batched ``VALUES ?s {...} ?s ?p ?o`` probes).  The whole
  group is the anchor and nothing is broadcast.
* **ship** — a pure-BGP group that is *not* co-partitioned (the classic
  s–o chain) but where some subject-position variable anchors part of
  it: the remaining patterns' full match sets are broadcast to every
  routed shard as columnar ID tables and probed there with a hash join
  (see :mod:`repro.sparql.distjoin`).  Shipping engages only when the
  broadcast side stays under ``REPRO_BROADCAST_LIMIT``; otherwise the
  group falls back.

Either way the :class:`ShardRouter` first prunes shards — by the owning
shard when the partition variable is bound (initial binding or
all-constant VALUES rows) and by per-shard pattern counts (a shard where
any required anchor pattern matches zero triples contributes nothing) —
and the per-shard streams are chained lazily: ASK and LIMIT
short-circuit, so trailing shards are never evaluated once the consumer
stops.  The process backend sends the same plan to the shard workers.

**Global gather** — every group without a plan runs the inherited
evaluator against the :class:`ShardedTripleStore` itself, whose ID-level
API merges the shards: subject-bound lookups route, counts sum and
unbound-subject scans chain the shards in range order.  The block
kernels concatenate per-shard columns (subject-range partitioning keeps
subject runs globally sorted); per-solution probes go through the merged
``match_ids``.  This path is correct for arbitrary queries
(cross-subject chains, FILTER NOT EXISTS, ...).

On top of the per-group plan, COUNT-only aggregate queries over a
planned group push the *fold* down to the shards: each shard reduces
its stream to a small partial (see :mod:`repro.sparql.fold`) and the
parent merges O(shards) partials instead of streaming O(solutions)
rows.  Single-pattern COUNTs are answered before that from parent-side
index counts (``fast-count``), without sending work to any shard.
Non-aggregate projections over process-backed plans push the projection
down instead, so workers ship only the projected columns (deduplicated
shard-locally under DISTINCT).

:meth:`ShardedQueryEvaluator.explain` returns a :class:`ShardedBGPPlan`
wrapping the ordinary :class:`BGPPlan` with the chosen mode, per planned
pattern the shards probed vs pruned (or its broadcast marker), and — when
a group degrades to the global path or an aggregate cannot fold — the
human-readable ``fallback_reason``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StoreError
from repro.obs import trace as obs_trace
from repro.shard.router import PatternRoute, ShardRouter
from repro.shard.sharded_store import ShardedTripleStore
from repro.sparql.ast import (
    BinaryExpression,
    ExistsExpression,
    Expression,
    FilterNode,
    FunctionCall,
    GroupGraphPattern,
    InExpression,
    OptionalNode,
    Query,
    SelectQuery,
    TriplePatternNode,
    UnaryExpression,
    UnionNode,
    ValuesNode,
)
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.distjoin import ShipPlan, build_ship_plan, execute_ship_plan
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.fold import build_fold_spec, finalize, fold_local
from repro.sparql.parser import parse_query
from repro.sparql.plan import BGPPlan, PLAN_CACHE_LIMIT, resolve_pattern_ids
from repro.sparql.results import ResultSet

def co_partition_subject(group: GroupGraphPattern) -> Optional[Variable]:
    """The single subject variable shared by every pattern of ``group``.

    Returns ``None`` unless the group can be scattered: it must contain
    at least one top-level triple pattern (so every emitted solution is
    pinned to a shard) and every pattern — recursively through OPTIONAL,
    UNION, nested groups and EXISTS filters — must have the same
    :class:`Variable` in subject position.
    """
    if not any(isinstance(e, TriplePatternNode) for e in group.elements):
        return None
    subject, ok = _group_subject(group, None)
    return subject if ok else None


def _group_subject(
    group: GroupGraphPattern, subject: Optional[Variable]
) -> Tuple[Optional[Variable], bool]:
    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            s = element.subject
            if not isinstance(s, Variable):
                return None, False
            if subject is None:
                subject = s
            elif s != subject:
                return None, False
        elif isinstance(element, ValuesNode):
            continue
        elif isinstance(element, FilterNode):
            subject, ok = _expression_subject(element.expression, subject)
            if not ok:
                return None, False
        elif isinstance(element, OptionalNode):
            subject, ok = _group_subject(element.group, subject)
            if not ok:
                return None, False
        elif isinstance(element, UnionNode):
            for branch in element.branches:
                subject, ok = _group_subject(branch, subject)
                if not ok:
                    return None, False
        elif isinstance(element, GroupGraphPattern):
            subject, ok = _group_subject(element, subject)
            if not ok:
                return None, False
        else:  # pragma: no cover - parser prevents this
            return None, False
    return subject, True


def _expression_subject(
    expression: Expression, subject: Optional[Variable]
) -> Tuple[Optional[Variable], bool]:
    """Check EXISTS groups nested inside a filter expression."""
    if isinstance(expression, ExistsExpression):
        return _group_subject(expression.group, subject)
    if isinstance(expression, UnaryExpression):
        return _expression_subject(expression.operand, subject)
    if isinstance(expression, BinaryExpression):
        subject, ok = _expression_subject(expression.left, subject)
        if not ok:
            return None, False
        return _expression_subject(expression.right, subject)
    if isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            subject, ok = _expression_subject(argument, subject)
            if not ok:
                return None, False
        return subject, True
    if isinstance(expression, InExpression):
        subject, ok = _expression_subject(expression.operand, subject)
        if not ok:
            return None, False
        for choice in expression.choices:
            subject, ok = _expression_subject(choice, subject)
            if not ok:
                return None, False
        return subject, True
    return subject, True


def _exists_groups(expression: Expression) -> Iterator[GroupGraphPattern]:
    """Every EXISTS group nested inside a filter expression."""
    if isinstance(expression, ExistsExpression):
        yield expression.group
    elif isinstance(expression, UnaryExpression):
        yield from _exists_groups(expression.operand)
    elif isinstance(expression, BinaryExpression):
        yield from _exists_groups(expression.left)
        yield from _exists_groups(expression.right)
    elif isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            yield from _exists_groups(argument)
    elif isinstance(expression, InExpression):
        yield from _exists_groups(expression.operand)
        for choice in expression.choices:
            yield from _exists_groups(choice)


def _collect_subjects(
    group: GroupGraphPattern, variables: List[Variable], constants: List[bool]
) -> None:
    for element in group.elements:
        if isinstance(element, TriplePatternNode):
            if isinstance(element.subject, Variable):
                variables.append(element.subject)
            else:
                constants[0] = True
        elif isinstance(element, OptionalNode):
            _collect_subjects(element.group, variables, constants)
        elif isinstance(element, UnionNode):
            for branch in element.branches:
                _collect_subjects(branch, variables, constants)
        elif isinstance(element, GroupGraphPattern):
            _collect_subjects(element, variables, constants)
        elif isinstance(element, FilterNode):
            for nested in _exists_groups(element.expression):
                _collect_subjects(nested, variables, constants)


def co_partition_reason(group: GroupGraphPattern) -> str:
    """Why :func:`co_partition_subject` rejected ``group`` (for explain).

    Best-effort diagnostics, never used for execution decisions: the
    returned string names the first structural obstacle found.
    """
    if not any(isinstance(e, TriplePatternNode) for e in group.elements):
        return "not co-partitioned: no top-level triple pattern"
    variables: List[Variable] = []
    constants = [False]
    _collect_subjects(group, variables, constants)
    if constants[0]:
        return "not co-partitioned: a pattern has a constant subject"
    names = sorted({f"?{v.name}" for v in variables})
    if len(names) > 1:
        return (
            "not co-partitioned: patterns bind different subject variables "
            f"({', '.join(names)})"
        )
    return "not co-partitioned"


@dataclass(frozen=True)
class ShardedBGPPlan:
    """A :class:`BGPPlan` plus shard routing for one basic graph pattern.

    Attributes
    ----------
    plan:
        The underlying single-store plan (operator order unchanged — the
        same plan runs per shard on the scatter path, or once against the
        merged view on the global path).
    mode:
        ``"scatter"`` (co-partitioned, pipeline runs per shard),
        ``"ship"`` (anchored patterns scatter, the rest broadcast as hash
        tables) or ``"global"`` (merged-view evaluation).
    subject_variable:
        The common subject variable when scattering, the ship plan's
        partition variable when shipping, else ``None``.
    shards:
        The shards that must run the group (probed by every pattern).
    routing:
        Per plan step, the shards probed vs pruned for that pattern;
        broadcast patterns of a ship plan are marked ``shipped``.
    fallback_reason:
        Why the group degraded — to the global path (mode ``"global"``),
        or, for aggregate queries whose group *is* distributable, why the
        fold could not be pushed to the workers.  ``None`` when nothing
        degraded.
    """

    plan: BGPPlan
    mode: str
    shard_count: int
    subject_variable: Optional[Variable]
    shards: Tuple[int, ...]
    routing: Tuple[PatternRoute, ...]
    fallback_reason: Optional[str] = None

    @property
    def steps(self):
        """The underlying plan steps, in execution order."""
        return self.plan.steps

    def operators(self) -> List[str]:
        """The operator labels in execution order."""
        return self.plan.operators()

    def patterns(self) -> List[TriplePatternNode]:
        """The triple patterns in execution order."""
        return self.plan.patterns()

    def describe(self) -> str:
        """Multi-line rendering: header plus one line per planned pattern."""
        subject = (
            f" on ?{self.subject_variable.name}"
            if self.subject_variable is not None
            else ""
        )
        shards = ",".join(map(str, self.shards)) or "-"
        lines = [
            f"{self.mode}{subject} over {self.shard_count} shards"
            f" (evaluating: [{shards}])"
        ]
        for step, route in zip(self.plan.steps, self.routing):
            lines.append(f"{step.describe()}  {route.describe()}")
        if self.fallback_reason:
            lines.append(f"fallback: {self.fallback_reason}")
        return "\n".join(lines)


class ShardedQueryEvaluator(QueryEvaluator):
    """Evaluates queries against a :class:`ShardedTripleStore`.

    Inherits the full planned-operator machinery from
    :class:`QueryEvaluator` (running it against the merged shard view)
    and adds the per-shard path for groups with a distributed plan.

    Parameters
    ----------
    store:
        The sharded dataset.
    use_planner:
        Forwarded to the per-shard and merged-view evaluators.
    backend:
        ``"thread"`` (default) runs distributed plans in-process
        against per-shard local evaluators, lazily chained — waves get
        their concurrency from the scheduler's thread pool.
        ``"process"`` sends each plan to the routed shards' worker
        processes through ``executor`` and streams the serialized binding
        batches back, lifting the per-shard pipelines out of this
        interpreter's GIL; the global fallback path (groups without a
        plan) still runs in-process against the merged view.
    executor:
        A :class:`~repro.shard.workers.ProcessShardExecutor` serving a
        snapshot of ``store`` (see
        :meth:`~repro.shard.sharded_store.ShardedTripleStore.serve`).
        Required — and only meaningful — when ``backend="process"``.

    The block join kernels run whenever
    :func:`~repro.sparql.kernels.kernels_available` holds: on the
    global-gather path (per-shard columns concatenate) and inside each
    shard-local evaluator.
    """

    def __init__(
        self,
        store: ShardedTripleStore,
        use_planner: bool = True,
        backend: str = "thread",
        executor=None,
    ):
        if not isinstance(store, ShardedTripleStore):
            raise TypeError(
                "ShardedQueryEvaluator requires a ShardedTripleStore; "
                "use QueryEvaluator for plain stores"
            )
        if backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {backend!r}")
        if backend == "process":
            if executor is None:
                raise ValueError(
                    "backend='process' requires a ProcessShardExecutor "
                    "(see ShardedTripleStore.serve)"
                )
            if executor.num_shards != store.num_shards:
                raise ValueError(
                    f"executor serves {executor.num_shards} shards but the "
                    f"store has {store.num_shards}"
                )
            # The workers serve the snapshot on disk, so the store must
            # (a) be the store that snapshot was taken of — its tracked
            # snapshot directory is the executor's — and (b) still be at
            # the snapshotted mutation stamp.  Anything else would
            # silently answer from two diverging datasets.
            if (
                store._snapshot_dir is None
                or store._snapshot_dir.resolve() != executor.directory.resolve()
            ):
                raise ValueError(
                    "executor serves a snapshot the store was never "
                    "saved to / opened from; create it via store.serve()"
                )
            if store.data_version != store._snapshot_version:
                raise StoreError(
                    "ShardedTripleStore was mutated after its snapshot "
                    "was written; call serve() again to refresh it"
                )
        super().__init__(store, use_planner=use_planner)
        self.backend = backend
        self._executor = executor
        self._router = ShardRouter(store)
        self._locals = tuple(
            QueryEvaluator(shard, use_planner=use_planner) for shard in store.shards
        )
        self._plans: Dict[GroupGraphPattern, Tuple] = {}
        # Endpoints share one evaluator across wave threads, so the
        # armed-pushdown handoff from _evaluate_select to _evaluate_group
        # must be per thread — a shared slot could hand one query's
        # projection to a concurrent query reusing the same WHERE object.
        self._push_local = threading.local()

    # ------------------------------------------------------------------ #
    # SELECT pushdowns (fold / projection)
    # ------------------------------------------------------------------ #
    def _evaluate_select(self, query: SelectQuery) -> ResultSet:
        if query.is_aggregate:
            fast = self._try_fast_count(query)
            if fast is not None:
                self._note_mode("fast-count")
                self._metrics.increment("scatter.mode.fast-count")
                return fast
            folded = self._fold_pushdown(query)
            if folded is not None:
                self._note_mode("fold")
                self._metrics.increment("scatter.mode.fold")
                return folded
            return super()._evaluate_select(query)
        if not self._stash_projection(query):
            return super()._evaluate_select(query)
        try:
            return super()._evaluate_select(query)
        finally:
            self._push_local.spec = None

    def _fold_pushdown(self, query: SelectQuery) -> Optional[ResultSet]:
        """Aggregate the query with worker-side partial folds, or ``None``.

        Engages when the WHERE group has a distributed plan (scatter or
        ship) and every projection item is a plain variable or COUNT —
        the shapes :func:`repro.sparql.fold.build_fold_spec` mirrors
        exactly.  Transfer is one partial per routed shard.
        """
        self._require_fresh_snapshot()
        plan, _ = self._distributed_plan(query.where)
        if plan is None:
            return None
        spec = build_fold_spec(query, plan.partition_variable)
        if spec is None:
            return None
        if spec.group_by and (query.limit is not None or query.offset):
            # Which grouped rows survive OFFSET/LIMIT depends on the row
            # order the fold merge does not reproduce; stream instead.
            return None
        shards = self._route(plan, IdBinding.EMPTY)
        merged: Dict = {}
        if shards:
            with self._tracer.span(
                "fold", shards=len(shards), backend=self.backend
            ):
                if self.backend == "process":
                    merged = self._executor.run_fold(shards, plan, spec)
                else:
                    # Shards are disjoint on the partition variable, so
                    # one fold over the chained streams equals the merge
                    # of per-shard partials.
                    merged = fold_local(
                        self._chain(plan, IdBinding.EMPTY, shards), spec
                    )
        return finalize(query, spec, merged, self._dict)

    def _stash_projection(self, query: SelectQuery) -> bool:
        """Arm worker-side projection pushdown for this query's top group.

        Only the process backend benefits (threads share the heap), and
        only plain-variable projections are restrictable: workers then
        ship just the projected columns and, under DISTINCT, pre-dedup
        shard-locally (sound — the parent's projection is the identity on
        restricted rows, and its own DISTINCT still runs globally).
        """
        if self.backend != "process" or query.select_all:
            return False
        names = []
        for item in query.projection:
            if item.expression is not None or item.variable is None:
                return False
            names.append(item.variable.name)
        self._push_local.spec = (query.where, tuple(names), bool(query.distinct))
        return True

    def _consume_push(self, group: GroupGraphPattern, initial: IdBinding) -> Dict:
        """The armed projection-pushdown kwargs for this exact dispatch.

        Applies once, to the top-level evaluation of the stashed query's
        WHERE group with an empty initial binding — re-entrant calls
        (OPTIONAL probes, EXISTS groups) must ship full rows.
        """
        spec = getattr(self._push_local, "spec", None)
        if spec is not None and spec[0] is group and not initial:
            self._push_local.spec = None
            return {"project": spec[1], "distinct": spec[2]}
        return {}

    # ------------------------------------------------------------------ #
    # Scatter dispatch
    # ------------------------------------------------------------------ #
    def _require_fresh_snapshot(self) -> None:
        if (
            self.backend == "process"
            and self.store.data_version != self.store._snapshot_version
            # During a generation handover the endpoint layer deliberately
            # keeps the outgoing executor answering while the store is
            # already mutated: its workers serve a consistent (old)
            # snapshot from their own mmaps, which is exactly the
            # zero-downtime contract.  The freshness pin re-arms the
            # moment the handover completes.
            and not getattr(self.store, "_refresh_serving", 0)
        ):
            # Checked before any routing or fallback: a mutated store
            # must never answer — not even with an empty routing result
            # or through the in-process global path — while the workers
            # still serve the pre-mutation snapshot.
            raise StoreError(
                "ShardedTripleStore was mutated after its process "
                "executor booted; call serve() again to refresh the "
                "workers' snapshot"
            )

    def _evaluate_group(
        self, group: GroupGraphPattern, initial: IdBinding
    ) -> Iterator[IdBinding]:
        self._require_fresh_snapshot()
        # Mode counters and scatter spans only fire for root evaluations
        # (empty initial binding) — OPTIONAL / EXISTS probes re-enter here
        # once per solution.
        root_call = not len(initial)
        plan, _ = self._distributed_plan(group)
        if plan is None:
            if root_call:
                self._note_mode("global")
                self._metrics.increment("scatter.mode.global")
            return super()._evaluate_group(group, initial)
        if root_call:
            mode = "ship" if plan.shipped else "scatter"
            self._note_mode(mode)
            self._metrics.increment("scatter.mode." + mode)
        shards = self._route(plan, initial)
        if not shards:
            return iter(())
        span = None
        if root_call and self._tracer.active:
            shipped = (
                {"shipped": True, "broadcast_rows": plan.broadcast_rows}
                if plan.shipped
                else {}
            )
            span = self._tracer.stream_span(
                "scatter", shards=len(shards), backend=self.backend, **shipped
            )
        if self.backend == "process":
            stream = self._executor.run_group(
                shards, plan, initial, trace_parent=span,
                **self._consume_push(group, initial)
            )
        else:
            stream = self._chain(plan, initial, shards)
        if span is not None:
            stream = obs_trace.count_rows(span, stream)
        return stream

    def _chain(
        self, plan: ShipPlan, initial: IdBinding, shards: Tuple[int, ...]
    ) -> Iterator[IdBinding]:
        """Chain per-shard streams lazily: a satisfied ASK/LIMIT consumer
        stops before the trailing shards are ever planned or scanned."""
        for index in shards:
            yield from execute_ship_plan(self._locals[index], plan, initial)

    def _distributed_plan(
        self, group: GroupGraphPattern
    ) -> Tuple[Optional[ShipPlan], str]:
        """The group's distributed plan, or ``(None, fallback_reason)``.

        A co-partitioned group is a plan that anchors the whole group and
        broadcasts nothing; otherwise join shipping is tried.  Cached per
        group *and* store version — broadcast tables are materialised
        data, so a mutation invalidates them even though the AST key is
        unchanged.
        """
        version = self.store.data_version
        cached = self._plans.get(group)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        if len(self._plans) >= PLAN_CACHE_LIMIT:
            self._plans.clear()
        subject = co_partition_subject(group)
        if subject is not None:
            plan: Optional[ShipPlan] = ShipPlan(subject, group, (), ())
            reason = ""
        else:
            with self._tracer.span("ship:broadcast-build"):
                plan, reason = build_ship_plan(self.store, self._dict, group)
            if plan is not None:
                self._metrics.increment("ship.plans_built")
                self._metrics.increment("ship.broadcast_rows", plan.broadcast_rows)
                self._metrics.increment("ship.broadcast_bytes", plan.broadcast_bytes)
            else:
                reason = (
                    f"{co_partition_reason(group)}; "
                    f"join shipping rejected: {reason}"
                )
        self._plans[group] = (version, plan, reason)
        return plan, reason

    def _route(self, plan: ShipPlan, initial: IdBinding) -> Tuple[int, ...]:
        """The shards that must run the plan's anchor (may be empty)."""
        candidates = self._candidate_shards(plan, initial)
        if candidates is not None and not candidates:
            return ()
        id_patterns = []
        for pattern in plan.anchor.elements:
            if not isinstance(pattern, TriplePatternNode):
                continue
            consts = resolve_pattern_ids(self._dict, pattern)
            if consts is None:  # a constant unknown to the dictionary
                return ()
            id_patterns.append(tuple(consts))
        shards, _ = self._router.route_group(id_patterns, candidates)
        return shards

    def _candidate_shards(
        self, plan: ShipPlan, initial: IdBinding
    ) -> Optional[List[int]]:
        """Shards the partition variable can land in, or ``None`` for all.

        An initial binding pins one shard; anchor VALUES nodes binding
        the variable in *every* row restrict to the rows' owning shards
        (rows whose term is unknown to the dictionary can never join a
        pattern, so they restrict too).
        """
        subject = plan.partition_variable
        bound = initial.get(subject)
        if bound is not None:
            if type(bound) is not int:
                return []  # out-of-dictionary term: no pattern can match
            return [self.store.shard_index_for_subject(bound)]
        candidates: Optional[set] = None
        id_for = self._dict.id_for
        for node in plan.anchor.elements:
            if not isinstance(node, ValuesNode) or subject not in node.variables:
                continue
            position = node.variables.index(subject)
            if any(row[position] is None for row in node.rows):
                continue  # an UNDEF row leaves the subject open: all shards
            owners = set()
            for row in node.rows:
                tid = id_for(row[position])
                if tid is not None:
                    owners.add(self.store.shard_index_for_subject(tid))
            candidates = owners if candidates is None else candidates & owners
        return sorted(candidates) if candidates is not None else None

    # ------------------------------------------------------------------ #
    # Explain
    # ------------------------------------------------------------------ #
    def explain(self, query: Union[Query, str]) -> ShardedBGPPlan:
        """The sharded plan for the query's top-level basic graph pattern.

        Extends :meth:`QueryEvaluator.explain`: the underlying
        :class:`BGPPlan` is wrapped with the execution mode and, per
        planned pattern, the shards probed vs pruned by the router.
        """
        if isinstance(query, str):
            query = parse_query(query)
        base = super().explain(query)
        plan, fallback_reason = self._distributed_plan(query.where)
        if plan is None:
            mode, subject, candidates, shipped = "global", None, None, ()
        else:
            mode = "ship" if plan.shipped else "scatter"
            subject = plan.partition_variable
            candidates = self._candidate_shards(plan, IdBinding.EMPTY)
            shipped = plan.shipped
            fallback_reason = None
            if (
                isinstance(query, SelectQuery)
                and query.is_aggregate
                and self._try_fast_count(query) is None
            ):
                spec = build_fold_spec(query, subject)
                if spec is None:
                    fallback_reason = (
                        "aggregate projection cannot fold worker-side "
                        "(non-COUNT expression); rows stream to the parent"
                    )
                elif spec.group_by and (query.limit is not None or query.offset):
                    fallback_reason = (
                        "grouped aggregate with LIMIT/OFFSET folds in the "
                        "parent (merge order is not deterministic)"
                    )
        routing: List[PatternRoute] = []
        surviving = (
            set(candidates) if candidates is not None else set(self._router.all_shards())
        )
        for step in base.steps:
            consts = resolve_pattern_ids(self._dict, step.pattern)
            if step.pattern in shipped:
                # Broadcast to every routed worker: shard routing does
                # not apply and the pattern never constrains `surviving`.
                routing.append(
                    PatternRoute(
                        pattern=tuple(consts) if consts else (None, None, None),
                        probed=(),
                        pruned=(),
                        shipped=True,
                    )
                )
                continue
            if consts is None:
                route = PatternRoute(
                    pattern=(None, None, None),
                    probed=(),
                    pruned=self._router.all_shards(),
                )
            else:
                route = self._router.route_pattern(tuple(consts), candidates)
            routing.append(route)
            surviving &= set(route.probed)
        return ShardedBGPPlan(
            plan=base,
            mode=mode,
            shard_count=self.store.num_shards,
            subject_variable=subject,
            shards=tuple(sorted(surviving)),
            routing=tuple(routing),
            fallback_reason=fallback_reason,
        )


def evaluate_sharded(
    store: ShardedTripleStore, query: Union[Query, str]
):
    """Convenience wrapper: evaluate ``query`` with scatter/gather."""
    return ShardedQueryEvaluator(store).evaluate(query)
