"""Distributed plans: scatter an anchor per shard, probe broadcast tables.

A :class:`ShipPlan` is the only plan the scatter layer
(:mod:`repro.sparql.scatter`) runs per shard.  It names a *partition
variable* ``?v`` in subject position and an *anchor* sub-group whose
every solution binds ``?v`` to one subject ID; subject-range
partitioning puts all of that subject's triples on its home shard, so
running the anchor per shard is exact and disjoint across shards.

* A *co-partitioned* group (one subject variable throughout) is its own
  anchor and broadcasts nothing: ``ShipPlan(?v, group, (), ())``.
* A pure-BGP group that is not co-partitioned (the classic s–o chain,
  small star/chain mixes) is a parent-coordinated **distributed hash
  join**, built by :func:`build_ship_plan`:

  1. The patterns anchored on ``?v`` (subject == ``?v``) form the
     anchor.
  2. Every remaining pattern's **full global match set** is materialised
     once in the parent as parallel int64 ID columns (the kernel column
     builder when numpy is available, a pure-Python twin otherwise) and
     broadcast to the workers inside the (cached, pickled-once) plan.
  3. Each worker evaluates the anchor locally and probes the broadcast
     tables with a hash join — the classic broadcast join: correct
     because ``scatter(anchor) ⋈ tables`` over disjoint anchor partitions
     equals the full join, multiset-exact.

Shipping only engages when the broadcast side is small: the candidate
with the cheapest total broadcast rows wins, and a candidate above
:data:`DEFAULT_BROADCAST_LIMIT` rows (override with the
``REPRO_BROADCAST_LIMIT`` environment variable) is rejected with a
reason string that :meth:`ShardedQueryEvaluator.explain` surfaces.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import config as _config
from repro.sparql import kernels
from repro.sparql.ast import GroupGraphPattern, TriplePatternNode
from repro.sparql.bindings import IdBinding, Variable
from repro.sparql.plan import resolve_pattern_ids

#: Largest total broadcast side (rows across all shipped patterns) a ship
#: plan may carry; above this, the merged-view fallback is cheaper than
#: pickling the tables to every worker.
DEFAULT_BROADCAST_LIMIT = _config.DEFAULT_BROADCAST_LIMIT


def broadcast_limit() -> int:
    """The configured broadcast-row ceiling (``REPRO_BROADCAST_LIMIT``)."""
    return _config.broadcast_limit()


class BroadcastTable:
    """One shipped pattern's match set as columnar ID data.

    ``variables`` are the pattern's variables in s, p, o position order;
    ``columns`` hold one little-endian int64 byte string per variable
    (bytes pickle compactly and cross process boundaries without copies
    of Python int objects).  ``join_variables`` are the variables already
    bound when this table is probed — the static hash key.  The probe
    index is built lazily per process and cached on the instance.
    """

    __slots__ = ("variables", "join_variables", "columns", "rows", "_index")

    def __init__(
        self,
        variables: Tuple[Variable, ...],
        join_variables: Tuple[Variable, ...],
        columns: Tuple[bytes, ...],
        rows: int,
    ):
        self.variables = variables
        self.join_variables = join_variables
        self.columns = columns
        self.rows = rows
        self._index = None

    def __getstate__(self):
        return (self.variables, self.join_variables, self.columns, self.rows)

    def __setstate__(self, state):
        self.variables, self.join_variables, self.columns, self.rows = state
        self._index = None

    def index(self) -> Dict[Tuple, List[Tuple]]:
        """``join-key -> [extension assignments]``, built once per process."""
        built = self._index
        if built is None:
            decoded = [_decode_column(col, self.rows) for col in self.columns]
            key_slots = [self.variables.index(v) for v in self.join_variables]
            extension = [
                (variable, slot)
                for slot, variable in enumerate(self.variables)
                if variable not in self.join_variables
            ]
            built = {}
            for row in range(self.rows):
                key = tuple(decoded[slot][row] for slot in key_slots)
                assignment = tuple(
                    (variable, decoded[slot][row]) for variable, slot in extension
                )
                bucket = built.get(key)
                if bucket is None:
                    bucket = built[key] = []
                bucket.append(assignment)
            self._index = built
        return built


def _decode_column(data: bytes, rows: int) -> List[int]:
    if kernels.kernels_available():
        return kernels._np.frombuffer(data, dtype="<i8").tolist()
    column = array("q")
    column.frombytes(data)
    return column.tolist()


def _encode_column(values) -> bytes:
    if isinstance(values, array):
        return values.tobytes()
    return kernels._np.ascontiguousarray(values, dtype="<i8").tobytes()


class ShipPlan:
    """A distributed plan: scatter the anchor, probe the broadcast tables.

    ``tables`` and ``shipped`` are empty for a co-partitioned group.
    Picklable and immutable once built; the executor pickles it once per
    query and workers cache the unpickled instance, so broadcast columns
    cross each worker's queue exactly once.
    """

    __slots__ = ("partition_variable", "anchor", "tables", "shipped")

    def __init__(
        self,
        partition_variable: Variable,
        anchor: GroupGraphPattern,
        tables: Tuple[BroadcastTable, ...],
        shipped: Tuple[TriplePatternNode, ...],
    ):
        self.partition_variable = partition_variable
        self.anchor = anchor
        self.tables = tables
        self.shipped = shipped

    def __getstate__(self):
        return (self.partition_variable, self.anchor, self.tables, self.shipped)

    def __setstate__(self, state):
        self.partition_variable, self.anchor, self.tables, self.shipped = state

    @property
    def broadcast_rows(self) -> int:
        """Total rows shipped across all broadcast tables."""
        return sum(table.rows for table in self.tables)

    @property
    def broadcast_bytes(self) -> int:
        """Total encoded column bytes shipped across all broadcast tables."""
        return sum(
            len(column) for table in self.tables for column in table.columns
        )

    def describe(self) -> str:
        anchors = len(self.anchor.elements)
        return (
            f"ship[anchor=?{self.partition_variable.name}({anchors} patterns) "
            f"broadcast={len(self.tables)} tables/{self.broadcast_rows} rows]"
        )


def build_ship_plan(
    store, dictionary, group: GroupGraphPattern, limit: Optional[int] = None
) -> Tuple[Optional[ShipPlan], str]:
    """Try to build a ship plan for ``group``; ``(None, reason)`` on failure.

    Requirements, each yielding a distinct reason for explain output:

    * the group is a pure BGP (triple patterns only) of >= 2 patterns;
    * some subject-position variable anchors a non-empty pattern subset,
      and the remaining patterns connect to the anchor transitively via
      shared variables (a disconnected shipped pattern would broadcast a
      Cartesian product) without repeated variables inside one pattern;
    * the cheapest candidate's total broadcast rows (exact index counts)
      stay within ``limit``.
    """
    if limit is None:
        limit = broadcast_limit()
    elements = group.elements
    if not elements:
        return None, "empty group"
    if not all(isinstance(e, TriplePatternNode) for e in elements):
        return None, "unsupported shape: group mixes non-pattern elements"
    patterns = list(elements)
    if len(patterns) < 2:
        return None, "single pattern without a subject variable"
    candidates = sorted(
        {p.subject for p in patterns if isinstance(p.subject, Variable)},
        key=lambda v: v.name,
    )
    if not candidates:
        return None, "non-co-partitioned: no variable in subject position"

    best: Optional[Tuple[int, Variable, List, List]] = None
    structural = "non-co-partitioned: no anchor candidate connects every pattern"
    for candidate in candidates:
        anchored = [p for p in patterns if p.subject == candidate]
        rest = [p for p in patterns if p.subject != candidate]
        if not rest:
            # Fully co-partitioned on this candidate: the scatter layer
            # plans it with nothing to broadcast before asking here.
            continue
        ordered = _order_connected(anchored, rest)
        if ordered is None:
            continue
        total = 0
        for pattern in ordered:
            consts = resolve_pattern_ids(dictionary, pattern)
            if consts is not None:
                total += store.count_ids(*consts)
        if best is None or total < best[0]:
            best = (total, candidate, anchored, ordered)

    if best is None:
        return None, structural
    total, candidate, anchored, ordered = best
    if total > limit:
        return None, (
            f"broadcast side too large ({total} rows > limit {limit}; "
            f"raise REPRO_BROADCAST_LIMIT to override)"
        )

    bound = set()
    for pattern in anchored:
        bound.update(pattern.variables())
    tables: List[BroadcastTable] = []
    for pattern in ordered:
        variables = tuple(dict.fromkeys(pattern.variables()))
        join_variables = tuple(v for v in variables if v in bound)
        consts = resolve_pattern_ids(dictionary, pattern)
        rows, columns = _pattern_table(store, consts, len(variables))
        if not variables:
            # Fully-constant pattern: an existence check. Zero rows make
            # the whole group empty; represent that as an empty keyed
            # table so probes find nothing.  One row is a tautology.
            if rows:
                continue
            tables.append(BroadcastTable((), (), (), 0))
            continue
        tables.append(BroadcastTable(variables, join_variables, columns, rows))
        bound.update(variables)
    return (
        ShipPlan(candidate, GroupGraphPattern(tuple(anchored)), tuple(tables), tuple(ordered)),
        "",
    )


def _order_connected(
    anchored: List[TriplePatternNode], rest: List[TriplePatternNode]
) -> Optional[List[TriplePatternNode]]:
    """Greedy connected ordering of the shipped patterns, or ``None``.

    Each picked pattern must share a variable with what is already bound
    (anchor variables plus previously shipped patterns) and may not repeat
    a variable within itself (the columnar table carries no within-row
    equality check).
    """
    bound = set()
    for pattern in anchored:
        bound.update(pattern.variables())
    ordered: List[TriplePatternNode] = []
    pool = list(rest)
    while pool:
        pick = None
        for pattern in pool:
            variables = pattern.variables()
            if len(set(variables)) != len(variables):
                return None
            if not variables or set(variables) & bound:
                pick = pattern
                break
        if pick is None:
            return None
        pool.remove(pick)
        ordered.append(pick)
        bound.update(pick.variables())
    return ordered


def _pattern_table(store, consts, var_count: int) -> Tuple[int, Tuple[bytes, ...]]:
    """A resolved pattern's full match set as ``(rows, int64 column bytes)``.

    ``consts is None`` (a constant the dictionary never saw) is an empty
    table.  Uses the vectorized kernel column builder when numpy is
    available and an ``array('q')`` accumulation loop otherwise — byte
    layouts are identical, so the ``REPRO_NO_NUMPY`` job exercises the
    same wire format.
    """
    if consts is None:
        return 0, tuple(b"" for _ in range(var_count))
    if kernels.kernels_available():
        rows, columns = kernels.pattern_columns(store, consts)
        return rows, tuple(_encode_column(col) for col in columns)
    positions = [i for i, c in enumerate(consts) if c is None]
    columns = [array("q") for _ in positions]
    rows = 0
    for ids in store.match_ids(*consts):
        for column, position in zip(columns, positions):
            column.append(ids[position])
        rows += 1
    return rows, tuple(column.tobytes() for column in columns)


def execute_ship_plan(
    evaluator, plan: ShipPlan, initial: IdBinding
) -> Iterator[IdBinding]:
    """Run a distributed plan against one shard's local evaluator.

    The anchor sub-group streams through the normal (vectorized when
    possible) local pipeline; each broadcast table is then probed with a
    dict hash join.  Extensions go through
    :meth:`IdBinding.extend`'s conflict check, so variables the initial
    binding already pins filter correctly.
    """
    solutions: Iterable[IdBinding] = evaluator._evaluate_group(plan.anchor, initial)
    for table in plan.tables:
        solutions = _probe_table(solutions, table)
    return iter(solutions)


def _probe_table(
    solutions: Iterable[IdBinding], table: BroadcastTable
) -> Iterator[IdBinding]:
    index: Optional[Dict] = None
    join_variables = table.join_variables
    for solution in solutions:
        if index is None:
            index = table.index()
            if not index:
                return
        key = tuple(solution.get(v) for v in join_variables)
        bucket = index.get(key)
        if not bucket:
            continue
        for assignment in bucket:
            extended: Optional[IdBinding] = solution
            for variable, value in assignment:
                extended = extended.extend(variable, value)  # type: ignore[union-attr]
                if extended is None:
                    break
            if extended is not None:
                yield extended
