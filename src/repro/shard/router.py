"""Routing triple patterns to the shards that can contribute matches.

The router is the cost model of the scatter/gather executor: it decides,
per pattern, which shards must be probed and which are provably empty for
it.  It works entirely in ID space (``None`` = wildcard position) so it
can be shared by any query layer without depending on the SPARQL AST.

Two pruning sources, both exact (never heuristic — a pruned shard
contributes no solutions by construction):

* **Subject routing.**  A pattern with a constant subject ID lives in
  exactly one shard (the partitioning invariant).
* **Count pruning.**  For any pattern, each shard's
  :meth:`~repro.store.triplestore.TripleStore.count_ids` — the same
  ``count_for_key`` / ``third_count`` index bookkeeping the query
  planner's cardinality estimator reads — is O(1); a shard where the
  pattern's constant positions match zero triples cannot contribute a
  binding, and because a BGP is a conjunction, a shard where *any*
  pattern counts zero contributes no solutions at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.shard.sharded_store import ShardedTripleStore

#: A triple pattern in ID space: constants resolved to IDs, variables None.
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]


@dataclass(frozen=True)
class PatternRoute:
    """Routing outcome for one pattern: shards probed vs pruned.

    ``shipped`` marks a pattern that is not probed per shard at all: the
    cross-shard join shipper materialises its full match set once in the
    parent and broadcasts the ID columns to every worker, so shard routing
    does not apply to it.
    """

    pattern: IdPattern
    probed: Tuple[int, ...]
    pruned: Tuple[int, ...]
    shipped: bool = False

    def describe(self) -> str:
        """One-line rendering used by the sharded plan explain output."""
        if self.shipped:
            return "broadcast to all probed shards (join shipping)"
        probed = ",".join(map(str, self.probed)) or "-"
        pruned = ",".join(map(str, self.pruned)) or "-"
        return f"shards probed=[{probed}] pruned=[{pruned}]"


class ShardRouter:
    """Decides which shards each pattern (and a whole BGP) can touch."""

    def __init__(self, store: ShardedTripleStore):
        self._store = store

    @property
    def store(self) -> ShardedTripleStore:
        """The routed sharded store."""
        return self._store

    def all_shards(self) -> Tuple[int, ...]:
        """Every shard index, in range order."""
        return tuple(range(self._store.num_shards))

    def route_pattern(
        self, pattern: IdPattern, candidates: Optional[Sequence[int]] = None
    ) -> PatternRoute:
        """Split ``candidates`` (all shards by default) into probed/pruned.

        Subject-constant patterns route to the owning shard; every
        surviving candidate is then count-checked against the pattern's
        constant positions (O(1) per shard).
        """
        shards = self._store.shards
        subject, predicate, object = pattern
        if candidates is None:
            candidates = range(len(shards))
        if subject is not None:
            home = self._store.shard_index_for_subject(subject)
            candidates = [index for index in candidates if index == home]
        probed: List[int] = []
        pruned: List[int] = []
        for index in candidates:
            if shards[index].count_ids(subject, predicate, object):
                probed.append(index)
            else:
                pruned.append(index)
        return PatternRoute(
            pattern=pattern, probed=tuple(probed), pruned=tuple(pruned)
        )

    def route_group(
        self,
        patterns: Sequence[IdPattern],
        candidates: Optional[Sequence[int]] = None,
    ) -> Tuple[Tuple[int, ...], Tuple[PatternRoute, ...]]:
        """Route a conjunctive pattern group.

        Returns the shards that must run the whole group (the
        intersection of the per-pattern probed sets — a shard where any
        pattern is empty yields no solutions) plus the per-pattern routes
        for diagnostics/explain.
        """
        if candidates is None:
            candidates = self.all_shards()
        routes = tuple(
            self.route_pattern(pattern, candidates) for pattern in patterns
        )
        surviving = set(candidates)
        for route in routes:
            surviving &= set(route.probed)
        return tuple(sorted(surviving)), routes
