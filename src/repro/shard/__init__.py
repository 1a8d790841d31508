"""Sharded triple storage with scatter/gather query evaluation.

Why sharding
------------
The paper's experiments are bounded by *endpoint throughput*: how many
alignment queries per second a simulated SPARQL endpoint can absorb
decides how many KB pairs and relation candidates a run can cover under
the query budget.  A single :class:`~repro.store.TripleStore` answers one
query at a time; this package splits the store into independent partitions
so builds parallelise and batched query waves overlap.

Architecture
------------
Three pieces, bottom to top:

1. **Partitioned storage** (:mod:`repro.shard.sharded_store`).
   :class:`ShardedTripleStore` splits the triple set by **subject-ID
   range** into ``num_shards`` plain :class:`TripleStore` shards that
   share one :class:`~repro.store.TermDictionary` (one global ID space).
   The first bulk load freezes near-equal range boundaries and each shard
   is built through the store's columnar ``bulk_extend_grouped`` path on
   its own partition — on a thread pool, since the numpy column sort
   releases the GIL.  Invariants: routing is a single bisect, subject
   sets are disjoint across shards, and shard ranges are contiguous and
   increasing, so per-shard sorted subject runs concatenate into globally
   sorted runs.

2. **Shard routing** (:mod:`repro.shard.router`).  :class:`ShardRouter`
   reuses the planner's cost-model primitives — the O(1)
   ``count_for_key`` / ``third_count`` index bookkeeping behind
   ``count_ids`` — to split shards into *probed* vs *pruned* per pattern.
   Pruning is exact: a constant subject routes to its owning shard, and a
   shard where any pattern of a conjunctive group matches zero triples
   contributes no solutions.

3. **Scatter/gather execution** (:mod:`repro.sparql.scatter`, layered in
   the SPARQL package because it drives the planner's physical
   operators).  ``ShardedQueryEvaluator`` runs one distributed plan per
   shard: for *co-partitioned* groups — every triple pattern,
   recursively, shares one subject variable, the star shape the
   aligner's batched queries take — the full planned pipeline; for
   join-shipped chains the anchored patterns plus a probe of broadcast
   tables.  The per-shard streams chain lazily, so ASK and LIMIT
   short-circuit without touching trailing shards.  Everything else
   falls back to the global merged view: :class:`ShardedTripleStore`
   exposes the whole ID-level store API by routing subject-bound lookups
   to one shard and gathering the rest (summed counts, unioned distinct
   sets, and concatenated sorted columns that feed the block kernels
   directly), so *any* query stays correct on the fallback path.

The gather merge in one picture::

    pattern (?s, p, o)        shard 0        shard 1        shard 2
    sorted subject runs:      [2, 5, 9] ++ [12, 14, 20] ++ [31, 40]
                              \\______ globally sorted: ranges ______/
                                       are contiguous by ID

On top of this, :mod:`repro.endpoint.simulation` schedules concurrent
query *waves* against a sharded endpoint under the globally consistent
(thread-safe) query-budget accounting.

Since the process-workers PR, piece 3 has a second execution backend:
:mod:`repro.shard.workers` serves the per-shard snapshot files from one
worker **process** per shard (``ShardedTripleStore.serve`` snapshots
when dirty and boots the pool), so CPU-bound query waves scale past the
GIL; ``ShardedQueryEvaluator(store, backend="process", executor=...)``
ships co-partitioned groups to the workers as serialized binding
batches.
"""

from repro.shard.sharded_store import ShardedTripleStore
from repro.shard.router import IdPattern, PatternRoute, ShardRouter
from repro.shard.workers import ProcessShardExecutor

__all__ = [
    "ShardedTripleStore",
    "ShardRouter",
    "PatternRoute",
    "IdPattern",
    "ProcessShardExecutor",
]
