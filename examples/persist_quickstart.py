"""Persist quickstart: save a KB to disk and reopen it cold via mmap.

The script builds a synthetic world, saves one KB as a columnar snapshot,
reopens it *cold* — no re-interning, no re-sorting — and shows that

* opening is orders of magnitude faster than rebuilding the store,
* the very first planned query works on the cold store (the planner and
  join operators read the same index bookkeeping off the mmap'd columns),
* the first mutation transparently thaws the store back to the
  writable in-memory form (new terms take the IDs after the snapshot's),

then does the same for a sharded store (one shared dictionary file, one
columns file per shard).

Run with::

    PYTHONPATH=src python examples/persist_quickstart.py
"""

import tempfile
import time
from pathlib import Path

from repro.kb import KnowledgeBase
from repro.rdf import Literal, Triple
from repro.shard import ShardedTripleStore
from repro.store import TripleStore
from repro.synthetic.generator import generate_world
from repro.synthetic.presets import music_world_spec


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="persist-quickstart-"))
    world = generate_world(music_world_spec())
    kb = world.kb("musicbrainz")
    triples = list(kb.store)
    print(f"built KB {kb.name!r}: {len(triples)} triples, "
          f"{len(kb.store.dictionary)} terms")

    # ---------------------------------------------------------------- #
    # Save once, reopen cold.
    # ---------------------------------------------------------------- #
    snapshot = workdir / "musicbrainz.snap"
    start = time.perf_counter()
    kb.store.save(snapshot)
    print(f"saved snapshot: {snapshot.stat().st_size} bytes "
          f"in {(time.perf_counter() - start) * 1000:.1f} ms")

    start = time.perf_counter()
    rebuilt = TripleStore(name="rebuilt")
    rebuilt.bulk_load(triples)
    rebuild_ms = (time.perf_counter() - start) * 1000

    start = time.perf_counter()
    cold = TripleStore.open(snapshot)  # mmap=True, checksums verified
    open_ms = (time.perf_counter() - start) * 1000
    print(f"columnar rebuild: {rebuild_ms:.1f} ms | cold open: {open_ms:.2f} ms "
          f"({rebuild_ms / open_ms:.0f}x faster)")

    # The cold store answers planned queries immediately: frozen columns
    # satisfy the same count/run bookkeeping the planner reads.
    relation = max(kb.relations(), key=lambda info: info.fact_count).iri
    count = cold.count(predicate=relation)
    print(f"cold store: COUNT({relation.local_name}) = {count} "
          f"(frozen={cold.is_frozen})")

    # First mutation thaws transparently (copy-on-write, the file is
    # never touched).
    subject = next(iter(cold.subjects()))
    cold.add(Triple(subject, relation, Literal("new fact")))
    print(f"after one add: frozen={cold.is_frozen}, size={len(cold)}")

    # ---------------------------------------------------------------- #
    # A whole KB (store + namespace + name) round-trips through a
    # directory, and serves its endpoint straight off the mmap.
    # ---------------------------------------------------------------- #
    kb_dir = workdir / "kb"
    kb.save(kb_dir)
    reopened = KnowledgeBase.open(kb_dir)
    ask = reopened.endpoint().ask(
        f"ASK {{ ?s <{relation.value}> ?o }}"
    )
    print(f"reopened KB {reopened.name!r}: {len(reopened)} triples, "
          f"endpoint ASK over {relation.local_name} -> {ask}")

    # ---------------------------------------------------------------- #
    # Sharded snapshot: manifest + shared dictionary + per-shard columns.
    # ---------------------------------------------------------------- #
    sharded = ShardedTripleStore(num_shards=4, name="musicbrainz", triples=triples)
    shard_dir = workdir / "sharded"
    sharded.save(shard_dir)
    cold_sharded = ShardedTripleStore.open(shard_dir)
    print(f"sharded snapshot files: "
          f"{sorted(p.name for p in shard_dir.iterdir())}")
    print(f"reopened sharded store: shards={cold_sharded.num_shards}, "
          f"sizes={cold_sharded.shard_sizes()}, "
          f"boundaries={cold_sharded.boundaries}")


if __name__ == "__main__":
    main()
