"""Sharded snapshot delta chains: append-only persistence for mutation
bursts.

``ShardedTripleStore.save_delta`` writes per-shard files holding only the
net added/removed ID triples plus a dictionary tail for the terms
interned since; ``open`` replays the chains transparently and
``compact`` folds them back into fresh base files.  The directory's
atomically replaced manifest is the sole authority over which delta
files apply, which is what these tests pin down.
"""

import json
import zlib

import pytest

from repro.errors import SnapshotCorruptError, StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store.persist import (
    KIND_DELTA,
    _canonical_json,
    _read_manifest,
    delta_triple_sections,
    write_container,
)

EX = Namespace("http://delta.test/")


def _seed_triples(subjects=20, predicates=3):
    return [
        Triple(EX[f"s{s:03d}"], EX[f"p{p}"], EX[f"o{s % 7}"])
        for s in range(subjects)
        for p in range(predicates)
    ]


def _burst(count, start=0, tag="new"):
    """Triples whose subjects are brand-new terms (intern after the base)."""
    return [
        Triple(EX[f"zz_{tag}{start + i}"], EX.p0, EX[f"o{i % 5}"])
        for i in range(count)
    ]


def _rewrite_manifest(directory, edit):
    """Apply ``edit`` to the manifest body and re-seal its checksum."""
    body = json.loads((directory / "manifest.json").read_text())
    body.pop("crc32")
    edit(body)
    body["crc32"] = zlib.crc32(_canonical_json(body).encode("utf-8"))
    (directory / "manifest.json").write_text(json.dumps(body))


class TestShardedDelta:
    def _saved_store(self, tmp_path, num_shards=2):
        store = ShardedTripleStore(num_shards=num_shards)
        store.bulk_load(_seed_triples())
        directory = tmp_path / "shd"
        store.save(directory)
        return store, directory

    def test_delta_touches_only_changed_shards(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        before = {p.name for p in directory.iterdir()}
        # New subjects intern above every existing ID, so they all route
        # to the last shard's open range: only that shard gets a delta.
        for triple in _burst(25):
            store.add(triple)
        assert store.save_delta(directory) is True
        added = {p.name for p in directory.iterdir()} - before
        assert "shard1-d1-g1.snap" in added
        assert not any(name.startswith("shard0-d") for name in added)
        assert "dictionary-d1-g1.snap" in added  # new terms were interned
        assert set(ShardedTripleStore.open(directory)) == set(store)

    def test_multi_delta_chain_replays_every_link(self, tmp_path):
        # Regression: per-shard deltas carry no base_chain stamp (the
        # manifest is authoritative), and replay used to silently drop
        # every delta after the first when it tried to chain-validate
        # them anyway.
        store, directory = self._saved_store(tmp_path)
        for round_number in range(3):
            for triple in _burst(20, start=round_number * 100):
                store.add(triple)
            assert store.save_delta(directory) is True
        manifest = _read_manifest(directory)
        assert len(manifest["shards"][-1]["deltas"]) == 3
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)
        assert len(reopened) == len(store)

    def test_clean_sharded_store_writes_nothing(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        before = {p.name for p in directory.iterdir()}
        assert store.save_delta(directory) is False
        assert {p.name for p in directory.iterdir()} == before

    def test_delta_into_foreign_directory_raises(self, tmp_path):
        store, _ = self._saved_store(tmp_path)
        store.add(Triple(EX.zz, EX.p0, EX.o0))
        with pytest.raises(StoreError):
            store.save_delta(tmp_path / "elsewhere")

    def test_delta_after_journals_consumed_elsewhere_raises(self, tmp_path):
        # A full save into a *different* directory resets the journals;
        # a later delta into the original directory can no longer bridge
        # its manifest to the live state and must refuse (silently
        # writing one would record the new triple count without the
        # triples).
        store, directory = self._saved_store(tmp_path)
        for triple in _burst(25):
            store.add(triple)
        store.save(tmp_path / "elsewhere")
        store._snapshot_dir = directory  # point back at the stale snapshot
        with pytest.raises(StoreError, match="consumed by a save"):
            store.save_delta(directory)
        # The fallback the error demands really does repair the snapshot.
        store.save(directory)
        assert set(ShardedTripleStore.open(directory)) == set(store)

    def test_compact_folds_sharded_chains(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        for round_number in range(2):
            for triple in _burst(20, start=round_number * 100):
                store.add(triple)
            store.save_delta(directory)
        store.compact(directory)
        manifest = _read_manifest(directory)
        assert all(entry["deltas"] == [] for entry in manifest["shards"])
        assert manifest["dictionary_deltas"] == []
        # Folded chain files were swept with the manifest replacement.
        assert not any("-d1-" in p.name for p in directory.iterdir())
        assert set(ShardedTripleStore.open(directory)) == set(store)
        # The compacted files are a fresh chain base: new deltas append.
        store.add(Triple(EX.zz_after, EX.p0, EX.o0))
        assert store.save_delta(directory) is True
        assert set(ShardedTripleStore.open(directory)) == set(store)

    def test_orphan_delta_files_are_ignored(self, tmp_path):
        # A crash after writing a delta file but before the manifest
        # replacement leaves an orphan; the manifest names exactly the
        # files that apply, so the orphan must not replay.
        store, directory = self._saved_store(tmp_path)
        (directory / "shard0-d1-g1.snap").write_bytes(b"torn delta write")
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)

    def test_delta_then_rebalance_then_delta(self, tmp_path):
        # The refresh() lifecycle: burst, persist, rebalance (boundary
        # rewrite dirties moved shards), persist again — every layer of
        # that history must replay to the live state.
        store, directory = self._saved_store(tmp_path)
        for triple in _burst(60):
            store.add(triple)
        assert store.save_delta(directory) is True
        report = store.rebalance()
        assert report["moved"] > 0
        for triple in _burst(10, tag="late"):
            store.add(triple)
        assert store.save_delta(directory) is True
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)
        assert reopened.boundaries == store.boundaries
        assert reopened.shard_sizes() == store.shard_sizes()

    def test_legacy_manifest_still_opens(self, tmp_path):
        # Pre-delta manifests listed bare shard file names and knew
        # nothing of chains; normalisation must keep them opening.
        store, directory = self._saved_store(tmp_path)

        def legacy(body):
            body["shards"] = [entry["file"] for entry in body["shards"]]
            body.pop("dictionary_terms")
            body.pop("dictionary_deltas")

        _rewrite_manifest(directory, legacy)
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)

    def test_removal_delta_round_trips(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        seed = _seed_triples()
        for triple in seed[:10]:
            store.remove(triple)
        store.add(Triple(EX.zz_fresh, EX.p0, EX.o0))
        assert store.save_delta(directory) is True
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)
        assert len(reopened) == len(seed) - 10 + 1

    def test_lost_journal_raises(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        store.clear()  # drops every shard's journal
        store.add(Triple(EX.zz, EX.p0, EX.o0))
        with pytest.raises(StoreError, match="journal was lost"):
            store.save_delta(directory)

    def test_delta_removing_an_absent_triple_is_corrupt(self, tmp_path):
        # A manifest-named delta whose del/* columns list a triple the
        # shard never held cannot describe this chain: replay must refuse
        # rather than report a state that was never saved.
        store, directory = self._saved_store(tmp_path)
        shard = store.shards[0]
        name = "shard0-d1-g1.snap"
        write_container(
            directory / name,
            kind=KIND_DELTA,
            name=shard.name,
            sections=delta_triple_sections([], [(10**6, 10**6, 10**6)]),
            triples=len(shard) - 1,
            terms=len(store.dictionary),
            extra={"added": 0, "removed": 1, "sequence": 1},
        )

        def name_the_delta(body):
            body["shards"][0]["deltas"] = [name]
            body["triples"] -= 1

        _rewrite_manifest(directory, name_the_delta)
        with pytest.raises(SnapshotCorruptError, match="never held"):
            ShardedTripleStore.open(directory)


class TestSinglePartitionDelta:
    """The single-partition case of the one delta mechanism.

    Incremental snapshots exist only in sharded directories, so a user
    who wants one partition runs ``ShardedTripleStore(num_shards=1)``.
    These tests pin the chain contracts for that configuration.
    """

    def _saved_store(self, tmp_path):
        store = ShardedTripleStore(num_shards=1)
        store.bulk_load(_seed_triples())
        directory = tmp_path / "one"
        store.save(directory)
        return store, directory

    def test_delta_round_trip(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        before = {p.name for p in directory.iterdir()}
        for triple in _burst(30):
            store.add(triple)
        assert store.save_delta(directory) is True
        added = {p.name for p in directory.iterdir()} - before
        assert added == {"shard0-d1-g1.snap", "dictionary-d1-g1.snap"}
        assert set(ShardedTripleStore.open(directory)) == set(store)

    def test_multiple_deltas_chain(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        for round_number in range(3):
            for triple in _burst(10, start=round_number * 100):
                store.add(triple)
            assert store.save_delta(directory) is True
        manifest = _read_manifest(directory)
        assert manifest["shards"][0]["deltas"] == [
            "shard0-d1-g1.snap",
            "shard0-d2-g1.snap",
            "shard0-d3-g1.snap",
        ]
        assert len(manifest["dictionary_deltas"]) == 3
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)
        assert len(reopened) == len(store)

    def test_clean_store_writes_nothing(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        before = {p.name for p in directory.iterdir()}
        assert store.save_delta(directory) is False
        assert {p.name for p in directory.iterdir()} == before

    def test_delta_without_base_raises(self, tmp_path):
        store = ShardedTripleStore(num_shards=1)
        store.bulk_load(_seed_triples())
        store.add(Triple(EX.zz, EX.p0, EX.o0))
        with pytest.raises(StoreError, match="use save"):
            store.save_delta(tmp_path / "never-saved")

    def test_foreign_base_raises(self, tmp_path):
        _, directory = self._saved_store(tmp_path)
        other = ShardedTripleStore(num_shards=1)
        other.bulk_load([Triple(EX.alien, EX.p0, EX[f"o{i}"]) for i in range(5)])
        other.add(Triple(EX.zz, EX.p0, EX.o0))
        before = _read_manifest(directory)
        with pytest.raises(StoreError, match="use save"):
            other.save_delta(directory)
        assert _read_manifest(directory) == before

    def test_compact_folds_chain(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        for round_number in range(2):
            for triple in _burst(10, start=round_number * 100):
                store.add(triple)
            assert store.save_delta(directory) is True
        store.compact(directory)
        manifest = _read_manifest(directory)
        assert manifest["shards"][0]["deltas"] == []
        assert manifest["dictionary_deltas"] == []
        assert not any("-d" in p.name for p in directory.iterdir())
        assert set(ShardedTripleStore.open(directory)) == set(store)
        # The compacted files are a fresh chain base: new deltas append.
        store.add(Triple(EX.zz_after, EX.p0, EX.o0))
        assert store.save_delta(directory) is True
        assert set(ShardedTripleStore.open(directory)) == set(store)

    def test_stale_delta_after_crashed_compact_is_ignored(self, tmp_path):
        store, directory = self._saved_store(tmp_path)
        for triple in _burst(10):
            store.add(triple)
        assert store.save_delta(directory) is True
        # Simulate a compact that crashed after replacing the manifest but
        # before sweeping the folded chain: the old delta files survive,
        # and the manifest no longer names them.
        stale = {
            p.name: p.read_bytes()
            for p in directory.iterdir()
            if "-d1-" in p.name
        }
        assert stale
        store.compact(directory)
        for name, payload in stale.items():
            (directory / name).write_bytes(payload)
        reopened = ShardedTripleStore.open(directory)
        assert set(reopened) == set(store)
        assert len(reopened) == len(store)
