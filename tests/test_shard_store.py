"""Unit tests for the subject-range-sharded triple store."""

import random

import pytest

from repro.errors import StoreError
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal
from repro.rdf.triple import Triple
from repro.shard import ShardedTripleStore, ShardRouter
from repro.store import TripleStore

EX = Namespace("http://shard.test/")


def sample_triples(count=400, subjects=50, predicates=5, objects=30, seed=7):
    rng = random.Random(seed)
    triples = [
        Triple(
            EX[f"s{rng.randint(0, subjects)}"],
            EX[f"p{rng.randint(0, predicates)}"],
            EX[f"o{rng.randint(0, objects)}"],
        )
        for _ in range(count)
    ]
    triples += [Triple(EX[f"s{i}"], EX.label, Literal(f"name {i}")) for i in range(20)]
    return triples


@pytest.fixture(scope="module")
def triples():
    return sample_triples()


@pytest.fixture(scope="module")
def single(triples):
    return TripleStore(triples=triples)


class TestPartitioning:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_same_content_as_single_store(self, triples, single, num_shards):
        sharded = ShardedTripleStore(num_shards=num_shards, triples=triples)
        assert len(sharded) == len(single)
        assert set(sharded) == set(single)

    def test_every_triple_lives_in_its_routed_shard(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        for shard_index, shard in enumerate(sharded.shards):
            for triple in shard:
                sid = sharded.term_id(triple.subject)
                assert sharded.shard_index_for_subject(sid) == shard_index

    def test_subject_ranges_are_contiguous_and_disjoint(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        per_shard = [
            {sharded.term_id(t.subject) for t in shard} for shard in sharded.shards
        ]
        for earlier, later in zip(per_shard, per_shard[1:]):
            assert not (earlier & later)
            if earlier and later:
                assert max(earlier) < min(later)

    def test_shards_are_reasonably_balanced(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        sizes = sharded.shard_sizes()
        assert all(size > 0 for size in sizes)
        assert max(sizes) < len(sharded)  # nothing degenerated to one shard

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(StoreError):
            ShardedTripleStore(num_shards=0)

    def test_from_store(self, triples, single):
        sharded = ShardedTripleStore.from_store(single, num_shards=4)
        assert set(sharded) == set(single)
        assert sharded.num_shards == 4


class TestMutation:
    def test_adds_before_bulk_load_are_rehomed(self, triples, single):
        sharded = ShardedTripleStore(num_shards=4)
        for triple in triples[:15]:
            sharded.add(triple)
        sharded.bulk_load(triples[15:])
        assert set(sharded) == set(single)
        for shard_index, shard in enumerate(sharded.shards):
            for triple in shard:
                sid = sharded.term_id(triple.subject)
                assert sharded.shard_index_for_subject(sid) == shard_index

    def test_parallel_and_serial_builds_agree(self, triples):
        serial = ShardedTripleStore(num_shards=4)
        serial.bulk_load(triples, parallel=False)
        parallel = ShardedTripleStore(num_shards=4)
        parallel.bulk_load(triples, parallel=True)
        assert set(serial) == set(parallel)
        assert serial.shard_sizes() == parallel.shard_sizes()

    def test_add_remove_contains_route_consistently(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples[:100])
        extra = Triple(EX.brand_new_subject, EX.p0, EX.o0)
        assert extra not in sharded
        assert sharded.add(extra)
        assert not sharded.add(extra)  # duplicate
        assert extra in sharded
        assert sharded.remove(extra)
        assert extra not in sharded
        assert not sharded.remove(extra)

    def test_clear_unfreezes_boundaries(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        assert sharded.boundaries
        sharded.clear()
        assert len(sharded) == 0
        sharded.bulk_load(triples[:50])
        assert len(sharded) == len(set(triples[:50]))

    def test_data_version_bumps_on_mutation(self, triples):
        sharded = ShardedTripleStore(num_shards=2, triples=triples[:20])
        version = sharded.data_version
        extra = Triple(EX.vx, EX.vy, EX.vz)
        sharded.add(extra)
        assert sharded.data_version > version
        version = sharded.data_version
        sharded.remove(extra)
        assert sharded.data_version > version

    def test_rejects_non_triple(self):
        sharded = ShardedTripleStore(num_shards=2)
        with pytest.raises(StoreError):
            sharded.add("not a triple")
        with pytest.raises(StoreError):
            sharded.bulk_load(["not a triple"])


class TestQuerySurface:
    @pytest.mark.parametrize("num_shards", [2, 8])
    def test_match_shapes_agree_with_single_store(self, triples, single, num_shards):
        sharded = ShardedTripleStore(num_shards=num_shards, triples=triples)
        subject, predicate, obj = EX.s3, EX.p1, EX.o5
        for pattern in [
            dict(subject=subject),
            dict(predicate=predicate),
            dict(object=obj),
            dict(subject=subject, predicate=predicate),
            dict(predicate=predicate, object=obj),
            dict(subject=subject, object=obj),
            dict(),
        ]:
            assert set(sharded.match(**pattern)) == set(single.match(**pattern))
            assert sharded.count(**pattern) == single.count(**pattern)

    def test_unknown_term_matches_nothing(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        assert list(sharded.match(subject=EX.never_seen)) == []
        assert sharded.count(subject=EX.never_seen) == 0

    def test_count_distinct_across_shards(self, triples, single):
        sharded = ShardedTripleStore(num_shards=8, triples=triples)
        pid = single.term_id(EX.p1)
        for position in "spo":
            patterns = [(None, None, None)]
            if position != "p":
                patterns.append((None, pid, None))
            for s, p, o in patterns:
                assert sharded.count_distinct_ids(
                    position, s, p, o
                ) == single.count_distinct_ids(position, s, p, o)

    def test_vocabulary_access(self, triples, single):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        assert sharded.predicates() == single.predicates()
        assert set(sharded.subjects()) == set(single.subjects())
        assert set(sharded.objects(EX.p2)) == set(single.objects(EX.p2))
        assert set(sharded.subjects_of(EX.p1, EX.o5)) == set(
            single.subjects_of(EX.p1, EX.o5)
        )
        assert sorted(sharded.objects_of(EX.s3, EX.p1), key=str) == sorted(
            single.objects_of(EX.s3, EX.p1), key=str
        )
        assert sharded.entities() == single.entities()
        assert sharded.has_subject(EX.s3) == single.has_subject(EX.s3)

    def test_statistics_merge_matches_single_store(self, triples, single):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        expected = single.statistics()
        merged = sharded.statistics()
        assert merged.triple_count == expected.triple_count
        assert merged.subject_count == expected.subject_count
        assert merged.object_count == expected.object_count
        assert merged.predicate_count == expected.predicate_count
        for predicate, stats in expected.predicates.items():
            other = merged.predicates[predicate]
            assert other.fact_count == stats.fact_count
            assert other.distinct_subjects == stats.distinct_subjects
            assert other.distinct_objects == stats.distinct_objects
            assert other.literal_object_count == stats.literal_object_count


class TestRouter:
    def test_subject_constant_routes_to_one_shard(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        router = ShardRouter(sharded)
        sid = sharded.term_id(EX.s3)
        route = router.route_pattern((sid, None, None))
        assert len(route.probed) == 1
        assert route.probed[0] == sharded.shard_index_for_subject(sid)

    def test_count_pruning_drops_empty_shards(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        router = ShardRouter(sharded)
        # The label predicate only covers subjects s0..s19, which land in
        # a strict subset of shards.
        pid = sharded.term_id(EX.label)
        route = router.route_pattern((None, pid, None))
        for index in route.probed:
            assert sharded.shards[index].count_ids(None, pid, None) > 0
        for index in route.pruned:
            assert sharded.shards[index].count_ids(None, pid, None) == 0

    def test_route_group_intersects_required_patterns(self, triples):
        sharded = ShardedTripleStore(num_shards=4, triples=triples)
        router = ShardRouter(sharded)
        label = sharded.term_id(EX.label)
        p1 = sharded.term_id(EX.p1)
        surviving, routes = router.route_group([(None, label, None), (None, p1, None)])
        assert set(surviving) == set(routes[0].probed) & set(routes[1].probed)


class TestShardedFromIdColumns:
    """The sharded ID-column loader must match the single-store loader."""

    @staticmethod
    def _columns(count: int = 300):
        from repro.store.dictionary import TermDictionary

        rng = random.Random(5)
        dictionary = TermDictionary()
        subjects, predicates, objects = [], [], []
        for _ in range(count):
            triple = Triple(
                EX[f"e{rng.randrange(40)}"],
                EX[f"p{rng.randrange(4)}"],
                EX[f"e{rng.randrange(40)}"],
            )
            s, p, o = dictionary.encode_triple(triple)
            subjects.append(s)
            predicates.append(p)
            objects.append(o)
        return dictionary, subjects, predicates, objects

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_matches_single_store(self, shards):
        dictionary, subjects, predicates, objects = self._columns()
        single = TripleStore.from_id_columns("one", dictionary, subjects, predicates, objects)
        sharded = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=shards
        )
        shard_ids = sorted(
            triple for shard in sharded.shards for triple in shard.match_ids()
        )
        assert shard_ids == sorted(single.match_ids())
        assert len(sharded) == len(single)

    def test_routing_matches_subject_ranges(self):
        dictionary, subjects, predicates, objects = self._columns()
        sharded = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=4
        )
        for index, shard in enumerate(sharded.shards):
            for subject, _, _ in shard.match_ids():
                assert sharded.shard_index_for_subject(subject) == index

    def test_process_parallel_build_matches_inline(self):
        dictionary, subjects, predicates, objects = self._columns()
        inline = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=4
        )
        parallel = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=4, processes=2
        )
        assert sorted(
            triple for shard in inline.shards for triple in shard.match_ids()
        ) == sorted(triple for shard in parallel.shards for triple in shard.match_ids())

    def test_pure_python_fallback_matches(self, monkeypatch):
        dictionary, subjects, predicates, objects = self._columns()
        fast = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=3
        )
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        slow = ShardedTripleStore.from_id_columns(
            dictionary, subjects, predicates, objects, num_shards=3
        )
        assert sorted(
            triple for shard in fast.shards for triple in shard.match_ids()
        ) == sorted(triple for shard in slow.shards for triple in shard.match_ids())
