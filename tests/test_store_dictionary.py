"""Unit tests for the term dictionary (ID interning layer)."""

import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotCorruptError, StoreError
from repro.rdf.terms import BlankNode, IRI, Literal
from repro.rdf.triple import Triple
from repro.shard.sharded_store import ShardedTripleStore
from repro.store.dictionary import (
    KIND_BLANK,
    KIND_IRI,
    KIND_LITERAL,
    TermDictionary,
    encode_term_record,
)
from repro.store.persist import KIND_DELTA, delta_term_sections, write_container
from repro.store.triplestore import TripleStore

from tests.conftest import EX


def _reopen(dictionary):
    """A dictionary over the snapshot sections of ``dictionary``."""
    heap, offsets, kinds, lookup = dictionary.snapshot_columns()
    return TermDictionary(
        heap=memoryview(heap),
        offsets=memoryview(array("q", offsets)),
        kinds=memoryview(kinds),
        lookup=memoryview(array("q", lookup)),
    )


def _reopened_dictionary():
    """A dictionary reopened over the snapshot sections of one holding a
    few terms unrelated to the tests below (a non-empty base)."""
    base = TermDictionary()
    for term in (EX.unrelated, Literal("unrelated"), BlankNode("unrelated")):
        base.encode(term)
    return _reopen(base)


@pytest.fixture(params=["fresh", "reopened"])
def dictionary(request):
    """The battery runs on an empty-base and a snapshot-based dictionary."""
    return TermDictionary() if request.param == "fresh" else _reopened_dictionary()


class TestInterning:
    def test_encode_assigns_dense_ids(self, dictionary):
        start = len(dictionary)
        first = dictionary.encode(EX.a)
        second = dictionary.encode(EX.b)
        assert [first, second] == [start, start + 1]
        assert len(dictionary) == start + 2

    def test_encode_is_idempotent(self, dictionary):
        start = len(dictionary)
        tid = dictionary.encode(EX.a)
        assert dictionary.encode(EX.a) == tid
        assert len(dictionary) == start + 1

    def test_round_trip(self, dictionary):
        terms = [EX.a, Literal("x"), Literal(7), BlankNode("b1"), Literal("y", language="en")]
        ids = [dictionary.encode(term) for term in terms]
        assert [dictionary.decode(tid) for tid in ids] == terms

    def test_structurally_equal_terms_share_an_id(self):
        dictionary = TermDictionary()
        assert dictionary.encode(IRI("http://x.test/a")) == dictionary.encode(
            IRI("http://x.test/a")
        )

    def test_id_for_does_not_intern(self, dictionary):
        start = len(dictionary)
        assert dictionary.id_for(EX.a) is None
        assert len(dictionary) == start

    def test_contains(self, dictionary):
        dictionary.encode(EX.a)
        assert EX.a in dictionary
        assert EX.b not in dictionary

    def test_decode_unknown_id_raises(self, dictionary):
        for tid in (len(dictionary), -1):
            with pytest.raises(StoreError, match="Unknown term ID"):
                dictionary.decode(tid)
            with pytest.raises(StoreError, match="Unknown term ID"):
                dictionary.kind(tid)

    def test_encode_rejects_non_terms(self):
        with pytest.raises(StoreError):
            TermDictionary().encode("not a term")  # type: ignore[arg-type]

    def test_terms_iterates_in_id_order(self):
        dictionary = TermDictionary()
        dictionary.encode(EX.b)
        dictionary.encode(EX.a)
        assert list(dictionary.terms()) == [EX.b, EX.a]


class TestKinds:
    def test_kind_tags(self, dictionary):
        iri_id = dictionary.encode(EX.a)
        literal_id = dictionary.encode(Literal("x"))
        blank_id = dictionary.encode(BlankNode("b"))
        assert dictionary.kind(iri_id) == KIND_IRI
        assert dictionary.kind(literal_id) == KIND_LITERAL
        assert dictionary.kind(blank_id) == KIND_BLANK

    def test_literal_and_entity_predicates(self, dictionary):
        iri_id = dictionary.encode(EX.a)
        literal_id = dictionary.encode(Literal("x"))
        assert dictionary.is_entity_id(iri_id) and not dictionary.is_literal_id(iri_id)
        assert dictionary.is_literal_id(literal_id) and not dictionary.is_entity_id(literal_id)


class TestTripleHelpers:
    def test_encode_decode_triple_round_trip(self, dictionary):
        triple = Triple(EX.s, EX.p, Literal("o"))
        assert dictionary.decode_triple(dictionary.encode_triple(triple)) == triple


class TestSnapshotBase:
    def test_base_terms_keep_their_record_ids(self):
        dictionary = _reopened_dictionary()
        assert dictionary.encode(Literal("unrelated")) == 1
        assert dictionary.id_for(BlankNode("unrelated")) == 2
        assert len(dictionary) == 3

    @given(
        st.sets(st.integers(0, 60)),
        st.lists(st.integers(0, 80), min_size=1, max_size=20, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_extend_refuses_exactly_the_known_terms(self, base_keys, new_keys):
        # The galloping base check must agree with a brute-force one.
        base = TermDictionary()
        for key in sorted(base_keys):
            base.encode(EX[f"t{key}"])
        dictionary = _reopen(base)
        records = [encode_term_record(EX[f"t{key}"]) for key in new_keys]
        if base_keys & set(new_keys):
            with pytest.raises(StoreError, match="repeats base term"):
                dictionary.extend(records)
            return
        dictionary.extend(records)
        start = len(base_keys)
        assert [dictionary.id_for(EX[f"t{key}"]) for key in new_keys] == list(
            range(start, start + len(new_keys))
        )
        with pytest.raises(StoreError, match="repeat a known term"):
            dictionary.extend(records[:1])

    def test_delta_record_repeating_a_base_term_is_corrupt(self, tmp_path):
        # A dictionary delta record must land on the next dense ID; one
        # that repeats a base term would otherwise get a second ID and
        # silently orphan the base facts that use the first.
        store = ShardedTripleStore(num_shards=1, triples=[Triple(EX.a, EX.p, EX.o)])
        directory = tmp_path / "shd"
        store.save(directory)
        store.add(Triple(EX.fresh, EX.p, EX.o))
        assert store.save_delta(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        (delta_name,) = manifest["dictionary_deltas"]
        forged = TermDictionary()
        forged.encode(EX.a)
        write_container(
            directory / delta_name,
            kind=KIND_DELTA,
            name=store.name,
            sections=delta_term_sections(forged, 0),
            triples=0,
            terms=4,
            extra={"base_terms": 3, "sequence": 1},
        )
        with pytest.raises(SnapshotCorruptError, match="repeats base term"):
            ShardedTripleStore.open(directory)


class TestStabilityAcrossStoreMutation:
    def test_ids_stable_across_remove(self):
        store = TripleStore()
        triple = Triple(EX.s, EX.p, EX.o)
        store.add(triple)
        subject_id = store.term_id(EX.s)
        store.remove(triple)
        assert store.term_id(EX.s) == subject_id
        assert store.term_for_id(subject_id) == EX.s
        # Re-adding reuses the same IDs.
        store.add(triple)
        assert store.term_id(EX.s) == subject_id

    def test_ids_stable_across_clear(self):
        store = TripleStore()
        store.add(Triple(EX.s, EX.p, EX.o))
        ids_before = {term: store.term_id(term) for term in (EX.s, EX.p, EX.o)}
        store.clear()
        assert len(store) == 0
        for term, tid in ids_before.items():
            assert store.term_id(term) == tid

    def test_shared_dictionary_across_stores(self):
        dictionary = TermDictionary()
        left = TripleStore(name="left", dictionary=dictionary)
        right = TripleStore(name="right", dictionary=dictionary)
        left.add(Triple(EX.s, EX.p, EX.o))
        right.add(Triple(EX.s, EX.p, EX.other))
        assert left.term_id(EX.s) == right.term_id(EX.s)


class TestCountShapes:
    """The count satellite: every pattern shape answered from index counts."""

    @pytest.fixture
    def store(self, people_store):
        return people_store

    def test_subject_predicate_shape(self, store):
        assert store.count(subject=EX["Frank_Sinatra"], predicate=EX.bornIn) == 1
        assert store.count(subject=EX["Frank_Sinatra"], predicate=EX.unknownRel) == 0

    def test_predicate_object_shape(self, store):
        assert store.count(predicate=EX.profession, object=EX.Physicist) == 2

    def test_subject_object_shape(self, store):
        assert store.count(subject=EX["Frank_Sinatra"], object=EX.USA) == 1

    def test_fully_bound_shape(self, store):
        assert store.count(EX["Frank_Sinatra"], EX.bornIn, EX.USA) == 1
        assert store.count(EX["Frank_Sinatra"], EX.bornIn, EX.Poland) == 0

    def test_unknown_term_counts_zero(self, store):
        assert store.count(subject=EX.NotThere) == 0

    def test_counts_agree_with_materialising_scan(self, store):
        shapes = [
            {"subject": EX["Marie_Curie"]},
            {"predicate": EX.bornIn},
            {"object": EX.Physicist},
            {"subject": EX["Marie_Curie"], "predicate": EX.bornIn},
            {"predicate": EX.profession, "object": EX.Physicist},
            {"subject": EX["Frank_Sinatra"], "object": EX.USA},
        ]
        for shape in shapes:
            assert store.count(**shape) == sum(1 for _ in store.match(**shape))

    def test_contains_ids(self, store):
        s = store.term_id(EX["Frank_Sinatra"])
        p = store.term_id(EX.bornIn)
        o = store.term_id(EX.USA)
        other = store.term_id(EX.Poland)
        assert store.contains_ids(s, p, o)
        assert not store.contains_ids(s, p, other)

    def test_count_distinct_ids_shapes(self, store):
        pid = store.term_id(EX.profession)
        sid = store.term_id(EX["Marie_Curie"])
        oid = store.term_id(EX.Physicist)
        assert store.count_distinct_ids("s", predicate=pid) == 3
        assert store.count_distinct_ids("o", predicate=pid) == 2
        assert store.count_distinct_ids("s", predicate=pid, object=oid) == 2
        assert store.count_distinct_ids("p", subject=sid) == 3
        assert store.count_distinct_ids("o", subject=sid, predicate=pid) == 1
