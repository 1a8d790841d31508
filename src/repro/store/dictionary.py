"""Dictionary encoding of RDF terms.

A :class:`TermDictionary` interns every RDF term to a dense integer ID, the
way RDF-3X-style engines do: the storage and query layers then operate on
plain integers (cheap hashing, cheap equality, compact sorted containers)
and only materialise :class:`~repro.rdf.terms.Term` objects at the API
boundary.

IDs are assigned densely in interning order and are **stable for the
lifetime of the dictionary**: removing triples from a store, or clearing
it, never invalidates or reuses an ID.  This lets query results, caches and
statistics hold bare integers without worrying about remapping.

Snapshot support (:mod:`repro.store.persist`) serialises a dictionary as a
**string heap + offset table**: every term is encoded to a self-delimiting
byte record (:func:`encode_term_record`), the records are concatenated in
ID order, and an ``int64`` offset table of ``n + 1`` entries marks the
record boundaries.  A dictionary reopened over that layout keeps it as
its read-only *base* instead of re-interning anything: ``decode`` parses
one record on demand (memoising per ID) and a term is found by
binary-searching the precomputed record-sorted ID permutation, so a
cold-opened store resolves query constants in O(log n) record probes
instead of paying an O(n) dictionary rebuild.  Terms interned later take
the next dense IDs past the base, with no rebuild either.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from struct import Struct
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreError
from repro.rdf.terms import BlankNode, IRI, Literal, Term
from repro.rdf.triple import Triple

#: Term-kind tags stored per ID (one byte each).
KIND_IRI = 0
KIND_BLANK = 1
KIND_LITERAL = 2

#: Literal payload sub-tags (see :func:`encode_term_record`).
_LIT_PLAIN = 0
_LIT_LANG = 1
_LIT_DATATYPE = 2

_U32 = Struct("<I")

#: Entries allowed in a dictionary's memo of base-search misses before it
#: is dropped and rebuilt — bounds the memory of long-lived read-only cold
#: stores probed with ever-new constants.
_ID_CACHE_LIMIT = 65536


def encode_term_record(term: Term) -> bytes:
    """Encode one term as a self-delimiting snapshot heap record.

    The encoding is injective and deterministic (required for the
    byte-identical round-trip guarantee and for binary-searching the
    record-sorted permutation):

    * ``IRI`` → ``0x00`` + UTF-8 IRI string;
    * ``BlankNode`` → ``0x01`` + UTF-8 label;
    * ``Literal`` → ``0x02`` + u32 length + UTF-8 lexical form + one
      sub-tag byte (plain / language / datatype) + UTF-8 tag payload.
    """
    if isinstance(term, IRI):
        return bytes((KIND_IRI,)) + term.value.encode("utf-8")
    if isinstance(term, BlankNode):
        return bytes((KIND_BLANK,)) + term.label.encode("utf-8")
    if isinstance(term, Literal):
        lexical = term.lexical.encode("utf-8")
        if term.language is not None:
            tag, payload = _LIT_LANG, term.language.encode("utf-8")
        elif term.datatype is not None:
            tag, payload = _LIT_DATATYPE, term.datatype.encode("utf-8")
        else:
            tag, payload = _LIT_PLAIN, b""
        return (
            bytes((KIND_LITERAL,))
            + _U32.pack(len(lexical))
            + lexical
            + bytes((tag,))
            + payload
        )
    raise StoreError(f"Cannot encode non-term value: {term!r}")


def decode_term_record(record) -> Term:
    """Rebuild the term encoded by :func:`encode_term_record`.

    Accepts any bytes-like object.
    """
    record = bytes(record)
    if not record:
        raise StoreError("Empty term record")
    kind = record[0]
    if kind == KIND_IRI:
        return IRI(record[1:].decode("utf-8"))
    if kind == KIND_BLANK:
        return BlankNode(record[1:].decode("utf-8"))
    if kind == KIND_LITERAL:
        (lexical_len,) = _U32.unpack_from(record, 1)
        lexical = record[5 : 5 + lexical_len].decode("utf-8")
        tag = record[5 + lexical_len]
        payload = record[6 + lexical_len :].decode("utf-8")
        if tag == _LIT_LANG:
            return Literal(lexical, language=payload)
        if tag == _LIT_DATATYPE:
            return Literal(lexical, datatype=payload)
        if tag == _LIT_PLAIN:
            return Literal(lexical)
    raise StoreError(f"Malformed term record (kind byte {kind})")


class _InternMap(dict):
    """A ``Term -> ID`` dict that interns unknown terms on subscript miss.

    Lookups of already-resolved terms — the overwhelming majority during
    bulk loads — stay entirely in C (`dict.__getitem__`); only a genuine
    miss drops into :meth:`__missing__`, which keeps a snapshot-base term
    on its record ID and otherwise assigns the next dense ID and records
    the term and its kind byte.
    """

    __slots__ = ("_dictionary",)

    def __init__(self, dictionary: "TermDictionary"):
        super().__init__()
        self._dictionary = dictionary

    def __missing__(self, term: Term) -> int:
        if isinstance(term, IRI):
            kind = KIND_IRI
        elif isinstance(term, Literal):
            kind = KIND_LITERAL
        elif isinstance(term, BlankNode):
            kind = KIND_BLANK
        else:
            raise StoreError(f"Cannot intern non-term value: {term!r}")
        dictionary = self._dictionary
        tid = dictionary._base_id(term) if dictionary._base_count else None
        if tid is None:
            tid = len(dictionary._terms)
            dictionary._terms.append(term)
            dictionary._kinds.append(kind)
        self[term] = tid
        return tid


class TermDictionary:
    """A bidirectional mapping ``Term <-> dense integer ID``.

    The forward direction (:meth:`encode`) interns: unknown terms are
    assigned the next free ID.  The reverse direction (:meth:`decode`) is a
    list lookup.  A per-ID kind byte answers "is this a literal/entity?"
    without materialising the term — the statistics layer relies on this.

    A dictionary reopened from a snapshot keeps the four snapshot
    sections as a read-only **base** holding IDs ``0 .. n-1`` (a fresh
    dictionary has an empty one): ``heap``/``offsets`` delimit the term
    records in ID order, ``kinds`` holds one kind byte per ID and
    ``lookup`` is the ID permutation sorted by record bytes.  Opening is
    O(1) in the number of terms (one ``None`` placeholder list and a copy
    of the kind bytes aside).  A base record is parsed only when
    :meth:`decode` first asks for it, and a term is found in the base by
    an O(log n) binary search of ``lookup`` that compares raw record
    bytes; found base terms are remembered in the interning map.  Terms
    interned past the base (the **tail**) take the next dense IDs exactly
    as in a fresh dictionary.
    """

    __slots__ = (
        "_ids",
        "_terms",
        "_kinds",
        "_heap",
        "_offsets",
        "_lookup",
        "_base_count",
        "_misses",
    )

    def __init__(self, heap=b"", offsets=(0,), kinds=b"", lookup=()) -> None:
        count = len(offsets) - 1
        if count < 0 or len(kinds) != count or len(lookup) != count:
            raise StoreError("Inconsistent dictionary snapshot sections")
        self._heap = heap
        self._offsets = offsets
        self._lookup = lookup
        self._base_count = count
        self._terms: List[Optional[Term]] = [None] * count
        self._kinds = bytearray(kinds)
        self._ids = _InternMap(self)
        # Memoised base-search misses: the SPARQL evaluator re-resolves a
        # query's constants once per pattern probe, so without this every
        # probe of an absent constant would repeat the record search.
        self._misses: Set[Term] = set()

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: object) -> bool:
        return self.id_for(term) is not None  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"TermDictionary(size={len(self._terms)})"

    def _record(self, tid: int) -> bytes:
        """The snapshot record of base ID ``tid``."""
        return bytes(self._heap[self._offsets[tid] : self._offsets[tid + 1]])

    def _base_id(self, term: Term) -> Optional[int]:
        """The base ID holding ``term``'s record (an O(log n) binary
        search of ``lookup``); ``None`` if absent."""
        try:
            record = encode_term_record(term)
        except StoreError:
            return None  # non-term probe: the warm dict.get returns None too
        lookup = self._lookup
        position = bisect_left(lookup, record, key=self._record)
        if position < len(lookup) and self._record(lookup[position]) == record:
            return lookup[position]
        return None

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, term: Term) -> int:
        """Intern ``term``, returning its (possibly fresh) ID."""
        return self._ids[term]

    def id_for(self, term: Term) -> Optional[int]:
        """The ID of ``term`` without interning; ``None`` if unknown."""
        tid = self._ids.get(term)
        if tid is None and self._base_count and term not in self._misses:
            tid = self._base_id(term)
            if tid is not None:
                self._ids[term] = tid
            else:
                if len(self._misses) >= _ID_CACHE_LIMIT:
                    self._misses.clear()  # memo only: costs re-probes, not answers
                self._misses.add(term)
        return tid

    @property
    def ids_map(self) -> Dict[Term, int]:
        """The raw interning ``Term -> ID`` mapping.

        Exposed so hot paths can intern (subscript) without a method call
        per term.  Subscripting interns on miss (a base term keeps its
        record ID).  ``.get`` does not see base terms that were never
        resolved, so probe with :meth:`id_for`; callers must not mutate
        it any other way.
        """
        return self._ids

    def extend(self, records: Sequence[bytes]) -> None:
        """Intern snapshot term records past the current IDs, in order.

        Each record takes the next dense ID — the one it held when it was
        written — so a record repeating a known term, which would alias
        that term's ID instead, raises :class:`StoreError`.  The base is
        searched for the whole batch in one galloping pass over the
        sorted records: O(k log(n/k)) record probes for ``k`` records,
        and none for a record sorting into the gap the previous one
        landed in (new entities of one namespace, say) — where one search
        per record would cost log n.
        """
        terms = [decode_term_record(record) for record in records]
        lookup, record_of = self._lookup, self._record
        count, low, bound = len(lookup), 0, b""
        for record in sorted(records) if count else ():
            if record < bound or low == count:
                continue  # below base record ``bound``, above its predecessor
            high, step = low, 1
            while high < count and record_of(lookup[high]) < record:
                low, high, step = high + 1, high + step, step * 2
            low = bisect_left(lookup, record, low, min(high, count), key=record_of)
            if low < count:
                bound = record_of(lookup[low])
                if bound == record:
                    raise StoreError(f"Term record repeats base term ID {lookup[low]}")
        start = len(self._terms)
        new_ids = dict(zip(terms, range(start, start + len(terms))))
        if len(new_ids) != len(terms) or not self._ids.keys().isdisjoint(new_ids):
            raise StoreError("Term records repeat a known term")
        self._ids.update(new_ids)
        self._terms.extend(terms)
        self._kinds.extend(record[0] for record in records)

    def encode_triple(self, triple: Triple) -> Tuple[int, int, int]:
        """Intern all three positions of ``triple``."""
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(self, tid: int) -> Term:
        """The term interned under ``tid``.

        Raises
        ------
        StoreError
            If ``tid`` was never assigned.
        """
        if not 0 <= tid < len(self._terms):
            raise StoreError(f"Unknown term ID: {tid}")
        term = self._terms[tid]
        if term is None:
            term = self._terms[tid] = decode_term_record(self._record(tid))
        return term

    def decode_triple(self, ids: Tuple[int, int, int]) -> Triple:
        """Rebuild a :class:`Triple` from an ID triple."""
        decode = self.decode
        return Triple(decode(ids[0]), decode(ids[1]), decode(ids[2]))

    def terms(self) -> Iterator[Term]:
        """All interned terms, in ID order."""
        return (self.decode(tid) for tid in range(len(self._terms)))

    # ------------------------------------------------------------------ #
    # Kind queries (no term materialisation)
    # ------------------------------------------------------------------ #
    def kind(self, tid: int) -> int:
        """The kind tag (:data:`KIND_IRI` / `KIND_BLANK` / `KIND_LITERAL`)."""
        if not 0 <= tid < len(self._kinds):
            raise StoreError(f"Unknown term ID: {tid}")
        return self._kinds[tid]

    def is_literal_id(self, tid: int) -> bool:
        """Whether ``tid`` denotes a literal."""
        return self._kinds[tid] == KIND_LITERAL

    def is_entity_id(self, tid: int) -> bool:
        """Whether ``tid`` denotes an IRI or blank node."""
        return self._kinds[tid] != KIND_LITERAL

    # ------------------------------------------------------------------ #
    # Snapshot serialisation
    # ------------------------------------------------------------------ #
    def snapshot_columns(self) -> Tuple[bytes, object, bytes, object]:
        """The dictionary's snapshot sections.

        Returns ``(heap, offsets, kinds, lookup)``: the concatenated term
        records in ID order, the ``n + 1`` record-boundary offsets, the
        per-ID kind bytes, and the ID permutation sorted by record bytes
        (what :meth:`id_for` binary-searches).  With nothing interned past
        the base its sections pass through verbatim; otherwise the tail's
        records are appended (no base record is decoded) and ``lookup`` is
        recomputed.  The output is deterministic for a given term
        sequence, which is what makes saving an unmutated reopened store
        byte-identical.
        """
        base = self._base_count
        if len(self._terms) == base:
            return bytes(self._heap), self._offsets, bytes(self._kinds), self._lookup
        records = [self._record(tid) for tid in range(base)]
        records.extend(encode_term_record(term) for term in self._terms[base:])
        offsets = array("q", self._offsets)
        for record in records[base:]:
            offsets.append(offsets[-1] + len(record))
        heap = bytes(self._heap) + b"".join(records[base:])
        lookup = array("q", sorted(range(len(records)), key=records.__getitem__))
        return heap, offsets, bytes(self._kinds), lookup
