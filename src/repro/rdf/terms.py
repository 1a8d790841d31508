"""RDF terms: IRIs, literals and blank nodes.

The classes here follow the RDF 1.1 abstract syntax.  They are immutable
value objects: equality and hashing are defined structurally, so two
:class:`IRI` objects with the same string are interchangeable everywhere in
the library (store indexes, sameAs union-find, sampling sets, ...).
"""

from __future__ import annotations

from typing import Union

from repro.errors import RDFError

#: IRI of the XSD string datatype, the implicit datatype of plain literals.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
XSD_GYEAR = "http://www.w3.org/2001/XMLSchema#gYear"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        "http://www.w3.org/2001/XMLSchema#float",
        "http://www.w3.org/2001/XMLSchema#long",
        "http://www.w3.org/2001/XMLSchema#int",
        "http://www.w3.org/2001/XMLSchema#short",
        "http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
        "http://www.w3.org/2001/XMLSchema#positiveInteger",
    }
)


class IRI:
    """An IRI reference (RDF resource identifier).

    Parameters
    ----------
    value:
        The full IRI string, e.g. ``"http://yago-knowledge.org/resource/wasBornIn"``.

    Raises
    ------
    RDFError
        If ``value`` is empty or contains characters forbidden in IRIs
        (angle brackets, whitespace inside the IRI).
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise RDFError(f"IRI value must be a string, got {type(value).__name__}")
        if not value:
            raise RDFError("IRI value must not be empty")
        # Plain substring scans run in C: every term decoded from a
        # snapshot passes through here.
        if ("<" in value or ">" in value or '"' in value
                or " " in value or "\n" in value or "\t" in value):
            raise RDFError(f"IRI contains forbidden characters: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("IRI", value)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("IRI instances are immutable")

    def __reduce__(self):
        # The default slots pickling applies state via setattr, which the
        # immutability guard rejects; rebuild through the constructor so
        # terms can cross process boundaries (shard worker protocol).
        return (IRI, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "IRI") -> bool:
        if not isinstance(other, IRI):
            return NotImplemented
        return self.value < other.value

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    @property
    def local_name(self) -> str:
        """The part of the IRI after the last ``#`` or ``/``.

        Useful for human-readable relation names, e.g.
        ``IRI("http://dbpedia.org/ontology/birthPlace").local_name == "birthPlace"``.
        """
        value = self.value
        for sep in ("#", "/"):
            if sep in value:
                candidate = value.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return value

    @property
    def namespace(self) -> str:
        """The IRI prefix up to and including the last ``#`` or ``/``."""
        local = self.local_name
        if local and self.value.endswith(local):
            return self.value[: -len(local)]
        return self.value


class BlankNode:
    """An RDF blank node with a local label.

    Blank node labels are only meaningful within a single document/store.
    """

    __slots__ = ("label", "_hash")

    _counter = 0

    def __init__(self, label: str | None = None):
        if label is None:
            BlankNode._counter += 1
            label = f"b{BlankNode._counter}"
        if not isinstance(label, str) or not label:
            raise RDFError("Blank node label must be a non-empty string")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("BlankNode", label)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BlankNode instances are immutable")

    def __reduce__(self):
        return (BlankNode, (self.label,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and other.label == self.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"


class Literal:
    """An RDF literal: lexical form plus optional language tag or datatype.

    A literal has exactly one of the following shapes:

    * plain string literal (datatype defaults to ``xsd:string``),
    * language-tagged string (``language`` set, datatype implied),
    * datatyped literal (``datatype`` set explicitly).

    Parameters
    ----------
    lexical:
        The lexical form. Non-string values (int, float, bool) are accepted
        and converted, with the datatype inferred when not given.
    language:
        Optional BCP-47 language tag, e.g. ``"en"``.
    datatype:
        Optional datatype IRI (as :class:`IRI` or string).
    """

    __slots__ = ("lexical", "language", "datatype", "_hash")

    def __init__(
        self,
        lexical: Union[str, int, float, bool],
        language: str | None = None,
        datatype: Union[IRI, str, None] = None,
    ):
        if language is not None and datatype is not None:
            raise RDFError("A literal cannot have both a language tag and a datatype")

        inferred_datatype: str | None = None
        if isinstance(lexical, bool):
            lexical = "true" if lexical else "false"
            inferred_datatype = XSD_BOOLEAN
        elif isinstance(lexical, int):
            lexical = str(lexical)
            inferred_datatype = XSD_INTEGER
        elif isinstance(lexical, float):
            lexical = repr(lexical)
            inferred_datatype = XSD_DOUBLE
        elif not isinstance(lexical, str):
            raise RDFError(f"Unsupported literal value type: {type(lexical).__name__}")

        if isinstance(datatype, IRI):
            datatype = datatype.value
        if datatype is None:
            datatype = inferred_datatype
        if language is not None:
            language = language.lower()
            if not language.replace("-", "").isalnum():
                raise RDFError(f"Invalid language tag: {language!r}")
            datatype = None

        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash(("Literal", lexical, language, datatype)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Literal instances are immutable")

    def __reduce__(self):
        # lexical is already normalised to a string, language excludes a
        # datatype and vice versa, so positional reconstruction is exact.
        return (Literal, (self.lexical, self.language, self.datatype))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.language == self.language
            and other.datatype == self.datatype
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """A total ordering key: numeric literals sort by value, others lexically."""
        if self.is_numeric():
            try:
                return (0, float(self.lexical), self.lexical)
            except ValueError:
                pass
        return (1, 0.0, self.lexical)

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype and self.datatype != XSD_STRING:
            return f"Literal({self.lexical!r}, datatype={self.datatype!r})"
        return f"Literal({self.lexical!r})"

    def __str__(self) -> str:
        return self.lexical

    def is_numeric(self) -> bool:
        """Whether the literal's datatype is one of the XSD numeric types."""
        return self.datatype in _NUMERIC_DATATYPES

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to the closest native Python value.

        Falls back to the lexical form when the datatype is unknown or the
        lexical form does not parse.
        """
        if self.datatype == XSD_BOOLEAN:
            return self.lexical.strip().lower() in ("true", "1")
        if self.datatype == XSD_INTEGER or self.datatype in (
            "http://www.w3.org/2001/XMLSchema#long",
            "http://www.w3.org/2001/XMLSchema#int",
            "http://www.w3.org/2001/XMLSchema#short",
            "http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
            "http://www.w3.org/2001/XMLSchema#positiveInteger",
        ):
            try:
                return int(self.lexical)
            except ValueError:
                return self.lexical
        if self.is_numeric():
            try:
                return float(self.lexical)
            except ValueError:
                return self.lexical
        return self.lexical


#: Union type of all RDF terms.
Term = Union[IRI, Literal, BlankNode]


def is_entity_term(term: object) -> bool:
    """True if ``term`` can denote an entity (IRI or blank node)."""
    return isinstance(term, (IRI, BlankNode))


def is_literal_term(term: object) -> bool:
    """True if ``term`` is a literal."""
    return isinstance(term, Literal)
