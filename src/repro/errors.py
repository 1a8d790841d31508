"""Exception hierarchy shared by all repro subpackages.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the layer that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class RDFError(ReproError):
    """Malformed RDF terms, triples, or serialisations."""


class ParseError(ReproError):
    """A document or query could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token when known, else ``None``.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SparqlError(ReproError):
    """A SPARQL query is invalid or unsupported by the engine subset."""


class ConfigError(ReproError):
    """A ``REPRO_*`` environment variable holds a malformed value.

    Raised by :mod:`repro.obs.config` instead of silently falling back to
    a default, so typos in tuning knobs surface immediately rather than
    as mystery performance regressions.
    """


class StoreError(ReproError):
    """Triple store misuse (e.g. adding malformed triples)."""


class SnapshotCorruptError(StoreError):
    """An on-disk snapshot failed validation and cannot be opened.

    Raised by :mod:`repro.store.persist` when a snapshot file is
    truncated, has a bad magic/version, or any section's checksum does not
    match its header entry.  Every corruption failure mode maps to this
    one exception so callers can fall back to a full rebuild with a single
    ``except`` clause.
    """


class ShardSkewWarning(UserWarning):
    """A sharded store's last shard has grown far beyond its siblings.

    Subject-range boundaries are frozen by the first bulk load, so terms
    interned afterwards always route to the last shard's open-ended range.
    Long-lived mutable stores therefore pile new subjects into that shard;
    once it exceeds the configured skew threshold this warning fires (once
    per store) to point at ``rebalance()``-style re-partitioning.
    """


class EndpointError(ReproError):
    """Base class for endpoint access failures."""


class QueryBudgetExceeded(EndpointError):
    """The access policy's query quota has been exhausted."""


class WorkerCrashError(EndpointError):
    """A shard worker process died while serving a scattered task.

    Raised by :class:`repro.shard.workers.ProcessShardExecutor` when a
    worker exits (or is killed) before completing a dispatched task.  It
    derives from :class:`EndpointError` so the endpoint simulation's wave
    machinery captures it per query — the failed query's budget slot is
    refunded and the rest of the wave proceeds — while the executor
    respawns the dead worker for subsequent waves.
    """


class ResultTruncated(EndpointError):
    """A query produced more rows than the endpoint policy allows.

    This is only raised when the policy is configured to *fail* on
    truncation; by default endpoints silently cap result sizes like public
    SPARQL endpoints do.
    """


class AlignmentError(ReproError):
    """Relation alignment could not be performed."""


class SyntheticDataError(ReproError):
    """Synthetic dataset generation received inconsistent parameters."""
