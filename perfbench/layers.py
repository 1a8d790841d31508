"""Per-layer self-time attribution for the traced benchmark run.

Nothing under ``src/`` is instrumented for this: :class:`LayerTimer`
temporarily replaces public functions of each layer with timing wrappers
(``install`` / ``restore``).  Every wrapped call pushes a frame on a
per-thread stack; when it returns, its duration minus the time its
wrapped children took is the layer's *self time*.  Summed over a thread,
self times plus the time spent outside any wrapper equal the thread's
wall time, which is what the attribution table prints.

Layer labels follow the modules of ``src/repro``:

* ``align.*``      aligner, candidates, sampling, unbiased
* ``endpoint.*``   client, endpoint (admission, policy, log), parse cache
* ``sparql.*``     evaluator (plan, kernels, scatter, fold run inside it)
* ``shard.*``      the parent blocked on worker replies
* ``http.*``       client and response serialisation
* ``store.*``      snapshot deltas and worker-pool boots during refresh
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_ALIGN_PHASES = ("align.candidates", "align.sample", "align.ubs", "align.equivalence")


class _ThreadState:
    """One thread's frame stack and accumulators."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.phase_queries: Dict[str, int] = defaultdict(int)
        self.rows_returned = 0


class LayerTimer:
    """Wraps layer entry points and accumulates self time per label."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _enter(self, label: str) -> Tuple[_ThreadState, list]:
        state = self._state()
        # select()/ask() and the simulated endpoint's query() all land in
        # SparqlEndpoint.query: count one endpoint query per outermost call.
        if label == "endpoint.query" and not (
            state.stack and state.stack[-1][0] == label
        ):
            for outer in reversed(state.stack):
                if outer[0] in _ALIGN_PHASES:
                    state.phase_queries[outer[0]] += 1
                    break
        frame = [label, 0]
        state.stack.append(frame)
        return state, frame

    @staticmethod
    def _leave(state: _ThreadState, frame: list, elapsed: int) -> None:
        state.stack.pop()
        state.self_ns[frame[0]] += elapsed - frame[1]
        if state.stack:
            state.stack[-1][1] += elapsed

    def current_labels(self) -> List[str]:
        """Labels on the calling thread's stack, outermost first."""
        return [frame[0] for frame in self._state().stack]

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner,
        attr: str,
        label,
        *,
        timed_iterator: bool = False,
        count_rows: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``label`` is a string or a callable ``(args, kwargs) -> label``;
        a ``None`` label makes that call transparent (its time stays with
        the caller's frame).  With ``timed_iterator`` the wrapped function
        returns an iterator and every ``next()`` on it is timed under the
        label too (the scatter gather streams lazily).  With
        ``count_rows`` the rows a call hands back (a list's length, one
        for a count) are added to the rows-returned tally.
        """
        original = owner.__dict__[attr]
        label_of: Callable = label if callable(label) else (lambda a, k: label)
        timer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = label_of(args, kwargs)
            if name is None:
                return original(*args, **kwargs)
            state, frame = timer._enter(name)
            started = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                timer._leave(state, frame, time.perf_counter_ns() - started)
            # Only the outermost client call counts (sample_subjects()
            # returns what its nested subjects() call returned).
            if count_rows and not (state.stack and state.stack[-1][0] == name):
                if isinstance(result, list):
                    state.rows_returned += len(result)
                elif isinstance(result, int) and not isinstance(result, bool):
                    state.rows_returned += 1
            if timed_iterator:
                return timer._timed_iter(name, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _timed_iter(self, label: str, iterator):
        try:
            while True:
                state, frame = self._enter(label)
                started = time.perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(state, frame, time.perf_counter_ns() - started)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def restore(self) -> None:
        """Put every wrapped function back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, object]:
        """Self milliseconds, phase query counts and rows returned, summed."""
        self_ms: Dict[str, float] = defaultdict(float)
        phase_queries: Dict[str, int] = defaultdict(int)
        rows = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.self_ns.items()):
                self_ms[name] += value / 1e6
            for name, value in list(state.phase_queries.items()):
                phase_queries[name] += value
            rows += state.rows_returned
        return {
            "self_ms": dict(self_ms),
            "phase_queries": dict(phase_queries),
            "rows_returned": rows,
        }


# --------------------------------------------------------------------- #
# What gets wrapped
# --------------------------------------------------------------------- #
def _public_methods(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    ]


def install_engine(timer: LayerTimer) -> None:
    """Wrap the endpoint, sparql and shard entry points."""
    from repro.endpoint.client import EndpointClient
    from repro.endpoint.endpoint import ParseCache, SparqlEndpoint
    from repro.endpoint.simulation import SimulatedSparqlEndpoint
    from repro.shard.workers import ProcessShardExecutor
    from repro.sparql.evaluate import QueryEvaluator

    for name in _public_methods(EndpointClient):
        timer.wrap(EndpointClient, name, "endpoint.client", count_rows=True)
    for name in ("query", "select", "ask"):
        timer.wrap(SparqlEndpoint, name, "endpoint.query")
    timer.wrap(SimulatedSparqlEndpoint, "query", "endpoint.query")
    timer.wrap(ParseCache, "parse", "endpoint.parse")
    timer.wrap(QueryEvaluator, "evaluate", "sparql.evaluate")
    timer.wrap(ProcessShardExecutor, "run_group", "shard.wait", timed_iterator=True)
    timer.wrap(ProcessShardExecutor, "run_fold", "shard.wait")


def install_align(timer: LayerTimer) -> None:
    """Wrap the aligner's phases (plus the engine layers below them)."""
    from repro.align.aligner import SofyaAligner
    from repro.align.candidates import CandidateFinder
    from repro.align.sampling import SimpleSampleExtractor
    from repro.align.unbiased import UnbiasedSampleExtractor

    install_engine(timer)
    timer.wrap(SofyaAligner, "align_relation", "align.relation")
    timer.wrap(CandidateFinder, "find", "align.candidates")
    timer.wrap(UnbiasedSampleExtractor, "check_candidate", "align.ubs")

    # The forward (SSE) sampler is called without explicit subjects; the
    # equivalence test calls the reverse sampler with them.
    def extract_label(args, kwargs) -> str:
        return "align.equivalence" if kwargs.get("subjects") is not None else "align.sample"

    # sample_subjects nested in extract() stays with extract's phase; a
    # top-level call is the equivalence test's fallback sample.
    def sample_subjects_label(args, kwargs) -> Optional[str]:
        labels = timer.current_labels()
        if labels and labels[-1] in _ALIGN_PHASES:
            return None
        return "align.equivalence"

    timer.wrap(SimpleSampleExtractor, "extract", extract_label)
    timer.wrap(SimpleSampleExtractor, "sample_subjects", sample_subjects_label)


def install_http(timer: LayerTimer) -> None:
    """Wrap the HTTP tier and the store refresh path (plus the engine)."""
    from repro.http import server as http_server
    from repro.http.client import HttpSparqlClient
    from repro.shard.sharded_store import ShardedTripleStore

    install_engine(timer)
    timer.wrap(HttpSparqlClient, "query_text", "http.client")
    timer.wrap(http_server, "to_sparql_json", "http.serialize")
    timer.wrap(http_server, "to_sparql_tsv", "http.serialize")
    timer.wrap(ShardedTripleStore, "save_delta", "store.save_delta")
    timer.wrap(ShardedTripleStore, "serve", "store.pool_boot")


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def attribution_table(
    title: str, self_ms: Dict[str, float], wall_ms: float, note: str = ""
) -> str:
    """Self time per layer plus the un-attributed remainder of ``wall_ms``."""
    rows = sorted(self_ms.items(), key=lambda item: -item[1])
    attributed = sum(value for _, value in rows)
    lines = [f"per-layer self time: {title}"]
    if note:
        lines.append(f"  ({note})")
    lines.append(f"  {'layer':<22}{'ms':>12}{'share':>9}")
    for name, value in rows:
        share = value / wall_ms if wall_ms else 0.0
        lines.append(f"  {name:<22}{value:>12.1f}{share:>9.1%}")
    remainder = wall_ms - attributed
    lines.append(
        f"  {'(un-attributed)':<22}{remainder:>12.1f}"
        f"{(remainder / wall_ms if wall_ms else 0.0):>9.1%}"
    )
    lines.append(f"  {'= traced wall':<22}{wall_ms:>12.1f}{1.0:>9.1%}")
    return "\n".join(lines)
