"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` knows about spans.  The traced pass *interposes*
on public seams -- a class method or a module attribute, replaced at the
site that uses it (the same trick ``.github/scripts/optimize_smoke.py``
uses to count ``runner.run_simulation``) -- and every call through a
seam becomes one :class:`Span`: name, start, end, the span that was open
on the same thread when it began, and the thread.  Spans stay in memory
and are only summarised (``bench/layers.py``) after the timed region.

A span's *self time* is its duration minus its direct children's, so the
self times under one root add up to the root exactly; what the root
keeps for itself is the time no seam accounts for.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = ["Span", "Recorder", "SEAMS", "self_times", "stream_bytes",
           "tree_problems"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


Namer = Union[str, Callable[[tuple, dict], str]]
Annotator = Callable[[Span, tuple, dict, object], None]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._installed: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """An explicit span (the harness's per-pass root)."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None,
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name: Namer, fn: Callable,
             annotate: Optional[Annotator] = None) -> Callable:
        """``fn`` with a span around every call.  ``name`` may be computed
        from the call's arguments; ``annotate`` may attach counts taken
        from the arguments or the result (it runs outside the span)."""
        clock = time.perf_counter
        get_stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            span = Span(name if isinstance(name, str)
                        else name(args, kwargs),
                        stack[-1] if stack else None,
                        threading.get_ident())
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Interpose on every seam in :data:`SEAMS`."""
        for owner_path, attribute, name, annotate in SEAMS:
            owner = _resolve(owner_path)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, annotate))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


def _resolve(path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the object."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


# ----------------------------------------------------------------------
# What each seam records besides its time
# ----------------------------------------------------------------------

def _simulation_kind(args: tuple, kwargs: dict) -> str:
    """Which of the simulator's three regimes one ``run_simulation`` call
    is: a probe forces the generic python loop whatever the application;
    otherwise a recorded tape replays on the packed engines and anything
    else runs the workload's python generators live."""
    from repro.trace.record import ReplayApplication
    application = args[1] if len(args) > 1 else kwargs["application"]
    if kwargs.get("instrumentation") is not None:
        return "simulation.instrumented"
    if isinstance(application, ReplayApplication):
        return "simulation.replay"
    return "simulation.live"


def _note_events(span: Span, args, kwargs, result) -> None:
    span.attrs["events"] = result.events_processed


def _note_session(span: Span, args, kwargs, result) -> None:
    span.attrs.update(result.counters)
    span.attrs["events"] = sum(stats.events
                               for stats in result.sweep.values())


def _note_rungs(span: Span, args, kwargs, result) -> None:
    span.attrs["rungs"] = len(result)
    span.attrs["events"] = sum(r.events_processed for r in result)


def stream_bytes(streams) -> int:
    return sum(len(data) * data.itemsize for data in streams.values())


def _note_tape_read(span: Span, args, kwargs, result) -> None:
    if result is not None:
        span.attrs["bytes"] = stream_bytes(result)


def _note_tape_write(span: Span, args, kwargs, result) -> None:
    span.attrs["bytes"] = stream_bytes(args[2])


def _note_unit(span: Span, args, kwargs, result) -> None:
    span.attrs["busy"] = 1 if result else 0


SEAMS = (
    # repro.experiments
    ("repro.experiments.session:SweepSession", "run",
     "experiments.session", _note_session),
    ("repro.experiments.runner:ResultCache", "get",
     "experiments.result_cache_get", None),
    ("repro.experiments.runner:ResultCache", "put",
     "experiments.result_cache_put", None),
    ("repro.experiments.session:SessionJournal", "record",
     "experiments.journal_record", None),
    # the simulator, as the sweep machinery calls it
    ("repro.experiments.runner", "run_simulation",
     _simulation_kind, _note_events),
    # repro.trace
    ("repro.trace.record:TraceCache", "get",
     "trace.record.cache_get", _note_tape_read),
    ("repro.trace.record:TraceCache", "put",
     "trace.record.cache_put", _note_tape_write),
    ("repro.experiments.runner", "fused_ladder_results",
     "trace.multiconfig.ladder", _note_rungs),
    # repro.model (the session imports these at call time)
    ("repro.model.profile", "build_row_profile",
     "model.profile_build", None),
    ("repro.model.predictor", "predict_point", "model.predict", None),
    ("repro.model.profile:ProfileCache", "get",
     "model.profile_cache_get", None),
    ("repro.model.profile:ProfileCache", "put",
     "model.profile_cache_put", None),
    # repro.fabric
    ("repro.fabric.client:HttpTransport", "submit",
     "fabric.http_submit", None),
    ("repro.fabric.client:HttpTransport", "result",
     "fabric.http_result", None),
    ("repro.fabric.client:HttpTransport", "events",
     "fabric.http_events", None),
    ("repro.fabric.broker:Broker", "submit", "fabric.broker_submit", None),
    ("repro.fabric.broker:Broker", "lease", "fabric.broker_lease", None),
    ("repro.fabric.broker:Broker", "complete",
     "fabric.broker_complete", None),
    ("repro.fabric.broker:Broker", "result", "fabric.broker_result", None),
    ("repro.fabric.store:ArtifactStore", "get_stats",
     "fabric.store_get", None),
    ("repro.fabric.store:ArtifactStore", "publish",
     "fabric.store_publish", None),
    ("repro.fabric.worker:Worker", "run_once", "fabric.worker", _note_unit),
    # repro.optimize (the workload calls ``repro.optimize.optimize``
    # through the module attribute, so the wrapper is what it gets)
    ("repro.optimize", "optimize", "optimize.search", None),
    ("repro.optimize.evaluate:FunnelEvaluator", "evaluate",
     "optimize.evaluate", None),
)
"""(owner, attribute, span name, annotator) for every interposed seam."""


# ----------------------------------------------------------------------
# Reading a finished recording
# ----------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """``id(span)`` -> duration minus direct children (same thread by
    construction: a parent is whatever was open on the child's thread)."""
    own = {id(span): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.duration
    return own


def tree_problems(spans: List[Span], root_name: str) -> List[str]:
    """Everything wrong with a recording (empty when well-formed): each
    child lies inside its parent on the parent's thread, self times are
    non-negative, and the only parentless spans on the thread that
    recorded the roots are the roots themselves."""
    problems: List[str] = []
    slack = 1e-9
    roots = [span for span in spans
             if span.parent is None and span.name == root_name]
    if not roots:
        problems.append(f"no {root_name!r} root span")
    root_threads = {span.thread for span in roots}
    for span in spans:
        if span.end < span.start:
            problems.append(f"{span.name}: ends before it starts")
        parent = span.parent
        if parent is None:
            if span.thread in root_threads and span.name != root_name:
                problems.append(f"{span.name}: outside every root")
            continue
        if parent.thread != span.thread:
            problems.append(f"{span.name}: parent on another thread")
        if (span.start < parent.start - slack
                or span.end > parent.end + slack):
            problems.append(f"{span.name}: escapes {parent.name}")
    own = self_times(spans)
    for span in spans:
        if own[id(span)] < -slack:
            problems.append(f"{span.name}: negative self time")
    return problems
