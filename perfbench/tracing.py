"""Span tracing for the benchmark's traced run, recorded from outside ``src/``.

:func:`instrument` swaps timing wrappers onto the public entry points of each
``repro`` layer for the duration of a ``with`` block and restores the
originals on exit, so the library itself carries no tracing code.  Span
names and the calls they wrap:

* ``runtime`` — ``ApClusterBackend.run`` / ``run_rows``;
* ``mapping.cluster`` — ``ApCluster.execute`` / ``execute_rows``;
* ``mapping.plan`` — ``SoftmAPMapping.plan`` (a plan-cache lookup);
* ``mapping.plan.compile`` — ``ExecutionPlan.__init__`` (a cache miss);
* ``mapping.plan.execute`` — ``ExecutionPlan.execute``;
* ``quant.quantize`` — ``ClippedSoftmaxInputQuantizer.quantize``;
* ``ap.compiled`` — ``CompiledEngine.run`` (the compiled kernel).

The LLM and serving layers are traced by the workloads themselves (a timing
``softmax_fn`` and a proxy backend).  A span records its name, start, end,
parent and thread; every span of one top-level call or request shares the
root's ``trace_id``.  A span's *self* time is its duration minus the time
its child spans cover.  :meth:`Tracer.chrome_trace` exports the spans as
Chrome trace-event JSON (loadable in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "instrument"]


class Span:
    """One timed interval; ``child_ns`` accumulates its children's time."""

    __slots__ = (
        "span_id", "name", "start_ns", "end_ns", "parent_id", "trace_id",
        "thread", "child_ns", "args",
    )

    def __init__(self, span_id, name, start_ns, parent_id, trace_id, thread, args):
        self.span_id = span_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.thread = thread
        self.child_ns = 0
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """In-memory span recorder plus exact event counters.

    Thread-safe: each thread keeps its own span stack (so a span's parent is
    the innermost open span on the same thread), and span ids come from one
    locked counter.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.totals: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace_id: Optional[int] = None, **args: Any) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._new_id()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else span_id
        span = Span(
            span_id, name, time.perf_counter_ns(),
            parent.span_id if parent is not None else None,
            trace_id, threading.get_ident(), args,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_ns += span.duration_ns
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, trace_id: Optional[int] = None, **args: Any) -> Iterator[Span]:
        opened = self.begin(name, trace_id, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def record(self, name: str, start_ns: int, end_ns: int, **args: Any) -> Span:
        """A detached root span (e.g. one served request, which lives across
        many event-loop turns and so cannot sit on a thread's stack)."""
        span_id = self._new_id()
        span = Span(span_id, name, start_ns, None, span_id, threading.get_ident(), args)
        span.end_ns = end_ns
        with self._lock:
            self.spans.append(span)
        return span

    # -- aggregation ------------------------------------------------------ #
    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_ns * 1e-9
        return out

    def total_seconds(self, name: str) -> float:
        return sum(s.duration_ns for s in self.spans if s.name == name) * 1e-9

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
        ]
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            args = {"span_id": span.span_id, "parent_id": span.parent_id,
                    "trace_id": span.trace_id}
            args.update(span.args)
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": threads[span.thread],
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _patch(undo: List[Callable[[], None]], owner: Any, attr: str, make: Callable) -> None:
    """Replace ``owner.attr`` with ``make(original)``; queue the restore."""
    had_own = attr in vars(owner)
    own = vars(owner).get(attr)
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    if had_own:
        undo.append(lambda: setattr(owner, attr, own))
    else:
        undo.append(lambda: delattr(owner, attr))


def _timed(tracer: Tracer, name: str, after: Optional[Callable] = None) -> Callable:
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return make


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced ``repro`` layer entry point while the block runs."""
    from repro.ap.compiled import CompiledEngine
    from repro.mapping.cluster import ApCluster
    from repro.mapping.plan import ExecutionPlan
    from repro.mapping.softmap import SoftmAPMapping
    from repro.quant.quantizer import ClippedSoftmaxInputQuantizer
    from repro.runtime.backend import ApClusterBackend

    counts, totals = tracer.counts, tracer.totals
    engines: "weakref.WeakSet" = weakref.WeakSet()

    def after_runtime(args, result) -> None:
        counts["runtime.calls"] += 1
        counts["mapping.cluster.passes"] += result.plan.passes
        counts["sim.cycles"] += int(result.cycles)
        totals["sim.energy_j"] += result.cost.energy_j

    def compiled_run(original: Callable) -> Callable:
        def wrapper(engine, z, pad_mask, batch):
            before = engine.arena_bytes
            span = tracer.begin("ap.compiled")
            try:
                return original(engine, z, pad_mask, batch)
            finally:
                tracer.end(span)
                engines.add(engine)
                counts["ap.compiled.calls"] += 1
                counts["ap.compiled.words"] += int(z.size)
                if engine.arena_bytes != before:
                    counts["ap.compiled.arena_grows"] += 1

        return wrapper

    def count(key: str) -> Callable:
        return lambda args, result: counts.update((key,))

    undo: List[Callable[[], None]] = []
    try:
        for attr in ("run", "run_rows"):
            _patch(undo, ApClusterBackend, attr, _timed(tracer, "runtime", after_runtime))
        for attr in ("execute", "execute_rows"):
            _patch(undo, ApCluster, attr, _timed(tracer, "mapping.cluster"))
        _patch(undo, SoftmAPMapping, "plan",
               _timed(tracer, "mapping.plan", count("mapping.plan.lookups")))
        _patch(undo, ExecutionPlan, "__init__",
               _timed(tracer, "mapping.plan.compile", count("mapping.plan.compiles")))
        _patch(undo, ExecutionPlan, "execute", _timed(tracer, "mapping.plan.execute"))
        _patch(undo, ClippedSoftmaxInputQuantizer, "quantize",
               _timed(tracer, "quant.quantize"))
        _patch(undo, CompiledEngine, "run", compiled_run)
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
        totals["ap.compiled.arena_bytes"] = float(sum(e.arena_bytes for e in engines))
