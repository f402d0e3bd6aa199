"""Spans around the library's public calls, recorded from outside ``src/``.

The traced pass patches a fixed list of public methods (samplers, kernels,
``delta_key``, the backend's ``advance_to``, ``RunTracer.add``, the result
cache, the job manager's lease calls, the HTTP handler) with timing
wrappers, runs the workload, and restores every original.  Nothing under
``src/`` changes, so ``repro.fingerprint.source_digest`` and every cache
key stay what they are without the benchmark.

Each wrapped call is one span: name, start, end, parent span, run id and
thread.  Per name the tracer keeps call counts, total and self seconds
(duration minus the time covered by child spans of the same thread); the
first ``KEEP_PER_NAME`` spans of each name are kept whole in memory and
written out when the run ends.  Hot calls (millions of sampler draws) are
therefore counted exactly but not stored one by one.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Whole spans kept per (thread, name); the rest are only aggregated.
KEEP_PER_NAME = 400

#: Span name prefix -> layer.  The longest matching prefix wins.
LAYER_PREFIXES = (
    ("engine.simulator.", "engine.simulator"),
    ("engine.backends.", "engine.backends"),
    ("engine.samplers.", "engine.samplers"),
    ("engine.vectorized.", "engine.vectorized"),
    ("protocols.", "protocols"),
    ("engine.convergence.", "engine.convergence"),
    ("obs.trace.", "obs.trace"),
    ("experiments.runner.", "experiments.runner"),
    ("server.cache.", "server.cache"),
    ("server.jobs.", "server.jobs"),
    ("server.app.", "server.app"),
    ("server.app.stream.", "server.app.stream"),
    ("bench.client.", "bench.client"),
    ("bench.check.", "bench.check"),
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    best = ""
    layer = "other"
    for prefix, candidate in LAYER_PREFIXES:
        if name.startswith(prefix) and len(prefix) > len(best):
            best, layer = prefix, candidate
    return layer


class _ThreadState:
    __slots__ = ("thread", "stack", "stats", "kept", "dropped")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        # Frames of open spans: [span_id, seconds covered by children].
        self.stack: List[List[Any]] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[Any]] = {}
        self.kept: Dict[str, int] = {}
        self.dropped = 0


class Tracer:
    """Record spans around wrapped callables; patch and restore attributes."""

    def __init__(self, keep_per_name: int = KEEP_PER_NAME) -> None:
        self.keep_per_name = keep_per_name
        #: Identifier stamped on every span that starts while it is set
        #: (one per workload unit: a simulation pair or a served job).
        self.run_id: Optional[str] = None
        self.spans: List[Tuple[int, str, float, float, int, Optional[str], str]] = []
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[type, str, Any]] = []

    # ----------------------------------------------------------- recording
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        spans = self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = getattr(local, "state", None) or tracer._state()
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            run_id = tracer.run_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = state.stats.get(name)
                if totals is None:
                    totals = state.stats[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                kept = state.kept.get(name, 0)
                if kept < tracer.keep_per_name:
                    state.kept[name] = kept + 1
                    spans.append(
                        (span_id, name, start, end, parent, run_id, state.thread)
                    )
                else:
                    state.dropped += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------- patches
    def patch_method(self, cls: type, attr: str, name: str) -> bool:
        """Wrap ``cls.attr`` if the class itself defines it; False otherwise."""
        original = cls.__dict__.get(attr)
        if original is None or not callable(original):
            return False
        setattr(cls, attr, self.wrap(name, original))
        self._patches.append((cls, attr, original))
        return True

    def replace_method(self, cls: type, attr: str, replacement: Callable[..., Any]) -> None:
        """Install ``replacement`` as ``cls.attr`` until :meth:`restore`."""
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results
    def stats(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` summed over threads."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, self_s) in list(state.stats.items()):
                slot = merged.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                slot["calls"] += calls
                slot["total_s"] += total
                slot["self_s"] += self_s
        return merged

    def self_seconds_by_thread(self) -> Dict[str, float]:
        """Sum of span self times per thread (each is at most the pass wall)."""
        totals: Dict[str, float] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            totals[state.thread] = totals.get(state.thread, 0.0) + sum(
                entry[2] for entry in list(state.stats.values())
            )
        return totals

    def self_seconds_by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, slot in self.stats().items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + slot["self_s"]
        return layers

    def dropped(self) -> int:
        with self._lock:
            return sum(state.dropped for state in self._threads)

    def export(self) -> Dict[str, Any]:
        """JSON-ready spans plus the per-name aggregates."""
        return {
            "keep_per_name": self.keep_per_name,
            "spans_dropped": self.dropped(),
            "fields": ["id", "name", "start", "end", "parent", "run_id", "thread"],
            "spans": [list(span) for span in self.spans],
            "stats": self.stats(),
        }

