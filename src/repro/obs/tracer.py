"""Hierarchical, thread-safe span tracing for the ARTEMIS pipeline.

The tracer records *spans* — named, timed intervals with attributes —
organized into a per-thread hierarchy: a span started while another span
is open on the same thread becomes its child.  Other threads (e.g. the
evaluation engine's ``--eval-timeout`` watchdog) each get their own root
stack, so concurrent spans interleave cleanly instead of producing a
scrambled tree.

Design constraints, in priority order:

1. **Zero cost when disabled.**  Tracing is off by default; every
   instrumentation site goes through :func:`span` (or the
   :func:`traced` decorator), which returns a shared no-op context
   manager after a single global-flag check.  Hot paths (the simulator,
   the geometry caches) stay unperturbed — the evaluation-engine
   benchmark guards this with a < 2% wall-clock budget.
2. **Thread safety.**  The open-span stack is thread-local; the finished
   list is appended under a lock.  Span ids are drawn from
   :class:`itertools.count`, which is atomic under the GIL.
3. **Bounded memory.**  A ``max_spans`` cap drops (and counts) spans
   beyond the limit, so tracing a pathological tuning run cannot
   exhaust memory.

Use either the context-manager or the decorator form::

    from repro.obs import span, traced

    with span("tuning.stage1", candidates=len(plans)):
        ...

    @traced("analysis")
    def characteristics(ir): ...
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "configure_tracing",
    "get_tracer",
    "span",
    "traced",
    "tracing_enabled",
]


@dataclass
class Span:
    """One finished (or still-open) traced interval."""

    name: str
    span_id: int
    parent_id: Optional[int]
    thread_id: int
    thread_name: str
    depth: int
    start_s: float  # perf_counter timestamp at entry
    end_s: float = 0.0  # perf_counter timestamp at exit (0 while open)
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class Tracer:
    """Collects spans from any number of threads.

    One process-wide instance (see :func:`get_tracer`) serves the whole
    pipeline; tests may build private instances.
    """

    def __init__(self, enabled: bool = False, max_spans: int = 200_000):
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._finished: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attributes) -> "_SpanContext":
        """Context manager opening a span named ``name``.

        When the tracer is disabled this returns a shared no-op context
        manager without allocating anything.
        """
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, name, attributes)

    def traced(self, name: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`span` (span per call)."""

        def decorate(func: Callable) -> Callable:
            label = name or func.__qualname__

            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return func(*args, **kwargs)
                with _SpanContext(self, label, {}):
                    return func(*args, **kwargs)

            wrapper.__name__ = func.__name__
            wrapper.__qualname__ = func.__qualname__
            wrapper.__doc__ = func.__doc__
            wrapper.__wrapped__ = func
            return wrapper

        return decorate

    def current_span(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def annotate(self, **attributes) -> None:
        """Attach attributes to the calling thread's open span (no-op
        when disabled or outside any span)."""
        current = self.current_span()
        if current is not None:
            current.attributes.update(attributes)

    def _finish(self, item: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(item)

    # -- reading -------------------------------------------------------------

    def finished(self) -> Tuple[Span, ...]:
        """Snapshot of completed spans, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0


class _SpanContext:
    """Context manager recording one span on the owning tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: Tracer, name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        thread = threading.current_thread()
        opened = Span(
            name=self._name,
            span_id=next(tracer._ids),
            parent_id=parent.span_id if parent is not None else None,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            depth=len(stack),
            start_s=time.perf_counter(),
            attributes=self._attributes,
        )
        stack.append(opened)
        self._span = opened
        return opened

    def __exit__(self, exc_type, exc, tb) -> bool:
        opened = self._span
        opened.end_s = time.perf_counter()
        if exc_type is not None:
            opened.attributes.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        # Pop back to (and including) our span even if an exception
        # unwound past intermediate frames that never ran __exit__.
        while stack:
            top = stack.pop()
            if top is opened:
                break
        self._tracer._finish(opened)
        return False


class _NoopContext:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopContext()

# ---------------------------------------------------------------------------
# process-wide tracer
# ---------------------------------------------------------------------------

_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def configure_tracing(
    enabled: bool, max_spans: Optional[int] = None, clear: bool = False
) -> Tracer:
    """Enable/disable the global tracer; optionally resize or clear it."""
    if max_spans is not None:
        _TRACER.max_spans = max_spans
    if clear:
        _TRACER.clear()
    _TRACER.enabled = enabled
    return _TRACER


def span(name: str, **attributes):
    """Open a span on the global tracer (no-op while disabled)."""
    if not _TRACER.enabled:
        return _NOOP
    return _SpanContext(_TRACER, name, attributes)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator: trace every call of the function on the global tracer."""
    return _TRACER.traced(name)
