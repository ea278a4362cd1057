"""Trace and metrics export: chrome://tracing JSON and flat JSON.

Two formats serve two audiences:

* :func:`chrome_trace` renders spans as Trace Event Format *complete*
  events (``ph: "X"``) — the JSON object form with a ``traceEvents``
  list — which chrome://tracing, Perfetto (ui.perfetto.dev) and
  ``about:tracing`` open directly.  Thread-name metadata events put each
  thread (the main thread, an ``--eval-timeout`` watchdog) on its own
  labelled track, and the metrics snapshot rides along under
  ``otherData`` (the spec's extension point; trace viewers ignore it).
* :func:`flat_json` is the machine-readable form: one JSON object per
  span, plus the metrics snapshot — easy to load into pandas or jq.

Timestamps are microseconds from the earliest exported span, so traces
are small and stable regardless of process start time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..resilience.atomic import atomic_write_text
from ..resilience.errors import UsageError
from .metrics import MetricsRegistry, get_metrics
from .tracer import Span, Tracer, get_tracer

__all__ = [
    "PhaseTotal",
    "aggregate_phases",
    "chrome_trace",
    "flat_json",
    "write_trace",
]


def _spans_of(tracer: Optional[Tracer]) -> Tuple[Span, ...]:
    return (tracer or get_tracer()).finished()


#: Synthetic thread id for the search-candidate instant track.  Real
#: thread ids come from ``threading.get_ident()`` (large addresses), so
#: a small constant cannot collide.
SEARCH_TRACK_TID = 1


def _search_instants(search_events: Sequence[dict]) -> List[Tuple[float, dict]]:
    """(absolute perf_counter seconds, candidate event) pairs.

    Search-log events carry ``t_ms`` relative to the header's ``t0_s``;
    both use the same ``time.perf_counter`` clock as span timestamps, so
    candidate instants line up with tuning spans on the trace timeline.
    """
    t0_s = 0.0
    for event in search_events:
        if event.get("kind") == "header":
            t0_s = float(event.get("t0_s", 0.0))
            break
    out: List[Tuple[float, dict]] = []
    for event in search_events:
        if event.get("kind") != "candidate":
            continue
        out.append((t0_s + float(event.get("t_ms", 0.0)) / 1e3, event))
    return out


def chrome_trace(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    process_name: str = "repro",
    search_events: Optional[Sequence[dict]] = None,
) -> dict:
    """Spans (+ metrics) as a chrome://tracing JSON-object document.

    ``search_events`` (a :mod:`repro.obs.search` event stream) adds one
    *instant* event (``ph: "i"``) per evaluated candidate on a dedicated
    "search candidates" track, time-aligned with the spans.
    """
    spans = _spans_of(tracer)
    instants = _search_instants(search_events) if search_events else []
    # The time base covers every timestamped event exported — spans and
    # candidate instants alike — so a trace holding only one source (or
    # neither) still starts at ts=0 instead of a raw perf_counter value.
    base = min(
        (
            timestamp
            for timestamp in (
                [s.start_s for s in spans] + [t for t, _ in instants]
            )
        ),
        default=0.0,
    )
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    named_threads = set()
    for item in spans:
        if item.thread_id not in named_threads:
            named_threads.add(item.thread_id)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": item.thread_id,
                    "args": {"name": item.thread_name},
                }
            )
        event = {
            "name": item.name,
            "cat": item.name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": item.thread_id,
            "ts": (item.start_s - base) * 1e6,
            "dur": item.duration_s * 1e6,
        }
        args = dict(item.attributes)
        args["span_id"] = item.span_id
        if item.parent_id is not None:
            args["parent_id"] = item.parent_id
        event["args"] = args
        events.append(event)
    if instants:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": SEARCH_TRACK_TID,
                "args": {"name": "search candidates"},
            }
        )
        for timestamp, candidate in instants:
            args = {
                "fingerprint": candidate.get("fingerprint"),
                "plan": candidate.get("plan"),
                "disposition": candidate.get("disposition"),
            }
            if candidate.get("gflops") is not None:
                args["gflops"] = candidate["gflops"]
            if candidate.get("reason"):
                args["reason"] = candidate["reason"]
            events.append(
                {
                    "name": f"candidate:{candidate.get('disposition', '?')}",
                    "cat": "search",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": SEARCH_TRACK_TID,
                    "ts": (timestamp - base) * 1e6,
                    "args": args,
                }
            )
    registry = metrics or get_metrics()
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"metrics": registry.snapshot()},
    }
    tracer = tracer or get_tracer()
    if tracer.dropped:
        document["otherData"]["dropped_spans"] = tracer.dropped
    return document


def flat_json(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict:
    """Spans and metrics as one flat, schema-stable JSON object."""
    spans = _spans_of(tracer)
    base = min((s.start_s for s in spans), default=0.0)
    registry = metrics or get_metrics()
    return {
        "spans": [
            {
                "name": item.name,
                "span_id": item.span_id,
                "parent_id": item.parent_id,
                "thread": item.thread_name,
                "start_us": (item.start_s - base) * 1e6,
                "duration_us": item.duration_s * 1e6,
                "depth": item.depth,
                "attributes": item.attributes,
            }
            for item in spans
        ],
        "metrics": registry.snapshot(),
    }


def write_trace(
    path: str,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    fmt: str = "chrome",
    search_events: Optional[Sequence[dict]] = None,
) -> dict:
    """Serialize the trace to ``path``; returns the written document.

    ``fmt="chrome"`` (default) writes the chrome://tracing object form;
    ``fmt="flat"`` writes the flat span/metrics JSON.  ``search_events``
    (chrome format only) adds the candidate instant track.  The write
    is atomic
    (write-tmp-then-rename), so a crash mid-export can never truncate
    an existing trace file.
    """
    if fmt == "chrome":
        document = chrome_trace(tracer, metrics, search_events=search_events)
    elif fmt == "flat":
        document = flat_json(tracer, metrics)
    else:
        raise UsageError(f"unknown trace format {fmt!r}; use chrome|flat")
    atomic_write_text(
        path, json.dumps(document, indent=1, default=str) + "\n"
    )
    return document


# ---------------------------------------------------------------------------
# per-phase aggregation (the report table)
# ---------------------------------------------------------------------------


class PhaseTotal:
    """Aggregate of all spans sharing one name."""

    __slots__ = ("name", "count", "total_s", "self_s")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


def aggregate_phases(spans: Sequence[Span]) -> List[PhaseTotal]:
    """Group spans by name: call count, total time and self time.

    Self time subtracts each span's direct children, so a parent phase
    ("tuning") does not re-bill the time its sub-phases ("tuning.stage1")
    already account for.  Sorted by total time, descending.
    """
    child_time: Dict[int, float] = {}
    for item in spans:
        if item.parent_id is not None:
            child_time[item.parent_id] = (
                child_time.get(item.parent_id, 0.0) + item.duration_s
            )
    phases: Dict[str, PhaseTotal] = {}
    for item in spans:
        phase = phases.get(item.name)
        if phase is None:
            phase = phases[item.name] = PhaseTotal(item.name)
        phase.count += 1
        phase.total_s += item.duration_s
        phase.self_s += max(0.0, item.duration_s - child_time.get(item.span_id, 0.0))
    return sorted(phases.values(), key=lambda p: p.total_s, reverse=True)
