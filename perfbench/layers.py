"""Per-layer tracing from outside the program.

The benchmark wraps each layer's public entry point — the function at
every module that imported it, or the method on its class — in a span
recorder.  Spans stay in memory (:attr:`Tracer.spans`) and are written
out when the run ends.  A layer's self time is its span durations minus
the time covered by child spans; its busy time counts only outermost
spans of that layer, so recursion is not counted twice.

``repro.dsl.ast.walk`` is a recursive generator called millions of times,
so it gets no span records: every call is counted, and the time of each
step of an outermost walk is added to the layer and charged to the
enclosing span as child time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: (module, function, layer) — patched at every module that holds it.
FUNCTION_LAYERS = (
    ("repro.cli", "main", "cli.main"),
    ("repro.dsl.parser", "parse", "dsl.parse"),
    ("repro.ir.stencil", "build_ir", "ir.build"),
    ("repro.pipeline.artemis", "optimize", "pipeline.optimize"),
    ("repro.codegen.generator", "lower", "codegen.lower"),
    ("repro.tuning.fission", "generate_fission_candidates", "tuning.fission"),
    ("repro.profiling.advisor", "advise", "profiling.advise"),
    ("repro.tuning.deeptuning", "deep_tune", "tuning.deep_tune"),
    ("repro.tuning.deeptuning", "fusion_schedule", "tuning.fusion_schedule"),
    ("repro.gpu.simulator", "simulate", "gpu.simulate"),
    ("repro.lint.rules_transform", "certify_plan_transformations", "lint.certify"),
    ("repro.codegen.cuda_emitter", "emit_cuda", "codegen.emit"),
)

#: (module, class, methods, layer) — patched on the class.
METHOD_LAYERS = (
    ("repro.tuning.hierarchical", "HierarchicalTuner", ("tune",), "tuning.tune"),
    (
        "repro.tuning.evaluator",
        "PlanEvaluator",
        (
            "evaluate",
            "try_evaluate",
            "evaluate_spill_free",
            "evaluate_batch",
            "evaluate_spill_free_batch",
        ),
        "tuning.evaluator",
    ),
    (
        "repro.gpu.pricing",
        "FamilyStructure",
        ("demand", "price", "price_spill_free"),
        "gpu.price_family",
    ),
    ("repro.resilience.checkpoint", "TuningJournal", ("__init__",), "resilience.journal_open"),
    (
        "repro.resilience.checkpoint",
        "TuningJournal",
        ("record_candidate", "record_failure", "record_degree"),
        "resilience.journal_append",
    ),
    ("repro.obs.search", "SearchLog", ("flush",), "obs.search_log_flush"),
)

WALK_LAYER = "dsl.walk"
OP_LAYER = "bench.op"
JOURNAL_LAYERS = ("resilience.journal_open", "resilience.journal_append")


class LayerStats:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "busy_s": self.busy_s, "self_s": self.self_s}


class Tracer:
    """In-memory span recorder; inactive between operations."""

    def __init__(self) -> None:
        self.active = False
        self.layers: Dict[str, LayerStats] = {}
        #: layer -> [busy, self] in reference-machine seconds
        self.scaled: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: finished spans: (id, parent id or -1, layer, start, end)
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 0
        self._last: Dict[str, tuple] = {}
        self.walk_depth = 0

    # -- span bookkeeping ------------------------------------------------

    def push(self, layer: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([layer, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1
        self._open[layer] = self._open.get(layer, 0) + 1

    def pop(self) -> None:
        end = time.perf_counter()
        layer, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self._open[layer] -= 1
        stats = self._stats(layer)
        stats.calls += 1
        stats.self_s += duration - child
        if self._open[layer] == 0:
            stats.busy_s += duration
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, parent, layer, start, end))

    def leaf(self, layer: str, duration: float) -> None:
        """Time spent in a span-less layer that calls no other layer."""
        stats = self._stats(layer)
        stats.busy_s += duration
        stats.self_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def is_open(self, layer: str) -> bool:
        return self._open.get(layer, 0) > 0

    def _stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    # -- operations ------------------------------------------------------

    @contextmanager
    def op(self) -> Iterator[None]:
        """Trace one benchmark operation under a root span.

        Afterwards :meth:`scale_last` adds the operation's share of every
        layer's time, in reference-machine seconds, to the totals the
        metrics read.
        """
        before = {name: (s.busy_s, s.self_s) for name, s in self.layers.items()}
        self.active = True
        self.push(OP_LAYER)
        try:
            yield
        finally:
            self.pop()
            self.active = False
            self._last = {}
            for name, stats in self.layers.items():
                busy, own = before.get(name, (0.0, 0.0))
                self._last[name] = (stats.busy_s - busy, stats.self_s - own)

    def scale_last(self, scale: float) -> None:
        for name, (busy, own) in self._last.items():
            totals = self.scaled.setdefault(name, [0.0, 0.0])
            totals[0] += busy * scale
            totals[1] += own * scale

    def busy(self, layer: str) -> float:
        """Scaled busy time of ``layer``."""
        return self.scaled.get(layer, (0.0, 0.0))[0]

    def self_time(self, layer: str) -> float:
        """Scaled self time of ``layer``."""
        return self.scaled.get(layer, (0.0, 0.0))[1]

    def calls(self, layer: str) -> int:
        stats = self.layers.get(layer)
        return stats.calls if stats else 0

    def layer_self_s(self) -> float:
        """Self time of every program layer (the benchmark's own root excluded)."""
        return sum(own for name, (_, own) in self.scaled.items() if name != OP_LAYER)

    def snapshot(self) -> dict:
        return {
            "layers": {name: s.as_dict() for name, s in sorted(self.layers.items())},
            "scaled_layers": {
                name: {"busy_s": busy, "self_s": own}
                for name, (busy, own) in sorted(self.scaled.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(self.snapshot(), **extra)
        payload["span_fields"] = ["id", "parent", "layer", "start_s", "end_s"]
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, fn: Callable, layer: str,
                  on_result: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.push(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", layer)
    traced.__doc__ = fn.__doc__
    return traced


class _TimedWalk:
    """Iterator over an outermost walk that times each of its steps."""

    __slots__ = ("tracer", "steps")

    def __init__(self, tracer: Tracer, steps) -> None:
        self.tracer = tracer
        self.steps = steps

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.walk_depth += 1
        start = time.perf_counter()
        try:
            return next(self.steps)
        finally:
            tracer.walk_depth -= 1
            tracer.leaf(WALK_LAYER, time.perf_counter() - start)


def _walk_wrapper(tracer: Tracer, walk: Callable) -> Callable:
    def traced_walk(expr):
        if not tracer.active:
            return walk(expr)
        tracer.counts["dsl.walk_calls"] = tracer.counts.get("dsl.walk_calls", 0) + 1
        if tracer.walk_depth:
            return walk(expr)  # a recursive step, timed by the outermost walk
        return _TimedWalk(tracer, walk(expr))

    traced_walk.__wrapped__ = walk
    return traced_walk


def _count_parse_bytes(tracer, args, result) -> None:
    tracer.count("dsl.parse_bytes", len(args[0].encode()))


def _count_fission(tracer, args, result) -> None:
    tracer.count("tuning.fission_candidates", len(result))


def _count_cuda(tracer, args, result) -> None:
    tracer.count("codegen.cuda_bytes", len(result.source.encode()))


ON_RESULT = {
    "dsl.parse": _count_parse_bytes,
    "tuning.fission": _count_fission,
    "codegen.emit": _count_cuda,
}


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    import repro.cli  # noqa: F401  (load every module that may hold a name)

    restore: List[tuple] = []

    def patch_everywhere(original, wrapper) -> None:
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    try:
        for module_name, attr, layer in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            patch_everywhere(
                original, _span_wrapper(tracer, original, layer, ON_RESULT.get(layer))
            )
        dsl_ast = importlib.import_module("repro.dsl.ast")
        patch_everywhere(dsl_ast.walk, _walk_wrapper(tracer, dsl_ast.walk))
        for module_name, class_name, methods, layer in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method, _span_wrapper(tracer, original, layer))

        real_fsync = os.fsync

        def counted_fsync(fd):
            if tracer.active and any(tracer.is_open(name) for name in JOURNAL_LAYERS):
                tracer.count("resilience.fsync_calls")
            return real_fsync(fd)

        restore.append((os, "fsync", real_fsync))
        os.fsync = counted_fsync
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
