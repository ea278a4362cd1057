"""Live-metrics overhead: exposition cost and the disabled path.

The ``--metrics-port`` endpoint (docs/observability.md) renders the
process registry as Prometheus text on every scrape, so the render cost
against a realistically-sized registry bounds the observability tax of
a scraped run.  The second arm demonstrates the disabled-path contract:
with metrics off, a full tuning run pays only one flag check per
instrumentation site.  Results land in ``BENCH_obs_live.json``.
"""

import os
import time

from repro.obs import MetricsRegistry, configure_metrics, metrics_enabled
from repro.obs.prom import prometheus_text
from repro.pipeline import optimize

from _cache import fmt, ir_of, print_table

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs_live.json")
RENDERS = 200

_results = {}


def _realistic_registry():
    """A registry shaped like a mid-run process's state."""
    registry = MetricsRegistry()
    registry.counter("eval.requests").add(5000)
    registry.counter("eval.hits").add(1200)
    registry.counter("eval.misses").add(3800)
    registry.counter("simulate.calls").add(2600)
    registry.gauge("eval.inflight").set(8)
    wall = registry.histogram("eval.wall_s")
    for i in range(500):
        wall.observe(0.0001 * (i % 37 + 1))
    for tag in ("sf", "tf", "fission"):
        registry.counter(f"analysis.cache_miss.{tag}").add(90)
    return registry


def test_render_cost():
    registry = _realistic_registry()
    start = time.perf_counter()
    for _ in range(RENDERS):
        text = prometheus_text(registry)
    render_ms = (time.perf_counter() - start) / RENDERS * 1e3
    assert "repro_eval_requests_total" in text

    # Generous ceiling: a scrape must not itself cost a meaningful slice
    # of a run, even on a noisy CI machine.
    assert render_ms < 50.0, f"exposition render too slow: {render_ms:.2f} ms"

    _results["per_op_ms"] = {"prometheus_render": round(render_ms, 4)}
    print_table(
        "live metrics per-operation cost",
        ["operation", "ms"],
        [["prometheus text render", fmt(render_ms)]],
    )


def test_disabled_path_is_free():
    # With metrics off no endpoint is started and the only residue at
    # each instrumentation site is the single flag check.  Timed to
    # report, not to gate (CI wall clocks are noisy); the structural
    # claim is the assert on metrics_enabled().
    configure_metrics(False, reset=True)
    assert not metrics_enabled()
    ir = ir_of("7pt-smoother")
    optimize(ir, top_k=1)  # warm every memo cache first
    start = time.perf_counter()
    outcome = optimize(ir, top_k=1)
    off_wall = time.perf_counter() - start
    assert outcome.eval_stats is not None

    _results["disabled_run_wall_s"] = round(off_wall, 4)
    print_table(
        "disabled-path run (metrics off)",
        ["quantity", "value"],
        [["optimize() wall (s)", fmt(off_wall)]],
    )


def test_write_bench_json():
    from repro.resilience import atomic_write_json

    assert {"per_op_ms", "disabled_run_wall_s"} <= set(_results)
    atomic_write_json(OUT_PATH, _results, indent=2, sort_keys=True)
