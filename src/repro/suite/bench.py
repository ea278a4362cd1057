"""Search-performance regression harness (``repro bench``).

Runs the full ARTEMIS flow on a fixed subset of the Table I suite and
records the *search-cost profile* — evaluation-engine request count,
cache hit rate, simulation count, wall time — alongside the predicted
result quality (best GFLOPS, winning variant).  The counts are exact
deterministic functions of the search algorithm (the analytical model
never varies between runs), so a committed baseline
(``BENCH_search.json``) turns them into a regression gate: a change
that silently doubles evaluator traffic, or degrades the winner, fails
``repro bench --check`` even though every functional test still passes.

Wall time is recorded but gated only on opt-in
(``compare_bench(..., wall_tolerance=...)``) — CI machines are noisy,
so the wall gate needs a generous tolerance and an explicit decision
to enable it.

Schema 2 splits the cost profile along the vectorized-pricing seam:
``priced_candidates`` counts logical model evaluations (every candidate
that got a price, scalar or vectorized), ``simulate_calls`` the actual
scalar ``simulate()`` invocations that remained, ``vectorized`` the
lanes priced by the family backend, and ``cache_hit_rate_by_phase``
attributes the memo hit rate to the tuner stage that earned it.  On a
cold run the stages are all-miss by design (stage 2 deduplicates
against measured families before requesting), so the near-zero overall
rate is expected: the only hits are deep tuning's post-tune winner
classifications, now visible in their own ``classify`` phase.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import simulate_call_count
from ..tuning.evaluator import PlanEvaluator

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BENCHMARKS",
    "GATED_METRICS",
    "run_bench",
    "compare_bench",
    "format_bench",
]

BENCH_SCHEMA_VERSION = 2

#: One temporal benchmark (deep tuning + opt(T)) and one spatial
#: register-pressure benchmark (fission + global alternatives) — the
#: same pairing the evaluator-speedup benchmark uses, covering both
#: search shapes while keeping the gate fast enough for every CI run.
DEFAULT_BENCHMARKS = ("7pt-smoother", "addsgd4")

#: Metric -> direction of regression.  ``up`` regresses when the value
#: grows past tolerance (search got more expensive); ``down`` regresses
#: when it shrinks (result quality or cache efficiency dropped).
GATED_METRICS = {
    "requests": "up",
    "simulations": "up",
    "best_gflops": "down",
}


def run_bench(
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    device: DeviceSpec = P100,
    top_k: int = 2,
) -> Dict[str, Any]:
    """Run the suite and collect the search-cost profile per benchmark.

    The before/after comparison artifact runs this again under
    :func:`repro.gpu.pricing.scalar_pricing` to measure the scalar path
    on the same machine.
    """
    from ..pipeline import optimize
    from . import get as get_benchmark

    results: Dict[str, Any] = {}
    for name in benchmarks:
        ir = get_benchmark(name).ir()
        engine = PlanEvaluator(device=device)
        calls_before = simulate_call_count()
        start = time.perf_counter()
        outcome = optimize(ir, device=device, top_k=top_k, evaluator=engine)
        wall = time.perf_counter() - start
        stats = outcome.eval_stats
        hit_rate = stats.hits / stats.requests if stats.requests else 0.0
        results[name] = {
            "requests": stats.requests,
            "hits": stats.hits,
            "simulations": stats.misses,
            "screened": stats.screened,
            # Prescreen-vs-price-vs-simulate split: ``lint_rejections``
            # counts candidates rejected with a stable RLxxx rule code
            # before the model ran; ``priced_candidates`` the logical
            # model evaluations that remained (misses minus screened);
            # ``simulate_calls`` the scalar ``simulate()`` invocations
            # actually made (priced minus vectorized lanes).
            "lint_rejections": stats.lint_rejections,
            "priced_candidates": stats.simulations,
            "simulate_calls": simulate_call_count() - calls_before,
            "vectorized": stats.vectorized,
            "rungs_skipped": stats.rungs_skipped,
            "cache_hit_rate": round(hit_rate, 4),
            "cache_hit_rate_by_phase": {
                phase: {
                    "requests": ps.requests,
                    "hits": ps.hits,
                    "hit_rate": round(ps.hit_rate, 4),
                }
                for phase, ps in engine.phase_stats.items()
            },
            "evaluations": outcome.evaluations,
            "best_gflops": round(outcome.tflops * 1e3, 3),
            "variant": outcome.variant,
            "wall_s": round(wall, 4),
            # Engine-attributed busy time (merged intervals): isolates
            # pricing/evaluation cost from planning and codegen, so the
            # pricing-only speedup is measurable next to end-to-end.
            "engine_wall_s": round(stats.wall_s, 4),
        }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "top_k": top_k,
        "device": device.name,
        "benchmarks": results,
    }


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.15,
    wall_tolerance: Optional[float] = None,
) -> List[str]:
    """Regressions in ``current`` vs ``baseline``; empty when clean.

    Each gated metric may drift up to ``tolerance`` (relative) in its
    harmless direction without comment; past it in the regressing
    direction produces one message.  Improvements are never flagged.

    ``wall_tolerance`` opts into gating ``wall_s`` (relative growth
    past the threshold fails); leave None on machines whose load the
    caller does not control.
    """
    problems: List[str] = []
    base_benchmarks = baseline.get("benchmarks", {})
    cur_benchmarks = current.get("benchmarks", {})
    for name, base in base_benchmarks.items():
        cur = cur_benchmarks.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        for metric, direction in GATED_METRICS.items():
            base_value = base.get(metric)
            cur_value = cur.get(metric)
            if base_value is None or cur_value is None:
                continue
            if not base_value:
                continue
            change = (cur_value - base_value) / base_value
            if direction == "up" and change > tolerance:
                problems.append(
                    f"{name}: {metric} regressed {change * 100:+.1f}% "
                    f"({base_value} -> {cur_value}, tolerance "
                    f"{tolerance * 100:.0f}%)"
                )
            elif direction == "down" and change < -tolerance:
                problems.append(
                    f"{name}: {metric} regressed {change * 100:+.1f}% "
                    f"({base_value} -> {cur_value}, tolerance "
                    f"{tolerance * 100:.0f}%)"
                )
        base_variant = base.get("variant")
        if base_variant and cur.get("variant") != base_variant:
            problems.append(
                f"{name}: winning variant changed "
                f"({base_variant} -> {cur.get('variant')})"
            )
        if wall_tolerance is not None:
            base_wall = base.get("wall_s")
            cur_wall = cur.get("wall_s")
            if base_wall and cur_wall is not None:
                change = (cur_wall - base_wall) / base_wall
                if change > wall_tolerance:
                    problems.append(
                        f"{name}: wall_s regressed {change * 100:+.1f}% "
                        f"({base_wall} -> {cur_wall}, tolerance "
                        f"{wall_tolerance * 100:.0f}%)"
                    )
    return problems


def format_bench(
    results: Dict[str, Any], problems: Optional[List[str]] = None
) -> str:
    """Human-readable table for the ``repro bench`` output."""
    lines: List[str] = [
        f"search benchmark (device {results.get('device', '?')}, "
        f"top_k={results.get('top_k', '?')})",
        f"{'benchmark':15s} {'requests':>9s} {'priced':>7s} {'simcall':>8s} "
        f"{'vector':>7s} {'hit%':>6s} "
        f"{'GFLOPS':>9s} {'variant':14s} {'wall s':>7s}",
    ]
    for name, row in results.get("benchmarks", {}).items():
        lines.append(
            f"{name:15s} {row['requests']:9d} "
            f"{row.get('priced_candidates', row['simulations']):7d} "
            f"{row.get('simulate_calls', 0):8d} "
            f"{row.get('vectorized', 0):7d} "
            f"{row['cache_hit_rate'] * 100:5.1f}% "
            f"{row['best_gflops']:9.1f} {row['variant']:14s} "
            f"{row['wall_s']:7.3f}"
        )
    if problems is not None:
        if problems:
            lines.append("")
            lines.append("regressions vs baseline:")
            lines.extend(f"  - {p}" for p in problems)
        else:
            lines.append("")
            lines.append("no regressions vs baseline")
    return "\n".join(lines)
