"""Certification-prescreen overhead: certifier on vs off, same winners.

The RL3xx transformation certifier runs inside ``PlanEvaluator``'s
legality prescreen once per candidate family (docs/certification.md);
with it off, no legality check runs at all.  Tuner candidates are
single-kernel serial launches the certifier proves legal trivially, so
the contract is twofold: **winners are byte-identical** with the
certifier on or off, and the certification work adds **under 5%
engine wall time**.  Each mode runs ``REPEATS`` times, the two modes
interleaved repeat by repeat (alternating which goes first), and the
best (least noisy) engine wall of each is compared — so the gate
compares arms timed at the same moment, not arm after arm while the
host's load drifts.  Results land in ``BENCH_certify.json``.
"""

import json
import os
import time
from contextlib import nullcontext

import pytest

from repro.lint import certification_disabled
from repro.pipeline import optimize

from _cache import fmt, ir_of, print_table

KERNELS = ("7pt-smoother", "addsgd4")
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_certify.json")
REPEATS = 3
#: Acceptance: certifying every candidate may add at most 5% to the
#: engine's busy time (ISSUE contract).  The engine wall is used, not
#: process wall-clock, to keep the gate meaningful on noisy CI boxes.
MAX_OVERHEAD = 0.05

_results = {}


def _timed_run(ir, certify):
    with nullcontext() if certify else certification_disabled():
        start = time.perf_counter()
        outcome = optimize(ir, top_k=2)
        wall = time.perf_counter() - start
    return outcome, outcome.eval_stats.wall_s, wall


def _best_runs(ir):
    """Best (outcome, engine wall, wall) per arm: on first, then off."""
    best = {}
    for repeat in range(REPEATS):
        order = (True, False) if repeat % 2 == 0 else (False, True)
        for certify in order:
            run = _timed_run(ir, certify)
            if certify not in best or run[1] < best[certify][1]:
                best[certify] = run
    return best[True], best[False]


@pytest.mark.parametrize("name", KERNELS)
def test_certify_overhead(name):
    ir = ir_of(name)

    # Warm the process-level caches (FamilyStructure memo, analysis
    # caches) so neither timed mode pays cold-start costs.
    optimize(ir, top_k=2)

    on, off = _best_runs(ir)
    certified, on_engine_wall, on_wall = on
    baseline, off_engine_wall, off_wall = off

    # Contract 1: the certifier never moves a winner — tuner candidates
    # are single-kernel serial sweeps it certifies trivially.
    assert certified.schedule == baseline.schedule
    assert certified.tflops == baseline.tflops
    assert certified.variant == baseline.variant
    assert (
        certified.eval_stats.requests == baseline.eval_stats.requests
    ), "certifier changed how many candidates were evaluated"
    assert (
        certified.eval_stats.screened == baseline.eval_stats.screened
    ), "certifier screened candidates the baseline priced (or vice versa)"
    stats = certified.eval_stats
    assert stats.lint_rejections == stats.screened

    # Contract 2: < 5% added engine wall time.
    overhead = on_engine_wall / off_engine_wall - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"certification prescreen added {overhead * 100:.1f}% engine wall "
        f"({on_engine_wall:.4f}s vs {off_engine_wall:.4f}s)"
    )

    _results[name] = {
        "certifier_on": {
            "engine_wall_s": round(on_engine_wall, 4),
            "wall_s": round(on_wall, 4),
            "requests": stats.requests,
            "screened": stats.screened,
            "lint_rejections": stats.lint_rejections,
        },
        "certifier_off": {
            "engine_wall_s": round(off_engine_wall, 4),
            "wall_s": round(off_wall, 4),
            "requests": baseline.eval_stats.requests,
            "screened": baseline.eval_stats.screened,
        },
        "overhead": round(overhead, 4),
        "max_overhead": MAX_OVERHEAD,
        "repeats": REPEATS,
        "tflops": certified.tflops,
        "identical_schedule": True,
    }

    print_table(
        f"certification prescreen overhead: {name}",
        ["quantity", "certifier on", "certifier off"],
        [
            ["requests", stats.requests, baseline.eval_stats.requests],
            ["screened", stats.screened, baseline.eval_stats.screened],
            ["engine wall (s)", fmt(on_engine_wall), fmt(off_engine_wall)],
            ["wall-clock (s)", fmt(on_wall), fmt(off_wall)],
            ["overhead", f"{overhead * 100:+.1f}%", f"< {MAX_OVERHEAD:.0%}"],
        ],
    )


def test_write_bench_json():
    # Runs after the parametrized cases (pytest preserves file order).
    from repro.resilience import atomic_write_json

    assert set(_results) == set(KERNELS)
    atomic_write_json(OUT_PATH, _results, indent=2, sort_keys=True)
