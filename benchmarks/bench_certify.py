"""Certification-prescreen overhead: certifier on vs off, same winners.

The RL3xx transformation certifier runs inside ``PlanEvaluator``'s
legality prescreen once per candidate family (docs/certification.md);
with it off, no legality check runs at all.  Tuner candidates are
single-kernel serial launches the certifier proves legal trivially, so
the contract is twofold: **winners are byte-identical** with the
certifier on or off, and the certification work adds **under 5%
engine wall time**.  The overhead is measured directly: every call of
the certifier (``certify_plan_transformations``, which
``fusion_rejection`` runs once per family) is timed during the
certifier-on run, and their sum is divided by that same run's engine
wall.  Both terms come from one run, so host load that drifts between
runs cancels out, where comparing two 25-100 ms engine walls did not.
Each mode runs ``REPEATS`` times, interleaved repeat by repeat; the
gate takes the median ratio of the certifier-on runs.  Results land in
``BENCH_certify.json``.
"""

import json
import os
import statistics
import time
from contextlib import nullcontext

import pytest

from repro.lint import certification_disabled, rules_transform
from repro.pipeline import optimize

from _cache import fmt, ir_of, print_table

KERNELS = ("7pt-smoother", "addsgd4")
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_certify.json")
REPEATS = 3
#: Acceptance: certifying every candidate may take at most 5% of the
#: engine's busy time.  The engine wall is used, not process
#: wall-clock, so pipeline work outside the engine does not dilute it.
MAX_OVERHEAD = 0.05

_results = {}


def _timed_run(ir, certify, monkeypatch):
    """(outcome, engine wall, wall, seconds spent inside the certifier)."""
    certifier_s = 0.0
    certify_plan = rules_transform.certify_plan_transformations

    def timed_certify(*args, **kwargs):
        nonlocal certifier_s
        start = time.perf_counter()
        try:
            return certify_plan(*args, **kwargs)
        finally:
            certifier_s += time.perf_counter() - start

    with monkeypatch.context() as patch:
        patch.setattr(
            rules_transform, "certify_plan_transformations", timed_certify
        )
        with nullcontext() if certify else certification_disabled():
            start = time.perf_counter()
            outcome = optimize(ir, top_k=2)
            wall = time.perf_counter() - start
    return outcome, outcome.eval_stats.wall_s, wall, certifier_s


def _runs(ir, monkeypatch):
    """Every run per arm, the arms interleaved: (on runs, off runs)."""
    runs = {True: [], False: []}
    for repeat in range(REPEATS):
        order = (True, False) if repeat % 2 == 0 else (False, True)
        for certify in order:
            runs[certify].append(_timed_run(ir, certify, monkeypatch))
    return runs[True], runs[False]


@pytest.mark.parametrize("name", KERNELS)
def test_certify_overhead(name, monkeypatch):
    ir = ir_of(name)

    # Warm the caches pinned on the IR so neither timed mode pays
    # cold-start costs.
    optimize(ir, top_k=2)

    on_runs, off_runs = _runs(ir, monkeypatch)
    certified, on_engine_wall, on_wall, _ = min(on_runs, key=lambda r: r[1])
    baseline, off_engine_wall, off_wall, _ = min(off_runs, key=lambda r: r[1])
    # With the certifier off, no certification runs at all.
    assert all(run[3] == 0.0 for run in off_runs)

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

    # Contract 2: < 5% added engine wall time, as the certifier's own
    # time over the engine wall of the run it was measured in.
    ratios = [run[3] / run[1] for run in on_runs]
    overhead = statistics.median(ratios)
    certifier_s = statistics.median(run[3] for run in on_runs)
    assert certifier_s > 0.0, "the certifier never ran"
    assert overhead < MAX_OVERHEAD, (
        f"certification prescreen took {overhead * 100:.1f}% of engine "
        f"wall (per run: {', '.join(f'{r * 100:.1f}%' for r in ratios)})"
    )

    _results[name] = {
        "certifier_on": {
            "certifier_s": round(certifier_s, 6),
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
            ["certifier (s)", fmt(certifier_s, 5), "0"],
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
