"""Evaluation-engine speedup: full pipeline tune with the engine on/off.

Times ``pipeline.optimize()`` for one temporal kernel (7pt-smoother) and
one spatial kernel (addsgd4) twice: through the default shared
``PlanEvaluator`` (memoized, incremental escalation, occupancy
prescreen) and in seed-equivalent mode (no memoization, full register
ladder, on a freshly built twin IR so none of the engine run's pinned
geometry serves it).  Both runs must land on the byte-identical
schedule and TFLOPS; the engine must at least halve the ``simulate()``
call count.  Results land in ``BENCH_evaluator.json``.
"""

import json
import os
import time

import pytest

from repro.dsl import parse
from repro.gpu.simulator import reset_simulate_calls
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.suite import get
from repro.tuning import PlanEvaluator

from _cache import fmt, ir_of, print_table

KERNELS = ("7pt-smoother", "addsgd4")
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_evaluator.json")

_results = {}


def _timed_optimize(ir, evaluator=None):
    reset_simulate_calls()
    start = time.perf_counter()
    outcome = optimize(ir, top_k=2, evaluator=evaluator)
    wall = time.perf_counter() - start
    return outcome, wall, reset_simulate_calls()


@pytest.mark.parametrize("name", KERNELS)
def test_evaluator_speedup(name):
    ir = ir_of(name)

    fast, fast_wall, fast_calls = _timed_optimize(ir)
    twin = build_ir(parse(get(name).dsl()))
    seed, seed_wall, seed_calls = _timed_optimize(
        twin, evaluator=PlanEvaluator.seed_mode()
    )

    # Determinism: the engine changes cost, never results.
    assert fast.schedule == seed.schedule
    assert fast.tflops == seed.tflops
    assert fast.variant == seed.variant
    # Priced-vs-simulated split: ``priced`` counts logical model
    # evaluations (vectorized lanes and scalar calls alike);
    # ``fast_calls`` only the scalar ``simulate()`` residue, which the
    # family backend can drive all the way to zero.
    stats = fast.eval_stats
    priced = stats.simulations
    assert priced > 0
    # The global simulate() counter also sees the pipeline's own
    # post-tune classification calls, so it bounds rather than equals
    # the engine's scalar residue (priced minus vectorized lanes).
    assert stats.vectorized > 0
    assert stats.vectorized <= priced
    assert fast_calls <= priced
    # Acceptance: >= 2x reduction in logical model evaluations.
    assert seed_calls >= 2 * priced

    # Every prescreen rejection must carry a lint rule code: the
    # engine's occupancy screen is routed through repro.lint, so the
    # two counters track each other exactly.
    assert stats.lint_rejections == stats.screened

    _results[name] = {
        "engine": {
            "wall_s": round(fast_wall, 4),
            "priced_candidates": priced,
            "simulate_calls": fast_calls,
            "vectorized": stats.vectorized,
            "prescreen_rejections": stats.screened,
            "lint_rejections": stats.lint_rejections,
        },
        "seed_mode": {
            "wall_s": round(seed_wall, 4),
            "simulate_calls": seed_calls,
        },
        "price_reduction": round(seed_calls / priced, 2),
        "call_reduction": (
            round(seed_calls / fast_calls, 2) if fast_calls else None
        ),
        "wall_speedup": round(seed_wall / fast_wall, 2),
        "tflops": fast.tflops,
        "identical_schedule": True,
    }

    print_table(
        f"evaluation engine vs seed path: {name}",
        ["quantity", "engine", "seed mode"],
        [
            ["priced candidates", priced, seed_calls],
            ["simulate() calls", fast_calls, seed_calls],
            ["vectorized lanes", stats.vectorized, 0],
            ["wall-clock (s)", fmt(fast_wall), fmt(seed_wall)],
            ["TFLOPS", fmt(fast.tflops), fmt(seed.tflops)],
            [
                "reduction / speedup",
                f"{seed_calls / priced:.2f}x prices",
                f"{seed_wall / fast_wall:.2f}x wall",
            ],
        ],
    )


def test_write_bench_json():
    # Runs after the parametrized cases (pytest preserves file order).
    from repro.resilience import atomic_write_json

    assert set(_results) == set(KERNELS)
    atomic_write_json(OUT_PATH, _results, indent=2, sort_keys=True)
