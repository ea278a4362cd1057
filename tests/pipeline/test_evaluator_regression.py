"""Regression guard: the evaluation engine must actually cut simulations.

Runs a full ``pipeline.optimize()`` twice on the same program — once
through the default engine (memoized + incremental escalation) and once
in seed-equivalent mode (no memoization, full register ladder, plan-
family geometry computed on a freshly built twin IR, so none of the
first run's pinned results serve it) — and asserts the engine at least
halves the ``simulate()`` call count while producing the identical
outcome.
"""

from repro.dsl import parse
from repro.gpu.simulator import reset_simulate_calls, simulate_call_count
from repro.ir import build_ir
from repro.pipeline import optimize
from repro.suite import get, load_ir
from repro.tuning import PlanEvaluator


def _seed_mode_evaluator() -> PlanEvaluator:
    return PlanEvaluator.seed_mode()


class TestSimulateCallReduction:
    def test_iterative_optimize_halves_simulate_calls(self):
        ir = load_ir("7pt-smoother")
        reset_simulate_calls()
        fast = optimize(ir, top_k=2)
        fast_calls = reset_simulate_calls()
        twin = build_ir(parse(get("7pt-smoother").dsl()))
        seed = optimize(twin, top_k=2, evaluator=_seed_mode_evaluator())
        seed_calls = reset_simulate_calls()

        assert fast_calls > 0
        assert seed_calls >= 2 * fast_calls, (
            f"engine made {fast_calls} simulate() calls, seed path "
            f"{seed_calls}; expected at least a 2x reduction"
        )
        # Determinism: the engine changes cost, never results.
        assert fast.schedule == seed.schedule
        assert fast.tflops == seed.tflops
        assert fast.variant == seed.variant

    def test_stats_account_for_avoided_simulations(self):
        ir = load_ir("7pt-smoother")
        reset_simulate_calls()
        outcome = optimize(ir, top_k=2)
        calls = reset_simulate_calls()
        stats = outcome.eval_stats
        assert stats is not None
        # Of the logical prices, ``vectorized`` came from the family
        # backend without a scalar simulate() call; the residue plus a
        # handful of out-of-engine calls (schedule_tflops prices the
        # final schedule directly) is what the global counter sees.
        scalar_residue = stats.simulations - stats.vectorized
        assert scalar_residue <= calls
        assert calls - scalar_residue <= len(outcome.schedule.plans) + 8
        assert stats.vectorized > 0
        assert stats.simulations_avoided > 0
        assert stats.screened > 0
