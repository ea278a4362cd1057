"""Lint rules wired into the evaluation engine, tuners and metrics.

The PlanEvaluator screens each candidate before pricing it: every
screened rejection carries a stable RLxxx code (in the exception
message, the ``rule`` field and the ``lint.reject.*`` counters), and
``EvalStats.lint_rejections`` tracks ``screened`` exactly.
"""

import pytest

from repro.codegen.plan import KernelPlan
from repro.gpu.device import P100
from repro.gpu.simulator import PlanInfeasible
from repro.obs import configure_metrics, get_metrics
from repro.tuning import PlanEvaluator


def kernel_of(ir):
    return ir.kernels[0].name


class TestEvaluatorPrescreen:
    def test_rejection_carries_rule_code(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        doomed = KernelPlan((kernel_of(smoother_ir),), block=(64, 64))
        with pytest.raises(PlanInfeasible) as excinfo:
            engine.evaluate(smoother_ir, doomed)
        assert "[RL202]" in str(excinfo.value)
        assert getattr(excinfo.value, "context", {}).get("rule") == "RL202"

    def test_lint_rejections_track_screened(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        kernel = kernel_of(smoother_ir)
        plans = [
            KernelPlan((kernel,), block=(64, 64)),  # RL202
            KernelPlan((kernel,), block=(32, 16)),  # feasible
            KernelPlan(
                (kernel,),
                block=(32, 32),
                unroll=(1, 4, 4),
                placements=(("in", "shmem"),),
            ),  # RL201
        ]
        for plan in plans:
            engine.try_evaluate(smoother_ir, plan, catch=(PlanInfeasible,))
        assert engine.stats.screened == 2
        assert engine.stats.lint_rejections == engine.stats.screened

    def test_stats_survive_snapshot_roundtrip(self, smoother_ir):
        engine = PlanEvaluator(device=P100)
        engine.try_evaluate(
            smoother_ir,
            KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
            catch=(PlanInfeasible,),
        )
        assert engine.stats.as_dict()["lint_rejections"] == 1
        assert "lint rule" in engine.stats.describe()

    def test_prescreen_off_still_rejects_via_model(self, smoother_ir):
        # With the prescreen disabled the occupancy arithmetic itself
        # refuses the plan — same outcome, no rule counter.
        engine = PlanEvaluator.seed_mode(device=P100)
        doomed = KernelPlan((kernel_of(smoother_ir),), block=(64, 64))
        with pytest.raises(PlanInfeasible):
            engine.evaluate(smoother_ir, doomed)
        assert engine.stats.lint_rejections == 0

    def test_rejection_counter_emitted(self, smoother_ir):
        configure_metrics(True, reset=True)
        try:
            engine = PlanEvaluator(device=P100)
            engine.try_evaluate(
                smoother_ir,
                KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
                catch=(PlanInfeasible,),
            )
            snap = get_metrics().snapshot()
            assert snap["lint.reject.RL202"]["value"] == 1
        finally:
            configure_metrics(False, reset=True)


class TestSimulatorRouting:
    def test_occupancy_prescreen_counts_rule_code(self, smoother_ir):
        from repro.gpu.simulator import plan_occupancy

        configure_metrics(True, reset=True)
        try:
            with pytest.raises(PlanInfeasible):
                plan_occupancy(
                    smoother_ir,
                    KernelPlan((kernel_of(smoother_ir),), block=(64, 64)),
                    P100,
                )
            snap = get_metrics().snapshot()
            assert snap["simulate.prescreen_rejections"]["value"] == 1
            assert snap["lint.reject.RL202"]["value"] == 1
        finally:
            configure_metrics(False, reset=True)


class TestHtmlReportSection:
    def test_lint_rejections_rendered(self):
        from repro.obs.report_html import render_html

        events = [
            {
                "kind": "candidate",
                "disposition": "rejected",
                "reason": "[RL202] block of 4096 threads",
            },
            {
                "kind": "candidate",
                "disposition": "rejected",
                "reason": "[RL202] block of 2048 threads",
            },
            {"kind": "prune", "reason": "lint.RL205", "dropped": 3, "kept": 9},
        ]
        html = render_html(events)
        assert "Lint rejections" in html
        assert "RL202" in html and "RL205" in html
