"""Family evaluation: the vectorized backend threaded through the engine.

The vectorized pricing path is a pure throughput lever — every
observable of a tuning run must be invariant to it: the winner (bitwise),
the EvalStats accounting (requests, hits, misses, screened,
``lint_rejections == screened``), and the failure bookkeeping under
injected chaos.  These tests run the full hierarchical tuner through paired
engines — one under :func:`repro.gpu.pricing.scalar_pricing` — and
compare everything.
"""

import contextlib
from collections import Counter

import pytest

from repro.codegen.plan import KernelPlan
from repro.codegen.tiling import plan_structural_key
from repro.dsl import parse
from repro.gpu import pricing
from repro.gpu.pricing import MIN_FAMILY, FamilyStructure, scalar_pricing
from repro.gpu.simulator import reset_simulate_calls, simulate_call_count
from repro.ir import build_ir
from repro.obs import configure_metrics, get_metrics
from repro.resilience import FaultInjector
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune
from repro.tuning.deeptuning import fusion_schedule
from repro.tuning.evaluator import Measurement

from .conftest import SMOOTHER_SRC


#: Stats fields that must not depend on how candidates were priced.
INVARIANT_FIELDS = (
    "requests",
    "hits",
    "misses",
    "infeasible",
    "rungs_skipped",
    "screened",
    "lint_rejections",
    "failures",
    "retries",
    "timeouts",
    "degraded",
)


def _tune(ir, base, scalar=False, **engine_kwargs):
    engine = PlanEvaluator(**engine_kwargs)
    tuner = HierarchicalTuner(ir, evaluator=engine)
    with scalar_pricing() if scalar else contextlib.nullcontext():
        return tuner.tune(base), engine


def assert_invariant_stats(vec_engine, ref_engine):
    vec, ref = vec_engine.stats, ref_engine.stats
    for field in INVARIANT_FIELDS:
        assert getattr(vec, field) == getattr(ref, field), field
    # The engine's occupancy screen is routed through repro.lint, so
    # every prescreen rejection carries a rule code — on both paths.
    assert vec.lint_rejections == vec.screened
    assert ref.lint_rejections == ref.screened
    assert vec.simulations == ref.simulations


class TestVectorizedInvariance:
    def test_same_winner_and_stats(self, smoother_ir, base_plan):
        ref, ref_engine = _tune(smoother_ir, base_plan, scalar=True)
        reset_simulate_calls()
        vec, vec_engine = _tune(smoother_ir, base_plan)
        scalar_residue = reset_simulate_calls()

        assert vec.best.plan == ref.best.plan
        assert vec.best.time_s == ref.best.time_s
        assert vec.best.tflops == ref.best.tflops
        assert [m.plan for m in vec.trace] == [m.plan for m in ref.trace]
        assert vec.evaluations == ref.evaluations
        assert_invariant_stats(vec_engine, ref_engine)
        # The vector engine actually vectorized, and every lane it
        # priced that way is one scalar simulate() call that never ran.
        assert vec_engine.stats.vectorized > 0
        assert ref_engine.stats.vectorized == 0
        assert (
            scalar_residue
            == vec_engine.stats.simulations - vec_engine.stats.vectorized
        )

    def test_memoization_still_content_addressed(self, smoother_ir, base_plan):
        # A second identical tune through the same vectorized engine
        # must be served entirely from the memo cache: no new misses,
        # no new lanes, byte-identical winner.
        engine = PlanEvaluator()
        first = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        misses_after_first = engine.stats.misses
        vectorized_after_first = engine.stats.vectorized
        second = HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        assert second.best.plan == first.best.plan
        assert second.best.time_s == first.best.time_s
        assert engine.stats.misses == misses_after_first
        assert engine.stats.vectorized == vectorized_after_first
        assert engine.stats.hits > 0


class TestChaosInvariance:
    @pytest.mark.parametrize("on_error", ["skip", "degrade"])
    def test_fault_schedule_hits_both_paths_identically(
        self, smoother_ir, base_plan, on_error
    ):
        # Same fault seed through scalar and vectorized engines: faults
        # fire per *candidate* (the vector path still resolves each
        # lane through _evaluate), so the quarantine/degrade accounting
        # and the surviving winner must match exactly.
        def chaos(scalar):
            injector = FaultInjector(rate=0.15, seed=11)
            result, engine = _tune(
                smoother_ir,
                base_plan,
                scalar=scalar,
                fault_injector=injector,
                on_error=on_error,
            )
            return result, engine, injector

        ref, ref_engine, ref_injector = chaos(scalar=True)
        vec, vec_engine, vec_injector = chaos(scalar=False)

        assert vec_injector.injected == ref_injector.injected
        assert vec_injector.injected > 0
        assert vec.best.plan == ref.best.plan
        assert vec.best.time_s == ref.best.time_s
        assert_invariant_stats(vec_engine, ref_engine)
        if on_error == "skip":
            assert vec_engine.stats.failures > 0
        else:
            assert vec_engine.stats.degraded > 0
        assert vec_engine.stats.vectorized > 0


PRODUCER_CONSUMER = """
parameter N=64;
iterator k, j, i;
double A[N,N,N], T[N,N,N], B[N,N,N];
copyin A;
stencil produce (Y, X) { Y[k][j][i] = X[k][j][i+1] + X[k][j][i-1]; }
stencil consume (Y, X) { Y[k][j][i] = X[k+1][j][i] + X[k][j][i]; }
produce (T, A);
consume (B, T);
copyout B;
"""


def _mixed_families(base):
    """Plans in structural groups of 1, 3, MIN_FAMILY and MIN_FAMILY + 1,
    interleaved: one batch prices both sides of the break-even.  The
    (64, 32) block exceeds the thread limit, so every group but the
    singleton also carries an occupancy-screened lane."""
    blocks = [(32, 16), (64, 32), (16, 16), (16, 8), (64, 8)]
    families = [
        base.replace(placements=()),
        base,
        base.replace(prefetch=True),
        base.replace(placements=(), prefetch=True),
    ]
    groups = [
        [family.replace(block=block) for block in blocks[:size]]
        for family, size in zip(families, (1, 3, MIN_FAMILY, MIN_FAMILY + 1))
    ]
    plans = []
    for index in range(max(len(group) for group in groups)):
        plans.extend(group[index] for group in groups if index < len(group))
    sizes = Counter(plan_structural_key(p) for p in plans)
    assert sorted(sizes.values()) == [1, 3, MIN_FAMILY, MIN_FAMILY + 1]
    return plans


def _batch_outcome(ir, plans):
    engine = PlanEvaluator()
    plain = engine.evaluate_batch(ir, plans)
    spill_free = engine.evaluate_spill_free_batch(ir, plans)
    stats = engine.stats.as_dict()
    del stats["wall_s"], stats["cpu_s"], stats["vectorized"]
    return plain, spill_free, stats, engine.stats.vectorized


class TestBreakEven:
    def test_one_batch_spans_both_sides(self, smoother_ir, base_plan):
        plans = _mixed_families(base_plan)
        with scalar_pricing():
            expected = _batch_outcome(smoother_ir, plans)
        got = _batch_outcome(smoother_ir, plans)
        assert got[:3] == expected[:3]
        assert expected[3] == 0
        # Only the two groups at or above the break-even were vectorized.
        assert 0 < got[3] <= 2 * (2 * MIN_FAMILY + 1)
        assert got[2]["screened"] > 0
        assert any(result is not None for result in got[0])

    @pytest.mark.parametrize("method", ["price", "price_spill_free"])
    def test_family_pass_failure_falls_back_to_scalar(
        self, smoother_ir, base_plan, monkeypatch, method
    ):
        plans = _mixed_families(base_plan)
        with scalar_pricing():
            expected = _batch_outcome(smoother_ir, plans)

        def broken(self, *args, **kwargs):
            raise RuntimeError("family pass failed")

        monkeypatch.setattr(FamilyStructure, method, broken)
        # A freshly built twin IR has no family structure pinned yet.
        twin = build_ir(parse(SMOOTHER_SRC))
        configure_metrics(True, reset=True)
        try:
            got = _batch_outcome(twin, plans)
            fallbacks = get_metrics().snapshot()["pricing.scalar_fallbacks"]
        finally:
            configure_metrics(False, reset=True)
        assert got[:3] == expected[:3]
        # Both structural groups at or above the break-even fell back.
        assert fallbacks["value"] == 2

    def test_screened_family_is_never_priced(self):
        # Consumer fused before producer: the certifier rejects the whole
        # family (RL301) before pricing, on both sides of the break-even.
        ir = build_ir(parse(PRODUCER_CONSUMER))
        blocks = [(32, 16), (32, 8), (16, 16), (16, 8), (64, 8)]
        plans = [
            KernelPlan(("consume.0", "produce.0"), block=block)
            for block in blocks
        ]
        for family in (plans[:1], plans):
            with scalar_pricing():
                expected = _batch_outcome(ir, family)
            before = pricing.priced_lane_count()
            got = _batch_outcome(ir, family)
            assert pricing.priced_lane_count() == before
            assert got == expected
            assert got[2]["screened"] == 2 * len(family)


class TestPhaseAttribution:
    def test_tuner_stages_are_phase_labelled(self, smoother_ir, base_plan):
        engine = PlanEvaluator()
        HierarchicalTuner(smoother_ir, evaluator=engine).tune(base_plan)
        phases = engine.phase_stats
        assert "stage1" in phases and "stage2" in phases
        # Every request lands in exactly one phase (the tuner wraps all
        # its evaluation sites), so the per-phase split is a partition.
        assert (
            sum(ps.requests for ps in phases.values())
            == engine.stats.requests
        )
        for name, ps in phases.items():
            assert 0.0 <= ps.hit_rate <= 1.0, name
        report = engine.phase_dict()
        assert set(report) == set(phases)
        assert report["stage1"]["requests"] == phases["stage1"].requests

    def test_deep_tune_classify_phase_is_all_hits(self, smoother_ir):
        engine = PlanEvaluator()
        deep_tune(smoother_ir, evaluator=engine, max_degree=2)
        classify = engine.phase_stats["classify"]
        # The winner was just tuned, so classification is served from
        # the memo cache — the only cold-run hits, now attributable.
        assert classify.requests >= 1
        assert classify.hits == classify.requests
        assert classify.hit_rate == 1.0


class TestFusionScheduleDP:
    def _result(self, f_values, base_plan):
        from repro.tuning.deeptuning import DeepTuningEntry, DeepTuningResult

        entries = tuple(
            DeepTuningEntry(
                time_tile=x,
                measurement=Measurement(
                    plan=base_plan.replace(time_tile=x),
                    time_s=f,
                    tflops=1.0 / f,
                ),
                bandwidth_bound=True,
                bound_level="dram",
            )
            for x, f in enumerate(f_values, start=1)
        )
        return DeepTuningResult(entries=entries, evaluations=len(entries))

    def test_vector_dp_bitwise_matches_scalar(self, base_plan, monkeypatch):
        import random

        import repro.tuning.deeptuning as dt

        rng = random.Random(42)
        for _ in range(25):
            k = rng.randint(1, 6)
            f_values = [rng.uniform(0.5, 2.0) / x for x in range(1, k + 1)]
            result = self._result(f_values, base_plan)
            iterations = rng.randint(1, 200)
            monkeypatch.setattr(dt, "VECTOR_DP_MIN_OPS", 1)
            vec = fusion_schedule(result, iterations)
            monkeypatch.setattr(dt, "VECTOR_DP_MIN_OPS", 10**12)
            scalar = fusion_schedule(result, iterations)
            assert vec.tiles == scalar.tiles
            assert vec.total_time_s == scalar.total_time_s
            assert sum(vec.tiles) == iterations

    def test_zero_iterations(self, base_plan):
        result = self._result([1.0], base_plan)
        schedule = fusion_schedule(result, 0)
        assert schedule.tiles == () and schedule.total_time_s == 0.0
