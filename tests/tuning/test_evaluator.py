"""Tests for the shared plan-evaluation engine.

The engine's contract is *bit-for-bit equivalence*: memoized, batched,
parallel and incrementally-escalated evaluation must return exactly what
the direct ``validate_plan`` + ``simulate`` path returns.
"""

import random
import time

import pytest

from repro.codegen.plan import REGISTER_LEVELS
from repro.codegen.resources import InvalidPlan, validate_plan
from repro.codegen.tiling import plan_family_key
from repro.gpu.simulator import PlanInfeasible, simulate
from repro.dsl import parse
from repro.ir import build_ir
from repro.tuning import HierarchicalTuner, PlanEvaluator, plan_fingerprint
from repro.tuning.random_search import _sample_plan

from .conftest import SMOOTHER_SRC


def sampled_plans(ir, kernel_name, count, seed=7):
    rng = random.Random(seed)
    return [_sample_plan(rng, ir, kernel_name) for _ in range(count)]


def direct_result(ir, plan, device):
    """The seed evaluation path: validate + simulate, None if infeasible."""
    try:
        validate_plan(ir, plan)
        return simulate(ir, plan, device)
    except (PlanInfeasible, InvalidPlan, ValueError):
        return None


class TestIdentityProperty:
    def test_matches_direct_simulate_on_random_plans(self, smoother_ir):
        evaluator = PlanEvaluator()
        kernel = smoother_ir.kernels[0].name
        checked = 0
        for plan in sampled_plans(smoother_ir, kernel, 60):
            expected = direct_result(smoother_ir, plan, evaluator.device)
            got = evaluator.try_evaluate(
                smoother_ir, plan, catch=(PlanInfeasible, InvalidPlan, ValueError)
            )
            if expected is None:
                assert got is None
            else:
                checked += 1
                assert got.counters == expected.counters
                assert got.timing == expected.timing
                assert got.occupancy == expected.occupancy
        assert checked > 5  # the sample must exercise feasible plans

    def test_cached_matches_uncached(self, smoother_ir):
        evaluator = PlanEvaluator()
        kernel = smoother_ir.kernels[0].name
        plans = sampled_plans(smoother_ir, kernel, 30, seed=13)
        warm = [evaluator.try_evaluate(smoother_ir, p) for p in plans]
        # Each cold price runs on its own freshly built twin IR, so no
        # geometry pinned by an earlier plan can serve it.
        cold_eval = PlanEvaluator.seed_mode()
        cold = [
            cold_eval.try_evaluate(build_ir(parse(SMOOTHER_SRC)), p)
            for p in plans
        ]
        for cached, fresh in zip(warm, cold):
            assert (cached is None) == (fresh is None)
            if cached is not None:
                assert cached.counters == fresh.counters
                assert cached.timing == fresh.timing


class TestMemoization:
    def test_second_evaluation_is_a_hit(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        first = evaluator.evaluate(smoother_ir, base_plan)
        second = evaluator.evaluate(smoother_ir, base_plan)
        assert first is second
        assert evaluator.stats.requests == 2
        assert evaluator.stats.hits == 1
        assert evaluator.stats.misses == 1

    def test_infeasible_failures_memoized(self, smoother_ir, base_plan):
        bad = base_plan.replace(block=(1024, 1024))
        evaluator = PlanEvaluator()
        assert evaluator.try_evaluate(smoother_ir, bad) is None
        assert evaluator.try_evaluate(smoother_ir, bad) is None
        assert evaluator.stats.misses == 1
        assert evaluator.stats.hits == 1
        assert evaluator.stats.infeasible == 2

    def test_memoize_off_always_simulates(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator.seed_mode()
        evaluator.evaluate(smoother_ir, base_plan)
        evaluator.evaluate(smoother_ir, base_plan)
        assert evaluator.stats.hits == 0
        assert evaluator.stats.misses == 2

    def test_register_levels_share_one_family(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        for level in REGISTER_LEVELS:
            evaluator.evaluate(
                smoother_ir, base_plan.replace(max_registers=level)
            )
        # Four cache entries (one per register level), one plan family.
        assert evaluator.cache_size() == len(REGISTER_LEVELS)
        families = {
            plan_family_key(base_plan.replace(max_registers=level))
            for level in REGISTER_LEVELS
        }
        assert len(families) == 1


class TestBatch:
    def test_results_in_input_order(self, smoother_ir):
        kernel = smoother_ir.kernels[0].name
        plans = sampled_plans(smoother_ir, kernel, 40, seed=3)
        evaluator = PlanEvaluator()
        serial = [
            evaluator.try_evaluate(
                smoother_ir, p, catch=(PlanInfeasible, InvalidPlan, ValueError)
            )
            for p in plans
        ]
        batch_eval = PlanEvaluator()
        batched = batch_eval.evaluate_batch(
            smoother_ir,
            plans,
            catch=(PlanInfeasible, InvalidPlan, ValueError),
        )
        assert len(batched) == len(plans)
        for ser, bat in zip(serial, batched):
            assert (ser is None) == (bat is None)
            if ser is not None:
                assert bat.counters == ser.counters
                assert bat.timing == ser.timing

    def test_spill_free_batch_matches_serial(self, smoother_ir, base_plan):
        variants = [
            base_plan.replace(unroll=(1, 1, u)) for u in (1, 2, 4, 8)
        ]
        serial_eval = PlanEvaluator()
        serial = [
            serial_eval.evaluate_spill_free(smoother_ir, v) for v in variants
        ]
        batch_eval = PlanEvaluator()
        batched = batch_eval.evaluate_spill_free_batch(smoother_ir, variants)
        for ser, bat in zip(serial, batched):
            assert (ser is None) == (bat is None)
            if ser is not None:
                assert bat[0] == ser[0]
                assert bat[1].timing == ser[1].timing


class TestEscalation:
    def test_incremental_matches_ladder(self, smoother_ir):
        kernel = smoother_ir.kernels[0].name
        plans = [
            p.replace(max_registers=REGISTER_LEVELS[-1])
            for p in sampled_plans(smoother_ir, kernel, 40, seed=29)
        ]
        fast = PlanEvaluator()
        slow = PlanEvaluator.seed_mode()
        for plan in plans:
            a = fast.evaluate_spill_free(smoother_ir, plan)
            b = slow.evaluate_spill_free(smoother_ir, plan)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] == b[0]  # same chosen register level
                assert a[1].timing == b[1].timing
                assert a[1].counters == b[1].counters
        assert fast.stats.misses < slow.stats.misses
        assert fast.stats.rungs_skipped > 0

    def test_skips_spilling_rungs(self, smoother_ir, base_plan):
        # A heavily unrolled plan demands more than 32 registers, so the
        # low rungs must be resolved without simulation.
        evaluator = PlanEvaluator()
        found = evaluator.evaluate_spill_free(
            smoother_ir, base_plan.replace(unroll=(1, 2, 4))
        )
        assert found is not None
        plan, result = found
        assert plan.max_registers > 32
        assert not result.counters.has_spills
        assert evaluator.stats.rungs_skipped > 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            PlanEvaluator(on_error="bogus")


class TestFingerprint:
    def test_stable_and_content_addressed(self, base_plan):
        assert plan_fingerprint(base_plan) == plan_fingerprint(base_plan)
        other = base_plan.replace(block=(8, 8))
        assert plan_fingerprint(other) != plan_fingerprint(base_plan)

    def test_register_cap_can_be_factored_out(self, base_plan):
        a = base_plan.replace(max_registers=32)
        b = base_plan.replace(max_registers=255)
        assert plan_fingerprint(a) != plan_fingerprint(b)
        assert plan_fingerprint(a, include_registers=False) == plan_fingerprint(
            b, include_registers=False
        )


class TestTunerIntegration:
    def test_uniform_accounting_counts_infeasible(self, smoother_ir, base_plan):
        tuner = HierarchicalTuner(smoother_ir)
        assert tuner.measure(base_plan.replace(block=(1024, 1024))) is None
        assert tuner.evaluations == 1

    def test_stage2_never_remeasures_a_family(self, smoother_ir, base_plan):
        tuner = HierarchicalTuner(
            smoother_ir, use_register_opts=True, keep_trace=True
        )
        result = tuner.tune(base_plan)
        families = [plan_family_key(m.plan) for m in result.trace]
        assert len(families) == len(set(families))

    def test_result_carries_eval_stats(self, smoother_ir, base_plan):
        tuner = HierarchicalTuner(smoother_ir)
        result = tuner.tune(base_plan)
        assert result.eval_stats is not None
        assert result.eval_stats.requests >= result.evaluations
        assert result.eval_stats.misses > 0

    def test_shared_evaluator_reuses_results(self, smoother_ir, base_plan):
        shared = PlanEvaluator()
        first = HierarchicalTuner(smoother_ir, evaluator=shared)
        second = HierarchicalTuner(smoother_ir, evaluator=shared)
        a = first.tune(base_plan)
        hits_before = shared.stats.hits
        b = second.tune(base_plan)
        assert b.best.plan == a.best.plan
        assert b.best.time_s == a.best.time_s
        # The re-run is served almost entirely from the memo cache.
        assert shared.stats.hits > hits_before


BLOCKS = [
    (32, 16), (32, 8), (16, 16), (16, 8),
    (64, 8), (64, 4), (8, 8), (8, 16),
]


class TestTimingAccounting:
    """``wall_s`` vs ``cpu_s`` semantics.

    Historically ``wall_s`` summed each thread's time inside the engine,
    so overlapping threads reported a multiple of the real elapsed time
    (and nested ``evaluate_spill_free`` -> ``evaluate`` frames
    double-billed even serially).  Now ``wall_s`` merges overlapping
    busy intervals and ``cpu_s`` carries the per-thread sum.  Threads
    overlap in the engine when an ``--eval-timeout`` watchdog outlives
    the evaluation it abandoned.
    """

    def _patch_sleepy_simulate(self, monkeypatch, delay):
        import repro.gpu.pricing as pricing_module

        real = pricing_module.simulate

        def sleepy(ir, plan, device, **kwargs):
            time.sleep(delay)
            return real(ir, plan, device, **kwargs)

        monkeypatch.setattr(pricing_module, "simulate", sleepy)

    def test_serial_wall_matches_cpu(self, smoother_ir, base_plan, monkeypatch):
        delay = 0.01
        self._patch_sleepy_simulate(monkeypatch, delay)
        evaluator = PlanEvaluator()
        for block in BLOCKS[:4]:
            evaluator.evaluate(smoother_ir, base_plan.replace(block=block))
        stats = evaluator.stats
        assert stats.simulations >= 4
        assert stats.cpu_s >= stats.simulations * delay
        # One thread: the merged busy interval equals the per-thread sum.
        assert abs(stats.wall_s - stats.cpu_s) < 1e-6

    def test_nested_calls_bill_outermost_frame_once(
        self, smoother_ir, base_plan, monkeypatch
    ):
        delay = 0.02
        self._patch_sleepy_simulate(monkeypatch, delay)
        evaluator = PlanEvaluator()
        start = time.perf_counter()
        evaluator.evaluate_spill_free(smoother_ir, base_plan)
        elapsed = time.perf_counter() - start
        stats = evaluator.stats
        assert stats.simulations >= 1
        # The nested evaluate() frames must not add their own deltas on
        # top of the evaluate_spill_free() frame.
        assert stats.cpu_s <= elapsed * 1.05 + 1e-3
        assert stats.wall_s <= elapsed * 1.05 + 1e-3

    def test_concurrent_wall_is_elapsed_not_thread_sum(
        self, smoother_ir, base_plan, monkeypatch
    ):
        import threading

        delay = 0.05
        self._patch_sleepy_simulate(monkeypatch, delay)
        evaluator = PlanEvaluator()
        plans = [base_plan.replace(block=block) for block in BLOCKS]
        results = [None] * len(plans)

        def evaluate(first):
            for index in (first, first + 4):
                results[index] = evaluator.evaluate(smoother_ir, plans[index])

        threads = [
            threading.Thread(target=evaluate, args=(i,)) for i in range(4)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = evaluator.stats
        assert all(r is not None for r in results)
        assert stats.simulations == len(BLOCKS)
        # cpu_s is the honest thread-sum: every sleeping simulation shows.
        assert stats.cpu_s >= len(BLOCKS) * delay
        # wall_s is real elapsed engine time: bounded by the clock ...
        assert stats.wall_s <= elapsed * 1.05 + 1e-3
        # ... and, with 4 threads over 8 sleepy jobs, well under the
        # thread-sum the old accounting would have reported.
        assert stats.wall_s < stats.cpu_s * 0.7

    def test_report_and_dict_carry_both_counters(self, smoother_ir, base_plan):
        evaluator = PlanEvaluator()
        evaluator.evaluate(smoother_ir, base_plan)
        as_dict = evaluator.stats.as_dict()
        assert "wall_s" in as_dict and "cpu_s" in as_dict
        described = evaluator.stats.describe()
        assert "ms wall" in described and "ms cpu-sum" in described
