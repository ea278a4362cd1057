"""Chaos suite: whole tuning runs under injected faults.

The headline guarantees, each demonstrated end to end:

* transient faults + retry, and persistent faults + degraded mode, both
  recover to the *bit-identical* best plan of a fault-free run;
* ``on_error=skip`` with a 10% persistent fault rate completes and
  reports every quarantined candidate through the engine statistics and
  the ``repro.obs`` counters;
* an interrupted hierarchical-tuning run resumed from its checkpoint
  journal produces the same best plan as an uninterrupted run, paying
  only for the candidates the first run never reached.
"""

import pytest

from repro.resilience import (
    FailureBudgetExceeded,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    TuningJournal,
)
from repro.tuning import HierarchicalTuner, PlanEvaluator, deep_tune


def _tune(ir, base, **evaluator_kwargs):
    engine = PlanEvaluator(**evaluator_kwargs)
    tuner = HierarchicalTuner(ir, evaluator=engine)
    return tuner.tune(base), engine


@pytest.fixture(scope="module")
def reference(smoother_ir):
    """Fault-free tuning run every chaos scenario is compared against."""
    from repro.codegen import seed_plan_from_pragma

    base = seed_plan_from_pragma(
        smoother_ir, smoother_ir.kernels[0]
    ).replace(placements=(("in", "shmem"),))
    result, engine = _tune(smoother_ir, base)
    return base, result, engine.stats.snapshot()


class TestTransientFaultsWithRetry:
    def test_identical_best_plan(self, smoother_ir, reference):
        base, ref, _ = reference
        injector = FaultInjector(rate=0.2, seed=3, transient_failures=1)
        result, engine = _tune(
            smoother_ir,
            base,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
        )
        assert result.best.plan == ref.best.plan
        assert result.best.time_s == ref.best.time_s
        assert result.evaluations == ref.evaluations
        assert injector.injected > 0
        assert engine.stats.retries >= injector.injected
        assert engine.stats.failures == 0

    def test_without_retry_the_same_faults_kill_the_run(
        self, smoother_ir, reference
    ):
        base, _, _ = reference
        injector = FaultInjector(rate=0.2, seed=3, transient_failures=1)
        with pytest.raises(InjectedFault):
            _tune(smoother_ir, base, fault_injector=injector)


class TestSkipPolicy:
    def test_ten_percent_fault_rate_completes_and_reports(
        self, smoother_ir, reference
    ):
        from repro.obs import configure_metrics, get_metrics

        base, ref, _ = reference
        injector = FaultInjector(rate=0.1, seed=11)  # persistent faults
        configure_metrics(True, reset=True)
        try:
            result, engine = _tune(
                smoother_ir, base, fault_injector=injector, on_error="skip"
            )
            snapshot = get_metrics().snapshot()
        finally:
            configure_metrics(False)
        # The run completed, every faulted candidate was quarantined and
        # accounted for, and the per-candidate failures surfaced through
        # the obs counters.
        assert result.evaluations == ref.evaluations
        assert injector.injected > 0
        assert engine.stats.failures == injector.injected
        assert len(engine.failure_records) == min(engine.stats.failures, 100)
        assert engine.failure_records[0].error == "InjectedFault"
        assert snapshot["resilience.failures"]["value"] == engine.stats.failures
        assert snapshot["faults.injected"]["value"] == injector.injected
        # Quarantined candidates can only remove options: the surviving
        # best is never better than the fault-free best.
        assert result.best.time_s >= ref.best.time_s

    def test_failure_budget_aborts_systemic_breakage(
        self, smoother_ir, reference
    ):
        base, _, _ = reference
        injector = FaultInjector(rate=0.5, seed=1)
        with pytest.raises(FailureBudgetExceeded):
            _tune(
                smoother_ir,
                base,
                fault_injector=injector,
                on_error="skip",
                failure_budget=3,
            )


class TestDegradePolicy:
    def test_degraded_mode_recovers_identical_results(
        self, smoother_ir, reference
    ):
        base, ref, _ = reference
        # Persistent faults that live in the fast path: degraded-mode
        # re-evaluation (spare_degraded) bypasses them.
        injector = FaultInjector(rate=0.15, seed=5)
        result, engine = _tune(
            smoother_ir, base, fault_injector=injector, on_error="degrade"
        )
        assert result.best.plan == ref.best.plan
        assert result.best.time_s == ref.best.time_s
        assert engine.stats.degraded == injector.injected > 0
        assert engine.stats.failures == 0


class TestTimeouts:
    def test_hung_evaluation_times_out_and_is_skipped(
        self, smoother_ir, reference
    ):
        base, ref, _ = reference
        injector = FaultInjector(
            rate=0.02, seed=9, kind="hang", hang_s=0.75
        )
        result, engine = _tune(
            smoother_ir,
            base,
            fault_injector=injector,
            timeout_s=0.05,
            on_error="skip",
        )
        assert result.evaluations == ref.evaluations
        assert injector.injected > 0
        assert engine.stats.timeouts >= injector.injected
        assert engine.stats.failures == engine.stats.timeouts


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_best_plan(
        self, smoother_ir, reference, tmp_path
    ):
        """The acceptance scenario: crash mid-search, resume, same
        answer — with the journal replaying the work already done."""
        base, ref, _ = reference
        path = str(tmp_path / "tuning.jsonl")

        # Run 1: crash after 25 evaluations (one persistent fault under
        # fail-fast aborts the run, like a process kill would).
        injector = FaultInjector(rate=1.0, seed=7, after=25, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        journal = TuningJournal(path, device=engine.device.name)
        tuner = HierarchicalTuner(smoother_ir, evaluator=engine, journal=journal)
        with pytest.raises(InjectedFault):
            tuner.tune(base)
        journal.close()

        # Run 2: a fresh process (fresh engine, fresh memo cache)
        # resumes from the journal.
        resumed_journal = TuningJournal(path, device=engine.device.name)
        assert resumed_journal.replayable > 0
        fresh_engine = PlanEvaluator()
        resumed = HierarchicalTuner(
            smoother_ir, evaluator=fresh_engine, journal=resumed_journal
        ).tune(base)
        resumed_journal.close()

        assert resumed.best.plan == ref.best.plan
        assert resumed.best.time_s == ref.best.time_s
        assert resumed.evaluations == ref.evaluations
        # The resume replayed the journaled prefix instead of paying for
        # it again.
        _, _, ref_stats = reference
        assert fresh_engine.stats.requests < ref_stats.requests

    def test_completed_run_replays_entirely(
        self, smoother_ir, reference, tmp_path
    ):
        base, ref, _ = reference
        path = str(tmp_path / "tuning.jsonl")
        with TuningJournal(path) as journal:
            first = HierarchicalTuner(smoother_ir, journal=journal).tune(base)
        with TuningJournal(path) as journal:
            engine = PlanEvaluator()
            replayed = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            ).tune(base)
        assert replayed.best.plan == first.best.plan == ref.best.plan
        assert engine.stats.requests == 0  # pure replay

    def test_mid_batch_crash_preserves_completed_candidates(
        self, smoother_ir, reference, tmp_path
    ):
        base, _, _ = reference
        path = str(tmp_path / "tuning.jsonl")
        injector = FaultInjector(rate=1.0, seed=7, after=10, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        with TuningJournal(path) as journal:
            tuner = HierarchicalTuner(
                smoother_ir, evaluator=engine, journal=journal
            )
            with pytest.raises(InjectedFault):
                tuner.tune(base)
        # The crash hit mid-batch, yet the candidates evaluated before
        # it are on disk.
        reopened = TuningJournal(path)
        assert reopened.replayable >= 9
        reopened.close()


class TestDeepTuningResume:
    def test_interrupted_degree_sweep_resumes_identical(
        self, smoother_ir, tmp_path
    ):
        ref = deep_tune(smoother_ir, top_k=2)
        path = str(tmp_path / "deep.jsonl")

        injector = FaultInjector(rate=1.0, seed=13, after=120, max_faults=1)
        engine = PlanEvaluator(fault_injector=injector)
        with TuningJournal(path) as journal:
            with pytest.raises(InjectedFault):
                deep_tune(
                    smoother_ir, top_k=2, evaluator=engine, journal=journal
                )

        with TuningJournal(path) as journal:
            fresh = PlanEvaluator()
            resumed = deep_tune(
                smoother_ir, top_k=2, evaluator=fresh, journal=journal
            )
        assert [e.time_tile for e in resumed.entries] == [
            e.time_tile for e in ref.entries
        ]
        assert [e.measurement.plan for e in resumed.entries] == [
            e.measurement.plan for e in ref.entries
        ]
        assert resumed.tipping_point == ref.tipping_point
        assert resumed.evaluations == ref.evaluations

    def test_completed_degrees_replay_wholesale(self, smoother_ir, tmp_path):
        path = str(tmp_path / "deep.jsonl")
        with TuningJournal(path) as journal:
            first = deep_tune(smoother_ir, top_k=2, journal=journal)
        with TuningJournal(path) as journal:
            engine = PlanEvaluator()
            replayed = deep_tune(
                smoother_ir, top_k=2, evaluator=engine, journal=journal
            )
        assert replayed.tipping_point == first.tipping_point
        assert engine.stats.requests == 0


class TestWatchdogChaos:
    @pytest.mark.parametrize(
        "on_error, seed", [("skip", 11), ("skip", 29), ("degrade", 5)]
    )
    def test_watchdog_thread_same_faults_same_answer(
        self, smoother_ir, reference, on_error, seed
    ):
        """Content-addressed injection: a run whose evaluations all go
        through the timeout watchdog thread meets the same faults, and
        ends with the same answer, as an in-thread run."""
        base, _, _ = reference
        runs = [
            _tune(
                smoother_ir,
                base,
                fault_injector=FaultInjector(rate=0.1, seed=seed),
                on_error=on_error,
                **timeout,
            )
            for timeout in ({}, {"timeout_s": 60.0})
        ]
        (in_thread, in_engine), (watched, watched_engine) = runs
        assert watched.best.plan == in_thread.best.plan
        assert watched.best.time_s == in_thread.best.time_s
        assert watched.evaluations == in_thread.evaluations
        assert watched_engine.stats.failures == in_engine.stats.failures
        assert watched_engine.stats.degraded == in_engine.stats.degraded
        assert in_engine.stats.failures + in_engine.stats.degraded > 0
        assert watched_engine.stats.timeouts == 0
