"""Every way of driving the single-process search reaches one answer.

A search runs in one process through one batch loop.  The knobs that
remain change *how* that loop runs, never *what* it finds:

* an ``eval_timeout`` watchdog runs each evaluation off the caller's
  thread — same winner, same TFLOPS bits, same request count;
* scalar pricing instead of the vectorized family pricer — same outcome;
* a checkpoint journal records the run, and a fresh engine resuming
  from it replays the identical winner without a single new request;
* the search log accounts for every request the engine billed.

Each guarantee is checked on every suite program through the full
``optimize`` flow on P100 (which sweeps the smoothers' fusion degrees
there), and on the fusion-degree sweep of every single-smoother program
on every other registered device.
"""

import pytest

from repro import suite
from repro.gpu.device import device_names, get_device
from repro.gpu.pricing import scalar_pricing
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.resilience import TuningJournal
from repro.tuning import PlanEvaluator, deep_tune

#: Iterative programs with one smoother kernel: the ones ``deep_tune``
#: sweeps directly (``denoise`` reaches it only through ``optimize``).
SMOOTHERS = ("7pt-smoother", "27pt-smoother", "helmholtz")

#: Devices besides P100, whose sweeps run inside the optimize tests.
OTHER_DEVICES = tuple(name for name in device_names() if name != "P100")

#: Generous enough never to fire: the watchdog thread must run every
#: evaluation without abandoning one.
TIMEOUT_S = 60.0


def _outcome_view(outcome):
    """Everything a user sees of an ``optimize`` winner, bit-exact."""
    return {
        "variant": outcome.variant,
        "schedule": [
            (plan.describe(), count)
            for plan, count in zip(
                outcome.schedule.plans, outcome.schedule.counts
            )
        ],
        "tflops": repr(outcome.tflops),
        "evaluations": outcome.evaluations,
    }


def _sweep_view(result):
    """Every value a deep-tuning entry carries, for exact comparison."""
    return (
        [
            (
                entry.time_tile,
                entry.measurement.plan,
                entry.measurement.time_s,
                entry.measurement.tflops,
                entry.bandwidth_bound,
                entry.bound_level,
            )
            for entry in result.entries
        ],
        result.evaluations,
    )


@pytest.fixture(scope="module", params=suite.BENCHMARK_ORDER)
def reference(request):
    """Default single-process ``optimize`` of one program on P100."""
    ir = suite.load_ir(request.param)
    engine = PlanEvaluator()
    outcome = optimize(ir, evaluator=engine)
    return ir, _outcome_view(outcome), engine.stats.requests


class TestOptimizeParity:
    def test_watchdog_thread_matches_in_thread(self, reference):
        ir, expected, requests = reference
        engine = PlanEvaluator(timeout_s=TIMEOUT_S)
        outcome = optimize(ir, evaluator=engine)
        assert _outcome_view(outcome) == expected
        assert engine.stats.requests == requests
        assert engine.stats.timeouts == 0

    def test_scalar_pricing_matches_vectorized(self, reference):
        ir, expected, requests = reference
        engine = PlanEvaluator()
        with scalar_pricing():
            outcome = optimize(ir, evaluator=engine)
        assert _outcome_view(outcome) == expected
        assert engine.stats.requests == requests

    def test_resume_replays_identical_winner_for_free(
        self, reference, tmp_path
    ):
        ir, expected, _ = reference
        path = str(tmp_path / "journal.jsonl")
        with TuningJournal(path, device="P100") as journal:
            recorded = optimize(ir, evaluator=PlanEvaluator(), journal=journal)
        assert _outcome_view(recorded) == expected
        with TuningJournal(path, device="P100") as journal:
            assert journal.replayable > 0
            engine = PlanEvaluator()
            resumed = optimize(ir, evaluator=engine, journal=journal)
        assert _outcome_view(resumed) == expected
        assert engine.stats.requests == 0

    def test_search_log_accounts_every_request(self, reference):
        ir, expected, requests = reference
        log = SearchLog()
        engine = PlanEvaluator(search_log=log)
        outcome = optimize(ir, evaluator=engine)
        assert _outcome_view(outcome) == expected
        assert log.candidate_count() == engine.stats.requests == requests
        (winner,) = [e for e in log.events() if e["kind"] == "winner"]
        assert winner["variant"] == expected["variant"]


@pytest.fixture(
    scope="module",
    params=[
        (name, device) for name in SMOOTHERS for device in OTHER_DEVICES
    ],
    ids=lambda case: "-".join(case),
)
def sweep(request):
    """Default single-process fusion-degree sweep on one device."""
    name, device = request.param
    ir = suite.load_ir(name)
    spec = get_device(device)
    engine = PlanEvaluator(device=spec)
    result = deep_tune(ir, device=spec, evaluator=engine)
    return ir, spec, _sweep_view(result), engine.stats.requests


class TestDeepTuneParity:
    def test_watchdog_thread_matches_in_thread(self, sweep):
        ir, spec, expected, requests = sweep
        engine = PlanEvaluator(device=spec, timeout_s=TIMEOUT_S)
        result = deep_tune(ir, device=spec, evaluator=engine)
        assert _sweep_view(result) == expected
        assert engine.stats.requests == requests

    def test_resume_replays_every_degree_for_free(self, sweep, tmp_path):
        ir, spec, expected, _ = sweep
        path = str(tmp_path / "deep.jsonl")
        with TuningJournal(path, device=spec.name) as journal:
            recorded = deep_tune(
                ir,
                device=spec,
                evaluator=PlanEvaluator(device=spec),
                journal=journal,
            )
        assert _sweep_view(recorded) == expected
        with TuningJournal(path, device=spec.name) as journal:
            engine = PlanEvaluator(device=spec)
            resumed = deep_tune(
                ir, device=spec, evaluator=engine, journal=journal
            )
        assert _sweep_view(resumed) == expected
        assert engine.stats.requests == 0
