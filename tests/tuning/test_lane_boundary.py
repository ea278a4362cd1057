"""What a caller can observe of a screened or priced candidate.

The engine keeps a family's candidates as lane arrays and builds a
``PlanInfeasible`` or ``SimulationResult`` only where a caller looks.
These tests pin what the caller sees at each such place against the
strings and numbers of the per-candidate engine: the exception raised at
the public ``evaluate`` boundary and again by a memo hit, the search-log
``reason`` of every event, and every suite winner's result.
"""

import dataclasses
import time

import pytest

from repro.codegen import seed_plan_from_pragma
from repro.codegen.plan import REGISTER_LEVELS, KernelPlan
from repro.dsl import parse
from repro.gpu.device import get_device
from repro.gpu.pricing import MIN_FAMILY
from repro.gpu.registers import register_demand
from repro.gpu.simulator import PlanInfeasible
from repro.ir import build_ir
from repro.obs.search import SearchLog
from repro.pipeline import optimize
from repro.suite import BENCHMARK_ORDER, load_ir
from repro.tuning.evaluator import PlanEvaluator

P100 = get_device("P100")

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

RL301_MESSAGE = (
    "[RL301] plan fuses 'consume.0' before 'produce.0', but the flow "
    "dependence through 'T' (distance (-1,0,0)) requires 'produce.0' to "
    "run first"
)
RL301_WITNESS = (
    "T[32,32,32] must hold its value at step 0 after:produce.0 but the "
    "transformed schedule observes step 0 before:produce.0"
)
RL202_MESSAGE = "[RL202] block of 2048 threads exceeds device limit 1024"
RL201_MESSAGE = (
    "[RL201] block needs 68640 B shared memory, device allows 49152 B "
    "per block"
)


def _smoother():
    ir = load_ir("7pt-smoother")
    return ir, seed_plan_from_pragma(ir, ir.kernels[0])


def _cases():
    ir, base = _smoother()
    fused_ir = build_ir(parse(PRODUCER_CONSUMER))
    return {
        "RL202": (
            ir, base.replace(block=(64, 32)), RL202_MESSAGE,
            {"rule": "RL202"},
        ),
        "RL201": (
            ir,
            base.replace(
                block=(64, 16), unroll=(1, 1, 8),
                placements=(("in", "shmem"),),
            ),
            RL201_MESSAGE,
            {"rule": "RL201"},
        ),
        "RL301": (
            fused_ir,
            KernelPlan(("consume.0", "produce.0"), block=(32, 16)),
            RL301_MESSAGE,
            {"rule": "RL301", "witness": RL301_WITNESS},
        ),
    }


@pytest.mark.parametrize("label", ["RL202", "RL201", "RL301"])
def test_evaluate_boundary_raises_the_same_exception(label):
    ir, plan, message, context = _cases()[label]
    log = SearchLog(device=P100)
    engine = PlanEvaluator(device=P100, search_log=log)
    with pytest.raises(PlanInfeasible) as first:
        engine.evaluate(ir, plan)
    assert str(first.value) == message
    assert first.value.context == context
    assert first.value.context["rule"] == label
    assert first.value.context.get("witness") == context.get("witness")
    assert engine.try_evaluate(ir, plan) is None
    with pytest.raises(PlanInfeasible) as again:
        engine.evaluate(ir, plan)
    assert str(again.value) == str(first.value)
    assert again.value.context == first.value.context
    assert type(again.value) is type(first.value)
    events = [e for e in log._events if e["kind"] == "candidate"]
    assert [(e["disposition"], e["reason"]) for e in events] == [
        ("screened", message),
        ("cache-hit-infeasible", message),
        ("cache-hit-infeasible", message),
    ]
    assert engine.stats.requests == 3
    assert engine.stats.screened == engine.stats.lint_rejections == 1


SIBLING_BLOCKS = ((32, 16), (16, 16), (16, 8), (32, 8))


def _family_batch(ir, plan):
    """``plan`` at its spill-free rung, first in a batch of its family
    large enough to be priced as lanes."""
    demand = register_demand(ir, plan)
    plan = plan.replace(
        max_registers=next(lv for lv in REGISTER_LEVELS if demand <= lv)
    )
    siblings = [plan.replace(block=b) for b in SIBLING_BLOCKS]
    batch = [plan] + [p for p in siblings if p.block != plan.block]
    assert len(batch) >= MIN_FAMILY
    return plan, batch


@pytest.mark.parametrize("label", ["RL202", "RL201", "RL301"])
def test_lane_built_exception_matches_the_boundary(label):
    # The batch screens the plan as a lane, so the memo holds a lane
    # reference; ``evaluate`` then re-raises the exception that lane
    # builds, which must be the one a per-candidate request raises.
    ir, plan, message, context = _cases()[label]
    plan, batch = _family_batch(ir, plan)
    log = SearchLog(device=P100)
    engine = PlanEvaluator(device=P100, search_log=log)
    found = engine.evaluate_spill_free_batch(ir, batch)
    assert found[0] is None
    assert engine.stats.screened >= 1
    entry = engine._cache[engine._key(ir, plan)][1]
    assert type(entry) is not tuple  # a lane reference, built on read
    with pytest.raises(PlanInfeasible) as hit:
        engine.evaluate(ir, plan)
    assert type(hit.value) is PlanInfeasible
    assert str(hit.value) == message
    assert hit.value.context == context
    assert hit.value.context["rule"] == label
    assert hit.value.context.get("witness") == context.get("witness")
    assert engine.try_evaluate(ir, plan) is None
    with pytest.raises(PlanInfeasible) as again:
        engine.evaluate(ir, plan)
    assert again.value is hit.value
    events = [
        (e["disposition"], e["reason"])
        for e in log._events
        if e["kind"] == "candidate" and e["plan"] == plan.describe()
    ]
    assert events == [("screened", message)] + [
        ("cache-hit-infeasible", message)
    ] * 3


def test_on_result_is_not_billed_as_engine_time():
    ir, base = _smoother()
    plans = [base.replace(block=b) for b in SIBLING_BLOCKS]
    delay = 0.05
    seen = []

    def on_result(index, plan, outcome, error):
        seen.append(index)
        time.sleep(delay)

    engine = PlanEvaluator(device=P100)
    engine.evaluate_spill_free_batch(ir, plans, on_result=on_result)
    assert seen == list(range(len(plans)))
    assert engine.stats.vectorized == len(plans)  # priced as lanes
    assert 0 < engine.stats.wall_s < delay * len(plans) / 2
    assert 0 < engine.stats.cpu_s < delay * len(plans) / 2


BATCH_EVENTS = [
    ("simulated", "block=32x16", "", "regs<=32", None),
    ("simulated", "block=32x16", "unroll=1x1x8 ", "regs<=64", None),
    ("simulated", "block=32x16", "unroll=1x2x4 ", "regs<=64", None),
    ("screened", "block=64x32", "", "regs<=32", RL202_MESSAGE),
    ("screened", "block=64x32", "unroll=1x1x8 ", "regs<=64", RL202_MESSAGE),
    ("screened", "block=64x32", "unroll=1x2x4 ", "regs<=64", RL202_MESSAGE),
    ("simulated", "block=64x16", "", "regs<=32", None),
    ("screened", "block=64x16", "unroll=1x1x8 ", "regs<=64", RL201_MESSAGE),
    ("screened", "block=64x16", "unroll=1x2x4 ", "regs<=64", RL201_MESSAGE),
    ("simulated", "block=16x8", "", "regs<=32", None),
    ("simulated", "block=16x8", "unroll=1x1x8 ", "regs<=64", None),
    ("simulated", "block=16x8", "unroll=1x2x4 ", "regs<=64", None),
]

BATCH_TIMES = [
    "0.005596005545955485", "0.005427410504977194", "0.005406630456250221",
    None, None, None,
    "0.005549250436319796", None, None,
    "0.005876536203769624", "0.007254639483384017", "0.008396542647714863",
]


def _batch(**engine_kwargs):
    ir, base = _smoother()
    base = base.replace(placements=(("in", "shmem"),))
    plans = [
        base.replace(block=block, unroll=unroll)
        for block in ((32, 16), (64, 32), (64, 16), (16, 8))
        for unroll in ((1, 1, 1), (1, 1, 8), (1, 2, 4))
    ]
    log = SearchLog(device=P100)
    engine = PlanEvaluator(device=P100, search_log=log, **engine_kwargs)
    found = engine.evaluate_spill_free_batch(ir, plans)
    events = [
        (e["disposition"], e["plan"], e.get("reason"))
        for e in log._events
        if e["kind"] == "candidate"
    ]
    return found, events, engine.stats


@pytest.mark.parametrize(
    "engine_kwargs", [{}, {"timeout_s": 60.0}], ids=["lanes", "guarded"]
)
def test_batch_reasons_and_results(engine_kwargs):
    found, events, stats = _batch(**engine_kwargs)
    expected = [
        (disposition, f"smooth7.0 {block} stream=serial@0 {unroll}shm(in) "
         f"{regs}", reason)
        for disposition, block, unroll, regs, reason in BATCH_EVENTS
    ]
    assert events == expected
    times = [None if o is None else repr(o[1].time_s) for o in found]
    assert times == BATCH_TIMES
    assert (stats.requests, stats.screened) == (12, 5)
    assert stats.lint_rejections == stats.screened
    assert (stats.infeasible, stats.rungs_skipped) == (5, 8)


def _fields(value):
    """Every leaf of a result, floats by ``repr``."""
    if dataclasses.is_dataclass(value):
        return tuple(
            (f.name, _fields(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, float):
        return repr(value)
    return value


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_winner_results_match_seed_mode(name):
    engine = PlanEvaluator(device=P100)
    outcome = optimize(load_ir(name), device=P100, evaluator=engine)
    for plan in outcome.schedule.plans:
        hits = engine.stats.hits
        got = engine.evaluate(outcome.ir, plan)
        assert engine.stats.hits == hits + 1, plan.describe()
        reference = PlanEvaluator.seed_mode(P100).evaluate(outcome.ir, plan)
        assert _fields(got) == _fields(reference), plan.describe()
