"""Self-tests of the correctness gate: broken outputs must count as failures.

    python3 -m pytest perfbench/test_gate.py -q
"""

import dataclasses
import json
import math

import common

common.use_repro()

import pytest  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from repro.codegen import KernelPlan, ProgramPlan  # noqa: E402
from repro.gpu.device import get_device  # noqa: E402
from repro.suite import load_ir  # noqa: E402

P100 = get_device("P100")
REPLAY_SEED = 7


@pytest.fixture(scope="module")
def golden():
    return gate.load_golden()


@pytest.fixture(scope="module")
def miniflux():
    """A two-kernel program whose winner keeps both kernels."""
    ir, outcome = workloads.compile_program(workloads.get_spec("miniflux").dsl(), P100)
    assert len(outcome.schedule.plans) == 2
    return ir, outcome


def test_clean_winner_passes(miniflux, golden):
    ir, outcome = miniflux
    assert workloads.check_compile("miniflux", "P100", outcome, golden) == []
    assert gate.replay(ir, outcome.ir, outcome.schedule, REPLAY_SEED) == []


def test_corrupted_golden_outcome_is_a_failure(miniflux, golden):
    ir, outcome = miniflux
    key = gate.golden_key("miniflux", "P100")
    tflops = float.fromhex(golden["optimize"][key]["tflops_hex"])
    for field, value in (
        ("tflops_hex", math.nextafter(tflops, math.inf).hex()),
        ("requests", golden["optimize"][key]["requests"] + 1),
        ("variant", "global"),
    ):
        corrupted = json.loads(json.dumps(golden))
        corrupted["optimize"][key][field] = value
        failures = workloads.check_compile("miniflux", "P100", outcome, corrupted)
        assert any(field in f for f in failures), field
    del corrupted["optimize"][key]
    assert workloads.check_compile("miniflux", "P100", outcome, corrupted)


def test_swapped_launch_order_is_a_failure(miniflux, golden):
    """The consumer runs before its producer: golden and replay both catch it."""
    ir, outcome = miniflux
    schedule = outcome.schedule
    swapped = dataclasses.replace(
        outcome, schedule=ProgramPlan(plans=tuple(reversed(schedule.plans)))
    )
    failures = workloads.check_compile("miniflux", "P100", swapped, golden)
    assert any("schedule" in f for f in failures)
    failures = gate.replay(ir, swapped.ir, swapped.schedule, REPLAY_SEED)
    assert any("differs from the reference" in f for f in failures)


def test_illegal_fused_plan_is_refuted():
    """A plan fusing the two kernels in reverse order certifies RL301."""
    ir = load_ir("miniflux")
    plan = KernelPlan(
        kernel_names=("diff.0", "flux.0"), block=(8, 8), streaming="serial",
        stream_axis=0,
    )
    failures = gate.certify(ir, [plan])
    assert any("RL301" in f for f in failures)


def test_perturbed_fusion_schedule_is_a_failure():
    _, ir = workloads.prepare_iterative(workloads.get_spec("7pt-smoother").dsl())
    _, result, schedule = workloads.deep_tune_op(ir, P100, 9)
    assert gate.check_schedule(result, schedule, 9) == []
    worse = dataclasses.replace(schedule, tiles=(1,) * 9)
    assert gate.check_schedule(result, worse, 9)


def test_deferred_replay_failure_fails_its_operation_once():
    tally = workloads.Tally()
    index = tally.record(["golden mismatch"])
    replays = workloads.Replays()
    replays.add("p", index, lambda: ["replay mismatch"])
    replays.add("p", index, lambda: ["a second replay of p is skipped"])
    clean = tally.record([])
    replays.add("q", clean, lambda: ["replay mismatch"])
    replays.run(tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert len(tally.messages) == 3


def test_nonzero_cli_exit_is_a_failure(tmp_path, golden):
    code, stderr = workloads.run_subprocess(["optimize", "no-such-program"])
    assert code != 0
    assert gate.exit_failures("write no-such-program", code, stderr)

    def exits_two(argv):
        return 2, "error: injected\n"

    tally = workloads.Tally()
    workloads.run_cli_program(
        "27pt-smoother", tmp_path, exits_two, golden, tally, workloads.CliPass()
    )
    assert tally.attempted == 3 and tally.failed == 3
    assert all("exit 2" in m for m in tally.messages)


def test_benchmark_json_names_the_reported_metrics():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
