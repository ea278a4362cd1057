"""Correctness gate: every operation's output is checked before it counts.

* Golden outcomes (``golden.json``) are keyed by operation kind, program
  and device, never by seed.  Each records the variant, the schedule
  (plan descriptions and content fingerprints), the exact TFLOPS bits
  and the number of evaluation requests.
* Every winning plan must certify clean (no RL3xx diagnostics).
* A winning schedule is replayed on a reduced-domain copy of the same
  program, with the same fission or fusion applied, and must equal the
  reference interpreter bit for bit.
* CLI commands must exit 0, match the golden outcome, and a resumed run
  must report the same winner as the fresh one.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Smallest extent of every axis of the reduced-domain replay.  Each axis
#: also spans the largest block of the schedule plus ``REPLAY_MARGIN``,
#: so every tiled axis has at least two blocks (one of them partial) and
#: values cross block boundaries.
MIN_REPLAY_EXTENT = 28
REPLAY_MARGIN = 8


def golden_key(program: str, device: str) -> str:
    return f"{program}@{device}"


def load_golden() -> Dict[str, Dict[str, dict]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# outcome summaries (what the golden file stores)
# ---------------------------------------------------------------------------


def optimize_summary(outcome) -> dict:
    from repro.tuning import plan_fingerprint

    schedule = outcome.schedule
    return {
        "variant": outcome.variant,
        "schedule": [
            [plan.describe(), count]
            for plan, count in zip(schedule.plans, schedule.counts)
        ],
        "fingerprints": [plan_fingerprint(p) for p in schedule.plans],
        "tflops_hex": float(outcome.tflops).hex(),
        "requests": outcome.eval_stats.requests,
    }


def deep_tune_summary(result, requests: int) -> dict:
    from repro.tuning import plan_fingerprint

    best = max(result.entries, key=lambda e: e.tflops)
    return {
        "variant": "deep-tune",
        "schedule": [
            [entry.time_tile, entry.measurement.plan.describe()]
            for entry in result.entries
        ],
        "fingerprints": [
            plan_fingerprint(entry.measurement.plan) for entry in result.entries
        ],
        "tflops_hex": float(best.tflops).hex(),
        "requests": requests,
    }


def cli_summary(payload: dict) -> dict:
    """The golden fields a ``repro optimize --json`` payload carries."""
    return {
        "variant": payload["variant"],
        "schedule": [[step["plan"], step["count"]] for step in payload["schedule"]],
        "tflops_hex": float(payload["tflops"]).hex(),
        "requests": payload["eval_stats"]["requests"],
    }


def compare_golden(
    kind: str, key: str, summary: dict, golden: Dict[str, Dict[str, dict]]
) -> List[str]:
    """Every field of the summary must equal the golden outcome's."""
    expected = golden.get(kind, {}).get(key)
    if expected is None:
        return [f"{kind} {key}: no golden outcome"]
    failures = []
    for field, value in summary.items():
        if expected.get(field) != value:
            failures.append(
                f"{kind} {key}: {field} is {value!r}, "
                f"golden {expected.get(field)!r}"
            )
    return failures


# ---------------------------------------------------------------------------
# certification and replay
# ---------------------------------------------------------------------------


def certify(ir, plans: Sequence) -> List[str]:
    from repro.lint import certify_plan_transformations

    return [
        f"{plan.describe()}: {diag.code} {diag.message}"
        for plan in plans
        for diag in certify_plan_transformations(ir, plan)
    ]


def shrink(ir, extent: int):
    """The same program with every array axis cut to ``extent``."""
    return ir.replace(
        arrays=tuple(
            dataclasses.replace(info, shape=(extent,) * info.ndim)
            for info in ir.arrays
        )
    )


def replay(
    source_ir,
    winner_ir,
    schedule,
    seed: int,
    iterations: Optional[int] = None,
) -> List[str]:
    """Run ``schedule`` on the reduced winner IR against the reference.

    ``source_ir`` is the program as written; ``winner_ir`` is the IR the
    schedule was tuned for (after any fission or fusion).  Inputs and
    scalars are drawn from ``seed``.
    """
    import numpy as np
    from repro.gpu.executor import (
        allocate_inputs,
        default_scalars,
        execute_program_plan,
        execute_reference,
    )

    extent = max(
        MIN_REPLAY_EXTENT,
        REPLAY_MARGIN + max(max(plan.block) for plan in schedule.plans),
    )
    source = shrink(source_ir, extent)
    winner = shrink(winner_ir, extent)
    steps = iterations if iterations is not None else source.time_iterations
    failures = []
    if source.is_iterative and schedule.total_time_steps() != steps:
        failures.append(
            f"schedule covers {schedule.total_time_steps()} steps, not {steps}"
        )
    inputs = allocate_inputs(source, seed=seed)
    # Scaled like the repo's semantics tests so long iterations stay finite.
    scalars = {
        name: 0.1 * value
        for name, value in default_scalars(source, seed=seed + 1).items()
    }
    reference = execute_reference(source, inputs, scalars, time_iterations=steps)
    got = execute_program_plan(winner, schedule, inputs, scalars)
    for name in source_ir.copyout:
        if not np.isfinite(reference[name]).all():
            failures.append(f"replay input seed {seed}: reference {name} not finite")
        elif reference[name].tobytes() != got[name].tobytes():
            failures.append(f"replay seed {seed}: {name} differs from the reference")
    return failures


def reference_schedule(result, iterations: int) -> Tuple[float, Tuple[int, ...]]:
    """opt(T) by the textbook recurrence, as an oracle for fusion_schedule."""
    k = min(result.k, iterations)
    cost = [result.f(x) for x in range(1, k + 1)]
    best = [0.0] + [float("inf")] * iterations
    choice = [0] * (iterations + 1)
    for t in range(1, iterations + 1):
        for x in range(1, min(k, t) + 1):
            total = cost[x - 1] + best[t - x]
            if total < best[t]:
                best[t] = total
                choice[t] = x
    tiles = []
    t = iterations
    while t > 0:
        tiles.append(choice[t])
        t -= choice[t]
    return best[iterations], tuple(reversed(tiles))


def check_schedule(result, schedule, iterations: int) -> List[str]:
    total, tiles = reference_schedule(result, iterations)
    if schedule.tiles != tiles or schedule.total_time_s != total:
        return [
            f"fusion_schedule(T={iterations}) gave {schedule.tiles} "
            f"({schedule.total_time_s!r} s), oracle {tiles} ({total!r} s)"
        ]
    return []


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------


def exit_failures(label: str, code: int, stderr: str) -> List[str]:
    if code == 0:
        return []
    last = stderr.strip().splitlines()[-1:] or [""]
    return [f"{label}: exit {code}: {last[0]}"]


def check_resume(program: str, fresh: dict, resumed: dict) -> List[str]:
    failures = []
    for field in ("variant", "tflops", "schedule"):
        if fresh.get(field) != resumed.get(field):
            failures.append(
                f"resume {program}: {field} {resumed.get(field)!r} "
                f"!= fresh {fresh.get(field)!r}"
            )
    return failures
