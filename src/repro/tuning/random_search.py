"""Budget-matched random search — the OpenTuner-style strawman (§V).

The paper contrasts hierarchical autotuning with generic search ("the
use of generic search strategies like genetic algorithms makes it
extremely time consuming": OpenTuner needed >24 h where hierarchical
tuning took <5 h).  This module implements an unbiased random sampler
over the *unpruned* configuration space so the comparison can be run
under an equal evaluation budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..codegen.plan import (
    KernelPlan,
    PERSPECTIVES,
    REGISTER_LEVELS,
    STREAM_CONCURRENT,
    STREAM_NONE,
    STREAM_SERIAL,
)
from ..codegen.resources import InvalidPlan
from ..gpu.device import DeviceSpec, P100
from ..gpu.simulator import PlanInfeasible
from ..ir.stencil import ProgramIR
from .evaluator import Measurement, PlanEvaluator

_BLOCK_CHOICES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_UNROLL_CHOICES = tuple(range(1, 17))


@dataclass(frozen=True)
class RandomSearchResult:
    best: Optional[Measurement]
    evaluations: int
    attempts: int
    infeasible: int


def _sample_plan(rng: random.Random, ir: ProgramIR, kernel_name: str) -> KernelPlan:
    streaming = rng.choice((STREAM_NONE, STREAM_SERIAL, STREAM_CONCURRENT))
    dims = ir.ndim - 1 if streaming != STREAM_NONE else ir.ndim
    block = tuple(rng.choice(_BLOCK_CHOICES) for _ in range(dims))
    unroll = tuple(rng.choice(_UNROLL_CHOICES) for _ in range(ir.ndim))
    placements: List[Tuple[str, str]] = []
    instance = ir.kernel(kernel_name)
    for array in instance.arrays_read():
        info = ir.array_map.get(array)
        if info is not None and info.ndim == ir.ndim and rng.random() < 0.5:
            placements.append((array, "shmem"))
    return KernelPlan(
        kernel_names=(kernel_name,),
        block=block,
        streaming=streaming,
        stream_axis=0,
        concurrent_chunks=rng.choice((1, 2, 4, 8))
        if streaming == STREAM_CONCURRENT
        else 1,
        unroll=unroll,
        prefetch=rng.random() < 0.5,
        perspective=rng.choice(PERSPECTIVES),
        placements=tuple(placements),
        max_registers=rng.choice(REGISTER_LEVELS),
    )


def random_search(
    ir: ProgramIR,
    kernel_name: str,
    budget: int,
    device: DeviceSpec = P100,
    seed: int = 0,
    evaluator: Optional[PlanEvaluator] = None,
) -> RandomSearchResult:
    """Sample ``budget`` configurations uniformly; keep the best.

    Mirrors an untuned generic search: most samples are infeasible
    (thread/shared-memory/register limits) or spill, which is exactly
    why unpruned spaces waste their budget.  Every sample counts one
    evaluation, feasible or not (a failed compile still costs a generic
    tuner its budget slot).  The whole budget is submitted as one batch
    through the shared evaluation engine, so same-family samples are
    priced together in one vectorized pass.
    """
    rng = random.Random(seed)
    engine = evaluator or PlanEvaluator(device=device)
    plans = [_sample_plan(rng, ir, kernel_name) for _ in range(budget)]
    # Generic search has no pruning model: broad ValueErrors from deep in
    # the geometry code count as failed compiles, not bugs.
    results = engine.evaluate_batch(
        ir,
        plans,
        catch=(PlanInfeasible, InvalidPlan, ValueError),
    )
    best: Optional[Measurement] = None
    infeasible = 0
    for plan, result in zip(plans, results):
        if result is None:
            infeasible += 1
            continue
        measurement = Measurement(
            plan=plan, time_s=result.time_s, tflops=result.tflops
        )
        if best is None or measurement.time_s < best.time_s:
            best = measurement
    return RandomSearchResult(
        best=best,
        evaluations=len(plans),
        attempts=len(plans),
        infeasible=infeasible,
    )
