"""The two global-memory reference generators of Section VIII-F.

* ``global`` — tiles all three dimensions, reads everything through the
  texture path, no shared memory.  Thread-block sizes are autotuned.
* ``global-stream`` — streams along the slowest-varying dimension but
  still uses no shared memory.  The paper highlights that this version
  surprisingly *loses* to plain tiling: streaming without on-chip
  buffering wrecks L2 locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..codegen.plan import KernelPlan, ProgramPlan, STREAM_NONE, STREAM_SERIAL
from ..codegen.generator import schedule_tflops
from ..gpu.device import DeviceSpec, P100
from ..ir.stencil import ProgramIR
from ..tuning.evaluator import PlanEvaluator
from ..tuning.hierarchical import HierarchicalTuner


@dataclass(frozen=True)
class BaselineResult:
    """Performance of one baseline generator on one program."""

    label: str
    tflops: float
    schedule: Optional[ProgramPlan]
    supported: bool = True
    reason: str = ""


def _tuned_schedule(
    ir: ProgramIR,
    seed: KernelPlan,
    device: DeviceSpec,
    use_unrolling: bool = True,
    evaluator: Optional[PlanEvaluator] = None,
) -> ProgramPlan:
    plans: List[KernelPlan] = []
    for instance in ir.kernels:
        base = seed.replace(kernel_names=(instance.name,))
        tuner = HierarchicalTuner(
            ir, device=device, use_unrolling=use_unrolling,
            evaluator=evaluator,
        )
        plans.append(tuner.tune(base).best_plan)
    return ProgramPlan(plans=tuple(plans))


def run_global(
    ir: ProgramIR,
    device: DeviceSpec = P100,
    evaluator: Optional[PlanEvaluator] = None,
) -> BaselineResult:
    """Tuned 3-D tiled global-memory version."""
    seed = KernelPlan(
        kernel_names=(ir.kernels[0].name,),
        block=(4, 4, 16),
        streaming=STREAM_NONE,
    )
    schedule = _tuned_schedule(ir, seed, device, evaluator=evaluator)
    return BaselineResult(
        label="global",
        tflops=schedule_tflops(ir, schedule, device),
        schedule=schedule,
    )


def run_global_stream(
    ir: ProgramIR,
    device: DeviceSpec = P100,
    evaluator: Optional[PlanEvaluator] = None,
) -> BaselineResult:
    """Tuned streaming global-memory version (no shared memory)."""
    seed = KernelPlan(
        kernel_names=(ir.kernels[0].name,),
        block=(16, 16),
        streaming=STREAM_SERIAL,
        stream_axis=0,
    )
    schedule = _tuned_schedule(ir, seed, device, evaluator=evaluator)
    return BaselineResult(
        label="global-stream",
        tflops=schedule_tflops(ir, schedule, device),
        schedule=schedule,
    )
