"""Per-thread register demand estimation.

NVCC's allocator is not modeled instruction-by-instruction; instead the
estimate sums the structurally necessary register classes a generated
stencil kernel holds live:

* a base cost for thread/block indices and array base pointers;
* expression temporaries — scaling with the widest statement and the
  number of live scalar temporaries (the dominant cost for the paper's
  "complex" stencils, which is what makes them register-constrained);
* streaming window planes held in registers (Listing 2's
  ``in_reg_m1``/``in_reg_p1``), per unroll point;
* accumulators (one per output per unroll point; retiming widens this to
  the full stream window per output — that is the register/memory
  balance trade of Section III-B2);
* prefetch staging registers (Section III-A4).

Demand beyond ``maxrregcount`` spills to local memory; the simulator
charges the spill traffic.
"""

from __future__ import annotations

from typing import Dict

from ..codegen.plan import GMEM, KernelPlan
from ..codegen.tiling import (
    build_stages,
    buffer_requirements,
    intermediate_specs,
    plan_family_key,
    stream_window,
)
from ..dsl.ast import array_accesses
from ..ir.analysis import access_summary, memoized
from ..ir.stencil import ProgramIR, StencilInstance

#: Fixed cost: threadIdx/blockIdx math, guards, base pointers, constants.
BASE_REGISTERS = 14

#: Cap on the expression-temporary estimate: beyond this the compiler
#: rematerializes rather than keeping everything live.  The cap sits
#: above the device's 255-register ceiling on purpose: kernels whose
#: demand exceeds it spill (the §VIII-D maxfuse case).
EXPR_TEMP_CAP = 320

#: Fraction of a kernel's distinct reads the allocator keeps live at
#: once: NVCC interleaves the sub-expressions of *all* statements, so
#: pressure grows with total statement volume, not just the widest one.
LIVE_READ_FRACTION = 0.45


def expression_registers(instance: StencilInstance) -> int:
    """Registers for live scalar temporaries and expression evaluation."""
    return memoized(
        "expr_regs", instance, lambda: _expression_registers(instance)
    )


def _expression_registers(instance: StencilInstance) -> int:
    n_locals = len(instance.local_statements())
    widest = 0
    total_distinct = 0
    for stmt in instance.statements:
        distinct = {str(a) for a in array_accesses(stmt.rhs)}
        widest = max(widest, len(distinct))
        total_distinct += len(distinct)
    # The allocator keeps roughly half the widest statement's operands
    # live, or a fraction of the whole kernel's reads when the scheduler
    # interleaves many wide statements — whichever is larger — plus one
    # register per scalar temporary.
    pressure = max(widest // 2, int(LIVE_READ_FRACTION * total_distinct), 2)
    return min(n_locals + pressure, EXPR_TEMP_CAP)


def register_demand(ir: ProgramIR, plan: KernelPlan) -> int:
    """Estimated registers per thread for a plan, before capping.

    The estimate never reads ``plan.max_registers`` — demand is a
    property of the plan *family*, which is what lets the evaluation
    engine collapse the register-escalation ladder to a single
    simulation (the cap is applied afterwards by
    :func:`compiled_registers`).  Memoized per (IR, plan family).
    """
    return memoized(
        "reg_demand",
        ir,
        lambda: _register_demand(ir, plan),
        key=plan_family_key(plan),
        observe="planning",
    )


def _register_demand(ir: ProgramIR, plan: KernelPlan) -> int:
    stages = build_stages(ir, plan)
    buffers = buffer_requirements(ir, plan)

    demand = BASE_REGISTERS
    demand += max(expression_registers(s.instance) for s in stages)

    # Unroll points computed by each thread on the tiled (non-stream) axes.
    unroll_points = plan.total_unroll()

    # Streaming window planes held in registers, per array, per unroll pt
    # — both external input windows and inter-stage value windows.
    reg_planes = sum(spec.reg_planes for spec in buffers.values())
    reg_planes += sum(spec.reg_planes for spec in intermediate_specs(ir, plan))
    demand += reg_planes * unroll_points

    # Accumulators: one per output array per unroll point.  Retiming
    # keeps a full stream-window of partial sums per output *per stage*
    # (every fused application is mid-flight simultaneously) — the
    # register/memory balance trade of Section III-B2.
    if plan.retime and plan.uses_streaming:
        accumulators = 0
        for stage in stages:
            window = 1
            for array in stage.instance.arrays_read():
                lo, hi = stream_window(ir, stage.instance, array, plan.stream_axis)
                window = max(window, lo + hi + 1)
            accumulators += len(stage.instance.arrays_written()) * window
        demand += accumulators * unroll_points
    else:
        outputs = set()
        for stage in stages:
            outputs.update(stage.instance.arrays_written())
        demand += len(outputs) * unroll_points

    # Prefetch staging registers: one per array fetched from global.
    if plan.prefetch:
        fetched = [
            name
            for name, spec in buffers.items()
            if spec.storage != GMEM or spec.reg_planes > 0
        ]
        demand += max(len(fetched), 1)

    # Blocked unrolling keeps neighbouring loads live for reuse.  For
    # buffered arrays that costs a couple of shuffle registers; for
    # *global-memory* arrays the merged load set of the whole unroll
    # group stays live in registers — this is exactly why "remedial loop
    # unrolling ... is impossible without incurring expensive spills"
    # for the register-constrained spatial stencils (Section VIII-C).
    if unroll_points > 1 and plan.unroll_blocked:
        demand += 2 * (unroll_points - 1)
        from ..codegen.tiling import gmem_loads_per_point

        live_loads = 0.0
        for stage in stages:
            stage_loads = 0.0
            for array in stage.instance.arrays_read():
                spec = buffers.get(array)
                if spec is None or (
                    spec.shm_planes == 0 and spec.reg_planes == 0
                ):
                    stage_loads += gmem_loads_per_point(
                        ir, plan, stage.instance, array
                    )
            live_loads = max(live_loads, stage_loads)
        demand += int(live_loads * unroll_points * 0.5)

    return demand


def compiled_registers(ir: ProgramIR, plan: KernelPlan) -> Dict[str, int]:
    """Demand and the post-cap register count ({'demand', 'compiled'})."""
    demand = register_demand(ir, plan)
    return {"demand": demand, "compiled": min(demand, plan.max_registers)}
