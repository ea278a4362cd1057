"""Kernel fusion at the IR level.

Fusing stencil instances concatenates their statements into one kernel
(renaming local temporaries to avoid collisions) — the *maxfuse* version
of Section VI-B fuses every stencil function operating on the same
domain.  Launch-level fusion of distinct instances (one kernel launch
covering several DAG stages with overlapped tiling) is expressed by a
:class:`~repro.codegen.plan.KernelPlan` with several ``kernel_names``;
the IR-level fusion here is what fission operates on and what gets
exported back to DSL text.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..dsl.ast import Name
from ..ir.stencil import ProgramIR, Statement, StencilInstance
from ..ir.transform import rename_symbols
from ..resilience.errors import UsageError


def fuse_instances(
    instances: Sequence[StencilInstance], name: str = "maxfuse"
) -> StencilInstance:
    """Concatenate instances into one kernel, uniquifying local scalars."""
    if not instances:
        raise UsageError("nothing to fuse")
    statements: List[Statement] = []
    placements: List[Tuple[str, str]] = []
    seen_placements: set = set()
    for index, instance in enumerate(instances):
        renames: Dict[str, str] = {}
        local_names = {s.target for s in instance.statements if s.is_local}
        if len(instances) > 1:
            renames = {local: f"s{index}_{local}" for local in local_names}
        for stmt in instance.statements:
            lhs = stmt.lhs
            if isinstance(lhs, Name) and lhs.id in renames:
                lhs = Name(renames[lhs.id])
            rhs = rename_symbols(stmt.rhs, renames) if renames else stmt.rhs
            statements.append(
                Statement(lhs=lhs, rhs=rhs, op=stmt.op, dtype=stmt.dtype)
            )
        for placement in instance.placements:
            if placement[0] not in seen_placements:
                seen_placements.add(placement[0])
                placements.append(placement)
    return StencilInstance(
        name=f"{name}.0",
        stencil_name=name,
        statements=tuple(statements),
        placements=tuple(placements),
        pragma=instances[0].pragma,
    )


def maxfuse(ir: ProgramIR, name: str = "maxfuse") -> ProgramIR:
    """Fuse all kernels over the same domain into one (maxfuse, §VI-B).

    Kernels are grouped by the shape of their written arrays; each group
    becomes a single fused kernel, preserving execution order across
    groups.
    """
    groups: List[List[StencilInstance]] = []
    group_shapes: List[Tuple[int, ...]] = []
    for instance in ir.kernels:
        written = instance.arrays_written()
        shape = ir.array_map[written[0]].shape if written else ()
        if group_shapes and group_shapes[-1] == shape:
            groups[-1].append(instance)
        else:
            groups.append([instance])
            group_shapes.append(shape)
    fused: List[StencilInstance] = []
    for index, group in enumerate(groups):
        label = name if len(groups) == 1 else f"{name}{index}"
        if len(group) == 1:
            fused.append(group[0])
        else:
            fused.append(fuse_instances(group, name=label))
    return ir.replace(kernels=tuple(fused))
