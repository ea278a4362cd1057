"""Kernel fission for register-constrained stencil DAGs (paper §VI-B).

ARTEMIS generates three DSL specification versions from an input kernel:

1. **maxfuse** — all stencil functions over the same domain fused;
2. **trivial-fission** — each distinct output array in its own kernel,
   together with the backward slice of statements it needs (shared
   temporaries get replicated across kernels, as in Figure 3b/3c);
3. **recompute-fission** — outputs packed into kernels so that each
   kernel's recomputation halo stays ≤ max(4, r), where r is the largest
   stencil order among individual statements.

Every variant is materialized both as IR (for immediate tuning) and as
DSL source text (the paper writes fission candidates out as DSL files
the user may then optimize — Figure 3c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..dsl.ast import array_accesses, scalar_names
from ..ir.dag import statements_for_output
from ..ir.stencil import ProgramIR, StencilInstance
from .fusion import maxfuse


@dataclass(frozen=True)
class FissionCandidate:
    """One generated fission/fusion variant."""

    label: str  # maxfuse | trivial-fission | recompute-fission
    ir: ProgramIR
    dsl: str


def _slice_instance(
    instance: StencilInstance, indices: Sequence[int], name: str
) -> StencilInstance:
    statements = tuple(instance.statements[i] for i in indices)
    read = {a.name for s in statements for a in array_accesses(s.rhs)}
    written = {s.target for s in statements if not s.is_local}
    placements = tuple(
        (array, storage)
        for array, storage in instance.placements
        if array in read or array in written
    )
    return StencilInstance(
        name=f"{name}.0",
        stencil_name=name,
        statements=statements,
        placements=placements,
        pragma=instance.pragma,
    )


def trivial_fission(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[StencilInstance, ...]:
    """One kernel per distinct output array, slices replicated."""
    outputs = instance.arrays_written()
    if len(outputs) <= 1:
        return (instance,)
    kernels: List[StencilInstance] = []
    for index, output in enumerate(outputs):
        indices = statements_for_output(instance, output)
        kernels.append(
            _slice_instance(
                instance, indices, f"{instance.stencil_name}_{index}"
            )
        )
    return tuple(kernels)


def recompute_fission(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[StencilInstance, ...]:
    """Pack outputs while each kernel's recompute halo is ≤ max(4, r).

    The recomputation halo of a kernel grows when one of its outputs is
    consumed by another statement of the *same* kernel at a non-zero
    offset (the consumer must recompute a halo of the producer under
    overlapped tiling).  Outputs are packed greedily, in order, while the
    accumulated chained halo stays within the bound.
    """
    outputs = instance.arrays_written()
    if len(outputs) <= 1:
        return (instance,)
    r = _max_statement_order(ir, instance)
    bound = max(4, r)

    groups: List[List[str]] = []
    current: List[str] = []
    current_halo = 0
    for output in outputs:
        halo = _output_halo(ir, instance, output)
        chained = _consumes_prior_output(instance, output, current)
        added = halo if not chained else current_halo + halo
        if current and added > bound:
            groups.append(current)
            current = [output]
            current_halo = halo
        else:
            current.append(output)
            current_halo = max(current_halo, added)
    if current:
        groups.append(current)

    if len(groups) == 1:
        return (instance,)
    kernels: List[StencilInstance] = []
    for index, group in enumerate(groups):
        indices: Set[int] = set()
        for output in group:
            indices.update(statements_for_output(instance, output))
        kernels.append(
            _slice_instance(
                instance,
                sorted(indices),
                f"{instance.stencil_name}_rc{index}",
            )
        )
    return tuple(kernels)


def _max_statement_order(ir: ProgramIR, instance: StencilInstance) -> int:
    order = 0
    for stmt in instance.statements:
        for access in array_accesses(stmt.rhs):
            for idx in access.indices:
                if idx.single_iterator() is not None:
                    order = max(order, abs(idx.const))
    return order


def _output_halo(ir: ProgramIR, instance: StencilInstance, output: str) -> int:
    indices = statements_for_output(instance, output)
    halo = 0
    for i in indices:
        stmt = instance.statements[i]
        for access in array_accesses(stmt.rhs):
            for idx in access.indices:
                if idx.single_iterator() is not None:
                    halo = max(halo, abs(idx.const))
    return halo


def _consumes_prior_output(
    instance: StencilInstance, output: str, prior: Sequence[str]
) -> bool:
    indices = statements_for_output(instance, output)
    prior_set = set(prior)
    for i in indices:
        for access in array_accesses(instance.statements[i].rhs):
            if access.name in prior_set:
                return True
    return False


# ---------------------------------------------------------------------------
# DSL export (Figure 3c)
# ---------------------------------------------------------------------------


def export_dsl(ir: ProgramIR) -> str:
    """Render a (possibly fissioned) IR back to DSL source text."""
    lines: List[str] = []
    # Parameters: reconstruct named extents from array shapes.
    params: Dict[int, str] = {}
    names = iter("NLMPQRSTUV")
    decls: List[str] = []
    for info in ir.arrays:
        dims = []
        for extent in info.shape:
            if extent not in params:
                params[extent] = next(names)
            dims.append(params[extent])
        decls.append(f"{info.name}[{','.join(dims)}]")
    lines.append(
        "parameter "
        + ", ".join(f"{name}={extent}" for extent, name in params.items())
        + ";"
    )
    lines.append("iterator " + ", ".join(ir.iterators) + ";")
    scalar_decls = [name for name, _ in ir.scalars]
    lines.append("double " + ", ".join(decls + scalar_decls) + ";")
    if ir.copyin:
        lines.append("copyin " + ", ".join(ir.copyin) + ";")
    if ir.time_iterations > 1:
        lines.append(f"iterate {ir.time_iterations};")

    from ..dsl.printer import format_expr

    for instance in ir.kernels:
        signature_arrays = list(instance.io_arrays())
        used_scalars = _scalars_used(ir, instance)
        signature = signature_arrays + used_scalars
        lines.append(
            f"stencil {instance.stencil_name} ({', '.join(signature)}) {{"
        )
        if instance.placements:
            by_class: Dict[str, List[str]] = {}
            for array, storage in instance.placements:
                by_class.setdefault(storage, []).append(array)
            groups = ", ".join(
                f"{storage} ({', '.join(arrays)})"
                for storage, arrays in by_class.items()
            )
            lines.append(f"  #assign {groups}")
        for stmt in instance.statements:
            rhs = format_expr(stmt.rhs)
            lines.append(f"  {stmt.lhs} {stmt.op} {rhs};")
        lines.append("}")
        lines.append(
            f"{instance.stencil_name} ({', '.join(signature)});"
        )
    if ir.copyout:
        lines.append("copyout " + ", ".join(ir.copyout) + ";")
    return "\n".join(lines) + "\n"


def _scalars_used(ir: ProgramIR, instance: StencilInstance) -> List[str]:
    locals_ = {s.target for s in instance.statements if s.is_local}
    declared = set(ir.scalar_map)
    used: List[str] = []
    for stmt in instance.statements:
        for name in scalar_names(stmt.rhs):
            if name in declared and name not in locals_ and name not in used:
                used.append(name)
    return used


# ---------------------------------------------------------------------------
# candidate generation (the three DSL versions of Section VI-B)
# ---------------------------------------------------------------------------


def dedupe_candidates(
    candidates: Sequence[FissionCandidate],
) -> Tuple[FissionCandidate, ...]:
    """Drop candidates whose DSL text duplicates an earlier one.

    Trivial and recompute fission frequently produce the same kernel
    split (every output already in its own group); tuning the duplicate
    would double the evaluation cost for an identical result, so the
    pipeline prices each distinct DSL version once.
    """
    seen: Set[str] = set()
    unique: List[FissionCandidate] = []
    for candidate in candidates:
        if candidate.dsl in seen:
            continue
        seen.add(candidate.dsl)
        unique.append(candidate)
    return tuple(unique)


def generate_fission_candidates(
    ir: ProgramIR, search_log=None
) -> Tuple[FissionCandidate, ...]:
    """Produce the maxfuse / trivial-fission / recompute-fission variants.

    With a ``search_log`` (``repro.obs.search``) attached, the generated
    variants are recorded as one ``fission`` telemetry event, so explain
    reports can say which alternative program shapes the search priced.
    """
    from ..obs import span

    with span("fission", kernels=len(ir.kernels)):
        candidates = _generate_fission_candidates(ir)
    if search_log is not None:
        search_log.fission(candidates)
    return candidates


def _generate_fission_candidates(ir: ProgramIR) -> Tuple[FissionCandidate, ...]:
    candidates: List[FissionCandidate] = []

    fused_ir = maxfuse(ir)
    candidates.append(
        FissionCandidate(label="maxfuse", ir=fused_ir, dsl=export_dsl(fused_ir))
    )

    fused = fused_ir.kernels[0] if len(fused_ir.kernels) == 1 else None
    base = fused if fused is not None else ir.kernels[0]

    trivial = trivial_fission(ir, base)
    trivial_ir = ir.replace(kernels=trivial)
    candidates.append(
        FissionCandidate(
            label="trivial-fission", ir=trivial_ir, dsl=export_dsl(trivial_ir)
        )
    )

    recompute = recompute_fission(ir, base)
    recompute_ir = ir.replace(kernels=recompute)
    candidates.append(
        FissionCandidate(
            label="recompute-fission",
            ir=recompute_ir,
            dsl=export_dsl(recompute_ir),
        )
    )
    return tuple(candidates)
