"""Transformation certification rules (``RL3xx``).

Every transformation a :class:`~repro.codegen.plan.KernelPlan` encodes —
fusion groups, time tiling, streaming, retiming — is *certified* against
the exact dependence distances of :mod:`repro.lint.dependence`, or
refuted with a concrete :class:`~repro.lint.dependence.Witness` (a grid
point plus the pair of reference-executor events whose values the broken
schedule confuses; :func:`repro.lint.witness.replay_witness` confirms
the divergence numerically).

The certifier is **pure in the plan**: every field it reads
(``kernel_names``, ``time_tile``, ``streaming``, ``stream_axis``,
``concurrent_chunks``, ``retime``) is part of the structural family key,
so the evaluation engine probes it once per family, and memo-cache
replays, separate processes and the CLI all derive byte-identical
diagnostics for the same plan.

Conservatism contract: the certifier may *refute* a plan the block-tiled
executor would in fact compute correctly (it refuses to assume the
generator's cross-chunk recompute overlap), but it must never *accept* a
plan whose executor output diverges from the reference — the Hypothesis
differential suite enforces exactly that asymmetry.

Scope notes (winner-stability guarantees):

* tuners only emit single-kernel launches (program-level fusion happens
  in the IR via ``maxfuse``), so the cross-kernel rules RL301/RL303/
  RL304 can never reject a tuner-generated candidate;
* single-kernel time tiling is certified via the same
  :func:`~repro.codegen.tiling.pingpong_pair` probe the pricing model
  itself requires, so anything the model prices, the certifier accepts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

from ..codegen.plan import STREAM_CONCURRENT, KernelPlan
from ..ir.stencil import ProgramIR
from .dependence import (
    ANTI,
    FLOW,
    DependenceEdge,
    Witness,
    edges_between,
    interposed_kernels,
    kernel_dependences,
)
from .diagnostics import Diagnostic, ERROR, INFO, rule

RL301 = rule(
    "RL301", "illegal-fusion", ERROR,
    "the fused launch orders kernels against a dependence edge, or fuses "
    "across a kernel that must run between its members",
)
RL302 = rule(
    "RL302", "illegal-time-tile", ERROR,
    "the launch time-tiles an iterative program it cannot replay: "
    "multiple fused instances, or no ping-pong pair to carry steps",
)
RL303 = rule(
    "RL303", "illegal-stream", ERROR,
    "concurrent streaming chunks race on a cross-kernel dependence with "
    "nonzero or unknown distance along the streamed axis",
)
RL304 = rule(
    "RL304", "retiming-violation", ERROR,
    "retiming cannot reconcile the fused kernels: a cross-kernel "
    "dependence has unknown distance along the streamed axis, so no "
    "finite consumer delay is correct",
)
RL305 = rule(
    "RL305", "fusion-unprofitable", INFO,
    "the fused kernels share no dependence — fusion is legal but "
    "exploits no producer-consumer reuse",
)

#: Process-global certifier switch.  On by default; the overhead
#: benchmark flips it off to measure a run with no legality check.
_ENABLED = True


def certifier_enabled() -> bool:
    return _ENABLED


def set_certification_enabled(on: bool) -> bool:
    """Flip the certifier; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


@contextmanager
def certification_disabled():
    """Run a block with no transformation-legality check at all."""
    previous = set_certification_enabled(False)
    try:
        yield
    finally:
        set_certification_enabled(previous)


# ---------------------------------------------------------------------------
# witness construction (deterministic, geometry-only: no execution here)
# ---------------------------------------------------------------------------


def _representative(edge: DependenceEdge):
    """One distance vector for messages/witnesses: fully-known first."""
    for vector in edge.distances:
        if None not in vector:
            return vector
    return edge.distances[0] if edge.distances else ()


def _witness_point(
    ir: ProgramIR, array: str, stream_axis: Optional[int] = None,
    stream_coord: Optional[int] = None,
) -> Tuple[int, ...]:
    """A deterministic interior cell of ``array`` (domain centre), with
    an optional pinned coordinate along the streamed axis."""
    shape = ir.array_map[array].shape
    point = [extent // 2 for extent in shape]
    if stream_axis is not None and stream_axis < len(point):
        coord = point[stream_axis] if stream_coord is None else stream_coord
        point[stream_axis] = max(0, min(shape[stream_axis] - 1, coord))
    return tuple(point)


def _event_pair(edge: DependenceEdge) -> Tuple[Tuple[int, str], Tuple[int, str]]:
    """(required, observed) reference events whose values differ.

    The writer kernel of the dependence changes ``array[point]``; the
    refuted schedule reads the cell on the wrong side of that write.
    """
    if edge.kind == FLOW:
        return (0, f"after:{edge.source}"), (0, f"before:{edge.source}")
    if edge.kind == ANTI:
        return (0, f"before:{edge.sink}"), (0, f"after:{edge.sink}")
    return (0, f"after:{edge.sink}"), (0, f"after:{edge.source}")


def _edge_witness(
    ir: ProgramIR,
    edge: DependenceEdge,
    note: str,
    stream_axis: Optional[int] = None,
    stream_coord: Optional[int] = None,
) -> Witness:
    required, observed = _event_pair(edge)
    distance = _representative(edge)
    axis = stream_axis
    return Witness(
        array=edge.array,
        point=_witness_point(ir, edge.array, stream_axis, stream_coord),
        source=edge.source,
        sink=edge.sink,
        kind=edge.kind,
        axis=axis,
        distance=tuple(distance),
        required_event=required,
        observed_event=observed,
        note=note,
    )


def _time_tile_witness(ir: ProgramIR, kernel: str, note: str) -> Witness:
    """Step-0-vs-step-1 witness: a time-tiled launch must reproduce two
    reference applications; the broken launch re-reads step 0's input."""
    from ..gpu.executor import program_pingpong

    try:
        array, _ = program_pingpong(ir)
    except ValueError:
        array = ir.kernels[-1].arrays_written()[-1]
    last = ir.kernels[-1].name
    return Witness(
        array=array,
        point=_witness_point(ir, array),
        source=kernel,
        sink=kernel,
        kind=FLOW,
        axis=None,
        distance=(),
        required_event=(1, f"after:{last}"),
        observed_event=(0, f"after:{last}"),
        note=note,
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _artifact(plan: KernelPlan) -> str:
    return "plan(" + ",".join(plan.kernel_names) + ")"


def certify_plan_transformations(
    ir: ProgramIR, plan: KernelPlan
) -> List[Diagnostic]:
    """Error-severity refutations (RL301-RL304), at most one per rule.

    Plans naming unknown kernels return no findings — that is RL204's
    (``validate_plan``'s) territory and certification would only guess.
    """
    try:
        for name in plan.kernel_names:
            ir.kernel(name)
    except KeyError:
        return []
    artifact = _artifact(plan)
    out: List[Diagnostic] = []

    finding = _certify_fusion(ir, plan, artifact)
    if finding is not None:
        out.append(finding)
    finding = _certify_time_tile(ir, plan, artifact)
    if finding is not None:
        out.append(finding)
    finding = _certify_streaming(ir, plan, artifact)
    if finding is not None:
        out.append(finding)
    finding = _certify_retiming(ir, plan, artifact)
    if finding is not None:
        out.append(finding)
    return out


def _certify_fusion(
    ir: ProgramIR, plan: KernelPlan, artifact: str
) -> Optional[Diagnostic]:
    names = plan.kernel_names
    if len(names) <= 1:
        return None
    position = {name: index for index, name in enumerate(names)}
    for edge in edges_between(ir, names):
        if position[edge.sink] < position[edge.source]:
            witness = _edge_witness(
                ir,
                edge,
                note=(
                    f"stage order runs {edge.sink!r} before "
                    f"{edge.source!r}, so the {edge.kind} dependence "
                    f"through {edge.array!r} reads the wrong side of the "
                    "write"
                ),
            )
            return Diagnostic(
                RL301,
                f"plan fuses {edge.sink!r} before {edge.source!r}, but "
                f"the {edge.kind} dependence through {edge.array!r} "
                f"(distance {_fmt(_representative(edge))}) requires "
                f"{edge.source!r} to run first",
                artifact=artifact,
                witness=witness,
            )
    for a, outsider, b in interposed_kernels(ir, names):
        edge = _first_outgoing(ir, outsider)
        witness = None
        if edge is not None:
            witness = _edge_witness(
                ir,
                edge,
                note=(
                    f"the launch excludes {outsider!r}, so fused "
                    f"consumers observe {edge.array!r} on the wrong side "
                    f"of {outsider!r}'s update no matter where the "
                    "launch is scheduled"
                ),
            )
        return Diagnostic(
            RL301,
            f"plan fuses {a!r} with {b!r}, but kernel {outsider!r} must "
            "run between them — no launch schedule can interleave an "
            "excluded kernel inside a fused launch",
            artifact=artifact,
            witness=witness,
        )
    return None


def _first_outgoing(ir: ProgramIR, kernel: str) -> Optional[DependenceEdge]:
    for edge in kernel_dependences(ir):
        if edge.source == kernel or edge.sink == kernel:
            return edge
    return None


def _certify_time_tile(
    ir: ProgramIR, plan: KernelPlan, artifact: str
) -> Optional[Diagnostic]:
    if plan.time_tile <= 1 or not ir.is_iterative:
        # Non-iterative time tiling is RL207's catalog-only territory:
        # the pricing model prices it, so certification stays silent.
        return None
    if len(plan.kernel_names) > 1:
        witness = _time_tile_witness(
            ir,
            plan.kernel_names[0],
            note=(
                f"time tiling x{plan.time_tile} replicates a single "
                "instance; a multi-kernel launch has no single stage to "
                "replicate, so step 1 re-reads step 0's input"
            ),
        )
        return Diagnostic(
            RL302,
            f"plan time-tiles {plan.time_tile} steps over "
            f"{len(plan.kernel_names)} fused kernels — temporal "
            "replication applies to exactly one instance",
            artifact=artifact,
            witness=witness,
        )
    from ..codegen.tiling import pingpong_pair

    instance = ir.kernel(plan.kernel_names[0])
    try:
        pingpong_pair(ir, instance)
    except ValueError:
        witness = _time_tile_witness(
            ir,
            instance.name,
            note=(
                f"kernel {instance.name!r} has no ping-pong input, so "
                "the fused second application cannot consume the first's "
                "output"
            ),
        )
        return Diagnostic(
            RL302,
            f"plan time-tiles {plan.time_tile} steps but kernel "
            f"{instance.name!r} has no ping-pong pair to carry values "
            "between fused applications",
            artifact=artifact,
            witness=witness,
        )
    return None


def _certify_streaming(
    ir: ProgramIR, plan: KernelPlan, artifact: str
) -> Optional[Diagnostic]:
    if (
        plan.streaming != STREAM_CONCURRENT
        or plan.concurrent_chunks <= 1
        or len(plan.kernel_names) <= 1
    ):
        return None
    axis = plan.stream_axis
    if axis >= ir.ndim:
        return None  # RL204's territory
    for edge in edges_between(ir, plan.kernel_names):
        if edge.kind != FLOW:
            continue
        components = edge.axis_distances(axis)
        if any(c is None or c != 0 for c in components):
            extent = ir.domain_shape()[axis]
            boundary = extent // plan.concurrent_chunks
            witness = _edge_witness(
                ir,
                edge,
                note=(
                    f"chunks sweep axis {axis} independently; at the "
                    f"chunk boundary plane {boundary} the consumer's "
                    "read crosses into a chunk whose producer plane is "
                    "not yet written"
                ),
                stream_axis=axis,
                stream_coord=boundary,
            )
            shown = next(
                (c for c in components if c is None or c != 0), None
            )
            return Diagnostic(
                RL303,
                f"plan streams {plan.concurrent_chunks} concurrent "
                f"chunks along axis {axis} ({ir.iterators[axis]}), but "
                f"the flow dependence {edge.source!r} -> {edge.sink!r} "
                f"through {edge.array!r} has "
                f"{'unknown' if shown is None else f'distance {shown}'} "
                "along that axis — chunk boundaries race",
                artifact=artifact,
                witness=witness,
            )
    return None


def _certify_retiming(
    ir: ProgramIR, plan: KernelPlan, artifact: str
) -> Optional[Diagnostic]:
    if not plan.retime or len(plan.kernel_names) <= 1:
        return None
    if not plan.uses_streaming:
        return None  # RL204: retiming requires streaming
    axis = plan.stream_axis
    if axis >= ir.ndim:
        return None
    for edge in edges_between(ir, plan.kernel_names):
        if edge.kind != FLOW:
            continue
        if edge.has_unknown(axis):
            extent = ir.domain_shape()[axis]
            witness = _edge_witness(
                ir,
                edge,
                note=(
                    "retiming delays the consumer by the dependence "
                    f"distance along axis {axis}, but the subscript is "
                    "not uniform there — no constant delay reads the "
                    "right plane at every sweep position"
                ),
                stream_axis=axis,
                stream_coord=extent - 1,
            )
            return Diagnostic(
                RL304,
                f"plan retimes the fused launch along axis {axis} "
                f"({ir.iterators[axis]}), but the flow dependence "
                f"{edge.source!r} -> {edge.sink!r} through "
                f"{edge.array!r} has unknown distance along that axis — "
                "no finite consumer delay is correct",
                artifact=artifact,
                witness=witness,
            )
    return None


def certification_advisories(
    ir: ProgramIR, plan: KernelPlan
) -> List[Diagnostic]:
    """RL305 — legal-but-unprofitable fusion (never rejects)."""
    names = plan.kernel_names
    if len(names) <= 1:
        return []
    try:
        for name in names:
            ir.kernel(name)
    except KeyError:
        return []
    if edges_between(ir, names):
        return []
    return [
        Diagnostic(
            RL305,
            f"fused kernels {', '.join(repr(n) for n in names)} share no "
            "dependence — fusion is legal but saves no intermediate "
            "traffic",
            artifact=_artifact(plan),
        )
    ]


def _fmt(vector) -> str:
    return "(" + ",".join("?" if d is None else str(d) for d in vector) + ")"
