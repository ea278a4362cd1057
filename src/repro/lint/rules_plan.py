"""Plan-level lint rules (``RL2xx``): kernel-plan legality prescreen.

:func:`check_plan` is the full catalog pass used by ``repro lint`` and
tests; :func:`plan_rejection` is the fast short-circuit verdict the
evaluation engine reaches before simulating a candidate (first error wins),
and :func:`classify_occupancy_failure` maps the occupancy model's
structured :class:`~repro.resilience.errors.InfeasiblePlanError` context
onto stable rule codes so the simulator's prescreen rejections and the
lint CLI speak the same language.

Resource feasibility (shmem capacity, register file, thread limits) is
delegated to the same :func:`~repro.gpu.simulator.plan_occupancy`
arithmetic the simulator itself runs — the lint layer adds *structural*
rules (transformation legality, time tiling, streaming unroll) and
classification, never a second resource model that could drift.
"""

from __future__ import annotations

from typing import List, Optional

from ..codegen.plan import KernelPlan
from ..ir.stencil import ProgramIR
from .diagnostics import Diagnostic, ERROR, INFO, WARNING, rule

RL201 = rule(
    "RL201", "shmem-capacity", ERROR,
    "the plan's shared-memory footprint exceeds the device's per-block "
    "or per-SM capacity",
)
RL202 = rule(
    "RL202", "thread-limit", ERROR,
    "the thread block exceeds the device's threads-per-block limit",
)
RL203 = rule(
    "RL203", "register-file", ERROR,
    "the plan's register demand exceeds the per-thread limit or admits "
    "zero blocks per SM",
)
RL204 = rule(
    "RL204", "plan-invalid", ERROR,
    "the plan is structurally illegal for this program "
    "(unknown kernel, illegal retiming or register placement)",
)
RL205 = rule(
    "RL205", "overtile", WARNING,
    "a block tile (threads x unroll) exceeds the domain extent along "
    "some axis — part of every block is idle",
)
RL207 = rule(
    "RL207", "time-tile-non-iterative", ERROR,
    "the plan applies time tiling to a non-iterative program",
)
RL208 = rule(
    "RL208", "unroll-indivisible", WARNING,
    "a tile extent does not divide the domain extent — remainder "
    "blocks run partially masked",
)
RL209 = rule(
    "RL209", "stream-axis-unroll", ERROR,
    "the plan unrolls the streaming axis (the serial sweep advances "
    "one plane at a time)",
)
RL210 = rule(
    "RL210", "stream-lookahead", INFO,
    "a fused consumer reads a produced intermediate ahead of the "
    "streaming sweep front",
)


def _plan_artifact(plan: KernelPlan) -> str:
    return "plan(" + ",".join(plan.kernel_names) + ")"


def classify_occupancy_failure(exc: BaseException) -> str:
    """Map an occupancy/prescreen failure onto a stable rule code.

    Reads the structured ``context`` carried by the resilience taxonomy
    (falling through to ``__cause__`` for wrapped errors).  Unknown
    shapes classify as RL202 — a launch-geometry problem is the most
    common root cause.
    """
    context = {}
    for err in (exc, getattr(exc, "__cause__", None)):
        ctx = getattr(err, "context", None)
        if ctx:
            context = ctx
            break
    if "threads" in context:
        return RL202.code
    if "shmem_bytes" in context:
        return RL201.code
    if "registers" in context:
        return RL203.code
    limiter = context.get("limiter")
    if limiter == "shmem":
        return RL201.code
    if limiter == "registers":
        return RL203.code
    return RL202.code


_OCCUPANCY_RULES = {RL201.code: RL201, RL202.code: RL202, RL203.code: RL203}


def _count_rejection(code: str) -> None:
    """``lint.reject.<code>`` counter for prescreen rejections.

    Resource codes are counted at the occupancy layer itself (see
    :func:`repro.gpu.simulator.plan_occupancy`); this helper covers the
    structural/validation codes that never reach it.
    """
    from ..obs import counter, metrics_enabled

    if metrics_enabled():
        counter(f"lint.reject.{code}").add()


def _shape_findings(
    ir: ProgramIR, plan: KernelPlan
) -> List[Diagnostic]:
    """RL207/RL209 — nonsensical plan shapes.

    Catalog-only: the pricing model accepts and prices these shapes, so
    the evaluation engine must too (its contract is bit-for-bit
    equivalence with the direct ``validate_plan`` + ``simulate`` path);
    ``check_plan`` and the CLI flag them as errors.
    """
    artifact = _plan_artifact(plan)
    out: List[Diagnostic] = []

    if plan.time_tile > 1 and not ir.is_iterative:
        out.append(
            Diagnostic(
                RL207,
                f"plan time-tiles {plan.time_tile} steps but the program "
                "is single-sweep (no 'iterate' clause)",
                artifact=artifact,
            )
        )

    if plan.uses_streaming and plan.unroll_factor(plan.stream_axis) > 1:
        axis = plan.stream_axis
        name = ir.iterators[axis] if axis < ir.ndim else str(axis)
        out.append(
            Diagnostic(
                RL209,
                f"plan streams along axis {axis} ({name}) but also "
                f"unrolls it x{plan.unroll_factor(axis)}",
                artifact=artifact,
            )
        )
    return out


def _fusion_findings(
    ir: ProgramIR, plan: KernelPlan
) -> List[Diagnostic]:
    """Transformation legality, certified (RL3xx).

    Every transformation the plan encodes is proven against exact
    dependence distances and refutations come back as RL301-RL304 with
    counterexample witnesses (:mod:`repro.lint.rules_transform`).  With
    the certifier off (``certification_disabled()``) no legality check
    runs at all.

    Unlike the shape rules this one *does* reject in the engine: a
    fused launch that runs a consumer before its producer prices
    meaningless dataflow, and no tuner ever generates one.
    """
    from .rules_transform import certifier_enabled, certify_plan_transformations

    if certifier_enabled():
        return certify_plan_transformations(ir, plan)
    return []


def _resource_findings(
    ir: ProgramIR, plan: KernelPlan, device
) -> List[Diagnostic]:
    """RL201/RL202/RL203 via the simulator's own occupancy arithmetic."""
    from ..gpu.simulator import PlanInfeasible, plan_occupancy

    try:
        plan_occupancy(ir, plan, device)
    except PlanInfeasible as exc:
        code = classify_occupancy_failure(exc)
        return [
            Diagnostic(
                _OCCUPANCY_RULES[code],
                str(exc),
                artifact=_plan_artifact(plan),
            )
        ]
    return []


def _advisory_findings(
    ir: ProgramIR, plan: KernelPlan
) -> List[Diagnostic]:
    """RL205/RL208/RL210 — legal but noteworthy plan shapes."""
    artifact = _plan_artifact(plan)
    out: List[Diagnostic] = []
    try:
        domain = ir.domain_shape()
    except ValueError:
        return out

    for axis in plan.tiled_axes(ir.ndim):
        tile = plan.tile_extent(axis, ir.ndim)
        extent = domain[axis]
        if tile > extent:
            out.append(
                Diagnostic(
                    RL205,
                    f"tile of {tile} points along axis {axis} "
                    f"({ir.iterators[axis]}) exceeds the domain extent "
                    f"{extent} — {tile - extent} of every block's points "
                    "are wasted",
                    artifact=artifact,
                )
            )
        elif extent % tile != 0:
            out.append(
                Diagnostic(
                    RL208,
                    f"tile of {tile} points along axis {axis} "
                    f"({ir.iterators[axis]}) does not divide the domain "
                    f"extent {extent} — the last block runs "
                    f"{tile - extent % tile} masked lanes",
                    artifact=artifact,
                )
            )

    if plan.uses_streaming and len(plan.kernel_names) > 1:
        out.extend(_lookahead_findings(ir, plan, artifact))

    from .rules_transform import certification_advisories, certifier_enabled

    if certifier_enabled():
        out.extend(certification_advisories(ir, plan))
    return out


def _lookahead_findings(
    ir: ProgramIR, plan: KernelPlan, artifact: str
) -> List[Diagnostic]:
    from ..ir.analysis import read_halos

    out: List[Diagnostic] = []
    produced: set = set()
    for name in plan.kernel_names:
        try:
            instance = ir.kernel(name)
        except KeyError:
            return out
        halos = read_halos(ir, instance)
        for array in instance.arrays_read():
            if array not in produced:
                continue
            per_axis = halos.get(array)
            if per_axis is None or plan.stream_axis >= len(per_axis):
                continue
            hi = per_axis[plan.stream_axis][1]
            if hi > 0:
                out.append(
                    Diagnostic(
                        RL210,
                        f"fused kernel {name!r} reads intermediate "
                        f"{array!r} {hi} plane(s) ahead of the streaming "
                        "sweep — the generator must delay the consumer "
                        f"by {hi} iteration(s)",
                        artifact=artifact,
                    )
                )
        produced.update(instance.arrays_written())
    return out


def check_plan(
    ir: ProgramIR,
    plan: KernelPlan,
    device=None,
    assume_validated: bool = False,
):
    """Run the full plan-rule catalog; returns a ``LintReport``.

    ``assume_validated`` skips the RL204 ``validate_plan`` pass when the
    caller (e.g. the evaluation engine) has already run it.
    """
    from ..gpu.device import P100
    from .diagnostics import LintReport

    if device is None:
        device = P100
    artifact = _plan_artifact(plan)
    findings: List[Diagnostic] = []

    # Transformation certification first: RL3xx refutations explain *why*
    # a plan is illegal (with a witness), and they must surface even for
    # shapes whose stage construction ``validate_plan`` refuses outright
    # (e.g. a multi-kernel time tile).
    findings.extend(_fusion_findings(ir, plan))

    if not assume_validated:
        from ..codegen.resources import InvalidPlan, validate_plan

        try:
            validate_plan(ir, plan)
        except InvalidPlan as exc:
            findings.append(
                Diagnostic(RL204, str(exc), artifact=artifact)
            )
            return LintReport(tuple(findings), artifact=artifact)

    findings.extend(_shape_findings(ir, plan))
    if not findings:
        findings.extend(_resource_findings(ir, plan, device))
    findings.extend(_advisory_findings(ir, plan))
    return LintReport(tuple(findings), artifact=artifact)


def fusion_rejection(ir: ProgramIR, plan: KernelPlan) -> Optional[Diagnostic]:
    """The structural (grid-independent) half of :func:`plan_rejection`.

    Transformation legality depends only on family-stable plan fields
    (``kernel_names``, ``time_tile``, ``streaming``, ``stream_axis``,
    ``concurrent_chunks``, ``retime``) — never on the block shape,
    unroll factors or register cap — so the evaluation engine probes it
    once per plan *family* and reuses the finding (an RL3xx
    certification refutation) for every lane, instead of re-certifying
    per candidate.  (The per-candidate ``lint.reject.*`` counter still
    fires at rejection time, not here.)
    """
    fusion = _fusion_findings(ir, plan)
    return fusion[0] if fusion else None


def plan_rejection(
    ir: ProgramIR,
    plan: KernelPlan,
    device=None,
    assume_validated: bool = True,
) -> Optional[Diagnostic]:
    """First error-severity finding for a plan, or None if launchable.

    The evaluation engine's prescreen verdict for one plan: cheap
    structural rules first, then the memoized occupancy arithmetic
    (the engine itself runs the structural half once per family and
    reads the occupancy half off the priced lane).  Advisory (warning/info)
    rules never reject — they cannot change which plan wins, only how
    fast the search converges, so the tuners handle them separately.
    """
    from ..gpu.device import P100

    if device is None:
        device = P100
    if not assume_validated:
        from ..codegen.resources import InvalidPlan, validate_plan

        try:
            validate_plan(ir, plan)
        except InvalidPlan as exc:
            _count_rejection(RL204.code)
            return Diagnostic(
                RL204, str(exc), artifact=_plan_artifact(plan)
            )
    fusion = _fusion_findings(ir, plan)
    if fusion:
        _count_rejection(fusion[0].code)
        return fusion[0]
    resource = _resource_findings(ir, plan, device)
    if resource:
        return resource[0]
    return None
