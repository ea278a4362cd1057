"""Analytical kernel simulator: counters + timing for a kernel plan.

Device-parametric: every resource limit, bandwidth and model knob comes
from the :class:`~repro.gpu.device.DeviceSpec` profile passed in (the
paper's P100 is the default; see ``docs/devices.md``).

The simulator plays the role of the paper's (GPU + nvprof) pair.  Every
quantity ARTEMIS's profiling and tuning logic consumes — FLOPs, DRAM
bytes, texture bytes, shared-memory bytes, registers, occupancy — is
derived *mechanistically* from the stencil IR and the kernel plan:

* FLOPs come from the statement ASTs times the points each fused stage
  computes per block (overlapped tiling recomputes halo points);
* texture bytes count the global-load instructions that actually execute
  (buffered arrays load their footprint once; gmem arrays load per
  distinct access, discounted by blocked-unroll register reuse), scaled
  by a 32-byte-sector coalescing factor;
* DRAM bytes separate unique first-touch traffic from re-touches, which
  hit in L2 with a probability set by the live working set vs. L2 size —
  this is what makes "global-stream" lose to "global" (Section VIII-F)
  and fusion pay off for bandwidth-bound smoothers (Table II);
* shared bytes count buffer fills, rotation traffic and served reads;
* register demand beyond ``maxrregcount`` spills, adding local-memory
  traffic (the §VIII-D fission story).

Timing applies a derated roofline — ``max`` over per-resource times with
occupancy-dependent saturation — plus an issue-latency term that binds
low-occupancy kernels, sync overhead and launch overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..codegen.plan import KernelPlan, PERSPECTIVE_OUTPUT
from ..codegen.tiling import (
    LaunchGeometry,
    Stage,
    build_stages,
    buffer_requirements,
    distinct_read_offsets,
    gmem_loads_per_point,
    intermediate_specs,
    launch_geometry,
    pingpong_pair,
    plan_family_key,
    points_computed,
    read_footprint,
    shmem_bytes_per_block,
)
from ..ir.analysis import access_patterns, access_summary, memoized
from ..ir.stencil import ProgramIR
from ..ir.types import sizeof
from ..obs import counter as _counter, metrics_enabled as _metrics_enabled
from ..obs import span as _span
from ..resilience.errors import InfeasiblePlanError
from .counters import KernelCounters, SimulationResult, TimingBreakdown
from .device import DeviceSpec, P100
from .occupancy import OccupancyResult, occupancy


class PlanInfeasible(InfeasiblePlanError):
    """Raised when a plan cannot launch on the device at all.

    Part of the :mod:`repro.resilience` taxonomy (and still a
    ``ValueError``, as in the seed implementation): tuners treat it as
    "candidate rejected", never as a crash.
    """


#: Spilled registers are stored and reloaded about once per computed
#: point; the traffic transits the L1/tex path (thrashing it) and is
#: backed by DRAM-resident local memory.  These module constants are the
#: P100 defaults, kept for backward compatibility — the model reads the
#: per-device values (``DeviceSpec.spill_access_rate``,
#: ``DeviceSpec.inter_block_l2_factor``).
SPILL_ACCESS_RATE = 1.0

#: L2 capture of cross-block halo reuse relative to same-block reuse.
INTER_BLOCK_L2_FACTOR = 0.5


#: Count of full `simulate` invocations since process start (or the last
#: reset).  The evaluation engine's regression tests and benchmarks use
#: this to prove memoization actually removes simulations.
_SIMULATE_CALLS = 0


def simulate_call_count() -> int:
    """Total :func:`simulate` invocations since start / last reset."""
    return _SIMULATE_CALLS


def reset_simulate_calls() -> int:
    """Zero the call counter, returning the previous value."""
    global _SIMULATE_CALLS
    previous = _SIMULATE_CALLS
    _SIMULATE_CALLS = 0
    return previous


@dataclass(frozen=True)
class PlanPrefix:
    """The register-independent prefix of a simulation.

    Everything here is a pure function of (IR, plan family): launch
    geometry, the fused stage list, buffer layouts, shared-memory bytes
    and uncapped register demand.  The four rungs of the register-
    escalation ladder (32/64/128/255) share one prefix; only occupancy,
    spill traffic and timing — the cheap suffix — depend on the cap.
    """

    geometry: LaunchGeometry
    stages: Tuple[Stage, ...]
    buffers: Dict[str, "object"]
    shmem: int
    reg_demand: int
    live_bytes_per_block: float
    intermediates: frozenset
    inter_by_consumer: Dict[Tuple[int, str], "object"]
    externally_visible: frozenset


def plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    """Register-independent analysis of a plan (memoized per family)."""
    return memoized(
        "sim_prefix",
        ir,
        lambda: _plan_prefix(ir, plan),
        key=plan_family_key(plan),
        observe="planning",
    )


def _plan_prefix(ir: ProgramIR, plan: KernelPlan) -> PlanPrefix:
    geometry = launch_geometry(ir, plan)
    stages = tuple(build_stages(ir, plan))
    buffers = buffer_requirements(ir, plan)
    shmem = shmem_bytes_per_block(ir, plan)
    from .registers import register_demand

    demand = register_demand(ir, plan)
    return PlanPrefix(
        geometry=geometry,
        stages=stages,
        buffers=buffers,
        shmem=shmem,
        reg_demand=demand,
        live_bytes_per_block=_live_bytes_per_block(
            ir, plan, geometry, stages, buffers
        ),
        intermediates=intermediate_arrays(ir, plan),
        inter_by_consumer={
            (spec.stage_index + 1, spec.array): spec
            for spec in intermediate_specs(ir, plan)
        },
        externally_visible=externally_visible(ir, plan),
    )


def plan_occupancy(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> OccupancyResult:
    """The launch-feasibility screen of :func:`simulate`, on its own.

    Computes occupancy from the memoized register-independent prefix
    plus the plan's register cap — the same arithmetic, raising the same
    :class:`PlanInfeasible`, as the corresponding step inside
    :func:`simulate`, but without paying for counters and timing.  The
    evaluation engine uses this to reject launch-infeasible candidates
    from the cheap suffix alone.
    """
    pre = plan_prefix(ir, plan)
    compiled = min(pre.reg_demand, plan.max_registers)
    try:
        return occupancy(
            device, pre.geometry.threads_per_block, compiled, pre.shmem
        )
    except ValueError as exc:
        if _metrics_enabled():
            _counter("simulate.prescreen_rejections").add()
            # Classify onto the stable lint rule code (RL201/202/203)
            # so dashboards and the evaluation engine agree on names.
            from ..lint.rules_plan import classify_occupancy_failure

            _counter(
                f"lint.reject.{classify_occupancy_failure(exc)}"
            ).add()
        context = dict(getattr(exc, "context", None) or {})
        raise PlanInfeasible(str(exc), **context) from exc


def simulate(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> SimulationResult:
    """Simulate one launch of ``plan`` over the whole domain."""
    global _SIMULATE_CALLS
    _SIMULATE_CALLS += 1
    if _metrics_enabled():
        _counter("simulate.calls").add()
    with _span("simulate"):
        pre = plan_prefix(ir, plan)
        regs = {
            "demand": pre.reg_demand,
            "compiled": min(pre.reg_demand, plan.max_registers),
        }
        occ = plan_occupancy(ir, plan, device)
        counters = _count(ir, plan, device, pre, regs, occ)
        timing = _time(ir, plan, device, pre.geometry, counters, occ)
        return SimulationResult(counters=counters, occupancy=occ, timing=timing)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


def _domain_points(geometry: LaunchGeometry) -> int:
    total = 1
    for extent in geometry.domain:
        total *= extent
    return total


def _count(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec,
    pre: PlanPrefix,
    regs: Dict[str, int],
    occ: OccupancyResult,
) -> KernelCounters:
    geometry = pre.geometry
    stages = pre.stages
    buffers = pre.buffers
    shmem = pre.shmem
    blocks = geometry.blocks
    domain_points = _domain_points(geometry)
    esize = 8  # evaluation suite is double precision; per-array dtype below

    flops = 0.0
    useful_flops = 0.0
    tex_bytes = 0.0
    dram_read = 0.0
    dram_write = 0.0
    shm_bytes = 0.0

    active_blocks = max(1, occ.blocks_per_sm * device.sms)
    working_set = active_blocks * max(pre.live_bytes_per_block, 1)
    p_intra = min(1.0, device.l2_cache_bytes / working_set)
    p_inter = device.inter_block_l2_factor * p_intra

    intermediates = pre.intermediates
    # Inter-stage buffer specs, keyed by (consumer stage index, array).
    inter_by_consumer = pre.inter_by_consumer

    externally_visible = pre.externally_visible

    for stage in stages:
        instance = stage.instance
        pts = points_computed(ir, plan, stage, geometry)
        flops += stage.flops_per_point * pts * blocks
        useful_flops += stage.flops_per_point * domain_points
        summary = access_summary(ir, instance)
        written_here = set(instance.arrays_written())

        for array, info in summary.items():
            if info.reads_total == 0:
                continue
            arr_esize = (
                sizeof(ir.array_map[array].dtype)
                if array in ir.array_map
                else esize
            )
            if array in written_here:
                # Produced by an earlier statement of this very kernel
                # (a fused DAG): staged on chip, read back through
                # shared memory, never through the texture path.
                shm_bytes += info.reads_distinct * pts * blocks * arr_esize
                continue
            if stage.index > 0 and array in intermediates:
                # Served from on-chip inter-stage buffers: shared-plane
                # reads cost shared bandwidth, register-plane reads are
                # free.  Retimed consumers read each finished plane's
                # in-plane offsets once.
                inter = inter_by_consumer.get((stage.index, array))
                if inter is not None:
                    served = (
                        inter.center_reads
                        if (inter.reg_planes > 0 or plan.retime)
                        else inter.total_reads
                    )
                    shm_bytes += served * pts * blocks * arr_esize
                continue
            spec = buffers.get(array)
            footprint = read_footprint(ir, plan, stage, geometry, array)
            if spec is not None and (spec.shm_planes > 0 or spec.reg_planes > 0):
                # Buffered: footprint loaded from global exactly once.
                loads = footprint * blocks
                tex_bytes += loads * arr_esize * _fill_coalescing(
                    ir, plan, geometry, stage, array,
                    device.dram_transaction_bytes,
                )
                dram_read += _dram_read(
                    loads * arr_esize,
                    footprint * blocks * arr_esize,
                    _unique_bytes(ir, array, arr_esize, plan),
                    p_intra,
                    p_inter,
                )
                shm_bytes += _buffered_shm_traffic(
                    ir, plan, stage, spec, info, pts, blocks, footprint, arr_esize
                )
            else:
                # Direct global (gmem) reads: one load per distinct access
                # per point, reduced by blocked-unroll register reuse.
                per_point = _gmem_loads_per_point(ir, plan, instance, array)
                loads = per_point * pts * blocks
                tex_bytes += loads * arr_esize * _gmem_coalescing(
                    ir, plan, instance, array
                )
                # Streaming without shared memory sweeps a long pencil and
                # keeps evicting the re-touched planes (paper §VIII-F).
                p_touch = p_intra
                if plan.uses_streaming:
                    p_touch *= device.stream_gmem_l2_capture
                dram_read += _dram_read(
                    loads * arr_esize,
                    footprint * blocks * arr_esize,
                    _unique_bytes(ir, array, arr_esize, plan),
                    p_touch,
                    p_inter,
                )

        # Stores: intermediates go to on-chip buffers; final / externally
        # visible arrays go to DRAM.
        for array in instance.arrays_written():
            arr_esize = (
                sizeof(ir.array_map[array].dtype)
                if array in ir.array_map
                else esize
            )
            writes = summary[array].writes if array in summary else 1
            if not stage.is_last and array in intermediates:
                inter = inter_by_consumer.get(
                    (stage.index + 1, _consumed_name(ir, plan, stage, array))
                )
                if inter is None or inter.shm_planes > 0:
                    shm_bytes += writes * pts * blocks * arr_esize
                continue
            if array not in externally_visible:
                # A value consumed only inside this launch (fused-DAG
                # temporary): staged in shared memory, never written out.
                shm_bytes += writes * pts * blocks * arr_esize
                continue
            dram_write += writes * domain_points * arr_esize

    # Register spills: stored to and reloaded from local memory (DRAM-
    # backed, read through the tex/L1 path).
    spilled = max(0, regs["demand"] - regs["compiled"])
    total_points = sum(
        points_computed(ir, plan, s, geometry) * blocks for s in stages
    )
    spill_bytes = spilled * device.spill_access_rate * 2 * esize * total_points
    tex_bytes += spill_bytes  # local-memory traffic transits L1/tex

    syncs = _sync_count(plan, geometry, stages, shmem)

    return KernelCounters(
        flops=flops,
        useful_flops=useful_flops,
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        tex_bytes=tex_bytes,
        shm_bytes=shm_bytes,
        spill_bytes=spill_bytes,
        blocks=blocks,
        threads_per_block=geometry.threads_per_block,
        regs_per_thread=regs["compiled"],
        regs_demand=regs["demand"],
        shmem_per_block=shmem,
        syncs=syncs,
    )


def _unique_bytes(
    ir: ProgramIR, array: str, esize: int, plan: Optional[KernelPlan] = None
) -> float:
    info = ir.array_map.get(array)
    if info is None and plan is not None:
        # Folded virtual arrays take their members' extent.
        for group in plan.fold_groups:
            if group.folded_name == array:
                info = ir.array_map.get(group.members[0])
                break
    if info is None:
        return 0.0
    return float(info.elements * esize)


def _dram_read(
    loaded_bytes: float,
    fill_bytes: float,
    unique_bytes: float,
    p_intra: float,
    p_inter: float,
) -> float:
    """DRAM read bytes given total loads, one-touch fill and unique data.

    First touches of unique data always come from DRAM.  The inter-block
    halo redundancy (fill - unique) hits L2 with probability ``p_inter``;
    same-block re-touches (loaded - fill) with probability ``p_intra``.
    """
    unique = min(unique_bytes, fill_bytes)
    inter_excess = max(0.0, fill_bytes - unique)
    intra_excess = max(0.0, loaded_bytes - fill_bytes)
    return (
        unique
        + inter_excess * (1.0 - p_inter)
        + intra_excess * (1.0 - p_intra)
    )


def _live_bytes_per_block(ir, plan, geometry, stages, buffers) -> float:
    """Bytes a block must keep cached for its gmem re-touches to hit L2.

    Under streaming, consecutive sweep steps re-touch the previous
    step's planes — the reuse distance is about one plane per directly-
    read (gmem) array.  On-chip-buffered arrays never re-touch, so they
    do not contribute.
    """
    total = 0.0
    for stage in stages:
        for array in stage.instance.arrays_read():
            info = ir.array_map.get(array)
            arr_esize = sizeof(info.dtype) if info is not None else 8
            spec = buffers.get(array)
            if spec is None or not spec.plane_elements:
                continue
            if spec.shm_planes > 0 or spec.reg_planes > 0:
                continue  # buffered: loaded once, no cache reliance
            total += spec.plane_elements * arr_esize
        break  # the first stage dominates the steady-state window
    return total


def externally_visible(ir: ProgramIR, plan: KernelPlan) -> frozenset:
    """Memoized :func:`_externally_visible` — reads only the kernel set,
    so every geometry/unroll/register variant shares one computation."""
    return memoized(
        "ext_visible",
        ir,
        lambda: frozenset(_externally_visible(ir, plan)),
        key=plan.kernel_names,
        observe="planning",
    )


def intermediate_arrays(ir: ProgramIR, plan: KernelPlan) -> frozenset:
    """Memoized :func:`_intermediate_arrays` (stage-structure keyed)."""
    return memoized(
        "inter_arrays",
        ir,
        lambda: frozenset(
            _intermediate_arrays(ir, plan, tuple(build_stages(ir, plan)))
        ),
        key=(plan.kernel_names, plan.time_tile, plan.fold_groups),
        observe="planning",
    )


def _externally_visible(ir: ProgramIR, plan: KernelPlan) -> set:
    """Arrays whose values must leave the launch: program outputs plus
    anything read by kernels outside this plan."""
    inside = set(plan.kernel_names)
    visible = set(ir.copyout)
    for kernel in ir.kernels:
        if kernel.name in inside:
            continue
        visible.update(kernel.arrays_read())
    # Iterative programs feed the ping-pong output back as next input;
    # other in-launch temporaries are recomputed every application.
    if ir.is_iterative:
        for kernel in ir.kernels:
            try:
                written, read = pingpong_pair(ir, kernel)
            except ValueError:
                visible.update(kernel.arrays_written())
                continue
            visible.add(written)
            visible.add(read)
    return visible


def _consumed_name(ir, plan, stage, written_array: str) -> str:
    """Name the next stage reads the written value under (ping-pong)."""
    if plan.time_tile > 1:
        _written, read = pingpong_pair(ir, stage.instance)
        return read
    return written_array


def _intermediate_arrays(ir, plan, stages) -> set:
    """Arrays passed between fused stages inside this launch."""
    if plan.time_tile > 1:
        written, read = pingpong_pair(ir, stages[0].instance)
        return {written, read}
    produced: set = set()
    intermediates: set = set()
    for stage in stages:
        for array in stage.instance.arrays_read():
            if array in produced:
                intermediates.add(array)
        produced.update(stage.instance.arrays_written())
    return intermediates


def _buffered_shm_traffic(
    ir, plan, stage, spec, info, pts, blocks, footprint, esize
) -> float:
    """Shared-memory bytes for a buffered array at one stage."""
    if spec.shm_planes == 0:
        return 0.0  # pure register buffering
    window = spec.shm_planes + spec.reg_planes
    fill_fraction = spec.shm_planes / window if window else 1.0
    stores = footprint * fill_fraction * blocks
    # Reads whose stream offset falls on a shared plane are served by
    # shared memory; register-plane reads are free.
    if plan.retime and plan.uses_streaming:
        # Retimed accumulation reads each arriving plane's in-plane
        # offsets once; the stream-axis spread collapses into register
        # accumulators (associative reordering).
        shm_reads_per_point = _inplane_distinct_reads(
            ir, stage, spec.array, plan.stream_axis
        )
        rotation = 0
    elif plan.uses_streaming and spec.reg_planes > 0:
        shm_reads_per_point = _center_plane_reads(ir, plan, stage, spec.array)
        # Rotation through the shared center plane: one load + one store
        # per point (Listing 2's shift phase).
        rotation = 2 * pts
    else:
        shm_reads_per_point = info.reads_distinct
        rotation = 0
    loads = shm_reads_per_point * pts
    return (stores + (loads + rotation) * blocks) * esize


def _inplane_distinct_reads(ir, stage, array, stream_axis: int) -> int:
    """Distinct read offsets with the stream component dropped."""

    def compute() -> int:
        seen = set()
        for pattern in access_patterns(ir, stage.instance):
            if pattern.array != array or pattern.is_write:
                continue
            inplane = tuple(
                offset
                for axis, offset in enumerate(pattern.axis_offsets)
                if axis != stream_axis
            )
            seen.add(inplane)
        return len(seen)

    return memoized(
        "inplane_reads", stage.instance, compute, key=(array, stream_axis),
        observe=None,
    )


def _center_plane_reads(ir, plan, stage, array) -> int:
    """Distinct read offsets in the stream axis's center plane."""
    stream_axis = plan.stream_axis

    def compute() -> int:
        count = 0
        seen = set()
        for pattern in access_patterns(ir, stage.instance):
            if pattern.array != array or pattern.is_write:
                continue
            if pattern.axis_offsets in seen:
                continue
            seen.add(pattern.axis_offsets)
            if pattern.axis_offsets[stream_axis] in (None, 0):
                count += 1
        return count

    return memoized(
        "center_reads", stage.instance, compute, key=(array, stream_axis),
        observe=None,
    )


_gmem_loads_per_point = gmem_loads_per_point
_distinct_read_offsets = distinct_read_offsets


def _fill_coalescing(ir, plan, geometry, stage, array, sector: int = 32) -> float:
    """Transaction inflation for a buffered tile fill.

    A warp filling a tile row of ``w`` bytes touches ``ceil(w/sector)``
    sectors (``sector`` = the device's DRAM transaction size), plus one
    extra when the row starts at a halo offset — the penalty the *mixed*
    perspective removes (Section III-B3).
    """
    x_axis = ir.ndim - 1
    row_elems = geometry.tile[x_axis]
    halo = stage.halo[x_axis]
    row_bytes = (row_elems + halo[0] + halo[1]) * 8
    sectors = math.ceil(row_bytes / sector)
    extra = 0
    if plan.perspective == PERSPECTIVE_OUTPUT and (halo[0] or halo[1]):
        extra = 2  # edge threads issue separate, uncoalesced halo loads
    return (sectors + extra) / max(1, math.ceil(row_elems * 8 / sector))


def _gmem_coalescing(ir, plan, instance, array) -> float:
    """Sector inflation for direct global reads (misaligned x offsets)."""
    offsets = _distinct_read_offsets(ir, instance, array)
    if not offsets:
        return 1.0
    x_axis = ir.ndim - 1
    misaligned = sum(
        1 for o in offsets if o[x_axis] not in (None, 0) and (o[x_axis] % 4) != 0
    )
    return 1.0 + 0.125 * (misaligned / len(offsets))


def _sync_count(plan, geometry, stages, shmem) -> float:
    if shmem <= 0:
        return 0.0
    per_step = 2.0 * len(stages)
    steps = geometry.sweep_length if plan.uses_streaming else 1
    return per_step * steps * geometry.blocks


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def _time(
    ir: ProgramIR,
    plan: KernelPlan,
    device: DeviceSpec,
    geometry: LaunchGeometry,
    counters: KernelCounters,
    occ: OccupancyResult,
) -> TimingBreakdown:
    occ_frac = occ.occupancy
    # Tail / starvation: too few blocks to fill the device.
    capacity = max(1, occ.blocks_per_sm * device.sms)
    concurrency = min(1.0, counters.blocks / capacity)

    sustained = device.sustained_fraction
    eff_dram = sustained * min(1.0, occ_frac / device.dram_saturation_occupancy)
    eff_tex = device.tex_sustained_fraction * min(
        1.0, occ_frac / device.tex_saturation_occupancy
    )
    # Shared memory bandwidth scales with active SM slices; it saturates
    # at lower occupancy than DRAM.
    eff_shm = sustained * min(
        1.0, occ_frac / (device.dram_saturation_occupancy / 2)
    )
    for value in (eff_dram, eff_tex, eff_shm):
        assert value >= 0

    eff_dram *= concurrency
    eff_tex *= concurrency
    eff_shm *= concurrency

    dram_s = counters.dram_bytes / (device.dram_bw_gbs * 1e9 * max(eff_dram, 1e-9))
    tex_s = counters.tex_bytes / (device.tex_bw_gbs * 1e9 * max(eff_tex, 1e-9))
    shm_s = counters.shm_bytes / (device.shm_bw_gbs * 1e9 * max(eff_shm, 1e-9))

    compute_s = counters.flops / (
        device.peak_gflops * 1e9 * sustained * max(concurrency, 1e-9)
    )

    latency_s = _latency_time(device, plan, counters, occ, concurrency)

    sync_s = (
        counters.syncs / max(1, capacity) * device.sync_cost_ns * 1e-9
        if counters.syncs
        else 0.0
    )
    launch_s = device.launch_overhead_us * 1e-6

    # Without prefetching, the streaming loop's synchronized phases
    # expose the next-plane load latency every iteration (Section
    # III-A4): the shift/load phase cannot overlap compute.
    bubble_s = 0.0
    if (
        plan.uses_streaming
        and counters.shmem_per_block > 0
        and not plan.prefetch
    ):
        bubble_s = 0.12 * max(tex_s, dram_s)

    return TimingBreakdown(
        compute_s=compute_s,
        dram_s=dram_s,
        tex_s=tex_s,
        shm_s=shm_s,
        sync_s=sync_s,
        latency_s=latency_s,
        launch_s=launch_s,
        bubble_s=bubble_s,
    )


def _latency_time(
    device: DeviceSpec,
    plan: KernelPlan,
    counters: KernelCounters,
    occ: OccupancyResult,
    concurrency: float,
) -> float:
    """Issue/dependency latency bound for low-occupancy kernels.

    Each warp's dependent instruction chain stalls for the arithmetic
    latency unless enough other warps (occupancy) or independent
    instructions (unrolling ILP, prefetching) cover it.
    """
    thread_ops = counters.flops + 0.5 * (
        counters.shm_bytes / 8.0 + counters.tex_bytes / 8.0
    )
    warp_insts = thread_ops / device.warp_size
    ilp = 1.0 + 0.4 * math.log2(max(1, plan.total_unroll()))
    if plan.prefetch:
        ilp += 0.3
    covering = max(1.0, occ.active_warps * ilp / device.latency_cover_warps)
    stall = device.arith_latency_cycles / covering
    cycles = warp_insts * max(1.0, stall)
    rate = device.sms * device.warp_schedulers * device.clock_ghz * 1e9
    return cycles / (rate * max(concurrency, 1e-9))
