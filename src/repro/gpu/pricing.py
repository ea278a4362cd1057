"""Vectorized plan-family pricing: the analytical model over a lane axis.

The scalar :func:`repro.gpu.simulator.simulate` prices one plan at a
time.  Its arithmetic splits into a *register-independent prefix*
(geometry, stages, buffer layouts, shared memory, register demand) and a
*cheap suffix* (occupancy, spill traffic, counters, timing).  Both
halves branch only on the plan's **structure** — which kernels are
fused, streaming mode and axis, retiming, placements, perspective
(:func:`repro.codegen.tiling.plan_structural_key`) — while the grid
knobs the tuners sweep (block tile, unroll factors, ``unroll_blocked``,
``max_registers``) only change the *numbers* flowing through a fixed
expression DAG.

This module exploits that: :class:`FamilyStructure` captures every
branch decision and structural constant once per (IR, structural key),
and :func:`price_family` then evaluates the whole model as NumPy array
operations over an ``(N_candidates,)`` lane axis — occupancy, spill
traffic and timing in one shot.

:func:`price` is the evaluation engine's one entry point: per
structural family it picks this family pass or the scalar model
(:func:`price_plan`), whichever the family's size makes cheaper.

Bitwise parity with the scalar path is a hard contract (the evaluation
engine's winners must be byte-identical), so the implementation mirrors
the scalar code's *exact* operation order:

* integer quantities (tiles, footprints, plane elements, register
  demand, shared bytes) are computed in ``int64`` — exact, and well
  below overflow for realistic grids;
* float accumulators (flops, tex/dram/shm bytes) are built as ordered
  term lists and summed sequentially in the scalar emission order, so
  every f8 rounding step matches;
* per-lane branches that the scalar code takes (buffer-winner
  selection, register-vs-shared served reads, sync/bubble gating) are
  evaluated with masks; branches that depend only on structure are
  resolved once at :class:`FamilyStructure` build time;
* the occupancy screen classifies every lane into an RL2xx code array
  in the scalar check order; only a lane whose message is read goes
  back to the scalar :func:`repro.gpu.occupancy.occupancy` call, which
  reproduces the exact exception message and context.

A pass returns :class:`PricedLanes`: the model's outputs as columns over
the lane axis.  ``lanes[i]`` builds lane ``i``'s :class:`PricedLane` on
demand, and its :class:`~repro.gpu.counters.SimulationResult` equals
(``==``, field for field) what ``simulate`` returns.  The lanes
themselves are a :class:`LaneGrid` — the grid axes as columns — so a
caller sweeping a block x unroll space never builds a plan per lane.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..codegen.plan import (
    GMEM,
    KernelPlan,
    PERSPECTIVE_INPUT,
    PERSPECTIVE_OUTPUT,
    STREAM_CONCURRENT,
)
from ..codegen.tiling import (
    Stage,
    _array_indexes_axis,
    build_stages,
    distinct_read_offsets,
    is_star_along,
    launch_geometry,
    pingpong_pair,
    plan_structural_key,
    stream_window,
)
from ..ir.analysis import access_summary, memoized, read_halos
from ..ir.stencil import ProgramIR, StencilInstance
from ..ir.types import sizeof
from ..obs import counter as _obs_counter, metrics_enabled as _metrics_enabled
from ..obs import span as _span
from ..resilience.errors import UsageError
from .counters import KernelCounters, SimulationResult, TimingBreakdown
from .device import DeviceSpec, P100
from .occupancy import OccupancyResult, occupancy as _scalar_occupancy
from .registers import BASE_REGISTERS, expression_registers
from .simulator import (
    _consumed_name,
    externally_visible,
    intermediate_arrays,
    plan_prefix,
    simulate,
)

__all__ = [
    "FamilyPricing",
    "FamilyStructure",
    "LaneGrid",
    "MIN_FAMILY",
    "PricedLane",
    "PricedLanes",
    "Quote",
    "family_structure",
    "price",
    "price_family",
    "price_lanes",
    "price_plan",
    "priced_lane_count",
    "reset_priced_lanes",
    "scalar_pricing",
]

_I8 = np.int64
_F8 = np.float64

#: Grid knobs :func:`price_family` may sweep without changing the
#: family's structure (everything else is part of the structural key).
GRID_AXES = ("block", "unroll", "unroll_blocked", "max_registers")

#: Lanes priced through the vectorized backend since start / last reset
#: (the vector-path analogue of ``simulator._SIMULATE_CALLS``).
_PRICED_LANES = 0


def priced_lane_count() -> int:
    """Total lanes priced by :func:`price_family` since start / reset."""
    return _PRICED_LANES


def reset_priced_lanes() -> int:
    """Zero the lane counter, returning the previous value."""
    global _PRICED_LANES
    previous = _PRICED_LANES
    _PRICED_LANES = 0
    return previous


@dataclass
class PricedLane:
    """One candidate's price, in scalar-path terms.

    Either ``result`` is a :class:`SimulationResult` equal to what
    ``simulate`` would return, or the occupancy screen rejected the lane
    and ``occ_message`` / ``occ_context`` / ``occ_code`` carry exactly
    what :func:`repro.gpu.simulator.plan_occupancy` would raise and how
    the lint layer classifies it.
    """

    demand: int
    result: Optional[SimulationResult]
    occ_message: Optional[str] = None
    occ_context: Dict[str, Any] = field(default_factory=dict)
    occ_code: Optional[str] = None
    vectorized: bool = True  # False: priced by the scalar model

    @property
    def feasible(self) -> bool:
        return self.result is not None


#: Occupancy rule codes by :attr:`PricedLanes.codes` value (0: it fits).
OCCUPANCY_CODES = (None, "RL201", "RL202", "RL203")
_RL201, _RL202, _RL203 = 1, 2, 3
#: Rule code of a lane no block fits, by its limiting resource (the
#: ``limits`` order of :meth:`FamilyStructure._occupancy_lanes`).
_LIMITER_CODES = np.asarray([_RL202, _RL202, _RL203, _RL201], np.int8)
_LIMITERS = ("threads", "blocks", "registers", "shmem")


@dataclass(frozen=True, eq=False)
class LaneGrid:
    """A structural family's lanes along its grid axes, as columns.

    Lane ``i`` tiles with ``blocks[block_index[i]]``, unrolls by
    ``unrolls[unroll_index[i]]`` and is capped at ``max_registers[i]``
    registers; each distinct tuple is stored once.  This is everything
    :class:`FamilyStructure` reads of a plan that its structure does not
    fix, so a sweep is priced without a :class:`KernelPlan` per lane.
    """

    blocks: Tuple[Tuple[int, ...], ...]
    block_index: np.ndarray
    unrolls: Tuple[Tuple[int, ...], ...]
    unroll_index: np.ndarray
    unroll_blocked: np.ndarray  # bool per lane
    max_registers: np.ndarray  # int64 per lane

    @classmethod
    def of(cls, plans: Sequence[KernelPlan]) -> "LaneGrid":
        """The grid of explicit plans (which must share one structure)."""
        blocks: Dict[tuple, int] = {}
        unrolls: Dict[tuple, int] = {}
        block_index = [blocks.setdefault(p.block, len(blocks)) for p in plans]
        unroll_index = [
            unrolls.setdefault(p.unroll, len(unrolls)) for p in plans
        ]
        return cls(
            blocks=tuple(blocks),
            block_index=np.asarray(block_index, _I8),
            unrolls=tuple(unrolls),
            unroll_index=np.asarray(unroll_index, _I8),
            unroll_blocked=np.asarray(
                [p.unroll_blocked for p in plans], bool
            ),
            max_registers=np.asarray([p.max_registers for p in plans], _I8),
        )

    def __len__(self) -> int:
        return len(self.block_index)


Lanes = Union[LaneGrid, Sequence[KernelPlan]]


def _grid(lanes: Lanes) -> LaneGrid:
    return lanes if isinstance(lanes, LaneGrid) else LaneGrid.of(lanes)


class PricedLanes(Sequence):
    """One family pass's prices, as columns over the lane axis.

    ``feasible``, ``codes`` (index into :data:`OCCUPANCY_CODES`: the
    occupancy screen's rule per lane), ``demand`` and ``time_s`` (inf
    where the screen rejects) are arrays.  ``lanes[i]`` builds lane
    ``i``'s :class:`PricedLane` on demand: :meth:`result` assembles its
    :class:`SimulationResult` (once; later calls return the same
    object) and :meth:`rejection` asks the scalar occupancy model for
    the exact message and context of a rejected lane.
    """

    def __init__(self, device, demand, compiled, threads, blocks, shmem,
                 occ, counters, timing):
        self.device = device
        self.demand = demand
        self.feasible = ~occ["infeasible"]
        self.codes = occ["code"]
        bound = np.maximum(
            np.maximum(
                np.maximum(
                    np.maximum(timing["compute"], timing["dram"]),
                    timing["tex"],
                ),
                timing["shm"],
            ),
            timing["latency"],
        )
        # TimingBreakdown.total_s, in its operation order.
        total = bound + timing["sync"] + timing["bubble"] + timing["launch"]
        self.time_s = np.where(self.feasible, total, np.inf)
        self._launch = (compiled, threads, blocks, shmem)
        self._occ = occ
        self._counters = counters
        self._timing = timing
        self._results: Dict[int, SimulationResult] = {}

    def __len__(self) -> int:
        return len(self.demand)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        index %= len(self)
        demand = int(self.demand[index])
        if self.feasible[index]:
            return PricedLane(demand=demand, result=self.result(index))
        message, context, code = self.rejection(index)
        return PricedLane(
            demand=demand,
            result=None,
            occ_message=message,
            occ_context=context,
            occ_code=code,
        )

    def code(self, index: int) -> Optional[str]:
        """The occupancy screen's rule code for a lane (None: it fits)."""
        return OCCUPANCY_CODES[self.codes[index]]

    def rejection(self, index: int) -> Tuple[str, Dict[str, Any], str]:
        """``(message, context, code)`` of a rejected lane, exactly as
        :func:`repro.gpu.simulator.plan_occupancy` raises it.

        The evaluation engine has already screened and counted the lane
        by :meth:`code` when this runs, so there is no scalar fallback
        left: a code that disagrees with the scalar model's is fatal
        (AssertionError).  ``tests/gpu/test_pricing.py`` checks the code
        column against the scalar rule on every device profile.
        """
        compiled, threads, _, shmem = self._launch
        rejection = _occupancy_rejection(
            self.device, int(threads[index]), int(compiled[index]),
            int(shmem[index]),
        )
        if rejection is None or rejection[2] != self.code(index):
            raise AssertionError(  # pragma: no cover - parity guard
                "vectorized occupancy disagrees with the scalar model"
            )
        return rejection

    def result(self, index: int) -> Optional[SimulationResult]:
        """Lane ``index``'s :class:`SimulationResult` (None if rejected)."""
        if not self.feasible[index]:
            return None
        built = self._results.get(index)
        if built is None:
            built = self._results[index] = self._build(index)
        return built

    def _build(self, i: int) -> SimulationResult:
        compiled, threads, blocks, shmem = self._launch
        occ, counters, timing = self._occ, self._counters, self._timing
        occupancy = OccupancyResult(
            blocks_per_sm=int(occ["blocks_psm"][i]),
            active_warps=int(occ["warps"][i]),
            occupancy=float(occ["occ_frac"][i]),
            limiter=_LIMITERS[int(occ["limiter"][i])],
            warp_size=self.device.warp_size,
        )
        kc = KernelCounters(
            flops=float(counters["flops"][i]),
            useful_flops=counters["useful"],
            dram_read_bytes=float(counters["dram_read"][i]),
            dram_write_bytes=float(counters["dram_write"][i]),
            tex_bytes=float(counters["tex"][i]),
            shm_bytes=float(counters["shm"][i]),
            spill_bytes=float(counters["spill"][i]),
            blocks=int(blocks[i]),
            threads_per_block=int(threads[i]),
            regs_per_thread=int(compiled[i]),
            regs_demand=int(self.demand[i]),
            shmem_per_block=int(shmem[i]),
            syncs=float(counters["syncs"][i]),
        )
        tb = TimingBreakdown(
            compute_s=float(timing["compute"][i]),
            dram_s=float(timing["dram"][i]),
            tex_s=float(timing["tex"][i]),
            shm_s=float(timing["shm"][i]),
            sync_s=float(timing["sync"][i]),
            latency_s=float(timing["latency"][i]),
            launch_s=timing["launch"],
            bubble_s=float(timing["bubble"][i]),
        )
        return SimulationResult(counters=kc, occupancy=occupancy, timing=tb)


@dataclass(frozen=True)
class FamilyPricing:
    """Result of :func:`price_family`: per-lane prices plus a table."""

    plans: Tuple[KernelPlan, ...]
    lanes: Tuple[PricedLane, ...]
    table: np.ndarray  # structured array, one row per lane

    def __len__(self) -> int:
        return len(self.lanes)

    def best_index(self) -> Optional[int]:
        """Lane index of the fastest feasible candidate (None if all
        lanes were rejected)."""
        best = None
        best_t = math.inf
        for i, lane in enumerate(self.lanes):
            if lane.result is not None and lane.result.time_s < best_t:
                best, best_t = i, lane.result.time_s
        return best


_TABLE_DTYPE = np.dtype(
    [
        ("feasible", np.bool_),
        ("reg_demand", _I8),
        ("regs_per_thread", _I8),
        ("blocks_per_sm", _I8),
        ("occupancy", _F8),
        ("flops", _F8),
        ("dram_bytes", _F8),
        ("tex_bytes", _F8),
        ("shm_bytes", _F8),
        ("spill_bytes", _F8),
        ("time_s", _F8),
        ("tflops", _F8),
        ("rejection", "U8"),
    ]
)


# ---------------------------------------------------------------------------
# structural capture
# ---------------------------------------------------------------------------


@dataclass
class _StageInfo:
    """Structural constants of one stage's counter-model contribution."""

    stage: Stage
    halos: Dict[str, tuple]
    flops_pp: int
    summary: Dict[str, Any]  # the memoized access summary (shared object)
    reads: List[dict]  # ordered read-side term descriptors
    stores: List[dict]  # ordered store-side term descriptors


class FamilyStructure:
    """All structural constants of one plan family's pricing model.

    Built once per (IR, :func:`plan_structural_key`) and cached by
    :func:`family_structure`; :meth:`demand` and :meth:`price` then run
    the whole model over lane arrays.
    """

    def __init__(self, ir: ProgramIR, proto: KernelPlan):
        self.ir = ir
        self.key = plan_structural_key(proto)
        self.ndim = ir.ndim
        self.domain = ir.domain_shape()
        self.stages: Tuple[Stage, ...] = tuple(build_stages(ir, proto))
        self.streaming = proto.uses_streaming
        self.stream_axis = proto.stream_axis
        self.retime = proto.retime
        self.prefetch = proto.prefetch
        self.perspective = proto.perspective
        self.domain_points = 1
        for extent in self.domain:
            self.domain_points *= extent
        self.chunks = (
            proto.concurrent_chunks
            if proto.streaming == STREAM_CONCURRENT
            else 1
        )
        geo = launch_geometry(ir, proto)
        self.sweep_length = geo.sweep_length  # structural: chunks fixed
        self.intermediates = intermediate_arrays(ir, proto)
        self.externally_visible = externally_visible(ir, proto)
        self._build_buffer_candidates(proto)
        self._build_inter_specs(proto)
        self._build_stage_infos(proto)
        self._build_register_model(proto)

    # -- buffer winner candidates (mirrors tiling._buffer_requirements) --

    def _build_buffer_candidates(self, proto: KernelPlan) -> None:
        ir = self.ir
        self.buffer_arrays: List[str] = []  # first-encounter order
        self.candidates: Dict[str, List[dict]] = {}
        self.buffer_sizeof: Dict[str, int] = {}
        self.buffer_storage: Dict[str, str] = {}
        self.buffered: Dict[str, bool] = {}
        for stage in self.stages:
            halos = read_halos(ir, stage.instance)
            written_here = set(stage.instance.arrays_written())
            for array, halo in halos.items():
                if array in written_here:
                    continue
                storage = proto.placement_of(array)
                dtype = (
                    ir.array_map[array].dtype
                    if array in ir.array_map
                    else "double"
                )
                cand: dict = {
                    "stage": stage.index,
                    "array": array,
                    "sizeof": sizeof(dtype),
                }
                if storage == GMEM or storage == "constant":
                    cand.update(shm="zero", shm_const=0, reg=0)
                    is_buffered = False
                elif self.streaming:
                    lo, hi = halo[self.stream_axis]
                    window = lo + hi + 1
                    star = is_star_along(
                        ir, stage.instance, array, self.stream_axis
                    )
                    if self.retime:
                        cand.update(shm="const", shm_const=1, reg=0)
                    elif storage == "register":
                        cand.update(shm="zero", shm_const=0, reg=window)
                    elif star:
                        cand.update(shm="const", shm_const=1, reg=window - 1)
                    else:
                        cand.update(shm="const", shm_const=window, reg=0)
                    is_buffered = True
                else:
                    if storage == "register":
                        cand.update(shm="zero", shm_const=0, reg=1)
                    else:
                        cand.update(shm="tile_planes", shm_const=0, reg=0)
                    is_buffered = True
                if array not in self.candidates:
                    self.buffer_arrays.append(array)
                    self.candidates[array] = []
                    self.buffer_sizeof[array] = cand["sizeof"]
                    # storage / buffered-ness is uniform across a given
                    # array's candidates (placement and retime are
                    # plan-wide), hence structural.
                    self.buffer_storage[array] = storage
                    self.buffered[array] = is_buffered
                self.candidates[array].append(cand)

    # -- inter-stage specs (mirrors tiling._intermediate_specs) ----------

    def _build_inter_specs(self, proto: KernelPlan) -> None:
        ir = self.ir
        self.inter_specs: List[dict] = []
        if len(self.stages) > 1:
            for stage, consumer in zip(self.stages[:-1], self.stages[1:]):
                produced = set(stage.instance.arrays_written())
                halos = read_halos(ir, consumer.instance)
                if proto.time_tile > 1:
                    _written, read = pingpong_pair(ir, stage.instance)
                    produced = {read} if read in halos else set()
                for array in produced:
                    if array not in halos:
                        continue
                    halo = halos[array]
                    dtype = (
                        ir.array_map[array].dtype
                        if array in ir.array_map
                        else "double"
                    )
                    distinct, center = _consumer_read_counts(
                        ir, consumer.instance, array, proto
                    )
                    spec: dict = {
                        "array": array,
                        "producer": stage.index,
                        "consumer": consumer.index,
                        "halo": halo,
                        "sizeof": sizeof(dtype),
                        "center": center,
                        "total": distinct,
                    }
                    if self.streaming:
                        lo, hi = halo[self.stream_axis]
                        window = lo + hi + 1
                        if self.retime:
                            spec.update(shm="const", shm_const=1, reg=0)
                        elif is_star_along(
                            ir, consumer.instance, array, self.stream_axis
                        ):
                            spec.update(
                                shm="const", shm_const=1, reg=window - 1
                            )
                        else:
                            spec.update(
                                shm="const", shm_const=window, reg=0
                            )
                    else:
                        if self.retime:
                            spec.update(shm="zero", shm_const=0, reg=0)
                        else:
                            spec.update(shm="depth0", shm_const=0, reg=0)
                    self.inter_specs.append(spec)
        self.inter_by_consumer: Dict[Tuple[int, str], dict] = {
            (spec["producer"] + 1, spec["array"]): spec
            for spec in self.inter_specs
        }
        self.inter_reg_planes = sum(spec["reg"] for spec in self.inter_specs)

    # -- per-stage read/store term descriptors (mirrors simulator._count)

    def _build_stage_infos(self, proto: KernelPlan) -> None:
        ir = self.ir
        self.stage_infos: List[_StageInfo] = []
        for stage in self.stages:
            instance = stage.instance
            summary = access_summary(ir, instance)
            halos = read_halos(ir, instance)
            written_here = set(instance.arrays_written())
            reads: List[dict] = []
            # Iterating the memoized summary dict object itself keeps
            # the term order identical to the scalar loop's.
            for array, info in summary.items():
                if info.reads_total == 0:
                    continue
                arr_esize = (
                    sizeof(ir.array_map[array].dtype)
                    if array in ir.array_map
                    else 8
                )
                item: dict = {"array": array, "esize": arr_esize}
                if array in written_here:
                    item.update(kind="written_here", reads=info.reads_distinct)
                elif stage.index > 0 and array in self.intermediates:
                    inter = self.inter_by_consumer.get((stage.index, array))
                    if inter is None:
                        continue  # no term at all
                    served = (
                        inter["center"]
                        if (inter["reg"] > 0 or self.retime)
                        else inter["total"]
                    )
                    item.update(kind="inter", served=served)
                elif self.buffered.get(array, False):
                    item.update(
                        kind="buffered",
                        unique=_unique_bytes_const(ir, array, arr_esize, proto),
                        fill_extra=(
                            2
                            if self.perspective == PERSPECTIVE_OUTPUT
                            and (
                                stage.halo[self.ndim - 1][0]
                                or stage.halo[self.ndim - 1][1]
                            )
                            else 0
                        ),
                        halo_x=stage.halo[self.ndim - 1],
                        reads_distinct=info.reads_distinct,
                        inplane=(
                            _inplane_distinct_reads_const(
                                ir, stage, array, self.stream_axis
                            )
                            if self.streaming
                            else 0
                        ),
                        center=(
                            _center_plane_reads_const(
                                ir, proto, stage, array
                            )
                            if self.streaming
                            else 0
                        ),
                    )
                else:
                    item.update(
                        kind="gmem",
                        unique=_unique_bytes_const(ir, array, arr_esize, proto),
                        gcoal=_gmem_coalescing_const(ir, stage.instance, array),
                        instance=stage.instance,
                    )
                reads.append(item)
            stores: List[dict] = []
            for array in instance.arrays_written():
                arr_esize = (
                    sizeof(ir.array_map[array].dtype)
                    if array in ir.array_map
                    else 8
                )
                writes = summary[array].writes if array in summary else 1
                entry = {"array": array, "esize": arr_esize, "writes": writes}
                if not stage.is_last and array in self.intermediates:
                    inter = self.inter_by_consumer.get(
                        (stage.index + 1, _consumed_name(ir, proto, stage, array))
                    )
                    if inter is None or _inter_shm_positive(inter):
                        entry["kind"] = "shm"
                    else:
                        continue  # buffered in registers: no traffic term
                elif array not in self.externally_visible:
                    entry["kind"] = "shm"
                else:
                    entry["kind"] = "dram"
                stores.append(entry)
            self.stage_infos.append(
                _StageInfo(
                    stage=stage,
                    halos=halos,
                    flops_pp=stage.flops_per_point,
                    summary=summary,
                    reads=reads,
                    stores=stores,
                )
            )

    # -- register-model structural constants (mirrors registers.py) ------

    def _build_register_model(self, proto: KernelPlan) -> None:
        ir = self.ir
        self.expr_regs = max(
            expression_registers(s.instance) for s in self.stages
        )
        if self.retime and self.streaming:
            accumulators = 0
            for stage in self.stages:
                window = 1
                for array in stage.instance.arrays_read():
                    lo, hi = stream_window(
                        ir, stage.instance, array, self.stream_axis
                    )
                    window = max(window, lo + hi + 1)
                accumulators += len(stage.instance.arrays_written()) * window
            self.accumulators = accumulators
        else:
            outputs: set = set()
            for stage in self.stages:
                outputs.update(stage.instance.arrays_written())
            self.accumulators = len(outputs)
        # Prefetch staging: arrays fetched from global.  GMEM-placed
        # arrays always buffer (0, 0) planes, so the scalar condition
        # ``storage != GMEM or reg_planes > 0`` reduces to the storage
        # test — structural.
        fetched = sum(
            1
            for array in self.buffer_arrays
            if self.buffer_storage[array] != GMEM
        )
        self.prefetch_regs = max(fetched, 1) if self.prefetch else 0
        # Blocked-unroll live loads: the per-stage gmem (unbuffered)
        # read sets are structural; the load counts per lane are not.
        self.gmem_read_sets: List[List[Tuple[StencilInstance, str]]] = []
        for stage in self.stages:
            entries: List[Tuple[StencilInstance, str]] = []
            for array in stage.instance.arrays_read():
                if not self.buffered.get(array, False) and array in self.candidates:
                    entries.append((stage.instance, array))
                elif array not in self.candidates:
                    entries.append((stage.instance, array))
            self.gmem_read_sets.append(entries)

    # ------------------------------------------------------------------
    # lane-array computation
    # ------------------------------------------------------------------

    def _base(self, grid: LaneGrid) -> dict:
        """Per-lane geometry scalars.

        Replays ``tiling._launch_geometry`` over the lane axis: the
        domain, tiled-axis set, streaming sweep and perspective halo are
        structural constants, so only the block/unroll tuples need
        gathering per lane — everything downstream is exact int64 array
        arithmetic (products and ``-(-a // b)`` ceil-division match the
        scalar path bit for bit).  Per-tuple quantities are computed
        once per distinct tuple and gathered by the lane indexes.
        """
        n = len(grid)
        ndim = self.ndim
        tiled = (
            tuple(a for a in range(ndim) if a != self.stream_axis)
            if self.streaming
            else tuple(range(ndim))
        )
        # -- the distinct grid tuples, gathered per lane
        unroll_table = np.ones((ndim, len(grid.unrolls)), _I8)
        for j, factors in enumerate(grid.unrolls):
            for axis in range(min(ndim, len(factors))):
                unroll_table[axis, j] = factors[axis]
        unroll = unroll_table[:, grid.unroll_index]
        block_table = np.ones((len(tiled), len(grid.blocks)), _I8)
        for j, block in enumerate(grid.blocks):
            for pos in range(min(len(tiled), len(block))):
                block_table[pos, j] = block[pos]
        bt = block_table[:, grid.block_index]  # threads per tiled position
        # exact int products of the full tuples (may exceed the tiled
        # axis count; extra entries still count, as in the scalar code)
        unroll_totals = [math.prod(factors) for factors in grid.unrolls]
        tunroll = np.asarray(unroll_totals, dtype=_I8)[grid.unroll_index]
        ublocked = grid.unroll_blocked
        maxreg = grid.max_registers
        # -- tile extents and block decomposition
        tile = np.empty((ndim, n), _I8)
        blocks = np.ones(n, _I8)
        for pos, axis in enumerate(tiled):
            tile[axis] = bt[pos] * unroll[axis]
            blocks = blocks * (-(-self.domain[axis] // tile[axis]))
        if self.streaming:
            tile[self.stream_axis] = self.sweep_length
            blocks = blocks * self.chunks
        # -- threads per block (tiling._threads_per_block)
        if self.perspective == PERSPECTIVE_OUTPUT:
            threads = np.asarray(
                [math.prod(block) for block in grid.blocks], dtype=_I8
            )[grid.block_index]
        else:
            halo = self.stages[0].halo
            innermost = tiled[-1] if tiled else ndim - 1
            threads = np.ones(n, _I8)
            for pos, axis in enumerate(tiled):
                lo, hi = halo[axis]
                if self.perspective == PERSPECTIVE_INPUT:
                    threads = threads * (bt[pos] + (lo + hi))
                else:  # mixed: extend only the innermost axis
                    threads = threads * (
                        bt[pos] + ((lo + hi) if axis == innermost else 0)
                    )
        ilp_of = []
        for total in unroll_totals:
            # math.log2 per distinct unroll: identical libm path to the
            # scalar code (np.log2 could round differently on exotic
            # platforms).
            value = 1.0 + 0.4 * math.log2(max(1, total))
            if self.prefetch:
                value += 0.3
            ilp_of.append(value)
        ilp = np.asarray(ilp_of, dtype=_F8)[grid.unroll_index]
        return {
            "n": n,
            "tile": tile,
            "unroll": unroll,
            "blocks": blocks,
            "threads": threads,
            "tunroll": tunroll,
            "ublocked": ublocked,
            "maxreg": maxreg,
            "ilp": ilp,
            "pts": {},
            "foot": {},
            "plane": {},
            "tplanes": {},
            "lpp": {},
        }

    def _pts(self, base: dict, sidx: int) -> np.ndarray:
        cached = base["pts"].get(sidx)
        if cached is None:
            stage = self.stages[sidx]
            total = np.ones(base["n"], _I8)
            for axis in range(self.ndim):
                lo, hi = stage.expand[axis]
                total = total * (base["tile"][axis] + (lo + hi))
            base["pts"][sidx] = cached = total
        return cached

    def _footprint(self, base: dict, sidx: int, array: str) -> np.ndarray:
        key = (sidx, array)
        cached = base["foot"].get(key)
        if cached is None:
            info = self.stage_infos[sidx]
            halo = info.halos.get(array)
            if halo is None:
                cached = np.zeros(base["n"], _I8)
            else:
                arr_info = self.ir.array_map.get(array)
                total = np.ones(base["n"], _I8)
                for axis in range(self.ndim):
                    exp_lo, exp_hi = info.stage.expand[axis]
                    h_lo, h_hi = halo[axis]
                    if arr_info is not None and arr_info.ndim < self.ndim:
                        if not _array_indexes_axis(
                            self.ir, info.stage.instance, array, axis
                        ):
                            continue
                    span = base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                    total = total * np.minimum(
                        span, self.domain[axis] + (h_lo + h_hi)
                    )
                cached = total
            base["foot"][key] = cached
        return cached

    def _plane_elems(self, base: dict, sidx: int, array: str) -> np.ndarray:
        key = (sidx, array)
        cached = base["plane"].get(key)
        if cached is None:
            info = self.stage_infos[sidx]
            halo = info.halos[array]
            depth_axis = self.stream_axis if self.streaming else 0
            total = np.ones(base["n"], _I8)
            for axis in range(self.ndim):
                if axis == depth_axis:
                    continue
                exp_lo, exp_hi = info.stage.expand[axis]
                h_lo, h_hi = halo[axis]
                total = total * (
                    base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                )
            base["plane"][key] = cached = total
        return cached

    def _tile_planes(self, base: dict, sidx: int, array: str) -> np.ndarray:
        key = (sidx, array)
        cached = base["tplanes"].get(key)
        if cached is None:
            info = self.stage_infos[sidx]
            halo = info.halos[array]
            axis = self.stream_axis if self.streaming else 0
            exp_lo, exp_hi = info.stage.expand[axis]
            h_lo, h_hi = halo[axis]
            cached = base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
            base["tplanes"][key] = cached
        return cached

    def _gmem_lpp(
        self, base: dict, instance: StencilInstance, array: str
    ) -> np.ndarray:
        """Vectorized :func:`tiling.gmem_loads_per_point`."""
        key = (id(instance), array)
        cached = base["lpp"].get(key)
        if cached is None:
            offsets = distinct_read_offsets(self.ir, instance, array)
            n = base["n"]
            if not offsets:
                cached = np.zeros(n, _F8)
            else:
                loads = float(len(offsets))
                factor_product = np.ones(n, _F8)
                for axis in range(self.ndim):
                    axis_offsets = sorted(
                        {o[axis] for o in offsets if o[axis] is not None}
                    )
                    if len(axis_offsets) <= 1:
                        continue
                    span = axis_offsets[-1] - axis_offsets[0] + 1
                    count = len(axis_offsets)
                    factor = base["unroll"][axis]
                    # factor == 1 lanes multiply by exactly 1.0 (merged
                    # == count), matching the scalar code's skip.
                    merged = np.minimum(factor * count, span + (factor - 1))
                    factor_product = factor_product * (
                        merged / (factor * count)
                    )
                blocked = loads * np.maximum(factor_product, 0.55)
                cached = np.where(base["ublocked"], blocked, loads)
            base["lpp"][key] = cached
        return cached

    def _winners(self, base: dict) -> Dict[str, dict]:
        """Per-lane buffer-winner selection (strict-greater, first wins)."""
        winners: Dict[str, dict] = {}
        for array in self.buffer_arrays:
            size = self.buffer_sizeof[array]
            win: Optional[dict] = None
            for cand in self.candidates[array]:
                plane = self._plane_elems(base, cand["stage"], array)
                if cand["shm"] == "const":
                    shm = np.full(base["n"], cand["shm_const"], _I8)
                elif cand["shm"] == "tile_planes":
                    shm = self._tile_planes(base, cand["stage"], array)
                else:
                    shm = np.zeros(base["n"], _I8)
                reg = np.full(base["n"], cand["reg"], _I8)
                spec_bytes = shm * plane * size + reg
                if win is None:
                    win = {
                        "shm": shm,
                        "reg": reg,
                        "plane": plane,
                        "bytes": spec_bytes,
                    }
                else:
                    better = spec_bytes > win["bytes"]
                    win = {
                        "shm": np.where(better, shm, win["shm"]),
                        "reg": np.where(better, reg, win["reg"]),
                        "plane": np.where(better, plane, win["plane"]),
                        "bytes": np.where(better, spec_bytes, win["bytes"]),
                    }
            assert win is not None
            winners[array] = win
        return winners

    def _inter_arrays(self, base: dict) -> List[dict]:
        """Per-lane shm_planes / plane_elements of inter-stage specs."""
        out = []
        for spec in self.inter_specs:
            consumer = self.stages[spec["consumer"]]
            halo = spec["halo"]
            plane = np.ones(base["n"], _I8)
            for axis in range(self.ndim):
                if self.streaming and axis == self.stream_axis:
                    continue
                exp_lo, exp_hi = consumer.expand[axis]
                h_lo, h_hi = halo[axis]
                plane = plane * (
                    base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                )
            if spec["shm"] == "const":
                shm = np.full(base["n"], spec["shm_const"], _I8)
            elif spec["shm"] == "depth0":
                exp_lo, exp_hi = consumer.expand[0]
                h_lo, h_hi = halo[0]
                shm = base["tile"][0] + (exp_lo + exp_hi + h_lo + h_hi)
            else:
                shm = np.zeros(base["n"], _I8)
            out.append({"spec": spec, "shm": shm, "plane": plane})
        return out

    def _register_demand(self, base: dict, winners: Dict[str, dict]) -> np.ndarray:
        reg_planes = np.zeros(base["n"], _I8)
        for array in self.buffer_arrays:
            reg_planes = reg_planes + winners[array]["reg"]
        reg_planes = reg_planes + self.inter_reg_planes
        demand = np.full(base["n"], BASE_REGISTERS + self.expr_regs, _I8)
        demand = demand + reg_planes * base["tunroll"]
        demand = demand + self.accumulators * base["tunroll"]
        demand = demand + self.prefetch_regs
        blocked_mask = (base["tunroll"] > 1) & base["ublocked"]
        if blocked_mask.any():
            live = np.zeros(base["n"], _F8)
            for entries in self.gmem_read_sets:
                stage_loads = np.zeros(base["n"], _F8)
                for instance, array in entries:
                    stage_loads = stage_loads + self._gmem_lpp(
                        base, instance, array
                    )
                live = np.maximum(live, stage_loads)
            extra = 2 * (base["tunroll"] - 1) + (
                live * base["tunroll"].astype(_F8) * 0.5
            ).astype(_I8)
            demand = demand + np.where(blocked_mask, extra, 0)
        return demand

    def _shmem(self, base: dict, winners: Dict[str, dict],
               inter_arrays: List[dict]) -> np.ndarray:
        total = np.zeros(base["n"], _I8)
        for array in self.buffer_arrays:
            win = winners[array]
            total = total + win["shm"] * win["plane"] * self.buffer_sizeof[array]
        for entry in inter_arrays:
            total = total + entry["shm"] * entry["plane"] * entry["spec"]["sizeof"]
        # intra-kernel staging (tiling._intra_staging_bytes)
        for info in self.stage_infos:
            stage = info.stage
            depth_axis = self.stream_axis if self.streaming else 0
            for array in stage.instance.arrays_written():
                halo = info.halos.get(array)
                if halo is None:
                    continue
                size = sizeof(
                    self.ir.array_map[array].dtype
                    if array in self.ir.array_map
                    else "double"
                )
                plane = np.ones(base["n"], _I8)
                for axis in range(self.ndim):
                    if axis == depth_axis:
                        continue
                    exp_lo, exp_hi = stage.expand[axis]
                    h_lo, h_hi = halo[axis]
                    plane = plane * (
                        base["tile"][axis] + (exp_lo + exp_hi + h_lo + h_hi)
                    )
                if self.streaming:
                    lo, hi = halo[self.stream_axis]
                    depth = np.full(base["n"], lo + hi + 1, _I8)
                else:
                    exp_lo, exp_hi = stage.expand[0]
                    h_lo, h_hi = halo[0]
                    depth = base["tile"][0] + (exp_lo + exp_hi + h_lo + h_hi)
                total = total + plane * depth * size
        return total

    def _live_bytes(self, base: dict, winners: Dict[str, dict]) -> np.ndarray:
        total = np.zeros(base["n"], _F8)
        first = self.stages[0]
        for array in first.instance.arrays_read():
            if array not in self.candidates:
                continue
            if self.buffered[array]:
                continue
            info = self.ir.array_map.get(array)
            arr_esize = sizeof(info.dtype) if info is not None else 8
            plane = winners[array]["plane"]
            total = total + (plane * arr_esize).astype(_F8)
        return total

    # ------------------------------------------------------------------
    # public lane APIs
    # ------------------------------------------------------------------

    def demand(self, lanes: Lanes) -> np.ndarray:
        """Register demand per lane (== ``register_demand`` per plan)."""
        base = self._base(_grid(lanes))
        winners = self._winners(base)
        return self._register_demand(base, winners)

    def price(self, lanes: Lanes, device: DeviceSpec = P100) -> PricedLanes:
        """Price every lane (plans, or a :class:`LaneGrid`)."""
        global _PRICED_LANES
        grid = _grid(lanes)
        n = len(grid)
        if not n:
            return []
        _PRICED_LANES += n
        if _metrics_enabled():
            _obs_counter("pricing.family_calls").add()
            _obs_counter("pricing.lanes").add(n)
        with _span("price_family", lanes=n):
            return self._price(grid, device)

    def price_spill_free(
        self,
        lanes: Lanes,
        levels: Sequence[int],
        device: DeviceSpec = P100,
    ) -> Tuple[np.ndarray, np.ndarray, PricedLanes]:
        """Resolve the register ladder and price each chosen rung, in
        one pass over the family axis.

        The evaluation engine's spill-free escalation needs the register
        *demand* of every lane (to pick the first non-spilling rung) and
        then the price of each lane at its chosen rung.  Doing those as
        two separate calls rebuilds the per-lane geometry twice; here the
        base arrays are computed once, the rung is resolved vectorized,
        and the ``max_registers`` column is overridden before pricing.

        Returns ``(demands, positions, lanes)``: ``positions[i]`` is the
        index into ``levels`` of the first rung with ``demands[i] <=
        levels[positions[i]]`` (exactly ``levels.index(next(lv for lv in
        levels if demand <= lv))`` of the scalar path), or ``-1`` when
        every rung spills.  All-spill lanes are still priced (at their
        original cap) so indices stay aligned; callers discard them.
        """
        global _PRICED_LANES
        base = self._base(_grid(lanes))
        winners = self._winners(base)
        demands = self._register_demand(base, winners)
        n = base["n"]
        positions = resolve_rungs(demands, levels)
        resolved = base["maxreg"].copy()
        for j, lv in enumerate(levels):
            resolved[positions == j] = lv
        base = dict(base, maxreg=resolved)
        _PRICED_LANES += n
        if _metrics_enabled():
            _obs_counter("pricing.family_calls").add()
            _obs_counter("pricing.lanes").add(n)
        with _span("price_family", lanes=n):
            lanes = self._price(None, device, base=base)
        return demands, positions, lanes

    def _price(
        self,
        grid: Optional[LaneGrid],
        device: DeviceSpec,
        base: Optional[dict] = None,
    ) -> PricedLanes:
        if base is None:
            base = self._base(grid)
        winners = self._winners(base)
        inter_arrays = self._inter_arrays(base)
        demand = self._register_demand(base, winners)
        compiled = np.minimum(demand, base["maxreg"])
        shmem = self._shmem(base, winners, inter_arrays)

        occ = self._occupancy_lanes(device, base["threads"], compiled, shmem)
        counters = self._counter_lanes(
            device, base, winners, demand, compiled, shmem, occ
        )
        timing = self._timing_lanes(device, base, counters, shmem, occ)
        return PricedLanes(
            device, demand, compiled, base["threads"], base["blocks"],
            shmem, occ, counters, timing,
        )

    # -- occupancy over lanes (mirrors occupancy.occupancy) --------------

    def _occupancy_lanes(
        self,
        device: DeviceSpec,
        threads: np.ndarray,
        compiled: np.ndarray,
        shmem: np.ndarray,
    ) -> dict:
        regs = np.maximum(compiled, 1)
        warp = device.warp_size
        warps_pb = -(-threads // warp)
        per_warp = regs * warp
        granularity = device.register_granularity
        per_warp = -(-per_warp // granularity) * granularity
        block_regs = warps_pb * per_warp

        lim_threads = device.max_threads_per_sm // np.maximum(threads, 1)
        lim_blocks = np.full(threads.shape, device.max_blocks_per_sm, _I8)
        lim_regs = np.where(
            block_regs > 0,
            device.registers_per_sm // np.maximum(block_regs, 1),
            device.max_blocks_per_sm,
        )
        big = np.iinfo(_I8).max
        lim_shm = np.where(
            shmem > 0,
            device.shared_mem_per_sm // np.maximum(shmem, 1),
            big,
        )
        limits = np.stack([lim_threads, lim_blocks, lim_regs, lim_shm])
        blocks_psm = limits.min(axis=0)
        limiter = limits.argmin(axis=0)  # first-min == dict-order min
        # The scalar model's checks, last first, so the first failing
        # check names the lane's rule code (classify_occupancy_failure).
        code = np.zeros(threads.shape, np.int8)
        no_block = blocks_psm < 1
        code[no_block] = _LIMITER_CODES[limiter[no_block]]
        code[regs > device.max_registers_per_thread] = _RL203
        code[shmem > device.shared_mem_per_block] = _RL201
        code[(threads < 1) | (threads > device.max_threads_per_block)] = _RL202
        infeasible = code != 0
        limiter = np.where(
            (blocks_psm == device.max_blocks_per_sm) & (limiter != 1),
            1,
            limiter,
        )
        blocks_safe = np.where(infeasible, 1, blocks_psm)
        warps = np.minimum(blocks_safe * warps_pb, device.max_warps_per_sm)
        warps = np.where(infeasible, 1, warps)
        occ_frac = warps / device.max_warps_per_sm
        return {
            "infeasible": infeasible,
            "code": code,
            "blocks_psm": blocks_psm,
            "blocks_safe": blocks_safe,
            "warps": warps,
            "occ_frac": occ_frac,
            "limiter": limiter,
        }

    # -- counters over lanes (mirrors simulator._count) ------------------

    def _counter_lanes(
        self,
        device: DeviceSpec,
        base: dict,
        winners: Dict[str, dict],
        demand: np.ndarray,
        compiled: np.ndarray,
        shmem: np.ndarray,
        occ: dict,
    ) -> dict:
        n = base["n"]
        blocks = base["blocks"]
        blocks_f = blocks.astype(_F8)

        active_blocks = np.maximum(1, occ["blocks_safe"] * device.sms)
        live = self._live_bytes(base, winners)
        working_set = active_blocks * np.maximum(live, 1.0)
        p_intra = np.minimum(1.0, device.l2_cache_bytes / working_set)
        p_inter = device.inter_block_l2_factor * p_intra

        flops_t: List[np.ndarray] = []
        tex_t: List[np.ndarray] = []
        dread_t: List[np.ndarray] = []
        dwrite_t: List[np.ndarray] = []
        shm_t: List[np.ndarray] = []
        useful = 0.0

        for sidx, info in enumerate(self.stage_infos):
            pts = self._pts(base, sidx)
            flops_t.append((info.flops_pp * pts * blocks).astype(_F8))
            useful += info.flops_pp * self.domain_points
            for item in info.reads:
                array = item["array"]
                esize = item["esize"]
                kind = item["kind"]
                if kind == "written_here":
                    shm_t.append(
                        (item["reads"] * pts * blocks * esize).astype(_F8)
                    )
                elif kind == "inter":
                    shm_t.append(
                        (item["served"] * pts * blocks * esize).astype(_F8)
                    )
                elif kind == "buffered":
                    footprint = self._footprint(base, sidx, array)
                    loads = footprint * blocks
                    coal = self._fill_coalescing(
                        base, item, device.dram_transaction_bytes
                    )
                    tex_t.append((loads * esize).astype(_F8) * coal)
                    fill = (loads * esize).astype(_F8)
                    dread_t.append(
                        _dram_read_vec(fill, fill, item["unique"],
                                       p_intra, p_inter)
                    )
                    shm_t.append(
                        self._buffered_shm(
                            base, winners[array], item, pts, blocks_f,
                            footprint, esize,
                        )
                    )
                else:  # gmem
                    per_point = self._gmem_lpp(base, item["instance"], array)
                    loads = per_point * pts.astype(_F8) * blocks_f
                    tex_t.append(loads * esize * item["gcoal"])
                    footprint = self._footprint(base, sidx, array)
                    p_touch = p_intra
                    if self.streaming:
                        p_touch = p_touch * device.stream_gmem_l2_capture
                    dread_t.append(
                        _dram_read_vec(
                            loads * esize,
                            (footprint * blocks * esize).astype(_F8),
                            item["unique"],
                            p_touch,
                            p_inter,
                        )
                    )
            for entry in info.stores:
                term = entry["writes"] * pts * blocks * entry["esize"]
                if entry["kind"] == "shm":
                    shm_t.append(term.astype(_F8))
                else:
                    dwrite_t.append(
                        np.full(
                            n,
                            float(
                                entry["writes"]
                                * self.domain_points
                                * entry["esize"]
                            ),
                            _F8,
                        )
                    )

        spilled = np.maximum(0, demand - compiled)
        total_points = np.zeros(n, _I8)
        for sidx in range(len(self.stages)):
            total_points = total_points + self._pts(base, sidx) * blocks
        spill = (
            spilled.astype(_F8)
            * device.spill_access_rate
            * 2
            * 8
            * total_points.astype(_F8)
        )
        tex_t.append(spill)

        per_step = 2.0 * len(self.stages)
        steps = self.sweep_length if self.streaming else 1
        syncs = np.where(shmem > 0, (per_step * steps) * blocks_f, 0.0)

        return {
            "flops": _acc(flops_t, n),
            "useful": useful,
            "tex": _acc(tex_t, n),
            "dram_read": _acc(dread_t, n),
            "dram_write": _acc(dwrite_t, n),
            "shm": _acc(shm_t, n),
            "spill": spill,
            "syncs": syncs,
            "p_intra": p_intra,
        }

    def _fill_coalescing(
        self, base: dict, item: dict, sector: int = 32
    ) -> np.ndarray:
        x_axis = self.ndim - 1
        row_elems = base["tile"][x_axis]
        lo, hi = item["halo_x"]
        row_bytes = (row_elems + (lo + hi)) * 8
        sectors = np.ceil(row_bytes.astype(_F8) / sector).astype(_I8)
        denom = np.maximum(
            1, np.ceil((row_elems * 8).astype(_F8) / sector).astype(_I8)
        )
        return (sectors + item["fill_extra"]) / denom

    def _buffered_shm(
        self,
        base: dict,
        win: dict,
        item: dict,
        pts: np.ndarray,
        blocks_f: np.ndarray,
        footprint: np.ndarray,
        esize: int,
    ) -> np.ndarray:
        n = base["n"]
        shm_planes = win["shm"]
        reg_planes = win["reg"]
        window = shm_planes + reg_planes
        # Pure register buffering (shm_planes == 0) is structural —
        # storage is uniform per array — but mask it anyway.
        zero_mask = shm_planes == 0
        window_safe = np.maximum(window, 1)
        fill_fraction = shm_planes / window_safe
        stores = footprint.astype(_F8) * fill_fraction * blocks_f
        if self.retime and self.streaming:
            reads = np.full(n, item["inplane"], _I8)
            rotation = np.zeros(n, _I8)
        elif self.streaming:
            reads = np.where(
                reg_planes > 0, item["center"], item["reads_distinct"]
            )
            rotation = np.where(reg_planes > 0, 2 * pts, 0)
        else:
            reads = np.full(n, item["reads_distinct"], _I8)
            rotation = np.zeros(n, _I8)
        loads = reads * pts
        blocks_i = base["blocks"]
        traffic = (stores + ((loads + rotation) * blocks_i).astype(_F8)) * esize
        return np.where(zero_mask, 0.0, traffic)

    # -- timing over lanes (mirrors simulator._time) ---------------------

    def _timing_lanes(
        self,
        device: DeviceSpec,
        base: dict,
        counters: dict,
        shmem: np.ndarray,
        occ: dict,
    ) -> dict:
        occ_frac = occ["occ_frac"]
        capacity = np.maximum(1, occ["blocks_safe"] * device.sms)
        concurrency = np.minimum(1.0, base["blocks"] / capacity)

        sustained = device.sustained_fraction
        eff_dram = sustained * np.minimum(
            1.0, occ_frac / device.dram_saturation_occupancy
        )
        eff_tex = device.tex_sustained_fraction * np.minimum(
            1.0, occ_frac / device.tex_saturation_occupancy
        )
        eff_shm = sustained * np.minimum(
            1.0, occ_frac / (device.dram_saturation_occupancy / 2)
        )
        eff_dram = eff_dram * concurrency
        eff_tex = eff_tex * concurrency
        eff_shm = eff_shm * concurrency

        dram_bytes = (
            counters["dram_read"] + counters["dram_write"]
        ) + counters["spill"]
        dram_s = dram_bytes / (
            (device.dram_bw_gbs * 1e9) * np.maximum(eff_dram, 1e-9)
        )
        tex_s = counters["tex"] / (
            (device.tex_bw_gbs * 1e9) * np.maximum(eff_tex, 1e-9)
        )
        shm_s = counters["shm"] / (
            (device.shm_bw_gbs * 1e9) * np.maximum(eff_shm, 1e-9)
        )
        compute_k = device.peak_gflops * 1e9 * sustained
        compute_s = counters["flops"] / (
            compute_k * np.maximum(concurrency, 1e-9)
        )

        thread_ops = counters["flops"] + 0.5 * (
            counters["shm"] / 8.0 + counters["tex"] / 8.0
        )
        warp_insts = thread_ops / device.warp_size
        covering = np.maximum(
            1.0, occ["warps"] * base["ilp"] / device.latency_cover_warps
        )
        stall = device.arith_latency_cycles / covering
        cycles = warp_insts * np.maximum(1.0, stall)
        rate = device.sms * device.warp_schedulers * device.clock_ghz * 1e9
        latency_s = cycles / (rate * np.maximum(concurrency, 1e-9))

        sync_s = np.where(
            counters["syncs"] != 0.0,
            counters["syncs"] / capacity * device.sync_cost_ns * 1e-9,
            0.0,
        )
        launch_s = device.launch_overhead_us * 1e-6

        if self.streaming and not self.prefetch:
            bubble_s = np.where(
                shmem > 0, 0.12 * np.maximum(tex_s, dram_s), 0.0
            )
        else:
            bubble_s = np.zeros(base["n"], _F8)

        return {
            "compute": compute_s,
            "dram": dram_s,
            "tex": tex_s,
            "shm": shm_s,
            "sync": sync_s,
            "latency": latency_s,
            "launch": launch_s,
            "bubble": bubble_s,
        }


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def _inter_shm_positive(spec: dict) -> bool:
    """Whether an inter-stage spec has ``shm_planes > 0`` — structural.

    Streaming specs carry constant plane counts; the non-streaming
    ``depth0`` shape is ``tile[0] + expand + halo >= 1`` for every lane.
    """
    if spec["shm"] == "const":
        return spec["shm_const"] > 0
    return spec["shm"] == "depth0"


def _consumer_read_counts(ir, instance, array, plan) -> Tuple[int, int]:
    from ..codegen.tiling import _consumer_read_counts as impl

    return impl(ir, instance, array, plan)


def _inplane_distinct_reads_const(ir, stage, array, stream_axis) -> int:
    from .simulator import _inplane_distinct_reads

    return _inplane_distinct_reads(ir, stage, array, stream_axis)


def _center_plane_reads_const(ir, plan, stage, array) -> int:
    from .simulator import _center_plane_reads

    return _center_plane_reads(ir, plan, stage, array)


def _gmem_coalescing_const(ir, instance, array) -> float:
    offsets = distinct_read_offsets(ir, instance, array)
    if not offsets:
        return 1.0
    x_axis = ir.ndim - 1
    misaligned = sum(
        1 for o in offsets if o[x_axis] not in (None, 0) and (o[x_axis] % 4) != 0
    )
    return 1.0 + 0.125 * (misaligned / len(offsets))


def _unique_bytes_const(ir, array, esize, plan) -> float:
    from .simulator import _unique_bytes

    return _unique_bytes(ir, array, esize, plan)


def _dram_read_vec(loaded, fill, unique_bytes, p_intra, p_inter):
    unique = np.minimum(unique_bytes, fill)
    inter_excess = np.maximum(0.0, fill - unique)
    intra_excess = np.maximum(0.0, loaded - fill)
    return (
        unique
        + inter_excess * (1.0 - p_inter)
        + intra_excess * (1.0 - p_intra)
    )


def _acc(terms: List[np.ndarray], n: int) -> np.ndarray:
    """Sequential f8 accumulation in scalar emission order."""
    total = np.zeros(n, _F8)
    for term in terms:
        total = total + term
    return total


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def family_structure(ir: ProgramIR, plan: KernelPlan) -> FamilyStructure:
    """The :class:`FamilyStructure` for a plan's family, pinned on the IR."""
    return memoized(
        "family_structure",
        ir,
        lambda: FamilyStructure(ir, plan),
        key=plan_structural_key(plan),
        observe=None,
    )


def _occupancy_rejection(
    device: DeviceSpec, threads: int, compiled: int, shmem: int
) -> Optional[Tuple[str, Dict[str, Any], str]]:
    """The scalar occupancy failure for one launch shape, or None if it
    fits: ``(message, context, rule code)``, exactly what
    :func:`repro.gpu.simulator.plan_occupancy` raises and how the lint
    layer classifies it (without bumping its rejection counters — the
    evaluation engine counts a rejection when a request hits it)."""
    from ..lint.rules_plan import classify_occupancy_failure

    try:
        _scalar_occupancy(device, threads, compiled, shmem)
    except ValueError as exc:
        context = dict(getattr(exc, "context", None) or {})
        return str(exc), context, classify_occupancy_failure(exc)
    return None


# ---------------------------------------------------------------------------
# the evaluation engine's pricing entry point
# ---------------------------------------------------------------------------

#: Smallest structural family :func:`price` hands to the family pass.
#: Below it, building and running a :class:`FamilyStructure` (0.6–1.5
#: ms for one plan) costs more than the scalar model (0.09–0.29 ms per
#: plan).
MIN_FAMILY = 4

_SCALAR_ONLY = False


@contextmanager
def scalar_pricing():
    """Price every plan with the scalar model inside the block.

    Results are bit-identical either way; the parity tests and the
    scalar arm of the ``BENCH_compare.json`` comparison use this to
    measure what the family pass saves.
    """
    global _SCALAR_ONLY
    previous, _SCALAR_ONLY = _SCALAR_ONLY, True
    try:
        yield
    finally:
        _SCALAR_ONLY = previous


def price_plan(
    ir: ProgramIR, plan: KernelPlan, device: DeviceSpec = P100
) -> PricedLane:
    """One plan through the scalar model: the occupancy screen, then
    :func:`~repro.gpu.simulator.simulate` when the launch fits."""
    pre = plan_prefix(ir, plan)
    rejection = _occupancy_rejection(
        device,
        pre.geometry.threads_per_block,
        min(pre.reg_demand, plan.max_registers),
        pre.shmem,
    )
    if rejection is not None:
        message, context, code = rejection
        return PricedLane(
            pre.reg_demand, None, message, context, code, vectorized=False
        )
    return PricedLane(
        pre.reg_demand, simulate(ir, plan, device), vectorized=False
    )


class Quote(NamedTuple):
    """One plan's entry in :func:`price`'s answer.

    ``plan`` is the plan to request: with register ``levels``, the input
    plan capped at ``levels[rung]``, its first level that holds the
    register ``demand``; ``rung`` is -1 when every level spills (``plan``
    is then the input plan, and nothing was priced).  Without ``levels``
    both are None.
    """

    plan: KernelPlan
    demand: Optional[int]
    rung: Optional[int]
    priced: Optional[PricedLane]  # the family pass's lane, if it ran
    ir: ProgramIR
    device: DeviceSpec

    def lane(self) -> PricedLane:
        """The plan's price: the family pass's lane, or the scalar
        model's, priced per call (so a request the memo serves never
        runs the model)."""
        if self.priced is not None:
            return self.priced
        return price_plan(self.ir, self.plan, self.device)


def resolve_rungs(demands: np.ndarray, levels: Sequence[int]) -> np.ndarray:
    """The index of each lane's first level that holds its register
    demand, -1 where every level spills."""
    positions = np.full(len(demands), -1, dtype=_I8)
    for j, lv in enumerate(levels):
        positions[(positions < 0) & (demands <= lv)] = j
    return positions


def _family_pass(n: int, run: Callable[[], Any]) -> Any:
    """``run()``, the vectorized pass over an ``n``-lane family, or None
    where the family is priced by the scalar model instead.

    The scalar-or-vector choice lives here: below :data:`MIN_FAMILY`
    lanes or under :func:`scalar_pricing` the pass does not run, and if
    it raises, the family falls back to the scalar model (counted as
    ``pricing.scalar_fallbacks``).
    """
    if n < MIN_FAMILY or _SCALAR_ONLY:
        return None
    try:
        return run()
    except Exception:  # noqa: BLE001 — the scalar model is the oracle
        if _metrics_enabled():
            _obs_counter("pricing.scalar_fallbacks").add()
        return None


def price(
    ir: ProgramIR,
    plans: Sequence[KernelPlan],
    device: DeviceSpec = P100,
    levels: Optional[Sequence[int]] = None,
    held: Collection[KernelPlan] = (),
) -> List[Quote]:
    """Quote plans that share one structural key, in input order.

    At or above :data:`MIN_FAMILY` plans one family pass prices every
    lane up front; otherwise (see :func:`_family_pass`) each quote
    prices its plan with the scalar model when asked.

    ``levels`` resolves the register ladder: each plan is quoted at its
    first non-spilling rung (through :func:`price_lanes`).  ``held``
    names plans whose price the caller already has; the family pass
    leaves them out (with ``levels``, only when every plan is held: the
    pass that resolves the rungs prices the lanes in the same sweep).
    """
    if levels is not None:
        quote = price_lanes(
            ir, plans[0], LaneGrid.of(plans), device, levels,
            screened=all(p in held for p in plans),
        )
        if quote is None:
            return scalar_quotes(ir, plans, device, levels)
        demands, rungs, lanes = quote
        quotes = []
        for i, (plan, demand, rung) in enumerate(
            zip(plans, demands.tolist(), rungs.tolist())
        ):
            if rung >= 0:
                plan = plan.replace(max_registers=levels[rung])
            lane = None if lanes is None else lanes[i]
            quotes.append(Quote(plan, demand, rung, lane, ir, device))
        return quotes
    fresh = list(dict.fromkeys(p for p in plans if p not in held))
    lanes = _family_pass(
        len(plans),
        lambda: family_structure(ir, plans[0]).price(fresh, device),
    )
    if lanes is None:
        return scalar_quotes(ir, plans, device)
    priced = dict(zip(fresh, lanes))
    return [
        Quote(plan, None, None, priced.get(plan), ir, device)
        for plan in plans
    ]


def scalar_quotes(
    ir: ProgramIR,
    plans: Sequence[KernelPlan],
    device: DeviceSpec = P100,
    levels: Optional[Sequence[int]] = None,
) -> List[Quote]:
    """:func:`price`'s answer with every plan priced by the scalar model
    on request (with ``levels``, each rung resolved from the plan's
    register demand up front)."""
    if levels is None:
        return [Quote(plan, None, None, None, ir, device) for plan in plans]
    demands = [plan_prefix(ir, plan).reg_demand for plan in plans]
    rungs = resolve_rungs(np.asarray(demands, _I8), levels).tolist()
    return [
        Quote(
            plan.replace(max_registers=levels[rung]) if rung >= 0 else plan,
            demand, rung, None, ir, device,
        )
        for plan, demand, rung in zip(plans, demands, rungs)
    ]


def price_lanes(
    ir: ProgramIR,
    proto: KernelPlan,
    grid: LaneGrid,
    device: DeviceSpec,
    levels: Sequence[int],
    screened: bool = False,
) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[PricedLanes]]]:
    """One structural family's spill-free quote as lane arrays.

    ``(demands, rungs, lanes)`` from one family pass over ``grid``
    (``proto`` names the structure): the register demand, the index of
    the chosen rung in ``levels`` (-1 where every level spills) and the
    prices at that rung.  A ``screened`` family is never priced, so only
    its demands and rungs are computed and ``lanes`` is None.

    Returns None where the family is priced by the scalar model (see
    :func:`_family_pass`); the caller then quotes it with
    :func:`scalar_quotes`.
    """

    def run():
        structure = family_structure(ir, proto)
        if screened:
            demands = structure.demand(grid)
            return demands, resolve_rungs(demands, levels), None
        return structure.price_spill_free(grid, levels, device)

    return _family_pass(len(grid), run)


def _expand_grid(family: KernelPlan, grid: Dict[str, Sequence]) -> List[KernelPlan]:
    for axis in grid:
        if axis not in GRID_AXES:
            raise UsageError(
                f"grid axis {axis!r} would change the plan family's "
                f"structure; sweepable axes are {GRID_AXES}"
            )
    axes = [axis for axis in GRID_AXES if axis in grid]
    plans: List[KernelPlan] = []
    for values in itertools.product(*(tuple(grid[a]) for a in axes)):
        plans.append(family.replace(**dict(zip(axes, values))))
    return plans


def price_family(
    ir: ProgramIR,
    family,
    grid: Optional[Dict[str, Sequence]] = None,
    device: DeviceSpec = P100,
) -> FamilyPricing:
    """Price a whole plan family in one vectorized shot.

    ``family`` is either a base :class:`KernelPlan` (combine with
    ``grid``, a mapping of :data:`GRID_AXES` names to value lists whose
    cross product is swept) or an explicit sequence of plans sharing one
    structural key.  Returns a :class:`FamilyPricing` whose ``lanes``
    bitwise-match a loop of scalar :func:`~repro.gpu.simulator.simulate`
    / :func:`~repro.gpu.simulator.plan_occupancy` calls and whose
    ``table`` is a structured array over the lane axis.
    """
    if isinstance(family, KernelPlan):
        plans = _expand_grid(family, grid or {})
        proto = family
    else:
        plans = list(family)
        if grid:
            raise UsageError("pass a grid with a base plan, not a plan list")
        if not plans:
            raise UsageError("price_family needs at least one plan")
        proto = plans[0]
    key = plan_structural_key(proto)
    for plan in plans:
        if plan_structural_key(plan) != key:
            raise UsageError(
                "price_family requires all lanes to share one structural "
                f"key; {plan.describe()!r} differs from the family's"
            )
    structure = family_structure(ir, proto)
    lanes = tuple(structure.price(plans, device))
    table = np.zeros(len(lanes), dtype=_TABLE_DTYPE)
    for i, lane in enumerate(lanes):
        row = table[i]
        row["feasible"] = lane.feasible
        row["reg_demand"] = lane.demand
        if lane.result is None:
            row["rejection"] = lane.occ_code or ""
            for field_name in (
                "occupancy", "flops", "dram_bytes", "tex_bytes",
                "shm_bytes", "spill_bytes", "time_s", "tflops",
            ):
                row[field_name] = math.nan
            continue
        result = lane.result
        row["regs_per_thread"] = result.counters.regs_per_thread
        row["blocks_per_sm"] = result.occupancy.blocks_per_sm
        row["occupancy"] = result.occupancy.occupancy
        row["flops"] = result.counters.flops
        row["dram_bytes"] = result.counters.dram_bytes
        row["tex_bytes"] = result.counters.tex_bytes
        row["shm_bytes"] = result.counters.shm_bytes
        row["spill_bytes"] = result.counters.spill_bytes
        row["time_s"] = result.time_s
        row["tflops"] = result.tflops
    return FamilyPricing(plans=tuple(plans), lanes=lanes, table=table)
