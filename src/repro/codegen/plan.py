"""Kernel plans: the configuration space of generated GPU code.

A :class:`KernelPlan` captures every decision ARTEMIS makes when lowering
one kernel launch: which stencil instances are fused into it, the thread
block geometry, the tiling/streaming scheme, unrolling, prefetching,
per-array storage placements, retiming, folding, and the register budget.
Plans are immutable values; the autotuner enumerates them, the simulator
prices them, the CUDA emitter renders them, and the functional executor
validates them.

Axis convention: tuples indexed by *program axis*, outermost first (the
DSL's ``iterator k, j, i`` gives axis 0 = k, 1 = j, 2 = i).  Only the
CUDA emitter converts to CUDA's x-fastest convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.folding import FoldGroup

#: Streaming modes (paper Sections III-A2 and III-B1).
STREAM_NONE = "none"
STREAM_SERIAL = "serial"
STREAM_CONCURRENT = "concurrent"
STREAMING_MODES = (STREAM_NONE, STREAM_SERIAL, STREAM_CONCURRENT)

#: Thread-block perspectives (paper Section III-B3).
PERSPECTIVE_OUTPUT = "output"
PERSPECTIVE_INPUT = "input"
PERSPECTIVE_MIXED = "mixed"
PERSPECTIVES = (PERSPECTIVE_OUTPUT, PERSPECTIVE_INPUT, PERSPECTIVE_MIXED)

#: Storage classes for array placement.
SHMEM = "shmem"
GMEM = "gmem"
REGISTER = "register"
CONSTANT = "constant"
STORAGE_CLASSES = (SHMEM, GMEM, REGISTER, CONSTANT)

#: Register budgets explored by the autotuner (paper Section V).
REGISTER_LEVELS = (32, 64, 128, 255)


@dataclass(frozen=True)
class KernelPlan:
    """One generated-kernel configuration.

    ``kernel_names`` lists the stencil instances fused into this launch,
    in execution order.  ``time_tile`` > 1 fuses that many applications
    of an iterative stencil (overlapped time tiling).
    """

    kernel_names: Tuple[str, ...]
    block: Tuple[int, ...]  # threads per axis, outermost first
    time_tile: int = 1
    streaming: str = STREAM_NONE
    stream_axis: int = 0
    concurrent_chunks: int = 1  # z-partitions under concurrent streaming
    unroll: Tuple[int, ...] = ()  # per-axis unroll factors ((=all 1s))
    unroll_blocked: bool = True  # blocked vs cyclic work distribution
    prefetch: bool = False
    perspective: str = PERSPECTIVE_OUTPUT
    placements: Tuple[Tuple[str, str], ...] = ()
    retime: bool = False
    fold_groups: Tuple[FoldGroup, ...] = ()
    max_registers: int = 255

    # -- validation -----------------------------------------------------------

    def __post_init__(self):
        if not self.kernel_names:
            raise ValueError("plan must cover at least one kernel instance")
        if self.streaming not in STREAMING_MODES:
            raise ValueError(f"unknown streaming mode {self.streaming!r}")
        if self.perspective not in PERSPECTIVES:
            raise ValueError(f"unknown perspective {self.perspective!r}")
        if self.time_tile < 1:
            raise ValueError("time_tile must be >= 1")
        if self.concurrent_chunks < 1:
            raise ValueError("concurrent_chunks must be >= 1")
        if not (1 <= self.max_registers <= 255):
            raise ValueError("max_registers must be in [1, 255]")
        for b in self.block:
            if b < 1:
                raise ValueError("block sizes must be positive")
        for u in self.unroll:
            if u < 1:
                raise ValueError("unroll factors must be positive")
        for _, storage in self.placements:
            if storage not in STORAGE_CLASSES:
                raise ValueError(f"unknown storage class {storage!r}")

    # -- derived geometry ------------------------------------------------------

    @property
    def uses_streaming(self) -> bool:
        return self.streaming in (STREAM_SERIAL, STREAM_CONCURRENT)

    @property
    def placement_map(self) -> Dict[str, str]:
        return dict(self.placements)

    def placement_of(self, array: str) -> str:
        """Storage class for an array (default: global memory)."""
        return self.placement_map.get(array, GMEM)

    def unroll_factor(self, axis: int) -> int:
        if axis < len(self.unroll):
            return self.unroll[axis]
        return 1

    def block_threads(self) -> int:
        threads = 1
        for extent in self.block:
            threads *= extent
        return threads

    def block_on_axis(self, axis: int, ndim: int) -> int:
        """Thread count along a program axis.

        The ``block`` tuple assigns threads to the *tiled* axes.  Under
        streaming the stream axis has one thread layer; the remaining
        block entries map onto the other axes outermost-first.
        """
        tiled_axes = self.tiled_axes(ndim)
        if axis not in tiled_axes:
            return 1
        position = tiled_axes.index(axis)
        if position < len(self.block):
            return self.block[position]
        return 1

    def tiled_axes(self, ndim: int) -> Tuple[int, ...]:
        """Axes that receive thread-block tiling (all but the stream axis)."""
        if self.uses_streaming:
            return tuple(a for a in range(ndim) if a != self.stream_axis)
        return tuple(range(ndim))

    def tile_extent(self, axis: int, ndim: int) -> int:
        """Output points per block along an axis (threads x unroll)."""
        return self.block_on_axis(axis, ndim) * self.unroll_factor(axis)

    def total_unroll(self) -> int:
        total = 1
        for factor in self.unroll:
            total *= factor
        return total

    def replace(self, **changes) -> "KernelPlan":
        # Hand-rolled for speed: the tuners derive every candidate from a
        # seed via replace(), so this runs tens of thousands of times per
        # search.  One C-level __dict__ copy plus re-running
        # __post_init__ validation beats dataclasses.replace's generic
        # machinery by an order of magnitude.  The pinned identity
        # caches survive the copy exactly when the changed fields are
        # factored out of them: ``_family_key`` excludes only
        # ``max_registers``, ``_structural_key`` additionally the grid
        # axes (block, unroll, unroll_blocked) — so the register
        # escalation ladder and the tile sweep inherit their parents'
        # keys instead of recomputing them per candidate.
        new = object.__new__(KernelPlan)
        d = new.__dict__
        d.update(self.__dict__)
        changed = changes.keys()
        if changed - _STRUCTURAL_EXEMPT:
            d.pop("_structural_key", None)
        if changed - _FAMILY_EXEMPT:
            d.pop("_family_key", None)
        for name, value in changes.items():
            if name not in _PLAN_FIELD_SET:
                raise TypeError(
                    f"replace() got an unexpected field {name!r}"
                )
            d[name] = value
        new.__post_init__()
        return new

    def describe(self) -> str:
        """Human-readable one-line summary (used by reports and tuning logs)."""
        parts = [
            "+".join(self.kernel_names),
            f"block={'x'.join(str(b) for b in self.block)}",
        ]
        if self.time_tile > 1:
            parts.append(f"tt={self.time_tile}")
        if self.uses_streaming:
            parts.append(f"stream={self.streaming}@{self.stream_axis}")
            if self.streaming == STREAM_CONCURRENT:
                parts.append(f"chunks={self.concurrent_chunks}")
        if self.unroll and any(u > 1 for u in self.unroll):
            parts.append(f"unroll={'x'.join(str(u) for u in self.unroll)}")
        if self.prefetch:
            parts.append("prefetch")
        if self.retime:
            parts.append("retime")
        if self.fold_groups:
            parts.append(f"fold={len(self.fold_groups)}")
        if self.perspective != PERSPECTIVE_OUTPUT:
            parts.append(self.perspective)
        shm = [a for a, s in self.placements if s == SHMEM]
        if shm:
            parts.append(f"shm({','.join(shm)})")
        parts.append(f"regs<={self.max_registers}")
        return " ".join(parts)


#: Declared field names, in order, for the fast ``KernelPlan.replace``.
_PLAN_FIELDS = tuple(f.name for f in KernelPlan.__dataclass_fields__.values())
_PLAN_FIELD_SET = frozenset(_PLAN_FIELDS)

#: Fields factored out of the pinned identity caches (see
#: ``repro.codegen.tiling.plan_family_key`` / ``plan_structural_key``):
#: a ``replace`` touching only these keeps the corresponding cache.
_FAMILY_EXEMPT = frozenset({"max_registers"})
_STRUCTURAL_EXEMPT = frozenset(
    {"max_registers", "block", "unroll", "unroll_blocked"}
)


@dataclass(frozen=True)
class ProgramPlan:
    """A full schedule: one plan per launch, in execution order.

    For iterative programs, ``launch_counts[i]`` says how many times
    launch ``i`` is invoked (a deep-tuned fusion schedule such as
    ``(4x3 ⊕ 1x1)`` becomes two entries with counts 3 and 1).
    """

    plans: Tuple[KernelPlan, ...]
    launch_counts: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.launch_counts and len(self.launch_counts) != len(self.plans):
            raise ValueError("launch_counts must match plans")

    @property
    def counts(self) -> Tuple[int, ...]:
        if self.launch_counts:
            return self.launch_counts
        return tuple(1 for _ in self.plans)

    def total_time_steps(self) -> int:
        """Total iterative applications covered by this schedule."""
        return sum(p.time_tile * c for p, c in zip(self.plans, self.counts))
