"""Static analyses over the stencil IR.

These produce the quantities the paper's Table I reports (stencil order,
per-point FLOPs, number of I/O arrays) and the inputs the GPU counter
model needs (halos per array per axis, access counts by array, theoretical
operational intensity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dsl.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    UnaryOp,
    array_accesses,
    scalar_names,
)
from ..obs import counter as _counter, metrics_enabled as _metrics_enabled
from ..obs import span as _span
from .stencil import ProgramIR, Statement, StencilInstance

# ---------------------------------------------------------------------------
# memoization pinned on the immutable IR
#
# Analyses walk (potentially enormous) expression ASTs; the simulator and
# autotuner ask for them thousands of times on the same frozen kernel
# instances and programs.  Each result is kept in a ``_memo`` dict in the
# ``__dict__`` of the object it derives from, so it lives exactly as long
# as that object: a rebuilt IR starts cold and a dropped one frees its
# results.  ``StencilInstance`` and ``ProgramIR`` leave ``_memo`` out of
# their pickled and copied state.
# ---------------------------------------------------------------------------

#: (miss counter prefix, span prefix) of each observed memo family.
_OBSERVED = {
    "analysis": ("analysis.cache_miss.", "analysis."),
    "planning": ("tiling.plan_cache_miss.", "planning."),
}

_MISSING = object()


def memoized(tag: str, owner, compute, key=None, observe="analysis"):
    """``compute()``, computed once per ``(tag, key)`` and pinned on ``owner``.

    ``owner`` is the frozen object the value derives from; together with
    ``tag`` and the hashable ``key`` (e.g. an array name or a plan family
    key) it must fully determine the value.  Each miss bumps the
    ``observe`` family's counter and runs inside its span, both suffixed
    with ``tag``; ``observe=None`` leaves a miss unobserved.  Only misses
    are observed: they are where values are computed, and rare enough
    that instrumentation cannot slow the hit path.
    """
    try:
        memo = owner.__dict__["_memo"]
    except KeyError:
        memo = owner.__dict__["_memo"] = {}
    full = (tag, key)
    value = memo.get(full, _MISSING)
    if value is not _MISSING:
        return value
    if observe is None:
        value = compute()
    else:
        counter, span = _OBSERVED[observe]
        if _metrics_enabled():
            _counter(counter + tag).add()
        with _span(span + tag):
            value = compute()
    memo[full] = value
    return value


#: FLOP cost charged per intrinsic call (conventional single-op counting).
CALL_FLOPS = {
    "sqrt": 1,
    "cbrt": 1,
    "fabs": 1,
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "tanh": 1,
    "fmin": 1,
    "fmax": 1,
    "min": 1,
    "max": 1,
    "pow": 1,
}


# ---------------------------------------------------------------------------
# FLOP counting
# ---------------------------------------------------------------------------


def count_flops(expr: Expr) -> int:
    """Floating-point operations in an expression tree.

    Each binary arithmetic operator counts as one FLOP; unary negation is
    folded into the consuming operation (zero cost); intrinsics are
    charged per :data:`CALL_FLOPS`.
    """
    if isinstance(expr, (Num, Name, ArrayAccess)):
        return 0
    if isinstance(expr, UnaryOp):
        return count_flops(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + count_flops(expr.left) + count_flops(expr.right)
    if isinstance(expr, Call):
        return CALL_FLOPS.get(expr.func, 1) + sum(count_flops(a) for a in expr.args)
    raise TypeError(type(expr).__name__)


def statement_flops(stmt: Statement) -> int:
    """FLOPs of one statement (a ``+=`` costs one extra add)."""
    return count_flops(stmt.rhs) + (1 if stmt.op == "+=" else 0)


def kernel_flops_per_point(instance: StencilInstance) -> int:
    """FLOPs executed per output grid point by one kernel instance."""
    return memoized(
        "flops",
        instance,
        lambda: sum(statement_flops(s) for s in instance.statements),
    )


# ---------------------------------------------------------------------------
# Access patterns and halos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessPattern:
    """One array access, positioned on the program's iteration axes.

    ``axis_offsets[d]`` is the constant offset along program axis ``d``,
    or None when the access does not index that axis (lower-rank arrays)
    or uses an absolute/skewed subscript.
    """

    array: str
    axis_offsets: Tuple[Optional[int], ...]
    is_write: bool = False

    def max_abs_offset(self) -> int:
        return max((abs(o) for o in self.axis_offsets if o is not None), default=0)


def access_patterns(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[AccessPattern, ...]:
    """Every array access in the instance, reads and writes, in order."""

    def compute():
        out: List[AccessPattern] = []
        for stmt in instance.statements:
            for access in array_accesses(stmt.rhs):
                out.append(_pattern_of(ir, access, is_write=False))
            if isinstance(stmt.lhs, ArrayAccess):
                out.append(_pattern_of(ir, stmt.lhs, is_write=True))
        return tuple(out)

    return memoized("patterns", instance, compute)


def _pattern_of(ir: ProgramIR, access: ArrayAccess, is_write: bool) -> AccessPattern:
    offsets: List[Optional[int]] = [None] * ir.ndim
    for idx in access.indices:
        it = idx.single_iterator()
        if it is not None and it in ir.iterators:
            offsets[ir.axis_of(it)] = idx.const
    return AccessPattern(access.name, tuple(offsets), is_write)


def array_offset_sets(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Tuple[Tuple[Tuple[Optional[int], ...], ...],
                     Tuple[Tuple[Optional[int], ...], ...]]]:
    """Per-array distinct ``(read_offsets, write_offsets)`` for one kernel.

    Each side is a tuple of distinct per-axis offset vectors (``None``
    marks an axis the access does not index with a plain iterator).  The
    dependence engine (``repro.lint.dependence``) subtracts these
    pairwise to obtain exact dependence distances between kernels.
    """

    def compute():
        reads: Dict[str, List[Tuple[Optional[int], ...]]] = {}
        writes: Dict[str, List[Tuple[Optional[int], ...]]] = {}
        for pattern in access_patterns(ir, instance):
            bucket = (writes if pattern.is_write else reads).setdefault(
                pattern.array, []
            )
            if pattern.axis_offsets not in bucket:
                bucket.append(pattern.axis_offsets)
        return {
            name: (
                tuple(reads.get(name, ())),
                tuple(writes.get(name, ())),
            )
            for name in sorted({*reads, *writes})
        }

    return memoized("offset_sets", instance, compute)


def read_halos(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    """Per-array read halo: (lo, hi) non-negative extents per axis.

    ``lo`` is how far reads reach below the center along the axis, ``hi``
    how far above.  Arrays never read get no entry.
    """
    return memoized("halos", instance, lambda: _read_halos(ir, instance))


def _read_halos(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    halos: Dict[str, List[List[int]]] = {}
    for pattern in access_patterns(ir, instance):
        if pattern.is_write:
            continue
        entry = halos.setdefault(
            pattern.array, [[0, 0] for _ in range(ir.ndim)]
        )
        for axis, offset in enumerate(pattern.axis_offsets):
            if offset is None:
                continue
            entry[axis][0] = max(entry[axis][0], -offset)
            entry[axis][1] = max(entry[axis][1], offset)
    return {
        name: tuple((lo, hi) for lo, hi in per_axis)
        for name, per_axis in halos.items()
    }


def combined_halo(ir: ProgramIR, instance: StencilInstance) -> Tuple[Tuple[int, int], ...]:
    """Union of read halos across all arrays, per axis."""

    def compute():
        combined = [[0, 0] for _ in range(ir.ndim)]
        for per_axis in read_halos(ir, instance).values():
            for axis, (lo, hi) in enumerate(per_axis):
                combined[axis][0] = max(combined[axis][0], lo)
                combined[axis][1] = max(combined[axis][1], hi)
        return tuple((lo, hi) for lo, hi in combined)

    return memoized("combined_halo", instance, compute)


def stencil_order(ir: ProgramIR, instance: StencilInstance) -> int:
    """Stencil order k: max |offset| over all read accesses (paper, §I)."""

    def compute():
        order = 0
        for pattern in access_patterns(ir, instance):
            if not pattern.is_write:
                order = max(order, pattern.max_abs_offset())
        return order

    return memoized("order", instance, compute)


def program_order(ir: ProgramIR) -> int:
    return max((stencil_order(ir, k) for k in ir.kernels), default=0)


# ---------------------------------------------------------------------------
# Access counting (feeds the texture/shared traffic model)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayAccessSummary:
    """Per-array static access counts for one kernel instance."""

    array: str
    reads_total: int  # textual read count (with repetition)
    reads_distinct: int  # distinct offset vectors read
    writes: int
    offsets: Tuple[Tuple[Optional[int], ...], ...]  # distinct read offsets


def access_summary(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, ArrayAccessSummary]:
    return memoized("summary", instance, lambda: _access_summary(ir, instance))


def _access_summary(
    ir: ProgramIR, instance: StencilInstance
) -> Dict[str, ArrayAccessSummary]:
    reads_total: Dict[str, int] = {}
    writes: Dict[str, int] = {}
    offsets: Dict[str, List[Tuple[Optional[int], ...]]] = {}
    for pattern in access_patterns(ir, instance):
        if pattern.is_write:
            writes[pattern.array] = writes.get(pattern.array, 0) + 1
            offsets.setdefault(pattern.array, [])
            continue
        reads_total[pattern.array] = reads_total.get(pattern.array, 0) + 1
        bucket = offsets.setdefault(pattern.array, [])
        if pattern.axis_offsets not in bucket:
            bucket.append(pattern.axis_offsets)
    # ``offsets`` holds every array read or written, in first-access
    # order: consumers sum floats over this dict, so its order must not
    # depend on string hashing.
    out: Dict[str, ArrayAccessSummary] = {}
    for array, distinct in offsets.items():
        out[array] = ArrayAccessSummary(
            array=array,
            reads_total=reads_total.get(array, 0),
            reads_distinct=len(distinct),
            writes=writes.get(array, 0),
            offsets=tuple(distinct),
        )
    return out


# ---------------------------------------------------------------------------
# Table I characteristics and theoretical OI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCharacteristics:
    """The quantities Table I reports for one benchmark."""

    name: str
    domain: Tuple[int, ...]
    time_iterations: int
    order: int
    flops_per_point: int
    io_arrays: int
    theoretical_oi: float


def characteristics(ir: ProgramIR) -> KernelCharacteristics:
    """Aggregate Table I characteristics over all kernels of a program."""
    with _span("analysis", what="characteristics"):
        return _characteristics(ir)


def _characteristics(ir: ProgramIR) -> KernelCharacteristics:
    flops = sum(kernel_flops_per_point(k) for k in ir.kernels)
    order = program_order(ir)
    io: List[str] = []
    for kernel in ir.kernels:
        for name in kernel.io_arrays():
            if name not in io:
                io.append(name)
    return KernelCharacteristics(
        name=ir.kernels[0].stencil_name if ir.kernels else "<empty>",
        domain=ir.domain_shape(),
        time_iterations=ir.time_iterations,
        order=order,
        flops_per_point=flops,
        io_arrays=len(io),
        theoretical_oi=theoretical_oi(ir),
    )


def theoretical_oi(ir: ProgramIR) -> float:
    """FLOPs per byte assuming each I/O array moves exactly once (OI_T).

    Inputs are read once from DRAM and outputs written once; intermediate
    arrays both written and read count twice.  This matches the paper's
    ``OIT`` column in Table III.
    """
    arrays = ir.array_map
    points = 1
    for extent in ir.domain_shape():
        points *= extent
    total_flops = sum(kernel_flops_per_point(k) for k in ir.kernels) * points
    total_flops *= ir.time_iterations

    moved_bytes = 0
    read_by: Dict[str, bool] = {}
    written_by: Dict[str, bool] = {}
    for kernel in ir.kernels:
        for name in kernel.arrays_read():
            read_by[name] = True
        for name in kernel.arrays_written():
            written_by[name] = True
    for name in set(read_by) | set(written_by):
        info = arrays[name]
        if read_by.get(name):
            moved_bytes += info.bytes
        if written_by.get(name):
            moved_bytes += info.bytes
    moved_bytes *= ir.time_iterations
    if moved_bytes == 0:
        return float("inf")
    return total_flops / moved_bytes


def unique_bytes_per_point(ir: ProgramIR, instance: StencilInstance) -> float:
    """Minimum bytes moved per output point for one kernel (reads+writes)."""
    arrays = ir.array_map
    points = 1
    for extent in ir.domain_shape():
        points *= extent
    total = 0
    for name in instance.arrays_read():
        total += arrays[name].bytes
    for name in instance.arrays_written():
        total += arrays[name].bytes
    return total / points


# ---------------------------------------------------------------------------
# intra-kernel statement geometry (sequential fused-DAG semantics)
# ---------------------------------------------------------------------------


def scalar_slices(instance: StencilInstance) -> Dict[int, Tuple[int, ...]]:
    """Per grid statement: the local-statement indices it depends on."""
    contrib: Dict[str, set] = {}
    result: Dict[int, Tuple[int, ...]] = {}
    for index, stmt in enumerate(instance.statements):
        needed: set = set()
        for name in scalar_names(stmt.rhs):
            needed |= contrib.get(name, set())
        if stmt.is_local:
            if stmt.op == "+=":
                needed |= contrib.get(stmt.target, set())
            contrib[stmt.target] = needed | {index}
        else:
            result[index] = tuple(sorted(needed))
    return result


def _segment_halos(
    ir: ProgramIR, instance: StencilInstance, indices: Sequence[int]
) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    """Per-array read halos over a subset of statements."""
    halos: Dict[str, List[List[int]]] = {}
    for index in indices:
        stmt = instance.statements[index]
        for access in array_accesses(stmt.rhs):
            entry = halos.setdefault(
                access.name, [[0, 0] for _ in range(ir.ndim)]
            )
            for idx in access.indices:
                iterator = idx.single_iterator()
                if iterator is None or iterator not in ir.iterators:
                    continue
                axis = ir.axis_of(iterator)
                entry[axis][0] = max(entry[axis][0], -idx.const)
                entry[axis][1] = max(entry[axis][1], idx.const)
    return {
        name: tuple((lo, hi) for lo, hi in entry)
        for name, entry in halos.items()
    }


def statement_geometry(ir: ProgramIR, instance: StencilInstance):
    return memoized(
        "stmt_geometry", instance, lambda: _statement_geometry(ir, instance)
    )


def _statement_geometry(ir: ProgramIR, instance: StencilInstance):
    """Per grid statement: (local slice, combined halo, internal expansion).

    Statements inside one kernel execute sequentially over the grid; a
    consumer reading an array a *previous* statement of the same kernel
    wrote at a non-zero offset forces the producer to compute an expanded
    region (the intra-kernel recompute halo of Section VI-B).
    """
    slices = scalar_slices(instance)
    grid_indices = sorted(slices)
    halo_of: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    reads_of: Dict[int, Dict[str, Tuple[Tuple[int, int], ...]]] = {}
    writer_of: Dict[str, List[int]] = {}
    for g in grid_indices:
        segment = list(slices[g]) + [g]
        per_array = _segment_halos(ir, instance, segment)
        reads_of[g] = per_array
        combined = [[0, 0] for _ in range(ir.ndim)]
        for entry in per_array.values():
            for axis, (lo, hi) in enumerate(entry):
                combined[axis][0] = max(combined[axis][0], lo)
                combined[axis][1] = max(combined[axis][1], hi)
        halo_of[g] = tuple((lo, hi) for lo, hi in combined)
        writer_of.setdefault(instance.statements[g].target, []).append(g)

    expansion: Dict[int, List[List[int]]] = {
        g: [[0, 0] for _ in range(ir.ndim)] for g in grid_indices
    }
    for t in reversed(grid_indices):
        for array, halo in reads_of[t].items():
            for producer in writer_of.get(array, []):
                if producer >= t:
                    continue
                for axis in range(ir.ndim):
                    need_lo = expansion[t][axis][0] + halo[axis][0]
                    need_hi = expansion[t][axis][1] + halo[axis][1]
                    expansion[producer][axis][0] = max(
                        expansion[producer][axis][0], need_lo
                    )
                    expansion[producer][axis][1] = max(
                        expansion[producer][axis][1], need_hi
                    )
    return {
        g: (
            slices[g],
            halo_of[g],
            tuple((lo, hi) for lo, hi in expansion[g]),
        )
        for g in grid_indices
    }


def internal_reach(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[Tuple[int, int], ...]:
    """Per-axis (lo, hi) lookback a block needs for this kernel alone:
    max over grid statements of (internal expansion + read halo)."""
    return memoized(
        "reach", instance, lambda: _internal_reach(ir, instance)
    )


def _internal_reach(
    ir: ProgramIR, instance: StencilInstance
) -> Tuple[Tuple[int, int], ...]:
    geometry = statement_geometry(ir, instance)
    reach = [[0, 0] for _ in range(ir.ndim)]
    for _slice, halo, expansion in geometry.values():
        for axis in range(ir.ndim):
            reach[axis][0] = max(reach[axis][0], halo[axis][0] + expansion[axis][0])
            reach[axis][1] = max(reach[axis][1], halo[axis][1] + expansion[axis][1])
    return tuple((lo, hi) for lo, hi in reach)


