"""Functional execution of stencil programs and kernel plans.

Two executors live here:

* :func:`execute_reference` — the semantic ground truth.  It interprets
  the program IR directly: each kernel updates its grid interior (points
  whose whole read neighbourhood is in bounds), boundaries keep their
  previous values, and iterative programs ping-pong output/input between
  applications (Jacobi convention).
* :func:`execute_plan` — interprets a :class:`KernelPlan` the way a GPU
  block would: the domain is decomposed into block tiles, each block
  loads its input tile *once* (with the halo the plan's overlapped tiling
  says it needs) and computes every fused stage purely from its local
  copy.  If the plan's halo/expansion arithmetic were wrong, tile borders
  would diverge from the reference — this is the repo's stand-in for
  running the generated CUDA.

Both are vectorized with NumPy inside tiles and perform identical
floating-point operations, so agreement is exact (bitwise) for
semantically correct plans.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.plan import KernelPlan, ProgramPlan
from ..codegen.tiling import build_stages, launch_geometry, pingpong_pair
from ..dsl.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    UnaryOp,
)
from ..ir.analysis import (
    combined_halo,
    internal_reach,
    statement_geometry,
)
from ..ir.folding import FoldedArray
from ..ir.stencil import ProgramIR, StencilInstance
from ..ir.types import DTYPE_NUMPY

_CALL_IMPL = {
    "sqrt": np.sqrt,
    "cbrt": np.cbrt,
    "fabs": np.abs,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "fmin": np.minimum,
    "fmax": np.maximum,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}


def allocate_inputs(ir: ProgramIR, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic random inputs for every array, plus scalar values."""
    rng = np.random.default_rng(seed)
    data: Dict[str, np.ndarray] = {}
    for info in ir.arrays:
        data[info.name] = rng.uniform(
            0.1, 1.0, size=info.shape
        ).astype(DTYPE_NUMPY[info.dtype])
    return data


def default_scalars(ir: ProgramIR, seed: int = 1) -> Dict[str, float]:
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(0.1, 1.0)) for name, _ in ir.scalars}


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


class _Frame:
    """Evaluation context: array views for a region plus scalar env."""

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        scalars: Dict[str, float],
        region: Tuple[Tuple[int, int], ...],
        iterators: Tuple[str, ...],
        origins: Optional[Dict[str, Tuple[int, ...]]] = None,
    ):
        self.arrays = arrays
        self.scalars = dict(scalars)
        self.region = region
        self.iterators = iterators
        #: per-array coordinate offset (local buffers are shifted copies)
        self.origins = origins or {}
        self.locals: Dict[str, np.ndarray] = {}

    def eval(self, expr: Expr):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Name):
            if expr.id in self.locals:
                return self.locals[expr.id]
            return self.scalars[expr.id]
        if isinstance(expr, UnaryOp):
            return -self.eval(expr.operand)
        if isinstance(expr, BinOp):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right
        if isinstance(expr, Call):
            return _CALL_IMPL[expr.func](*(self.eval(a) for a in expr.args))
        assert isinstance(expr, ArrayAccess)
        return self.read(expr)

    def read(self, access: ArrayAccess) -> np.ndarray:
        array = self.arrays[access.name]
        origin = self.origins.get(access.name, (0,) * array.ndim)
        slices: List[slice] = []
        used_axes: List[int] = []
        for idx in access.indices:
            iterator = idx.single_iterator()
            if iterator is not None:
                axis = self.iterators.index(iterator)
                lo, hi = self.region[axis]
                dim = len(slices)
                start = lo + idx.const - origin[dim]
                slices.append(slice(start, start + (hi - lo)))
                used_axes.append(axis)
            elif idx.is_constant():
                slices.append(idx.const - origin[len(slices)])
                used_axes.append(-1)
            else:
                # General affine subscript: evaluate per-axis coordinates.
                return self._read_affine(access, array, origin)
        view = np.asarray(array[tuple(slices)])
        present = [a for a in used_axes if a >= 0]
        if not present:
            return view
        # Reshape so the view's axes land on the right region axes and
        # missing axes broadcast (lower-rank arrays like strx[i]).
        dim_iter = iter(view.shape)
        target_shape = [
            next(dim_iter) if axis in present else 1
            for axis in range(len(self.region))
        ]
        return view.reshape(target_shape)

    def _read_affine(self, access, array, origin):
        """Slow path: gather for skewed affine subscripts."""
        grids = np.meshgrid(
            *[
                np.arange(lo, hi)
                for lo, hi in self.region
            ],
            indexing="ij",
        )
        coord_of = dict(zip(self.iterators, grids))
        indices = []
        for dim, idx in enumerate(access.indices):
            coord = np.zeros_like(grids[0])
            for name, coeff in idx.coeffs:
                coord = coord + coeff * coord_of[name]
            coord = coord + idx.const - origin[dim]
            indices.append(coord)
        return array[tuple(indices)]


# ---------------------------------------------------------------------------
# reference executor
# ---------------------------------------------------------------------------


def interior_region(
    ir: ProgramIR, instance: StencilInstance, shape: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """The region a kernel updates: points with all reads in bounds."""
    halo = combined_halo(ir, instance)
    return tuple(
        (lo, extent - hi) for (lo, hi), extent in zip(halo, shape)
    )


def run_kernel(
    ir: ProgramIR,
    instance: StencilInstance,
    arrays: Dict[str, np.ndarray],
    scalars: Dict[str, float],
    region: Optional[Tuple[Tuple[int, int], ...]] = None,
    origins: Optional[Dict[str, Tuple[int, ...]]] = None,
    folded: Sequence[FoldedArray] = (),
) -> None:
    """Execute one kernel instance in place.

    Statements execute sequentially over the grid: each grid statement's
    writes are visible to later statements (fused-DAG semantics).  Each
    grid statement runs over its own region — its maximal valid interior
    when ``region`` is None, else the caller's base region expanded by
    the statement's internal recompute expansion and clipped to its
    interior.
    """
    shape = ir.domain_shape()
    _materialize_folds(arrays, folded)
    geometry = statement_geometry(ir, instance)
    for g, (local_slice, halo, expansion) in geometry.items():
        interior = tuple(
            (halo[axis][0], shape[axis] - halo[axis][1])
            for axis in range(ir.ndim)
        )
        if region is None:
            stmt_region = interior
        else:
            stmt_region = tuple(
                (
                    max(region[axis][0] - expansion[axis][0], interior[axis][0]),
                    min(region[axis][1] + expansion[axis][1], interior[axis][1]),
                )
                for axis in range(ir.ndim)
            )
        if any(hi <= lo for lo, hi in stmt_region):
            continue
        frame = _Frame(arrays, scalars, stmt_region, ir.iterators, origins)
        for local_index in local_slice:
            local = instance.statements[local_index]
            value = frame.eval(local.rhs)
            if local.op == "+=":
                frame.locals[local.target] = frame.locals[local.target] + value
            else:
                frame.locals[local.target] = (
                    value
                    if isinstance(value, np.ndarray)
                    else np.asarray(value, dtype=np.float64)
                )
        stmt = instance.statements[g]
        value = frame.eval(stmt.rhs)
        assert isinstance(stmt.lhs, ArrayAccess)
        target = arrays[stmt.target]
        origin = (
            origins.get(stmt.target, (0,) * target.ndim)
            if origins
            else (0,) * target.ndim
        )
        slices = []
        for dim, idx in enumerate(stmt.lhs.indices):
            iterator = idx.single_iterator()
            axis = ir.axis_of(iterator)
            lo, hi = stmt_region[axis]
            start = lo + idx.const - origin[dim]
            slices.append(slice(start, start + (hi - lo)))
        region_shape = tuple(hi - lo for lo, hi in stmt_region)
        if stmt.op == "+=":
            target[tuple(slices)] = target[tuple(slices)] + np.broadcast_to(
                value, region_shape
            )
        else:
            target[tuple(slices)] = np.broadcast_to(value, region_shape)


def _materialize_folds(
    arrays: Dict[str, np.ndarray], folded: Sequence[FoldedArray]
) -> None:
    for fold in folded:
        if fold.name in arrays:
            continue
        value = arrays[fold.members[0]].copy()
        for member in fold.members[1:]:
            if fold.op == "*":
                value = value * arrays[member]
            elif fold.op == "-":
                value = value - arrays[member]
            else:
                value = value + arrays[member]
        arrays[fold.name] = value


def program_pingpong(ir: ProgramIR) -> Tuple[str, str]:
    """(written, read) arrays swapped between program-level iterations.

    The written side is the program's ``copyout`` output (or the last
    array written); the read side is the first same-shaped array that is
    read but never written during one sweep of the kernel list.
    """
    written_all = [
        array for kernel in ir.kernels for array in kernel.arrays_written()
    ]
    written = written_all[-1]
    for candidate in written_all:
        if candidate in ir.copyout:
            written = candidate
            break
    target_shape = ir.array_map[written].shape
    for kernel in ir.kernels:
        for array in kernel.arrays_read():
            info = ir.array_map.get(array)
            if (
                info is not None
                and info.shape == target_shape
                and array not in written_all
            ):
                return written, array
    raise ValueError("iterative program has no ping-pong pair")


def execute_reference(
    ir: ProgramIR,
    inputs: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, float]] = None,
    time_iterations: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Ground-truth execution of the whole program."""
    arrays = {name: value.copy() for name, value in inputs.items()}
    scalars = scalars if scalars is not None else default_scalars(ir)
    steps = time_iterations if time_iterations is not None else ir.time_iterations
    carry = ir.is_iterative or steps > 1
    written, read = program_pingpong(ir) if carry else (None, None)
    for step in range(steps):
        if carry:
            # Boundary-carry semantics: each application starts from the
            # input everywhere, then overwrites the interior.  This makes
            # results independent of how a schedule splits the time loop.
            arrays[written][...] = arrays[read]
        for instance in ir.kernels:
            run_kernel(ir, instance, arrays, scalars)
        if carry and step < steps - 1:
            # Jacobi ping-pong: the freshly written values become the
            # next application's input.
            arrays[written], arrays[read] = arrays[read], arrays[written]
    return arrays


# ---------------------------------------------------------------------------
# plan executor (block-tiled, local-buffer execution)
# ---------------------------------------------------------------------------


def execute_plan(
    ir: ProgramIR,
    plan: KernelPlan,
    inputs: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, float]] = None,
) -> Dict[str, np.ndarray]:
    """Execute one launch of ``plan`` block-by-block from local copies.

    Each block copies its input tiles (output tile + the overlap the
    plan's stage expansion dictates + the read halo) and computes every
    fused stage exclusively from those copies, exactly as the generated
    CUDA would from shared memory/registers.  The result must equal
    ``time_tile`` (or the fused DAG's) applications of the reference.
    """
    arrays = {name: value.copy() for name, value in inputs.items()}
    scalars = scalars if scalars is not None else default_scalars(ir)
    stages = build_stages(ir, plan)
    shape = ir.domain_shape()
    ndim = len(shape)

    # Output buffers: blocks write only their own output tile, so block
    # order cannot matter; writes land in fresh copies.
    final_outputs = {
        name: arrays[name].copy()
        for stage in stages
        if stage.is_last
        for name in stage.instance.arrays_written()
    }

    tile = _output_tile(ir, plan)
    counts = [-(-shape[axis] // tile[axis]) for axis in range(ndim)]

    # Total lookback a block needs: max over stages of the stage's
    # overlapped-tiling expansion plus the kernel's internal reach
    # (halo + intra-kernel recompute expansion).
    lookback = [[0, 0] for _ in range(ndim)]
    for stage in stages:
        reach = internal_reach(ir, stage.instance)
        for axis in range(ndim):
            lookback[axis][0] = max(
                lookback[axis][0], stage.expand[axis][0] + reach[axis][0]
            )
            lookback[axis][1] = max(
                lookback[axis][1], stage.expand[axis][1] + reach[axis][1]
            )
    lookback_t = tuple((lo, hi) for lo, hi in lookback)

    for block_index in itertools.product(*[range(c) for c in counts]):
        _execute_block(
            ir,
            plan,
            stages,
            arrays,
            scalars,
            final_outputs,
            shape,
            tile,
            block_index,
            lookback_t,
        )

    for name, buffer in final_outputs.items():
        arrays[name] = buffer
    return arrays


def _output_tile(ir: ProgramIR, plan: KernelPlan) -> Tuple[int, ...]:
    geometry = launch_geometry(ir, plan)
    return geometry.tile


def _execute_block(
    ir,
    plan,
    stages,
    arrays,
    scalars,
    final_outputs,
    shape,
    tile,
    block_index,
    lookback,
):
    ndim = len(shape)
    out_lo = [block_index[a] * tile[a] for a in range(ndim)]
    out_hi = [min(shape[a], out_lo[a] + tile[a]) for a in range(ndim)]
    if any(out_hi[a] <= out_lo[a] for a in range(ndim)):
        return

    # Local buffer extent: output tile + total lookback, clipped to the
    # array bounds.
    buf_lo = [max(0, out_lo[a] - lookback[a][0]) for a in range(ndim)]
    buf_hi = [
        min(shape[a], out_hi[a] + lookback[a][1]) for a in range(ndim)
    ]

    # Copy every array the launch touches into a local buffer.
    local: Dict[str, np.ndarray] = {}
    origins: Dict[str, Tuple[int, ...]] = {}
    touched = set()
    for stage in stages:
        touched.update(stage.instance.arrays_read())
        touched.update(stage.instance.arrays_written())
    for fold_group in plan.fold_groups:
        touched.update(fold_group.members)
    for name in touched:
        if name not in arrays:
            continue
        info = ir.array_map[name]
        if info.ndim == ndim:
            slices = tuple(slice(buf_lo[a], buf_hi[a]) for a in range(ndim))
            local[name] = arrays[name][slices].copy()
            origins[name] = tuple(buf_lo)
        else:
            # Lower-rank arrays are small; copy whole.
            local[name] = arrays[name].copy()
            origins[name] = (0,) * info.ndim

    folded_defs = []
    if plan.fold_groups:
        from ..ir.folding import FoldedArray

        for group in plan.fold_groups:
            folded_defs.append(
                FoldedArray(group.folded_name, group.members, group.op)
            )
        _materialize_folds(local, folded_defs)
        for fold in folded_defs:
            origins[fold.name] = origins[fold.members[0]]

    # Iterative programs use boundary-carry + ping-pong even when this
    # launch covers a single application (time_tile == 1), so that any
    # schedule split agrees with the reference bit-for-bit.
    is_time_tiled = plan.time_tile > 1 or ir.is_iterative
    if is_time_tiled:
        written, read = pingpong_pair(ir, stages[0].instance)

    for stage in stages:
        if is_time_tiled:
            # Boundary-carry semantics (matches execute_reference).
            local[written][...] = local[read]
        # Base region this stage computes: output tile + its remaining
        # expansion, clipped to array bounds.  run_kernel applies each
        # statement's internal expansion and interior clipping itself.
        region = []
        for a in range(ndim):
            lo = max(0, out_lo[a] - stage.expand[a][0])
            hi = min(shape[a], out_hi[a] + stage.expand[a][1])
            region.append((lo, max(lo, hi)))
        run_kernel(
            ir,
            stage.instance,
            local,
            scalars,
            region=tuple(region),
            origins=origins,
            folded=(),
        )
        if is_time_tiled and not stage.is_last:
            # Local ping-pong: the next fused application reads what this
            # one wrote.  Origins travel with the buffers.
            local[written], local[read] = local[read], local[written]
            origins[written], origins[read] = origins[read], origins[written]

    # Commit final outputs over the output tile only.
    for stage in stages:
        if not stage.is_last:
            continue
        for name in stage.instance.arrays_written():
            info = ir.array_map[name]
            if info.ndim != ndim:
                continue
            global_slices = tuple(
                slice(out_lo[a], out_hi[a]) for a in range(ndim)
            )
            local_slices = tuple(
                slice(out_lo[a] - origins[name][a], out_hi[a] - origins[name][a])
                for a in range(ndim)
            )
            final_outputs[name][global_slices] = local[name][local_slices]


def execute_program_plan(
    ir: ProgramIR,
    schedule: ProgramPlan,
    inputs: Dict[str, np.ndarray],
    scalars: Optional[Dict[str, float]] = None,
) -> Dict[str, np.ndarray]:
    """Execute a full schedule (sequence of launches with repeat counts).

    Iterative schedules ping-pong the program's swap pair between
    launches so that each launch consumes the previous launch's output.
    """
    arrays = {name: value.copy() for name, value in inputs.items()}
    scalars = scalars if scalars is not None else default_scalars(ir)
    iterative = ir.is_iterative
    if iterative:
        written, read = program_pingpong(ir)
    first = True
    for plan, count in zip(schedule.plans, schedule.counts):
        for _ in range(count):
            if iterative and not first:
                arrays[written], arrays[read] = arrays[read], arrays[written]
            result = execute_plan(ir, plan, arrays, scalars)
            arrays.update(result)
            first = False
    return arrays
