"""Core stencil IR: instantiated kernels and whole-program IR.

The DSL separates stencil *definitions* (with formal parameters) from
stencil *calls* (with actual top-level arrays).  The IR instantiates each
call by substituting actual names into the body, yielding a sequence of
:class:`StencilInstance` objects — the unit on which analyses,
optimizations and code generation operate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..dsl.ast import (
    ArrayAccess,
    Assignment,
    Expr,
    LocalDecl,
    Name,
    Pragma,
    Program,
    StencilCall,
    array_accesses,
)
from ..dsl.validate import call_bindings
from .transform import rename_symbols
from .types import sizeof


@dataclass(frozen=True)
class ArrayInfo:
    """A top-level array with a concrete shape."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def elements(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def bytes(self) -> int:
        return self.elements * sizeof(self.dtype)


@dataclass(frozen=True)
class Statement:
    """A single lowered statement inside a kernel.

    ``lhs`` is an array access (grid statement) or a scalar name (local
    temporary).  ``op`` is ``=`` or ``+=``.
    """

    lhs: Union[ArrayAccess, Name]
    rhs: Expr
    op: str = "="
    dtype: str = "double"

    @property
    def is_local(self) -> bool:
        return isinstance(self.lhs, Name)

    @property
    def target(self) -> str:
        return self.lhs.name if isinstance(self.lhs, ArrayAccess) else self.lhs.id

    def with_rhs(self, rhs: Expr) -> "Statement":
        return replace(self, rhs=rhs)


def _state_without_memo(self) -> dict:
    """Pickle and copy state without the results
    :func:`repro.ir.analysis.memoized` pinned: a restored copy starts cold."""
    state = dict(self.__dict__)
    state.pop("_memo", None)
    return state


@dataclass(frozen=True)
class StencilInstance:
    """A stencil call instantiated with actual array/scalar names."""

    name: str  # unique instance name, e.g. "jacobi.0"
    stencil_name: str
    statements: Tuple[Statement, ...]
    placements: Tuple[Tuple[str, str], ...] = ()  # from #assign
    pragma: Optional[Pragma] = None

    @property
    def placement_map(self) -> Dict[str, str]:
        return dict(self.placements)

    # -- access helpers ------------------------------------------------------

    def grid_statements(self) -> Tuple[Statement, ...]:
        return tuple(s for s in self.statements if not s.is_local)

    def local_statements(self) -> Tuple[Statement, ...]:
        return tuple(s for s in self.statements if s.is_local)

    # The access sets are pure functions of ``statements``, but walking
    # the expression trees of a deeply fused kernel is expensive and the
    # tuners ask for them thousands of times per search.  The instance
    # is frozen, so each result is computed once and pinned on the
    # object (``replace`` builds a new instance with a cold cache).

    def arrays_written(self) -> Tuple[str, ...]:
        cached = self.__dict__.get("_arrays_written")
        if cached is not None:
            return cached
        seen: List[str] = []
        for stmt in self.statements:
            if isinstance(stmt.lhs, ArrayAccess) and stmt.target not in seen:
                seen.append(stmt.target)
        result = tuple(seen)
        object.__setattr__(self, "_arrays_written", result)
        return result

    def arrays_read(self) -> Tuple[str, ...]:
        cached = self.__dict__.get("_arrays_read")
        if cached is not None:
            return cached
        seen: List[str] = []
        for stmt in self.statements:
            for access in array_accesses(stmt.rhs):
                if access.name not in seen:
                    seen.append(access.name)
        result = tuple(seen)
        object.__setattr__(self, "_arrays_read", result)
        return result

    def io_arrays(self) -> Tuple[str, ...]:
        """All arrays touched, reads first, preserving first-seen order."""
        cached = self.__dict__.get("_io_arrays")
        if cached is not None:
            return cached
        seen: List[str] = []
        for name in self.arrays_read() + self.arrays_written():
            if name not in seen:
                seen.append(name)
        result = tuple(seen)
        object.__setattr__(self, "_io_arrays", result)
        return result

    def read_accesses(self) -> Iterator[ArrayAccess]:
        for stmt in self.statements:
            yield from array_accesses(stmt.rhs)

    def replace(self, **changes) -> "StencilInstance":
        return replace(self, **changes)

    __getstate__ = _state_without_memo


@dataclass(frozen=True)
class ProgramIR:
    """Whole-program IR: grid metadata plus kernels in call order."""

    iterators: Tuple[str, ...]
    arrays: Tuple[ArrayInfo, ...]
    scalars: Tuple[Tuple[str, str], ...]  # (name, dtype)
    kernels: Tuple[StencilInstance, ...]
    copyin: Tuple[str, ...] = ()
    copyout: Tuple[str, ...] = ()
    time_iterations: int = 1

    @property
    def array_map(self) -> Dict[str, ArrayInfo]:
        cached = self.__dict__.get("_array_map")
        if cached is None:
            cached = {a.name: a for a in self.arrays}
            object.__setattr__(self, "_array_map", cached)
        return cached

    @property
    def scalar_map(self) -> Dict[str, str]:
        cached = self.__dict__.get("_scalar_map")
        if cached is None:
            cached = dict(self.scalars)
            object.__setattr__(self, "_scalar_map", cached)
        return cached

    @property
    def ndim(self) -> int:
        return len(self.iterators)

    @property
    def is_iterative(self) -> bool:
        return self.time_iterations > 1

    def axis_of(self, iterator: str) -> int:
        return self.iterators.index(iterator)

    def kernel(self, name: str) -> StencilInstance:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def domain_shape(self) -> Tuple[int, ...]:
        """Shape of the largest array — the computational grid extent."""
        best: Tuple[int, ...] = ()
        best_elems = -1
        for info in self.arrays:
            if info.ndim == self.ndim and info.elements > best_elems:
                best, best_elems = info.shape, info.elements
        if not best:
            raise ValueError("program has no full-rank array")
        return best

    def replace(self, **changes) -> "ProgramIR":
        return replace(self, **changes)

    __getstate__ = _state_without_memo


# ---------------------------------------------------------------------------
# Lowering: Program -> ProgramIR
# ---------------------------------------------------------------------------


def build_ir(program: Program) -> ProgramIR:
    """Instantiate every stencil call and assemble the whole-program IR."""
    arrays: List[ArrayInfo] = []
    scalars: List[Tuple[str, str]] = []
    for decl in program.decls:
        if decl.is_array:
            arrays.append(
                ArrayInfo(decl.name, decl.dtype, program.array_shape(decl.name))
            )
        else:
            scalars.append((decl.name, decl.dtype))

    kernels: List[StencilInstance] = []
    counts: Dict[str, int] = {}
    for call in program.calls:
        index = counts.get(call.name, 0)
        counts[call.name] = index + 1
        kernels.append(_instantiate(program, call, index))

    return ProgramIR(
        iterators=program.iterators,
        arrays=tuple(arrays),
        scalars=tuple(scalars),
        kernels=tuple(kernels),
        copyin=program.copyin,
        copyout=program.copyout,
        time_iterations=program.time_iterations,
    )


def _instantiate(program: Program, call: StencilCall, index: int) -> StencilInstance:
    stencil = program.stencil(call.name)
    bindings = call_bindings(program, call)
    statements: List[Statement] = []
    for stmt in stencil.body:
        if isinstance(stmt, LocalDecl):
            statements.append(
                Statement(
                    lhs=Name(stmt.name),
                    rhs=rename_symbols(stmt.init, bindings),
                    op="=",
                    dtype=stmt.dtype,
                )
            )
        else:
            assert isinstance(stmt, Assignment)
            lhs = stmt.lhs
            if isinstance(lhs, ArrayAccess):
                new_lhs: Union[ArrayAccess, Name] = ArrayAccess(
                    bindings.get(lhs.name, lhs.name), lhs.indices
                )
            else:
                new_lhs = Name(bindings.get(lhs.id, lhs.id))
            statements.append(
                Statement(
                    lhs=new_lhs,
                    rhs=rename_symbols(stmt.rhs, bindings),
                    op=stmt.op,
                )
            )
    placements: Tuple[Tuple[str, str], ...] = ()
    if stencil.assign is not None:
        placements = tuple(
            (bindings.get(name, name), storage)
            for name, storage in stencil.assign.placements
        )
    return StencilInstance(
        name=f"{call.name}.{index}",
        stencil_name=call.name,
        statements=tuple(statements),
        placements=placements,
        pragma=stencil.pragma,
    )
