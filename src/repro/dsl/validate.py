"""Semantic validation of parsed DSL programs.

Validation runs after parsing and enforces the semantic rules implied by
Section II of the paper: every referenced variable resolves, array ranks
match their declarations, subscripts only use declared iterators, stencil
calls match their definitions, and pragma/assign directives reference
real iterators and arrays.

Every :class:`ValidationError` raised here carries the ``line:col`` of
the offending construct (threaded from lexer tokens through the AST's
:class:`~repro.dsl.ast.SourceSpan` fields), so ``validate`` and
``repro lint`` report positions consistently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .ast import (
    ArrayAccess,
    Assignment,
    LocalDecl,
    Program,
    StencilCall,
    StencilDef,
    VarDecl,
    array_accesses,
    scalar_names,
    span_of,
)
from .errors import ValidationError


def _pos(*nodes) -> Tuple[int, int]:
    """``(line, col)`` of the first node that carries a span, else (0, 0)."""
    for node in nodes:
        span = span_of(node)
        if span is not None:
            return span.line, span.col
    return 0, 0


def _fail(message: str, *nodes) -> None:
    line, col = _pos(*nodes)
    raise ValidationError(message, line, col)


def validate_program(program: Program) -> None:
    """Raise :class:`ValidationError` if ``program`` is ill-formed."""
    _check_unique_names(program)
    _check_parameters(program)
    _check_decl_dims(program)
    _check_copy_lists(program)
    for call in program.calls:
        bindings = call_bindings(program, call)
        stencil = program.stencil(call.name)
        _check_stencil_body(program, stencil, bindings)
        _check_pragma(program, stencil)
        _check_assign(program, stencil, bindings)


def call_bindings(program: Program, call: StencilCall) -> Dict[str, str]:
    """Map a call's formal parameters to actual top-level variable names."""
    try:
        stencil = program.stencil(call.name)
    except KeyError:
        line, col = _pos(call)
        raise ValidationError(
            f"call to undefined stencil {call.name!r}", line, col
        ) from None
    if len(call.args) != len(stencil.params):
        _fail(
            f"stencil {call.name!r} takes {len(stencil.params)} argument(s), "
            f"call passes {len(call.args)}",
            call,
        )
    decls = program.decl_map
    for arg in call.args:
        if arg not in decls:
            _fail(
                f"call to {call.name!r} passes undeclared variable {arg!r}",
                call,
            )
    return dict(zip(stencil.params, call.args))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_unique_names(program: Program) -> None:
    seen: Dict[str, object] = {}
    for kind, nodes in (
        ("parameter", [(p.name, p) for p in program.parameters]),
        ("iterator", [(name, None) for name in program.iterators]),
        ("variable", [(d.name, d) for d in program.decls]),
    ):
        for name, node in nodes:
            if name in seen:
                _fail(
                    f"duplicate declaration of {name!r} ({kind})",
                    node,
                    seen[name],
                )
            seen[name] = node
    stencil_names: Set[str] = set()
    for s in program.stencils:
        if s.name in stencil_names:
            _fail(f"duplicate stencil definition {s.name!r}", s)
        stencil_names.add(s.name)
        if len(set(s.params)) != len(s.params):
            _fail(f"stencil {s.name!r} has duplicate parameters", s)


def _check_parameters(program: Program) -> None:
    for p in program.parameters:
        if p.value <= 0:
            _fail(f"parameter {p.name!r} must be positive", p)
    if not program.iterators:
        raise ValidationError("program declares no iterators")


def _check_decl_dims(program: Program) -> None:
    params = program.parameter_map
    for decl in program.decls:
        for dim in decl.dims:
            if isinstance(dim, str):
                if dim not in params:
                    _fail(
                        f"array {decl.name!r} uses undeclared parameter {dim!r}",
                        decl,
                    )
            elif dim <= 0:
                _fail(
                    f"array {decl.name!r} has non-positive extent {dim}", decl
                )


def _check_copy_lists(program: Program) -> None:
    decls = program.decl_map
    for name in list(program.copyin) + list(program.copyout):
        if name not in decls:
            raise ValidationError(f"copy list references undeclared {name!r}")
    for name in program.copyout:
        if not decls[name].is_array:
            _fail(f"copyout of scalar {name!r}", decls[name])


def _check_stencil_body(
    program: Program, stencil: StencilDef, bindings: Dict[str, str]
) -> None:
    decls = program.decl_map
    iterators = set(program.iterators)

    def actual_decl(name: str) -> Optional[VarDecl]:
        target = bindings.get(name, name)
        return decls.get(target)

    locals_seen: Set[str] = set()
    for stmt in stencil.body:
        if isinstance(stmt, LocalDecl):
            if stmt.name in locals_seen or actual_decl(stmt.name) is not None:
                _fail(
                    f"stencil {stencil.name!r}: local {stmt.name!r} shadows "
                    "an existing variable",
                    stmt,
                    stencil,
                )
            _check_expr(program, stencil, stmt.init, locals_seen, bindings, stmt)
            locals_seen.add(stmt.name)
            continue
        assert isinstance(stmt, Assignment)
        _check_expr(program, stencil, stmt.rhs, locals_seen, bindings, stmt)
        lhs = stmt.lhs
        if isinstance(lhs, ArrayAccess):
            decl = actual_decl(lhs.name)
            if decl is None:
                _fail(
                    f"stencil {stencil.name!r} writes undeclared array "
                    f"{lhs.name!r}",
                    stmt,
                    stencil,
                )
            if not decl.is_array or decl.ndim != lhs.ndim:
                _fail(
                    f"stencil {stencil.name!r}: write to {lhs.name!r} has rank "
                    f"{lhs.ndim}, declaration has rank {decl.ndim}",
                    stmt,
                    stencil,
                )
            used: Set[str] = set()
            for idx in lhs.indices:
                it = idx.single_iterator()
                if it is None or it not in iterators:
                    _fail(
                        f"stencil {stencil.name!r}: write subscript {idx} of "
                        f"{lhs.name!r} must be 'iterator + constant'",
                        stmt,
                        stencil,
                    )
                if it in used:
                    _fail(
                        f"stencil {stencil.name!r}: iterator {it!r} used twice "
                        f"in write subscripts of {lhs.name!r}",
                        stmt,
                        stencil,
                    )
                used.add(it)
        else:
            decl = actual_decl(lhs.id)
            if decl is not None and decl.is_array:
                _fail(
                    f"stencil {stencil.name!r}: array {lhs.id!r} written "
                    "without subscripts",
                    stmt,
                    stencil,
                )
            if stmt.op == "+=" and lhs.id not in locals_seen and decl is None:
                _fail(
                    f"stencil {stencil.name!r}: '+=' to {lhs.id!r} before "
                    "any assignment",
                    stmt,
                    stencil,
                )
            # Plain '=' to an unknown name introduces an implicit local
            # scalar (double), as in the paper's Figure 3c.
            locals_seen.add(lhs.id)


def _check_expr(
    program: Program,
    stencil: StencilDef,
    expr,
    locals_seen: Set[str],
    bindings: Dict[str, str],
    stmt=None,
) -> None:
    decls = program.decl_map
    iterators = set(program.iterators)
    for access in array_accesses(expr):
        decl = decls.get(bindings.get(access.name, access.name))
        if decl is None:
            _fail(
                f"stencil {stencil.name!r} reads undeclared array "
                f"{access.name!r}",
                stmt,
                stencil,
            )
        if not decl.is_array:
            _fail(
                f"stencil {stencil.name!r}: scalar {access.name!r} subscripted",
                stmt,
                stencil,
            )
        if decl.ndim != access.ndim:
            _fail(
                f"stencil {stencil.name!r}: access {access} has rank "
                f"{access.ndim}, declaration has rank {decl.ndim}",
                stmt,
                stencil,
            )
        for idx in access.indices:
            for it_name, _ in idx.coeffs:
                if it_name not in iterators:
                    _fail(
                        f"stencil {stencil.name!r}: subscript of "
                        f"{access.name!r} uses non-iterator {it_name!r}",
                        stmt,
                        stencil,
                    )
    for name in scalar_names(expr):
        if name in locals_seen or name in iterators:
            continue
        decl = decls.get(bindings.get(name, name))
        if decl is None:
            _fail(
                f"stencil {stencil.name!r} reads undefined scalar {name!r}",
                stmt,
                stencil,
            )
        if decl.is_array:
            _fail(
                f"stencil {stencil.name!r}: array {name!r} read without "
                "subscripts",
                stmt,
                stencil,
            )


def _check_pragma(program: Program, stencil: StencilDef) -> None:
    pragma = stencil.pragma
    if pragma is None:
        return
    iterators = set(program.iterators)
    if pragma.stream_dim is not None and pragma.stream_dim not in iterators:
        _fail(
            f"stencil {stencil.name!r}: stream dimension "
            f"{pragma.stream_dim!r} is not a declared iterator",
            pragma,
            stencil,
        )
    for it_name, factor in pragma.unroll:
        if it_name not in iterators:
            _fail(
                f"stencil {stencil.name!r}: unroll iterator {it_name!r} "
                "is not declared",
                pragma,
                stencil,
            )
        if factor < 1:
            _fail(
                f"stencil {stencil.name!r}: unroll factor {factor} < 1",
                pragma,
                stencil,
            )
    for size in pragma.block:
        if size < 1:
            _fail(
                f"stencil {stencil.name!r}: block size {size} < 1",
                pragma,
                stencil,
            )


def _check_assign(
    program: Program, stencil: StencilDef, bindings: Dict[str, str]
) -> None:
    if stencil.assign is None:
        return
    decls = program.decl_map
    body_arrays: Set[str] = set()
    for stmt in stencil.body:
        exprs: List = []
        if isinstance(stmt, LocalDecl):
            exprs.append(stmt.init)
        else:
            exprs.append(stmt.rhs)
            if isinstance(stmt.lhs, ArrayAccess):
                body_arrays.add(stmt.lhs.name)
        for expr in exprs:
            for access in array_accesses(expr):
                body_arrays.add(access.name)
    for name, _storage in stencil.assign.placements:
        if name not in body_arrays:
            _fail(
                f"stencil {stencil.name!r}: #assign names {name!r} which is "
                "not accessed in the body",
                stencil.assign,
                stencil,
            )
        decl = decls.get(bindings.get(name, name))
        if decl is not None and not decl.is_array:
            _fail(
                f"stencil {stencil.name!r}: #assign names scalar {name!r}",
                stencil.assign,
                stencil,
            )
