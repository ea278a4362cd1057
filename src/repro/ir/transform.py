"""Structure-preserving expression rewriters used across IR passes."""

from __future__ import annotations

from typing import Callable, Dict

from ..dsl.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    UnaryOp,
)


def map_expr(
    expr: Expr,
    on_access: Callable[[ArrayAccess], Expr] = lambda a: a,
    on_name: Callable[[Name], Expr] = lambda n: n,
) -> Expr:
    """Rebuild ``expr`` applying ``on_access``/``on_name`` at the leaves."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Name):
        return on_name(expr)
    if isinstance(expr, ArrayAccess):
        return on_access(expr)
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, map_expr(expr.operand, on_access, on_name))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            map_expr(expr.left, on_access, on_name),
            map_expr(expr.right, on_access, on_name),
        )
    if isinstance(expr, Call):
        return Call(
            expr.func, tuple(map_expr(a, on_access, on_name) for a in expr.args)
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def rename_symbols(expr: Expr, mapping: Dict[str, str]) -> Expr:
    """Rename array and scalar names per ``mapping`` (missing = keep)."""

    def on_access(access: ArrayAccess) -> Expr:
        return ArrayAccess(mapping.get(access.name, access.name), access.indices)

    def on_name(name: Name) -> Expr:
        return Name(mapping.get(name.id, name.id))

    return map_expr(expr, on_access, on_name)


def shift_accesses(expr: Expr, axis_iterator: str, delta: int) -> Expr:
    """Shift every subscript that uses ``axis_iterator`` by ``delta``.

    Only accesses whose subscript along that iterator is of the simple
    ``iterator + c`` form are shifted; the caller is responsible for
    having checked homogenizability first.
    """

    def on_access(access: ArrayAccess) -> Expr:
        new_indices = []
        for idx in access.indices:
            if idx.single_iterator() == axis_iterator:
                new_indices.append(idx.shifted(delta))
            else:
                new_indices.append(idx)
        return ArrayAccess(access.name, tuple(new_indices))

    return map_expr(expr, on_access)


def substitute_names(expr: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Replace scalar Name leaves with bound expressions (for inlining)."""

    def on_name(name: Name) -> Expr:
        return bindings.get(name.id, name)

    return map_expr(expr, on_name=on_name)
