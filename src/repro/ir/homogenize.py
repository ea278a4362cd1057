"""Homogenization analysis for retiming (paper Section III-B2).

An expression is *homogenizable* along a streaming axis when the offset
along that axis can be reduced to 0 for all accesses in it — i.e. every
access that indexes the axis carries the same constant offset.  For
example, streaming along ``k``:

* ``A[k-1][j][i]``                      → homogenizable (shift by +1);
* ``C[k+1][j][i] * A[k-1][j][i]``       → NOT homogenizable (offsets differ);
* ``strx[i] * A[k-1][j][i]``            → homogenizable (``strx`` does not
  index ``k`` and is offset-invariant along it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..dsl.ast import Expr, array_accesses
from .analysis import memoized
from .stencil import ProgramIR, Statement, StencilInstance
from .transform import shift_accesses


@dataclass(frozen=True)
class HomogenizationResult:
    """Outcome of a homogenizability check along one axis."""

    homogenizable: bool
    offset: int = 0  # the common offset (0 when no access indexes the axis)
    reason: str = ""


def expr_homogenization(expr: Expr, iterator: str) -> HomogenizationResult:
    """Check whether ``expr`` is homogenizable along ``iterator``."""
    common: Optional[int] = None
    for access in array_accesses(expr):
        offset = _axis_offset(access, iterator)
        if offset is _SKEWED:
            return HomogenizationResult(
                False,
                reason=f"access {access} has a non-simple subscript on "
                f"{iterator!r}",
            )
        if offset is None:
            continue  # does not index the axis: invariant
        if common is None:
            common = offset
        elif offset != common:
            return HomogenizationResult(
                False,
                reason=f"access {access} offset {offset} differs from {common}",
            )
    return HomogenizationResult(True, offset=common or 0)


def homogenize_expr(expr: Expr, iterator: str) -> Tuple[Expr, int]:
    """Shift ``expr`` so its common offset along ``iterator`` becomes 0.

    Returns (shifted expression, original offset).  Raises ValueError if
    the expression is not homogenizable.
    """
    result = expr_homogenization(expr, iterator)
    if not result.homogenizable:
        raise ValueError(f"expression is not homogenizable: {result.reason}")
    if result.offset == 0:
        return expr, 0
    return shift_accesses(expr, iterator, -result.offset), result.offset


def statement_retimable(stmt: Statement, iterator: str) -> bool:
    """A grid statement is retimable when each accumulation term of its
    RHS is homogenizable along the streaming iterator (Section III-B2)."""
    from .decompose import split_accumulation

    if stmt.is_local:
        # Local temporaries participate through the statements that read
        # them; a local is retimable iff its RHS is homogenizable.
        return expr_homogenization(stmt.rhs, iterator).homogenizable
    terms = split_accumulation(stmt.rhs, distribute=True)
    return all(
        expr_homogenization(term, iterator).homogenizable for _sign, term in terms
    )


def kernel_retimable(
    ir: ProgramIR, instance: StencilInstance, iterator: Optional[str] = None
) -> bool:
    """True when every statement of the kernel is retimable.

    ``iterator`` defaults to the streaming dimension from the pragma, or
    the slowest-varying (outermost) iterator when streaming is disabled,
    exactly as the paper specifies.
    """
    if iterator is None:
        iterator = streaming_iterator(ir, instance)
    return memoized(
        "retimable",
        instance,
        lambda: all(
            statement_retimable(s, iterator) for s in instance.statements
        ),
        key=iterator,
    )


def streaming_iterator(ir: ProgramIR, instance: StencilInstance) -> str:
    """The axis retiming is performed along (pragma stream or outermost)."""
    if instance.pragma is not None and instance.pragma.stream_dim:
        return instance.pragma.stream_dim
    return ir.iterators[0]


# sentinel distinguishing "does not index the axis" from "skewed subscript"
class _Skewed:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<skewed>"


_SKEWED = _Skewed()


def _axis_offset(access, iterator: str):
    """Offset of ``access`` along ``iterator``.

    Returns an int offset, None when the access does not involve the
    iterator at all, or the ``_SKEWED`` sentinel when the iterator appears
    in a subscript that is not of the simple ``iterator + c`` form.
    """
    found = None
    for idx in access.indices:
        coeffs = idx.coeff_map
        if iterator not in coeffs:
            continue
        if coeffs == {iterator: 1}:
            if found is not None:
                return _SKEWED  # iterator used in two subscripts
            found = idx.const
        else:
            return _SKEWED
    return found
