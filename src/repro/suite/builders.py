"""String builders for stencil expressions in the DSL.

Small helpers that assemble derivative operators, neighbour sums and
weighted products as DSL source text.  Used by :mod:`repro.suite.specs`
to construct the 11 evaluation benchmarks with controlled FLOP counts.
"""

from __future__ import annotations

from typing import List, Sequence

AXES = ("k", "j", "i")


def off(iterator: str, delta: int) -> str:
    if delta == 0:
        return iterator
    return f"{iterator}{'+' if delta > 0 else '-'}{abs(delta)}"


def at(array: str, dk: int = 0, dj: int = 0, di: int = 0) -> str:
    """3-D access at constant offsets from the centre."""
    return f"{array}[{off('k', dk)}][{off('j', dj)}][{off('i', di)}]"


def at_axis(array: str, axis: int, delta: int) -> str:
    """Access offset by ``delta`` along one axis only."""
    offsets = [0, 0, 0]
    offsets[axis] = delta
    return at(array, *offsets)


def sum_of(terms: Sequence[str]) -> str:
    return " + ".join(terms)


def neighbours(array: str, distance: int) -> List[str]:
    """The six axis neighbours at ``distance``."""
    out = []
    for axis in range(3):
        out.append(at_axis(array, axis, +distance))
        out.append(at_axis(array, axis, -distance))
    return out


def box_ring(array: str, kind: str) -> List[str]:
    """27-point box decomposition: 'faces', 'edges' or 'corners'."""
    out = []
    for dk in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                nonzero = sum(1 for d in (dk, dj, di) if d != 0)
                if kind == "faces" and nonzero == 1:
                    out.append(at(array, dk, dj, di))
                elif kind == "edges" and nonzero == 2:
                    out.append(at(array, dk, dj, di))
                elif kind == "corners" and nonzero == 3:
                    out.append(at(array, dk, dj, di))
    return out


def d1(array: str, axis: int, order: int, coeffs: Sequence[str]) -> str:
    """Central first-derivative: sum of c_d*(a[+d] - a[-d]), d = 1..order.

    FLOPs: order subs + order muls + (order-1) adds = 3*order - 1.
    """
    terms = []
    for distance in range(1, order + 1):
        terms.append(
            f"{coeffs[distance - 1]}*({at_axis(array, axis, distance)} - "
            f"{at_axis(array, axis, -distance)})"
        )
    return "(" + sum_of(terms) + ")"


def d1_product(
    a: str, b: str, axis: int, order: int, coeffs: Sequence[str]
) -> str:
    """First derivative of a point-wise product a*b.

    FLOPs per distance: 2 muls + 1 sub + 1 coeff mul = 4;
    total = 4*order + (order-1) adds = 5*order - 1.
    """
    terms = []
    for distance in range(1, order + 1):
        plus = (
            f"{at_axis(a, axis, distance)}*{at_axis(b, axis, distance)}"
        )
        minus = (
            f"{at_axis(a, axis, -distance)}*{at_axis(b, axis, -distance)}"
        )
        terms.append(f"{coeffs[distance - 1]}*({plus} - {minus})")
    return "(" + sum_of(terms) + ")"


def d2(array: str, axis: int, order: int, coeffs: Sequence[str],
       center: str) -> str:
    """Central second derivative: c0*a0 + sum c_d*(a[+d] + a[-d]).

    FLOPs: (order+1) muls + order pair-adds + order joins = 3*order + 1.
    """
    terms = [f"{center}*{at(array)}"]
    for distance in range(1, order + 1):
        terms.append(
            f"{coeffs[distance - 1]}*({at_axis(array, axis, distance)} + "
            f"{at_axis(array, axis, -distance)})"
        )
    return "(" + sum_of(terms) + ")"
