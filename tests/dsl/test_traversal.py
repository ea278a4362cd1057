"""The memoized expression traversals ``walk``, ``array_accesses`` and
``scalar_names``.

Each root's pre-order is built once and pinned on the node.  These tests
hold the traversals to a plain recursive pre-order, check that every
call hands out a fresh iterator, and check that the pinned tuple leaves
equality, hashing, repr and pickling alone.
"""

import pickle
from dataclasses import fields

from hypothesis import example, given, settings

from repro.dsl import (
    ArrayAccess,
    BinOp,
    Call,
    LocalDecl,
    Name,
    UnaryOp,
    array_accesses,
    parse,
    scalar_names,
    walk,
)

from .test_program_roundtrip_property import random_programs

# Calls and unary minus do not occur in ``random_programs``.
_CALLS_AND_UNARY = """
parameter L=32, M=32, N=32;
iterator k, j, i;
double A[L,M,N], B[L,M,N], a, b;
copyin A, a, b;
stencil s (B, A, a, b) {
  double c = -sqrt(a) * fmax(A[k][j][i], -b);
  B[k][j][i] = c + pow(A[k-1][j][i], 2.0) - -(b * A[k][j+1][i]);
}
s (B, A, a, b);
copyout B;
"""


def _reference(expr):
    """Recursive pre-order: the definition the traversals must match."""
    yield expr
    if isinstance(expr, BinOp):
        yield from _reference(expr.left)
        yield from _reference(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _reference(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _reference(arg)


def _rebuild(expr):
    """A fresh, never-walked copy of ``expr``."""
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rebuild(expr.left), _rebuild(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebuild(expr.operand))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_rebuild(a) for a in expr.args))
    return type(expr)(*(getattr(expr, f.name) for f in fields(expr)))


def _roots(source):
    program = parse(source)
    roots = []
    for stencil in program.stencils:
        for stmt in stencil.body:
            expr = stmt.init if isinstance(stmt, LocalDecl) else stmt.rhs
            roots.append(_rebuild(expr))
    return roots


@given(random_programs())
@example(_CALLS_AND_UNARY)
@settings(max_examples=60, deadline=None)
def test_traversals_match_recursive_preorder(source):
    for root in _roots(source):
        expected = list(_reference(root))
        for _ in range(2):  # the first call builds, the second reuses
            assert [id(n) for n in walk(root)] == [id(n) for n in expected]
            assert list(array_accesses(root)) == [
                n for n in expected if isinstance(n, ArrayAccess)
            ]
            assert list(scalar_names(root)) == [
                n.id for n in expected if isinstance(n, Name)
            ]


@given(random_programs())
@example(_CALLS_AND_UNARY)
@settings(max_examples=30, deadline=None)
def test_each_call_is_an_independent_iterator(source):
    for root in _roots(source):
        for traversal in (walk, array_accesses, scalar_names):
            first, second = traversal(root), traversal(root)
            assert iter(first) is first and first is not second
            interleaved = [(next(first), next(second)) for _ in list(traversal(root))]
            assert [a for a, _ in interleaved] == list(traversal(root))
            assert [b for _, b in interleaved] == list(traversal(root))
            assert next(first, None) is None and next(second, None) is None


@given(random_programs())
@example(_CALLS_AND_UNARY)
@settings(max_examples=30, deadline=None)
def test_walking_leaves_equality_hash_repr_and_pickle_alone(source):
    for root in _roots(source):
        walked, twin = root, _rebuild(root)
        list(walk(walked))
        assert "_preorder" in vars(walked) and "_preorder" not in vars(twin)
        assert walked == twin
        assert hash(walked) == hash(twin)
        assert repr(walked) == repr(twin)
        restored = pickle.loads(pickle.dumps(walked))
        assert restored == twin
        assert list(walk(restored)) == list(walk(twin))


def _long_sum_program(terms):
    rhs = " + ".join(f"A[k][j][i{(t % 3) - 1:+d}]" for t in range(terms))
    return f"""
parameter L=32, M=32, N=32;
iterator k, j, i;
double A[L,M,N], B[L,M,N];
copyin A;
stencil s (B, A) {{
  B[k][j][i] = {rhs};
}}
s (B, A);
copyout B;
"""


def test_long_right_hand_side_parses_and_validates():
    # A left-associative sum is a tree as deep as it is long; walking it
    # must not recurse once per level.
    program = parse(_long_sum_program(1200))
    rhs = program.stencils[0].body[0].rhs
    assert sum(1 for _ in array_accesses(rhs)) == 1200
    assert len(list(walk(rhs))) == 2 * 1200 - 1

