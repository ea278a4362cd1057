"""Parser for the restricted-C expression language of stencil statements.

Expressions consist of numeric literals, scalar references, array
accesses with affine index expressions, the four arithmetic operators,
unary plus/minus, parentheses, and calls to a small set of math
intrinsics.  Index expressions are parsed as general expressions and then
lowered to :class:`~repro.dsl.ast.AffineIndex`; a non-affine subscript is
a parse error, mirroring the affine-access restriction stated in
Section II of the paper.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import lexer
from .ast import AffineIndex, ArrayAccess, BinOp, Call, Expr, Name, Num, UnaryOp
from .errors import ParseError
from .lexer import Token

#: Math intrinsics accepted in stencil bodies, with their arity.
INTRINSICS = {
    "sqrt": 1,
    "cbrt": 1,
    "fabs": 1,
    "abs": 1,
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "tanh": 1,
    "fmin": 2,
    "fmax": 2,
    "min": 2,
    "max": 2,
    "pow": 2,
}


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def at_punct(self, value: str) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == lexer.PUNCT and tok.value == value

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != lexer.EOF:
            self._pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def expect_punct(self, value: str) -> Token:
        return self.expect(lexer.PUNCT, value)

    def save(self) -> int:
        return self._pos

    def restore(self, pos: int) -> None:
        self._pos = pos


def parse_expression(stream: TokenStream) -> Expr:
    """Parse an additive expression from the stream."""
    return _parse_additive(stream)


def parse_expr_text(text: str) -> Expr:
    """Parse ``text`` as a standalone expression (testing convenience)."""
    stream = TokenStream(lexer.tokenize(text))
    expr = parse_expression(stream)
    stream.expect(lexer.EOF)
    return expr


def _parse_additive(stream: TokenStream) -> Expr:
    left = _parse_multiplicative(stream)
    while stream.at_punct("+") or stream.at_punct("-"):
        op = stream.advance().value
        right = _parse_multiplicative(stream)
        left = BinOp(op, left, right)
    return left


def _parse_multiplicative(stream: TokenStream) -> Expr:
    left = _parse_unary(stream)
    while stream.at_punct("*") or stream.at_punct("/"):
        op = stream.advance().value
        right = _parse_unary(stream)
        left = BinOp(op, left, right)
    return left


def _parse_unary(stream: TokenStream) -> Expr:
    if stream.at_punct("-") or stream.at_punct("+"):
        op = stream.advance().value
        operand = _parse_unary(stream)
        if op == "+":
            return operand
        return UnaryOp("-", operand)
    return _parse_primary(stream)


def _parse_primary(stream: TokenStream) -> Expr:
    tok = stream.current
    if tok.kind == lexer.INT:
        stream.advance()
        return Num(float(int(tok.value)), is_int=True)
    if tok.kind == lexer.FLOAT:
        stream.advance()
        return Num(float(tok.value), is_int=False)
    if tok.kind == lexer.ID:
        stream.advance()
        if stream.at_punct("("):
            return _parse_call(stream, tok)
        if stream.at_punct("["):
            return _parse_array_access(stream, tok)
        return Name(tok.value)
    if stream.at_punct("("):
        stream.advance()
        inner = _parse_additive(stream)
        stream.expect_punct(")")
        return inner
    raise ParseError(f"unexpected token {tok.value or tok.kind!r}", tok.line, tok.col)


def _parse_call(stream: TokenStream, name_tok: Token) -> Expr:
    func = name_tok.value
    if func not in INTRINSICS:
        raise ParseError(f"unknown function {func!r}", name_tok.line, name_tok.col)
    stream.expect_punct("(")
    args: List[Expr] = []
    if not stream.at_punct(")"):
        args.append(_parse_additive(stream))
        while stream.at_punct(","):
            stream.advance()
            args.append(_parse_additive(stream))
    stream.expect_punct(")")
    arity = INTRINSICS[func]
    if len(args) != arity:
        raise ParseError(
            f"{func} expects {arity} argument(s), got {len(args)}",
            name_tok.line,
            name_tok.col,
        )
    return Call(func, tuple(args))


def _parse_array_access(stream: TokenStream, name_tok: Token) -> ArrayAccess:
    indices: List[AffineIndex] = []
    while stream.at_punct("["):
        open_tok = stream.advance()
        idx_expr = _parse_additive(stream)
        stream.expect_punct("]")
        indices.append(lower_affine(idx_expr, open_tok))
    return ArrayAccess(name_tok.value, tuple(indices))


def lower_affine(expr: Expr, where: Token) -> AffineIndex:
    """Lower an index expression to affine form or raise ParseError."""
    try:
        coeffs, const = _affine_of(expr)
    except _NotAffine as exc:
        raise ParseError(
            f"array subscript is not an affine function of iterators: {exc}",
            where.line,
            where.col,
        ) from None
    return AffineIndex.of(coeffs, const)


class _NotAffine(Exception):
    pass


def _affine_of(expr: Expr) -> Tuple[dict, int]:
    """Return (coeffs, const) of an affine expression; raise _NotAffine."""
    if isinstance(expr, Num):
        if not expr.is_int:
            raise _NotAffine("non-integer constant in subscript")
        return {}, int(expr.value)
    if isinstance(expr, Name):
        return {expr.id: 1}, 0
    if isinstance(expr, UnaryOp) and expr.op == "-":
        coeffs, const = _affine_of(expr.operand)
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            lc, lk = _affine_of(expr.left)
            rc, rk = _affine_of(expr.right)
            sign = 1 if expr.op == "+" else -1
            merged = dict(lc)
            for name, coeff in rc.items():
                merged[name] = merged.get(name, 0) + sign * coeff
            return merged, lk + sign * rk
        if expr.op == "*":
            lc, lk = _affine_of(expr.left)
            rc, rk = _affine_of(expr.right)
            if lc and rc:
                raise _NotAffine("product of two iterator terms")
            if lc:
                return {k: v * rk for k, v in lc.items()}, lk * rk
            return {k: v * lk for k, v in rc.items()}, lk * rk
        raise _NotAffine(f"operator {expr.op!r} in subscript")
    raise _NotAffine(type(expr).__name__)
