"""Program-level parser for the ARTEMIS stencil DSL.

The grammar follows Listing 1 of the paper::

    parameter L=512, M=512, N=512;
    iterator k, j, i;
    double in[L,M,N], out[L,M,N], a, b, h2inv;
    copyin out, in, h2inv, a, b;
    iterate 12;                       // optional: time iteration count
    #pragma stream k block (32,16) unroll j=2
    stencil jacobi (B, A, h2inv, a, b) {
      double c = b * h2inv;
      #assign shmem (A)
      B[k][j][i] = a*A[k][j][i] - c*(...);
    }
    jacobi (out, in, h2inv, a, b);
    copyout out;

``iterate T;`` is this implementation's rendering of the paper's remark
that "a loop construct may be used to specify the time loop for iterative
stencils"; it sets :attr:`Program.time_iterations`.
"""

from __future__ import annotations

from typing import List, Optional

from . import lexer
from .ast import (
    ArrayAccess,
    AssignDirective,
    Assignment,
    LocalDecl,
    Name,
    Parameter,
    Pragma,
    Program,
    SourceSpan,
    StencilCall,
    StencilDef,
    Stmt,
    VarDecl,
)
from .errors import ParseError
from .expr_parser import TokenStream, parse_expression
from .pragmas import parse_assign, parse_pragma
from .validate import validate_program

DTYPES = ("double", "float", "int")


def _span(token) -> SourceSpan:
    """Span of the construct starting at ``token``."""
    return SourceSpan(token.line, token.col)


def parse(source: str, validate: bool = True) -> Program:
    """Parse DSL source text into a :class:`Program`.

    When ``validate`` is true (default), semantic validation runs and
    raises :class:`~repro.dsl.errors.ValidationError` on ill-formed
    programs.
    """
    from ..obs import span

    with span("parse", source_bytes=len(source)):
        stream = TokenStream(lexer.tokenize(source))
        parser = _ProgramParser(stream)
        program = parser.parse_program()
        if validate:
            validate_program(program)
        return program


class _ProgramParser:
    def __init__(self, stream: TokenStream):
        self.stream = stream
        self.parameters: List[Parameter] = []
        self.iterators: List[str] = []
        self.decls: List[VarDecl] = []
        self.copyin: List[str] = []
        self.copyout: List[str] = []
        self.stencils: List[StencilDef] = []
        self.calls: List[StencilCall] = []
        self.time_iterations = 1
        self._pending_pragma: Optional[Pragma] = None

    # -- driver -------------------------------------------------------------

    def parse_program(self) -> Program:
        s = self.stream
        while not s.at(lexer.EOF):
            tok = s.current
            if tok.kind == lexer.DIRECTIVE:
                self._parse_directive()
            elif tok.kind == lexer.ID:
                self._parse_item(tok.value)
            else:
                raise ParseError(
                    f"unexpected token {tok.value!r}", tok.line, tok.col
                )
        return Program(
            parameters=tuple(self.parameters),
            iterators=tuple(self.iterators),
            decls=tuple(self.decls),
            copyin=tuple(self.copyin),
            copyout=tuple(self.copyout),
            stencils=tuple(self.stencils),
            calls=tuple(self.calls),
            time_iterations=self.time_iterations,
        )

    def _parse_directive(self) -> None:
        tok = self.stream.advance()
        body = tok.value.lstrip("#").strip()
        if body.startswith("pragma"):
            self._pending_pragma = parse_pragma(tok.value, tok.line)
        elif body.startswith("assign"):
            raise ParseError(
                "#assign is only valid inside a stencil body", tok.line, tok.col
            )
        else:
            raise ParseError(f"unknown directive {tok.value!r}", tok.line, tok.col)

    def _parse_item(self, keyword: str) -> None:
        if keyword == "parameter":
            self._parse_parameters()
        elif keyword == "iterator":
            self._parse_iterators()
        elif keyword == "iterate":
            self._parse_iterate()
        elif keyword in DTYPES:
            self._parse_var_decls()
        elif keyword == "copyin":
            self.copyin.extend(self._parse_name_list("copyin"))
        elif keyword == "copyout":
            self.copyout.extend(self._parse_name_list("copyout"))
        elif keyword == "stencil":
            self._parse_stencil_def()
        else:
            self._parse_call()

    # -- top-level declarations ----------------------------------------------

    def _parse_parameters(self) -> None:
        s = self.stream
        s.expect(lexer.ID, "parameter")
        while True:
            name_tok = s.expect(lexer.ID)
            name = name_tok.value
            s.expect_punct("=")
            value = int(s.expect(lexer.INT).value)
            self.parameters.append(
                Parameter(name, value, span=_span(name_tok))
            )
            if s.at_punct(","):
                s.advance()
                continue
            break
        s.expect_punct(";")

    def _parse_iterators(self) -> None:
        s = self.stream
        s.expect(lexer.ID, "iterator")
        while True:
            self.iterators.append(s.expect(lexer.ID).value)
            if s.at_punct(","):
                s.advance()
                continue
            break
        s.expect_punct(";")

    def _parse_iterate(self) -> None:
        s = self.stream
        tok = s.expect(lexer.ID, "iterate")
        count = int(s.expect(lexer.INT).value)
        if count < 1:
            raise ParseError("iterate count must be >= 1", tok.line, tok.col)
        self.time_iterations = count
        s.expect_punct(";")

    def _parse_var_decls(self) -> None:
        s = self.stream
        dtype = s.expect(lexer.ID).value
        while True:
            name_tok = s.expect(lexer.ID)
            name = name_tok.value
            dims: List = []
            if s.at_punct("["):
                s.advance()
                dims.append(self._parse_dim())
                while s.at_punct(","):
                    s.advance()
                    dims.append(self._parse_dim())
                s.expect_punct("]")
            self.decls.append(
                VarDecl(name, dtype, tuple(dims), span=_span(name_tok))
            )
            if s.at_punct(","):
                s.advance()
                continue
            break
        s.expect_punct(";")

    def _parse_dim(self):
        s = self.stream
        tok = s.current
        if tok.kind == lexer.ID:
            s.advance()
            return tok.value
        if tok.kind == lexer.INT:
            s.advance()
            return int(tok.value)
        raise ParseError("array dimension must be a parameter or integer",
                         tok.line, tok.col)

    def _parse_name_list(self, keyword: str) -> List[str]:
        s = self.stream
        s.expect(lexer.ID, keyword)
        names = [s.expect(lexer.ID).value]
        while s.at_punct(","):
            s.advance()
            names.append(s.expect(lexer.ID).value)
        s.expect_punct(";")
        return names

    # -- stencil definitions and calls ----------------------------------------

    def _parse_stencil_def(self) -> None:
        s = self.stream
        kw_tok = s.expect(lexer.ID, "stencil")
        name = s.expect(lexer.ID).value
        s.expect_punct("(")
        params: List[str] = []
        if not s.at_punct(")"):
            params.append(s.expect(lexer.ID).value)
            while s.at_punct(","):
                s.advance()
                params.append(s.expect(lexer.ID).value)
        s.expect_punct(")")
        s.expect_punct("{")
        body: List[Stmt] = []
        assign: Optional[AssignDirective] = None
        while not s.at_punct("}"):
            if s.at(lexer.DIRECTIVE):
                tok = s.advance()
                payload = tok.value.lstrip("#").strip()
                if payload.startswith("assign"):
                    if assign is not None:
                        raise ParseError(
                            "multiple #assign directives in one stencil",
                            tok.line,
                            tok.col,
                        )
                    assign = parse_assign(tok.value, tok.line)
                    if s.at_punct(";"):
                        s.advance()
                else:
                    raise ParseError(
                        f"unexpected directive in stencil body: {tok.value!r}",
                        tok.line,
                        tok.col,
                    )
                continue
            body.append(self._parse_statement())
        s.expect_punct("}")
        self.stencils.append(
            StencilDef(
                name=name,
                params=tuple(params),
                body=tuple(body),
                assign=assign,
                pragma=self._pending_pragma,
                span=_span(kw_tok),
            )
        )
        self._pending_pragma = None

    def _parse_statement(self) -> Stmt:
        s = self.stream
        tok = s.current
        if tok.kind == lexer.ID and tok.value in DTYPES:
            dtype = s.advance().value
            name = s.expect(lexer.ID).value
            s.expect_punct("=")
            init = parse_expression(s)
            s.expect_punct(";")
            return LocalDecl(name, dtype, init, span=_span(tok))
        # Assignment: lhs (= | +=) rhs ;
        name_tok = s.expect(lexer.ID)
        lhs: object
        if s.at_punct("["):
            from .expr_parser import _parse_array_access  # shared helper

            lhs = _parse_array_access(s, name_tok)
        else:
            lhs = Name(name_tok.value)
        op_tok = s.current
        if op_tok.kind == lexer.PUNCT and op_tok.value in ("=", "+="):
            s.advance()
        else:
            raise ParseError(
                f"expected '=' or '+=', found {op_tok.value!r}",
                op_tok.line,
                op_tok.col,
            )
        rhs = parse_expression(s)
        s.expect_punct(";")
        assert isinstance(lhs, (ArrayAccess, Name))
        return Assignment(lhs, rhs, op=op_tok.value, span=_span(name_tok))

    def _parse_call(self) -> None:
        s = self.stream
        name_tok = s.expect(lexer.ID)
        s.expect_punct("(")
        args: List[str] = []
        if not s.at_punct(")"):
            args.append(s.expect(lexer.ID).value)
            while s.at_punct(","):
                s.advance()
                args.append(s.expect(lexer.ID).value)
        s.expect_punct(")")
        s.expect_punct(";")
        self.calls.append(
            StencilCall(name_tok.value, tuple(args), span=_span(name_tok))
        )
