"""Tokenizer for the ARTEMIS stencil DSL.

The language is the "minimal stencil language" of the paper (Section II)
plus the ARTEMIS-specific extensions (Section II-B).  The surface syntax
is a small, C-flavoured declaration language.  Two constructs are
line-oriented and handled specially:

* ``#pragma ...``  — auxiliary code-generation information (streaming
  dimension, thread block size, unroll factors, target occupancy).
* ``#assign ...``  — user-guided resource assignment inside a stencil
  function body.

The lexer turns those into a single :class:`Token` of kind ``DIRECTIVE``
whose value is the raw directive text; the directive sub-parsers in
:mod:`repro.dsl.pragmas` tokenize the payload on their own.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from .errors import LexError

# Token kinds.
ID = "ID"
INT = "INT"
FLOAT = "FLOAT"
PUNCT = "PUNCT"  # one of ( ) [ ] { } , ; = + - * / < > ! ? :
DIRECTIVE = "DIRECTIVE"  # '#pragma ...' or '#assign ...' up to end of line
EOF = "EOF"

#: Multi-character operators recognized as single PUNCT tokens.
_TWO_CHAR_OPS = ("+=", "-=", "*=", "/=", "==", "<=", ">=", "!=")

_SINGLE_CHARS = set("()[]{},;=+-*/<>!?:")


class Token(NamedTuple):
    """A single lexical token with its source location."""

    kind: str
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def _strip_comments(source: str) -> str:
    """Replace comments with spaces, preserving line/column structure."""
    out: List[str] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            depth_end = source.find("*/", i + 2)
            if depth_end == -1:
                raise LexError("unterminated block comment", _line_of(source, i), 1)
            for j in range(i, depth_end + 2):
                out.append("\n" if source[j] == "\n" else " ")
            i = depth_end + 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _line_of(source: str, pos: int) -> int:
    return source.count("\n", 0, pos) + 1


def tokenize(source: str) -> List[Token]:
    """Tokenize DSL source text into a list of tokens ending with EOF."""
    return list(iter_tokens(source))


def iter_tokens(source: str) -> Iterator[Token]:
    """Yield tokens for ``source``; the final token has kind ``EOF``."""
    text = _strip_comments(source)
    i, n = 0, len(text)
    line, line_start = 1, 0

    def col(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            yield Token(DIRECTIVE, text[start:i].rstrip(), line, col(start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            yield Token(ID, text[start:i], line, col(start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = text[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    text[i + 1].isdigit() or text[i + 1] in "+-"
                ):
                    seen_exp = True
                    i += 1
                    if text[i] in "+-":
                        i += 1
                else:
                    break
            value = text[start:i]
            # A trailing 'f' suffix (C float literal) is tolerated.
            if i < n and text[i] in "fF":
                i += 1
            kind = FLOAT if (seen_dot or seen_exp) else INT
            yield Token(kind, value, line, col(start))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            yield Token(PUNCT, two, line, col(i))
            i += 2
            continue
        if ch in _SINGLE_CHARS:
            yield Token(PUNCT, ch, line, col(i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col(i))
    yield Token(EOF, "", line, col(i))
