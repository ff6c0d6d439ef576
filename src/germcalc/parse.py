"""Text parser for polynomial input.

Grammar (whitespace insignificant, multiplication always explicit):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := var | rational | '(' expr ')'
    rational := uint ('/' uint)?

Products and powers are expanded eagerly, so the result is always in
canonical form.  Errors carry the 0-based character position.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial


class ParseError(ValueError):
    """Syntax or name error in polynomial text, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit also accepts superscripts and other scripts' digits


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("uint", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("uint")
            p = p ** int(tok[1])
        return p

    def base(self) -> Polynomial:
        kind, value, position = self.advance()
        if kind == "name":
            if value not in self.ring:
                raise ParseError(f"unknown identifier {value!r}", position)
            return Polynomial.variable(self.ring, value)
        if kind == "uint":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("uint")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return Polynomial.constant(self.ring, Fraction(num, den))
            return Polynomial.constant(self.ring, num)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"unexpected {value or 'end of input'!r}", position)


def parse_poly(text: str, variables) -> Polynomial:
    """Parse polynomial text over the given ordered variable names."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    for name in variables:
        if not name or not (name[0].isalpha() or name[0] == "_") or not all(
            ch.isalnum() or ch == "_" for ch in name
        ):
            raise ValueError(f"invalid variable name {name!r}")
    return _Parser(text, variables).parse()
