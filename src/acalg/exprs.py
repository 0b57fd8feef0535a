"""Parser for operator and bracket expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '.') factor)*
    factor := rational | 'i' | gen | '[' expr ',' expr ']' | '(' expr ')'
    gen    := 'mubar' | 'delbar' | 'del' | 'mu'

'.' is accepted as a product separator so that the canonical element text
("-1*del.mubar - 1*delbar.delbar") parses back to the element it renders.
Unicode operator names are accepted as aliases for the ASCII ones.  Every
expression elaborates to an element of A in normal form; syntax errors carry
a line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, GENERATORS, generator_element, graded_commutator
from .errors import ExprSyntaxError
from .scalars import GaussianRational, I, Scalar

_UNICODE_ALIASES = {
    "μ̄": "mubar",   # mu + combining macron
    "∂̄": "delbar",  # partial + combining macron
    "μ": "mu",
    "∂": "del",
    "µ̄": "mubar",   # micro sign variant
    "µ": "mu",
}

_SYMBOLS = "+-*.[](),"

#: deepest nesting of parentheses and brackets the parser accepts; each level
#: takes three Python frames, so this keeps far below the recursion limit
MAX_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'name', one of _SYMBOLS, or 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    n = 0
    length = len(text)
    while n < length:
        ch = text[n]
        if ch == "\n":
            line += 1
            col = 1
            n += 1
            continue
        if ch.isspace():
            n += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            m = n
            while m < length and text[m].isdigit():
                m += 1
            if m < length and text[m] == "/" and m + 1 < length and text[m + 1].isdigit():
                m += 1
                while m < length and text[m].isdigit():
                    m += 1
            tokens.append(Token("num", text[n:m], line, start_col))
            col += m - n
            n = m
            continue
        if ch in ("μ", "∂", "µ"):
            m = n + 1
            if m < length and text[m] == "̄":
                m += 1
            word = _UNICODE_ALIASES.get(text[n:m])
            if word is None:
                raise ExprSyntaxError(f"unknown operator symbol {text[n:m]!r}", line, start_col)
            tokens.append(Token("name", word, line, start_col))
            col += m - n
            n = m
            continue
        if ch.isalpha() and ch.isascii():
            m = n
            while m < length and text[m].isascii() and (text[m].isalnum() or text[m] == "_"):
                m += 1
            tokens.append(Token("name", text[n:m], line, start_col))
            col += m - n
            n = m
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, start_col))
            n += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("end", "", line, col))
    return tokens


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class ScalarLit:
    value: Scalar


@dataclass(frozen=True)
class Gen:
    symbol: str


@dataclass(frozen=True)
class Neg:
    inner: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Bracket:
    left: "Expr"
    right: "Expr"


Expr = ScalarLit | Gen | Neg | Add | Sub | Mul | Bracket


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, found {what!r}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return expr

    def expr(self) -> Expr:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        node: Expr = self.term()
        if negate:
            node = Neg(node)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            node = Add(node, right) if op.kind == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "."):
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                return ScalarLit(GaussianRational(Fraction(tok.text)))
            except ZeroDivisionError:
                raise ExprSyntaxError(
                    f"zero denominator in {tok.text!r}", tok.line, tok.column
                ) from None
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return ScalarLit(I)
            if tok.text in GENERATORS:
                return Gen(tok.text)
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column)
        if tok.kind in ("[", "("):
            self.advance()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ExprSyntaxError(
                    f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column
                )
            if tok.kind == "[":
                left = self.expr()
                self.expect(",")
                node: Expr = Bracket(left, self.expr())
                self.expect("]")
            else:
                node = self.expr()
                self.expect(")")
            self.depth -= 1
            return node
        what = tok.text or "end of input"
        raise ExprSyntaxError(f"expected a factor, found {what!r}", tok.line, tok.column)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises :class:`ExprSyntaxError`."""
    return _Parser(_tokenize(text)).parse()


def elaborate(expr: Expr) -> AlgebraElement:
    """Evaluate an AST to its normal-form element of A.

    A chain such as a + b - c * d is a left-nested tree as deep as it is
    long, so its left spine is walked in a loop, not by recursion; the
    recursion goes only as deep as the parser's nesting limit.
    """
    if isinstance(expr, (Add, Sub, Mul)):
        spine = []
        while isinstance(expr, (Add, Sub, Mul)):
            spine.append(expr)
            expr = expr.left
        value = elaborate(expr)
        for node in reversed(spine):
            right = elaborate(node.right)
            if isinstance(node, Add):
                value = value + right
            elif isinstance(node, Sub):
                value = value - right
            else:
                value = value * right
        return value
    if isinstance(expr, ScalarLit):
        return AlgebraElement.one().scale(expr.value)
    if isinstance(expr, Gen):
        return generator_element(expr.symbol)
    if isinstance(expr, Neg):
        return -elaborate(expr.inner)
    if isinstance(expr, Bracket):
        return graded_commutator(elaborate(expr.left), elaborate(expr.right))
    raise TypeError(f"not an expression node: {expr!r}")


def parse_element(text: str) -> AlgebraElement:
    return elaborate(parse(text))


def render(elt: AlgebraElement) -> str:
    """Canonical element text; ``parse_element`` round-trips it."""
    return str(elt)
