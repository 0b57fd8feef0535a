"""Parser for operator and bracket expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '.') factor)*
    factor := rational | 'i' | gen | '[' expr ',' expr ']' | '(' expr ')'
    gen    := 'mubar' | 'delbar' | 'del' | 'mu'

'.' is accepted as a product separator so that the canonical element text
("-1*del.mubar - 1*delbar.delbar") parses back to the element it renders.
Unicode operator names are accepted as aliases for the ASCII ones.

``parse`` reads the whole text into a postfix program, a flat list of
operations, and ``parse_element`` runs that program on a stack to the
expression's element of A in normal form.  Syntax errors carry a line and
column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, GENERATORS, generator_element, graded_commutator
from .errors import ExprSyntaxError
from .scalars import GaussianRational, I

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

#: one step of a postfix program: ``("value", element)`` pushes an element,
#: ``("neg",)`` negates the top of the stack, and ``("+",)``, ``("-",)``,
#: ``("*",)`` and ``("[",)`` pop two operands and push their sum, difference,
#: product or graded commutator
Op = tuple[str] | tuple[str, AlgebraElement]


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


class _Parser:
    """Recursive descent that appends each operation to ``program`` as it
    reads it, so the program is the expression in postfix order."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.program: list[Op] = []

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

    def parse(self) -> list[Op]:
        self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return self.program

    def expr(self) -> None:
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        self.term()
        if negate:
            self.program.append(("neg",))
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            self.term()
            self.program.append((op.kind,))

    def term(self) -> None:
        self.factor()
        while self.peek().kind in ("*", "."):
            self.advance()
            self.factor()
            self.program.append(("*",))

    def factor(self) -> None:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                scalar = GaussianRational(Fraction(tok.text))
            except ZeroDivisionError:
                raise ExprSyntaxError(
                    f"zero denominator in {tok.text!r}", tok.line, tok.column
                ) from None
            self.program.append(("value", AlgebraElement.one().scale(scalar)))
        elif tok.kind == "name":
            self.advance()
            if tok.text == "i":
                self.program.append(("value", AlgebraElement.one().scale(I)))
            elif tok.text in GENERATORS:
                self.program.append(("value", generator_element(tok.text)))
            else:
                raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column)
        elif tok.kind in ("[", "("):
            self.advance()
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ExprSyntaxError(
                    f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column
                )
            self.expr()
            if tok.kind == "[":
                self.expect(",")
                self.expr()
                self.expect("]")
                self.program.append(("[",))
            else:
                self.expect(")")
            self.depth -= 1
        else:
            what = tok.text or "end of input"
            raise ExprSyntaxError(f"expected a factor, found {what!r}", tok.line, tok.column)


def parse(text: str) -> list[Op]:
    """Parse expression text into its postfix program; raises
    :class:`ExprSyntaxError`.  Nothing is evaluated yet, so a syntax error
    anywhere in the text is reported before any domain error."""
    return _Parser(_tokenize(text)).parse()


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "[": graded_commutator,
}


def parse_element(text: str) -> AlgebraElement:
    """The normal-form element of A that ``text`` denotes.

    The program runs on a stack, so a chain such as a + b - c * d folds in
    this loop however long it is.
    """
    stack: list[AlgebraElement] = []
    for op in parse(text):
        if op[0] == "value":
            stack.append(op[1])
        elif op[0] == "neg":
            stack.append(-stack.pop())
        else:
            right = stack.pop()
            stack.append(_BINARY[op[0]](stack.pop(), right))
    return stack.pop()


def render(elt: AlgebraElement) -> str:
    """Canonical element text; ``parse_element`` round-trips it."""
    return str(elt)
