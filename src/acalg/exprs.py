"""Parser for operator and bracket expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '.') factor)*
    factor := rational | 'i' | gen | '[' expr ',' expr ']' | '(' expr ')'
    gen    := 'mubar' | 'delbar' | 'del' | 'mu'

'.' is accepted as a product separator so that the canonical element text
("-1*del.mubar - 1*delbar.delbar") parses back to the element it renders.
Unicode operator names are accepted as aliases for the ASCII ones.

One regular expression scans the text; a number is what ``Fraction`` reads
(``scalars.UNSIGNED_RATIONAL``: decimal digits, so not ``²``).  ``parse``
reads the whole text into a postfix program, a flat list of operations, and
``parse_element`` runs that program on a stack to the expression's element
of A in normal form.  Syntax errors carry a line and a column, both counted
in characters from 1.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraElement, GENERATORS, generator_element, graded_commutator
from .errors import ExprSyntaxError
from .scalars import UNSIGNED_RATIONAL, GaussianRational, I

_UNICODE_ALIASES = {
    "μ̄": "mubar",   # mu + combining macron
    "∂̄": "delbar",  # partial + combining macron
    "μ": "mu",
    "∂": "del",
    "µ̄": "mubar",   # micro sign variant
    "µ": "mu",
}

#: deepest nesting of parentheses and brackets the parser accepts; each level
#: takes three Python frames, so this keeps far below the recursion limit
MAX_DEPTH = 100

#: one step of a postfix program: ``("value", element)`` pushes an element,
#: ``("neg",)`` negates the top of the stack, and ``("+",)``, ``("-",)``,
#: ``("*",)`` and ``("[",)`` pop two operands and push their sum, difference,
#: product or graded commutator
Op = tuple[str] | tuple[str, AlgebraElement]


class Token(NamedTuple):
    kind: str  # 'num', 'name', one of the symbols +-*.[](), or 'end'
    text: str
    line: int
    column: int


# one alternative per token kind, tried in this order; the last matches any
# character the others leave, which is an error
_TOKEN_RE = re.compile(
    rf"(?P<space>\s+)|(?P<num>{UNSIGNED_RATIONAL})|(?P<alias>[μ∂µ]\u0304?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<symbol>[-+*.\[\](),])|(?P<other>.)"
)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    for match in _TOKEN_RE.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                line_start = match.start() + word.rindex("\n") + 1
            continue
        column = match.start() - line_start + 1
        if kind == "alias":
            kind, word = "name", _UNICODE_ALIASES[word]
        elif kind == "symbol":
            kind = word
        elif kind == "other":
            raise ExprSyntaxError(f"unexpected character {word!r}", line, column)
        tokens.append(Token(kind, word, line, column))
    tokens.append(Token("end", "", line, len(text) - line_start + 1))
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
            except (ZeroDivisionError, ValueError) as exc:  # ValueError: too many digits
                if isinstance(exc, ZeroDivisionError):
                    problem = f"zero denominator in {tok.text!r}"
                else:
                    problem = f"number with more than {sys.get_int_max_str_digits()} digits"
                raise ExprSyntaxError(problem, tok.line, tok.column) from None
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
