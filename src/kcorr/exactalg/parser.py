"""Parser for polynomial literals.

Grammar shared with the session format: variables are identifiers (dots are
allowed inside names so renamed product variables round-trip), ``^`` raises to
a nonnegative integer power, ``*`` may be written or implied by adjacency,
and coefficients are integers or ``a/b`` rationals.  Example::

    x^2*y - 3/2*y + 1
"""

from __future__ import annotations

from ..errors import InvalidField, ParseError, UnknownVariable
from .poly import Ambient, Poly

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789.")
# most parentheses and unary minus signs open at once: deeper input is an
# input error before the recursive descent can exhaust the interpreter's stack
_MAX_NESTING = 100
# budgets every product in a literal must keep, powers included: no exponent
# (after ``^`` or of a variable in the result) above _MAX_EXPONENT, and at
# most _MAX_TERM_PAIRS pairs of terms multiplied out
_MAX_EXPONENT = 1000
_MAX_TERM_PAIRS = 10 ** 5
# most digits of a coefficient or denominator, leading zeros aside: the most
# that CPython converts by default, so every integer it prints reads back
_MAX_DIGITS = 4300


def tokenize(text: str, col_offset: int = 0):
    """Yield (kind, value, column) tokens; kinds: int, ident, op."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1 + col_offset
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], col))
            i = j
        elif ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
        elif ch in "+-*/^()[],=":
            tokens.append(("op", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=col)
    return tokens


class _ExprParser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens, ambient: Ambient):
        self.tokens = tokens
        self.pos = 0
        self.ambient = ambient
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of expression")
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        col = tok[2] if tok else (self.tokens[-1][2] if self.tokens else 1)
        raise ParseError(message, column=col)

    def parse(self) -> Poly:
        poly = self.expr()
        if self.peek() is not None:
            self.error(f"trailing input {self.peek()[1]!r}", self.peek())
        return poly

    def expr(self) -> Poly:
        tok = self.peek()
        negate = False
        if tok and tok[1] in "+-" and tok[0] == "op":
            self.next()
            negate = tok[1] == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return acc
            self.next()
            rhs = self.term()
            acc = acc + rhs if tok[1] == "+" else acc - rhs

    def times(self, a: Poly, b: Poly, tok) -> Poly:
        """``a * b``, refused at ``tok`` when it would break a budget."""
        top = max((max(ea) + max(eb) for ea, eb in zip(zip(*a.terms), zip(*b.terms))),
                  default=0)
        if top > _MAX_EXPONENT or len(a.terms) * len(b.terms) > _MAX_TERM_PAIRS:
            self.error("polynomial literal too large", tok)
        return a * b

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return acc
            if tok[:2] == ("op", "*"):
                self.next()
            elif not (tok[0] in ("int", "ident") or tok[:2] == ("op", "(")):
                return acc
            acc = self.times(acc, self.factor(), tok)  # `*` written or implied

    def factor(self) -> Poly:
        base = self.atom()
        tok = self.peek()
        if not (tok and tok[0] == "op" and tok[1] == "^"):
            return base
        self.next()
        etok = self.next()
        if etok[0] != "int":
            self.error("exponent must be a nonnegative integer", etok)
        digits = etok[1].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            self.error("polynomial literal too large", tok)
        e, power = int(digits), Poly.one(self.ambient)
        while e:  # square and multiply, each product checked
            if e & 1:
                power = self.times(power, base, tok)
            if e > 1:
                base = self.times(base, base, tok)
            e >>= 1
        return power

    def integer(self, tok) -> int:
        """The value of an int token, refused at it beyond the digit budget."""
        if len(tok[1].lstrip("0")) > _MAX_DIGITS:
            self.error("polynomial literal too large", tok)
        return int(tok[1])

    def atom(self) -> Poly:
        tok = self.next()
        kind, value, _ = tok
        if kind == "op" and value in "-(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                self.error("expression nested too deeply", tok)
            if value == "-":
                inner = -self.atom()
            else:
                inner = self.expr()
                closing = self.next()
                if closing[:2] != ("op", ")"):
                    self.error("expected ')'", closing)
            self.depth -= 1
            return inner
        if kind == "int":
            num = self.integer(tok)
            nxt = self.peek()
            if nxt and nxt[:2] == ("op", "/"):
                self.next()
                dtok = self.next()
                if dtok[0] != "int":
                    self.error("expected integer denominator", dtok)
                try:
                    c = self.ambient.field.from_fraction(num, self.integer(dtok))
                except InvalidField as exc:
                    self.error(str(exc), dtok)
            else:
                c = self.ambient.field.from_int(num)
            return Poly.const(self.ambient, c)
        if kind == "ident":
            try:
                return Poly.variable(self.ambient, value)
            except UnknownVariable:
                raise UnknownVariable(
                    f"unknown variable {value!r}; ambient has {self.ambient.vars}",
                    column=tok[2]) from None
        self.error(f"unexpected token {value!r}", tok)


def parse_poly(text: str, ambient: Ambient, col_offset: int = 0) -> Poly:
    tokens = tokenize(text, col_offset)
    if not tokens:
        raise ParseError("empty polynomial literal", column=1 + col_offset)
    return _ExprParser(tokens, ambient).parse()
