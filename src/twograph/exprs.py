"""Expression grammar for elements, shared by the CLI and the tests.

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ("'")*            -- postfix adjoint
    primary := scalar | gen | 'I' | '(' expr ')'
    scalar  := int ['/' int] ['i']       -- Gaussian rational literal
             | int '^' '(' ['-'] int ['/' int] ')'   -- radical power
             | 'i'
    gen     := 'S[' word ';' word ']'
    word    := 'id' | letter ('.' letter)*
    letter  := ('e'|'f') int

`I` abbreviates S[id;id]. Element and scalar printing produce strings this
grammar parses back to the same canonical value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Element
from .errors import ExpressionSyntaxError
from .scalar import ExactScalar
from .semigroup import _LETTER_RE, Permutation2D, Word, normal_form


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>[A-Za-z]\w*)|(?P<sym>[-+*/^()\[\];.']))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if not match or match.end() == pos:
            rest = src[pos:].lstrip()
            if not rest:
                break
            bad_at = pos + len(src[pos:]) - len(rest)
            raise ExpressionSyntaxError(f"unexpected character {rest[0]!r}", bad_at)
        if match.group("number"):
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.group("name"):
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("sym", match.group("sym"), match.start("sym")))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, theta: Permutation2D):
        self.src = src
        self.theta = theta
        self.tokens = _tokenize(src)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value or kind == "end":
            raise ExpressionSyntaxError(f"expected {value!r}", pos)
        return self.advance()

    # expr := ['-'] term (('+'|'-') term)*
    def parse_expr(self) -> Element:
        negate = False
        if self.peek()[1] == "-":
            self.advance()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.parse_term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def parse_term(self) -> Element:
        acc = self.parse_factor()
        while self.peek()[1] == "*":
            self.advance()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self) -> Element:
        value = self.parse_primary()
        while self.peek()[1] == "'":
            self.advance()
            value = value.adjoint()
        return value

    def parse_primary(self) -> Element:
        kind, text, pos = self.peek()
        if kind == "number":
            return self.parse_scalar()
        if text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if text == "I":
            self.advance()
            return Element.unit(self.theta)
        if text == "i":
            self.advance()
            return Element.unit(self.theta).scaled(ExactScalar.imag_unit())
        if text == "S":
            return self.parse_gen()
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos)

    def parse_scalar(self) -> Element:
        kind, text, pos = self.advance()
        value = Fraction(int(text))
        if self.peek()[1] == "^":
            self.advance()
            self.expect("(")
            exponent = self.parse_signed_rational()
            self.expect(")")
            if value < 1:
                raise ExpressionSyntaxError("radical base must be >= 1", pos)
            coeff = ExactScalar.root(int(value), exponent)
            return Element.unit(self.theta).scaled(coeff)
        if self.peek()[1] == "/":
            self.advance()
            dkind, dtext, dpos = self.advance()
            if dkind != "number":
                raise ExpressionSyntaxError("expected denominator", dpos)
            value /= int(dtext)
        if self.peek()[:2] == ("name", "i"):
            self.advance()
            coeff = ExactScalar.gaussian(0, value)
        else:
            coeff = ExactScalar.rational(value)
        return Element.unit(self.theta).scaled(coeff)

    def parse_signed_rational(self) -> Fraction:
        negate = False
        if self.peek()[1] == "-":
            self.advance()
            negate = True
        kind, text, pos = self.advance()
        if kind != "number":
            raise ExpressionSyntaxError("expected a rational", pos)
        value = Fraction(int(text))
        if self.peek()[1] == "/":
            self.advance()
            dkind, dtext, dpos = self.advance()
            if dkind != "number":
                raise ExpressionSyntaxError("expected denominator", dpos)
            value /= int(dtext)
        return -value if negate else value

    def parse_gen(self) -> Element:
        self.advance()  # 'S'
        self.expect("[")
        u = self.parse_word()
        self.expect(";")
        v = self.parse_word()
        self.expect("]")
        return Element.gen(self.theta, u, v)

    def parse_word(self) -> Word:
        kind, text, pos = self.advance()
        if kind != "name":
            raise ExpressionSyntaxError("expected a word", pos)
        if text == "id":
            return normal_form(self.theta, [])
        letters = [self.parse_letter(text, pos)]
        while self.peek()[1] == ".":
            self.advance()
            lkind, ltext, lpos = self.advance()
            if lkind != "name":
                raise ExpressionSyntaxError("expected a letter", lpos)
            letters.append(self.parse_letter(ltext, lpos))
        return normal_form(self.theta, letters)

    @staticmethod
    def parse_letter(text: str, pos: int) -> tuple[str, int]:
        match = _LETTER_RE.match(text)
        if not match:
            raise ExpressionSyntaxError(f"bad letter {text!r}", pos)
        return match.group(1), int(match.group(2))


def parse_expression(src: str, theta: Permutation2D) -> Element:
    """Parse an expression into a canonicalized element."""
    parser = _Parser(src, theta)
    value = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {text!r}", pos)
    return value.canonicalize()


def parse_scalar(src: str, theta: Permutation2D) -> ExactScalar:
    """Parse a scalar literal (an expression proportional to the unit)."""
    canon = parse_expression(src, theta)
    if canon.is_empty:
        return ExactScalar.zero()
    terms = canon.terms()
    coeffs = [c for t, c in terms.items() if t.u.is_empty and t.v.is_empty]
    if len(coeffs) != len(terms):
        raise ExpressionSyntaxError("expression is not a scalar", 0)
    return coeffs[0]
