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

import math
import re
from fractions import Fraction

from .algebra import Element
from .errors import ExpressionSyntaxError
from .scalar import ExactScalar
from .semigroup import _LETTER_RE, Permutation2D, Word, _letter_of, normal_form


# Most digits of an integer literal and of b^ceil(|r|), the bound on what a radical literal
# b^(r) folds into its coefficient: Python's int-to-str limit, so accepted literals print.
MAX_LITERAL_DIGITS = 4300
# Deepest parenthesis nesting; each level costs four frames of the recursion limit.
MAX_NESTING = 100

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
        kind = match.lastgroup
        if kind == "number" and len(match.group(kind)) > MAX_LITERAL_DIGITS:
            raise ExpressionSyntaxError(
                f"integer literal exceeds {MAX_LITERAL_DIGITS} digits", match.start(kind))
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, theta: Permutation2D):
        self.theta = theta
        self.tokens = _tokenize(src)
        self.index = 0
        self.depth = 0

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
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
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
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", pos)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", pos)

    def parse_scalar(self) -> Element:
        kind, text, pos = self.peek()
        if self.tokens[self.index + 1][1] == "^":
            self.index += 2
            self.expect("(")
            negate = self.peek()[1] == "-"
            if negate:
                self.advance()
            exponent = self.parse_rational()
            self.expect(")")
            base = int(text)
            if base < 1:
                raise ExpressionSyntaxError("radical base must be >= 1", pos)
            # base^w >= 2^((L-1) w) with L = base.bit_length(): past 4 bits a digit
            # that is too large, and below it base^w is cheap to build and compare
            whole = math.ceil(exponent)
            if ((base.bit_length() - 1) * whole > 4 * MAX_LITERAL_DIGITS
                    or base ** whole >= 10 ** MAX_LITERAL_DIGITS):
                raise ExpressionSyntaxError(
                    f"radical literal exceeds {MAX_LITERAL_DIGITS} digits", pos)
            coeff = ExactScalar.root(base, -exponent if negate else exponent)
            return Element.unit(self.theta).scaled(coeff)
        value = self.parse_rational()
        if self.peek()[:2] == ("name", "i"):
            self.advance()
            coeff = ExactScalar.gaussian(0, value)
        else:
            coeff = ExactScalar.rational(value)
        return Element.unit(self.theta).scaled(coeff)

    def parse_rational(self) -> Fraction:
        """int ['/' int]; a zero denominator is refused at its position."""
        kind, text, pos = self.advance()
        if kind != "number":
            raise ExpressionSyntaxError("expected a rational", pos)
        if self.peek()[1] != "/":
            return Fraction(int(text))
        self.advance()
        dkind, dtext, dpos = self.advance()
        if dkind != "number":
            raise ExpressionSyntaxError("expected denominator", dpos)
        if int(dtext) == 0:
            raise ExpressionSyntaxError("zero denominator", dpos)
        return Fraction(int(text), int(dtext))

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
        return _letter_of(match)


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
