"""Expression grammar: parsing, printing round trips, error positions."""

from fractions import Fraction

import pytest

from twograph.algebra import Element
from twograph.errors import ExpressionSyntaxError, IndexOutOfRange
from twograph.exprs import MAX_LITERAL_DIGITS, MAX_NESTING, parse_expression, parse_scalar
from twograph.sampling import random_element, rng_from_seed
from twograph.scalar import ExactScalar
from twograph.semigroup import word


def gen(theta, u, v):
    return Element.gen(theta, word(theta, u), word(theta, v))


class TestParse:
    def test_adjoint_postfix(self, theta):
        assert parse_expression("S[e1;f2]'", theta) == gen(theta, "f2", "e1")

    def test_flip_flop_sum(self, theta):
        got = parse_expression("S[e1;e2]+S[e2;e1]", theta)
        assert got == gen(theta, "e1", "e2") + gen(theta, "e2", "e1")

    def test_missing_word_is_syntax_error(self, theta):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("S[e1;]", theta)

    def test_unit_sugar(self, theta):
        assert parse_expression("I", theta) == gen(theta, "id", "id")

    def test_imaginary_unit(self, theta):
        i = ExactScalar.imag_unit()
        assert parse_expression("i*i", theta) == Element.unit(theta).scaled(-1)
        assert parse_expression("2i", theta) == Element.unit(theta).scaled(i * ExactScalar.rational(2))

    def test_rational_literal(self, theta):
        assert parse_scalar("5/6", theta) == ExactScalar.rational(Fraction(5, 6))

    def test_radical_literal(self, theta):
        assert parse_scalar("2^(1/2)*2^(1/2)", theta) == ExactScalar.rational(2)
        assert parse_scalar("2^(-1/2)", theta) == ExactScalar.root(2, Fraction(-1, 2))

    def test_unary_minus(self, theta):
        assert parse_expression("-I+I", theta).is_zero()

    def test_parenthesized_gaussian(self, theta):
        got = parse_scalar("(1/2+1/2i)*(1-1i)", theta)
        assert got == ExactScalar.one()

    def test_word_normalization_inside_gen(self, flip22):
        # words are normalized by the table: f1.e2 = e1.f2 under the flip
        assert parse_expression("S[f1.e2;id]", flip22) == gen(flip22, "e1.f2", "id")

    def test_nesting_past_the_bound_is_refused_at_its_parenthesis(self, theta):
        deepest = "(" * MAX_NESTING + "I" + ")" * MAX_NESTING
        assert parse_expression(deepest, theta) == gen(theta, "id", "id")
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("I+(" + deepest + ")", theta)
        assert info.value.position == 2 + MAX_NESTING

    def test_index_out_of_range(self, theta):
        with pytest.raises(IndexOutOfRange):
            parse_expression(f"S[e{theta.m + 1};id]", theta)

    def test_trailing_garbage(self, theta):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("I I", theta)

    def test_error_position(self, theta):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("S[e1;f2] + ?", theta)
        assert info.value.position == 11

    @pytest.mark.parametrize("src, message, position", [
        ("S(e1;id]", "expected '['", 1),
        ("*", "unexpected token '*'", 0),
        ("0^(1)", "radical base must be >= 1", 0),
        ("2^(x)", "expected a rational", 3),
        ("1/x", "expected denominator", 2),
        ("S[e1.;id]", "expected a letter", 5),
        ("S[g1;id]", "bad letter 'g1'", 2),
    ])
    def test_each_refusal_names_its_position(self, theta, src, message, position):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(src, theta)
        assert info.value.position == position
        assert str(info.value) == f"{message} (at position {position})"

    def test_empty_input(self, theta):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("", theta)

    @pytest.mark.parametrize("src", ["I+", "2*", "-", "S[e1;f2]'*(I-"])
    def test_input_that_ends_early_says_so_at_its_end(self, theta, src):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(src, theta)
        assert str(info.value) == f"unexpected end of input (at position {len(src)})"

    def test_mul_precedence(self, theta):
        got = parse_expression("2*S[e1;id]+S[e2;id]", theta)
        assert got == gen(theta, "e1", "id").scaled(2) + gen(theta, "e2", "id")

    def test_adjoint_binds_tighter_than_mul(self, theta):
        got = parse_expression("S[id;e1]*S[e1;id]'", theta)
        expected = gen(theta, "id", "e1") * gen(theta, "id", "e1")
        assert got == expected

    @pytest.mark.parametrize("src, position", [("1/0", 2), ("3/0i", 2), ("2^(-1/0)", 6)])
    def test_zero_denominator_is_refused_at_its_position(self, theta, src, position):
        with pytest.raises(ExpressionSyntaxError, match="zero denominator") as info:
            parse_scalar(src, theta)
        assert info.value.position == position

    def test_radical_literal_cap(self, theta):
        # 2^14284 has 4300 digits and 2^14285 has 4301
        assert MAX_LITERAL_DIGITS == 4300
        assert parse_scalar("2^(14284)", theta) == ExactScalar.rational(2 ** 14284)
        assert parse_scalar("2^(-28567/2)", theta) == ExactScalar.root(2, Fraction(-28567, 2))
        for src in ("2^(14285)", "2^(-28569/2)", "2^(20000)", "(1+2^(10000000000))"):
            with pytest.raises(ExpressionSyntaxError, match="exceeds 4300 digits") as info:
                parse_scalar(src, theta)
            assert info.value.position == src.index("2")

    def test_integer_literal_cap(self, theta):
        assert parse_scalar("9" * 4300, theta) == ExactScalar.rational(10 ** 4300 - 1)
        with pytest.raises(ExpressionSyntaxError, match="exceeds 4300 digits") as info:
            parse_scalar("1+" + "9" * 4301, theta)
        assert info.value.position == 2

    def test_scalar_rejects_non_scalar(self, theta):
        with pytest.raises(ExpressionSyntaxError):
            parse_scalar("S[e1;id]", theta)


class TestRoundTrip:
    def test_random_elements(self, theta):
        rng = rng_from_seed(80)
        for _ in range(200):
            a = random_element(rng, theta, (2, 2)).canonicalize()
            assert parse_expression(str(a), theta) == a

    def test_scalars(self, theta):
        values = [
            ExactScalar.zero(),
            ExactScalar.one(),
            ExactScalar.rational(Fraction(-7, 3)),
            ExactScalar.gaussian(Fraction(1, 2), Fraction(-1, 3)) * ExactScalar.root(2, Fraction(1, 2)),
            ExactScalar.rational(3) + ExactScalar.root(6, Fraction(2, 3)),
            ExactScalar.gaussian(0, -1),
        ]
        for v in values:
            assert parse_scalar(str(v), theta) == v
