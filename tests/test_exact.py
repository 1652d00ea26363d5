"""Exact scalar and Laurent-polynomial arithmetic."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.exact import (LaurentDivisionError, LaurentPoly, _kcontent,
                          _kmul, _pack, _width, as_scalar, format_scalar,
                          laurent_divide_exact, laurent_has_nonnegative_coeffs,
                          sign)

from util import oracle_laurent_divide, oracle_laurent_mul

VARS = ("p", "q")


def poly(terms):
    return LaurentPoly(VARS, terms)


def var(name):
    return LaurentPoly.variable(VARS, name)


class TestScalars:
    def test_sum(self):
        assert as_scalar("1/2") + as_scalar("1/3") == Fraction(5, 6)

    def test_sign_of_zero(self):
        assert sign(Fraction(0, 1)) == 0
        assert sign(Fraction(-2, 7)) == -1
        assert sign(Fraction(2, 7)) == 1

    def test_canonicalization(self):
        assert as_scalar("2/4") == Fraction(1, 2)
        assert format_scalar(Fraction(2, 4)) == "1/2"
        assert format_scalar(Fraction(5, 1)) == "5"

    def test_bool_is_not_a_scalar(self):
        with pytest.raises(TypeError):
            as_scalar(True)

    def test_parse_round_trip(self):
        for text in ("0", "-3/4", "17", "22/7"):
            assert format_scalar(as_scalar(text)) == text

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if a != 0:
            assert a * (1 / a) == 1


class TestLaurentArithmetic:
    def test_zero_has_no_terms(self):
        assert (var("p") - var("p")).is_zero()

    def test_eval_with_negative_exponents(self):
        f = poly({(-1, 2): Fraction(3)})
        assert f.evaluate({"p": Fraction(2), "q": Fraction(1, 3)}) \
            == Fraction(3, 2) * Fraction(1, 9)

    def test_json_round_trip(self):
        f = poly({(-1, 2): Fraction(3, 7), (0, 0): Fraction(-2)})
        assert LaurentPoly.from_json(f.to_json()) == f

    def test_str(self):
        f = var("p") ** 2 - var("p") * var("q") + var("q") ** 2
        assert str(f) == "p^2 - p*q + q^2"

    def test_zero_str_and_reflected_subtraction(self):
        assert str(LaurentPoly.zero(VARS)) == "0"
        assert 1 - var("p") == poly({(0, 0): 1, (1, 0): -1})
        assert "1/2" - var("q") == poly({(0, 0): Fraction(1, 2), (0, 1): -1})

    @pytest.mark.parametrize("build, error, message", [
        (lambda: var("p") + LaurentPoly.variable(("p",), "p"), ValueError,
         "Laurent polynomials live over different variables"),
        (lambda: var("p") * 1.5, TypeError,
         "cannot coerce 1.5 into this Laurent ring"),
        (lambda: (var("p") + 1) ** -1, ValueError,
         "negative powers are only defined for monomials"),
        (lambda: var("p").evaluate([1]), ValueError,
         "wrong number of coordinates"),
    ])
    def test_errors(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


small_coeffs = st.integers(min_value=-4, max_value=4)
small_exps = st.tuples(st.integers(min_value=-2, max_value=2),
                       st.integers(min_value=-2, max_value=2))
small_polys = st.dictionaries(small_exps, small_coeffs, max_size=4).map(
    lambda terms: poly({e: Fraction(c) for e, c in terms.items()}))


class TestLaurentDivision:
    def test_cubes_over_sum(self):
        # (p^3 + q^3) / (p + q) = p^2 - p q + q^2
        num = var("p") ** 3 + var("q") ** 3
        den = var("p") + var("q")
        assert laurent_divide_exact(num, den) \
            == var("p") ** 2 - var("p") * var("q") + var("q") ** 2

    def test_identity(self):
        assert laurent_divide_exact(var("p"), var("p")) \
            == LaurentPoly.constant(VARS, 1)

    def test_monomial_denominator_shifts_exponents(self):
        num = var("p") * var("q") + 1
        assert laurent_divide_exact(num, var("p")) \
            == var("q") + poly({(-1, 0): 1})

    def test_inexact_division_fails(self):
        with pytest.raises(LaurentDivisionError):
            laurent_divide_exact(var("p") + 1, var("q") + 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            laurent_divide_exact(var("p"), LaurentPoly.zero(VARS))

    @settings(deadline=None, max_examples=60)
    @given(small_polys, small_polys)
    def test_product_division_round_trip(self, a, b):
        if b.is_zero():
            return
        assert laurent_divide_exact(a * b, b) == a

    @settings(deadline=None, max_examples=60)
    @given(small_polys, small_polys, st.integers(1, 7), st.integers(1, 7))
    def test_evaluation_homomorphism(self, a, b, pnum, qnum):
        point = {"p": Fraction(pnum, 3), "q": Fraction(qnum, 2)}
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


rational_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
rational_polys = st.dictionaries(small_exps, rational_coeffs, max_size=5).map(
    lambda terms: poly(terms))


def all_fractions(p: LaurentPoly) -> bool:
    return all(type(c) is Fraction for c in p.terms.values())


class TestIntegerKernelAgainstOracle:
    """`*`, `**` and exact division run on cleared integer terms; the
    oracles in `util` run the same loops on `Fraction` coefficients."""

    @settings(deadline=None, max_examples=150)
    @given(rational_polys, rational_polys)
    def test_product(self, a, b):
        got = a * b
        assert got == oracle_laurent_mul(a, b)
        assert all_fractions(got)

    @settings(deadline=None, max_examples=60)
    @given(rational_polys, st.integers(0, 4))
    def test_power(self, a, k):
        want = LaurentPoly.constant(VARS, 1)
        for _ in range(k):
            want = oracle_laurent_mul(want, a)
        got = a ** k
        assert got == want
        assert all_fractions(got)

    @settings(deadline=None, max_examples=150)
    @given(rational_polys, rational_polys)
    def test_exact_quotient(self, a, b):
        if b.is_zero():
            return
        num = oracle_laurent_mul(a, b)
        got = laurent_divide_exact(num, b)
        assert got == a == oracle_laurent_divide(num, b)
        assert all_fractions(got)

    @settings(deadline=None, max_examples=150)
    @given(rational_polys, rational_polys)
    def test_any_quotient_or_the_same_error(self, num, den):
        if den.is_zero():
            return
        try:
            want = oracle_laurent_divide(num, den)
        except LaurentDivisionError as exc:
            with pytest.raises(LaurentDivisionError) as info:
                laurent_divide_exact(num, den)
            assert str(info.value) == str(exc)
        else:
            got = laurent_divide_exact(num, den)
            assert got == want
            assert all_fractions(got)

    def test_cancellation(self):
        # (p + q)(p - q): the cross terms cancel to zero and are dropped
        got = (var("p") + var("q")) * (var("p") - var("q"))
        assert got.terms == {(2, 0): 1, (0, 2): -1}
        assert laurent_divide_exact(got - got, var("p") + 1).is_zero()
        half = poly({(1, -1): Fraction(1, 2), (0, 0): Fraction(-1, 3)})
        assert (half - half) * half == LaurentPoly.zero(VARS)

    def test_fractional_quotient_of_integer_operands(self):
        # the divisor's leading coefficient 2 does not divide 1
        num = var("p") + var("q")
        den = 2 * var("p") + 2 * var("q")
        got = laurent_divide_exact(num, den)
        assert got == LaurentPoly.constant(VARS, Fraction(1, 2))
        assert all_fractions(got)

    def test_inexact_message_names_the_unreachable_term(self):
        with pytest.raises(LaurentDivisionError,
                           match=r"term x\^\(1, 0\) is not reachable"):
            laurent_divide_exact(var("p") + 1, var("q") + 1)


WIDE_VARS = ("p", "q", "r")
wide_exps = st.tuples(*[st.integers(-300, 300)] * 3)
wide_coeffs = st.one_of(st.integers(-6, 6).map(Fraction), rational_coeffs)
wide_polys = st.dictionaries(wide_exps, wide_coeffs, max_size=5).map(
    lambda terms: LaurentPoly(WIDE_VARS, terms))


class TestPackedKernel:
    """The packed-monomial kernel against the `Fraction` oracles at
    exponents up to +-300, so fields grow far wider than any Somos run
    needs; zero polynomials come from empty and all-zero term maps."""

    @settings(deadline=None, max_examples=150)
    @given(wide_polys, wide_polys)
    def test_product(self, a, b):
        got = a * b
        assert got == oracle_laurent_mul(a, b)
        assert all_fractions(got)

    @settings(deadline=None, max_examples=150)
    @given(wide_polys, wide_polys)
    def test_exact_quotient(self, a, b):
        if b.is_zero():
            return
        num = oracle_laurent_mul(a, b)
        got = laurent_divide_exact(num, b)
        assert got == a == oracle_laurent_divide(num, b)
        assert all_fractions(got)

    @settings(deadline=None, max_examples=150)
    @given(wide_polys, wide_polys, wide_polys)
    def test_any_quotient_or_the_same_error(self, a, b, c):
        num = oracle_laurent_mul(a, b) + c  # mostly inexact
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                laurent_divide_exact(num, b)
            return
        try:
            want = oracle_laurent_divide(num, b)
        except LaurentDivisionError as exc:
            with pytest.raises(LaurentDivisionError) as info:
                laurent_divide_exact(num, b)
            assert str(info.value) == str(exc)
        else:
            got = laurent_divide_exact(num, b)
            assert got == want
            assert all_fractions(got)

    @settings(deadline=None, max_examples=100)
    @given(st.dictionaries(st.tuples(*[st.integers(0, 300)] * 3),
                           st.integers(-2, 2), min_size=1, max_size=6))
    def test_content(self, terms):
        nonzero = [e for e, c in terms.items() if c]
        if not nonzero:
            return
        width = _width(max(map(sum, terms)))
        part = {_pack(e, (0, 0, 0), width): c for e, c in terms.items()}
        assert _kcontent(part, 3, width) == tuple(map(min, zip(*nonzero)))

    @settings(deadline=None, max_examples=100)
    @given(*[st.dictionaries(st.tuples(*[st.integers(0, 100)] * 3),
                             st.integers(-3, 3), max_size=5)] * 3,
           st.tuples(*[st.integers(0, 100)] * 3), st.booleans())
    def test_product_with_a_shift(self, a, b, out, shift, into):
        # a * b * x^shift, with and without terms to add it to, is the
        # product with b's monomials shifted first
        degrees = [max(map(sum, t), default=0) for t in (a, b, out)]
        width = _width(max(degrees[0] + degrees[1] + sum(shift), degrees[2]))

        def packed(terms):
            return {_pack(e, (0, 0, 0), width): c for e, c in terms.items()}

        m = _pack(shift, (0, 0, 0), width)
        start = packed(out) if into else None
        got = _kmul(packed(a), packed(b), start, m)
        want = _kmul(packed(a), {e + m: c for e, c in packed(b).items()},
                     packed(out) if into else None)
        assert got == want
        if into:
            assert got is start


class TestNonnegativity:
    def test_mixed_signs(self):
        f = var("p") ** 2 - var("p") * var("q") + var("q") ** 2
        assert not laurent_has_nonnegative_coeffs(f)

    def test_nonnegative(self):
        assert laurent_has_nonnegative_coeffs(var("p") + 2 * var("q"))

    def test_zero(self):
        assert laurent_has_nonnegative_coeffs(LaurentPoly.zero(VARS))

    def test_fractional_coefficient_rejected(self):
        assert not laurent_has_nonnegative_coeffs(
            poly({(1, 0): Fraction(1, 2)}))
