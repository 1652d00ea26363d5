"""Somos-5 sequences and the Laurent phenomenon."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totpos.exact import (LaurentPoly, _pack, _width,
                          laurent_has_nonnegative_coeffs)
from totpos.somos import (SEED_VARIABLES, SomosLaurentFalsification,
                          SomosPivotError, _divide, somos5_numeric,
                          somos5_symbolic)

from util import (oracle_laurent_divide, oracle_laurent_mul,
                  oracle_somos5_numeric)

# signed rational seeds, and seeds of +-1 and +-2, about half of which
# make a later term 0 and so a later divisor 0
signed_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                             st.integers(1, 6))
signed_seeds = st.one_of(
    st.lists(signed_rationals, min_size=5, max_size=5),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=5, max_size=5))


class TestNumeric:
    def test_unit_seed_through_eleven(self):
        terms = somos5_numeric([1, 1, 1, 1, 1], 11)
        assert terms == [1, 1, 1, 1, 1, 2, 3, 5, 11, 37, 83]

    def test_unit_seed_thirty_terms_are_positive_integers(self):
        for value in somos5_numeric([1] * 5, 30):
            assert value > 0 and value.denominator == 1

    def test_constant_seed_two(self):
        assert somos5_numeric([2] * 5, 6)[-1] == 4

    def test_rational_seeds(self):
        seed = [Fraction(1, 2), 1, Fraction(3), 1, Fraction(2, 5)]
        terms = somos5_numeric(seed, 12)
        # recompute independently
        a = list(seed)
        for k in range(7):
            a.append((a[k + 1] * a[k + 4] + a[k + 2] * a[k + 3]) / a[k])
        assert terms == a

    @settings(deadline=None, max_examples=300)
    @given(signed_seeds, st.integers(0, 40))
    @example([1, -1, 1, 1, 1], 11)
    @example([1, -1, 1, 1, 1], 10)
    def test_matches_the_fraction_oracle(self, seed, count):
        try:
            want = oracle_somos5_numeric(seed, count)
        except SomosPivotError as exc:
            with pytest.raises(SomosPivotError) as info:
                somos5_numeric(seed, count)
            assert info.value.index == exc.index
            assert str(info.value) == str(exc)
            return
        got = somos5_numeric(seed, count)
        assert got == want
        assert all(type(term) is Fraction for term in got)

    @pytest.mark.parametrize("seed, count", [
        ([1, 1, 1, 1], 6),
        ([1, 0, 1, 1], -1),
        ([0, 1, 1, 1, 1], -1),
        ([1, 1, 1, 1, 1, 1], 3),
        ([1, 1, 1, 1, 1], -3),
        (["1/2", "x", 1, 1, 1], 6),
        ([1, "1/0", 1, 1], 6),
        ([True, 1, 1, 1], 6),
    ])
    def test_errors_in_the_oracle_order(self, seed, count):
        with pytest.raises(Exception) as want:
            oracle_somos5_numeric(seed, count)
        with pytest.raises(type(want.value)) as got:
            somos5_numeric(seed, count)
        assert str(got.value) == str(want.value)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            somos5_numeric([1, 1, 1, 1], 6)
        with pytest.raises(ValueError):
            somos5_numeric([1, 0, 1, 1, 1], 6)

    def test_zero_pivot_is_reported_with_its_index(self):
        # seeds (1, -1, 1, 1, 1) make a6 = 0, which becomes the divisor of
        # the term five steps later
        assert somos5_numeric([1, -1, 1, 1, 1], 6)[-1] == 0
        with pytest.raises(SomosPivotError) as info:
            somos5_numeric([1, -1, 1, 1, 1], 11)
        assert info.value.index == 6


class TestSymbolic:
    def test_first_terms_are_the_seeds(self):
        terms = somos5_symbolic(5)
        assert [str(t) for t in terms] == ["a1", "a2", "a3", "a4", "a5"]

    def test_sixth_term(self):
        a6 = somos5_symbolic(6)[-1]
        assert str(a6) == "a1^-1*a2*a5 + a1^-1*a3*a4"
        assert laurent_has_nonnegative_coeffs(a6)

    def test_laurent_with_nonnegative_coeffs_through_twelve(self):
        for term in somos5_symbolic(12):
            assert laurent_has_nonnegative_coeffs(term)

    def test_symbolic_matches_numeric_at_random_points(self):
        rng = random.Random(101)
        terms = somos5_symbolic(10)
        for _ in range(20):
            seed = [Fraction(rng.randint(1, 6), rng.randint(1, 4))
                    for _ in range(5)]
            numeric = somos5_numeric(seed, 10)
            assert [t.evaluate(seed) for t in terms] == numeric

    def test_unit_evaluation_of_ninth_term(self):
        assert somos5_symbolic(9)[-1].evaluate([1, 1, 1, 1, 1]) == 11

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            somos5_symbolic(13)
        assert len(somos5_symbolic(13, limit=13)) == 13

    def test_negative_count_is_rejected_like_numeric(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            somos5_symbolic(-3)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            somos5_numeric([1] * 5, -3)
        assert somos5_symbolic(0) == []

    def test_fourteen_terms_match_a_run_through_the_oracles(self):
        want = [LaurentPoly.variable(SEED_VARIABLES, v)
                for v in SEED_VARIABLES]
        while len(want) < 14:
            k = len(want) - 5
            num = (oracle_laurent_mul(want[k + 1], want[k + 4])
                   + oracle_laurent_mul(want[k + 2], want[k + 3]))
            want.append(oracle_laurent_divide(num, want[k]))
        got = somos5_symbolic(14, limit=14)
        assert got == want
        assert [len(t.terms) for t in got] \
            == [1, 1, 1, 1, 1, 2, 3, 4, 7, 13, 18, 27, 41, 59]
        assert [str(t) for t in got] == [str(t) for t in want]


class TestFalsification:
    """The kernel division of a Somos step on crafted (shift, part) terms:
    no recurrence reaches these inputs, so they are made by hand."""

    width = _width(3)
    zero = (0,) * 5

    def mono(self, *exps):
        return _pack(exps + (0,) * (5 - len(exps)), self.zero, self.width)

    def test_fractional_coefficient_raises(self):
        # (a1 + a2) / (2 a1 + 2 a2) = 1/2: exact, but not an integer
        num = (self.zero, {self.mono(1): 1, self.mono(0, 1): 1})
        den = (self.zero, {self.mono(1): 2, self.mono(0, 1): 2})
        with pytest.raises(SomosLaurentFalsification,
                           match=r"term 9: \(a1 \+ a2\) / \(2\*a1 \+ 2\*a2\):"
                                 r" quotient coefficient 1/2 is not an "
                                 r"integer") as info:
            _divide(9, num, den, self.width)
        assert info.value.index == 9

    def test_remainder_raises_with_the_shifts_in_the_message(self):
        # a1^-1 (a1 + 1) / (a2 + 1): a1 is not reachable from a2
        num = ((-1, 0, 0, 0, 0), {self.mono(1): 1, self.mono(): 1})
        den = (self.zero, {self.mono(0, 1): 1, self.mono(): 1})
        with pytest.raises(SomosLaurentFalsification) as info:
            _divide(6, num, den, self.width)
        assert str(info.value) == (
            "Laurent division failed computing term 6: (1 + a1^-1) / "
            "(a2 + 1): no Laurent quotient: term x^(1, 0, 0, 0, 0) is not "
            "reachable")

    def test_integer_quotient_passes(self):
        # (2 a1 + 2 a2) a3 / ((a1 + a2) a5^-1) = 2 a3 a5
        num = ((0, 0, 1, 0, 0), {self.mono(1): 2, self.mono(0, 1): 2})
        den = ((0, 0, 0, 0, -1), {self.mono(1): 1, self.mono(0, 1): 1})
        assert _divide(7, num, den, self.width) \
            == ((0, 0, 1, 0, 1), {self.mono(): 2})

    def test_numerator_content_moves_into_the_shift(self):
        # (a1^2 a3 + a1 a2 a3) / (a1 + a2) = a1 a3: the part is 1
        num = (self.zero, {self.mono(2, 0, 1): 1, self.mono(1, 1, 1): 1})
        den = (self.zero, {self.mono(1): 1, self.mono(0, 1): 1})
        assert _divide(8, num, den, self.width) \
            == ((1, 0, 1, 0, 0), {self.mono(): 1})
