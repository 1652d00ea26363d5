"""Somos-5 sequences and the Laurent phenomenon."""

import random
from fractions import Fraction

import pytest

from totpos.exact import laurent_has_nonnegative_coeffs
from totpos.somos import (SomosPivotError, somos5_numeric, somos5_symbolic)


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
