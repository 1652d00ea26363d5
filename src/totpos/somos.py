"""Somos-5 sequences: exact generation and the Laurent phenomenon.

The recurrence ``a(n) a(n+5) = a(n+1) a(n+4) + a(n+2) a(n+3)`` divides at
every step, yet symbolically each term is a Laurent polynomial in the five
seeds, conjecturally with nonnegative integer coefficients.  The symbolic
generator performs the division exactly in the Laurent ring and treats a
failed division or a negative/fractional coefficient as a loud
falsification event rather than tolerating it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import (LaurentDivisionError, LaurentPoly, as_scalar,
                    laurent_divide_exact)

SEED_VARIABLES = ("a1", "a2", "a3", "a4", "a5")


class SomosPivotError(ZeroDivisionError):
    """The recurrence hit a zero divisor at the named index."""

    def __init__(self, index: int):
        super().__init__(f"term a{index} is zero; cannot divide by it")
        self.index = index


class SomosLaurentFalsification(AssertionError):
    """Symbolic division left a remainder: the Laurent property failed.

    This is never expected; the full context is preserved so a genuine
    counterexample would be reportable.
    """

    def __init__(self, index: int, numerator: LaurentPoly,
                 denominator: LaurentPoly, cause: Exception):
        super().__init__(
            f"Laurent division failed computing term {index}: "
            f"({numerator}) / ({denominator}): {cause}")
        self.index = index
        self.numerator = numerator
        self.denominator = denominator


def somos5_numeric(seed: Sequence, count: int) -> list[Fraction]:
    """First ``count`` terms from five nonzero rational seeds."""
    values = [as_scalar(v) for v in seed]
    if len(values) != 5:
        raise ValueError("need exactly five seed terms")
    if any(v == 0 for v in values):
        raise ValueError("seed terms must be nonzero")
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms = values[:count]
    while len(terms) < count:
        k = len(terms) - 5  # 0-based index of the divisor term
        if terms[k] == 0:
            raise SomosPivotError(k + 1)
        terms.append((terms[k + 1] * terms[k + 4]
                      + terms[k + 2] * terms[k + 3]) / terms[k])
    return terms


def somos5_symbolic(count: int, limit: int = 12) -> list[LaurentPoly]:
    """First ``count`` terms as Laurent polynomials in the seeds a1..a5.

    Guarded at ``limit`` terms by default (term size grows quickly).  Each
    step divides exactly in the Laurent ring; a remainder raises
    :class:`SomosLaurentFalsification`.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > limit:
        raise ValueError(
            f"symbolic horizon is {limit} terms; pass a larger limit "
            f"explicitly to go further")
    terms = [LaurentPoly.variable(SEED_VARIABLES, v) for v in SEED_VARIABLES]
    terms = terms[:count]
    while len(terms) < count:
        k = len(terms) - 5
        numerator = (terms[k + 1] * terms[k + 4]
                     + terms[k + 2] * terms[k + 3])
        try:
            terms.append(laurent_divide_exact(numerator, terms[k]))
        except LaurentDivisionError as exc:
            raise SomosLaurentFalsification(len(terms) + 1, numerator,
                                            terms[k], exc) from exc
    return terms
