"""Somos-5 sequences: exact generation and the Laurent phenomenon.

The recurrence ``a(n) a(n+5) = a(n+1) a(n+4) + a(n+2) a(n+3)`` divides at
every step, yet symbolically each term is a Laurent polynomial in the five
seeds with integer coefficients (the Laurent phenomenon), conjecturally
nonnegative ones.  The symbolic generator performs the division exactly in
the Laurent ring and treats a failed division or a fractional coefficient
as a loud falsification event rather than tolerating it; the sign of the
coefficients is left to the caller (`laurent_has_nonnegative_coeffs`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Sequence

from .exact import (LaurentDivisionError, LaurentPoly, _from_integer_terms,
                    _kcontent, _kdivide, _kmul, _pack, _unpacked, _width,
                    as_scalar)

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
    # the terms as pairs (p, q) of coprime ints, q > 0, so a step costs
    # one gcd in place of four Fraction operations
    pairs = [v.as_integer_ratio() for v in values[:count]]
    while len(pairs) < count:
        k = len(pairs) - 5  # 0-based index of the divisor term
        (p0, q0), (p1, q1), (p2, q2), (p3, q3), (p4, q4) = pairs[k:]
        if not p0:
            raise SomosPivotError(k + 1)
        q14, q23 = q1 * q4, q2 * q3
        num = (p1 * p4 * q23 + p2 * p3 * q14) * q0
        den = q14 * q23 * p0
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        pairs.append((num // g, den // g))
    return values[:count] + [Fraction(p, q) for p, q in pairs[5:]]


def somos5_symbolic(count: int, limit: int = 12) -> list[LaurentPoly]:
    """First ``count`` terms as Laurent polynomials in the seeds a1..a5.

    Guarded at ``limit`` terms by default (term size grows quickly).  Each
    step divides exactly in the Laurent ring; a remainder or a coefficient
    that is not an integer raises :class:`SomosLaurentFalsification`.  Until
    the end the terms are pairs (shift, part): x^shift times a polynomial
    that no variable divides, packed as in :mod:`totpos.exact` at a width
    that grows with the numerators' degrees.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > limit:
        raise ValueError(
            f"symbolic horizon is {limit} terms; pass a larger limit "
            f"explicitly to go further")
    k = len(SEED_VARIABLES)
    zero, width = (0,) * k, _width(0)
    terms = [(tuple(int(i == j) for j in range(k)), {0: 1})
             for i in range(k)][:count]
    while len(terms) < count:
        (s0, p0), (s1, p1), (s2, p2), (s3, p3), (s4, p4) = terms[-5:]
        s14, s23 = tuple(map(add, s1, s4)), tuple(map(add, s2, s3))
        low = tuple(map(min, s14, s23))
        up14, up23 = tuple(map(sub, s14, low)), tuple(map(sub, s23, low))
        # the numerator's degree; stored parts fit, since a quotient's
        # degree is at most its numerator's
        top = k * width
        degree = max((max(p1) >> top) + (max(p4) >> top) + sum(up14),
                     (max(p2) >> top) + (max(p3) >> top) + sum(up23))
        if _width(degree) > width:
            # repack every term with room for twice this degree, then redo
            # the step; so a width lasts while degrees double
            wider = _width(2 * degree)
            terms = [(s, {_pack(e, zero, wider): c for e, c
                          in _unpacked(p, zero, width).items()})
                     for s, p in terms]
            width = wider
            continue
        shift14, shift23 = _pack(up14, zero, width), _pack(up23, zero, width)
        num = _kmul(p1, p4, None, shift14)
        _kmul(p2, p3, num, shift23)
        terms.append(_divide(len(terms) + 1, (low, num), (s0, p0), width))
    return [_poly(term, width) for term in terms]


def _poly(term, width: int) -> LaurentPoly:
    shift, part = term
    return _from_integer_terms(SEED_VARIABLES, _unpacked(part, shift, width),
                               1)


def _divide(index: int, num, den, width: int):
    """The term num / den of (shift, part) pairs packed at ``width``, den's
    part free of monomial content; num's part is freed of it first, so the
    quotient's part is too.  A remainder or a coefficient that is not an
    integer raises :class:`SomosLaurentFalsification` for term ``index``."""
    (shift_n, part_n), (shift_d, part_d) = num, den
    k = len(shift_n)
    cut = _kcontent(part_n, k, width)
    if any(cut):
        packed = _pack(cut, (0,) * k, width)
        part_n = {m - packed: c for m, c in part_n.items() if c}
        shift_n = tuple(map(add, shift_n, cut))
    try:
        part = _kdivide(dict(part_n), part_d, k, width)
        for c in part.values():
            if type(c) is not int:
                raise LaurentDivisionError(
                    f"quotient coefficient {c} is not an integer")
    except LaurentDivisionError as exc:
        raise SomosLaurentFalsification(index, _poly(num, width),
                                        _poly(den, width), exc) from exc
    return tuple(map(sub, shift_n, shift_d)), part
