"""Exact rational scalars and sparse multivariate Laurent polynomials.

Every quantity in this package is an arbitrary-precision rational
(`fractions.Fraction`), so each positivity verdict is an exact sign test;
no floating point appears anywhere.  This module adds the scalar plumbing
the rest of the package needs (parsing, formatting, signs) together with a
sparse Laurent-polynomial type used for symbolic recurrence checks.

A Laurent polynomial is stored as a map from integer exponent vectors
(negative entries allowed) to nonzero rational coefficients, over a fixed
ordered tuple of variable names.  Products and exact quotients clear each
operand's denominators once and run their term loops on integers; the
coefficients become `Fraction`s again only where the result is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Mapping, Sequence

Scalar = Fraction


class LaurentDivisionError(ArithmeticError):
    """No Laurent-polynomial quotient exists for the requested division."""


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or string like ``"5"`` / ``"-3/4"``; a bool
    is not a number here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def format_scalar(x: Fraction) -> str:
    """Render as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(x)


def sign(x: Fraction) -> int:
    """Exact sign: -1, 0, or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _glex_key(exponents: tuple[int, ...]) -> tuple:
    # Graded lexicographic term order (total degree first, then lex).
    return (sum(exponents), exponents)


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[tuple[int, ...], Fraction] | None = None):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent vector length does not match variables")
            coeff = as_scalar(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "LaurentPoly":
        value = as_scalar(value)
        if value == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "LaurentPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    # -- ring structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ring(self, other: "LaurentPoly") -> None:
        if self.variables != other.variables:
            raise ValueError("Laurent polynomials live over different variables")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction, str)):
            return LaurentPoly.constant(self.variables, other)
        raise TypeError(f"cannot coerce {other!r} into this Laurent ring")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0) + coeff
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return LaurentPoly(self.variables, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables,
                           {e: -c for e, c in self.terms.items()})

    def __radd__(self, other) -> "LaurentPoly":
        return self + other

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        self._check_ring(other)
        left, left_mult = _integer_terms(self)
        right, right_mult = _integer_terms(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exps = tuple(map(add, e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        return _from_integer_terms(self.variables, out,
                                   left_mult * right_mult)

    def __rmul__(self, other) -> "LaurentPoly":
        return self * other

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are only defined for monomials")
        result = LaurentPoly.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, value) -> "LaurentPoly":
        value = as_scalar(value)
        return LaurentPoly(self.variables,
                           {e: c * value for e, c in self.terms.items()})

    # -- queries --------------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction] | Sequence) -> Fraction:
        """Evaluate at a point; nonzero coordinates required wherever a
        variable occurs with negative exponent."""
        if isinstance(values, Mapping):
            point = [as_scalar(values[v]) for v in self.variables]
        else:
            point = [as_scalar(v) for v in values]
            if len(point) != len(self.variables):
                raise ValueError("wrong number of coordinates")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for base, e in zip(point, exps):
                if e:
                    term *= base ** e
            total += term
        return total

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_glex_key)
        return exps, self.terms[exps]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_glex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for var, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(var)
                elif e:
                    factors.append(f"{var}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [{"exp": list(e), "coeff": format_scalar(self.terms[e])}
                      for e in sorted(self.terms, key=_glex_key)],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        variables = tuple(data["vars"])
        terms = {tuple(item["exp"]): as_scalar(item["coeff"])
                 for item in data["terms"]}
        return cls(variables, terms)


def _integer_terms(p: LaurentPoly) -> tuple[dict[tuple[int, ...], int], int]:
    """The terms of ``p`` times the lcm of their denominators, and that
    positive multiplier."""
    pairs = {e: c.as_integer_ratio() for e, c in p.terms.items()}
    mult = lcm(*[d for _, d in pairs.values()])
    return {e: c * (mult // d) for e, (c, d) in pairs.items()}, mult


def _from_integer_terms(variables: tuple[str, ...], terms: Mapping,
                        mult: int) -> LaurentPoly:
    """The polynomial with the coefficients ``terms`` divided by ``mult``,
    zero coefficients dropped.  The exponent vectors are trusted."""
    if mult == 1:
        clean = {e: Fraction(c) for e, c in terms.items() if c}
    else:
        clean = {e: Fraction(c, mult) for e, c in terms.items() if c}
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "variables", variables)
    object.__setattr__(poly, "terms", clean)
    return poly


def _monomial_shift(terms: dict[tuple[int, ...], int]) \
        -> tuple[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Split ``terms = x^shift * q`` where q is a polynomial whose exponents
    are componentwise >= 0 with per-variable minimum 0."""
    shift = tuple(map(min, zip(*terms)))
    return shift, {tuple(map(sub, e, shift)): c for e, c in terms.items()}


def laurent_divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring.

    Returns the unique q with ``q * den == num`` or raises
    :class:`LaurentDivisionError` when no Laurent-polynomial quotient
    exists.  Monomials are units, so both operands are first reduced by
    their monomial content and the remaining polynomial parts are divided
    by leading-term elimination under the graded-lex order.  The loop runs
    on the integer terms of both operands; a quotient coefficient is a
    `Fraction` only where the divisor's leading coefficient does not divide
    the remainder's.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.variables)
    num._check_ring(den)

    top, num_mult = _integer_terms(num)
    bot, den_mult = _integer_terms(den)
    shift_n, rem = _monomial_shift(top)
    shift_d, bot = _monomial_shift(bot)
    lt_d = max(bot, key=_glex_key)
    lc_d = bot[lt_d]

    # divides num * num_mult by den * den_mult
    quotient: dict[tuple[int, ...], int | Fraction] = {}
    while rem:
        lt = max(rem, key=_glex_key)
        step = tuple(map(sub, lt, lt_d))
        if any(e < 0 for e in step):
            raise LaurentDivisionError(
                f"no Laurent quotient: term x^{lt} is not reachable")
        whole, part = divmod(rem[lt], lc_d)
        coeff = Fraction(rem[lt], lc_d) if part else whole
        quotient[step] = coeff
        for e, c in bot.items():
            target = tuple(map(add, e, step))
            acc = rem.get(target, 0) - coeff * c
            if acc == 0:
                rem.pop(target, None)
            else:
                rem[target] = acc

    total_shift = tuple(map(sub, shift_n, shift_d))
    return _from_integer_terms(
        num.variables,
        {tuple(map(add, e, total_shift)): c * den_mult
         for e, c in quotient.items()},
        num_mult)


def laurent_has_nonnegative_coeffs(p: LaurentPoly) -> bool:
    """True iff every stored coefficient is a nonnegative integer."""
    return all(c.denominator == 1 and c >= 0 for c in p.terms.values())
