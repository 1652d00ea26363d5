"""Exact rational scalars and sparse multivariate Laurent polynomials.

Every quantity in this package is an arbitrary-precision rational
(`fractions.Fraction`), so each positivity verdict is an exact sign test;
no floating point appears anywhere.  This module adds the scalar plumbing
the rest of the package needs (parsing, formatting, signs) together with a
sparse Laurent-polynomial type used for symbolic recurrence checks.

A Laurent polynomial is stored as a map from integer exponent vectors
(negative entries allowed) to nonzero rational coefficients, over a fixed
ordered tuple of variable names.  Products and exact quotients clear each
operand's denominators and split off its monomial content once, then run
in a packed kernel: a monomial with nonnegative exponents e_1..e_k is one
int of k + 1 fields of ``width`` bits, the total degree on top and e_1 down
to e_k below it, so integer order is graded-lex order and multiplying
monomials is adding ints.  The width comes from the operands' degrees and
keeps the top (guard) bit of every field clear.  A product can carry a
packed monomial shift (a times b times x^e), so a caller that holds a
polynomial as x^e times a packed part multiplies it without first
building a shifted copy.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from operator import add, sub
from typing import Mapping, Sequence

from .records import Record

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


class LaurentPoly(Record):
    """Sparse Laurent polynomial with exact rational coefficients: a
    :class:`Record` whose ``terms`` field, a dict, needs its own hash."""

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
        if not left or not right:
            return LaurentPoly.zero(self.variables)
        width, ((shift_l, a), (shift_r, b)) = _kernel(left, right)
        return _from_integer_terms(
            self.variables,
            _unpacked(_kmul(a, b), tuple(map(add, shift_l, shift_r)), width),
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


def _width(degree: int) -> int:
    """Field width for total degrees up to ``degree``, guard bit included."""
    return degree.bit_length() + 1


def _kernel(*polys: Mapping[tuple[int, ...], int]) \
        -> tuple[int, list[tuple[tuple[int, ...], dict[int, int]]]]:
    """A width that holds the sum of the operands' degrees once their
    monomial content (per-variable minimum exponent) is split off, and each
    operand as (content, packed remaining part)."""
    shifts = [tuple(map(min, zip(*terms))) for terms in polys]
    width = _width(sum(max(map(sum, terms)) - sum(shift)
                       for terms, shift in zip(polys, shifts)))
    return width, [(shift, {_pack(e, shift, width): c
                            for e, c in terms.items()})
                   for terms, shift in zip(polys, shifts)]


def _pack(exps: Sequence[int], shift: Sequence[int], width: int) -> int:
    """The packed monomial x^(exps - shift)."""
    mono = 0
    for e, s in zip(exps, shift):
        mono = mono << width | (e - s)
    return (sum(exps) - sum(shift)) << (width * len(shift)) | mono


def _unpacked(part: Mapping[int, object], shift: Sequence[int],
              width: int) -> dict[tuple[int, ...], object]:
    """``part`` with each packed monomial m replaced by x^shift * m."""
    mask = (1 << width) - 1
    fields = [(width * i, s)
              for i, s in zip(range(len(shift) - 1, -1, -1), shift)]
    return {tuple([(m >> at & mask) + s for at, s in fields]): c
            for m, c in part.items()}


def _kmul(a: Mapping[int, int], b: Mapping[int, int],
          out: dict[int, int] | None = None, shift: int = 0) \
        -> dict[int, int]:
    """``out`` plus the product a * b * x^e, where ``shift`` is the packed
    monomial x^e (0, the default, packs 1): the same as the product with
    each monomial of ``b`` shifted by x^e first, with no shifted copy
    built.  Zero coefficients may stay."""
    out = {} if out is None else out
    get = out.get
    for m1, c1 in a.items():
        m1 += shift
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


def _kcontent(part: Mapping[int, int], k: int, width: int) -> tuple[int, ...]:
    """The monomial content of a packed polynomial's nonzero terms.  A
    field plus 2^(width-1) - 1 sets its guard bit unless it is 0, so one
    pass of additions tells whether any variable divides every term."""
    lows = sum(1 << (width * j) for j in range(k))
    ones, divides = (lows << (width - 1)) - lows, lows << (width - 1)
    live = {m: c for m, c in part.items() if c}
    for m in live:
        divides &= m + ones
        if not divides:
            return (0,) * k
    return tuple(map(min, zip(*_unpacked(live, (0,) * k, width))))


def _kdivide(rem: dict[int, int], bot: Mapping[int, int], k: int,
             width: int) -> dict[int, int | Fraction]:
    """The quotient of ``rem`` by the nonzero ``bot`` (k variables) by
    leading-term elimination, using up ``rem``; when ``bot`` has no
    monomial content, it is the Laurent quotient whenever one exists.
    Leading terms come off a max-heap; a cancelled term stays in ``rem`` as
    0 until popped.  One subtraction with every guard bit set tells whether
    each field of the leading term reaches the divisor's; the first that
    does not raises :class:`LaurentDivisionError`.  A quotient coefficient
    is a `Fraction` only where the divisor's leading coefficient does not
    divide it."""
    guards = sum(1 << (width * j + width - 1) for j in range(k + 1))
    lt_d = max(bot)
    lc_d = bot[lt_d]
    rest = [(e, c) for e, c in bot.items() if e != lt_d]
    heap = [-m for m in rem]
    heapify(heap)
    quotient: dict[int, int | Fraction] = {}
    while heap:
        lt = -heappop(heap)
        lc = rem.pop(lt)
        if not lc:
            continue  # cancelled
        if (lt | guards) - lt_d & guards != guards:
            raise LaurentDivisionError(
                f"no Laurent quotient: term "
                f"x^{next(iter(_unpacked({lt: lc}, (0,) * k, width)))} "
                f"is not reachable")
        step = lt - lt_d
        whole, part = divmod(lc, lc_d)
        coeff = Fraction(lc, lc_d) if part else whole
        quotient[step] = coeff
        for e, c in rest:
            target = e + step
            if target in rem:
                rem[target] -= coeff * c
            else:
                rem[target] = -coeff * c
                heappush(heap, -target)
    return quotient


def laurent_divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring.

    Returns the unique q with ``q * den == num`` or raises
    :class:`LaurentDivisionError` when no Laurent-polynomial quotient
    exists.  Monomials are units, so both operands are first reduced by
    their monomial content and the remaining polynomial parts are divided
    by leading-term elimination under the graded-lex order.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.variables)
    num._check_ring(den)

    top, num_mult = _integer_terms(num)
    bot, den_mult = _integer_terms(den)
    width, ((shift_n, rem), (shift_d, bot)) = _kernel(top, bot)
    # divides num * num_mult by den * den_mult
    quotient = {m: c * den_mult
                for m, c in _kdivide(rem, bot, len(shift_n), width).items()}
    return _from_integer_terms(
        num.variables,
        _unpacked(quotient, tuple(map(sub, shift_n, shift_d)), width),
        num_mult)


def laurent_has_nonnegative_coeffs(p: LaurentPoly) -> bool:
    """True iff every stored coefficient is a nonnegative integer."""
    return all(c.denominator == 1 and c >= 0 for c in p.terms.values())
