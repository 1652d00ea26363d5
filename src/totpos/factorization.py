"""Inverse problems: recovering parameters and matrices, and the twist map.

* `factor_staircase` recovers the unique positive parameter vector of the
  staircase scheme for a totally positive matrix, and
  `reconstruct_from_initial_minors` rebuilds the unique matrix with given
  nonzero initial minors as the staircase product at the parameters they
  determine.  Both read the parameters off a closed form: each is a
  Laurent monomial in at most four initial minors, a Neville elimination
  multiplier or pivot (Gasca and Peña 1992; Koev 2007), stated once as a
  per-n table of (minor, exponent) entries, `_staircase_terms`, and
  evaluated by `_staircase_params`.  The converse is a closed form too:
  the initial minor with corner (r, c) is the product of the parameters
  whose corners (a, b) have a <= r, b <= c and a - b between 0 and r - c.
  `staircase_minor_exponents` writes both as exponent matrices, E and its
  inverse, and `staircase_edge_for_minor` maps each initial minor to the
  parameter owning its corner; neither is a step of factoring.
* `factor_scheme` factors along any full-type scheme by routing the
  staircase parameters through local moves.
* `twist` is the birational map assembled from the LDU factors of the
  transposed matrix against the order-reversing permutation, computed on
  integer rows from one elimination per factor; it sends the
  totally positive matrices onto themselves, and the factorization
  parameters of any scheme become Laurent monomials in the chamber minors
  of the twisted matrix.  `verify_twist_monomial` certifies that monomial
  property numerically for a given scheme.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import mul
from typing import Mapping, Sequence

from .diagrams import DoubleWiringDiagram, chamber_family, chamber_minors
from .exact import as_scalar
from .matrices import (Matrix, MinorSpec, _integer_rows, _inverse_rows,
                       _ldu_rows, initial_family, initial_minor_spec,
                       initial_minor_specs, minor, unscale)
from .words import (DIAG, Permutation, Word, WordError, _encode, _replay,
                    _reversed_moves, _route, infer_n, is_full_scheme,
                    product_map, staircase_scheme, validate_scheme)


class NotTotallyPositiveError(ValueError):
    """Input is not totally positive; carries the failing initial minor."""

    def __init__(self, spec: MinorSpec, value: Fraction):
        super().__init__(
            f"matrix is not totally positive: initial minor {spec} = {value}")
        self.spec = spec
        self.value = value


class ReconstructionError(ValueError):
    """Initial-minor data does not determine a matrix."""


def initial_minors(x: Matrix) -> dict[MinorSpec, Fraction]:
    """All n^2 initial minors of x, keyed by spec."""
    return dict(zip(initial_minor_specs(x.n), _initial_values(x)))


def reconstruct_from_initial_minors(values: Mapping[MinorSpec, Fraction],
                                    n: int) -> Matrix:
    """The unique matrix with the given nonzero initial minors.

    The initial minors of the staircase product are the monomials t^E of
    its parameters, so the staircase product at ``_staircase_params`` of
    the values has exactly these initial minors, whatever their signs.
    """
    vals = []
    for spec in initial_minor_specs(n):
        if spec not in values:
            raise ReconstructionError(f"missing initial minor {spec}")
        value = as_scalar(values[spec])
        if value == 0:
            raise ReconstructionError(
                f"initial minor {spec} is zero; reconstruction needs all "
                f"initial minors nonzero")
        vals.append(value)
    return product_map(staircase_scheme(n), _staircase_params(vals, n), n)


@cache
def _staircase_terms(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Neville corner rule: for each staircase parameter, in parameter
    order, the initial minors of its Laurent monomial as (index in
    `initial_minor_specs` order, exponent +1 or -1), its own corner first.

    Write D(r, c) for the initial minor with corner (r, c), and 1 when r
    or c is 0.  Lower letter i of staircase block k (blocks k = n-1 down to
    1, i = k..n-1) owns corner (i+1, i+1-k), upper letter i of block k
    owns (k, i+1), and ``@i`` owns (i, i).  The parameter of corner (r, c)
    is D(r, c) D(r-1-a, c-1-b) / (D(r-1, c-1) D(r-a, c-b)), with (a, b) =
    (1, 0) below the diagonal (a Neville multiplier of x) and (0, 1) above
    it (one of x^T), and D(r, r) / D(r-1, r-1), a pivot, on it (Gasca and
    Peña 1992); corners with a zero index drop out.
    """
    slants = [(k, i) for k in range(n - 1, 0, -1) for i in range(k, n)]
    corners = ([(i + 1, i + 1 - k) for k, i in slants]
               + [(i, i) for i in range(1, n + 1)]
               + [(k, i + 1) for k, i in slants])
    table = []
    for r, c in corners:
        terms = [(r, c, 1), (r - 1, c - 1, -1)]
        if r != c:
            a, b = (1, 0) if r > c else (0, 1)
            terms += [(r - 1 - a, c - 1 - b, 1), (r - a, c - b, -1)]
        table.append(tuple(((i - 1) * n + j - 1, s) for i, j, s in terms
                           if i and j))
    return tuple(table)


def _staircase_params(values: Sequence[Fraction], n: int) \
        -> tuple[Fraction, ...]:
    """The staircase parameters of the matrix x whose initial minors, in
    `initial_minor_specs` order, are the nonzero ``values``: the monomials
    of `_staircase_terms`, each one `Fraction` of integer products."""
    ratios = [v.as_integer_ratio() for v in values]
    params = []
    for terms in _staircase_terms(n):
        num = den = 1
        for j, s in terms:
            p, q = ratios[j] if s > 0 else ratios[j][::-1]
            num *= p
            den *= q
        params.append(Fraction(num, den))
    return tuple(params)


_staircase_cache: dict[int, tuple[list[MinorSpec], list[list[int]],
                                  list[list[int]]]] = {}


def staircase_minor_exponents(n: int) \
        -> tuple[list[MinorSpec], list[list[int]], list[list[int]]]:
    """(specs, E, E_inverse): the initial minors of the staircase product
    are the parameter monomials t^E[row], and parameter k is the Laurent
    monomial D^E_inverse[k] in the initial minors D.

    Both are closed forms.  E_inverse is `_staircase_terms`, one row per
    parameter.  The row of E for the initial minor with corner (r, c) has
    a 1 at each parameter whose corner (a, b) has a <= r, b <= c and
    min(0, r - c) <= a - b <= max(0, r - c): the weights its path family
    passes.  Checked on the way: E_inverse E = I.  Factoring evaluates the
    table on values and never builds these matrices.  They are memoized:
    at n = 8 `_staircase_params` took 77-117 us on the built table, 163-221
    us rebuilding it per call and 114-187 us as per-call closures (three
    runs of best of 7, 2-core VM, Python 3.11).
    """
    if n in _staircase_cache:
        return _staircase_cache[n]
    edges = staircase_edge_for_minor(n)
    owner, size = list(edges.values()), n * n
    exponents = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            low, high = min(0, r - c), max(0, r - c)
            row = [0] * size
            for a in range(1, r + 1):
                for b in range(max(1, a - high), min(c, a - low) + 1):
                    row[owner[(a - 1) * n + b - 1]] = 1
            exponents.append(row)
    inverse = []
    for k, terms in enumerate(_staircase_terms(n)):
        row, check = [0] * size, [0] * size
        for j, s in terms:
            row[j] = s
            check = [v + s * w for v, w in zip(check, exponents[j])]
        check[k] -= 1
        if any(check):
            raise AssertionError("staircase exponent matrices are not "
                                 "inverse to each other")
        inverse.append(row)
    _staircase_cache[n] = (list(edges), exponents, inverse)
    return _staircase_cache[n]


def staircase_edge_for_minor(n: int) -> dict[MinorSpec, int]:
    """The bijection from initial minors to essential-edge ordinals: each
    initial minor maps to the parameter that owns its corner, the first
    term of that parameter's `_staircase_terms` row.  That edge is the
    uppermost one the minor covers, and its weight is the minor divided by
    lower edges' weights."""
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    table = _staircase_terms(n)
    return dict(zip(initial_minor_specs(n),
                    sorted(range(n * n), key=lambda k: table[k][0][0])))


def _initial_values(x: Matrix) -> list[Fraction]:
    """The n^2 initial minors of x in row-major corner order, off the
    condensation walk: the one with corner (i, j) lies on rows i-k+1..i,
    k = min(i, j), so it is unscaled by P[i] / P[i-k], P holding the
    prefix products of the row multipliers."""
    n = x.n
    values, mults = initial_family(x)
    prefix = list(accumulate(mults, mul, initial=1))
    return [Fraction(values[(i - 1) * n + j - 1],
                     prefix[i] // prefix[i - min(i, j)])
            for i in range(1, n + 1) for j in range(1, n + 1)]


def factor_staircase(x: Matrix) -> tuple[Fraction, ...]:
    """The unique positive parameters with
    ``product_map(staircase_scheme(n), t) == x`` for totally positive x.

    Raises :class:`NotTotallyPositiveError` citing the first failing
    initial minor, in row-major corner order, otherwise.
    """
    n = x.n
    values = _initial_values(x)
    for p, value in enumerate(values):
        if value <= 0:
            raise NotTotallyPositiveError(
                initial_minor_spec(n, p // n + 1, p % n + 1), value)
    return _staircase_params(values, n)


def factor_scheme(x: Matrix, scheme: Word) -> tuple[Fraction, ...]:
    """Factorization parameters of x along an arbitrary full-type scheme,
    via the staircase factorization and exact parameter transport: the
    route from the scheme to the staircase, replayed backwards."""
    n = x.n
    rev = Permutation.reversal(n)
    if validate_scheme(scheme, n) != (rev, rev):
        raise WordError("factor_scheme needs a scheme of full type "
                        "(both slant subwords reduced for the reversal)")
    word = _encode(staircase_scheme(n))
    params = list(factor_staircase(x))
    _replay(word, params, _reversed_moves(_route(scheme, n)))
    if word != _encode(scheme):
        raise AssertionError("transport did not reach the requested scheme")
    if any(t <= 0 for t in params):
        raise AssertionError("transported parameters lost positivity")
    return tuple(params)


def parameter_sum_formula(x: Matrix) -> Fraction:
    """Closed form for the sum of the staircase factorization parameters:
    a Laurent polynomial in leading principal and near-principal minors."""
    n = x.n
    lead = [Fraction(1)] + [minor(x, MinorSpec(tuple(range(1, k + 1)),
                                               tuple(range(1, k + 1))))
                            for k in range(1, n + 1)]
    total = sum(lead[i] / lead[i - 1] for i in range(1, n + 1))
    for i in range(1, n):
        rows, cols = tuple(range(1, i)) + (i + 1,), tuple(range(1, i + 1))
        total += (minor(x, MinorSpec(rows, cols))
                  + minor(x, MinorSpec(cols, rows))) / lead[i]
    return total


# ---------------------------------------------------------------------------
# the twist map


def twist(x: Matrix) -> Matrix:
    """The twist of x: with w the order-reversing permutation matrix and
    [y]_-, [y]_+ the unit triangular LDU factors,

        twist(x) = [x^T w]_+  *  w * (x^T)^(-1) * w  *  [w x^T]_-

    Defined whenever the two LDU decompositions exist (always, for totally
    positive x); maps totally positive matrices onto themselves.

    On integers: a row scaling keeps the U of an LDU and a column scaling
    its L, so [x^T w]_+ is the U of the cleared rows of x^T w and [w x^T]_-
    the transposed U of x w; with R = d (x^T)^(-1) from Gauss-Jordan, each
    entry is one `Fraction` over a pivot of each U times d.  A singular x
    already fails the first LDU (its order-n leading minor is +-det x).
    """
    n = x.n
    cols, col_mults = _integer_rows(zip(*x.rows))  # the rows of x^T
    upper = [row[::-1] for row in cols]  # x^T w
    _ldu_rows(upper)
    lower = [row[::-1] for row in _integer_rows(x.rows)[0]]  # x w
    _ldu_rows(lower)
    inverse, d = _inverse_rows(cols, col_mults)
    middle = [col[::-1] for col in zip(*inverse)][::-1]  # columns of w R w
    left = [[sum(map(mul, upper[i][i:], middle[l][i:])) for l in range(n)]
            for i in range(n)]
    return Matrix([[Fraction(sum(map(mul, left[i][j:], lower[j][j:])),
                             upper[i][i] * d * lower[j][j])
                    for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# exponent fitting at primes, the certificate of `verify_twist_monomial`


def _primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _prime_exponents(value: Fraction, primes: Sequence[int]) \
        -> list[int] | None:
    """Exponent vector of value over the given primes, or None if anything
    else divides it (including sign or a leftover factor)."""
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    exps = []
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        exps.append(e)
    if num != 1 or den != 1:
        return None
    return exps


def _integer_inverse(rows: Sequence[Sequence[int]]) \
        -> list[list[int]] | None:
    """The inverse of a square integer matrix, or None when the matrix is
    singular or its inverse is not integral."""
    try:
        inverse = Matrix(rows).inverse()
    except ZeroDivisionError:
        return None
    if any(v.denominator != 1 for row in inverse.rows for v in row):
        return None
    return [[int(v) for v in row] for row in inverse.rows]


def verify_twist_monomial(scheme: Word, n: int | None = None,
                          samples: int = 3, rng=None) -> bool:
    """Certify that each factorization parameter of the scheme is a Laurent
    monomial in the chamber minors of the twisted matrix.

    Exponents are fitted exactly: the scheme is evaluated at distinct prime
    parameters, the chamber minors of the twist factor back into those
    primes (already a consistency check, repeated under a second prime
    assignment), and the resulting integer exponent matrix is inverted.
    The fitted monomials are then verified exactly on fresh random positive
    samples.  Returns False instead of raising when any step refutes the
    monomial property.
    """
    import random

    if n is None:
        n = infer_n(scheme)
    if not is_full_scheme(scheme, n):
        raise WordError("monomial verification needs a full-type scheme")
    rng = rng or random.Random(20240)
    uncircled = tuple(l for l in scheme if l.kind != DIAG)
    diagram = DoubleWiringDiagram(uncircled, n)
    chamber_specs = chamber_minors(diagram)
    size = n * n

    def chamber_values(params) -> list[Fraction]:
        x = product_map(scheme, params, n)
        values, mults = chamber_family(twist(x), diagram)
        return [unscale(spec, value, mults)
                for spec, value in zip(chamber_specs, values)]

    exponent_rows: list[list[int]] | None = None
    base = _primes(size)
    for assignment in (base, base[::-1]):
        values = chamber_values(assignment)
        rows = []
        for value in values:
            exps = _prime_exponents(value, assignment)
            if exps is None:
                return False
            rows.append(exps)
        if exponent_rows is None:
            exponent_rows = rows
        elif rows != exponent_rows:
            return False

    # parameter k is the monomial prod_j c_j ** beta[k][j]; the exponent
    # rows satisfy beta . E = identity, so beta is the inverse of E
    beta = _integer_inverse(exponent_rows)
    if beta is None:
        return False

    for _ in range(samples):
        params = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(size)]
        values = chamber_values(params)
        for k in range(size):
            monomial = Fraction(1)
            for j in range(size):
                if beta[k][j]:
                    monomial *= values[j] ** beta[k][j]
            if monomial != params[k]:
                return False
    return True
