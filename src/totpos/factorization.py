"""Inverse problems: recovering parameters and matrices, and the twist map.

* `factor_staircase` recovers the unique positive parameter vector of the
  staircase scheme for a totally positive matrix, and
  `reconstruct_from_initial_minors` rebuilds the unique matrix with given
  nonzero initial minors as the staircase product at the parameters they
  determine.  Both read the parameters off a closed form: each is a
  Laurent monomial in at most four initial minors, a Neville elimination
  multiplier or pivot (Gasca and Peña 1992; Koev 2007), stated once as a
  per-n table of (minor, exponent) entries, `_staircase_terms`, and
  evaluated on integer pairs by `_staircase_pairs`; reconstruction hands
  the pairs straight to the product kernel, `words._product_columns`.
  The converse is a closed form too: the initial minor with corner
  (r, c) is the product of the parameters whose corners (a, b) have
  a <= r, b <= c and a - b between 0 and r - c.
  `staircase_minor_exponents` writes both as exponent matrices, E and its
  inverse, and `staircase_edge_for_minor` maps each initial minor to the
  parameter owning its corner; neither is a step of factoring.
* `twist` is the birational map assembled from the LDU factors of the
  transposed matrix against the order-reversing permutation w.  With
  x^T w = L1 D1 U1 its first factor, U1, cancels against the inverse of
  x^T, so twist(x) = D1^(-1) L1^(-1) w [w x^T]_-, read off integer rows
  from one elimination of [x^T w | diag] and one of x w; it sends the
  totally positive matrices onto themselves, and the factorization
  parameters of any scheme become Laurent monomials in the chamber minors
  of the twisted matrix.  That is the Chamber Ansatz (Berenstein, Fomin
  and Zelevinsky 1996), stated once in `_chamber_ansatz`.
* `factor_scheme` factors along any full-type scheme with one twist, one
  chamber sweep and that read-off, which `verify_twist_monomial` checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, prod
from operator import mul
from typing import Mapping, Sequence

from .diagrams import DoubleWiringDiagram, chamber_family
from .exact import as_scalar
from .matrices import (Matrix, MinorSpec, _augmented, _integer_rows,
                       _ldu_rows, initial_family, initial_minor_spec,
                       initial_minor_specs, minor)
from .words import (_ONE, DIAG, LOWER, Permutation, Word, WordError,
                    _encode, _product_columns, infer_n, is_full_scheme,
                    product_map, staircase_scheme, validate_scheme)

_MISSING = object()  # a minor absent from reconstruction's values


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
    its parameters, so the staircase product at the parameters of the
    values (`_staircase_pairs`) has exactly these initial minors, whatever
    their signs.  The first missing or zero minor in row-major corner
    order is named.  The parameters go to the product kernel as integer
    pairs, with the letter codes of `_staircase_plan`: no spec, letter or
    parameter `Fraction` is built.
    """
    specs, codes = _staircase_plan(n)
    ratios = []
    for spec in specs:
        if (value := values.get(spec, _MISSING)) is _MISSING:
            raise ReconstructionError(f"missing initial minor {spec}")
        value = as_scalar(value)
        if value == 0:
            raise ReconstructionError(
                f"initial minor {spec} is zero; reconstruction needs all "
                f"initial minors nonzero")
        ratios.append((value.numerator, value.denominator))
    return _product_columns(codes, _staircase_pairs(ratios, n), n)


@cache
def _staircase_plan(n: int) -> tuple[tuple[MinorSpec, ...], tuple[int, ...]]:
    """The initial minor specs in row-major corner order and the letter
    codes of the staircase scheme, for reconstruction at size n; at n < 1
    it raises the `ValueError` of `product_map`."""
    specs = tuple(initial_minor_specs(n))
    codes = tuple(_encode(staircase_scheme(n), n))
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    return specs, codes


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


def _staircase_pairs(ratios: Sequence[tuple[int, int]], n: int) \
        -> list[tuple[int, int]]:
    """The staircase parameters of the matrix x whose initial minors, in
    `initial_minor_specs` order, are the nonzero ``ratios`` (p, q), q > 0:
    the monomials of `_staircase_terms`, each a pair of integer products
    in lowest terms with a positive second entry.  The gcd pays: on totally
    positive inputs at n = 12, pairs and kernel took 27-55 % longer
    without it, as unreduced pairs grow the kernel's columns."""
    pairs = []
    for terms in _staircase_terms(n):
        num = den = 1
        for j, s in terms:
            p, q = ratios[j] if s > 0 else ratios[j][::-1]
            num *= p
            den *= q
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        pairs.append((num // g, den // g))
    return pairs


def _staircase_params(values: Sequence[Fraction], n: int) \
        -> tuple[Fraction, ...]:
    """`_staircase_pairs` of nonzero ``values``, as `Fraction` values."""
    return tuple(Fraction(p, q) for p, q in _staircase_pairs(
        [v.as_integer_ratio() for v in values], n))


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
    covered, exponents = [], []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            low, high = min(0, r - c), max(0, r - c)
            cells = [owner[(a - 1) * n + b - 1] for a in range(1, r + 1)
                     for b in range(max(1, a - high), min(c, a - low) + 1)]
            row = [0] * size
            for k in cells:
                row[k] = 1
            covered.append(cells)
            exponents.append(row)
    inverse = []
    for k, terms in enumerate(_staircase_terms(n)):
        # row k of E_inverse E is e_k: the sets of the +1 terms cover what
        # those of the -1 terms cover, and k once more
        row, plus, minus = [0] * size, [], [k]
        for j, s in terms:
            row[j] = s
            (plus if s > 0 else minus).extend(covered[j])
        if sorted(plus) != sorted(minus):
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


def _positive_initial_values(x: Matrix) -> list[Fraction]:
    """`_initial_values`, raising :class:`NotTotallyPositiveError` citing
    the first one that is not positive."""
    n = x.n
    values = _initial_values(x)
    for p, value in enumerate(values):
        if value <= 0:
            raise NotTotallyPositiveError(
                initial_minor_spec(n, p // n + 1, p % n + 1), value)
    return values


def factor_staircase(x: Matrix) -> tuple[Fraction, ...]:
    """The unique positive parameters with
    ``product_map(staircase_scheme(n), t) == x`` for totally positive x.

    Raises :class:`NotTotallyPositiveError` citing the first failing
    initial minor, in row-major corner order, otherwise.
    """
    return _staircase_params(_positive_initial_values(x), x.n)


def factor_scheme(x: Matrix, scheme: Word) -> tuple[Fraction, ...]:
    """Factorization parameters of x along an arbitrary full-type scheme,
    read off the chamber minors of the twist of x on the diagram formed by
    the scheme's slants (`_chamber_ansatz`).

    Raises :class:`WordError` on a scheme that is not of full type, and
    then :class:`NotTotallyPositiveError` as `factor_staircase` does."""
    n = x.n
    rev = Permutation.reversal(n)
    if validate_scheme(scheme, n) != (rev, rev):
        raise WordError("factor_scheme needs a scheme of full type "
                        "(both slant subwords reduced for the reversal)")
    _positive_initial_values(x)
    levels = _twisted_chambers(x, scheme, n)
    return tuple(_chamber_ansatz(_encode(scheme, n), levels))


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
# the twist map and the Chamber Ansatz


def twist(x: Matrix) -> Matrix:
    """The twist of x: with w the order-reversing permutation matrix and
    [y]_-, [y]_+ the unit triangular LDU factors,

        twist(x) = [x^T w]_+  *  w * (x^T)^(-1) * w  *  [w x^T]_-

    Defined whenever the two LDU decompositions exist (always, for totally
    positive x); maps totally positive matrices onto themselves.

    The first factor cancels: with x^T w = L1 D1 U1, w (x^T)^(-1) w is
    (x^T w)^(-1) w = U1^(-1) D1^(-1) L1^(-1) w, so twist(x) =
    D1^(-1) L1^(-1) w [w x^T]_-, and no inverse is formed.  On integers,
    one elimination of the cleared rows of x^T w, augmented by the
    diagonal of their multipliers, leaves in row i of the right half
    (Sylvester's identity) the leading (i + 1)-minor times row i of
    D1^(-1) L1^(-1); [w x^T]_- is the transposed U of x w, which a row
    scaling keeps.  So each entry is one triangular sum over two pivots,
    and one `Fraction`.  A singular x already fails the first
    elimination (its order-n leading minor is +-det x), which is checked
    first.
    """
    n = x.n
    cols, col_mults = _integer_rows(zip(*x.rows))  # the rows of x^T
    left = _augmented([row[::-1] for row in cols], col_mults)
    _ldu_rows(left)  # [x^T w | diag(col_mults)]
    lower = [row[::-1] for row in _integer_rows(x.rows)[0]]  # x w
    _ldu_rows(lower)
    # column j of w [w x^T]_- times lower[j][j], down to its last nonzero
    tails = [row[:j - 1 if j else None:-1] for j, row in enumerate(lower)]
    return Matrix([[Fraction(sum(map(mul, left[i][n:n + i + 1], tails[j])),
                             left[i][i] * lower[j][j])
                    for j in range(n)] for i in range(n)])


def _twisted_chambers(x: Matrix, scheme: Word, n: int) \
        -> list[list[Fraction]]:
    """The true chamber minors of twist(x) on the diagram of the scheme's
    slants, one list per level, bottom up, each left to right.  The sweep
    scales a level-h chamber by the multipliers of the rows on thin tracks
    1..h, and a lower at height h swaps tracks h and h + 1."""
    diagram = DoubleWiringDiagram([l for l in scheme if l.kind != DIAG], n)
    values, mults = chamber_family(twist(x), diagram)
    tracks = mults[::-1]  # the multiplier of the row on each thin track
    dens = list(accumulate(tracks, mul))
    levels = [[den] for den in dens]
    for letter in diagram.word:
        h = letter.index
        if letter.kind == LOWER:
            dens[h - 1] = dens[h - 1] // tracks[h - 1] * tracks[h]
            tracks[h - 1], tracks[h] = tracks[h], tracks[h - 1]
        levels[h - 1].append(dens[h - 1])
    chambers = iter(values)
    return [[Fraction(next(chambers), den) for den in level]
            for level in levels]


def _monomial(up: Sequence[Fraction], down: Sequence[Fraction]) -> Fraction:
    """The product of ``up`` over that of ``down``, as one `Fraction` of
    integer products."""
    return Fraction(prod(f.numerator for f in up)
                    * prod(f.denominator for f in down),
                    prod(f.denominator for f in up)
                    * prod(f.numerator for f in down))


def _conjugate_slants(codes: list[int], values: list, n: int) -> None:
    """Pass the diags back out of the slants, in place.  A held lower has
    the diags on its left passed through it, a held upper those on its
    right; slant i with held value t gets t H[i] / H[i+1], with H[k] the
    product of the parameters of the diags @k passed."""
    for kind, order in ((0, range(len(codes))),
                        (1, range(len(codes) - 1, -1, -1))):
        torus: dict[int, Fraction] = {}
        for k in order:
            code_kind, i = divmod(codes[k] - 1, n)
            if code_kind == 2:
                torus[i] = torus[i] * values[k] if i in torus else values[k]
            elif code_kind == kind:
                num, den = torus.get(i, 1), torus.get(i + 1, 1)
                if num != den:
                    values[k] = values[k] * num / den


def _chamber_ansatz(codes: list[int], levels: list[list[Fraction]]) \
        -> list[Fraction]:
    """The parameters of the scheme with letter codes ``codes`` whose
    product x has twist chamber minors ``levels`` (`_twisted_chambers`):
    each is a Laurent monomial in them (Berenstein, Fomin and Zelevinsky
    1996; Fomin and Zelevinsky 1999, Thm 1.9).

    Write c[h][0..m] for the chambers of level h, left to right.  L[h]
    starts at 1 and, left to right, takes c_left / c_right at each lower
    of height h; U[h] starts at 1 and, right to left, takes c_right /
    c_left at each upper of height h; both are 1 on levels 0 and n.  A
    lower of height h holds L[h] before and after it over L[h-1] L[h+1] as
    they stand there, an upper the same in U, read from the right, and
    diag @h holds D[h] / D[h-1], with D[0] = 1 and D[h] = 1 / (c[h][0]
    U[h]), U[h] over all uppers.  Held values are the parameters with the
    diags passed through the slants; `_conjugate_slants` passes them back
    last."""
    n = len(levels)
    values: list = [None] * len(codes)
    for kind, order, step in ((0, range(len(codes)), 1),
                              (1, range(len(codes) - 1, -1, -1), -1)):
        ratio = [_ONE] * (n + 1)
        at = [0] * n if step > 0 else [len(row) - 1 for row in levels]
        for p in order:
            code_kind, i = divmod(codes[p] - 1, n)
            if code_kind == 2:
                continue
            h = i + 1
            j = at[i]
            at[i] = j + step
            if code_kind == kind:
                row = levels[h - 1]
                now = _monomial((ratio[h], row[j]), (row[j + step],))
                values[p] = _monomial((ratio[h], now),
                                      (ratio[h - 1], ratio[h + 1]))
                ratio[h] = now
    # the right-to-left pass ran last: ratio[h] is U[h] over all uppers, and
    # @h holds c[h-1][0] U[h-1] / (c[h][0] U[h])
    firsts = [_ONE] + [row[0] for row in levels]
    for p, code in enumerate(codes):
        code_kind, i = divmod(code - 1, n)
        if code_kind == 2:
            values[p] = _monomial((firsts[i], ratio[i]),
                                  (firsts[i + 1], ratio[i + 1]))
    _conjugate_slants(codes, values, n)
    return values


def verify_twist_monomial(scheme: Word, n: int | None = None,
                          samples: int = 3, rng=None) -> bool:
    """Check that each factorization parameter of the scheme is the Laurent
    monomial `_chamber_ansatz` gives in the chamber minors of the twisted
    matrix: at fresh random positive parameters the read-off of the twist
    of their product returns them exactly.  Returns False instead of
    raising when a sample refutes it.
    """
    import random

    if n is None:
        n = infer_n(scheme)
    if not is_full_scheme(scheme, n):
        raise WordError("monomial verification needs a full-type scheme")
    rng = rng or random.Random(20240)
    codes = _encode(scheme, n)
    for _ in range(samples):
        params = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(n * n)]
        x = product_map(scheme, params, n)
        if _chamber_ansatz(codes, _twisted_chambers(x, scheme, n)) != params:
            return False
    return True
