"""Total positivity and nonnegativity tests, oscillation, and cell type.

Every test here is an exact sign computation.  The brute-force testers
check all C(2n, n) - 1 minors and act as oracles for the efficient
criteria:

* `test_initial_minors`: the n^2 initial minors (equivalent to total
  positivity);
* `test_chamber_minors`: the n^2 chamber minors of any double wiring
  diagram (the initial criterion is the minimal diagram's instance);
* `test_fekete_solid`: all solid minors;
* `test_tnn_efficient`: for invertible matrices, nonnegativity of the
  minors occupying several initial rows or several initial columns plus
  positivity of the leading principal minors -- 2^(n+1) - n - 2 minors in
  total;
* `test_tp_given_tnn`: for a matrix already known totally nonnegative,
  nonvanishing of the 2n - 1 antiprincipal minors;
* `test_tnn_neville`: one fraction-free Neville elimination of x and one
  of x^T, O(n^3) (Gasca and Peña 1992): an invertible x is totally
  nonnegative iff no row exchange is needed, no multiplier is negative
  and every diagonal pivot is positive.  A pivot is a ratio of initial
  minors, so a failing one points at a witness.  For total positivity
  the pass would stop at the first pivot that is not positive, having
  read only initial minors, so the CLI's `test --method neville` reads
  the initial family;
* `is_oscillatory`: equivalent characterizations of invertible totally
  nonnegative matrices some power of which is totally positive, on the
  Neville TNN check of the input and the initial minors of x^(n-1);
* `bruhat_type`: the pair of permutations naming the double coset of the
  upper and lower triangular Bruhat decompositions that contains x.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .diagrams import DoubleWiringDiagram, chamber_family, chamber_minors
from .matrices import (Matrix, MinorSpec, _cancel, _column_sets,
                       _integer_rows, _laplace_walk, _neville,
                       _solid_spec_at, chain_minors, initial_family,
                       initial_minor_spec, is_block_triangular, minor,
                       minor_family, solid_family, unscale)
from .words import Permutation


class GuardExceeded(ValueError):
    """A size guard on an exponential minor family was exceeded."""


class NotApplicableError(ValueError):
    """The test's hypothesis fails for this input (e.g. singular matrix)."""


def check_guard(n: int, guard: int,
                what: str = "brute force over all minors") -> None:
    if n > guard:
        raise GuardExceeded(
            f"{what} is guarded at n <= {guard}; "
            f"pass a larger guard to override")


def _nonpositive(value) -> bool:
    return value <= 0


def _negative(value) -> bool:
    return value < 0


def _failures(spec_at, values, mults, fails) \
        -> list[tuple[MinorSpec, Fraction]]:
    """The failing values with their specs, ``spec_at(position)``."""
    return [(spec, unscale(spec, value, mults))
            for position, value in enumerate(values) if fails(value)
            for spec in (spec_at(position),)]


def failing_minors(x: Matrix, specs: Iterable[MinorSpec], *,
                   strict: bool) -> list[tuple[MinorSpec, Fraction]]:
    """Specs whose minors fail the sign requirement (> 0, or >= 0)."""
    specs = list(specs)
    return _failures(specs.__getitem__, *minor_family(x, specs),
                     _nonpositive if strict else _negative)


def is_tp_bruteforce(x: Matrix, guard: int = 6) -> bool:
    """Every one of the C(2n, n) - 1 minors is positive."""
    return not any(_all_minor_failures(x, _nonpositive, guard))


def is_tnn_bruteforce(x: Matrix, guard: int = 6) -> bool:
    """Every minor is nonnegative."""
    return not any(_all_minor_failures(x, _negative, guard))


def failing_all_minors(x: Matrix, *, strict: bool, guard: int = 6) \
        -> list[tuple[MinorSpec, Fraction]]:
    """The minors that fail the sign requirement (> 0, or >= 0), in
    :func:`all_minor_specs` order."""
    return list(_all_minor_failures(x, _nonpositive if strict else _negative,
                                    guard))


def _all_minor_failures(x: Matrix, fails, guard: int):
    """The minors of x whose row-scaled values ``fails`` picks, with their
    specs, in :func:`all_minor_specs` order off one :func:`_laplace_walk`;
    no other spec is built.  n above ``guard`` raises GuardExceeded."""
    check_guard(x.n, guard)
    m, mults = _integer_rows(x.rows)
    col_sets = _column_sets(x.n, x.n)
    for rows, node in _laplace_walk(m, col_sets, chain=False):
        for (_, cols), value in zip(col_sets[len(rows)], node.values()):
            if fails(value):
                yield _witness(rows, cols, value, mults)


def test_initial_minors(x: Matrix) -> bool:
    """Positivity of the n^2 initial minors; equivalent to total
    positivity."""
    return initial_family(x, stop=_nonpositive) is not None


def failing_initial_minors(x: Matrix) -> list[tuple[MinorSpec, Fraction]]:
    """The initial minors that are not positive, in spec order."""
    n = x.n
    return _failures(lambda p: initial_minor_spec(n, p // n + 1, p % n + 1),
                     *initial_family(x), _nonpositive)


def test_chamber_minors(x: Matrix, d: DoubleWiringDiagram) -> bool:
    """Positivity of the n^2 chamber minors of the diagram; equivalent to
    total positivity for every diagram."""
    _check_diagram(x, d)
    return chamber_family(x, d, stop=_nonpositive) is not None


def failing_chamber_minors(x: Matrix, d: DoubleWiringDiagram) \
        -> list[tuple[MinorSpec, Fraction]]:
    """The chamber minors of the diagram that are not positive, in
    :func:`chamber_minors` order."""
    _check_diagram(x, d)
    return _failures(chamber_minors(d).__getitem__, *chamber_family(x, d),
                     _nonpositive)


def _check_diagram(x: Matrix, d: DoubleWiringDiagram) -> None:
    if d.n != x.n:
        raise ValueError(f"diagram size {d.n} does not match matrix {x.n}")


def test_fekete_solid(x: Matrix) -> bool:
    """Positivity of all solid minors; equivalent to total positivity."""
    return solid_family(x, stop=_nonpositive) is not None


def failing_solid_minors(x: Matrix) -> list[tuple[MinorSpec, Fraction]]:
    """The solid minors that are not positive, in spec order."""
    n = x.n
    return _failures(lambda p: _solid_spec_at(n, p), *solid_family(x),
                     _nonpositive)


# ---------------------------------------------------------------------------
# efficient total nonnegativity for invertible matrices


_SINGULAR = ("matrix is singular; the efficient criterion requires an "
             "invertible input -- use the brute-force test")


def tnn_efficient_specs(n: int) -> list[MinorSpec]:
    """Minors with row set [1, k] (any columns) or column set [1, k] (any
    rows), distinct by construction; exactly 2^(n+1) - n - 2 of them."""
    specs = []
    for k in range(1, n + 1):
        head = tuple(range(1, k + 1))
        for other in itertools.combinations(range(1, n + 1), k):
            specs.append(MinorSpec.trusted(head, other))
            if other != head:
                specs.append(MinorSpec.trusted(other, head))
    return specs


def test_tnn_efficient(x: Matrix, guard: int = 16) -> tuple[bool, int]:
    """Total nonnegativity test for invertible matrices.

    Checks nonnegativity of every minor occupying several initial rows or
    several initial columns, and positivity of the leading principal
    minors.  Returns (verdict, number of minors checked); raises
    :class:`NotApplicableError` on singular input (use the brute-force
    test instead).  The family has 2^(n+1) - n - 2 minors, so n above
    ``guard`` raises :class:`GuardExceeded` before any is built.
    """
    verdict, checked, _ = tnn_efficient_report(x, guard)
    return verdict, checked


def tnn_efficient_report(x: Matrix, guard: int = 16) \
        -> tuple[bool, int, list[tuple[MinorSpec, Fraction]]]:
    """:func:`test_tnn_efficient`'s verdict and count, with its negative
    minors in :func:`tnn_efficient_specs` order as witnesses, else
    :func:`_sylvester_witness`.

    The family is read off :func:`chain_minors` of the cleared rows, each
    column or row set in combinations order, as the specs list them; a
    spec is built only for a witness."""
    n = x.n
    check_guard(n, guard, "the efficient TNN test")
    m, mults = _integer_rows(x.rows)
    on_rows, on_cols = chain_minors(m)
    if not on_rows[-1][(2 << n) - 2]:  # [1..n|1..n], the determinant
        raise NotApplicableError(_SINGULAR)
    failures = []
    for k, (row_minors, col_minors) in enumerate(zip(on_rows, on_cols), 1):
        head = tuple(range(1, k + 1))
        head_mask = (2 << k) - 2
        for (mask, a), b in zip(row_minors.items(), col_minors.values()):
            if a < 0:
                failures.append(_witness(head, _indices(mask), a, mults))
            if b < 0 and mask != head_mask:
                failures.append(_witness(_indices(mask), head, b, mults))
    verdict = not failures and all(
        minors[(2 << k) - 2] > 0 for k, minors in enumerate(on_rows, 1))
    if not verdict and not failures:
        failures = [_sylvester_witness(x, on_rows, on_cols)]
    return verdict, (2 << n) - n - 2, failures


def _indices(mask: int) -> tuple[int, ...]:
    """The 1-based indices whose bits are set in ``mask``."""
    return tuple(c for c in range(1, mask.bit_length()) if mask >> c & 1)


def _witness(rows: tuple[int, ...], cols: tuple[int, ...], value: int,
             mults) -> tuple[MinorSpec, Fraction]:
    spec = MinorSpec.trusted(rows, cols)
    return spec, unscale(spec, value, mults)


def _sylvester_witness(x: Matrix, on_rows: list[dict[int, int]],
                       on_cols: list[dict[int, int]]) \
        -> tuple[MinorSpec, Fraction]:
    """The negative minor of an invertible x whose efficient family (the
    :func:`chain_minors` of its rows and of its columns, row-scaled) has a
    zero leading principal minor and no negative one.  With D(k) the first
    zero one, invertibility makes some b_kj = [1..k|1..k-1, j] and b_ik =
    [1..k-1, i|1..k] with i, j > k positive; by Sylvester's identity the
    first such j and i give [1..k, i|1..k, j] = -b_kj b_ik / D(k-1) < 0."""
    n = x.n
    k = next(k for k in range(1, n) if not on_rows[k - 1][(2 << k) - 2])
    stem = (1 << k) - 2
    j = next(j for j in range(k + 1, n + 1)
             if on_rows[k - 1][stem | 1 << j] > 0)
    i = next(i for i in range(k + 1, n + 1)
             if on_cols[k - 1][stem | 1 << i] > 0)
    head = tuple(range(1, k + 1))
    spec = MinorSpec.trusted(head + (i,), head + (j,))
    return spec, minor(x, spec)


# ---------------------------------------------------------------------------
# Neville elimination


def _neville_failure(x: Matrix, singular: str) -> MinorSpec | None:
    """None when the Neville passes of x and of x^T both pass; else the
    initial minor of the first failing pivot, or, when x is singular,
    :class:`NotApplicableError` with the message ``singular``.

    The passes run on the row-cleared integer matrix and its transpose,
    and a positive scaling of rows or columns keeps every sign they read.
    x is singular when some row of it, cleared afresh (the passes work in
    place), adds no column to the rank profile of the rows before it: a
    rank pass, not ``x.det()``.
    """
    rows, _ = _integer_rows(x.rows)
    columns = [list(column) for column in zip(*rows)]
    for m, transpose in ((rows, False), (columns, True)):
        failed = _neville(m)
        if failed is not None:
            if None in _pivot_columns(_integer_rows(x.rows)[0]):
                raise NotApplicableError(singular)
            i, k = failed[::-1] if transpose else failed
            return initial_minor_spec(x.n, i + 1, k + 1)
    return None


def test_tnn_neville(x: Matrix) -> bool:
    """Total nonnegativity of an invertible x from one Neville elimination
    of x and one of x^T (Gasca and Peña 1992): no row exchange, no
    negative multiplier, positive diagonal pivots.  O(n^3); raises
    :class:`NotApplicableError` on singular input."""
    return _neville_failure(x, _SINGULAR) is None


def tnn_neville_report(x: Matrix, guard: int = 16) \
        -> tuple[bool, int, list[tuple[MinorSpec, Fraction]]]:
    """:func:`test_tnn_neville`'s verdict, with the n^2 initial minors
    whose ratios are the pivots as the count, and witnesses.

    The witness is the failing pivot's initial minor when :func:`minor`
    finds it negative.  Otherwise (the pivot is zero, or nonzero below a
    zero one, or past a row that a zero pivot left as it was) the
    witnesses are those of :func:`tnn_efficient_report`, so n above
    ``guard`` raises :class:`GuardExceeded` there.
    """
    n = x.n
    spec = _neville_failure(x, _SINGULAR)
    if spec is None:
        return True, n * n, []
    value = minor(x, spec)
    if value < 0:
        return False, n * n, [(spec, value)]
    return False, n * n, tnn_efficient_report(x, guard)[2]


def test_tp_given_tnn(x: Matrix) -> bool:
    """For a totally nonnegative x: totally positive iff the 2n - 1
    antiprincipal minors (top-right and bottom-left corner minors) are all
    nonzero."""
    return minor_family(x, antiprincipal_specs(x.n),
                        lambda value: value == 0) is not None


def antiprincipal_specs(n: int) -> list[MinorSpec]:
    """The 2n - 1 antiprincipal minors, top-right then bottom-left for each
    size, the full determinant once."""
    specs = []
    for i in range(1, n + 1):
        specs.append(MinorSpec.trusted(tuple(range(1, i + 1)),
                                       tuple(range(n - i + 1, n + 1))))
        if i < n:
            specs.append(MinorSpec.trusted(tuple(range(n - i + 1, n + 1)),
                                           tuple(range(1, i + 1))))
    return specs


# ---------------------------------------------------------------------------
# oscillatory matrices


def is_oscillatory(x: Matrix, criterion: str = "b", guard: int = 6) -> bool:
    """Test whether an invertible totally nonnegative matrix is oscillatory
    (some power is totally positive) by one of three equivalent criteria:

    * ``"b"``: all entries just above and just below the diagonal positive;
    * ``"c"``: x^(n-1) totally positive (checked by its initial minors);
    * ``"d"``: x is not block-triangular.

    The input is checked by Neville elimination (:func:`test_tnn_neville`);
    n above ``guard`` raises :class:`GuardExceeded`.
    """
    if criterion not in ("b", "c", "d"):
        raise ValueError(f"unknown criterion {criterion!r}; pick b, c, or d")
    _check_oscillation_input(x, guard)
    return _oscillation_criterion(x, criterion)


def oscillation_criteria(x: Matrix, guard: int = 6) -> dict[str, bool]:
    """:func:`is_oscillatory` by each criterion b, c and d, with the input
    checked once."""
    _check_oscillation_input(x, guard)
    return {c: _oscillation_criterion(x, c) for c in "bcd"}


def _check_oscillation_input(x: Matrix, guard: int) -> None:
    tnn = _neville_failure(x, "oscillation is defined for invertible "
                           "totally nonnegative matrices") is None
    check_guard(x.n, guard)
    if not tnn:
        raise NotApplicableError("input is not totally nonnegative")


def _oscillation_criterion(x: Matrix, criterion: str) -> bool:
    n = x.n
    if criterion == "b":
        return all(x.entry(i, i + 1) > 0 and x.entry(i + 1, i) > 0
                   for i in range(1, n))
    if criterion == "c":
        return test_initial_minors(x ** (n - 1))
    return not is_block_triangular(x)


# ---------------------------------------------------------------------------
# double Bruhat cell type


def bruhat_type(x: Matrix) -> tuple[Permutation, Permutation]:
    """The pair (u, v) of permutations such that x lies in the intersection
    of the upper-Bruhat double coset of u and the lower-Bruhat double coset
    of v.

    u is read off the rank profile of the southwest submatrices (rows
    i..n, columns 1..j), which left/right multiplication by upper
    triangular matrices preserves; v off the northeast submatrices (rows
    1..i, columns j..n), preserved by lower triangular multiplication.
    Adding a row to a block of rows adds at most one pivot column to its
    column rank profile: the first column where the row, reduced against
    the block, is nonzero.  So u(j) is the row that brings column j in as
    the rows are added from n up to 1, and one pass of `_entering_pivots`
    over x's rows, cleared once (a positive row scaling keeps every rank),
    reads all of u; v likewise, adding rows 1..n with the columns
    reversed.  A row that reduces to zero shows x singular, before the v
    pass.  For a totally nonnegative x, (u, v) is its factorization type.
    """
    n = x.n
    rows, _ = _integer_rows(x.rows)
    u_images = [0] * n
    v_images = [0] * n
    for i, c in zip(range(n, 0, -1), _entering_pivots(rows[::-1])):
        u_images[c] = i
    for i, c in enumerate(_entering_pivots([row[::-1] for row in rows]), 1):
        v_images[n - 1 - c] = i
    return Permutation(tuple(u_images)), Permutation(tuple(v_images))


def _entering_pivots(rows: list[list[int]]) -> list[int]:
    """The column (0-based) each of the integer ``rows``, in turn, adds to
    the column rank profile of those before it (:func:`_pivot_columns`),
    raising :class:`NotApplicableError` when one adds none."""
    columns = list(_pivot_columns(rows))
    if None in columns:
        raise NotApplicableError("Bruhat type is computed for invertible "
                                 "matrices only")
    return columns


def _pivot_columns(rows: list[list[int]]):
    """Yield the column (0-based) each of the integer ``rows``, in turn,
    adds to the column rank profile of those before it, or None when it
    adds none.

    Each kept row is zero left of its pivot column and at the pivot
    columns kept before it.  So a new row, reduced against them in the
    order kept by :func:`~totpos.matrices._cancel` (fraction-free, divided
    by its content), ends zero at every pivot column, and its first
    nonzero column is the first whose prefix it lifts out of the span of
    the kept rows.
    """
    kept: dict[int, list[int]] = {}
    for row in rows:
        for p, pivot_row in kept.items():
            if row[p]:
                row = _cancel(row, pivot_row, pivot_row[p], row[p])
        c = next((j for j, a in enumerate(row) if a), None)
        yield c
        if c is not None:
            kept[c] = row
