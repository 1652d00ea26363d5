"""Exact dense square matrices, minors, and classical determinant identities.

Conventions:

* all public row/column indices are 1-based;
* a minor is addressed by a :class:`MinorSpec` holding strictly increasing
  row and column index tuples of equal size;
* the empty determinant (size-0 minor) is 1 wherever the identities below
  need it (deleted minors of a 2x2 matrix, recursion bases).

One fraction-free (Bareiss) elimination kernel serves determinants,
minors, rank, inverse and LDU.  It works on integer rows after each
row's denominators are cleared; the row multipliers are positive, so
signs survive.  Its k-th pivot is a leading k-minor and every entry it
stores is a minor bordering it, so every division is exact and
intermediate values stay small.  The rule: a pass that reads a minor's
value divides exactly, as the kernel does; a pass that reads only signs
or ranks divides each combined row by its content (:func:`_cancel`).
:func:`_neville`, Neville elimination (each row eliminated by its upper
neighbour), is such a pass: the polynomial TNN verdict reads the signs
of its pivots.

Families of minors are evaluated once per matrix: the row denominators
are cleared once, and each minor comes back scaled, the true minor times
the multipliers of its rows, so it has the true minor's sign and
:func:`unscale` gives the exact value.  :func:`minor_family` takes a
list of specs and follows their shapes only:

* solid minors (Fekete, initial, antiprincipal): Dodgson condensation,
  level by level, O(1) per minor.  The minors reached through a zero
  divisor are leading minors of blocks, so one elimination per top-left
  corner gives them up to the block's first zero pivot; the kernel takes
  only the sizes past it;
* any other list: the kernel on each submatrix of the cleared rows.

Every engine returns the same exact minors, so a list that repeats specs
only costs more.

Five families take no spec list, so a verdict builds specs only for its
witnesses and for minors past a zero pivot.  :func:`initial_family` and
:func:`solid_family` read the same condensation walk in spec order.
Every minor (brute force) comes from one Laplace walk,
:func:`_laplace_walk`: expansion along the last row, row sets size by
size, O(k) per minor from its parent's, in :func:`all_minor_specs`
order.  :func:`chain_minors`, the minors on rows [1..k] and on columns
[1..k] (the efficient TNN family), come from two chained walks, on the
cleared rows and on their transpose, keyed by bit masks.
Chamber minors have their own engine, :func:`_sweep_family`, behind
:func:`totpos.diagrams.chamber_family`.  At each slice of a double wiring
diagram the chambers are the leading minors in track order, and a
crossing swaps two adjacent tracks, so the rows of Bareiss tableaux kept
along the sweep give each new chamber from a few elimination steps of
O(n) each, instead of one elimination per chamber, O(k^3).  One sweep
serves every chamber: a stop rule checks them in the order the sweep
produces them, so no input costs more than one sweep.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .exact import as_scalar, format_scalar
from .records import Record


class SingularLeadingMinorError(ArithmeticError):
    """LDU decomposition failed: leading principal minor ``k`` vanishes."""

    def __init__(self, k: int):
        super().__init__(f"leading principal minor of order {k} vanishes")
        self.k = k


class MinorSpec(Record):
    """Row set and column set of a minor, as strictly increasing 1-based tuples."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        rows = tuple(int(i) for i in rows)
        cols = tuple(int(j) for j in cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError("row and column sets must have equal size >= 1")
        for seq in (rows, cols):
            if any(a >= b for a, b in zip(seq, seq[1:])) or seq[0] < 1:
                raise ValueError("indices must be strictly increasing and >= 1")

    def __eq__(self, other):
        if other.__class__ is not MinorSpec:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols))

    @classmethod
    def of(cls, rows: Iterable[int], cols: Iterable[int]) -> "MinorSpec":
        return cls(tuple(sorted(rows)), tuple(sorted(cols)))

    @classmethod
    def trusted(cls, rows: tuple[int, ...],
                cols: tuple[int, ...]) -> "MinorSpec":
        """A spec from int tuples already known to be valid, as the family
        generators make them, without checking them again.  The fields are
        the same slots ``__init__`` fills, so reading them costs the same
        as on a checked spec."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "rows", rows)
        object.__setattr__(spec, "cols", cols)
        return spec

    @property
    def size(self) -> int:
        return len(self.rows)

    def validate_for(self, n: int) -> None:
        if self.rows[-1] > n or self.cols[-1] > n:
            raise ValueError(f"minor {self} out of range for a {n}x{n} matrix")

    def __str__(self) -> str:
        r = ",".join(map(str, self.rows))
        c = ",".join(map(str, self.cols))
        return f"[{r}|{c}]"

    def to_json(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols)}


class Matrix(Record):
    """Immutable square matrix of exact rationals: a :class:`Record` on one
    field, ``rows``, a tuple of `Fraction` row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(as_scalar(v) for v in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", data)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """A matrix from a square, nonempty tuple of `Fraction` row tuples,
        as the product kernel makes them, without coercing or checking them
        again."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        return mat

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Matrix":
        entries = [as_scalar(v) for v in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) out of range")
        return self.rows[i - 1][j - 1]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entry(*ij)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Integer dot products of the cleared rows of self and cleared
        columns of other, each over the product of their multipliers."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        rows, row_mults = _integer_rows(self.rows)
        cols, col_mults = _integer_rows(zip(*other.rows))
        return Matrix([[Fraction(sum(map(mul, row, col)), a * b)
                        for col, b in zip(cols, col_mults)]
                       for row, a in zip(rows, row_mults)])

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def inverse(self) -> "Matrix":
        """Exact inverse: fraction-free Gauss-Jordan elimination of the
        :func:`_augmented` cleared rows leaves the last pivot d on the left
        and d times the inverse on the right."""
        n = self.n
        m = _augmented(*_integer_rows(self.rows))
        pivots, _ = _eliminate(m, jordan=True)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        d = m[-1][n - 1]
        return Matrix([[Fraction(v, d) for v in row[n:]] for row in m])

    def submatrix_rows(self, rows: Sequence[int], cols: Sequence[int]):
        """The entries on the 1-based ``rows`` x ``cols``, as row lists."""
        return [[self.rows[i - 1][j - 1] for j in cols] for i in rows]

    def det(self) -> Fraction:
        return _det_fraction_rows(self.rows)

    def minor(self, spec: MinorSpec) -> Fraction:
        return minor(self, spec)

    def __str__(self) -> str:
        return "\n".join("  ".join(format_scalar(v) for v in row)
                         for row in self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, row)) for row in self.rows]})"

    def to_json(self) -> dict:
        return {"n": self.n,
                "rows": [[format_scalar(v) for v in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Matrix":
        mat = cls(data["rows"])
        if "n" in data and int(data["n"]) != mat.n:
            raise ValueError("declared size does not match row data")
        return mat


# ---------------------------------------------------------------------------
# the elimination kernel


def _integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those multipliers."""
    cleared, mults = [], []
    for row in rows:
        pairs = [v.as_integer_ratio() for v in row]
        mult = lcm(*[d for _, d in pairs])
        mults.append(mult)
        cleared.append([p * (mult // d) for p, d in pairs] if mult > 1
                       else [p for p, _ in pairs])
    return cleared, mults


def _eliminate(m: list[list[int]], swaps: bool = True,
               jordan: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of the integer rows ``m``, in
    place; returns the pivot columns and the sign of the row permutation.

    Once k pivots are chosen, the k-th pivot is the minor on the pivot rows
    and columns, and each entry of a later row, right of the last pivot
    column, is that minor bordered by the entry's row and column
    (Sylvester's identity); under ``jordan`` the rows above hold minors of
    the pivot block with one column replaced.  So every division is exact.
    The entries of a pivot's own column are left at the bordered minors
    they held when it was chosen; nothing reads them again except LDU.

    With ``swaps`` a column with no nonzero entry at or below the current
    row is skipped, so ``len(pivots)`` is the rank; without, elimination
    stops at the first zero pivot.  ``jordan`` also reduces the rows above
    each pivot.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        if m[r][c] == 0:
            if not swaps:
                break
            swap = next((i for i in range(r + 1, n_rows) if m[i][c]), None)
            if swap is None:
                continue
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        row_r = m[r]
        pivot = row_r[c]
        others = range(r + 1, n_rows)
        if jordan:
            others = itertools.chain(range(r), others)
        for i in others:
            row_i = m[i]
            head = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * pivot - head * row_r[j]) // prev
        pivots.append(c)
        prev = pivot
        r += 1
    return pivots, sign


def _cancel(row: Sequence[int], pivot_row: Sequence[int], pivot: int,
            head: int) -> list[int]:
    """``pivot * row - head * pivot_row``, divided by its content (the gcd
    of its entries).  The gcd is positive, so the result is a positive
    multiple of the combination: it has the combination's zeros, so every
    rank read off it, and with ``pivot > 0`` every sign of the row it
    stands for.  An all-zero combination has gcd 0 and is returned as it
    is."""
    new = [pivot * a - head * b for a, b in zip(row, pivot_row)]
    g = gcd(*new)
    return [v // g for v in new] if g > 1 else new


def _neville(m: list[list[int]]) -> tuple[int, int] | None:
    """Fraction-free Neville elimination of the integer rows ``m``, in
    place, checking each column's pivots before it is eliminated; returns
    None when every check passes, else ``(i, k)`` of the first failing
    pivot ``m[i][k]`` (0-based).

    Column k is cleared from the bottom up, each row i > k by its upper
    neighbour: with P = m[i - 1][k] > 0 and h = m[i][k], row i becomes
    :func:`_cancel` of P * row i - h * row (i - 1).  Every stored row is
    then a positive multiple of the true Neville row, so each pivot and
    each multiplier (a ratio of adjacent pivots) has the sign of its
    stored value; the checks read signs only, so no stored value needs to
    be a minor.  A row whose upper neighbour's pivot is 0 is left as it is
    (its multiplier is 0).

    The checks, for the invertible totally nonnegative test (Gasca and
    Peña 1992): the diagonal pivot is > 0, no pivot is negative, and a
    pivot below a zero pivot is 0 (no row exchange is needed).
    """
    n = len(m)
    for k in range(n):
        for i in range(k, n):
            v = m[i][k]
            if (v <= 0 if i == k
                    else v < 0 or (v and not m[i - 1][k])):
                return i, k
        for i in range(n - 1, k, -1):
            row, up = m[i], m[i - 1]
            if up[k]:
                row[k + 1:] = _cancel(row[k + 1:], up[k + 1:], up[k], row[k])
    return None


def _augmented(m: list[list[int]], mults: Sequence[int]) \
        -> list[list[int]]:
    """The cleared rows ``m`` beside the diagonal of their multipliers,
    [m | diag(mults)]: eliminating it carries the row operations, scaled
    back to the rows as given, into the right half."""
    n = len(m)
    return [row + [mult if j == i else 0 for j in range(n)]
            for i, (row, mult) in enumerate(zip(m, mults))]


def _ldu_rows(m: list[list[int]]) -> None:
    """Eliminate the cleared rows ``m`` of y without swaps, in place.  Then
    ``m[k][k]`` is the leading (k + 1)-minor of the row-scaled y, with the
    minors bordering it by a lower row below and by a later column right
    of it; so row k of U is ``m[k][j] / m[k][k]``, j >= k."""
    pivots, _ = _eliminate(m, swaps=False)
    if len(pivots) < len(m):
        raise SingularLeadingMinorError(len(pivots) + 1)


# ---------------------------------------------------------------------------
# determinants, minors and rank


def _det_fraction_rows(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m, mults = _integer_rows(rows)
    return Fraction(_det_int(m), prod(mults)) if m else Fraction(1)


def minor(x: Matrix, spec: MinorSpec) -> Fraction:
    """Exact determinant of the submatrix on ``spec.rows`` x ``spec.cols``."""
    spec.validate_for(x.n)
    return _det_fraction_rows(x.submatrix_rows(spec.rows, spec.cols))


def det(x: Matrix) -> Fraction:
    return x.det()


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rectangular array of rationals."""
    m, _ = _integer_rows(rows)
    return len(_eliminate(m)[0])


# ---------------------------------------------------------------------------
# the family engine


def minor_family(x: Matrix, specs: Sequence[MinorSpec],
                 stop: Callable[[int], bool] | None = None) \
        -> tuple[list[int], list[int]] | None:
    """The minors of x on ``specs``, as (values, multipliers).

    ``values[k]`` is the minor on ``specs[k]`` of the row-scaled integer
    matrix, so ``minor(x, spec) == unscale(spec, values[k], multipliers)``
    and both have the same sign.  With ``stop``, returns None as soon as
    some value satisfies it (the specs are then visited in no fixed order).

    The engine is picked by the specs' shapes only: condensation when
    every spec is solid, else one kernel elimination per spec.  Brute
    force reads every minor off :func:`_laplace_walk` instead.
    """
    n = x.n
    for spec in specs:
        spec.validate_for(n)
    m, mults = _integer_rows(x.rows)
    if all(s.rows[-1] - s.rows[0] == s.cols[-1] - s.cols[0] == len(s.rows) - 1
           for s in specs):  # one condensation walk, specs read by size
        cells: list[list] = [[] for _ in range(max(
            (len(s.rows) for s in specs), default=0))]
        for k, s in enumerate(specs):
            cells[len(s.rows) - 1].append((k, s.rows[0] - 1, s.cols[0] - 1))
        return _condense(m, mults, len(specs), cells, stop)
    values: list = [None] * len(specs)
    return (values, mults) if _direct(m, enumerate(specs), values, stop) \
        else None


def unscale(spec: MinorSpec, value: int, mults: Sequence[int]) -> Fraction:
    """The true minor from its row-scaled integer value."""
    return Fraction(value, prod(mults[i - 1] for i in spec.rows))


def minor_values(x: Matrix, specs: Sequence[MinorSpec]) -> list[Fraction]:
    """Exact minors of x on ``specs``, in order, from one engine pass."""
    values, mults = minor_family(x, specs)
    return [unscale(s, v, mults) for s, v in zip(specs, values)]


def _det_int(m: list[list[int]]) -> int:
    """Determinant of a square integer array (consumed)."""
    pivots, sign = _eliminate(m)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def _direct(m, pairs, values, stop) -> bool:
    """Bareiss on the integer submatrix of each (position, spec) pair."""
    for position, spec in pairs:
        cols = [j - 1 for j in spec.cols]
        value = _det_int([[m[i - 1][j] for j in cols] for i in spec.rows])
        values[position] = value
        if stop is not None and stop(value):
            return False
    return True


def _solid_levels(m):
    """The solid minors of the integer rows ``m`` by Dodgson condensation,
    one level per size 1..n, each indexed by its top-left corner (0-based).

    The size-k solid minor at top-left (i, j) times the size-(k-2) one at
    (i+1, j+1) equals the 2x2 determinant of the size-(k-1) ones at (i, j),
    (i, j+1), (i+1, j) and (i+1, j+1) (Desnanot), so every division is
    exact.  A minor whose divisor vanishes, or whose inputs are unknown, is
    unknown (None).
    """
    below, level = [[1] * len(m)] * len(m), m  # sizes 0 and 1
    yield level
    for _ in range(len(m) - 1):
        below, level = level, [
            [(a0 * b1 - a1 * b0) // d if d and a0 is not None
             and a1 is not None and b0 is not None and b1 is not None
             else None
             for a0, a1, b0, b1, d in zip(up, up[1:], lo, lo[1:], div[1:])]
            for up, lo, div in zip(level, level[1:], below[1:])]
        yield level


def _condense(m, mults, count, cells, stop):
    """``count`` solid minors of the integer rows m, as :func:`minor_family`
    returns them: ``cells`` lists those of size 1, 2, ... by (position, top
    row, left column), 0-based.

    The unknown ones are grouped by top-left corner: those sharing a corner
    are leading minors of one block, so one elimination without swaps of
    the largest gives them on its diagonal up to its first zero pivot, and
    the minor at that pivot is 0.  Only the sizes past it get a spec for
    the kernel."""
    values: list = [None] * count
    unknown: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for size, (wanted, level) in enumerate(zip(cells, _solid_levels(m)), 1):
        for position, i, j in wanted:
            value = values[position] = level[i][j]
            if value is None:
                unknown.setdefault((i, j), []).append((position, size))
            elif stop is not None and stop(value):
                return None
    rest = []
    for (i, j), wanted in unknown.items():
        top = wanted[-1][1]  # cells list sizes in increasing order
        block = [row[j:j + top] for row in m[i:i + top]]
        reached = len(_eliminate(block, swaps=False)[0])
        for position, size in wanted:
            if size > reached + 1:
                rest.append((position, _solid_spec(size, i, j)))
                continue
            value = values[position] = \
                block[size - 1][size - 1] if size <= reached else 0
            if stop is not None and stop(value):
                return None
    return (values, mults) if _direct(m, rest, values, stop) else None


def initial_family(x: Matrix, stop: Callable[[int], bool] | None = None) \
        -> tuple[list[int], list[int]] | None:
    """The initial minors of x, in :func:`initial_minor_specs` order, as
    :func:`minor_family` returns them: the condensation level of size k
    holds those of size k in its first row and its first column."""
    n = x.n
    cells = ([(k * n + j, 0, j - k) for j in range(k, n)]
             + [(i * n + k, i - k, 0) for i in range(k + 1, n)]
             for k in range(n))
    return _condense(*_integer_rows(x.rows), n * n, cells, stop)


def solid_family(x: Matrix, stop: Callable[[int], bool] | None = None) \
        -> tuple[list[int], list[int]] | None:
    """The solid minors of x in :func:`solid_minor_specs` order, as
    :func:`minor_family` returns them: the condensation levels, row-major."""
    n = x.n
    position = itertools.count()
    cells = ([(next(position), i, j) for i in range(w) for j in range(w)]
             for w in range(n, 0, -1))
    count = n * (n + 1) * (2 * n + 1) // 6
    return _condense(*_integer_rows(x.rows), count, cells, stop)


def _sweep_family(x: Matrix, swaps: Sequence[tuple[bool, int]],
                  stop: Callable[[int], bool] | None = None) \
        -> tuple[list[int], list[int]] | None:
    """The chamber minors of a double wiring diagram on x, in the order of
    :func:`totpos.diagrams.chamber_minors`, as :func:`minor_family` returns
    them.

    Thin lines n..1 are the row tracks and bold lines 1..n the column
    tracks, bottom track first; the level-k chamber of a slice is the minor
    on the rows and columns of tracks 1..k.  Each crossing is a swap
    ``(on_cols, h)`` of tracks h and h + 1, which changes the level-h
    chamber only.  One set of tableaux serves the whole sweep.  With
    ``stop`` the chambers are checked in the order the sweep produces them:
    the first slice level by level, then one per crossing.
    """
    n = x.n
    m, mults = _integer_rows(x.rows)
    sweep = _Tableaux(m, list(range(n - 1, -1, -1)), list(range(n)))
    # at[k]: position of the next level-k chamber, levels in order
    at = [0] * (n + 1)
    for _, h in swaps:
        at[h] += 1
    total = 0
    for k in range(1, n + 1):
        at[k], total = total, total + at[k] + 1
    values: list = [None] * total
    unknown: list[tuple[int, MinorSpec]] = []

    def record(k: int) -> bool:
        """The current level-k chamber; False to stop."""
        value = sweep.leading(k)
        position = at[k]
        at[k] += 1
        if value is None:
            unknown.append((position, sweep.spec(k)))
            return True
        values[position] = value
        return stop is None or not stop(value)

    for k in range(1, n + 1):
        if not record(k):
            return None
    for swap in swaps:
        sweep.swap(*swap)
        if not record(swap[1]):
            return None
    return (values, mults) if _direct(m, unknown, values, stop) else None


class _Tableaux:
    """Bareiss tableaux of an integer matrix whose rows and columns are in
    track order (0-based indices, bottom track first), kept up to date as
    adjacent tracks swap.

    Tableau k holds, for each row i and column j not on tracks 1..k, the
    minor on the sorted rows of tracks 1..k then i and the sorted columns
    of tracks 1..k then j (a bordered minor); its rows are keyed by i and
    its columns run in increasing order.  Row i of tableau k is one Bareiss
    step on rows i and ``rows[k - 1]`` of tableau k - 1, divided exactly by
    the level-(k - 1) minor (Sylvester's identity), and rows are computed
    only when read.  The level-k minor is the entry of tableau k - 1 on
    track k's row and column, times the sign of sorting track k into tracks
    1..k - 1.

    A swap at height h changes the row (or column) set of tracks 1..h only,
    so only tableau h loses its rows; every other tableau keeps its content.
    A row behind a zero divisor is out of reach, and so are the minors it
    would give.
    """

    def __init__(self, m: list[list[int]], rows: list[int], cols: list[int]):
        n = len(m)
        self.rows, self.cols = rows, cols
        self.tables: list[dict[int, list[int]]] = [dict(enumerate(m))]
        self.tables += [{} for _ in range(n - 1)]
        # lead[k]: the level-k minor last read; steps[k]: (pivot row, pivot
        # column position, sorting sign) from tableau k - 1 to tableau k
        self.lead: list = [1] + [None] * n
        self.steps: list = [None] * (n + 1)

    def leading(self, k: int) -> int | None:
        """The level-k minor of the current tracks, None when out of reach;
        the levels below must have been read since their last swap."""
        r, q, sign = self._step(k)
        pivot_row = self._row(k - 1, r)
        value = None if pivot_row is None else sign * pivot_row[q]
        self.lead[k] = value
        return value

    def spec(self, k: int) -> MinorSpec:
        """The minor on tracks 1..k."""
        return MinorSpec.trusted(tuple(sorted(i + 1 for i in self.rows[:k])),
                                 tuple(sorted(j + 1 for j in self.cols[:k])))

    def swap(self, on_cols: bool, h: int) -> None:
        """Exchange tracks h and h + 1 (1-based) of the columns or rows."""
        tracks = self.cols if on_cols else self.rows
        tracks[h - 1], tracks[h] = tracks[h], tracks[h - 1]
        self.tables[h] = {}
        self.steps[h] = self.steps[h + 1] = None

    def _step(self, k: int):
        if self.steps[k] is None:
            rows, cols = self.rows, self.cols
            r, c = rows[k - 1], cols[k - 1]
            moves = (sum(map(r.__lt__, rows[:k - 1]))
                     + sum(map(c.__lt__, cols[:k - 1])))
            self.steps[k] = (r, sum(map(c.__gt__, cols[k - 1:])),
                             -1 if moves & 1 else 1)
        return self.steps[k]

    def _row(self, k: int, i: int) -> list[int] | None:
        got = self.tables[k].get(i)
        if got is None and k and self.lead[k - 1]:
            r, q, sign = self._step(k)
            below, pivot_row = self._row(k - 1, i), self._row(k - 1, r)
            if below is None or pivot_row is None:
                return None
            pivot, head = pivot_row[q], below[q]
            divisor = sign * self.lead[k - 1]
            got = [(pivot * a - head * b) // divisor
                   for a, b in zip(below, pivot_row)]
            del got[q]
            self.tables[k][i] = got
        return got


def _column_sets(n: int, depth: int) -> list[list[tuple[int, tuple]]]:
    """For each size 0..depth, the column sets of that size in
    ``itertools.combinations`` order, as (mask, columns); column c
    (1-based) is bit c."""
    masks = {(): 0}
    col_sets: list[list[tuple[int, tuple]]] = [[]]
    for size in range(1, depth + 1):
        level = []
        for cols in itertools.combinations(range(1, n + 1), size):
            mask = masks[cols] = masks[cols[:-1]] | 1 << cols[-1]
            level.append((mask, cols))
        col_sets.append(level)
    return col_sets


def _laplace_walk(m, col_sets, chain: bool):
    """Minors of the integer rows ``m`` by Laplace expansion along the last
    row: yields ``(rows, {column mask: minor})`` for each row set (1-based
    tuple) up to the depth of ``col_sets`` (:func:`_column_sets`), with
    one entry per column set of its size, in ``col_sets`` order.

    Row sets are visited size by size: each row set of the size before,
    in order, extended by each later row (only the next row under
    ``chain``, so the row sets are [1..k]).  So each size comes in
    ``itertools.combinations`` order, and without ``chain`` the minors in
    :func:`all_minor_specs` order.  The minors of a row set come from its
    parent's, at O(k) per minor.
    """
    n, depth = len(m), len(col_sets) - 1
    m = [[0] + row for row in m]
    level: list[tuple[tuple[int, ...], dict[int, int]]] = [((), {0: 1})]
    for size in range(1, depth + 1):
        parents, level = level, []
        for rows, parent in parents:
            first = rows[-1] + 1 if rows else 1
            for r in range(first, (first if chain else n) + 1):
                row = m[r - 1]
                node = {}
                for mask, cols in col_sets[size]:
                    total = 0
                    negative = size % 2 == 0
                    for c in cols:
                        v = row[c]
                        if v:
                            term = v * parent[mask ^ 1 << c]
                            total = total - term if negative else total + term
                        negative = not negative
                    node[mask] = total
                level.append((rows + (r,), node))
                yield level[-1]


def chain_minors(m: list[list[int]]) \
        -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The minors of the integer rows ``m`` on rows [1..k] and on columns
    [1..k], k = 1..n, from one chained :func:`_laplace_walk` on m and one
    on its transpose: for each k a dict from column (row) mask, index c
    (1-based) as bit c, to minor, in ``itertools.combinations`` order."""
    col_sets = _column_sets(len(m), len(m))
    return tuple([node for _, node in _laplace_walk(a, col_sets, chain=True)]
                 for a in (m, [list(column) for column in zip(*m)]))


# ---------------------------------------------------------------------------
# minor families


def all_minor_specs(n: int) -> list[MinorSpec]:
    """Every minor of an n x n matrix; there are C(2n, n) - 1 of them."""
    specs = []
    indices = range(1, n + 1)
    for k in range(1, n + 1):
        for rows in itertools.combinations(indices, k):
            for cols in itertools.combinations(indices, k):
                specs.append(MinorSpec.trusted(rows, cols))
    assert len(specs) == comb(2 * n, n) - 1
    return specs


def solid_minor_specs(n: int) -> list[MinorSpec]:
    """Minors whose row set and column set are both intervals."""
    specs = []
    for k in range(1, n + 1):
        intervals = [tuple(range(i0, i0 + k)) for i0 in range(1, n - k + 2)]
        specs += [MinorSpec.trusted(rows, cols)
                  for rows in intervals for cols in intervals]
    return specs


def _solid_spec(size: int, i: int, j: int) -> MinorSpec:
    """The solid minor of ``size`` with top-left (i, j), 0-based."""
    return MinorSpec.trusted(tuple(range(i + 1, i + size + 1)),
                             tuple(range(j + 1, j + size + 1)))


def _solid_spec_at(n: int, position: int) -> MinorSpec:
    """``solid_minor_specs(n)[position]``, without the list."""
    size = 1
    while position >= (n - size + 1) ** 2:
        position -= (n - size + 1) ** 2
        size += 1
    return _solid_spec(size, *divmod(position, n - size + 1))


def initial_minor_spec(n: int, i: int, j: int) -> MinorSpec:
    """The unique solid minor with 1 in its index support whose lower-right
    corner is the entry (i, j) of an n x n matrix."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"corner ({i}, {j}) out of range for a {n}x{n} "
                         f"matrix")
    k = min(i, j)
    return _solid_spec(k, i - k, j - k)


def initial_minor_specs(n: int) -> list[MinorSpec]:
    """All n^2 initial minors, in row-major corner order."""
    return [initial_minor_spec(n, i, j)
            for i in range(1, n + 1) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# identities and decompositions


def _deleted_minor(x: Matrix, drop_rows: tuple[int, ...],
                   drop_cols: tuple[int, ...]) -> Fraction:
    rows = [i for i in range(1, x.n + 1) if i not in drop_rows]
    cols = [j for j in range(1, x.n + 1) if j not in drop_cols]
    return _det_fraction_rows(x.submatrix_rows(rows, cols))


def desnanot_residual(x: Matrix, i: int, i2: int, j: int, j2: int) -> Fraction:
    """Residual of the Desnanot (Dodgson condensation) identity.

    Always 0:  del(i2,j2)*del(i,j) - del(i2,j)*del(i,j2) - det * del(both),
    where del denotes the minor with the listed rows/columns removed and the
    doubly-deleted minor of a 2x2 matrix is the empty determinant 1.
    """
    n = x.n
    if not (1 <= i < i2 <= n and 1 <= j < j2 <= n):
        raise ValueError("need 1 <= i < i2 <= n and 1 <= j < j2 <= n")
    lhs = (_deleted_minor(x, (i2,), (j2,)) * _deleted_minor(x, (i,), (j,))
           - _deleted_minor(x, (i2,), (j,)) * _deleted_minor(x, (i,), (j2,)))
    return lhs - x.det() * _deleted_minor(x, (i, i2), (j, j2))


def ldu_decompose(y: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Gaussian LDU decomposition ``y = L * D * U``.

    L is unit lower triangular, D invertible diagonal, U unit upper
    triangular.  The decomposition exists iff all leading principal minors
    are nonzero; the k-th diagonal entry of D is the ratio of consecutive
    leading principal minors.  Raises :class:`SingularLeadingMinorError`
    naming the first order k at which the leading minor vanishes.
    """
    n = y.n
    m, mults = _integer_rows(y.rows)
    _ldu_rows(m)
    lead = [1] + [m[k][k] for k in range(n)]
    lower = [[Fraction(m[i][k] * mults[k], mults[i] * lead[k + 1]) if k < i
              else Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    diag = [Fraction(lead[k + 1], lead[k] * mults[k]) for k in range(n)]
    upper = [[Fraction(m[k][j], lead[k + 1]) if j > k
              else Fraction(int(j == k)) for j in range(n)] for k in range(n)]
    return Matrix(lower), Matrix.diagonal(diag), Matrix(upper)


def is_block_triangular(x: Matrix) -> bool:
    """True iff some proper leading block decouples.

    Either x[k][l] = 0 for all k <= i < l (zero upper-right block) or
    x[k][l] = 0 for all l <= i < k (zero lower-left block), for some
    1 <= i < n.
    """
    n = x.n
    for i in range(1, n):
        if all(x.rows[k][l] == 0 for k in range(i) for l in range(i, n)):
            return True
        if all(x.rows[k][l] == 0 for k in range(i, n) for l in range(i)):
            return True
    return False
