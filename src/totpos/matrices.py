"""Exact dense square matrices, minors, and classical determinant identities.

Conventions:

* all public row/column indices are 1-based;
* a minor is addressed by a :class:`MinorSpec` holding strictly increasing
  row and column index tuples of equal size;
* the empty determinant (size-0 minor) is 1 wherever the identities below
  need it (deleted minors of a 2x2 matrix, recursion bases).

One fraction-free (Bareiss) elimination kernel serves determinants,
minors, rank, inverse and LDU.  It works on integer rows after each row's
denominators are cleared; the row multipliers are positive, so signs
survive.  Its k-th pivot is a leading k-minor and every entry it stores is
a minor bordering it, so every division is exact and intermediate values
stay small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterable, Mapping, Sequence

from .exact import as_scalar, format_scalar


class SingularLeadingMinorError(ArithmeticError):
    """LDU decomposition failed: leading principal minor ``k`` vanishes."""

    def __init__(self, k: int):
        super().__init__(f"leading principal minor of order {k} vanishes")
        self.k = k


@dataclass(frozen=True)
class MinorSpec:
    """Row set and column set of a minor, as strictly increasing 1-based tuples."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(int(i) for i in self.rows))
        object.__setattr__(self, "cols", tuple(int(j) for j in self.cols))
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError("row and column sets must have equal size >= 1")
        for seq in (self.rows, self.cols):
            if any(a >= b for a, b in zip(seq, seq[1:])) or seq[0] < 1:
                raise ValueError("indices must be strictly increasing and >= 1")

    @classmethod
    def of(cls, rows: Iterable[int], cols: Iterable[int]) -> "MinorSpec":
        return cls(tuple(sorted(rows)), tuple(sorted(cols)))

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


class Matrix:
    """Immutable square matrix of exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(as_scalar(v) for v in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix([[sum(a * b for a, b in zip(row, col))
                        for col in cols] for row in self.rows])

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
        """Exact inverse.  Fraction-free Gauss-Jordan elimination of
        [x | I] leaves the last pivot d on the left and d * x^(-1) on the
        right."""
        n = self.n
        m, _ = _integer_rows([row + tuple(int(i == j) for j in range(n))
                              for i, row in enumerate(self.rows)])
        pivots, _ = _eliminate(m, jordan=True)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        d = m[-1][n - 1]
        return Matrix([[Fraction(v, d) for v in row[n:]] for row in m])

    def submatrix_rows(self, rows: Sequence[int], cols: Sequence[int]):
        """0-based-free helper: 1-based index lists -> list-of-lists."""
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
        mult = lcm(*(v.denominator for v in row))
        mults.append(mult)
        cleared.append([v.numerator * (mult // v.denominator) for v in row])
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


# ---------------------------------------------------------------------------
# determinants, minors and rank


def _det_fraction_rows(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m, mults = _integer_rows(rows)
    if not m:
        return Fraction(1)
    pivots, sign = _eliminate(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(sign * m[-1][-1], prod(mults))


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
# minor families


def all_minor_specs(n: int) -> list[MinorSpec]:
    """Every minor of an n x n matrix; there are C(2n, n) - 1 of them."""
    specs = []
    indices = range(1, n + 1)
    for k in range(1, n + 1):
        for rows in itertools.combinations(indices, k):
            for cols in itertools.combinations(indices, k):
                specs.append(MinorSpec(rows, cols))
    assert len(specs) == comb(2 * n, n) - 1
    return specs


def solid_minor_specs(n: int) -> list[MinorSpec]:
    """Minors whose row set and column set are both intervals."""
    specs = []
    for k in range(1, n + 1):
        for i0 in range(1, n - k + 2):
            for j0 in range(1, n - k + 2):
                specs.append(MinorSpec(tuple(range(i0, i0 + k)),
                                       tuple(range(j0, j0 + k))))
    return specs


def initial_minor_spec(n: int, i: int, j: int) -> MinorSpec:
    """The unique solid minor with 1 in its index support whose lower-right
    corner is the entry (i, j)."""
    k = min(i, j)
    return MinorSpec(tuple(range(i - k + 1, i + 1)),
                     tuple(range(j - k + 1, j + 1)))


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
    pivots, _ = _eliminate(m, swaps=False)
    if len(pivots) < n:
        raise SingularLeadingMinorError(len(pivots) + 1)
    # m[k][k] is the leading minor of order k + 1 of the row-scaled matrix;
    # below it sit the minors bordering it by a lower row, right of it
    # those bordering it by a later column
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
