"""Matrices, minors, determinant identities, and LDU."""

import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.exact import LaurentPoly
from totpos.matrices import (Matrix, MinorSpec, SingularLeadingMinorError,
                             all_minor_specs, desnanot_residual, exact_rank,
                             initial_minor_spec, initial_minor_specs,
                             is_block_triangular, ldu_decompose, minor,
                             solid_minor_specs)

from util import (cofactor_det, oracle_initial_minor_specs, oracle_matmul,
                  rand_matrix)

UNIT_WEIGHT_3X3 = Matrix([[1, 1, 1], [1, 2, 3], [1, 3, 6]])


class TestMinor:
    def test_two_by_two(self):
        x = Matrix([[1, 1], [1, 2]])
        assert minor(x, MinorSpec((1, 2), (1, 2))) == 1

    def test_unit_weight_determinant(self):
        assert minor(UNIT_WEIGHT_3X3, MinorSpec((1, 2, 3), (1, 2, 3))) == 1

    def test_identity_minors(self):
        x = Matrix.identity(4)
        for k in (1, 2, 3, 4):
            spec = MinorSpec(tuple(range(1, k + 1)), tuple(range(1, k + 1)))
            assert minor(x, spec) == 1

    def test_against_cofactor_oracle(self):
        rng = random.Random(100)
        for _ in range(60):
            n = rng.randint(1, 4)
            x = rand_matrix(rng, n)
            for spec in all_minor_specs(n):
                sub = x.submatrix_rows(spec.rows, spec.cols)
                assert minor(x, spec) == cofactor_det(sub)

    def test_validation(self):
        x = Matrix.identity(2)
        with pytest.raises(ValueError):
            minor(x, MinorSpec((1, 3), (1, 2)))
        with pytest.raises(ValueError):
            MinorSpec((1,), (1, 2))
        with pytest.raises(ValueError):
            MinorSpec((2, 1), (1, 2))


class TestSpecFamilies:
    def test_all_counts(self):
        assert len(all_minor_specs(1)) == 1
        assert len(all_minor_specs(2)) == 5
        assert len(all_minor_specs(3)) == 19
        for n in range(1, 6):
            assert len(all_minor_specs(n)) == comb(2 * n, n) - 1

    def test_initial_n3(self):
        got = {(s.rows, s.cols) for s in initial_minor_specs(3)}
        assert got == {
            ((1,), (1,)), ((1,), (2,)), ((1,), (3,)),
            ((2,), (1,)), ((1, 2), (1, 2)), ((1, 2), (2, 3)),
            ((3,), (1,)), ((2, 3), (1, 2)), ((1, 2, 3), (1, 2, 3)),
        }

    def test_initial_corners(self):
        # each entry position is the lower-right corner of exactly one spec
        for n in (1, 2, 3, 4, 5):
            specs = initial_minor_specs(n)
            assert len(specs) == n * n
            corners = {(s.rows[-1], s.cols[-1]) for s in specs}
            assert corners == {(i, j) for i in range(1, n + 1)
                               for j in range(1, n + 1)}
            for s in specs:
                assert 1 in s.rows or 1 in s.cols

    def test_initial_specs_match_the_corner_rule_in_order(self):
        for n in range(1, 13):
            assert initial_minor_specs(n) == oracle_initial_minor_specs(n)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (4, 2), (2, 4),
                                      (5, 2), (-1, 3), (4, 4)])
    def test_initial_spec_corner_out_of_range(self, i, j):
        with pytest.raises(ValueError, match="out of range for a 3x3"):
            initial_minor_spec(3, i, j)

    def test_solid_by_brute_force(self):
        def is_interval(seq):
            return all(b - a == 1 for a, b in zip(seq, seq[1:]))

        for n in (1, 2, 3, 4):
            brute = [s for s in all_minor_specs(n)
                     if is_interval(s.rows) and is_interval(s.cols)]
            got = solid_minor_specs(n)
            assert sorted((s.rows, s.cols) for s in got) \
                == sorted((s.rows, s.cols) for s in brute)
            assert len(got) == sum((n - k + 1) ** 2 for k in range(1, n + 1))

    def test_initial_subset_of_solid(self):
        for n in (1, 2, 3, 4):
            solid = {(s.rows, s.cols) for s in solid_minor_specs(n)}
            assert all((s.rows, s.cols) in solid
                       for s in initial_minor_specs(n))


class TestDesnanot:
    def test_identity_matrix(self):
        assert desnanot_residual(Matrix.identity(3), 1, 3, 1, 3) == 0

    def test_random_four_by_four(self):
        rng = random.Random(4)
        for _ in range(25):
            x = rand_matrix(rng, 4)
            assert desnanot_residual(x, 1, 4, 1, 4) == 0

    def test_random_sizes_and_corners(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(2, 5)
            x = rand_matrix(rng, n)
            i = rng.randint(1, n - 1)
            i2 = rng.randint(i + 1, n)
            j = rng.randint(1, n - 1)
            j2 = rng.randint(j + 1, n)
            assert desnanot_residual(x, i, i2, j, j2) == 0

    def test_symbolic_two_by_two(self):
        # del(2,2)*del(1,1) - del(2,1)*del(1,2) = det * (empty minor)
        names = ("a", "b", "c", "d")
        a, b, c, d = (LaurentPoly.variable(names, v) for v in names)
        lhs = a * d - c * b
        det = a * d - b * c
        assert (lhs - det).is_zero()

    def test_index_validation(self):
        with pytest.raises(ValueError):
            desnanot_residual(Matrix.identity(3), 2, 2, 1, 3)


class TestLDU:
    def test_small_example(self):
        lower_, diag_, upper_ = ldu_decompose(Matrix([[1, 1], [1, 2]]))
        assert lower_ == Matrix([[1, 0], [1, 1]])
        assert diag_ == Matrix([[1, 0], [0, 1]])
        assert upper_ == Matrix([[1, 1], [0, 1]])

    def test_identity(self):
        eye = Matrix.identity(3)
        assert ldu_decompose(eye) == (eye, eye, eye)

    def test_failure_names_first_vanishing_order(self):
        with pytest.raises(SingularLeadingMinorError) as info:
            ldu_decompose(Matrix([[0, 1], [1, 0]]))
        assert info.value.k == 1
        with pytest.raises(SingularLeadingMinorError) as info:
            ldu_decompose(Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        assert info.value.k == 2

    def test_recomposition_and_diagonal_ratios(self):
        rng = random.Random(77)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            x = rand_matrix(rng, n)
            try:
                lower_, diag_, upper_ = ldu_decompose(x)
            except SingularLeadingMinorError:
                continue
            assert lower_ * diag_ * upper_ == x
            previous = Fraction(1)
            for k in range(1, n + 1):
                spec = MinorSpec(tuple(range(1, k + 1)),
                                 tuple(range(1, k + 1)))
                leading = minor(x, spec)
                assert diag_.entry(k, k) == leading / previous
                previous = leading
            for i in range(1, n + 1):
                assert lower_.entry(i, i) == 1
                assert upper_.entry(i, i) == 1
            done += 1


class TestBlockTriangular:
    def test_two_block_shape(self):
        x = Matrix([
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1],
        ])
        assert is_block_triangular(x)
        assert is_block_triangular(x.transpose())

    def test_all_positive(self):
        assert not is_block_triangular(UNIT_WEIGHT_3X3)

    def test_identity(self):
        assert is_block_triangular(Matrix.identity(3))


class TestMatrixOps:
    def test_json_round_trip(self):
        x = Matrix([["1", "1/2"], ["-3", "0"]])
        assert Matrix.from_json(x.to_json()) == x

    def test_inverse(self):
        rng = random.Random(6)
        done = 0
        while done < 20:
            n = rng.randint(1, 5)
            x = rand_matrix(rng, n)
            if x.det() == 0:
                continue
            assert x * x.inverse() == Matrix.identity(n)
            done += 1

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Matrix.identity(2).entry(3, 1), IndexError,
         "entry (3,1) out of range"),
        (lambda: Matrix.identity(2)[1, 0], IndexError,
         "entry (1,0) out of range"),
        (lambda: Matrix.identity(2) * Matrix.identity(3), ValueError,
         "dimension mismatch"),
        (lambda: Matrix.from_json({"n": 3, "rows": [[1, 0], [0, 1]]}),
         ValueError, "declared size does not match row data"),
    ])
    def test_errors(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_negative_power(self):
        x = Matrix([[2, 1], [1, 1]])
        assert x ** -1 == x.inverse() == Matrix([[1, -1], [-1, 2]])
        assert x ** -3 * x ** 3 == Matrix.identity(2)

    def test_rank(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert exact_rank(rows) == 1
        assert exact_rank([[Fraction(0)]]) == 0
        assert exact_rank(Matrix.identity(3).submatrix_rows(
            (1, 2, 3), (1, 2, 3))) == 3


# ---------------------------------------------------------------------------
# every entry point of the elimination kernel against cofactor expansion

ENTRIES = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-9, 9),
                              st.integers(1, 6)))


@st.composite
def arrays(draw, max_rows=5, max_cols=5, square=False):
    """Rational arrays with mixed signs, often made degenerate: a zero row
    or column, a repeated row, or a row that is a multiple of another."""
    n_rows = draw(st.integers(1 if square else 0, max_rows))
    n_cols = n_rows if square else draw(st.integers(0, max_cols))
    rows = [[draw(ENTRIES) for _ in range(n_cols)] for _ in range(n_rows)]
    if not (n_rows and n_cols):
        return rows
    damage = draw(st.sampled_from(["none", "zero row", "zero column",
                                   "repeated row", "multiple row"]))
    i, k = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
    if damage == "zero row":
        rows[i] = [Fraction(0)] * n_cols
    elif damage == "zero column":
        j = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[j] = Fraction(0)
    elif damage == "repeated row":
        rows[i] = list(rows[k])
    elif damage == "multiple row":
        scale = draw(ENTRIES)
        rows[i] = [scale * v for v in rows[k]]
    return rows


class TestKernelOracles:
    @settings(deadline=None)
    @given(arrays(square=True))
    def test_det(self, rows):
        assert Matrix(rows).det() == cofactor_det(rows)

    @settings(deadline=None)
    @given(arrays(square=True), st.data())
    def test_minor(self, rows, data):
        n = len(rows)
        k = data.draw(st.integers(1, n))
        picks = st.lists(st.integers(1, n), min_size=k, max_size=k,
                         unique=True).map(sorted)
        spec = MinorSpec(tuple(data.draw(picks)), tuple(data.draw(picks)))
        x = Matrix(rows)
        assert minor(x, spec) \
            == cofactor_det(x.submatrix_rows(spec.rows, spec.cols))

    @settings(deadline=None)
    @given(arrays(max_rows=5, max_cols=6))
    def test_rank(self, rows):
        n_rows, n_cols = len(rows), len(rows[0]) if rows else 0

        def has_nonzero_minor(k):
            return any(cofactor_det([[rows[i][j] for j in cols] for i in sel])
                       for sel in itertools.combinations(range(n_rows), k)
                       for cols in itertools.combinations(range(n_cols), k))

        rank = next((k for k in range(min(n_rows, n_cols), 0, -1)
                     if has_nonzero_minor(k)), 0)
        assert exact_rank(rows) == rank

    @settings(deadline=None)
    @given(arrays(square=True))
    def test_inverse(self, rows):
        x = Matrix(rows)
        if cofactor_det(rows) == 0:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == Matrix.identity(x.n)

    @settings(deadline=None)
    @given(arrays(square=True), st.data())
    def test_product(self, rows, data):
        n = len(rows)
        x = Matrix(rows)
        y = Matrix([[data.draw(ENTRIES) for _ in range(n)] for _ in range(n)])
        assert x * y == oracle_matmul(x, y)
        assert y * x == oracle_matmul(y, x)

    @settings(deadline=None)
    @given(arrays(square=True))
    def test_ldu(self, rows):
        x = Matrix(rows)
        vanishing = [k for k in range(1, x.n + 1)
                     if cofactor_det([row[:k] for row in rows[:k]]) == 0]
        if vanishing:
            with pytest.raises(SingularLeadingMinorError) as info:
                ldu_decompose(x)
            assert info.value.k == vanishing[0]
            return
        lower_, diag_, upper_ = ldu_decompose(x)
        assert lower_ * diag_ * upper_ == x
        n = x.n
        assert diag_ == Matrix.diagonal([diag_[k, k] for k in range(1, n + 1)])
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert lower_[i, j] == upper_[j, i] == (i == j)
