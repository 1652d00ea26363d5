"""The minor-family and chamber engines against per-minor evaluation and
cofactor expansion, on the degenerate inputs where condensation and the
chamber sweep divide by zero."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totpos.matrices as mx
import totpos.positivity as pv
from totpos.diagrams import (DoubleWiringDiagram, chamber_family,
                             chamber_minors, minimal_diagram)
from totpos.matrices import (Matrix, MinorSpec, all_minor_specs,
                             initial_minor_specs, minor, minor_family,
                             minor_values, solid_minor_specs, unscale)
from totpos.words import DIAG, product_map, staircase_scheme
from util import (cofactor_det, rand_positive, rand_tnn_invertible, rand_tp,
                  rand_walk_full_scheme, rand_walk_tnn_invertible)

ENTRIES = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-9, 9),
                              st.integers(1, 6)))
KINDS = ["mixed", "zero", "rank one", "identity", "tridiagonal",
         "tnn not tp", "singular"]


@st.composite
def matrices(draw, max_n=5):
    """Square rational matrices of one of KINDS, n = 1 included."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(KINDS))
    if kind == "zero":
        rows = [[Fraction(0)] * n for _ in range(n)]
    elif kind == "rank one":
        left = [draw(ENTRIES) for _ in range(n)]
        right = [draw(ENTRIES) for _ in range(n)]
        rows = [[a * b for b in right] for a in left]
    elif kind == "identity":
        rows = Matrix.identity(n).rows
    elif kind == "tridiagonal":
        # nonnegative and diagonally dominant: totally nonnegative, and not
        # totally positive for n > 2
        rows = [[Fraction(5) if i == j
                 else Fraction(draw(st.integers(0, 2))) if abs(i - j) == 1
                 else Fraction(0) for j in range(n)] for i in range(n)]
    elif kind == "tnn not tp":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        rows = rand_tnn_invertible(rng, min(n, 4)).rows
    else:
        rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
        if kind == "singular" and n > 1:
            i, k = draw(st.permutations(range(n)))[:2]
            scale = draw(ENTRIES)
            rows[i] = [scale * v for v in rows[k]]
    return Matrix(rows)


FAMILIES = {
    "solid": solid_minor_specs,
    "initial": initial_minor_specs,
    "all": all_minor_specs,
    "tnn-efficient": pv.tnn_efficient_specs,
    "antiprincipal": pv.antiprincipal_specs,
}


@st.composite
def spec_lists(draw, n):
    """A named family of size n, the same followed by a sample of its own
    specs (the engine is picked by shape, so repeats only cost more), or
    random specs (repeats allowed)."""
    name = draw(st.sampled_from(sorted(FAMILIES) + ["repeats", "random"]))
    if name == "repeats":
        family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](n)
        return family + draw(st.lists(st.sampled_from(family), max_size=8))
    if name != "random":
        return FAMILIES[name](n)
    specs = []
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(1, n))
        picks = st.lists(st.integers(1, n), min_size=k, max_size=k,
                         unique=True).map(sorted)
        specs.append(MinorSpec(tuple(draw(picks)), tuple(draw(picks))))
    return specs


class TestMinorFamily:
    @settings(deadline=None, max_examples=150)
    @given(matrices(), st.data())
    def test_values_against_per_minor_and_cofactor(self, x, data):
        specs = data.draw(spec_lists(x.n))
        values = minor_values(x, specs)
        assert values == [minor(x, spec) for spec in specs]
        assert values == [cofactor_det(x.submatrix_rows(s.rows, s.cols))
                          for s in specs]

    @settings(deadline=None, max_examples=150)
    @given(matrices(), st.data())
    def test_scaled_values_keep_signs(self, x, data):
        specs = data.draw(spec_lists(x.n))
        values, mults = minor_family(x, specs)
        assert all(m > 0 for m in mults)
        for spec, value in zip(specs, values):
            true = minor(x, spec)
            assert unscale(spec, value, mults) == true
            assert (value > 0) == (true > 0) and (value < 0) == (true < 0)

    @settings(deadline=None, max_examples=150)
    @given(matrices(), st.data(),
           st.sampled_from(["nonpositive", "negative", "zero"]))
    def test_stop_iff_some_value_satisfies_it(self, x, data, which):
        stop = {"nonpositive": lambda v: v <= 0,
                "negative": lambda v: v < 0,
                "zero": lambda v: v == 0}[which]
        specs = data.draw(spec_lists(x.n))
        stopped = minor_family(x, specs, stop=stop) is None
        assert stopped == any(stop(minor(x, spec)) for spec in specs)

    def test_every_condensation_divisor_zero(self):
        # rank one: every solid 2-minor vanishes, so every size >= 4 solid
        # minor is reached through a zero divisor
        x = Matrix([[(i + 1) * (j + 2) for j in range(6)] for i in range(6)])
        assert minor_values(x, solid_minor_specs(6)) \
            == [minor(x, s) for s in solid_minor_specs(6)]
        zero = Matrix([[0] * 5 for _ in range(5)])
        assert minor_values(zero, initial_minor_specs(5)) == [0] * 25

    def test_empty_spec_list(self):
        assert minor_family(Matrix.identity(3), []) == ([], [1, 1, 1])


SOLID_FAMILIES = [(mx.initial_family, initial_minor_specs),
                  (mx.solid_family, solid_minor_specs)]
SOLID_IDS = ["initial", "solid"]


class TestSolidFamilies:
    """The initial and solid families read off the condensation walk
    without spec lists, against the spec-list engine and per-minor
    evaluation."""

    @pytest.mark.parametrize("family, specs_of", SOLID_FAMILIES,
                             ids=SOLID_IDS)
    @settings(deadline=None, max_examples=150)
    @given(x=matrices())
    def test_equal_to_minor_family(self, family, specs_of, x):
        specs = specs_of(x.n)
        values, mults = family(x)
        assert (values, mults) == minor_family(x, specs)
        exact = [unscale(s, v, mults) for s, v in zip(specs, values)]
        assert exact == [minor(x, s) for s in specs]
        assert exact == [cofactor_det(x.submatrix_rows(s.rows, s.cols))
                         for s in specs]

    @pytest.mark.parametrize("family, specs_of", SOLID_FAMILIES,
                             ids=SOLID_IDS)
    @settings(deadline=None, max_examples=150)
    @given(x=matrices(), which=st.sampled_from(["nonpositive", "negative",
                                                "zero"]))
    def test_stop_iff_some_value_satisfies_it(self, family, specs_of, x,
                                              which):
        stop = {"nonpositive": lambda v: v <= 0,
                "negative": lambda v: v < 0,
                "zero": lambda v: v == 0}[which]
        stopped = family(x, stop=stop) is None
        assert stopped == any(stop(minor(x, s)) for s in specs_of(x.n))

    @pytest.mark.parametrize("family, specs_of", SOLID_FAMILIES,
                             ids=SOLID_IDS)
    def test_every_condensation_divisor_zero(self, family, specs_of):
        # rank one: every solid 2-minor vanishes, so every solid minor of
        # size >= 4 is reached through a zero divisor
        x = Matrix([[(i + 1) * (j + 2) for j in range(6)] for i in range(6)])
        specs = specs_of(6)
        values, mults = family(x)
        assert [unscale(s, v, mults) for s, v in zip(specs, values)] \
            == [minor(x, s) for s in specs]
        assert all((v != 0) == (s.size == 1) for s, v in zip(specs, values))
        zero = Matrix([[0] * 5 for _ in range(5)])
        assert family(zero)[0] == [0] * len(specs_of(5))
        assert family(zero, stop=lambda v: v <= 0) is None

    def test_tp_verdicts_build_no_spec(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spec was built")

        monkeypatch.setattr(MinorSpec, "trusted", refuse)
        monkeypatch.setattr(MinorSpec, "__init__", refuse)
        monkeypatch.setattr(mx, "initial_minor_specs", refuse)
        monkeypatch.setattr(mx, "solid_minor_specs", refuse)
        monkeypatch.setattr(mx, "all_minor_specs", refuse)
        rng = random.Random(20)
        for n in range(1, 9):
            x = rand_tp(rng, n)
            assert pv.test_initial_minors(x)
            assert pv.test_fekete_solid(x)
            if n <= 6:
                assert pv.is_tp_bruteforce(x)
                assert pv.is_tnn_bruteforce(x)
        with pytest.raises(AssertionError, match="a spec was built"):
            pv.failing_solid_minors(Matrix([[1, 2], [3, 1]]))

    @pytest.mark.parametrize("failing, specs_of", [
        (pv.failing_initial_minors, initial_minor_specs),
        (pv.failing_solid_minors, solid_minor_specs)], ids=SOLID_IDS)
    @settings(deadline=None, max_examples=100)
    @given(x=matrices())
    def test_witnesses_in_spec_order(self, failing, specs_of, x):
        assert failing(x) == pv.failing_minors(x, specs_of(x.n),
                                               strict=True)


@st.composite
def chamber_inputs(draw):
    """A matrix of n = 1..7 and a random double wiring diagram of its size.
    Besides KINDS: totally positive, and totally nonnegative staircase
    products with some slant parameters 0, whose zero chamber minors are
    zero divisors of the sweep."""
    n = draw(st.integers(1, 7))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["tp", "tnn zero slants", "other"]))
    if kind == "tp":
        x = rand_tp(rng, n)
    elif kind == "tnn zero slants":
        word = staircase_scheme(n)
        x = product_map(word, [rand_positive(rng)
                               if letter.kind == DIAG or rng.random() < 0.7
                               else 0 for letter in word], n)
    else:
        x = draw(matrices(max_n=7))
        n = x.n
    scheme = rand_walk_full_scheme(rng, n)
    return x, DoubleWiringDiagram(
        tuple(letter for letter in scheme if letter.kind != DIAG), n)


class TestChamberFamily:
    @settings(deadline=None, max_examples=150)
    @given(chamber_inputs())
    def test_values_against_per_minor_and_cofactor(self, case):
        x, d = case
        specs = chamber_minors(d)
        values, mults = chamber_family(x, d)
        assert len(values) == x.n ** 2
        assert all(m > 0 for m in mults)
        exact = [unscale(s, v, mults) for s, v in zip(specs, values)]
        assert exact == [minor(x, s) for s in specs]
        assert exact == [cofactor_det(x.submatrix_rows(s.rows, s.cols))
                         for s in specs]

    @settings(deadline=None, max_examples=150)
    @given(chamber_inputs(), st.sampled_from(["nonpositive", "negative",
                                              "zero"]))
    def test_stop_iff_some_value_satisfies_it(self, case, which):
        x, d = case
        stop = {"nonpositive": lambda v: v <= 0,
                "negative": lambda v: v < 0,
                "zero": lambda v: v == 0}[which]
        stopped = chamber_family(x, d, stop=stop) is None
        assert stopped == any(stop(minor(x, s)) for s in chamber_minors(d))

    @settings(deadline=None, max_examples=100)
    @given(chamber_inputs())
    def test_criterion_against_brute_force(self, case):
        x, d = case
        if x.n <= 5:
            assert pv.test_chamber_minors(x, d) == pv.is_tp_bruteforce(x)
        failures = pv.failing_chamber_minors(x, d)
        assert failures == [(s, minor(x, s)) for s in chamber_minors(d)
                            if minor(x, s) <= 0]

    @pytest.mark.parametrize("stop", [None, lambda v: v <= 0],
                             ids=["no stop", "stop"])
    def test_one_set_of_tableaux_per_call(self, stop, monkeypatch):
        built = []

        class Counted(mx._Tableaux):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(mx, "_Tableaux", Counted)
        rng = random.Random(18)
        d = DoubleWiringDiagram(tuple(letter for letter
                                      in rand_walk_full_scheme(rng, 4)
                                      if letter.kind != DIAG), 4)
        tridiagonal = Matrix([[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1],
                              [0, 0, 1, 2]])
        for x in (rand_tp(rng, 4), tridiagonal, Matrix.identity(4)):
            built.clear()
            chamber_family(x, d, stop=stop)
            assert len(built) == 1

    def test_every_divisor_zero(self):
        # rank one: every chamber above level 1 vanishes, so every tableau
        # above the second is out of reach and those chambers are evaluated
        # directly; on the zero matrix every tableau above the first is
        x = Matrix([[(i + 1) * (j + 2) for j in range(6)] for i in range(6)])
        d = DoubleWiringDiagram(tuple(letter for letter in staircase_scheme(6)
                                      if letter.kind != DIAG), 6)
        specs = chamber_minors(d)
        values, mults = chamber_family(x, d)
        assert [unscale(s, v, mults) for s, v in zip(specs, values)] \
            == [minor(x, s) for s in specs]
        assert all((v != 0) == (s.size == 1) for s, v in zip(specs, values))
        zero = Matrix([[0] * 6 for _ in range(6)])
        assert chamber_family(zero, d)[0] == [0] * 36

    def test_minimal_diagram_chambers(self):
        # a minimal diagram's chambers are the initial minors, all solid
        for n in range(1, 7):
            d = minimal_diagram(n)
            specs = chamber_minors(d)
            assert sorted(specs, key=str) \
                == sorted(initial_minor_specs(n), key=str)
            rank_two = Matrix([[i + j * j for j in range(n)]
                               for i in range(n)])
            for x in (rand_tp(random.Random(n), n), rank_two):
                values, mults = chamber_family(x, d)
                assert [unscale(s, v, mults) for s, v in zip(specs, values)] \
                    == [minor(x, s) for s in specs]


@st.composite
def sparse_matrices(draw):
    """n = 1..9 with 30-70 % of the entries zero (rounded to a count), the
    rest nonzero, all positive or of mixed signs: many condensation
    divisors and leading minors of corner blocks vanish."""
    n = draw(st.integers(1, 9))
    zeros = draw(st.integers(round(0.3 * n * n), round(0.7 * n * n)))
    at_zero = set(draw(st.permutations(range(n * n)))[:zeros])
    numerators = (st.integers(1, 3) if draw(st.booleans())
                  else st.integers(-3, 3).filter(bool))
    return Matrix([[Fraction(0) if i * n + j in at_zero
                    else Fraction(draw(numerators), draw(st.integers(1, 2)))
                    for j in range(n)] for i in range(n)])


def exact_minors(x, specs, values, mults):
    """The unscaled values, checked against `minor` and, up to size 4,
    against cofactor expansion."""
    exact = [unscale(s, v, mults) for s, v in zip(specs, values)]
    assert exact == [minor(x, s) for s in specs]
    assert all(value == cofactor_det(x.submatrix_rows(s.rows, s.cols))
               for s, value in zip(specs, exact) if s.size <= 4)
    return exact


class TestSparseInputs:
    """The families on matrices with many zero entries, where condensation
    reaches minors through zero divisors and falls back to one elimination
    per top-left corner."""

    @pytest.mark.parametrize("family, specs_of", SOLID_FAMILIES,
                             ids=SOLID_IDS)
    @settings(deadline=None, max_examples=100)
    @given(x=sparse_matrices())
    def test_solid_families(self, family, specs_of, x):
        specs = specs_of(x.n)
        exact = exact_minors(x, specs, *family(x))
        assert (family(x, stop=lambda v: v <= 0) is None) \
            == any(v <= 0 for v in exact)

    @pytest.mark.parametrize("specs_of", [solid_minor_specs,
                                          pv.antiprincipal_specs],
                             ids=["solid", "antiprincipal"])
    @settings(deadline=None, max_examples=100)
    @given(x=sparse_matrices())
    def test_minor_family_on_solid_lists(self, specs_of, x):
        specs = specs_of(x.n)
        exact_minors(x, specs, *minor_family(x, specs))

    @settings(deadline=None, max_examples=100)
    @given(x=sparse_matrices())
    def test_tnn_efficient_report(self, x):
        specs = pv.tnn_efficient_specs(x.n)
        if minor(x, specs[-1]) == 0:
            with pytest.raises(pv.NotApplicableError):
                pv.tnn_efficient_report(x)
            return
        values = [minor(x, s) for s in specs]
        assert all(value == cofactor_det(x.submatrix_rows(s.rows, s.cols))
                   for s, value in zip(specs, values) if s.size <= 4)
        negative = [(s, v) for s, v in zip(specs, values) if v < 0]
        leading = all(v > 0 for s, v in zip(specs, values)
                      if s.rows == s.cols and s.rows[-1] == s.size)
        verdict, checked, witnesses = pv.tnn_efficient_report(x)
        assert checked == len(specs)
        assert verdict == (not negative and leading)
        if negative or verdict:
            assert witnesses == negative
        else:  # the Sylvester witness, off the family
            [(spec, value)] = witnesses
            assert value == minor(x, spec) < 0
        if x.n <= 6:
            assert verdict == pv.is_tnn_bruteforce(x)

    def test_zero_pivot_partway_down_a_corner(self, monkeypatch):
        # the entry (2, 2) = 0 divides [1..3|1..3], so it and [1..4|1..4]
        # are unknown to condensation.  The block at corner (1, 1)
        # eliminates to pivots 1, -1 and then 0: [1..3|1..3] is that zero
        # pivot, and only [1..4|1..4], past it, goes to the kernel.
        x = Matrix([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, -1, 1], [0, 0, 1, 2]])
        direct = mx._direct
        kernel = []

        def logged(m, pairs, values, stop):
            pairs = list(pairs)
            kernel.extend(spec for _, spec in pairs)
            return direct(m, pairs, values, stop)

        monkeypatch.setattr(mx, "_direct", logged)
        specs = initial_minor_specs(4)
        values = exact_minors(x, specs, *mx.initial_family(x))
        assert kernel == [MinorSpec((1, 2, 3, 4), (1, 2, 3, 4))]
        assert [values[specs.index(MinorSpec.of(range(1, k + 1),
                                                range(1, k + 1)))]
                for k in range(1, 5)] == [1, -1, 0, 1]
        kernel.clear()
        assert mx.initial_family(x, stop=lambda v: v == 0) is None
        assert kernel == []  # the zero pivot stops before the kernel runs

    def test_tp_efficient_verdict_builds_no_spec(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spec was built")

        monkeypatch.setattr(MinorSpec, "trusted", refuse)
        monkeypatch.setattr(MinorSpec, "__init__", refuse)
        monkeypatch.setattr(pv, "tnn_efficient_specs", refuse)
        rng = random.Random(26)
        for n in range(1, 9):
            assert pv.test_tnn_efficient(rand_tp(rng, n)) \
                == (True, 2 ** (n + 1) - n - 2)
        with pytest.raises(AssertionError, match="a spec was built"):
            pv.tnn_efficient_report(Matrix([[1, 2], [3, 1]]))


class TestCriteriaOnDegenerateInputs:
    """Each criterion against its definition evaluated minor by minor."""

    @settings(deadline=None, max_examples=100)
    @given(matrices())
    def test_tp_criteria(self, x):
        tp = all(cofactor_det(x.submatrix_rows(s.rows, s.cols)) > 0
                 for s in all_minor_specs(x.n))
        assert pv.test_initial_minors(x) == tp
        assert pv.test_fekete_solid(x) == tp
        assert pv.is_tp_bruteforce(x) == tp

    @settings(deadline=None, max_examples=100)
    @given(matrices())
    def test_tnn_criteria(self, x):
        values = {(s.rows, s.cols): minor(x, s) for s in all_minor_specs(x.n)}
        assert pv.is_tnn_bruteforce(x) == all(v >= 0 for v in values.values())
        if x.det() == 0:
            return
        specs = pv.tnn_efficient_specs(x.n)
        verdict, checked, witnesses = pv.tnn_efficient_report(x)
        assert checked == len(specs)
        assert witnesses == [(s, values[s.rows, s.cols]) for s in specs
                             if values[s.rows, s.cols] < 0]
        leading = [values[s.rows, s.cols] for s in specs
                   if s.rows == s.cols and s.rows[-1] == s.size]
        assert verdict == (not witnesses and all(v > 0 for v in leading))
        assert pv.test_tnn_efficient(x) == (verdict, checked)

    @settings(deadline=None, max_examples=100)
    @given(matrices())
    def test_tp_given_tnn(self, x):
        assert pv.test_tp_given_tnn(x) == all(
            minor(x, s) != 0 for s in pv.antiprincipal_specs(x.n))

    @settings(deadline=None, max_examples=100)
    @given(matrices(), st.sampled_from([True, False]))
    def test_failing_minors_in_spec_order(self, x, strict):
        for specs in (initial_minor_specs(x.n), solid_minor_specs(x.n)):
            expected = [(s, minor(x, s)) for s in specs
                        if (minor(x, s) <= 0 if strict else minor(x, s) < 0)]
            assert pv.failing_minors(x, specs, strict=strict) == expected

    @settings(deadline=None, max_examples=100)
    @given(matrices(), st.sampled_from([True, False]))
    def test_brute_force_against_the_kernel(self, x, strict):
        # brute force reads the Laplace walk; the full spec list runs one
        # kernel elimination per minor, an independent path
        failures = pv.failing_all_minors(x, strict=strict)
        assert failures == pv.failing_minors(x, all_minor_specs(x.n),
                                             strict=strict)
        brute = pv.is_tp_bruteforce if strict else pv.is_tnn_bruteforce
        assert brute(x) == (not failures)

    def test_laplace_walk_in_all_minor_specs_order(self):
        for n in range(1, 7):
            m = [[i + j for j in range(n)] for i in range(n)]
            specs = all_minor_specs(n)
            for depth in range(1, n + 1):
                col_sets = mx._column_sets(n, depth)
                walk = list(mx._laplace_walk(m, col_sets, chain=False))
                assert [rows for rows, _ in walk] == list(dict.fromkeys(
                    s.rows for s in specs if s.size <= depth))
                assert all([cols for _, cols in col_sets[len(rows)]]
                           == [s.cols for s in specs if s.rows == rows]
                           for rows, _ in walk)
            chained = mx._laplace_walk(m, mx._column_sets(n, n), chain=True)
            assert [rows for rows, _ in chained] \
                == [tuple(range(1, k + 1)) for k in range(1, n + 1)]

    def test_brute_force_stops_at_the_first_failing_row_set(self,
                                                           monkeypatch):
        walk, seen = mx._laplace_walk, []

        def logged(*args, **kwargs):
            for rows, node in walk(*args, **kwargs):
                seen.append(rows)
                yield rows, node

        monkeypatch.setattr(pv, "_laplace_walk", logged)
        x = Matrix([[1, 2, 3], [1, -1, 1], [1, 1, 1]])
        for brute in (pv.is_tp_bruteforce, pv.is_tnn_bruteforce):
            seen.clear()
            assert not brute(x)
            assert seen == [(1,), (2,)]
        with pytest.raises(pv.GuardExceeded):
            pv.failing_all_minors(x, strict=True, guard=2)


NEVILLE_KINDS = ["zero slant", "perturbed", "tnn", "sparse", "mixed",
                 "zero row", "singular"]


@st.composite
def neville_inputs(draw, sizes=st.integers(1, 6), kinds=NEVILLE_KINDS):
    """Square matrices for the Neville tests, n = 1..6 unless ``sizes``
    says otherwise: staircase products with zero slant parameters (totally
    nonnegative, not totally positive), their perturbations, random-type
    products, sparse small integers (many zero minors), mixed signs, zero
    rows and singular ones."""
    n = draw(sizes)
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if kind in ("zero slant", "perturbed"):
        word = staircase_scheme(n)
        params = [Fraction(0) if letter.kind != DIAG and rng.random() < 0.4
                  else rand_positive(rng) for letter in word]
        rows = [list(row) for row in product_map(word, params, n).rows]
        if kind == "perturbed":
            rows[rng.randrange(n)][rng.randrange(n)] += draw(ENTRIES)
    elif kind == "tnn":
        tnn = rand_tnn_invertible if n <= 6 else rand_walk_tnn_invertible
        rows = [list(row) for row in tnn(rng, n).rows]
    elif kind == "sparse":
        rows = [[Fraction(draw(st.sampled_from([0, 0, 0, 1, 2, -1])))
                 for _ in range(n)] for _ in range(n)]
    else:
        rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    if kind == "singular" and n > 1:
        i, k = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(ENTRIES) * v for v in rows[k]]
    return Matrix(rows)


class TestNeville:
    """Neville elimination of x and x^T (Gasca and Peña 1992) against
    brute force over all minors."""

    @settings(deadline=None, max_examples=200)
    @given(neville_inputs())
    def test_verdicts_and_witnesses(self, x):
        # test --method neville: the pivots of a strict pass are the
        # initial minors
        assert pv.test_initial_minors(x) == pv.is_tp_bruteforce(x)
        if x.det() == 0:
            for test in (pv.test_tnn_neville, pv.tnn_neville_report):
                with pytest.raises(pv.NotApplicableError):
                    test(x)
            return
        tnn = pv.is_tnn_bruteforce(x)
        verdict, checked, witnesses = pv.tnn_neville_report(x)
        assert verdict == pv.test_tnn_neville(x) == tnn
        assert checked == x.n ** 2
        for spec, value in witnesses:
            assert value == minor(x, spec) < 0
        if tnn:
            assert witnesses == []
        elif len(witnesses) != 1:
            # no single named witness: the efficient family's negatives
            assert witnesses == pv.tnn_efficient_report(x)[2]

    @settings(deadline=None, max_examples=60)
    @given(neville_inputs(st.integers(7, 12),
                          ["zero slant", "perturbed", "tnn", "sparse"]))
    def test_verdicts_against_the_efficient_family_at_mid_sizes(self, x):
        # above brute force's guard; the efficient family reads minors off
        # Laplace walks, with no elimination
        if x.det() == 0:
            for test in (pv.test_tnn_neville, pv.test_tnn_efficient):
                with pytest.raises(pv.NotApplicableError):
                    test(x)
            return
        assert pv.test_tnn_neville(x) == pv.test_tnn_efficient(x)[0]

    @given(st.data())
    def test_cancel_divides_by_the_content(self, data):
        n = data.draw(st.integers(1, 6))
        scale = data.draw(st.integers(1, 12))
        ints = st.lists(st.integers(-9, 9).map(scale.__mul__), min_size=n,
                        max_size=n)
        row, pivot_row = data.draw(ints), data.draw(ints)
        pivot = data.draw(st.integers(-9, 9).filter(bool))
        head = data.draw(st.integers(-9, 9))
        combined = [pivot * a - head * b for a, b in zip(row, pivot_row)]
        content = math.gcd(*combined)
        got = mx._cancel(row, pivot_row, pivot, head)
        if content:
            assert [content * v for v in got] == combined
        else:
            assert got == combined == [0] * n
        assert math.gcd(*got) <= 1
        assert mx._cancel([2, -4], [1, -2], 1, 2) == [0, 0]

    def test_named_witness_and_fallback(self):
        # the transposed pass finds [1|2] = -1 after the pass of x finds
        # nothing; a zero leading minor with a nonzero entry below it
        # names no single witness, so the family is searched
        x = Matrix([[1, -1], [1, 1]])
        assert pv.tnn_neville_report(x) == (
            False, 4, [(MinorSpec((1,), (2,)), -1)])
        y = Matrix([[0, 1, 1], [1, 1, 1], [1, 1, 2]])
        verdict, _, witnesses = pv.tnn_neville_report(y)
        assert not verdict
        assert witnesses == pv.tnn_efficient_report(y)[2] != []
        with pytest.raises(pv.GuardExceeded, match="efficient TNN test"):
            pv.tnn_neville_report(y, guard=2)
        assert pv.tnn_neville_report(Matrix([[-1]])) == (
            False, 1, [(MinorSpec((1,), (1,)), -1)])


def test_oscillation_criteria_match_is_oscillatory():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(4):
            x = rand_tnn_invertible(rng, n)
            assert pv.oscillation_criteria(x) == {
                c: pv.is_oscillatory(x, c) for c in "bcd"}


def test_oscillation_criteria_check_input_once(monkeypatch):
    calls = []
    check = pv._neville_failure

    def counting(x):
        calls.append(x)
        return check(x)

    monkeypatch.setattr(pv, "_neville_failure", counting)
    x = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert pv.oscillation_criteria(x) == {"b": True, "c": True, "d": True}
    assert len(calls) == 1


def test_oscillation_criteria_use_no_brute_force(monkeypatch):
    def refuse(x, guard=6):
        raise AssertionError("brute force called")

    monkeypatch.setattr(pv, "is_tnn_bruteforce", refuse)
    monkeypatch.setattr(pv, "is_tp_bruteforce", refuse)
    rng = random.Random(9)
    for n in range(1, 7):
        x = rand_tnn_invertible(rng, n)
        assert len(set(pv.oscillation_criteria(x).values())) == 1


def test_is_oscillatory_checks_the_criterion_first(monkeypatch):
    def refuse(x):
        raise AssertionError("input checked before the criterion")

    monkeypatch.setattr(pv, "_neville_failure", refuse)
    for x in (Matrix([[1, 1], [1, 1]]), Matrix([[-1, 0], [0, 1]]),
              Matrix([[2, 1], [1, 2]])):
        with pytest.raises(ValueError, match="unknown criterion 'z'; "
                                             "pick b, c, or d"):
            pv.is_oscillatory(x, "z")


def test_spec_families_are_valid_specs():
    # the family generators build their specs unchecked
    for n in range(1, 6):
        for family in FAMILIES.values():
            specs = family(n)
            assert len(set(specs)) == len(specs)
            for spec in specs:
                assert spec == MinorSpec(spec.rows, spec.cols)
                assert hash(spec) == hash(MinorSpec(spec.rows, spec.cols))
                assert all(type(i) is int for i in spec.rows + spec.cols)
    assert len(set(all_minor_specs(4))) == 69
