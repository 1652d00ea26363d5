"""The minor-family engine against per-minor evaluation and cofactor
expansion, on the degenerate inputs where condensation divides by zero."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import totpos.positivity as pv
from totpos.matrices import (Matrix, MinorSpec, all_minor_specs,
                             initial_minor_specs, minor, minor_family,
                             minor_values, solid_minor_specs, unscale)
from util import cofactor_det, rand_tnn_invertible

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
    """A named family of size n, or random specs (repeats allowed)."""
    name = draw(st.sampled_from(sorted(FAMILIES) + ["random"]))
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


def test_oscillation_criteria_match_is_oscillatory():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(4):
            x = rand_tnn_invertible(rng, n)
            assert pv.oscillation_criteria(x) == {
                c: pv.is_oscillatory(x, c) for c in "bcd"}


def test_oscillation_criteria_check_input_once(monkeypatch):
    calls = []
    brute = pv.is_tnn_bruteforce

    def counting(x, guard=6):
        calls.append(x)
        return brute(x, guard=guard)

    monkeypatch.setattr(pv, "is_tnn_bruteforce", counting)
    x = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert pv.oscillation_criteria(x) == {"b": True, "c": True, "d": True}
    assert len(calls) == 1


def test_spec_families_are_valid_specs():
    # the family generators build their specs unchecked
    for n in range(1, 6):
        for family in FAMILIES.values():
            for spec in family(n):
                assert spec == MinorSpec(spec.rows, spec.cols)
                assert hash(spec) == hash(MinorSpec(spec.rows, spec.cols))
                assert all(type(i) is int for i in spec.rows + spec.cols)
    assert len(set(all_minor_specs(4))) == 69
