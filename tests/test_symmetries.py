"""Symmetries of total positivity as the oracle above n = 6.

Total positivity and total nonnegativity are invariant under four maps
(Fallat and Johnson 2011, ch. 1): the transpose; x -> w0 x w0, which
reverses the rows and the columns; positive diagonal scaling D1 x D2; and,
for invertible x, x -> S x^-1 S with S = diag(1, -1, 1, ...).  The minors
map with them.  The minor (I, J) of x is the minor (J, I) of x^T and the
minor (n+1-I, n+1-J) of w0 x w0; D1 x D2 scales it by prod D1[I] *
prod D2[J]; and by Jacobi's complementary minors the minor (I, J) of
S x^-1 S is the minor (J^c, I^c) of x over det x.

Each map is pinned against brute force (`failing_all_minors`) at n <= 6.
Above that no brute force runs, so the criteria are checked against the
maps: every verdict is the same on x and on each image, and the witness
lists map as the minors do.
"""

import random
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import totpos.positivity as pv
from totpos.diagrams import DoubleWiringDiagram
from totpos.matrices import Matrix, MinorSpec
from totpos.positivity import (NotApplicableError, failing_all_minors,
                               failing_chamber_minors,
                               failing_initial_minors, failing_solid_minors)
from totpos.words import UPPER, product_map, staircase_scheme
from util import (rand_fraction, rand_matrix, rand_positive, rand_tp,
                  rand_walk_full_scheme, rand_walk_tnn_invertible)

KINDS = ("tp", "tnn", "near tp", "one-sided", "mixed")


def draw_input(rng: random.Random, n: int, kind: str) -> Matrix:
    if kind == "tp":
        return rand_tp(rng, n)
    if kind == "tnn":
        return rand_walk_tnn_invertible(rng, n)
    if kind == "near tp":  # one entry of a TP matrix halved or doubled
        rows = [list(row) for row in rand_tp(rng, n).rows]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] *= rng.choice((Fraction(1, 2), 2))
        return Matrix(rows)
    if kind == "one-sided":  # staircase: lowers and diags > 0, uppers any
        word = staircase_scheme(n)
        return product_map(word, [rand_fraction(rng) if l.kind == UPPER
                                  else rand_positive(rng) for l in word], n)
    return rand_matrix(rng, n)


@st.composite
def inputs(draw, lo, hi):
    """(x, rng): a TP, an invertible TNN, a nearly TP, a one-sided (a TNN
    lower part, any upper part) or a random rational x, n in lo..hi, and
    the generator that drew it, for the diagram and the scalings."""
    n = draw(st.integers(lo, hi))
    kind = draw(st.sampled_from(KINDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return draw_input(rng, n, kind), rng


def reversed_matrix(x: Matrix) -> Matrix:
    """w0 x w0: the rows and the columns in reverse order."""
    return Matrix([row[::-1] for row in x.rows[::-1]])


def scalings(rng: random.Random, n: int) -> tuple[list, list]:
    return ([rand_positive(rng) for _ in range(n)],
            [rand_positive(rng) for _ in range(n)])


def scaled(x: Matrix, d1: list, d2: list) -> Matrix:
    """D1 x D2."""
    return Matrix([[a * v * b for v, b in zip(row, d2)]
                   for a, row in zip(d1, x.rows)])


def inverse_image(x: Matrix) -> Matrix:
    """S x^-1 S with S = diag(1, -1, 1, ...)."""
    return Matrix([[-v if (i + j) % 2 else v for j, v in enumerate(row)]
                   for i, row in enumerate(x.inverse().rows)])


def swapped(s: MinorSpec) -> MinorSpec:
    return MinorSpec(s.cols, s.rows)


def reflected(s: MinorSpec, n: int) -> MinorSpec:
    return MinorSpec.of([n + 1 - i for i in s.rows],
                        [n + 1 - j for j in s.cols])


def complemented(s: MinorSpec, n: int) -> MinorSpec:
    """(I, J) -> (J^c, I^c); None for the full minor."""
    if s.size == n:
        return None
    return MinorSpec([j for j in range(1, n + 1) if j not in s.cols],
                     [i for i in range(1, n + 1) if i not in s.rows])


def keyed(failures) -> dict:
    return {(s.rows, s.cols): v for s, v in failures}


def mapped(failures, spec_map, scale=lambda s: 1) -> dict:
    return {(t.rows, t.cols): v * scale(s) for s, v in failures
            for t in (spec_map(s),)}


def outcome(test, *args):
    """A verdict, or the class of the error the test raises."""
    try:
        return test(*args)
    except NotApplicableError as error:
        return type(error)


def slant_diagram(rng: random.Random, n: int) -> DoubleWiringDiagram:
    """The diagram of a random full-type scheme's slants."""
    word = rand_walk_full_scheme(rng, n)
    return DoubleWiringDiagram(tuple(l for l in word if l.is_slant), n)


@settings(deadline=None, max_examples=60)
@given(inputs(1, 6), st.booleans())
def test_minor_maps_against_brute_force(drawn, strict):
    x, rng = drawn
    n = x.n
    want = failing_all_minors(x, strict=strict)
    assert keyed(failing_all_minors(x.transpose(), strict=strict)) \
        == mapped(want, swapped)
    assert keyed(failing_all_minors(reversed_matrix(x), strict=strict)) \
        == mapped(want, lambda s: reflected(s, n))
    d1, d2 = scalings(rng, n)
    got = failing_all_minors(scaled(x, d1, d2), strict=strict)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert [v for _, v in got] == [
        v * prod(d1[i - 1] for i in s.rows) * prod(d2[j - 1] for j in s.cols)
        for s, v in want]
    det = x.det()
    if det:
        if det < 0:  # flip the sign of the first row, so that det x > 0
            x = Matrix([[-v for v in x.rows[0]], *x.rows[1:]])
            det = -det
            want = failing_all_minors(x, strict=strict)
        # det x > 0: the full minors of x and of its image pass, and every
        # other minor of the image is its complement's over det x
        assert keyed(failing_all_minors(inverse_image(x), strict=strict)) \
            == mapped(want, lambda s: complemented(s, n),
                      lambda s: 1 / det)


def verdicts(x: Matrix, d: DoubleWiringDiagram) -> tuple:
    n = x.n
    return (pv.test_initial_minors(x), pv.test_fekete_solid(x),
            pv.test_chamber_minors(x, d), outcome(pv.test_tnn_neville, x),
            outcome(pv.test_tnn_efficient, x) if n <= 12 else None)


@settings(deadline=None, max_examples=25)
@given(inputs(7, 16))
def test_verdicts_are_invariant(drawn):
    x, rng = drawn
    d = slant_diagram(rng, x.n)
    want = verdicts(x, d)
    images = [x.transpose(), reversed_matrix(x),
              scaled(x, *scalings(rng, x.n))]
    if x.det():
        images.append(inverse_image(x))
    for image in images:
        assert verdicts(image, d) == want


@settings(deadline=None, max_examples=25)
@given(inputs(7, 16))
def test_witnesses_map(drawn):
    x, rng = drawn
    n = x.n
    initial = failing_initial_minors(x)
    solid = failing_solid_minors(x)
    assert keyed(failing_initial_minors(x.transpose())) \
        == mapped(initial, swapped)
    assert keyed(failing_solid_minors(reversed_matrix(x))) \
        == mapped(solid, lambda s: reflected(s, n))
    d = slant_diagram(rng, n)
    image = scaled(x, *scalings(rng, n))
    for failing, before in ((failing_initial_minors, initial),
                            (failing_solid_minors, solid)):
        assert [s for s, _ in failing(image)] == [s for s, _ in before]
    assert [s for s, _ in failing_chamber_minors(image, d)] \
        == [s for s, _ in failing_chamber_minors(x, d)]
