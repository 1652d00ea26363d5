"""Planar networks: weight matrices, the path oracle, chips."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.exact import LaurentPoly
from totpos.matrices import Matrix, MinorSpec, all_minor_specs, minor
from totpos.networks import (NetworkError, PlanarNetwork, chip, chips_of_word,
                             concatenate, disjoint_path_minor,
                             is_totally_connected, standard_network,
                             weight_matrix, weight_matrix_raw)
from totpos.positivity import is_tnn_bruteforce, is_tp_bruteforce
from totpos.words import (Letter, lower, parse_word, product_map,
                          staircase_scheme, upper, diag)

from util import (enumerate_paths, oracle_chip, oracle_validate_planarity,
                  rand_network, rand_positive)

NAMES = tuple("abcdefghi")


def symbolic_standard_3():
    weights = [LaurentPoly.variable(NAMES, v) for v in NAMES]
    return standard_network(3, weights), {v: LaurentPoly.variable(NAMES, v)
                                          for v in NAMES}


SWEEP_WEIGHTS = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1))),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20),
              st.integers(1, 2 ** 20)))


@st.composite
def sweep_networks(draw):
    """Networks on n = 1..5: random grid networks (`rand_network`) with
    some edges dropped, so a sink may be unreachable, and the chips of
    random words whose weights mix signs, zero and unit slants and
    denominators large enough to pass the sweep's reduction limit."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        net = rand_network(draw(st.randoms(use_true_random=False)), n,
                           draw(st.integers(0, 4)))
        keep = draw(st.lists(st.booleans(), min_size=len(net.edges),
                             max_size=len(net.edges)))
        return PlanarNetwork(n, net.vertices,
                             tuple(e for e, k in zip(net.edges, keep) if k))
    kinds = ("upper", "lower", "diag") if n > 1 else ("diag",)
    word, params = [], []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        word.append(Letter(kind, draw(st.integers(1, n if kind == "diag"
                                                  else n - 1))))
        t = draw(SWEEP_WEIGHTS)
        params.append(t if t or kind != "diag" else Fraction(-1))
    return chips_of_word(tuple(word), params, n)


class TestWeightMatrix:
    def test_standard_3_symbolic_display(self):
        net, v = symbolic_standard_3()
        a, b, c, d, e, f, g, h, i = (v[x] for x in NAMES)
        expected = [
            [d, d * h, d * h * i],
            [b * d, b * d * h + e, b * d * h * i + e * g + e * i],
            [a * b * d, a * b * d * h + a * e + c * e,
             a * b * d * h * i + (a + c) * e * (g + i) + f],
        ]
        assert weight_matrix_raw(net) == expected

    def test_unit_laurent_weights_still_multiply(self):
        # a unit LaurentPoly weight is not the int 1, so it is multiplied
        # in, and every path sum stays in the polynomial ring, also along
        # the unit horizontals at level 1 of the two-chip network
        standard, v = symbolic_standard_3()
        one = LaurentPoly.constant(NAMES, 1)
        for net in (standard,
                    chips_of_word((upper(1), lower(2)), [v["a"], v["b"]], 3)):
            edges = tuple((a, b, one if w == 1 else w)
                          for a, b, w in net.edges)
            poly = PlanarNetwork(3, net.vertices, edges)
            raw = weight_matrix_raw(poly)
            for i, source in enumerate(poly.sources):
                for j, sink in enumerate(poly.sinks):
                    paths = enumerate_paths(poly, source, sink)
                    if paths:
                        assert isinstance(raw[i][j], LaurentPoly)
                        assert raw[i][j] == sum((w for _, w in paths[1:]),
                                                paths[0][1])

    def test_pascal_staircase(self):
        n = 5
        vertices = [(x, level) for x in range(n) for level in range(1, n + 1)]
        index = {v: k for k, v in enumerate(vertices)}
        edges = []
        for x in range(n - 1):
            for level in range(1, n + 1):
                edges.append((index[(x, level)], index[(x + 1, level)], 1))
            for level in range(2, n + 1):
                if x + level >= n:
                    edges.append((index[(x, level)],
                                  index[(x + 1, level - 1)], 1))
        net = PlanarNetwork(n, tuple(vertices), tuple(edges))
        wm = weight_matrix(net)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert wm.entry(i, j) == comb(i - 1, j - 1)
        assert is_tnn_bruteforce(wm)
        assert not is_tp_bruteforce(wm)

    def test_no_slants_gives_identity(self):
        n = 3
        vertices = [(x, level) for x in range(3) for level in range(1, n + 1)]
        index = {v: k for k, v in enumerate(vertices)}
        edges = [(index[(x, level)], index[(x + 1, level)], 1)
                 for x in range(2) for level in range(1, n + 1)]
        net = PlanarNetwork(n, tuple(vertices), tuple(edges))
        assert weight_matrix(net) == Matrix.identity(n)

    def test_json_round_trip(self):
        net = standard_network(2, [Fraction(1, 2), 3, 4, 5])
        again = PlanarNetwork.from_json(net.to_json())
        assert weight_matrix(again) == weight_matrix(net)

    @settings(deadline=None, max_examples=300)
    @given(sweep_networks())
    def test_sweep_equals_the_per_source_pass(self, net):
        assert weight_matrix(net) == Matrix(weight_matrix_raw(net))

    def test_symbolic_weights_raise_type_error(self):
        net, _ = symbolic_standard_3()
        with pytest.raises(TypeError):
            Matrix(weight_matrix_raw(net))
        with pytest.raises(TypeError):
            weight_matrix(net)

    def test_weight_on_no_path_from_a_source_is_never_read(self):
        # vertex (1, 2) has no in-edge, so its symbolic out-edge is on no
        # path and sink 2 is reached by none
        vertices = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2))
        edges = ((0, 2, Fraction(3)), (2, 4, Fraction(1, 2)),
                 (3, 5, LaurentPoly.variable(NAMES, "a")))
        net = PlanarNetwork(2, vertices, edges)
        assert weight_matrix(net) == Matrix(weight_matrix_raw(net)) \
            == Matrix([[Fraction(3, 2), 0], [0, 0]])


class TestDisjointPathOracle:
    def test_symbolic_23_23(self):
        net, v = symbolic_standard_3()
        got = disjoint_path_minor(net, MinorSpec((2, 3), (2, 3)))
        b, c, d, e, f, g, h = (v[x] for x in "bcdefgh")
        assert got == b * c * d * e * g * h + b * d * f * h + f * e

    def test_single_path_count(self):
        net = standard_network(3)
        assert disjoint_path_minor(net, MinorSpec((1,), (3,))) == 1
        # independent enumeration of source-1 -> sink-3 paths
        paths = enumerate_paths(net, net.sources[0], net.sinks[2])
        assert len(paths) == 1 and paths[0][1] == 1

    def test_lindstrom_on_random_networks(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.choice([2, 3])
            cols = rng.randint(1, 3)
            net = rand_network(rng, n, cols)
            wm = weight_matrix(net)
            for spec in all_minor_specs(n):
                assert minor(wm, spec) == disjoint_path_minor(net, spec)

    def test_signed_path_collections_give_determinant(self):
        # Independent check of the cancellation behind the path oracle: the
        # full signed sum over path collections equals the determinant.
        import itertools
        rng = random.Random(9)
        for _ in range(10):
            n = rng.choice([2, 3])
            net = rand_network(rng, n, rng.randint(1, 2))
            paths = [[enumerate_paths(net, net.sources[i], net.sinks[j])
                      for j in range(n)] for i in range(n)]
            total = Fraction(0)
            for perm in itertools.permutations(range(n)):
                inversions = sum(1 for a, b in itertools.combinations(
                    range(n), 2) if perm[a] > perm[b])
                sign = -1 if inversions % 2 else 1
                for chosen in itertools.product(
                        *(paths[i][perm[i]] for i in range(n))):
                    weight = Fraction(1)
                    for _, w in chosen:
                        weight *= w
                    total += sign * weight
            assert total == weight_matrix(net).det()


class TestTotalConnectivity:
    def test_standard_network(self):
        for n in (1, 2, 3):
            assert is_totally_connected(standard_network(n))

    def test_diagonal_network_is_not(self):
        n = 2
        vertices = [(x, level) for x in range(2) for level in range(1, n + 1)]
        index = {v: k for k, v in enumerate(vertices)}
        edges = [(index[(0, level)], index[(1, level)], 1)
                 for level in range(1, n + 1)]
        net = PlanarNetwork(n, tuple(vertices), tuple(edges))
        assert not is_totally_connected(net)

    def test_positive_weights_totally_connected_is_tp(self):
        rng = random.Random(31)
        for n in (2, 3):
            net = standard_network(
                n, [rand_positive(rng) for _ in range(n * n)])
            assert is_totally_connected(net)
            assert is_tp_bruteforce(weight_matrix(net))

    def test_nonnegative_weights_give_tnn(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.choice([2, 3])
            weights = [rng.choice([Fraction(0), rand_positive(rng)])
                       for _ in range(n * n - n)]
            weights2 = [rand_positive(rng) for _ in range(n)]
            # slant weights may vanish; the diagonal chip weights must not
            word = staircase_scheme(n)
            params = []
            k = 0
            for letter in word:
                if letter.kind == "diag":
                    params.append(weights2[letter.index - 1])
                else:
                    params.append(weights[k])
                    k += 1
            net = chips_of_word(word, params, n)
            assert is_tnn_bruteforce(weight_matrix(net))


KINDS = ("upper", "lower", "diag")
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
WEIGHTS = st.one_of(st.integers(-9, 9), FRACTIONS, FRACTIONS.map(str))


@st.composite
def chip_words(draw, faulty=False):
    """(word, params, n) on n = 1..5: letters of every kind n allows, int,
    str and `Fraction` weights, diag weights nonzero.  With ``faulty``,
    letters of every kind may lie one past their range and diag weights
    may be zero."""
    n = draw(st.integers(1, 5))
    kinds = KINDS if n > 1 or faulty else ("diag",)
    word, params = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        top = n if kind == "diag" else n - 1
        word.append(Letter(kind, draw(st.integers(1, top + faulty))))
        t = draw(WEIGHTS)
        params.append(1 if kind == "diag" and not faulty and Fraction(t) == 0
                      else t)
    return tuple(word), params, n


def layout_or_error(make):
    """A network's fields with its weight types, or the `NetworkError`
    raised instead."""
    try:
        net = make()
    except NetworkError as exc:
        return str(exc)
    return (net.n, net.vertices, net.edges, net.essential,
            [type(w) for *_, w in net.edges])


def glued_chips(build, word, params, n):
    """The chips of a word, each built by ``build``, glued by
    `concatenate`; the neutral column for the empty word."""
    if not word:
        return build(diag(1), 1, n)
    return concatenate(*(build(letter, t, n)
                         for letter, t in zip(word, params)))


class TestChips:
    @settings(deadline=None, max_examples=200)
    @given(chip_words())
    def test_one_pass_layout_equals_glued_chips(self, case):
        word, params, n = case
        net = chips_of_word(word, params, n)
        fields = layout_or_error(lambda: net)
        assert fields == layout_or_error(
            lambda: glued_chips(chip, word, params, n))
        assert fields == layout_or_error(
            lambda: glued_chips(oracle_chip, word, params, n))
        assert PlanarNetwork(net.n, net.vertices, net.edges,
                             net.essential) == net
        if word:
            assert weight_matrix(net) == product_map(word, params, n)

    @settings(deadline=None, max_examples=200)
    @given(chip_words(faulty=True))
    def test_one_pass_layout_raises_as_glued_chips(self, case):
        # the first bad letter in word order is named, out of range or a
        # diag at weight 0
        word, params, n = case
        assert layout_or_error(lambda: chips_of_word(word, params, n)) \
            == layout_or_error(lambda: glued_chips(chip, word, params, n))

    def test_layout_error_messages(self):
        for word, params, n, message in (
                ((upper(5), diag(1)), [0], 3,
                 "word/parameter length mismatch"),
                ((upper(5), diag(1)), [1, 0], 3,
                 "letter 5 out of range for n=3"),
                ((diag(1), upper(5)), ["0", 1], 3,
                 "diag chip requires a nonzero weight"),
                ((upper(1), lower(3)), [1, 1], 3,
                 "letter 3~ out of range for n=3"),
                ((diag(4),), [0], 3, "letter @4 out of range for n=3"),
                ((), [], 0, "letter @1 out of range for n=0")):
            with pytest.raises(NetworkError, match=f"^{message}$"):
                chips_of_word(word, params, n)

    def test_chip_matrices(self):
        assert weight_matrix(chip(upper(1), Fraction(7), 2)) \
            == Matrix([[1, 7], [0, 1]])
        assert weight_matrix(chip(lower(1), Fraction(7), 2)) \
            == Matrix([[1, 0], [7, 1]])
        assert weight_matrix(chip(diag(2), Fraction(7), 2)) \
            == Matrix([[1, 0], [0, 7]])

    def test_diag_chip_rejects_zero(self):
        with pytest.raises(NetworkError):
            chip(diag(1), 0, 2)

    def test_mismatched_sizes_cannot_concatenate(self):
        with pytest.raises(NetworkError):
            concatenate(chip(upper(1), 1, 2), chip(upper(1), 1, 3))

    def test_chips_equal_validated_networks(self):
        for n in (1, 2, 3, 4):
            letters = [diag(i) for i in range(1, n + 1)]
            letters += [f(i) for i in range(1, n) for f in (upper, lower)]
            for letter in letters:
                for t in (Fraction(-3, 2), 7, "5/3"):
                    net = chip(letter, t, n)
                    assert net == PlanarNetwork(net.n, net.vertices,
                                                net.edges, net.essential)

    def test_mismatched_boundary_levels_cannot_concatenate(self):
        # sinks on levels 1 and 3 against chip sources on levels 1 and 2
        gapped = PlanarNetwork(2, ((0, 1), (0, 2), (1, 1), (1, 3)),
                               ((0, 2, 1), (1, 3, 1)))
        for nets in ((gapped, chip(upper(1), 1, 2)),
                     (chip(lower(1), 1, 2), gapped, chip(diag(1), 2, 2))):
            with pytest.raises(NetworkError,
                               match="boundary levels do not match"):
                concatenate(*nets)

    def test_concatenate_many_equals_pairwise_fold(self):
        rng = random.Random(9)
        for n in (1, 2, 3):
            letters = [diag(1)] + ([upper(n - 1), lower(1)] if n > 1 else [])
            a = standard_network(n, [rand_positive(rng)
                                     for _ in range(n * n)])
            b, c = (chip(rng.choice(letters), rand_positive(rng), n)
                    for _ in range(2))
            assert concatenate(a, b, c) \
                == concatenate(concatenate(a, b), c)
            assert concatenate(a) == a

    def test_four_chip_worked_example(self):
        word = parse_word("@1 1~ @2 1")
        t = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
        net = chips_of_word(word, t, 2)
        assert weight_matrix(net) == Matrix([[2, 2 * 7], [3, 3 * 7 + 5]])

    def test_concatenation_multiplies_weight_matrices(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            letters = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.choice(["upper", "lower", "diag"])
                top = n if kind == "diag" else n - 1
                letters.append(Letter(kind, rng.randint(1, top)))
            params = [rand_positive(rng) for _ in letters]
            net = chips_of_word(tuple(letters), params, n)
            assert weight_matrix(net) == product_map(tuple(letters), params, n)


    @settings(deadline=None, max_examples=100)
    @given(st.randoms(use_true_random=False), st.integers(1, 4),
           st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_glued_random_networks_equal_their_revalidation(self, rng, n,
                                                            widths):
        nets = [rand_network(rng, n, cols) for cols in widths]
        glued = concatenate(*nets)
        again = PlanarNetwork(glued.n, glued.vertices, glued.edges,
                              glued.essential)
        assert again == glued
        product = weight_matrix(nets[0])
        for net in nets[1:]:
            product = product * weight_matrix(net)
        assert weight_matrix(glued) == product


class TestStandardNetwork:
    def test_essential_edge_count(self):
        for n in (1, 2, 3, 4):
            assert len(standard_network(n).essential) == n * n

    def test_equals_revalidated_network(self, monkeypatch):
        rng = random.Random(10)
        validated = []
        check = PlanarNetwork._validate_planarity
        monkeypatch.setattr(PlanarNetwork, "_validate_planarity",
                            lambda net: validated.append(net) or check(net))
        for n in range(1, 7):
            t = [rand_positive(rng) for _ in range(n * n)]
            net = standard_network(n, t)
            assert validated == []  # chips and their gluing are trusted
            again = PlanarNetwork(net.n, net.vertices, net.edges,
                                  net.essential)
            assert validated == [again]
            assert again == net and again.essential == net.essential
            assert weight_matrix(again) == product_map(
                staircase_scheme(n), t, n)
            validated.clear()

    def test_single_edge_for_n1(self):
        net = standard_network(1, [Fraction(5)])
        assert weight_matrix(net) == Matrix([[5]])
        assert len(net.essential) == 1

    def test_validation_rejects_crossing_slants(self):
        vertices = ((0, 1), (0, 2), (1, 1), (1, 2))
        edges = ((0, 3, Fraction(1)), (1, 2, Fraction(1)))
        with pytest.raises(NetworkError):
            PlanarNetwork(2, vertices, edges)

    def test_validation_rejects_vertex_on_edge(self):
        vertices = ((0, 1), (1, 1), (2, 1))
        edges = ((0, 2, Fraction(1)),)
        with pytest.raises(NetworkError):
            PlanarNetwork(1, vertices, edges)


def planarity_error(check, vertices, edges):
    """The text of the `NetworkError` that check raises, or None."""
    try:
        check(vertices, edges)
    except NetworkError as exc:
        return str(exc)
    return None


def build(vertices, edges):
    PlanarNetwork(max(1, sum(1 for x, _ in vertices if x == 0)),
                  vertices, edges)


@st.composite
def grid_networks(draw):
    """Full source and sink columns, a few inner vertices (some above the
    top level), and random left-to-right edges: many cross, touch or run
    through a vertex."""
    n = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    vertices = [(x, level) for x in (0, width) for level in range(1, n + 1)]
    if width > 1:
        inner = st.tuples(st.integers(1, width - 1), st.integers(1, n + 1))
        vertices += draw(st.lists(inner, max_size=6, unique=True))
    order = draw(st.permutations(range(len(vertices))))
    vertices = tuple(vertices[k] for k in order)
    pairs = [(u, v) for u in range(len(vertices)) for v in range(len(vertices))
             if vertices[u][0] < vertices[v][0]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10))
    return vertices, tuple((u, v, Fraction(1)) for u, v in edges)


class TestPlanarityOracle:
    def test_random_networks_pass_both(self):
        rng = random.Random(95)
        for _ in range(20):
            net = rand_network(rng, rng.randint(1, 5), rng.randint(1, 6))
            assert planarity_error(oracle_validate_planarity, net.vertices,
                                   net.edges) is None

    def test_crossing_and_touching_examples(self):
        cases = [
            # slants crossing inside a column
            (((0, 1), (0, 2), (1, 1), (1, 2)),
             ((0, 3), (1, 2))),
            # a long edge through a vertex
            (((0, 1), (1, 1), (2, 1)), ((0, 2),)),
            # the same edge and a colinear edge overlapping it
            (((0, 1), (1, 1), (2, 1)), ((0, 2), (0, 1))),
            # two edges touching at an inner point of one of them
            (((0, 1), (0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (1, 2)),
             ((0, 5), (6, 4), (1, 6))),
            # a long slant crossing a later, shorter one
            (((0, 1), (0, 2), (3, 1), (3, 2), (1, 2), (2, 1)),
             ((0, 3), (4, 5), (1, 4), (5, 2))),
        ]
        for vertices, pairs in cases:
            edges = tuple((u, v, Fraction(1)) for u, v in pairs)
            expected = planarity_error(oracle_validate_planarity, vertices,
                                       edges)
            assert expected is not None
            assert planarity_error(build, vertices, edges) == expected

    @settings(deadline=None, max_examples=300)
    @given(grid_networks())
    def test_matches_all_pairs_oracle(self, case):
        vertices, edges = case
        assert planarity_error(build, vertices, edges) \
            == planarity_error(oracle_validate_planarity, vertices, edges)
