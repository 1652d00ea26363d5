"""Double wiring diagrams, chambers, moves, and the move graph."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.diagrams import (DiagramError, DoubleWiringDiagram,
                             bounded_chambers, chamber_key, chamber_layout,
                             chamber_minors, enumerate_move_graph,
                             local_moves, minimal_diagram, moves_from_word,
                             unbounded_chambers)
from totpos.matrices import initial_minor_specs, minor
from totpos.words import diag, lower, upper

from util import (oracle_chamber_key, oracle_chamber_layout,
                  oracle_local_moves, oracle_move_graph,
                  oracle_moves_from_word, rand_matrix, rand_tp)

RUNNING_EXAMPLE = "2~ 1 2 1~ 2~ 1"


def spec_set(specs):
    return sorted((s.rows, s.cols) for s in specs)


class TestChamberMinors:
    def test_running_example_list(self):
        d = DoubleWiringDiagram.from_text(RUNNING_EXAMPLE)
        expected = [
            ((3,), (1,)), ((3,), (2,)), ((1,), (2,)), ((1,), (3,)),
            ((2, 3), (1, 2)), ((1, 3), (1, 2)), ((1, 3), (2, 3)),
            ((1, 2), (2, 3)), ((1, 2, 3), (1, 2, 3)),
        ]
        assert spec_set(chamber_minors(d)) == sorted(expected)

    def test_running_example_bounded(self):
        d = DoubleWiringDiagram.from_text(RUNNING_EXAMPLE)
        assert spec_set(bounded_chambers(d)) == sorted([
            ((3,), (2,)), ((1,), (2,)), ((1, 3), (1, 2)), ((1, 3), (2, 3)),
        ])

    def test_minimal_diagram_gives_initial_minors(self):
        for n in (1, 2, 3, 4):
            d = minimal_diagram(n)
            assert spec_set(chamber_minors(d)) \
                == spec_set(initial_minor_specs(n))

    def test_single_chamber_for_n1(self):
        d = DoubleWiringDiagram((), 1)
        assert spec_set(chamber_minors(d)) == [((1,), (1,))]
        assert bounded_chambers(d) == []

    def test_chamber_count_is_n_squared(self):
        rng = random.Random(51)
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            d = random_diagram(rng, n)
            assert len(chamber_minors(d)) == n * n

    def test_unbounded_chambers_are_fixed(self):
        # the peripheral chambers are the antiprincipal minors plus the
        # determinant, for every diagram of the same size
        rng = random.Random(52)
        for n in (2, 3, 4):
            expected = set()
            for i in range(1, n):
                expected.add((tuple(range(n - i + 1, n + 1)),
                              tuple(range(1, i + 1))))
                expected.add((tuple(range(1, i + 1)),
                              tuple(range(n - i + 1, n + 1))))
            expected.add((tuple(range(1, n + 1)), tuple(range(1, n + 1))))
            for _ in range(8):
                d = random_diagram(rng, n)
                got = {(s.rows, s.cols) for s in unbounded_chambers(d)}
                assert got == expected

    def test_validation(self):
        with pytest.raises(DiagramError):
            DoubleWiringDiagram((upper(1), upper(1)), 2)  # crosses twice
        with pytest.raises(DiagramError):
            DoubleWiringDiagram((upper(1), lower(1)), 3)  # too few crossings


def random_diagram(rng: random.Random, n: int) -> DoubleWiringDiagram:
    from totpos.words import Permutation, reduced_words
    words = list(reduced_words(Permutation.reversal(n)))
    lw = [lower(i) for i in rng.choice(words)]
    uw = [upper(i) for i in rng.choice(words)]
    merged = []
    while lw or uw:
        pool = lw if (lw and (not uw or rng.random() < 0.5)) else uw
        merged.append(pool.pop(0))
    return DoubleWiringDiagram(tuple(merged), n)


def all_diagram_words(n: int):
    """Exhaustive shuffle oracle: every diagram word of size n."""
    from totpos.words import Permutation, reduced_words
    words = list(reduced_words(Permutation.reversal(n)))
    length = n * (n - 1) // 2
    for lw in words:
        for uw in words:
            for positions in itertools.combinations(range(2 * length),
                                                    length):
                slots: list = [None] * (2 * length)
                for p, h in zip(positions, lw):
                    slots[p] = lower(h)
                rest = iter(uw)
                for k in range(2 * length):
                    if slots[k] is None:
                        slots[k] = upper(next(rest))
                yield tuple(slots)


class TestLocalMoves:
    def test_each_move_changes_one_chamber(self):
        d = minimal_diagram(3)
        for move in local_moves(d):
            before = sorted(map(str, chamber_minors(
                DoubleWiringDiagram(move.word, 3))))
            after = sorted(map(str, chamber_minors(
                DoubleWiringDiagram(move.result, 3))))
            before.remove(str(move.y))
            after.remove(str(move.z))
            assert before == after

    def test_minimal_diagram_has_moves_of_each_kind(self):
        kinds = {m.kind for m in local_moves(minimal_diagram(3))}
        assert kinds == {"braid-upper", "braid-lower", "mixed"}

    def test_move_applied_twice_returns_original(self):
        d = minimal_diagram(3)
        for move in local_moves(d):
            back = [m for m in moves_from_word(move.result, 3)
                    if m.pos == move.pos and m.result == move.word]
            assert back, move

    def test_exchange_identity_on_random_matrices(self):
        rng = random.Random(53)
        d = DoubleWiringDiagram.from_text(RUNNING_EXAMPLE)
        moves = local_moves(d)
        for _ in range(25):
            x = rand_matrix(rng, 3)
            for move in moves:
                below = minor(x, move.d) if move.d else Fraction(1)
                assert (minor(x, move.a) * minor(x, move.c)
                        + minor(x, move.b) * below
                        == minor(x, move.y) * minor(x, move.z))

    def test_subtraction_free_reconstruction(self):
        # the new chamber minor is (a*c + b*d) / y: positive at TP points
        rng = random.Random(54)
        d = minimal_diagram(3)
        for _ in range(10):
            x = rand_tp(rng, 3)
            for move in local_moves(d):
                below = minor(x, move.d) if move.d else Fraction(1)
                value = (minor(x, move.a) * minor(x, move.c)
                         + minor(x, move.b) * below) / minor(x, move.y)
                assert value == minor(x, move.z)
                assert value > 0

    def test_moves_of_one_call_share_words_and_specs(self):
        # one letter tuple per distinct word and one spec per chamber,
        # within each call
        d = minimal_diagram(4)
        for moves in (local_moves(d), moves_from_word(d.word, 4),
                      [move for *_, move in enumerate_move_graph(3).edges]):
            words = [w for m in moves for w in (m.word, m.result)]
            assert len({id(w) for w in words}) == len(set(words))
            specs = [s for m in moves for s in (m.y, m.z, m.a, m.b, m.c, m.d)
                     if s is not None]
            assert len({id(s) for s in specs}) == len(set(specs))

    def test_from_text_infers_n_from_the_crossings(self):
        assert DoubleWiringDiagram.from_text(RUNNING_EXAMPLE).n == 3
        assert DoubleWiringDiagram.from_text("").n == 1
        with pytest.raises(DiagramError, match="letter @3 is not a crossing"):
            DoubleWiringDiagram.from_text("1~ @3 1")

    def test_guard_raises_before_the_class_walk(self):
        # the minimal diagram's class at n = 5 is far too large to walk in
        # a test; the guard has to stop it before the walk starts
        with pytest.raises(DiagramError, match="n=5 exceeds 4"):
            local_moves(minimal_diagram(5))

    def test_raised_guard_walks_a_small_class(self):
        # a commutation class of 4 words; random n = 5 diagrams have 1190
        # and up
        d = DoubleWiringDiagram.from_text(
            "2~ 3~ 2~ 1~ 2~ 3~ 4~ 3~ 2~ 1~ 2 1 2 3 4 3 2 3 1 2")
        moves = local_moves(d, guard=5)
        assert len(moves) == 24
        assert moves == oracle_local_moves(d)


class TestMoveGraph:
    def test_sizes(self):
        assert enumerate_move_graph(1).vertex_count == 1
        assert enumerate_move_graph(2).vertex_count == 2
        assert enumerate_move_graph(3).vertex_count == 34

    def test_exhaustive_shuffle_oracle(self):
        # group every diagram word by chamber multiset and compare with the
        # breadth-first closure
        for n in (2, 3):
            classes = {chamber_key(DoubleWiringDiagram(w, n))
                       for w in all_diagram_words(n)}
            graph = enumerate_move_graph(n)
            assert set(graph.keys) == classes

    def test_vertex_labels_match_catalog(self):
        # bounded-chamber quadruples of the 34 classes
        legend = {
            "a": ((1,), (1,)), "b": ((1,), (2,)), "c": ((2,), (1,)),
            "d": ((2,), (2,)), "e": ((2,), (3,)), "f": ((3,), (2,)),
            "g": ((3,), (3,)),
            "A": ((2, 3), (2, 3)), "B": ((2, 3), (1, 3)),
            "C": ((1, 3), (2, 3)), "D": ((1, 3), (1, 3)),
            "E": ((1, 3), (1, 2)), "F": ((1, 2), (1, 3)),
            "G": ((1, 2), (1, 2)),
        }
        catalog = """abcG acFG ceFG cdeG bcdG bdfG bfEG abEG defG bcdA cdeA
            defA bdfA efgA egAB ceAB ceBF bfCE bfAC fgAC aEFG egBF acBF abCE
            fgCE aDEF aBDF aCDE gDEF aBCD gBDF gCDE gBCD gABC""".split()
        expected = {frozenset(legend[c] for c in label) for label in catalog}
        graph = enumerate_move_graph(3)
        got = {frozenset((s.rows, s.cols) for s in bounded_chambers(
            DoubleWiringDiagram(graph.representatives[key], 3)))
            for key in graph.keys}
        assert len(expected) == 34
        assert got == expected

    def test_guard(self):
        with pytest.raises(DiagramError):
            enumerate_move_graph(5)

    def test_n4_regression_pin(self):
        # a regression pin, not a literature fact: the oracle comparison
        # stops at n = 3, and these counts and this digest of the classes,
        # representatives and witness moves were read off this
        # implementation, identically on Python 3.10, 3.11 and 3.13
        graph = enumerate_move_graph(4)
        assert (graph.vertex_count, graph.edge_count) == (4894, 16650)
        dump = repr((graph.keys, list(graph.representatives.items()),
                     graph.edges))
        assert hashlib.sha256(dump.encode()).hexdigest() == (
            "002f79a79c0035a9d33226d173f31850c6d5aaded677ad7e3f39770da00cdd35")


class TestAgainstOracle:
    """The int-coded move finder against the Letter-based one in `util`,
    object for object, witness moves included."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_move_graph(self, n):
        got, want = enumerate_move_graph(n), oracle_move_graph(n)
        assert got.keys == want.keys
        assert list(got.representatives.items()) \
            == list(want.representatives.items())
        assert got.edges == want.edges

    @settings(deadline=None, max_examples=120)
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_random_diagrams(self, n, seed):
        d = random_diagram(random.Random(seed), n)
        key = chamber_key(d)
        assert key == oracle_chamber_key(d)
        assert chamber_layout(d) == oracle_chamber_layout(d)
        moves = moves_from_word(d.word, n)
        assert moves == oracle_moves_from_word(d.word, n)
        # a class at n = 5 holds up to millions of words (1190 to 3.0M in
        # 40 random diagrams), so the whole-class finder is compared up to
        # n = 4 only
        if n <= 4:
            class_moves = local_moves(d)
            assert class_moves == oracle_local_moves(d)
            moves = moves + class_moves
        for move in moves:
            bag = list(key)
            bag.remove((move.y.rows, move.y.cols))
            bag.append((move.z.rows, move.z.cols))
            result = DoubleWiringDiagram(move.result, n)
            assert oracle_chamber_key(result) == tuple(sorted(bag)) != key

    def test_walk_from_minimal_diagram(self):
        rng = random.Random(58)
        d = minimal_diagram(4)
        for _ in range(4):
            moves = local_moves(d)
            assert moves == oracle_local_moves(d)
            d = DoubleWiringDiagram(rng.choice(moves).result, 4)
        assert local_moves(d) == oracle_local_moves(d)

    def test_moves_from_word_rejects_non_crossings(self):
        with pytest.raises(DiagramError):
            moves_from_word((lower(1), diag(1), upper(1)), 2)
        with pytest.raises(DiagramError):
            moves_from_word((lower(2),), 2)
