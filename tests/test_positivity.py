"""Positivity criteria, efficient tests, oscillation, and cell type."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import totpos.positivity as pv
from totpos.diagrams import DoubleWiringDiagram, enumerate_move_graph
from totpos.matrices import Matrix, MinorSpec, minor
from totpos.positivity import (GuardExceeded, NotApplicableError, bruhat_type,
                               failing_minors, is_oscillatory,
                               is_tnn_bruteforce, is_tp_bruteforce,
                               tnn_efficient_report, tnn_efficient_specs,
                               tnn_neville_report)
from totpos.positivity import test_chamber_minors as chamber_criterion
from totpos.positivity import test_fekete_solid as fekete_criterion
from totpos.positivity import test_initial_minors as initial_criterion
from totpos.positivity import test_tnn_efficient as tnn_efficient_criterion
from totpos.positivity import test_tp_given_tnn as tp_given_tnn_criterion
from totpos.words import Permutation, diag, lower, product_map, upper

from util import (oracle_bruhat_type, oracle_tnn_efficient_specs,
                  rand_matrix, rand_positive, rand_tnn_invertible, rand_tp,
                  rand_typed_scheme)

UNIT3 = Matrix([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
PASCAL5 = Matrix([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 2, 1, 0, 0],
                  [1, 3, 3, 1, 0], [1, 4, 6, 4, 1]])


class TestBruteForce:
    def test_unit_weight_matrix_is_tp(self):
        assert is_tp_bruteforce(UNIT3)
        assert is_tnn_bruteforce(UNIT3)

    def test_pascal_is_tnn_not_tp(self):
        assert is_tnn_bruteforce(PASCAL5)
        assert not is_tp_bruteforce(PASCAL5)

    def test_identity(self):
        assert is_tnn_bruteforce(Matrix.identity(3))
        assert not is_tp_bruteforce(Matrix.identity(3))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            is_tp_bruteforce(Matrix.identity(7))
        assert not is_tp_bruteforce(Matrix.identity(7), guard=7)


class TestCriteria:
    def test_initial_on_examples(self):
        assert initial_criterion(UNIT3)
        assert not initial_criterion(Matrix([[1, 1], [1, 1]]))
        assert not initial_criterion(Matrix([[1, 1], [0, 2]]))

    def test_fekete_on_examples(self):
        assert fekete_criterion(Matrix([[2]]))
        assert not fekete_criterion(Matrix.identity(2))

    def test_chamber_on_running_example(self):
        d = DoubleWiringDiagram.from_text("2~ 1 2 1~ 2~ 1")
        assert chamber_criterion(UNIT3, d)
        assert not chamber_criterion(Matrix.identity(3), d)

    def test_chamber_rejects_size_mismatch(self):
        d = DoubleWiringDiagram.from_text("1~ 1", 2)
        with pytest.raises(ValueError):
            chamber_criterion(UNIT3, d)

    def test_one_by_one(self):
        d = DoubleWiringDiagram((), 1)
        assert not chamber_criterion(Matrix([[0]]), d)
        assert chamber_criterion(Matrix([[2]]), d)

    def test_equivalence_on_random_matrices(self):
        rng = random.Random(61)
        graph = enumerate_move_graph(3)
        diagrams = [DoubleWiringDiagram(graph.representatives[k], 3)
                    for k in graph.keys]
        for trial in range(60):
            x = rand_tp(rng, 3) if trial % 3 == 0 else rand_matrix(rng, 3)
            reference = is_tp_bruteforce(x)
            assert initial_criterion(x) == reference
            assert fekete_criterion(x) == reference
            for d in diagrams:
                assert chamber_criterion(x, d) == reference


class TestEfficientTnn:
    def test_counts(self):
        for n in range(2, 7):
            assert len(tnn_efficient_specs(n)) == 2 ** (n + 1) - n - 2
        assert len(tnn_efficient_specs(3)) == 11

    def test_specs_match_the_oracle_in_order(self):
        # witnesses are reported in spec order, so the order is pinned too
        for n in range(1, 11):
            assert tnn_efficient_specs(n) == oracle_tnn_efficient_specs(n)

    def test_positive_chip_products_pass(self):
        rng = random.Random(62)
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            x = rand_tnn_invertible(rng, n)
            verdict, checked = tnn_efficient_criterion(x)
            assert verdict
            assert checked == 2 ** (n + 1) - n - 2

    def test_negative_entry_fails(self):
        # in the last two the negative entry, below the first row in the
        # first column, is the family's only negative minor
        for x in (Matrix([[1, 0], [0, -1]]), Matrix([[1, 0], [-1, 1]]),
                  Matrix([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])):
            verdict, _ = tnn_efficient_criterion(x)
            assert not verdict

    def test_agreement_with_brute_force(self):
        rng = random.Random(63)
        done = 0
        while done < 40:
            n = rng.choice([2, 3, 4])
            x = rand_tnn_invertible(rng, n) if done % 2 \
                else rand_matrix(rng, n)
            if x.det() == 0:
                continue
            verdict, _ = tnn_efficient_criterion(x)
            assert verdict == is_tnn_bruteforce(x)
            done += 1

    def test_rejects_singular(self):
        with pytest.raises(NotApplicableError):
            tnn_efficient_criterion(Matrix([[1, 1], [1, 1]]))

    def test_guard(self, monkeypatch):
        assert tnn_efficient_criterion(UNIT3, guard=3) == (True, 11)
        # above the guard nothing of the family is built
        monkeypatch.setattr(pv, "tnn_efficient_specs", None)
        monkeypatch.setattr(pv, "minor_family", None)
        for call in (lambda: tnn_efficient_criterion(UNIT3, guard=2),
                     lambda: pv.tnn_efficient_report(UNIT3, guard=2),
                     lambda: tnn_efficient_criterion(Matrix.identity(17))):
            with pytest.raises(GuardExceeded) as raised:
                call()
            assert "efficient TNN test is guarded" in str(raised.value)

    def test_singular_message_without_a_separate_determinant(self, monkeypatch):
        # invertibility is read off the family's last minor, [1..n|1..n]
        monkeypatch.setattr(Matrix, "det", None)
        for x in (Matrix([[0]]), Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]]),
                  Matrix([[2, 1, 0], [1, 1, 0], [3, 5, 0]])):
            with pytest.raises(NotApplicableError) as raised:
                tnn_efficient_criterion(x)
            assert str(raised.value) == (
                "matrix is singular; the efficient criterion requires an "
                "invertible input -- use the brute-force test")
        assert tnn_efficient_criterion(UNIT3) == (True, 11)

    def test_leading_principal_zero_fails(self):
        # TNN but with a vanishing leading principal minor is impossible for
        # invertible TNN; a non-TNN invertible witness with zero corner:
        verdict, _ = tnn_efficient_criterion(Matrix([[0, 1], [1, 0]]))
        assert not verdict


class TestTnnWitnesses:
    """Every negative efficient or Neville TNN verdict names a negative
    minor, also when the efficient family has none and the verdict rests
    on a zero leading principal minor."""

    ZERO_CORNER = Matrix([[0, 0, 1], [0, -1, -1], [1, -1, -1]])

    def check(self, x):
        efficient = failing_minors(x, tnn_efficient_specs(x.n), strict=False)
        for report in (tnn_efficient_report, tnn_neville_report):
            verdict, _, witnesses = report(x)
            assert verdict == is_tnn_bruteforce(x, guard=x.n)
            assert verdict == (not witnesses)
            assert all(value == minor(x, spec) < 0
                       for spec, value in witnesses)
        if efficient:
            assert tnn_efficient_report(x)[2] == efficient

    def test_zero_leading_minor_without_a_negative_family_minor(self):
        x = self.ZERO_CORNER
        assert failing_minors(x, tnn_efficient_specs(3), strict=False) == []
        witness = [(MinorSpec((1, 3), (1, 3)), -1)]
        assert tnn_efficient_report(x) == (False, 11, witness)
        assert tnn_neville_report(x) == (False, 9, witness)
        self.check(x)

    def test_every_invertible_two_by_two(self):
        for entries in itertools.product(range(-2, 4), repeat=4):
            x = Matrix([entries[:2], entries[2:]])
            if x.det() != 0:
                self.check(x)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(3, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-1, 2), min_size=n,
                                    max_size=n), min_size=n, max_size=n)))
    def test_small_entries(self, rows):
        x = Matrix(rows)
        assume(x.det() != 0)
        self.check(x)


class TestTpGivenTnn:
    def test_examples(self):
        assert tp_given_tnn_criterion(UNIT3)
        assert not tp_given_tnn_criterion(Matrix.identity(3))
        assert not tp_given_tnn_criterion(PASCAL5)

    def test_agreement_on_tnn_instances(self):
        rng = random.Random(64)
        for _ in range(30):
            n = rng.choice([2, 3])
            x = rand_tnn_invertible(rng, n)
            assert tp_given_tnn_criterion(x) == is_tp_bruteforce(x)


class TestMultiplicativity:
    def test_products(self):
        rng = random.Random(65)
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            tnn = rand_tnn_invertible(rng, n)
            tnn2 = rand_tnn_invertible(rng, n)
            tp = rand_tp(rng, n)
            assert is_tnn_bruteforce(tnn * tnn2)
            assert is_tp_bruteforce(tnn * tp)
            assert is_tp_bruteforce(tp * tnn)

    def test_leading_principal_minors_positive(self):
        # invertible totally nonnegative implies positive leading minors
        rng = random.Random(66)
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            x = rand_tnn_invertible(rng, n)
            for k in range(1, n + 1):
                spec = MinorSpec(tuple(range(1, k + 1)),
                                 tuple(range(1, k + 1)))
                assert minor(x, spec) > 0


class TestOscillatory:
    def test_tp_is_oscillatory(self):
        for c in "bcd":
            assert is_oscillatory(UNIT3, c)

    def test_identity_is_not(self):
        for c in "bcd":
            assert not is_oscillatory(Matrix.identity(3), c)

    def test_block_sum_of_tp_blocks_is_not(self):
        rng = random.Random(67)
        a = rand_tp(rng, 2)
        block = [[a.entry(1, 1), a.entry(1, 2), 0, 0],
                 [a.entry(2, 1), a.entry(2, 2), 0, 0],
                 [0, 0, a.entry(1, 1), a.entry(1, 2)],
                 [0, 0, a.entry(2, 1), a.entry(2, 2)]]
        x = Matrix(block)
        assert is_tnn_bruteforce(x)
        for c in "bcd":
            assert not is_oscillatory(x, c)

    def test_criteria_agree_on_random_tnn(self):
        rng = random.Random(68)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            x = rand_tnn_invertible(rng, n)
            verdicts = {is_oscillatory(x, c) for c in "bcd"}
            assert len(verdicts) == 1

    def test_words_with_all_slant_indices_both_ways(self):
        rng = random.Random(69)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            letters = ([lower(i) for i in range(1, n)]
                       + [upper(i) for i in range(1, n)]
                       + [diag(i) for i in range(1, n + 1)])
            rng.shuffle(letters)
            x = product_map(tuple(letters),
                            [rand_positive(rng) for _ in letters], n)
            assert all(is_oscillatory(x, c) for c in "bcd")
            assert is_tp_bruteforce(x ** (n - 1))

    def test_rejects_non_tnn(self):
        with pytest.raises(NotApplicableError):
            is_oscillatory(Matrix([[1, -1], [0, 1]]), "b")

    def test_singular_input_without_a_determinant(self, monkeypatch):
        # a failed Neville pass tells singular input apart by a rank pass
        monkeypatch.setattr(Matrix, "det", None)
        for x, message in ((Matrix([[1, 1], [1, 1]]), "for invertible"),
                           (Matrix([[1, -2], [-2, 4]]), "for invertible"),
                           (Matrix([[1, -1], [0, 1]]), "not totally")):
            with pytest.raises(NotApplicableError, match=message):
                is_oscillatory(x, "b")
        for x in (Matrix([[1, 1], [1, 1]]), Matrix([[1, 2, 3], [0, 0, 0],
                                                    [3, 2, 1]])):
            with pytest.raises(NotApplicableError, match="singular"):
                pv.test_tnn_neville(x)
            with pytest.raises(NotApplicableError, match="singular"):
                tnn_neville_report(x)


@st.composite
def degenerate_matrices(draw):
    """Square integer matrices, n = 1..6, of a degenerate kind: entries in
    0/+-1, a permutation matrix, a block-diagonal matrix, a southwest or
    northeast corner of rank below full, or a singular matrix."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["signs", "permutation", "blocks", "corner",
                                 "singular"]))

    def grid(height, width, entries=st.integers(-2, 2)):
        return [[draw(entries) for _ in range(width)] for _ in range(height)]

    if kind == "signs":
        rows = grid(n, n, st.integers(-1, 1))
    elif kind == "permutation":
        images = draw(st.permutations(range(n)))
        rows = [[int(images[i] == j) for j in range(n)] for i in range(n)]
    elif kind == "blocks":
        rows = [[0] * n for _ in range(n)]
        start = 0
        while start < n:
            size = draw(st.integers(1, n - start))
            for a, block_row in enumerate(grid(size, size,
                                               st.integers(-1, 1))):
                rows[start + a][start:start + size] = block_row
            start += size
    elif kind == "corner":
        rows = grid(n, n)
        height, width = draw(st.integers(1, n)), draw(st.integers(1, n))
        rank = draw(st.integers(0, min(height, width) - 1))
        left, right = grid(height, rank), grid(rank, width)
        southwest = draw(st.booleans())
        top, first = (n - height, 0) if southwest else (0, n - width)
        for a in range(height):
            for b in range(width):
                rows[top + a][first + b] = sum(left[a][k] * right[k][b]
                                               for k in range(rank))
    else:
        rows = grid(n, n)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        scale = draw(st.integers(-2, 2))
        rows[i] = [scale * v for v in rows[j]] if i != j else [0] * n
        if draw(st.booleans()):
            rows = [list(col) for col in zip(*rows)]
    return Matrix(rows)


class TestBruhatType:
    def test_tp_has_full_type(self):
        u, v = bruhat_type(UNIT3)
        assert u == Permutation.reversal(3)
        assert v == Permutation.reversal(3)

    def test_identity_has_trivial_type(self):
        u, v = bruhat_type(Matrix.identity(3))
        assert u == Permutation.identity(3)
        assert v == Permutation.identity(3)

    def test_round_trip_with_typed_schemes(self):
        rng = random.Random(70)
        for _ in range(50):
            n = rng.choice([2, 3, 4])
            word, u, v = rand_typed_scheme(rng, n)
            x = product_map(word, [rand_positive(rng) for _ in word], n)
            assert bruhat_type(x) == (u, v)

    def test_rejects_singular(self):
        with pytest.raises(NotApplicableError):
            bruhat_type(Matrix([[1, 1], [1, 1]]))
        for x in (Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]]),
                  Matrix([[0, 0], [0, 0]]), Matrix([[0]])):
            with pytest.raises(NotApplicableError) as raised:
                bruhat_type(x)
            assert str(raised.value) == ("Bruhat type is computed for "
                                         "invertible matrices only")

    def test_matches_rank_per_submatrix_oracle(self):
        rng = random.Random(71)
        cases = []
        for n in range(1, 8):
            cases.append(rand_tp(rng, n))
            for cut in (False, True):
                k = rng.randint(1, n - 1) if cut and n > 1 else 0
                word = ([lower(i) for i in range(1, n) if i != k]
                        + [diag(i) for i in range(1, n + 1)]
                        + [upper(i) for i in range(n - 1, 0, -1) if i != k])
                cases.append(product_map(
                    tuple(word), [rand_positive(rng) for _ in word], n))
            for _ in range(3):
                images = rng.sample(range(n), n)
                cases.append(Matrix([[int(images[i] == j) for j in range(n)]
                                     for i in range(n)]))
                x = rand_matrix(rng, n)
                if x.det() != 0:
                    cases.append(x)
        for x in cases:
            assert bruhat_type(x) == oracle_bruhat_type(x)

    @settings(deadline=None, max_examples=300)
    @given(degenerate_matrices())
    def test_degenerate_inputs_match_oracle(self, x):
        def outcome(bruhat):
            try:
                return bruhat(x)
            except NotApplicableError as raised:
                return "raised", str(raised)

        assert outcome(bruhat_type) == outcome(oracle_bruhat_type)
