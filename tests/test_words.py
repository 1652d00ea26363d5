"""Words, schemes, the product map, and parameter transport."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totpos.matrices import Matrix
from totpos.positivity import is_tp_bruteforce
from totpos.words import (DIAG, Move, Permutation, WordError, _braid_at,
                          _commutes, _encode, _mixed_at,
                          apply_move_word, applicable_moves, diag,
                          elementary_matrix, format_word, infer_n,
                          is_reduced_word, is_reduced_word_for,
                          local_move_transport, lower, move_path,
                          moves_to_staircase, parse_word,
                          permutation_of_word, product_map, reduced_words,
                          staircase_scheme, transport_params, upper,
                          validate_scheme)

import util
from util import (matrix_product_map, oracle_apply_move, oracle_reduced_words,
                  oracle_transport, rand_full_scheme, rand_positive,
                  rand_typed_scheme, rand_walk_full_scheme)

SLANT_PARAMS = st.one_of(st.just(Fraction(0)),
                         st.integers(-3, 3).map(Fraction),
                         st.builds(Fraction, st.integers(-9, 9),
                                   st.integers(1, 6)))
DIAG_PARAMS = SLANT_PARAMS.filter(bool)


# moves_to_staircase output for three schemes, braid and mixed moves included
PINNED_ROUTES = {
    "2~ 1 @3 2 1~ @1 2~ 1 @2":
        "s2 s3 s4 s5 s6 s7 s2 s3 s2 s6 s5 s4 s3 m1 s2 s3 s4 s5 s6 s7 s2 s3 "
        "s4 s5 s6 s7 s7 s6 s5 s4 s6 s5 m3 s2 s7 s6 s5 s4 s3 s4 s5 b6",
    "3~ 2~ 3~ 1~ @1 2~ 3 @2 3~ @3 @4 2 3 1 2 3":
        "s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14 s6 s7 s8 s9 s10 s11 s12 "
        "s13 s14 s6 s7 m5 s13 s12 s11 s10 s9 s8 s7 s6 s14 s13 s12 s11 s10 "
        "s9 s8 s7",
    "2~ 3~ 2~ 1~ 2~ 3~ @2 @1 @3 @4 3 2 3 1 2 3": "b0 s6",
}


@st.composite
def transport_cases(draw):
    """(scheme, params, moves): a random full scheme with n = 2..6, slant
    parameters that may be zero or negative, diag parameters that are
    nonzero but for one case in eight, and up to 30 moves, most applicable
    where they come and the rest random, unknown kinds and positions out of
    range included; or, for n <= 5, the route to the staircase."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 6))
    scheme = rand_walk_full_scheme(rng, n)
    zero_diags = draw(st.integers(0, 7)) == 0
    params = [draw(SLANT_PARAMS if letter.kind != DIAG or zero_diags
                   else DIAG_PARAMS) for letter in scheme]
    if n <= 5 and draw(st.integers(0, 3)) == 0:
        return scheme, params, moves_to_staircase(scheme, n)
    moves, word = [], scheme
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 5)):
            move = draw(st.sampled_from(applicable_moves(word)))
        else:
            move = Move(draw(st.sampled_from(["swap", "braid", "mixed",
                                              "flip"])),
                        draw(st.integers(-2, len(word) + 1)))
        moves.append(move)
        try:
            word = oracle_apply_move(word, move)
        except WordError:
            break
    return scheme, params, moves


def outcome(call):
    try:
        word, values = call()
    except WordError as error:
        return type(error), str(error)
    assert all(type(t) is Fraction for t in values)
    return word, [str(t) for t in values]


@st.composite
def words_with_params(draw):
    """(word, params, n) for n = 1..6; slant parameters may be zero or
    negative, diag parameters are nonzero, and the word may be empty."""
    n = draw(st.integers(1, 6))
    kinds = ["diag"] + (["upper", "lower"] if n > 1 else [])
    word, params = [], []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(kinds))
        if kind == "diag":
            word.append(diag(draw(st.integers(1, n))))
            params.append(draw(DIAG_PARAMS))
        else:
            make = upper if kind == "upper" else lower
            word.append(make(draw(st.integers(1, n - 1))))
            params.append(draw(SLANT_PARAMS))
    return tuple(word), params, n


# ratios over many distinct denominators, so the product kernel's columns
# sit over unequal, unreduced denominators
WIDE_PARAMS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))


@st.composite
def long_words_with_params(draw):
    """(word, params, n) for n = 2..5 and 50-150 letters; a slant may be
    followed by its inverse, the same letter at -t, which cancels it."""
    n = draw(st.integers(2, 5))
    size = draw(st.integers(50, 150))
    word, params = [], []
    while len(word) < size:
        kind = draw(st.sampled_from(["diag", "upper", "lower"]))
        if kind == "diag":
            word.append(diag(draw(st.integers(1, n))))
            params.append(draw(WIDE_PARAMS.filter(bool)))
            continue
        letter = (upper if kind == "upper" else lower)(
            draw(st.integers(1, n - 1)))
        t = draw(WIDE_PARAMS)
        word.append(letter)
        params.append(t)
        if draw(st.booleans()):
            word.append(letter)
            params.append(-t)
    return tuple(word), params, n


class TestPermutations:
    def test_reversal_length(self):
        for n in (1, 2, 3, 4, 5):
            assert Permutation.reversal(n).length() == n * (n - 1) // 2

    def test_composition_order(self):
        s1 = Permutation.transposition(3, 1)
        s2 = Permutation.transposition(3, 2)
        assert (s1 * s2).images == (2, 3, 1)

    def test_inverse(self):
        assert Permutation((2, 3, 1)).inverse().images == (3, 1, 2)
        for p in (Permutation((2, 3, 1)), Permutation.reversal(4),
                  Permutation.identity(1)):
            assert p * p.inverse() == p.inverse() * p \
                == Permutation.identity(p.n)

    def test_composition_of_different_sizes(self):
        for p, q in ((Permutation.identity(2), Permutation.identity(3)),
                     (Permutation.reversal(4), Permutation.reversal(3))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                p * q

    @pytest.mark.parametrize("n, i", [(3, 0), (3, 3), (3, -1), (1, 1)])
    def test_transposition_index_out_of_range(self, n, i):
        with pytest.raises(ValueError,
                           match=f"generator {i} out of range for n={n}"):
            Permutation.transposition(n, i)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_point_out_of_range(self, k):
        w = Permutation((2, 3, 1))
        with pytest.raises(ValueError,
                           match=f"point {k} out of range for n=3"):
            w(k)
        assert [w(k) for k in (1, 2, 3)] == [2, 3, 1]

    def test_matrix(self):
        w = Permutation((2, 3, 1))
        m = w.matrix()
        for k in (1, 2, 3):
            assert m.entry(w(k), k) == 1

    def test_one_line(self):
        assert Permutation((3, 1, 2)).one_line() == "[3 1 2]"


class TestReducedWords:
    def test_basic(self):
        assert is_reduced_word((1, 2, 1), 3)
        assert permutation_of_word((1, 2, 1), 3) == Permutation.reversal(3)
        assert not is_reduced_word((1, 1), 3)

    def test_reversal_words_n3(self):
        got = set(reduced_words(Permutation.reversal(3)))
        assert got == {(1, 2, 1), (2, 1, 2)}

    def test_word_for_specific_target(self):
        w = Permutation((2, 1, 3))
        assert is_reduced_word_for((1,), w)
        assert not is_reduced_word_for((2,), w)

    def test_counts(self):
        assert len(list(reduced_words(Permutation.reversal(4)))) == 16

    def test_matches_recursive_oracle_on_s1_to_s5(self):
        for n in range(1, 6):
            for images in itertools.permutations(range(1, n + 1)):
                w = Permutation(images)
                assert list(reduced_words(w)) == list(oracle_reduced_words(w))

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 2), (4, 16),
                                          (5, 768), (6, 292864)])
    def test_stanley_counts_for_the_reversal(self, n, count):
        # Stanley (1984): C(n, 2)! / (1^(n-1) 3^(n-2) ... (2n-3)^1)
        assert sum(1 for _ in reduced_words(Permutation.reversal(n))) == count

    def test_lazy(self):
        words = reduced_words(Permutation.reversal(12))
        assert next(words) == tuple(i for top in range(11, 0, -1)
                                    for i in range(1, top + 1))

    def test_full_list_scheme_sampler_refuses_n7_before_listing(
            self, monkeypatch):
        def refuse(w):
            raise AssertionError("reduced words were listed")

        monkeypatch.setattr(util, "reduced_words", refuse)
        with pytest.raises(ValueError, match="rand_walk_full_scheme"):
            rand_full_scheme(random.Random(7), 7)

    def test_typed_scheme_sampler_refuses_n7_before_any_draw(
            self, monkeypatch):
        def refuse(w):
            raise AssertionError("reduced words were listed")

        monkeypatch.setattr(util, "reduced_words", refuse)
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match="rand_walk_tnn_invertible"):
            rand_typed_scheme(rng, 7)
        assert rng.getstate() == state


class TestLetters:
    def test_parse_and_format(self):
        text = "2~ 1 @3 2 1~ @1 2~ 1 @2"
        assert format_word(parse_word(text)) == text

    def test_infer_n(self):
        assert infer_n(parse_word("@1")) == 1
        assert infer_n(parse_word("3")) == 4
        assert infer_n(parse_word("@4 1")) == 4


class TestLetterCodes:
    """The letter code and the move rules on it, exhaustively over every
    letter of each size n, against the Letter-based oracles in `util`."""

    @staticmethod
    def alphabet(n):
        return ([lower(h) for h in range(1, n)]
                + [upper(h) for h in range(1, n)]
                + [diag(h) for h in range(1, n + 1)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_encode_is_the_diagram_code(self, n):
        letters = self.alphabet(n)
        codes = _encode(letters, n)
        assert len(set(codes)) == len(letters)
        assert _encode([lower(h) for h in range(1, n)], n) \
            == list(range(1, n))
        assert _encode([upper(h) for h in range(1, n)], n) \
            == [n + h for h in range(1, n)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_swap_and_braid_rules(self, n):
        letters = self.alphabet(n)
        code = dict(zip(letters, _encode(letters, n)))
        for a, b in itertools.product(letters, repeat=2):
            assert _commutes(code[a], code[b], n) \
                == util._oracle_swap_ok(a, b), (a, b)
        for word in itertools.product(letters, repeat=3):
            assert _braid_at([code[x] for x in word], 0, n) \
                == util._oracle_braid_ok(word, 0), word

    @pytest.mark.parametrize("n", range(1, 5))
    def test_mixed_rule(self, n):
        # covers (upper i, @i, @i+1, @i), whose last code is upper i + n
        letters = self.alphabet(n)
        code = dict(zip(letters, _encode(letters, n)))
        for word in itertools.product(letters, repeat=4):
            assert _mixed_at([code[x] for x in word], 0, n) \
                == util._oracle_mixed_ok(word, 0), word


class TestElementaryMatrices:
    def test_upper(self):
        assert elementary_matrix(upper(1), Fraction(5), 2) \
            == Matrix([[1, 5], [0, 1]])

    def test_lower_is_transpose_of_upper(self):
        t = Fraction(3, 7)
        assert elementary_matrix(lower(1), t, 2) \
            == elementary_matrix(upper(1), t, 2).transpose()

    def test_diag_at_one_is_identity(self):
        for n in (1, 2, 4):
            assert elementary_matrix(diag(1), 1, n) == Matrix.identity(n)

    def test_diag_rejects_zero(self):
        with pytest.raises(WordError):
            elementary_matrix(diag(1), 0, 2)


class TestProductMap:
    def test_worked_two_by_two(self):
        word = parse_word("@1 1~ @2 1")
        t1, t2, t3, t4 = (Fraction(v) for v in (2, 3, 5, 7))
        assert product_map(word, [t1, t2, t3, t4], 2) \
            == Matrix([[t1, t1 * t4], [t2, t2 * t4 + t3]])

    def test_empty_word(self):
        assert product_map((), [], 3) == Matrix.identity(3)

    def test_zero_slant_parameters_allowed(self):
        word = (upper(1), diag(1), diag(2))
        assert product_map(word, [0, 1, 1], 2) == Matrix.identity(2)

    def test_length_mismatch(self):
        with pytest.raises(WordError):
            product_map((upper(1),), [1, 2], 2)

    @settings(deadline=None)
    @given(words_with_params())
    def test_matches_matrix_product_oracle(self, case):
        word, params, n = case
        assert product_map(word, params, n) \
            == matrix_product_map(word, params, n)

    @settings(deadline=None, max_examples=60)
    @given(long_words_with_params())
    def test_long_words_match_matrix_product_oracle(self, case):
        # the kernel reduces a column only once its denominator has grown,
        # so long words over many denominators, and slants undone by their
        # inverses, check the columns' common denominators and the final
        # reduction
        word, params, n = case
        assert product_map(word, params, n) \
            == matrix_product_map(word, params, n)

    def test_out_of_range_letters(self):
        for word in ((upper(2),), (lower(2),), (diag(3),),
                     (upper(1), diag(3))):
            with pytest.raises(WordError, match="out of range for n=2"):
                product_map(word, [1] * len(word), 2)

    def test_zero_diag_parameter(self):
        with pytest.raises(WordError,
                           match="diag letter @2 is undefined at parameter 0"):
            product_map((upper(1), diag(2), upper(5)), [1, 0, 1], 3)

    def test_out_of_range_letter_before_a_later_zero_diag(self):
        # the mirror of the case above: the first bad letter in word order
        # is named, whichever kind of fault it has
        with pytest.raises(WordError, match="letter 5 out of range for n=3"):
            product_map((upper(5), diag(2)), [1, 0], 3)
        # a diag letter out of range at 0 is named for its range
        with pytest.raises(WordError, match="letter @4 out of range for n=3"):
            product_map((diag(4),), [0], 3)

    def test_mixed_order_scheme_matches_its_chip_network(self):
        from totpos.networks import chips_of_word, weight_matrix
        word = parse_word("2~ 1 @3 2 1~ @1 2~ 1 @2")
        ones = [Fraction(1)] * len(word)
        assert product_map(word, ones, 3) \
            == weight_matrix(chips_of_word(word, ones, 3))


class TestStaircaseScheme:
    def test_n4_letters(self):
        assert format_word(staircase_scheme(4)) \
            == "3~ 2~ 3~ 1~ 2~ 3~ @1 @2 @3 @4 3 2 3 1 2 3"

    def test_n1(self):
        assert format_word(staircase_scheme(1)) == "@1"

    def test_n2(self):
        assert format_word(staircase_scheme(2)) == "1~ @1 @2 1"

    def test_positive_parameters_give_tp(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            params = [rand_positive(rng) for _ in range(n * n)]
            assert is_tp_bruteforce(product_map(staircase_scheme(n),
                                                params, n))

    def test_type_is_full(self):
        for n in (1, 2, 3, 4):
            u, v = validate_scheme(staircase_scheme(n), n)
            assert u == Permutation.reversal(n)
            assert v == Permutation.reversal(n)


class TestValidateScheme:
    def test_mixed_order_example(self):
        word = parse_word("2~ 1 @3 2 1~ @1 2~ 1 @2")
        u, v = validate_scheme(word, 3)
        assert u == Permutation.reversal(3)
        assert v == Permutation.reversal(3)

    def test_diag_only_scheme_has_identity_type(self):
        word = parse_word("@1 @2 @3")
        u, v = validate_scheme(word, 3)
        assert u == Permutation.identity(3)
        assert v == Permutation.identity(3)

    def test_duplicate_diag_fails(self):
        with pytest.raises(WordError):
            validate_scheme(parse_word("@1 @1 @2 1 1~"), 2)

    def test_non_reduced_subword_fails(self):
        with pytest.raises(WordError, match=re.escape(
                "upper subword [1, 1] is not reduced")):
            validate_scheme(parse_word("1 1 @1 @2"), 2)
        with pytest.raises(WordError, match=re.escape(
                "lower subword [1, 1] is not reduced")):
            validate_scheme(parse_word("1~ 1~ @1 @2"), 2)


class TestTransport:
    def test_braid_at_unit_parameters(self):
        word = (upper(1), upper(2), upper(1))
        new, params = local_move_transport(word, [1, 1, 1], Move("braid", 0))
        assert new == (upper(2), upper(1), upper(2))
        assert params == (Fraction(1, 2), Fraction(2), Fraction(1, 2))

    def test_mixed_at_unit_parameters(self):
        word = (upper(1), diag(1), diag(2), lower(1))
        new, params = local_move_transport(word, [1, 1, 1, 1],
                                           Move("mixed", 0))
        assert new == (lower(1), diag(1), diag(2), upper(1))
        assert params == (Fraction(1, 2), Fraction(2), Fraction(1, 2),
                          Fraction(1, 2))
        assert product_map(word, [1, 1, 1, 1], 2) \
            == product_map(new, params, 2) == Matrix([[2, 1], [1, 1]])

    def test_commuting_swap_keeps_parameters(self):
        word = (upper(1), lower(3))
        t = [Fraction(2), Fraction(5)]
        new, params = local_move_transport(word, t, Move("swap", 0))
        assert new == (lower(3), upper(1))
        assert params == (Fraction(5), Fraction(2))
        assert product_map(word, t, 4) == product_map(new, params, 4)

    def test_same_index_slants_do_not_swap(self):
        with pytest.raises(WordError):
            local_move_transport((upper(1), lower(1)), [1, 1],
                                 Move("swap", 0))

    def test_diag_swap_rescales_and_preserves_product(self):
        rng = random.Random(23)
        for a in [upper(1), upper(2), lower(1), lower(2)]:
            for k in (1, 2, 3):
                word = (diag(k), a)
                t = [rand_positive(rng), rand_positive(rng)]
                new, params = local_move_transport(word, t, Move("swap", 0))
                assert new == (a, diag(k))
                assert product_map(word, t, 3) == product_map(new, params, 3)
                back, orig = local_move_transport(new, params, Move("swap", 0))
                assert back == word and orig == tuple(t)

    def test_moves_are_involutions(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            word = rand_full_scheme(rng, n)
            params = tuple(rand_positive(rng) for _ in word)
            move = rng.choice(applicable_moves(word))
            w1, p1 = local_move_transport(word, params, move)
            w2, p2 = local_move_transport(w1, p1, move)
            assert w2 == word and p2 == params

    @pytest.mark.parametrize("moves", [[], [Move("swap", 0)],
                                       [Move("braid", 9)]])
    def test_zero_diag_parameter_is_rejected_first(self, moves):
        # the first zero diag in word order is named, before any move runs
        word, params = parse_word("1 @2 @1 1~"), [1, 0, 0, 1]
        message = "diag letter @2 is undefined at parameter 0"
        with pytest.raises(WordError, match=message):
            transport_params(word, params, moves)
        for move in moves:
            with pytest.raises(WordError, match=message):
                local_move_transport(word, params, move)

    def test_mixed_transport_with_a_zero_total_is_rejected(self):
        # 1 @1 @2 1~ at (1, -1, 1, 1): the diag parameter the move makes,
        # -1 + 1 * 1 * 1, is 0
        with pytest.raises(WordError, match="^mixed transport undefined at "
                                            "this parameter point$"):
            transport_params(parse_word("1 @1 @2 1~"), [1, -1, 1, 1],
                             [Move("mixed", 0)])

    def test_length_mismatch_without_moves(self):
        with pytest.raises(WordError, match="length mismatch"):
            transport_params(staircase_scheme(2), [1, 2, 3], [])

    def test_random_sequences_preserve_product_and_positivity(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            word = rand_full_scheme(rng, n)
            params = tuple(rand_positive(rng) for _ in word)
            target = product_map(word, params, n)
            for _ in range(10):
                move = rng.choice(applicable_moves(word))
                word, params = local_move_transport(word, params, move)
                assert all(t > 0 for t in params)
            assert product_map(word, params, n) == target


class TestTransportOracle:
    @settings(deadline=None, max_examples=300)
    @given(transport_cases())
    def test_matches_move_by_move_oracle(self, case):
        # a zero diag parameter is rejected before any move, as the product
        # map is undefined there
        scheme, params, moves = case
        zero = next((letter for letter, t in zip(scheme, params)
                     if letter.kind == DIAG and not t), None)
        expected = (outcome(lambda: oracle_transport(scheme, params, moves))
                    if zero is None else
                    (WordError, f"diag letter @{zero.index} is undefined at "
                                "parameter 0"))
        assert outcome(lambda: transport_params(scheme, params, moves)) \
            == expected

    def test_every_diag_slant_swap_matches_the_oracle(self):
        slants = [make(i) for make in (upper, lower) for i in (1, 2)]
        for k, slant, d, t in itertools.product((1, 2, 3), slants, (0, 2),
                                                (0, 3)):
            for word, params in (((diag(k), slant), (d, t)),
                                 ((slant, diag(k)), (t, d))):
                moves = [Move("swap", 0)]
                expected = (outcome(lambda: oracle_transport(word, params,
                                                             moves))
                            if d else (WordError, f"diag letter @{k} is "
                                                  "undefined at parameter 0"))
                assert outcome(lambda: transport_params(word, params, moves)) \
                    == expected


class TestApplyMoveWord:
    @pytest.mark.parametrize("text, move", [
        ("1 1~", Move("swap", 0)),
        ("1 3", Move("swap", 1)),
        ("1 2 2", Move("braid", 0)),
        ("1 2", Move("braid", 0)),
        ("1 @1 @2 1", Move("mixed", 0)),
        ("1 @1 @2", Move("mixed", 0)),
        ("1 3", Move("swap", -1)),
        ("1 3", Move("swap", 2)),
        ("1 3", Move("flip", 0)),
    ])
    def test_inapplicable_moves_raise(self, text, move):
        with pytest.raises(WordError):
            apply_move_word(parse_word(text), move)

    def test_applicable_moves_are_the_moves_that_apply(self):
        # swaps, then braids, then mixed moves, each by position
        rng = random.Random(61)
        words = [parse_word("1 2 1 @1 @2 1~ 2~ 1~ 2~"),
                 parse_word("1~ @1 @2 1 2 1 2")]
        words += [rand_walk_full_scheme(rng, n) for n in (2, 3, 4, 5)
                  for _ in range(5)]
        for word in words:
            expected = []
            for kind in ("swap", "braid", "mixed"):
                for p in range(len(word)):
                    try:
                        oracle_apply_move(word, Move(kind, p))
                    except WordError:
                        continue
                    expected.append(Move(kind, p))
            assert applicable_moves(word) == expected
        assert {m.kind for w in words for m in applicable_moves(w)} \
            == {"swap", "braid", "mixed"}

    def test_rewrites(self):
        assert apply_move_word(parse_word("1 3"), Move("swap", 0)) \
            == parse_word("3 1")
        assert apply_move_word(parse_word("@1 2~ 1~ 2~"), Move("braid", 1)) \
            == parse_word("@1 1~ 2~ 1~")
        assert apply_move_word(parse_word("1~ @1 @2 1"), Move("mixed", 0)) \
            == parse_word("1 @1 @2 1~")


class TestRouting:
    def test_staircase_is_canonical(self):
        for n in (1, 2, 3):
            assert moves_to_staircase(staircase_scheme(n), n) == []

    def test_canonicalization(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            word = rand_full_scheme(rng, n)
            params = tuple(rand_positive(rng) for _ in word)
            target = product_map(word, params, n)
            end, out = transport_params(word, params,
                                        moves_to_staircase(word, n))
            assert end == staircase_scheme(n)
            assert product_map(end, out, n) == target
            assert all(t > 0 for t in out)

    def test_move_path_between_schemes(self):
        rng = random.Random(43)
        for _ in range(15):
            n = rng.choice([2, 3])
            a = rand_full_scheme(rng, n)
            b = rand_full_scheme(rng, n)
            params = tuple(rand_positive(rng) for _ in a)
            end, out = transport_params(a, params, move_path(a, b, n))
            assert end == b
            assert product_map(b, out, n) == product_map(a, params, n)

    @pytest.mark.parametrize("text", PINNED_ROUTES)
    def test_pinned_move_lists(self, text):
        kinds = {"s": "swap", "b": "braid", "m": "mixed"}
        expected = [Move(kinds[tok[0]], int(tok[1:]))
                    for tok in PINNED_ROUTES[text].split()]
        word = parse_word(text)
        assert moves_to_staircase(word) == expected
        for move in expected:
            word = apply_move_word(word, move)
        assert word == staircase_scheme(infer_n(word))

    def test_rejects_partial_type(self):
        with pytest.raises(WordError):
            moves_to_staircase(parse_word("@1 @2 1"), 2)
