"""Factorization inverse problems and the twist map."""

import itertools
import random
import re
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totpos.matrices as mx
from totpos import factorization
from totpos.diagrams import DoubleWiringDiagram, chamber_layout
from totpos.factorization import (NotTotallyPositiveError,
                                  ReconstructionError, _chamber_ansatz,
                                  _staircase_params, factor_scheme,
                                  factor_staircase, initial_minors,
                                  parameter_sum_formula,
                                  reconstruct_from_initial_minors,
                                  staircase_edge_for_minor,
                                  staircase_minor_exponents, twist,
                                  verify_twist_monomial)
from totpos.matrices import (Matrix, MinorSpec, SingularLeadingMinorError,
                             initial_minor_specs, ldu_decompose, minor)
from totpos.networks import standard_network
from totpos.positivity import failing_initial_minors, is_tp_bruteforce
from totpos.words import (DIAG, Permutation, WordError, _encode, diag,
                          lower, parse_word, product_map, reduced_words,
                          staircase_scheme, upper, validate_scheme)

from test_engine import matrices
from util import (_prime_exponents, _primes, fitted_edge_for_minor,
                  fitted_staircase_exponents, fitted_twist_exponents,
                  oracle_factor_scheme, oracle_matmul, oracle_reconstruct,
                  oracle_twist, rand_full_scheme, rand_matrix, rand_positive,
                  rand_tp, rand_typed_scheme, rand_walk_full_scheme)

NONZERO = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                    st.integers(1, 6))
ENTRIES = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                    NONZERO)


@st.composite
def twist_inputs(draw):
    """n = 1..6: totally positive, mixed signs, singular, or with a
    vanishing leading minor of x^T w or of w x^T."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["tp", "mixed", "singular", "no ldu"]))
    if kind == "tp":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        return rand_tp(rng, n)
    entries = NONZERO if kind == "mixed" else ENTRIES
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        i, k = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(ENTRIES) * v for v in rows[k]]
    elif kind == "no ldu":
        # the leading k-minor of x^T w (of w x^T) is the minor of x on
        # rows n-k+1..n and columns 1..k (on rows 1..k and columns
        # n-k+1..n); make two of its rows (columns) proportional
        k = draw(st.integers(1, n))
        flip = draw(st.booleans())
        if flip:
            rows = [list(r) for r in zip(*rows)]
        below = rows[n - k + 1][:k] if k > 1 else [Fraction(0)]
        rows[n - k][:k] = [draw(ENTRIES) * v for v in below]
        if flip:
            rows = [list(r) for r in zip(*rows)]
    return Matrix(rows)

UNIT3 = Matrix([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
MIXED_SCHEME = parse_word("2~ 1 @3 2 1~ @1 2~ 1 @2")


class TestReconstruction:
    def test_unit_weight_matrix(self):
        values = initial_minors(UNIT3)
        assert reconstruct_from_initial_minors(values, 3) == UNIT3

    def test_one_by_one(self):
        values = {MinorSpec((1,), (1,)): Fraction(5)}
        assert reconstruct_from_initial_minors(values, 1) == Matrix([[5]])

    def test_monomial_table_at_unit_weights(self):
        # all staircase parameters 1: every initial minor equals 1, and the
        # reconstruction is the unit-weight matrix
        values = {spec: Fraction(1)
                  for spec in initial_minors(UNIT3)}
        assert reconstruct_from_initial_minors(values, 3) == UNIT3

    def test_round_trip_on_random_matrices(self):
        rng = random.Random(81)
        done = 0
        while done < 40:
            n = rng.randint(1, 5)
            x = rand_tp(rng, n) if done % 2 else None
            if x is None:
                from util import rand_matrix
                x = rand_matrix(rng, n)
                if any(v == 0 for v in initial_minors(x).values()):
                    continue
            assert reconstruct_from_initial_minors(initial_minors(x), n) == x
            done += 1

    def test_zero_minor_rejected(self):
        values = initial_minors(Matrix.identity(2))
        with pytest.raises(ReconstructionError):
            reconstruct_from_initial_minors(values, 2)

    def test_first_missing_or_zero_minor_is_named(self):
        # corners in row-major order: (1, 3) comes before (2, 1)
        specs = initial_minor_specs(3)
        early, late = specs[2], specs[3]
        values = dict(initial_minors(UNIT3))
        values[early] = 0
        del values[late]
        with pytest.raises(ReconstructionError,
                           match=re.escape(f"initial minor {early} is zero")):
            reconstruct_from_initial_minors(values, 3)
        values = dict(initial_minors(UNIT3))
        del values[early]
        values[late] = Fraction(0)
        with pytest.raises(ReconstructionError,
                           match=re.escape(f"missing initial minor {early}")):
            reconstruct_from_initial_minors(values, 3)

    def test_defaultdict_is_read_not_filled(self):
        # the factory does not fill the missing minor in; it is named
        specs = initial_minor_specs(3)
        values = defaultdict(lambda: Fraction(1), initial_minors(UNIT3))
        del values[specs[4]]
        missing = re.escape(f"missing initial minor {specs[4]}")
        with pytest.raises(ReconstructionError, match=missing):
            reconstruct_from_initial_minors(values, 3)
        assert specs[4] not in values and len(values) == 8

    def test_none_value_is_not_a_scalar(self):
        specs = initial_minor_specs(3)
        values = dict(initial_minors(UNIT3))
        values[specs[4]] = None
        with pytest.raises(TypeError, match="cannot interpret None"):
            reconstruct_from_initial_minors(values, 3)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 6), st.data())
    def test_matches_corner_recursion(self, n, data):
        # every vector of nonzero values is the initial minors of exactly
        # one matrix, so drawing the values draws those matrices
        nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                            st.integers(1, 6))
        values = {spec: data.draw(nonzero)
                  for spec in initial_minor_specs(n)}
        x = reconstruct_from_initial_minors(values, n)
        assert x == oracle_reconstruct(values, n)
        assert initial_minors(x) == values


class TestFactorStaircase:
    def test_monomial_relations_n3(self):
        rng = random.Random(82)
        t = [rand_positive(rng) for _ in range(9)]
        a, b, c, d, e, f, g, h, i = t
        x = product_map(staircase_scheme(3), t, 3)
        im = initial_minors(x)

        def val(rows, cols):
            return im[MinorSpec.of(rows, cols)]

        assert val((1,), (1,)) == d
        assert val((1,), (2,)) == d * h
        assert val((1,), (3,)) == d * h * i
        assert val((2,), (1,)) == b * d
        assert val((1, 2), (1, 2)) == d * e
        assert val((1, 2), (2, 3)) == d * e * g * h
        assert val((3,), (1,)) == a * b * d
        assert val((2, 3), (1, 2)) == b * c * d * e
        assert val((1, 2, 3), (1, 2, 3)) == d * e * f
        # and the recovered parameters solve those relations
        got = factor_staircase(x)
        assert got == tuple(t)

    def test_round_trip(self):
        rng = random.Random(83)
        for n in (2, 3, 4, 5):
            for _ in range(6):
                t = tuple(rand_positive(rng) for _ in range(n * n))
                x = product_map(staircase_scheme(n), t, n)
                assert factor_staircase(x) == t

    def test_rejects_identity(self):
        with pytest.raises(NotTotallyPositiveError) as info:
            factor_staircase(Matrix.identity(3))
        assert info.value.spec in set(initial_minors(Matrix.identity(3)))

    def test_cites_first_failing_initial_minor_in_row_major_order(self):
        # two failing initial minors: [1,2|1,2] = -3 at corner (2, 2) comes
        # before the smaller [3|1] = -1 at corner (3, 1)
        x = Matrix([[1, 2, 1], [2, 1, 1], [-1, 1, 1]])
        failing = [spec for spec, value in initial_minors(x).items()
                   if value <= 0]
        assert failing[:2] == [MinorSpec((1, 2), (1, 2)),
                               MinorSpec((3,), (1,))]
        with pytest.raises(NotTotallyPositiveError) as info:
            factor_staircase(x)
        assert info.value.spec == MinorSpec((1, 2), (1, 2))
        assert info.value.value == -3

    @settings(deadline=None, max_examples=200)
    @given(x=matrices())
    def test_cites_the_first_failing_initial_minor(self, x):
        failing = failing_initial_minors(x)
        if not failing:
            assert product_map(staircase_scheme(x.n), factor_staircase(x),
                               x.n) == x
            return
        with pytest.raises(NotTotallyPositiveError) as info:
            factor_staircase(x)
        assert (info.value.spec, info.value.value) == failing[0]

    def test_tp_factoring_builds_no_spec(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spec was built")

        monkeypatch.setattr(MinorSpec, "trusted", refuse)
        monkeypatch.setattr(MinorSpec, "__init__", refuse)
        monkeypatch.setattr(mx, "initial_minor_specs", refuse)
        monkeypatch.setattr(factorization, "initial_minor_specs", refuse)
        rng = random.Random(94)
        for n in range(1, 9):
            t = tuple(rand_positive(rng) for _ in range(n * n))
            x = product_map(staircase_scheme(n), t, n)
            assert factor_staircase(x) == t

    def test_edge_map_needs_no_exponents(self, monkeypatch):
        def refuse(n):
            raise AssertionError("exponents were built")

        monkeypatch.setattr(factorization, "staircase_minor_exponents",
                            refuse)
        for n in range(1, 9):
            assert staircase_edge_for_minor(n) == fitted_edge_for_minor(n)

    def test_edge_bijection_n3(self):
        mapping = staircase_edge_for_minor(3)
        order = {
            ((1,), (1,)): 3, ((1,), (2,)): 7, ((1,), (3,)): 8,
            ((2,), (1,)): 1, ((1, 2), (1, 2)): 4, ((1, 2), (2, 3)): 6,
            ((3,), (1,)): 0, ((2, 3), (1, 2)): 2,
            ((1, 2, 3), (1, 2, 3)): 5,
        }
        assert {(s.rows, s.cols): k for s, k in mapping.items()} == order
        # the edge ids address real edges of the standard network
        net = standard_network(3)
        assert len(net.essential) == 9
        assert all(0 <= net.essential[k] < len(net.edges)
                   for k in mapping.values())

    def test_closed_form_is_the_fitted_monomial_inverse(self):
        # at distinct primes the closed form factors back into exactly the
        # inverse exponent rows of the prime fit
        for n in range(1, 9):
            _, _, inverse = fitted_staircase_exponents(n)
            primes = _primes(n * n)
            params = _staircase_params([Fraction(p) for p in primes], n)
            assert [_prime_exponents(t, primes) for t in params] == inverse

    def test_closed_form_exponents_equal_the_prime_fit(self):
        for n in range(1, 9):
            assert staircase_minor_exponents(n) \
                == fitted_staircase_exponents(n)
            assert staircase_edge_for_minor(n) == fitted_edge_for_minor(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_exponents_reject_sizes_below_one(self, n):
        for call in (staircase_minor_exponents, staircase_edge_for_minor):
            with pytest.raises(ValueError,
                               match="matrix must be square and nonempty"):
                call(n)

    def test_factoring_fits_no_exponents(self):
        saved = dict(factorization._staircase_cache)
        factorization._staircase_cache.clear()
        try:
            rng = random.Random(92)
            for n in (2, 3, 4):
                x = rand_tp(rng, n)
                factor_staircase(x)
                factor_scheme(x, rand_full_scheme(rng, n))
                reconstruct_from_initial_minors(initial_minors(x), n)
            assert factorization._staircase_cache == {}
        finally:
            factorization._staircase_cache.update(saved)

    def test_parameter_sum_formula(self):
        rng = random.Random(84)
        for n in (2, 3, 4):
            for _ in range(5):
                t = tuple(rand_positive(rng) for _ in range(n * n))
                x = product_map(staircase_scheme(n), t, n)
                assert parameter_sum_formula(x) == sum(t)


class TestFactorScheme:
    def test_staircase_is_factor_staircase(self):
        rng = random.Random(85)
        x = rand_tp(rng, 3)
        assert factor_scheme(x, staircase_scheme(3)) == factor_staircase(x)

    def test_mixed_scheme_round_trip(self):
        rng = random.Random(86)
        for _ in range(10):
            x = rand_tp(rng, 3)
            params = factor_scheme(x, MIXED_SCHEME)
            assert all(t > 0 for t in params)
            assert product_map(MIXED_SCHEME, params, 3) == x

    def test_random_schemes(self):
        rng = random.Random(87)
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            scheme = rand_full_scheme(rng, n)
            t = tuple(rand_positive(rng) for _ in scheme)
            x = product_map(scheme, t, n)
            assert factor_scheme(x, scheme) == t


def outcome(call):
    """The value of call(), or its exception as (class, message, spec,
    value)."""
    try:
        return call()
    except (NotTotallyPositiveError, WordError) as exc:
        return (type(exc), str(exc), getattr(exc, "spec", None),
                getattr(exc, "value", None))


def full_schemes(n: int, rng: random.Random):
    """Every full-type slant word on n lines, each with its diags first,
    last, and at random places."""
    words = list(reduced_words(Permutation.reversal(n)))
    size = len(words[0])
    diags = [diag(i) for i in range(1, n + 1)]
    for lw in words:
        for uw in words:
            for at in itertools.combinations(range(2 * size), size):
                slants, lows, ups = [], iter(lw), iter(uw)
                for p in range(2 * size):
                    slants.append(lower(next(lows)) if p in at
                                  else upper(next(ups)))
                yield tuple(diags + slants)
                yield tuple(slants + diags)
                spread = list(slants)
                for letter in diags:
                    spread.insert(rng.randrange(len(spread) + 1), letter)
                yield tuple(spread)


@st.composite
def scheme_inputs(draw):
    """n = 1..6: a random full-type scheme, diags anywhere, and a matrix
    that is its product at positive parameters, that product with one
    entry changed, or a random matrix; or a scheme of another type."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["tp", "perturbed", "random", "other type"]))
    scheme = rand_walk_full_scheme(rng, n)
    t = tuple(rand_positive(rng) for _ in scheme)
    x = product_map(scheme, t, n)
    if kind == "perturbed":
        rows = [list(r) for r in x.rows]
        rows[rng.randrange(n)][rng.randrange(n)] += draw(NONZERO)
        x = Matrix(rows)
    elif kind == "random":
        x = rand_matrix(rng, n)
    elif kind == "other type":
        scheme, u, v = rand_typed_scheme(rng, min(n, 4))
        if n == 1 or (u == v == Permutation.reversal(u.n) and u.n == n):
            scheme = scheme + (scheme[0],)
    return x, scheme, t if kind == "tp" else None


class TestChamberAnsatz:
    @settings(deadline=None, max_examples=120)
    @given(scheme_inputs())
    def test_matches_the_transport_oracle(self, inputs):
        x, scheme, t = inputs
        got = outcome(lambda: factor_scheme(x, scheme))
        want = outcome(lambda: oracle_factor_scheme(x, scheme))
        if t is not None:
            assert got == want == t
        elif isinstance(got, tuple) and got[0] is WordError:
            # a malformed scheme fails validate_scheme, any other scheme
            # the full-type check
            try:
                validate_scheme(scheme, x.n)
                message = ("factor_scheme needs a scheme of full type (both "
                           "slant subwords reduced for the reversal)")
            except WordError as exc:
                message = str(exc)
            assert got[1] == message
            assert want[0] is WordError
        else:
            assert got == want

    def test_exponents_equal_the_prime_fit_for_n_up_to_3(self):
        # the read-off at distinct primes as chamber minors factors back
        # into exactly the exponents fitted through the twist
        rng = random.Random(95)
        count = 0
        for n in (1, 2, 3):
            primes = _primes(n * n)
            for scheme in full_schemes(n, rng):
                diagram = DoubleWiringDiagram(
                    tuple(l for l in scheme if l.kind != DIAG), n)
                levels = [[] for _ in range(n)]
                for chamber, p in zip(chamber_layout(diagram), primes):
                    levels[chamber.level - 1].append(Fraction(p))
                params = _chamber_ansatz(_encode(scheme, n), levels)
                assert [_prime_exponents(t, primes) for t in params] \
                    == fitted_twist_exponents(scheme, n)
                count += 1
        assert count == 3 + 3 * 2 + 3 * 80

    def test_verify_reports_a_wrong_read_off(self, monkeypatch):
        def off_by_one(codes, levels):
            return [t + 1 for t in ansatz(codes, levels)]

        ansatz = factorization._chamber_ansatz
        monkeypatch.setattr(factorization, "_chamber_ansatz", off_by_one)
        assert not verify_twist_monomial(MIXED_SCHEME, 3)


class TestTwist:
    def test_closed_form_two_by_two(self):
        rng = random.Random(88)
        for _ in range(25):
            x = rand_tp(rng, 2)
            a, b = x.entry(1, 1), x.entry(1, 2)
            c, d = x.entry(2, 1), x.entry(2, 2)
            expected = Matrix([[a / (b * c), 1 / c],
                               [1 / b, d / x.det()]])
            assert twist(x) == expected

    def test_closed_form_three_by_three(self):
        rng = random.Random(89)

        def mv(x, rows, cols):
            return minor(x, MinorSpec.of(rows, cols))

        for _ in range(25):
            x = rand_tp(rng, 3)
            det = x.det()
            expected = Matrix([
                [x.entry(1, 1) / (x.entry(3, 1) * x.entry(1, 3)),
                 mv(x, (1, 2), (1, 3)) / (x.entry(3, 1) * mv(x, (1, 2), (2, 3))),
                 1 / x.entry(3, 1)],
                [mv(x, (1, 3), (1, 2)) / (x.entry(1, 3) * mv(x, (2, 3), (1, 2))),
                 (x.entry(3, 3) * mv(x, (1, 2), (1, 2)) - det)
                 / (mv(x, (2, 3), (1, 2)) * mv(x, (1, 2), (2, 3))),
                 x.entry(3, 2) / mv(x, (2, 3), (1, 2))],
                [1 / x.entry(1, 3),
                 x.entry(2, 3) / mv(x, (1, 2), (2, 3)),
                 mv(x, (2, 3), (2, 3)) / det],
            ])
            assert twist(x) == expected

    def test_fixed_point(self):
        x = Matrix([[1, 1], [1, 2]])
        assert twist(x) == x

    def test_matches_permutation_product_form(self):
        # [x^T w]_+ * w (x^T)^-1 w * [w x^T]_- with w an explicit matrix
        rng = random.Random(93)
        for k in range(30):
            n = 1 + k % 5
            x = rand_tp(rng, n) if k % 2 else rand_matrix(rng, n)
            w = Permutation.reversal(n).matrix()
            xt = x.transpose()
            try:
                _, _, plus = ldu_decompose(oracle_matmul(xt, w))
                minus, _, _ = ldu_decompose(oracle_matmul(w, xt))
                middle = oracle_matmul(oracle_matmul(w, xt.inverse()), w)
            except (SingularLeadingMinorError, ZeroDivisionError) as exc:
                with pytest.raises(type(exc)):
                    twist(x)
                continue
            assert twist(x) == oracle_matmul(oracle_matmul(plus, middle),
                                             minus)

    @settings(max_examples=300, deadline=None)
    @given(twist_inputs())
    def test_matches_matrix_level_oracle(self, x):
        try:
            expected = oracle_twist(x)
        except (SingularLeadingMinorError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as raised:
                twist(x)
            assert str(raised.value) == str(exc)
            if isinstance(exc, SingularLeadingMinorError):
                assert raised.value.k == exc.k
            return
        assert twist(x) == expected

    def test_twist_preserves_total_positivity(self):
        rng = random.Random(90)
        for _ in range(50):
            n = rng.choice([2, 3, 4])
            assert is_tp_bruteforce(twist(rand_tp(rng, n)))


class TestTwistMonomial:
    def test_staircase_small_sizes(self):
        assert verify_twist_monomial(staircase_scheme(2), 2)
        assert verify_twist_monomial(staircase_scheme(3), 3)

    def test_mixed_scheme(self):
        assert verify_twist_monomial(MIXED_SCHEME, 3)

    def test_random_scheme(self):
        rng = random.Random(91)
        scheme = rand_full_scheme(rng, 3)
        assert verify_twist_monomial(scheme, 3)

    def test_rejects_a_scheme_not_of_full_type(self):
        with pytest.raises(WordError, match="needs a full-type scheme"):
            verify_twist_monomial(staircase_scheme(3)[:-1], 3)
