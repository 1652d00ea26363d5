"""Spot checks at sizes beyond the defaults exercised elsewhere."""

import random
import time
from fractions import Fraction

import pytest

from totpos import factorization
from totpos.factorization import (_staircase_params, factor_scheme,
                                  factor_staircase, initial_minors,
                                  reconstruct_from_initial_minors,
                                  staircase_minor_exponents, twist,
                                  verify_twist_monomial)
from totpos.matrices import (Matrix, MinorSpec, SingularLeadingMinorError,
                             initial_family,
                             initial_minor_specs, minor, minor_family,
                             solid_family, solid_minor_specs)
from totpos.networks import standard_network, weight_matrix
from totpos.positivity import (bruhat_type, is_oscillatory,
                               is_tnn_bruteforce, is_tp_bruteforce)
from totpos.positivity import test_initial_minors as initial_criterion
from totpos.positivity import test_tnn_efficient as tnn_efficient_criterion
from totpos.positivity import test_tnn_neville as tnn_neville_criterion
from totpos.words import (DIAG, diag, lower, move_path, moves_to_staircase,
                          product_map, staircase_scheme, transport_params,
                          upper)

from util import (_prime_exponents, _primes, cofactor_det, gauss_det,
                  oracle_apply_move, oracle_bruhat_type, oracle_reconstruct,
                  oracle_transport, oracle_twist,
                  rand_fraction, rand_full_scheme, rand_matrix,
                  rand_positive, rand_tnn_invertible, rand_tp,
                  rand_typed_scheme, rand_walk_full_scheme)


def test_twist_monomial_certifies_at_n4():
    rng = random.Random(201)
    for _ in range(2):
        assert verify_twist_monomial(rand_full_scheme(rng, 4), 4)


def test_factor_scheme_round_trips_at_n5():
    rng = random.Random(202)
    for _ in range(3):
        scheme = rand_full_scheme(rng, 5)
        t = tuple(rand_positive(rng) for _ in scheme)
        assert factor_scheme(product_map(scheme, t, 5), scheme) == t


def test_factor_scheme_round_trips_at_n6_to_n8():
    rng = random.Random(208)
    for n in (6, 7, 8):
        scheme = rand_walk_full_scheme(rng, n)
        t = tuple(rand_positive(rng) for _ in scheme)
        assert factor_scheme(product_map(scheme, t, n), scheme) == t


def test_factor_scheme_round_trips_at_n16():
    rng = random.Random(212)
    scheme = rand_walk_full_scheme(rng, 16)
    t = tuple(rand_positive(rng) for _ in scheme)
    assert factor_scheme(product_map(scheme, t, 16), scheme) == t


def test_factor_scheme_round_trips_at_n24():
    rng = random.Random(213)
    scheme = rand_walk_full_scheme(rng, 24)
    t = tuple(Fraction(rng.randint(1, 9)) for _ in scheme)
    assert factor_scheme(product_map(scheme, t, 24), scheme) == t


def test_staircase_factor_and_reconstruct_round_trip_at_n16():
    rng = random.Random(210)
    t = tuple(rand_positive(rng) for _ in range(16 * 16))
    x = product_map(staircase_scheme(16), t, 16)
    assert factor_staircase(x) == t
    assert reconstruct_from_initial_minors(initial_minors(x), 16) == x


def test_staircase_reconstruct_round_trips_at_n24():
    rng = random.Random(214)
    t = tuple(rand_positive(rng) for _ in range(24 * 24))
    x = product_map(staircase_scheme(24), t, 24)
    assert reconstruct_from_initial_minors(initial_minors(x), 24) == x


def test_mixed_sign_reconstruction_round_trips_at_n32():
    # the product kernel reduces a column once its denominator has doubled
    # in bits; left unreduced, this reconstruction's columns grew to tens
    # of thousands of bits, and it ran about 150 times as long
    rng = random.Random(216)
    x = Matrix([[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9)) for _ in range(32)]
                for _ in range(32)])
    values = initial_minors(x)
    assert all(values.values())
    started = time.monotonic()
    assert reconstruct_from_initial_minors(values, 32) == x
    assert time.monotonic() - started < 1.0


def test_mixed_sign_standard_network_sweep_at_n32():
    # the staircase parameters of the mixed-sign matrix above on the
    # standard network; the sweep reduces a vector once its denominator
    # has doubled in bits, and left unreduced it ran about 45 times as long
    rng = random.Random(216)
    x = Matrix([[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9)) for _ in range(32)]
                for _ in range(32)])
    values = initial_minors(x)
    net = standard_network(32, _staircase_params(
        [values[spec] for spec in initial_minor_specs(32)], 32))
    started = time.monotonic()
    assert weight_matrix(net) == x
    assert time.monotonic() - started < 0.5


def test_reconstruct_matches_the_corner_recursion_at_n10():
    rng = random.Random(215)
    for size in range(1, 7):
        rows = [[rand_fraction(rng) for _ in range(size)]
                for _ in range(size)]
        assert gauss_det(rows) == cofactor_det(rows)
    values = {spec: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 6))
              for spec in initial_minor_specs(10)}
    assert reconstruct_from_initial_minors(values, 10) \
        == oracle_reconstruct(values, 10, det=gauss_det)


def test_standard_network_weight_matrix_is_the_staircase_product_at_n8():
    rng = random.Random(216)
    t = [rand_positive(rng) for _ in range(8 * 8)]
    assert weight_matrix(standard_network(8, t)) \
        == product_map(staircase_scheme(8), t, 8)


def cold_staircase_exponents(n):
    """`staircase_minor_exponents(n)` computed afresh, with its time."""
    factorization._staircase_cache.pop(n, None)
    started = time.monotonic()
    result = staircase_minor_exponents(n)
    return result, time.monotonic() - started


def test_staircase_exponents_at_n16_and_n24():
    for n, bound in ((16, 10.0), (24, 30.0)):
        (_, exponents, inverse), elapsed = cold_staircase_exponents(n)
        assert elapsed < bound
        assert all(set(row) <= {0, 1} for row in exponents)
        size = n * n
        for k, row in enumerate(inverse):
            terms = [(j, s) for j, s in enumerate(row) if s]
            assert len(terms) <= 4
            assert [sum(s * exponents[j][m] for j, s in terms)
                    for m in range(size)] == [int(m == k) for m in range(size)]


def test_closed_form_factors_into_the_inverse_exponents_at_n12():
    (_, _, inverse), elapsed = cold_staircase_exponents(12)
    primes = _primes(12 * 12)
    started = time.monotonic()
    params = _staircase_params([Fraction(p) for p in primes], 12)
    assert [_prime_exponents(t, primes) for t in params] == inverse
    assert elapsed + time.monotonic() - started < 10.0


def test_route_to_staircase_replays_at_n12():
    word = rand_walk_full_scheme(random.Random(209), 12)
    for move in moves_to_staircase(word, 12):
        word = oracle_apply_move(word, move)
    assert word == staircase_scheme(12)


def test_transport_along_a_move_path_matches_the_oracle_at_n10():
    rng = random.Random(213)
    source = rand_walk_full_scheme(rng, 10)
    target = rand_walk_full_scheme(rng, 10)
    params = [rand_positive(rng) for _ in source]
    moves = move_path(source, target, 10)
    word, out = transport_params(source, params, moves)
    assert (word, out) == oracle_transport(source, params, moves)
    assert word == target
    assert product_map(word, out, 10) == product_map(source, params, 10)


def test_efficient_tnn_agrees_with_brute_force_at_n5_and_n6():
    rng = random.Random(203)
    done = 0
    while done < 8:
        n = 5 if done % 2 else 6
        x = rand_tnn_invertible(rng, n) if done % 3 else rand_matrix(rng, n)
        if x.det() == 0:
            continue
        verdict, checked = tnn_efficient_criterion(x)
        assert checked == 2 ** (n + 1) - n - 2
        assert verdict == is_tnn_bruteforce(x, guard=6)
        done += 1


def test_neville_agrees_with_initial_minors_at_n32():
    # staircase products: every parameter positive gives a totally
    # positive matrix; zero slant parameters a totally nonnegative one
    # that is not; reversing the rows of either leaves it invertible but
    # not totally nonnegative (its [1, 2|1, 2] minor is negative)
    rng = random.Random(211)
    word = staircase_scheme(32)
    for zeros in (0.0, 0.3):
        t = [Fraction(0) if letter.kind != DIAG and rng.random() < zeros
             else rand_positive(rng) for letter in word]
        x = product_map(word, t, 32)
        tp = initial_criterion(x)
        assert tp == (zeros == 0.0)
        assert tnn_neville_criterion(x)
        reversed_rows = Matrix(x.rows[::-1])
        assert not initial_criterion(reversed_rows)
        assert not tnn_neville_criterion(reversed_rows)


def test_neville_verdict_at_n48_within_half_a_second():
    # the pass divides each eliminated row by its content; with no
    # division the rows of this product double in bits per column, and
    # the call had not returned after ten minutes
    rng = random.Random(217)
    word = staircase_scheme(48)
    t = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in word]
    x = product_map(word, t, 48)
    started = time.monotonic()
    assert tnn_neville_criterion(x)
    assert time.monotonic() - started < 0.5
    # a failed pass tells singular input apart by a rank pass, not by
    # x.det(), which took over a second here
    started = time.monotonic()
    assert not tnn_neville_criterion(Matrix(x.rows[::-1]))
    assert time.monotonic() - started < 0.5


def test_solid_families_match_spec_lists_at_n32():
    # a staircase product (totally positive) and a near miss: its last
    # entry lowered until the determinant, the last initial and the last
    # solid minor, is 0
    rng = random.Random(213)
    word = staircase_scheme(32)
    x = product_map(word, [rand_positive(rng) for _ in word], 32)
    rows = [list(row) for row in x.rows]
    head = tuple(range(1, 32))
    rows[-1][-1] -= x.det() / minor(x, MinorSpec(head, head))
    near = Matrix(rows)
    assert near.det() == 0
    initial, solid = initial_minor_specs(32), solid_minor_specs(32)
    assert (len(initial), len(solid)) == (1024, 11440)
    for y, tp in ((x, True), (near, False)):
        for family, specs in ((initial_family, initial),
                              (solid_family, solid)):
            assert family(y) == minor_family(y, specs)
            assert (family(y, stop=lambda v: v <= 0) is not None) == tp


def test_oscillation_criteria_agree_at_n5():
    rng = random.Random(204)
    for _ in range(5):
        x = rand_tnn_invertible(rng, 5)
        assert len({is_oscillatory(x, c, guard=6) for c in "bcd"}) == 1


def test_cell_type_round_trips_at_n5():
    rng = random.Random(205)
    for _ in range(10):
        word, u, v = rand_typed_scheme(rng, 5)
        x = product_map(word, [rand_positive(rng) for _ in word], 5)
        assert bruhat_type(x) == (u, v)


def test_twist_preserves_total_positivity_at_n5():
    rng = random.Random(206)
    for _ in range(3):
        assert is_tp_bruteforce(twist(rand_tp(rng, 5)), guard=6)


def test_twist_matches_the_oracle_at_n8_and_n10():
    rng = random.Random(207)
    for n in (8, 10):
        mixed = rand_matrix(rng, n)
        assert {v > 0 for row in mixed.rows for v in row} == {True, False}
        for x in (rand_tp(rng, n), mixed):
            assert twist(x) == oracle_twist(x)


def _low_rank_corner(rng, n: int, size: int, southwest: bool) -> Matrix:
    """A random integer matrix whose southwest (or northeast) size x size
    corner is a product of size x (size - 1) and (size - 1) x size
    blocks, so it is singular while its smaller corners are not."""
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    left = [[rng.randint(1, 9) for _ in range(size - 1)] for _ in range(size)]
    right = [[rng.randint(1, 9) for _ in range(size)]
             for _ in range(size - 1)]
    top, first = (n - size, 0) if southwest else (0, n - size)
    for a in range(size):
        for b in range(size):
            rows[top + a][first + b] = sum(left[a][k] * right[k][b]
                                           for k in range(size - 1))
    return Matrix(rows)


def test_twist_names_the_vanishing_leading_minor_at_n8():
    # a leading k-minor of x^T w is x's southwest k-corner, one of w x^T
    # its northeast k-corner
    rng = random.Random(208)
    for size, southwest in ((3, True), (5, False)):
        x = _low_rank_corner(rng, 8, size, southwest)
        with pytest.raises(SingularLeadingMinorError) as raised:
            twist(x)
        with pytest.raises(SingularLeadingMinorError) as expected:
            oracle_twist(x)
        assert raised.value.k == expected.value.k == size
        assert str(raised.value) == str(expected.value)


def test_cell_type_matches_the_oracle_at_n10():
    rng = random.Random(209)
    n, cut = 10, 4
    word = ([lower(i) for i in range(1, n) if i != cut]
            + [diag(i) for i in range(1, n + 1)]
            + [upper(i) for i in range(n - 1, 0, -1) if i != cut])
    tridiagonal = product_map(tuple(word), [rand_positive(rng) for _ in word],
                              n)
    images = rng.sample(range(n), n)
    permutation = Matrix([[int(images[i] == j) for j in range(n)]
                          for i in range(n)])
    for x in (rand_tp(rng, n), tridiagonal, permutation):
        assert bruhat_type(x) == oracle_bruhat_type(x)
