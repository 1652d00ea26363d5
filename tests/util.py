"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from totpos.matrices import Matrix
from totpos.networks import PlanarNetwork
from totpos.words import (LOWER, UPPER, Permutation, Word, diag, lower,
                          product_map, reduced_words, staircase_scheme, upper)


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9,
                  max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_positive(rng: random.Random, hi: int = 9, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den))


def rand_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def rand_tp(rng: random.Random, n: int) -> Matrix:
    """Totally positive: staircase product at positive parameters."""
    params = [rand_positive(rng) for _ in range(n * n)]
    return product_map(staircase_scheme(n), params, n)


def interleave(rng: random.Random, groups) -> tuple:
    """Random shuffle preserving the order within each group."""
    pools = [list(g) for g in groups if g]
    out = []
    while pools:
        pool = rng.choice(pools)
        out.append(pool.pop(0))
        pools = [p for p in pools if p]
    return tuple(out)


def rand_full_scheme(rng: random.Random, n: int) -> Word:
    """Random factorization scheme of full type."""
    rev = Permutation.reversal(n)
    words = list(reduced_words(rev))
    lw = rng.choice(words)
    uw = rng.choice(words)
    return interleave(rng, [[lower(i) for i in lw],
                            [upper(i) for i in uw],
                            [diag(i) for i in range(1, n + 1)]])


def rand_typed_scheme(rng: random.Random, n: int) \
        -> tuple[Word, Permutation, Permutation]:
    """Random scheme of a random type (u, v), returned with its type."""
    perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    u, v = rng.choice(perms), rng.choice(perms)
    lw = rng.choice(list(reduced_words(u)))
    uw = rng.choice(list(reduced_words(v)))
    word = interleave(rng, [[lower(i) for i in lw],
                            [upper(i) for i in uw],
                            [diag(i) for i in range(1, n + 1)]])
    return word, u, v


def rand_tnn_invertible(rng: random.Random, n: int) -> Matrix:
    """Invertible totally nonnegative: random-type scheme at positive
    parameters."""
    word, _, _ = rand_typed_scheme(rng, n)
    return product_map(word, [rand_positive(rng) for _ in word], n)


def rand_network(rng: random.Random, n: int, cols: int) -> PlanarNetwork:
    """Random leveled network on a full grid with one slant direction per
    column step (keeps the embedding planar)."""
    vertices = [(x, level) for x in range(cols + 1)
                for level in range(1, n + 1)]
    index = {v: k for k, v in enumerate(vertices)}
    edges = []
    for x in range(cols):
        for level in range(1, n + 1):
            edges.append((index[(x, level)], index[(x + 1, level)],
                          rand_positive(rng, hi=6, max_den=4)))
        rising = rng.random() < 0.5
        for level in range(1, n):
            if rng.random() < 0.6:
                if rising:
                    edges.append((index[(x, level)], index[(x + 1, level + 1)],
                                  rand_positive(rng, hi=6, max_den=4)))
                else:
                    edges.append((index[(x, level + 1)], index[(x + 1, level)],
                                  rand_positive(rng, hi=6, max_den=4)))
    return PlanarNetwork(n, tuple(vertices), tuple(edges))


def cofactor_det(rows) -> Fraction:
    """Independent determinant oracle by first-row cofactor expansion."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(size):
        sub = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = Fraction(rows[0][j]) * cofactor_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def matrix_product_map(word: Word, params, n: int) -> Matrix:
    """Independent product-map oracle: the ordered `Matrix` product of
    elementary matrices written out entry by entry."""
    result = Matrix.identity(n)
    for letter, t in zip(word, params):
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        i = letter.index - 1
        if letter.kind == UPPER:
            rows[i][i + 1] = Fraction(t)
        elif letter.kind == LOWER:
            rows[i + 1][i] = Fraction(t)
        else:
            rows[i][i] = Fraction(t)
        result = result * Matrix(rows)
    return result


def enumerate_paths(net: PlanarNetwork, start: int, goal: int):
    """All directed paths start -> goal as (vertex tuple, weight)."""
    out = net.out_edges()
    results = []

    def walk(u, trail, weight):
        if u == goal:
            results.append((tuple(trail), weight))
            return
        for v, w in out[u]:
            walk(v, trail + [v], weight * w)

    walk(start, [start], Fraction(1))
    return results
