"""Exact arithmetic of the benchmark's own, independent of totpos.

The benchmark builds its inputs and checks answers with these helpers, so
that a wrong answer from the package is not confirmed by the package.
Matrices are lists of rows of `Fraction`; indices in specs are 1-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    work = [list(map(Fraction, row)) for row in rows]
    k = len(work)
    result = Fraction(1)
    for c in range(k):
        pivot = next((r for r in range(c, k) if work[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            result = -result
        head = work[c][c]
        result *= head
        for r in range(c + 1, k):
            factor = work[r][c] / head
            if factor:
                work[r] = [v - factor * w for v, w in zip(work[r], work[c])]
    return result


def minor(rows, row_set, col_set) -> Fraction:
    return det([[rows[i - 1][j - 1] for j in col_set] for i in row_set])


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def word_product(word, params, n: int):
    """Product of the elementary matrices of a word, one column operation
    per letter: letters are (kind, index) with kind "upper", "lower" or
    "diag", as in totpos.words."""
    x = identity(n)
    for (kind, i), t in zip(word, params):
        t = Fraction(t)
        if kind == "upper":     # column i+1 += t * column i
            for row in x:
                row[i] += t * row[i - 1]
        elif kind == "lower":   # column i += t * column i+1
            for row in x:
                row[i - 1] += t * row[i]
        else:
            for row in x:
                row[i - 1] *= t
    return x


def staircase(n: int):
    """The staircase scheme of totpos.words.staircase_scheme, as pairs."""
    slants = [i for k in range(n - 1, 0, -1) for i in range(k, n)]
    return ([("lower", i) for i in slants]
            + [("diag", i) for i in range(1, n + 1)]
            + [("upper", i) for i in slants])


def permutation_of_word(gens, n: int) -> tuple[int, ...]:
    """Images of 1..n of the product of adjacent transpositions, composed
    in word order: (p * q)(k) = p(q(k))."""
    images = list(range(1, n + 1))
    for g in gens:
        images[g - 1], images[g] = images[g], images[g - 1]
    return tuple(images)


def cauchy(a, b):
    """The Cauchy matrix 1/(a_i + b_j); totally positive for increasing
    positive a and b."""
    return [[Fraction(1, ai + bj) for bj in b] for ai in a]


def cauchy_det(a, b) -> Fraction:
    k = len(a)
    num = prod((a[j] - a[i]) * (b[j] - b[i])
               for i in range(k) for j in range(i + 1, k))
    return Fraction(num, prod(ai + bj for ai in a for bj in b))


def somos5(seed, count: int) -> list[Fraction]:
    terms = [Fraction(v) for v in seed][:count]
    while len(terms) < count:
        k = len(terms) - 5
        terms.append((terms[k + 1] * terms[k + 4]
                      + terms[k + 2] * terms[k + 3]) / terms[k])
    return terms
