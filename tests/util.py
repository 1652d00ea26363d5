"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from totpos.diagrams import (Chamber, DiagramMove, DoubleWiringDiagram,
                             MoveGraph, chamber_minors, minimal_diagram)
from totpos.exact import LaurentDivisionError, LaurentPoly, as_scalar
from totpos.factorization import factor_staircase, twist
from totpos.matrices import (Matrix, MinorSpec, exact_rank,
                             initial_minor_specs, ldu_decompose, minor_values)
from totpos.networks import (NetworkError, PlanarNetwork, _cross,
                             _on_segment, _segments_conflict)
from totpos.positivity import NotApplicableError
from totpos.somos import SomosPivotError
from totpos.words import (DIAG, LOWER, UPPER, Letter, Move, Permutation,
                          Word, WordError, diag, lower, move_path,
                          product_map, reduced_words, staircase_scheme,
                          transport_params, upper)


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
    """Random factorization scheme of full type, its slant words drawn from
    the full list of reduced words of the reversal; that list outgrows
    memory at n = 7, so larger n raise before it is built."""
    if n > 6:
        raise ValueError(f"rand_full_scheme lists every reduced word; use "
                         f"rand_walk_full_scheme at n = {n}")
    rev = Permutation.reversal(n)
    words = list(reduced_words(rev))
    lw = rng.choice(words)
    uw = rng.choice(words)
    return interleave(rng, [[lower(i) for i in lw],
                            [upper(i) for i in uw],
                            [diag(i) for i in range(1, n + 1)]])


def oracle_reduced_words(w: Permutation):
    """Independent reduced-word oracle, the recursive enumerator: the
    reduced words of w s_i followed by i, over the right descents i of w in
    increasing order, with a validated `Permutation` at every node."""
    if w.length() == 0:
        yield ()
        return
    for i in range(1, w.n):
        if w(i) > w(i + 1):
            shorter = w * Permutation.transposition(w.n, i)
            for prefix in oracle_reduced_words(shorter):
                yield prefix + (i,)


def rand_reduced_word(rng: random.Random, w: Permutation) -> tuple[int, ...]:
    """Random reduced word for w, read off a walk down random right
    descents; unlike `reduced_words` it needs no enumeration, so it reaches
    any n."""
    images = list(w.images)
    letters = []
    while True:
        descents = [i for i in range(1, w.n) if images[i - 1] > images[i]]
        if not descents:
            return tuple(reversed(letters))
        i = rng.choice(descents)
        images[i - 1], images[i] = images[i], images[i - 1]
        letters.append(i)


def rand_walk_full_scheme(rng: random.Random, n: int) -> Word:
    """Random factorization scheme of full type from two descent walks."""
    rev = Permutation.reversal(n)
    return interleave(rng, [[lower(i) for i in rand_reduced_word(rng, rev)],
                            [upper(i) for i in rand_reduced_word(rng, rev)],
                            [diag(i) for i in range(1, n + 1)]])


def rand_typed_scheme(rng: random.Random, n: int) \
        -> tuple[Word, Permutation, Permutation]:
    """Random scheme of a random type (u, v), returned with its type.  It
    lists all n! permutations and every reduced word of u and v, which
    outgrows memory above n = 6, so larger n raise before any draw."""
    if n > 6:
        raise ValueError(f"rand_typed_scheme lists every permutation; use "
                         f"rand_walk_tnn_invertible at n = {n}")
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


def rand_walk_tnn_invertible(rng: random.Random, n: int) -> Matrix:
    """`rand_tnn_invertible` at any n: the type is two shuffles and its
    reduced words descent walks, so nothing is enumerated."""
    u, v = (Permutation(tuple(rng.sample(range(1, n + 1), n)))
            for _ in range(2))
    word = interleave(rng, [[lower(i) for i in rand_reduced_word(rng, u)],
                            [upper(i) for i in rand_reduced_word(rng, v)],
                            [diag(i) for i in range(1, n + 1)]])
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


def oracle_chip(letter: Letter, t, n: int) -> PlanarNetwork:
    """Independent one-letter chip, built by the validating constructor:
    two columns of n vertices, vertex (x, level) with id x * n + level - 1,
    the n unit horizontals bottom up, a diag letter reweighting its own,
    and a slant letter's edge last, rising for upper and falling for
    lower; the essential edge is the reweighted one or the slant."""
    vertices = tuple((x, level) for x in (0, 1) for level in range(1, n + 1))
    edges = [(k, n + k, Fraction(1)) for k in range(n)]
    i = letter.index
    if letter.kind == DIAG:
        edges[i - 1] = (i - 1, n + i - 1, t)
        essential = i - 1
    else:
        edges.append((i - 1, n + i, t) if letter.kind == UPPER
                     else (i, n + i - 1, t))
        essential = n
    return PlanarNetwork(n, vertices, tuple(edges), (essential,))


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


def gauss_det(rows) -> Fraction:
    """Independent determinant oracle by Gaussian elimination on
    `Fraction` rows, pivoting on the first nonzero entry of each column."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            factor = m[r][k] / m[k][k]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


def oracle_bruhat_type(x: Matrix) -> tuple[Permutation, Permutation]:
    """Independent Bruhat-type oracle: one rank per southwest and northeast
    submatrix, each by its own elimination."""
    n = x.n
    if x.det() == 0:
        raise NotApplicableError("Bruhat type is computed for invertible "
                                 "matrices only")

    def rank(rows, cols) -> int:
        return exact_rank(x.submatrix_rows(rows, cols))

    # sw[i, j] of rows i..n and columns 1..j, ne[i, j] of rows 1..i and
    # columns j..n; empty column ranges have rank 0
    idx = range(1, n + 1)
    sw = {(i, j): rank(range(i, n + 1), range(1, j + 1)) if j else 0
          for i in idx for j in range(n + 1)}
    ne = {(i, j): rank(range(1, i + 1), range(j, n + 1)) if j <= n else 0
          for i in idx for j in range(1, n + 2)}
    u_images = [max(i for i in idx if sw[i, j] > sw[i, j - 1]) for j in idx]
    v_images = [min(i for i in idx if ne[i, j] > ne[i, j + 1]) for j in idx]
    return Permutation(tuple(u_images)), Permutation(tuple(v_images))


def oracle_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Independent matrix-product oracle: `Fraction` sums of products."""
    cols = list(zip(*b.rows))
    return Matrix([[sum((x * y for x, y in zip(row, col)), Fraction(0))
                    for col in cols] for row in a.rows])


def oracle_twist(x: Matrix) -> Matrix:
    """Independent twist oracle, the Matrix-level formula
    [x^T w]_+ * w (x^T)^(-1) w * [w x^T]_-: the transpose, two
    `ldu_decompose` calls, `Matrix.inverse` and two `Matrix` products, with
    w applied by reversing rows and columns."""
    xt = x.transpose()
    _, _, plus = ldu_decompose(Matrix([row[::-1] for row in xt.rows]))
    minus, _, _ = ldu_decompose(Matrix(xt.rows[::-1]))
    middle = Matrix([row[::-1] for row in xt.inverse().rows[::-1]])
    return plus * middle * minus


def matrix_product_map(word: Word, params, n: int) -> Matrix:
    """Independent product-map oracle: the ordered product of elementary
    matrices written out entry by entry, multiplied by `oracle_matmul`."""
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
        result = oracle_matmul(result, Matrix(rows))
    return result


def oracle_reconstruct(values, n: int, det=cofactor_det) -> Matrix:
    """Independent reconstruction oracle, the corner recursion: entries in
    order of increasing i + j, the initial minor with corner (i, j) being
    linear in the entry (i, j) with the corner-(i-1, j-1) initial minor as
    coefficient; determinants by ``det``, cofactor expansion by default,
    whose cost grows factorially, so larger sizes pass `gauss_det`.  Needs
    every initial minor nonzero."""
    vals = {(s.rows, s.cols): Fraction(values[s])
            for s in initial_minor_specs(n)}

    def corner(i, j):
        k = min(i, j)
        return (tuple(range(i - k + 1, i + 1)), tuple(range(j - k + 1, j + 1)))

    entries = [[None] * n for _ in range(n)]
    for total in range(2, 2 * n + 1):
        for i in range(max(1, total - n), min(n, total - 1) + 1):
            j = total - i
            rows, cols = corner(i, j)
            if min(i, j) == 1:
                entries[i - 1][j - 1] = vals[rows, cols]
                continue
            sub = [[(Fraction(0) if (r, c) == (i, j)
                     else entries[r - 1][c - 1]) for c in cols] for r in rows]
            rest = det(sub)
            cofactor = vals[corner(i - 1, j - 1)]
            entries[i - 1][j - 1] = (vals[rows, cols] - rest) / cofactor
    return Matrix(entries)


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _prime_exponents(value: Fraction, primes) -> list[int] | None:
    """Exponent vector of value over the given primes, or None if anything
    else divides it (including sign or a leftover factor)."""
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    exps = []
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        exps.append(e)
    if num != 1 or den != 1:
        return None
    return exps


def _integer_inverse(rows) -> list[list[int]] | None:
    """The inverse of a square integer matrix, or None when the matrix is
    singular or its inverse is not integral."""
    try:
        inverse = Matrix(rows).inverse()
    except ZeroDivisionError:
        return None
    if any(v.denominator != 1 for row in inverse.rows for v in row):
        return None
    return [[int(v) for v in row] for row in inverse.rows]


def fitted_twist_exponents(scheme: Word, n: int):
    """Independent twist-monomial oracle, the prime fit: the scheme's
    product at the first n^2 primes, each chamber minor of its twist on the
    diagram of the scheme's slants factored back into those primes, and the
    exponent matrix inverted over the integers.  Returns the rows beta with
    parameter k equal to the product of chamber minor j to the power
    beta[k][j], chambers in `chamber_minors` order; None if a step fails."""
    primes = _primes(n * n)
    diagram = DoubleWiringDiagram(
        tuple(l for l in scheme if l.kind != DIAG), n)
    specs = chamber_minors(diagram)
    values = minor_values(twist(product_map(scheme, primes, n)), specs)
    exponents = [_prime_exponents(value, primes) for value in values]
    if any(row is None for row in exponents):
        return None
    return _integer_inverse(exponents)


def oracle_factor_scheme(x: Matrix, scheme: Word) -> tuple:
    """Independent factor-scheme oracle, parameter transport: the staircase
    parameters of x carried along a move path from the staircase scheme to
    ``scheme``."""
    n = x.n
    start = staircase_scheme(n)
    _, params = transport_params(start, factor_staircase(x),
                                 move_path(start, scheme, n))
    return params


def fitted_staircase_exponents(n: int):
    """Independent staircase-exponent oracle, the prime fit: the staircase
    product at the first n^2 primes, each initial minor factored back into
    those primes (it must be a 0/1 monomial), and the exponent matrix
    inverted over the integers.  Returns (specs, E, E_inverse) as
    `staircase_minor_exponents` does."""
    primes = _primes(n * n)
    x = product_map(staircase_scheme(n), primes, n)
    specs = initial_minor_specs(n)
    exponents = [_prime_exponents(value, primes)
                 for value in minor_values(x, specs)]
    assert all(row is not None and set(row) <= {0, 1} for row in exponents)
    inverse = _integer_inverse(exponents)
    assert inverse is not None
    return specs, exponents, inverse


def fitted_edge_for_minor(n: int) -> dict:
    """The uppermost essential edge of each initial minor, read off the
    fitted exponents: among the letters of the minor's monomial, the one on
    the highest level (diag i on level i, a slant letter i on level
    i + 1)."""
    specs, exponents, _ = fitted_staircase_exponents(n)
    levels = [letter.index + (letter.kind != DIAG)
              for letter in staircase_scheme(n)]
    mapping = {}
    for spec, row in zip(specs, exponents):
        covered = [k for k, e in enumerate(row) if e]
        top = max(levels[k] for k in covered)
        (mapping[spec],) = [k for k in covered if levels[k] == top]
    return mapping


def oracle_tnn_efficient_specs(n: int) -> list[MinorSpec]:
    """The efficient TNN family enumerated with a set of the specs seen:
    [1, k] against each k-subset, both ways round, first occurrences
    kept."""
    seen = set()
    specs = []
    for k in range(1, n + 1):
        head = tuple(range(1, k + 1))
        for other in itertools.combinations(range(1, n + 1), k):
            for spec in (MinorSpec(head, other), MinorSpec(other, head)):
                if spec not in seen:
                    seen.add(spec)
                    specs.append(spec)
    assert len(specs) == 2 ** (n + 1) - n - 2
    return specs


def oracle_initial_minor_specs(n: int) -> list[MinorSpec]:
    """The initial minors by the corner rule written out, row-major: the
    corner (i, j) has size k = min(i, j), rows i-k+1..i and columns
    j-k+1..j."""
    specs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = min(i, j)
            specs.append(MinorSpec(tuple(range(i - k + 1, i + 1)),
                                   tuple(range(j - k + 1, j + 1))))
    return specs


def oracle_validate_planarity(vertices, edges) -> None:
    """Independent planarity oracle, every pair checked: raises the
    `NetworkError` for the first crossing edge pair, else for the first
    vertex lying inside an edge, as ``PlanarNetwork`` must."""
    segs = [(vertices[u], vertices[v]) for u, v, _ in edges]
    for (a, b), (c, d) in itertools.combinations(segs, 2):
        if max(a[0], c[0]) > min(b[0], d[0]):
            continue  # x-ranges disjoint
        if _segments_conflict(a, b, c, d):
            raise NetworkError(f"edges {a}-{b} and {c}-{d} cross")
    for p in vertices:
        for (a, b) in segs:
            if p in (a, b):
                continue
            if _cross(a, b, p) == 0 and _on_segment(p, a, b):
                raise NetworkError(f"vertex {p} lies inside edge {a}-{b}")


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


# ---------------------------------------------------------------------------
# transport oracle: every move rebuilds the word tuple and rescales the
# parameters it touches, one move at a time


def _oracle_swap_ok(a: Letter, b: Letter) -> bool:
    if a.kind == DIAG or b.kind == DIAG:
        return True
    if a.kind == b.kind:
        return abs(a.index - b.index) >= 2
    return a.index != b.index


def _oracle_diag_passes_slant_right(diag_index: int, slant: Letter, t, s):
    """New slant parameter when ``diag k (s)`` moves right past a slant (t)."""
    if slant.kind == UPPER:
        if diag_index == slant.index:
            return t * s
        if diag_index == slant.index + 1:
            return t / s
    else:
        if diag_index == slant.index + 1:
            return t * s
        if diag_index == slant.index:
            return t / s
    return t


def _oracle_braid_ok(word: Word, p: int) -> bool:
    if p + 2 >= len(word):
        return False
    a, b, c = word[p], word[p + 1], word[p + 2]
    return (a.is_slant and a.kind == b.kind == c.kind
            and a.index == c.index and abs(a.index - b.index) == 1)


def _oracle_mixed_ok(word: Word, p: int) -> bool:
    if p + 3 >= len(word):
        return False
    a, b, c, d = word[p:p + 4]
    return (b.kind == DIAG and c.kind == DIAG
            and b.index == a.index and c.index == a.index + 1
            and d.index == a.index and {a.kind, d.kind} == {UPPER, LOWER})


def oracle_apply_move(word: Word, move: Move) -> Word:
    """The letters of a word after one local move, as a new tuple; raises
    `WordError` when the move does not apply at its position."""
    p = move.pos
    if p < 0 or p >= len(word):
        raise WordError(f"move position {p} out of range")
    letters = list(word)
    if move.kind == "swap":
        if p + 1 == len(word):
            raise WordError(f"move position {p} out of range")
        a, b = word[p], word[p + 1]
        if not _oracle_swap_ok(a, b):
            raise WordError(f"letters {a} {b} do not commute")
        letters[p:p + 2] = [b, a]
    elif move.kind == "braid":
        if not _oracle_braid_ok(word, p):
            raise WordError(f"no braid pattern at position {p}")
        a, b = word[p], word[p + 1]
        letters[p:p + 3] = [b, a, b]
    elif move.kind == "mixed":
        if not _oracle_mixed_ok(word, p):
            raise WordError(f"no mixed four-letter pattern at position {p}")
        letters[p], letters[p + 3] = word[p + 3], word[p]
    else:
        raise WordError(f"unknown move kind {move.kind!r}")
    return tuple(letters)


def _oracle_transport_values(word: Word, values: list, move: Move) -> None:
    p = move.pos
    if move.kind == "swap":
        a, b = word[p], word[p + 1]
        ta, tb = values[p], values[p + 1]
        if a.kind == DIAG and b.kind != DIAG:
            tb = _oracle_diag_passes_slant_right(a.index, b, tb, ta)
        elif b.kind == DIAG and a.kind != DIAG:
            # diag moves left: inverse of the rescaling it applies moving right
            ta = _oracle_diag_passes_slant_right(b.index, a, ta, 1 / tb)
        values[p:p + 2] = [tb, ta]
    elif move.kind == "braid":
        t1, t2, t3 = values[p:p + 3]
        total = t1 + t3
        if total == 0:
            raise WordError("braid transport undefined: t1 + t3 = 0")
        values[p:p + 3] = [t2 * t3 / total, total, t1 * t2 / total]
    else:
        t1, t2, t3, t4 = values[p:p + 4]
        forward = word[p].kind == UPPER
        total = t2 + t1 * t3 * t4 if forward else t3 + t1 * t2 * t4
        if total == 0:
            raise WordError(
                "mixed transport undefined at this parameter point")
        if forward:
            values[p:p + 4] = [t3 * t4 / total, total,
                               t2 * t3 / total, t1 * t3 / total]
        else:
            values[p:p + 4] = [t2 * t4 / total, t2 * t3 / total,
                               total, t1 * t2 / total]


def oracle_transport(word: Word, params, moves):
    """Independent transport oracle, one move at a time: each move is
    checked and applied by `oracle_apply_move`, and the parameters it
    touches are rescaled by the local formulas, a diag rescaling each slant
    it passes.  Returns (word, parameters) as `transport_params` does."""
    current = tuple(word)
    values = [as_scalar(t) for t in params]
    for move in moves:
        if len(current) != len(values):
            raise WordError("word/parameter length mismatch")
        new = oracle_apply_move(current, move)
        _oracle_transport_values(current, values, move)
        current = new
    return current, tuple(values)


# ---------------------------------------------------------------------------
# move-graph oracle: the Letter-based move finder, each label validated


def _oracle_line_states(word: Word, n: int):
    thin = list(range(n, 0, -1))
    bold = list(range(1, n + 1))
    states = [(tuple(thin), tuple(bold))]
    for letter in word:
        h = letter.index - 1
        if letter.kind == LOWER:
            thin[h], thin[h + 1] = thin[h + 1], thin[h]
        else:
            bold[h], bold[h + 1] = bold[h + 1], bold[h]
        states.append((tuple(thin), tuple(bold)))
    return states


def _oracle_label(state, level: int) -> MinorSpec:
    thin, bold = state
    return MinorSpec.of(thin[:level], bold[:level])


def oracle_chamber_layout(d: DoubleWiringDiagram) -> list[Chamber]:
    states = _oracle_line_states(d.word, d.n)
    chambers = []
    for level in range(1, d.n + 1):
        cuts = [p + 1 for p, letter in enumerate(d.word)
                if letter.index == level]
        starts = [0] + cuts
        stops = [c - 1 for c in cuts] + [len(d.word)]
        for k, (a, b) in enumerate(zip(starts, stops)):
            chambers.append(Chamber(_oracle_label(states[a], level), level,
                                    a, b, 0 < k < len(starts) - 1))
    return chambers


def oracle_chamber_key(d: DoubleWiringDiagram) -> tuple:
    return tuple(sorted((c.spec.rows, c.spec.cols)
                        for c in oracle_chamber_layout(d)))


def _oracle_free_swap_ok(a: Letter, b: Letter) -> bool:
    if a.kind == b.kind:
        return abs(a.index - b.index) >= 2
    return a.index != b.index


def _oracle_commutation_class(word: Word) -> set:
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for p in range(len(w) - 1):
                if _oracle_free_swap_ok(w[p], w[p + 1]):
                    child = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return seen


def _oracle_apply_letter(state, letter: Letter):
    thin, bold = state
    h = letter.index - 1
    if letter.kind == LOWER:
        thin = thin[:h] + (thin[h + 1], thin[h]) + thin[h + 2:]
    else:
        bold = bold[:h] + (bold[h + 1], bold[h]) + bold[h + 2:]
    return thin, bold


def oracle_moves_from_word(word: Word, n: int) -> list[DiagramMove]:
    states = _oracle_line_states(word, n)
    braids, mixed = [], []
    for p in range(len(word) - 2):
        first, mid, last = word[p:p + 3]
        if not (first.kind == mid.kind == last.kind
                and first.index == last.index
                and abs(first.index - mid.index) == 1):
            continue
        h, g = first.index, mid.index
        new = (word[:p] + (Letter(first.kind, g), Letter(first.kind, h),
                           Letter(first.kind, g)) + word[p + 3:])
        braids.append(DiagramMove(
            f"braid-{first.kind}", word, p, new,
            y=_oracle_label(states[p + 1], h),
            z=_oracle_label(_oracle_apply_letter(
                states[p], Letter(first.kind, g)), g),
            a=_oracle_label(states[p], h),
            b=_oracle_label(states[p + 1], g),
            c=_oracle_label(states[p + 2], g),
            d=_oracle_label(states[p + 3], h)))
    for p in range(len(word) - 1):
        first, second = word[p], word[p + 1]
        if first.kind == second.kind or first.index != second.index:
            continue
        h = first.index
        mixed.append(DiagramMove(
            "mixed", word, p, word[:p] + (second, first) + word[p + 2:],
            y=_oracle_label(states[p + 1], h),
            z=_oracle_label(_oracle_apply_letter(states[p], second), h),
            a=_oracle_label(states[p], h),
            b=_oracle_label(states[p], h + 1),
            c=_oracle_label(states[p + 2], h),
            d=_oracle_label(states[p], h - 1) if h > 1 else None))
    return braids + mixed


def oracle_local_moves(d: DoubleWiringDiagram) -> list[DiagramMove]:
    moves = []
    for w in sorted(_oracle_commutation_class(d.word),
                    key=lambda w: [(l.kind, l.index) for l in w]):
        moves.extend(oracle_moves_from_word(w, d.n))
    return moves


def oracle_move_graph(n: int) -> MoveGraph:
    """Breadth-first closure of `oracle_local_moves`, one witness (the
    first move found) per edge."""
    start = minimal_diagram(n)
    start_key = oracle_chamber_key(start)
    keys = [start_key]
    reps = {start_key: start.word}
    edge_seen: set = set()
    edges = []
    frontier = [start_key]
    while frontier:
        nxt = []
        for key in frontier:
            for move in oracle_local_moves(DoubleWiringDiagram(reps[key], n)):
                bag = list(key)
                bag.remove((move.y.rows, move.y.cols))
                bag.append((move.z.rows, move.z.cols))
                target = tuple(sorted(bag))
                if target == key:
                    continue
                if target not in reps:
                    reps[target] = move.result
                    keys.append(target)
                    nxt.append(target)
                pair = frozenset((key, target))
                if pair not in edge_seen:
                    edge_seen.add(pair)
                    edges.append((key, target, move))
        frontier = nxt
    return MoveGraph(n, keys, reps, edges)


# ---------------------------------------------------------------------------
# Laurent oracles: term loops on Fraction coefficients


def oracle_laurent_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return LaurentPoly(p.variables, out)


def oracle_laurent_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Leading-term elimination under graded-lex order, after both operands
    are reduced by their monomial content; raises `LaurentDivisionError`
    naming the first term that no quotient term reaches."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.variables)

    def shifted(p):
        shift = tuple(min(e[i] for e in p.terms)
                      for i in range(len(p.variables)))
        return shift, {tuple(a - b for a, b in zip(e, shift)): c
                       for e, c in p.terms.items()}

    def glex(e):
        return (sum(e), e)

    shift_n, rem = shifted(num)
    shift_d, bot = shifted(den)
    lt_d = max(bot, key=glex)
    quotient = {}
    while rem:
        lt = max(rem, key=glex)
        step = tuple(a - b for a, b in zip(lt, lt_d))
        if any(e < 0 for e in step):
            raise LaurentDivisionError(
                f"no Laurent quotient: term x^{lt} is not reachable")
        coeff = rem[lt] / bot[lt_d]
        quotient[step] = coeff
        for e, c in bot.items():
            target = tuple(a + b for a, b in zip(e, step))
            acc = rem.get(target, 0) - coeff * c
            if acc == 0:
                rem.pop(target, None)
            else:
                rem[target] = acc
    total = tuple(a - b for a, b in zip(shift_n, shift_d))
    return LaurentPoly(num.variables,
                       {tuple(a + b for a, b in zip(e, total)): c
                        for e, c in quotient.items()})


def oracle_somos5_numeric(seed, count: int) -> list[Fraction]:
    """The Somos-5 recurrence on `Fraction` terms, four operations per term,
    with the checks and errors of `somos5_numeric` in the same order."""
    values = [as_scalar(v) for v in seed]
    if len(values) != 5:
        raise ValueError("need exactly five seed terms")
    if any(v == 0 for v in values):
        raise ValueError("seed terms must be nonzero")
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms = values[:count]
    while len(terms) < count:
        k = len(terms) - 5  # 0-based index of the divisor term
        if terms[k] == 0:
            raise SomosPivotError(k + 1)
        terms.append((terms[k + 1] * terms[k + 4]
                      + terms[k + 2] * terms[k + 3]) / terms[k])
    return terms
