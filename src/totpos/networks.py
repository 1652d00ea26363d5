"""Weighted planar acyclic networks and the disjoint-path minor oracle.

Networks are leveled: each vertex sits at integer coordinates (x, level)
with levels counted bottom-to-top from 1.  Edges point strictly left to
right, and the embedding must be planar (straight edge segments may meet
only at shared endpoints, and may not pass through other vertices).  The
n sources are the vertices of the leftmost column and the n sinks those of
the rightmost column, numbered bottom-to-top.

A `PlanarNetwork` checks all this when built.  A chip (n horizontals, at
most one slant between adjacent levels) is planar by construction, and so
is a network glued from valid networks by `concatenate`, which checks only
its seams; neither is checked again.  `chips_of_word` lays the chips of a
word out in one pass, with the vertex ids, edge order and essential edges
the gluing would give, and `chip` is its one-letter case; the standard
network is built that way, and `concatenate` of one-letter chips is the
oracle for the layout.

The weight matrix entry (i, j) is the sum over directed paths from source
i to sink j of the product of edge weights.  `weight_matrix` computes it
for exact scalar weights in one sweep over the vertices, each carrying its
path sums from all sources as integers over one denominator;
`weight_matrix_raw`, one pass per source in the weights' own ring, is the
path for symbolic weights and the reference the sweep is tested against.
Both read the boundary off the (x, level) order: the first n vertices are
the sources and the last n the sinks.

`disjoint_path_minor` is the independent brute-force oracle summing over
vertex-disjoint path families instead (Lindström's lemma), sharing only
the boundary order with the sweeps: each path is a backtracking walk on
one set of used vertices, and path r + 1 starts each time path r is found.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact import as_scalar
from .matrices import Matrix, MinorSpec, all_minor_specs
from .records import Record
from .words import (_FLOOR, _ONE, DIAG, UPPER, Letter, Word, _reduce,
                    staircase_scheme)

Coord = tuple[int, int]


class NetworkError(ValueError):
    """Malformed network: not leveled, not planar, or bad boundary."""


def _cross(o: Coord, a: Coord, b: Coord) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: Coord, a: Coord, b: Coord) -> bool:
    """p lies on the closed segment ab (colinearity assumed checked)."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_conflict(a: Coord, b: Coord, c: Coord, d: Coord) -> bool:
    """True if segments ab and cd intersect anywhere besides a shared
    endpoint."""
    if (a, b) == (c, d):
        return True
    shared = {a, b} & {c, d}
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)
    # touching or colinear: any endpoint of one lying on the other segment
    # is a conflict unless it is a shared endpoint
    for p, (u, v) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if (p not in shared and _cross(u, v, p) == 0
                and _on_segment(p, u, v)):
            return True
    return False


class PlanarNetwork(Record):
    """Immutable leveled planar network with n sources and n sinks."""

    __slots__ = ("n", "vertices",
                 "edges",       # (tail, head, weight)
                 "essential")   # edge ids in staircase parameter order

    def __init__(self, n: int, vertices: tuple[Coord, ...],
                 edges: tuple[tuple[int, int, Fraction], ...],
                 essential: tuple[int, ...] = ()):
        verts = tuple((int(x), int(level)) for x, level in vertices)
        edges = tuple((int(u), int(v), w if not isinstance(w, (int, str))
                       else as_scalar(w)) for u, v, w in edges)
        self._set(n, verts, edges, essential)
        if len(set(verts)) != len(verts):
            raise NetworkError("duplicate vertex coordinates")
        for u, v, _ in edges:
            if not (0 <= u < len(verts) and 0 <= v < len(verts)):
                raise NetworkError("edge endpoint out of range")
            if verts[u][0] >= verts[v][0]:
                raise NetworkError("edges must increase strictly in x")
        self._validate_boundary()
        self._validate_planarity()

    def _set(self, n, vertices, edges, essential) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "essential", essential)

    @classmethod
    def _trusted(cls, n, vertices, edges, essential) -> "PlanarNetwork":
        """A network from int coordinates and exact weights known to make a
        leveled planar network, as `chips_of_word` and `concatenate` make
        them, left unchecked: the slots are set as ``__init__`` sets them,
        without its checks."""
        net = object.__new__(cls)
        net._set(n, vertices, edges, essential)
        return net

    def _validate_boundary(self) -> None:
        xs = [x for x, _ in self.vertices]
        left, right = xs.count(min(xs)), xs.count(max(xs))
        if left != self.n or right != self.n:
            raise NetworkError(f"expected {self.n} sources and sinks, found "
                               f"{left} / {right}")

    def _validate_planarity(self) -> None:
        """Edges are compared in pairs whose x-ranges overlap in more than
        a point (found by bisecting the edges sorted by left end) and whose
        y-ranges meet, and each vertex against the edges whose open x-range
        holds it, where lying on the edge's line means lying inside the
        edge: an edge meets the vertical line at either end of its x-range
        only in its endpoint there.  The conflict reported is the one a
        scan of all pairs in order meets first: the smallest pair of edge
        ids, else the smallest vertex id and then edge id."""
        segs = [(self.vertices[u], self.vertices[v]) for u, v, _ in self.edges]
        ys = [(a[1], b[1]) if a[1] <= b[1] else (b[1], a[1]) for a, b in segs]
        order = sorted(range(len(segs)), key=segs.__getitem__)
        lefts = [segs[e][0][0] for e in order]
        crossing = None
        for rank, e in enumerate(order):
            right = segs[e][1][0]
            for f in order[rank + 1:bisect_left(lefts, right)]:
                pair = (e, f) if e < f else (f, e)
                if ((crossing is None or pair < crossing)
                        and ys[f][0] <= ys[e][1] and ys[e][0] <= ys[f][1]
                        and _segments_conflict(*segs[pair[0]],
                                               *segs[pair[1]])):
                    crossing = pair
        if crossing is not None:
            (a, b), (c, d) = segs[crossing[0]], segs[crossing[1]]
            raise NetworkError(f"edges {a}-{b} and {c}-{d} cross")
        by_x = self._order()
        xs = [self.vertices[k][0] for k in by_x]
        inside = None
        for e, (a, b) in enumerate(segs):
            for k in by_x[bisect_right(xs, a[0]):bisect_left(xs, b[0])]:
                if ((inside is None or (k, e) < inside)
                        and _cross(a, b, self.vertices[k]) == 0):
                    inside = (k, e)
        if inside is not None:
            a, b = segs[inside[1]]
            raise NetworkError(
                f"vertex {self.vertices[inside[0]]} lies inside edge {a}-{b}")

    # -- derived structure ---------------------------------------------

    def _order(self) -> list[int]:
        """Vertex ids in (x, level) order.  `_validate_boundary` admits n
        vertices in each end column, so the first n are the sources and
        the last n the sinks, each bottom to top."""
        return sorted(range(len(self.vertices)), key=self.vertices.__getitem__)

    @property
    def sources(self) -> tuple[int, ...]:
        """Vertex ids of the sources, numbered bottom-to-top."""
        return tuple(self._order()[:self.n])

    @property
    def sinks(self) -> tuple[int, ...]:
        return tuple(self._order()[-self.n:])

    def out_edges(self) -> list[list[tuple[int, Fraction]]]:
        table: list[list[tuple[int, Fraction]]] = [[] for _ in self.vertices]
        for u, v, w in self.edges:
            table[u].append((v, w))
        return table

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [{"x": x, "level": level}
                         for x, level in self.vertices],
            "edges": [{"from": u, "to": v, "weight": str(w)}
                      for u, v, w in self.edges],
        }

    @classmethod
    def from_json(cls, data) -> "PlanarNetwork":
        vertices = tuple((item["x"], item["level"])
                         for item in data["vertices"])
        edges = tuple((item["from"], item["to"], as_scalar(item["weight"]))
                      for item in data["edges"])
        return cls(int(data["n"]), vertices, edges)


def weight_matrix_raw(net: PlanarNetwork) -> list[list]:
    """Path-sum matrix as a plain list of lists, one dynamic-programming
    pass per source over the vertices in (x, level) order.

    Ring-generic: weights only need + and *, so this is the path for
    symbolic (`LaurentPoly`) weights, and the reference `weight_matrix`
    is tested against."""
    order = net._order()
    # a unit weight (None here) passes the path sum on unmultiplied
    out = [[(v, None if w == 1 else w) for v, w in edges]
           for edges in net.out_edges()]
    sinks = order[-net.n:]
    rows = []
    for source in order[:net.n]:
        sums: dict[int, object] = {source: Fraction(1)}
        for u in order:
            if u not in sums:
                continue
            here = sums[u]
            for v, w in out[u]:
                acc = here if w is None else w * here
                sums[v] = sums[v] + acc if v in sums else acc
        rows.append([sums.get(t, 0) for t in sinks])
    return rows


def weight_matrix(net: PlanarNetwork) -> Matrix:
    """The path-sum matrix of exact scalar weights, from one sweep over the
    vertices in (x, level) order.

    Each vertex reached carries the integer vector of its path sums from
    all n sources over one positive denominator.  A unit edge passes the
    vector on as it is (no vector is changed in place once made); an edge
    of weight p/q multiplies it by p and its denominator by q; where paths
    meet, the vectors add over the lcm of their denominators.  A vector is
    reduced by its gcd only past the limit of `words._reduce`.  A weight is
    coerced when its edge is used, so a weight that is not an exact scalar
    on a path from a source raises :class:`TypeError`, as ``Matrix`` does
    on `weight_matrix_raw`.
    """
    n, verts = net.n, net.vertices
    out = net.out_edges()
    order = net._order()  # the n sources first, the n sinks last
    # per vertex: (path sums from each source, denominator, reduce limit)
    carried: list = [None] * len(verts)
    for k, source in enumerate(order[:n]):
        carried[source] = ([int(i == k) for i in range(n)], 1, _FLOOR)
    for u in order:
        if (here := carried[u]) is None:
            continue
        sums, den, limit = here
        if den.bit_length() > limit:
            den, sums, limit = _reduce(den, sums)
        for v, w in out[u]:
            if w is _ONE or w == 1:
                add, scale = sums, den
            else:
                p, q = as_scalar(w).as_integer_ratio()
                add, scale = [p * a for a in sums], den * q
            if (there := carried[v]) is None:
                carried[v] = (add, scale, limit)
                continue
            old, d, lim = there
            common = lcm(d, scale)
            a, b = common // d, common // scale
            carried[v] = ([x * a + y * b for x, y in zip(old, add)], common,
                          lim if lim > limit else limit)
    zero = (Fraction(0),) * n
    cols = [zero if carried[t] is None else
            [Fraction(a, carried[t][1]) for a in carried[t][0]]
            for t in order[-n:]]
    return Matrix._trusted(tuple(zip(*cols)))


# ---------------------------------------------------------------------------
# vertex-disjoint path enumeration (the Lindstrom oracle)


def _paths(out, u: int, goal: int, used: set[int], weight):
    """Yield ``weight`` times the weight of each path u -> goal stepping
    onto no vertex in ``used``.  A vertex joins ``used`` as the walk steps
    onto it and leaves as the walk backs out, so while a path is yielded
    its vertices are banned for every later path."""
    if u == goal:
        yield weight
        return
    for v, w in out[u]:
        if v not in used:
            used.add(v)
            yield from _paths(out, v, goal, used, weight * w)
            used.remove(v)


def _families(out, sources, sinks, r: int, used: set[int], weight):
    """Yield ``weight`` times the weight of each family of disjoint paths
    sources[k] -> sinks[k], k >= r, avoiding ``used``: path r + 1 starts
    each time path r is yielded, so the nesting is at most the number of
    paths plus the length of one path."""
    if r == len(sources):
        yield weight
        return
    start, goal = sources[r], sinks[r]
    if start in used:
        return
    used.add(start)
    for w in _paths(out, start, goal, used, weight):
        yield from _families(out, sources, sinks, r + 1, used, w)
    used.remove(start)


def _boundary(net: PlanarNetwork):
    """The sources, the sinks and the out-edges, read once per call."""
    order = net._order()
    return tuple(order[:net.n]), tuple(order[-net.n:]), net.out_edges()


def _family_weights(boundary, rows: Sequence[int], cols: Sequence[int]):
    """Yield the weight of each vertex-disjoint, order-preserving path
    family connecting the sources in ``rows`` to the sinks in ``cols``."""
    sources, sinks, out = boundary
    return _families(out, [sources[i - 1] for i in rows],
                     [sinks[j - 1] for j in cols], 0, set(), 1)


def disjoint_path_minor(net: PlanarNetwork, spec: MinorSpec):
    """Sum over vertex-disjoint, order-preserving path families connecting
    the sources in ``spec.rows`` to the sinks in ``spec.cols`` of the
    product of all edge weights.  Brute force: the independent oracle for
    the minors of `weight_matrix`."""
    spec.validate_for(net.n)
    return sum(_family_weights(_boundary(net), spec.rows, spec.cols))


def has_disjoint_family(net: PlanarNetwork, rows: Sequence[int],
                        cols: Sequence[int]) -> bool:
    """Whether some vertex-disjoint family joins ``rows`` to ``cols``."""
    return next(_family_weights(_boundary(net), rows, cols), None) \
        is not None


def is_totally_connected(net: PlanarNetwork) -> bool:
    """True iff every pair of equal-size boundary subsets is joined by some
    vertex-disjoint family."""
    boundary = _boundary(net)
    return all(next(_family_weights(boundary, s.rows, s.cols), None)
               is not None for s in all_minor_specs(net.n))


# ---------------------------------------------------------------------------
# chips and the standard network


def chip(letter: Letter, t, n: int) -> PlanarNetwork:
    """One-column network whose weight matrix is the letter's elementary
    matrix: upper letters get a rising slant, lower letters a falling one,
    diag letters a reweighted horizontal.  The one-letter case of
    `chips_of_word`."""
    return chips_of_word((letter,), (t,), n)


def concatenate(a: PlanarNetwork, *rest: PlanarNetwork) -> PlanarNetwork:
    """Glue each network's sources onto the sinks of the one before it;
    weight matrices multiply.  Sizes and boundary levels must match at each
    seam, and nothing else is checked: each network lies in its own x-strip,
    the strips meet only on the seam lines, and an edge reaches a seam line
    only at its end on the boundary, which is identified with the vertex of
    the same level across.  So the result is planar, with the first
    network's sources and the last one's sinks.  `chips_of_word` lays its
    chips out directly; the concatenation of their one-letter networks is
    its oracle."""
    for left, right in zip((a,) + rest, rest):
        if right.n != a.n:
            raise NetworkError("cannot concatenate networks of different size")
        if ([left.vertices[i][1] for i in left.sinks]
                != [right.vertices[i][1] for i in right.sources]):
            raise NetworkError("boundary levels do not match")
    ids: dict[Coord, int] = {}  # vertex ids in order of first appearance
    edges: list[tuple[int, int, Fraction]] = []
    essential: list[int] = []
    end = min(x for x, _ in a.vertices)  # where the next network starts
    for net in (a,) + rest:
        dx = end - min(x for x, _ in net.vertices)
        local = [ids.setdefault((x + dx, level), len(ids))
                 for x, level in net.vertices]
        offset = len(edges)
        for u, v, w in net.edges:
            edges.append((local[u], local[v], w))
        essential.extend(offset + e for e in net.essential)
        end = max(x for x, _ in net.vertices) + dx
    return PlanarNetwork._trusted(a.n, tuple(ids), tuple(edges),
                                  tuple(essential))


def chips_of_word(word: Word, params: Sequence, n: int) -> PlanarNetwork:
    """The chips of a word glued left to right; its weight matrix equals
    the product map of the word.  The empty word gives one neutral column.

    Laid out in one pass, as `concatenate` would glue the one-letter
    chips: chip x (from 0) spans columns x and x + 1, vertex (x, level)
    has id x * n + level - 1, and each chip adds its n horizontals, bottom
    up, then its slant, if any; its essential edge, the reweighted
    horizontal or the slant, is offset by the edges before it.  n
    horizontals and at most one slant between adjacent levels keep each
    column planar.  The letters are checked in word order: an int or str
    weight becomes a `Fraction`, then a letter out of range or a diag at
    weight 0 raises :class:`NetworkError`.
    """
    if len(word) != len(params):
        raise NetworkError("word/parameter length mismatch")
    if not word:
        return chip(Letter(DIAG, 1), 1, n)  # single neutral column
    edges: list[tuple[int, int, Fraction]] = []
    essential = []
    for x, (letter, t) in enumerate(zip(word, params)):
        if isinstance(t, (int, str)):
            t = as_scalar(t)
        kind, i = letter.kind, letter.index
        if not 1 <= i <= (n if kind == DIAG else n - 1):
            raise NetworkError(f"letter {letter} out of range for n={n}")
        if kind == DIAG and t == 0:
            raise NetworkError("diag chip requires a nonzero weight")
        base, offset = x * n, len(edges)
        edges += [(k, n + k, _ONE) for k in range(base, base + n)]
        if kind == DIAG:
            essential.append(offset + i - 1)
            edges[offset + i - 1] = (base + i - 1, base + n + i - 1, t)
        else:
            essential.append(offset + n)
            edges.append((base + i - 1, base + n + i, t) if kind == UPPER
                         else (base + i, base + n + i - 1, t))
    vertices = tuple((x, level) for x in range(len(word) + 1)
                     for level in range(1, n + 1))
    return PlanarNetwork._trusted(n, vertices, tuple(edges), tuple(essential))


def standard_network(n: int, weights: Sequence | None = None) -> PlanarNetwork:
    """The totally connected network with n^2 essential edges: falling
    slants, one reweighted middle horizontal per level, rising slants.

    ``weights`` assigns the essential edges in staircase parameter order
    (defaults to all ones); every other edge has weight 1.  The weight
    matrix at positive essential weights is totally positive.
    """
    word = staircase_scheme(n)
    if weights is None:
        weights = [Fraction(1)] * len(word)
    if len(weights) != n * n:
        raise NetworkError(f"expected {n * n} essential weights")
    return chips_of_word(word, list(weights), n)
