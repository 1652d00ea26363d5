"""Double wiring diagrams, chamber minors, local moves, and the move graph.

A double wiring diagram on n lines per color is encoded by a word over the
slant letters: ``lower h`` records a crossing of the thin family at height
h, ``upper h`` one of the bold family (heights count gaps bottom-to-top,
1..n-1).  Each color's subword must be a reduced word for the reversal, so
every like-colored pair of lines crosses exactly once.

Line numbering (fixed once by the running 3x3 example, which must produce
the chamber minor x_31 in the lower-left chamber):

* bold (upper) lines enter numbered 1..n bottom-to-top on the left;
* thin (lower) lines enter numbered n..1 top-to-bottom on the left, i.e.
  they exit numbered bottom-to-top on the right.

A chamber at level h (above the h-th line gap) is labeled by the pair
(I, J): I = thin lines passing below it, J = bold lines below it; its
chamber minor is the minor with rows I and columns J.  Every diagram has
n^2 chambers with nonempty labels; the region below everything carries
(empty, empty) and is not counted.

Two diagrams are isotopic iff they have the same multiset of chamber
labels; isotopy classes are keyed by that multiset.  Local moves connect
the classes:

* a braid move of either color, rewriting (h, g, h) -> (g, h, g) with
  |h - g| = 1 on three same-color crossings bounding a common chamber;
* a mixed move, flipping the order of a thin and a bold crossing at the
  same height that bound a common chamber.

Each move exchanges exactly one chamber minor Y for a new one Z; the five
surrounding chambers satisfy A*C + B*D = Y*Z (with the label of the
bottom region read as the empty minor 1).

One move finder, `_word_moves` over the words of `_commutation_class`,
serves :func:`moves_from_word`, :func:`local_moves` and
:func:`enumerate_move_graph`.  It runs on plain integers: a word is a
tuple of letter codes, those of a scheme's slants in :mod:`totpos.words`
(lower h -> h, upper h -> n + h, sorting as the letters do), and a chamber
label is one int, ``rows_mask << n | cols_mask``.
The walk along a word keeps the label of each level and flips it with one
XOR per crossing, as a crossing at height h changes only level h.  Labels
are decoded to increasing (rows, cols) tuples, valid by construction, and
Letter and :class:`MinorSpec` objects are made only for a move that is
returned or kept as an edge witness, one letter per code and one spec per
label within a call.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from .matrices import Matrix, MinorSpec, _sweep_family
from .records import Record
from .words import (LOWER, UPPER, Letter, Word, _encode, format_word,
                    is_reduced_word, lower, parse_word, upper)


class DiagramError(ValueError):
    """Malformed double wiring diagram or enumeration guard exceeded."""


class DoubleWiringDiagram(Record):
    __slots__ = ("word", "n")

    def __init__(self, word: Word, n: int):
        object.__setattr__(self, "word", tuple(word))
        object.__setattr__(self, "n", n)
        if n < 1:
            raise DiagramError(f"diagram size n={n} must be at least 1")
        for letter in self.word:
            if letter.kind not in (UPPER, LOWER):
                raise DiagramError(f"letter {letter} is not a crossing")
            if not 1 <= letter.index <= n - 1:
                raise DiagramError(f"height {letter.index} out of range")
        for kind in (UPPER, LOWER):
            heights = [l.index for l in self.word if l.kind == kind]
            if len(heights) != n * (n - 1) // 2 \
                    or not is_reduced_word(heights, n):
                raise DiagramError(
                    f"{kind} crossings do not form a reduced word for the "
                    f"reversal of 1..{n}")

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "DoubleWiringDiagram":
        word = parse_word(text)
        if n is None:
            n = max((l.index + 1 for l in word), default=1)
        return cls(word, n)

    def __str__(self) -> str:
        return format_word(self.word)


def minimal_diagram(n: int) -> DoubleWiringDiagram:
    """The lexicographically minimal diagram: all thin crossings first,
    each color using the staircase word 1, 21, 321, ...; its chamber
    minors are exactly the initial minors."""
    heights = [h for k in range(1, n) for h in range(k, 0, -1)]
    word = tuple(lower(h) for h in heights) + tuple(upper(h) for h in heights)
    return DoubleWiringDiagram(word, n)


# ---------------------------------------------------------------------------
# chambers

# A chamber label is one int, bit n + i - 1 for row i and bit j - 1 for
# column j; decoded, it is the rows and the columns of its minor, increasing.
Label = tuple[tuple[int, ...], tuple[int, ...]]


def _codes(word: Word, n: int) -> tuple[int, ...]:
    """The letter codes (`totpos.words._encode`) of the crossings of
    ``word``: lower h -> h and upper h -> n + h."""
    for letter in word:
        if letter.kind not in (UPPER, LOWER) or not 1 <= letter.index < n:
            raise DiagramError(f"letter {letter} is not a crossing of a "
                               f"diagram with n={n}")
    return tuple(_encode(word, n))


def _letters(n: int) -> dict[int, Letter]:
    """One letter object per code."""
    letters = [*map(lower, range(1, n)), *map(upper, range(1, n))]
    return dict(zip(_encode(letters, n), letters))


def _start(n: int) -> tuple[list[int], list[int]]:
    """The line states left of every crossing: the label bit of the line on
    each track (thin tracks 0..n-1 bottom up, then bold tracks n..2n-1, so
    the crossing ``code`` at height ``code % n`` swaps tracks code - 1 and
    code), and the label of each level 0..n."""
    tracks = [1 << (2 * n - 1 - t) for t in range(n)] \
        + [1 << t for t in range(n)]
    level = [0]
    for t in range(n):
        level.append(level[-1] | tracks[t] | tracks[n + t])
    return tracks, level


def _indices(mask: int) -> tuple[int, ...]:
    """The 1-based positions of the set bits of ``mask``, increasing."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length())
        mask &= mask - 1
    return tuple(out)


def _unpack(label: int, n: int) -> Label:
    return _indices(label >> n), _indices(label & ((1 << n) - 1))


def _chamber_runs(codes: tuple[int, ...], n: int) \
        -> list[list[tuple[int, int]]]:
    """For each level 1..n, its chambers left to right as (first slice,
    label).  A crossing changes only the label of its own level, by the
    bits of the two lines it swaps."""
    tracks, level = _start(n)
    runs = [[(0, level[h])] for h in range(1, n + 1)]
    for p, code in enumerate(codes):
        h = code % n
        level[h] ^= tracks[code - 1] | tracks[code]
        tracks[code - 1], tracks[code] = tracks[code], tracks[code - 1]
        runs[h - 1].append((p + 1, level[h]))
    return runs


class Chamber(Record):
    __slots__ = ("spec", "level",
                 "start",  # first slice (0 = left edge)
                 "stop",   # last slice
                 "bounded")

    def __init__(self, spec: MinorSpec, level: int, start: int, stop: int,
                 bounded: bool):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "bounded", bounded)


def chamber_layout(d: DoubleWiringDiagram) -> list[Chamber]:
    """All n^2 chambers with their slice extents, level by level."""
    chambers: list[Chamber] = []
    for level, run in enumerate(_chamber_runs(_codes(d.word, d.n), d.n), 1):
        stops = [start - 1 for start, _ in run[1:]] + [len(d.word)]
        for k, ((start, label), stop) in enumerate(zip(run, stops)):
            spec = MinorSpec.trusted(*_unpack(label, d.n))
            chambers.append(Chamber(spec, level, start, stop,
                                    0 < k < len(run) - 1))
    return chambers


def chamber_minors(d: DoubleWiringDiagram) -> list[MinorSpec]:
    """The n^2 chamber minor specs, bottom level up, left to right."""
    return [c.spec for c in chamber_layout(d)]


def chamber_family(x: Matrix, d: DoubleWiringDiagram,
                   stop: Callable[[int], bool] | None = None) \
        -> tuple[list[int], list[int]] | None:
    """The chamber minors of x on d, in :func:`chamber_minors` order, as
    :func:`~totpos.matrices.minor_family` returns them.

    At each vertical slice the chambers are the leading minors of x with
    rows in thin-line and columns in bold-line track order, and each
    crossing swaps two adjacent tracks, so one sweep along the word
    computes them all."""
    swaps = [(letter.kind == UPPER, letter.index) for letter in d.word]
    return _sweep_family(x, swaps, stop)


def bounded_chambers(d: DoubleWiringDiagram) -> list[MinorSpec]:
    """Chambers away from the periphery; these distinguish the criteria."""
    return [c.spec for c in chamber_layout(d) if c.bounded]


def unbounded_chambers(d: DoubleWiringDiagram) -> list[MinorSpec]:
    """Peripheral chambers, common to every diagram of the same size: the
    antiprincipal minors and the determinant."""
    return [c.spec for c in chamber_layout(d) if not c.bounded]


def chamber_key(d: DoubleWiringDiagram) -> tuple:
    """Canonical form of the isotopy class: the sorted chamber multiset."""
    runs = _chamber_runs(_codes(d.word, d.n), d.n)
    return tuple(sorted(_unpack(label, d.n)
                        for run in runs for _, label in run))


# ---------------------------------------------------------------------------
# local moves


class DiagramMove(Record):
    """One local move, with the chamber specs of the exchange identity
    ``a*c + b*d = y*z``.  ``y`` is the chamber the move deletes and ``z``
    the one it creates; ``d`` is None when it is the bottom region, whose
    minor is the empty determinant 1."""

    __slots__ = ("kind",    # "braid-upper" | "braid-lower" | "mixed"
                 "word",    # a representative word the move applies to
                 "pos", "result", "y", "z", "a", "b", "c", "d")

    def __init__(self, kind: str, word: Word, pos: int, result: Word,
                 y: MinorSpec, z: MinorSpec, a: MinorSpec, b: MinorSpec,
                 c: MinorSpec, d: MinorSpec | None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


# A move found in an int-coded word: (word, pos, kind, y, z, a, b, c, d),
# the chambers as int labels.
Candidate = tuple[tuple[int, ...], int, str, int, int, int, int, int,
                  int | None]


def _commutation_class(word: tuple[int, ...], n: int) \
        -> list[tuple[int, ...]]:
    """The int-coded words reached from ``word`` by sliding crossings that
    bound no common chamber past each other, sorted.  Those are crossings
    of one color at heights two or more apart and crossings of two colors
    at different heights: their codes differ by 2 or more, and not by n."""
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for p in range(len(w) - 1):
                gap = abs(w[p] - w[p + 1])
                if gap >= 2 and gap != n:
                    child = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return sorted(seen)


def _word_moves(word: tuple[int, ...], n: int,
                start: tuple[list[int], list[int]]) -> list[Candidate]:
    """The moves on literally adjacent crossings of one int-coded word:
    braid moves (h, g, h) -> (g, h, g) of one color, then mixed moves on a
    thin and a bold crossing at one height, each by position, walked from
    the line states ``start``.  ``x`` and ``w`` are the bits the first and
    the second crossing flip at their levels, both read before the first:
    ``y`` is the chamber the first crossing makes, ``z`` the one the second
    would make in its place, and the chambers after the move (``c`` and,
    for a braid, ``d``) differ from those before by ``x ^ w``."""
    tracks, level = start[0][:], start[1][:]
    braids: list[Candidate] = []
    mixed: list[Candidate] = []
    for p in range(len(word) - 1):
        first, second = word[p], word[p + 1]
        h = first % n
        x = tracks[first - 1] | tracks[first]
        gap = abs(first - second)
        if gap == n:
            a, w = level[h], tracks[second - 1] | tracks[second]
            mixed.append((word, p, "mixed", a ^ x, a ^ w, a, level[h + 1],
                          a ^ x ^ w, level[h - 1] if h > 1 else None))
        elif gap == 1 and p + 2 < len(word) and word[p + 2] == first:
            a, b = level[h], level[second % n]
            w = tracks[second - 1] | tracks[second]
            kind = f"braid-{LOWER if first < n else UPPER}"
            braids.append((word, p, kind, a ^ x, b ^ w, a, b, b ^ x ^ w,
                           a ^ x ^ w))
        level[h] ^= x
        tracks[first - 1], tracks[first] = tracks[first], tracks[first - 1]
    return braids + mixed


def _result(found: Candidate) -> tuple[int, ...]:
    """The int-coded word a candidate move leads to."""
    word, p = found[0], found[1]
    if found[2] == "mixed":
        return word[:p] + (word[p + 1], word[p]) + word[p + 2:]
    return word[:p] + (word[p + 1], word[p], word[p + 1]) + word[p + 3:]


def _specs(found: list[Candidate], n: int) -> dict[int, MinorSpec]:
    """One trusted spec per chamber the candidates name."""
    return {label: MinorSpec.trusted(*_unpack(label, n))
            for label in {label for f in found for label in f[3:]} - {None}}


def _move(found: Candidate, letters: dict[int, Letter],
          specs: dict[int, MinorSpec]) -> DiagramMove:
    """The full move of a candidate, its letters from ``letters`` and its
    specs from ``specs``, so the moves of one call share them."""
    word, p, kind, *labels = found
    y, z, a, b, c, d = (None if label is None else specs[label]
                        for label in labels)
    return DiagramMove(kind, tuple(letters[x] for x in word), p,
                       tuple(letters[x] for x in _result(found)),
                       y, z, a, b, c, d)


def moves_from_word(word: Word, n: int) -> list[DiagramMove]:
    """The moves on literally adjacent crossings of ``word``."""
    found = _word_moves(_codes(word, n), n, _start(n))
    letters, specs = _letters(n), _specs(found, n)
    return [_move(f, letters, specs) for f in found]


def _check_guard(n: int, guard: int) -> None:
    if n > guard:
        raise DiagramError(
            f"enumeration guard: n={n} exceeds {guard}; raise the guard "
            f"explicitly to proceed")


def local_moves(d: DoubleWiringDiagram, guard: int = 4) -> list[DiagramMove]:
    """All local moves available anywhere in the isotopy class of d, word
    by word through its commutation class in sorted order, so that
    crossings that bound a common chamber become literally adjacent.  A
    class at n = 5 can hold millions of words, so above ``guard`` this
    raises before the walk."""
    _check_guard(d.n, guard)
    start = _start(d.n)
    found = [f for w in _commutation_class(_codes(d.word, d.n), d.n)
             for f in _word_moves(w, d.n, start)]
    letters, specs = _letters(d.n), _specs(found, d.n)
    return [_move(f, letters, specs) for f in found]


# ---------------------------------------------------------------------------
# the move graph


class MoveGraph(Record):
    """The move graph; unlike the other records its fields can be set."""

    __slots__ = ("n",
                 "keys",             # canonical forms, in BFS order
                 "representatives",
                 "edges")            # one witness move per edge
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n: int, keys: list[tuple],
                 representatives: dict[tuple, Word],
                 edges: list[tuple[tuple, tuple, DiagramMove]]):
        self.n = n
        self.keys = keys
        self.representatives = representatives
        self.edges = edges

    @property
    def vertex_count(self) -> int:
        return len(self.keys)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def enumerate_move_graph(n: int, guard: int = 4) -> MoveGraph:
    """Breadth-first closure of the local moves starting from the minimal
    diagram.  Vertices are isotopy classes keyed by chamber multisets; the
    witness of each edge is the first move found that joins its ends.

    The closure runs on int labels: a class is the sorted tuple of its
    labels and its representative an int-coded word.  A move found at a
    class is skipped, before its target is built, when its exchange
    (y, z) is that of an edge already found there: a repeat within the
    class, or the reverse of an edge found from its other end.  So every
    move handled is a new edge.  Each label is decoded and each word
    spelled in letters once at the end, and the witnesses are built only
    for the edges."""
    _check_guard(n, guard)
    start = _start(n)
    first = _codes(minimal_diagram(n).word, n)
    first_key = tuple(sorted(label for run in _chamber_runs(first, n)
                             for _, label in run))
    keys = [first_key]
    index = {first_key: 0}
    reps = [first]
    # per class, the exchanges (y, z) of the edges found at it: a move
    # exchanges exactly the chamber y for another chamber z, so (y, z)
    # names the class it leads to, and the edge back is (z, y) there
    seen: list[set[tuple[int, int]]] = [set()]
    found_edges: list[tuple[int, int, Candidate]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for k in frontier:
            key, done = keys[k], seen[k]
            for w in _commutation_class(reps[k], n):
                for found in _word_moves(w, n, start):
                    y, z = yz = found[3], found[4]
                    if yz in done:
                        continue
                    done.add(yz)
                    i = bisect_left(key, y)
                    bag = key[:i] + key[i + 1:]
                    j = bisect_left(bag, z)
                    target = bag[:j] + (z,) + bag[j:]
                    t = index.get(target)
                    if t is None:
                        t = index[target] = len(keys)
                        keys.append(target)
                        seen.append(set())
                        reps.append(_result(found))
                        nxt.append(t)
                    seen[t].add((z, y))
                    found_edges.append((k, t, found))
        frontier = nxt
    # every witness chamber is a chamber of a class reached
    pairs = {label: _unpack(label, n) for label in set().union(*keys)}
    specs = {label: MinorSpec.trusted(*pair) for label, pair in pairs.items()}
    specs[None] = None
    letters = _letters(n)
    spelled: dict[tuple[int, ...], Word] = {}

    def spell(word: tuple[int, ...]) -> Word:
        if word not in spelled:
            spelled[word] = tuple(map(letters.__getitem__, word))
        return spelled[word]

    names = [tuple(sorted(map(pairs.__getitem__, key))) for key in keys]
    edges = []
    for k, t, found in found_edges:
        word, p, kind, y, z, a, b, c, d = found
        edges.append((names[k], names[t],
                      DiagramMove(kind, spell(word), p, spell(_result(found)),
                                  specs[y], specs[z], specs[a], specs[b],
                                  specs[c], specs[d])))
    return MoveGraph(n, names, dict(zip(names, map(spell, reps))), edges)
