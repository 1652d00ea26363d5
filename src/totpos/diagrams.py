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

One move finder serves :func:`moves_from_word`, :func:`local_moves` and
:func:`enumerate_move_graph`.  It runs on plain integers: a word is a
tuple of letter codes (lower h -> h, upper h -> n + h, which sort as the
letters do) and a chamber label is a (rows, cols) pair of int tuples read
straight off the line states, valid by construction.  Letter and
:class:`MinorSpec` objects are made only for a move that is returned or
kept as an edge witness, one letter per code and one spec per label within
a call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator

from .matrices import Matrix, MinorSpec, _sweep_family
from .words import (LOWER, UPPER, Letter, Word, format_word,
                    is_reduced_word, lower, parse_word, upper)


class DiagramError(ValueError):
    """Malformed double wiring diagram or enumeration guard exceeded."""


@dataclass(frozen=True)
class DoubleWiringDiagram:
    word: Word
    n: int

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        n = self.n
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

# A chamber label: the rows and the columns of its minor, increasing.
Label = tuple[tuple[int, ...], tuple[int, ...]]


def _codes(word: Word, n: int) -> tuple[int, ...]:
    """The crossings of ``word`` coded lower h -> h and upper h -> n + h, so
    codes sort as the letters' (kind, index) pairs do."""
    codes = []
    for letter in word:
        if letter.kind not in (UPPER, LOWER) or not 1 <= letter.index < n:
            raise DiagramError(f"letter {letter} is not a crossing of a "
                               f"diagram with n={n}")
        codes.append(letter.index if letter.kind == LOWER
                     else n + letter.index)
    return tuple(codes)


def _letters(n: int) -> dict[int, Letter]:
    """One letter object per code."""
    return {code: lower(code) if code < n else upper(code - n)
            for code in [*range(1, n), *range(n + 1, 2 * n)]}


def _line_states(codes: tuple[int, ...], n: int) \
        -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """States (thin lines by track, bold lines by track) after each prefix;
    track index 0 is the bottom line position."""
    thin = list(range(n, 0, -1))   # thin line at track h is numbered n+1-h
    bold = list(range(1, n + 1))
    states = [(tuple(thin), tuple(bold))]
    for code in codes:
        lines, h = (thin, code) if code < n else (bold, code - n)
        lines[h - 1], lines[h] = lines[h], lines[h - 1]
        states.append((tuple(thin), tuple(bold)))
    return states


def _label(thin, bold, level: int) -> Label:
    """The chamber at ``level``: the thin and the bold lines below it."""
    return tuple(sorted(thin[:level])), tuple(sorted(bold[:level]))


def _crossing_label(thin, bold, code: int, n: int) -> Label:
    """The chamber at the crossing's own level once the crossing ``code``
    is applied to the tracks: its two lines trade places there."""
    if code < n:
        return (tuple(sorted((*thin[:code - 1], thin[code]))),
                tuple(sorted(bold[:code])))
    h = code - n
    return (tuple(sorted(thin[:h])),
            tuple(sorted((*bold[:h - 1], bold[h]))))


@dataclass(frozen=True)
class Chamber:
    spec: MinorSpec
    level: int
    start: int  # first slice (0 = left edge)
    stop: int   # last slice
    bounded: bool


def chamber_layout(d: DoubleWiringDiagram) -> list[Chamber]:
    """All n^2 chambers with their slice extents, level by level."""
    states = _line_states(_codes(d.word, d.n), d.n)
    length = len(d.word)
    chambers: list[Chamber] = []
    for level in range(1, d.n + 1):
        cuts = [p + 1 for p, letter in enumerate(d.word)
                if letter.index == level]
        starts = [0] + cuts
        stops = [c - 1 for c in cuts] + [length]
        for k, (a, b) in enumerate(zip(starts, stops)):
            bounded = 0 < k < len(starts) - 1
            spec = MinorSpec.trusted(*_label(*states[a], level))
            chambers.append(Chamber(spec, level, a, b, bounded))
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
    return tuple(sorted((c.spec.rows, c.spec.cols)
                        for c in chamber_layout(d)))


# ---------------------------------------------------------------------------
# local moves


@dataclass(frozen=True)
class DiagramMove:
    """One local move, with the chamber specs of the exchange identity
    ``a*c + b*d = y*z``.  ``y`` is the chamber the move deletes and ``z``
    the one it creates; ``d`` is None when it is the bottom region, whose
    minor is the empty determinant 1."""

    kind: str                 # "braid-upper" | "braid-lower" | "mixed"
    word: Word                # a representative word the move applies to
    pos: int
    result: Word
    y: MinorSpec
    z: MinorSpec
    a: MinorSpec
    b: MinorSpec
    c: MinorSpec
    d: MinorSpec | None


# A move found in an int-coded word: (word, pos, kind, y, z).
Candidate = tuple[tuple[int, ...], int, str, Label, Label]


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


def _word_moves(word: tuple[int, ...], n: int) -> list[Candidate]:
    """The moves on literally adjacent crossings of one int-coded word:
    braid moves (h, g, h) -> (g, h, g) of one color, then mixed moves on a
    thin and a bold crossing at one height, each by position.  ``y`` is
    the chamber the first crossing makes at its level, ``z`` the one the
    second would make in its place."""
    thin = list(range(n, 0, -1))
    bold = list(range(1, n + 1))
    braids: list[Candidate] = []
    mixed: list[Candidate] = []
    for p in range(len(word) - 1):
        first, second = word[p], word[p + 1]
        gap = abs(first - second)
        if gap == n:
            mixed.append((word, p, "mixed",
                          _crossing_label(thin, bold, first, n),
                          _crossing_label(thin, bold, second, n)))
        elif gap == 1 and p + 2 < len(word) and word[p + 2] == first:
            kind = f"braid-{LOWER if first < n else UPPER}"
            braids.append((word, p, kind,
                           _crossing_label(thin, bold, first, n),
                           _crossing_label(thin, bold, second, n)))
        lines, h = (thin, first) if first < n else (bold, first - n)
        lines[h - 1], lines[h] = lines[h], lines[h - 1]
    return braids + mixed


def _class_moves(word: tuple[int, ...], n: int) -> Iterator[Candidate]:
    """The move finder: the moves of every word in the commutation class of
    ``word``, word by word in sorted order, so that crossings that bound a
    common chamber become literally adjacent."""
    for w in _commutation_class(word, n):
        yield from _word_moves(w, n)


def _move(found: Candidate, n: int, letters: dict[int, Letter],
          specs: dict[Label, MinorSpec]) -> DiagramMove:
    """The full move of a candidate.  Its letters come from ``letters`` and
    its specs from ``specs``, which holds one spec per label and is filled
    as labels appear, so the moves of one call share them."""
    word, p, kind, y, z = found
    states = _line_states(word[:p + 3], n)
    first, second = word[p], word[p + 1]
    h = first if first < n else first - n
    if kind == "mixed":
        result = word[:p] + (second, first) + word[p + 2:]
        a = _label(*states[p], h)
        b = _label(*states[p], h + 1)
        c = _label(*states[p + 2], h)
        d = _label(*states[p], h - 1) if h > 1 else None
    else:
        g = second if second < n else second - n
        result = word[:p] + (second, first, second) + word[p + 3:]
        a = _label(*states[p], h)
        b = _label(*states[p + 1], g)
        c = _label(*states[p + 2], g)
        d = _label(*states[p + 3], h)

    def spec(label: Label | None) -> MinorSpec | None:
        if label is None:
            return None
        found_spec = specs.get(label)
        if found_spec is None:
            found_spec = specs[label] = MinorSpec.trusted(*label)
        return found_spec

    return DiagramMove(kind, tuple(letters[x] for x in word), p,
                       tuple(letters[x] for x in result), spec(y), spec(z),
                       spec(a), spec(b), spec(c), spec(d))


def moves_from_word(word: Word, n: int) -> list[DiagramMove]:
    """The moves on literally adjacent crossings of ``word``."""
    letters, specs = _letters(n), {}
    return [_move(found, n, letters, specs)
            for found in _word_moves(_codes(word, n), n)]


def local_moves(d: DoubleWiringDiagram) -> list[DiagramMove]:
    """All local moves available anywhere in the isotopy class of d, word
    by word through its commutation class in sorted order."""
    letters, specs = _letters(d.n), {}
    return [_move(found, d.n, letters, specs)
            for found in _class_moves(_codes(d.word, d.n), d.n)]


# ---------------------------------------------------------------------------
# the move graph


@dataclass
class MoveGraph:
    n: int
    keys: list[tuple]                     # canonical forms, in BFS order
    representatives: dict[tuple, Word]
    edges: list[tuple[tuple, tuple, DiagramMove]]  # one witness move per edge

    @property
    def vertex_count(self) -> int:
        return len(self.keys)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def enumerate_move_graph(n: int, guard: int = 4) -> MoveGraph:
    """Breadth-first closure of the local moves starting from the minimal
    diagram.  Vertices are isotopy classes keyed by chamber multisets; the
    witness of each edge is the first move found that joins its ends."""
    if n > guard:
        raise DiagramError(
            f"enumeration guard: n={n} exceeds {guard}; raise the guard "
            f"explicitly to proceed")
    start = minimal_diagram(n)
    start_key = chamber_key(start)
    letters: dict[int, Letter] = _letters(n)
    specs: dict[Label, MinorSpec] = {}
    keys = [start_key]
    index = {start_key: 0}
    reps: dict[tuple, Word] = {start_key: start.word}
    edge_seen: set[tuple[int, int]] = set()
    edges: list[tuple[tuple, tuple, DiagramMove]] = []
    frontier = [start_key]
    while frontier:
        nxt = []
        for key in frontier:
            k = index[key]
            tried: set[tuple[Label, Label]] = set()
            for found in _class_moves(_codes(reps[key], n), n):
                y, z = found[3], found[4]
                # a move exchanges exactly the chamber y for z, so a repeat
                # of (y, z) reaches the same class again
                if y == z or (y, z) in tried:
                    continue
                tried.add((y, z))
                i = bisect_left(key, y)
                bag = key[:i] + key[i + 1:]
                j = bisect_left(bag, z)
                target = bag[:j] + (z,) + bag[j:]
                t = index.get(target)
                fresh = t is None
                if fresh:
                    t = index[target] = len(keys)
                    keys.append(target)
                pair = (k, t) if k < t else (t, k)
                if pair in edge_seen:
                    continue
                edge_seen.add(pair)
                move = _move(found, n, letters, specs)
                edges.append((key, target, move))
                if fresh:
                    reps[target] = move.result
                    nxt.append(target)
        frontier = nxt
    return MoveGraph(n, keys, reps, edges)
