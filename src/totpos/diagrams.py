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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .matrices import MinorSpec
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


def _line_states(word: Word, n: int) -> list[tuple[tuple[int, ...],
                                                   tuple[int, ...]]]:
    """States (thin lines by track, bold lines by track) after each prefix;
    track index 0 is the bottom line position."""
    thin = list(range(n, 0, -1))   # thin line at track h is numbered n+1-h
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


def _label(state, level: int) -> MinorSpec:
    thin, bold = state
    return MinorSpec.of(thin[:level], bold[:level])


@dataclass(frozen=True)
class Chamber:
    spec: MinorSpec
    level: int
    start: int  # first slice (0 = left edge)
    stop: int   # last slice
    bounded: bool


def chamber_layout(d: DoubleWiringDiagram) -> list[Chamber]:
    """All n^2 chambers with their slice extents, level by level."""
    states = _line_states(d.word, d.n)
    length = len(d.word)
    chambers: list[Chamber] = []
    for level in range(1, d.n + 1):
        cuts = [p + 1 for p, letter in enumerate(d.word)
                if letter.index == level]
        starts = [0] + cuts
        stops = [c - 1 for c in cuts] + [length]
        for k, (a, b) in enumerate(zip(starts, stops)):
            bounded = 0 < k < len(starts) - 1
            chambers.append(Chamber(_label(states[a], level), level, a, b,
                                    bounded))
    return chambers


def chamber_minors(d: DoubleWiringDiagram) -> list[MinorSpec]:
    """The n^2 chamber minor specs, bottom level up, left to right."""
    return [c.spec for c in chamber_layout(d)]


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


def _free_swap_ok(a: Letter, b: Letter) -> bool:
    # crossings that can slide past each other without changing any chamber
    if a.kind == b.kind:
        return abs(a.index - b.index) >= 2
    return a.index != b.index


def _commutation_class(word: Word) -> set[Word]:
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for p in range(len(w) - 1):
                if _free_swap_ok(w[p], w[p + 1]):
                    child = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return seen


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


def _apply_letter(state, letter: Letter):
    thin, bold = state
    h = letter.index - 1
    if letter.kind == LOWER:
        thin = thin[:h] + (thin[h + 1], thin[h]) + thin[h + 2:]
    else:
        bold = bold[:h] + (bold[h + 1], bold[h]) + bold[h + 2:]
    return thin, bold


def _braid_moves(word: Word, n: int, states) -> Iterable[DiagramMove]:
    for p in range(len(word) - 2):
        first, mid, last = word[p:p + 3]
        if not (first.kind == mid.kind == last.kind
                and first.index == last.index
                and abs(first.index - mid.index) == 1):
            continue
        h, g = first.index, mid.index
        new = (word[:p] + (Letter(first.kind, g), Letter(first.kind, h),
                           Letter(first.kind, g)) + word[p + 3:])
        yield DiagramMove(
            kind=f"braid-{first.kind}",
            word=word,
            pos=p,
            result=new,
            y=_label(states[p + 1], h),
            z=_label(_apply_letter(states[p], Letter(first.kind, g)), g),
            a=_label(states[p], h),
            b=_label(states[p + 1], g),
            c=_label(states[p + 2], g),
            d=_label(states[p + 3], h),
        )


def _mixed_moves(word: Word, n: int, states) -> Iterable[DiagramMove]:
    for p in range(len(word) - 1):
        first, second = word[p], word[p + 1]
        if first.kind == second.kind or first.index != second.index:
            continue
        h = first.index
        new = word[:p] + (second, first) + word[p + 2:]
        yield DiagramMove(
            kind="mixed",
            word=word,
            pos=p,
            result=new,
            y=_label(states[p + 1], h),
            z=_label(_apply_letter(states[p], second), h),
            a=_label(states[p], h),
            b=_label(states[p], h + 1),
            c=_label(states[p + 2], h),
            d=_label(states[p], h - 1) if h > 1 else None,
        )


def moves_from_word(word: Word, n: int) -> list[DiagramMove]:
    states = _line_states(word, n)
    return (list(_braid_moves(word, n, states))
            + list(_mixed_moves(word, n, states)))


def local_moves(d: DoubleWiringDiagram) -> list[DiagramMove]:
    """All local moves available anywhere in the isotopy class of d.

    The commutation class of the word is explored so that crossings that
    bound a common chamber become literally adjacent."""
    moves = []
    order = sorted(_commutation_class(d.word),
                   key=lambda w: [(l.kind, l.index) for l in w])
    for w in order:
        moves.extend(moves_from_word(w, d.n))
    return moves


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
    diagram.  Vertices are isotopy classes keyed by chamber multisets."""
    if n > guard:
        raise DiagramError(
            f"enumeration guard: n={n} exceeds {guard}; raise the guard "
            f"explicitly to proceed")
    start = minimal_diagram(n)
    start_key = chamber_key(start)
    keys = [start_key]
    reps: dict[tuple, Word] = {start_key: start.word}
    edge_seen: set[frozenset] = set()
    edges: list[tuple[tuple, tuple, DiagramMove]] = []
    frontier = [start_key]
    while frontier:
        nxt = []
        for key in frontier:
            d = DoubleWiringDiagram(reps[key], n)
            for move in local_moves(d):
                # a move exchanges exactly the chamber y for z
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
