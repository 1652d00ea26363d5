"""Letters, words, factorization schemes, and the product map into matrices.

For ambient size n the alphabet has three kinds of letters, each with a
parameter t and an elementary matrix:

* ``upper i`` (1 <= i < n): identity plus t in entry (i, i+1); written ``i``
* ``lower i`` (1 <= i < n): identity plus t in entry (i+1, i); written ``i~``
* ``diag i``  (1 <= i <= n): identity with entry (i, i) replaced by t
  (t must be nonzero); written ``@i``

`product_map` is the one place that says what a letter does: letters act
on the running product as column operations, and `elementary_matrix` is
the product of a one-letter word.

Words are whitespace-separated in the ASCII encoding, e.g.
``"2~ 1 @3 2 1~ @1 2~ 1 @2"``.  A *factorization scheme* is a word that
contains each diag letter exactly once and whose lower (resp. upper)
subword is a reduced word; its type is the pair of permutations those
subwords represent.

Local moves rewrite a word while transporting parameters so that the
matrix product is unchanged; all transport formulas are subtraction-free,
so positive parameters stay positive.  `apply_move_word` is the one
rewrite of the letters; `transport_params` adds the parameter formulas
along a move sequence (`local_move_transport` for one move).  Three kinds
exist:

* ``swap``: two adjacent commuting letters trade places.  Slant letters of
  the same kind commute when their indices differ by >= 2, slant letters of
  opposite kinds when their indices differ; both keep parameters.  A diag
  letter commutes with everything, rescaling the slant parameter it passes
  by a monomial.
* ``braid``: ``(i, j, i) -> (j, i, j)`` on same-kind slants with |i-j| = 1,
  with (t1, t2, t3) -> (t2 t3 / T, T, t1 t2 / T), T = t1 + t3.
* ``mixed``: the four-letter relation
  ``(upper i, diag i, diag i+1, lower i) -> (lower i, diag i, diag i+1,
  upper i)`` with (t1, t2, t3, t4) -> (t3 t4 / T, T, t2 t3 / T, t1 t3 / T),
  T = t2 + t1 t3 t4, and its inverse in the other direction.

Only the braid and mixed formulas are forced; the diag rescalings follow
from 2x2 matrix algebra and are re-verified by the product-preservation
tests.

`moves_to_staircase` routes a full-type scheme to the staircase scheme by
fetching each staircase letter, from the left, to its place: the
constructive proof of Tits' word property, with a mixed move where an
upper and a lower letter of one index meet.  `move_path` joins two routes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .exact import as_scalar
from .matrices import Matrix
from .records import Record

UPPER = "upper"
LOWER = "lower"
DIAG = "diag"


class WordError(ValueError):
    """Malformed word, scheme, or inapplicable move."""


# ---------------------------------------------------------------------------
# permutations


class Permutation(Record):
    """Permutation of [1, n] stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(v) for v in images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..n")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        """The order-reversing permutation, the longest element."""
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (p * q)(k) = p(q(k))."""
        return Permutation(tuple(self.images[other.images[k] - 1]
                                 for k in range(self.n)))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation(tuple(images))

    def length(self) -> int:
        """Number of inversions."""
        return sum(1 for a, b in itertools.combinations(self.images, 2)
                   if a > b)

    def one_line(self) -> str:
        return "[" + " ".join(map(str, self.images)) + "]"

    def matrix(self) -> Matrix:
        n = self.n
        return Matrix([[1 if self.images[j] == i + 1 else 0
                        for j in range(n)] for i in range(n)])


def permutation_of_word(gens: Sequence[int], n: int) -> Permutation:
    """Product of adjacent transpositions, composed in word order."""
    w = Permutation.identity(n)
    for g in gens:
        if not 1 <= g <= n - 1:
            raise ValueError(f"generator {g} out of range for n={n}")
        w = w * Permutation.transposition(n, g)
    return w


def is_reduced_word(gens: Sequence[int], n: int) -> bool:
    """True iff the word has the shortest possible length for its product."""
    return len(gens) == permutation_of_word(gens, n).length()


def is_reduced_word_for(gens: Sequence[int], w: Permutation) -> bool:
    return (permutation_of_word(gens, w.n) == w
            and len(gens) == w.length())


def reduced_words(w: Permutation):
    """Enumerate all reduced words for w, lazily, by backtracking over right
    descents i in increasing order (a reduced word of w s_i, then i).  The
    walk swaps entries of one image list and fills one letter buffer from
    its end."""
    images = list(w.images)
    n, length = w.n, w.length()
    if not length:
        yield ()
        return
    letters = [0] * length
    depth = 0  # letters[length - depth:] are chosen
    i = 1  # the next descent to try at this depth
    while True:
        while i < n and images[i - 1] < images[i]:
            i += 1
        if i < n:
            depth += 1
            letters[length - depth] = i
            if depth < length:
                images[i - 1], images[i] = images[i], images[i - 1]
                i = 1
                continue
            # the first letter: what is left is s_i, with no other descent
            yield tuple(letters)
            depth -= 1
        if not depth:
            return
        i = letters[length - depth]
        images[i - 1], images[i] = images[i], images[i - 1]
        depth -= 1
        i += 1


# ---------------------------------------------------------------------------
# letters and words


class Letter(Record):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        if kind not in (UPPER, LOWER, DIAG):
            raise ValueError(f"unknown letter kind {kind!r}")
        if index < 1:
            raise ValueError("letter index must be >= 1")

    def __eq__(self, other):
        if other.__class__ is not Letter:
            return NotImplemented
        return self.kind == other.kind and self.index == other.index

    def __hash__(self):
        return hash((self.kind, self.index))

    @property
    def is_slant(self) -> bool:
        return self.kind != DIAG

    def __str__(self) -> str:
        if self.kind == UPPER:
            return str(self.index)
        if self.kind == LOWER:
            return f"{self.index}~"
        return f"@{self.index}"


def upper(i: int) -> Letter:
    return Letter(UPPER, i)


def lower(i: int) -> Letter:
    return Letter(LOWER, i)


def diag(i: int) -> Letter:
    return Letter(DIAG, i)


Word = tuple[Letter, ...]


def parse_word(text: str) -> Word:
    letters = []
    for token in text.split():
        if token.startswith("@"):
            letters.append(diag(int(token[1:])))
        elif token.endswith("~"):
            letters.append(lower(int(token[:-1])))
        else:
            letters.append(upper(int(token)))
    return tuple(letters)


def format_word(word: Iterable[Letter]) -> str:
    return " ".join(str(letter) for letter in word)


def infer_n(word: Word) -> int:
    """Smallest ambient size compatible with the letters."""
    n = 1
    for letter in word:
        n = max(n, letter.index + (0 if letter.kind == DIAG else 1))
    return n


def validate_word(word: Word, n: int) -> None:
    for letter in word:
        top = n if letter.kind == DIAG else n - 1
        if letter.index > top:
            raise WordError(f"letter {letter} out of range for n={n}")


def elementary_matrix(letter: Letter, t, n: int) -> Matrix:
    """The elementary Jacobi matrix of one letter at parameter t: the
    product map of the one-letter word."""
    t = as_scalar(t)
    validate_word((letter,), n)  # a bad letter is named even when n < 1
    return product_map((letter,), (t,), n)


def product_map(word: Word, params: Sequence, n: int | None = None) -> Matrix:
    """Ordered product of the elementary matrices of a word.

    Each letter acts on the running product as one column operation:
    ``upper i`` adds t times column i to column i+1, ``lower i`` adds t
    times column i+1 to column i, and ``diag i`` scales column i by t.
    Diag letters require nonzero parameters; slant parameters may be any
    rational (zero included, for boundary factorizations).

    Column j of the running product is held as integers over one
    denominator, kept in lowest terms; the `Fraction` entries are built
    once, at the end.
    """
    if n is None:
        n = infer_n(word)
    params = [as_scalar(t) for t in params]
    if len(params) != len(word):
        raise WordError(f"{len(word)} letters but {len(params)} parameters")
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    dens = [1] * n
    for letter, t in zip(word, params):
        validate_word((letter,), n)
        i = letter.index - 1
        p, q = t.numerator, t.denominator
        if letter.kind == DIAG:
            if p == 0:
                raise WordError(
                    f"diag letter @{i + 1} is undefined at parameter 0")
            target = i
            den = dens[i] * q
            col = [p * v for v in cols[i]]
        else:
            source, target = (i, i + 1) if letter.kind == UPPER else (i + 1, i)
            # cols[target] / dens[target] + (p / q) * cols[source] / dens[source]
            scaled = dens[source] * q
            den = lcm(dens[target], scaled)
            keep, add = den // dens[target], p * (den // scaled)
            col = [a * keep + b * add
                   for a, b in zip(cols[target], cols[source])]
        common = gcd(den, *col)
        if common > 1:
            den //= common
            col = [v // common for v in col]
        cols[target], dens[target] = col, den
    return Matrix([[Fraction(col[r], den) for col, den in zip(cols, dens)]
                   for r in range(n)])


def staircase_scheme(n: int) -> Word:
    """The length-n^2 scheme whose chips deform into the standard network:
    a falling staircase of lower letters, the diag letters in ascending
    order, then the mirrored rising staircase of upper letters."""
    slants = [i for k in range(n - 1, 0, -1) for i in range(k, n)]
    return (tuple(lower(i) for i in slants)
            + tuple(diag(i) for i in range(1, n + 1))
            + tuple(upper(i) for i in slants))


def validate_scheme(word: Word, n: int | None = None) \
        -> tuple[Permutation, Permutation]:
    """Check the scheme shape and return its type (u, v).

    Requires each diag letter 1..n exactly once, the lower subword reduced
    (giving u) and the upper subword reduced (giving v).
    """
    if n is None:
        n = infer_n(word)
    validate_word(word, n)
    diag_indices = sorted(letter.index for letter in word
                          if letter.kind == DIAG)
    if diag_indices != list(range(1, n + 1)):
        raise WordError(
            f"diag letters must appear exactly once each; got {diag_indices}")
    lowers = [letter.index for letter in word if letter.kind == LOWER]
    uppers = [letter.index for letter in word if letter.kind == UPPER]
    if not is_reduced_word(lowers, n):
        raise WordError(f"lower subword {lowers} is not reduced")
    if not is_reduced_word(uppers, n):
        raise WordError(f"upper subword {uppers} is not reduced")
    return permutation_of_word(lowers, n), permutation_of_word(uppers, n)


def is_full_scheme(word: Word, n: int | None = None) -> bool:
    """True iff the scheme has type (reversal, reversal)."""
    if n is None:
        n = infer_n(word)
    try:
        u, v = validate_scheme(word, n)
    except WordError:
        return False
    rev = Permutation.reversal(n)
    return u == rev and v == rev


# ---------------------------------------------------------------------------
# local moves and parameter transport


class Move(Record):
    __slots__ = ("kind",  # "swap" | "braid" | "mixed"
                 "pos")   # leftmost 0-based position of the rewritten block

    def __init__(self, kind: str, pos: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)


def _swap_ok(a: Letter, b: Letter) -> bool:
    if a.kind == DIAG or b.kind == DIAG:
        return True
    if a.kind == b.kind:
        return abs(a.index - b.index) >= 2
    return a.index != b.index


def _diag_passes_slant_right(diag_index: int, slant: Letter, t: Fraction,
                             s: Fraction) -> Fraction:
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


def _braid_ok(word: Sequence[Letter], p: int) -> bool:
    if p + 2 >= len(word):
        return False
    a, b, c = word[p], word[p + 1], word[p + 2]
    return (a.is_slant and a.kind == b.kind == c.kind
            and a.index == c.index and abs(a.index - b.index) == 1)


def _mixed_ok(word: Sequence[Letter], p: int) -> bool:
    """(upper i, diag i, diag i+1, lower i), or the same with the two slant
    kinds exchanged."""
    if p + 3 >= len(word):
        return False
    a, b, c, d = word[p:p + 4]
    return (b.kind == DIAG and c.kind == DIAG
            and b.index == a.index and c.index == a.index + 1
            and d.index == a.index and {a.kind, d.kind} == {UPPER, LOWER})


def apply_move_word(word: Word, move: Move) -> Word:
    """The letters of a word after one local move: a swap exchanges two
    letters, a braid turns (a, b, a) into (b, a, b), and a mixed move
    exchanges the letters at pos and pos + 3.  Raises :class:`WordError`
    when the move does not apply at its position."""
    p = move.pos
    if p < 0 or p >= len(word):
        raise WordError(f"move position {p} out of range")
    letters = list(word)
    if move.kind == "swap":
        if p + 1 == len(word):
            raise WordError(f"move position {p} out of range")
        a, b = word[p], word[p + 1]
        if not _swap_ok(a, b):
            raise WordError(f"letters {a} {b} do not commute")
        letters[p:p + 2] = [b, a]
    elif move.kind == "braid":
        if not _braid_ok(word, p):
            raise WordError(f"no braid pattern at position {p}")
        a, b = word[p], word[p + 1]
        letters[p:p + 3] = [b, a, b]
    elif move.kind == "mixed":
        if not _mixed_ok(word, p):
            raise WordError(f"no mixed four-letter pattern at position {p}")
        letters[p], letters[p + 3] = word[p + 3], word[p]
    else:
        raise WordError(f"unknown move kind {move.kind!r}")
    return tuple(letters)


def local_move_transport(word: Word, params: Sequence, move: Move) \
        -> tuple[Word, tuple[Fraction, ...]]:
    """Apply one local move, returning the rewritten word and transported
    parameters; the matrix product is preserved exactly."""
    return transport_params(word, params, (move,))


def _transport(word: Word, values: list[Fraction], move: Move) -> None:
    """Transport the parameters ``values`` of ``word`` across a move that
    `apply_move_word` has accepted, in place."""
    p = move.pos
    if move.kind == "swap":
        a, b = word[p], word[p + 1]
        ta, tb = values[p], values[p + 1]
        if a.kind == DIAG and b.kind != DIAG:
            tb = _diag_passes_slant_right(a.index, b, tb, ta)
        elif b.kind == DIAG and a.kind != DIAG:
            # diag moves left: inverse of the rescaling it applies moving right
            ta = _diag_passes_slant_right(b.index, a, ta, 1 / tb)
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
            raise WordError("mixed transport undefined at this parameter point")
        if forward:
            values[p:p + 4] = [t3 * t4 / total, total,
                               t2 * t3 / total, t1 * t3 / total]
        else:
            values[p:p + 4] = [t2 * t4 / total, t2 * t3 / total,
                               total, t1 * t2 / total]


def applicable_moves(word: Word) -> list[Move]:
    """All moves legal at their positions in this word."""
    moves = []
    for p in range(len(word) - 1):
        if _swap_ok(word[p], word[p + 1]):
            moves.append(Move("swap", p))
    for p in range(len(word) - 2):
        if _braid_ok(word, p):
            moves.append(Move("braid", p))
    for p in range(len(word) - 3):
        if _mixed_ok(word, p):
            moves.append(Move("mixed", p))
    return moves


# ---------------------------------------------------------------------------
# routing a scheme to the staircase scheme


class _Rewriter:
    """Mutable word with a move log; `bring` rewrites it letter by letter."""

    def __init__(self, word: Word):
        self.word = tuple(word)
        self.moves: list[Move] = []

    def apply(self, move: Move) -> None:
        self.word = apply_move_word(self.word, move)
        self.moves.append(move)

    def bring(self, letter: Letter, p: int) -> None:
        """Rewrite the word so that ``letter`` sits at position p, leaving
        the positions before p alone.  A diag met while fetching a slant goes
        to the end of the word; otherwise ``letter`` is fetched to p + 1 and
        exchanged with the letter ``here`` at p by a swap if they commute, a
        braid if they are slants of one kind (``here`` fetched to p + 2
        first), or a mixed move if they are slants of opposite kinds and one
        index i (@i fetched to p + 1 and @i+1 to p + 2 first).  The mixed
        branch is safe because it runs only while lowers are placed: the
        prefix before p then holds lowers only, so both diags lie beyond
        p + 1 and diag swaps, which always apply, bring them in.

        A fetch at p nests fetches at p + 1 and p + 2 only, so the recursion
        is at most ``len(word) - p`` deep.  That reaches the word length, past
        Python's frame limit from n = 32 on, so it runs on a stack of pending
        fetches and moves, at most three per level."""
        todo: list = [(letter, p)]
        while todo:
            task = todo.pop()
            if isinstance(task, Move):
                self.apply(task)
                continue
            letter, p = task
            here = self.word[p]
            if here == letter:
                continue
            if here.kind == DIAG and letter.kind != DIAG:
                for q in range(p, len(self.word) - 1):
                    self.apply(Move("swap", q))
                todo.append(task)
            elif _swap_ok(here, letter):
                todo += [Move("swap", p), (letter, p + 1)]
            elif here.kind == letter.kind:
                todo += [Move("braid", p), (here, p + 2), (letter, p + 1)]
            else:
                todo += [Move("mixed", p), (diag(here.index + 1), p + 2),
                         (diag(here.index), p + 1), (letter, p + 1)]


def moves_to_staircase(word: Word, n: int | None = None) -> list[Move]:
    """A move sequence rewriting a full-type scheme into the staircase
    scheme: the lowers, then the diags, then the uppers of the staircase are
    fetched one by one, from the left, to their positions by
    `_Rewriter.bring`.  Raises if the word is not a scheme of type
    (reversal, reversal)."""
    if n is None:
        n = infer_n(word)
    if not is_full_scheme(word, n):
        raise WordError("word is not a factorization scheme of full type")
    target = staircase_scheme(n)
    rw = _Rewriter(word)
    for p, letter in enumerate(target):
        rw.bring(letter, p)
    if rw.word != target:
        raise WordError("rewriting failed to reach the staircase")
    return rw.moves


def move_path(source: Word, target: Word, n: int | None = None) -> list[Move]:
    """Moves rewriting one full-type scheme into another.

    Every move kind is an involution at its position, so the return leg is
    the reversed canonicalization of the target."""
    if n is None:
        n = max(infer_n(source), infer_n(target))
    forward = moves_to_staircase(source, n)
    backward = moves_to_staircase(target, n)
    return forward + [m for m in reversed(backward)]


def transport_params(word: Word, params: Sequence, moves: Iterable[Move]) \
        -> tuple[Word, tuple[Fraction, ...]]:
    """Replay a move sequence, transporting parameters exactly: the
    parameters are coerced once and moved in place, and every move is
    checked by `apply_move_word`."""
    current_word = tuple(word)
    values = [as_scalar(t) for t in params]
    for move in moves:
        if len(current_word) != len(values):
            raise WordError("word/parameter length mismatch")
        new_word = apply_move_word(current_word, move)
        _transport(current_word, values, move)
        current_word = new_word
    return current_word, tuple(values)
