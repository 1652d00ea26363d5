"""Letters, words, factorization schemes, and the product map into matrices.

For ambient size n the alphabet has three kinds of letters, each with a
parameter t and an elementary matrix:

* ``upper i`` (1 <= i < n): identity plus t in entry (i, i+1); written ``i``
* ``lower i`` (1 <= i < n): identity plus t in entry (i+1, i); written ``i~``
* ``diag i``  (1 <= i <= n): identity with entry (i, i) replaced by t
  (t must be nonzero); written ``@i``

One kernel, `_product_columns`, says what a letter does: letters act on
the running product as column operations, on int letter codes and integer
parameter ratios, over column denominators reduced only as they grow.
`product_map` checks a word once and feeds it the kernel,
`elementary_matrix` is the product of a one-letter word, and the
staircase reconstruction feeds the kernel directly.

Words are whitespace-separated in the ASCII encoding, e.g.
``"2~ 1 @3 2 1~ @1 2~ 1 @2"``.  A *factorization scheme* is a word that
contains each diag letter exactly once and whose lower (resp. upper)
subword is a reduced word; its type is the pair of permutations those
subwords represent.

Local moves rewrite a word while transporting parameters so that the
matrix product is unchanged; all transport formulas are subtraction-free,
so positive parameters stay positive.  One kernel, `_transport`, applies
moves one at a time, each by its local formula, to int-coded letters and
their parameters: `transport_params` runs it on a sequence of `Move`
values, `local_move_transport` on one move, and `apply_move_word` on one
move at unit parameters, keeping the letters.  Three kinds exist:

* ``swap``: two adjacent commuting letters trade places.  Slant letters of
  the same kind commute when their indices differ by >= 2, slant letters of
  opposite kinds when their indices differ; both keep parameters.  A diag
  letter @d commutes with everything; passing slant i, it multiplies or
  divides that slant's parameter by its own when d is i or i + 1.
* ``braid``: ``(i, j, i) -> (j, i, j)`` on same-kind slants with |i-j| = 1,
  with (t1, t2, t3) -> (t2 t3 / T, T, t1 t2 / T), T = t1 + t3.
* ``mixed``: the four-letter relation
  ``(upper i, diag i, diag i+1, lower i) -> (lower i, diag i, diag i+1,
  upper i)`` with (t1, t2, t3, t4) -> (t3 t4 / T, T, t2 t3 / T, t1 t3 / T),
  T = t2 + t1 t3 t4, and its inverse in the other direction,
  (t1, t2, t3, t4) -> (t2 t4 / T, t2 t3 / T, T, t1 t2 / T), T = t3 + t1 t2 t4.

Only the braid and mixed formulas are forced; the diag rescalings follow
from 2x2 matrix algebra and are re-verified by the product-preservation
tests.

`moves_to_staircase` routes a full-type scheme to the staircase scheme by
fetching each staircase letter, from the left, to its place: the
constructive proof of Tits' word property, with a mixed move where an
upper and a lower letter of one index meet.  `move_path` joins two routes.
The router, `_Rewriter`, rewrites one mutable list and logs move codes;
`Move` values are built from the log only for these public lists.

One code, `_encode`, turns letters into ints, and the double wiring
diagrams share it: kind k (0 lower, 1 upper, 2 diag) and index i give
k * n + i, so lower i -> i, upper i -> n + i, diag i -> 2n + i, and
``divmod(code - 1, n)`` is (k, i - 1).  On it the move rules are
arithmetic: a code above 2n is a diag, which commutes with everything; two
slants commute iff their codes differ by 2 or more and not by n; a braid
is (a, a +- 1, a) on slants; and a mixed move's slants differ by n.
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
        """The adjacent transposition s_i, for 1 <= i <= n - 1."""
        return permutation_of_word((i,), n)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise ValueError(f"point {k} out of range for n={self.n}")
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (p * q)(k) = p(q(k))."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
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
    """Product of adjacent transpositions, composed in word order: each
    generator i exchanges the images of i and i + 1."""
    images = list(range(1, n + 1))
    for g in gens:
        if not 1 <= g <= n - 1:
            raise ValueError(f"generator {g} out of range for n={n}")
        images[g - 1], images[g] = images[g], images[g - 1]
    return Permutation(tuple(images))


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
    return max((letter.index + (letter.kind != DIAG) for letter in word),
               default=1)


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

    The letters are checked once, in word order, so the first bad one is
    named, out of range or a diag at 0; then the letter codes (`_encode`)
    and parameter ratios go to the kernel, `_product_columns`, which
    reduces a column only when its denominator has doubled in size.
    """
    if n is None:
        n = infer_n(word)
    params = [as_scalar(t) for t in params]
    if len(params) != len(word):
        raise WordError(f"{len(word)} letters but {len(params)} parameters")
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    for letter, t in zip(word, params):
        kind, i = letter.kind, letter.index
        if i > (n if kind == DIAG else n - 1):
            raise WordError(f"letter {letter} out of range for n={n}")
        if kind == DIAG and not t:
            raise WordError(f"diag letter @{i} is undefined at parameter 0")
    return _product_columns(_encode(word, n),
                            [t.as_integer_ratio() for t in params], n)


_FLOOR = 128  # bits a denominator may reach before its first gcd


def _reduce(den: int, col: list[int]) -> tuple[int, list[int], int]:
    """``col / den`` divided by its gcd, and the size past which it is
    reduced again: 2b + 128 bits, b the bit length of the new denominator.
    The one reduction rule of the integer column sweeps, this kernel and
    `networks.weight_matrix`; each calls it only once a denominator has
    passed its limit."""
    common = gcd(den, *col)
    den //= common
    return den, [v // common for v in col], 2 * den.bit_length() + _FLOOR


def _product_columns(codes: Sequence[int],
                     pairs: Iterable[tuple[int, int]], n: int) -> Matrix:
    """The product map on checked input: letter codes (`_encode`) of
    letters in range for n >= 1, and each parameter as integers (p, q) with
    q > 0 and p nonzero at a diag.

    Column j of the running product is held as integers over one positive
    denominator: a slant takes the lcm of two, a diag multiplies by q.  A
    gcd reduces it only past 2b + 128 bits, b its size after the last one,
    and the final `Fraction`s reduce each entry: a gcd per letter cost more
    than it saved, and none let mixed-sign reconstructions grow unbounded.
    """
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    dens, limits = [1] * n, [_FLOOR] * n
    for code, (p, q) in zip(codes, pairs):
        kind, i = divmod(code - 1, n)
        if kind == 2:
            target, den = i, dens[i] * q
            col = [p * v for v in cols[i]]
        else:
            source, target = (i, i + 1) if kind == 1 else (i + 1, i)
            # cols[target] / dens[target] + (p / q) * cols[source] / dens[source]
            scaled = dens[source] * q
            den = lcm(dens[target], scaled)
            keep, add = den // dens[target], p * (den // scaled)
            col = [a * keep + b * add
                   for a, b in zip(cols[target], cols[source])]
        if den.bit_length() > limits[target]:
            den, col, limits[target] = _reduce(den, col)
        cols[target], dens[target] = col, den
    return Matrix._trusted(tuple(
        tuple(Fraction(col[r], den) for col, den in zip(cols, dens))
        for r in range(n)))


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
#
# The router and `_transport` run on letter codes at the n of `infer_n`;
# the router logs a move as 4 * pos + kind (0 swap, 1 braid, 2 mixed).
# `Letter` and `Move` values are built only at the public edges.

_KINDS = {LOWER: 0, UPPER: 1, DIAG: 2}
_MOVE_KINDS = ("swap", "braid", "mixed")
_MOVE_CODES = {"swap": 0, "braid": 1, "mixed": 2}
_ONE = Fraction(1)


class Move(Record):
    __slots__ = ("kind",  # "swap" | "braid" | "mixed"
                 "pos")   # leftmost 0-based position of the rewritten block

    def __init__(self, kind: str, pos: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)


def _encode(word: Iterable[Letter], n: int) -> list[int]:
    """The codes kind * n + index of letters in range for n, in order."""
    return [_KINDS[letter.kind] * n + letter.index for letter in word]


def _moves(codes: Iterable[int]) -> list[Move]:
    """`Move` values for move codes; one shared value per move."""
    made: dict[int, Move] = {}
    out = []
    for code in codes:
        move = made.get(code)
        if move is None:
            move = made[code] = Move(_MOVE_KINDS[code & 3], code >> 2)
        out.append(move)
    return out


def _commutes(a: int, b: int, n: int) -> bool:
    """A diag commutes with every letter, slants of one kind when their
    indices differ by at least 2, slants of opposite kinds when their
    indices differ: codes 2 or more apart, and not n apart."""
    gap = abs(a - b)
    return a > 2 * n or b > 2 * n or (gap >= 2 and gap != n)


def _braid_at(word: list[int], p: int, n: int) -> bool:
    """(i, j, i) on slants of one kind with |i - j| = 1."""
    if p + 2 >= len(word):
        return False
    a = word[p]
    return a < 2 * n and a == word[p + 2] and abs(a - word[p + 1]) == 1


def _mixed_at(word: list[int], p: int, n: int) -> bool:
    """(upper i, diag i, diag i+1, lower i), or the same with the two slant
    kinds exchanged."""
    if p + 3 >= len(word):
        return False
    a, b, c, d = word[p:p + 4]
    return (a < 2 * n and b == 2 * n + (a - 1) % n + 1 and c == b + 1
            and d == (a - n if a > n else a + n))


def applicable_moves(word: Word) -> list[Move]:
    """All moves legal at their positions in this word."""
    n = infer_n(word)
    codes = _encode(word, n)
    size = len(codes)
    moves = [Move("swap", p) for p in range(size - 1)
             if _commutes(codes[p], codes[p + 1], n)]
    moves += [Move("braid", p) for p in range(size - 2)
              if _braid_at(codes, p, n)]
    moves += [Move("mixed", p) for p in range(size - 3)
              if _mixed_at(codes, p, n)]
    return moves


def _rewrite(word: list[int], move: int) -> None:
    """Rewrite the letters in place by a move code, 4 * pos + kind: a swap
    exchanges two letters, a braid turns (a, b, a) into (b, a, b), and a
    mixed move exchanges the letters at pos and pos + 3."""
    p, kind = move >> 2, move & 3
    if kind == 0:
        word[p], word[p + 1] = word[p + 1], word[p]
    elif kind == 1:
        word[p], word[p + 1], word[p + 2] = word[p + 1], word[p], word[p + 1]
    else:
        word[p], word[p + 3] = word[p + 3], word[p]


def _transport(letters: Word, values: list, moves: Iterable[Move]) -> Word:
    """Apply moves to the letters, int-coded, and their parameters, in
    place, each by its local formula, checking each move's pattern as it
    comes; the new letters are returned.  A diag @d passing slant i scales
    its parameter by the diag's, x: an upper moving left or a lower moving
    right takes x at d = i and 1 / x at d = i + 1, the other two the
    reverse.  The diag parameters must be nonzero, as in `product_map`:
    `transport_params` checks that, and `apply_move_word` passes ones."""
    n = infer_n(letters)
    word = _encode(letters, n)
    decode = dict(zip(word, letters))
    size = len(word)
    for move in moves:
        p = move.pos
        kind = _MOVE_CODES.get(move.kind)
        if kind is None and 0 <= p < size:
            raise WordError(f"unknown move kind {move.kind!r}")
        if p < 0 or p + (kind == 0) >= size:
            raise WordError(f"move position {p} out of range")
        if kind == 0:
            a, b = word[p], word[p + 1]
            if not _commutes(a, b, n):
                raise WordError(
                    f"letters {decode[a]} {decode[b]} do not commute")
            values[p], values[p + 1] = values[p + 1], values[p]
            first = a > 2 * n
            if first != (b > 2 * n):  # one diag, one slant
                d, s, q = (a, b, p) if first else (b, a, p + 1)
                gap = (d - 1) % n - (s - 1) % n
                if gap == 0 or gap == 1:
                    x = values[p + 1 if first else p]
                    if (gap == 0) == ((s > n) == first):
                        values[q] *= x
                    else:
                        values[q] /= x
        elif kind == 1:
            if not _braid_at(word, p, n):
                raise WordError(f"no braid pattern at position {p}")
            t1, t2, t3 = values[p:p + 3]
            total = t1 + t3
            if total == 0:
                raise WordError("braid transport undefined: t1 + t3 = 0")
            values[p:p + 3] = [t2 * t3 / total, total, t1 * t2 / total]
        else:
            if not _mixed_at(word, p, n):
                raise WordError(
                    f"no mixed four-letter pattern at position {p}")
            # u is the diag that becomes the total: @i from an upper first
            t1, t2, t3, t4 = values[p:p + 4]
            forward = word[p] > n
            u, w = (t2, t3) if forward else (t3, t2)
            total = u + t1 * w * t4
            if total == 0:
                raise WordError(
                    "mixed transport undefined at this parameter point")
            other = u * w / total
            values[p:p + 4] = [w * t4 / total,
                               *((total, other) if forward
                                 else (other, total)),
                               t1 * w / total]
        _rewrite(word, p << 2 | kind)
    return tuple(decode[code] for code in word)


def transport_params(word: Word, params: Sequence, moves: Iterable[Move]) \
        -> tuple[Word, tuple[Fraction, ...]]:
    """Replay a move sequence, transporting parameters exactly; the matrix
    product is preserved.  Diag parameters must be nonzero, as in
    `product_map`.  Raises :class:`WordError`, before any move, on a
    word/parameter length mismatch or a zero diag parameter, and then at
    the first move that does not apply at its position."""
    letters = tuple(word)
    values = [as_scalar(t) for t in params]
    if len(letters) != len(values):
        raise WordError("word/parameter length mismatch")
    for letter, t in zip(letters, values):
        if letter.kind == DIAG and not t:
            raise WordError(
                f"diag letter @{letter.index} is undefined at parameter 0")
    return _transport(letters, values, moves), tuple(values)


def local_move_transport(word: Word, params: Sequence, move: Move) \
        -> tuple[Word, tuple[Fraction, ...]]:
    """Apply one local move, returning the rewritten word and transported
    parameters; the matrix product is preserved exactly."""
    return transport_params(word, params, (move,))


def apply_move_word(word: Word, move: Move) -> Word:
    """The letters of a word after one local move: a swap exchanges two
    letters, a braid turns (a, b, a) into (b, a, b), and a mixed move
    exchanges the letters at pos and pos + 3.  Raises :class:`WordError`
    when the move does not apply at its position."""
    return _transport(tuple(word), [_ONE] * len(word), (move,))


# ---------------------------------------------------------------------------
# routing a scheme to the staircase scheme


class _Rewriter:
    """A word as a mutable list of letter codes at size n, with a log of
    move codes; `bring` rewrites it letter by letter."""

    def __init__(self, word: list[int], n: int):
        self.word = word
        self.n = n
        self.log: list[int] = []

    def bring(self, letter: int, p: int) -> None:
        """Rewrite the word so that ``letter`` sits at position p, leaving
        the positions before p alone.  A diag letter is fetched with one
        swap per position passed, as it commutes with everything.  A diag
        met while fetching a slant goes to the end of the word; otherwise
        ``letter`` is fetched to p + 1 and exchanged with the letter
        ``here`` at p by a swap if they commute, a braid if they are slants
        of one kind (``here`` fetched to p + 2 first), or a mixed move if
        they are slants of opposite kinds and one index i (@i fetched to
        p + 1 and @i+1 to p + 2 first).  The mixed branch needs both diags
        beyond p + 1.  It runs only while lowers are placed, and every diag
        met at a fetched position has gone to the end by then; uppers may
        lie before p, but on 3793 mixed moves of random routes (n = 4 to 16)
        no diag did.

        A fetch at p nests fetches at p + 1 and p + 2 only, so the recursion
        is at most ``len(word) - p`` deep.  That reaches the word length, past
        Python's frame limit from n = 32 on, so it runs on a stack of pending
        fetches (pairs) and move codes, at most three per level.  A diag's
        passage is logged as the swaps on its way."""
        word, log, n = self.word, self.log, self.n
        todo: list = [(letter, p)]
        while todo:
            task = todo.pop()
            if task.__class__ is int:
                _rewrite(word, task)
                log.append(task)
                continue
            letter, p = task
            here = word[p]
            if here == letter:
                continue
            if letter > 2 * n:
                q = word.index(letter, p)
                word.insert(p, word.pop(q))
                log += [i << 2 for i in range(q - 1, p - 1, -1)]
            elif here > 2 * n:
                word.append(word.pop(p))
                log += [i << 2 for i in range(p, len(word) - 1)]
                todo.append(task)
            elif _commutes(here, letter, n):
                todo += [p << 2, (letter, p + 1)]
            elif (here > n) == (letter > n):
                todo += [p << 2 | 1, (here, p + 2), (letter, p + 1)]
            else:
                at = 2 * n + (here - 1) % n + 1  # @i
                todo += [p << 2 | 2, (at + 1, p + 2), (at, p + 1),
                         (letter, p + 1)]


def _route(word: Word, n: int) -> list[int]:
    """Move codes rewriting a full-type scheme into the staircase scheme:
    its letters are fetched one by one, from the left, by
    `_Rewriter.bring`."""
    target = _encode(staircase_scheme(n), n)
    rw = _Rewriter(_encode(word, n), n)
    for p, letter in enumerate(target):
        rw.bring(letter, p)
    if rw.word != target:
        raise WordError("rewriting failed to reach the staircase")
    return rw.log


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
    return _moves(_route(word, n))


def move_path(source: Word, target: Word, n: int | None = None) -> list[Move]:
    """Moves rewriting one full-type scheme into another.

    Every move kind is an involution at its position, so the return leg is
    the reversed canonicalization of the target."""
    if n is None:
        n = max(infer_n(source), infer_n(target))
    forward = moves_to_staircase(source, n)
    backward = moves_to_staircase(target, n)
    return forward + backward[::-1]
