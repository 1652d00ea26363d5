"""The four workloads: seeded inputs, request mixes and answer checks.

Each workload function takes the freshly imported package (`lib`, a
namespace of its modules) and a seeded `random.Random`, generates every
input up front and returns one round of requests in a fixed, seeded order.
A run repeats the same round, so the work per round is identical and
per-layer counts per round repeat exactly.

A request's `call` is the timed part; its `check` runs afterwards, outside
the timed interval, and compares the answer with a value known by
construction or computed by an oracle (`oracle.py`, brute force, the
disjoint-path sum, `somos5_numeric`).

Counts per round are chosen so that the median and the 90th percentile of
the request latencies fall inside one request class (or a cluster of
classes of similar cost), never on the boundary between a cheap and an
expensive class; each workload function's docstring gives the ranks.

`self_check_generators` confirms, with the package's brute-force tests at
n <= 6, that the matrix generators give the verdicts they promise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Request:
    kind: str                       # request class, e.g. "fekete/n8"
    call: Callable[[], object]      # timed
    check: Callable[[object], bool]  # untimed; True when the answer is right
    # Inputs repeat every round, so after the first round the answer only
    # has to equal the first, checked one.  Off for stateful requests.
    cache: bool = True


@dataclass
class Workload:
    requests: list[Request]
    reset: Callable[[], None] = lambda: None   # before every round
    traced: bool = False                       # set by the runner
    counters: dict = field(default_factory=dict)  # filled in traced rounds
    child_spans: Path | None = None  # spans a traced child process wrote


# ---------------------------------------------------------------------------
# input generators (benchmark code only; never totpos.words.product_map)


def rand_reduced_word(rng: random.Random, n: int) -> list[int]:
    """Random reduced word of the reversal, by random right descents."""
    w = list(range(n, 0, -1))
    word = []
    while True:
        descents = [i for i in range(1, n) if w[i - 1] > w[i]]
        if not descents:
            return word[::-1]
        i = rng.choice(descents)
        w[i - 1], w[i] = w[i], w[i - 1]
        word.append(i)


def rand_scheme(rng: random.Random, n: int, diags: bool = True) -> list:
    """Random factorization scheme of full type as (kind, index) pairs, or
    without diag letters a random double wiring diagram."""
    groups = [[("lower", i) for i in rand_reduced_word(rng, n)],
              [("upper", i) for i in rand_reduced_word(rng, n)]]
    if diags:
        groups.append([("diag", i) for i in range(1, n + 1)])
    return interleave(rng, groups)


def interleave(rng: random.Random, groups) -> list:
    """Random merge keeping the order within each group."""
    pools = [list(g) for g in groups if g]
    out = []
    while pools:
        pool = rng.choice(pools)
        out.append(pool.pop(0))
        pools = [p for p in pools if p]
    return out


def rand_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def gen_cauchy(rng: random.Random, n: int):
    a = sorted(rng.sample(range(1, 3 * n + 1), n))
    b = sorted(rng.sample(range(1, 3 * n + 1), n))
    return a, b


def gen_tp(rng: random.Random, n: int):
    """Totally positive: a Cauchy matrix."""
    return oracle.cauchy(*gen_cauchy(rng, n))


def gen_tp_product(rng: random.Random, n: int):
    """Totally positive: a staircase product of bidiagonal factors at
    positive parameters (larger entries than a Cauchy matrix)."""
    params = [rand_positive(rng) for _ in range(n * n)]
    return oracle.word_product(oracle.staircase(n), params, n)


def gen_near_miss(rng: random.Random, n: int, negative: bool):
    """A Cauchy matrix whose corner entry is moved so that the determinant,
    the last initial minor and the last solid minor checked, becomes 0 or
    -det; every other initial minor is unchanged and positive.  Returns the
    rows and the new determinant."""
    a, b = gen_cauchy(rng, n)
    x = oracle.cauchy(a, b)
    d = oracle.cauchy_det(a, b)
    lead = oracle.cauchy_det(a[:-1], b[:-1])
    delta = d if negative else Fraction(0)
    x[-1][-1] -= (d + delta) / lead
    return x, -delta


def gen_tnn_not_tp(rng: random.Random, n: int):
    """Staircase product with some slant parameters zero: totally
    nonnegative and invertible, and not totally positive because each
    parameter divides some initial minor."""
    word = oracle.staircase(n)
    slants = [k for k, (kind, _) in enumerate(word) if kind != "diag"]
    zero = set(rng.sample(slants, rng.randint(1, max(1, n // 2))))
    params = [Fraction(0) if k in zero else rand_positive(rng)
              for k in range(len(word))]
    return oracle.word_product(word, params, n)


def gen_mixed(rng: random.Random, n: int):
    """Invertible random matrix with mixed signs and a negative corner."""
    while True:
        x = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        x[0][0] = Fraction(-rng.randint(1, 9))
        if oracle.det(x) != 0:
            return x


def gen_tridiagonal(rng: random.Random, n: int, cut: bool):
    """L * D * U with bidiagonal L, U: an invertible totally nonnegative
    Jacobi matrix.  With ``cut`` one pair of off-diagonal entries is zero,
    so it is block diagonal and not oscillatory.  Returns the rows and the
    double Bruhat cell (u, v) given by the letters with nonzero parameter."""
    k = rng.randint(1, n - 1) if cut else 0
    lowers = [("lower", i) for i in range(1, n) if i != k]
    uppers = [("upper", i) for i in range(n - 1, 0, -1) if i != k]
    word = lowers + [("diag", i) for i in range(1, n + 1)] + uppers
    x = oracle.word_product(word, [rand_positive(rng) for _ in word], n)
    u = oracle.permutation_of_word([i for _, i in lowers], n)
    v = oracle.permutation_of_word([i for _, i in uppers], n)
    return x, (u, v)


def initial_specs(n: int):
    """Initial minors in row-major corner order, as (rows, cols)."""
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = min(i, j)
            out.append((tuple(range(i - k + 1, i + 1)),
                        tuple(range(j - k + 1, j + 1))))
    return out


def failing(rows, specs, strict: bool):
    """(rows, cols, value) of each spec whose minor fails the sign test."""
    out = []
    for r, c in specs:
        v = oracle.minor(rows, r, c)
        if (v <= 0) if strict else (v < 0):
            out.append((tuple(r), tuple(c), v))
    return out


def self_check_generators(seed: int) -> list[str]:
    """At n <= 6 the generators give their intended verdicts under the
    package's brute-force oracles; returns the failures."""
    import totpos.positivity as pv
    from totpos.matrices import Matrix
    rng = random.Random(seed)
    bad = []
    for n in range(2, 7):
        cases = [("tp", gen_tp(rng, n), True, True),
                 ("tp-product", gen_tp_product(rng, n), True, True),
                 ("near-zero", gen_near_miss(rng, n, False)[0], False, None),
                 ("near-negative", gen_near_miss(rng, n, True)[0], False,
                  False),
                 ("tnn", gen_tnn_not_tp(rng, n), False, True),
                 ("mixed", gen_mixed(rng, n), False, False),
                 ("tridiagonal", gen_tridiagonal(rng, n, True)[0], False,
                  True)]
        for name, rows, tp, tnn in cases:
            x = Matrix(rows)
            if pv.is_tp_bruteforce(x) != tp or (
                    tnn is not None and pv.is_tnn_bruteforce(x) != tnn):
                bad.append(f"{name} generator at n={n}")
    return bad


# ---------------------------------------------------------------------------
# verdicts


# (method, n, input kinds): one request per kind, 125 per round.  Kinds:
# tp (Cauchy), tpw (bidiagonal product), near0/nearneg (near misses), tnn
# (TNN, not TP), mixed (signs), tri/tricut (Jacobi, oscillatory or not).
# On the reference machine: 45 requests under 10 ms (n <= 8, brute force
# n <= 5); 28 initial-minor tests at n=12 on Cauchy matrices and their
# near misses, 12-20 ms, ranked 36-58 % (the median falls in their middle);
# 24 requests of 10-40 ms; 24 requests of 40-65 ms (n=16 initial minors
# and witnesses, n=6 brute force and oscillation, Fekete n=12), ranked
# 78-97 % (the 90th percentile falls in their upper middle); 4 above 100
# ms, up to Bruhat n=12 at about 0.4 s.  About half are negative.
VERDICT_MIX = [
    ("initial", 4, ["tpw", "near0", "mixed"]),
    ("fekete", 4, ["tp", "tnn", "mixed"]),
    ("chamber", 4, ["tpw", "nearneg", "tnn"]),
    ("witnesses", 4, ["near0", "mixed"]),
    ("tp_given_tnn", 12, ["tpw", "tnn"]),
    ("tnn_efficient", 4, ["tp", "tnn", "nearneg", "mixed"]),
    ("tnn_efficient", 8, ["mixed"]),
    ("brute_tp", 4, ["tpw", "near0"]),
    ("brute_tnn", 4, ["tnn", "mixed"]),
    ("bruhat", 4, ["tri"]),
    ("oscillatory_b", 4, ["tri", "tricut"]),
    ("oscillatory_d", 4, ["tricut"]),
    ("oscillatory_c", 4, ["tricut"]),
    ("initial", 8, ["tpw", "nearneg", "mixed"]),
    ("chamber", 8, ["tp", "near0"]),
    ("witnesses", 8, ["nearneg", "mixed"]),
    ("tnn_efficient", 6, ["tpw", "nearneg"]),
    ("brute_tp", 5, ["tp", "nearneg"]),
    ("brute_tnn", 5, ["tnn", "mixed"]),
    ("oscillatory_b", 5, ["tri", "tricut"]),
    ("fekete", 8, ["tpw", "near0", "tnn"]),
    ("initial", 12, ["tp", "near0", "tp", "nearneg"] * 7),
    ("initial", 12, ["tnn", "mixed", "tpw"]),
    ("witnesses", 12, ["tp", "near0", "mixed"]),
    ("tp_given_tnn", 16, ["tp", "tnn"]),
    ("oscillatory_c", 5, ["tri", "tricut"]),
    ("bruhat", 8, ["tp", "tri", "tpw", "tri"]),
    ("tnn_efficient", 8, ["tp", "tnn", "nearneg", "tpw"]),
    ("chamber", 12, ["tp", "nearneg", "mixed", "tnn", "near0", "tpw"]),
    ("oscillatory_b", 6, ["tri", "tricut", "tri", "tricut"]),
    ("initial", 16, ["tp", "nearneg", "near0", "tp", "nearneg", "tnn",
                     "mixed", "tpw"]),
    ("witnesses", 16, ["tp", "nearneg", "mixed"]),
    ("brute_tp", 6, ["tp", "near0", "tpw", "nearneg"]),
    ("brute_tnn", 6, ["tnn", "mixed", "tnn"]),
    ("fekete", 12, ["tp", "near0"]),
    ("chamber", 16, ["tp"]),
    ("oscillatory_c", 6, ["tri"]),
    ("fekete", 16, ["tp"]),
    ("bruhat", 12, ["tp"]),
]


def verdicts(lib, rng: random.Random) -> Workload:
    requests = []
    for method, n, kinds in VERDICT_MIX:
        for kind in kinds:
            rows, known = _verdict_input(rng, n, kind)
            x = lib.matrices.Matrix(rows)
            call, check = _verdict_request(lib, rng, method, n, kind, x,
                                           rows, known)
            requests.append(Request(f"{method}/n{n}", call, check))
    rng.shuffle(requests)
    return Workload(requests)


def _verdict_input(rng, n, kind):
    if kind == "tp":
        return gen_tp(rng, n), None
    if kind == "tpw":
        return gen_tp_product(rng, n), None
    if kind in ("near0", "nearneg"):
        return gen_near_miss(rng, n, kind == "nearneg")
    if kind == "tnn":
        return gen_tnn_not_tp(rng, n), None
    if kind == "mixed":
        return gen_mixed(rng, n), None
    return gen_tridiagonal(rng, n, kind == "tricut")


def _verdict_request(lib, rng, method, n, kind, x, rows, known):
    pv, mx, dg, wd = lib.positivity, lib.matrices, lib.diagrams, lib.words
    tp = kind in ("tp", "tpw")
    tnn = kind in ("tp", "tpw", "tnn", "tri", "tricut")

    def equals(expected):
        return lambda result: result == expected

    if method == "initial":
        return (lambda: pv.test_initial_minors(x)), equals(tp)
    if method == "fekete":
        return (lambda: pv.test_fekete_solid(x)), equals(tp)
    if method == "chamber":
        d = dg.DoubleWiringDiagram(
            tuple(wd.Letter(*p) for p in rand_scheme(rng, n, False)), n)
        return (lambda: pv.test_chamber_minors(x, d)), equals(tp)
    if method == "witnesses":
        specs = mx.initial_minor_specs(n)
        full = tuple(range(1, n + 1))

        def expected():
            if tp:
                return []
            if kind.startswith("near"):
                return [(full, full, known)]
            return failing(rows, initial_specs(n), True)
        return ((lambda: pv.failing_minors(x, specs, strict=True)),
                lambda result: [(s.rows, s.cols, v) for s, v in result]
                == expected())
    if method == "tp_given_tnn":
        return (lambda: pv.test_tp_given_tnn(x)), equals(tp)
    if method == "tnn_efficient":
        count = 2 ** (n + 1) - n - 2
        return (lambda: pv.test_tnn_efficient(x)), equals((tnn, count))
    if method == "brute_tp":
        return (lambda: pv.is_tp_bruteforce(x)), equals(tp)
    if method == "brute_tnn":
        return (lambda: pv.is_tnn_bruteforce(x)), equals(tnn)
    if method == "bruhat":
        w0 = tuple(range(n, 0, -1))
        expected = (w0, w0) if tp else known
        return ((lambda: pv.bruhat_type(x)),
                lambda result: (result[0].images, result[1].images)
                == expected)
    if method.startswith("oscillatory_"):
        criterion = method[-1]
        return ((lambda: pv.is_oscillatory(x, criterion)),
                equals(kind != "tricut"))
    raise ValueError(method)


# ---------------------------------------------------------------------------
# factor


def factor(lib, rng: random.Random) -> Workload:
    """Parametrization round trips, 35 requests per round.  On the reference
    machine: 10 requests under 12 ms and 4 of 15-25 ms; reconstruction at
    n=12 ten times, 15-30 ms, ranked 40-69 % (the median falls in their
    lower middle); twist n=12 and verify_twist_monomial n=4, 60-90 ms;
    standard_network n=5 six times and product_map n=8 once, 110-190 ms,
    ranked 74-94 % (the 90th percentile falls inside them);
    standard_network n=6 and product_map n=12 once each, 0.5-1.3 s."""
    wd, fz, nw, mx = lib.words, lib.factorization, lib.networks, lib.matrices
    requests = []

    def staircase_input(n):
        t = [rand_positive(rng) for _ in range(n * n)]
        return t, oracle.word_product(oracle.staircase(n), t, n)

    def matrix_is(rows):
        return lambda result: [list(r) for r in result.rows] == rows

    for n in (4, 8, 12):
        t, rows = staircase_input(n)
        scheme = wd.staircase_scheme(n)
        requests.append(Request(f"product_map/n{n}",
                                lambda s=scheme, t=t, n=n:
                                wd.product_map(s, t, n), matrix_is(rows)))
    for n in (4, 8):
        t, rows = staircase_input(n)
        x = mx.Matrix(rows)
        requests.append(Request(f"factor_staircase/n{n}",
                                lambda x=x: fz.factor_staircase(x),
                                lambda r, t=tuple(t): r == t))
    for n in (4, 5):
        letters = rand_scheme(rng, n)
        scheme = tuple(wd.Letter(*p) for p in letters)
        s = [rand_positive(rng) for _ in letters]
        x = mx.Matrix(oracle.word_product(letters, s, n))
        requests.append(Request(f"factor_scheme/n{n}",
                                lambda x=x, sc=scheme: fz.factor_scheme(x, sc),
                                lambda r, s=tuple(s): r == s))
    for n in (4, 8, 12):
        _, rows = staircase_input(n)
        x = mx.Matrix(rows)
        requests.append(Request(f"twist/n{n}", lambda x=x: fz.twist(x),
                                _twist_check(n)))
    for n in (4, 8) + (12,) * 10:
        a, b = gen_cauchy(rng, n)
        rows = oracle.cauchy(a, b)
        values = {mx.MinorSpec(r, c): oracle.cauchy_det([a[i - 1] for i in r],
                                                        [b[j - 1] for j in c])
                  for r, c in initial_specs(n)}
        requests.append(Request(f"reconstruct/n{n}",
                                lambda v=values, n=n:
                                fz.reconstruct_from_initial_minors(v, n),
                                matrix_is(rows)))
    for n in (4,) + (5,) * 6 + (6,):
        t, rows = staircase_input(n)
        requests.append(Request(
            f"standard_network/n{n}",
            lambda t=t, n=n: nw.weight_matrix(nw.standard_network(n, t)),
            matrix_is(rows)))
    t, rows = staircase_input(4)
    net = nw.standard_network(4, t)
    spec = mx.MinorSpec((1, 2, 3), (2, 3, 4))
    expected = oracle.minor(rows, spec.rows, spec.cols)
    requests += [Request("disjoint_path_minor/n4",
                         lambda: nw.disjoint_path_minor(net, spec),
                         lambda r: r == expected) for _ in range(3)]
    for n in (3, 4):
        scheme = tuple(wd.Letter(*p) for p in rand_scheme(rng, n))
        sample_seed = rng.randrange(2 ** 32)
        requests.append(Request(
            f"verify_twist_monomial/n{n}",
            lambda sc=scheme, n=n, k=sample_seed:
            fz.verify_twist_monomial(sc, n, rng=random.Random(k)),
            lambda r: r is True))
    rng.shuffle(requests)
    return Workload(requests)


def _twist_check(n):
    def check(result):
        rows = [list(r) for r in result.rows]
        return all(oracle.minor(rows, r, c) > 0 for r, c in initial_specs(n))
    return check


def warm_factor_cache(lib) -> None:
    """Fit the staircase exponents for every size the factor mix uses, as
    a long-lived library caller pays for them once."""
    for n in (4, 5, 8):
        lib.factorization.staircase_minor_exponents(n)


# ---------------------------------------------------------------------------
# combinatorics


WALKS, WALK_STEPS, WALK_N = 2, 4, 4


def combinatorics(lib, rng: random.Random) -> Workload:
    """Move graph and Laurent side, 105 requests per round.  On the
    reference machine: 24 numeric and symbolic Somos-5 requests and the 8
    walk steps, under 12 ms; 46 enumerations of the n=3 move graph, about
    13 ms, ranked 30-74 % (the median falls in their middle); 25 symbolic
    Somos-5 runs to 14 terms, about 25 ms, ranked 74-98 % (the 90th
    percentile falls in their middle); two reduced-word enumerations at
    n=5, about 45 ms.

    The two seeded random walks start at the minimal n=4 diagram and take 4
    steps.  The cost of a step follows the size of the commutation class of
    the current diagram, which is heavy-tailed (12 to over 600 words): 64
    walks of 2 steps from random diagrams gave mean costs whose quartiles
    differ by 37 % between seeds, while the first 4 steps from the minimal
    diagram stay under 12 ms."""
    dg, wd, sm = lib.diagrams, lib.words, lib.somos
    fixed = oracle.cauchy(*gen_cauchy(rng, WALK_N))
    minor_cache: dict = {}

    def value(spec):
        if spec is None:
            return Fraction(1)
        key = (spec.rows, spec.cols)
        if key not in minor_cache:
            minor_cache[key] = oracle.minor(fixed, *key)
        return minor_cache[key]

    start = dg.minimal_diagram(WALK_N)
    walks = [rng.randrange(2 ** 32) for _ in range(WALKS)]
    state: dict[int, list] = {}

    def reset():
        for k, seed in enumerate(walks):
            state[k] = [start, dg.chamber_key(start), random.Random(seed)]

    workload = Workload([], reset=reset)

    def step(k):
        d, key, choose = state[k]
        moves = dg.local_moves(d)
        move = moves[choose.randrange(len(moves))]
        new = dg.DoubleWiringDiagram(move.result, WALK_N)
        new_key = dg.chamber_key(new)
        state[k][:2] = [new, new_key]
        return key, moves, move, new_key

    def neighbour(key, move):
        """The class a move leads to: chamber y exchanged for z."""
        bag = list(key)
        bag.remove((move.y.rows, move.y.cols))
        bag.append((move.z.rows, move.z.cols))
        return tuple(sorted(bag))

    def check_step(result):
        key, moves, move, new_key = result
        ok = (neighbour(key, move) == new_key != key
              and value(move.a) * value(move.c) + value(move.b) * value(move.d)
              == value(move.y) * value(move.z))
        if workload.traced:
            targets = {neighbour(key, m) for m in moves} - {key}
            c = workload.counters
            c["distinct"] = c.get("distinct", 0) + len(targets)
            c["moves"] = c.get("moves", 0) + len(moves)
        return ok

    walk_requests = [[Request("walk_step/n4", lambda k=k: step(k),
                              check_step, cache=False)
                      for _ in range(WALK_STEPS)] for k in range(WALKS)]
    others = [Request("enumerate_move_graph/n3",
                      lambda: dg.enumerate_move_graph(3),
                      lambda g: (g.vertex_count, g.edge_count) == (34, 60))
              for _ in range(46)]
    others += [Request("reduced_words/n5",
                       lambda: list(wd.reduced_words(
                           wd.Permutation.reversal(5))),
                       _check_reduced_words) for _ in range(2)]
    for count in [12] * 8 + [13] * 8 + [14] * 25:
        point = [rand_positive(rng) for _ in range(5)]
        others.append(Request(
            f"somos5_symbolic/{count}",
            lambda c=count: sm.somos5_symbolic(c, limit=c),
            lambda terms, c=count, p=point: _check_somos(sm, terms, c, p)))
    for _ in range(8):
        seed = [rand_positive(rng) for _ in range(5)]
        others.append(Request(
            "somos5_numeric/40", lambda s=seed: sm.somos5_numeric(s, 40),
            lambda terms, s=seed: terms == oracle.somos5(s, 40)))
    # walks keep their step order; the other requests are spread among them
    workload.requests = interleave(rng, walk_requests + [[o] for o in others])
    return workload


def _check_reduced_words(words) -> bool:
    w0 = tuple(range(5, 0, -1))
    return (len(words) == 768 == len(set(words))
            and all(len(w) == 10 and oracle.permutation_of_word(w, 5) == w0
                    for w in words))


def _check_somos(sm, terms, count, point) -> bool:
    """Nonnegative integer coefficients, and agreement with the numeric
    recurrence (`somos5_numeric`) at a positive rational point."""
    numeric = sm.somos5_numeric(point, count)
    return (len(terms) == count
            and all(c.denominator == 1 and c >= 0
                    for t in terms for c in t.terms.values())
            and [t.evaluate(point) for t in terms] == numeric)


# ---------------------------------------------------------------------------
# cli


def cli(lib, rng: random.Random, workdir: Path, src: Path) -> Workload:
    """Sequential `python -m totpos.cli` subprocesses.  Per round 21
    requests: 17 well-formed or malformed commands of 150-250 ms (import
    dominates; the median is among them) and four `factor` runs at n=8,
    each paying the cold exponent fit (about 550 ms, ranked 81-100 %; the
    90th percentile falls inside them).  Expected reports come from the
    construction of the inputs, from the benchmark's oracle, or for twist
    from the package in this process."""
    mx, fz, wd, nw = lib.matrices, lib.factorization, lib.words, lib.networks
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("TOTPOS_THREADS", None)
    files = 0

    def write(data) -> str:
        nonlocal files
        files += 1
        path = workdir / f"in{files}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    def matrix_file(rows) -> str:
        return write({"n": len(rows),
                      "rows": [[str(v) for v in row] for row in rows]})

    workload = Workload([], child_spans=workdir / "spans.json")
    child = Path(__file__).resolve().parent / "cli_child.py"

    def run(args):
        command = ([child, workload.child_spans] if workload.traced
                   else ["-m", "totpos.cli"])
        proc = subprocess.run([sys.executable, *command, *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def expect(code, report=None):
        """Exit code, no traceback, and the JSON report (when given)."""
        def check(result):
            rc, out, err = result
            if rc != code or "Traceback" in err:
                return False
            if report is None:
                return code != 2 or (out == "" and err.startswith("totpos:"))
            return json.loads(out) == report
        return check

    def witnesses(items):
        return [{"rows": list(r), "cols": list(c), "value": str(v)}
                for r, c, v in items]

    requests = []

    def add(sub, args, check, malformed=False):
        kind = f"cli_{sub}_malformed" if malformed else f"cli_{sub}"
        requests.append(Request(kind, lambda a=[sub, *args]: run(a), check))

    tp8 = gen_tp(rng, 8)
    add("test", [matrix_file(tp8), "--method", "initial", "--report", "json"],
        expect(0, {"verdict": True, "minors_checked": 64, "witnesses": []}))
    near8, value = gen_near_miss(rng, 8, True)
    full = tuple(range(1, 9))
    add("test", [matrix_file(near8), "--method", "initial", "--report",
                 "json"],
        expect(1, {"verdict": False, "minors_checked": 64,
                   "witnesses": witnesses([(full, full, value)])}))
    add("test", [matrix_file(gen_tp_product(rng, 8)), "--method", "fekete",
                 "--report", "json"],
        expect(0, {"verdict": True, "minors_checked": 204, "witnesses": []}))
    word = [f"{i}~" if kind == "lower" else f"{i}"
            for kind, i in rand_scheme(rng, 6, False)]
    add("test", [matrix_file(gen_tp(rng, 6)), "--method", "chamber",
                 "--diagram", " ".join(word), "--report", "json"],
        expect(0, {"verdict": True, "minors_checked": 36, "witnesses": []}))
    near5, _ = gen_near_miss(rng, 5, False)
    specs5 = [(r, c) for k in range(1, 6)
              for r in _combinations(5, k) for c in _combinations(5, k)]
    add("test", [matrix_file(near5), "--method", "brute", "--report", "json"],
        expect(1, {"verdict": False, "minors_checked": 251,
                   "witnesses": witnesses(failing(near5, specs5, True))}))
    tnn6 = gen_tnn_not_tp(rng, 6)
    add("tnn", [matrix_file(tnn6), "--report", "json"],
        expect(0, {"verdict": True, "minors_checked": 2 ** 7 - 8,
                   "witnesses": []}))
    mixed5 = gen_mixed(rng, 5)
    tnn_specs = [(s.rows, s.cols) for s in
                 lib.positivity.tnn_efficient_specs(5)]
    add("tnn", [matrix_file(mixed5), "--report", "json"],
        expect(1, {"verdict": False, "minors_checked": 2 ** 6 - 7,
                   "witnesses": witnesses(failing(mixed5, tnn_specs,
                                                  False))}))
    staircase_word = wd.format_word(wd.staircase_scheme(8))
    for _ in range(3):
        t = [rand_positive(rng) for _ in range(64)]
        rows = oracle.word_product(oracle.staircase(8), t, 8)
        add("factor", [matrix_file(rows), "--report", "json"],
            expect(0, {"verdict": True, "scheme": staircase_word,
                       "u": list(range(8, 0, -1)), "v": list(range(8, 0, -1)),
                       "params": [str(v) for v in t]}))
    near8, value = gen_near_miss(rng, 8, False)
    add("factor", [matrix_file(near8), "--report", "json"],
        expect(1, {"verdict": False, "minors_checked": 64,
                   "witnesses": witnesses([(full, full, value)])}))
    tp4 = gen_tp_product(rng, 4)
    add("twist", [matrix_file(tp4), "--report", "json"],
        expect(0, fz.twist(mx.Matrix(tp4)).to_json()))
    tri6, (u, v) = gen_tridiagonal(rng, 6, True)
    add("type", [matrix_file(tri6), "--report", "json"],
        expect(0, {"u": list(u), "v": list(v)}))
    tri5, _ = gen_tridiagonal(rng, 5, False)
    add("oscillatory", [matrix_file(tri5), "--report", "json"],
        expect(0, {"verdict": True,
                   "criteria": {"b": True, "c": True, "d": True}}))
    add("diagrams", ["--n", "3", "--enumerate", "--format", "json"],
        _check_enumeration)
    t = [rand_positive(rng) for _ in range(16)]
    net = write(nw.standard_network(4, t).to_json())
    rows = oracle.word_product(oracle.staircase(4), t, 4)
    add("network", ["eval", net, "--report", "json"],
        expect(0, {"n": 4, "rows": [[str(v) for v in r] for r in rows]}))
    add("somos", ["--terms", "12", "--symbolic", "--report", "json"],
        _check_somos_report)
    # one malformed input of each exit-2 class
    add("test", [write('{"n": 2, "rows": [["1", "2"], '), "--report", "json"],
        expect(2), malformed=True)
    add("test", [write({"rows": [["1", "2", "3"], ["4", "5", "6"]]})],
        expect(2), malformed=True)
    add("factor", [matrix_file(tp4), "--scheme", "2~ 1 q~ @1"], expect(2),
        malformed=True)
    add("test", [matrix_file(gen_tp(rng, 7)), "--method", "brute"],
        expect(2), malformed=True)
    rng.shuffle(requests)
    workload.requests = requests
    return workload


def _combinations(n, k):
    from itertools import combinations
    return list(combinations(range(1, n + 1), k))


def _check_enumeration(result) -> bool:
    rc, out, err = result
    if rc != 0 or "Traceback" in err:
        return False
    report = json.loads(out)
    return (len(report["vertices"]) == 34 and len(report["edges"]) == 60
            and all(len(v["chambers"]) == 9 for v in report["vertices"]))


def _check_somos_report(result) -> bool:
    rc, out, err = result
    if rc != 0 or "Traceback" in err:
        return False
    report = json.loads(out)
    ones = oracle.somos5([1] * 5, 12)
    terms = report["terms"]
    return (len(terms) == 12 and all(report["nonnegative"])
            and [sum(Fraction(item["coeff"]) for item in t["terms"])
                 for t in terms] == ones)
