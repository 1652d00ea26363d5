"""Command-line front end.

Subcommands: test, tnn, oscillatory, type, factor, twist, diagrams,
network, somos, selfcheck.  Matrices and networks are read from JSON files
(or stdin via ``-``); words use the ASCII encoding of
:mod:`totpos.words`.  Exit codes: 0 when the queried property holds, 1
when it fails, 2 for malformed input or usage errors.

``--report json`` emits a machine-readable report with stable field
order: ``{"verdict": ..., "minors_checked": ..., "witnesses": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import comb

from . import diagrams as dg
from . import factorization as fz
from . import networks as nw
from . import positivity as pv
from . import somos as sm
from . import words as wd
from .exact import format_scalar, laurent_has_nonnegative_coeffs
from .matrices import (Matrix, MinorSpec, SingularLeadingMinorError,
                       all_minor_specs, desnanot_residual, minor)


class InputError(Exception):
    """Bad file, JSON, or value; reported with its location at exit 2."""


def _load(path: str, parse=Matrix.from_json, kind: str = "matrix"):
    """The value ``parse`` reads off the JSON in ``path`` (stdin via
    ``-``): a matrix unless told otherwise."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as handle:
                data = json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{path}: bad {kind} data: {exc}") from exc


def _parse_word_arg(text: str) -> wd.Word:
    try:
        return wd.parse_word(text)
    except ValueError as exc:
        raise InputError(f"bad word {text!r}: {exc}") from exc


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if getattr(args, "report", None) == "json":
        print(json.dumps(report))
    else:
        for line in human_lines:
            print(line)


def _guard(args, default: int) -> int:
    return default if args.guard_n is None else args.guard_n


def _verdict(args, verdict: bool, checked: int, failures,
             human_lines: list[str]) -> int:
    """Emit a verdict report, its failing minors as witnesses; the exit
    code is 0 when the verdict holds."""
    report = {"verdict": verdict, "minors_checked": checked,
              "witnesses": [{**spec.to_json(), "value": format_scalar(value)}
                            for spec, value in failures]}
    _emit(args, report, human_lines)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_test(args) -> int:
    if args.diagram is not None and args.method != "chamber":
        raise InputError("--diagram applies to --method chamber only")
    x = _load(args.matrix)
    if args.method == "chamber":  # every diagram has n^2 chambers
        if args.diagram is not None:
            d = dg.DoubleWiringDiagram(_parse_word_arg(args.diagram), x.n)
        else:
            d = dg.minimal_diagram(x.n)
        failures, checked = pv.failing_chamber_minors(x, d), x.n * x.n
    elif args.method == "brute":
        failures = pv.failing_all_minors(x, strict=True,
                                         guard=_guard(args, 6))
        checked = comb(2 * x.n, x.n) - 1
    elif args.method == "fekete":
        failures = pv.failing_solid_minors(x)
        checked = x.n * (x.n + 1) * (2 * x.n + 1) // 6
    else:
        # strict Neville elimination, stopped at the first pivot that is
        # not positive, reads only initial minors: it is the initial test
        failures, checked = pv.failing_initial_minors(x), x.n * x.n
    verdict = not failures
    lines = [f"totally positive: {str(verdict).lower()} "
             f"({checked} minors checked, method {args.method})"]
    lines += [f"  minor {spec} = {format_scalar(v)}" for spec, v in failures]
    return _verdict(args, verdict, checked, failures, lines)


def _cmd_tnn(args) -> int:
    x = _load(args.matrix)
    if args.method == "brute":
        failures = pv.failing_all_minors(x, strict=False,
                                         guard=_guard(args, 6))
        verdict, checked = not failures, comb(2 * x.n, x.n) - 1
    else:
        # the user picks neville above the efficient guard; efficient
        # stays the default, so its reports and guard exit are unchanged
        report = (pv.tnn_neville_report if args.method == "neville"
                  else pv.tnn_efficient_report)
        verdict, checked, failures = report(x, guard=_guard(args, 16))
    return _verdict(args, verdict, checked, failures,
                    [f"totally nonnegative: {str(verdict).lower()} "
                     f"({checked} minors checked, method {args.method})"])


def _cmd_oscillatory(args) -> int:
    x = _load(args.matrix)
    verdicts = pv.oscillation_criteria(x, guard=_guard(args, 6))
    if len(set(verdicts.values())) != 1:
        raise AssertionError(f"oscillation criteria disagree: {verdicts}")
    verdict = verdicts["b"]
    report = {"verdict": verdict, "criteria": verdicts}
    _emit(args, report, [f"oscillatory: {str(verdict).lower()} "
                         f"(criteria b, c, d agree)"])
    return 0 if verdict else 1


def _cmd_type(args) -> int:
    x = _load(args.matrix)
    u, v = pv.bruhat_type(x)
    report = {"u": list(u.images), "v": list(v.images)}
    _emit(args, report, [f"u = {u.one_line()}", f"v = {v.one_line()}"])
    return 0


def _cmd_factor(args) -> int:
    x = _load(args.matrix)
    try:
        if args.scheme is None:
            scheme, params = wd.staircase_scheme(x.n), fz.factor_staircase(x)
        else:
            scheme = _parse_word_arg(args.scheme)
            params = fz.factor_scheme(x, scheme)
    except fz.NotTotallyPositiveError as exc:
        return _verdict(args, False, x.n * x.n, [(exc.spec, exc.value)],
                        [f"not totally positive: initial minor "
                         f"{exc.spec} = {format_scalar(exc.value)}"])
    u = v = wd.Permutation.reversal(x.n)  # factor_scheme needs full type
    report = {"verdict": True,
              "scheme": wd.format_word(scheme),
              "u": list(u.images), "v": list(v.images),
              "params": [format_scalar(t) for t in params]}
    _emit(args, report,
          [f"scheme: {wd.format_word(scheme)}",
           f"type: u = {u.one_line()}  v = {v.one_line()}",
           "params: " + " ".join(format_scalar(t) for t in params)])
    return 0


def _cmd_twist(args) -> int:
    x = _load(args.matrix)
    try:
        result = fz.twist(x)
    except SingularLeadingMinorError as exc:
        _emit(args, {"verdict": False, "error": str(exc)},
              [f"twist undefined: {exc}"])
        return 1
    _emit(args, result.to_json(), [str(result)])
    return 0


def _cmd_diagrams(args) -> int:
    if args.word is not None:
        d = dg.DoubleWiringDiagram(_parse_word_arg(args.word), args.n)
        layout = dg.chamber_layout(d)
        report = {
            "word": str(d),
            "chambers": [{**c.spec.to_json(), "bounded": c.bounded}
                         for c in layout],
        }
        lines = [f"word: {d}"]
        for c in layout:
            tag = "bounded" if c.bounded else "unbounded"
            lines.append(f"  level {c.level}  {c.spec}  ({tag})")
        _emit(args, report, lines)
        return 0
    if not args.enumerate:
        raise InputError("diagrams: pass --enumerate or --word")
    graph = dg.enumerate_move_graph(args.n, guard=_guard(args, 4))
    key_index = {key: k for k, key in enumerate(graph.keys)}
    if args.format == "dot":
        lines = [f"graph moves_{args.n} {{"]
        for key, k in key_index.items():
            label = " ".join(str(MinorSpec(r, c)) for r, c in key)
            lines.append(f'  v{k} [label="{label}"];')
        for k1, k2, _ in graph.edges:
            lines.append(f"  v{key_index[k1]} -- v{key_index[k2]};")
        lines.append("}")
        print("\n".join(lines))
        return 0
    if args.format == "json":
        report = {
            "n": args.n,
            "vertices": [{"word": wd.format_word(graph.representatives[key]),
                          "chambers": [{"rows": list(r), "cols": list(c)}
                                       for r, c in key]}
                         for key in graph.keys],
            "edges": [[key_index[k1], key_index[k2]]
                      for k1, k2, _ in graph.edges],
        }
        print(json.dumps(report))
        return 0
    print(f"{graph.vertex_count} vertices")
    print(f"{graph.edge_count} edges")
    return 0


def _cmd_network(args) -> int:
    net = _load(args.file, nw.PlanarNetwork.from_json, "network")
    matrix = nw.weight_matrix(net)
    _emit(args, matrix.to_json(), [str(matrix)])
    return 0


def _cmd_somos(args) -> int:
    if args.seed is not None and args.symbolic:
        raise InputError("--seed applies to numeric terms only, not with "
                         "--symbolic")
    seed = [Fraction(1)] * 5
    if args.seed:
        try:
            parts = [Fraction(p) for p in args.seed.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad seed {args.seed!r}: {exc}") from exc
        if len(parts) != 5:
            raise InputError("seed needs exactly five comma-separated values")
        seed = parts
    if args.symbolic:
        terms = sm.somos5_symbolic(args.terms, limit=_guard(args, 12))
        report = {"terms": [t.to_json() for t in terms],
                  "nonnegative": [laurent_has_nonnegative_coeffs(t)
                                  for t in terms]}
        lines = []
        for k, t in enumerate(terms, start=1):
            flag = "" if laurent_has_nonnegative_coeffs(t) \
                else "  ** NEGATIVE OR FRACTIONAL COEFFICIENT **"
            lines.append(f"a{k} = {t}{flag}")
        _emit(args, report, lines)
        return 0 if all(report["nonnegative"]) else 1
    terms = sm.somos5_numeric(seed, args.terms)
    report = {"terms": [format_scalar(t) for t in terms]}
    _emit(args, report, [f"a{k} = {format_scalar(t)}"
                         for k, t in enumerate(terms, start=1)])
    return 0


def _cmd_selfcheck(args) -> int:
    rng = random.Random(12345)
    results: list[tuple[str, bool]] = []

    def rand_matrix(n):
        return Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(n)] for _ in range(n)])

    def rand_tp(n):
        t = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for _ in range(n * n)]
        return wd.product_map(wd.staircase_scheme(n), t, n)

    # determinant identity residual
    ok = True
    for _ in range(50):
        n = rng.randint(2, 4)
        x = rand_matrix(n)
        i = rng.randint(1, n - 1)
        j = rng.randint(1, n - 1)
        ok &= desnanot_residual(x, i, n, j, n) == 0
    results.append(("desnanot-residual", ok))

    # criterion equivalence
    ok = True
    for k in range(20):
        x = rand_tp(3) if k % 2 else rand_matrix(3)
        ref = pv.is_tp_bruteforce(x)
        ok &= pv.test_initial_minors(x) == ref
        ok &= pv.test_fekete_solid(x) == ref
        if x.det():
            tnn = pv.is_tnn_bruteforce(x)
            ok &= pv.test_tnn_neville(x) == tnn
            ok &= pv.test_tnn_efficient(x)[0] == tnn
    results.append(("criterion-equivalence", ok))

    # disjoint-path oracle against the weight-matrix determinant route
    ok = True
    for _ in range(5):
        t = [Fraction(rng.randint(1, 5)) for _ in range(9)]
        net = nw.standard_network(3, t)
        wm = nw.weight_matrix(net)
        for spec in all_minor_specs(3):
            ok &= minor(wm, spec) == nw.disjoint_path_minor(net, spec)
    results.append(("path-oracle", ok))

    # transport preserves products
    ok = True
    word = wd.staircase_scheme(3)
    params = tuple(Fraction(rng.randint(1, 9)) for _ in word)
    target = wd.product_map(word, params, 3)
    for _ in range(30):
        move = rng.choice(wd.applicable_moves(word))
        word, params = wd.local_move_transport(word, params, move)
        ok &= wd.product_map(word, params, 3) == target
        ok &= all(t > 0 for t in params)
    results.append(("transport", ok))

    # factorization round trips
    ok = True
    for n in (2, 3):
        t = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(n * n))
        x = wd.product_map(wd.staircase_scheme(n), t, n)
        ok &= fz.factor_staircase(x) == t
        ok &= fz.reconstruct_from_initial_minors(fz.initial_minors(x), n) == x
    results.append(("factorization-round-trip", ok))

    mixed = wd.parse_word("2~ 1 @3 2 1~ @1 2~ 1 @2")
    t = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in mixed)
    results.append(("factor-scheme",
                    fz.factor_scheme(wd.product_map(mixed, t, 3), mixed) == t))

    results.append(("twist-monomial",
                    fz.verify_twist_monomial(wd.staircase_scheme(2), 2)))

    terms = sm.somos5_symbolic(8)
    results.append(("somos-laurent",
                    all(laurent_has_nonnegative_coeffs(t) for t in terms)))

    report = {"verdict": all(ok for _, ok in results),
              "suites": {name: ok for name, ok in results}}
    lines = [f"{'ok' if ok else 'FAIL'} {name}" for name, ok in results]
    _emit(args, report, lines)
    return 0 if report["verdict"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totpos",
        description="Exact total positivity tests and parametrizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--report", choices=["json"], default=None,
                       help="emit a machine-readable JSON report")
        p.add_argument("--guard-n", type=int, default=None, dest="guard_n",
                       help="override the size guards (all-minors "
                            "tests and oscillation default to 6, the "
                            "efficient TNN family, also the neville "
                            "witness search, to 16, diagram enumeration "
                            "to 4, symbolic Somos to 12 terms)")

    p = sub.add_parser("test", help="total positivity test")
    p.add_argument("matrix")
    p.add_argument("--method", choices=["initial", "chamber", "fekete",
                                        "brute", "neville"],
                   default="initial")
    p.add_argument("--diagram", default=None,
                   help="double wiring diagram word for --method chamber")
    add_common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("tnn", help="total nonnegativity test")
    p.add_argument("matrix")
    p.add_argument("--method", choices=["efficient", "brute", "neville"],
                   default="efficient")
    add_common(p)
    p.set_defaults(func=_cmd_tnn)

    p = sub.add_parser("oscillatory", help="oscillation test (criteria b, c, d)")
    p.add_argument("matrix")
    add_common(p)
    p.set_defaults(func=_cmd_oscillatory)

    p = sub.add_parser("type", help="double Bruhat cell type (u, v)")
    p.add_argument("matrix")
    add_common(p)
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("factor", help="factorization parameters")
    p.add_argument("matrix")
    p.add_argument("--scheme", default=None,
                   help="factorization scheme word (default: staircase)")
    add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("twist", help="twist map")
    p.add_argument("matrix")
    add_common(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("diagrams", help="double wiring diagrams")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--format", choices=["dot", "json"], default=None)
    p.add_argument("--word", default=None,
                   help="print the chamber table of one diagram")
    add_common(p)
    p.set_defaults(func=_cmd_diagrams)

    p = sub.add_parser("network", help="planar network operations")
    p.add_argument("action", choices=["eval"])
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser("somos", help="Somos-5 sequence")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--seed", default=None,
                   help="five comma-separated nonzero rationals "
                        "(numeric terms only)")
    add_common(p)
    p.set_defaults(func=_cmd_somos)

    p = sub.add_parser("selfcheck", help="run the cross-oracle suites")
    add_common(p)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (InputError, ValueError, sm.SomosPivotError) as exc:
        print(f"totpos: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
