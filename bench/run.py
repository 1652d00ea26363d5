"""Benchmark of the totpos package: four seeded closed-loop workloads.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Workloads (see bench/context.json for why each was chosen):
  verdicts       TP/TNN criteria and witnesses on generated matrices
  factor         parametrization round trips (product map, factoring, twist)
  combinatorics  wiring-diagram moves, reduced words, symbolic Somos-5
  cli            `python -m totpos.cli` subprocesses, one after another

One client sends the next request only after the previous answer came
back.  Inputs come from --seed and are generated before timing starts; a
run repeats one fixed round of requests until --seconds of request time
and at least 100 requests have completed.  Every answer is checked outside
the timed interval.

With --trace 0 the last stdout line carries the end-to-end metrics:
ops_per_s (median over rounds of requests per second of request time),
latency_p50_ms and latency_p90_ms (over all requests of the run), setup_s
(median over several set-ups of: importing the package, generating inputs,
warming its caches) and peak_rss_mb.  The error rate is failed / attempted
in the same line.  With --trace 1 rounds alternate between the unmodified
package and one whose layer functions are wrapped in spans
(bench/tracing.py); the last line carries the per-layer metrics, per
traced round, and the spans are written to bench/out/.

The package is imported from src/ of the checkout this file lives in; the
run fails with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracle
import workloads as wl
from tracing import Tracer, metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("verdicts", "factor", "combinatorics", "cli")
MODULES = ("exact", "matrices", "words", "networks", "diagrams",
           "positivity", "factorization", "somos", "cli")
CLI_SUBCOMMANDS = ("test", "tnn", "factor", "twist", "type", "oscillatory",
                   "diagrams", "network", "somos")
SETUP_REPEATS = 5
MIN_REQUESTS = 100
# Host speed: the time of a fixed exact computation that does not use
# totpos (the benchmark's own rational determinant of REFERENCE_MATRIX).  On
# the shared machines this benchmark runs on, host speed moves by up to
# 1.7x within seconds; times are scaled by REFERENCE_MS / (that time around
# the measured interval), i.e. reported at the reference speed.  It is
# measured around every set-up and every SEGMENT_S of requests.
_ref = random.Random(0)
REFERENCE_MATRIX = [[Fraction(_ref.randint(1, 50), _ref.randint(1, 50))
                     for _ in range(7)] for _ in range(7)]
REFERENCE_MS = 1.2
SEGMENT_S = 0.5


def import_totpos() -> SimpleNamespace:
    """A fresh import of every totpos module, as a new process would do."""
    for name in [m for m in sys.modules
                 if m == "totpos" or m.startswith("totpos.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"totpos.{m}")
                             for m in MODULES})
    if Path(lib.exact.__file__).resolve().parent != SRC / "totpos":
        raise ImportError(f"totpos was imported from {lib.exact.__file__}, "
                          f"not from {SRC}")
    return lib


def setup(name: str, seed: int, workdir: Path, tracer=None):
    """Import, generate the inputs, warm the caches; returns the workload.
    With a tracer, its wrappers are active while the caches warm, so that
    the first call per size is recorded."""
    lib = import_totpos()
    rng = random.Random(seed)
    if name == "cli":
        workload = wl.cli(lib, rng, workdir, SRC)
    else:
        workload = getattr(wl, name)(lib, rng)
    if name == "factor":
        if tracer is not None:
            tracer.install()
            tracer.active = True
        wl.warm_factor_cache(lib)
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    return workload


def reference_ms() -> float:
    """Current host speed: median time of five reference determinants."""
    times = []
    for _ in range(5):
        start = time.perf_counter_ns()
        oracle.det(REFERENCE_MATRIX)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def timed_at_reference(fn):
    """Run fn(); return its result, its raw seconds and the factor that
    scales times measured meanwhile to the reference host speed."""
    before = reference_ms()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    scale = REFERENCE_MS / ((before + reference_ms()) / 2)
    return result, elapsed, scale


def verify(request, result, first: dict) -> bool:
    key = id(request)
    if request.cache and key in first:
        answer, ok = first[key]
        return ok and result == answer
    ok = bool(request.check(result))
    if request.cache:
        first[key] = (result, ok)
    return ok


def run_rounds(workload, seconds: float, tracer=None):
    """Repeat the round until enough request time and requests are done.
    With a tracer, rounds alternate untraced / traced.  Latencies and
    rates are kept raw and scaled to the reference host speed."""
    latencies = {False: [], True: []}       # scaled, ms
    raw = {False: [], True: []}             # ms
    rates = {False: [], True: []}           # scaled requests/s per round
    raw_rates = {False: [], True: []}
    by_kind: dict[str, list[float]] = {}    # raw ms, untraced rounds
    timed = {False: 0.0, True: 0.0}         # raw s
    rounds = {False: 0, True: 0}
    first: dict = {}
    failures: list[str] = []
    attempted = failed = 0

    def one_round(traced: bool) -> tuple[list[float], list[float]]:
        """Raw and scaled latencies (ms) of one round."""
        nonlocal attempted, failed
        lat, scaled, segment = [], [], 0
        before = reference_ms()
        for request in workload.requests:
            if traced:
                span = tracer.begin_request(request.kind)
                tracer.active = True
            error = None
            start = time.perf_counter_ns()
            try:
                result = request.call()
            except Exception as exc:    # a failed request, counted below
                error, result = exc, None
            elapsed = time.perf_counter_ns() - start
            if traced:
                tracer.active = False
                tracer.end_request(span, error is not None)
                if workload.child_spans and workload.child_spans.exists():
                    tracer.merge(json.loads(workload.child_spans.read_text()),
                                 span)
                    workload.child_spans.unlink()
            attempted += 1
            try:
                ok = error is None and verify(request, result, first)
            except Exception as exc:    # a check that raises is a failure
                ok, error = False, exc
            if not ok:
                failed += 1
                if len(failures) < 10:
                    reason = repr(error) if error else "wrong answer"
                    failures.append(f"{request.kind}: {reason}")
            lat.append(elapsed / 1e6)
            if not traced:
                by_kind.setdefault(request.kind, []).append(elapsed / 1e6)
            if sum(lat[segment:]) >= SEGMENT_S * 1e3 \
                    or len(lat) == len(workload.requests):
                after = reference_ms()
                scale = REFERENCE_MS / ((before + after) / 2)
                scaled += [x * scale for x in lat[segment:]]
                before, segment = after, len(lat)
        return lat, scaled

    while True:
        traced = tracer is not None and rounds[False] > rounds[True]
        if traced:
            tracer.install()
        workload.traced = traced
        workload.reset()
        lat, scaled = one_round(traced)
        if traced:
            tracer.uninstall()
        timed[traced] += sum(lat) / 1e3
        raw[traced] += lat
        latencies[traced] += scaled
        raw_rates[traced].append(len(lat) / (sum(lat) / 1e3))
        rates[traced].append(len(lat) / (sum(scaled) / 1e3))
        rounds[traced] += 1
        done = sum(timed.values()) >= seconds and attempted >= MIN_REQUESTS
        if done and (tracer is None or rounds[True] >= 1):
            break
    return SimpleNamespace(latencies=latencies, raw=raw, rates=rates,
                           raw_rates=raw_rates, timed=timed, rounds=rounds,
                           by_kind=by_kind, attempted=attempted,
                           failed=failed, failures=failures)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024   # KiB on Linux


def subprocess_ms(args, repeats: int = 5) -> float:
    times = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], check=True, env=env,
                       capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def context() -> dict:
    commit = "unknown"      # outside a git checkout of this repository
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "totpos").glob("*.py"))
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit, "src_lines": lines}


def per_layer_units() -> dict[str, str]:
    units = metric_units()
    units["cli.interpreter_ms"] = units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.process_ms"] = "ms"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


def layer_metrics(name, tracer, outcome, workload) -> dict[str, float]:
    metrics = tracer.layer_metrics(outcome.rounds[True])
    counters = workload.counters
    metrics["diagrams.useful_move_ratio"] = (
        counters["distinct"] / counters["moves"] if counters.get("moves")
        else 0.0)
    for key in ["cli.interpreter_ms", "cli.import_ms"] + [
            f"cli.{sub}.process_ms" for sub in CLI_SUBCOMMANDS]:
        metrics[key] = 0.0
    if name == "cli":
        floor = subprocess_ms(["-c", "pass"])
        metrics["cli.interpreter_ms"] = floor
        metrics["cli.import_ms"] = subprocess_ms(
            ["-c", "import totpos.cli"]) - floor
        for sub in CLI_SUBCOMMANDS:
            times = outcome.by_kind.get(f"cli_{sub}")
            metrics[f"cli.{sub}.process_ms"] = (
                statistics.median(times) if times else 0.0)
    metrics["trace.overhead_ops_per_s"] = (
        statistics.median(outcome.rates[False])
        - statistics.median(outcome.rates[True]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "totpos" / "__init__.py").is_file():
        print(f"bench: no totpos package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ctx = context()
    print(f"context: python {ctx['python']}, nproc {ctx['nproc']}, "
          f"commit {ctx['commit']}, src/totpos {ctx['src_lines']} lines, "
          f"seed {args.seed}")

    problems: list[str] = []
    if args.workload == "verdicts":
        import_totpos()
        problems += wl.self_check_generators(args.seed)

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setups, raw_setups = [], []
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            workload, elapsed, scale = timed_at_reference(
                lambda: setup(args.workload, args.seed, Path(tmp),
                              tracer if last else None))
            raw_setups.append(elapsed)
            setups.append(elapsed * scale)
        outcome = run_rounds(workload, args.seconds, tracer)
        if tracer is not None:
            metrics = layer_metrics(args.workload, tracer, outcome, workload)
            report = {k: {"value": metrics[k], "unit": unit}
                      for k, unit in per_layer_units().items()}
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    untraced = outcome.latencies[False]
    rate = statistics.median(outcome.rates[False])
    print(f"{args.workload}: {len(untraced)} untraced requests in "
          f"{outcome.rounds[False]} rounds of {len(workload.requests)}, "
          f"{outcome.timed[False]:.2f} s of request time")
    raw = outcome.raw[False]
    print(f"raw wall clock: ops_per_s "
          f"{statistics.median(outcome.raw_rates[False]):.4g}, p50 "
          f"{percentile(raw, 50):.4g} ms, p90 {percentile(raw, 90):.4g} ms, "
          f"setup {statistics.median(raw_setups):.4g} s; host reference "
          f"loop now {reference_ms():.3f} ms, scaled to {REFERENCE_MS} ms")
    print(f"error_rate: {outcome.failed / outcome.attempted:.6f} "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for line in problems + outcome.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is None:
        report = {
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(untraced, 50),
                               "unit": "ms"},
            "latency_p90_ms": {"value": percentile(untraced, 90),
                               "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload == "cli"),
                            "unit": "MiB"},
        }
    else:
        traced = outcome.latencies[True]
        print(f"tracing: {len(traced)} traced requests, "
              f"{statistics.median(outcome.rates[True]):.3f} ops/s traced "
              f"vs {rate:.3f} untraced")
    for key, item in report.items():
        print(f"  {key} = {item['value']:.6g} {item['unit']}")
    print(json.dumps({"correct": outcome.failed == 0 and not problems,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
