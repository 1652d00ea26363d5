"""Span tracing of the totpos layers, installed from outside the package.

`Tracer.install` replaces each function named in `LAYERS` by a wrapper that
records one span per call: name, start, end, parent span and request.
Where one module imported another's function by name, the same wrapper is
rebound in the importing module too, so internal calls are traced as well.
`Tracer.uninstall` restores every original binding, so untraced rounds run
the unmodified package.

Spans are kept in memory in flat integer arrays and written out when the
run ends (`Tracer.write`).  A span's self time is its duration minus the
durations of its children; the benchmark runs one thread, so children nest
inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# The public functions wrapped per module, named as in the metrics.
LAYERS = {
    "matrices": ["minor", "Matrix.det", "ldu_decompose", "Matrix.inverse",
                 "exact_rank"],
    "positivity": ["test_initial_minors", "test_fekete_solid",
                   "test_chamber_minors", "failing_minors",
                   "test_tnn_efficient", "test_tp_given_tnn",
                   "is_tp_bruteforce", "is_tnn_bruteforce", "bruhat_type",
                   "is_oscillatory"],
    "words": ["product_map", "elementary_matrix", "transport_params",
              "local_move_transport", "move_path", "reduced_words"],
    "networks": ["standard_network", "concatenate", "weight_matrix",
                 "disjoint_path_minor"],
    "factorization": ["factor_staircase", "factor_scheme", "twist",
                      "reconstruct_from_initial_minors",
                      "verify_twist_monomial", "staircase_minor_exponents"],
    "diagrams": ["local_moves", "chamber_key", "chamber_minors",
                 "enumerate_move_graph"],
    "exact": ["laurent_divide_exact"],
    "somos": ["somos5_symbolic", "somos5_numeric"],
}

# Minor criteria and the sign a minor must fail for the verdict to be
# negative; used for positivity.useful_minor_ratio.
_NONPOSITIVE, _NEGATIVE, _ZERO, _LEADING = 1, 2, 4, 8
CRITERIA = {
    "positivity.test_initial_minors": lambda f: f & _NONPOSITIVE,
    "positivity.test_fekete_solid": lambda f: f & _NONPOSITIVE,
    "positivity.test_chamber_minors": lambda f: f & _NONPOSITIVE,
    "positivity.is_tp_bruteforce": lambda f: f & _NONPOSITIVE,
    "positivity.is_tnn_bruteforce": lambda f: f & _NEGATIVE,
    "positivity.test_tp_given_tnn": lambda f: f & _ZERO,
    "positivity.test_tnn_efficient":
        lambda f: f & _NEGATIVE or (f & _ZERO and f & _LEADING),
}
_FAILING = "positivity.failing_minors"
_MINOR = "matrices.minor"
_COLD = "factorization.staircase_minor_exponents"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, functions in LAYERS.items():
        for function in functions:
            qualified = f"{module}.{function}"
            if qualified == _COLD:
                units[f"{_COLD}.cold_ms"] = "ms"
                continue
            units[f"{qualified}.calls"] = "count"
            units[f"{qualified}.self_ms"] = "ms"
            units[f"{qualified}.raised"] = "count"
        if module == "matrices":
            units["matrices.minor.max_bits"] = "bits"
        if module == "positivity":
            units["positivity.minors_per_verdict"] = "count"
            units["positivity.useful_minor_ratio"] = "ratio"
        if module == "diagrams":
            units["diagrams.useful_move_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.flags: dict[int, int] = {}     # minor span -> sign flags
        self.bits: dict[int, int] = {}      # minor span -> bit length
        self.results: dict[int, bool] = {}  # criterion span -> verdict
        self.lenient: set[int] = set()      # failing_minors(strict=False)
        self.cold: list[int] = []           # spans of first fits per size
        self._stack: list[int] = []
        self._request = -1
        self.active = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int, raised: bool = False) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()
        if raised:
            self.raised[index] = 1

    def begin_request(self, kind: str) -> int:
        """Open the root span of one benchmark request."""
        self._request = len(self.start)
        return self.open(self._id(f"request.{kind}"))

    def end_request(self, index: int, raised: bool) -> None:
        self.close(index, raised)
        self._request = -1

    def _wrap(self, qualified: str, fn):
        name_id = self._id(qualified)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return (yield from fn(*args, **kwargs))
                index = tracer.open(name_id)
                try:
                    result = yield from fn(*args, **kwargs)
                except BaseException:
                    tracer.close(index, True)
                    raise
                tracer.close(index)
                return result
            return wrapper

        hook = None
        if qualified == _MINOR:
            hook = self._after_minor
        elif qualified in CRITERIA or qualified == _FAILING:
            hook = self._after_criterion
        cache = (sys.modules[fn.__module__]._staircase_cache
                 if qualified == _COLD else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            cold = cache is not None and args[0] not in cache
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, True)
                raise
            tracer.close(index)
            if hook is not None:
                hook(index, args, kwargs, result)
            if cold:
                tracer.cold.append(index)
            return result
        return wrapper

    def _after_minor(self, index: int, args, kwargs, value) -> None:
        spec = args[1]
        flags = 0
        if value <= 0:
            flags |= _NONPOSITIVE
        if value < 0:
            flags |= _NEGATIVE
        if value == 0:
            flags |= _ZERO
        if spec.rows == spec.cols and spec.rows[0] == 1 \
                and spec.rows[-1] == len(spec.rows):
            flags |= _LEADING
        self.flags[index] = flags
        self.bits[index] = max(value.numerator.bit_length(),
                               value.denominator.bit_length())

    def _after_criterion(self, index: int, args, kwargs, result) -> None:
        if isinstance(result, tuple):       # test_tnn_efficient
            result = result[0]
        elif isinstance(result, list):      # failing_minors
            result = not result
            if not kwargs.get("strict", True):
                self.lenient.add(index)
        self.results[index] = bool(result)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of `LAYERS` wherever the package binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "totpos" or name.startswith("totpos.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"totpos.{module_name}"]
            for function in functions:
                qualified = f"{module_name}.{function}"
                if "." in function:
                    cls_name, attr = function.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, self._wrap(qualified, original))
                    continue
                original = getattr(home, function)
                wrapper = self._wrap(qualified, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, attr, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)
                            if not isinstance(owner, type)
                            else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> array:
        """Per-span duration minus the durations of its child spans (ns)."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * len(own)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += own[index]
        return array("q", (o - c for o, c in zip(own, child)))

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, per traced round (all rounds are identical)."""
        own = self.self_times()
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        raised = defaultdict(int)
        for index, name_id in enumerate(self.name):
            if self.request[index] < 0:     # set-up, not a request
                continue
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name] += own[index]
            raised[name] += self.raised[index]

        # minors under each outermost minor criterion, in evaluation order
        criteria = {self._ids[n] for n in list(CRITERIA) + [_FAILING]
                    if n in self._ids}
        minors_of: dict[int, list[int]] = defaultdict(list)
        minor_id = self._ids.get(_MINOR)
        for index, name_id in enumerate(self.name):
            if name_id == minor_id and self.request[index] >= 0:
                top = self._outermost(index, criteria)
                if top >= 0:
                    minors_of[top].append(index)
        outermost = [i for i in self.results if self.request[i] >= 0
                     and self._outermost(i, criteria) < 0]
        evaluated = sum(len(minors_of[i]) for i in outermost)
        useful = attempted = 0
        for i in outermost:
            if self.results[i]:
                continue
            name = self.names[self.name[i]]
            fails = CRITERIA.get(name)
            minors = minors_of[i]
            if fails is None:   # failing_minors
                fails = CRITERIA["positivity.is_tnn_bruteforce"
                                 if i in self.lenient
                                 else "positivity.is_tp_bruteforce"]
            first = next((k for k, m in enumerate(minors)
                          if fails(self.flags[m])), len(minors) - 1)
            useful += first + 1
            attempted += len(minors)

        per = 1.0 / max(rounds, 1)
        out: dict[str, float] = {}
        for qualified in metric_units():
            base, _, field = qualified.rpartition(".")
            if field == "calls":
                out[qualified] = calls[base] * per
            elif field == "self_ms":
                out[qualified] = self_ns[base] / 1e6 * per
            elif field == "raised":
                out[qualified] = raised[base] * per
        out["matrices.minor.max_bits"] = max(
            (b for i, b in self.bits.items() if self.request[i] >= 0),
            default=0)
        out["positivity.minors_per_verdict"] = (
            evaluated / len(outermost) if outermost else 0.0)
        out["positivity.useful_minor_ratio"] = (
            useful / attempted if attempted else 0.0)
        # cold fits: once in set-up (factor), or per round in each command
        # process (cli)
        out[f"{_COLD}.cold_ms"] = sum(
            (self.end[i] - self.start[i]) * (per if self.request[i] >= 0
                                             else 1)
            for i in self.cold) / 1e6
        return out

    def _outermost(self, index: int, names: set[int]) -> int:
        """The outermost ancestor span whose name is in ``names``, or -1."""
        top = -1
        node = self.parent[index]
        while node >= 0:
            if self.name[node] in names:
                top = node
            node = self.parent[node]
        return top

    # -- spans recorded in a child process ---------------------------------

    def dump(self) -> dict:
        """Everything recorded, as JSON-ready data for `merge`."""
        return {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end), "raised": list(self.raised),
                "flags": list(self.flags.items()),
                "bits": list(self.bits.items()),
                "results": list(self.results.items()),
                "lenient": list(self.lenient), "cold": self.cold}

    def merge(self, data: dict, root: int) -> None:
        """Adopt the spans of a child process as children of span ``root``
        and parts of its request (clocks are system-wide monotonic)."""
        offset = len(self.start)
        ids = [self._id(name) for name in data["names"]]
        request = self.request[root]
        for k, name_id in enumerate(data["name"]):
            parent = data["parent"][k]
            self.name.append(ids[name_id])
            self.parent.append(parent + offset if parent >= 0 else root)
            self.request.append(request)
            self.start.append(data["start"][k])
            self.end.append(data["end"][k])
            self.raised.append(data["raised"][k])
        self.flags.update((k + offset, v) for k, v in data["flags"])
        self.bits.update((k + offset, v) for k, v in data["bits"])
        self.results.update((k + offset, v) for k, v in data["results"])
        self.lenient.update(k + offset for k in data["lenient"])
        self.cold += [k + offset for k in data["cold"]]

    def write(self, path) -> None:
        """All spans as JSON lines: name, start_ns, end_ns, parent, request,
        raised; span ids are line numbers from 0."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(json.dumps([self.names[self.name[i]],
                                      self.start[i], self.end[i],
                                      self.parent[i], self.request[i],
                                      self.raised[i]]) + "\n")
