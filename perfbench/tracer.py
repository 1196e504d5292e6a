"""Span recorder that wraps turnover's public functions from outside.

``Tracer.install()`` replaces each function in ``WRAPPED`` by a wrapper in
every ``turnover.*`` module namespace that holds it, so calls are caught
where they are looked up (``turnover.engine.miyamoto_lower_bound``,
``turnover.simplices.integrate``, ...), including calls inside the
defining module.  Each call records one span ``(name, start_ns, end_ns,
parent)``; spans stay in memory until ``write_spans`` saves them.  A span's
self time is its duration minus the durations of its direct children
(calls are single-threaded, so children never overlap).

Counts are taken at the same boundaries: integrand and root-function
evaluations are counted by wrapping the callable passed in, ``rho3``
records its distinct arguments, and the enumeration layers record the
sizes of their results.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every wrapped public function.  The span
# name is "<module>.<attribute path>".
WRAPPED = (
    ("numerics", "integrate"),
    ("numerics", "lobachevsky"),
    ("numerics", "find_root"),
    ("trig", "classify"),
    ("trig", "turnover_area"),
    ("collars", "refined_boundary_orders"),
    ("simplices", "rho3"),
    ("simplices", "truncated_simplex_volume"),
    ("simplices", "miyamoto_lower_bound"),
    ("simplices", "ReturnPathCase.build"),
    ("rooms", "room_volume"),
    ("rooms", "ceiling_area"),
    ("rooms", "nice_height"),
    ("rooms", "isoperimetric_check"),
    ("rooms", "cusp_prism_check"),
    ("engine", "analyze"),
    ("engine", "make_ledger"),
    ("engine", "boundary_candidates"),
    ("engine", "miyamoto_case_scan"),
    ("cli", "main"),
)

MODULES = ("numerics", "trig", "collars", "simplices", "rooms", "engine", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.rho3_args: set = set()
        self._restore: list = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(f"turnover.{module}")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "turnover" or name.startswith("turnover.")) and mod is not None
        }
        for module, path in WRAPPED:
            name = f"{module}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(modules[f"turnover.{module}"], cls_name)
                original = cls.__dict__[attr]
                wrapped = classmethod(self._wrap(name, original.__func__))
                setattr(cls, attr, wrapped)
                self._restore.append((cls, attr, original))
                continue
            original = getattr(modules[f"turnover.{module}"], path)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = _HOOKS.get(name, (None, None))
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                args, token = before(self, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- aggregation --------------------------------------------------------

    def self_times_ms(self) -> tuple[dict, Counter]:
        """Per-name self time in ms and call counts."""
        children = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] += end - start - children.get(index, 0)
            calls[name] += 1
        return {name: ns / 1e6 for name, ns in self_ns.items()}, calls

    def write_spans(self, path) -> None:
        """Save spans as gzip TSV: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")


# --- per-function count hooks --------------------------------------------------


def _count_evaluations(key: str):
    """Hooks that count calls of the function passed as first argument.

    The counting closure adds about 70 ns per evaluation, a quarter of the
    cost of the cheapest integrand.  A callable that is already counted
    (``integrate`` re-enters itself for a > b) is passed through, so each
    evaluation is counted once.
    """

    def before(tracer: Tracer, args: tuple):
        fn = args[0]
        if hasattr(fn, "bench_ticks"):
            return args, None
        ticks = itertools.count()

        def counted(x, fn=fn, tick=ticks.__next__):
            tick()
            return fn(x)

        counted.bench_ticks = ticks
        return (counted,) + args[1:], ticks

    def after(tracer: Tracer, args: tuple, result, ticks) -> None:
        if ticks is not None:
            tracer.counts[key] += next(ticks)

    return before, after


def _record_rho3(tracer: Tracer, args: tuple):
    tracer.rho3_args.add(args[0])
    return args, None


def _after_orders(tracer: Tracer, args: tuple, result, token) -> None:
    from turnover.collars import cone_order_universe

    tracer.counts["collars.refined_boundary_orders.kept"] += len(result)
    tracer.counts["collars.refined_boundary_orders.universe"] += len(
        cone_order_universe(args[0])
    )


def _count_result(key: str):
    def after(tracer: Tracer, args: tuple, result, token) -> None:
        tracer.counts[key] += len(result)

    return after


# name -> (before, after); ``before(tracer, args)`` returns the arguments to
# call with and a token that is handed to ``after(tracer, args, result, token)``.
_HOOKS = {
    "numerics.integrate": _count_evaluations("numerics.integrate.evals"),
    "numerics.find_root": _count_evaluations("numerics.find_root.evals"),
    "simplices.rho3": (_record_rho3, None),
    "collars.refined_boundary_orders": (None, _after_orders),
    "engine.boundary_candidates": (None, _count_result("engine.boundary_candidates.candidates")),
    "engine.miyamoto_case_scan": (None, _count_result("engine.miyamoto_case_scan.cases")),
}


def layer_totals(tracer: Tracer, factor: float) -> dict:
    """Additive totals of one traced process, self times scaled by
    ``factor`` (reference over measured machine speed); merged across
    processes with ``merge_totals`` and turned into metrics by
    ``layer_metrics``."""
    self_ms, calls = tracer.self_times_ms()
    totals = {f"{name}.self_ms": ms * factor for name, ms in self_ms.items()}
    totals.update({f"{name}.calls": n for name, n in calls.items()})
    totals.update(tracer.counts)
    return totals


def merge_totals(parts: list[dict]) -> dict:
    merged: Counter = Counter()
    for part in parts:
        merged.update(part)
    return dict(merged)


def layer_metrics(totals: dict, rho3_distinct: int, traced_ms: float) -> dict:
    """Per-layer metric values from merged totals."""

    def get(key):
        return float(totals.get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for module, path in WRAPPED:
        name = f"{module}.{path}"
        metrics[f"{name}.calls"] = get(f"{name}.calls")
        metrics[f"{name}.self_ms"] = get(f"{name}.self_ms")
    for module in MODULES:
        metrics[f"{module}.self_ms"] = sum(
            get(f"{m}.{p}.self_ms") for m, p in WRAPPED if m == module
        )
    metrics["numerics.integrate.evals"] = get("numerics.integrate.evals")
    metrics["numerics.integrate.evals_per_call"] = ratio(
        get("numerics.integrate.evals"), get("numerics.integrate.calls")
    )
    metrics["numerics.find_root.evals"] = get("numerics.find_root.evals")
    metrics["simplices.rho3.distinct_args"] = float(rho3_distinct)
    metrics["simplices.rho3.distinct_ratio"] = ratio(
        rho3_distinct, get("simplices.rho3.calls")
    )
    metrics["collars.refined_boundary_orders.kept_ratio"] = ratio(
        get("collars.refined_boundary_orders.kept"),
        get("collars.refined_boundary_orders.universe"),
    )
    metrics["engine.boundary_candidates.candidates"] = get(
        "engine.boundary_candidates.candidates"
    )
    metrics["engine.miyamoto_case_scan.cases"] = get("engine.miyamoto_case_scan.cases")
    metrics["trace.simplices_numerics_share"] = ratio(
        metrics["simplices.self_ms"] + metrics["numerics.self_ms"], traced_ms
    )
    return metrics
