"""Out-of-program tracing for aggcheck: wrappers, spans and self time.

A ``Tracer`` replaces, from outside the program, every binding of each
public ``aggcheck`` function with a wrapper. ``from .x import f`` binds one
function object under several module attributes (``bounded_closure`` lives
in ``syntax``, ``aggregation``, ``semantics`` and the package itself), so
the installer scans every loaded ``aggcheck`` module for attributes that
*are* a listed function and patches each of them. ``restore`` puts the
originals back.

Most functions get one span per call: (name, start, end, parent). Hot leaf
functions, called up to millions of times per check, get a call counter
instead (plus a running total time for ``algebra.evaluate``); their time
stays in the self time of the span that called them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "syntax",
    "algebra",
    "agenda",
    "aggregation",
    "impossibility",
    "semantics",
    "modal",
    "fileio",
    "cli",
)

# Hot leaves: counted, not spanned. The value says whether to total the time.
HOT_FUNCTIONS = {
    "algebra.evaluate": True,
    "algebra.product_element_index": False,
    "syntax.formula_sort_key": False,
    "syntax.print_formula": False,
    "syntax.variables_of": False,
    "syntax.validate_formula": False,
}
# Methods traced on their class: (module, class, method) -> metric name.
HOT_METHODS = {
    ("algebra", "FiniteAlgebra", "op"): "algebra.op",
    ("aggregation", "CriterionAggregator", "apply"): "aggregation.apply",
}


def _criteria_candidates(result, args, kwargs):
    agenda = args[0] if args else kwargs["agenda"]
    electorate = args[1] if len(args) > 1 else kwargs["electorate"]
    size = agenda.algebra.size
    return size ** (size**electorate)


# Work counts recorded at span boundaries: metric suffix -> f(result, args, kwargs).
SIZES = {
    "syntax.bounded_closure": {"formulas": lambda r, a, k: len(r)},
    "algebra.product_algebra": {
        "entries": lambda r, a, k: sum(len(table) for _, table in r.ops)
    },
    "algebra.enumerate_homomorphisms": {"found": lambda r, a, k: len(r)},
    "aggregation.qualifying_criteria": {
        "candidates": _criteria_candidates,
        "survivors": lambda r, a, k: len(r),
    },
    "aggregation.enumerate_rational_profiles": {"profiles": lambda r, a, k: len(r)},
}


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function object, for every public function each
    layer module defines itself (re-exports are binding sites, not functions)."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"aggcheck.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Collects spans and counters for one check process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.totals: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizes = SIZES.get(name, {})

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            for suffix, measure in sizes.items():
                self.sizes[f"{name}.{suffix}"] += measure(result, args, kwargs)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn, timed):
        counts, totals, clock = self.counts, self.totals, time.perf_counter
        if not timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += clock() - start

        return timed_wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding site of every public function."""
        functions = public_functions()
        wrappers = {}
        for name, fn in functions.items():
            if name in HOT_FUNCTIONS:
                wrapped = self._counter_wrapper(name, fn, HOT_FUNCTIONS[name])
            elif inspect.isgeneratorfunction(fn):
                # a span would close before the generator runs
                wrapped = self._counter_wrapper(name, fn, False)
            else:
                wrapped = self._span_wrapper(name, fn)
            wrappers[id(fn)] = wrapped
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "aggcheck" or key.startswith("aggcheck."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None and inspect.isfunction(obj):
                    self._patch(module, attr, wrapped)
        for (layer, cls_name, method), name in HOT_METHODS.items():
            cls = getattr(importlib.import_module(f"aggcheck.{layer}"), cls_name)
            self._patch(cls, method, self._counter_wrapper(name, vars(cls)[method], False))

    def _patch(self, owner, attr, wrapped):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "sizes": dict(self.sizes),
            "totals": dict(self.totals),
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent and overlapping children are
    merged, so the result never double-counts and never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(max(0.0, end - start - covered))
    return result


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-function and per-layer totals over the dumps of several checks:
    ``<fn>.calls``, ``<fn>.self_s``, ``<layer>.calls``, ``<layer>.self_s``,
    counter totals and work sizes."""
    out: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        for (name, *_), self_s in zip(spans, self_times(spans)):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
        for name, count in dump["counts"].items():
            out[f"{name}.calls"] += count
            out[f"{name.split('.', 1)[0]}.calls"] += count
        for name, total in dump["totals"].items():
            out[f"{name}.total_s"] += total
        out.update(dump["sizes"])
    return dict(out)
