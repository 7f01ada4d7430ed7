"""Layer spans recorded from outside the program.

Tracing wraps public functions of each hatkit module and records one span
per call: its layer, its start and end, and the span that was open when it
began.  A layer's self time is the duration of its spans minus the part of
each span covered by its child spans, so the self times of all layers in a
request add up to the request's own span.

hatkit modules bind names such as ``certify_hat`` and ``action_kernel``
with ``from ... import``, so a function is replaced under every name in
every loaded hatkit module that refers to it, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

# (module, function, time metric, call-count metric).  The time metric of
# ``run_suite`` is completed with the suite name it is called with.
WRAPPED = (
    ("hatkit.constructions", "build_xo", "constructions.build_s",
     "constructions.build_calls"),
    ("hatkit.constructions", "build_xe", "constructions.build_s",
     "constructions.build_calls"),
    ("hatkit.constructions", "build_wreath", "constructions.build_s",
     "constructions.build_calls"),
    ("hatkit.constructions", "build_circulant", "constructions.build_s",
     "constructions.build_calls"),
    ("hatkit.constructions", "build_cubic_arc_graph", "constructions.build_s",
     "constructions.build_calls"),
    ("hatkit.graphcore", "certify_hat", "graphcore.certify_hat_s",
     "graphcore.certify_hat_calls"),
    ("hatkit.alternating", "analyze", "alternating.analyze_s",
     "alternating.analyze_calls"),
    ("hatkit.perm", "action_kernel", "perm.action_kernel_s",
     "perm.action_kernel_calls"),
    ("hatkit.perm", "group_structure", "perm.group_structure_s", None),
    ("hatkit.quotients", "kernels", "quotients.kernels_s", None),
    ("hatkit.quotients", "classify_kernel", "quotients.classify_kernel_s", None),
    ("hatkit.quotients", "thm_pipeline", "quotients.thm_pipeline_s", None),
    ("hatkit.quotients", "quotient_action", "quotients.quotient_action_s", None),
    ("hatkit.autsearch", "automorphism_group", "autsearch.automorphism_group_s",
     "autsearch.automorphism_group_calls"),
    ("hatkit.autsearch", "canonical_form", "autsearch.canonical_form_s", None),
    ("hatkit.autsearch", "are_isomorphic", "autsearch.are_isomorphic_s", None),
    ("hatkit.autsearch", "is_arc_transitive", "autsearch.is_arc_transitive_s",
     None),
    ("hatkit.harness", "run_suite", "harness.suite_s", None),
    ("hatkit.harness", "ingest", "harness.ingest_s", None),
)

SUITES = ("gta", "jump-lemmas", "kernels", "allkernels", "quotient", "psi",
          "iso-relations", "andivr-props")

# Counters taken from a wrapped function's result.
RESULT_COUNTS = {
    "automorphism_group": ("autsearch.generators",
                           lambda group: len(group.generators)),
}

REQUEST_LAYER = "cli.self_s"
ELEMENTS_LAYER = "perm.elements_s"

TIME_METRICS = tuple(dict.fromkeys(
    [m for _mod, _fn, m, _c in WRAPPED if m != "harness.suite_s"]
    + [f"harness.suite_s.{s}" for s in SUITES]
    + [ELEMENTS_LAYER, REQUEST_LAYER]))
COUNT_METRICS = tuple(dict.fromkeys(
    [c for _mod, _fn, _m, c in WRAPPED if c]
    + ["perm.enumerations", "perm.elements_enumerated",
       *(name for name, _count in RESULT_COUNTS.values())]))


@dataclass
class Span:
    layer: str
    start: float
    end: Optional[float]
    parent: Optional[int]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(layer, time.perf_counter(), None, parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def reset(self):
        self.spans, self.counts, self._open = [], Counter(), []


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> Counter:
    """Per-layer self time: each span's duration minus the time its child
    spans cover."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out: Counter = Counter()
    for k, sp in enumerate(spans):
        out[sp.layer] += (sp.end - sp.start) - _covered(
            sp.start, sp.end, children.get(k, ()))
    return out


def _traced(fn, tracer: Tracer, metric: str, calls: Optional[str]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layer = f"{metric}.{args[0]}" if metric == "harness.suite_s" else metric
        index = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if calls:
            tracer.counts[calls] += 1
        if fn.__name__ in RESULT_COUNTS:
            name, count = RESULT_COUNTS[fn.__name__]
            tracer.counts[name] += count(result)
        return result
    return wrapper


def _traced_elements(fn, tracer: Tracer):
    """GroupByGenerators.elements, traced only when its cache misses."""
    @functools.wraps(fn)
    def elements(self):
        if self._elements is not None:
            return fn(self)
        tracer.counts["perm.enumerations"] += 1
        index = tracer.begin(ELEMENTS_LAYER)
        try:
            result = fn(self)
        finally:
            tracer.end(index)
        tracer.counts["perm.elements_enumerated"] += len(result)
        return result
    return elements


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    hatkit_modules = [mod for name, mod in sorted(sys.modules.items())
                      if name == "hatkit" or name.startswith("hatkit.")]
    undo = []
    for module_name, fn_name, metric, calls in WRAPPED:
        original = getattr(sys.modules[module_name], fn_name)
        wrapper = _traced(original, tracer, metric, calls)
        for mod in hatkit_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    group_cls = sys.modules["hatkit.perm"].GroupByGenerators
    original = group_cls.elements
    group_cls.elements = _traced_elements(original, tracer)
    undo.append((group_cls, "elements", original))

    def remove():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return remove
