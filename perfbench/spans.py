"""Spans recorded around calls into filterlab, for the traced run.

Each public function is wrapped at the module attribute its callers resolve
(``filterlab.harness.simulate_trajectory`` rather than the definition in
``filterlab.periodic``), so the program runs unchanged and every call made
through that name opens a span. A span records its thread and its parent
span; self time is a span's duration minus the part of it that its child
spans cover, which stays correct when children run on the gap report's
worker threads.
"""

import functools
import importlib
import threading
import time
from dataclasses import dataclass

# (layer, module, attribute). A layer is named after the module that defines
# the function; an attribute missing from the module is skipped, so a name a
# later change removes reads as 0 calls.
TARGETS = (
    ("periodic.simulate_trajectory", "filterlab.harness", "simulate_trajectory"),
    ("harness.run_monte_carlo", "filterlab.harness", "run_monte_carlo"),
    ("harness.export_results", "filterlab.harness", "export_results"),
    ("gap.cmdf_dpre", "filterlab.gap", "cmdf_dpre"),
    ("gap.cmdf_error_dple", "filterlab.gap", "cmdf_error_dple"),
    ("gap.build_gap_report", "filterlab.gap", "build_gap_report"),
    ("spps.dpre_spps", "filterlab.gap", "dpre_spps"),
    ("spps.dple_spps", "filterlab.gap", "dple_spps"),
    ("spps.uniform_observability", "filterlab.gap", "uniform_observability"),
    ("spps.uniform_observability", "filterlab.cli", "uniform_observability"),
    ("filters.modified_sequences", "filterlab.gap", "modified_sequences"),
    ("filters.modified_sequences", "filterlab.cli", "modified_sequences"),
    ("cli.main", "filterlab.cli", "main"),
)


@dataclass(eq=False)
class Span:
    layer: str
    thread: int
    parent: "Span | None"
    start: float
    end: float = float("nan")
    # SppsSolution.iterations of the returned solution, when there is one.
    sweeps: int = 0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._root_thread = threading.get_ident()
        self._root_stack: list[Span] = []
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # A worker thread runs on behalf of the span the root thread has
        # open while it waits for the pool.
        return self._root_stack[-1] if self._root_stack else None

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, threading.get_ident(), self._parent(stack), 0.0)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.sweeps = getattr(result, "iterations", 0)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_totals(spans: list[Span]) -> dict:
    """Per layer: calls, busy seconds, self seconds, summed sweeps, and the
    summed duration of its direct children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    totals: dict[str, dict] = {}
    for span in spans:
        t = totals.setdefault(
            span.layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "sweeps": 0, "child_s": 0.0}
        )
        kids = children.get(id(span), [])
        duration = span.end - span.start
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - _covered(span, kids)
        t["sweeps"] += span.sweeps
        t["child_s"] += sum(k.end - k.start for k in kids)
    return totals


def layer_metric(totals: dict, name: str) -> float:
    """Value of a per-layer metric named ``<layer>.<kind>``."""
    layer, kind = name.rsplit(".", 1)
    t = totals.get(layer)
    if t is None:
        return 0
    if kind == "parallelism":
        return t["child_s"] / t["s"] if t["s"] > 0 else 0.0
    return t[kind]
