"""Spans recorded from outside nlie, and the self-time arithmetic on them.

A traced run replaces public functions of nlie's modules, as module
attributes, by wrappers that record a span per call.  A span is
[name, start, end, parent, item, info]: `parent` is the index of the
enclosing span (None for a root), `item` names the benchmark item the span
belongs to, and `info` holds counts read off the call's result.  Spans are
kept in memory and written out when the run ends.

Only calls made through a module attribute are seen: `rewrite` imports
`canonicalize` and `is_basic` by name, so their calls inside `collect` are
`collect`'s own time.  A wrapper records nothing outside a root span (so
the benchmark's own checks are never counted), and a direct recursive call
of the same function stays inside its outer span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

ROOT_LAYER = "bench"

# Public functions wrapped per module: those the workloads reach through a
# module attribute.
WRAPPED = {
    "terms": ("parse", "format_term", "lc_format"),
    "basis": ("enumerate_basic", "count_by_enumeration"),
    "rewrite": ("collect",),
    "counting": ("count_by_method", "lie_expansion"),
    "oracle": ("graded_monomials", "relation_rows", "graded_dimension", "membership"),
    "cli": ("cmd_count", "cmd_enumerate", "cmd_rewrite", "cmd_table", "cmd_compare"),
}


def _collect_info(result):
    _, trace = result
    peak = max((max(b, a) for _, _, b, a in trace.steps), default=1)
    return {"steps": len(trace.steps), "capped": int(trace.capped), "peak_work": peak}


# Counts read off a call's result.
COUNTERS = {
    "oracle.graded_monomials": lambda r: {"monomials": len(r.monomials)},
    "oracle.relation_rows": lambda r: {"rows": len(r.rows)},
    "oracle.graded_dimension": lambda r: {"dim": r},
    "rewrite.collect": _collect_info,
    "basis.enumerate_basic": lambda r: {"enumerated": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, item) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, item, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, item):
        """A root span: the benchmark's own time around one item."""
        idx = self._open(f"{ROOT_LAYER}.{name}", item)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack or self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self._open(name, self.spans[self._stack[-1]][4])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(result)
            return result

        return traced

    @contextmanager
    def wrapped(self, modules=tuple(WRAPPED)):
        """Install the wrappers on the named nlie modules; restore on exit."""
        saved = []
        try:
            for mod_name in modules:
                mod = importlib.import_module(f"nlie.{mod_name}")
                for attr in WRAPPED[mod_name]:
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrapper(f"{mod_name}.{attr}", fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans of one thread nest, so children never overlap."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans) -> dict:
    """Self time per layer, plus the traced wall time (sum of root spans).
    The root layer's self time is the time no nlie layer accounts for."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s[0])
        totals[layer] = totals.get(layer, 0.0) + t
    wall = sum(s[2] - s[1] for s in spans if s[3] is None)
    return {"layers": totals, "wall_s": wall, "unattributed_s": totals.get(ROOT_LAYER, 0.0)}


def layer_busy(spans) -> dict:
    """Time each layer was busy: the durations of its spans that were not
    called from the same layer (callees in other layers included)."""
    busy: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s[0])
        if s[3] is None or layer_of(spans[s[3]][0]) != layer:
            busy[layer] = busy.get(layer, 0.0) + s[2] - s[1]
    return busy


def by_name(spans, name: str):
    return [s for s in spans if s[0] == name]


def total(spans, name: str) -> float:
    return sum(s[2] - s[1] for s in by_name(spans, name))


def info_sum(spans, name: str, key: str):
    return sum(s[5][key] for s in by_name(spans, name) if s[5])


def merge(span_lists) -> list:
    """Concatenate span lists recorded separately, fixing parent indices."""
    out: list = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            out.append([s[0], s[1], s[2], None if s[3] is None else s[3] + base, s[4], s[5]])
    return out
