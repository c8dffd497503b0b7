"""Spans for the traced run.

A span is [name, start, end, parent index, op id, info].  The benchmark opens
spans around its own calls into the library, and `Tracer.patched()` wraps the
library functions that other layers call, at the module attribute where the
caller looks them up.  Spans stay in memory; `layer_metrics` turns them into
the per-layer numbers and `write` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import time
from collections import defaultdict

_NOW = time.perf_counter

def _wrap_info(result):
    # read defensively: ROADMAP plans to delete WrapResult.fills
    return getattr(result, "placed", 0), len(getattr(result, "fills", ()))


# (module, attribute, span name, info taken from the result).  Each entry is
# a call site between two layers; a missing attribute is skipped, so its
# metrics read 0.
PATCHES = (
    ("search", "lower_bound_tmin", "core.lower_bound", None),
    ("preemptive", "lower_bound_tmin", "core.lower_bound", None),
    ("nonpreemptive", "lower_bound_tmin", "core.lower_bound", None),
    ("preemptive", "classify", "core.classify", None),
    ("splittable", "run_wrap", "wrap.run_wrap", _wrap_info),
    ("preemptive", "run_wrap", "wrap.run_wrap", _wrap_info),
    ("splittable", "dual_split", "splittable.dual", lambda r: r.accepted),
    ("preemptive", "dual_pmtn", "preemptive.dual", lambda r: r.accepted),
    ("nonpreemptive", "dual_nonp", "nonpreemptive.dual", lambda r: r.accepted),
    ("preemptive", "continuous_knapsack", "preemptive.knapsack", None),
)

SEARCH_MODULES = ("splittable", "preemptive", "nonpreemptive")


class _NullSpan:
    info = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __setattr__(self, name, value):
        pass


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _span = _NullSpan()

    def begin_op(self):
        pass

    def span(self, name):
        return self._span


class _Span:
    __slots__ = ("rec", "tracer")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, -1, tracer.op, None]

    @property
    def info(self):
        return self.rec[5]

    @info.setter
    def info(self, value):
        self.rec[5] = value

    def __enter__(self):
        t = self.tracer
        rec = self.rec
        rec[3] = t.stack[-1] if t.stack else -1
        t.stack.append(len(t.spans))
        t.spans.append(rec)
        rec[1] = _NOW()
        return self

    def __exit__(self, *exc):
        self.rec[2] = _NOW()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    def begin_op(self):
        self.op += 1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if info is not None:
                    sp.info = info(result)
            return result

        return traced

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = _NOW()
        else:
            self.gc_collections += 1
            self.gc_pause_s += _NOW() - self._gc_start

    @contextlib.contextmanager
    def patched(self):
        """Wrap the cross-layer call sites of PATCHES and count collector
        pauses; everything is restored on exit."""
        saved = []
        for mod_name, attr, name, info in PATCHES:
            mod = importlib.import_module("batchsched." + mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: str):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _under_search(spans, idx) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if ".search." in spans[parent][0]:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Raw per-layer sums over all spans: calls, inclusive seconds, self
    seconds and the counts carried in span info."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    t: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent, _op, info) in enumerate(spans):
        dur = end - start
        t[name + ".calls"] += 1
        t[name + ".s"] += dur
        t[name + ".self_s"] += dur - child[idx]
        if info is None:  # no info, or the call raised
            continue
        if name == "wrap.run_wrap":
            t["wrap.placed"] += info[0]
            t["wrap.fills"] += info[1]
        elif name.endswith(".dual") and info:
            t[name + ".accepts"] += 1
            if _under_search(spans, idx):
                t["search.builds"] += 1
        elif ".search." in name:
            t[name + ".probes"] += info
        elif name in ("core.verify", "cli.dumps"):
            t[name + ".count"] += info
    t["py.gc_collections"] = tracer.gc_collections
    t["py.gc_pause_s"] = tracer.gc_pause_s
    return t


def _searches(t, mod, field):
    return sum(t.get(f"{mod}.search.{algo}.{field}", 0.0) for algo in ("jump", "eps"))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


CLI_SPANS = ("cli.emit", "cli.dumps", "cli.loads", "cli.parse_schedule")


def layer_metrics(t: dict[str, float], cases: int, quarter: dict[str, float],
                  quarter_cases: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per case run (one instance with all its
    solves and verifies), plus growth ratios against the quarter-size pass."""

    def g(key):
        return t.get(key, 0.0) / cases

    def q(key):
        return quarter.get(key, 0.0) / quarter_cases

    out = {
        "core.parse_instance_s": g("core.parse_instance.s"),
        "core.lower_bound_calls": g("core.lower_bound.calls"),
        "core.classify_calls": g("core.classify.calls"),
        "core.classify_s": g("core.classify.s"),
        "core.verify_calls": g("core.verify.calls"),
        "core.verify_s": g("core.verify.s"),
        "core.verify_placements": g("core.verify.count"),
        "core.verify_us_per_placement": 1e6 * _ratio(t.get("core.verify.s", 0.0),
                                                     t.get("core.verify.count", 0.0)),
        "core.verify_growth_4x": _ratio(g("core.verify.s"), q("core.verify.s")),
        "wrap.run_wrap_calls": g("wrap.run_wrap.calls"),
        "wrap.run_wrap_s": g("wrap.run_wrap.s"),
        "wrap.placed": g("wrap.placed"),
        "wrap.fills": g("wrap.fills"),
        "wrap.fills_per_placed": _ratio(t.get("wrap.fills", 0.0), t.get("wrap.placed", 0.0)),
        "wrap.growth_4x": _ratio(g("wrap.run_wrap.s"), q("wrap.run_wrap.s")),
    }
    for mod in SEARCH_MODULES:
        out.update({
            f"{mod}.search_s": _searches(t, mod, "s") / cases,
            f"{mod}.probes": _searches(t, mod, "probes") / cases,
            f"{mod}.dual_calls": g(f"{mod}.dual.calls"),
            f"{mod}.dual_accepts": g(f"{mod}.dual.accepts"),
            f"{mod}.dual_s": g(f"{mod}.dual.s"),
            f"{mod}.decide_s": _searches(t, mod, "self_s") / cases,
            f"{mod}.two_approx_s": g(f"{mod}.two_approx.s"),
            f"{mod}.dual_growth_4x": _ratio(g(f"{mod}.dual.s"), q(f"{mod}.dual.s")),
        })
    eps_searches = sum(t.get(f"{mod}.search.eps.calls", 0.0) for mod in SEARCH_MODULES)
    all_searches = eps_searches + sum(
        t.get(f"{mod}.search.jump.calls", 0.0) for mod in SEARCH_MODULES
    )
    cli_s = sum(t.get(name + ".s", 0.0) for name in CLI_SPANS)
    cli_q = sum(quarter.get(name + ".s", 0.0) for name in CLI_SPANS)
    out.update({
        "preemptive.knapsack_calls": g("preemptive.knapsack.calls"),
        "preemptive.knapsack_s": g("preemptive.knapsack.s"),
        "search.eps_s": sum(g(f"{mod}.search.eps.s") for mod in SEARCH_MODULES),
        "search.eps_probes": sum(g(f"{mod}.search.eps.probes") for mod in SEARCH_MODULES),
        "search.builds": g("search.builds"),
        "search.build_use_ratio": _ratio(all_searches, t.get("search.builds", 0.0)),
        "cli.emit_s": g("cli.emit.s"),
        "cli.dumps_s": g("cli.dumps.s"),
        "cli.loads_s": g("cli.loads.s"),
        "cli.parse_schedule_s": g("cli.parse_schedule.s"),
        "cli.out_bytes": g("cli.dumps.count"),
        "cli.growth_4x": _ratio(cli_s / cases, cli_q / quarter_cases),
        "py.gc_collections": g("py.gc_collections"),
        "py.gc_pause_s": g("py.gc_pause_s"),
    })
    return out
