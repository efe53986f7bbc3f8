"""Per-layer tracing for the floordiag benchmark.

The tracer rebinds, inside the benchmark process only, the public functions
of each floordiag module under every name a floordiag module sees them by
(`from .x import y` binds a second name, so each binding is replaced).  A
wrapped call records one span: name, start, end, parent and the trace id of
the workload call that caused it.  Laurent arithmetic is too fine-grained
for spans, so `LaurentPoly` operations are aggregated as counts and time;
that time is charged to the enclosing span as child time, so every span's
self time excludes it.

Self time of a span = its duration minus the durations of its child spans
and of the Laurent operations called directly inside it.  The per-layer
metrics are sums of self times and counts over one pass of a workload.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# Span name -> layer, for the split table.  Names not listed fall under
# their prefix before the first dot.
LAYER_OF = {
    "diagram.enumerate_pool": "cli",
    "invariant.shape_term": "invariant",
}

LAURENT_KINDS = ("mul", "add", "div")


class Tracer:
    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trace = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []  # [span index, name id, start, child time]
        self.trace_id = 0
        self.enumerate_opens = 0
        self._in_laurent = False
        self._undo: List[Tuple[object, str, object]] = []
        # per-pass sums; cleared in place because the wrappers hold them
        self.self_s: Dict[int, float] = defaultdict(float)
        self.entries: Counter = Counter()
        self.counts: Counter = Counter()
        self.laurent_s: Dict[str, float] = defaultdict(float)
        self.hit_s = 0.0
        self.top_level_s = 0.0

    def reset(self) -> None:
        """Start a new pass: clear the per-pass sums (spans are kept)."""
        for sums in (self.self_s, self.entries, self.counts, self.laurent_s):
            sums.clear()
        self.hit_s = 0.0
        self.top_level_s = 0.0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_trace.append(self.trace_id)
        self.span_end.append(0.0)
        if not stack or stack[-1][1] != nid:
            self.entries[nid] += 1
        t = perf_counter()
        self.span_start.append(t)
        stack.append([idx, nid, t, 0.0])
        return idx

    def close(self) -> float:
        t = perf_counter()
        idx, nid, start, child = self._stack.pop()
        dur = t - start
        self.span_end[idx] = t
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.top_level_s += dur
        return dur

    def span(self, name: str, fn: Callable, on_result=None) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def laurent_op(self, kind: str, fn: Callable, count_terms: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, b):
            if self._in_laurent:
                return fn(a, b)
            self._in_laurent = True
            t = perf_counter()
            try:
                result = fn(a, b)
            finally:
                dt = perf_counter() - t
                self._in_laurent = False
            self.laurent_s[kind] += dt
            self.counts["laurent.%s_calls" % kind] += 1
            if count_terms:
                self.counts["laurent.mul_terms"] += _terms(a) * _terms(b)
            if self._stack:
                self._stack[-1][3] += dt
            else:
                self.top_level_s += dt
            return result

        return wrapper

    # -- installing and removing the wrappers -----------------------------

    def rebind(self, original: Callable, replacement: Callable) -> None:
        """Replace `original` under every name a floordiag module binds it to."""
        found = False
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("floordiag") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    found = True
        if not found:
            raise RuntimeError("no floordiag module binds %r" % original)

    def set_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """All spans recorded in this process, as gzipped column arrays."""
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "trace": self.span_trace.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


def _terms(p) -> int:
    coeffs = getattr(p, "_c", None)
    return len(coeffs) if coeffs is not None else len(p.key())


def _jobs(args, kwargs) -> int:
    return kwargs.get("jobs", args[3] if len(args) > 3 else 1)


def install(tracer: Tracer, fd) -> None:
    """Wrap every layer boundary of the floordiag modules in `fd`."""
    diagram, marking, laurent = fd.diagram, fd.marking, fd.laurent
    invariant, coeff, polyfit, templates, cli = (
        fd.invariant, fd.coeff, fd.polyfit, fd.templates, fd.cli)
    counts = tracer.counts

    def count_len(key):
        def hook(result):
            counts[key] += len(result)
        return hook

    # diagram
    tracer.rebind(diagram.run_enumeration_task, tracer.span(
        "diagram.sweep", diagram.run_enumeration_task, count_len("diagram.labelled")))
    plain = tracer.name_id("diagram.enumerate")
    pooled = tracer.name_id("diagram.enumerate_pool")
    enumerate_fn = diagram.enumerate_floor_diagrams

    @functools.wraps(enumerate_fn)
    def enumerate_wrapper(*args, **kwargs):
        tracer.enumerate_opens += 1
        tracer.open(pooled if _jobs(args, kwargs) > 1 else plain)
        try:
            result = enumerate_fn(*args, **kwargs)
        finally:
            tracer.close()
        counts["diagram.classes"] += len(result)
        return result

    tracer.rebind(enumerate_fn, enumerate_wrapper)
    for fn in (diagram.canonical_key, diagram.canonical_form):
        tracer.rebind(fn, tracer.span("diagram.canon", fn))
    tracer.rebind(diagram.vertex_automorphisms,
                  tracer.span("diagram.auts", diagram.vertex_automorphisms))
    tracer.rebind(diagram.mult, tracer.span("diagram.mult", diagram.mult))
    shape_sum = diagram.codegree_coefficient_sum
    shape_span = tracer.name_id("diagram.shape_sum")

    @functools.wraps(shape_sum)
    def shape_sum_wrapper(polygon, genus, i, shape_term):
        tracer.open(shape_span)
        try:
            return shape_sum(polygon, genus, i, tracer.span(
                "invariant.shape_term", shape_term, _count_one(counts, "diagram.shapes")))
        finally:
            tracer.close()

    tracer.rebind(shape_sum, shape_sum_wrapper)

    # marking
    for fn in (marking.count_markings, marking.count_reduced_extensions):
        tracer.rebind(fn, tracer.span("marking.count", fn))
    tracer.rebind(marking.enumerate_markings, tracer.span(
        "marking.enum", marking.enumerate_markings, count_len("marking.markings")))

    def mu_hook(result):
        if not result.is_zero():
            counts["marking.mu_nonzero"] += 1

    tracer.rebind(marking.mu_S, tracer.span("marking.mu", marking.mu_S, mu_hook))

    # laurent
    poly = laurent.LaurentPoly
    tracer.set_attr(poly, "__mul__", tracer.laurent_op("mul", poly.__mul__, True))
    tracer.set_attr(poly, "__add__", tracer.laurent_op("add", poly.__add__))
    tracer.set_attr(poly, "__sub__", tracer.laurent_op("add", poly.__sub__))
    tracer.rebind(laurent.divide_exact, tracer.laurent_op("div", laurent.divide_exact))

    # invariant: a refined_* call that never reaches the enumeration is a hit
    for fn in (invariant.refined_invariant, invariant.refined_descendant):
        tracer.rebind(fn, _cached_call(tracer, fn))
    for fn in (invariant.descendant_codegree_coeff, invariant.invariant_codegree_coeff,
               invariant.verify_monotonicity, invariant.verify_recursion,
               invariant.verify_pairing_independence, invariant.marked_class_table):
        tracer.rebind(fn, tracer.span("invariant.call", fn))

    # coeff, polyfit, templates, cli
    tracer.rebind(coeff.coeff_closed_form,
                  tracer.span("coeff.closed_form", coeff.coeff_closed_form))
    tracer.rebind(coeff.coeff_product_of_squares,
                  tracer.span("coeff.squares", coeff.coeff_product_of_squares))
    fit = polyfit.verify_polynomiality
    fit_span = tracer.name_id("polyfit.fit")

    @functools.wraps(fit)
    def fit_wrapper(sampler, *args, **kwargs):
        @functools.wraps(sampler)
        def counted(*a, **kw):
            counts["polyfit.points"] += 1
            return sampler(*a, **kw)

        tracer.open(fit_span)
        try:
            return fit(counted, *args, **kwargs)
        finally:
            tracer.close()

    tracer.rebind(fit, fit_wrapper)
    for fn in (templates.enumerate_templates, templates.template_census,
               templates.verify_bijection, templates.enumerate_capping_trees):
        tracer.rebind(fn, tracer.span("templates.call", fn))
    tracer.rebind(cli.main, tracer.span("cli.main", cli.main))


def _count_one(counts: Counter, key: str):
    def hook(result):
        counts[key] += 1
    return hook


def _cached_call(tracer: Tracer, fn: Callable) -> Callable:
    nid = tracer.name_id("invariant.refined")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.enumerate_opens
        tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.close()
        if tracer.enumerate_opens == before:
            tracer.counts["invariant.cache_hits"] += 1
            tracer.hit_s += dur
        else:
            tracer.counts["invariant.cache_misses"] += 1
        return result

    return wrapper


def layer_metrics(tracer: Tracer, wall_s: float, cache_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of the pass just traced."""
    s = defaultdict(float, {name: tracer.self_s[nid] for name, nid in tracer._ids.items()})
    e = Counter({name: tracer.entries[nid] for name, nid in tracer._ids.items()})
    c = tracer.counts
    lau = tracer.laurent_s
    m: Dict[str, float] = {
        "diagram.sweep_s": s["diagram.sweep"],
        "diagram.sweep_calls": e["diagram.sweep"],
        "diagram.labelled": c["diagram.labelled"],
        "diagram.classes": c["diagram.classes"],
        "diagram.class_ratio": _ratio(c["diagram.classes"], c["diagram.labelled"]),
        "diagram.canon_s": s["diagram.canon"],
        "diagram.canon_calls": e["diagram.canon"],
        "diagram.auts_s": s["diagram.auts"],
        "diagram.auts_calls": e["diagram.auts"],
        "diagram.shape_sum_s": s["diagram.shape_sum"],
        "diagram.shapes": c["diagram.shapes"],
        "diagram.mult_s": s["diagram.mult"],
        "diagram.dedupe_s": s["diagram.enumerate"],
        "marking.count_s": s["marking.count"],
        "marking.count_calls": e["marking.count"],
        "marking.enum_s": s["marking.enum"],
        "marking.markings": c["marking.markings"],
        "marking.mu_s": s["marking.mu"],
        "marking.mu_calls": e["marking.mu"],
        "marking.mu_nonzero_ratio": _ratio(c["marking.mu_nonzero"], e["marking.mu"]),
        "laurent.mul_calls": c["laurent.mul_calls"],
        "laurent.mul_s": lau["mul"],
        "laurent.mul_terms": c["laurent.mul_terms"],
        "laurent.add_calls": c["laurent.add_calls"],
        "laurent.div_calls": c["laurent.div_calls"],
        "laurent.s": sum(lau[k] for k in LAURENT_KINDS),
        "invariant.self_s": (s["invariant.refined"] + s["invariant.call"]
                             + s["invariant.shape_term"]),
        "invariant.cache_hits": c["invariant.cache_hits"],
        "invariant.cache_misses": c["invariant.cache_misses"],
        "invariant.hit_s": tracer.hit_s,
        "invariant.cache_bytes": cache_bytes,
        "coeff.closed_form_s": s["coeff.closed_form"],
        "coeff.closed_form_calls": e["coeff.closed_form"],
        "coeff.squares_s": s["coeff.squares"],
        "coeff.squares_calls": e["coeff.squares"],
        "polyfit.fit_s": s["polyfit.fit"],
        "polyfit.points": c["polyfit.points"],
        "templates.s": s["templates.call"],
        "cli.self_s": s["cli.main"],
        "cli.pool_wait_s": s["diagram.enumerate_pool"],
        "trace.wall_s": wall_s,
        "trace.harness_s": wall_s - tracer.top_level_s,
    }
    m["diagram.s"] = sum(v for k, v in m.items()
                         if k.startswith("diagram.") and k.endswith("_s"))
    m["marking.s"] = m["marking.count_s"] + m["marking.enum_s"] + m["marking.mu_s"]
    return m


def layer_split(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Share of the traced pass wall time spent in each layer's own code."""
    split: Dict[str, float] = defaultdict(float)
    for name, nid in tracer._ids.items():
        layer = LAYER_OF.get(name, name.split(".")[0])
        split[layer] += tracer.self_s[nid]
    split["laurent"] += sum(tracer.laurent_s[k] for k in LAURENT_KINDS)
    split["harness"] += wall_s - tracer.top_level_s
    return {k: v / wall_s for k, v in sorted(split.items(), key=lambda kv: -kv[1])}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts that must repeat exactly between traced passes and runs of one seed.
WORK_COUNTS = (
    "diagram.sweep_calls", "diagram.labelled", "diagram.classes",
    "diagram.canon_calls", "diagram.auts_calls", "diagram.shapes",
    "marking.count_calls", "marking.markings", "marking.mu_calls",
    "laurent.mul_calls", "laurent.mul_terms", "laurent.add_calls",
    "laurent.div_calls", "invariant.cache_hits", "invariant.cache_misses",
    "invariant.cache_bytes", "coeff.closed_form_calls", "coeff.squares_calls",
    "polyfit.points",
)
