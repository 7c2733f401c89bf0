"""Spans around the calls into each ordmet layer, recorded from outside.

:class:`Tracer` wraps the public functions of each layer (plus the two
private kernels the ROADMAP names as layers) in every ``ordmet`` module
that holds a reference to them, records one span per call, and restores
the originals on :meth:`Tracer.remove`.  Nothing under ``src/`` changes.

A span is (name, start, end, parent index, request id).  Spans stay in
memory until :meth:`Tracer.write`.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

ROOT = -1  # parent index of an op span

# (span name, module, attribute path, kind); kind "gen" marks a function
# that returns a generator, timed once per resumption.
TARGETS = [
    ("fraisse.check", "ordmet.fraisse", "check_fraisse_properties", "call"),
    ("fraisse.matrices", "ordmet.fraisse", "_valid_matrices", "call"),
    ("fraisse.ap_kernel", "ordmet.fraisse", "_ap_batch_failure", "call"),
    ("amalgam.amalgamate", "ordmet.amalgam", "amalgamate", "call"),
    ("amalgam.feasibility", "ordmet.amalgam", "feasibility_violation", "call"),
    ("limit.grow", "ordmet.limit", "LimitBuilder.grow", "call"),
    ("limit.realize", "ordmet.limit", "LimitBuilder.realize", "call"),
    ("limit.extend", "ordmet.limit", "LimitBuilder.back_and_forth_extend", "call"),
    ("limit.image_search", "ordmet.limit", "LimitBuilder._find_or_realize_image", "call"),
    ("spaces.validate", "ordmet.spaces", "validate", "call"),
    ("spaces.embed", "ordmet.spaces", "enumerate_embeddings", "gen"),
    ("spacefile.parse", "ordmet.spacefile", "parse_space", "call"),
    ("spacefile.serialize", "ordmet.spacefile", "serialize_space", "call"),
    ("orbits.same_fix_orbit", "ordmet.orbits", "same_fix_orbit", "call"),
    ("orbits.orbit_traces", "ordmet.orbits", "orbit_traces", "call"),
    ("witness.build", "ordmet.witness", "build_witness", "call"),
    ("witness.verify", "ordmet.witness", "verify_injection", "call"),
    ("witness.exhaust", "ordmet.witness", "exhaust_all_traces", "call"),
]

# Per-layer busy-time metrics: (metric, self-time twin, span names summed).
TIMES = [
    ("fraisse.vector_s", "fraisse.vector_self_s", ["fraisse.vector"]),
    ("fraisse.direct_s", "fraisse.direct_self_s", ["fraisse.direct"]),
    ("fraisse.matrices_s", "fraisse.matrices_self_s", ["fraisse.matrices"]),
    ("fraisse.ap_kernel_s", "fraisse.ap_kernel_self_s", ["fraisse.ap_kernel"]),
    ("amalgam.amalgamate_s", "amalgam.amalgamate_self_s", ["amalgam.amalgamate"]),
    ("amalgam.feasibility_s", "amalgam.feasibility_self_s", ["amalgam.feasibility"]),
    ("limit.grow_s", "limit.grow_self_s", ["limit.grow"]),
    ("limit.realize_s", "limit.realize_self_s", ["limit.realize"]),
    ("limit.extend_s", "limit.extend_self_s", ["limit.extend"]),
    ("limit.image_search_s", "limit.image_search_self_s", ["limit.image_search"]),
    ("spaces.validate_s", "spaces.validate_self_s", ["spaces.validate"]),
    ("spaces.embed_s", "spaces.embed_self_s", ["spaces.embed"]),
    ("spacefile.parse_s", "spacefile.parse_self_s", ["spacefile.parse"]),
    ("spacefile.serialize_s", "spacefile.serialize_self_s", ["spacefile.serialize"]),
    ("orbits.s", "orbits.self_s", ["orbits.same_fix_orbit", "orbits.orbit_traces"]),
    ("witness.build_s", "witness.build_self_s", ["witness.build"]),
    ("witness.verify_s", "witness.verify_self_s", ["witness.verify"]),
    ("witness.exhaust_s", "witness.exhaust_self_s", ["witness.exhaust"]),
]

# Call-count metrics: (metric, span names counted).
CALLS = [
    ("amalgam.amalgamate_calls", ["amalgam.amalgamate"]),
    ("amalgam.feasibility_calls", ["amalgam.feasibility"]),
    ("limit.realize_calls", ["limit.realize"]),
    ("limit.extend_calls", ["limit.extend"]),
    ("spaces.validate_calls", ["spaces.validate"]),
    ("orbits.calls", ["orbits.same_fix_orbit", "orbits.orbit_traces"]),
    ("witness.verify_calls", ["witness.verify"]),
]

# Exact counts collected by the hooks below (or reported by an op).
COUNTS = [
    "fraisse.instances",
    "fraisse.ap_spans",
    "spaces.validate_triples",
    "spaces.embeddings",
    "spacefile.bytes",
    "orbits.traces_found",
    "witness.traces",
    "limit.stage_points",
]


# Metrics that must repeat exactly from pass to pass.
EXACT = {m for m, _ in CALLS} | set(COUNTS)


def _engine(args, kwargs) -> str:
    engine = kwargs.get("engine", args[2] if len(args) > 2 else "vector")
    return f"fraisse.{engine}"


def _fraisse_counts(args, kwargs, report) -> dict:
    counts = {
        "fraisse.instances": report.hp_checked + report.jep_checked + report.ap_checked,
        "fraisse.ap_spans": report.ap_checked,
    }
    if _engine(args, kwargs) == "fraisse.vector":
        counts["fraisse.vector_ap_spans"] = report.ap_checked
    return counts


# Exact counts taken at a layer boundary from its arguments or result.
HOOKS = {
    "fraisse.check": _fraisse_counts,
    "spaces.validate": lambda a, k, r: {"spaces.validate_triples": comb(len(a[0]), 3)},
    "spacefile.parse": lambda a, k, r: {"spacefile.bytes": len(a[0])},
    "spacefile.serialize": lambda a, k, r: {"spacefile.bytes": len(r)},
    "orbits.orbit_traces": lambda a, k, r: {"orbits.traces_found": len(r)},
    "witness.exhaust": lambda a, k, r: {"witness.traces": r.checked},
}


class Tracer:
    """Span recorder.  ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request id]
        self.stack: list[int] = []
        self.request = 0
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else ROOT
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        tracer, hook = self, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _engine(args, kwargs) if name == "fraisse.check" else name
            # a recursive call (back -> forth) stays inside the outer span
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == span:
                return fn(*args, **kwargs)
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                tracer.counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    index = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    tracer.counts["spaces.embeddings"] += 1
                    yield item

            return resumed()

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ordmet module bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ordmet" or n.startswith("ordmet."))]
        self.missing = []
        for name, module_name, path, kind in TARGETS:
            owner = sys.modules.get(module_name)
            owner_attr = path.split(".")
            for part in owner_attr[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, owner_attr[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = (self._wrap_gen if kind == "gen" else self._wrap_call)(name, original)
            if len(owner_attr) > 1:  # a method: patch the class once
                self._patch(owner, owner_attr[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def pass_metrics(spans: list[list], first: int, last: int, counts: dict, wall: float) -> dict:
    """Layer metrics of one traced pass from spans[first:last]."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * (last - first)
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        if parent != ROOT:
            child[parent - first] += end - start
    search_misses = set()
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - child[i - first]
        calls[name] = calls.get(name, 0) + 1
        if name == "limit.realize" and parent != ROOT and spans[parent][0] == "limit.image_search":
            search_misses.add(parent)

    out: dict[str, float] = {}
    layer_self = 0.0
    for metric, twin, names in TIMES:
        out[metric] = sum(total.get(n, 0.0) for n in names)
        out[twin] = sum(self_time.get(n, 0.0) for n in names)
        layer_self += out[twin]
    # time inside an op but outside every layer: parsing, formatting, glue
    out["ops.self_s"] = self_time.get("op", 0.0)
    for metric, names in CALLS:
        out[metric] = sum(calls.get(n, 0) for n in names)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    searches = calls.get("limit.image_search", 0)
    out["limit.image_hit_ratio"] = (searches - len(search_misses)) / searches if searches else 0.0
    vector_s = out["fraisse.vector_s"]
    out["fraisse.spans_per_s"] = counts.get("fraisse.vector_ap_spans", 0) / vector_s if vector_s else 0.0
    out["trace.layer_share"] = layer_self / wall if wall else 0.0
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each time and ratio over passes; counts from the first."""
    out = {}
    for key in per_pass[0]:
        if key in EXACT:
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for metric, twin, _ in TIMES:
        units[metric] = units[twin] = "s"
    units["ops.self_s"] = "s"
    for metric, _ in CALLS:
        units[metric] = "count"
    for metric in COUNTS:
        units[metric] = "B" if metric == "spacefile.bytes" else "count"
    units["fraisse.spans_per_s"] = "1/s"
    units["limit.image_hit_ratio"] = "ratio"
    units["trace.layer_share"] = "ratio"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units
