"""Spans at covrad's module boundaries, recorded from outside the program.

The tracer replaces module attributes (for example `covrad._sweeps.
profile_sweep`) with wrappers that record a span per call: name, start, end,
parent span, the job it belongs to, CPU time of the process and of its
reaped children, and a few counts read from the arguments and the return
value.  Every covrad module that imported the same function object gets the
wrapper too, so calls through `covrad.deep_holes` and `covrad.dist.
deep_holes` are both seen.  All originals are restored on exit.

A layer whose attribute no longer exists is reported as absent, not as an
error.  Sweep workers started by the process pool inherit the wrappers, but
their spans stay in the worker; the parent sees worker work only as the
children CPU time charged to `run_sweep` spans.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import resource
import sys
import time
from dataclasses import dataclass, field

BFS_LEVELS = 6  # weights 0..5 cover every BFS run by the workloads


def _ops_observe(tracer, bound, result):
    new = not any(result is seen for seen in tracer.kept)
    if new:
        tracer.kept.append(result)
    return {"new": int(new),
            "bytes": sum(a.nbytes for a in result) if new else 0}


def _driver_observe(tracer, bound, result):
    subsets = math.comb(len(bound.arguments["D"]), bound.arguments["k"])
    return {"cosets": result.cosets, "products": result.cosets * subsets,
            "candidates": len(result.candidates),
            "truncated": int(result.truncated),
            "pooled": int(bound.arguments.get("threads", 1) > 1)}


def _bfs_observe(tracer, bound, result):
    return {"words": result.words_examined,
            "levels": list(result.level_counts)}


def _deep_holes_observe(tracer, bound, result):
    return {"reps": result.count}


# (module, attribute, span name, observer).  The span name is the layer the
# per-layer metrics are named after.
LAYERS = (
    ("gf", "field_for_size", "gf.field", None),
    ("code", "rs_code", "code.construct", None),
    ("code", "prs_code", "code.construct", None),
    ("code", "glynn_code", "code.construct", None),
    ("_sweeps", "subset_ops", "sweeps.ops_build", _ops_observe),
    ("_sweeps", "_tail_values_digits", "sweeps.tails", None),
    ("_sweeps", "profile_sweep", "sweeps.kernel", None),
    ("_sweeps", "measured_floor", "sweeps.floor", None),
    ("_sweeps", "run_sweep", "sweeps.driver", _driver_observe),
    ("_sweeps", "syndrome_bfs", "sweeps.bfs", _bfs_observe),
    ("dist", "_mds_stack", "dist.mds_stack", _ops_observe),
    ("dist", "error_distance_mds", "dist.decode", None),
    ("dist", "deep_holes", "dist.deep_holes", _deep_holes_observe),
)

# Layers whose counts the correctness gate reads, so they are wrapped even
# with tracing off.  Untraced, the wrapper only keeps the observed counts:
# it takes no clock or resource readings and records no span.
GATE_LAYERS = ("sweeps.bfs",)


@dataclass
class Span:
    name: str
    job: str
    start: float
    end: float
    parent: int | None
    cpu_self: float = 0.0
    cpu_children: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _cpu():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


class Tracer:
    """Records spans while `active`; see the module docstring."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.active = False
        self.job = ""
        self.spans: list[Span] = []
        self.seen: dict[str, list] = {}  # counts observed during the job
        self.absent: list[str] = []
        self.kept: list = []             # operator stacks already returned
        self._stack: list[int] = []

    def take_seen(self) -> dict:
        seen, self.seen = self.seen, {}
        return seen

    def _wrap(self, name, orig, observe):
        sig = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if not tracer.timing:
                result = orig(*args, **kwargs)
                tracer.seen.setdefault(name, []).append(
                    observe(tracer, sig.bind(*args, **kwargs), result))
                return result
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            cpu0 = _cpu()
            span = Span(name, tracer.job, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                cpu1 = _cpu()
                tracer._stack.pop()
                span.cpu_self = cpu1[0] - cpu0[0]
                span.cpu_children = cpu1[1] - cpu0[1]
            if observe is not None:
                span.counts = observe(tracer, sig.bind(*args, **kwargs),
                                      result)
                tracer.seen.setdefault(name, []).append(span.counts)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextlib.contextmanager
    def installed(self, cv):
        """Wrap the layer boundaries of the imported covrad package `cv`."""
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == cv.__name__
                                         or n.startswith(cv.__name__ + "."))]
        try:
            for modname, attr, name, observe in LAYERS:
                if not self.timing and name not in GATE_LAYERS:
                    continue
                orig = getattr(getattr(cv, modname, None), attr, None)
                if orig is None:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(name, orig, observe)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, orig))
            self.active = True
            yield self
        finally:
            self.active = False
            for mod, key, orig in reversed(patched):
                setattr(mod, key, orig)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out


def uncovered(spans: list[Span], start: float, end: float) -> float:
    """Time in [start, end] inside no top-level span (top-level spans of one
    process never overlap, so their overlaps add)."""
    covered = sum(max(0.0, min(s.end, end) - max(s.start, start))
                  for s in spans if s.parent is None)
    return (end - start) - covered


def layer_metrics(spans: list[Span], start: float, end: float) -> dict:
    """Per-layer metrics of one traced pass whose timed region is
    [start, end].  Layers that did not run read 0."""
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    slf: dict[str, float] = {}
    calls: dict[str, int] = {}
    tot: dict[str, float] = {}
    levels = [0] * BFS_LEVELS
    marked = 0
    worker_cpu = pooled_cpu = pooled_wall = 0.0
    for s, st in zip(spans, selfs):
        dur[s.name] = dur.get(s.name, 0.0) + s.dur
        slf[s.name] = slf.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, val in s.counts.items():
            if key == "levels":
                for w, c in enumerate(val[:BFS_LEVELS]):
                    levels[w] += c
                marked += sum(val)
            else:
                tot[f"{s.name}.{key}"] = tot.get(f"{s.name}.{key}", 0) + val
        if s.name == "sweeps.driver":
            worker_cpu += s.cpu_children
            if s.counts.get("pooled"):  # busy cores of pooled sweeps only
                pooled_cpu += s.cpu_self + s.cpu_children
                pooled_wall += s.dur

    def ratio(num, den):
        return num / den if den else 0.0

    ops_calls = calls.get("sweeps.ops_build", 0)
    ops_builds = tot.get("sweeps.ops_build.new", 0)
    kernel_self = slf.get("sweeps.kernel", 0.0)
    products = tot.get("sweeps.driver.products", 0)
    bfs_s = dur.get("sweeps.bfs", 0.0)
    bfs_words = tot.get("sweeps.bfs.words", 0)
    decode_calls = calls.get("dist.decode", 0)
    m = {
        "gf.field_s": dur.get("gf.field", 0.0),
        "code.construct_s": dur.get("code.construct", 0.0),
        "sweeps.ops_build_s": dur.get("sweeps.ops_build", 0.0),
        "sweeps.ops_builds": ops_builds,
        "sweeps.ops_cache_hit_ratio": ratio(ops_calls - ops_builds, ops_calls),
        "sweeps.ops_bytes": tot.get("sweeps.ops_build.bytes", 0),
        "dist.mds_stack_s": dur.get("dist.mds_stack", 0.0),
        "dist.mds_stack_bytes": tot.get("dist.mds_stack.bytes", 0),
        "dist.decode_calls": decode_calls,
        "dist.decode_self_s": slf.get("dist.decode", 0.0),
        "dist.decode_ms_per_call":
            ratio(slf.get("dist.decode", 0.0) * 1e3, decode_calls),
        "sweeps.tails_s": dur.get("sweeps.tails", 0.0),
        "sweeps.cosets": tot.get("sweeps.driver.cosets", 0),
        "sweeps.kernel_self_s": kernel_self,
        "sweeps.row_subset_products": products,
        "sweeps.kernel_rate": ratio(products, kernel_self + worker_cpu),
        "sweeps.floor_s": dur.get("sweeps.floor", 0.0),
        "sweeps.candidates": tot.get("sweeps.driver.candidates", 0),
        "sweeps.truncated": tot.get("sweeps.driver.truncated", 0),
        "dist.deep_holes_post_s": slf.get("dist.deep_holes", 0.0),
        "dist.deep_hole_reps": tot.get("dist.deep_holes.reps", 0),
        "sweeps.driver_self_s": slf.get("sweeps.driver", 0.0),
        "sweeps.worker_cpu_s": worker_cpu,
        "sweeps.busy_cores": ratio(pooled_cpu, pooled_wall),
        "sweeps.bfs_s": bfs_s,
        "sweeps.bfs_words": bfs_words,
    }
    for w, c in enumerate(levels):
        m[f"sweeps.bfs_level.{w}"] = c
    m["sweeps.bfs_yield"] = ratio(marked, bfs_words)
    m["sweeps.bfs_words_per_s"] = ratio(bfs_words, bfs_s)
    m["trace.other_s"] = uncovered(spans, start, end)
    return m


def span_table(spans: list[Span]) -> list[dict]:
    """Calls, total and self seconds per (job, span name), for the printed
    report; set-up spans belong to no job."""
    out: dict[tuple, list] = {}
    for s, st in zip(spans, self_times(spans)):
        row = out.setdefault((s.job or "setup", s.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.dur
        row[2] += st
    return [{"job": job, "span": name, "calls": c, "total_s": t, "self_s": st}
            for (job, name), (c, t, st) in out.items()]
