"""Spans and counts at the layer boundaries of levyint, recorded from outside.

The program carries no instrumentation.  :func:`install` replaces the
functions listed in ``TARGETS`` by timing wrappers, in every levyint module
namespace that binds them, because ``checks.py`` and ``cli.py`` import
names directly and evaluators are bound with ``functools.partial`` when an
integrand is built.  Install before the suite is built.

A span is (name, start, end, parent, pid).  Spans stay in memory and are
written once, by :meth:`Tracer.write`.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
of one process add up to the duration of its outermost spans.

With ``--parallelism`` the checks run in forked workers, which inherit the
wrappers.  The ``run_check`` wrapper then records the check in the worker,
attaches the spans to the returned report, and the ``run_suite`` wrapper
merges them back in the parent.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute, layer group); span names are "module.attribute"
TARGETS = (
    ("rng", "stream", "rng.stream"),
    ("processes", "PathSampler.sample", "processes.sample"),
    ("processes", "SamplePath.cumulative", "processes.sample"),
    ("processes", "TimeGrid.dt", "processes.sample"),
    ("processes", "assemble_levy", "processes.assemble"),
    ("processes", "LevyPath.coords", "processes.assemble"),
    ("processes", "transport_levy", "processes.transport"),
    ("processes", "coordinate_view", "processes.view"),
    ("scenarios", "_eval_constant", "scenarios.evaluate"),
    ("scenarios", "_eval_driver_linear", "scenarios.evaluate"),
    ("scenarios", "_eval_driver_tanh", "scenarios.evaluate"),
    ("scenarios", "_eval_restricted", "scenarios.evaluate"),
    ("scenarios", "make_sampler", "scenarios.build"),
    ("scenarios", "build_integrand", "scenarios.build"),
    ("scenarios", "build_grid_integrand", "scenarios.build"),
    ("scenarios", "restrict_integrand", "scenarios.build"),
    ("scenarios", "resolve_covariance", "scenarios.build"),
    ("spaces", "make_covariance", "spaces.build"),
    ("spaces", "random_orthogonal", "spaces.build"),
    ("spaces", "build_eigen_isometry", "spaces.build"),
    ("spaces", "alternate_decomposition", "spaces.build"),
    ("integrators", "cell_values", "integrators.cell_values"),
    ("integrators", "ito_h", "integrators.ito"),
    ("integrators", "ito_seq", "integrators.ito"),
    ("integrators", "ito_l2lambda", "integrators.ito"),
    ("integrators", "ito_general", "integrators.ito"),
    ("integrators", "series_terms", "integrators.ito"),
    ("integrators", "quadrature_sq_norm", "integrators.quadrature"),
    ("integrators", "covariation_integral", "integrators.quadrature"),
    ("integrators", "angle_bracket", "integrators.quadrature"),
    ("stats", "accumulate_paths", "stats.reduce"),
    ("stats", "MomentAccumulator.from_samples", "stats.reduce"),
    ("stats", "pairwise_merge", "stats.reduce"),
    ("checks", "_exact_loop", "checks.exact_loop"),
    ("checks", "run_check", "checks.run"),
    ("checks", "run_suite", "checks.suite"),
    ("config", "load_config", "config.load"),
)
RAW_EVALUATORS = ("scenarios._eval_constant", "scenarios._eval_driver_linear",
                  "scenarios._eval_driver_tanh")
ITO_LAYERS = ("integrators.ito_h", "integrators.ito_seq",
              "integrators.ito_l2lambda", "integrators.ito_general",
              "integrators.series_terms")
STATISTIC = "checks.statistic"      # the per-path closures of checks.py
ROUND = "round"                     # one `levyint check` call


class Tracer:
    """In-memory spans, per-name call counts and self times, and counters."""

    def __init__(self):
        self.main_pid = self.pid = os.getpid()
        self.names = []
        self._ids = {}
        self.enabled = False
        self.reset()

    def reset(self):
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = {"nodes": 0, "jumps": 0, "cells": 0}
        self.sid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.span_pid = array("q")
        self._stack = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def call(self, sid: int, fn, args, kwargs):
        stack = self._stack
        idx = len(self.start)
        frame = [idx, 0]
        self.sid.append(sid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.span_pid.append(self.pid)
        self.end.append(0)
        stack.append(frame)
        t0 = perf_counter_ns()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            d = t1 - t0
            self.end[idx] = t1
            if stack:
                stack[-1][1] += d
            self.self_ns[sid] += d - frame[1]
            self.calls[sid] += 1

    def export(self) -> dict:
        return {"names": list(self.names), "calls": list(self.calls),
                "self_ns": list(self.self_ns), "counters": dict(self.counters),
                "spans": (self.sid, self.start, self.end, self.parent,
                          self.span_pid)}

    def merge(self, part: dict) -> None:
        for name, calls, ns in zip(part["names"], part["calls"],
                                   part["self_ns"]):
            sid = self.intern(name)
            self.calls[sid] += calls
            self.self_ns[sid] += ns
        for key, value in part["counters"].items():
            self.counters[key] += value
        sid, start, end, parent, pid = part["spans"]
        remap = [self.intern(n) for n in part["names"]]
        offset = len(self.start)
        self.sid.extend(remap[s] for s in sid)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.span_pid.extend(pid)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, pid."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                            "parent", "pid"]}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f'["{names[self.sid[i]]}",{self.start[i]},'
                         f'{self.end[i]},{self.parent[i]},'
                         f'{self.span_pid[i]}]\n')

    def by_name(self) -> dict:
        return {n: (self.calls[i], self.self_ns[i])
                for i, n in enumerate(self.names)}


def _traced(tracer: Tracer, fn, name: str, post=None):
    sid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        out = tracer.call(sid, fn, args, kwargs)
        if post is not None:
            post(tracer.counters, out)
        return out
    return wrapper


def _count_sample(counters, path):
    counters["nodes"] += path.grid.n_nodes
    counters["jumps"] += int(np.count_nonzero(path.grid.kind))


def _count_cells(counters, vals):
    counters["cells"] += vals.shape[0]


def _per_path_wrapper(tracer, fn, name):
    """Time the per-path callable, the second argument of ``fn``.

    ``accumulate_paths(n_paths, stat_fn, ...)`` and
    ``_exact_loop(spec, per_path)`` both take the closures of ``checks.py``
    there, so each closure call becomes a ``checks.statistic`` span.
    """
    stat_sid = tracer.intern(STATISTIC)

    def outer(first, per_path, *args, **kwargs):
        if tracer.enabled:
            inner = per_path

            def per_path(p):
                return tracer.call(stat_sid, inner, (p,), {})
        return fn(first, per_path, *args, **kwargs)
    return _traced(tracer, functools.wraps(fn)(outer), name)


def _run_check_wrapper(tracer, fn, name):
    traced = _traced(tracer, fn, name)

    @functools.wraps(fn)
    def run_check(spec):
        if not tracer.enabled or os.getpid() == tracer.main_pid:
            return traced(spec)
        # a forked worker: record this check alone and ship it home
        tracer.pid = os.getpid()
        tracer.reset()
        report = traced(spec)
        report._layer_trace = tracer.export()
        tracer.reset()
        return report
    return run_check


def _run_suite_wrapper(tracer, fn, name):
    def run_suite(specs, parallelism=1):
        reports = fn(specs, parallelism)
        for r in reports:
            part = r.__dict__.pop("_layer_trace", None)
            if part is not None:
                tracer.merge(part)
        return reports
    return _traced(tracer, functools.wraps(fn)(run_suite), name)


_SPECIAL = {"accumulate_paths": _per_path_wrapper,
            "_exact_loop": _per_path_wrapper,
            "run_check": _run_check_wrapper,
            "run_suite": _run_suite_wrapper}
_POST = {"PathSampler.sample": _count_sample, "cell_values": _count_cells}


def install(tracer: Tracer) -> dict:
    """Wrap every target wherever levyint binds it; return name -> group."""
    modules = [importlib.import_module(f"levyint.{m}")
               for m in ("rng", "spaces", "processes", "integrators",
                         "scenarios", "stats", "checks", "config", "cli")]
    groups = {ROUND: "round", STATISTIC: "checks.statistic"}
    tracer.intern(ROUND)
    tracer.intern(STATISTIC)
    for mod_name, attr, group in TARGETS:
        name = f"{mod_name}.{attr}"
        groups[name] = group
        mod = importlib.import_module(f"levyint.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, functools.cached_property):
                raw.func = _traced(tracer, raw.func, name)
            elif isinstance(raw, classmethod):
                setattr(cls, meth,
                        classmethod(_traced(tracer, raw.__func__, name)))
            else:
                setattr(cls, meth, _traced(tracer, raw, name,
                                           _POST.get(attr)))
            continue
        original = getattr(mod, attr)
        make = _SPECIAL.get(attr)
        wrapper = (make(tracer, original, name) if make is not None
                   else _traced(tracer, original, name, _POST.get(attr)))
        for target in modules:
            if getattr(target, attr, None) is original:
                setattr(target, attr, wrapper)
    return groups
