"""Span tracing of the uflst layers, installed from outside the package.

`install()` replaces every public function of each uflst module with a
wrapper that records one span (function, parent span, start, end) in
memory.  The package reaches its own functions through module attributes
(`network.forward`) or module globals (`mine_hard_triplets` inside
`losses`), so swapping the module attribute is enough: `src/` is not
edited.  A few wrappers also record exact work counts taken from the
arguments or the return value.  `dump()` writes everything out once, at
the end of the run, and `summarize()` turns the dump into per-layer
busy time, self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("cli", "config", "data", "metric", "cluster", "network", "losses",
           "episodes", "evaluate", "pipeline")

# Phase functions that give `network.forward` its role.
FORWARD_ROLES = {
    "pipeline.run_clustering_phase": "cluster",
    "pipeline.run_episodic_phase": "train",
    "evaluate.few_shot_accuracy": "eval",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []     # [name_id, parent_span, start, end]
        self.stack = []
        self.counts = {}
        self.roles = {}     # network.forward span -> FORWARD_ROLES value

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def role(self, span):
        """Closest phase ancestor of a span, as a FORWARD_ROLES value."""
        while span >= 0:
            name_id, parent = self.spans[span][0], self.spans[span][1]
            role = FORWARD_ROLES.get(self.names[name_id])
            if role:
                return role
            span = parent
        return "other"

    def wrap(self, name, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            record = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(span)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "roles": self.roles}, f)


def _forward_rows(tracer, span, args, result):
    role = tracer.roles[span] = tracer.role(span)
    tracer.count(f"network.forward.{role}.rows", len(args[1]))


def _jaccard_edges(tracer, span, args, result):
    values = result.values
    tracer.count("metric.jaccard_edges",
                 np.count_nonzero(np.triu(values < 1.0, 1)))


def _mined(tracer, span, args, result):
    stats = result[3]
    tracer.count("losses.mined_anchors", stats.num_anchors)
    tracer.count("losses.mined_skipped", stats.num_skipped)


def _episodes_run(tracer, span, args, result):
    tracer.count("pipeline.episodes_run", result[3])


HOOKS = {
    "network.forward": _forward_rows,
    "metric.jaccard_matrix": _jaccard_edges,
    "losses.mine_hard_triplets": _mined,
    "pipeline.run_episodic_phase": _episodes_run,
}


def install(tracer):
    """Wrap the public functions defined in each uflst module."""
    for mod_name in MODULES:
        module = importlib.import_module(f"uflst.{mod_name}")
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{mod_name}.{attr}"
            setattr(module, attr, tracer.wrap(name, fn, HOOKS.get(name)))


def summarize(dump):
    """Per-function busy_s, self_s and calls, plus the recorded counts.

    Self time is a span's duration minus the durations of its direct
    children.  `network.forward` is also split by role (the phase that
    called it, found when the span was recorded), as
    `network.forward.<role>.*`.
    """
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    roles = {int(k): v for k, v in dump["roles"].items()}
    out = {}

    def add(key, busy, self_time):
        stats = out.setdefault(key, [0.0, 0.0, 0])
        stats[0] += busy
        stats[1] += self_time
        stats[2] += 1

    for i, (name_id, parent, start, end) in enumerate(spans):
        name = names[name_id]
        busy = end - start
        add(name, busy, busy - child_time[i])
        if name == "network.forward":
            add(f"network.forward.{roles[i]}", busy,
                busy - child_time[i])
    metrics = {}
    for key, (busy, self_time, calls) in out.items():
        metrics[f"{key}.busy_s"] = busy
        metrics[f"{key}.self_s"] = self_time
        metrics[f"{key}.calls"] = calls
    return metrics, dict(dump["counts"])
