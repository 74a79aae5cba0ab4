"""Span tracing of beamkit's public functions, installed from outside.

`instrument` rebinds every traced function in each beamkit module that
refers to it, and every traced method or property on its class, so calls
made inside the library are recorded as well as the harness's own.
Leaving the context restores the original objects.  Spans live in flat
integer arrays while the run lasts and are written out once, at the end.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

import functools
import os
import sys
import time
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Functions, methods and properties that get a span, as (module, attribute).
SPANNED = (
    ("arrays", "steering_vector"),
    ("arrays", "steering_matrix"),
    ("arrays", "SteeringMatrix.gram"),
    ("ideal", "ps_icd"),
    ("ideal", "ls_icd"),
    ("practical", "design_nrf1"),
    ("practical", "fs_row"),
    ("practical", "ls_fbb"),
    ("practical", "fs_altmin"),
    ("practical", "HybridCodeword.realized"),
    ("codebook", "build_codebook"),
    ("channel", "draw_channel"),
    ("channel", "measure"),
    ("channel", "hierarchical_search"),
    ("channel", "exhaustive_best_pair"),
    ("channel", "success_rate"),
    ("serialization", "save_codebook"),
    ("serialization", "load_codebook"),
)
# Called too often, and too cheaply, for a span: these only count calls.
COUNTED = (
    ("ideal", "PhaseOptimizer.update"),
    ("practical", "phase_set"),
)

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("practical.fs_row.calls", "count"),
    ("practical.fs_row.iters", "count"),
    ("practical.fs_row.total_s", "s"),
    ("practical.fs_row.p50_us", "us"),
    ("practical.fs_row.p99_us", "us"),
    ("practical.fs_row.changed_frac", "frac"),
    ("practical.fs_altmin.calls", "count"),
    ("practical.fs_altmin.total_s", "s"),
    ("practical.fs_altmin.self_s", "s"),
    ("practical.ls_fbb.calls", "count"),
    ("practical.ls_fbb.total_s", "s"),
    ("practical.ls_fbb.pinv_fallbacks", "count"),
    ("practical.design_nrf1.calls", "count"),
    ("practical.design_nrf1.total_s", "s"),
    ("practical.HybridCodeword.realized.calls", "count"),
    ("practical.HybridCodeword.realized.total_s", "s"),
    ("practical.phase_set.calls", "count"),
    ("ideal.ps_icd.calls", "count"),
    ("ideal.ps_icd.updates", "count"),
    ("ideal.ps_icd.total_s", "s"),
    ("ideal.ps_icd.p50_ms", "ms"),
    ("ideal.ls_icd.calls", "count"),
    ("ideal.ls_icd.total_s", "s"),
    ("arrays.steering_matrix.calls", "count"),
    ("arrays.steering_matrix.total_s", "s"),
    ("arrays.SteeringMatrix.gram.calls", "count"),
    ("arrays.SteeringMatrix.gram.total_s", "s"),
    ("codebook.build_codebook.calls", "count"),
    ("codebook.build_codebook.total_s", "s"),
    ("codebook.build_codebook.self_s", "s"),
    ("codebook.build_codebook.entries_synth", "count"),
    ("codebook.build_codebook.entries_steering", "count"),
    ("channel.measure.calls", "count"),
    ("channel.measure.total_s", "s"),
    ("channel.measure.p50_us", "us"),
    ("channel.hierarchical_search.calls", "count"),
    ("channel.hierarchical_search.total_s", "s"),
    ("channel.hierarchical_search.p50_us", "us"),
    ("channel.hierarchical_search.p99_us", "us"),
    ("channel.exhaustive_best_pair.calls", "count"),
    ("channel.exhaustive_best_pair.total_s", "s"),
    ("channel.exhaustive_best_pair.p50_us", "us"),
    ("channel.exhaustive_best_pair.p99_us", "us"),
    ("channel.draw_channel.calls", "count"),
    ("channel.draw_channel.total_s", "s"),
    ("channel.success_rate.calls", "count"),
    ("channel.success_rate.self_s", "s"),
    ("channel.success_rate.rate_practical", "frac"),
    ("channel.success_rate.rate_ideal", "frac"),
    ("channel.measurements_per_trial", "count"),
    ("serialization.save_codebook.calls", "count"),
    ("serialization.save_codebook.total_s", "s"),
    ("serialization.save_codebook.bytes", "B"),
    ("serialization.load_codebook.total_s", "s"),
    ("trace_overhead_frac", "frac"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []  # span name by name id
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")  # span index of the caller, -1 at the top
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self._stack = []
        self.counts = Counter()
        self.missing = []  # traced names the library no longer has

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, out)
        runs once the span has closed."""
        nid = self._id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    # hooks that count work at the boundary where it happens

    def _fs_row_done(self, args, kwargs, out):
        init = args[3] if len(args) > 3 else kwargs["init_indices"]
        self.counts["practical.fs_row.iters"] += int(out[2])
        if not np.array_equal(out[0], init):
            self.counts["practical.fs_row.changed"] += 1

    def _search_done(self, args, kwargs, out):
        self.counts["channel.measurements"] += int(out[2])

    def _saved(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["serialization.save_codebook.bytes"] += os.path.getsize(path)

    def _counting_fallbacks(self, fn):
        """ls_fbb that counts its pseudo-inverse fallback warnings and
        passes them on unchanged."""
        counts = self.counts

        @functools.wraps(fn)
        def ls_fbb(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            for w in caught:
                if "pseudo-inverse" in str(w.message):
                    counts["practical.ls_fbb.pinv_fallbacks"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        return ls_fbb

    def _wrap(self, name, fn):
        if name == "practical.ls_fbb":
            fn = self._counting_fallbacks(fn)
        after = {
            "practical.fs_row": self._fs_row_done,
            "channel.hierarchical_search": self._search_done,
            "serialization.save_codebook": self._saved,
        }.get(name)
        return self.span(name, fn, after)


@contextmanager
def instrument(tracer):
    """Install tracer's wrappers into the loaded beamkit modules."""
    modules = [
        m for key, m in list(sys.modules.items())
        if key == "beamkit" or key.startswith("beamkit.")
    ]
    undo = []
    try:
        for (mod, attr), counted in [(t, False) for t in SPANNED] + [
            (t, True) for t in COUNTED
        ]:
            name = f"{mod}.{attr}"
            home = sys.modules.get(f"beamkit.{mod}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                tracer.missing.append(name)
                continue
            if owner_name:  # a method or property: patch the class once
                if isinstance(raw, property):
                    new = property(tracer._wrap(name, raw.fget))
                elif counted:
                    new = tracer.counted(name, raw)
                else:
                    new = tracer._wrap(name, raw)
                undo.append((owner, member, raw))
                setattr(owner, member, new)
                continue
            new = tracer.counted(name, raw) if counted else tracer._wrap(name, raw)
            for m in modules:  # every module that imported the function
                for key, value in list(vars(m).items()):
                    if value is raw:
                        undo.append((m, key, raw))
                        setattr(m, key, new)
        yield tracer
    finally:
        for obj, key, old in reversed(undo):
            setattr(obj, key, old)


def layer_metrics(tracer):
    """The PER_LAYER metrics that spans and counters give (all but the
    success rates and the tracing overhead)."""
    name_id = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = (
        np.frombuffer(tracer.end, dtype=np.int64)
        - np.frombuffer(tracer.start, dtype=np.int64)
    ).astype(float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return name_id == ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total_s(name):
        return float(dur[mask(name)].sum()) * 1e-9

    def self_s(name):
        return float(self_time[mask(name)].sum()) * 1e-9

    def pct(name, q, scale):
        d = dur[mask(name)]
        return float(np.percentile(d, q)) * scale if d.size else 0.0

    def children_of(parent_name, *child_names):
        is_parent = mask(parent_name)
        hits = np.zeros(name_id.size, dtype=bool)
        for c in child_names:
            hits |= mask(c)
        return int(np.count_nonzero(hits & nested & is_parent[np.maximum(parent, 0)]))

    c = tracer.counts
    fs_row = calls("practical.fs_row")
    searches = calls("channel.hierarchical_search")
    out = {}
    for mod, attr in SPANNED:
        name = f"{mod}.{attr}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.total_s"] = total_s(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("practical.fs_row", "channel.measure",
                 "channel.hierarchical_search", "channel.exhaustive_best_pair"):
        out[f"{name}.p50_us"] = pct(name, 50, 1e-3)
        out[f"{name}.p99_us"] = pct(name, 99, 1e-3)
    out["practical.fs_row.iters"] = c["practical.fs_row.iters"]
    out["practical.fs_row.changed_frac"] = (
        c["practical.fs_row.changed"] / fs_row if fs_row else 0.0
    )
    out["practical.ls_fbb.pinv_fallbacks"] = c["practical.ls_fbb.pinv_fallbacks"]
    out["practical.phase_set.calls"] = c["practical.phase_set"]
    out["ideal.ps_icd.updates"] = c["ideal.PhaseOptimizer.update"]
    out["ideal.ps_icd.p50_ms"] = pct("ideal.ps_icd", 50, 1e-6)
    out["codebook.build_codebook.entries_synth"] = children_of(
        "codebook.build_codebook", "ideal.ps_icd", "ideal.ls_icd"
    )
    out["codebook.build_codebook.entries_steering"] = children_of(
        "codebook.build_codebook", "arrays.steering_vector"
    )
    out["channel.measurements_per_trial"] = (
        c["channel.measurements"] / searches if searches else 0.0
    )
    out["serialization.save_codebook.bytes"] = c["serialization.save_codebook.bytes"]
    return {name: out[name] for name, _ in PER_LAYER if name in out}
