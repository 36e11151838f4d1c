"""Span tracing of weylscope from outside the package.

`Tracer.installed(ws)` replaces every public module-level function of the
seven weylscope modules with a recording wrapper, at every module attribute
that refers to it (several modules import names directly, e.g.
`cli.matrix_norm2` or `detect.resolvent_matrices`), plus
`friedrichs.PoleSum.__mul__` on its class.  Leaving the context restores the
original objects, so untraced repetitions run unmodified code.

Spans are kept in memory as [name, parent index, start, end] and written
out once at the end of a run.  Self and busy times are computed from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

DOMAIN_MODULES = ("cli", "hainlust", "numerics", "triples", "detect",
                  "friedrichs", "firstorder")

# (metric name, unit, better) in report order; values come from `layer_metrics`.
PER_LAYER = (
    ("hainlust.shoot.calls", "count", "lower"),
    ("hainlust.shoot.busy_s", "s", "lower"),
    ("hainlust.shoot.ms_per_call", "ms", "lower"),
    ("hainlust.shoots_per_root", "1/root", "lower"),
    ("hainlust.eigenvalues_in.busy_s", "s", "lower"),
    ("hainlust.discretize.busy_s", "s", "lower"),
    ("numerics.matrix_norm2.calls", "count", "lower"),
    ("numerics.matrix_norm2.busy_s", "s", "lower"),
    ("numerics.matrix_norm2.power_share", "share", "lower"),
    ("cli.self_s", "s", "lower"),
    ("triples.resolvent_apply.calls", "count", "lower"),
    ("triples.resolvent_apply.us_per_call", "us", "lower"),
    ("triples.solution_operator.calls", "count", "lower"),
    ("triples.solution_operator.us_per_call", "us", "lower"),
    ("triples.extension_eigenvalues.calls", "count", "lower"),
    ("triples.extension_eigenvalues.busy_s", "s", "lower"),
    ("triples.spectrum_reuse", "ratio", "higher"),
    ("detect.saturated_sampling.calls", "count", "lower"),
    ("detect.saturated_sampling.busy_s", "s", "lower"),
    ("detect.sampling_points", "count", "lower"),
    ("detect.build_space.busy_s", "s", "lower"),
    ("detect.morera.busy_s", "s", "lower"),
    ("detect.invariance_residual.busy_s", "s", "lower"),
    ("numerics.orthonormal_basis.busy_s", "s", "lower"),
    ("numerics.contour_integral.busy_s", "s", "lower"),
    ("numerics.principal_angles.busy_s", "s", "lower"),
    ("friedrichs.polesum_mul.calls", "count", "lower"),
    ("friedrichs.polesum_mul.us_per_call", "us", "lower"),
    ("friedrichs.m_scan.busy_s", "s", "lower"),
    ("friedrichs.examples.busy_s", "s", "lower"),
    ("firstorder.resolvent.calls", "count", "lower"),
    ("firstorder.resolvent.busy_s", "s", "lower"),
    ("firstorder.recursion_steps", "count", "lower"),
    ("firstorder.ns_per_step", "ns", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def _power_branch(tracer, args, kwargs, out):
    shape = np.shape(args[0] if args else kwargs["a"])
    # numerics.matrix_norm2 switches to power iteration above 400 columns
    if len(shape) == 2 and min(shape) > 400:
        tracer.rep["counters"]["numerics.matrix_norm2.power_calls"] += 1


def _distinct_extension(tracer, args, kwargs, out):
    ext = args[0] if args else kwargs["ext"]
    # keep the object alive so its id cannot be reused within the repetition
    tracer.rep["extensions"][id(ext)] = ext


def _roots_found(tracer, args, kwargs, out):
    tracer.rep["counters"]["hainlust.roots"] += len(out)


def _sampling_points(tracer, args, kwargs, out):
    tracer.rep["counters"]["detect.sampling_points"] += len(out.solution_samples)


def _recursion_steps(tracer, args, kwargs, out):
    model = args[0] if args else kwargs["model"]
    tracer.rep["counters"]["firstorder.recursion_steps"] += model.grid.n - 1


HOOKS = {
    "numerics.matrix_norm2": _power_branch,
    "triples.extension_eigenvalues": _distinct_extension,
    "hainlust.eigenvalues_in": _roots_found,
    "detect.saturated_sampling": _sampling_points,
    "firstorder.resolvent": _recursion_steps,
}


class Tracer:
    """In-memory span recorder for traced repetitions."""

    def __init__(self):
        self.reps = []
        self.rep = None
        self._stack = []

    def begin_rep(self):
        self.rep = {"spans": [], "counters": Counter(), "extensions": {}}
        self.reps.append(self.rep)
        self._stack = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.rep["spans"]
            stack = tracer._stack
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self, ws):
        """Wrap the public functions of `ws` (a namespace of weylscope modules)."""
        modules = [getattr(ws, short) for short in DOMAIN_MODULES] + [ws.package]
        originals = {}
        for short in DOMAIN_MODULES:
            mod = getattr(ws, short)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        restore = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if hit is not None and hit[0] is obj:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        pole_sum = ws.friedrichs.PoleSum
        mul = pole_sum.__dict__["__mul__"]
        restore.append((pole_sum, "__mul__", mul))
        pole_sum.__mul__ = self._wrap("friedrichs.PoleSum.__mul__", mul)
        try:
            yield
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    def write_jsonl(self, path, labels):
        """Write every span as one JSON line; `labels[i]` names invocation i."""
        with open(path, "w") as fh:
            for rep_no, rep in enumerate(self.reps):
                inv = _invocation_index(rep["spans"])
                for idx, (name, parent, t0, t1) in enumerate(rep["spans"]):
                    fh.write(json.dumps({
                        "rep": rep_no, "request": labels[inv[idx]], "id": idx,
                        "parent": None if parent < 0 else parent, "name": name,
                        "start_s": t0, "end_s": t1,
                    }) + "\n")


def _invocation_index(spans):
    """For each span, the ordinal of the top-level span (request) it belongs to."""
    out = []
    count = -1
    for name, parent, _, _ in spans:
        if parent < 0:
            count += 1
            out.append(count)
        else:
            out.append(out[parent])
    return out


def _busy(spans, names):
    """Time inside spans named in `names`, counting only outermost ones."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for idx, (name, parent, t0, t1) in enumerate(spans):
        covered = parent >= 0 and inside[parent]
        hit = name in names
        inside[idx] = covered or hit
        if hit and not covered:
            total += t1 - t0
    return total


def _self_time(spans, name):
    """Duration of spans called `name` minus the time their direct children cover."""
    child = [0.0] * len(spans)
    for name_i, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return sum(t1 - t0 - child[idx]
               for idx, (name_i, _, t0, t1) in enumerate(spans) if name_i == name)


def _count_within(spans, name, ancestor):
    """Number of spans called `name` with a span called `ancestor` above them."""
    inside = [False] * len(spans)
    count = 0
    for idx, (name_i, parent, _, _) in enumerate(spans):
        above = parent >= 0 and (inside[parent] or spans[parent][0] == ancestor)
        inside[idx] = above
        count += above and name_i == name
    return count


def rep_counts(rep):
    """Exact per-repetition counts, used for the count metrics and the repeat check."""
    calls = Counter(name for name, _, _, _ in rep["spans"])
    ctr = rep["counters"]
    return {
        "hainlust.shoot.calls": calls["hainlust.shoot"],
        "hainlust.search_shoots": _count_within(rep["spans"], "hainlust.shoot",
                                                "hainlust.eigenvalues_in"),
        "hainlust.roots": ctr["hainlust.roots"],
        "numerics.matrix_norm2.calls": calls["numerics.matrix_norm2"],
        "numerics.matrix_norm2.power_calls": ctr["numerics.matrix_norm2.power_calls"],
        "triples.resolvent_apply.calls": calls["triples.resolvent_apply"],
        "triples.solution_operator.calls": calls["triples.solution_operator"],
        "triples.extension_eigenvalues.calls": calls["triples.extension_eigenvalues"],
        "triples.distinct_extensions": len(rep["extensions"]),
        "detect.saturated_sampling.calls": calls["detect.saturated_sampling"],
        "detect.sampling_points": ctr["detect.sampling_points"],
        "friedrichs.polesum_mul.calls": calls["friedrichs.PoleSum.__mul__"],
        "firstorder.resolvent.calls": calls["firstorder.resolvent"],
        "firstorder.recursion_steps": ctr["firstorder.recursion_steps"],
    }


def rep_times(rep):
    """Per-repetition busy and self times in seconds."""
    s = rep["spans"]
    return {
        "hainlust.shoot": _busy(s, ["hainlust.shoot"]),
        "hainlust.eigenvalues_in": _busy(s, ["hainlust.eigenvalues_in"]),
        "hainlust.discretize": _busy(s, ["hainlust.discretize"]),
        "numerics.matrix_norm2": _busy(s, ["numerics.matrix_norm2"]),
        "cli.self": _self_time(s, "cli.main"),
        "triples.resolvent_apply": _busy(s, ["triples.resolvent_apply"]),
        "triples.solution_operator": _busy(s, ["triples.solution_operator"]),
        "triples.extension_eigenvalues": _busy(s, ["triples.extension_eigenvalues"]),
        "detect.saturated_sampling": _busy(s, ["detect.saturated_sampling"]),
        "detect.build_space": _busy(s, ["detect.build_solution_space",
                                        "detect.build_resolvent_space",
                                        "detect.build_adjoint_spaces"]),
        "detect.morera": _busy(s, ["detect.morera_residual"]),
        "detect.invariance_residual": _busy(s, ["detect.invariance_residual"]),
        "numerics.orthonormal_basis": _busy(s, ["numerics.orthonormal_basis"]),
        "numerics.contour_integral": _busy(s, ["numerics.contour_integral"]),
        "numerics.principal_angles": _busy(s, ["numerics.principal_angles"]),
        "friedrichs.polesum_mul": _busy(s, ["friedrichs.PoleSum.__mul__"]),
        "friedrichs.m_scan": _busy(s, ["friedrichs.m_scan"]),
        "friedrichs.examples": _busy(s, ["friedrichs.example_eigenvalue_not_pole",
                                         "friedrichs.example_embedded_eigenvalue"]),
        "firstorder.resolvent": _busy(s, ["firstorder.resolvent"]),
    }


def _ratio(num, den, scale=1.0):
    # a layer the workload never calls reports 0 for its per-call figures
    return scale * num / den if den else 0.0


def layer_metrics(counts, times, overhead_share):
    """Per-layer metric values from one repetition's counts and median times."""
    c, t = counts, times
    return {
        "hainlust.shoot.calls": c["hainlust.shoot.calls"],
        "hainlust.shoot.busy_s": t["hainlust.shoot"],
        "hainlust.shoot.ms_per_call": _ratio(t["hainlust.shoot"], c["hainlust.shoot.calls"], 1e3),
        "hainlust.shoots_per_root": _ratio(c["hainlust.search_shoots"], c["hainlust.roots"]),
        "hainlust.eigenvalues_in.busy_s": t["hainlust.eigenvalues_in"],
        "hainlust.discretize.busy_s": t["hainlust.discretize"],
        "numerics.matrix_norm2.calls": c["numerics.matrix_norm2.calls"],
        "numerics.matrix_norm2.busy_s": t["numerics.matrix_norm2"],
        "numerics.matrix_norm2.power_share": _ratio(c["numerics.matrix_norm2.power_calls"],
                                                    c["numerics.matrix_norm2.calls"]),
        "cli.self_s": t["cli.self"],
        "triples.resolvent_apply.calls": c["triples.resolvent_apply.calls"],
        "triples.resolvent_apply.us_per_call": _ratio(t["triples.resolvent_apply"],
                                                      c["triples.resolvent_apply.calls"], 1e6),
        "triples.solution_operator.calls": c["triples.solution_operator.calls"],
        "triples.solution_operator.us_per_call": _ratio(t["triples.solution_operator"],
                                                        c["triples.solution_operator.calls"], 1e6),
        "triples.extension_eigenvalues.calls": c["triples.extension_eigenvalues.calls"],
        "triples.extension_eigenvalues.busy_s": t["triples.extension_eigenvalues"],
        "triples.spectrum_reuse": _ratio(c["triples.distinct_extensions"],
                                         c["triples.extension_eigenvalues.calls"]),
        "detect.saturated_sampling.calls": c["detect.saturated_sampling.calls"],
        "detect.saturated_sampling.busy_s": t["detect.saturated_sampling"],
        "detect.sampling_points": c["detect.sampling_points"],
        "detect.build_space.busy_s": t["detect.build_space"],
        "detect.morera.busy_s": t["detect.morera"],
        "detect.invariance_residual.busy_s": t["detect.invariance_residual"],
        "numerics.orthonormal_basis.busy_s": t["numerics.orthonormal_basis"],
        "numerics.contour_integral.busy_s": t["numerics.contour_integral"],
        "numerics.principal_angles.busy_s": t["numerics.principal_angles"],
        "friedrichs.polesum_mul.calls": c["friedrichs.polesum_mul.calls"],
        "friedrichs.polesum_mul.us_per_call": _ratio(t["friedrichs.polesum_mul"],
                                                     c["friedrichs.polesum_mul.calls"], 1e6),
        "friedrichs.m_scan.busy_s": t["friedrichs.m_scan"],
        "friedrichs.examples.busy_s": t["friedrichs.examples"],
        "firstorder.resolvent.calls": c["firstorder.resolvent.calls"],
        "firstorder.resolvent.busy_s": t["firstorder.resolvent"],
        "firstorder.recursion_steps": c["firstorder.recursion_steps"],
        "firstorder.ns_per_step": _ratio(t["firstorder.resolvent"],
                                         c["firstorder.recursion_steps"], 1e9),
        "trace.overhead_share": overhead_share,
    }
