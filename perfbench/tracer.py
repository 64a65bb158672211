"""Spans around qgwave's public functions, and their reduction to layer metrics.

The shim installs a Tracer in a fresh interpreter before it calls
`qgwave.cli.main`.  A span carries its name, start, end, parent span and the
invocation id.  Wrapping happens where names are looked up: every module of
the package that bound a wrapped function (`from .eigen import
critical_beta` in cli and planets, the module-global `principal_eigenvalue`
the root finders call) gets the wrapper.  Profile `eval` methods are wrapped
on their classes.

`boundary_curve` fans out over a ThreadPoolExecutor, whose workers start
with an empty span stack; their spans are attributed to the open
`boundary_curve` span.  Spans are appended under a lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

# (module, function) -> span name; the module is where the function is defined
WRAPPED = {
    ("qgwave.profiles", "band_extrema"): "profiles.band_extrema",
    ("qgwave.eigen", "principal_eigenvalue"): "eigen.principal_eigenvalue",
    ("qgwave.eigen", "critical_beta"): "rootfind.critical_beta",
    ("qgwave.eigen", "wave_speed_root"): "rootfind.wave_speed_root",
    ("qgwave.eigen", "lambda_inf_over_c"): "rootfind.inf_c",
    ("qgwave.eigen", "boundary_curve"): "curve.boundary_curve",
    ("qgwave.channel", "write_field"): "io.write",
    ("qgwave.channel", "read_field"): "io.read",
    ("qgwave.channel", "gradient"): "stencil.gradient",
    ("qgwave.channel", "laplacian"): "stencil.laplacian",
    ("qgwave.channel", "diagnostics"): "diagnostics.diagnostics",
    ("qgwave.classify", "classify"): "classify.classify",
    ("qgwave.flows", "make_inflection_wave"): "flows.make",
    ("qgwave.flows", "make_min_critical_wave"): "flows.make",
    ("qgwave.flows", "make_kolmogorov_perturbed"): "flows.make",
    ("qgwave.flows", "make_grs_vortex"): "flows.make",
}
CURVE = "curve.boundary_curve"
EVAL = "profiles.eval"


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _eigen_attrs(args, result):
    return {"rungs": len(result.history), "points": sum(n for n, _ in result.history),
            "n_final": result.n_used + 1}


# span name -> function(args, result) giving the span's counters
ATTRS = {
    "eigen.principal_eigenvalue": _eigen_attrs,
    EVAL: lambda args, result: {"points": _size(args[1])},
    # bytes computed from array sizes: gradient reads f, writes fx and fy
    "stencil.gradient": lambda args, result: {"bytes": 3 * 8 * _size(args[0])},
    "stencil.laplacian": lambda args, result: {"bytes": 2 * 8 * _size(args[0])},
    "io.write": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "io.read": lambda args, result: {"bytes": os.path.getsize(args[0])},
    CURVE: lambda args, result: {"flagged": sum(p.error is not None for p in result)},
}


class Tracer:
    """Spans of one invocation, kept in memory and written once at exit."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_curve = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._open_curve
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            if name == CURVE:
                self._open_curve = sid
            span = {"id": sid, "name": name, "parent": parent, "inv": self.invocation}
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            else:
                if attrs is not None:
                    span.update(attrs(args, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if name == CURVE:
                    self._open_curve = None
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self, modules):
        """Wrap every binding of the WRAPPED functions and the profile eval methods."""
        package = [m for n, m in modules.items() if n == "qgwave" or n.startswith("qgwave.")]
        for (mod, fname), span in WRAPPED.items():
            original = getattr(modules[mod], fname)
            wrapper = self.wrap(span, original)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        base = modules["qgwave.profiles"].ShearProfile
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "eval" in vars(cls):
                setattr(cls, "eval", self.wrap(EVAL, vars(cls)["eval"]))

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"invocation": self.invocation, "spans": self.spans}, fh)


# ----------------------------------------------------------------------
# reduction of spans to per-layer metrics
# ----------------------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(span_lists):
    """Per-layer counts and times summed over the spans of many invocations."""
    spans = [s for lst in span_lists for s in lst]
    by_key = {(s["inv"], s["id"]): s for s in spans}
    children = {}
    for s in spans:
        children.setdefault((s["inv"], s["parent"]), []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        kids = children.get((s["inv"], s["id"]), [])
        cover = _covered((max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids)
        return dur(s) - cover

    def under(s, name):
        p = by_key.get((s["inv"], s["parent"]))
        while p is not None:
            if p["name"] == name:
                return True
            p = by_key.get((p["inv"], p["parent"]))
        return False

    def named(name):
        return [s for s in spans if s["name"] == name]

    eig = named("eigen.principal_eigenvalue")
    evals = [s for s in named(EVAL) if by_key.get((s["inv"], s["parent"]), {}).get("name") != EVAL]
    writes, reads = named("io.write"), named("io.read")
    w_bytes = sum(s.get("bytes", 0) for s in writes)
    r_bytes = sum(s.get("bytes", 0) for s in reads)
    w_s, r_s = sum(map(dur, writes)), sum(map(dur, reads))
    stencils = named("stencil.gradient") + named("stencil.laplacian")
    m = {
        "profiles.band_extrema_s": sum(map(dur, named("profiles.band_extrema"))),
        "profiles.eval_calls": len(evals),
        "profiles.eval_points": sum(s.get("points", 0) for s in evals),
        "profiles.eval_s": sum(map(dur, evals)),
        "eigen.solves": len(eig),
        "eigen.rungs": sum(s.get("rungs", 0) for s in eig),
        "eigen.points": sum(s.get("points", 0) for s in eig),
        "eigen.final_n_max": max((s.get("n_final", 0) for s in eig), default=0),
        "eigen.self_s": sum(map(self_time, eig)),
    }
    for key, name in (("critical_beta", "rootfind.critical_beta"),
                      ("wave_speed_root", "rootfind.wave_speed_root"),
                      ("inf_c", "rootfind.inf_c")):
        m[f"rootfind.{key}.solves"] = sum(under(s, name) for s in eig)
        m[f"rootfind.{key}.s"] = sum(map(dur, named(name)))
    curves = named(CURVE)
    m.update({
        "curve.s": sum(map(dur, curves)),
        "curve.busy_s": sum(dur(s) for s in eig if under(s, CURVE)),
        "curve.points_flagged": sum(s.get("flagged", 0) for s in curves),
        "io.write_s": w_s,
        "io.read_s": r_s,
        "io.bytes": w_bytes + r_bytes,
        "io.write_mb_per_s": w_bytes / w_s / 1e6 if w_s > 0 else 0.0,
        "io.read_mb_per_s": r_bytes / r_s / 1e6 if r_s > 0 else 0.0,
        "stencil.gradient_calls": len(named("stencil.gradient")),
        "stencil.laplacian_calls": len(named("stencil.laplacian")),
        "stencil.s": sum(map(dur, stencils)),
        "stencil.bytes_computed": sum(s.get("bytes", 0) for s in stencils),
        "classify.self_s": sum(map(self_time, named("classify.classify"))),
        "diagnostics.self_s": sum(map(self_time, named("diagnostics.diagnostics"))),
        "flows.make_s": sum(map(dur, named("flows.make"))),
    })
    return m
