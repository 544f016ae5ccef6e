"""Spans around the public functions of each berkline module.

The tracer wraps functions and methods from outside the library; nothing
under src/ changes.  Each span records its name, start, end and parent and is
kept in memory until the run ends.  Field-element operations run millions of
times, so they are aggregated per name instead of kept one span per call.
Self time is a span's duration minus the time its child spans cover;
bookkeeping done after a span ends (counting points, hashing recenter pairs)
is charged to no span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id)
        self.stack = []          # open frames: [id, name, start, child_s, entry name]
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()  # outermost spans of a name only
        self.counts = Counter()
        self.distinct = set()
        self._open = Counter()
        self._ids = 0

    def enter(self, name):
        self._ids += 1
        self._open[name] += 1
        frame = [self._ids, name, perf(), 0.0, name]
        self.stack.append(frame)
        return frame

    def leave(self, frame, keep, after=None):
        end = perf()
        self.stack.pop()
        fid, name, start, child, entry = frame    # a span may be renamed
        dur = end - start
        self._open[entry] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if not self._open[entry]:
            self.total_s[name] += dur
        parent = self.stack[-1] if self.stack else None
        if keep:
            self.spans.append((fid, name, start, end, parent[0] if parent else 0))
        if after is not None:
            after()
        if parent is not None:
            parent[3] += perf() - start   # the child's span plus bookkeeping


class Patches:
    """Replace attributes and put the originals back."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement):
        """Rebind every berkline module attribute that holds `original`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "berkline" or name.startswith("berkline.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def span(tracer, fn, name, keep=True, count=None):
    """Wrap fn in a span; `name` may be a function of the arguments and
    `count(args, result)` runs after the span closes."""
    fixed = name if isinstance(name, str) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(fixed or name(args))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            after = (lambda: count(args, result)) if count else None
            tracer.leave(frame, keep, after)

    return traced


def _backend(x):
    fld = x.field
    if fld.backend == "padic":
        return "padic"
    return "fp" if fld.char else "q"


def install(tracer: Tracer) -> Patches:
    """Wrap the layer boundaries; returns the patches to restore."""
    from berkline import (cancel, cli, field, gauss, kernel, logvalue, points,
                          poly, serialize, sheaf, skeleton, snf, units)

    p = Patches()
    t = tracer
    c = t.counts

    # field elements: aggregated per (operation, backend)
    for cls in (field.PuiseuxElem, field.PadicElem):
        for attr, op in (("__mul__", "mul"), ("__add__", "add"),
                         ("inverse", "inverse")):
            orig = cls.__dict__[attr]
            wrapped = span(t, orig, lambda a, op=op: f"field.{op}.{_backend(a[0])}",
                           keep=False)
            p.set(cls, attr, wrapped)
            if attr == "__mul__":
                p.set(cls, "__rmul__", wrapped)

    post_init = logvalue.LogValue.__post_init__

    def counted_post_init(self):
        c["logvalue.constructions"] += 1
        post_init(self)

    p.set(logvalue.LogValue, "__post_init__", counted_post_init)

    # polynomials
    def recenter_count(args, result):
        f, a = args
        c["poly.recenter.degree_sum"] += f.degree
        t.distinct.add((f, a))

    p.set(poly.Polynomial, "recenter",
          span(t, poly.Polynomial.recenter, "poly.recenter", count=recenter_count))
    p.set(poly.Polynomial, "__mul__", span(
        t, poly.Polynomial.__mul__,
        lambda a: "poly.mul.generic" if isinstance(a[1], poly.Polynomial)
        else "poly.scale"))
    try_kernel = poly._try_kernel_mul

    def routed(f, g):
        out = try_kernel(f, g)
        if out is not None:
            t.stack[-1][1] = "poly.mul.kernel"
        return out

    p.set(poly, "_try_kernel_mul", routed)
    p.set(kernel, "poly_mul_modp",
          span(t, kernel.poly_mul_modp, "kernel.poly_mul_modp"))

    # gauss: newton polygons count their points, and the share of stored
    # coefficients that are nonzero when the polygon belongs to y2_divisor
    coeff_values = gauss._coeff_values

    def counted_coeff_values(f, a=None):
        known, unknown = coeff_values(f, a)
        if t.stack and t.stack[-1][1] == "gauss.newton_polygon":
            points = len(known) + len(unknown)
            c["gauss.newton_polygon.points_sum"] += points
            if len(t.stack) > 1 and t.stack[-2][1] == "cancel.y2_divisor":
                c["cancel.y2.nonzero"] += points
                c["cancel.y2.stored"] += len(f.coeffs)
        return known, unknown

    p.set(gauss, "_coeff_values", counted_coeff_values)

    def y2_count(args, result):
        c["cancel.y2_divisor.n_sum"] += args[1]

    def skeleton_count(args, result):
        if result is not None:
            c["skeleton.build_skeleton.vertices_sum"] += len(result.vertices)

    def snf_count(args, result):
        mat = args[0]
        c["snf.smith_normal_form.entries_sum"] += len(mat) * (len(mat[0]) if mat else 0)

    for fn, name, count in (
            (gauss.roots_in_disc, "gauss.roots_in_disc", None),
            (gauss.newton_polygon, "gauss.newton_polygon", None),
            (cancel.y2_divisor, "cancel.y2_divisor", y2_count),
            (skeleton.build_skeleton, "skeleton.build_skeleton", skeleton_count),
            (points.classify, "points.classify", None),
            (sheaf.cohomology, "sheaf.cohomology", None),
            (snf.smith_normal_form, "snf.smith_normal_form", snf_count),
            (units.reduced_unit, "units.reduced_unit", None),
            (units.direction_slopes, "units.direction_slopes", None),
            (units.boundary_degrees, "units.boundary_degrees", None),
            (units.exterior_degree, "units.exterior_degree", None),
            (units.homotopy_check, "units.homotopy_check", None)):
        p.everywhere(fn, span(t, fn, name, count=count))

    # the CLI: validation, decoding, compute and emit inside cli.main
    p.set(cli, "_validate", span(t, cli._validate, "cli.validate"))
    p.set(cli, "_emit", span(t, cli._emit, "cli.emit"))
    p.set(cli, "_DISPATCH", {k: span(t, v, "cli.compute")
                             for k, v in cli._DISPATCH.items()})
    p.set(cli, "main", span(t, cli.main, "cli.main"))
    for attr, value in list(vars(serialize).items()):
        if callable(value) and getattr(value, "__module__", "") == serialize.__name__ \
                and (attr.endswith("_from_json") or attr.startswith("parse_")):
            p.set(serialize, attr, span(t, value, "serialize.decode", keep=False))
    return p


# per-layer metrics: name -> unit.  Counts and times are per operation of
# the traced replay of a run.  Element arithmetic is a child layer of
# everything above it, so the self time of, say, recenter excludes the field
# operations it makes; total_s is the inclusive time.
FIELD_LAYERS = {f"field.{op}.{b}.{what}": unit
                for op in ("mul", "add", "inverse")
                for b in ("fp", "q", "padic")
                for what, unit in (("calls", "count"), ("self_s", "s"))}
LAYERS = {
    "cli.import_ms": "ms", "cli.validate_ms": "ms",
    "serialize.decode_ms": "ms", "cli.compute_ms": "ms", "cli.other_ms": "ms",
    "poly.recenter.calls": "count", "poly.recenter.degree_sum": "count",
    "poly.recenter.self_s": "s", "poly.recenter.total_s": "s",
    "poly.recenter.distinct_ratio": "ratio",
    "gauss.roots_in_disc.calls": "count", "gauss.roots_in_disc.self_s": "s",
    "gauss.roots_in_disc.total_s": "s",
    **FIELD_LAYERS,
    "logvalue.constructions": "count",
    "poly.mul.kernel.calls": "count", "poly.mul.kernel.self_s": "s",
    "poly.mul.generic.calls": "count", "poly.mul.generic.self_s": "s",
    "kernel.poly_mul_modp.calls": "count", "kernel.poly_mul_modp.self_s": "s",
    "kernel.share_of_kernel_route": "ratio",
    "kernel.pairs_s": "s", "kernel.tower_s": "s",
    "gauss.newton_polygon.calls": "count",
    "gauss.newton_polygon.points_sum": "count",
    "gauss.newton_polygon.self_s": "s", "gauss.newton_polygon.total_s": "s",
    "cancel.y2_divisor.calls": "count", "cancel.y2_divisor.n_sum": "count",
    "cancel.y2_divisor.self_s": "s", "cancel.y2_divisor.total_s": "s",
    "cancel.y2_nonzero_ratio": "ratio",
    "skeleton.build_skeleton.calls": "count",
    "skeleton.build_skeleton.vertices_sum": "count",
    "skeleton.build_skeleton.self_s": "s",
    "points.classify.calls": "count", "points.classify.self_s": "s",
    "sheaf.cohomology.self_s": "s",
    "snf.smith_normal_form.calls": "count",
    "snf.smith_normal_form.entries_sum": "count",
    "snf.smith_normal_form.self_s": "s",
    "units.reduced_unit.self_s": "s", "units.direction_slopes.self_s": "s",
    "units.boundary_degrees.self_s": "s", "units.homotopy_check.self_s": "s",
    "units.direction_slopes.total_s": "s", "units.homotopy_check.total_s": "s",
    "trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_share": "ratio",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t: Tracer, ops, untraced_rate, traced_rate, kernel,
                  import_ms):
    """{name: (value, unit)} for every name in LAYERS."""
    tot = t.total_s
    out = {}
    for name, unit in LAYERS.items():
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = t.calls[layer] / ops
        elif what == "self_s":
            out[name] = t.self_s[layer] / ops
        elif what == "total_s":
            out[name] = t.total_s[layer] / ops
        elif name in t.counts:
            out[name] = t.counts[name] / ops
    ms = 1e3 / ops
    out.update({
        "cli.import_ms": import_ms,
        "cli.validate_ms": tot["cli.validate"] * ms,
        "serialize.decode_ms": tot["serialize.decode"] * ms,
        "cli.compute_ms": (tot["cli.compute"] - tot["serialize.decode"]
                           - tot["cli.emit"]) * ms,
        "cli.other_ms": (tot["cli.main"] - tot["cli.validate"]
                         - tot["cli.compute"] + tot["cli.emit"]) * ms,
        "poly.recenter.distinct_ratio": _ratio(len(t.distinct),
                                               t.calls["poly.recenter"]),
        "kernel.share_of_kernel_route": _ratio(tot["kernel.poly_mul_modp"],
                                               tot["poly.mul.kernel"]),
        "kernel.pairs_s": kernel["pairs_s"],
        "kernel.tower_s": kernel["tower_s"],
        "cancel.y2_nonzero_ratio": _ratio(t.counts["cancel.y2.nonzero"],
                                          t.counts["cancel.y2.stored"]),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_share": _ratio(untraced_rate, traced_rate) - 1,
    })
    for name in LAYERS:
        out.setdefault(name, 0.0)
    return {name: (out[name], unit) for name, unit in LAYERS.items()}
