"""Span tracing around the public functions of the wittmod layers.

The tracer replaces a function by a timing wrapper in every namespace
that holds it (the defining module and each module that imported the
name), so a call is recorded whichever route reaches it.  The methods of
the classes a layer defines are wrapped on their class, so time spent in,
say, ``Scalar`` arithmetic called from ``sl3`` lands in ``scalars``.
Spans are kept in memory as parallel arrays (name, start, end, parent)
and written out once the run ends; self time is computed afterwards from
the span tree.
Nothing inside the package is edited: removing the tracer restores every
original object.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "report", "engine", "sl3", "tensor", "glmod", "scalars")

# (layer, attribute path, span name, hook).  Attribute paths with a dot
# are methods patched on their class; the others are module functions.
# ``hook`` names the Tracer method that counts from the call's arguments
# and result.
NAMED_TARGETS = (
    ("scalars", "ParamPolynomial.__mul__", "scalars.poly_mul", None),
    ("scalars", "poly_gcd", "scalars.poly_gcd", "_hook_gcd"),
    ("scalars", "Scalar.__init__", "scalars.canon", None),
    ("scalars", "factor_polynomial", "scalars.factor", None),
    ("scalars", "factor_linear_in_iota", "scalars.factor", None),
    ("sl3", "act_gen", "sl3.act_gen", "_hook_act_gen"),
    ("sl3", "act_embedded", "sl3.act_embedded", None),
    ("engine", "closure", "engine.closure", "_hook_closure"),
    ("engine", "SubspaceBasis.insert", "engine.insert", "_hook_insert"),
    ("engine", "SubspaceBasis.contains", "engine.contains", None),
    ("engine", "nullspace", "engine.nullspace", None),
    ("tensor", "act_witt", "tensor.act_witt", "_hook_act_witt"),
    ("tensor", "de_rham_differential", "tensor.de_rham", None),
    ("glmod", "FinDimGlModule.act", "glmod.act", None),
    ("glmod", "CuspidalGl2.act", "glmod.act", None),
    ("report", "canonical_json", "report.canonical_json", "_hook_canonical_json"),
    ("cli", "main", "cli.main", None),
)

# poly_gcd recurses through its own module global; only the outermost
# call is a gcd a caller asked for
TOP_LEVEL_ONLY = ("scalars.poly_gcd",)

# called so often that a span per call would dominate the traced run
COUNT_ONLY = (("scalars", "coeff_is_zero", "scalars.coeff_is_zero"),)

REQUEST_SPAN = "request"


def self_times(starts, ends, parents):
    """Self time per span: its duration minus the part its children cover.

    Spans are indexed in the order they were opened, so each child comes
    after its parent and siblings come in start order.  Child intervals
    are clipped to the parent and merged, so overlapping children are
    not counted twice.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)  # end of the covered prefix of each parent
    for k in range(n):
        p = parents[k]
        if p < 0:
            continue
        lo = max(starts[k], reach[p])
        hi = min(ends[k], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[k] - starts[k] - covered[k] for k in range(n)))


class Tracer:
    """In-memory span recorder with per-target counters."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._open_depth = Counter()
        self.counters = Counter()
        self._param_ids = {}
        self._params_seen = {}
        self._applied = set()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(name.split(".", 1)[0])
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None, top_level_only=False):
        """Timing wrapper around ``fn``; ``hook(args, result)`` runs after
        the span closes.  With ``top_level_only`` a call made while a span
        of the same name is open runs unrecorded inside it."""
        nid = self.name_id(name)
        calls = name + ".calls"
        counters = self.counters
        depth = self._open_depth
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if top_level_only:
                if depth[nid]:
                    return fn(*args, **kwargs)
                depth[nid] += 1
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
                if top_level_only:
                    depth[nid] -= 1
            counters[calls] += 1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_method(self, name: str, fn):
        """Timing wrapper around a method that records a span only when
        called from outside its layer.  A call from the same layer runs
        inside its caller's span, which already counts toward the layer,
        so the named spans keep their helpers' time and the span count
        stays low."""
        nid = self.name_id(name)
        layer = self.name_layer[nid]
        stack, span_name, name_layer = self._stack, self.span_name, self.name_layer
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            if stack and name_layer[span_name[stack[-1]]] == layer:
                return fn(*args, **kwargs)
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def count(self, name: str, fn):
        key = name + ".calls"
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks for the named targets ----------------------------------------

    def _hook_gcd(self, args, result):
        # read the terms directly: the polynomial's methods are wrapped too
        terms = result.terms
        if len(terms) == 1 and not any(next(iter(terms))) and 1 in terms.values():
            self.counters["scalars.poly_gcd.trivial"] += 1

    def _hook_act_gen(self, args, result):
        params, i, j, x = args[:4]
        entry = self._params_seen.get(id(params))
        if entry is None:
            values = (params.lam, params.b, params.c, params.a1, params.a2)
            pid = self._param_ids.setdefault(values, len(self._param_ids))
            # holding the object keeps its id from being reused
            entry = self._params_seen[id(params)] = (params, pid)
        pid = entry[1]
        applied = self._applied
        repeats = 0
        for idx, pt in x.terms:
            key = (pid, i, j, idx, pt)
            if key in applied:
                repeats += 1
            else:
                applied.add(key)
        self.counters["sl3.act_gen.terms"] += len(x.terms)
        self.counters["sl3.act_gen.repeats"] += repeats

    def _hook_closure(self, args, result):
        self.counters["engine.closure.rows_processed"] += result[1]["rows_processed"]

    def _hook_insert(self, args, result):
        if result is not None:
            self.counters["engine.insert.useful"] += 1

    def _hook_act_witt(self, args, result):
        self.counters["tensor.act_witt.terms"] += len(args[1].terms)

    def _hook_canonical_json(self, args, result):
        self.counters["report.bytes"] += len(result)

    # -- installation ----------------------------------------------------------

    def _replace(self, namespaces, original, replacement):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._patches.append((ns, attr, original))

    def install(self, package):
        """Wrap the public functions and classes of every layer of ``package``.

        ``package`` is the imported top-level package; each layer module
        is reached as an attribute of it.  Every namespace among the
        package and its layers that holds a wrapped function gets the
        wrapper.  Of each public class a layer defines, every public
        method and dunder (plain, class or static) is wrapped on the
        class; properties are not.
        """
        layers = {name: getattr(package, name) for name in LAYERS}
        namespaces = [package, *layers.values()]
        done = set()
        for layer, path, span, hook in NAMED_TARGETS:
            self._install_one(
                namespaces, layers[layer], path,
                lambda fn, s=span, h=hook and getattr(self, hook): self.wrap(
                    s, fn, h, top_level_only=s in TOP_LEVEL_ONLY
                ),
            )
            done.add((layer, path))
        for layer, path, name in COUNT_ONLY:
            self._install_one(
                namespaces, layers[layer], path, lambda fn, n=name: self.count(n, fn)
            )
            done.add((layer, path))
        for layer, module in layers.items():
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or (layer, attr) in done
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                if inspect.isclass(value):
                    self._wrap_methods(layer, value, done)
                elif inspect.isfunction(value):
                    self._install_one(
                        namespaces, module, attr,
                        lambda fn, s=f"{layer}.{attr}": self.wrap(s, fn),
                    )

    def _wrap_methods(self, layer, cls, done):
        for meth, value in list(vars(cls).items()):
            path = f"{cls.__name__}.{meth}"
            dunder = meth.startswith("__") and meth.endswith("__")
            if (layer, path) in done or (meth.startswith("_") and not dunder):
                continue
            kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
            fn = value.__func__ if kind else value
            if not inspect.isfunction(fn):
                continue
            traced = self.wrap_method(f"{layer}.{path}", fn)
            setattr(cls, meth, kind(traced) if kind else traced)
            self._patches.append((cls, meth, value))

    def _install_one(self, namespaces, module, path, make):
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            setattr(cls, meth, make(original))
            self._patches.append((cls, meth, original))
        else:
            original = getattr(module, path)
            self._replace(namespaces, original, make(original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def spans(self):
        return (
            [self.names[k] for k in self.span_name],
            self.span_start,
            self.span_end,
            self.span_parent,
        )

    def self_time_by_name(self) -> dict:
        totals = [0.0] * len(self.names)
        for nid, st in zip(
            self.span_name, self_times(self.span_start, self.span_end, self.span_parent)
        ):
            totals[nid] += st
        return dict(zip(self.names, totals))

    def write_spans(self, path):
        """Write every span as ``id name start end parent``, gzipped."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            names = self.names
            for sid, (nid, st, en, par) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(f"{sid}\t{names[nid]}\t{st:.9f}\t{en:.9f}\t{par}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from a finished traced pass.

    Returns {metric name: (value, unit)}.  Calls and counts are exact;
    self times are seconds from the span tree.
    """
    c = tracer.counters
    st = tracer.self_time_by_name()
    out = {}

    for name in dict.fromkeys(span for _, _, span, _ in NAMED_TARGETS):
        out[f"{name}.calls"] = (c[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (st.get(name, 0.0), "s")
    out["scalars.gcd_trivial_ratio"] = (
        _ratio(c["scalars.poly_gcd.trivial"], c["scalars.poly_gcd.calls"]), "ratio"
    )
    out["scalars.coeff_is_zero.calls"] = (c["scalars.coeff_is_zero.calls"], "count")
    out["sl3.act_gen.terms"] = (c["sl3.act_gen.terms"], "count")
    out["sl3.act_gen.repeat_ratio"] = (
        _ratio(c["sl3.act_gen.repeats"], c["sl3.act_gen.terms"]), "ratio"
    )
    out["engine.closure.rows_processed"] = (c["engine.closure.rows_processed"], "count")
    out["engine.insert.useful_ratio"] = (
        _ratio(c["engine.insert.useful"], c["engine.insert.calls"]), "ratio"
    )
    out["tensor.act_witt.terms"] = (c["tensor.act_witt.terms"], "count")
    out["glmod.act.per_witt_term"] = (
        _ratio(c["glmod.act.calls"], c["tensor.act_witt.terms"]), "ratio"
    )
    out["report.bytes"] = (c["report.bytes"], "bytes")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for k, v in st.items() if k.split(".", 1)[0] == layer), "s"
        )
    return out
