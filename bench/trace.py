"""Span tracing of rieszspec from outside the package.

``install`` wraps the public functions and methods of every layer module
(plus the few private entry points named in ``EXTRA``) and rebinds each
wrapper at every module attribute that held the original, so names
imported with ``from x import f`` are traced too.  A call becomes a span
when it enters a different layer than the innermost open span, or when
its name is in ``ALWAYS_SPAN``; calls inside the same layer are counted
only.  A layer's self time is the time its spans were open minus the time
covered by their child spans.  Spans are kept in memory as tuples
(name, start, end, parent index, query id) and written out by the caller
at the end of the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "rieszspec.exact": "exact",
    "rieszspec.polyroots": "polyroots",
    "rieszspec.riesz": "riesz",
    "rieszspec.instances.qn": "instances.qn",
    "rieszspec.instances.pl": "instances.pl",
    "rieszspec.instances.herm": "instances.herm",
    "rieszspec.lattice": "lattice",
    "rieszspec.spectrum": "spectrum",
    "rieszspec.falgebra": "falgebra",
    "rieszspec.serialize": "serialize",
    "rieszspec.cli": "cli",
}

DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__", "__call__"}
EXTRA = {"falgebra._sqrt_core"}
ALWAYS_SPAN = {"instances.herm.CommutingAlgebra.__init__", "lattice.CoverCertificate.verify"}

# pseudo context open while any square root (sqrt_psd or abs_element) runs
ROOT = "falgebra.root"
ROOTS = ("falgebra.sqrt_psd", "falgebra.abs_element")
# calls of the key counted when the context function is open somewhere up the stack
IN_CONTEXT = {
    "instances.qn.QnSpace.leq": ("lattice.precedes", "leq_in_precedes"),
    "instances.pl.PLSpace.leq": ("lattice.precedes", "leq_in_precedes"),
    "instances.herm.HermSpace.leq": ("lattice.precedes", "leq_in_precedes"),
    "polyroots.poly_gcd": ("instances.herm.CommutingAlgebra.value_sign", "gcd_in_value_sign"),
    "riesz.LocatedCut.approx": ("spectrum.PointState.eval", "approx_in_eval"),
    "spectrum.pos_or_below": ("spectrum.epsilon_net", "pos_in_net"),
    "exact.psd_check": (ROOT, "psd_in_root"),
}
WATCHED = {ctx for ctx, _ in IN_CONTEXT.values()}


def _sos_bits(parts_and_remainder) -> int:
    return max(
        v.denominator.bit_length()
        for e in parts_and_remainder
        for row in e.matrix.entries
        for v in row
    )


def _hook_net(t: "Tracer", res) -> None:
    t.extra["net_points"] += len(res.points)


def _hook_sqrt(t: "Tracer", res) -> None:
    t.extra["sqrt_iterations"] += res[1].iterations


def _hook_sos(t: "Tracer", res) -> None:
    bits = _sos_bits(res.parts + (res.remainder,))
    t.extra["sos_bits_max"] = max(t.extra["sos_bits_max"], bits)


HOOKS = {
    "spectrum.epsilon_net": _hook_net,
    "falgebra._sqrt_core": _hook_sqrt,
    "falgebra.sum_of_squares": _hook_sos,
}


class Tracer:
    """Counts, self times and spans of the wrapped rieszspec calls."""

    def __init__(self) -> None:
        self.on = False
        self.query = ""
        self.stack: list[list] = []  # [layer, start, child time, span index]
        self.spans: list[tuple | None] = []
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.span_self: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.extra: Counter = Counter()

    def wrap(self, fn, name: str, layer: str):
        always = name in ALWAYS_SPAN
        ctx = IN_CONTEXT.get(name)
        watch = [name] if name in WATCHED else []
        if name in ROOTS:
            watch.append(ROOT)
        hook = HOOKS.get(name)
        t = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not t.on:
                return fn(*args, **kwargs)
            t.calls[name] += 1
            t.layer_calls[layer] += 1
            if ctx is not None and t.active[ctx[0]]:
                t.extra[ctx[1]] += 1
            for w in watch:
                t.active[w] += 1
            stack = t.stack
            try:
                if stack and stack[-1][0] == layer and not always:
                    res = fn(*args, **kwargs)
                else:
                    idx = len(t.spans)
                    parent = stack[-1][3] if stack else -1
                    t.spans.append(None)
                    entry = [layer, clock(), 0.0, idx]
                    stack.append(entry)
                    try:
                        res = fn(*args, **kwargs)
                    finally:
                        end = clock()
                        stack.pop()
                        dur = end - entry[1]
                        own = dur - entry[2]
                        t.layer_self[layer] += own
                        t.span_self[name] += own
                        if stack:
                            stack[-1][2] += dur
                        t.spans[idx] = (name, entry[1], end, parent, t.query)
            finally:
                for w in watch:
                    t.active[w] -= 1
            if hook is not None:
                hook(t, res)
            return res

        return traced

    def install(self) -> int:
        """Wrap every layer and rebind the wrappers; returns the number wrapped."""
        replaced: dict[int, object] = {}
        methods = 0
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") or name in EXTRA:
                        replaced[id(obj)] = (obj, self.wrap(obj, name, layer))
                elif (inspect.isclass(obj) and obj.__module__ == modname
                      and not issubclass(obj, BaseException)):
                    methods += self._wrap_class(obj, layer)
        for mod in [m for n, m in sys.modules.items() if n.startswith("rieszspec")]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(replaced) + methods

    def _wrap_class(self, cls, layer: str) -> int:
        is_dataclass = "__dataclass_fields__" in vars(cls)
        count = 0
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and is_dataclass:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw) and not getattr(raw, "__isabstractmethod__", False):
                setattr(cls, attr, self.wrap(raw, name, layer))
            else:
                continue
            count += 1
        return count

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts, self times and waste ratios, as (value, unit)."""
        c, x = self.calls, self.extra

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS.values():
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (self.layer_self[layer], "s")
        verify_s = self.span_self["lattice.CoverCertificate.verify"]
        roots = c["falgebra.sqrt_psd"] + c["falgebra.abs_element"]
        out.update({
            "exact.psd_check.calls": (c["exact.psd_check"], "count"),
            "exact.matmul.calls": (c["exact.RationalMatrix.__matmul__"], "count"),
            "polyroots.poly_gcd.calls": (c["polyroots.poly_gcd"], "count"),
            "polyroots.refine_root.calls": (c["polyroots.refine_root"], "count"),
            "instances.herm.value_sign.calls": (c["instances.herm.CommutingAlgebra.value_sign"], "count"),
            "instances.herm.algebra_init.self_s": (self.span_self["instances.herm.CommutingAlgebra.__init__"], "s"),
            "instances.pl.join.calls": (c["instances.pl.PLSpace.join"], "count"),
            "riesz.cut_approx.calls": (c["riesz.LocatedCut.approx"], "count"),
            "lattice.precedes.calls": (c["lattice.precedes"], "count"),
            "lattice.search.self_s": (self.layer_self["lattice"] - verify_s, "s"),
            "lattice.verify.self_s": (verify_s, "s"),
            "spectrum.eval.calls": (c["spectrum.PointState.eval"], "count"),
            "spectrum.net.points": (x["net_points"], "count"),
            "falgebra.sqrt.iterations": (x["sqrt_iterations"], "count"),
            "falgebra.sos.out_bits_max": (x["sos_bits_max"], "count"),
            "lattice.leq_per_precedes": (ratio(x["leq_in_precedes"], c["lattice.precedes"]), "ratio"),
            "instances.herm.gcd_per_value_sign": (
                ratio(x["gcd_in_value_sign"], c["instances.herm.CommutingAlgebra.value_sign"]), "ratio"),
            "spectrum.cut_queries_per_eval": (ratio(x["approx_in_eval"], c["spectrum.PointState.eval"]), "ratio"),
            "spectrum.net.points_per_pos_test": (ratio(x["net_points"], x["pos_in_net"]), "ratio"),
            "falgebra.psd_checks_per_root": (ratio(x["psd_in_root"], roots), "ratio"),
        })
        return out
