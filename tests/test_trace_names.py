"""Every function name the bench tracer counts names a function in src/.

``bench/trace.py`` wraps functions by their dotted names and reads its
per-layer metrics by those names, so a rename in the package would not
fail the benchmark: the metric would read 0.  This test reads the
tracer's source and resolves each name it counts, through the tracer's
own layer table, to a function or method of the package.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def _strings(node: ast.AST | None) -> list[str]:
    """The string constants directly in a literal set, tuple or list."""
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return [e.value for e in node.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return []


def counted_names() -> tuple[dict[str, str], set[str]]:
    """The tracer's layer table (module to layer) and every function name
    it counts: EXTRA, ALWAYS_SPAN, ROOTS, the keys of IN_CONTEXT and HOOKS
    with IN_CONTEXT's context names, and the keys it reads from its call
    counts and span self times."""
    tree = ast.parse(TRACE.read_text())
    consts = {
        t.id: n.value
        for n in tree.body
        if isinstance(n, ast.Assign)
        for t in n.targets
        if isinstance(t, ast.Name)
    }
    layers = ast.literal_eval(consts["LAYERS"])
    names = set(_strings(consts["EXTRA"]) + _strings(consts["ALWAYS_SPAN"]) + _strings(consts["ROOTS"]))
    names.update(k.value for k in consts["HOOKS"].keys)
    for key, (ctx, _) in zip(consts["IN_CONTEXT"].keys, (v.elts for v in consts["IN_CONTEXT"].values)):
        # the context is a name, or ROOT, the pseudo context of ROOTS
        names.add(key.value)
        if isinstance(ctx, ast.Constant):
            names.add(ctx.value)
    for n in ast.walk(tree):
        # c["..."] and self.span_self["..."] in layer_metrics
        if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant):
            target = n.value
            if (isinstance(target, ast.Name) and target.id == "c") or (
                isinstance(target, ast.Attribute) and target.attr == "span_self"
            ):
                names.add(n.slice.value)
    return layers, names


def _resolve(layers: dict[str, str], name: str):
    """The function the dotted name stands for, or None."""
    for module, layer in sorted(layers.items(), key=lambda kv: -len(kv[1])):
        if name.startswith(layer + "."):
            obj = importlib.import_module(module)
            for part in name[len(layer) + 1 :].split("."):
                obj = getattr(obj, part, None)
            return obj if inspect.isfunction(obj) else None
    return None


def test_every_counted_name_resolves():
    layers, names = counted_names()
    assert len(names) >= 20
    assert [n for n in sorted(names) if _resolve(layers, n) is None] == []


def test_a_renamed_function_is_caught():
    layers, _ = counted_names()
    assert _resolve(layers, "polyroots.poly_gcd") is not None
    assert _resolve(layers, "polyroots.poly_gcd_renamed") is None
    assert _resolve(layers, "instances.herm.CommutingAlgebra.value_sign") is not None
    assert _resolve(layers, "instances.herm.CommutingAlgebra.sign") is None
    assert _resolve(layers, "exact.RationalMatrix") is None  # a class, not a function
