"""File formats: elements, algebra files, certificates, nets.

Rationals travel as "p/q" strings, matrices as {"dim": n, "entries":
[[..], ..]}, elements as tagged objects with a "space" field.  A matrix
element file may carry its algebra's "generators"; otherwise the algebra
generated by the element's own matrix is used.  Cover certificates
serialize as reconstruction recipes (element, range, grid width and the
multipliers) rather than as opaque element dumps, so a verifier rebuilds
the cells deterministically and replays the single order test.

``canonical_json`` fixes key order and spacing, which is what makes CLI
reports byte identical run to run.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .exact import RationalMatrix, format_rational, parse_rational
from .instances import HermElement, HermSpace, PLElement, PLSpace, QnElement, QnSpace
from .riesz import RieszElement, RieszSpace

__all__ = [
    "canonical_json",
    "element_to_json",
    "space_for",
    "attach",
    "net_to_json",
    "cover_recipe_to_json",
    "render_csv",
    "flatten_report",
]


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def element_to_json(elem: RieszElement) -> dict:
    if isinstance(elem, QnElement):
        return {"space": "qn", "coords": [format_rational(c) for c in elem.coords]}
    if isinstance(elem, PLElement):
        return {
            "space": "pl",
            "breakpoints": [
                [format_rational(x), format_rational(y)] for x, y in elem.points
            ],
        }
    if isinstance(elem, HermElement):
        if elem.matrix is None:
            raise ValueError("materialize lattice results before serializing")
        out = {
            "space": "herm",
            "matrix": elem.matrix.to_json(),
            "err": format_rational(elem.err),
        }
        gens = elem.space.algebra.generators
        if gens:
            out["generators"] = [g.to_json() for g in gens]
        return out
    raise TypeError(f"cannot serialize {type(elem).__name__}")


def space_for(objs: Sequence[dict]) -> RieszSpace:
    """One space able to host every element described in objs."""
    kinds = {o.get("space") for o in objs}
    if len(kinds) != 1:
        raise ValueError(f"elements from different spaces: {sorted(kinds)}")
    kind = kinds.pop()
    if kind == "qn":
        ns = {len(o["coords"]) for o in objs}
        if len(ns) != 1:
            raise ValueError("qn elements of different lengths")
        return QnSpace(ns.pop())
    if kind == "pl":
        return PLSpace()
    if kind == "herm":
        gens: list[RationalMatrix] = []
        for o in objs:
            for g in o.get("generators", []):
                m = RationalMatrix.from_json(g)
                if m not in gens:
                    gens.append(m)
        for o in objs:
            m = RationalMatrix.from_json(o["matrix"])
            if m not in gens:
                gens.append(m)
        return HermSpace(gens)
    raise ValueError(f"unknown space tag {kind!r}")


def attach(space: RieszSpace, obj: dict) -> RieszElement:
    """Build the element described by obj inside an existing space."""
    kind = obj.get("space")
    if kind == "qn":
        if not isinstance(space, QnSpace):
            raise ValueError("element tagged qn needs a QnSpace")
        return space.element([parse_rational(c) for c in obj["coords"]])
    if kind == "pl":
        if not isinstance(space, PLSpace):
            raise ValueError("element tagged pl needs a PLSpace")
        return space.element(
            [(parse_rational(x), parse_rational(y)) for x, y in obj["breakpoints"]]
        )
    if kind == "herm":
        if not isinstance(space, HermSpace):
            raise ValueError("element tagged herm needs a HermSpace")
        return space.element(
            RationalMatrix.from_json(obj["matrix"]),
            parse_rational(obj.get("err", "0")),
        )
    raise ValueError(f"unknown space tag {kind!r}")


def net_to_json(net, names: Sequence[str] | None = None) -> dict:
    """{"eps": .., "points": [{"id": .., "evals": {name: value}}]}."""
    if names is None:
        names = [f"elem{i}" for i in range(len(net.elements))]
    points = []
    for pt in net.points:
        evals = {
            names[i]: format_rational(pt.eval(e, net.eps / 4))
            for i, e in enumerate(net.elements)
        }
        points.append({"id": pt.ident, "evals": evals})
    return {"eps": format_rational(net.eps), "points": points}


def cover_recipe_to_json(
    elem_obj: dict,
    p: Fraction,
    q: Fraction,
    width: Fraction,
    multiplier: int,
    shrink_r: Fraction,
    shrink_multiplier: int,
) -> dict:
    return {
        "certificate": "cover",
        "element": elem_obj,
        "p": format_rational(Fraction(p)),
        "q": format_rational(Fraction(q)),
        "width": format_rational(Fraction(width)),
        "multiplier": multiplier,
        "shrink": {
            "r": format_rational(Fraction(shrink_r)),
            "multiplier": shrink_multiplier,
        },
    }


def flatten_report(obj: object, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-key flattening used by the CSV renderer."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(flatten_report(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(flatten_report(v, f"{prefix}{i}."))
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, bool):
            rows.append((key, "true" if obj else "false"))
        else:
            rows.append((key, str(obj)))
    return rows


def render_csv(report: dict) -> str:
    lines = ["key,value"]
    for key, value in flatten_report(report):
        if "," in value or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"
