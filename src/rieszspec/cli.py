"""Command line front end.

Every invocation reads exact rational flags ("1/1024", never decimals),
dispatches to the library, and prints one report on standard output.
Reports embed the package version and the fully resolved configuration,
and are rendered canonically so identical inputs give identical bytes.

Exit codes: 0 success, 1 usage or parse problems, 2 a certified
property violation (a failed verification, a below outcome where a
positive one was required, a failing audit) or a result whose exact
rationals are too long to render.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .exact import RenderError, format_rational, parse_rational
from .falgebra import abs_element, gelfand_check, sqrt_psd, sum_of_squares
from .instances import HermSpace
from .lattice import (
    CoverCertificate,
    ShrinkResult,
    cover_interval,
    cover_range,
    grid_cells,
    shrink_cover,
)
from .riesz import CertificateError, MarginCollapseError, ToleranceError, norm_cut
from .serialize import (
    attach,
    canonical_json,
    cover_recipe_to_json,
    element_to_json,
    net_to_json,
    render_csv,
    space_for,
)
from .spectrum import Below, Pos, epsilon_net, point_new, pos_or_below, sup_approx

COMMANDS = (
    "sup", "pos", "point", "net", "norm", "check-lattice",
    "sqrt", "abs", "join", "sos", "gelfand", "selftest",
)


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Wraps a usage error so main can map it to exit code 1."""


def _build_parser() -> _Parser:
    p = _Parser(prog="rieszspec", description=__doc__, add_help=True)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("level", nargs="?", default=None,
                   help="selftest level: quick or full")
    p.add_argument("--input", help="path to an element, algebra or certificate file")
    p.add_argument("--input2", help="path to a second element file")
    p.add_argument("--tol", default="1/1024", help="tolerance as p/q")
    p.add_argument("--eps", default="1/64", help="resolution as p/q")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-iter", type=int, default=64, dest="max_iter")
    return p


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _need_input(ns) -> dict:
    if not ns.input:
        raise SystemExit2(f"{ns.command} requires --input")
    return _load_json(ns.input)


def _elements(ns, objs: Sequence[dict]):
    space = space_for(objs)
    return space, [attach(space, o) for o in objs]


def _run_sup(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    res["sup"] = format_rational(sup_approx(space, a, parse_rational(ns.eps)))
    return 0


def _run_norm(ns, res: dict) -> int:
    _, (a,) = _elements(ns, [_need_input(ns)])
    res["norm"] = format_rational(norm_cut(a).approx(parse_rational(ns.eps)))
    return 0


def _run_pos(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    r = parse_rational(ns.eps)
    out = pos_or_below(space, a, r)
    if isinstance(out, Pos):
        res["outcome"] = "pos"
        res["witness"] = format_rational(out.witness)
        ok = space.sup_cut(a).approx(out.witness / 2) > out.witness / 2
    else:
        res["outcome"] = "below"
        res["bound"] = format_rational(out.bound)
        ok = space.leq(a, space.scale(out.bound, space.unit())) is not False
    res["verified"] = ok
    return 0 if ok else 2


def _run_point(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    eps = parse_rational(ns.eps)
    out = pos_or_below(space, a, eps)
    if isinstance(out, Below):
        res["error"] = "element is not certifiably positive"
        res["bound"] = format_rational(out.bound)
        return 2
    hi = Fraction(space.unit_bound(a) + 1)
    pt = point_new(space, [(a, out.witness / 2, hi)])
    res["margin"] = format_rational(pt.margin)
    res["eval"] = {"input": format_rational(pt.eval(a, eps))}
    res["constraints"] = [
        {"lo": format_rational(lo), "hi": format_rational(hi2)}
        for _, lo, hi2 in pt.constraints
    ]
    return 0


def _run_net(ns, res: dict) -> int:
    objs = [_need_input(ns)]
    if ns.input2:
        objs.append(_load_json(ns.input2))
    space, elems = _elements(ns, objs)
    net = epsilon_net(space, elems, parse_rational(ns.eps))
    res.update(net_to_json(net))
    return 0


def _run_check_lattice(ns, res: dict) -> int:
    obj = _need_input(ns)
    if obj.get("certificate") == "cover":
        # replay: rebuild the recipe's cells and verify both claims with the
        # recipe's multipliers, without searching for multipliers again
        space, (a,) = _elements(ns, [obj["element"]])
        p, q = parse_rational(obj["p"]), parse_rational(obj["q"])
        _, cells = grid_cells(space, a, p, q, parse_rational(obj["width"]))
        target = space.in_interval(a, p, q)
        grid_ok = CoverCertificate(
            space, target, tuple(cells), int(obj["multiplier"])
        ).verify()
        shrink_ok = ShrinkResult(
            parse_rational(obj["shrink"]["r"]),
            int(obj["shrink"]["multiplier"]),
            space,
            tuple(cells),
        ).cert.verify()
        res["gridVerified"] = grid_ok
        res["shrinkVerified"] = shrink_ok
        return 0 if grid_ok and shrink_ok else 2
    space, (a,) = _elements(ns, [obj])
    p, q, range_cert = cover_range(space, a)
    width = parse_rational(ns.eps)
    grid, cells, ranges, cert = cover_interval(space, a, Fraction(p), Fraction(q), width)
    shrunk = shrink_cover(space, a, grid, cells, ranges)
    res.update(
        cover_recipe_to_json(
            obj, Fraction(p), Fraction(q), width, cert.multiplier,
            shrunk.r, shrunk.multiplier,
        )
    )
    res["rangeMultiplier"] = range_cert.multiplier
    return 0


def _herm_only(space, what: str) -> HermSpace:
    if not isinstance(space, HermSpace):
        raise SystemExit2(f"{what} expects a matrix element")
    return space


def _run_sqrt(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    _herm_only(space, "sqrt")
    s, trace = sqrt_psd(a, parse_rational(ns.tol))
    res["S"] = s.matrix.to_json()
    res["errBound"] = format_rational(s.err)
    res["iterations"] = trace.iterations
    res["majorant"] = [format_rational(r) for r in trace.majorant]
    return 0


def _run_abs(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    _herm_only(space, "abs")
    out = abs_element(a, parse_rational(ns.tol))
    res["abs"] = out.matrix.to_json()
    res["errBound"] = format_rational(out.err)
    return 0


def _run_join(ns, res: dict) -> int:
    obj = _need_input(ns)
    if not ns.input2:
        raise SystemExit2("join requires --input2")
    space, (a, b) = _elements(ns, [obj, _load_json(ns.input2)])
    if isinstance(space, HermSpace):
        joined = space.join_with_tol(a, b, parse_rational(ns.tol))
    else:
        joined = space.join(a, b)
    res["join"] = element_to_json(joined)
    return 0


def _run_sos(ns, res: dict) -> int:
    space, (a,) = _elements(ns, [_need_input(ns)])
    _herm_only(space, "sos")
    tol = parse_rational(ns.tol)
    # rescale by a square so the identity survives unscaling exactly
    j = 0
    while space.unit_bound(a) > 4 ** j:
        j += 1
    scaled = space.scale(Fraction(1, 4 ** j), a)
    out = sum_of_squares(scaled, tol, max_iter=ns.max_iter)
    res["squares"] = [p.matrix.scale(Fraction(2 ** j)).to_json() for p in out.parts]
    res["residual"] = out.remainder.matrix.scale(Fraction(4 ** j)).to_json()
    res["bound"] = format_rational(out.bound * 4 ** j)
    res["iterations"] = out.steps
    return 0


def _run_gelfand(ns, res: dict) -> int:
    obj = _need_input(ns)
    gens = obj.get("generators")
    if not gens:
        raise SystemExit2("gelfand expects an algebra file with generators")
    from .exact import RationalMatrix

    space = HermSpace([RationalMatrix.from_json(g) for g in gens])
    elems = [space.element(g) for g in space.algebra.generators]
    rep = gelfand_check(space, elems, parse_rational(ns.eps))
    res["maxMultViolation"] = format_rational(rep.max_defect)
    res["pairsTested"] = rep.pairs
    res["defectBound"] = format_rational(rep.defect_bound)
    res["points"] = rep.points
    res["keyInequalityFailures"] = [
        {"i": i, "j": j, "r": format_rational(r)}
        for i, j, r in rep.key_inequality_failures
    ]
    res["ok"] = rep.ok
    return 0 if rep.ok else 2


def _run_selftest(ns, res: dict) -> int:
    from . import selftest

    level = ns.level or "quick"
    if level not in ("quick", "full"):
        raise SystemExit2("selftest level must be quick or full")
    res.update(selftest.run(level))
    return 0 if res["ok"] else 2


_RUNNERS = {
    "sup": _run_sup,
    "norm": _run_norm,
    "pos": _run_pos,
    "point": _run_point,
    "net": _run_net,
    "check-lattice": _run_check_lattice,
    "sqrt": _run_sqrt,
    "abs": _run_abs,
    "join": _run_join,
    "sos": _run_sos,
    "gelfand": _run_gelfand,
    "selftest": _run_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.level is not None and ns.command != "selftest":
            raise SystemExit2(f"unexpected positional argument {ns.level!r}")
        for flag in ("tol", "eps"):
            if parse_rational(getattr(ns, flag)) <= 0:
                raise SystemExit2(f"--{flag} must be positive")
        if ns.seed < 0:
            raise SystemExit2("--seed must be nonnegative")
        config = {
            "command": ns.command,
            "input": ns.input or "",
            "input2": ns.input2 or "",
            "tol": ns.tol,
            "eps": ns.eps,
            "seed": ns.seed,
            "format": ns.format,
            "maxIter": ns.max_iter,
        }
        if ns.command == "selftest":
            config["level"] = ns.level or "quick"
        result: dict = {}
        code = _RUNNERS[ns.command](ns, result)
    except SystemExit2 as exc:
        print(f"rieszspec: {exc}", file=sys.stderr)
        return 1
    except RenderError as exc:
        # a ValueError, but not a usage problem: the request was valid
        print(f"rieszspec: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"rieszspec: {exc}", file=sys.stderr)
        return 1
    except (ToleranceError, MarginCollapseError, CertificateError) as exc:
        print(f"rieszspec: {exc}", file=sys.stderr)
        return 2
    report = {"version": __version__, "config": config, "result": result}
    if ns.format == "csv":
        sys.stdout.write(render_csv(report))
    else:
        sys.stdout.write(canonical_json(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
