"""The benchmark workloads: seeded rounds of queries, each with an oracle.

A round is generated from the seed and the round number alone
(``inputs.round_rng``).  ``setup`` builds the round's spaces, algebras and
elements through rieszspec and is the only part timed as set-up.  Each
query is one timed call (or one short chain of calls that together give
one answer) into the public API; its ``check`` runs untimed and compares
the answer with an oracle that never calls the package's decision
procedures.  A round builds fresh objects, so no query reuses the caches
of an earlier round.

Library code is always reached through module attributes at call time
(``spectrum.sup_approx``, never a name bound at import), so tracing
wrappers installed later are seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import inputs as gen
import oracle as orc
from oracle import FLOAT_MARGIN

from rieszspec import cli, exact, falgebra, lattice, spectrum
from rieszspec.instances import herm, pl, qn

SQRT_OF = {F(1, 4): F(1, 2), F(1): F(1), F(9, 4): F(3, 2), F(4): F(2), F(25, 4): F(5, 2)}


@dataclass
class Query:
    """One answer: ``run`` is timed, ``check`` returns None or a mismatch."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    report: Callable[[Any], str] | None = None  # CLI report text for the determinism gate


def _ok(cond: bool, msg: str) -> str | None:
    return None if cond else msg


def _margin(x) -> float:
    """Slack for comparisons against a float oracle value; exact values get none."""
    return FLOAT_MARGIN if isinstance(x, float) else 0


def check_sup(hi: F, sup, eps: F) -> str | None:
    m = _margin(sup)
    return _ok(sup - m <= hi < sup + eps + m, f"sup_approx {hi} not within {eps} above {sup}")


def check_audit(rep, norm, eps: F) -> str | None:
    """Norm audit: the report's own claim, then both readings against the true norm."""
    if not rep.ok or rep.points < 1:
        return f"audit not ok: norm {rep.norm_value}, net {rep.net_value}, {rep.points} points"
    m = _margin(norm)
    if not norm - m <= rep.norm_value < norm + eps / 2 + m:
        return f"norm reading {rep.norm_value} not within {eps}/2 above {norm}"
    if not norm - 2 * eps - m <= rep.net_value <= norm + eps / 4 + m:
        return f"net reading {rep.net_value} inconsistent with norm {norm}"
    return None


# ----- coords-audit ---------------------------------------------------------


# Sup probes come in a ladder of sizes, so their latencies spread evenly over
# about 2.3 to 4.6 ms around the median answer; likewise the three PL audits
# (about 0.55 to 0.95 s), which hold the p90.  A percentile inside one narrow
# class jumps between the host's fast and slow periods, while one on a band
# about twice as wide as that speed step moves in proportion, like a mean.
# Much wider bands make the percentile depend on which inputs a seed drew.
QN_PROBE_DIMS = (32, 40, 48, 56, 64)
PL_PROBE_KNOTS = (6, 7, 8, 9, 10, 11, 12)
PL_AUDIT_KNOTS = (3, 4, 5)


class CoordsAudit:
    """Qn and PL norm audits, a CLI cover round trip, a ladder of sup probes."""

    name = "coords-audit"

    def generate(self, rng, rnd: int) -> dict:
        trip = ("qn", gen.qn_coords(rng, 3, 3)) if rnd % 2 == 0 else ("pl", gen.pl_points(rng, 3, 3))
        pl_audits = []
        for knots in PL_AUDIT_KNOTS:
            pts = gen.pl_points(rng, knots, 1)
            ys = gen.spanning(rng, [y for _, y in pts], 1)
            pl_audits.append([(x, y) for (x, _), y in zip(pts, ys)])
        return {
            "qn_audit": gen.spanning(rng, gen.qn_coords(rng, 3 + rnd % 2, 4), 4),
            "pl_audits": pl_audits,
            "trip": trip,
            "qn_probes": [gen.qn_coords(rng, n, 6) for n in QN_PROBE_DIMS],
            "pl_probes": [gen.pl_points(rng, k, 4) for k in PL_PROBE_KNOTS],
        }

    def setup(self, d: dict) -> dict:
        q = {n: qn.QnSpace(n) for n in {len(c) for c in [d["qn_audit"], *d["qn_probes"]]}}
        p = pl.PLSpace()
        return {
            "qn_audit": (q[len(d["qn_audit"])], q[len(d["qn_audit"])].element(d["qn_audit"])),
            "pl_audits": [(p, p.element(pts)) for pts in d["pl_audits"]],
            "qn_probes": [(q[len(c)], q[len(c)].element(c)) for c in d["qn_probes"]],
            "pl_probes": [(p, p.element(pts)) for pts in d["pl_probes"]],
        }

    def queries(self, d: dict, env: dict, tmp: Path, tag: str) -> list[Query]:
        out = []
        sp, a = env["qn_audit"]
        out.append(self._audit("qn-audit", sp, a, max(abs(c) for c in d["qn_audit"]), F(1, 64)))
        for (sp, a), pts in zip(env["pl_audits"], d["pl_audits"]):
            out.append(self._audit("pl-audit", sp, a, max(abs(y) for _, y in pts), F(1, 16)))
        out.append(self._trip(d["trip"], tmp, tag))
        eps = F(1, 64)
        for (sp, a), c in zip(env["qn_probes"], d["qn_probes"]):
            out.append(self._probe("qn-sup", sp, a, max(c), eps))
        for (sp, a), pts in zip(env["pl_probes"], d["pl_probes"]):
            out.append(self._probe("pl-sup", sp, a, max(y for _, y in pts), eps))
        return out

    @staticmethod
    def _audit(kind, sp, a, norm, eps) -> Query:
        return Query(kind, lambda: spectrum.stone_yosida_check(sp, a, eps),
                     lambda rep: check_audit(rep, norm, eps))

    @staticmethod
    def _probe(kind, sp, a, sup, eps) -> Query:
        return Query(kind, lambda: spectrum.sup_approx(sp, a, eps),
                     lambda hi: check_sup(hi, sup, eps))

    @staticmethod
    def _trip(trip, tmp: Path, tag: str) -> Query:
        kind, data = trip
        if kind == "qn":
            obj = {"space": "qn", "coords": [str(c) for c in data]}
            values = list(data)
        else:
            obj = {"space": "pl", "breakpoints": [[str(x), str(y)] for x, y in data]}
            values = [y for _, y in data]
        elem = tmp / f"{tag}-elem.json"
        recipe = tmp / f"{tag}-recipe.json"
        elem.write_text(json.dumps(obj))

        def run():
            code1, out1 = _cli(["check-lattice", "--input", str(elem), "--eps", "1/2"])
            if code1 == 0:
                recipe.write_text(json.dumps(json.loads(out1)["result"]))
            code2, out2 = _cli(["check-lattice", "--input", str(recipe)])
            return code1, out1, code2, out2

        def check(res):
            code1, out1, code2, out2 = res
            if code1 != 0 or code2 != 0:
                return f"check-lattice exit codes {code1}, {code2}"
            emitted = json.loads(out1)["result"]
            p, q = F(emitted["p"]), F(emitted["q"])
            if not (p < min(values) and max(values) < q):
                return f"range ({p}, {q}) does not contain [{min(values)}, {max(values)}]"
            if emitted["multiplier"] < 1 or F(emitted["shrink"]["r"]) <= 0:
                return "cover recipe has no positive multiplier or shrink"
            verified = json.loads(out2)["result"]
            return _ok(verified.get("gridVerified") is True and verified.get("shrinkVerified") is True,
                       f"re-verification failed: {verified}")

        return Query(f"{kind}-cover-trip", run, check, report=lambda res: res[1] + res[3])


def _cli(argv: list[str]) -> tuple[int, str]:
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, buf.getvalue()


# ----- herm-order -----------------------------------------------------------


def _rm(m: orc.Matrix):
    return exact.RationalMatrix.from_rows(m)


class HermOrder:
    """Order queries on 3x3 algebras with rational and irrational spectra."""

    name = "herm-order"

    def generate(self, rng, rnd: int) -> dict:
        small = [F(1, 4), F(1), F(9, 4)]
        # every spectrum holds 1/4 and 9/4, so an audit's range, and with it
        # the size of its net, is fixed; the first has three distinct values,
        # so the algebra always has three characters
        spectra = [list(small), [F(1, 4), F(9, 4), rng.choice(small)]]
        for sp in spectra:
            rng.shuffle(sp)
        frame, members = gen.family(rng, 3, spectra)
        amat, eigs = gen.irrational_symmetric(rng)
        # two members with the same spectrum in opposite order: never equal
        gspectra = [[F(1, 4), F(9, 4)]]
        rng.shuffle(gspectra[0])
        gspectra.append(gspectra[0][::-1])
        _, gmembers = gen.family(rng, 2, gspectra)
        # thresholds for irrational probes, kept clear of every eigenvalue
        cuts = []
        while len(cuts) < 3:
            c = gen.frac(rng, 4, 4)
            if gen.far_from(eigs, float(c)) and gen.far_from([e * e for e in eigs], float(c) + 1):
                cuts.append(c)
        return {
            "spectra": spectra, "members": members,
            "amat": amat, "eigs": eigs,
            "gspectra": gspectra, "gmembers": gmembers,
            "cuts": cuts,
            "shifts": [gen.frac(rng, 3, 2) for _ in range(9)],
            # audit 3A/2k with k = ceil(max |eigenvalue|): values in [-3/2, 3/2], a fixed
            # net range that makes this audit cost about as much as the rational ones
            "irr_scale": F(3, 2 * math.ceil(max(abs(e) for e in eigs))),
        }

    def setup(self, d: dict) -> dict:
        hr = herm.HermSpace([_rm(m) for m in d["members"]])
        hi = herm.HermSpace([_rm(d["amat"])])
        hg = herm.HermSpace([_rm(m) for m in d["gmembers"]])
        a = hi.element(_rm(d["amat"]))
        return {
            "hr": hr, "r": [hr.element(_rm(m)) for m in d["members"]],
            "hi": hi, "a": a, "a2": hi.multiply(a, a),
            "hg": hg, "g": [hg.element(_rm(m)) for m in d["gmembers"]],
        }

    def queries(self, d: dict, env: dict, tmp: Path, tag: str) -> list[Query]:
        hr, (r0, r1) = env["hr"], env["r"]
        hi, a, a2 = env["hi"], env["a"], env["a2"]
        s0, s1 = d["spectra"]
        eigs = d["eigs"]
        c0, c1, c2 = d["cuts"]
        t1, t2 = d["shifts"][:2]
        k = d["irr_scale"]
        e16, e64 = F(1, 16), F(1, 64)
        out = []

        def shifted(hs, x, c):
            return hs.add(x, hs.scale(-c, hs.unit()))

        # heavy: three norm audits and one multiplicativity audit, which hold the p90
        for r, sp in ((r0, s0), (r1, s1)):
            out.append(Query("herm-audit", lambda r=r: spectrum.stone_yosida_check(hr, shifted(hr, r, 2), e16),
                             lambda rep, sp=sp: check_audit(rep, max(abs(v - 2) for v in sp), e16)))
        out.append(Query("herm-audit-irr",
                         lambda: spectrum.stone_yosida_check(hi, hi.scale(k, a), e16),
                         lambda rep: check_audit(rep, max(abs(v) for v in eigs) * float(k), e16)))
        out.append(self._gelfand(env, d))
        # medium (p50): seed a point, then evaluate a second element there
        for t in d["shifts"]:
            cshift = max(s0) - F(1, 2) - abs(t) / 4  # seed sup lands in [1/2, 5/4]
            chars_a = [v - cshift for v in s0]
            chars_b = [u + t * v for u, v in zip(s1, s0)]
            out.append(self._point(hr, lambda c=cshift: shifted(hr, r0, c),
                                   lambda t=t: hr.add(r1, hr.scale(t, r0)), chars_a, chars_b, False))
        cs = F(math.floor((max(eigs) - 0.5) * 8), 8)  # seed sup lands in (1/2, 5/8]
        for c in d["cuts"]:
            chars_a = [v - float(cs) for v in eigs]
            chars_b = [v * v - float(c) for v in eigs]
            out.append(self._point(hi, lambda cs=cs: shifted(hi, a, cs),
                                   lambda c=c: shifted(hi, a2, c), chars_a, chars_b, True))
        # cheap: sup probes and dominance relations
        out.append(Query("herm-sup", lambda: spectrum.sup_approx(hr, hr.add(r0, r1), e64),
                         lambda hi_: check_sup(hi_, max(u + v for u, v in zip(s0, s1)), e64)))
        out.append(Query("herm-sup-irr", lambda: spectrum.sup_approx(hi, shifted(hi, a, c0), e64),
                         lambda hi_: check_sup(hi_, max(eigs) - float(c0), e64)))
        xr = [v - (t1 + 2) for v in s0]
        yr = [v - (t2 + 2) for v in s1]
        out.append(Query("herm-below",
                         lambda: lattice.d_of(hr, shifted(hr, r0, t1 + 2)).below(lattice.d_of(hr, shifted(hr, r1, t2 + 2))),
                         lambda b: _check_below(b, xr, yr)))
        xi = [v - float(c1) for v in eigs]
        yi = [v * v - float(c2) - 1 for v in eigs]
        out.append(Query("herm-below-irr",
                         lambda: lattice.d_of(hi, shifted(hi, a, c1)).below(lattice.d_of(hi, shifted(hi, a2, c2 + 1))),
                         lambda b: _check_below(b, xi, yi)))
        return out

    @staticmethod
    def _point(hs, seed_elem, probe_elem, chars_a, chars_b, is_float) -> Query:
        eps = F(1, 16)

        def run():
            x = seed_elem()
            o = spectrum.pos_or_below(hs, x, F(1, 4))
            if not isinstance(o, spectrum.Pos):
                return o, None, None, None
            hi_ = F(hs.unit_bound(x) + 1)
            pt = spectrum.point_new(hs, [(x, o.witness / 2, hi_)])
            return o, o.witness / 2, hi_, pt.eval(probe_elem(), eps)

        def check(res):
            o, lo, hi_, v = res
            if v is None:
                return f"seed element not certified positive: {o}"
            m = FLOAT_MARGIN if is_float else 0
            for xa, xb in zip(chars_a, chars_b):
                if lo - m < xa < hi_ + m and abs(v - xb) <= eps / 2 + m:
                    return None
            return f"point value {v} matches no character inside ({lo}, {hi_})"

        return Query("herm-point-irr" if is_float else "herm-point", run, check)

    @staticmethod
    def _gelfand(env: dict, d: dict) -> Query:
        hg, g = env["hg"], env["g"]
        eps = F(1, 16)
        norms = [max(abs(v) for v in s) for s in d["gspectra"]]

        def check(rep):
            if not rep.ok or rep.key_inequality_failures or rep.pairs != 2 or rep.points < 1:
                return f"gelfand audit failed: {rep}"
            slack = 2 * eps * (1 + sum(math.ceil(n) + 1 for n in norms))
            return _ok(rep.max_defect <= rep.defect_bound <= slack,
                       f"defect {rep.max_defect} / bound {rep.defect_bound} above {slack}")

        return Query("herm-gelfand", lambda: falgebra.gelfand_check(hg, list(g), eps), check)


def _check_below(got: bool, x: list, y: list) -> str | None:
    want = all(yv > 0 for xv, yv in zip(x, y) if xv > 0)
    return _ok(got == want, f"d_of relation {got}, expected {want}")


# ----- herm-calculus --------------------------------------------------------


class HermCalculus:
    """Materialized f-algebra answers, one algebra per query."""

    name = "herm-calculus"

    def generate(self, rng, rnd: int) -> dict:
        signed = [F(-2), F(-1, 2), F(1), F(3, 2)]
        halves = [F(1, 2), F(1), F(3, 2), F(2)]
        # spectra are drawn so each class scales alike: sqrt tops at 9/4 or 4,
        # singular abs at 3/2 or 2 in absolute value (one scaling step of 4 each)
        items = []
        for _ in range(3):
            eigs = gen.pick(rng, gen.SQUARES[:4], 2) + [rng.choice([F(9, 4), F(4)])]
            rng.shuffle(eigs)
            items.append(("sqrt", [eigs], 3, F(1, 1024)))
        for _ in range(2):
            items.append(("abs", [gen.pick(rng, signed, 2) + [F(-1, 2)]], 3, F(1, 1024)))
        for _ in range(3):
            # 0 in the spectrum: the sqrt iteration converges linearly in 1/tol
            big, other = rng.choice([F(3, 2), F(2)]), rng.choice(halves)
            sing = [F(0), big, -other] if rng.random() < 0.5 else [F(0), -big, other]
            rng.shuffle(sing)
            items.append(("abs", [sing], 3, F(1, 512)))
        # one tied character, so the join's absolute value is singular too
        a = gen.pick(rng, signed, 3)
        b = [a[0]] + [rng.choice([v for v in signed if v != x]) for x in a[1:]]
        items.append(("join", [a, b], 3, F(1, 256)))
        items.append(("sos", [gen.pick(rng, [F(1, 4), F(1, 2), F(3, 4), F(1)], 3)], 3, F(1, 16)))
        for dim in (3, 4):
            items.append(("product", [gen.pick(rng, gen.SQUARES, dim) for _ in range(2)], dim, None))
        out = []
        for kind, spectra, dim, tol in items:
            frame, members = gen.family(rng, dim, spectra)
            out.append({"kind": kind, "spectra": spectra, "frame": frame, "members": members, "tol": tol})
        out.append({"kind": "sos-generic", "members": [self._generic_2x2(rng)], "tol": F(1, 16)})
        return {"items": out}

    @staticmethod
    def _generic_2x2(rng) -> orc.Matrix:
        """Symmetric 2x2 with 0 <= m <= 1 and, generically, irrational spectrum."""
        while True:
            p = F(rng.randint(1, 6), 7)
            q = F(rng.randint(1, 4), 5)
            r = F(rng.choice([-1, 1]), rng.randint(3, 9))
            m = [[p, r], [r, q]]
            eye = orc.identity(2)
            if orc.is_psd(m) and orc.is_psd(orc.add(eye, m, F(-1))):
                return m

    def setup(self, d: dict) -> list:
        built = []
        for it in d["items"]:
            hs = herm.HermSpace([_rm(m) for m in it["members"]])
            built.append((hs, [hs.element(_rm(m)) for m in it["members"]]))
        return built

    def queries(self, d: dict, env: list, tmp: Path, tag: str) -> list[Query]:
        return [self._query(it, hs, elems) for it, (hs, elems) in zip(d["items"], env)]

    def _query(self, it: dict, hs, elems) -> Query:
        kind, tol = it["kind"], it["tol"]
        if kind == "sqrt":
            roots = [SQRT_OF[v] for v in it["spectra"][0]]
            lam = it["spectra"][0]

            def check(res):
                s, _trace = res
                diag = orc.frame_diagonal(it["frame"], _entries(s))
                if diag is None:
                    return "square root leaves the algebra"
                for dv, rv, lv in zip(diag, roots, lam):
                    if abs(dv - rv) > s.err or abs(dv * dv - lv) > tol:
                        return f"sqrt value {dv} vs {rv} (err {s.err}, tol {tol})"
                return None

            return Query("sqrt", lambda: falgebra.sqrt_psd(elems[0], tol), check)
        if kind == "abs":
            lam = it["spectra"][0]
            singular = any(v == 0 for v in lam)
            return Query("abs-singular" if singular else "abs",
                         lambda: falgebra.abs_element(elems[0], tol),
                         lambda out: _check_diag(it["frame"], out, [abs(v) for v in lam], tol))
        if kind == "join":
            want = [max(u, v) for u, v in zip(*it["spectra"])]
            return Query("join", lambda: hs.join_with_tol(elems[0], elems[1], tol),
                         lambda out: _check_diag(it["frame"], out, want, tol))
        if kind in ("sos", "sos-generic"):
            return Query(kind, lambda: falgebra.sum_of_squares(elems[0], tol),
                         lambda out: _check_sos(it["members"][0], out, tol))
        if kind == "product":
            return Query("product", lambda: falgebra.product_positive(elems[0], hs.add(elems[0], elems[1])),
                         lambda got: _ok(got is True, f"product of positives reported {got}"))
        raise ValueError(kind)


def _entries(e) -> orc.Matrix:
    return [list(row) for row in e.matrix.entries]


def _check_diag(frame, out, want: list, tol: F) -> str | None:
    if out.err > tol:
        return f"err {out.err} above tol {tol}"
    diag = orc.frame_diagonal(frame, _entries(out))
    if diag is None:
        return "result leaves the algebra"
    for dv, wv in zip(diag, want):
        if abs(dv - wv) > out.err:
            return f"value {dv} vs {wv} beyond err {out.err}"
    return None


def _check_sos(a: orc.Matrix, out, tol: F) -> str | None:
    """Exact prefix identity m_{k+1} = m_k - m_k^2 and |remainder| <= tol."""
    m = a
    for part in out.parts:
        if _entries(part) != m:
            return "sum of squares prefix identity broken"
        m = orc.add(m, orc.matmul(m, m), F(-1))
    rem = _entries(out.remainder)
    if rem != m or out.steps != len(out.parts):
        return "sum of squares remainder mismatch"
    eye = orc.identity(len(a))
    bound = out.bound
    if bound > tol or not (orc.is_psd(orc.add(orc.scale(bound, eye), rem, F(-1)))
                           and orc.is_psd(orc.add(orc.scale(bound, eye), rem))):
        return f"remainder not within {bound} (tol {tol})"
    return None


# ----- herm -----------------------------------------------------------------


class Herm:
    """A herm-order round and a herm-calculus round, answered back to back."""

    name = "herm"
    parts = (HermOrder(), HermCalculus())

    def generate(self, rng, rnd: int) -> list:
        return [part.generate(rng, rnd) for part in self.parts]

    def setup(self, d: list) -> list:
        return [part.setup(x) for part, x in zip(self.parts, d)]

    def queries(self, d: list, env: list, tmp: Path, tag: str) -> list[Query]:
        return [q for part, x, e in zip(self.parts, d, env) for q in part.queries(x, e, tmp, tag)]


# BENCHMARK.json runs coords-audit and herm; herm-order and herm-calculus stay
# runnable on their own to check which layers each half reaches.
WORKLOADS = {w.name: w for w in (CoordsAudit(), Herm(), *Herm.parts)}
