"""End to end runs of the command line front end, all in process."""
from contextlib import redirect_stdout
from fractions import Fraction as F
import io
import json

from hypothesis import given, settings, strategies as st
import pytest

from rieszspec.cli import main
from rieszspec.exact import RationalMatrix
from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.serialize import element_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out else None)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def qn_pair(tmp_path):
    return write(tmp_path, "a.json", {"space": "qn", "coords": ["1/3", "1/2"]})


@pytest.fixture
def qn_proj(tmp_path):
    return write(tmp_path, "p.json", {"space": "qn", "coords": ["0", "1"]})


def herm_file(tmp_path, name, rows):
    entries = [[str(v) for v in row] for row in rows]
    return write(
        tmp_path, name,
        {"space": "herm", "matrix": {"dim": len(rows), "entries": entries}},
    )


class TestSup:
    def test_example_pair(self, capsys, qn_pair):
        code, rep = run_json(capsys, "sup", "--input", qn_pair, "--eps", "1/16")
        assert code == 0
        assert rep["result"]["sup"] == "1/2"
        assert rep["config"]["eps"] == "1/16"
        assert rep["version"]

    def test_byte_determinism(self, capsys, qn_pair):
        _, one = run(capsys, "sup", "--input", qn_pair, "--eps", "1/16")
        _, two = run(capsys, "sup", "--input", qn_pair, "--eps", "1/16")
        assert one == two

    def test_csv_format(self, capsys, qn_pair):
        code, out = run(
            capsys, "sup", "--input", qn_pair, "--eps", "1/16", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "result.sup,1/2" in lines
        assert any(line.startswith("version,") for line in lines)


class TestNorm:
    def test_negative_peak(self, capsys, tmp_path):
        path = write(tmp_path, "n.json", {"space": "qn", "coords": ["1", "-3"]})
        code, rep = run_json(capsys, "norm", "--input", path, "--eps", "1/16")
        assert code == 0
        assert abs(F(rep["result"]["norm"]) - 3) <= F(1, 16)


class TestPos:
    def test_positive(self, capsys, qn_proj):
        code, rep = run_json(capsys, "pos", "--input", qn_proj, "--eps", "1/2")
        assert code == 0
        assert rep["result"]["outcome"] == "pos"
        assert rep["result"]["verified"] is True
        assert F(rep["result"]["witness"]) >= F(3, 8)

    def test_below(self, capsys, tmp_path):
        path = write(tmp_path, "b.json", {"space": "qn", "coords": ["1/8", "0"]})
        code, rep = run_json(capsys, "pos", "--input", path, "--eps", "1/2")
        assert code == 0
        assert rep["result"]["outcome"] == "below"
        assert F(rep["result"]["bound"]) <= F(1, 4)


class TestPoint:
    def test_projection(self, capsys, qn_proj):
        code, rep = run_json(capsys, "point", "--input", qn_proj, "--eps", "1/16")
        assert code == 0
        assert abs(F(rep["result"]["eval"]["input"]) - 1) <= F(1, 16)
        assert F(rep["result"]["margin"]) > 0
        assert rep["result"]["constraints"]

    def test_rejects_below_element(self, capsys, tmp_path):
        path = write(tmp_path, "z.json", {"space": "qn", "coords": ["0", "0"]})
        code, rep = run_json(capsys, "point", "--input", path, "--eps", "1/2")
        assert code == 2
        assert "error" in rep["result"]


_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=8)
_point_eps = st.sampled_from([F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16)])
# rational spectra {3, -1}; the golden ratio; an irreducible cubic
_POINT_GENS = ([[1, 2], [2, 1]], [[1, 1], [1, 0]], [[2, 1, 0], [1, -1, 1], [0, 1, 1]])


@st.composite
def _qn_json(draw):
    n = draw(st.integers(1, 3))
    return element_to_json(QnSpace(n).element(draw(st.lists(_fracs, min_size=n, max_size=n))))


@st.composite
def _pl_json(draw):
    inner = sorted(draw(st.sets(st.integers(1, 7), max_size=3)))
    xs = [F(0)] + [F(k, 8) for k in inner] + [F(1)]
    ys = draw(st.lists(_fracs, min_size=len(xs), max_size=len(xs)))
    return element_to_json(PLSpace().element(list(zip(xs, ys))))


@st.composite
def _herm_json(draw):
    g = RationalMatrix.from_rows(draw(st.sampled_from(_POINT_GENS)))
    hs = HermSpace([g])
    c0, c1 = draw(_fracs), draw(_fracs.filter(bool))
    return element_to_json(hs.add(hs.scale(c0, hs.unit()), hs.scale(c1, hs.element(g))))


def _cli(tmp, obj, *argv):
    path = tmp / "e.json"
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--input", str(path)])
    return code, json.loads(out.getvalue())["result"]


class TestPointFromEveryPos:
    """The paper's points are filters a positive supremum makes inhabited:
    whenever pos answers pos, point certifies a point, and its eval is the
    midpoint of a cell at most eps wide that meets the constraint interval,
    so it lies within eps/2 of that interval."""

    @settings(max_examples=60, deadline=None)
    @given(obj=st.one_of(_qn_json(), _pl_json(), _herm_json()), eps=_point_eps)
    def test_pos_gives_a_point(self, tmp_path_factory, obj, eps):
        tmp = tmp_path_factory.mktemp("pos")
        code, pos = _cli(tmp, obj, "pos", "--eps", str(eps))
        assert code == 0
        if pos["outcome"] != "pos":
            return
        code, pt = _cli(tmp, obj, "point", "--eps", str(eps))
        assert code == 0, pt
        (lo, hi), (clo, chi) = [(F(c["lo"]), F(c["hi"])) for c in pt["constraints"]]
        assert lo == F(pos["witness"]) / 2
        assert F(pt["eval"]["input"]) == (clo + chi) / 2 and chi - clo <= eps
        assert clo < hi and lo < chi

    def test_shallow_qn_element(self, capsys, tmp_path):
        # sup (1/4, 0) = 1/4 gives witness 3/16 at eps 1/4; the first delta,
        # (2 - 3/32)/8, is deeper than the element inside its constraint
        path = write(tmp_path, "s.json", {"space": "qn", "coords": ["1/4", "0"]})
        code, pos = run_json(capsys, "pos", "--input", path, "--eps", "1/4")
        assert code == 0 and pos["result"]["witness"] == "3/16"
        code, rep = run_json(capsys, "point", "--input", path, "--eps", "1/4")
        assert code == 0
        assert F(rep["result"]["margin"]) > 0


class TestNet:
    def test_projection_example(self, capsys, qn_proj):
        code, rep = run_json(capsys, "net", "--input", qn_proj, "--eps", "1/4")
        assert code == 0
        vals = [F(p["evals"]["elem0"]) for p in rep["result"]["points"]]
        assert any(abs(v - 1) <= F(1, 4) for v in vals)
        assert any(abs(v) <= F(1, 4) for v in vals)

    def test_two_inputs(self, capsys, qn_proj, tmp_path):
        other = write(tmp_path, "q.json", {"space": "qn", "coords": ["1", "0"]})
        code, rep = run_json(
            capsys, "net", "--input", qn_proj, "--input2", other, "--eps", "1/4"
        )
        assert code == 0
        for p in rep["result"]["points"]:
            assert set(p["evals"]) == {"elem0", "elem1"}

    def test_determinism(self, capsys, qn_proj):
        _, one = run(capsys, "net", "--input", qn_proj, "--eps", "1/4")
        _, two = run(capsys, "net", "--input", qn_proj, "--eps", "1/4")
        assert one == two


class TestCheckLattice:
    def test_recipe_then_verify(self, capsys, tmp_path):
        elem = write(tmp_path, "e.json", {"space": "qn", "coords": ["0", "2"]})
        code, rep = run_json(
            capsys, "check-lattice", "--input", elem, "--eps", "1/2"
        )
        assert code == 0
        recipe = rep["result"]
        assert recipe["certificate"] == "cover"
        assert recipe["p"] == "-1" and recipe["q"] == "3"
        cert_path = write(tmp_path, "cert.json", recipe)
        code, rep = run_json(capsys, "check-lattice", "--input", cert_path)
        assert code == 0
        assert rep["result"]["gridVerified"] is True
        assert rep["result"]["shrinkVerified"] is True

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        elem = write(tmp_path, "e.json", {"space": "qn", "coords": ["0", "2"]})
        _, rep = run_json(capsys, "check-lattice", "--input", elem, "--eps", "1/2")
        bad = dict(rep["result"])
        bad["multiplier"] = 0
        cert_path = write(tmp_path, "bad.json", bad)
        code, rep = run_json(capsys, "check-lattice", "--input", cert_path)
        assert code == 2
        assert rep["result"]["gridVerified"] is False

    def test_larger_multipliers_still_verify(self, capsys, tmp_path):
        # the replay checks the recipe's claims as stated: any multiplier at
        # least the minimal one certifies the same cover
        elem = write(tmp_path, "e.json", {"space": "qn", "coords": ["0", "2"]})
        _, rep = run_json(capsys, "check-lattice", "--input", elem, "--eps", "1/2")
        loose = dict(rep["result"])
        loose["multiplier"] = loose["multiplier"] + 5
        loose["shrink"] = dict(loose["shrink"], multiplier=2 * loose["shrink"]["multiplier"])
        cert_path = write(tmp_path, "loose.json", loose)
        code, rep = run_json(capsys, "check-lattice", "--input", cert_path)
        assert code == 0
        assert rep["result"] == {"gridVerified": True, "shrinkVerified": True}

    def test_overtight_shrink_fails(self, capsys, tmp_path):
        elem = write(tmp_path, "e.json", {"space": "qn", "coords": ["0", "2"]})
        _, rep = run_json(capsys, "check-lattice", "--input", elem, "--eps", "1/2")
        bad = dict(rep["result"])
        bad["shrink"] = {"r": "2", "multiplier": bad["shrink"]["multiplier"]}
        cert_path = write(tmp_path, "bad.json", bad)
        code, rep = run_json(capsys, "check-lattice", "--input", cert_path)
        assert code == 2
        assert rep["result"]["shrinkVerified"] is False

    def test_range_missing_the_element_fails_closed(self, capsys, tmp_path):
        # no cell of (5, 7) can hold a value of (0, 2): the empty cover
        # certifies the target, which is <= 0, and no shrink covers the unit
        elem = write(tmp_path, "e.json", {"space": "qn", "coords": ["0", "2"]})
        _, rep = run_json(capsys, "check-lattice", "--input", elem, "--eps", "1/2")
        bad = dict(rep["result"], p="5", q="7")
        cert_path = write(tmp_path, "bad.json", bad)
        code, rep = run_json(capsys, "check-lattice", "--input", cert_path)
        assert code == 2
        assert rep["result"] == {"gridVerified": True, "shrinkVerified": False}


class TestHermCommands:
    def test_sqrt_of_four(self, capsys, tmp_path):
        path = herm_file(tmp_path, "h4.json", [[4]])
        code, rep = run_json(capsys, "sqrt", "--input", path, "--tol", "1/1024")
        assert code == 0
        assert rep["result"]["S"]["entries"] == [["2"]]
        assert rep["result"]["errBound"] == "1/1024"
        assert rep["result"]["iterations"] == 1
        assert rep["result"]["majorant"][0] == "0"

    def test_sqrt_rejects_qn(self, capsys, qn_pair):
        code, _ = run_json(capsys, "sqrt", "--input", qn_pair)
        assert code == 1

    def test_sqrt_rejects_negative(self, capsys, tmp_path):
        path = herm_file(tmp_path, "neg.json", [[-1]])
        code, _ = run_json(capsys, "sqrt", "--input", path)
        assert code == 1

    def test_abs_diagonal(self, capsys, tmp_path):
        path = herm_file(tmp_path, "d.json", [[1, 0], [0, -2]])
        code, rep = run_json(capsys, "abs", "--input", path, "--tol", "1/256")
        assert code == 0
        err = F(rep["result"]["errBound"])
        got = rep["result"]["abs"]["entries"]
        assert abs(F(got[0][0]) - 1) <= err
        assert abs(F(got[1][1]) - 2) <= err

    def test_join_qn(self, capsys, tmp_path):
        a = write(tmp_path, "a.json", {"space": "qn", "coords": ["1", "0"]})
        b = write(tmp_path, "b.json", {"space": "qn", "coords": ["0", "1"]})
        code, rep = run_json(capsys, "join", "--input", a, "--input2", b)
        assert code == 0
        assert rep["result"]["join"]["coords"] == ["1", "1"]

    def test_join_herm_projections(self, capsys, tmp_path):
        a = herm_file(tmp_path, "p1.json", [[1, 0], [0, 0]])
        b = herm_file(tmp_path, "p2.json", [[0, 0], [0, 1]])
        code, rep = run_json(capsys, "join", "--input", a, "--input2", b)
        assert code == 0
        assert rep["result"]["join"]["matrix"]["entries"] == [["1", "0"], ["0", "1"]]
        assert F(rep["result"]["join"]["err"]) <= F(1, 1024)

    def test_join_needs_second_input(self, capsys, qn_pair):
        code, _ = run_json(capsys, "join", "--input", qn_pair)
        assert code == 1

    def test_sos_half(self, capsys, tmp_path):
        path = herm_file(tmp_path, "half.json", [["1/2"]])
        code, rep = run_json(capsys, "sos", "--input", path, "--tol", "3/16")
        assert code == 0
        assert [m["entries"][0][0] for m in rep["result"]["squares"]] == ["1/2", "1/4"]
        assert rep["result"]["residual"]["entries"] == [["3/16"]]
        assert rep["result"]["iterations"] == 2

    def test_sos_rescales_by_squares(self, capsys, tmp_path):
        path = herm_file(tmp_path, "four.json", [[4]])
        code, rep = run_json(capsys, "sos", "--input", path, "--tol", "1/8")
        assert code == 0
        total = sum(
            F(m["entries"][0][0]) ** 2 for m in rep["result"]["squares"]
        ) + F(rep["result"]["residual"]["entries"][0][0])
        assert total == 4

    def test_sos_iteration_cap_maps_to_two(self, capsys, tmp_path):
        path = herm_file(tmp_path, "half.json", [["1/2"]])
        code, out = run(
            capsys, "sos", "--input", path, "--tol", "1/1024", "--max-iter", "4"
        )
        assert code == 2

    def test_sos_unrenderable_report_maps_to_two(self, capsys, tmp_path):
        # the remainder's entries outgrow the interpreter's int to str
        # digit limit; the CLI refuses the report instead of raising it
        path = herm_file(tmp_path, "m.json", [["1/3", "1/5"], ["1/5", "1/2"]])
        code = main(["sos", "--input", path, "--tol", "1/16"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "digits; not rendered" in err


class TestGelfand:
    def test_diagonal_algebra(self, capsys, tmp_path):
        path = write(
            tmp_path, "alg.json",
            {"generators": [
                {"dim": 2, "entries": [["1", "0"], ["0", "2"]]},
                {"dim": 2, "entries": [["3", "0"], ["0", "4"]]},
            ]},
        )
        code, rep = run_json(capsys, "gelfand", "--input", path, "--eps", "1/8")
        assert code == 0
        assert rep["result"]["ok"] is True
        assert rep["result"]["pairsTested"] == 2
        assert rep["result"]["keyInequalityFailures"] == []
        defect = F(rep["result"]["maxMultViolation"])
        assert defect <= F(rep["result"]["defectBound"])

    def test_requires_generator_file(self, capsys, qn_pair):
        code, _ = run_json(capsys, "gelfand", "--input", qn_pair)
        assert code == 1


class TestSelftest:
    def test_quick_passes(self, capsys):
        code, rep = run_json(capsys, "selftest", "quick")
        assert code == 0
        assert rep["result"]["ok"] is True
        assert rep["config"]["level"] == "quick"
        assert all(c["ok"] for c in rep["result"]["checks"])
        names = [c["name"] for c in rep["result"]["checks"]]
        assert names.index("cell-sups") == names.index("exact-kernel") + 1

    def test_full_has_irrational_herm_check(self):
        from rieszspec import selftest

        assert ("herm-irrational", selftest._check_herm_irrational) in selftest.CHECKS_FULL
        assert selftest._check_herm_irrational() is None
        assert ("net-history", selftest._check_net_history) in selftest.CHECKS_FULL
        assert selftest._check_net_history() is None
        assert ("deep-join-chain", selftest._check_deep_join_chain) in selftest.CHECKS_FULL
        assert selftest._check_deep_join_chain() is None

    def test_bad_level(self, capsys):
        code, _ = run_json(capsys, "selftest", "sideways")
        assert code == 1

    def test_level_only_for_selftest(self, capsys, qn_pair):
        code, _ = run_json(capsys, "sup", "quick", "--input", qn_pair)
        assert code == 1


class TestUsageErrors:
    def test_missing_input(self, capsys):
        assert run(capsys, "sup")[0] == 1

    def test_nonexistent_file(self, capsys):
        assert run(capsys, "sup", "--input", "/no/such/file.json")[0] == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "sup", "--input", str(path))[0] == 1

    def test_nonpositive_eps(self, capsys, qn_pair):
        assert run(capsys, "sup", "--input", qn_pair, "--eps", "0")[0] == 1
        assert run(capsys, "sup", "--input", qn_pair, "--eps", "-1/2")[0] == 1

    def test_negative_seed(self, capsys, qn_pair):
        assert run(capsys, "sup", "--input", qn_pair, "--seed", "-1")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "transmogrify")[0] == 1

    def test_unknown_flag(self, capsys, qn_pair):
        assert run(capsys, "sup", "--input", qn_pair, "--frob", "1")[0] == 1

    def test_decimal_tolerance_rejected(self, capsys, qn_pair):
        assert run(capsys, "sup", "--input", qn_pair, "--eps", "0.25")[0] == 1
