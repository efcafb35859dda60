"""Golden CLI reports on fixed PL, Qn and matrix inputs.

The PL and Qn results were recorded from the Fraction-coordinate PL
implementation.  Any change of element representation must leave every
report byte-identical: same certificate multipliers, shrink radii, point
constraints, margins and values.

The matrix reports of ``sqrt`` were recorded from the square root
iteration and must stay byte-identical.  On a rational spectrum ``abs``
and ``join`` are exact: the reports carry |A| and A v B themselves with
error bound 0.  On the golden ratio spectrum they were recorded from the
interpolated materialization, after the exact eigenpairs of the input
(sympy) confirmed each value within the reported error bound, which
``test_irrational_abs_and_join_hold_at_eigenpairs`` checks again.

The order reports (``norm``, ``sup``, ``point``, ``pos`` and
``check-lattice``) on two irrational spectra, the golden ratio matrix and
a 3x3 matrix whose characteristic polynomial x^3 - 2x^2 - 3x + 5 is
irreducible over the rationals, were recorded from the formula-walking
character enclosures and must stay byte-identical.  The cubic
``check-lattice`` and the two ``point`` reports were re-recorded when root
enclosures became nodes of a fixed dyadic tree: before, they were read on
whatever finer boxes earlier queries of the same run had left.

The ``net`` reports on a Qn, a PL, a rational and two irrational matrix
inputs were recorded from the full-grid epsilon net, with each point's
constraints and margin and each element's shrink radius and multiplier;
all of them must stay byte-identical.  The irrational ones were
re-recorded with the order reports above.  The cubic ``net`` and the
cubic ``check-lattice`` shrink were re-recorded again when the shrink
came to be read off the cells' one-variable profile in place of the
loose dominance ceiling: r grew from 1/1024 to 1/128 (net) and from
1/16384 to 1/512 (recipe), the larger r pruned the cell (19/8, 39/16),
and the margins, which are cut witnesses at r/4, moved with r.  The
lowered cover's certificate verified before each re-recording.
"""
import json
from fractions import Fraction

import pytest
import sympy

from rieszspec import __version__
from rieszspec.cli import main
from rieszspec.serialize import attach, canonical_json, space_for
from rieszspec.spectrum import epsilon_net, stone_yosida_check

import oracles


INPUTS = {
    "pl-tent": {
        "space": "pl",
        "breakpoints": [["0", "-1/2"], ["1/4", "3/2"], ["5/8", "-3/4"], ["1", "1"]],
    },
    "pl-thirds": {
        "space": "pl",
        "breakpoints": [
            ["0", "2/3"], ["1/3", "-5/7"], ["2/5", "1/6"], ["5/7", "9/4"], ["1", "-1/3"],
        ],
    },
    "qn": {"space": "qn", "coords": ["1/3", "-5/4", "2", "7/6"]},
}

EPS = {"check-lattice": "1/4", "norm": "1/64", "sup": "1/256", "point": "1/32"}

VERIFIED = {"gridVerified": True, "shrinkVerified": True}

GOLDEN = {
    ("pl-tent", "check-lattice"): {
        "certificate": "cover",
        "element": INPUTS["pl-tent"],
        "multiplier": 39,
        "p": "-2",
        "q": "3",
        "rangeMultiplier": 1,
        "shrink": {"multiplier": 32, "r": "1/32"},
        "width": "1/4",
    },
    ("pl-tent", "norm"): {"norm": "3/2"},
    ("pl-tent", "sup"): {"sup": "3/2"},
    ("pl-tent", "point"): {
        "constraints": [{"hi": "3", "lo": "191/256"}, {"hi": "25/32", "lo": "3/4"}],
        "eval": {"input": "49/64"},
        "margin": "967/2048",
    },
    ("pl-thirds", "check-lattice"): {
        "certificate": "cover",
        "element": INPUTS["pl-thirds"],
        "multiplier": 47,
        "p": "-2",
        "q": "4",
        "rangeMultiplier": 1,
        "shrink": {"multiplier": 32, "r": "1/32"},
        "width": "1/4",
    },
    ("pl-thirds", "norm"): {"norm": "9/4"},
    ("pl-thirds", "sup"): {"sup": "9/4"},
    ("pl-thirds", "point"): {
        "constraints": [{"hi": "4", "lo": "287/256"}, {"hi": "37/32", "lo": "9/8"}],
        "eval": {"input": "73/64"},
        "margin": "1575/2048",
    },
    ("qn", "check-lattice"): {
        "certificate": "cover",
        "element": INPUTS["qn"],
        "multiplier": 32,
        "p": "-3",
        "q": "3",
        "rangeMultiplier": 1,
        "shrink": {"multiplier": 32, "r": "1/32"},
        "width": "1/4",
    },
    ("qn", "norm"): {"norm": "2"},
    ("qn", "sup"): {"sup": "2"},
    ("qn", "point"): {
        "constraints": [{"hi": "3", "lo": "255/256"}, {"hi": "129/64", "lo": "127/64"}],
        "eval": {"input": "2"},
        "margin": "1535/2048",
    },
}


def _expected(command, path, eps, result, input2=""):
    config = {
        "command": command,
        "input": path,
        "input2": input2,
        "tol": "1/1024",
        "eps": eps,
        "seed": 0,
        "format": "json",
        "maxIter": 64,
    }
    return canonical_json({"version": __version__, "config": config, "result": result})


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_report_bytes(capsys, tmp_path, monkeypatch, name, command):
    monkeypatch.chdir(tmp_path)
    path = f"{name}.json"
    (tmp_path / path).write_text(json.dumps(INPUTS[name]))
    code, out = _run(capsys, command, "--input", path, "--eps", EPS[command])
    assert code == 0
    assert out == _expected(command, path, EPS[command], GOLDEN[name, command])


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_recipe_replays(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cert.json").write_text(json.dumps(GOLDEN[name, "check-lattice"]))
    code, out = _run(capsys, "check-lattice", "--input", "cert.json")
    assert code == 0
    assert out == _expected("check-lattice", "cert.json", "1/64", VERIFIED)


def _herm(*rows):
    return {"space": "herm", "matrix": {"dim": len(rows), "entries": [list(r) for r in rows]}}


def _gens(*names):
    return [HERM_INPUTS[n]["matrix"] for n in names]


# golden ratio spectrum; "irr-sq" is its square, "rat" has spectrum {3, -1}
# and "rat-sq" spectrum {1, 9}
HERM_INPUTS = {
    "irr": _herm(["1", "1"], ["1", "0"]),
    "irr-sq": _herm(["2", "1"], ["1", "1"]),
    "rat": _herm(["1", "2"], ["2", "1"]),
    "rat-sq": _herm(["5", "4"], ["4", "5"]),
    "zero": _herm(["0", "0"], ["0", "0"]),
}

SQRT_MAJORANT_IRR = [
    "0", "1/2", "5/8", "89/128", "24305/32768", "6501855/8388608",
    "3357019/4194304", "13762361/16777216", "14033245/16777216",
    "7128819/8388608", "902927/1048576", "1826085/2097152",
    "14748827/16777216", "14871445/16777216", "7489843/8388608",
    "15075981/16777216", "15162235/16777216", "15239965/16777216",
    "15310393/16777216", "15374515/16777216", "7716577/8388608",
    "967937/1048576", "3884151/4194304", "7791237/8388608",
    "15625015/16777216", "3916145/4194304",
]

SQRT_MAJORANT_RAT = [
    "0", "1/2", "5/8", "89/128", "24305/32768", "6501855/8388608",
    "53712303/67108864", "55049443/67108864", "56132979/67108864",
    "57030551/67108864", "57787325/67108864", "58434715/67108864",
    "7374413/8388608", "59485775/67108864", "14979685/16777216",
    "3768995/4194304", "7581117/8388608", "30479927/33554432",
    "61241563/67108864", "61498051/67108864", "61732605/67108864",
    "30973979/33554432", "15536601/16777216", "62329883/67108864",
    "62500045/67108864", "62658305/67108864", "62805883/67108864",
    "15735959/16777216", "63073085/67108864", "63194437/67108864",
    "63308601/67108864", "63416203/67108864", "31758899/33554432",
    "63613879/67108864",
]

HERM_GOLDEN = {
    ("abs", "irr", ""): {
        "abs": {"dim": 2, "entries": [
            ["25161545/18755584", "2048/4579"],
            ["2048/4579", "16772937/18755584"],
        ]},
        "errBound": "6627/9377792",
    },
    ("join", "irr", "zero"): {
        "join": {
            "err": "3313/9375744",
            "generators": _gens("irr", "zero"),
            "matrix": {"dim": 2, "entries": [
                ["10975969/9375744", "3313/4578"],
                ["3313/4578", "4190945/9375744"],
            ]},
            "space": "herm",
        },
    },
    ("sqrt", "irr-sq", ""): {
        "S": {"dim": 2, "entries": [
            ["2813661/2097152", "3751273/8388608"],
            ["3751273/8388608", "7503371/8388608"],
        ]},
        "errBound": "1/1024",
        "iterations": 24,
        "majorant": SQRT_MAJORANT_IRR,
    },
    ("sqrt", "rat-sq", ""): {
        "S": {"dim": 2, "entries": [
            ["33555129/16777216", "16776523/16777216"],
            ["16776523/16777216", "33555129/16777216"],
        ]},
        "errBound": "1/1024",
        "iterations": 32,
        "majorant": SQRT_MAJORANT_RAT,
    },
    # exact: |A| = 3 P + 1 Q, A v 0 = 3 P for the eigenprojections P, Q
    ("abs", "rat", ""): {
        "abs": {"dim": 2, "entries": [["2", "1"], ["1", "2"]]},
        "errBound": "0",
    },
    ("join", "rat", "zero"): {
        "join": {
            "err": "0",
            "generators": _gens("rat", "zero"),
            "matrix": {"dim": 2, "entries": [["3/2", "3/2"], ["3/2", "3/2"]]},
            "space": "herm",
        },
    },
}


@pytest.mark.parametrize("command,name,name2", sorted(HERM_GOLDEN))
def test_herm_report_bytes(capsys, tmp_path, monkeypatch, command, name, name2):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--input", f"{name}.json", "--tol", "1/1024"]
    (tmp_path / f"{name}.json").write_text(json.dumps(HERM_INPUTS[name]))
    input2 = ""
    if name2:
        input2 = f"{name2}.json"
        (tmp_path / input2).write_text(json.dumps(HERM_INPUTS[name2]))
        argv += ["--input2", input2]
    code, out = _run(capsys, *argv)
    assert code == 0
    want = _expected(command, f"{name}.json", "1/64", HERM_GOLDEN[command, name, name2], input2)
    assert out == want


HERM_INPUTS["cubic"] = _herm(["2", "1", "0"], ["1", "-1", "1"], ["0", "1", "1"])

IRR_ORDER_GOLDEN = {
    ("irr", "norm"): {"norm": "13/8"},
    ("irr", "sup"): {"sup": "1657/1024"},
    ("irr", "point"): {
        "constraints": [{"hi": "3", "lo": "827/1024"}, {"hi": "13/8", "lo": "103/64"}],
        "eval": {"input": "207/128"},
        "margin": "4451/8192",
    },
    ("irr", "pos"): {"outcome": "pos", "verified": True, "witness": "827/512"},
    ("irr", "check-lattice"): {
        "certificate": "cover",
        "element": HERM_INPUTS["irr"],
        "multiplier": 203,
        "p": "-2",
        "q": "3",
        "rangeMultiplier": 1,
        "shrink": {"multiplier": 512, "r": "1/512"},
        "width": "1/64",
    },
    ("cubic", "norm"): {"norm": "156145/65536"},
    ("cubic", "sup"): {"sup": "159575185/67108864"},
    ("cubic", "point"): {
        "constraints": [
            {"hi": "4", "lo": "159313041/134217728"}, {"hi": "41/32", "lo": "81/64"},
        ],
        "eval": {"input": "163/128"},
        "margin": "960530441/1073741824",
    },
    ("cubic", "pos"): {"outcome": "pos", "verified": True, "witness": "159313041/67108864"},
    ("cubic", "check-lattice"): {
        "certificate": "cover",
        "element": HERM_INPUTS["cubic"],
        "multiplier": 7095,
        "p": "-3",
        "q": "4",
        "rangeMultiplier": 1,
        "shrink": {"multiplier": 512, "r": "1/512"},
        "width": "1/64",
    },
}


def test_irrational_abs_and_join_hold_at_eigenpairs():
    gen = [[Fraction(v) for v in r] for r in HERM_INPUTS["irr"]["matrix"]["entries"]]
    for key, target in (
        (("abs", "irr", ""), abs),
        (("join", "irr", "zero"), lambda lam: sympy.Max(lam, 0)),
    ):
        rep = HERM_GOLDEN[key]
        out = rep["abs"] if key[0] == "abs" else rep["join"]["matrix"]
        err = Fraction(rep["errBound"] if key[0] == "abs" else rep["join"]["err"])
        assert 0 < err <= Fraction(1, 1024)
        rows = [[Fraction(v) for v in r] for r in out["entries"]]
        for lam, v in oracles.eigen_values_of(gen, rows):
            assert oracles.within_exact(v, target(lam), err)


@pytest.mark.parametrize("name,command", sorted(IRR_ORDER_GOLDEN))
def test_irrational_order_report_bytes(capsys, tmp_path, monkeypatch, name, command):
    monkeypatch.chdir(tmp_path)
    path = f"{name}.json"
    (tmp_path / path).write_text(json.dumps(HERM_INPUTS[name]))
    code, out = _run(capsys, command, "--input", path, "--eps", "1/64")
    assert code == 0
    assert out == _expected(command, path, "1/64", IRR_ORDER_GOLDEN[name, command])


@pytest.mark.parametrize("name", ["irr", "cubic"])
def test_irrational_recipe_replays(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cert.json").write_text(json.dumps(IRR_ORDER_GOLDEN[name, "check-lattice"]))
    code, out = _run(capsys, "check-lattice", "--input", "cert.json")
    assert code == 0
    assert out == _expected("check-lattice", "cert.json", "1/64", VERIFIED)


@pytest.mark.parametrize("name", ["irr", "cubic"])
def test_irrational_nets_stay_certified(name):
    # the re-recorded nets: positive margins, and the Stone-Yosida check
    # of the element at the net's resolution passes
    space = space_for([HERM_INPUTS[name]])
    a = attach(space, HERM_INPUTS[name])
    assert all(Fraction(m) > 0 for _, m in NET_GOLDEN[name, "1/16"]["points"])
    assert stone_yosida_check(space, a, Fraction(1, 16)).ok


# ``net`` reports recorded before the net was restricted to the cells an
# element can occupy: the report's point values, and from the library the
# shrink radius and multiplier per element and each point's constraints
# (lo hi) and margin before any evaluation.
NET_INPUTS = {**INPUTS, **HERM_INPUTS}

NET_GOLDEN = {
    ("qn", "1/16"): {
        "evals": [
            "-5/4", "43/128", "43/128", "149/128", "149/128", "2",
        ],
        "shrink_info": [("1/128", 128)],
        "points": [
            ("-41/32 -39/32", "15/512"),
            ("9/32 11/32", "13/1536"),
            ("5/16 3/8", "29/1536"),
            ("9/8 19/16", "29/1536"),
            ("37/32 39/32", "13/1536"),
            ("63/32 65/32", "15/512"),
        ],
    },
    ("pl-tent", "1/4"): {
        "evals": [
            "-3/4", "-23/32", "-19/32", "-15/32", "-11/32", "-7/32", "-3/32", "1/32",
            "5/32", "9/32", "13/32", "17/32", "21/32", "25/32", "29/32", "33/32",
            "37/32", "41/32", "45/32",
        ],
        "shrink_info": [("1/32", 32)],
        "points": [
            ("-7/8 -5/8", "15/128"),
            ("-3/4 -1/2", "15/128"),
            ("-5/8 -3/8", "15/128"),
            ("-1/2 -1/4", "15/128"),
            ("-3/8 -1/8", "15/128"),
            ("-1/4 0", "15/128"),
            ("-1/8 1/8", "15/128"),
            ("0 1/4", "15/128"),
            ("1/8 3/8", "15/128"),
            ("1/4 1/2", "15/128"),
            ("3/8 5/8", "15/128"),
            ("1/2 3/4", "15/128"),
            ("5/8 7/8", "15/128"),
            ("3/4 1", "15/128"),
            ("7/8 9/8", "15/128"),
            ("1 5/4", "15/128"),
            ("9/8 11/8", "15/128"),
            ("5/4 3/2", "15/128"),
            ("11/8 13/8", "15/128"),
        ],
    },
    ("rat", "1/16"): {
        "evals": [
            "-1", "3",
        ],
        "shrink_info": [("1/64", 64)],
        "points": [
            ("-33/32 -31/32", "7/256"),
            ("95/32 97/32", "7/256"),
        ],
    },
    ("irr", "1/16"): {
        "evals": [
            "-79/128", "-79/128", "207/128", "207/128",
        ],
        "shrink_info": [("1/128", 128)],
        "points": [
            ("-21/32 -19/32", "23/1024"),
            ("-5/8 -9/16", "3/512"),
            ("25/16 13/8", "3/512"),
            ("51/32 53/32", "23/1024"),
        ],
    },
    ("cubic", "1/16"): {
        "evals": [
            "-211/128", "-211/128", "163/128", "163/128", "19/8",
        ],
        "shrink_info": [("1/128", 128)],
        "points": [
            ("-27/16 -13/8", "6490831/268435456"),
            ("-53/32 -51/32", "231321/67108864"),
            ("39/32 41/32", "394975/67108864"),
            ("5/4 21/16", "5944665/268435456"),
            ("75/32 77/32", "7309255/268435456"),
        ],
    },
}


@pytest.mark.parametrize("name,eps", sorted(NET_GOLDEN))
def test_net_report_bytes(capsys, tmp_path, monkeypatch, name, eps):
    monkeypatch.chdir(tmp_path)
    path = f"{name}.json"
    (tmp_path / path).write_text(json.dumps(NET_INPUTS[name]))
    code, out = _run(capsys, "net", "--input", path, "--eps", eps)
    assert code == 0
    points = [
        {"evals": {"elem0": v}, "id": i}
        for i, v in enumerate(NET_GOLDEN[name, eps]["evals"])
    ]
    assert out == _expected("net", path, eps, {"eps": eps, "points": points})


@pytest.mark.parametrize("name,eps", sorted(NET_GOLDEN))
def test_net_constraints_and_shrink(name, eps):
    obj = NET_INPUTS[name]
    space = space_for([obj])
    net = epsilon_net(space, [attach(space, obj)], Fraction(eps))
    want = NET_GOLDEN[name, eps]
    assert [(str(r), m) for r, m in net.shrink_info] == want["shrink_info"]
    got = [
        (" ".join(f"{lo} {hi}" for _, lo, hi in pt.constraints), str(pt.margin))
        for pt in net.points
    ]
    assert got == want["points"]


# ``sos`` on a 3x3 input with a rational spectrum, recorded from the
# one-Fraction-at-a-time matrix product and psd check: the squares and
# the residual of the paper's iteration must stay byte-identical.
HERM_INPUTS["sos3"] = _herm(["1/2", "1/4", "0"], ["1/4", "1/3", "1/6"], ["0", "1/6", "1/5"])


def _mat(*rows):
    return {"dim": len(rows), "entries": [list(r) for r in rows]}


SOS_GOLDEN = {
    "bound": "1/8",
    "iterations": 4,
    "residual": _mat(
        [
            "541009337634903707206811/5015306502144000000000000",
            "66177177736654154093623/3134566563840000000000000",
            "-3967865774036543222762029/188073993830400000000000000",
        ],
        [
            "66177177736654154093623/3134566563840000000000000",
            "89973115214910164248014839/1128443962982400000000000000",
            "18521315095775045077648387/470184984576000000000000000",
        ],
        [
            "-3967865774036543222762029/188073993830400000000000000",
            "18521315095775045077648387/470184984576000000000000000",
            "563268638733443541898676231/7052774768640000000000000000",
        ],
    ),
    "squares": [
        HERM_INPUTS["sos3"]["matrix"],
        _mat(["3/16", "1/24", "-1/24"], ["1/24", "19/144", "7/90"], ["-1/24", "7/90", "119/900"]),
        _mat(
            ["343/2304", "91/2880", "-2729/86400"],
            ["91/2880", "55339/518400", "12737/216000"],
            ["-2729/86400", "12737/216000", "346531/3240000"],
        ),
        _mat(
            ["3723903011/29859840000", "236852299/9331200000", "-28406163829/1119744000000"],
            ["236852299/9331200000", "610564418639/6718464000000", "132588951287/2799360000000"],
            ["-28406163829/1119744000000", "132588951287/2799360000000", "3822806916431/41990400000000"],
        ),
    ],
}


def test_sos_report_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sos3.json").write_text(json.dumps(HERM_INPUTS["sos3"]))
    code, out = _run(capsys, "sos", "--input", "sos3.json", "--tol", "1/8")
    assert code == 0
    want = canonical_json({
        "version": __version__,
        "config": {
            "command": "sos", "input": "sos3.json", "input2": "", "tol": "1/8",
            "eps": "1/64", "seed": 0, "format": "json", "maxIter": 64,
        },
        "result": SOS_GOLDEN,
    })
    assert out == want
