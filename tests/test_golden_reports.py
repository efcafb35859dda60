"""Golden CLI reports on fixed PL and Qn inputs.

The expected results were recorded from the Fraction-coordinate PL
implementation.  Any change of element representation must leave every
report byte-identical: same certificate multipliers, shrink radii, point
constraints, margins and values.
"""
import json

import pytest

from rieszspec import __version__
from rieszspec.cli import main
from rieszspec.serialize import canonical_json


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


def _expected(command, path, eps, result):
    config = {
        "command": command,
        "input": path,
        "input2": "",
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
