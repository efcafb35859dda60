"""Element files, certificate recipes, and report rendering."""
from fractions import Fraction as F
import json

import pytest

from rieszspec.exact import RationalMatrix
from rieszspec.instances import HermSpace, PLSpace, QnSpace
from rieszspec.serialize import (
    attach,
    canonical_json,
    cover_recipe_to_json,
    element_to_json,
    flatten_report,
    net_to_json,
    render_csv,
    space_for,
)
from rieszspec.spectrum import epsilon_net

import oracles


class TestCanonicalJson:
    def test_sorted_minimal_with_newline(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    def test_key_order_does_not_matter(self):
        one = canonical_json({"x": 1, "y": {"b": 2, "a": 3}})
        two = canonical_json({"y": {"a": 3, "b": 2}, "x": 1})
        assert one == two


class TestElementRoundTrips:
    def test_qn(self):
        q3 = QnSpace(3)
        a = q3.element([F(1, 3), F(-2), F(0)])
        obj = element_to_json(a)
        assert obj == {"space": "qn", "coords": ["1/3", "-2", "0"]}
        assert oracles.element_from_json(json.loads(canonical_json(obj))) == a

    def test_pl(self):
        pl = PLSpace()
        f = pl.element([(0, F(1, 2)), (F(1, 3), -1), (1, 2)])
        obj = element_to_json(f)
        back = oracles.element_from_json(obj)
        assert back.points == f.points

    def test_herm_with_generators(self):
        gens = [
            RationalMatrix.from_rows([[1, 0], [0, 2]]),
            RationalMatrix.from_rows([[3, 0], [0, 4]]),
        ]
        hs = HermSpace(gens)
        a = hs.element(RationalMatrix.from_rows([[5, 0], [0, F(1, 2)]]), err=F(1, 64))
        obj = element_to_json(a)
        assert [g["dim"] for g in obj["generators"]] == [2, 2]
        back = oracles.element_from_json(obj)
        assert back.matrix == a.matrix
        assert back.err == F(1, 64)
        # freestanding load also admits the element's own matrix as a
        # generator; attaching into the original space is the identity
        assert attach(hs, obj) == a

    def test_herm_without_generators_uses_own_matrix(self):
        obj = {"space": "herm", "matrix": {"dim": 1, "entries": [["9"]]}}
        back = oracles.element_from_json(obj)
        assert back.matrix.entries == ((F(9),),)
        assert back.err == 0

    def test_formula_elements_are_rejected(self):
        hs = HermSpace([RationalMatrix.from_rows([[1, 0], [0, 2]])])
        node = hs.join(hs.unit(), hs.zero())
        with pytest.raises(ValueError):
            element_to_json(node)


class TestSpaceFor:
    def test_mixed_kinds_rejected(self):
        q1 = QnSpace(1)
        pl = PLSpace()
        objs = [element_to_json(q1.unit()), element_to_json(pl.unit())]
        with pytest.raises(ValueError, match="different spaces"):
            space_for(objs)

    def test_qn_length_mismatch_rejected(self):
        objs = [
            {"space": "qn", "coords": ["1"]},
            {"space": "qn", "coords": ["1", "2"]},
        ]
        with pytest.raises(ValueError, match="different lengths"):
            space_for(objs)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown space tag"):
            space_for([{"space": "banach"}])
        with pytest.raises(ValueError, match="unknown space tag"):
            attach(QnSpace(1), {"space": "banach"})

    def test_herm_generators_deduplicated(self):
        g = {"dim": 1, "entries": [["2"]]}
        objs = [
            {"space": "herm", "matrix": g, "generators": [g]},
            {"space": "herm", "matrix": {"dim": 1, "entries": [["3"]]}},
        ]
        sp = space_for(objs)
        assert isinstance(sp, HermSpace)
        assert len(sp.algebra.generators) == 2

    def test_attach_space_kind_mismatch(self):
        q2 = QnSpace(2)
        with pytest.raises(ValueError):
            attach(q2, {"space": "pl", "breakpoints": [["0", "1"], ["1", "1"]]})


class TestNetJson:
    def test_shape_and_names(self):
        q2 = QnSpace(2)
        a = q2.element([0, 1])
        net = epsilon_net(q2, [a], F(1, 4))
        obj = net_to_json(net, names=["proj"])
        assert obj["eps"] == "1/4"
        assert len(obj["points"]) == len(net.points)
        for row in obj["points"]:
            assert set(row) == {"id", "evals"}
            assert set(row["evals"]) == {"proj"}
            F(row["evals"]["proj"])

    def test_default_names_and_determinism(self):
        q2 = QnSpace(2)
        a, b = q2.element([0, 1]), q2.element([1, 0])
        net = epsilon_net(q2, [a, b], F(1, 4))
        one = canonical_json(net_to_json(net))
        two = canonical_json(net_to_json(net))
        assert one == two
        assert "elem0" in one and "elem1" in one


class TestCoverRecipe:
    def test_fields(self):
        q2 = QnSpace(2)
        obj = cover_recipe_to_json(
            element_to_json(q2.element([0, 2])),
            F(-1), F(3), F(1, 2), 1, F(1, 8), 4,
        )
        assert obj["certificate"] == "cover"
        assert obj["p"] == "-1" and obj["q"] == "3"
        assert obj["width"] == "1/2"
        assert obj["multiplier"] == 1
        assert obj["shrink"] == {"r": "1/8", "multiplier": 4}


class TestReportRendering:
    def test_flatten_sorts_and_lowers_bools(self):
        rows = flatten_report({"b": [1, {"x": True}], "a": "s"})
        assert rows == [
            ("a", "s"),
            ("b.0", "1"),
            ("b.1.x", "true"),
        ]

    def test_csv_quoting(self):
        text = render_csv({"k": 'a,"b"', "n": 3})
        lines = text.split("\n")
        assert lines[0] == "key,value"
        assert lines[1] == 'k,"a,""b"""'
        assert lines[2] == "n,3"
        assert text.endswith("\n")
