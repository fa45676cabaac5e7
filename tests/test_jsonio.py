import hashlib
import json
import re

import numpy as np
import pytest

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.groups import builtin_group, load_group
from mackeykit.gsets import find_isomorphism, point_gset, standard_orbit
from mackeykit.jsonio import (
    code_from_json,
    code_to_json,
    element_from_json,
    element_to_json,
    green_from_json,
    green_to_json,
    gset_from_json,
    gset_to_json,
    group_to_json,
    mackey_from_json,
    mackey_to_json,
    parse_gset_expr,
)
from mackeykit.mackey import (
    burnside_mackey,
    fixed_point_mackey,
    regular_module,
    representable,
    trivial_module,
)
from mackeykit.convolution import burnside_green, green_from_levelwise
from mackeykit.ktheory import k0_green


def test_group_roundtrip():
    for name in ("C2", "S3", "Q8"):
        G = builtin_group(name)
        doc = group_to_json(G)
        G2 = load_group(json.loads(json.dumps(doc)))
        assert G2 == G


def test_gset_roundtrip_and_orbit_shorthand():
    C2 = builtin_group("C2")
    X = gset_from_json({"group": "C2", "orbits": [["C2", 1], ["e", 2]]})
    assert X.size == 1 + 2 + 2
    labels = sorted(C2.subgroup_classes()[c].label for c in X.orbit_type())
    assert labels == ["C2", "e", "e"]
    doc = gset_to_json(X)
    X2 = gset_from_json(json.loads(json.dumps(doc)))
    assert X2 == X
    # expression shorthand
    Y = parse_gset_expr(C2, "e*2 + C2")
    assert find_isomorphism(X, Y) is not None


def test_gset_size_mismatch_rejected():
    with pytest.raises(ValueError):
        gset_from_json({"group": "C2", "size": 3,
                        "action": [[0, 1], [1, 0]]})


def test_mackey_roundtrip():
    for name in ("C2", "S3"):
        group = builtin_group(name)
        for M in (burnside_mackey(group),
                  representable(standard_orbit(group, 0))):
            doc = mackey_to_json(M)
            M2 = mackey_from_json(json.loads(json.dumps(doc)))
            assert [l.invariant_factors for l in M2.levels] == \
                [l.invariant_factors for l in M.levels]
            # identical structure data on the canonical covering pairs
            doc2 = mackey_to_json(M2)
            assert doc2["res"] == doc["res"]
            assert doc2["tr"] == doc["tr"]
            assert doc2["conj"] == doc["conj"]


def test_mackey_roundtrip_with_torsion_levels():
    C2 = builtin_group("C2")
    V, act = regular_module(C2)
    FP = fixed_point_mackey(C2, V, act)
    doc = mackey_to_json(FP)
    M2 = mackey_from_json(doc)
    assert [l.invariant_factors for l in M2.levels] == \
        [l.invariant_factors for l in FP.levels]


def test_green_roundtrip():
    C2 = builtin_group("C2")
    G = burnside_green(C2)
    doc = green_to_json(G)
    G2 = green_from_json(json.loads(json.dumps(doc)))
    assert G2.tables[1][0][0].tolist() == [2, 0]


# SHA-256 of json.dumps(green_to_json(G), sort_keys=True) for the Burnside
# and K0 Green functors, recorded from tables read off a multiplication
# morphism on the presented box(R, R), so the stored tables and unit must
# file the same bytes.
GREEN_JSON_SHA256 = {
    ("burnside", "C4"):
        "feb976fff53f5ff453e9241a7deb0e283b1a29e835f5b480c83fee7a0a5b411a",
    ("burnside", "C2xC2"):
        "6bca41543d563155958266433666c50af4b2aa8a3835dbad1399ee141abb4525",
    ("burnside", "S3"):
        "b0afeb82327fd68161a9f57f91d0c0e548608293e7a0f14925033a376150ee34",
    ("burnside", "C6"):
        "21f5415185e442e77efa3980d78f281d37918f445d33c544c5ccf7008023963d",
    ("k0", "C4"):
        "066b186280b12f48353932520099d9540b3cb9a1408be38a0caf5295e4d2f7d6",
    ("k0", "C2xC2"):
        "235d933c1bc887a9210af9542cbe4e16723aa6e2eadf5af722c47d014536e3ec",
    ("k0", "S3"):
        "4a70cfeeb9504242765ca85106e8067317ad883e9f9eaa81736c108430d314b8",
    ("k0", "C6"):
        "6b936330c3831eca3caec2829cba2f14f055c727deb5b920a46dd2ba3d6e8ef8",
}


@pytest.mark.parametrize("ring, name", sorted(GREEN_JSON_SHA256))
def test_green_to_json_bytes_are_pinned(ring, name):
    build = {"burnside": burnside_green, "k0": k0_green}[ring]
    doc = green_to_json(build(builtin_group(name)))
    data = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == GREEN_JSON_SHA256[(ring, name)]


def test_element_roundtrip():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    from mackeykit.burnside import BurnsideElement, hom_basis
    basis = hom_basis(O, pt)
    e = BurnsideElement(O, pt, {basis[0]: 3})
    doc = element_to_json(e)
    e2 = element_from_json(C2, O, pt, doc)
    assert e2 == e


def test_code_from_json_checks_points_and_canonicalizes():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    for doc, match in [(["C2", 1.9, 0], "point[0] is not an integer: 1.9"),
                       (["e", 0, "0"], "point[1] is not an integer: '0'"),
                       (["e", True, 0], "point[0] is not an integer: True"),
                       (["e", 2, 0], "span code (0, 2, 0) is out of range"),
                       (["e", -1, 0], "span code (0, -1, 0) is out of range"),
                       (["C2", 1, 0], "span code (1, 1, 0): its points are "
                                      "not fixed by (0, 1)")]:
        with pytest.raises(ValueError, match=re.escape(match)):
            code_from_json(C2, O, pt, doc)
    # a fixed but non-minimal pair is the same span as its minimum
    assert code_from_json(C2, O, pt, ["e", 1, 0]) == (0, 0, 0)
    assert code_from_json(C2, O, O, ["e", 1, 0]) == (0, 0, 1)
    e = element_from_json(C2, O, pt, {"coefficients": [[["e", 0, 0], 2],
                                                       [["e", 1, 0], 3]]})
    assert e.coeffs == {(0, 0, 0): 5}
    with pytest.raises(ValueError, match=re.escape(
            "coefficient of ['e', 0, 0][0] is not an integer: 1.9")):
        element_from_json(C2, O, pt, {"coefficients": [[["e", 0, 0], 1.9]]})


def test_bad_class_labels_rejected():
    C2 = builtin_group("C2")
    with pytest.raises(ValueError, match="unknown subgroup-class label"):
        C2.class_by_label("C7")
    # ambiguous label in C2xC2 raises too
    V4 = builtin_group("C2xC2")
    with pytest.raises(ValueError):
        V4.class_by_label("C2")


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_every_transfer_bump_of_the_burnside_file_is_rejected(name):
    # seedless: each +1 in one transfer entry breaks a Mackey-algebra
    # relation, including the cells a 60-pair sampled check always missed
    doc = mackey_to_json(burnside_mackey(builtin_group(name)))
    bumps = 0
    for key, mat in doc["tr"].items():
        for i, row in enumerate(mat):
            for j in range(len(row)):
                bad = json.loads(json.dumps(doc))
                bad["tr"][key][i][j] += 1
                with pytest.raises(ValueError, match="functoriality"):
                    mackey_from_json(bad)
                bumps += 1
    assert bumps == sum(len(m) * len(m[0]) for m in doc["tr"].values())


@pytest.mark.parametrize("length", [1, 3])
def test_green_ring_vector_of_wrong_length_rejected(length):
    doc = green_to_json(burnside_green(builtin_group("C2")))
    doc["rings"]["C2"][1][1] = [1] * length
    with pytest.raises(ValueError, match=r"level C2, cell \(1, 1\): vector "
                                         rf"of length {length}, expected 2"):
        green_from_json(doc)


@pytest.mark.parametrize("path, value, match", [
    (("rings", "C2", 1, 1), [0.5, 1.5],
     r"level C2, cell \(1, 1\)\[0\] is not an integer: 0\.5"),
    (("rings", "C2", 0, 1), [1, True],
     r"level C2, cell \(0, 1\)\[1\] is not an integer: True"),
    (("rings", "e", 0, 0), ["1"],
     r"level e, cell \(0, 0\)\[0\] is not an integer: '1'"),
    (("unit",), [0.9, 1], r"unit\[0\] is not an integer: 0\.9"),
    (("unit",), [0, 1.0], r"unit\[1\] is not an integer: 1\.0"),
], ids=["ring-float", "ring-bool", "ring-string", "unit-float",
        "unit-integral-float"])
def test_green_file_with_non_integer_entries_rejected(path, value, match):
    # the two float cases used to load as the valid ring: int() truncated
    # [0.5, 1.5] to [0, 1] and [0.9, 1] to the unit [0, 1]
    doc = green_to_json(burnside_green(builtin_group("C2")))
    _set(doc, path, value)
    with pytest.raises(ValueError, match=match):
        green_from_json(json.loads(json.dumps(doc)))


def test_green_from_levelwise_names_a_non_integer_cell():
    G = burnside_green(builtin_group("C2"))
    tables = [G.tables[0], [list(row) for row in G.tables[1]]]
    tables[1][1][0] = [1.5, 0]
    with pytest.raises(ValueError, match=r"level C2, cell \(1, 0\)\[0\] "
                                         r"is not an integer: 1\.5"):
        green_from_levelwise(G.underlying, tables, G.level_unit(1))


@pytest.mark.parametrize("doc, match", [
    ({"group": "C2", "action": [[0, 1.7], [1, 0]]},
     r"action\[0\]\[1\] is not an integer: 1\.7"),
    ({"group": "C2", "action": [[0, 1], [True, 0]]},
     r"action\[1\]\[0\] is not an integer: True"),
    ({"group": "C2", "action": [[0, "1"], [1, 0]]},
     r"action\[0\]\[1\] is not an integer: '1'"),
    ({"group": {"kind": "table", "table": [[0, 1], [1, 0.5]]},
      "action": [[0], [0]]},
     r"table\[1\]\[1\] is not an integer: 0\.5"),
], ids=["float", "bool", "string", "float-in-group-table"])
def test_gset_with_non_integer_entries_rejected(doc, match):
    with pytest.raises(ValueError, match=match):
        gset_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("mult", [-1, 1.5, 2.0, True, "2"],
                         ids=["negative", "float", "integral-float", "bool",
                              "string"])
def test_gset_orbit_multiplicity_must_be_a_nonnegative_integer(mult):
    with pytest.raises(ValueError, match="multiplicity of orbit 'e'"):
        gset_from_json({"group": "C2", "orbits": [["e", mult]]})


@pytest.mark.parametrize("expr", ["e*-2", "e*1.5", "e*x", "e*", "C2+e*-1"])
def test_gset_expr_multiplicity_must_be_a_nonnegative_integer(expr):
    with pytest.raises(ValueError, match="multiplicity of orbit 'e'"):
        parse_gset_expr(builtin_group("C2"), expr)


def test_gset_orbit_multiplicity_zero_and_numpy_integers_allowed():
    C2 = builtin_group("C2")
    assert gset_from_json({"group": "C2", "orbits": [["e", 0]]}).size == 0
    assert parse_gset_expr(C2, "e*0").size == 0
    assert parse_gset_expr(C2, "e * 2 + C2*0") == \
        gset_from_json({"group": "C2", "orbits": [["e", np.int64(2)]]})


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path, value, match", [
    (("levels", "e", "relations"), [[0.5]],
     r"level e: relations\[0\]\[0\] is not an integer: 0\.5"),
    (("levels", "e", "relations"), [[False]],
     r"level e: relations\[0\]\[0\] is not an integer: False"),
    (("levels", "C2", "relations"), [[2, "4"]],
     r"level C2: relations\[0\]\[1\] is not an integer: '4'"),
    (("levels", "e", "generators"), 1.5,
     r"level e: generator count\[0\] is not an integer: 1\.5"),
    (("levels", "e", "generators"), True,
     r"level e: generator count\[0\] is not an integer: True"),
    (("levels", "e", "generators"), -1,
     r"level e: generator count is negative: -1"),
    (("res", "e<C2", 0, 0), 1.7, r"res e<C2\[0\]\[0\] is not an integer: 1\.7"),
    (("tr", "e<C2", 0, 0), 2.2, r"tr e<C2\[0\]\[0\] is not an integer: 2\.2"),
    (("tr", "e<C2", 1, 0), True, r"tr e<C2\[1\]\[0\] is not an integer: True"),
    (("conj", "e", "1", 0, 0), 1.0, r"conj e 1\[0\]\[0\] is not an integer: 1\.0"),
], ids=["relator-float", "relator-bool", "relator-string", "gens-float",
        "gens-bool", "gens-negative", "res-float", "tr-float", "tr-bool",
        "conj-integral-float"])
def test_mackey_file_with_non_integer_entries_rejected(path, value, match):
    # each of these used to load: int() truncated the entry, or the count
    # raised a TypeError naming no field
    doc = mackey_to_json(burnside_mackey(builtin_group("C2")))
    _set(doc, path, value)
    with pytest.raises(ValueError, match=match):
        mackey_from_json(json.loads(json.dumps(doc)))
