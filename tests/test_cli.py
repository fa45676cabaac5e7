import json
import os

import pytest

from mackeykit import cli, homalg, jsonio
from mackeykit.groups import builtin_group
from mackeykit.mackey import burnside_mackey
from mackeykit.convolution import burnside_green
import output_manifest
from support import gset_to_json


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_marks_json_matches_spec_example(capsys):
    code, out, _ = run(capsys, ["marks", "--group", "C2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["marks"] == [[2, 0], [1, 1]]


def test_bpq_trivial(capsys):
    code, out, _ = run(capsys, ["bpq", "--group", "trivial",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["iso"]["e"] == [[1]]


def test_group_info_text(capsys):
    code, out, _ = run(capsys, ["group-info", "--group", "S3"])
    assert code == 0
    assert "4 classes" in out


def test_duality_check(capsys):
    code, out, _ = run(capsys, ["duality-check", "--group", "C4"])
    assert code == 0


def test_promonoidal_check(capsys):
    code, out, _ = run(capsys, ["promonoidal-check", "--group", "C2",
                                "--feet", "e", "C2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_hom_basis_and_burnside_ring(capsys):
    code, out, _ = run(capsys, ["hom-basis", "--group", "C2",
                                "--source", "e", "--target", "e",
                                "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["basis"]) == 2
    code, out, _ = run(capsys, ["burnside-ring", "--group", "C2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["span_composition_agrees"] is True


def test_mackey_check_and_box(tmp_path, capsys):
    C2 = builtin_group("C2")
    M = burnside_mackey(C2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(jsonio.mackey_to_json(M)))
    code, out, _ = run(capsys, ["mackey-check", str(path),
                                "--format", "json", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out, _ = run(capsys, ["box", str(path), str(path),
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"]["e"] == [0]          # Z at the free level


def test_mackey_check_rejects_bad_data(tmp_path, capsys):
    C2 = builtin_group("C2")
    doc = jsonio.mackey_to_json(burnside_mackey(C2))
    doc["tr"]["e<C2"] = [[3], [0]]            # wrong transfer
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["mackey-check", str(path),
                                "--format", "json"])
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("edit", [
    lambda doc: doc["levels"]["e"].update(relations=[[0.5]]),
    lambda doc: doc["levels"]["C2"].update(generators=1.5),
    lambda doc: doc["res"]["e<C2"][0].__setitem__(0, 1.7),
], ids=["relator", "generators", "res"])
def test_mackey_check_rejects_non_integer_entries(tmp_path, capsys, edit):
    doc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C2")))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["mackey-check", str(path),
                                "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "is not an integer" in payload["error"]


def _bad_input_files(tmp_path):
    """A C4 and an S3 Burnside file, and the C4 file with one transfer
    entry bumped by 1."""
    paths = {}
    for name in ("C4", "S3"):
        doc = jsonio.mackey_to_json(burnside_mackey(builtin_group(name)))
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    doc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C4")))
    key = sorted(doc["tr"])[0]
    doc["tr"][key][0][0] += 1
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text(json.dumps(doc))
    paths["ring"] = tmp_path / "ring.json"
    paths["ring"].write_text(json.dumps({"burnside": "C4"}))
    return paths


def _box_or_tor(command, paths, left, right):
    if command == "box":
        return ["box", str(paths[left]), str(paths[right])]
    return ["tor", str(paths["ring"]), str(paths[left]), str(paths[right]),
            "--pmax", "0"]


@pytest.mark.parametrize("command", ["box", "tor"])
@pytest.mark.parametrize("left,right,match", [
    ("C4", "S3", "different groups"),
    ("bad", "C4", "functoriality fails"),
], ids=["different-groups", "bumped-transfer"])
def test_box_and_tor_report_errors_as_json(tmp_path, capsys, command, left,
                                          right, match):
    paths = _bad_input_files(tmp_path)
    code, out, err = run(capsys, _box_or_tor(command, paths, left, right)
                         + ["--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"error", "schema_version"}
    assert payload["schema_version"] == 1
    assert match in payload["error"]
    assert err == ""


@pytest.mark.parametrize("command,message", [
    ("box", "the factors are over different groups: C4 and S3"),
    ("tor", "the ring and the functor are over different groups: C4 and S3"),
], ids=["box", "tor"])
def test_box_and_tor_report_errors_on_stderr_in_text_mode(tmp_path, capsys,
                                                         command, message):
    # the message names both groups, as `compose` does
    paths = _bad_input_files(tmp_path)
    code, out, err = run(capsys, _box_or_tor(command, paths, "C4", "S3"))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_green_check_detects_violation(tmp_path, capsys):
    C2 = builtin_group("C2")
    doc = jsonio.green_to_json(burnside_green(C2))
    # corrupt one multiplication cell
    doc["rings"]["C2"][0][0] = [5, 0]
    path = tmp_path / "bad_green.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["green-check", str(path), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "cell" in payload["error"] or "unit" in payload["error"] \
        or "associative" in payload["error"] or "commutative" in payload["error"] \
        or "Frobenius" in payload["error"]


def test_green_check_names_a_unit_of_the_wrong_length(tmp_path, capsys):
    doc = jsonio.green_to_json(burnside_green(builtin_group("C2")))
    doc["unit"] = [0, 1, 0]
    path = tmp_path / "bad_green.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["green-check", str(path), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["error"] == "unit at level C2: vector of length 3, expected 2"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["rings"]["C2"][1].__setitem__(1, [0.5, 1.5]),
    lambda doc: doc.update(unit=[0.9, 1]),
], ids=["ring", "unit"])
def test_green_check_rejects_non_integer_entries(tmp_path, capsys, edit):
    doc = jsonio.green_to_json(burnside_green(builtin_group("C2")))
    edit(doc)
    path = tmp_path / "bad_green.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["green-check", str(path), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "is not an integer" in payload["error"]


def test_green_check_accepts_valid(tmp_path, capsys):
    C2 = builtin_group("C2")
    doc = jsonio.green_to_json(burnside_green(C2))
    path = tmp_path / "green.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["green-check", str(path), "--format", "json"])
    assert code == 0


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc["levels"].pop("e"), "levels has no entry for level 'e'"),
    (lambda doc: doc["res"].__setitem__("X<C2", doc["res"].pop("e<C2")),
     "res X<C2 names unknown class label 'X'"),
    (lambda doc: doc["tr"].__setitem__("e<Y", doc["tr"].pop("e<C2")),
     "tr e<Y names unknown class label 'Y'"),
    (lambda doc: doc["conj"].__setitem__("X", {"1": [[7]]}),
     "conj names unknown class label 'X'"),
], ids=["missing-level", "res-label", "tr-label", "conj-label"])
def test_mackey_check_names_a_missing_level_or_unknown_label(
        tmp_path, capsys, edit, error):
    doc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C2")))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["mackey-check", str(path),
                                  "--format", "json"])
    assert code == 1 and err == ""
    assert json.loads(out) == {"schema_version": 1, "valid": False,
                               "error": error}


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc["mackey"]["levels"].pop("C2"),
     "levels has no entry for level 'C2'"),
    (lambda doc: doc["rings"].pop("C2"), "rings has no entry for level 'C2'"),
    (lambda doc: doc["rings"].__setitem__("Q", doc["rings"].pop("e")),
     "rings names unknown class label 'Q'"),
    (lambda doc: doc["mackey"]["res"].__setitem__(
        "e<Z", doc["mackey"]["res"].pop("e<C2")),
     "res e<Z names unknown class label 'Z'"),
    (lambda doc: doc["mackey"]["conj"].__setitem__("X", {"1": [[7]]}),
     "conj names unknown class label 'X'"),
], ids=["missing-level", "missing-ring", "ring-label", "res-label",
        "conj-label"])
def test_green_check_names_a_missing_level_or_unknown_label(
        tmp_path, capsys, edit, error):
    doc = jsonio.green_to_json(burnside_green(builtin_group("C2")))
    edit(doc)
    path = tmp_path / "bad_green.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["green-check", str(path), "--format", "json"])
    assert code == 1 and err == ""
    assert json.loads(out) == {"schema_version": 1, "valid": False,
                               "error": error}


@pytest.mark.parametrize("command, edit, error", [
    ("mackey-check", lambda doc: doc.pop("group"),
     "Mackey functor has no 'group'"),
    ("mackey-check", lambda doc: doc.pop("levels"),
     "Mackey functor has no 'levels'"),
    ("mackey-check", lambda doc: doc.pop("res"), "Mackey functor has no 'res'"),
    ("mackey-check", lambda doc: doc.pop("tr"), "Mackey functor has no 'tr'"),
    ("mackey-check", lambda doc: doc["levels"]["e"].pop("generators"),
     "level e has no 'generators'"),
    ("green-check", lambda doc: doc.pop("mackey"),
     "Green functor has no 'mackey'"),
    ("green-check", lambda doc: doc.pop("rings"),
     "Green functor has no 'rings'"),
    ("green-check", lambda doc: doc.pop("unit"), "Green functor has no 'unit'"),
    ("green-check", lambda doc: doc["mackey"].pop("tr"),
     "Mackey functor has no 'tr'"),
    ("mackey-check", lambda doc: doc.update(levels=5),
     "levels is not a JSON object"),
    ("mackey-check", lambda doc: doc.update(res=[1]),
     "Mackey functor 'res' is not a JSON object"),
    ("mackey-check", lambda doc: doc.update(tr=[1]),
     "Mackey functor 'tr' is not a JSON object"),
    ("mackey-check", lambda doc: doc.update(conj=[1]),
     "Mackey functor 'conj' is not a JSON object"),
    ("mackey-check", lambda doc: doc["conj"].update(e=5),
     "conj e is not a JSON object"),
    ("green-check", lambda doc: doc.update(rings=5),
     "rings is not a JSON object"),
    ("mackey-check", lambda doc: doc.update(class_order=5),
     "Mackey functor 'class_order' is not a JSON array"),
    ("mackey-check", lambda doc: doc["levels"]["e"].update(relations=5),
     "level e 'relations' is not a JSON array"),
    ("mackey-check", lambda doc: doc["res"].__setitem__(
        "eC2", doc["res"].pop("e<C2")),
     "res key 'eC2' is not of the form 'A<B'"),
    ("mackey-check", lambda doc: doc["tr"].__setitem__(
        "e<C2<C2", doc["tr"].pop("e<C2")),
     "tr key 'e<C2<C2' is not of the form 'A<B'"),
], ids=["group", "levels", "res", "tr", "generators", "mackey", "rings",
        "unit", "green-tr", "levels-kind", "res-kind", "tr-kind", "conj-kind",
        "conj-entry-kind", "rings-kind", "class-order-kind", "relations-kind",
        "res-key", "tr-key"])
def test_checks_name_a_missing_key(tmp_path, capsys, command, edit, error):
    # a missing key once ended the command with the bare KeyError text on
    # stderr ("error: 'tr'") and, under --format json, no JSON object; a
    # number or an array in place of an object or an array raised
    # TypeError or AttributeError, which the command did not catch, and a
    # res/tr key without one "<" failed to unpack, naming no key
    C2 = builtin_group("C2")
    doc = jsonio.mackey_to_json(burnside_mackey(C2)) \
        if command == "mackey-check" else \
        jsonio.green_to_json(burnside_green(C2))
    edit(doc)
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [command, str(path), "--format", "json"])
    assert code == 1 and err == ""
    assert json.loads(out) == {"schema_version": 1, "valid": False,
                               "error": error}


@pytest.mark.parametrize("key", ["group", "terms"])
def test_ss_cli_names_a_missing_key(tmp_path, capsys, key):
    mdoc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C2")))
    doc = {"group": "C2", "terms": {"0": mdoc}, "filtration": "skeletal"}
    doc.pop(key)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["ss", str(path), "--format", "json"])
    assert (code, out, err) == (1, "", f"error: complex has no {key!r}\n")


def test_tor_cli(tmp_path, capsys):
    C2 = builtin_group("C2")
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"burnside": "C2"}))
    m = tmp_path / "m.json"
    m.write_text(json.dumps(jsonio.mackey_to_json(burnside_mackey(C2))))
    code, out, _ = run(capsys, ["tor", str(ring), str(m), str(m),
                                "--pmax", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tor"]) == 2
    # Tor_p(R, R) vanishes above degree zero
    assert all(v == [] for v in doc["tor"][1].values())


def test_tor_cli_presents_no_box_and_answers_as_recorded(tmp_path, capsys,
                                                        monkeypatch):
    # `mackeykit tor` reads only the Tor groups, so it never builds the
    # Tor_0 witness or the box M box_R N it lands in; its payload is the
    # one the output manifest records for `cli/tor`
    calls = []
    real = homalg.rel_box

    def counting(M, N):
        calls.append((M, N))
        return real(M, N)

    monkeypatch.setattr(homalg, "rel_box", counting)
    FP = output_manifest._fp_z(builtin_group("S3"))
    Q = output_manifest._mod_two(FP)
    paths = []
    for name, doc in (("ring", {"burnside": "S3"}),
                      ("fp", jsonio.mackey_to_json(FP)),
                      ("q", jsonio.mackey_to_json(Q))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code, out, err = run(capsys, ["tor", *map(str, paths), "--pmax", "2",
                                  "--format", "json"])
    assert (code, err, calls) == (0, "", [])
    recorded = output_manifest._json_bytes({"exit": code,
                                            "payload": json.loads(out)})
    assert output_manifest._sha(recorded) == output_manifest.load()["cli/tor"]


def test_ss_cli(tmp_path, capsys):
    C2 = builtin_group("C2")
    mdoc = jsonio.mackey_to_json(burnside_mackey(C2))
    complex_doc = {
        "group": "C2",
        "terms": {"0": mdoc, "1": mdoc},
        "diffs": {"1": {"e": [[0]], "C2": [[0, 0], [0, 0]]}},
        "filtration": "skeletal",
    }
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_doc))
    code, out, _ = run(capsys, ["ss", str(path), "--rmax", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pages"][0]["r"] == 1


def test_ss_cli_pages_agree_once_the_filtration_has_degenerated(
        tmp_path, capsys):
    # Burnside --2--> Burnside on C2 with its two-step skeletal filtration
    # degenerates at E_2, so pages 2..5 list the same entries; from r = 3
    # on the pages read the same quotient complexes
    mdoc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C2")))
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({
        "group": "C2", "terms": {"0": mdoc, "1": mdoc},
        "diffs": {"1": {"e": [[2]], "C2": [[2, 0], [0, 2]]}},
        "filtration": "skeletal"}))
    code, out, _ = run(capsys, ["ss", str(path), "--rmax", "5",
                                "--format", "json"])
    assert code == 0
    pages = json.loads(out)["pages"]
    assert [page["r"] for page in pages] == [1, 2, 3, 4, 5]
    E2 = pages[1]["entries"]
    assert E2 == {"0,0": {"e": [2], "C2": [2, 2]}}
    assert all(page["entries"] == E2 for page in pages[2:])


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc["diffs"]["1"].pop("C2"),
     "diffs 1 has no entry for level 'C2'"),
    (lambda doc: doc["diffs"].__setitem__("2", doc["diffs"].pop("1")),
     "diffs 2 needs a term in degree 2"),
    (lambda doc: doc["diffs"]["1"].__setitem__("typo", [[1]]),
     "diffs 1 names unknown class label 'typo'"),
    (lambda doc: doc.update(filtration="other", terms={}),
     "only the skeletal filtration is supported in JSON"),
    (lambda doc: doc.update(terms=5), "complex 'terms' is not a JSON object"),
    (lambda doc: doc.update(diffs=[1]),
     "complex 'diffs' is not a JSON object"),
    (lambda doc: doc["diffs"].update({"1": 5}),
     "diffs 1 is not a JSON object"),
], ids=["missing-level", "missing-term", "unknown-label", "filtration-first",
        "terms-kind", "diffs-kind", "diff-kind"])
def test_ss_cli_names_what_is_wrong_with_a_malformed_complex(
        tmp_path, capsys, edit, error):
    # these once exited with "error: 'C2'" and "error: 1", or, for the
    # unknown label, with code 0; the filtration is read before the terms
    mdoc = jsonio.mackey_to_json(burnside_mackey(builtin_group("C2")))
    doc = {"group": "C2", "terms": {"0": mdoc, "1": mdoc},
           "diffs": {"1": {"e": [[0]], "C2": [[0, 0], [0, 0]]}},
           "filtration": "skeletal"}
    edit(doc)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["ss", str(path), "--format", "json"])
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_compose_cli(tmp_path, capsys):
    C2 = builtin_group("C2")
    from mackeykit.gsets import point_gset, standard_orbit
    from mackeykit.burnside import hom_basis
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    tr_doc = {
        "group": "C2",
        "source": gset_to_json(O),
        "target": gset_to_json(pt),
        "coefficients": [[jsonio.code_to_json(C2, hom_basis(O, pt)[0]), 1]],
    }
    res_doc = {
        "group": "C2",
        "source": gset_to_json(pt),
        "target": gset_to_json(O),
        "coefficients": [[jsonio.code_to_json(C2, hom_basis(pt, O)[0]), 1]],
    }
    f1 = tmp_path / "tr.json"
    f1.write_text(json.dumps(tr_doc))
    f2 = tmp_path / "res.json"
    f2.write_text(json.dumps(res_doc))
    code, out, _ = run(capsys, ["compose", str(f1), str(f2),
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    # res . tr through the point is identity + translation
    assert len(doc["composite"]["coefficients"]) == 2


def _point_identity_doc(group_doc):
    """The identity span of the one-point G-set, over the given group."""
    return {"group": group_doc, "source": {"orbits": [["G", 1]]},
            "target": {"orbits": [["G", 1]]},
            "coefficients": [[["G", 0, 0], 1]]}


def test_compose_cli_refuses_elements_over_different_groups(tmp_path,
                                                            capsys):
    f1, f2 = tmp_path / "c2.json", tmp_path / "c3.json"
    f1.write_text(json.dumps(_point_identity_doc("C2")))
    f2.write_text(json.dumps(_point_identity_doc("C3")))
    code, out, err = run(capsys, ["compose", str(f1), str(f2),
                                  "--format", "json"])
    assert code == 1 and out == ""
    assert err == "error: the elements are over different groups: C2 and C3\n"
    # a group given by name and the same group given by its table compose
    f2.write_text(json.dumps(_point_identity_doc(
        jsonio.group_to_json(builtin_group("C2")))))
    code, out, err = run(capsys, ["compose", str(f1), str(f2),
                                  "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["composite"]["coefficients"] == [[["C2", 0, 0], 1]]


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc.pop("coefficients"),
     "first element has no 'coefficients'"),
    (lambda doc: doc.pop("group"), "first element has no 'group'"),
    (lambda doc: doc.pop("target"), "first element has no 'target'"),
    (lambda doc: doc["source"].pop("orbits"), "G-set has no 'action'"),
    (lambda doc: doc["source"].update(orbits=[["G"]]),
     "orbit entry ['G'] is not [label, multiplicity]"),
    (lambda doc: doc.update(coefficients=[[["G", 0, 0]]]),
     "coefficient entry [['G', 0, 0]] is not [code, value]"),
    (lambda doc: doc["source"].update(orbits=5),
     "G-set 'orbits' is not a JSON array"),
    (lambda doc: doc.update(coefficients=7),
     "first element 'coefficients' is not a JSON array"),
], ids=["coefficients", "group", "target", "action", "orbit-entry",
        "coefficient-entry", "orbits-kind", "coefficients-kind"])
def test_compose_cli_names_a_missing_key_or_malformed_entry(
        tmp_path, capsys, edit, error):
    # a missing key once ended the command with "error: 'coefficients'",
    # a short entry with "not enough values to unpack", and a number in
    # place of an array with an uncaught TypeError
    doc = _point_identity_doc("C2")
    edit(doc)
    f1, f2 = tmp_path / "bad.json", tmp_path / "ident.json"
    f1.write_text(json.dumps(doc))
    f2.write_text(json.dumps(_point_identity_doc("C2")))
    code, out, err = run(capsys, ["compose", str(f1), str(f2)])
    assert (code, out, err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("code_doc, match", [
    (["C2", 1.9, 0], "point[0] is not an integer: 1.9"),
    (["e", 2, 0], "span code (0, 2, 0) is out of range"),
    (["C2", 1, 0], "span code (1, 1, 0): its points are not fixed"),
], ids=["float-point", "out-of-range", "not-fixed"])
def test_compose_cli_rejects_bad_codes(tmp_path, capsys, code_doc, match):
    C2 = builtin_group("C2")
    from mackeykit.gsets import point_gset, standard_orbit
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    bad = {"group": "C2", "source": gset_to_json(O),
           "target": gset_to_json(pt),
           "coefficients": [[code_doc, 1]]}
    ident = {"group": "C2", "source": gset_to_json(pt),
             "target": gset_to_json(pt),
             "coefficients": [[["C2", 0, 0], 1]]}
    f1 = tmp_path / "bad.json"
    f1.write_text(json.dumps(bad))
    f2 = tmp_path / "ident.json"
    f2.write_text(json.dumps(ident))
    code, out, err = run(capsys, ["compose", str(f1), str(f2)])
    assert code == 1 and out == ""
    assert match in err


def test_determinism_with_seed(tmp_path, capsys):
    C2 = builtin_group("C2")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(jsonio.mackey_to_json(burnside_mackey(C2))))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["mackey-check", str(path),
                                    "--format", "json", "--seed", "11"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["marks"])          # missing --group
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,option", [
    (["tor", "ring.json", "m.json", "m.json", "--pmax", "-1"], "--pmax"),
    (["tor", "ring.json", "m.json", "m.json", "--pmax", "two"], "--pmax"),
    (["ss", "cx.json", "--rmax", "0"], "--rmax"),
    (["ss", "cx.json", "--rmax", "-3"], "--rmax"),
], ids=["pmax-negative", "pmax-not-a-number", "rmax-zero", "rmax-negative"])
def test_out_of_range_degrees_are_usage_errors(capsys, argv, option):
    # rejected while parsing, before any file is read: no output, exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: expected an integer >= " in err


def test_parser_is_built_once_and_reused_after_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        cli.main(["marks"])          # missing --group
    capsys.readouterr()
    code, out, _ = run(capsys, ["marks", "--group", "C2", "--format", "json"])
    assert code == 0 and json.loads(out)["marks"] == [[2, 0], [1, 1]]
    # the next command starts from the defaults again, not from the last
    # command's options
    code, out, _ = run(capsys, ["marks", "--group", "C2"])
    assert code == 0 and not out.lstrip().startswith("{")


def test_unknown_group_is_an_error(capsys):
    code, _out, err = run(capsys, ["marks", "--group", "E8"])
    assert code == 1
    assert "unknown group" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "marks.json"
    code, out, _ = run(capsys, ["marks", "--group", "C2", "--format", "json",
                                "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["marks"] == [[2, 0], [1, 1]]


@pytest.mark.parametrize("source, match", [
    ('{"group": "C2", "action": [[0, 1.7], [1, 0]]}',
     "action[0][1] is not an integer: 1.7"),
    ('{"group": "C2", "action": [[0, 1], [1, false]]}',
     "action[1][1] is not an integer: False"),
    ("e*-2", "multiplicity of orbit 'e' is not a nonnegative integer: '-2'"),
    ('{"group": "C2", "orbits": [["e", 1.5]]}',
     "multiplicity of orbit 'e' is not a nonnegative integer: 1.5"),
    ('{"group": "C2", "action": 5}', "G-set 'action' is not a JSON array"),
    ('{"group": "C2", "action": [5, 5]}', "action[0] is not a sequence: 5"),
], ids=["float-entry", "bool-entry", "negative-multiplicity",
        "float-multiplicity", "action-kind", "action-row-kind"])
def test_hom_basis_rejects_bad_gset_input(capsys, source, match):
    code, out, err = run(capsys, ["hom-basis", "--group", "C2",
                                  "--source", source, "--target", "e"])
    assert code == 1
    assert match in err and out == ""


@pytest.mark.parametrize("degree, shown", [("3.9", "3.9"), ('"3"', "'3'"),
                                           ("true", "True"), ("-1", "-1")])
def test_bad_permutation_degree_is_a_cli_error(capsys, degree, shown):
    spec = f'{{"kind": "perm", "degree": {degree}, "generators": [[1, 0, 2]]}}'
    code, out, err = run(capsys, ["marks", "--group", spec])
    assert code == 1 and out == ""
    assert f"degree must be a non-negative integer: {shown}" in err


def test_non_integer_group_table_is_a_cli_error(capsys):
    table = '{"kind": "table", "table": [[0, 1], [1, 0.5]]}'
    code, _out, err = run(capsys, ["marks", "--group", table])
    assert code == 1
    assert "table[1][1] is not an integer: 0.5" in err
