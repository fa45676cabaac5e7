"""JSON schemas for groups, G-sets, Mackey functors and Green functors.

Groups load from built-in names, multiplication tables, or permutation
generators.  Mackey functors are keyed by subgroup-class labels in the
canonical class order (ascending subgroup order, then lexicographic
representative); restriction and transfer matrices are read against the
canonical covering pair of each class pair (`class_pair_covers`), and
conjugation data against normalizer elements of the class representative:
a dump lists every element, derived from the stored generators, and a
load stores the generators and checks every given entry against the
action they generate (`mackey_from_levels`).  A group where one class pair holds several conjugacy classes of covering
pairs has no such file: loading and dumping raise ValueError.  Every
loader validates and every dump reloads to an equal object.
"""

from __future__ import annotations

import json
import numbers

from .abgroups import FinPresAbGroup
from .burnside import BurnsideElement, canonical_code
from .convolution import GreenFunctor, green_from_levelwise
from .groups import FiniteGroup, load_group
from .intmat import _labels
from .gsets import GSet, disjoint_union_of_orbits
from .mackey import MackeyFunctor, class_pair_covers, mackey_from_levels


def group_to_json(group: FiniteGroup):
    return {"kind": "table", "name": group.name,
            "table": [list(r) for r in group.table]}


def gset_from_json(doc, group=None) -> GSet:
    """{"group":..., "size": n, "action": [...]} or {"group":..., "orbits": [[label, mult], ...]}."""
    if group is None:
        group = load_group(required(doc, "group", "G-set"))
    if "orbits" in doc:
        classes = []
        for item in required(doc, "orbits", "G-set", list):
            label, mult = _entry(item, ("label", "multiplicity"), "orbit entry")
            cls = group.class_by_label(label)
            classes.extend([cls.index] * _multiplicity(label, mult))
        return disjoint_union_of_orbits(group, tuple(sorted(classes)))
    X = GSet(group, required(doc, "action", "G-set", list))
    if doc.get("size") is not None and X.size != doc["size"]:
        raise ValueError("size does not match the action table")
    return X


def _multiplicity(label, mult):
    """An orbit multiplicity, a nonnegative integer (0 allowed)."""
    if isinstance(mult, bool) or not isinstance(mult, numbers.Integral) \
            or mult < 0:
        raise ValueError(f"multiplicity of orbit {label!r} is not a "
                         f"nonnegative integer: {mult!r}")
    return int(mult)


def parse_gset_expr(group: FiniteGroup, expr: str) -> GSet:
    """Orbit-sum shorthand like 'e+e+C2' or 'C2*2+e'."""
    classes = []
    for part in expr.split("+"):
        part = part.strip()
        if not part:
            continue
        if "*" in part:
            label, _, mult = part.partition("*")
            mult = mult.strip()
            mult = _multiplicity(label.strip(),
                                 int(mult) if mult.isdecimal() else mult)
        else:
            label, mult = part, 1
        cls = group.class_by_label(label.strip())
        classes.extend([cls.index] * mult)
    return disjoint_union_of_orbits(group, tuple(sorted(classes)))


def mackey_to_json(M: MackeyFunctor):
    group = M.group
    classes = group.subgroup_classes()
    levels = {}
    for cls in classes:
        lvl = M.levels[cls.index]
        levels[cls.label] = {
            "generators": lvl.generator_count,
            "relations": [list(r) for r in lvl.relations],
            "invariant_factors": list(lvl.invariant_factors),
        }
    res, tr = {}, {}
    for (ca, cb), pair in class_pair_covers(group).items():
        key = f"{classes[ca].label}<{classes[cb].label}"
        res[key] = [list(r) for r in M.res[pair]]
        tr[key] = [list(r) for r in M.tr[pair]]
    conj = {}
    for cls in classes:
        conj[cls.label] = {str(n): [list(r) for r in M.weyl[cls.index][n]]
                           for n in cls.normalizer}
    return {
        "group": group_to_json(group),
        "class_order": [cls.label for cls in classes],
        "levels": levels,
        "res": res,
        "tr": tr,
        "conj": conj,
        "name": M.name,
    }


def required(doc, key, where, kind=None):
    """doc[key], for a JSON object doc; raises ValueError naming `where`
    and the key unless doc is an object holding it, of `kind` if given
    (`of_kind`)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where} has no {key!r}")
    return doc[key] if kind is None else \
        of_kind(doc[key], kind, f"{where} {key!r}")


def of_kind(value, kind, what):
    """value, if a JSON array (kind list) or object (kind dict); else a
    ValueError naming `what`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} is not a JSON "
                         f"{'array' if kind is list else 'object'}")
    return value


def _entry(entry, fields, where):
    """entry, if a JSON array of one item per field; else a ValueError."""
    if not isinstance(entry, (list, tuple)) or len(entry) != len(fields):
        raise ValueError(f"{where} {entry!r} is not [{', '.join(fields)}]")
    return entry


def mackey_from_json(doc) -> MackeyFunctor:
    group = load_group(required(doc, "group", "Mackey functor"))
    classes = group.subgroup_classes()
    labels = [cls.label for cls in classes]
    if of_kind(doc.get("class_order", labels), list,
               "Mackey functor 'class_order'") != labels:
        raise ValueError(f"class_order must be {labels}")
    levels, entries = [], _by_label(
        labels, required(doc, "levels", "Mackey functor"), "levels")
    for label, entry in zip(labels, entries):
        gens = required(entry, "generators", f"level {label}")
        rels = of_kind(entry.get("relations", []), list,
                       f"level {label} 'relations'")
        try:
            levels.append(FinPresAbGroup(gens, rels))
        except ValueError as err:
            raise ValueError(f"level {label}: {err}") from None

    def read_pairs(kind):
        out = {}
        for key, mat in required(doc, kind, "Mackey functor", dict).items():
            pair = key.split("<")
            if len(pair) != 2:
                raise ValueError(f"{kind} key {key!r} is not of the form "
                                 f"'A<B'")
            la, lb = pair
            out[(_label_index(labels, la, f"{kind} {key}"),
                 _label_index(labels, lb, f"{kind} {key}"))] = mat
        return out

    given = of_kind(doc.get("conj", {}), dict, "Mackey functor 'conj'")
    conj = {_label_index(labels, label, "conj"):
            {_element_key(g, f"conj {label}"): m
             for g, m in of_kind(mats, dict, f"conj {label}").items()}
            for label, mats in given.items()}
    return mackey_from_levels(group, levels, read_pairs("res"),
                              read_pairs("tr"), conj,
                              name=doc.get("name"))


def _label_index(labels, label, where):
    if label not in labels:
        raise ValueError(f"{where} names unknown class label {label!r}")
    return labels.index(label)


def _element_key(key, where):
    """The group element a JSON object key names, as an int; raises
    ValueError naming `where` and the key unless it is a decimal label."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise ValueError(f"{where} key {key!r} is not a group element label")
    return int(key)


def _by_label(labels, table, where):
    """A table keyed by class labels, as a list in class order; raises
    ValueError naming `where` unless it is a JSON object."""
    for label in of_kind(table, dict, where):
        _label_index(labels, label, where)
    for label in labels:
        if label not in table:
            raise ValueError(f"{where} has no entry for level {label!r}")
    return [table[label] for label in labels]


def green_to_json(G: GreenFunctor):
    return {"mackey": mackey_to_json(G.underlying),
            "rings": {cls.label: [[list(v) for v in row]
                                  for row in G.tables[cls.index]]
                      for cls in G.group.subgroup_classes()},
            "unit": [int(u) for u in G.unit]}


def green_from_json(doc) -> GreenFunctor:
    """Green functor from a file; green_from_levelwise checks every entry."""
    M = mackey_from_json(required(doc, "mackey", "Green functor"))
    labels = [cls.label for cls in M.group.subgroup_classes()]
    return green_from_levelwise(
        M, _by_label(labels, required(doc, "rings", "Green functor"), "rings"),
        required(doc, "unit", "Green functor"))


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def code_to_json(group, code):
    cidx, x, y = code
    return [group.subgroup_classes()[cidx].label, x, y]


def code_from_json(group, source, target, doc):
    """The canonical code of a span [label, x, y] from source to target.

    x and y must be integer points of source and target fixed by the
    class representative; a fixed but non-minimal pair is canonicalized.
    """
    return canonical_code(source, target, _code_as_written(group, doc))


def _code_as_written(group, doc):
    """The code (class index, x, y) of a span [label, x, y], with integer
    points and a known label but not yet checked against the feet."""
    label, x, y = _entry(doc, ("label", "x", "y"), "span code")
    x, y = _labels((x, y), f"span code {list(doc)} point")
    return (group.class_by_label(label).index, x, y)


def element_to_json(e):
    group = e.group
    return {"coefficients": [[code_to_json(group, c), int(v)]
                             for c, v in sorted(e.coeffs.items())]}


def element_from_json(group, source, target, doc, where="Burnside element"):
    """A Burnside element from its file; the constructor checks and
    canonicalizes each code once, as `code_from_json` would."""
    coeffs = {}
    for entry in required(doc, "coefficients", where, list):
        code_doc, v = _entry(entry, ("code", "value"), "coefficient entry")
        code = _code_as_written(group, code_doc)
        (v,) = _labels([v], f"coefficient of {list(code_doc)}")
        coeffs[code] = coeffs.get(code, 0) + v
    return BurnsideElement(source, target, coeffs)
