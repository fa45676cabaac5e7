"""Command-line surface: stable, machine-readable access to the library.

Every subcommand emits either aligned text or a single JSON object with
"schema_version": 1.  Exit codes: 0 success, 1 verification failure,
2 usage errors.  Every check is exhaustive and deterministic, so the
output depends only on the inputs; --seed is still accepted and ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import jsonio
from .burnside import (
    burnside_ring_from_spans,
    burnside_ring_table,
    compose,
    hom_basis,
    identity_element,
    promonoidal_coend_check,
    table_of_marks,
    triangle_composite,
)
from .convolution import box, burnside_green
from .groups import BUILTIN_GROUP_NAMES, _same_group, load_group
from .gsets import point_gset, standard_orbit
from .homalg import (
    canonical_module,
    skeletal_filtration,
    ss_pages,
    tor,
    ChainComplex,
)
from .ktheory import bpq_verify
from .mackey import MackeyMorphism

SCHEMA_VERSION = 1


def _styled(text, code):
    if os.environ.get("MACKEYKIT_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _ok(text="ok"):
    return _styled(text, "32")


def _fail(text="FAIL"):
    return _styled(text, "31")


def _emit(args, payload, text_lines):
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _int_at_least(least):
    """An argparse type: an integer no smaller than `least`, so a value
    out of range is a usage error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _table(rows, headers=None):
    rows = [[str(c) for c in r] for r in rows]
    if headers:
        rows = [list(headers)] + rows
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    if headers:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def _levels(M, header="group"):
    """A functor's levels: {class label: invariant factors} for the JSON
    payload, and a level/`header` text table."""
    classes = M.group.subgroup_classes()
    payload = {cls.label: list(M.levels[c].invariant_factors)
               for c, cls in enumerate(classes)}
    table = _table([[cls.label, M.levels[c].describe()]
                    for c, cls in enumerate(classes)],
                   headers=("level", header))
    return payload, table


def _load_group_arg(args):
    spec = args.group
    if spec.endswith(".json") or os.path.exists(spec):
        return load_group(jsonio.load_json_file(spec))
    if spec.startswith("{"):
        return load_group(json.loads(spec))
    return load_group(spec)


def _gset_arg(group, text):
    if text.endswith(".json") or os.path.exists(text):
        return jsonio.gset_from_json(jsonio.load_json_file(text), group)
    if text.startswith("{"):
        return jsonio.gset_from_json(json.loads(text), group)
    return jsonio.parse_gset_expr(group, text)


def cmd_group_info(args):
    group = _load_group_arg(args)
    classes = group.subgroup_classes()
    rows = [[c.label, len(c.representative), len(c.conjugates), c.weyl_order]
            for c in classes]
    payload = {"group": group.name, "order": group.order,
               "subgroups": len(group.subgroups()),
               "classes": [{"label": c.label,
                            "order": len(c.representative),
                            "conjugates": len(c.conjugates),
                            "weyl_order": c.weyl_order} for c in classes]}
    lines = [f"group {group.name}: order {group.order}, "
             f"{len(group.subgroups())} subgroups, {len(classes)} classes"]
    lines += _table(rows, headers=("class", "order", "conjugates", "weyl"))
    _emit(args, payload, lines)
    return 0


def cmd_marks(args):
    group = _load_group_arg(args)
    marks = table_of_marks(group)
    labels = [c.label for c in group.subgroup_classes()]
    payload = {"group": group.name, "classes": labels, "marks": marks}
    lines = [f"table of marks for {group.name} (rows G/H, columns K)"]
    lines += _table([[labels[i]] + marks[i] for i in range(len(labels))],
                    headers=["orbit"] + labels)
    _emit(args, payload, lines)
    return 0


def cmd_burnside_ring(args):
    group = _load_group_arg(args)
    table = burnside_ring_table(group)
    basis, spans = burnside_ring_from_spans(group)
    agree = table == spans
    labels = [c.label for c in group.subgroup_classes()]
    payload = {"group": group.name, "basis": labels, "table": table,
               "span_composition_agrees": agree}
    lines = [f"Burnside ring of {group.name} on the orbit basis"]
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            terms = [f"{c}*[{labels[k]}]" for k, c in enumerate(table[i][j]) if c]
            lines.append(f"[{li}] * [{lj}] = {' + '.join(terms) if terms else '0'}")
    lines.append(f"endomorphism-composition check: "
                 f"{_ok() if agree else _fail()}")
    _emit(args, payload, lines)
    return 0 if agree else 1


def cmd_hom_basis(args):
    group = _load_group_arg(args)
    X = _gset_arg(group, args.source)
    Y = _gset_arg(group, args.target)
    basis = hom_basis(X, Y)
    payload = {"group": group.name,
               "basis": [jsonio.code_to_json(group, c) for c in basis]}
    lines = [f"A(X, Y) has rank {len(basis)}; basis codes "
             f"(stabilizer class, x, y):"]
    lines += [f"  {jsonio.code_to_json(group, c)}" for c in basis]
    _emit(args, payload, lines)
    return 0


def _element_doc(group, doc, where):
    """The Burnside element of a compose file, over `group`."""
    X, Y = (jsonio.gset_from_json(jsonio.required(doc, key, where), group)
            for key in ("source", "target"))
    return jsonio.element_from_json(group, X, Y, doc, where)


def cmd_compose(args):
    docs = [(jsonio.load_json_file(path), f"{which} element") for path, which
            in ((args.first, "first"), (args.second, "second"))]
    group, other = (load_group(jsonio.required(doc, "group", where))
                    for doc, where in docs)
    _same_group(group, other, "the elements")
    f, g = (_element_doc(group, doc, where) for doc, where in docs)
    out = compose(g, f)
    payload = {"group": group.name, "composite": jsonio.element_to_json(out)}
    lines = ["composite (second . first):"]
    for c, v in sorted(out.coeffs.items()):
        lines.append(f"  {v} * {jsonio.code_to_json(group, c)}")
    if not out.coeffs:
        lines.append("  0")
    _emit(args, payload, lines)
    return 0


def cmd_mackey_check(args):
    try:
        M = jsonio.mackey_from_json(jsonio.load_json_file(args.file))
    except ValueError as err:
        _emit(args, {"valid": False, "error": str(err)},
              [f"mackey-check: {_fail()}", f"  {err}"])
        return 1
    levels, table = _levels(M)
    _emit(args, {"valid": True, "levels": levels},
          [f"mackey-check: {_ok()}"] + table)
    return 0


def cmd_box(args):
    M = jsonio.mackey_from_json(jsonio.load_json_file(args.left))
    N = jsonio.mackey_from_json(jsonio.load_json_file(args.right))
    levels, table = _levels(box(M, N).functor)
    _emit(args, {"levels": levels}, ["box product levels:"] + table)
    return 0


def cmd_green_check(args):
    try:
        G = jsonio.green_from_json(jsonio.load_json_file(args.file))
    except ValueError as err:
        _emit(args, {"valid": False, "error": str(err)},
              [f"green-check: {_fail()}", f"  {err}"])
        return 1
    levels, table = _levels(G.underlying, "ring underlying")
    _emit(args, {"valid": True, "levels": levels},
          [f"green-check: {_ok()} (associativity, commutativity, unit, "
           "Frobenius all hold)"] + table)
    return 0


def _tor_ring(doc):
    if isinstance(doc, dict) and "burnside" in doc:
        return burnside_green(load_group(doc["burnside"]), check=False)
    raise ValueError(
        'tor/ss expect the ring file to be {"burnside": "<group>"}; general '
        "Green rings need module actions and are library-level only")


def cmd_tor(args):
    R = _tor_ring(jsonio.load_json_file(args.ring))
    group = R.group
    M = jsonio.mackey_from_json(jsonio.load_json_file(args.left))
    N = jsonio.mackey_from_json(jsonio.load_json_file(args.right))
    result = tor(R, canonical_module(R, M), canonical_module(R, N), args.pmax)
    payload = {"group": group.name, "tor": []}
    lines = []
    for p, T in enumerate(result.tor):
        levels, table = _levels(T)
        payload["tor"].append(levels)
        lines += [f"Tor_{p}:"] + table
    _emit(args, payload, lines)
    return 0


def cmd_ss(args):
    doc = jsonio.load_json_file(args.file)
    group = load_group(jsonio.required(doc, "group", "complex"))
    if doc.get("filtration", "skeletal") != "skeletal":
        raise ValueError("only the skeletal filtration is supported in JSON")
    terms = {}
    for deg, mdoc in jsonio.required(doc, "terms", "complex", dict).items():
        terms[int(deg)] = jsonio.mackey_from_json(mdoc)
    class_labels = [c.label for c in group.subgroup_classes()]
    diffs = {}
    for deg, mats in jsonio.of_kind(doc.get("diffs", {}), dict,
                                    "complex 'diffs'").items():
        n = int(deg)
        for d in (n, n - 1):
            if d not in terms:
                raise ValueError(f"diffs {n} needs a term in degree {d}")
        diffs[n] = MackeyMorphism(terms[n], terms[n - 1], jsonio._by_label(
            class_labels, mats, f"diffs {n}"))
    C = ChainComplex(group, terms, diffs)
    C.validate()
    filt = skeletal_filtration(C)
    pages = ss_pages(filt, args.rmax)
    payload = {"group": group.name, "pages": []}
    lines = []
    for page in pages:
        page_doc = {"r": page.r, "entries": {}}
        lines.append(f"page E_{page.r}:")
        for (p, q), E in sorted(page.entries.items()):
            inv = {class_labels[c]: list(E.levels[c].invariant_factors)
                   for c in range(len(class_labels))}
            if any(v for v in inv.values()):
                page_doc["entries"][f"{p},{q}"] = inv
                desc = ", ".join(f"{lbl}: {E.levels[c].describe()}"
                                 for c, lbl in enumerate(class_labels))
                lines.append(f"  E^{{{p},{q}}}: {desc}")
        payload["pages"].append(page_doc)
    _emit(args, payload, lines)
    return 0


def cmd_bpq(args):
    group = _load_group_arg(args)
    try:
        result = bpq_verify(group)
    except ValueError as err:
        _emit(args, {"verified": False, "error": str(err)},
              [f"bpq: {_fail()}", f"  {err}"])
        return 1
    labels = [c.label for c in group.subgroup_classes()]
    iso = {labels[c]: [list(r) for r in result.iso.mats[c]]
           for c in range(len(labels))}
    payload = {"verified": True, "group": group.name, "iso": iso}
    lines = [f"bpq({group.name}): {_ok('verified')} — K0 of finite "
             f"{group.name}-sets is the Burnside Green functor"]
    for c, lbl in enumerate(labels):
        lines.append(f"  level {lbl}: iso matrix {iso[lbl]}")
    _emit(args, payload, lines)
    return 0


def cmd_duality_check(args):
    group = _load_group_arg(args)
    rows = []
    all_ok = True
    for cls in group.subgroup_classes():
        X = standard_orbit(group, cls.index)
        ok = triangle_composite(X) == identity_element(X)
        all_ok = all_ok and ok
        rows.append([f"G/{cls.label}", "ok" if ok else "FAIL"])
    payload = {"group": group.name, "verified": all_ok,
               "orbits": {r[0]: r[1] == "ok" for r in rows}}
    lines = [f"duality triangle identities for {group.name}:"]
    lines += _table(rows, headers=("orbit", "triangle"))
    lines.append(_ok("all orbits pass") if all_ok else _fail())
    _emit(args, payload, lines)
    return 0 if all_ok else 1


def cmd_promonoidal_check(args):
    group = _load_group_arg(args)
    feet = [_gset_arg(group, f) for f in (args.feet or ["e"])]
    target = _gset_arg(group, args.target) if args.target else point_gset(group)
    ok, detail = promonoidal_coend_check(feet, target)
    payload = {"group": group.name, "verified": ok, **detail}
    lines = [f"promonoidal coend condition over {group.name}: "
             f"{_ok() if ok else _fail()}"]
    for k, v in detail.items():
        lines.append(f"  {k}: {v}")
    _emit(args, payload, lines)
    return 0 if ok else 1


@cache
def build_parser():
    """The argument parser, built once per process, at the first call."""
    parser = argparse.ArgumentParser(
        prog="mackeykit",
        description="Exact Burnside-category, Mackey/Green-functor and "
                    "equivariant K0 computations for finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; no check is "
                            "randomized, so it affects nothing")
        p.add_argument("--out", help="write output to a file")
        if group:
            p.add_argument("--group", required=True,
                           help=f"built-in name ({', '.join(BUILTIN_GROUP_NAMES)}), "
                                "JSON, or a file")

    p = sub.add_parser("group-info", help="order, subgroup classes, Weyl data")
    common(p, group=True)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("marks", help="table of marks")
    common(p, group=True)
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("burnside-ring", help="orbit-basis multiplication table")
    common(p, group=True)
    p.set_defaults(func=cmd_burnside_ring)

    p = sub.add_parser("hom-basis", help="span-code basis of A(X, Y)")
    common(p, group=True)
    p.add_argument("--source", required=True, help="orbit sum like 'e+C2' or JSON")
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_hom_basis)

    p = sub.add_parser("compose", help="compose two Burnside elements")
    common(p)
    p.add_argument("first", help="element JSON file (applied first)")
    p.add_argument("second", help="element JSON file (applied second)")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("mackey-check", help="validate a Mackey functor file")
    common(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_mackey_check)

    p = sub.add_parser("box", help="box product of two Mackey functor files")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_box)

    p = sub.add_parser("green-check", help="validate a Green functor file")
    common(p)
    p.add_argument("file")
    p.set_defaults(func=cmd_green_check)

    p = sub.add_parser("tor", help="Tor over the Burnside Green functor")
    common(p)
    p.add_argument("ring", help='ring file: {"burnside": "<group>"}')
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pmax", type=_int_at_least(0), default=3)
    p.set_defaults(func=cmd_tor)

    p = sub.add_parser("ss", help="spectral sequence of a filtered complex")
    common(p)
    p.add_argument("file")
    p.add_argument("--rmax", type=_int_at_least(1), default=4)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("bpq", help="verify Barratt-Priddy-Quillen at K0")
    common(p, group=True)
    p.set_defaults(func=cmd_bpq)

    p = sub.add_parser("duality-check", help="triangle identities on orbits")
    common(p, group=True)
    p.set_defaults(func=cmd_duality_check)

    p = sub.add_parser("promonoidal-check",
                       help="decategorified promonoidal coend condition")
    common(p, group=True)
    p.add_argument("--feet", nargs="*", help="orbit sums, e.g. --feet e C2")
    p.add_argument("--target", help="orbit sum for the target (default: pt)")
    p.set_defaults(func=cmd_promonoidal_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as err:
        # box and tor have no verdict payload of their own; under JSON
        # their rejected inputs still answer with one object
        if args.func in (cmd_box, cmd_tor) and args.format == "json":
            _emit(args, {"error": str(err)}, [])
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
