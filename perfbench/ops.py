"""The ops of each workload, run inside a fresh worker interpreter.

Each op returns a JSON-able result.  `tor` and `cli-green` results are
compared with the reference outputs recorded in data/reference.json;
`spans` ops are their own oracle and raise on the first failing
equality.
"""

from __future__ import annotations

import contextlib
import io
import json

from mackeykit import cli
from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup, maps_equal
from mackeykit.burnside import (
    BurnsideElement,
    compose,
    hom_basis,
    identity_element,
    res_element,
    tensor,
    tr_element,
)
from mackeykit.convolution import burnside_green
from mackeykit.groups import builtin_group
from mackeykit.gsets import standard_orbit
from mackeykit.homalg import (
    canonical_module,
    free_module,
    homology_filtration_graded,
    skeletal_filtration,
    ss_pages,
    tor,
)
from mackeykit.mackey import (
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    fixed_point_mackey,
    regular_module,
    trivial_module,
)


class OpFailed(Exception):
    """An op's output broke an exact equality it must satisfy."""


def _factors(M):
    return [list(level.invariant_factors) for level in M.levels]


# -- tor -------------------------------------------------------------------------


def _tor_modules(ctx, name):
    """R, and FP(Z), FP(Z)/2 and R as R-modules, built once per group."""
    key = ("tor", name)
    if key not in ctx:
        group = builtin_group(name)
        R = burnside_green(group, check=False)
        Z = FinPresAbGroup.free(1)
        FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
        two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
        Q = cokernel(two)[0]
        ctx[key] = (R, {"FP": canonical_module(R, FP),
                        "Q": canonical_module(R, Q),
                        "R": canonical_module(R, R.underlying)})
    return ctx[key]


def tor0(op, ctx):
    R, mods = _tor_modules(ctx, op["group"])
    result = tor(R, mods[op["left"]], mods[op["right"]], 0)
    result.tor0_witness.inverse()          # raises unless two-sided
    return {"tor": [_factors(T) for T in result.tor]}


def tor_free(op, ctx):
    R, mods = _tor_modules(ctx, op["group"])
    F = free_module(R, standard_orbit(R.group, 0))
    result = tor(R, mods["FP"], F, op["pmax"])
    for p in range(1, op["pmax"] + 1):
        if not all(level.is_trivial() for level in result.tor[p].levels):
            raise OpFailed(f"Tor_{p} of a free module is not zero")
    return {"tor": [_factors(T) for T in result.tor]}


def spectral_sequence(op, ctx):
    R, mods = _tor_modules(ctx, op["group"])
    pmax = op["pmax"]
    result = tor(R, mods["FP"], mods["Q"], pmax)
    filt = skeletal_filtration(result.complex)
    pages = ss_pages(filt, pmax + 2)
    E2, Einf = pages[1], pages[-1]
    for p in range(pmax + 1):
        E = E2.entry(p, 0)
        got = [[] for _ in result.tor[p].levels] if E is None else _factors(E)
        if got != _factors(result.tor[p]):
            raise OpFailed(f"E_2^{{{p},0}} differs from Tor_{p}")
    graded = {}
    for n in range(pmax + 1):
        for p, piece in homology_filtration_graded(filt, n).items():
            E = Einf.entry(p, n - p)
            got = [[] for _ in piece.levels] if E is None else _factors(E)
            if got != _factors(piece):
                raise OpFailed(f"E_inf^{{{p},{n - p}}} differs from the "
                               "graded homology")
            graded[f"{p},{n - p}"] = got
    return {"tor": [_factors(T) for T in result.tor], "E_inf": graded}


# -- spans -----------------------------------------------------------------------


def _element(X, Y, picks):
    basis = hom_basis(X, Y)
    coeffs = {}
    for selector, coeff in picks if basis else ():
        code = basis[selector % len(basis)]
        coeffs[code] = coeffs.get(code, 0) + coeff
    return BurnsideElement(X, Y, coeffs)


def spans(op, ctx):
    group = builtin_group(op["group"])
    orbs = [standard_orbit(group, c)
            for c in range(len(group.subgroup_classes()))]

    def orbit(selector):
        return orbs[selector % len(orbs)]

    def check(ok, what):
        if not ok:
            raise OpFailed(f"{what} fails over {group.name}")

    for a, b, c, d, e1, e2, e3 in op["triples"]:
        A, B, C, D = orbit(a), orbit(b), orbit(c), orbit(d)
        s1, s2, s3 = _element(A, B, e1), _element(B, C, e2), _element(C, D, e3)
        check(compose(s3, compose(s2, s1)) == compose(compose(s3, s2), s1),
              "associativity")
        check(compose(s1, identity_element(A)) == s1, "right identity")
        check(compose(identity_element(B), s1) == s1, "left identity")
    for a, b, c, ap, bp, cp, e1, e2, f1, f2 in op["interchanges"]:
        A, B, C = orbit(a), orbit(b), orbit(c)
        Ap, Bp, Cp = orbit(ap), orbit(bp), orbit(cp)
        s1, s2 = _element(A, B, e1), _element(B, C, e2)
        t1, t2 = _element(Ap, Bp, f1), _element(Bp, Cp, f2)
        check(compose(tensor(s2, t2), tensor(s1, t1))
              == tensor(compose(s2, s1), compose(t2, t1)), "interchange")
    Z = FinPresAbGroup.free(1)
    functors = [burnside_mackey(group),
                fixed_point_mackey(group, Z, trivial_module(group, Z)),
                fixed_point_mackey(group, *regular_module(group))]
    whole = tuple(range(group.order))
    classes = group.subgroup_classes()
    pairs = 0
    for M in functors:
        for ci in classes:
            for cj in classes:
                r = res_element(group, ci.representative, whole)
                t = tr_element(group, cj.representative, whole)
                lhs = M.eval_span(r) @ M.eval_span(t)
                rhs = M.eval_span(compose(r, t))
                gk, _ = M.value_at(standard_orbit(group, cj.index))
                gh, _ = M.value_at(standard_orbit(group, ci.index))
                check(maps_equal(lhs, rhs, gk, gh), "double-coset formula")
                pairs += 1
    return {"triples": len(op["triples"]),
            "interchanges": len(op["interchanges"]),
            "double_coset_pairs": pairs}


# -- cli-green -------------------------------------------------------------------


def run_cli(op, ctx):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(op["argv"])
    payload = json.loads(out.getvalue())
    payload.pop("error", None)        # rejection texts name random spans
    return {"exit": code, "payload": payload}


KINDS = {"tor0": tor0, "tor_free": tor_free, "ss": spectral_sequence,
         "spans": spans, "cli": run_cli}


def run_op(op, ctx):
    return KINDS[op["kind"]](op, ctx)


def matches_reference(op, result, reference):
    """Whether the result agrees with the recorded output for the op."""
    if op["kind"] == "spans":
        return True
    return result == reference[op["id"]]
