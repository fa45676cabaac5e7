"""Acceptance gate: every criterion at its stated tolerance (exact).

Each test prints one pass/fail line; run with `pytest -s` to see them.
The group battery is {trivial, C2, C3, C4, C2xC2, S3, C6} throughout;
criterion 7 and criterion 10 also cover the order-8 groups D4 and Q8.
"""

import json
import os
import random

import pytest

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup, maps_equal
from mackeykit.groups import builtin_group
from mackeykit.gsets import GMap, point_gset, product, standard_orbit
from mackeykit.burnside import (
    BurnsideElement,
    basis_element,
    compose,
    hom_basis,
    identity_element,
    promonoidal_coend_check,
    res_element,
    table_of_marks,
    tensor,
    tr_element,
    triangle_composite,
)
from mackeykit.mackey import (
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    fixed_point_mackey,
    hom_mackey,
    regular_module,
    representable,
    trivial_module,
)
from mackeykit.convolution import (
    box,
    box_unit_iso,
    burnside_green,
    free_evaluation_iso,
    rep_monoidal_iso,
)
from mackeykit.homalg import (
    canonical_module,
    free_module,
    homology_filtration_graded,
    skeletal_filtration,
    ss_pages,
    tor,
)
from mackeykit.ktheory import bpq_verify
from support import (
    direct_sum_decompose,
    direct_sum_reassemble,
    is_two_sided_inverse,
    tensor_group,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")
ORDER_8 = ("D4", "Q8")

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_constants.json")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: pass  ({detail})")


def orbits_of(group):
    return [standard_orbit(group, i)
            for i in range(len(group.subgroup_classes()))]


def random_element(rng, X, Y, support=2):
    basis = hom_basis(X, Y)
    picks = rng.sample(basis, min(support, len(basis)))
    return BurnsideElement(X, Y, {c: rng.randint(-2, 2) for c in picks})


def sign_action(group):
    """A surjection onto {+-1} when the group has one, else None."""
    index2 = [H for H in group.subgroups() if 2 * len(H) == group.order
              and group.is_subgroup(H)]
    for H in index2:
        if all(group.conjugate_subgroup(g, H) == tuple(sorted(H))
               for g in group.elements()):
            return {g: 1 if g in H else -1 for g in group.elements()}
    return None


def fp_battery(group):
    """At least three integer representations per group."""
    Z = FinPresAbGroup.free(1)
    out = [(Z, trivial_module(group, Z))]
    V, act = regular_module(group)
    out.append((V, act))
    sign = sign_action(group)
    if sign is not None:
        out.append((Z, {g: im.intmat([[sign[g]]]) for g in group.elements()}))
    elif group.order == 3:
        # the cyclic labels of C3 are exponents: act by the order-3 unit 2
        # of Z/7
        W = FinPresAbGroup.from_invariants([7])
        out.append((W, {g: im.intmat([[pow(2, g, 7)]])
                        for g in group.elements()}))
    else:
        W = FinPresAbGroup.from_invariants([4])
        out.append((W, trivial_module(group, W)))
    return out


# -- criterion 1: Burnside category laws ------------------------------------------------


def test_criterion_01_burnside_laws():
    rng = random.Random(101)
    total = 0
    exhaustive = 0
    for name in BATTERY:
        group = builtin_group(name)
        orbs = orbits_of(group)
        k = len(orbs)
        # every triple of composable basis spans between standard orbits;
        # by bilinearity this proves both laws on these orbits
        basis = {(X, Y): [basis_element(X, Y, c) for c in hom_basis(X, Y)]
                 for X in orbs for Y in orbs}
        for A in orbs:
            ident = identity_element(A)
            for B in orbs:
                for s1 in basis[A, B]:
                    assert compose(s1, ident) == s1
                    assert compose(identity_element(B), s1) == s1
        for (B, C), hom_bc in basis.items():
            for s2 in hom_bc:
                for A in orbs:
                    for s1 in basis[A, B]:
                        s21 = compose(s2, s1)
                        for D in orbs:
                            for s3 in basis[C, D]:
                                assert compose(s3, s21) == \
                                    compose(compose(s3, s2), s1)
                                exhaustive += 1
        for _ in range(200):
            A, B, C, D = (orbs[rng.randrange(k)] for _ in range(4))
            s1 = random_element(rng, A, B)
            s2 = random_element(rng, B, C)
            s3 = random_element(rng, C, D)
            assert compose(s3, compose(s2, s1)) == compose(compose(s3, s2), s1)
            assert compose(s1, identity_element(A)) == s1
            assert compose(identity_element(B), s1) == s1
            total += 1
        # interchange law for the tensor structure
        for _ in range(30):
            A, B, C = (orbs[rng.randrange(k)] for _ in range(3))
            Ap, Bp, Cp = (orbs[rng.randrange(k)] for _ in range(3))
            s1, s2 = random_element(rng, A, B), random_element(rng, B, C)
            t1, t2 = random_element(rng, Ap, Bp), random_element(rng, Bp, Cp)
            assert compose(tensor(s2, t2), tensor(s1, t1)) == \
                tensor(compose(s2, s1), compose(t2, t1))
        # distributivity over direct sums via split/reassemble round trips
        from mackeykit.gsets import coproduct
        for _ in range(20):
            X, Xp, Y = (orbs[rng.randrange(k)] for _ in range(3))
            cp = coproduct(X, Xp)
            e = random_element(rng, cp.gset, Y, support=3)
            e1, e2 = direct_sum_decompose(e, X, Xp)
            assert direct_sum_reassemble(e1, e2, X, Xp) == e
    assert exhaustive == 15954
    report(1, f"{exhaustive} basis triples and {total} random associativity "
              "triples over the battery, interchange and direct-sum "
              "splitting exact")


# -- criterion 2: duality triangle -----------------------------------------------------


def test_criterion_02_duality_triangle():
    count = 0
    for name in BATTERY:
        group = builtin_group(name)
        for cls in group.subgroup_classes():
            X = standard_orbit(group, cls.index)
            assert triangle_composite(X) == identity_element(X), \
                (name, cls.label)
            count += 1
    report(2, f"triangle identity exact on {count} orbits")


# -- criterion 3: Mackey double-coset formula --------------------------------------------


def test_criterion_03_double_coset_formula():
    checked = 0
    for name in BATTERY:
        group = builtin_group(name)
        functors = [burnside_mackey(group)]
        for V, act in fp_battery(group):
            functors.append(fixed_point_mackey(group, V, act))
        whole = tuple(range(group.order))
        for M in functors:
            for ci in group.subgroup_classes():
                for cj in group.subgroup_classes():
                    r = res_element(group, ci.representative, whole)
                    t = tr_element(group, cj.representative, whole)
                    lhs = M.eval_span(r) @ M.eval_span(t)
                    rhs = M.eval_span(compose(r, t))
                    gk, _ = M.value_at(standard_orbit(group, cj.index))
                    gh, _ = M.value_at(standard_orbit(group, ci.index))
                    assert maps_equal(lhs, rhs, gk, gh), (name, M.name)
                    checked += 1
    report(3, f"res.tr = double-coset expansion, {checked} class pairs "
              "across 4 functors per group")


# -- criterion 4: unit law ---------------------------------------------------------------


def test_criterion_04_unit_law():
    count = 0
    for name in BATTERY:
        group = builtin_group(name)
        Z = FinPresAbGroup.free(1)
        FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
        two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
        battery = [burnside_mackey(group),
                   representable(standard_orbit(group, 0)),
                   FP,
                   fixed_point_mackey(group, *regular_module(group)),
                   cokernel(two)[0]]
        for M in battery:
            box_unit_iso(M)       # raises unless a verified two-sided iso
            count += 1
    report(4, f"box unit isomorphism with exact witnesses for {count} "
              "Mackey functors (5 per group)")


# -- criterion 5: representable monoidality -----------------------------------------------


def test_criterion_05_representables_monoidal():
    count = 0
    for name in BATTERY:
        group = builtin_group(name)
        k = len(group.subgroup_classes())
        for i in range(k):
            for j in range(i, k):
                X = standard_orbit(group, i)
                Y = standard_orbit(group, j)
                rep_monoidal_iso(X, Y)     # verified two-sided inside
                count += 1
    report(5, f"A_X box A_Y = A_XxY with exact witnesses, {count} orbit pairs")


# -- criterion 6: free-module evaluation ---------------------------------------------------


def test_criterion_06_free_module_evaluation():
    count = 0
    for name in BATTERY:
        group = builtin_group(name)
        Z = FinPresAbGroup.free(1)
        ms = [burnside_mackey(group),
              fixed_point_mackey(group, Z, trivial_module(group, Z)),
              fixed_point_mackey(group, *regular_module(group))]
        for M in ms:
            for cidx in range(len(group.subgroup_classes())):
                X = standard_orbit(group, cidx)
                free_evaluation_iso(M, X)   # checked natural two-sided iso
                count += 1
    report(6, f"(M box A_X)(Y) = M(X x Y) naturally, {count} (M, X) pairs "
              "covering all orbit pairs")


# -- criterion 7: Kunneth Tor_0 --------------------------------------------------------------


def test_criterion_07_tor0_and_free_vanishing():
    triples = 0
    for name in BATTERY + ("D4", "Q8"):
        group = builtin_group(name)
        R = burnside_green(group, check=False)
        Z = FinPresAbGroup.free(1)
        FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
        two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
        Q = cokernel(two)[0]
        FPm = canonical_module(R, FP)
        Qm = canonical_module(R, Q)
        Rm = canonical_module(R, R.underlying)
        for (M, N) in ((FPm, Qm), (Rm, Qm), (Qm, FPm)):
            result = tor(R, M, N, 0)
            wit = result.tor0_witness
            inv = wit.inverse()           # exact two-sided witness
            triples += 1
        # Tor_p(M, R^X) = 0 for 1 <= p <= 3; R^X is its own resolution, so
        # this reads a complex with one term
        F = free_module(R, standard_orbit(group, 0))
        result = tor(R, FPm, F, 3)
        for p in range(1, 4):
            assert all(l.is_trivial() for l in result.tor[p].levels), (name, p)
        # Tor_p(R^X, N) = 0 for p = 1, 2 is read off a resolution of N, so
        # it can fail
        for N in (FPm, Qm):
            result = tor(R, F, N, 2)
            for p in (1, 2):
                assert all(l.is_trivial() for l in result.tor[p].levels), \
                    (name, p)
    report(7, f"Tor_0 = relative box with witness for {triples} triples; "
              "Tor_1..3(M, F) and Tor_1..2(F, N) vanish on free F")


# -- criterion 8: spectral sequence consistency -----------------------------------------------


def test_criterion_08_spectral_sequence():
    samples = [("C2", 2), ("C3", 2)]
    for name, pmax in samples:
        group = builtin_group(name)
        R = burnside_green(group, check=False)
        Z = FinPresAbGroup.free(1)
        FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
        two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
        Qm = canonical_module(R, cokernel(two)[0])
        FPm = canonical_module(R, FP)
        result = tor(R, FPm, Qm, pmax)
        filt = skeletal_filtration(result.complex)
        pages = ss_pages(filt, pmax + 2)
        E2 = pages[1]
        for p in range(pmax + 1):
            want = [l.invariant_factors for l in result.tor[p].levels]
            E = E2.entry(p, 0)
            if E is None:
                assert all(f == () for f in want), (name, p)
            else:
                assert [l.invariant_factors for l in E.levels] == want, \
                    (name, p)
        Einf = pages[-1]
        for n in range(pmax + 1):
            graded = homology_filtration_graded(filt, n)
            for p, piece in graded.items():
                E = Einf.entry(p, n - p)
                want = [l.invariant_factors for l in piece.levels]
                if E is None:
                    assert all(f == () for f in want)
                else:
                    assert [l.invariant_factors for l in E.levels] == want
    report(8, "skeletal-filtration E_2 = Tor and E_inf = graded homology "
              "for 2 sample triples")


# -- criterion 9: Borel adjunction and free-orbit monoidality -----------------------------------


def cyclic_modules(group):
    """Cyclic-module coefficient systems for the adjunction check."""
    Z = FinPresAbGroup.free(1)
    out = [(Z, trivial_module(group, Z)),
           (FinPresAbGroup.from_invariants([4]),
            trivial_module(group, FinPresAbGroup.from_invariants([4])))]
    sign = sign_action(group)
    if sign is not None:
        out.append((Z, {g: im.intmat([[sign[g]]])
                        for g in group.elements()}))
    return out


def test_criterion_09_borel_adjunction():
    from support import gmodule_hom_group
    checked = 0
    for name in BATTERY:
        group = builtin_group(name)
        if group.order > 6:
            continue
        for V, act in cyclic_modules(group):
            FP = fixed_point_mackey(group, V, act)
            for M in (burnside_mackey(group),
                      representable(standard_orbit(group, 0))):
                hg = hom_mackey(M, FP)
                oracle = gmodule_hom_group(group, M, V, act)
                assert hg.group.invariant_factors == \
                    oracle.invariant_factors, (name, M.name)
                checked += 1
    # restriction to the free orbit is monoidal
    pairs = 0
    for name in BATTERY:
        group = builtin_group(name)
        A = burnside_mackey(group)
        FP = fixed_point_mackey(group, *regular_module(group))
        data = box(A, FP)
        T = tensor_group(A.levels[0], FP.levels[0])
        assert data.functor.levels[0].invariant_factors == \
            T.invariant_factors, name
        pairs += 1
    report(9, f"hom(M, FP(V)) = G-module hom exhaustively ({checked} cases, "
              f"|G| <= 6); free-orbit evaluation monoidal for {pairs} pairs")


# -- criterion 10: equivariant BPQ at K0 ----------------------------------------------------------


def test_criterion_10_bpq():
    for name in BATTERY + ORDER_8:
        group = builtin_group(name)
        result = bpq_verify(group)
        assert is_two_sided_inverse(result.iso, result.inverse), name
        if name == "trivial":
            # classical specialization: K0(pointed finite sets) = Z
            assert result.iso.source.levels[0].invariant_factors == (0,)
    report(10, "K0 of finite G-sets = Burnside Green functor for the whole "
               "battery plus D4 and Q8; trivial group gives K0 = Z")


# -- criterion 11: promonoidal coend condition -----------------------------------------------------


def test_criterion_11_promonoidal_coend():
    checked = 0
    for name in ("trivial", "C2"):
        group = builtin_group(name)
        orbs = orbits_of(group)
        feet_lists = [[X] for X in orbs] + \
            [[X, Y] for X in orbs for Y in orbs]
        for feet in feet_lists:
            for z in orbs:
                ok, detail = promonoidal_coend_check(feet, z)
                assert ok, (name, detail)
                checked += 1
    report(11, f"coend pairing bijective in {checked} exhaustive instances "
               "over the trivial group and C2")


# -- criterion 12: derived constants ----------------------------------------------------------------


def test_criterion_12_derived_constants():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert table_of_marks(builtin_group("C2")) == golden["marks_C2"] == \
        [[2, 0], [1, 1]]
    for name, count in golden["subgroup_class_counts"].items():
        assert len(builtin_group(name).subgroup_classes()) == count
    assert golden["subgroup_class_counts"] == \
        {"C2": 2, "C4": 3, "C2xC2": 5, "S3": 4}
    S3 = builtin_group("S3")
    C2sub = next(H for H in S3.subgroups() if len(H) == 2)
    assert len(S3.double_cosets(C2sub, C2sub)) == \
        golden["double_cosets_C2_S3_C2"] == 2
    report(12, "golden constants reproduced: marks(C2), class counts, "
               "|C2\\S3/C2|")
