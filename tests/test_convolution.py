import itertools
import sys

import numpy as np
import pytest

from mackeykit import convolution
from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup, maps_equal
from mackeykit.groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
from mackeykit.gsets import (
    disjoint_union_of_orbits,
    point_gset,
    product,
    projection_map,
    standard_orbit,
)
from mackeykit.burnside import (
    _least_point,
    basis_element,
    code_subgroup,
    compose,
    hom_basis,
    tensor,
)
from mackeykit.mackey import (
    MackeyFunctor,
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    compose_morphisms,
    direct_sum,
    fixed_point_mackey,
    hom_mackey,
    identity_element_vector,
    identity_morphism,
    mackey_from_levels,
    regular_module,
    representable,
    trivial_module,
    zero_mackey,
)
from mackeykit.convolution import (
    GreenFunctor,
    GreenModule,
    GreenValidationError,
    _box_unit_inverse,
    box,
    box_assoc_iso,
    box_comm_iso,
    box_unit_iso,
    burnside_green,
    free_evaluation_iso,
    green_from_levelwise,
    internal_hom_rep,
    over_codes,
    over_image,
    rep_monoidal_iso,
    validate_green,
    validate_module,
)
from mackeykit.homalg import canonical_module, free_module, rel_box
from mackeykit.ktheory import k0_green
from support import (
    PERMUTATION_BATTERY,
    action_from_tables,
    assert_level_arrays,
    box_comm_oracle,
    box_map,
    box_oracle,
    box_unit_eval_oracle,
    box_unit_inverse_oracle,
    box_validate_green,
    burnside_unit_vector,
    canonical_over_oracle,
    fixed_points,
    internal_hom_rep_by_spans,
    permutation_group,
    pullback_compose_oracle,
    structure_matrices,
    tensor_group,
    times_oracle,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")


@pytest.mark.parametrize("name", BATTERY + ("D4",))
def test_over_image_is_compose_with_the_structure_span(name):
    # every valid span code between standard orbits, canonical or not,
    # against every over-code of its source: the terms, their order and
    # multiplicities are those of compose(span, G/L -> S), the over-code's
    # structure span; middles of the class of S, transfers along
    # g.yp -> g.z, included.  compose matches the pullback oracle on
    # canonical codes (test_burnside).  An element holds canonical codes
    # only, so for the others over_image is held to the pullback oracle
    # of the code as given, in its order, and compose to it as a sum
    group = builtin_group(name)
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    transfers = noncanonical = 0
    for S in orbs:
        for T in orbs:
            basis = set(hom_basis(S, T))
            ecodes = [(cls.index, yp, z)
                      for cls in group.subgroup_classes()
                      for yp in fixed_points(S, cls.representative)
                      for z in fixed_points(T, cls.representative)]
            transfers += sum(m == S.orbit_index.classes[0]
                             for m, _, _ in ecodes)
            for ecode in ecodes:
                span = basis_element(S, T, ecode)
                for cw, x in over_codes(S):
                    struct = basis_element(orbs[cw], S, (cw, 0, x))
                    composite = compose(span, struct).coeffs
                    if ecode not in basis:
                        noncanonical += 1
                        oracle = pullback_compose_oracle(
                            orbs[cw], S, T, (cw, 0, x), ecode)
                        assert composite == oracle, (S, T, ecode, (cw, x))
                        composite = oracle
                    want = []
                    for (cwp, o, y), mult in composite.items():
                        zstar, u = canonical_over_oracle(group, cwp, y, T)
                        want.append(((cwp, zstar), o, u, mult))
                    got = over_image(S, T, ecode, (cw, x))
                    assert got == want, (S, T, ecode, (cw, x))
    assert transfers and (noncanonical or name == "trivial")


@pytest.mark.parametrize("name", BATTERY)
def test_over_image_is_given_valid_codes(name, monkeypatch):
    # over_image checks no code: `box` passes the span codes of structure
    # G-maps out of G/A, the associator the structure spans of over-codes,
    # and both over-codes from `over_codes`; every one passes
    # `code_subgroup`.  A fresh group, so no box is kept from before.
    group = FiniteGroup(builtin_group(name).table, name=name)
    calls = []

    def recording(S, T, ecode, code):
        calls.append((sys._getframe(1).f_code.co_name, S, T, ecode, code))
        return over_image(S, T, ecode, code)

    monkeypatch.setattr(convolution, "over_image", recording)
    A = burnside_mackey(group)
    box_assoc_iso(A, A, A)
    # the trivial group has no structure map but the identity
    assert {caller for caller, *_ in calls} == (
        {"_regroup_matrices"} if name == "trivial"
        else {"along", "_regroup_matrices"})
    for _, S, T, ecode, (cw, x) in calls:
        code_subgroup(S, T, ecode)
        code_subgroup(standard_orbit(group, cw), S, (cw, 0, x))


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + ("A4", "D6"))
def test_canonical_over_is_the_least_normalizer_image(name):
    # every class c and every point z fixed by its representative, on the
    # standard orbits and the products of two: `_least_point` gives the
    # least (n.z, n) over the normalizer, so u is the least n giving z*
    group = (permutation_group(name) if name in PERMUTATION_BATTERY
             else builtin_group(name))
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    feet = dict.fromkeys(orbs + [product(X, Y).gset for X in orbs
                                 for Y in orbs])
    checked = 0
    for cls in group.subgroup_classes():
        for Ob in feet:
            for z in fixed_points(Ob, cls.representative):
                assert _least_point(Ob, cls.index, z) == \
                    canonical_over_oracle(group, cls.index, z, Ob)
                checked += 1
    assert checked == {"trivial": 1, "C2": 8, "C3": 14, "C4": 43, "C6": 112,
                       "C2xC2": 69, "S3": 102, "D4": 326, "Q8": 236,
                       "A4": 471, "D6": 816}[name]


def sample_functors(group):
    """A small battery: representables, fixed points, and a quotient."""
    out = [burnside_mackey(group)]
    out.append(representable(standard_orbit(group, 0)))
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    out.append(FP)
    V, act = regular_module(group)
    out.append(fixed_point_mackey(group, V, act))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    out.append(cokernel(two)[0])
    return out


# -- unit law ------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_box_unit_iso_battery(name):
    group = builtin_group(name)
    for M in sample_functors(group):
        eps, _data = box_unit_iso(M)   # raises if not a two-sided iso
        assert eps.source.group == group


def test_box_with_zero_is_zero():
    C2 = builtin_group("C2")
    Z = zero_mackey(C2)
    A = burnside_mackey(C2)
    data = box(Z, A)
    assert all(l.is_trivial() for l in data.functor.levels)


# -- representable monoidality ---------------------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C4", "S3"])
def test_representables_monoidal(name):
    group = builtin_group(name)
    norb = len(group.subgroup_classes())
    for i in range(norb):
        for j in range(i, norb):
            X = standard_orbit(group, i)
            Y = standard_orbit(group, j)
            fwd, bwd, _ = rep_monoidal_iso(X, Y)   # verified two-sided
            P = product(X, Y).gset
            assert [l.invariant_factors for l in fwd.source.levels] == \
                [l.invariant_factors for l in representable(P).levels]


# -- free module evaluation -------------------------------------------------------------


@pytest.mark.parametrize("name", ["C2", "S3"])
def test_free_evaluation_identity(name):
    group = builtin_group(name)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    for M in (burnside_mackey(group), FP):
        for cidx in (0, len(group.subgroup_classes()) - 1):
            X = standard_orbit(group, cidx)
            fwd, bwd, FX, data = free_evaluation_iso(M, X)
            # levels of the box really are M(X x -)
            for c in range(len(group.subgroup_classes())):
                Y = standard_orbit(group, c)
                val, _ = M.value_at(product(X, Y).gset)
                assert val.invariant_factors == \
                    data.functor.levels[c].invariant_factors


# -- symmetry and associativity ----------------------------------------------------------


def test_comm_iso_involution():
    C2 = builtin_group("C2")
    A = burnside_mackey(C2)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    c1 = box_comm_iso(A, FP)
    c2 = box_comm_iso(FP, A)
    assert compose_morphisms(c2, c1).equals(
        identity_morphism(box(A, FP).functor))


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_box_witnesses_match_their_generator_by_generator_oracles(name):
    # the block formulas over `BoxData.starts` (a permutation of swaps,
    # unit-action blocks side by side, kron(res(1), I) on the diagonal
    # over-code) against one column or entry per generator, read through
    # `generators()` and `index()`, on A, A_{G/e}, FP(Z), FP(Z[G]) and
    # FP(Z)/2
    functors = sample_functors(builtin_group(name))
    for M, N in itertools.product(functors, repeat=2):
        got = box_comm_iso(M, N).mats
        want = box_comm_oracle(M, N)
        assert all(im.mats_equal(a, b) for a, b in zip(got, want, strict=True))
    for M in functors:
        eps, data = box_unit_iso(M)
        for got, want in ((eps.mats, box_unit_eval_oracle(M, data)),
                          (_box_unit_inverse(M, data).mats,
                           box_unit_inverse_oracle(M, data))):
            assert all(im.mats_equal(a, b)
                       for a, b in zip(got, want, strict=True))


def test_assoc_iso_and_pentagon_on_representables():
    C2 = builtin_group("C2")
    A = burnside_mackey(C2)
    Ae = representable(standard_orbit(C2, 0))
    f, g = box_assoc_iso(A, Ae, A)      # two-sided verified inside
    # pentagon: the two routes ((A.A).A).A -> A.(A.(A.A)) agree
    MN = box(A, A).functor
    a1, _ = box_assoc_iso(A, A, A)
    lhs = compose_morphisms(box_map(identity_morphism(A), a1),
                            compose_morphisms(
                                box_assoc_iso(A, MN, A)[0],
                                box_map(a1, identity_morphism(A))))
    rhs = compose_morphisms(box_assoc_iso(A, A, MN)[0],
                            box_assoc_iso(MN, A, A)[0])
    assert lhs.equals(rhs)


def test_evaluation_at_free_orbit_is_monoidal():
    # (M box N)(G/e) = M(G/e) (x) N(G/e), compatibly with the Weyl action
    for name in ("C2", "S3"):
        group = builtin_group(name)
        A = burnside_mackey(group)
        V, act = regular_module(group)
        FP = fixed_point_mackey(group, V, act)
        data = box(A, FP)
        T = tensor_group(A.levels[0], FP.levels[0])
        assert data.functor.levels[0].invariant_factors == T.invariant_factors
        # single over-code at the free level: generator (i, j) -> i*nN + j
        codes = over_codes(standard_orbit(group, 0))
        assert len(codes) == 1
        nN = FP.levels[0].generator_count
        perm = {}
        for idx, (code, i, j) in enumerate(data.generators(0)):
            perm[idx] = i * nN + j
        n = len(perm)
        Pmat = im.zeros(n, n)
        for idx, t in perm.items():
            Pmat[t, idx] = 1
        for g in group.subgroup_classes()[0].normalizer:
            lhs = Pmat @ data.functor.weyl[0][g]
            kron = im.zeros(n, n)
            for i in range(A.levels[0].generator_count):
                for k in range(A.levels[0].generator_count):
                    if A.weyl[0][g][i, k] == 0:
                        continue
                    for j in range(nN):
                        for l in range(nN):
                            if FP.weyl[0][g][j, l]:
                                kron[i * nN + j, k * nN + l] = \
                                    A.weyl[0][g][i, k] * FP.weyl[0][g][j, l]
            rhs = kron @ Pmat
            assert maps_equal(lhs, rhs, data.functor.levels[0], T)


def test_box_distributes_over_direct_sums():
    C2 = builtin_group("C2")
    A = burnside_mackey(C2)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    D, i1, i2, p1, p2 = direct_sum(A, FP)
    N = representable(standard_orbit(C2, 0))
    big = box(D, N)
    small1 = box(A, N)
    small2 = box(FP, N)
    # canonical map (A box N) (+) (FP box N) -> (A (+) FP) box N
    f1 = box_map(i1, identity_morphism(N))
    f2 = box_map(i2, identity_morphism(N))
    mats = [im.hstack([f1.mats[c], f2.mats[c]]) for c in range(len(D.levels))]
    # natural (checked on construction) and two-sided invertible at every
    # level (`inverse` raises otherwise)
    S = direct_sum(small1.functor, small2.functor)[0]
    MackeyMorphism(S, big.functor, mats).inverse()


# -- internal hom --------------------------------------------------------------------------


def test_internal_hom_unit_case():
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    F = internal_hom_rep(point_gset(C2), FP)
    assert [l.invariant_factors for l in F.levels] == \
        [l.invariant_factors for l in FP.levels]


def test_internal_hom_levels_example():
    # F(A_{C2/e}, FP(Z)) at level C2/C2 is FP(Z)(C2/e) = Z
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    O = standard_orbit(C2, 0)
    F = internal_hom_rep(O, FP)
    assert F.levels[1].invariant_factors == (0,)
    # and at the free level, FP(O x O) = Z^2
    assert F.levels[0].invariant_factors == (0, 0)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8") + PERMUTATION_BATTERY)
def test_internal_hom_rep_matches_the_span_route(name):
    # res/tr along id_X x f, read orbit block by orbit block, against M on
    # the span id_X (x) e: every res, tr and conj matrix entry for entry,
    # X an orbit or a sum of two
    group = (permutation_group(name) if name in PERMUTATION_BATTERY
             else builtin_group(name))
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    Q = cokernel(two)[0]
    functors = (burnside_mackey(group), FP,
                fixed_point_mackey(group, *regular_module(group)), Q,
                box(Q, FP).functor)
    classes = range(len(group.subgroup_classes()))
    feet = [standard_orbit(group, c) for c in classes] + \
        [disjoint_union_of_orbits(group, (0, classes[-1]))]
    for M in functors:
        for X in feet:
            got, want = internal_hom_rep(X, M), internal_hom_rep_by_spans(X, M)
            assert [g.relation_lattice.tolist() for g in got.levels] == \
                [w.relation_lattice.tolist() for w in want.levels]
            got_maps = structure_matrices(got)
            want_maps = structure_matrices(want)
            assert list(got_maps) == list(want_maps)
            for key, m in want_maps.items():
                assert got_maps[key].dtype == object, (M.name, X, key)
                assert np.array_equal(got_maps[key], m), (M.name, X, key)


def test_internal_hom_adjunction_sample():
    # hom(N box A_X, M) = hom(N, F(A_X, M)) as groups
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    A = burnside_mackey(C2)
    O = standard_orbit(C2, 0)
    AX = representable(O)
    lhs = hom_mackey(box(A, AX).functor, FP)
    rhs = hom_mackey(A, internal_hom_rep(O, FP))
    assert lhs.group.invariant_factors == rhs.group.invariant_factors


def test_dual_free_modules_self_duality():
    # orbits are self-dual, so tensoring with A_X is its own adjoint:
    # hom(A_X box M, N) = hom(M, A_X box N)
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    A = burnside_mackey(C2)
    for O in (standard_orbit(C2, 0), point_gset(C2)):
        AX = representable(O)
        for (M, N) in ((A, FP), (FP, A)):
            lhs = hom_mackey(box(AX, M).functor, N)
            rhs = hom_mackey(M, box(AX, N).functor)
            assert lhs.group.invariant_factors == rhs.group.invariant_factors


# -- Green functors ---------------------------------------------------------------------------


def test_burnside_green_levelwise_rings():
    # level(C2) of the Burnside Green functor is the Burnside ring of C2
    from mackeykit.burnside import burnside_ring_table
    C2 = builtin_group("C2")
    G = burnside_green(C2)
    table = G.tables[1]
    ring = burnside_ring_table(C2)
    # basis of A(pt, pt) is ([C2/e], [C2/C2]) = (free orbit, unit)
    assert list(table[0][0]) == [2, 0]
    assert list(table[0][1]) == [1, 0]
    assert list(table[1][1]) == [0, 1]
    # unit element is [C2/C2]
    assert list(G.level_unit(1)) == [0, 1]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_burnside_unit_is_the_identity_class_of_the_point(name):
    group = builtin_group(name)
    unit = identity_element_vector(point_gset(group)).tolist()
    assert unit == burnside_unit_vector(group).tolist()
    assert burnside_green(group, check=False).unit.tolist() == unit


def test_burnside_green_is_one_object_per_group():
    group = builtin_group("S3")
    assert burnside_green(group, check=False) is burnside_green(group)


def test_burnside_mackey_is_one_object_per_group():
    group = builtin_group("C6")
    assert burnside_mackey(group) is burnside_mackey(group) is \
        burnside_green(group, check=False).underlying


def _small_vectors(n):
    """The basis of Z^n and two vectors with entries in -2..2."""
    return list(im.identity(n)) + [
        im.intvec([(3 * k + 1) % 5 - 2 for k in range(n)]),
        im.intvec([(k * k) % 3 - 1 for k in range(n)])]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_level_product_matches_the_loop_oracle(name):
    # x @ (y @ tables[c]) is the sum of x_i y_j e_i e_j, vector by vector
    group = builtin_group(name)
    for G in (burnside_green(group, check=False), k0_green(group)):
        assert_level_arrays(G, G.underlying, G.tables)
        for c, table in enumerate(G.tables):
            n = len(table)
            for x, y in itertools.product(_small_vectors(n), repeat=2):
                assert G.level_product(c, x, y).tolist() == \
                    times_oracle(table, x, y, n).tolist(), (c, x, y)


def test_green_round_trip_levelwise_and_mult():
    C2 = builtin_group("C2")
    G = burnside_green(C2)
    G2 = green_from_levelwise(G.underlying, G.tables, G.level_unit(1))
    for t2, t in zip(G2.tables, G.tables):
        assert [[v.tolist() for v in row] for row in t2] == \
            [[v.tolist() for v in row] for row in t]
    assert G2.unit.tolist() == G.unit.tolist() == [0, 1]


@pytest.mark.parametrize("length", [0, 1, 3])
def test_green_from_levelwise_names_a_unit_of_the_wrong_length(length):
    G = burnside_green(builtin_group("C2"))
    with pytest.raises(ValueError, match=rf"^unit at level C2: vector of "
                       rf"length {length}, expected 2$"):
        green_from_levelwise(G.underlying, G.tables, [1] * length)


def test_fixed_point_green_trivial_ring():
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    tables = [[[im.intvec([1])]], [[im.intvec([1])]]]
    G = green_from_levelwise(FP, tables, im.intvec([1]))
    # Frobenius holds: tr(x . res y) = tr(x) . y with tr = 2
    assert list(G.level_unit(0)) == [1]


def test_green_violation_rejected():
    # doubling a level product breaks the unit (and Frobenius) exactly
    C2 = builtin_group("C2")
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    tables = [[[im.intvec([2])]], [[im.intvec([1])]]]
    with pytest.raises(GreenValidationError):
        green_from_levelwise(FP, tables, im.intvec([1]))


def _verdict(validator, G):
    try:
        validator(G)
    except GreenValidationError:
        return False
    return True


@pytest.mark.parametrize("name,cases", [("C2", 18), ("C3", 18), ("C4", 72)])
def test_validate_green_agrees_with_box_oracle(name, cases):
    # the valid tables and every single-cell +-1 corruption of them
    G = burnside_green(builtin_group(name))
    assert _verdict(validate_green, G) and _verdict(box_validate_green, G)
    n = len(G.group.subgroup_classes())
    tables = G.tables
    unit_vec = G.level_unit(n - 1)
    seen = 0
    for c, table in enumerate(tables):
        for i, j in itertools.product(range(len(table)), repeat=2):
            for t in range(len(table[i][j])):
                for delta in (1, -1):
                    bad = [[[v.copy() for v in row] for row in tb]
                           for tb in tables]
                    bad[c][i][j][t] += delta
                    H = GreenFunctor(G.underlying, bad, unit_vec)
                    assert _verdict(validate_green, H) == \
                        _verdict(box_validate_green, H), (c, i, j, t, delta)
                    seen += 1
    assert seen == cases


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_burnside_tables_give_the_verified_unitor(name):
    # the map box(A, A) -> A that the Burnside ring tables transfer is the
    # unitor A_pt box A -> A, whose inverse box_unit_iso verifies
    group = builtin_group(name)
    A = burnside_mackey(group)
    G = burnside_green(group, check=False)
    assert G.underlying is A
    got = action_from_tables(box(A, A), A, G.tables)
    eps, _data = box_unit_iso(A)
    for a, b in zip(got.mats, eps.mats):
        assert np.array_equal(a, b)


def _trivial_group_functor(level):
    triv = builtin_group("trivial")
    return MackeyFunctor(triv, [level], {}, {}, [{}])


def _tables(rows):
    return [[im.intvec(v) for v in row] for row in rows]


def _rejects(match, build):
    with pytest.raises(GreenValidationError, match=match):
        build()


def test_green_rejects_non_associative_product():
    # commutative and unital, but (e1 e1) e2 = e1 while e1 (e1 e2) = 0
    R = _trivial_group_functor(FinPresAbGroup.free(3))
    table = _tables([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                     [[0, 0, 1], [0, 0, 0], [0, 1, 0]]])
    _rejects(r"not associative at level e, cell \(1, 1, 2\)",
             lambda: green_from_levelwise(R, [table], im.intvec([1, 0, 0])))


def test_green_rejects_non_commutative_product():
    # associative with left unit e0, but e1 e0 = 0
    R = _trivial_group_functor(FinPresAbGroup.free(2))
    table = _tables([[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    _rejects(r"not commutative at level e, cell \(1, 0\)",
             lambda: green_from_levelwise(R, [table], im.intvec([1, 0])))


def test_green_rejects_wrong_unit():
    R = _trivial_group_functor(FinPresAbGroup.free(1))
    _rejects(r"unit law fails for the multiplication at level e, cell \(0\)",
             lambda: green_from_levelwise(R, [_tables([[[1]]])],
                                          im.intvec([2])))


def test_green_rejects_product_not_defined_on_relations():
    # Z + Z/2 with e1 e1 = e0: 2 e1 = 0 but 2 (e1 e1) = 2 e0 != 0
    R = _trivial_group_functor(FinPresAbGroup(2, im.intmat([[0, 2]], 2)))
    table = _tables([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    _rejects(r"not well defined on relations at level e, "
             r"cell \(relation 0, 1\)",
             lambda: green_from_levelwise(R, [table], im.intvec([1, 0])))


def test_green_rejects_non_frobenius_ring():
    # on A(C2) with t = [C2/e], t.t = 4 keeps restriction a ring map
    # (res t = 2) but tr(res t) = 2t differs from tr(1).t = 4
    G = burnside_green(builtin_group("C2"))
    top = _tables([[[0, 4], [1, 0]], [[1, 0], [0, 1]]])
    _rejects(r"Frobenius reciprocity tr\(r.res m\) = tr\(r\).m fails .* "
             r"cell \(0, 0\)",
             lambda: green_from_levelwise(G.underlying, [G.tables[0], top],
                                          G.level_unit(1)))


def test_green_rejects_conjugation_that_is_not_a_ring_map():
    # FP(Z[C2]) with Z[v]/v^2 at the free level, v = e0 and unit e0 + e1:
    # the swap sends e0 e0 = 0 to 0 but e1 e1 = e1 - e0
    C2 = builtin_group("C2")
    V, act = regular_module(C2)
    R = fixed_point_mackey(C2, V, act)
    free_level = _tables([[[0, 0], [1, 0]], [[1, 0], [-1, 1]]])
    _rejects(r"conjugation by 1 does not respect the multiplication at "
             r"level e, cell \(0, 0\)",
             lambda: green_from_levelwise(R, [free_level, _tables([[[1]]])],
                                          im.intvec([1])))


def _modules(name):
    """The modules of the corruption family over the Burnside ring."""
    group = builtin_group(name)
    G = burnside_green(group)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    return {
        "FP(Z)": canonical_module(G, FP),
        "FP(Z)/2": canonical_module(G, cokernel(two)[0]),
        "FP(Z[G])": canonical_module(
            G, fixed_point_mackey(group, *regular_module(group))),
        "R": GreenModule(G, G.underlying, G.tables),
        "R^(G/e)": free_module(G, standard_orbit(group, 0)),
    }


# entries of the level tables of each module: two corruptions each, 1,118
# in all
MODULE_TABLE_CELLS = {
    ("C2", "FP(Z)"): 3, ("C2", "FP(Z)/2"): 3, ("C2", "FP(Z[G])"): 6,
    ("C2", "R"): 9, ("C2", "R^(G/e)"): 6,
    ("C3", "FP(Z)"): 3, ("C3", "FP(Z)/2"): 3, ("C3", "FP(Z[G])"): 11,
    ("C3", "R"): 9, ("C3", "R^(G/e)"): 11,
    ("S3", "FP(Z)"): 9, ("S3", "FP(Z)/2"): 9, ("S3", "FP(Z[G])"): 66,
    ("S3", "R"): 81, ("S3", "R^(G/e)"): 66,
    ("C2xC2", "FP(Z)"): 12, ("C2xC2", "FP(Z)/2"): 12, ("C2xC2", "FP(Z[G])"): 45,
    ("C2xC2", "R"): 150, ("C2xC2", "R^(G/e)"): 45,
}


@pytest.mark.parametrize("name", ["C2", "C3", "S3", "C2xC2"])
def test_validate_module(name):
    # each module of the family passes, and every +-1 in every entry of
    # its level tables is caught
    for kind, mod in _modules(name).items():
        validate_module(mod)
        cells = 0
        for c, i, j in ((c, i, j) for c, table in enumerate(mod.tables)
                        for i, row in enumerate(table)
                        for j in range(len(row))):
            for t in range(len(mod.tables[c][i][j])):
                cells += 1
                for delta in (1, -1):
                    bad = [[[v.copy() for v in row] for row in tb]
                           for tb in mod.tables]
                    bad[c][i][j][t] += delta
                    with pytest.raises(GreenValidationError,
                                       match="module action"):
                        validate_module(GreenModule(mod.ring, mod.underlying,
                                                    bad))
        assert cells == MODULE_TABLE_CELLS[(name, kind)], kind


@pytest.mark.parametrize("edit, match", [
    (lambda t: t.pop(), r"need one module table per subgroup class, "
                        r"got 1 for 2"),
    (lambda t: t[1].pop(), r"module table at level C2 must be 2x1"),
    (lambda t: t[0][0].append(im.intvec([1])),
     r"module table at level e must be 1x1"),
    (lambda t: t[1].__setitem__(0, [im.intvec([1, 0])]),
     r"module table at level C2, cell \(0, 0\): vector of length 2, "
     r"expected 1"),
    (lambda t: t[0][0].__setitem__(0, [0.5]),
     r"module table at level e, cell \(0, 0\)\[0\] is not an integer: "
     r"0\.5"),
], ids=["tables", "rows", "columns", "vector", "float"])
def test_validate_module_rejects_tables_of_the_wrong_shape(edit, match):
    mod = _modules("C2")["FP(Z)"]
    bad = [[list(row) for row in tb] for tb in mod.tables]
    edit(bad)
    with pytest.raises(ValueError, match=match):
        validate_module(GreenModule(mod.ring, mod.underlying, bad))


@pytest.mark.parametrize("edit, match", [
    (lambda t: t[0][0].__setitem__(0, [1.5]),
     r"^module table at level e, cell \(0, 0\)\[0\] is not an integer: "
     r"1\.5$"),
    (lambda t: t[1].pop(), r"^module table at level C2 must be 2x1$"),
], ids=["float", "short"])
def test_green_module_checks_its_tables_at_construction(edit, match):
    # a float entry or a missing row is named when the module is built,
    # before any validation or Tor reads the tables
    mod = _modules("C2")["FP(Z)"]
    bad = [[list(row) for row in tb] for tb in mod.tables]
    edit(bad)
    with pytest.raises(ValueError, match=match):
        GreenModule(mod.ring, mod.underlying, bad)


@pytest.mark.parametrize("name", BATTERY)
def test_module_tables_are_one_integer_array_per_level(name):
    for kind, mod in _modules(name).items():
        assert_level_arrays(mod.ring, mod.underlying, mod.tables)


def test_mackey_level_rejects_transfer_of_wrong_index():
    # tr = 3 against index 2 violates the double-coset formula and is
    # rejected before any Green structure is even attempted
    C2 = builtin_group("C2")
    levels = [FinPresAbGroup.free(1), FinPresAbGroup.free(1)]
    with pytest.raises(ValueError, match="functoriality"):
        mackey_from_levels(C2, levels, {(0, 1): [[1]]}, {(0, 1): [[3]]},
                           {0: {1: [[1]]}})


# -- equivalence with the literal double-indexed coend presentation ----------------------------


def literal_day_level(M, N, group, cj):
    """Oracle: the double-sum Day presentation of (M box N)(G/J)."""
    classes = group.subgroup_classes()
    Oj = standard_orbit(group, cj)
    gens = []
    layout = {}
    for ck in range(len(classes)):
        for cl in range(len(classes)):
            Ok, Ol = standard_orbit(group, ck), standard_orbit(group, cl)
            P = product(Ok, Ol).gset
            for s in hom_basis(P, Oj):
                for i in range(M.levels[ck].generator_count):
                    for j in range(N.levels[cl].generator_count):
                        layout[(ck, cl, s, i, j)] = len(gens)
                        gens.append((ck, cl, s, i, j))
    rows = set()

    def add(entries):
        row = [0] * len(gens)
        for k, v in entries.items():
            row[k] += v
        if any(row):
            rows.add(tuple(row))

    from mackeykit.burnside import identity_element
    for ck in range(len(classes)):
        for cl in range(len(classes)):
            Ok, Ol = standard_orbit(group, ck), standard_orbit(group, cl)
            P = product(Ok, Ol).gset
            basis_here = hom_basis(P, Oj)
            relM = M.levels[ck].relation_lattice
            relN = N.levels[cl].relation_lattice
            for s in basis_here:
                for r in range(relM.shape[1]):
                    for j in range(N.levels[cl].generator_count):
                        add({layout[(ck, cl, s, i, j)]: relM[i, r]
                             for i in range(M.levels[ck].generator_count)
                             if relM[i, r]})
                for r in range(relN.shape[1]):
                    for i in range(M.levels[ck].generator_count):
                        add({layout[(ck, cl, s, i, j)]: relN[j, r]
                             for j in range(N.levels[cl].generator_count)
                             if relN[j, r]})
            # coend relations: spans a: O_k' -> O_k acting on both sides
            for ckp in range(len(classes)):
                Okp = standard_orbit(group, ckp)
                for a in hom_basis(Okp, Ok):
                    a_el = basis_element(Okp, Ok, a)
                    Ma = M.eval_span(a_el)
                    for s in basis_here:
                        moved = compose(basis_element(P, Oj, s),
                                        tensor(a_el, identity_element(Ol)))
                        for ip in range(M.levels[ckp].generator_count):
                            for j in range(N.levels[cl].generator_count):
                                entries = {}
                                for s2, v in moved.coeffs.items():
                                    k = layout[(ckp, cl, s2, ip, j)]
                                    entries[k] = entries.get(k, 0) + v
                                for i in range(M.levels[ck].generator_count):
                                    if Ma[i, ip]:
                                        k = layout[(ck, cl, s, i, j)]
                                        entries[k] = entries.get(k, 0) - Ma[i, ip]
                                add(entries)
            for clp in range(len(classes)):
                Olp = standard_orbit(group, clp)
                for b in hom_basis(Olp, Ol):
                    b_el = basis_element(Olp, Ol, b)
                    Nb = N.eval_span(b_el)
                    for s in basis_here:
                        moved = compose(basis_element(P, Oj, s),
                                        tensor(identity_element(Ok), b_el))
                        for i in range(M.levels[ck].generator_count):
                            for jp in range(N.levels[clp].generator_count):
                                entries = {}
                                for s2, v in moved.coeffs.items():
                                    k = layout[(ck, clp, s2, i, jp)]
                                    entries[k] = entries.get(k, 0) + v
                                for j in range(N.levels[cl].generator_count):
                                    if Nb[j, jp]:
                                        k = layout[(ck, cl, s, i, j)]
                                        entries[k] = entries.get(k, 0) - Nb[j, jp]
                                add(entries)
    return FinPresAbGroup(len(gens), im.intmat(sorted(rows), len(gens)))


@pytest.mark.parametrize("name", ["trivial", "C2"])
def test_box_matches_literal_day_presentation(name):
    group = builtin_group(name)
    A = burnside_mackey(group)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    for (M, N) in ((A, FP), (FP, FP)):
        data = box(M, N)
        for cj in range(len(group.subgroup_classes())):
            oracle = literal_day_level(M, N, group, cj)
            assert oracle.invariant_factors == \
                data.functor.levels[cj].invariant_factors, \
                (name, cj, oracle.invariant_factors,
                 data.functor.levels[cj].invariant_factors)


# -- the Mackey formula on over-codes against the span route -------------------------


def assert_box_matches_oracle(data, M, N):
    """Every relation lattice and every stored res/tr/conj matrix of a
    presented box, entry for entry, against the box built by composing
    spans."""
    got, want = data.functor, box_oracle(M, N)
    for c, (a, b) in enumerate(zip(got.levels, want.levels)):
        assert a.generator_count == b.generator_count, c
        assert np.array_equal(a.relation_lattice, b.relation_lattice), c
    assert got.res.keys() == want.res.keys()
    for k in want.res:
        assert np.array_equal(got.res[k], want.res[k]), ("res", k)
        assert np.array_equal(got.tr[k], want.tr[k]), ("tr", k)
    for c, w in enumerate(want.conj):
        assert got.conj[c].keys() == w.keys()
        for n, mat in w.items():
            assert np.array_equal(got.conj[c][n], mat), ("conj", c, n)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_box_of_burnside_and_regular_fixed_points_matches_span_oracle(name):
    group = builtin_group(name)
    A = burnside_mackey(group)
    FP = fixed_point_mackey(group, *regular_module(group))
    assert_box_matches_oracle(box(A, FP), A, FP)


@pytest.mark.parametrize("pair", ["FP/2,FP", "FP,FP/2", "FP/2,FP/2", "Q,Q"])
@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_box_with_relators_matches_span_oracle(name, pair):
    # FP(Z)/2 has a relator at every level, so the relator columns
    # kron(rel_M, I) and kron(I, rel_N) meet the coend relations.  Its
    # levels have one generator, where the two Kronecker orders agree, so
    # Q = FP(Z[G]) / (2 + phi), phi the last basis morphism of its
    # endomorphisms, adds levels of several generators with relators that
    # are not scalar
    group = builtin_group(name)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    FZ = fixed_point_mackey(group, *regular_module(group))
    phi = hom_mackey(FZ, FZ).basis[-1]
    factors = {"FP": FP}
    for f, F, maps in (("FP/2", FP, [2 * im.identity(1)] * len(FP.levels)),
                       ("Q", FZ, [m + 2 * im.identity(m.shape[0])
                                  for m in phi.mats])):
        factors[f] = cokernel(MackeyMorphism(F, F, maps))[0]
    M, N = (factors[f] for f in pair.split(","))
    assert_box_matches_oracle(box(M, N), M, N)


def test_box_restricts_along_projections_off_the_base_point():
    # on C2wrC3 a canonical cover starts at a subgroup that is not its
    # class representative, so the projection moves the base point and
    # the box restricts along the span code (A, f(0), 0) with f(0) != 0
    group = permutation_group("C2wrC3")
    moved = [(A, B) for (A, B) in group.canonical_covers
             if projection_map(group, A, B).mapping[0] != 0]
    assert moved
    Z = FinPresAbGroup.free(1)
    A = burnside_mackey(group)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    for M, N in ((A, FP), (FP, FP)):
        assert_box_matches_oracle(box(M, N), M, N)


@pytest.mark.parametrize("name", ["C4", "C2xC2", "S3"])
def test_burnside_green_box_matches_span_oracle(name):
    R = burnside_green(builtin_group(name), check=False).underlying
    assert_box_matches_oracle(box(R, R), R, R)


@pytest.mark.parametrize("name", ["C4", "S3"])
def test_rel_box_presentation_matches_span_oracle(name):
    group = builtin_group(name)
    R = burnside_green(group, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    Q = cokernel(two)[0]
    rb = rel_box(canonical_module(R, FP), canonical_module(R, Q))
    assert rb.projection.source is box(FP, Q).functor
    assert_box_matches_oracle(box(FP, Q), FP, Q)
