import gc
import random
import re
import weakref

import numpy as np
import pytest

from mackeykit import intmat as im
from mackeykit import mackey
from mackeykit.abgroups import FinPresAbGroup, maps_equal
from mackeykit.groups import (
    BUILTIN_GROUP_NAMES,
    builtin_group,
    group_from_permutations,
)
from mackeykit.jsonio import mackey_from_json, mackey_to_json
from mackeykit.gsets import (
    GMap,
    GSet,
    coproduct,
    disjoint_union_of_orbits,
    find_isomorphism,
    identity_map,
    orbit_map,
    point_gset,
    product,
    standard_orbit,
)
from mackeykit.burnside import (
    BurnsideElement,
    basis_element,
    compose,
    hom_basis,
    identity_element,
    res_element,
    restriction_element,
    span_element,
    tensor,
    tr_element,
    transfer_element,
    transitive_code,
)
from mackeykit.convolution import box, burnside_green, internal_hom_rep
from mackeykit.homalg import canonical_module, rel_box, tor
from mackeykit.ktheory import k0_mackey
from mackeykit.mackey import (
    MackeyFunctor,
    MackeyMorphism,
    NatSolver,
    burnside_mackey,
    cokernel,
    compose_morphisms,
    direct_sum,
    fixed_point_mackey,
    hom_mackey,
    homology_at,
    identity_element_vector,
    identity_morphism,
    image,
    kernel,
    lift_through_inclusion,
    mackey_from_levels,
    minimize_presentation,
    regular_module,
    representable,
    trivial_module,
    zero_mackey,
    zero_morphism,
)

from support import (
    PERMUTATION_BATTERY,
    PERMUTATION_GROUPS,
    assert_same_group,
    brute_force_borel_level,
    dense_free,
    derived_conjugation_oracle,
    eval_span_oracle,
    exhaustive_functoriality_oracle,
    fixed_point_by_cosets,
    gmodule_hom_group,
    identity_element_vector_oracle,
    memo_entries,
    natural_by_spans,
    permutation_group,
    representable_span_action,
    smith_slice,
    span_functoriality_oracle,
    structure_matrices,
    weyl_element,
    yoneda_element,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")


@pytest.fixture(scope="module")
def c2():
    return builtin_group("C2")


@pytest.fixture(scope="module")
def s3():
    return builtin_group("S3")


# -- constructors --------------------------------------------------------------


def test_zero_functor_valid(c2):
    Z = zero_mackey(c2)
    report = Z.validate_functoriality()
    # C2 has no chain of two covering steps, so no transitivity cell
    assert report == _expected_cells(c2)
    assert sum(report.values()) == 8 and report["transitivity of transfer"] == 0
    assert span_functoriality_oracle(Z) > 0


def test_burnside_mackey_from_explicit_levels(c2):
    # level(e) = Z, level(C2) = Z^2 on basis ([C2/e], [C2/C2]);
    # res sends [C2/C2] -> 1 and [C2/e] -> 2, tr sends 1 -> [C2/e]
    levels = [FinPresAbGroup.free(1), FinPresAbGroup.free(2)]
    res = {(0, 1): [[2, 1]]}
    tr = {(0, 1): [[1], [0]]}
    conj = {0: {1: [[1]]}, 1: {}}
    M = mackey_from_levels(c2, levels, res, tr, conj)
    A = burnside_mackey(c2)
    # must agree with the representable A_pt on every basis span
    orbs = [standard_orbit(c2, 0), point_gset(c2)]
    for X in orbs:
        for Y in orbs:
            for code in hom_basis(X, Y):
                e = basis_element(X, Y, code)
                assert im.mats_equal(M.eval_span(e), A.eval_span(e))


def test_functoriality_violation_rejected(c2):
    # tr . res should be multiplication by the index (2) on a
    # trivial-action candidate; force 3 instead and expect rejection
    levels = [FinPresAbGroup.free(1), FinPresAbGroup.free(1)]
    res = {(0, 1): [[1]]}
    tr = {(0, 1): [[3]]}
    conj = {0: {1: [[1]]}}
    with pytest.raises(ValueError, match="functoriality"):
        mackey_from_levels(c2, levels, res, tr, conj)


def test_missing_conjugation_data_rejected(s3):
    levels = [FinPresAbGroup.free(1)] * 4
    res = {(ca, cb): [[1]] for (ca, cb) in
           {(s3.class_index_of(a), s3.class_index_of(b))
            for (a, b) in s3.covering_pairs}}
    tr = dict(res)
    with pytest.raises(ValueError, match="normalizer"):
        mackey_from_levels(s3, levels, res, tr, {})


# -- evaluation ------------------------------------------------------------------


def test_eval_identity_and_zero(s3):
    A = burnside_mackey(s3)
    for cidx in range(4):
        X = standard_orbit(s3, cidx)
        ident = A.eval_span(identity_element(X))
        n = ident.shape[0]
        assert im.mats_equal(ident, im.identity(n))
        z = A.eval_span(BurnsideElement(X, X))
        assert im.is_zero(z)


def test_eval_res_tr_composite(c2):
    A = burnside_mackey(c2)
    pt = point_gset(c2)
    O = standard_orbit(c2, 0)
    f = GMap(O, pt, [0, 0])
    lhs = A.eval_span(compose(restriction_element(f), transfer_element(f)))
    rhs = A.eval_span(identity_element(O)) + \
        A.eval_span(weyl_element(c2, 0, 1))
    assert im.mats_equal(lhs, rhs)


def _conjugate(group, g, H):
    return tuple(sorted(group.mul(group.mul(g, h), group.inv(g)) for h in H))


def _maximal(group, L):
    """The maximal subgroups of L, by set containment."""
    inside = [set(H) for H in group.subgroups() if set(H) < set(L)]
    return [H for H in group.subgroups() if set(H) < set(L)
            and not any(set(H) < C for C in inside)]


def _maximal_pair_orbits(group, cls):
    """The N(L)-orbits of pairs of maximal subgroups of L, L = cls's
    representative, by brute-force conjugation."""
    maximal = _maximal(group, cls.representative)
    orbits = {frozenset((_conjugate(group, n, H), _conjugate(group, n, K))
                        for n in cls.normalizer)
              for H in maximal for K in maximal}
    return sorted(map(sorted, orbits))


def _expected_cells(group):
    """{relation: cells} the validator checks, from group data alone:
    subgroups, set containment and conjugation, no relation plan."""
    classes = group.subgroup_classes()
    transitivity = 0
    for cls in classes:
        B = cls.representative
        maximal = _maximal(group, B)
        for A in group.subgroups():
            above = sum(set(A) < set(C) for C in maximal)
            transitivity += max(above - 1, 0)
    stabilizer_gens = sum(
        len(group.greedy_generators(
            [n for n in classes[group.class_index_of(K0)].normalizer
             if _conjugate(group, n, Hp) == Hp]))
        for Hp, K0 in group.canonical_covers)
    return {
        "inner conjugation is trivial": sum(1 + len(cls.generators)
                                            for cls in classes),
        "conjugation is a homomorphism": sum(
            len(cls.normalizer) * len(cls.normalizer_generators)
            - (len(cls.normalizer) - 1) for cls in classes),
        "conjugation commutes with restriction": stabilizer_gens,
        "conjugation commutes with transfer": stabilizer_gens,
        "transitivity of restriction": transitivity,
        "transitivity of transfer": transitivity,
        "double-coset formula": sum(len(_maximal_pair_orbits(group, cls))
                                    for cls in classes)}


def test_functoriality_battery():
    # the double-coset formula is checked at class representatives L only,
    # once per N(L)-orbit of pairs of maximal subgroups of L
    for name in BATTERY + ("D4", "Q8"):
        group = builtin_group(name)
        report = burnside_mackey(group).validate_functoriality()
        assert report == _expected_cells(group), name
        if name == "D4":
            assert sum(report.values()) == 165


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_double_coset_cells_are_one_per_orbit_of_maximal_pairs(name):
    # the plan's (L, H, K) cells are the least pair of each N(L)-orbit of
    # Max(L)^2, for every class representative L, and nothing else
    group = _group(name)
    cells = {}
    for L, H, K, _ in group.relation_plan.double_coset:
        cells.setdefault(L, []).append((H, K))
    for cls in group.subgroup_classes():
        assert sorted(cells.pop(cls.representative, [])) == \
            [orbit[0] for orbit in _maximal_pair_orbits(group, cls)], \
            cls.label
    assert cells == {}


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_homomorphism_cells_are_the_pairs_off_the_walk(name):
    # the walk that defines w reaches each element of N(H) but e once, from
    # a and a generator s, so |N|*|gens| - (|N| - 1) pairs (a, s) are left
    # to check per class
    group = _group(name)
    M = _functor(group, "FP(Z)")
    for cls in group.subgroup_classes():
        gens = tuple(M.conj[cls.index])
        tree = mackey._walk(group, gens)
        assert sorted(b for _, _, b in tree) == sorted(set(cls.normalizer) - {0})
        assert all(a in cls.normalizer and s in gens and group.mul(a, s) == b
                   for a, s, b in tree)
        assert len({(a, s) for a, s, _ in tree}) == len(cls.normalizer) - 1
    assert M.validate_functoriality()["conjugation is a homomorphism"] == \
        _expected_cells(group)["conjugation is a homomorphism"]


def test_double_coset_formula_all_class_pairs():
    # eval(res) . eval(tr) equals the double-coset expansion computed
    # through span composition, on the Burnside Mackey functor and on
    # fixed-point functors
    rng = random.Random(5)
    for name in ("C4", "S3"):
        group = builtin_group(name)
        V, act = regular_module(group)
        functors = [burnside_mackey(group),
                    fixed_point_mackey(group, V, act)]
        whole = tuple(range(group.order))
        for M in functors:
            for ci in group.subgroup_classes():
                for cj in group.subgroup_classes():
                    H = ci.representative
                    K = cj.representative
                    r = res_element(group, H, whole)
                    t = tr_element(group, K, whole)
                    lhs = M.eval_span(r) @ M.eval_span(t)
                    rhs = M.eval_span(compose(r, t))
                    OK = standard_orbit(group, cj.index)
                    OH = standard_orbit(group, ci.index)
                    gk, _ = M.value_at(OK)
                    gh, _ = M.value_at(OH)
                    assert maps_equal(lhs, rhs, gk, gh)


# -- representables and Yoneda ------------------------------------------------------


def test_representable_ranks():
    triv = builtin_group("trivial")
    assert [l.generator_count for l in burnside_mackey(triv).levels] == [1]
    c2 = builtin_group("C2")
    assert [l.generator_count for l in burnside_mackey(c2).levels] == [1, 2]
    O = standard_orbit(c2, 0)
    assert [l.generator_count for l in representable(O).levels] == [2, 1]


def test_hom_of_unit_is_value_at_point(c2):
    # Map(A_pt, M) = M(pt)
    A = burnside_mackey(c2)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    hg = hom_mackey(A, FP)
    pt = point_gset(c2)
    val, _ = FP.value_at(pt)
    assert hg.group.invariant_factors == val.invariant_factors


def test_hom_out_of_zero(c2):
    Z = zero_mackey(c2)
    A = burnside_mackey(c2)
    hg = hom_mackey(Z, A)
    assert hg.group.is_trivial()


def test_hom_endomorphisms_of_free_orbit_representable(c2):
    O = standard_orbit(c2, 0)
    Ae = representable(O)
    hg = hom_mackey(Ae, Ae)
    assert hg.group.invariant_factors == (0, 0)
    assert len(hom_basis(O, O)) == 2


def test_yoneda_isomorphism_roundtrip():
    rng = random.Random(6)
    for name in ("C2", "S3"):
        group = builtin_group(name)
        V, act = regular_module(group)
        N = fixed_point_mackey(group, V, act)
        for cidx in (0, len(group.subgroup_classes()) - 1):
            X = standard_orbit(group, cidx)
            hg = hom_mackey(representable(X), N)
            val, _ = N.value_at(X)
            assert hg.group.invariant_factors == val.invariant_factors
            # explicit: evaluating a hom-basis morphism at the identity
            # element and classifying back is the identity
            eta, rep = identity_element_vector(X), representable(X)
            for phi in hg.basis:
                vec = phi.at_gset(X) @ eta
                psi, rep2 = yoneda_element(N, X, vec)
                # compare matrices levelwise modulo relations
                for c in range(len(N.levels)):
                    assert maps_equal(psi.mats[c], phi.mats[c],
                                      rep.levels[c], N.levels[c])


def test_identity_element_vector_builds_no_mackey_functor(monkeypatch):
    # [id_X] is read off hom_basis(X, G/H); no representable A_X is built
    built = []
    real = MackeyFunctor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(MackeyFunctor, "__init__", counting)
    S3 = builtin_group("S3")
    for c in range(len(S3.subgroup_classes())):
        identity_element_vector(standard_orbit(S3, c))
    assert built == []
    representable(standard_orbit(S3, 0))
    assert len(built) == 1


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_identity_element_vector_matches_the_representable_route(name):
    group = builtin_group(name)
    for c in range(len(group.subgroup_classes())):
        X = standard_orbit(group, c)
        assert identity_element_vector(X).tolist() == \
            identity_element_vector_oracle(X).tolist(), c


def test_identity_element_vector_on_three_orbits():
    S3 = builtin_group("S3")
    for X in (product(standard_orbit(S3, 0), standard_orbit(S3, 1)).gset,
              disjoint_union_of_orbits(S3, (1, 0, 1))):
        assert len(X.orbit_index.classes) == 3
        assert identity_element_vector(X).tolist() == \
            identity_element_vector_oracle(X).tolist()


def test_projectivity_of_representables(c2):
    # a levelwise surjection N -> N' induces a surjection on hom(A_X, -)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]]), im.intmat([[2]])])
    Q, proj = cokernel(two)
    for cidx in range(2):
        X = standard_orbit(c2, cidx)
        # hom(A_X, N) = N(X) and hom(A_X, N') = N'(X); the induced map is
        # the levelwise projection, surjective by construction
        valN, _ = FP.value_at(X)
        valQ, _ = Q.value_at(X)
        mat = proj.at_gset(X)
        img = im.lattice_sum(mat, valQ.relation_lattice)
        diag = im.snf_diagonal(img)
        assert all(d == 1 for d in diag if d != 0)
        assert len([d for d in diag if d != 0]) == valQ.generator_count


# -- abelian structure ----------------------------------------------------------------


def test_kernel_of_identity_is_zero(c2):
    A = burnside_mackey(c2)
    K, _ = kernel(identity_morphism(A))
    assert all(l.is_trivial() for l in K.levels)


def test_cokernel_of_zero_map(c2):
    A = burnside_mackey(c2)
    Z = zero_mackey(c2)
    C, _ = cokernel(zero_morphism(Z, A))
    assert [l.invariant_factors for l in C.levels] == \
        [l.invariant_factors for l in A.levels]


def test_kernel_of_multiplication_by_two(c2):
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]]), im.intmat([[2]])])
    K, _ = kernel(two)
    assert all(l.is_trivial() for l in K.levels)
    C, _ = cokernel(two)
    assert all(l.invariant_factors == (2,) for l in C.levels)


def test_image_and_exactness_sample(c2):
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]]), im.intmat([[2]])])
    I, incl = image(two)
    assert [l.invariant_factors for l in I.levels] == [(0,), (0,)]
    # ker -> src -> tgt composes to zero
    K, kincl = kernel(two)
    comp = compose_morphisms(two, kincl)
    assert comp.is_zero()


def test_direct_sum_functor(c2):
    A = burnside_mackey(c2)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    D, i1, i2, p1, p2 = direct_sum(A, FP)
    assert compose_morphisms(p1, i1).equals(identity_morphism(A))
    assert compose_morphisms(p2, i2).equals(identity_morphism(FP))
    assert compose_morphisms(p2, i1).is_zero()
    assert D.validate_functoriality()
    assert span_functoriality_oracle(D) > 0


# -- fixed points (Borel) ----------------------------------------------------------------


def test_fixed_point_examples(c2):
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    assert [l.invariant_factors for l in FP.levels] == [(0,), (0,)]
    (A, B), = c2.covering_pairs
    assert FP.res[(A, B)][0, 0] == 1
    assert FP.tr[(A, B)][0, 0] == 2
    # V = 0 gives the zero functor
    FP0 = fixed_point_mackey(c2, FinPresAbGroup.zero(),
                             {g: im.zeros(0, 0) for g in c2.elements()})
    assert all(l.is_trivial() for l in FP0.levels)


def test_fixed_point_regular_representation(c2):
    V, act = regular_module(c2)
    FP = fixed_point_mackey(c2, V, act)
    assert [l.generator_count for l in FP.levels] == [2, 1]
    (A, B), = c2.covering_pairs
    # transfer is the norm: the fixed line maps to (1, 1) summed over cosets
    tr = FP.tr[(A, B)]
    assert tr.shape == (1, 2)


def test_bad_action_rejected(c2):
    V = FinPresAbGroup.free(1)
    with pytest.raises(ValueError, match="representation|trivially"):
        fixed_point_mackey(c2, V, {0: im.intmat([[1]]), 1: im.intmat([[2]])})


@pytest.mark.parametrize("entry", [[[1.7]], [["1"]], [[True]],
                                   np.array([[1.0]])],
                         ids=["float", "string", "bool", "float-array"])
def test_action_entries_must_be_integers(c2, entry):
    # int() once read 1.7 as 1 and parsed '1'
    V = FinPresAbGroup.free(1)
    with pytest.raises(ValueError,
                       match=r"^action\[1\]\[0\]\[0\] is not an integer"):
        fixed_point_mackey(c2, V, {0: [[1]], 1: entry})


def test_action_matrices_must_be_square_on_the_generators(c2):
    V = FinPresAbGroup.free(1)
    with pytest.raises(ValueError, match=r"^action\[1\] must be 1 x 1, "
                                         r"got 1 x 2$"):
        fixed_point_mackey(c2, V, {0: [[1]], 1: [[1, 0]]})


@pytest.mark.parametrize("name", ["C4", "S3", "C2xC2"])
def test_action_wrong_at_one_non_generator_is_rejected(name):
    # the representation is checked on generators only; an action that is
    # right everywhere except at one element outside {e} and the
    # generators must still be caught
    group = builtin_group(name)
    V, act = regular_module(group)
    g0 = next(g for g in group.elements()
              if g != 0 and g not in group.generators)
    bad = dict(act)
    bad[g0] = im.identity(group.order)
    with pytest.raises(ValueError, match="action matrices are not a "
                                         "representation"):
        fixed_point_mackey(group, V, bad)


def test_action_missing_an_element_is_named(c2):
    V = FinPresAbGroup.free(1)
    with pytest.raises(ValueError,
                       match="^action has no matrix for element 1$"):
        fixed_point_mackey(c2, V, {0: [[1]]})


def _fixed_point_modules(group):
    """(label, V, action): Z and Z[G], then Z/2 and Z[G]/2."""
    Z, Z2 = FinPresAbGroup.free(1), FinPresAbGroup(1, [[2]])
    ZG, reg = regular_module(group)
    ZG2 = FinPresAbGroup(group.order, 2 * im.identity(group.order))
    return [("Z", Z, trivial_module(group, Z)), ("Z[G]", ZG, reg),
            ("Z/2", Z2, trivial_module(group, Z2)), ("Z[G]/2", ZG2, reg)]


def _matrix_ends(group, key):
    """(source class, target class) of a `structure_matrices` key."""
    if key[0] == "conj":
        return key[1], key[1]
    ca, cb = map(group.class_index_of, key[1])
    return (cb, ca) if key[0] == "res" else (ca, cb)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8") + PERMUTATION_BATTERY
                         + ("C2wrC3",))
def test_fixed_point_maps_match_the_hand_built_formula(name):
    # FP(V) along the structure G-maps against the transports and coset
    # sums it was built from by hand: entry for entry on free V; with
    # relations the two may differ by rho(h) v - v, h in the fixed
    # subgroup, which lies in the relations of the target level.  Only on
    # C2wrC3 does a restriction move the base point
    group = _group(name)
    for label, V, act in _fixed_point_modules(group):
        got = fixed_point_mackey(group, V, act)
        want = fixed_point_by_cosets(group, V, act)
        assert [g.relation_lattice.tolist() for g in got.levels] == \
            [w.relation_lattice.tolist() for w in want.levels], label
        got_maps, want_maps = structure_matrices(got), structure_matrices(want)
        assert list(got_maps) == list(want_maps)
        for key, m in want_maps.items():
            if V.relation_lattice.shape[1] == 0:
                assert np.array_equal(got_maps[key], m), (label, key)
            else:
                src, tgt = _matrix_ends(group, key)
                assert maps_equal(got_maps[key], m, got.levels[src],
                                  got.levels[tgt]), (label, key)


def test_borel_against_bruteforce_limit():
    for name in ("C2", "C3", "S3", "C6"):
        group = builtin_group(name)
        V, act = regular_module(group)
        FP = fixed_point_mackey(group, V, act)
        for cls in group.subgroup_classes():
            lim = brute_force_borel_level(group, V, act, cls.representative)
            assert lim.invariant_factors == \
                FP.levels[cls.index].invariant_factors, \
                (name, cls.label, lim, FP.levels[cls.index])


def test_borel_adjunction_small():
    # hom(M, FP(V)) = hom_{G-mod}(M(G/e), V)
    for name in ("C2", "C3"):
        group = builtin_group(name)
        V, act = regular_module(group)
        FP = fixed_point_mackey(group, V, act)
        for M in (burnside_mackey(group),
                  representable(standard_orbit(group, 0))):
            hg = hom_mackey(M, FP)
            oracle = gmodule_hom_group(group, M, V, act)
            assert hg.group.invariant_factors == \
                oracle.invariant_factors, (name, M.name)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_hom_commutes_with_normalizer_generators_only_same_basis(name):
    # commuting with the generators of each N(H) implies commuting with all
    # of N(H), and the solution lattice is read off as a Hermite form, so
    # adding a condition for every element leaves the basis byte-identical
    group = builtin_group(name)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    pairs = [(burnside_mackey(group), FP), (FP, cokernel(two)[0])]
    if group.order < 8:
        pairs.append((burnside_mackey(group),
                      fixed_point_mackey(group, *regular_module(group))))
    for M, N in pairs:
        full = NatSolver(M, N)
        for cls in group.subgroup_classes():
            for n in cls.normalizer:
                full.add_commuting(cls.index, cls.index, M.weyl[cls.index][n],
                                   N.weyl[cls.index][n])
        assert len(full.conditions) > len(NatSolver(M, N).conditions)
        expected, got = full.solve(), hom_mackey(M, N)
        assert np.array_equal(expected.group.relation_lattice,
                              got.group.relation_lattice)
        assert len(expected.basis) == len(got.basis)
        for a, b in zip(expected.basis, got.basis):
            assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats))


def _natural_pairs(group):
    """(M, N) pairs for the naturality checks; the first three have free
    source levels, on which every levelwise matrix is well defined."""
    Z = FinPresAbGroup.free(1)
    A = burnside_mackey(group)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    half = cokernel(two)[0]
    return [(A, FP), (FP, half),
            (A, fixed_point_mackey(group, *regular_module(group))),
            (half, half), (half, FP)]


@pytest.mark.parametrize("name", BATTERY)
def test_hom_basis_is_natural_by_span_evaluation(name):
    for M, N in _natural_pairs(builtin_group(name)):
        for f in hom_mackey(M, N).basis:
            assert natural_by_spans(M, N, f.mats)


def _refused_as_spans_refuse(M, N, names):
    """Add 1 to one entry of one level of a hom(M, N) basis morphism, each
    way: the checked constructor must raise, naming one of `names`,
    exactly when some basis span does not commute with the result.
    Returns how many it refused."""
    refused = 0
    for f in hom_mackey(M, N).basis:
        for c, i, j in [(c, i, j) for c, U in enumerate(f.mats)
                        for i, j in np.ndindex(*U.shape)]:
            mats = list(f.mats)
            mats[c] = mats[c].copy()
            mats[c][i, j] += 1
            if natural_by_spans(M, N, mats):
                MackeyMorphism(M, N, mats)
                continue
            refused += 1
            with pytest.raises(ValueError, match=f"does not commute with "
                                                 f"({names}) at "):
                MackeyMorphism(M, N, mats)
    return refused


@pytest.mark.parametrize("name", BATTERY)
def test_morphism_check_refuses_exactly_the_maps_spans_refuse(name):
    group = builtin_group(name)
    refused = sum(_refused_as_spans_refuse(M, N, "res|tr|conjugation")
                  for M, N in _natural_pairs(group)[:3])
    assert refused or group.order == 1


def _one_structure_map_pair(kind):
    """(M, N) on which naturality can fail only along `kind`.  S, Z at
    C2/C2 and 0 at C2/e, has zero res and tr, so A -> S meets only tr and
    S -> A only res; W, Z[C3]/(1 + g + g^2) at C3/e and 0 at C3/C3, has
    no res and tr to meet, only conjugation."""
    free = FinPresAbGroup.free
    if kind == "conjugation":
        group = builtin_group("C3")
        W = mackey_from_levels(group, [free(2), free(0)],
                               {(0, 1): im.zeros(2, 0)},
                               {(0, 1): im.zeros(0, 2)},
                               {0: {1: [[0, -1], [1, -1]]}}, name="W")
        return W, W
    group = builtin_group("C2")
    S = mackey_from_levels(group, [free(0), free(1)], {(0, 1): im.zeros(0, 1)},
                           {(0, 1): im.zeros(1, 0)}, {0: {1: im.zeros(0, 0)}},
                           name="S")
    A = burnside_mackey(group)
    return (A, S) if kind == "tr" else (S, A)


@pytest.mark.parametrize("kind", ["res", "tr", "conjugation"])
def test_morphism_check_names_the_one_structure_map_that_fails(kind):
    # dropping any one kind of condition from the morphism check shows here
    assert _refused_as_spans_refuse(*_one_structure_map_pair(kind), kind)


def test_morphism_check_names_res_on_the_fixed_points_of_z(c2):
    # FP(Z) -> FP(Z), 0 at e and 1 at C2: res from C2 to e is the identity
    # of Z, so U_e res = 0 while res U_C2 = 1
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(c2, Z, trivial_module(c2, Z))
    mats = [im.intmat([[int(len(cls.representative) > 1)]])
            for cls in c2.subgroup_classes()]
    assert not natural_by_spans(FP, FP, mats)
    with pytest.raises(ValueError, match="does not commute with res at"):
        MackeyMorphism(FP, FP, mats)


@pytest.mark.parametrize("build", [
    lambda X, Y: hom_basis(X, Y),
    lambda X, Y: tensor(identity_element(X), identity_element(Y)),
    lambda X, Y: find_isomorphism(X, Y),
    lambda X, Y: GMap(X, Y, [0]),
    lambda X, Y: orbit_map(X, Y, 0),
    lambda X, Y: product(X, Y),
    lambda X, Y: coproduct(X, Y),
    lambda X, Y: BurnsideElement(X, Y, {}),
    lambda X, Y: MackeyMorphism(burnside_mackey(X.group),
                                burnside_mackey(Y.group), []),
    lambda X, Y: burnside_mackey(Y.group).eval_span(identity_element(X)),
], ids=["hom_basis", "tensor", "find_isomorphism", "GMap", "orbit_map",
        "product", "coproduct", "BurnsideElement", "MackeyMorphism",
        "eval_span"])
def test_gset_span_and_morphism_mismatch_names_both_groups(build):
    X = point_gset(builtin_group("C2"))
    Y = point_gset(builtin_group("C3"))
    with pytest.raises(ValueError,
                       match="are over different groups: C2 and C3$"):
        build(X, Y)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("count", [1, 3])
def test_morphism_needs_one_matrix_per_class(c2, check, count):
    # C2 has two classes; too few matrices were once accepted unchecked
    A = burnside_mackey(c2)
    mats = [im.identity(lvl.generator_count) for lvl in A.levels]
    mats = (mats + mats)[:count]
    with pytest.raises(ValueError, match=f"^need one matrix per subgroup "
                                         f"class: got {count} for 2$"):
        MackeyMorphism(A, A, mats, check=check)


# -- stored data and the Mackey-algebra relations ----------------------------------------


def _corruptions(M, kinds=("res", "tr", "conj")):
    """Every single-entry +-1 corruption of M's stored data of the given
    kinds; conjugation is stored on the generators of each normalizer."""
    for kind in [k for k in ("res", "tr") if k in kinds]:
        for k, mat in getattr(M, kind).items():
            for i, j in np.ndindex(*mat.shape):
                for d in (1, -1):
                    data = {"res": dict(M.res), "tr": dict(M.tr)}
                    data[kind][k] = mat.copy()
                    data[kind][k][i, j] += d
                    yield (kind, k, i, j, d), MackeyFunctor(
                        M.group, M.levels, data["res"], data["tr"], M.conj,
                        check=False)
    for c, w in enumerate(M.conj if "conj" in kinds else ()):
        for n, mat in w.items():
            for i, j in np.ndindex(*mat.shape):
                for d in (1, -1):
                    conj = [dict(x) for x in M.conj]
                    conj[c][n] = mat.copy()
                    conj[c][n][i, j] += d
                    yield ("conj", c, n, i, j, d), MackeyFunctor(
                        M.group, M.levels, M.res, M.tr, conj, check=False)


def _accepts(check, M):
    try:
        check(M)
    except ValueError as err:
        assert "functoriality" in str(err)
        return False
    return True


@pytest.mark.parametrize("name", ["C2", "C4", "C2xC2", "S3"])
def test_validate_functoriality_agrees_with_span_oracle(name):
    # the relation check and the exhaustive span-composition oracle give
    # the same verdict on the valid functors and on every single-entry
    # +-1 corruption of their stored res, tr and conj data
    group = builtin_group(name)
    Z = FinPresAbGroup.free(1)
    functors = [zero_mackey(group), burnside_mackey(group),
                fixed_point_mackey(group, Z, trivial_module(group, Z)),
                fixed_point_mackey(group, *regular_module(group))]
    cases = rejected = 0
    for M in functors:
        assert _accepts(MackeyFunctor.validate_functoriality, M)
        assert _accepts(span_functoriality_oracle, M)
        for key, N in _corruptions(M):
            verdict = _accepts(MackeyFunctor.validate_functoriality, N)
            assert verdict == _accepts(span_functoriality_oracle, N), key
            cases += 1
            rejected += not verdict
    assert 0 < rejected <= cases


def _functor(group, kind):
    Z = FinPresAbGroup.free(1)
    return {"A": burnside_mackey,
            "FP(Z)": lambda g: fixed_point_mackey(g, Z, trivial_module(g, Z)),
            "FP(Z[G])": lambda g: fixed_point_mackey(g, *regular_module(g)),
            }[kind](group)


def _group(name):
    if name in PERMUTATION_GROUPS:
        return permutation_group(name)
    return builtin_group(name)


# (group, functor, corrupted kinds): the whole corruption family of every
# functor on the groups below order 8, and of FP(Z) on D4, Q8 and A4; the
# res and tr corruptions, which probe the reduced conjugation,
# transitivity and double-coset relations, of A and FP(Z[G]) on D4 and
# Q8 and of FP(Z) on C2wrC3, where the exhaustive oracle takes 4-70 ms
# per corruption
_ORACLE_CASES = [
    (name, functor, ("res", "tr", "conj"))
    for name in ("trivial", "C2", "C3", "C4", "C6", "C2xC2", "S3")
    for functor in ("A", "FP(Z)", "FP(Z[G])")
] + [(name, "FP(Z)", ("res", "tr", "conj")) for name in ("D4", "Q8", "A4")
     ] + [("Q8", "A", ("res", "tr")), ("C2wrC3", "FP(Z)", ("res", "tr")),
          ("D4", "A", ("res", "tr")), ("D4", "FP(Z[G])", ("res", "tr")),
          ("Q8", "FP(Z[G])", ("res", "tr"))]


@pytest.mark.parametrize("name,functor,kinds", _ORACLE_CASES, ids=[
    f"{name}-{functor}-{'+'.join(kinds)}" for name, functor, kinds in _ORACLE_CASES])
def test_validate_functoriality_agrees_with_exhaustive_oracle(name, functor,
                                                              kinds):
    # the generating set of relations and the old exhaustive check on every
    # subgroup and group element give the same verdict on a valid functor
    # and on each of its single-entry +-1 corruptions
    M = _functor(_group(name), functor)
    assert _accepts(MackeyFunctor.validate_functoriality, M)
    assert _accepts(exhaustive_functoriality_oracle, M)
    for key, N in _corruptions(M, kinds):
        verdict = _accepts(MackeyFunctor.validate_functoriality, N)
        assert verdict == _accepts(exhaustive_functoriality_oracle, N), key


@pytest.mark.parametrize("name", PERMUTATION_BATTERY)
def test_permutation_battery_passes_both_validators(name):
    for functor in ("A", "FP(Z)"):
        M = _functor(permutation_group(name), functor)
        new = M.validate_functoriality()
        old = exhaustive_functoriality_oracle(M)
        assert set(new) == set(old)
        assert sum(new.values()) < sum(old.values())


def test_a5_passes_validate_functoriality():
    group = permutation_group("A5")
    report = burnside_mackey(group).validate_functoriality()
    assert report == _expected_cells(group)
    assert sum(report.values()) == 645


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_conjugation_off_the_normalizer_generators_is_checked(name):
    # a functor stores conjugation by the generators of N(H) only, so the
    # matrix of any other element exists only in a file, which lists every
    # element; a +-1 there must be rejected, naming the element
    group = builtin_group(name)
    for functor in ("A", "FP(Z)", "FP(Z[G])"):
        doc = dict(mackey_to_json(_functor(group, functor)), group=name)
        checked = 0
        for cls in group.subgroup_classes():
            for n in cls.normalizer:
                mat = doc["conj"][cls.label][str(n)]
                if n in cls.normalizer_generators or not mat:
                    continue
                for i, j in np.ndindex(len(mat), len(mat[0])):
                    for d in (1, -1):
                        mat[i][j] += d
                        with pytest.raises(ValueError, match=re.escape(
                                f"conjugation by {n} at class {cls.label} ")):
                            mackey_from_json(doc)
                        mat[i][j] -= d
                        checked += 1
        assert checked


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_derived_conjugation_matches_span_evaluation(name):
    # conjugation by every normalizer element, derived from the generators,
    # is the functor on the conjugation span; for A_pt also the span action
    # the old per-element storage held
    group = _group(name)
    A = burnside_mackey(group)
    FP = _functor(group, "FP(Z)")
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    elements = sum(len(cls.normalizer) for cls in group.subgroup_classes())
    assert derived_conjugation_oracle(
        A, representable_span_action(point_gset(group))) == elements
    functors = [FP, cokernel(two)[0], _functor(group, "FP(Z[G])")]
    if group.order <= 6:
        functors.append(box(A, FP).functor)
    for M in functors:
        assert derived_conjugation_oracle(M) == elements


# (elements of every normalizer, of their generating sets) per group
_STORED_CONJUGATIONS = {"C4": (12, 3), "S3": (20, 7), "C2xC2": (20, 10),
                        "C6": (24, 4), "D4": (56, 16)}


@pytest.mark.parametrize("name", sorted(_STORED_CONJUGATIONS))
def test_functors_store_one_conjugation_per_normalizer_generator(name):
    group = builtin_group(name)
    classes = group.subgroup_classes()
    elements, stored = _STORED_CONJUGATIONS[name]
    assert sum(len(cls.normalizer) for cls in classes) == elements
    R = burnside_green(group)
    A = R.underlying
    FP = _functor(group, "FP(Z)")
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    Q = cokernel(two)[0]
    boxed = box(A, FP).functor
    # nothing holds the other elements' matrices until they are read: the
    # box functor has derived no `weyl` and keeps no memo of its own
    assert "weyl" not in vars(boxed) and memo_entries(boxed) == {}
    functors = [A, FP, Q, boxed, zero_mackey(group), k0_mackey(group),
                kernel(two)[0], direct_sum(A, Q)[0], minimize_presentation(Q)[0],
                internal_hom_rep(standard_orbit(group, 0), FP),
                rel_box(canonical_module(R, FP), canonical_module(R, Q)).functor,
                mackey_from_json(mackey_to_json(Q))]
    for M in functors:
        assert [tuple(w) for w in M.conj] == \
            [cls.normalizer_generators for cls in classes], M.name
        assert sum(map(len, M.conj)) == stored


def test_conjugation_must_commute_with_restriction(c2):
    # every relation but (C) holds: the outer element acts by -1 on M(e)
    # and restriction lands outside its fixed points; tr = 0 keeps the
    # double-coset formula res tr = 1 + c_g = 0 true
    (Hp, K0), = c2.canonical_covers
    one, zero, minus = (im.intmat([[v]]) for v in (1, 0, -1))
    M = MackeyFunctor(c2, [FinPresAbGroup.free(1)] * 2, {(Hp, K0): one},
                      {(Hp, K0): zero}, [{1: minus}, {1: one}])
    with pytest.raises(ValueError, match="conjugation commutes with "
                                         "restriction"):
        M.validate_functoriality()
    assert not _accepts(exhaustive_functoriality_oracle, M)


def test_inner_elements_must_act_trivially(c2):
    # w is a homomorphism and every res/tr relation holds, but the
    # generator of C2 acts by -1 on M(C2) = Z (the constructor's own
    # check is skipped)
    (Hp, K0), = c2.canonical_covers
    empty = im.zeros(0, 0)
    M = MackeyFunctor(c2, [FinPresAbGroup.zero(), FinPresAbGroup.free(1)],
                      {(Hp, K0): im.zeros(0, 1)}, {(Hp, K0): im.zeros(1, 0)},
                      [{1: empty}, {1: im.intmat([[-1]])}],
                      check=False)
    with pytest.raises(ValueError, match="inner conjugation is trivial"):
        M.validate_functoriality()
    assert not _accepts(exhaustive_functoriality_oracle, M)


def test_validation_error_names_relation_and_subgroups(s3):
    A = burnside_mackey(s3)
    (Hp, K0) = s3.canonical_covers[-1]
    tr = dict(A.tr)
    tr[(Hp, K0)] = tr[(Hp, K0)].copy()
    tr[(Hp, K0)][0, 0] += 1
    bad = MackeyFunctor(s3, A.levels, A.res, tr, A.conj)
    with pytest.raises(ValueError, match=r"functoriality fails: .* at .*\(0"):
        bad.validate_functoriality()


def test_structure_data_stored_once_per_conjugacy_class():
    for name, stored, total in (("S3", 4, 8), ("D4", 11, 15)):
        group = builtin_group(name)
        assert len(group.covering_pairs) == total
        assert len(group.canonical_covers) == stored
        A = burnside_mackey(group)
        assert set(A.res) == set(A.tr) == set(group.canonical_covers)
        # every other covering step is derived, and agrees with the
        # evaluation of its structure span
        for (H, K) in group.covering_pairs:
            ch, ck = group.class_index_of(H), group.class_index_of(K)
            assert maps_equal(A.res_mat(H, K),
                              A.eval_span(res_element(group, H, K)),
                              A.levels[ck], A.levels[ch])
            assert maps_equal(A.tr_mat(H, K),
                              A.eval_span(tr_element(group, H, K)),
                              A.levels[ch], A.levels[ck])
    with pytest.raises(ValueError, match="exactly one matrix"):
        MackeyFunctor(group, A.levels, {}, A.tr, A.conj)


def _c2_wreath_c3():
    # a fresh C2 wr C3, whose class pairs are split (support has why)
    return group_from_permutations(*PERMUTATION_GROUPS["C2wrC3"],
                                   name="C2wrC3")


def test_split_class_pair_works_internally_and_is_refused_by_json():
    group = _c2_wreath_c3()
    assert len(group.canonical_covers) > len(
        {(group.class_index_of(A), group.class_index_of(B))
         for (A, B) in group.canonical_covers})
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    assert FP.validate_functoriality()["double-coset formula"] > 0
    classes = group.subgroup_classes()
    with pytest.raises(ValueError, match="several conjugacy classes"):
        mackey_to_json(FP)
    doc = {"group": {"kind": "perm", "degree": 6,
                     "generators": [[1, 0, 2, 3, 4, 5], [2, 3, 4, 5, 0, 1]]},
           "levels": {c.label: {"generators": 1} for c in classes},
           "res": {}, "tr": {},
           "conj": {c.label: {str(n): [list(r) for r in FP.weyl[c.index][n]]
                              for n in c.normalizer} for c in classes}}
    for (A, B) in group.canonical_covers:
        key = f"{classes[group.class_index_of(A)].label}<" \
              f"{classes[group.class_index_of(B)].label}"
        doc["res"][key] = [list(r) for r in FP.res[(A, B)]]
        doc["tr"][key] = [list(r) for r in FP.tr[(A, B)]]
    with pytest.raises(ValueError, match="several conjugacy classes"):
        mackey_from_json(doc)


def _sign_over_c2():
    """C2 functor with a relator-free and a presented level: M(e) = Z with
    the sign action, M(C2) = Z/2, res = 0 and tr = reduction mod 2."""
    C2 = builtin_group("C2")
    return mackey_from_levels(C2, [FinPresAbGroup(1), FinPresAbGroup(1, [[2]])],
                              {(0, 1): [[0]]}, {(0, 1): [[1]]},
                              {0: {1: [[-1]]}})


@pytest.mark.parametrize("make", [
    _sign_over_c2,
    lambda: burnside_mackey(builtin_group("S3")),
    lambda: fixed_point_mackey(builtin_group("C4"),
                               *regular_module(builtin_group("C4"))),
    lambda: direct_sum(burnside_mackey(builtin_group("C2")),
                       _sign_over_c2())[0],
], ids=["mixed-levels", "burnside-S3", "FP-Z[C4]", "sum-with-presented"])
def test_minimize_presentation_of_relator_free_levels_matches_dense(make):
    M = make()
    free = [lvl._proj is None for lvl in M.levels]
    assert any(free)
    # the same functor with every relator-free level holding a dense identity
    D = MackeyFunctor(M.group, [dense_free(lvl.generator_count) if f else lvl
                                for lvl, f in zip(M.levels, free)],
                      M.res, M.tr, M.conj)
    Mmin, sect, proj = minimize_presentation(M)
    Dmin, dsect, dproj = minimize_presentation(D)
    for a, b in zip(Mmin.levels, Dmin.levels):
        assert_same_group(a, b)
    pairs = [(Mmin.res[k], Dmin.res[k]) for k in Mmin.res]
    pairs += [(Mmin.tr[k], Dmin.tr[k]) for k in Mmin.tr]
    pairs += [(w[n], v[n]) for w, v in zip(Mmin.conj, Dmin.conj) for n in w]
    pairs += list(zip(sect.mats, dsect.mats)) + list(zip(proj.mats, dproj.mats))
    for a, b in pairs:
        assert a.dtype == b.dtype == object
        assert im.mats_equal(a, b)
    Mmin.validate_functoriality()


def _dense_minimal_presentation(summands):
    """(group, projection, section) of the direct sum of the levels
    `summands` by the dense formula: the rows of U and the columns of U^-1
    at the non-unit entries of the Smith diagonal, where U and the
    diagonal are each summand's from `smith_normal_form`, placed
    block-diagonally.  None for a relator-free sum."""
    if all(g.relation_lattice.shape[1] == 0 for g in summands):
        return None, None, None
    slices = [smith_slice(g) for g in summands]
    diag = [d for sl in slices for d in sl[0]]
    keep = [i for i, d in enumerate(diag) if d != 1]
    return (FinPresAbGroup.from_invariants([diag[i] for i in keep]),
            im.block_diag([sl[1] for sl in slices])[keep, :],
            im.block_diag([sl[2] for sl in slices])[:, keep])


@pytest.mark.parametrize("name", ["C2", "S3", "D4"])
def test_minimize_presentation_matches_the_dense_smith_formula(name):
    group = builtin_group(name)
    A, FP = burnside_mackey(group), _functor(group, "FP(Z)")
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    Q = cokernel(two)[0]
    functors = [Q, box(A, _functor(group, "FP(Z[G])")).functor]
    if name == "C2":
        functors.append(_sign_over_c2())
    cases = [(M, [[lvl] for lvl in M.levels]) for M in functors]
    cases.append((direct_sum(A, Q)[0], [list(c) for c in zip(A.levels, Q.levels)]))
    for M, summands in cases:
        assert any(lvl.relation_lattice.shape[1] for lvl in M.levels)
        Mmin, sect, proj = minimize_presentation(M)
        for c, (lvl, parts) in enumerate(zip(M.levels, summands)):
            G, P, S = _dense_minimal_presentation(parts)
            if P is None:
                assert Mmin.levels[c] is lvl
                P = S = im.identity(lvl.generator_count)
            else:
                assert_same_group(Mmin.levels[c], G)
            for a, b in ((proj.mats[c], P), (sect.mats[c], S)):
                assert a.dtype == b.dtype == object
                assert a.shape == b.shape and im.mats_equal(a, b)
        cidx = group.class_index_of
        squeezed = [(Mmin.res[k], M.res[k], cidx(k[1]), cidx(k[0]))
                    for k in M.res]
        squeezed += [(Mmin.tr[k], M.tr[k], cidx(k[0]), cidx(k[1]))
                     for k in M.tr]
        squeezed += [(w[n], v[n], c, c) for c, (w, v) in
                     enumerate(zip(Mmin.conj, M.conj)) for n in w]
        for W, V, c_src, c_tgt in squeezed:
            assert W.dtype == object
            assert im.mats_equal(W, proj.mats[c_tgt] @ V @ sect.mats[c_src])


# -- span evaluation against the uncached orbit-scan oracle ----------------------------


def _oracle_spans(group):
    """Every basis span between standard orbits; restriction and transfer
    along both projections of X x G/H, X an orbit or a sum of two; and
    id_X (x) res/tr, the spans internal_hom_rep evaluates."""
    classes = group.subgroup_classes()
    orbs = [standard_orbit(group, c.index) for c in classes]
    for X in orbs:
        for Y in orbs:
            for code in hom_basis(X, Y):
                yield basis_element(X, Y, code)
    feet = orbs + [disjoint_union_of_orbits(group, (len(classes) - 1, 0))]
    for X in feet:
        for O in orbs:
            P = product(X, O)
            for f in (P.left, P.right):
                yield restriction_element(f)
                yield transfer_element(f)
        idX = identity_element(X)
        for (A, B) in group.canonical_covers:
            yield tensor(idX, res_element(group, A, B))
            yield tensor(idX, tr_element(group, A, B))


def _assert_eval_matches_oracle(M, spans):
    for e in spans:
        got, want = M.eval_span(e), eval_span_oracle(M, e)
        assert got.dtype == want.dtype and np.array_equal(got, want), e


@pytest.mark.parametrize("name", ["C2", "C4", "C2xC2", "S3", "D4", "Q8"])
def test_eval_span_is_bit_identical_to_the_orbit_scan_oracle(name):
    group = builtin_group(name)
    Z = FinPresAbGroup.free(1)
    spans = list(_oracle_spans(group))
    for M in (fixed_point_mackey(group, Z, trivial_module(group, Z)),
              fixed_point_mackey(group, *regular_module(group)),
              burnside_mackey(group)):
        _assert_eval_matches_oracle(M, spans)


def test_eval_span_on_a_presented_box_is_bit_identical_to_the_oracle():
    group = builtin_group("S3")
    FP = fixed_point_mackey(group, *regular_module(group))
    M = box(burnside_mackey(group), FP).functor
    _assert_eval_matches_oracle(M, _oracle_spans(group))


def _oracle_gmaps(group):
    """Product projections, orbit embeddings, diagonals O -> X x O, the fold
    X + X -> X, the maps gH -> gnH of G/H for n in N(H), whose base images
    a canonical code need not pick, and G/H relabelled so that its base
    stabilizer is not the class representative."""
    classes = group.subgroup_classes()
    X = disjoint_union_of_orbits(group, tuple(range(len(classes))))
    for cls, emb in zip(classes, X.orbit_embeddings):
        O = standard_orbit(group, cls.index)
        P = product(X, O)
        yield from (P.left, P.right, emb)
        yield GMap(O, P.gset, tuple(P.of_pair(emb(o), o)
                                    for o in range(O.size)))
        reach = O.orbit_index.reach
        for n in cls.normalizer:
            yield GMap(O, O, tuple(O.action[g][O.action[n][0]]
                                   for g in reach))
        # G/H relabelled so that its base point is a coset not fixed by H:
        # its stabilizer is another conjugate, reached by a transport
        # outside N(H)
        moved = [q for q in range(O.size)
                 if any(O.action[h][q] != q for h in cls.representative)]
        if moved:
            swap = list(range(O.size))
            swap[0], swap[moved[0]] = moved[0], 0
            Ot = GSet(group, [[swap[row[swap[x]]] for x in range(O.size)]
                              for row in O.action])
            iso = GMap(Ot, O, tuple(swap))
            yield from (iso, iso.inverse(), GMap(Ot, point_gset(group),
                                                 (0,) * O.size))
    sums = coproduct(X, X)
    fold = [None] * sums.gset.size
    for x in range(X.size):
        fold[sums.left(x)] = fold[sums.right(x)] = x
    yield GMap(sums.gset, X, tuple(fold))


def _non_canonical_codes(f):
    """How many of f's orbit codes, in res and tr, are not canonical."""
    X, Y = f.source, f.target
    ix, out = X.orbit_index, 0
    for orbit, stab, c in zip(ix.orbits, ix.stabilizers, ix.classes):
        t = X.group.transport(stab)
        x, y = X.action[t][orbit[0]], Y.action[t][f(orbit[0])]
        out += transitive_code(X, Y, stab, orbit[0], f(orbit[0])) != (c, x, y)
        out += transitive_code(Y, X, stab, f(orbit[0]), orbit[0]) != (c, y, x)
    return out


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8", "A4", "D6"))
def test_gmap_blocks_match_the_span_matrices(name):
    # res_f and tr_f applied orbit block by orbit block to identity
    # columns equal the dense evaluation of the canonical span elements
    group = _group(name)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    functors = (burnside_mackey(group), FP,
                fixed_point_mackey(group, *regular_module(group)),
                box(FP, FP).functor)
    gmaps = list(_oracle_gmaps(group))
    for f in gmaps:
        for M in functors:
            for transfer, e in ((False, restriction_element(f)),
                                (True, transfer_element(f))):
                want = M.eval_span(e)
                eye = im.identity(want.shape[1])
                got = M.apply_gmap(f, eye, transfer)
                assert got.shape == want.shape and np.array_equal(got, want)
                for j in range(min(2, len(eye))):    # vectors, too
                    assert np.array_equal(M.apply_gmap(f, eye[:, j], transfer),
                                          want[:, j])
    if name != "trivial":
        assert sum(map(_non_canonical_codes, gmaps)) > 0


@pytest.mark.parametrize("name", ["C2", "C4", "C2xC2", "S3", "D4", "Q8"])
def test_identity_leg_elements_match_explicit_spans(name):
    group = builtin_group(name)
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    for X in orbs:
        i = identity_map(X)
        assert identity_element(X) == span_element(X, X, X, i, i)
        for O in orbs:
            P = product(X, O)
            for f in (P.left, P.right):
                U = f.source
                i = identity_map(U)
                assert transfer_element(f) == span_element(U, f.target, U, i, f)
                assert restriction_element(f) == \
                    span_element(f.target, U, U, f, i)


def _holds_gset(key):
    if isinstance(key, GSet):
        return True
    return isinstance(key, tuple) and any(map(_holds_gset, key))


def test_span_evaluation_does_not_pin_gsets():
    # X is built from its action table, not by a memoized constructor,
    # so only span evaluation could keep it alive
    group = builtin_group("S3")
    M = fixed_point_mackey(group, *regular_module(group))
    O = standard_orbit(group, 1)
    X = GSet(group, [row + tuple(O.size + y for y in row) for row in O.action])
    fold = GMap(X, O, tuple(range(O.size)) * 2)
    for e in (identity_element(X), transfer_element(fold),
              restriction_element(fold)):
        M.eval_span(e)
    ref = weakref.ref(X)
    del X, fold, e
    gc.collect()
    assert ref() is None
    kept = list(memo_entries(M).values())
    assert any(kept)
    assert not any(_holds_gset(key) for d in kept for key in d)


def _derived_sizes(M):
    """{kind: entries} of the structure maps M derives: `weyl` and each
    owned memo."""
    return {"weyl": sum(map(len, vars(M).get("weyl", ()))),
            **{name: len(d) for name, d in memo_entries(M).items()}}


def test_structure_store_is_bounded_by_the_group():
    # restriction from the point to k copies of G/C2: the block, the
    # covering step C2 < S3 and the chains (res C2 < S3, res and tr at C2
    # itself) are read once whatever k, and the orbit layout of M(X) is
    # computed, not stored, so no memo grows with the G-set
    group = builtin_group("S3")
    M = fixed_point_mackey(group, *regular_module(group))
    O, pt = standard_orbit(group, 1), point_gset(group)
    sizes = []
    for k in (2, 3, 5):
        X = GSet(group, [sum((tuple(O.size * i + y for y in row)
                              for i in range(k)), ()) for row in O.action])
        M.eval_span(restriction_element(GMap(X, pt, (0,) * X.size)))
        sizes.append(_derived_sizes(M))
    assert sizes == [{"weyl": 20, "_step": 1, "_chain": 3, "_block": 1}] * 3


def test_cover_mats_keeps_one_entry_per_step_and_refuses_other_pairs():
    # A and B are read as sets of labels, so any order or sequence type
    # reads the one entry of the step; a pair that is not a covering
    # step is refused naming both subgroups
    group = builtin_group("D4")
    M = fixed_point_mackey(group, *regular_module(group))
    want = M.cover_mats((0, 1), (0, 1, 4, 5))
    for A, B in (((1, 0), (0, 1, 4, 5)), ((0, 1), (5, 4, 1, 0)),
                 ([1, 0], [0, 1, 4, 5])):
        got = M.cover_mats(A, B)
        assert all(im.mats_equal(g, w) for g, w in zip(got, want))
    assert len(memo_entries(M)["_step"]) == 1
    for A, B in (((0, 1), (0, 2)), ((0, 1), (0, 1)), ((0,), (0, 1, 4, 5)),
                 ((0, 1), (0, 1, 2, 3))):
        with pytest.raises(ValueError, match=re.escape(f"{A} < {B} is not "
                                                       f"a covering step")):
            M.cover_mats(A, B)


@pytest.mark.parametrize("g", [-1, 8, 1.0])
def test_conjugation_by_a_non_element_is_refused(g):
    # g is checked as a label of the group before any table is read, so a
    # negative label does not wrap round and a large one names itself
    group = builtin_group("D4")
    M = fixed_point_mackey(group, *regular_module(group))
    with pytest.raises(ValueError, match=r"g\b"):
        M.conj_mat(g, (0,))
    with pytest.raises(ValueError, match=r"g\b"):
        builtin_group("S3").conj_index(g, (0,))


@pytest.mark.parametrize("name", BATTERY)
def test_offsets_are_the_value_layout_and_its_generator_count(name):
    # `offsets` computes the orbit layout that `value_at` presents, with
    # the total after it; on a standard orbit the value is the level itself
    group = builtin_group(name)
    FP = _fp_z(group)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    orbits = [standard_orbit(group, cls.index)
              for cls in group.subgroup_classes()]
    for M in (burnside_mackey(group), FP, cokernel(two)[0]):
        for c, O in enumerate(orbits):
            grp, offsets = M.value_at(O)
            assert grp is M.levels[c] and offsets == [0]
            for Q in orbits:
                X = product(O, Q).gset
                grp, offsets = M.value_at(X)
                assert M.offsets(X) == offsets + [grp.generator_count]


# -- derived functors carry their structure maps on first read ------------------------------


def _fp_z(group):
    Z = FinPresAbGroup.free(1)
    return fixed_point_mackey(group, Z, trivial_module(group, Z))


def test_subfunctor_of_a_non_natural_map_fails_on_first_read(c2):
    # on FP(Z) over C2, tr(1) = 2 at C2; a levelwise map that is 0 at e
    # and 1 at C2 (or the reverse) commutes with neither res nor tr, and
    # its kernel (image) is not stable under tr, which only a read finds
    FP = _fp_z(c2)
    pair = c2.canonical_covers[0]
    for sub, mats in ((kernel, [[[0]], [[1]]]), (image, [[[1]], [[0]]])):
        f = MackeyMorphism(FP, FP, [im.intmat(m) for m in mats], check=False)
        S, _incl = sub(f)
        assert S.res[pair].shape == (1, 0)
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="level lattices are not structure-stable"):
                S.tr[pair]


def test_homology_levels_build_no_solver_for_structure_maps(monkeypatch):
    # homology_at and its levels solve for the inclusions only; carrying a
    # structure map through the coordinates a subfunctor shares with its
    # inclusion waits for its first read
    group = builtin_group("C2xC2")
    R = burnside_green(group, check=False)
    FP = _fp_z(group)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    C = tor(R, canonical_module(R, FP), canonical_module(R, cokernel(two)[0]),
            0).complex
    carried = []
    real = mackey._Coordinates.restrict

    def restrict(self, mat, c_src, c_tgt, error):
        carried.append((c_src, c_tgt))
        return real(self, mat, c_src, c_tgt, error)

    monkeypatch.setattr(mackey._Coordinates, "restrict", restrict)
    H, incl, _proj, _sect = homology_at(C.diff(2), C.diff(1))
    K = incl.source
    assert [lvl.invariant_factors for lvl in H.levels]
    assert [lvl.invariant_factors for lvl in K.levels]
    assert carried == []
    structure_matrices(H)
    assert carried, "reading the maps carries them through the kernel"


def test_lift_through_inclusion_takes_maps_into_its_target_only(c2):
    # kernel(0) on FP(Z) is FP(Z) with its identity inclusion; a map into
    # FP(Z)/2 does not factor through it, even where the levels coincide
    FP = _fp_z(c2)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    Q, proj = cokernel(two)
    for f in (zero_morphism(FP, FP), proj):
        K, incl = kernel(f)
        with pytest.raises(ValueError, match="the inclusion's target"):
            lift_through_inclusion(incl, identity_morphism(Q))
        lifted = lift_through_inclusion(incl, incl)
        assert lifted.source is K and lifted.target is K
        assert lifted.equals(identity_morphism(K))


def test_carried_functor_drops_its_parent_once_every_map_is_read(c2):
    def build():
        FP = _fp_z(c2)
        two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
        K, _incl = kernel(cokernel(two)[1])
        return K, weakref.ref(FP)

    K, parent = build()
    gc.collect()
    assert parent() is not None
    first = structure_matrices(K)
    gc.collect()
    assert parent() is None
    # stored: a second read returns the same matrices
    again = structure_matrices(K)
    assert all(again[k] is m for k, m in first.items())
