import gc
import itertools
import random
import weakref

import pytest

from mackeykit import convolution, homalg, mackey
from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.groups import (
    BUILTIN_GROUP_NAMES,
    FiniteGroup,
    builtin_group,
    cyclic_group_table,
)
from mackeykit import gsets
from mackeykit.gsets import (
    GMap,
    disjoint_union_of_orbits,
    point_gset,
    product,
    standard_orbit,
)
from mackeykit.mackey import (
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    compose_morphisms,
    direct_sum,
    fixed_point_mackey,
    hom_mackey,
    homology_at,
    identity_morphism,
    image,
    kernel,
    lift_through_inclusion,
    representable,
    trivial_module,
    zero_mackey,
    zero_morphism,
)
from mackeykit.convolution import (
    GreenModule,
    box,
    burnside_green,
    green_from_levelwise,
    internal_hom_rep,
    validate_module,
)
from mackeykit.homalg import (
    ChainComplex,
    FilteredComplex,
    canonical_module,
    classifying_morphism,
    free_module,
    free_unit_vector,
    homology_filtration_graded,
    module_cover,
    module_kernel,
    module_resolution,
    quotient_complex,
    rel_box,
    skeletal_filtration,
    ss_pages,
    tor,
)
from support import (
    assert_level_arrays,
    eager_carried,
    fresh_coordinates,
    hom_modules,
    hom_modules_oracle,
    internal_hom_rep_by_identity,
    memo_entries,
    rel_box_map,
    rel_box_oracle,
    ss_pages_oracle,
    structure_matrices,
    top_down_tor,
    tor_by_rel_boxes,
)


@pytest.fixture(scope="module")
def c2_setup():
    C2 = builtin_group("C2")
    R = burnside_green(C2, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
    return C2, R, FP


def invariants(M):
    return [l.invariant_factors for l in M.levels]


# -- free modules ------------------------------------------------------------------


def test_free_module_on_point_is_ring(c2_setup):
    C2, R, FP = c2_setup
    F = free_module(R, point_gset(C2))
    assert invariants(F.underlying) == invariants(R.underlying)


def test_free_module_over_unit_is_representable(c2_setup):
    # A_pt-free module on X has the levels of A_X
    C2, R, FP = c2_setup
    O = standard_orbit(C2, 0)
    F = free_module(R, O)
    assert invariants(F.underlying) == invariants(representable(O))


def test_free_module_levels_are_values_of_fp(c2_setup):
    # rank data of FP(Z)^{C2/e}: levels (Z^2, Z) via M(X x -)
    C2, R, FP = c2_setup
    O = standard_orbit(C2, 0)
    FPmod = canonical_module(R, FP)
    # FP box A_X has levels FP(X x -): use the box directly
    data = box(FP, representable(O))
    val_e, _ = FP.value_at(product(O, standard_orbit(C2, 0)).gset)
    val_pt, _ = FP.value_at(product(O, point_gset(C2)).gset)
    assert data.functor.levels[0].invariant_factors == val_e.invariant_factors
    assert data.functor.levels[1].invariant_factors == val_pt.invariant_factors
    assert val_e.invariant_factors == (0, 0)
    assert val_pt.invariant_factors == (0,)


def test_free_module_adjunction(c2_setup):
    # hom_{R-mod}(R^X, M) = M(X), with explicit unit and classifying maps
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    for cidx in (0, 1):
        X = standard_orbit(C2, cidx)
        F = free_module(R, X)
        hg = hom_modules(F, FPmod)
        val, _ = FP.value_at(X)
        assert hg.group.invariant_factors == val.invariant_factors
        # unit element classifies back and forth
        eta = free_unit_vector(F)
        for phi in hg.basis:
            m_vec = phi.at_gset(X) @ eta
            psi = classifying_morphism(F, FPmod, m_vec)
            for c in range(len(FP.levels)):
                from mackeykit.abgroups import maps_equal
                assert maps_equal(psi.mats[c], phi.mats[c],
                                  F.underlying.levels[c], FP.levels[c])


def _free_bases(group):
    """Every standard orbit, and one G-set with three orbits."""
    n = len(group.subgroup_classes())
    return [standard_orbit(group, c) for c in range(n)] + \
        [disjoint_union_of_orbits(group, (0, n // 2, n - 1))]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_free_module_is_r_of_x_times_and_classifies_m_of_x(name):
    # R^X(G/H) = R(X x G/H); hom_{R-mod}(R^X, M) = M(X) through the unit
    # vector one way and the Yoneda formula the other, for M = FP(Z) and,
    # below order 8 (where its hom system takes seconds), FP(Z)/2
    group = builtin_group(name)
    R = burnside_green(group, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    mods = [canonical_module(R, FP)]
    if group.order < 8:
        mods.append(canonical_module(R, cokernel(two)[0]))
    for X in _free_bases(group):
        F = free_module(R, X)
        validate_module(F)
        for c, lvl in enumerate(F.underlying.levels):
            val, _ = R.underlying.value_at(
                product(X, standard_orbit(group, c)).gset)
            assert lvl.generator_count == val.generator_count
            assert lvl == val
        eta = free_unit_vector(F)
        for M in mods:
            Mk = M.underlying
            val, _ = Mk.value_at(X)
            hg = hom_modules(F, M)
            assert hg.group.invariant_factors == val.invariant_factors
            for phi in hg.basis:
                psi = classifying_morphism(F, M, phi.at_gset(X) @ eta)
                assert psi.equals(phi)
            for k in range(val.generator_count):
                m = im.zero_vec(val.generator_count)
                m[k] = 1
                psi = classifying_morphism(F, M, m)
                MackeyMorphism(psi.source, psi.target, psi.mats)  # natural
                assert val.elements_equal(psi.at_gset(X) @ eta, m)


def _hom_bytes(hg):
    return (hg.group.generator_count, hg.group.relations.tolist(),
            [[m.tolist() for m in phi.mats] for phi in hg.basis])


def _fp_modules(group, R):
    """FP(Z) and FP(Z)/2 as modules over the Burnside ring."""
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    return canonical_module(R, FP), canonical_module(R, cokernel(two)[0])


@pytest.mark.parametrize("name", [n for n in BUILTIN_GROUP_NAMES
                                  if builtin_group(n).order < 8])
def test_hom_modules_matches_the_all_over_code_oracle(name):
    # linearity on the level tables gives byte for byte the hom group that
    # linearity at every over-code of R box P gives
    group = builtin_group(name)
    R = burnside_green(group, check=False)
    for X in _free_bases(group):
        F = free_module(R, X)
        for M in _fp_modules(group, R):
            assert _hom_bytes(hom_modules(F, M)) == \
                _hom_bytes(hom_modules_oracle(F, M))


def test_hom_modules_matches_the_oracle_on_d4():
    group = builtin_group("D4")
    R = burnside_green(group, check=False)
    F = free_module(R, standard_orbit(group, 0))
    FPmod = _fp_modules(group, R)[0]
    hg = hom_modules(F, FPmod)
    assert _hom_bytes(hg) == _hom_bytes(hom_modules_oracle(F, FPmod))
    assert hg.group.invariant_factors == FPmod.underlying.value_at(
        standard_orbit(group, 0))[0].invariant_factors


def test_free_module_adjunction_over_second_ring(c2_setup):
    # the fixed-point Green functor of the trivial ring Z also works as a
    # base: hom_{R-mod}(R^X, R) = R(X)
    from mackeykit.convolution import GreenModule, green_from_levelwise
    C2, R, FP = c2_setup
    tables = [[[im.intvec([1])]], [[im.intvec([1])]]]
    G2 = green_from_levelwise(FP, tables, im.intvec([1]))
    Rmod = GreenModule(G2, G2.underlying, G2.tables)
    for cidx in (0, 1):
        X = standard_orbit(C2, cidx)
        F = free_module(G2, X)
        hg = hom_modules(F, Rmod)
        val, _ = FP.value_at(X)
        assert hg.group.invariant_factors == val.invariant_factors


def test_canonical_module_rejects_a_ring_other_than_burnside(c2_setup):
    # the trivial ring Z on FP(Z) has 1x1 level tables where the Burnside
    # ring of C2 acts through 2x1 ones
    from mackeykit.convolution import green_from_levelwise
    C2, R, FP = c2_setup
    G2 = green_from_levelwise(FP, [[[im.intvec([1])]], [[im.intvec([1])]]],
                              im.intvec([1]))
    with pytest.raises(ValueError, match="Burnside functor A_pt"):
        canonical_module(G2, FP)


# -- covers and resolutions -----------------------------------------------------------


def test_cover_is_levelwise_surjective(c2_setup):
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    F, surj = module_cover(FPmod)
    for c, mat in enumerate(surj.mats):
        img = im.lattice_sum(mat, FP.levels[c].relation_lattice)
        diag = im.snf_diagonal(img)
        assert len([d for d in diag if d != 0]) == FP.levels[c].generator_count
        assert all(d == 1 for d in diag if d != 0)


def test_resolution_of_free_module_is_itself(c2_setup):
    C2, R, FP = c2_setup
    F = free_module(R, standard_orbit(C2, 0))
    res = module_resolution(R, F, 3)
    assert len(res.modules) == 1
    assert res.diffs == []


def test_resolution_of_zero_module(c2_setup):
    C2, R, FP = c2_setup
    Zmod = canonical_module(R, zero_mackey(C2))
    res = module_resolution(R, Zmod, 3)
    assert all(all(l.is_trivial() for l in F.underlying.levels)
               for F in res.modules)


def _over_two_projections(group):
    """R = A_pt + A_pt with componentwise Burnside products, and A_pt as an
    R-module through the first and through the second projection: two
    modules over one ring on one Mackey functor."""
    B = burnside_green(group)
    A = B.underlying
    ring, mods = [], ([], [])
    for table in B.tables:
        n = len(table)
        zero = im.zero_vec(n)

        def block(i, j, n=n, table=table):
            out = im.zero_vec(2 * n)
            if i // n == j // n:
                out[i // n * n:(i // n + 1) * n] = table[i % n][j % n]
            return out

        ring.append([[block(i, j) for j in range(2 * n)]
                     for i in range(2 * n)])
        for b, mod in enumerate(mods):
            mod.append([[table[i % n][j] if i // n == b else zero
                         for j in range(n)] for i in range(2 * n)])
    R = green_from_levelwise(direct_sum(A, A)[0], ring, list(B.unit) * 2)
    M1, M2 = (GreenModule(R, A, tables) for tables in mods)
    for M in (M1, M2):
        validate_module(M)
    return R, M1, M2


@pytest.mark.parametrize("name, tor0", [("trivial", ["Z"]),
                                        ("C2", ["Z", "Z^2"])])
def test_two_modules_on_one_functor_have_their_own_resolutions(name, tor0):
    # M1 and M2 share their Mackey functor; Tor_0(M1, M1) = A_pt must not
    # read the resolution of M2 made by the Tor before it
    R, M1, M2 = _over_two_projections(builtin_group(name))
    tor(R, M1, M2, 0)
    result = tor(R, M1, M1, 0)
    assert [lvl.describe() for lvl in result.tor[0].levels] == tor0
    result.tor0_witness.inverse()
    with pytest.raises(ValueError, match="different ring"):
        module_resolution(burnside_green(builtin_group(name)), M1, 0)


def test_rings_and_modules_compare_by_identity():
    # a generated `__eq__` would compare level tables, which are arrays:
    # `in` raised on the truth value of an array, and hash() refused
    group = builtin_group("S3")
    R = burnside_green(group)
    A = R.underlying
    M, N = canonical_module(R, A), canonical_module(R, A)
    F = free_module(R, standard_orbit(group, 1))
    assert M not in [N] and M in [N, M] and M != N
    assert F != free_module(R, F.base)
    assert len({R, M, N, F, F}) == 4


def test_resolution_exact_in_middle_degrees(c2_setup):
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    Q = cokernel(two)[0]         # FP with mod-2 levels
    Qmod = canonical_module(R, Q)
    res = module_resolution(R, Qmod, 4)
    C = res.complex()
    C.validate()
    for p in range(1, len(res.modules) - 1):
        H = C.homology(p)
        assert all(l.is_trivial() for l in H.levels), p
    # the augmentation is a quasi-isomorphism in degree 0
    H0 = C.homology(0)
    assert H0.levels[0].invariant_factors == Q.levels[0].invariant_factors
    assert H0.levels[1].invariant_factors == Q.levels[1].invariant_factors


# -- relative box -----------------------------------------------------------------------


def test_rel_box_with_ring_is_identity(c2_setup):
    # M box_R R = M
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    Rmod = canonical_module(R, R.underlying)
    rb = rel_box(FPmod, Rmod)
    assert invariants(rb.functor) == invariants(FP)


def test_rel_box_over_unit_ring_is_plain_box(c2_setup):
    # M box_{A_pt} N = M box N
    C2, R, FP = c2_setup
    A = burnside_mackey(C2)
    Mmod = canonical_module(R, FP)
    Nmod = canonical_module(R, A)
    rb = rel_box(Mmod, Nmod)
    plain = box(FP, A)
    assert invariants(rb.functor) == invariants(plain.functor)


def test_rel_box_with_free_module_gives_levelwise_values(c2_setup):
    # M box_R R^X = M box A_X, levelwise M(X x -)
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    O = standard_orbit(C2, 0)
    F = free_module(R, O)
    rb = rel_box(FPmod, F)
    for c in range(2):
        Y = standard_orbit(C2, c)
        val, _ = FP.value_at(product(O, Y).gset)
        assert rb.functor.levels[c].invariant_factors == val.invariant_factors


def test_rel_box_right_exact(c2_setup):
    # a levelwise surjection N -> N' induces a surjection on M box_R -
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    Q, proj = cokernel(two)
    Qmod = canonical_module(R, Q)
    src = rel_box(FPmod, FPmod)
    tgt = rel_box(FPmod, Qmod)
    induced = rel_box_map(src, tgt, proj)
    for c, mat in enumerate(induced.mats):
        img = im.lattice_sum(mat, tgt.functor.levels[c].relation_lattice)
        diag = im.snf_diagonal(img)
        assert len([d for d in diag if d != 0]) == \
            tgt.functor.levels[c].generator_count
        assert all(d == 1 for d in diag if d != 0)


# -- Tor -----------------------------------------------------------------------------------


def test_tor_vanishes_on_free_arguments(c2_setup):
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    F = free_module(R, standard_orbit(C2, 0))
    # the free module on the left, so FPmod is resolved and Tor_1..3 are
    # read off a complex with nonzero terms in those degrees
    result = tor(R, F, FPmod, 3)
    modules = result.resolution.modules
    assert len(modules) > 3 and all(F.base.size for F in modules)
    for p in range(1, 4):
        assert all(l.is_trivial() for l in result.tor[p].levels)
    result.tor0_witness.inverse()    # raises unless invertible


def test_tor0_is_rel_box_with_witness(c2_setup):
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    Qmod = canonical_module(R, cokernel(two)[0])
    result = tor(R, FPmod, Qmod, 2)
    wit = result.tor0_witness
    inv = wit.inverse()
    assert compose_morphisms(wit, inv).equals(identity_morphism(wit.target))


def test_tor_independent_of_resolution(c2_setup):
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    Qmod = canonical_module(R, cokernel(two)[0])
    a = tor(R, FPmod, Qmod, 2)
    b = top_down_tor(R, FPmod, Qmod, 2)
    for p in range(3):
        assert invariants(a.tor[p]) == invariants(b.tor[p]), p


@pytest.mark.parametrize("name", ["C2", "S3", "C2xC2"])
def test_an_extended_resolution_is_a_fresh_one(name):
    # a longer request extends the cached resolution from its last free
    # module and differential: length 1 and then 3 on one module equals a
    # fresh length-3 resolution of another module on the same functor,
    # level by level, table by table and differential by differential
    R, mods = _tor_modules(builtin_group(name))
    lengths = {}
    for key, M in mods.items():
        fresh = GreenModule(R, M.underlying, M.tables)
        module_resolution(R, M, 1)
        grown, want = (module_resolution(R, N, 3) for N in (M, fresh))
        lengths[key] = len(grown.modules)
        for F, G in zip(grown.modules, want.modules, strict=True):
            assert F.base.orbit_index.classes == G.base.orbit_index.classes
            for a, b in zip(F.underlying.levels, G.underlying.levels,
                            strict=True):
                assert a.generator_count == b.generator_count
                assert im.mats_equal(a.relation_lattice, b.relation_lattice)
            assert all(im.mats_equal(s, t)
                       for s, t in zip(F.tables, G.tables, strict=True))
        for f, g in zip(grown.diffs + [grown.augmentation],
                        want.diffs + [want.augmentation], strict=True):
            assert all(im.mats_equal(s, t)
                       for s, t in zip(f.mats, g.mats, strict=True))
    # FP(Z)/2 was extended twice; R's resolution ended before length 3,
    # and an ended resolution is not extended
    assert lengths["R"] < lengths["FP/2"] == 4
    assert len(module_resolution(R, mods["R"], 5).modules) == lengths["R"]


def test_negative_degrees_are_refused_whatever_is_cached(c2_setup):
    # a negative length once sliced a cached resolution from its end, so
    # the answer depended on what earlier calls had cached
    C2, R, FP = c2_setup
    M = canonical_module(R, FP)
    F = free_module(R, standard_orbit(C2, 0))

    def refused():
        for p in (-1, -3, -5):
            with pytest.raises(ValueError, match="nonnegative"):
                tor(R, M, M, p)
            for N in (M, F):
                with pytest.raises(ValueError, match="nonnegative"):
                    module_resolution(R, N, p)

    refused()
    assert len(tor(R, M, M, 1).tor) == 2     # caches a resolution of M
    refused()
    assert len(tor(R, M, M, 0).tor) == 1


def test_group_mismatch_names_both_groups(c2_setup):
    _C2, R, _FP = c2_setup
    with pytest.raises(ValueError, match="^the ring and the functor are over "
                                         "different groups: C2 and C3$"):
        canonical_module(R, burnside_mackey(builtin_group("C3")))


def test_tor_symmetric_for_commutative_ring(c2_setup):
    C2, R, FP = c2_setup
    A = burnside_mackey(C2)
    M = canonical_module(R, FP)
    N = canonical_module(R, A)
    ab = tor(R, M, N, 2)
    ba = tor(R, N, M, 2)
    for p in range(3):
        assert invariants(ab.tor[p]) == invariants(ba.tor[p]), p


# -- Tor in the Dress picture ----------------------------------------------------------


BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")


def _tor_modules(group):
    """R, and FP(Z), FP(Z)/2 and R as R-modules, built fresh."""
    R = burnside_green(group, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    return R, {"FP": canonical_module(R, FP),
               "FP/2": canonical_module(R, cokernel(two)[0]),
               "R": canonical_module(R, R.underlying)}


def _two_sided(f):
    inv = f.inverse()
    assert compose_morphisms(f, inv).equals(identity_morphism(f.target))
    assert compose_morphisms(inv, f).equals(identity_morphism(f.source))


@pytest.mark.parametrize("name", BATTERY)
def test_tor_matches_a_presented_rel_box_per_term(name):
    # the Dress terms M(X_p x -) against rel_box(M, F_p) with rel_box_map
    # differentials, on one resolution: the same homology degree by degree
    R, mods = _tor_modules(builtin_group(name))
    for a, M in mods.items():
        for b, N in mods.items():
            result = tor(R, M, N, 2)
            C, wit = tor_by_rel_boxes(R, M, N, 2)
            result.complex.validate()
            C.validate()
            for p in range(3):
                assert invariants(result.tor[p]) == \
                    invariants(C.homology(p)), (a, b, p)
            _two_sided(result.tor0_witness)
            _two_sided(wit)


def _presentation(F):
    """The levels and structure matrices of a Mackey functor, as lists."""
    return ([(lvl.generator_count, lvl.relations.tolist()) for lvl in F.levels],
            {k: m.tolist() for k, m in F.res.items()},
            {k: m.tolist() for k, m in F.tr.items()},
            [{n: m.tolist() for n, m in w.items()} for w in F.conj])


@pytest.mark.parametrize("name", BATTERY)
def test_rel_box_matches_the_loop_built_relations(name):
    # the Kronecker blocks of the balanced relations give byte for byte the
    # presentation and projection of one relation column per generator
    # triple
    R, mods = _tor_modules(builtin_group(name))
    for a, M in mods.items():
        for b, N in mods.items():
            got = rel_box(M, N)
            Q, projection = rel_box_oracle(M, N)
            assert _presentation(got.functor) == _presentation(Q), (a, b)
            assert [m.tolist() for m in got.projection.mats] == \
                [m.tolist() for m in projection], (a, b)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_the_burnside_ring_resolves_at_f0(name):
    # A_pt is free of rank one, so its cover is one summand R^{G/G} and
    # the kernel is zero; a redundant cover made the resolution go on
    R, mods = _tor_modules(builtin_group(name))
    res = module_resolution(R, mods["R"], 2)
    assert [F.base.size for F in res.modules] == [1]
    assert res.diffs == []
    assert mods["R"]._resolution[0]


@pytest.mark.parametrize("name", BATTERY)
def test_no_cover_summand_is_generated_by_the_others(name):
    # summand b of module_cover(M) is R^{G/H} sent to m_b in M(G/H); m_b
    # must not lie in the relations plus the images of the other summands
    # at that level, which are their classifying maps from R^{G/H'}
    R, mods = _tor_modules(builtin_group(name))
    F, surj = module_cover(mods["FP/2"])
    cases = [mods["FP"], mods["FP/2"], mods["R"], module_kernel(F, surj)[0]]
    for M in cases:
        F, surj = module_cover(M)
        X = F.base
        _, offsets = M.underlying.value_at(X)
        m = surj.at_gset(X) @ free_unit_vector(F)
        gens = []
        for b, (emb, c) in enumerate(zip(X.orbit_embeddings,
                                         X.orbit_index.classes)):
            m_b = m[offsets[b]:
                    offsets[b] + M.underlying.levels[c].generator_count]
            gens.append((c, m_b, classifying_morphism(
                free_module(R, emb.source), M, m_b)))
        for b, (c, m_b, _phi) in enumerate(gens):
            others = [phi.mats[c] for j, (*_, phi) in enumerate(gens)
                      if j != b]
            lattice = im.hstack([M.underlying.levels[c].relation_lattice]
                                + others)
            assert not im.in_lattice(m_b, lattice), (b, c)


@pytest.mark.parametrize("name", ("C2", "S3", "C2xC2"))
def test_resolution_tables_are_one_integer_array_per_level(name):
    # covers and kernels of a length-2 resolution of FP/2 keep the
    # (nR, nM, nM) object arrays that GreenModule takes as given
    R, mods = _tor_modules(builtin_group(name))
    M = mods["FP/2"]
    for _p in range(2):
        F, surj = module_cover(M)
        M, _incl = module_kernel(F, surj)
        for mod in (F, M):
            validate_module(mod)
            assert_level_arrays(R, mod.underlying, mod.tables)


@pytest.mark.parametrize("name", ("C2", "S3"))
def test_tor_with_a_free_module_on_the_left(name):
    # R(X x -) box_R - is exact and is N(X x -) on N, so Tor_p(R^X, N)
    # vanishes for p >= 1 and Tor_0 is N(X x -)
    R, mods = _tor_modules(builtin_group(name))
    X = standard_orbit(R.group, 0)
    F = free_module(R, X)
    result = tor(R, F, mods["FP"], 2)
    for p in (1, 2):
        assert all(l.is_trivial() for l in result.tor[p].levels), p
    assert invariants(result.tor[0]) == \
        invariants(internal_hom_rep(X, mods["FP"].underlying))
    _two_sided(result.tor0_witness)


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_tor_agrees_across_covers_and_argument_order(name):
    # Tor_p(M, N) read off the top-down cover's resolution of N, and, the
    # Burnside ring being commutative, off a resolution of M as
    # Tor_p(N, M): neither shares a resolution with tor(R, M, N, p); the
    # order-8 groups stop at p = 1, where the top-down resolution of
    # length 2 is still cheap
    R, mods = _tor_modules(builtin_group(name))
    p = 1 if name in ("D4", "Q8") else 2
    nonzero = 0
    for a, b in itertools.product(("FP", "FP/2"), repeat=2):
        M, N = mods[a], mods[b]
        want = [invariants(t) for t in tor(R, M, N, p).tor]
        assert [invariants(t) for t in
                top_down_tor(R, M, N, p).tor] == want, (a, b)
        assert [invariants(t) for t in tor(R, N, M, p).tor] == want, (a, b)
        nonzero += sum(any(levels) for levels in want[1:])
    assert nonzero > 0    # some Tor_1 or Tor_2 is nonzero, so this can fail


def test_tor_presents_its_box_on_the_first_witness_read(monkeypatch):
    # a Tor call presents no box; the first read of the Tor_0 witness
    # presents M box N once, and no free term is ever boxed
    R, mods = _tor_modules(builtin_group("S3"))
    M, N = mods["FP"], mods["FP/2"]
    calls = []
    real = convolution.box

    def counting(A, B):
        calls.append((A, B))
        return real(A, B)

    monkeypatch.setattr(convolution, "box", counting)
    monkeypatch.setattr(homalg, "box", counting)
    result = tor(R, M, N, 2)
    memo = M.underlying._memo
    assert calls == []
    assert real.__wrapped__ not in memo
    wit = result.tor0_witness
    assert calls == [(M.underlying, N.underlying)]
    assert result.tor0_witness is wit
    assert calls == [(M.underlying, N.underlying)]
    assert list(memo[real.__wrapped__]) == [N.underlying]


def test_a_fresh_group_is_collected_after_green_tor_and_witness():
    # the Burnside Green functor, its orbits and functors live in the
    # group's memo and the result, so nothing outlives the group: no
    # module-level cache keeps it, its functors or its boxes alive
    group = FiniteGroup(cyclic_group_table(4), name="C4")
    R, mods = _tor_modules(group)
    assert burnside_green(group) is R
    result = tor(R, mods["R"], mods["FP/2"], 1)
    _two_sided(result.tor0_witness)
    refs = [weakref.ref(x) for x in (group, R, result.rel.box.functor)]
    del group, R, mods, result
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# -- module kernels carry the action ----------------------------------------------------------


def test_module_kernel_is_a_module(c2_setup):
    # the kernel's level tables are the free action read through the
    # inclusion: incl(K.tables[c][i][j]) = e_i . incl(k_j) in F
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    F, surj = module_cover(FPmod)
    K, incl = module_kernel(F, surj)
    validate_module(K)
    for c, table in enumerate(K.tables):
        lvl = F.underlying.levels[c]
        inc = incl.mats[c]
        for i, row in enumerate(table):
            for j, k_j in enumerate(row):
                act = im.zero_vec(lvl.generator_count)
                for t, x in enumerate(inc[:, j]):
                    act += x * F.tables[c][i][t]
                assert lvl.elements_equal(inc @ k_j, act), (c, i, j)


# -- spectral sequences -------------------------------------------------------------------------


def test_trivial_filtration_gives_homology(c2_setup):
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    C = ChainComplex(C2, {0: FP, 1: FP}, {1: two})
    filt = FilteredComplex([C], [], 0)
    pages = ss_pages(filt, 3)
    # one filtration jump: E_1 concentrates the homology at p = 0 and all
    # later pages agree with it
    for n in (0, 1):
        H = C.homology(n)
        E = pages[0].entry(0, n)
        assert invariants(E) == invariants(H)
        for page in pages[1:]:
            assert invariants(page.entry(0, n)) == invariants(H)


def test_page_counts_below_one_are_refused(c2_setup):
    # r_max 0 and -2 once returned no pages at all
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    C = ChainComplex(C2, {0: FP, 1: FP}, {1: two})
    for filt in (FilteredComplex([C], [], 0),
                 FilteredComplex([ChainComplex(C2, {}, {})], [], 0)):
        for r_max in (0, -2):
            with pytest.raises(ValueError, match="r_max must be at least 1"):
                ss_pages(filt, r_max)
        assert len(ss_pages(filt, 1)) == 1


def test_two_step_filtration_les(c2_setup):
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    C = ChainComplex(C2, {0: FP, 1: FP}, {1: two})
    F0 = ChainComplex(C2, {0: FP}, {})
    filt = FilteredComplex([F0, C], [{0: identity_morphism(FP)}], 0)
    filt.validate()
    pages = ss_pages(filt, 3)
    E1, E2, E3 = pages
    # E_1 entries are the associated-graded complex
    assert invariants(E1.entry(0, 0)) == [(0,), (0,)]
    assert invariants(E1.entry(1, 0)) == [(0,), (0,)]
    # d_1 is the induced differential: kernel and cokernel match x2
    assert invariants(E2.entry(0, 0)) == [(2,), (2,)]
    assert all(l.is_trivial() for l in E2.entry(1, 0).levels)
    # degeneration from E_2 on
    assert invariants(E3.entry(0, 0)) == invariants(E2.entry(0, 0))


def test_page_turn_is_homology_of_previous_page(c2_setup):
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    C = ChainComplex(C2, {0: FP, 1: FP}, {1: two})
    F0 = ChainComplex(C2, {0: FP}, {})
    filt = FilteredComplex([F0, C], [{0: identity_morphism(FP)}], 0)
    pages = ss_pages(filt, 2)
    E1, E2 = pages
    from mackeykit.mackey import homology_at
    for (p, q), E in E2.entries.items():
        src = E1.entry(p, q)
        dout = E1.differentials.get((p, q))
        din = E1.differentials.get((p + 1, q))
        if dout is None:
            dout = zero_morphism(src, zero_mackey(C2))
        if din is None:
            din = zero_morphism(zero_mackey(C2), src)
        H, _, _, _ = homology_at(din, dout)
        assert invariants(H) == invariants(E), (p, q)


def test_skeletal_ss_first_quadrant_and_tor(c2_setup):
    C2, R, FP = c2_setup
    FPmod = canonical_module(R, FP)
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    Qmod = canonical_module(R, cokernel(two)[0])
    result = tor(R, FPmod, Qmod, 2)
    filt = skeletal_filtration(result.complex)
    pages = ss_pages(filt, 3)
    E2 = pages[1]
    for p in range(3):
        assert invariants(E2.entry(p, 0)) == invariants(result.tor[p]), p
    # first-quadrant: nothing off the q = 0 row
    for (p, q), E in E2.entries.items():
        if q != 0:
            assert all(l.is_trivial() for l in E.levels), (p, q)
    # E_infinity equals the associated graded of the homology filtration
    Einf = pages[-1]
    for n in range(3):
        graded = homology_filtration_graded(filt, n)
        for p, piece in graded.items():
            E = Einf.entry(p, n - p)
            if E is None:
                assert all(l.is_trivial() for l in piece.levels)
            else:
                assert invariants(E) == invariants(piece), (p, n)


def test_ss_rejects_nonsense_differentials(c2_setup):
    C2, R, FP = c2_setup
    bad = ChainComplex(C2, {0: FP, 1: FP, 2: FP},
                       {1: MackeyMorphism(FP, FP, [im.intmat([[1]])] * 2),
                        2: MackeyMorphism(FP, FP, [im.intmat([[1]])] * 2)})
    with pytest.raises(ValueError, match="d.d"):
        bad.validate()


# -- pages skip what a trivial term forces to zero ---------------------------------------------


def _nonzero(M):
    return any(not level.is_trivial() for level in M.levels)


def _summary(page):
    """The invariant factors of every entry and whether each differential
    is zero."""
    return ({k: invariants(E) for k, E in page.entries.items()},
            {k: d.is_zero() for k, d in page.differentials.items()})


def _assert_pages_match_the_oracle(filt, r_max):
    pages = ss_pages(filt, r_max)
    want = ss_pages_oracle(filt, r_max)
    assert [_summary(page) for page in pages] == \
        [_summary(page) for page in want]
    return pages


FP_PAIRS = list(itertools.product(("FP", "FP/2"), repeat=2))


@pytest.mark.parametrize("name, pairs", [
    ("C2", FP_PAIRS), ("C3", FP_PAIRS), ("S3", FP_PAIRS),
    ("C2xC2", [("FP", "FP/2")]),
], ids=["C2", "C3", "S3", "C2xC2"])
def test_ss_pages_match_the_every_entry_oracle_on_tor(name, pairs):
    R, mods = _tor_modules(builtin_group(name))
    for a, b in pairs:
        result = tor(R, mods[a], mods[b], 2)
        _assert_pages_match_the_oracle(skeletal_filtration(result.complex), 4)


@pytest.mark.parametrize("factor", [0, 2])
@pytest.mark.parametrize("shape", ["one-step", "two-step", "constant"])
def test_ss_pages_match_the_every_entry_oracle_off_the_row(c2_setup, shape,
                                                           factor):
    # FP --factor--> FP; with factor 0, H_1 = FP sits off the q = 0 row at
    # E^{0,1} of the one-step and the constant filtration, and the
    # constant one's F(1)/F(0) has terms that are trivial cokernels
    C2, R, FP = c2_setup
    d = MackeyMorphism(FP, FP, [im.intmat([[factor]])] * 2)
    C = ChainComplex(C2, {0: FP, 1: FP}, {1: d})
    one = identity_morphism(FP)
    filt = {"one-step": FilteredComplex([C], [], 0),
            "two-step": FilteredComplex(
                [ChainComplex(C2, {0: FP}, {}), C], [{0: one}], 0),
            "constant": FilteredComplex([C, C], [{0: one, 1: one}], 0)}[shape]
    filt.validate()
    pages = _assert_pages_match_the_oracle(filt, 3)
    if factor == 0 and shape != "two-step":
        assert all(invariants(page.entry(0, 1)) == invariants(FP)
                   for page in pages)


def test_ss_pages_skip_what_a_trivial_term_forces_to_zero(monkeypatch):
    # the C2 Tor complex of (FP, FP/2) has degrees 0..3; with r_max = 4,
    # 48 of its 64 entries have a trivial term
    C2 = builtin_group("C2")
    R, mods = _tor_modules(C2)
    filt = skeletal_filtration(tor(R, mods["FP"], mods["FP/2"], 2).complex)
    homology, connecting, maps = [], [], []
    real_homology = ChainComplex.homology_data
    real_connecting = homalg._connecting
    real_map = homalg.complex_map_homology

    def homology_data(self, n):
        if (n,) not in memo_entries(self).get("homology_data", ()):
            homology.append((self, n))
        return real_homology(self, n)

    def counting_connecting(filt, r, p, n):
        connecting.append((r, p, n))
        return real_connecting(filt, r, p, n)

    def counting_map(C, D, chain_map, n):
        maps.append((id(C), id(D), n))
        return real_map(C, D, chain_map, n)

    monkeypatch.setattr(ChainComplex, "homology_data", homology_data)
    monkeypatch.setattr(homalg, "_connecting", counting_connecting)
    monkeypatch.setattr(homalg, "complex_map_homology", counting_map)
    pages = ss_pages(filt, 4)
    entries = [E for page in pages for E in page.entries.values()]
    assert len(entries) == 64
    assert sum(E is zero_mackey(C2) for E in entries) == 48
    # no quotient complex takes homology where its term is trivial
    assert homology and all(_nonzero(Q.term(n)) for Q, n in homology)
    # each (Q1, Q2, n) is mapped once, though pages 3 and 4 share some
    assert maps and len(maps) == len(set(maps))
    # the connecting morphism runs exactly where both ends are nonzero
    both = [(page.r, p, p + q) for page in pages for p, q in page.differentials
            if _nonzero(page.entry(p, q))
            and _nonzero(page.entry(p - page.r, q + page.r - 1))]
    assert connecting and sorted(connecting) == sorted(both)


# -- pages reuse the complexes and the homology tor already has --------------------------------


def test_skeletal_filtration_and_quotients_reuse_their_complexes(c2_setup):
    C2, R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
    C = tor(R, canonical_module(R, FP), canonical_module(R, cokernel(two)[0]),
            2).complex
    filt = skeletal_filtration(C)
    assert filt.steps[-1] is C
    lo = filt.min_index
    for a in range(lo - 1, filt.max_index + 2):
        for b in (lo - 1, lo - 3):
            # F(a)/F(b) with F(b) = 0 is F(a) itself, not a cokernel copy
            assert quotient_complex(filt, a, b) is filt.complex_at(a)
    assert quotient_complex(filt, lo + 1, lo) is not filt.complex_at(lo + 1)


def test_pages_reuse_the_homology_tor_computed(monkeypatch):
    # after tor, neither the pages nor the graded homology take the
    # homology of the Tor complex (or of a copy of it) again in a degree
    # tor already computed
    R, mods = _tor_modules(builtin_group("C2"))
    C = tor(R, mods["FP"], mods["FP/2"], 2).complex
    computed = {n for n, in memo_entries(C)["homology_data"]}
    assert computed == {0, 1, 2}
    again = []
    real = ChainComplex.homology_data

    def homology_data(self, n):
        if (n,) not in memo_entries(self).get("homology_data", ()) \
                and self.terms == C.terms and self.diffs == C.diffs:
            again.append(n)
        return real(self, n)

    monkeypatch.setattr(ChainComplex, "homology_data", homology_data)
    filt = skeletal_filtration(C)
    ss_pages(filt, 4)
    for n in range(3):
        homology_filtration_graded(filt, n)
    assert not computed & set(again), again


# -- derived functors carry their structure maps on first read ---------------------------------


def _derived_at(C, n):
    """The kernel, image and cokernel functors of C's differentials at
    degree n, and homology_at's kernel, unminimized and minimized
    homology."""
    d_in, d_out = C.diff(n + 1), C.diff(n)
    H, incl, proj, _sect = homology_at(d_in, d_out)
    return [kernel(d_out)[0], image(d_in)[0], cokernel(d_in)[0],
            incl.source, proj.source, H]


@pytest.mark.parametrize("name", BATTERY + ("D4",))
def test_carried_structure_maps_match_the_eager_route(name, monkeypatch):
    # each res/tr/conj matrix carried on first read equals, entry for
    # entry, the one the eager route carries when the functor is built
    R, mods = _tor_modules(builtin_group(name))
    C = tor(R, mods["FP"], mods["FP/2"], 0 if name == "D4" else 1).complex
    for n in C.degrees():
        lazy = _derived_at(C, n)
        with monkeypatch.context() as patch:
            patch.setattr(mackey, "_carried", eager_carried)
            eager = _derived_at(C, n)
        for got, want in zip(lazy, eager):
            assert all(im.mats_equal(a.relation_lattice, b.relation_lattice)
                       for a, b in zip(got.levels, want.levels))
            got_maps, want_maps = (structure_matrices(got),
                                   structure_matrices(want))
            assert list(got_maps) == list(want_maps)
            for key, m in want_maps.items():
                assert got_maps[key].dtype == object, (n, key)
                assert im.mats_equal(got_maps[key], m), (n, key)


# -- one coordinate solver per sublattice ------------------------------------------------------


def _counting_solvers(monkeypatch):
    """The shapes of the matrices every `intmat.Solver` built from now on
    factors, in order."""
    built = []

    class Counting(im.Solver):
        def __init__(self, A):
            built.append(A.shape)
            super().__init__(A)

    monkeypatch.setattr(im, "Solver", Counting)
    return built


def test_homology_at_factors_each_class_of_its_inclusion_once(monkeypatch):
    # the lift of d_in through the kernel's inclusion and the kernel's
    # carried structure maps read one solver per class, whichever is first
    group = builtin_group("C2xC2")
    R, mods = _tor_modules(group)
    C = tor(R, mods["FP"], mods["FP/2"], 1).complex
    built = _counting_solvers(monkeypatch)
    _H, incl, _proj, _sect = homology_at(C.diff(2), C.diff(1))
    classes = len(group.subgroup_classes())
    assert len(built) == classes
    structure_matrices(incl.source)
    assert len(built) == classes


def test_module_kernel_factors_each_class_of_its_inclusion_once(monkeypatch):
    # the lifted action tables and the kernel's carried structure maps
    # read one solver per class
    group = builtin_group("C2xC2")
    R, mods = _tor_modules(group)
    F, surj = module_cover(mods["FP/2"])
    built = _counting_solvers(monkeypatch)
    K, incl = module_kernel(F, surj)
    structure_matrices(K.underlying)
    assert len(built) == len(group.subgroup_classes())


def _fresh_lift(f, c, vectors):
    return fresh_coordinates(f.mats[c], f.target.levels[c], "outside")(vectors)


def _assert_lifts_match_a_fresh_solve(f, rng):
    """f's shared coordinates lift seeded vectors of each level's span as
    a solver built per call does."""
    for c, (mat, lvl) in enumerate(zip(f.mats, f.target.levels)):
        rel = lvl.relation_lattice
        vectors = [mat @ im.intvec([rng.randint(-3, 3) for _ in mat.T])
                   + rel @ im.intvec([rng.randint(-3, 3) for _ in rel.T])
                   for _ in range(3)] if mat.shape[1] else []
        got = f.coordinates.lift(c, vectors, "outside")
        assert [v.tolist() for v in got] == \
            [v.tolist() for v in _fresh_lift(f, c, vectors)]


def _assert_carried_match_a_fresh_solve(incl):
    """Each structure map the subfunctor carries equals its parent's
    restricted through a solver built per call."""
    S, M = incl.source, incl.target
    cidx = M.group.class_index_of
    carried = structure_matrices(S)
    for key, m in structure_matrices(M).items():
        if key[0] == "conj":
            src = tgt = key[1]
        else:
            ends = [cidx(H) for H in key[1]]
            src, tgt = ends[::-1] if key[0] == "res" else ends
        fresh = fresh_coordinates(incl.mats[tgt], M.levels[tgt], "unstable")
        want = im.from_cols(fresh([m @ v for v in incl.mats[src].T]),
                            incl.mats[tgt].shape[1])
        assert im.mats_equal(carried[key], want), key


@pytest.mark.parametrize("name", BATTERY)
def test_shared_coordinates_equal_a_fresh_solve(name):
    # kernels, images and homology read one solver per class for their
    # lifts and their carried maps, in either order, and the Tor_0
    # witness one for its inverse: each gives what a solver built for the
    # call gives
    group = builtin_group(name)
    rng = random.Random(f"coordinates/{name}")
    R, mods = _tor_modules(group)
    result = tor(R, mods["FP"], mods["FP/2"], 1)
    C = result.complex
    for n in C.degrees():
        d_in, d_out = C.diff(n + 1), C.diff(n)
        for lifts_first in (True, False):
            for incl in (kernel(d_out)[1], image(d_in)[1],
                         homology_at(d_in, d_out)[1]):
                if lifts_first:
                    _assert_lifts_match_a_fresh_solve(incl, rng)
                _assert_carried_match_a_fresh_solve(incl)
                _assert_lifts_match_a_fresh_solve(incl, rng)
    witness = result.tor0_witness
    _assert_lifts_match_a_fresh_solve(witness, rng)
    eye = [im.identity(len(m)) for m in witness.mats]
    assert [g.tolist() for g in witness.inverse().mats] == [
        im.from_cols(_fresh_lift(witness, c, list(e.T)),
                     witness.mats[c].shape[1]).tolist()
        for c, e in enumerate(eye)]


def test_an_empty_lift_builds_no_solver(c2_setup, monkeypatch):
    # a class handed no vector reads no solver; its first lift of a vector
    # builds the class's one solver
    _C2, _R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    built = _counting_solvers(monkeypatch)
    assert two.coordinates.lift(0, [], "outside") == []
    assert two.coordinates.lift_matrix(0, im.zeros(1, 0), "outside").shape \
        == (1, 0)
    assert built == []
    assert [v.tolist() for v in two.coordinates.lift(
        0, [im.intvec([4])], "outside")] == [[2]]
    two.coordinates.lift(0, [], "outside")
    assert built == [(1, 1)]


def test_a_kernel_and_its_inclusion_are_freed_by_refcount(c2_setup):
    # the carried maps and the inclusion share coordinates that hold
    # neither, so no reference cycle keeps the pair alive
    C2, _R, FP = c2_setup
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    K, incl = kernel(cokernel(two)[1])
    lift_through_inclusion(incl, incl)
    K.tr[C2.canonical_covers[0]]
    refs = [weakref.ref(x) for x in (K, incl, incl.coordinates)]
    gc.disable()
    try:
        del K, incl
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


# -- Dress terms placed block by block, along maps proven by construction ----------------------


def _recording_proven_maps(monkeypatch):
    """Every map `pairing` and `compose_maps` build from now on, in order,
    through the names `convolution` and `homalg` call."""
    built = []

    def recording(make):
        def wrapped(*args):
            f = make(*args)
            built.append(f)
            return f
        return wrapped

    for module in (convolution, homalg):
        for name in ("pairing", "compose_maps"):
            monkeypatch.setattr(module, name, recording(getattr(gsets, name)))
    return built


@pytest.mark.parametrize("name", BATTERY + ("D4", "Q8"))
def test_dress_terms_match_the_identity_route(name, monkeypatch):
    # every res, tr and conj matrix of M(X x -) equals the earlier route's,
    # M's orbit blocks multiplied into an identity along id_X x f checked
    # point by point, entry for entry: X a standard orbit, a sum of two and
    # each term X_p of FP/2's resolution; and every map that pairings and
    # composites built on the way, in the terms, the differentials and the
    # free generators, passes the checked constructor
    built = _recording_proven_maps(monkeypatch)
    group = builtin_group(name)
    R, mods = _tor_modules(group)
    result = tor(R, mods["FP"], mods["FP/2"], 1)
    classes = range(len(group.subgroup_classes()))
    feet = [standard_orbit(group, c) for c in classes] + \
        [disjoint_union_of_orbits(group, (0, classes[-1]))] + \
        [F.base for F in result.resolution.modules]
    for M in (mods["FP"].underlying, mods["FP/2"].underlying, R.underlying):
        for X in feet:
            got, want = internal_hom_rep(X, M), internal_hom_rep_by_identity(X, M)
            assert [g.relation_lattice.tolist() for g in got.levels] == \
                [w.relation_lattice.tolist() for w in want.levels]
            got_maps, want_maps = structure_matrices(got), structure_matrices(want)
            assert list(got_maps) == list(want_maps)
            for key, m in want_maps.items():
                assert got_maps[key].dtype == object, (M.name, X, key)
                assert im.mats_equal(got_maps[key], m), (M.name, X, key)
    assert built
    for f in built:
        assert GMap(f.source, f.target, f.mapping) == f
