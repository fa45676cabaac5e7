import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, isprime
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from mackeykit import abgroups
from mackeykit import intmat as im
from mackeykit.abgroups import (
    FinPresAbGroup,
    direct_sum_groups,
    map_is_welldefined,
    maps_equal,
    quotient_by_columns,
    subgroup_from_lattice,
)
from support import (
    assert_same_group,
    dense_free,
    kernel_of_map,
    smith_slice,
    tensor_group,
)


def test_invariant_factors_examples():
    assert FinPresAbGroup.free(3).invariant_factors == (0, 0, 0)
    assert FinPresAbGroup.from_invariants([2, 3]).invariant_factors == (6,)
    assert FinPresAbGroup.from_invariants([2, 4]).invariant_factors == (2, 4)
    assert FinPresAbGroup.from_invariants([6, 10, 15]).invariant_factors == (30, 30)
    assert FinPresAbGroup(2, [[2, 4]]).invariant_factors == (2, 0)
    assert FinPresAbGroup.zero().invariant_factors == ()
    assert FinPresAbGroup(1, [[1]]).is_trivial()


@pytest.mark.parametrize("factors", [
    [2 ** 61 - 1],
    [(2 ** 31 - 1) * (2 ** 31 - 19)],
    [6, 10, 15],
])
def test_invariant_factors_match_sympy_without_factoring(factors):
    assert isprime(2 ** 61 - 1) and isprime(2 ** 31 - 1) and isprime(2 ** 31 - 19)
    n = len(factors)
    diag = DomainMatrix([[ZZ(factors[i] if i == j else 0) for j in range(n)]
                         for i in range(n)], (n, n), ZZ)
    expected = tuple(int(d) for d in invariant_factors(diag) if d != 1)
    assert FinPresAbGroup.from_invariants(factors).invariant_factors == expected
    # a blockwise direct sum keeps the unchained diagonal, so the chain is
    # recombined from it
    summed, _ = direct_sum_groups(FinPresAbGroup.from_invariants([f])
                                  for f in factors)
    assert summed._diag == factors
    assert summed.invariant_factors == expected


def _presentation(G):
    """Every field a group stores, as lists."""
    return (G.generator_count, G._rel_cols.shape, G._rel_cols.tolist(),
            G._diag, *(None if m is None else (m.shape, m.tolist())
                       for m in (G._proj, G._sect)))


def test_chained_invariants_are_assembled_as_the_elimination_gives(monkeypatch):
    # seeded factor lists with 0 and 1 among them, chained or not: the
    # group `from_invariants` gives stores what eliminating the diagonal
    # relators gives, field for field, and a chain with no unit entry is
    # assembled without the elimination
    rng = random.Random("from_invariants")
    lists = [[], [0], [1], [0, 0], [2, 4, 0], [1, 2], [2, 3], [4, 2], [-2]]
    for _ in range(300):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            chain = [rng.choice((1, 2, 3))]
            for _ in range(n - 1):
                chain.append(chain[-1] * rng.choice((1, 2, 3, 5)))
            cut = rng.randint(0, n)
            lists.append(chain[:cut] + [0] * (n - cut))
        else:
            lists.append([rng.choice((0, 1, 2, 3, 4, 6, 12)) for _ in range(n)])
    chained = [fs for fs in lists
               if all(d == 0 or d > 1 for d in fs) and all(
                   b % a == 0 if a else b == 0 for a, b in zip(fs, fs[1:]))]
    assert len(chained) > 50 and len(lists) - len(chained) > 50
    for fs in lists:
        n = len(fs)
        eliminated = FinPresAbGroup(n, im.intmat(
            [[d if j == i else 0 for j in range(n)]
             for i, d in enumerate(fs) if d], n))
        assert _presentation(FinPresAbGroup.from_invariants(fs)) == \
            _presentation(eliminated), fs

    def no_elimination(A):
        raise AssertionError("eliminated a chained diagonal")

    monkeypatch.setattr(abgroups, "_smith", no_elimination)
    monkeypatch.setattr(abgroups, "hermite_normal_form", no_elimination)
    for fs in chained:
        FinPresAbGroup.from_invariants(fs)
    G = FinPresAbGroup.from_invariants([2, 4, 0])
    assert G.minimal_presentation()[0].invariant_factors == (2, 4, 0)


@pytest.mark.parametrize("n", [0, 1, 5, 717])
def test_relator_free_group_has_identity_transforms(n):
    G = FinPresAbGroup(n)
    # None stands for the identity projection and section
    assert G._proj is None and G._sect is None
    assert G._diag == [0] * n


def test_normal_forms_unique():
    G = FinPresAbGroup(2, [[2, 0], [0, 3]])
    seen = {G.normal_form([a, b]) for a in range(-6, 7) for b in range(-6, 7)}
    assert len(seen) == 6
    assert G.order() == 6
    assert G.elements_equal([3, 4], [1, 1])
    assert not G.elements_equal([1, 0], [0, 1])


def test_elements_enumeration():
    G = FinPresAbGroup.from_invariants([2, 3])
    els = list(G.elements())
    assert len(els) == 6
    forms = {G.normal_form(v) for v in els}
    assert len(forms) == 6


def test_kernel_cokernel_image_against_enumeration():
    # map Z/4 (+) Z -> Z/8, (a, b) |-> 2a + 4b
    src = FinPresAbGroup(2, [[4, 0]])
    tgt = FinPresAbGroup(1, [[8]])
    M = im.intmat([[2, 4]])
    assert map_is_welldefined(M, src, tgt)
    K, kincl = kernel_of_map(M, src, tgt)
    C = quotient_by_columns(tgt, M)
    I, _ = subgroup_from_lattice(M, tgt)
    # oracle by enumeration over the source representatives (a, b),
    # 0 <= a < 4 and -8 <= b < 8: v is in the kernel exactly when it lies
    # in the span of the kernel inclusion and the source relations
    kernel_or_rels = im.hstack([kincl, src.relation_lattice])
    image_forms = set()
    for a in range(4):
        for b in range(-8, 8):
            v = im.intvec([a, b])
            value = tgt.normal_form(M @ v)
            image_forms.add(value)
            assert im.in_lattice(v, kernel_or_rels) == (not any(value)), v
    assert image_forms == {(0,), (2,), (4,), (6,)}
    assert I.order() == len(image_forms) == 4
    assert C.order() == 2
    assert K.free_rank == 1       # (0, b) with 2a + 4b = 0 mod 8 has a line
    # inclusion lands in the kernel
    for j in range(kincl.shape[1]):
        assert not any(tgt.normal_form(M @ kincl[:, j]))


def test_not_welldefined_detected():
    src = FinPresAbGroup(1, [[2]])
    tgt = FinPresAbGroup(1, [[3]])
    assert not map_is_welldefined(im.intmat([[1]]), src, tgt)
    assert map_is_welldefined(im.intmat([[0]]), src, tgt)
    assert map_is_welldefined(im.intmat([[3]]), src, tgt)


def test_tensor_matches_classical_formula():
    # (Z/4 (+) Z) (x) (Z/6) = Z/2 (+) Z/6
    A = FinPresAbGroup.from_invariants([4, 0])
    B = FinPresAbGroup.from_invariants([6])
    T = tensor_group(A, B)
    assert T.invariant_factors == (2, 6)
    # free x free
    T2 = tensor_group(FinPresAbGroup.free(2), FinPresAbGroup.free(3))
    assert T2.invariant_factors == (0,) * 6


def test_subgroup_and_quotient_roundtrip():
    G = FinPresAbGroup.from_invariants([8])
    sub, incl = subgroup_from_lattice(im.intmat([[2]]), G)
    assert sub.order() == 4
    quo = quotient_by_columns(G, im.intmat([[2]]))
    assert quo.invariant_factors == (2,)


def test_direct_sum():
    A = FinPresAbGroup.from_invariants([2])
    B = FinPresAbGroup.from_invariants([0, 4])
    S, offs = direct_sum_groups([A, B])
    assert S.invariant_factors == (2, 4, 0)
    assert offs == [0, 1]
    assert S.invariant_factors == \
        FinPresAbGroup.from_invariants([4, 2, 0]).invariant_factors


def test_direct_sum_of_one_group_is_the_group():
    G = FinPresAbGroup(2, im.intmat([[2, 4]]))
    S, offs = direct_sum_groups([G])
    assert S is G and offs == [0]


def test_maps_equal_modulo_relations():
    G = FinPresAbGroup.from_invariants([5])
    assert maps_equal(im.intmat([[2]]), im.intmat([[7]]), G, G)
    assert not maps_equal(im.intmat([[2]]), im.intmat([[3]]), G, G)


@st.composite
def levels_and_maps(draw):
    """(src, tgt, M1, M2): presented, relator-free or empty levels, a map M1
    and a map M2 that differs from it by tgt relators and, sometimes, by a
    random matrix."""
    def level():
        kind = draw(st.sampled_from(["presented", "free", "empty"]))
        if kind == "empty":
            return FinPresAbGroup(0)
        n = draw(st.integers(1, 4))
        if kind == "free":
            return FinPresAbGroup(n)
        rels = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                      max_size=n), min_size=1, max_size=3))
        return FinPresAbGroup(n, rels)

    def matrix(rows, cols, bound):
        return im.intmat([[draw(st.integers(-bound, bound))
                           for _ in range(cols)] for _ in range(rows)], cols)

    src, tgt = level(), level()
    n, m = tgt.generator_count, src.generator_count
    M1 = matrix(n, m, 9)
    lat = tgt.relation_lattice
    M2 = M1 + lat @ matrix(lat.shape[1], m, 3)
    if draw(st.booleans()):
        M2 = M2 + matrix(n, m, 1)
    return src, tgt, M1, M2


def _columns_zero(D, tgt):
    return all(not any(tgt.normal_form(D[:, j])) for j in range(D.shape[1]))


@settings(max_examples=200, deadline=None)
@given(levels_and_maps())
def test_whole_matrix_comparison_matches_normal_forms_per_column(case):
    # maps_equal and map_is_welldefined reduce a whole difference matrix
    # with one product; the oracle is one normal form per column
    src, tgt, M1, M2 = case
    assert maps_equal(M1, M2, src, tgt) == _columns_zero(M1 - M2, tgt)
    assert map_is_welldefined(M1, src, tgt) == _columns_zero(
        M1 @ src.relation_lattice, tgt)


# -- relator-free groups: the implicit identity against a dense oracle -------------


FREE_SIZES = [0, 1, 5, 717]


@st.composite
def free_vectors(draw):
    """(n, v): a size from FREE_SIZES and a sparse vector of Z^n."""
    n = draw(st.sampled_from(FREE_SIZES))
    v = [0] * n
    if n:
        picks = draw(st.dictionaries(st.integers(0, n - 1),
                                     st.integers(-2 ** 70, 2 ** 70),
                                     max_size=6))
        for i, x in picks.items():
            v[i] = x
    return n, v


@settings(max_examples=150, deadline=None)
@given(free_vectors())
def test_implicit_identity_normal_form_and_reduce_match_dense(nv):
    n, v = nv
    G, D = FinPresAbGroup(n), dense_free(n)
    assert G._proj is None and D._proj is not None
    assert_same_group(G, D)
    for w in (v, im.intvec(v)):
        assert G.normal_form(w) == D.normal_form(w)
        assert all(type(x) is int for x in G.normal_form(w))
        r, s = G.reduce(w), D.reduce(w)
        assert r.dtype == s.dtype == object and r.shape == s.shape == (n,)
        assert list(r) == list(s)


@pytest.mark.parametrize("n", FREE_SIZES)
def test_implicit_identity_elements_and_length_check_match_dense(n):
    G, D = FinPresAbGroup(n), dense_free(n)
    if n == 0:
        (g,), (d,) = list(G.elements()), list(D.elements())
        assert g.dtype == d.dtype == object and g.shape == d.shape == (0,)
    else:
        for grp in (G, D):
            with pytest.raises(ValueError):
                list(grp.elements())
    for grp in (G, D):
        with pytest.raises(ValueError):
            grp.normal_form([0] * (n + 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(FREE_SIZES), min_size=1, max_size=4),
       st.integers(0, 3), st.lists(st.integers(-50, 50), max_size=8))
def test_direct_sums_with_implicit_identities_match_dense(sizes, where, entries):
    # all summands relator-free: the sum is relator-free too
    free, _ = direct_sum_groups(FinPresAbGroup(n) for n in sizes)
    dense, _ = direct_sum_groups(dense_free(n) for n in sizes)
    assert free._proj is None
    assert_same_group(free, dense)
    # mixed: a presented summand makes the projection and section
    # block-diagonal, with ones for the implicit identities
    torsion = FinPresAbGroup(3, [[2, 4, 0], [0, 6, 0]])
    at = min(where, len(sizes))
    mixed, moffs = direct_sum_groups(
        [FinPresAbGroup(n) for n in sizes[:at]] + [torsion]
        + [FinPresAbGroup(n) for n in sizes[at:]])
    oracle, ooffs = direct_sum_groups(
        [dense_free(n) for n in sizes[:at]] + [torsion]
        + [dense_free(n) for n in sizes[at:]])
    assert moffs == ooffs
    assert mixed._proj is not None
    assert_same_group(mixed, oracle)
    v = [entries[i % len(entries)] if entries else 0
         for i in range(mixed.generator_count)]
    assert mixed.normal_form(v) == oracle.normal_form(v)
    assert list(mixed.reduce(v)) == list(oracle.reduce(v))


# -- integer input --------------------------------------------------------------------


@pytest.mark.parametrize("count", [2.7, 1.0, True, False, "2", None, -1])
def test_generator_count_must_be_a_nonnegative_integer(count):
    with pytest.raises(ValueError, match="generator count"):
        FinPresAbGroup(count)


@pytest.mark.parametrize("relations", [[[0.5, 1]], [[1, False]], [[1, 2], [3, "4"]],
                                       np.array([[1.5, 2.0]])])
def test_relator_entries_must_be_integers(relations):
    with pytest.raises(ValueError, match=r"relations\[\d\]\[\d\] is not an integer"):
        FinPresAbGroup(2, relations)


@pytest.mark.parametrize("factors", [[2.5], ["4"], [3, True],
                                     np.array([2.0, 3.0])],
                         ids=["float", "string", "bool", "float-array"])
def test_invariant_factors_must_be_integers(factors):
    # int() once read 2.5 as 2 and parsed '4'
    with pytest.raises(ValueError, match=r"^factors\[\d\] is not an integer"):
        FinPresAbGroup.from_invariants(factors)


@pytest.mark.parametrize("v,where", [([1.5, 0.5], r"element\[0\]"),
                                     ([1, True], r"element\[1\]"),
                                     (["1", 0], r"element\[0\]")])
def test_normal_form_elements_must_be_integers(v, where):
    # int() once read [1.5, 0.5] as (1, 0), with relators and without
    for G in (FinPresAbGroup.from_invariants([2, 0]), FinPresAbGroup.free(2)):
        with pytest.raises(ValueError, match=where + " is not an integer"):
            G.normal_form(v)
    assert FinPresAbGroup.from_invariants([2, 0]).normal_form(
        np.array([3, -1])) == (1, -1)


@pytest.mark.parametrize("G", [FinPresAbGroup.from_invariants([2, 0]),
                               FinPresAbGroup.free(2)], ids=["C2xZ", "Z^2"])
def test_normal_form_refuses_elements_of_the_wrong_length(G):
    # with relators a wrong length once raised numpy's shape error
    for v in ([1], [1, 0, 0], im.intvec([1, 0, 0])):
        with pytest.raises(ValueError, match=f"element of length {len(v)} "
                           "in a group on 2 generators"):
            G.normal_form(v)


def test_numpy_integers_are_accepted():
    G = FinPresAbGroup(np.int64(2), np.array([[4, 6]], dtype=np.int64))
    H = FinPresAbGroup(2, [[4, 6]])
    assert type(G.generator_count) is int
    assert_same_group(G, H)
    assert G.invariant_factors == (2, 0)


# -- the minimal presentation against the dense Smith form ---------------------------


def seeded_group(rng):
    """A presented, relator-free or trivial group on 0 to 5 generators."""
    n = rng.randint(0, 5)
    kind = rng.choice(["presented", "presented", "free", "trivial"])
    if kind == "free" or n == 0:
        return FinPresAbGroup(n)
    if kind == "trivial":
        return FinPresAbGroup(n, [[rng.randint(-3, 3) if j > i else int(i == j)
                                   for j in range(n)] for i in range(n)])
    rels = [[rng.choice([0, 0, rng.randint(-12, 12)]) for _ in range(n)]
            for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        rels.append([int(j == 0) for j in range(n)])    # a unit entry
    return FinPresAbGroup(n, rels)


def assert_minimal_presentation(G, diag, U, Uinv, rng):
    """G stores U's rows and Uinv's columns at the non-unit entries of the
    full diagonal `diag`, and its normal forms and representatives are the
    full-diagonal ones with the always-zero unit coordinates dropped."""
    n = G.generator_count
    keep = [i for i, d in enumerate(diag) if d != 1]
    k = len(keep)
    assert G._diag == [diag[i] for i in keep]
    H, proj, sect = G.minimal_presentation()
    if G.relation_lattice.shape[1] == 0:
        assert G._proj is None and G._sect is None and k == n
        assert H is G and proj is None and sect is None
    else:
        assert proj is G._proj and sect is G._sect
        assert proj.dtype == sect.dtype == object
        assert proj.shape == (k, n) and sect.shape == (n, k)
        assert im.mats_equal(proj, U[keep, :])
        assert im.mats_equal(sect, Uinv[:, keep])
        assert im.mats_equal(proj @ sect, im.identity(k))
        assert_same_group(H, FinPresAbGroup.from_invariants(G._diag))
    assert G.is_trivial() == (k == 0)
    for _ in range(4):
        v = [rng.randint(-40, 40) for _ in range(n)]
        y = U @ im.intvec(v)
        full = [0 if d == 1 else y[i] % d if d else y[i]
                for i, d in enumerate(diag)]
        assert G.normal_form(v) == tuple(full[i] for i in keep)
        r = G.reduce(v)
        assert r.dtype == object and list(r) == list(Uinv @ im.intvec(full))


@pytest.mark.parametrize("seed", range(40))
def test_minimal_presentation_is_the_smith_slice(seed):
    rng = random.Random(seed)
    G = seeded_group(rng)
    assert_minimal_presentation(G, *smith_slice(G), rng)


@pytest.mark.parametrize("seed", range(40))
def test_direct_sum_presentation_is_the_block_smith_slice(seed):
    # the oracle is the summands' full transforms placed block-diagonally
    rng = random.Random(1000 + seed)
    groups = [seeded_group(rng) for _ in range(rng.randint(2, 4))]
    S, offsets = direct_sum_groups(groups)
    slices = [smith_slice(g) for g in groups]
    diag = [d for sl in slices for d in sl[0]]
    U = im.block_diag([sl[1] for sl in slices])
    Uinv = im.block_diag([sl[2] for sl in slices])
    assert (S._proj is None) == all(g._proj is None for g in groups)
    assert_minimal_presentation(S, diag, U, Uinv, rng)


def test_trivial_group_has_an_empty_presentation():
    G = FinPresAbGroup(2, [[1, 0], [3, 1]])
    assert G._diag == [] and G._proj.shape == (0, 2) and G._sect.shape == (2, 0)
    assert G.normal_form([5, -7]) == () and G.order() == 1
    assert [list(x) for x in G.elements()] == [[0, 0]]
    H, _, _ = G.minimal_presentation()
    assert H.generator_count == 0 and H.is_trivial()


@pytest.mark.parametrize("M1,M2,src,tgt,shapes", [
    ([[2, 2]], [[0]], 2, [2], "(1, 2) and (1, 1), expected (1, 2)"),
    ([[1, 2, 3], [4, 5, 6]], [[1, 2, 3], [4, 5, 6]], 2, [0, 0],
     "(2, 3) and (2, 3), expected (2, 2)"),
    ([[1]], [[1]], 2, [2], "(1, 1) and (1, 1), expected (1, 2)"),
], ids=["broadcast-row", "equal-but-too-wide", "both-too-narrow"])
def test_maps_equal_refuses_matrices_of_the_wrong_shape(M1, M2, src, tgt, shapes):
    # numpy once broadcast the difference, and every case compared equal
    message = re.escape("maps of shape " + shapes)
    with pytest.raises(ValueError, match="^" + message):
        maps_equal(M1, M2, FinPresAbGroup(src),
                   FinPresAbGroup.from_invariants(tgt))
