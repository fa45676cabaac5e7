import pytest

from mackeykit import intmat as im
from mackeykit.groups import builtin_group
from mackeykit.gsets import GSet, GMap, point_gset, standard_orbit
from mackeykit.burnside import burnside_ring_table, hom_basis
from mackeykit.mackey import burnside_mackey
from mackeykit.ktheory import (
    BpqResult,
    bpq_verify,
    k0_green,
    k0_mackey,
    k0_of_slice,
)

from support import is_two_sided_inverse, span_functoriality_oracle

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")
ORDER_8 = ("D4", "Q8")


def test_k0_slice_ranks():
    triv = builtin_group("trivial")
    assert k0_of_slice(point_gset(triv)).rank() == 1   # K0(finite sets) = Z
    C2 = builtin_group("C2")
    assert k0_of_slice(point_gset(C2)).rank() == 2
    assert k0_of_slice(standard_orbit(C2, 0)).rank() == 1


def test_k0_mackey_c2_matrices():
    C2 = builtin_group("C2")
    M = k0_mackey(C2)
    assert [l.generator_count for l in M.levels] == [1, 2]
    (A, B), = C2.covering_pairs
    # tr: the free class over the point; res: point-class -> 1, free -> 2
    # basis of K0(pt) is ([C2/e -> pt], [pt -> pt]) in canonical code order
    tr = M.tr[(A, B)]
    res = M.res[(A, B)]
    assert list(tr[:, 0]) == [1, 0]
    assert list(res[0, :]) == [2, 1]


def test_k0_mackey_functorial():
    for name in ("C2", "S3"):
        M = k0_mackey(builtin_group(name))
        assert M.validate_functoriality()
        assert span_functoriality_oracle(M) > 0


def test_k0_multiplication_reproduces_burnside_ring():
    for name in ("C2", "C4", "S3"):
        group = builtin_group(name)
        G = k0_green(group)
        # at the one-point level, fiber products over pt are products
        nclasses = len(group.subgroup_classes())
        table = G.tables[nclasses - 1]
        ring = burnside_ring_table(group)
        # match the K0 basis (codes over pt) with the orbit basis: code
        # (class c, 0, 0) corresponds to the orbit G/H_c
        basis = k0_of_slice(standard_orbit(group, nclasses - 1)).basis
        order = [code[0] for code in basis]
        n = len(order)
        for i in range(n):
            for j in range(n):
                got = list(table[i][j])
                expected = [0] * n
                for k, coeff in enumerate(ring[order[i]][order[j]]):
                    expected[order.index(k)] = coeff
                assert got == expected, (name, i, j)


def test_k0_trivial_group_is_integers():
    triv = builtin_group("trivial")
    M = k0_mackey(triv)
    assert [l.invariant_factors for l in M.levels] == [(0,)]
    result = bpq_verify(triv)
    assert is_two_sided_inverse(result.iso, result.inverse)
    assert [list(r) for r in result.iso.mats[0]] == [[1]]


@pytest.mark.parametrize("name", BATTERY + ORDER_8)
def test_bpq_battery(name):
    group = builtin_group(name)
    result = bpq_verify(group)
    assert is_two_sided_inverse(result.iso, result.inverse)
    # equal level invariants and matching structure matrices through the iso
    A = burnside_mackey(group)
    K = result.iso.source
    assert [l.invariant_factors for l in K.levels] == \
        [l.invariant_factors for l in A.levels]
    inv = result.inverse
    from mackeykit.mackey import compose_morphisms, identity_morphism
    assert compose_morphisms(result.iso, inv).equals(identity_morphism(A))


def test_bpq_s3_full_comparison():
    S3 = builtin_group("S3")
    result = bpq_verify(S3)
    K = result.iso.source
    A = burnside_mackey(S3)
    # all 4 levels and multiplication tables already checked inside; spot
    # check the iso really matches bases code-for-code
    for c in range(4):
        n = K.levels[c].generator_count
        assert im.mats_equal(result.iso.mats[c], im.identity(n))


def test_restriction_of_transfer_expands_over_double_cosets():
    # push-pull at K0: restriction of a transferred class expands as the
    # double-coset formula, computed through the Mackey structure itself
    from mackeykit.burnside import compose, res_element, tr_element
    for name in ("C4", "S3"):
        group = builtin_group(name)
        M = k0_mackey(group)
        whole = tuple(range(group.order))
        for ci in group.subgroup_classes():
            for cj in group.subgroup_classes():
                r = res_element(group, ci.representative, whole)
                t = tr_element(group, cj.representative, whole)
                lhs = M.eval_span(r) @ M.eval_span(t)
                rhs = M.eval_span(compose(r, t))
                gi, _ = M.value_at(standard_orbit(group, ci.index))
                gj, _ = M.value_at(standard_orbit(group, cj.index))
                from mackeykit.abgroups import maps_equal
                assert maps_equal(lhs, rhs, gj, gi)
