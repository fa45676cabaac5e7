import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeykit.groups import (
    BUILTIN_GROUP_NAMES,
    FiniteGroup,
    builtin_group,
    group_from_permutations,
    load_group,
)
from support import (
    PERMUTATION_BATTERY,
    FrontierGroup,
    frontier_closure,
    permutation_group,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")
# The groups the walk-based enumeration is checked on against the frontier
# oracle: orders 1 to 60, up to 16 subgroup classes.
ORACLE_GROUPS = BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY + ("A5", "C2wrC3")


def named_group(name):
    return (builtin_group(name) if name in BUILTIN_GROUP_NAMES
            else permutation_group(name))


def brute_force_subgroups(group):
    """Oracle: filter all subsets containing the identity."""
    out = set()
    elements = list(range(group.order))
    for r in range(1, group.order + 1):
        for subset in itertools.combinations(elements, r):
            if 0 not in subset:
                continue
            s = set(subset)
            if all(group.mul(a, b) in s for a in s for b in s):
                out.add(tuple(sorted(s)))
    return out


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "C2xC2", "S3"])
def test_subgroups_against_bruteforce(name):
    group = builtin_group(name)
    assert set(group.subgroups()) == brute_force_subgroups(group)


def test_load_group_trivial_table():
    G = load_group({"kind": "table", "table": [[0]]})
    assert G.order == 1


def test_load_group_transposition_gives_c2():
    G = load_group({"kind": "perm", "degree": 2, "generators": [[1, 0]]})
    assert G.order == 2


def test_load_group_s3_from_generators():
    # (1 2) and (1 2 3) on three points generate all 6 permutations
    G = load_group({"kind": "perm", "degree": 3,
                    "generators": [[1, 0, 2], [1, 2, 0]]})
    assert G.order == 6
    # closure oracle: the set of reachable permutations has size 6
    perms = {(0, 1, 2)}
    gens = [(1, 0, 2), (1, 2, 0)]
    grew = True
    while grew:
        grew = False
        for p in list(perms):
            for g in gens:
                q = tuple(g[p[i]] for i in range(3))
                if q not in perms:
                    perms.add(q)
                    grew = True
    assert len(perms) == G.order


def test_load_group_returns_one_object_per_spec():
    table = {"kind": "table", "name": "Z2", "table": [[0, 1], [1, 0]]}
    G = load_group(table)
    assert load_group({"kind": "table", "name": "Z2",
                       "table": ((0, 1), (1, 0))}) is G
    assert load_group({**table, "name": "other"}) is not G
    perm = {"kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    S3 = load_group(perm)
    assert load_group({"kind": "perm", "degree": 3,
                       "generators": [(1, 0, 2), (1, 2, 0)]}) is S3
    assert S3.relation_plan is load_group(perm).relation_plan


@pytest.mark.parametrize("spec, message", [
    ({"kind": "table", "table": [[0, 1.0], [1, 0]]},
     r"table\[0\]\[1\] is not an integer: 1\.0"),
    ({"kind": "table", "table": [[0, True], [1, 0]]},
     r"table\[0\]\[1\] is not an integer: True"),
    ({"kind": "table", "table": [[0, 1], [1, 1]]}, "no two-sided inverse"),
    ({"kind": "perm", "degree": 2.0, "generators": [[1, 0]]},
     "degree must be a non-negative integer"),
    ({"kind": "perm", "degree": 2, "generators": [[1.0, 0]]},
     r"generators\[0\]\[0\] is not an integer"),
    ({"kind": "perm", "degree": 2, "generators": [[0, 0]]},
     "is not a permutation of 2 points"),
    ({"kind": "table", "table": [[0]], "name": ["C1"]},
     "group name must be a string"),
])
def test_load_group_rejects_bad_specs_every_time(spec, message):
    # a spec equal, as Python values, to a cached one is still refused
    load_group({"kind": "table", "table": [[0, 1], [1, 0]]})
    load_group({"kind": "perm", "degree": 2, "generators": [[1, 0]]})
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            load_group(spec)


def test_malformed_inputs_rejected():
    with pytest.raises(ValueError):
        load_group({"kind": "table", "table": [[0, 1], [1, 1]]})  # no inverse row
    with pytest.raises(ValueError):
        load_group({"kind": "table", "table": [[1, 0], [0, 1]]})  # 0 not identity
    with pytest.raises(ValueError):
        load_group({"kind": "perm", "degree": 2, "generators": [[0, 0]]})
    with pytest.raises(ValueError):
        load_group({"kind": "nonsense"})
    with pytest.raises(ValueError):
        # associativity failure: a quasigroup table that is not a group
        FiniteGroup([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


def test_subgroup_class_counts():
    expected = {"C2": 2, "C4": 3, "C2xC2": 5, "S3": 4}
    for name, count in expected.items():
        assert len(builtin_group(name).subgroup_classes()) == count
    assert len(builtin_group("trivial").subgroup_classes()) == 1


def test_class_invariants_all_builtins():
    for name in BUILTIN_GROUP_NAMES:
        group = builtin_group(name)
        for cls in group.subgroup_classes():
            # representative is the lexicographic minimum of its conjugates
            assert cls.representative == min(cls.conjugates)
            # |N_G(H)| = weyl_order * |H|
            assert len(cls.normalizer) == cls.weyl_order * len(cls.representative)
            assert set(cls.representative) <= set(cls.normalizer)
            # conjugation reaches every member of the class from the rep
            reached = {group.conjugate_subgroup(g, cls.representative)
                       for g in group.elements()}
            assert reached == set(cls.conjugates)
        assert sum(len(c.conjugates) for c in group.subgroup_classes()) == \
            len(group.subgroups())


def test_double_cosets_partition():
    # sum of double-coset sizes is |G| for all pairs, all groups of order <= 8
    for name in BUILTIN_GROUP_NAMES:
        group = builtin_group(name)
        if group.order > 8:
            continue
        for H in group.subgroups():
            for K in group.subgroups():
                reps = group.double_cosets(H, K)
                cosets = [group.double_coset_of(g, H, K) for g in reps]
                assert sum(len(c) for c in cosets) == group.order
                # reps are minimal in their cosets
                for g, c in zip(reps, cosets):
                    assert g == min(c)
                # pairwise disjoint
                seen = set()
                for c in cosets:
                    assert not (seen & set(c))
                    seen |= set(c)


def test_double_coset_examples():
    S3 = builtin_group("S3")
    C2 = next(H for H in S3.subgroups() if len(H) == 2)
    reps = S3.double_cosets(C2, C2)
    sizes = sorted(len(S3.double_coset_of(g, C2, C2)) for g in reps)
    assert sizes == [2, 4]
    assert len(S3.double_cosets(tuple(range(6)), tuple(range(6)))) == 1
    assert len(S3.double_cosets((0,), (0,))) == 6
    with pytest.raises(ValueError):
        S3.double_cosets((0, 1, 2), (0,))  # not a subgroup


def test_transport_conjugates_to_representative():
    for name in ("S3", "D4", "Q8"):
        group = builtin_group(name)
        for H in group.subgroups():
            t = group.transport(H)
            rep = group.subgroup_classes()[group.class_index_of(H)].representative
            assert group.conjugate_subgroup(t, H) == rep


@pytest.mark.parametrize("name",
                         BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY + ("A5",))
def test_generators_generate_irredundantly(name):
    group = named_group(name)
    gens = group.generators
    assert isinstance(gens, tuple)
    assert group.closure(gens) == tuple(range(group.order))
    for k, s in enumerate(gens):
        assert s not in group.closure(gens[:k])
    assert list(gens) == sorted(gens)


def test_generators_are_greedy_over_labels():
    # Z/6 with label i standing for value[i]: label 1 is 3 (order 2), so the
    # greedy pass keeps label 2 (value 2) as well, though Z/6 is cyclic
    value = [0, 3, 2, 4, 1, 5]
    label = {v: i for i, v in enumerate(value)}
    G = FiniteGroup([[label[(a + b) % 6] for b in value] for a in value])
    assert G.generators == (1, 2)
    assert FiniteGroup([[(a + b) % 6 for b in range(6)]
                        for a in range(6)]).generators == (1,)


def test_non_integer_table_entries_rejected():
    with pytest.raises(ValueError, match=re.escape(
            "table[1][1] is not an integer: 0.5")):
        FiniteGroup([[0, 1], [1, 0.5]])
    for bad in (1.0, "0", False):
        with pytest.raises(ValueError, match=re.escape("table[1][1]")):
            FiniteGroup([[0, 1], [1, bad]])
    with pytest.raises(ValueError, match=re.escape(
            "generators[0][1] is not an integer")):
        load_group({"kind": "perm", "degree": 3,
                    "generators": [[1, 0.0, 2]]})
    G = FiniteGroup(np.array([[0, 1], [1, 0]]))
    assert G.table == ((0, 1), (1, 0)) and G.generators == (1,)


@pytest.mark.parametrize("degree", [3.9, "3", True, -1])
def test_permutation_degree_must_be_a_nonnegative_integer(degree):
    with pytest.raises(ValueError, match=re.escape(
            f"degree must be a non-negative integer: {degree!r}")):
        load_group({"kind": "perm", "degree": degree,
                    "generators": [[1, 0, 2]]})
    assert load_group({"kind": "perm", "degree": np.int64(3),
                       "generators": [[1, 0, 2]]}).order == 2


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_subgroup_data_matches_the_frontier_enumeration(name):
    # the oracle group closes two-sided frontiers and extends each subgroup
    # by every label outside it; SubgroupClass equality compares every
    # field: representative, conjugates, normalizer, Weyl order, index,
    # label, generators and normalizer generators
    group = named_group(name)
    oracle = FrontierGroup(group.table, name=group.name)
    assert group.subgroups() == oracle.subgroups()
    assert group.subgroup_classes() == oracle.subgroup_classes()
    assert group.generators == oracle.generators
    assert group.canonical_covers == oracle.canonical_covers
    assert group.relation_plan == oracle.relation_plan


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS), st.data())
def test_closure_matches_the_frontier_closure(name, data):
    group = named_group(name)
    seed = data.draw(st.lists(st.integers(0, group.order - 1), max_size=4))
    assert group.closure(seed) == frontier_closure(group, seed)


@pytest.mark.parametrize("name, subgroups, classes",
                         [("S4", 30, 11), ("A5", 59, 9), ("S5", 156, 19)])
def test_subgroup_counts_match_the_literature(name, subgroups, classes):
    group = permutation_group(name)
    assert len(group.subgroups()) == subgroups
    assert len(group.subgroup_classes()) == classes


def test_coset_methods_refuse_bad_labels_and_non_subgroups():
    # they share `closure`'s label check, and the coset and normalizer
    # methods refuse a label set that is not a subgroup
    C3 = builtin_group("C3")
    for bad in ([0, -1, -2], [0, 5]):
        label = re.escape(f"H label {bad[1]} is not an element of C3 "
                          f"(labels 0..2)")
        for call in (C3.left_cosets, C3.normalizer,
                     lambda H: C3.double_cosets(H, [0]),
                     lambda H: C3.double_coset_of(0, H, [0])):
            with pytest.raises(ValueError, match=label):
                call(bad)
        with pytest.raises(ValueError, match=re.escape(
                f"subgroup label {bad[1]} is not an element of C3")):
            C3.is_subgroup(bad)
    with pytest.raises(ValueError, match=re.escape(
            "g label 3 is not an element of C3")):
        C3.double_coset_of(3, [0], [0])
    for call in (C3.left_cosets, C3.normalizer):
        with pytest.raises(ValueError, match=re.escape(
                "H (0, 1) is not a subgroup of C3")):
            call([0, 1])
    with pytest.raises(ValueError, match=re.escape(
            "K (1,) is not a subgroup of C3")):
        C3.double_cosets([0], [1])
    assert not C3.is_subgroup([0, 1]) and C3.is_subgroup([0])
    assert C3.left_cosets([0]) == [(0,), (1,), (2,)]
    assert C3.normalizer([0]) == (0, 1, 2)


def test_closure_refuses_a_label_outside_the_group():
    C3 = builtin_group("C3")
    for bad in (-1, 3, 5):
        with pytest.raises(ValueError, match=re.escape(
                f"seed label {bad} is not an element of C3 (labels 0..2)")):
            C3.closure([1, bad])
        with pytest.raises(ValueError, match=re.escape(f"seed label {bad}")):
            C3.greedy_generators([bad])
    with pytest.raises(ValueError, match=re.escape(
            "seed[0] is not an integer: 1.0")):
        C3.closure([1.0])
    assert C3.closure([np.int64(1)]) == (0, 1, 2)
    assert C3.closure([]) == (0,)
