import gc
import itertools
import random
import re
import weakref

import numpy as np
import pytest

from mackeykit.burnside import _least_under
from mackeykit.groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
from mackeykit.gsets import (
    GMap,
    GSet,
    canonicalize,
    coproduct,
    compose_maps,
    coset_index_of,
    disjoint_union_of_orbits,
    find_isomorphism,
    orbit_decompose,
    orbit_map,
    point_gset,
    product,
    projection_map,
    pullback,
    standard_orbit,
    translation_map,
)
from support import (
    PERMUTATION_BATTERY,
    coproduct_reference,
    fixed_points,
    full_action_oracle,
    full_equivariance_oracle,
    least_under_oracle,
    orbits_oracle,
    permutation_group,
    product_reference,
    pullback_reference,
    reaches,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")


def random_relabel(X, rng):
    perm = list(range(X.size))
    rng.shuffle(perm)
    inv = [perm.index(i) for i in range(X.size)]
    return GSet(X.group, [[perm[X.act(g, inv[p])] for p in range(X.size)]
                          for g in X.group.elements()])


def backtracking_isomorphism(X, Y):
    """Independent oracle: exhaustive equivariant bijection search."""
    if X.size != Y.size:
        return None
    group = X.group
    orbits = X.orbits()

    def extend(assigned, used):
        if len(assigned) == len(orbits):
            return dict_to_map(assigned)
        orbit = orbits[len(assigned)]
        base = orbit[0]
        for y in range(Y.size):
            if y in used:
                continue
            # try sending base -> y and propagating equivariantly
            image = {}
            ok = True
            for g in group.elements():
                src = X.act(g, base)
                tgt = Y.act(g, y)
                if src in image and image[src] != tgt:
                    ok = False
                    break
                image[src] = tgt
            if not ok:
                continue
            vals = set(image.values())
            if len(vals) != len(image) or (vals & used):
                continue
            out = extend(assigned + [image], used | vals)
            if out is not None:
                return out
        return None

    def dict_to_map(assigned):
        mapping = {}
        for image in assigned:
            mapping.update(image)
        return GMap(X, Y, [mapping[x] for x in range(X.size)])

    return extend([], set())


def test_orbit_decompose_examples():
    S3 = builtin_group("S3")
    # empty G-set
    assert orbit_decompose(disjoint_union_of_orbits(S3, ()))[0] == []
    # G acting on itself by left translation: one free orbit
    Ge = standard_orbit(S3, 0)
    counts, iso = orbit_decompose(Ge)
    assert counts == [(0, 1)]
    assert iso.is_bijective()
    # S3 on 3 letters = S3/C2
    letters = GSet(S3, [[p[x] for x in range(3)] for p in
                        sorted(itertools.permutations(range(3)))])
    counts, iso = orbit_decompose(letters)
    labels = [(S3.subgroup_classes()[c].label, m) for c, m in counts]
    assert labels == [("C2", 1)]


def test_stabilizer_letters_oracle():
    S3 = builtin_group("S3")
    letters = GSet(S3, [[p[x] for x in range(3)] for p in
                        sorted(itertools.permutations(range(3)))])
    stab = letters.stabilizer(0)
    # direct check against the permutation action
    perms = sorted(itertools.permutations(range(3)))
    assert set(stab) == {i for i, p in enumerate(perms) if p[0] == 0}


def test_product_examples():
    S3 = builtin_group("S3")
    C2 = builtin_group("C2")
    pt = point_gset(S3)
    OC2 = standard_orbit(S3, 1)
    # X x pt = X
    for cidx in range(4):
        X = standard_orbit(S3, cidx)
        P = product(X, pt)
        assert find_isomorphism(P.gset, X) is not None
    # (C2/e) x (C2/e) = 2 free orbits
    O2e = standard_orbit(C2, 0)
    P = product(O2e, O2e)
    assert P.gset.orbit_type() == (0, 0)
    # (S3/C2) x (S3/C2) = S3/C2 + S3/e
    P2 = product(OC2, OC2)
    assert sorted(P2.gset.orbit_type()) == sorted((0, 1))
    # projections equivariant and jointly injective
    for x in range(OC2.size):
        for y in range(OC2.size):
            p = P2.of_pair(x, y)
            assert P2.left(p) == x and P2.right(p) == y


def test_product_size_and_fixed_points_multiplicative():
    for name in BATTERY:
        group = builtin_group(name)
        norb = len(group.subgroup_classes())
        for i in range(norb):
            for j in range(norb):
                X, Y = standard_orbit(group, i), standard_orbit(group, j)
                P = product(X, Y)
                assert P.gset.size == X.size * Y.size
                for cls in group.subgroup_classes():
                    H = cls.representative
                    assert len(fixed_points(P.gset, H)) == \
                        len(fixed_points(X, H)) * len(fixed_points(Y, H))


def test_coproduct_does_not_pin_its_summands():
    # X and Y are built from action tables, not by the group's memoized
    # constructors, so only a cache of coproduct could keep them alive;
    # the canonical coproduct itself is a disjoint union of orbits the
    # group keeps
    S3 = builtin_group("S3")
    O = standard_orbit(S3, 1)
    X = GSet(S3, [row + tuple(O.size + y for y in row) for row in O.action])
    Y = GSet(S3, O.action)
    cp = coproduct(X, Y)
    assert cp.gset.orbit_type() == (1, 1, 1)
    assert cp.left.source is X and cp.right.source is Y
    refs = [weakref.ref(X), weakref.ref(Y)]
    del X, Y, cp
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_products_die_with_their_left_factor():
    # product(X, Y) is kept by X and keyed weakly by Y: a second call reads
    # the same union and left leg, and X, its products and their
    # projections are collected together; the group keeps only the
    # canonical product, a union of its orbits, and a product on the left
    # of a group-owned orbit lets its right factor go
    S3 = builtin_group("S3")
    O = standard_orbit(S3, 1)
    X = GSet(S3, [row + tuple(O.size + y for y in row) for row in O.action])
    P = product(X, O)
    again = product(X, O)
    assert again.gset is P.gset and again.left is P.left
    assert P.left.target is X and P.right.target is O
    assert P.gset is disjoint_union_of_orbits(S3, P.gset.orbit_type())
    assert not reaches(S3._memo, X)
    refs = [weakref.ref(X), weakref.ref(P)]
    del X, P, again
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    Y = GSet(S3, [row + tuple(O.size + y for y in row) for row in O.action])
    Q = product(O, Y)
    assert Q.right.target is Y and not reaches(S3._memo, Y)
    refs = [weakref.ref(Y), weakref.ref(Q.right)]
    del Y, Q
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_equal_groups_keep_their_own_standard_orbits(name):
    # the memo lives on the group object, so a group with an equal table
    # gets orbits over itself, named after it, and never the other's
    table = builtin_group(name).table
    first, second = FiniteGroup(table, name="first"), \
        FiniteGroup(table, name="second")
    for cls in first.subgroup_classes():
        c = cls.index
        O1, O2 = standard_orbit(first, c), standard_orbit(second, c)
        assert O1 == O2 and O1 is not O2
        assert O1.group is first and O2.group is second
        assert O2.name == f"second/{cls.label}"
        U1, U2 = (disjoint_union_of_orbits(G, (0, c)) for G in (first, second))
        assert U1 == U2 and (U1.group, U2.group) == (first, second)
    assert point_gset(second).group is second


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_a_one_orbit_union_is_the_standard_orbit(name):
    group = builtin_group(name) if name in BUILTIN_GROUP_NAMES \
        else permutation_group(name)
    for cls in group.subgroup_classes():
        O = standard_orbit(group, cls.index)
        assert disjoint_union_of_orbits(group, (cls.index,)) is O
        assert canonicalize(O)[0] is O


def test_coproduct_examples():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    cp = coproduct(O, disjoint_union_of_orbits(C2, ()))
    assert find_isomorphism(cp.gset, O) is not None
    cp2 = coproduct(O, O)
    assert cp2.gset.orbit_type() == (0, 0)
    # injections are jointly surjective and equivariant
    hit = set(cp2.left.mapping) | set(cp2.right.mapping)
    assert hit == set(range(cp2.gset.size))


def test_distributivity_witness():
    rng = random.Random(2)
    S3 = builtin_group("S3")
    orbs = [standard_orbit(S3, i) for i in range(4)]
    for _ in range(6):
        X, U, V = (orbs[rng.randrange(4)] for _ in range(3))
        lhs = product(X, coproduct(U, V).gset).gset
        rhs = coproduct(product(X, U).gset, product(X, V).gset).gset
        assert find_isomorphism(lhs, rhs) is not None


def test_pullback_examples():
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    O = standard_orbit(C2, 0)
    # pullback of id, id over Z is Z
    for Z in (pt, O):
        from mackeykit.gsets import identity_map
        pb = pullback(identity_map(Z), identity_map(Z))
        assert find_isomorphism(pb.gset, Z) is not None
    # C2/e x_pt C2/e = two free orbits (2 of 4 pairs per fiber survive)
    f = GMap(O, pt, [0, 0])
    pb = pullback(f, f)
    assert pb.gset.size == 4 and pb.gset.orbit_type() == (0, 0)


def test_pullback_orbits_match_double_cosets():
    for name in BATTERY:
        group = builtin_group(name)
        pt = point_gset(group)
        for ci in group.subgroup_classes():
            for cj in group.subgroup_classes():
                XH = standard_orbit(group, ci.index)
                XK = standard_orbit(group, cj.index)
                pb = pullback(GMap(XH, pt, [0] * XH.size),
                              GMap(XK, pt, [0] * XK.size))
                expected = len(group.double_cosets(ci.representative,
                                                   cj.representative))
                assert len(pb.gset.orbits()) == expected


def test_pullback_commutes_with_coproduct():
    rng = random.Random(3)
    S3 = builtin_group("S3")
    orbs = [standard_orbit(S3, i) for i in range(4)]
    pt = point_gset(S3)
    for _ in range(5):
        X1, X2, Y = (orbs[rng.randrange(4)] for _ in range(3))
        cp = coproduct(X1, X2)
        f = GMap(cp.gset, pt, [0] * cp.gset.size)
        g = GMap(Y, pt, [0] * Y.size)
        lhs = pullback(f, g).gset
        rhs = coproduct(
            pullback(GMap(X1, pt, [0] * X1.size), g).gset,
            pullback(GMap(X2, pt, [0] * X2.size), g).gset).gset
        assert find_isomorphism(lhs, rhs) is not None


def test_fixed_points_examples():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    G = (0, 1)
    assert fixed_points(O, (0,)) == (0, 1)
    assert len(fixed_points(O, G)) == 0
    assert len(fixed_points(pt, G)) == 1
    # (G/H)^G nonempty iff H = G
    for name in BATTERY:
        group = builtin_group(name)
        whole = tuple(range(group.order))
        for cls in group.subgroup_classes():
            X = standard_orbit(group, cls.index)
            fixed = fixed_points(X, whole)
            assert (len(fixed) > 0) == (len(cls.representative) == group.order)


def test_find_isomorphism_matches_backtracking_oracle():
    rng = random.Random(9)
    S3 = builtin_group("S3")
    base = coproduct(standard_orbit(S3, 1), standard_orbit(S3, 2)).gset
    for _ in range(6):
        relab = random_relabel(base, rng)
        found = find_isomorphism(relab, base)
        oracle = backtracking_isomorphism(relab, base)
        assert found is not None and oracle is not None
        assert found.is_bijective()
    # non-isomorphic pairs agree with the oracle too
    A = standard_orbit(S3, 0)
    B = standard_orbit(S3, 1)
    assert find_isomorphism(A, B) is None
    assert backtracking_isomorphism(A, B) is None


def test_orbit_type_complete_invariant_small():
    # exhaustive over C2-sets with at most 3 points: same type <-> isomorphic
    C2 = builtin_group("C2")
    sets = []
    perms1 = [(0,)]
    for size in range(0, 4):
        # enumerate all involutions on `size` points as the action of g=1
        for tau in itertools.permutations(range(size)):
            if all(tau[tau[x]] == x for x in range(size)):
                action = [list(range(size)), list(tau)]
                sets.append(GSet(C2, action))
    for X in sets:
        for Y in sets:
            same = X.orbit_type() == Y.orbit_type()
            assert (find_isomorphism(X, Y) is not None) == same


def test_canonicalize_idempotent_and_invariant():
    rng = random.Random(4)
    for name in ("C4", "S3"):
        group = builtin_group(name)
        X = coproduct(standard_orbit(group, 0),
                      standard_orbit(group, 1)).gset
        canon, iso = canonicalize(X)
        assert canon == canonicalize(canon)[0]
        for _ in range(4):
            relab = random_relabel(X, rng)
            canon2, _ = canonicalize(relab)
            assert canon == canon2


def small_action_tables(group):
    """Standard orbits, and products of two of them with at most 12 points."""
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    prods = [product(X, Y).gset for X, Y in itertools.combinations(orbs, 2)
             if 1 < X.size * Y.size <= 12]
    return orbs + prods


def _accepts_action(group, action):
    try:
        GSet(group, action)
    except ValueError as err:
        found = re.match(r"not a group action at \((\d+),(\d+),(\d+)\)",
                         str(err))
        if found:
            g, s, x = map(int, found.groups())
            assert s in group.generators
            assert action[g][action[s][x]] != \
                action[group.mul(g, s)][x]
        return False
    return True


def _action_variants(X):
    """X's table, every single-cell change, every swap of two cells within a
    row, every relabelling of X by a transposition of two points, and every
    coset twist by such a transposition (see below)."""
    rows = [list(r) for r in X.action]
    yield rows
    for g, x in itertools.product(range(len(rows)), range(X.size)):
        for v in range(X.size):
            if v != rows[g][x]:
                table = [list(r) for r in rows]
                table[g][x] = v
                yield table
        for y in range(x + 1, X.size):
            table = [list(r) for r in rows]
            table[g][x], table[g][y] = rows[g][y], rows[g][x]
            yield table
    group = X.group
    for x, y in itertools.combinations(range(X.size), 2):
        swap = list(range(X.size))
        swap[x], swap[y] = y, x
        yield [[swap[r[swap[p]]] for p in range(X.size)] for r in rows]
        # the rows of one left coset of <s> other than <s>, for a generator
        # s, composed with the swap: the table still satisfies
        # action[g*s] == action[g] o action[s] for that s and every g
        for s in group.generators:
            for coset in group.left_cosets(group.closure([s]))[1:]:
                table = [list(r) for r in rows]
                for g in coset:
                    table[g] = [swap[v] for v in rows[g]]
                yield table


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_action_check_agrees_with_full_oracle(name):
    group = builtin_group(name)
    cases = accepted = 0
    for X in small_action_tables(group):
        for table in _action_variants(X):
            expected = full_action_oracle(group, table)
            assert _accepts_action(group, table) == expected, table
            cases += 1
            accepted += expected
    assert 0 < accepted < cases or group.order == 1


def _maps_between_small_orbits(group):
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    for X, Y in itertools.product(orbs, repeat=2):
        if Y.size ** X.size <= 1024:
            for mapping in itertools.product(range(Y.size), repeat=X.size):
                yield X, Y, mapping


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_equivariance_check_agrees_with_full_oracle(name):
    group = builtin_group(name)
    cases = accepted = 0
    for X, Y, mapping in _maps_between_small_orbits(group):
        expected = full_equivariance_oracle(X, Y, mapping)
        try:
            GMap(X, Y, mapping)
            got = True
        except ValueError as err:
            assert "not equivariant" in str(err)
            got = False
        assert got == expected, (X, Y, mapping)
        cases += 1
        accepted += expected
    assert 0 < accepted <= cases


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_orbit_map_agrees_with_full_oracle(name):
    # orbit_map checks only that the base stabilizer fixes y; it accepts
    # y exactly when gH -> g.y passes the all-pairs equivariance oracle
    group = builtin_group(name)
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    cases = accepted = 0
    for O, Y in itertools.product(orbs, repeat=2):
        for y in range(Y.size):
            mapping = tuple(Y.act(g, y) for g in O.orbit_index.reach)
            expected = full_equivariance_oracle(O, Y, mapping)
            try:
                f = orbit_map(O, Y, y)
            except ValueError as err:
                assert "not equivariant" in str(err)
                assert not expected, (O, Y, y)
            else:
                assert expected, (O, Y, y)
                assert f == GMap(O, Y, mapping)
                assert f.source is O and f.target is Y
            cases += 1
            accepted += expected
    assert 0 < accepted < cases or group.order == 1


def test_orbit_map_refuses_points_it_cannot_address():
    group = builtin_group("S3")
    O, Y = standard_orbit(group, 0), standard_orbit(group, 1)
    for y in (-1, Y.size):
        with pytest.raises(ValueError, match="out of range"):
            orbit_map(O, Y, y)
        with pytest.raises(ValueError, match=f"point {y} out of range"):
            Y.stabilizer(y)
    with pytest.raises(ValueError, match="single orbit"):
        orbit_map(disjoint_union_of_orbits(group, (0, 0)), Y, 0)
    with pytest.raises(ValueError, match="different groups"):
        orbit_map(standard_orbit(builtin_group("C6"), 0), Y, 0)


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_coset_index_of_matches_left_cosets(name):
    group = builtin_group(name)
    for cls in group.subgroup_classes():
        H = cls.representative
        cosets = group.left_cosets(H)
        for g in group.elements():
            coset = tuple(sorted(group.mul(g, h) for h in H))
            assert coset_index_of(group, cls.index, g) == cosets.index(coset)


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_structure_maps_compose_and_check_their_input(name):
    # projections compose along A <= B <= C, translations along N(H), and
    # each refuses a pair it is not defined on
    group = builtin_group(name)
    subs = group.subgroups()
    for A, B in itertools.product(subs, repeat=2):
        if not set(A) <= set(B):
            with pytest.raises(ValueError, match="A must be contained in B"):
                projection_map(group, A, B)
            continue
        for C in subs:
            if set(B) <= set(C):
                assert compose_maps(projection_map(group, B, C),
                                    projection_map(group, A, B)) == \
                    projection_map(group, A, C)
    for cls in group.subgroup_classes():
        c = cls.index
        assert translation_map(group, c, 0).mapping == \
            tuple(range(standard_orbit(group, c).size))
        for n in group.elements():
            if n not in cls.normalizer:
                with pytest.raises(ValueError, match="does not normalize"):
                    translation_map(group, c, n)
                continue
            for m in cls.normalizer:
                assert compose_maps(translation_map(group, c, n),
                                    translation_map(group, c, m)) == \
                    translation_map(group, c, group.mul(n, m))


def test_non_integer_action_entries_rejected():
    C2 = builtin_group("C2")
    for bad in (1.7, 1.0, "1", True, np.float64(1.0), np.True_):
        with pytest.raises(ValueError,
                           match=re.escape("action[1][0] is not an integer")):
            GSet(C2, [[0, 1], [bad, 0]])
    X = GSet(C2, [[np.int64(0), np.int32(1)], [np.uint8(1), 0]])
    assert X.action == ((0, 1), (1, 0))
    assert all(type(x) is int for row in X.action for x in row)


def test_non_integer_map_entries_rejected():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    with pytest.raises(ValueError,
                       match=re.escape("mapping[0] is not an integer: 0.9")):
        GMap(O, O, [0.9, 1.2])
    for bad in (False, "0", 0.0):
        with pytest.raises(ValueError, match="mapping\\[1\\]"):
            GMap(O, point_gset(C2), [0, bad])
    f = GMap(O, O, np.array([1, 0]))
    assert f.mapping == (1, 0)


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_equal_objects_hash_equal(name):
    # hashes are computed once at construction; rebuilt copies, also from
    # numpy entries, must still agree with the originals.  `X == X`
    # answers without reading the table, so distinct copies are compared
    # both ways, and a relabelled action must still compare unequal
    group = builtin_group(name)
    twin = FiniteGroup(np.array(group.table))
    assert twin is not group and twin == group and hash(twin) == hash(group)
    rng = random.Random(len(name))
    for cls in group.subgroup_classes():
        O = standard_orbit(group, cls.index)
        assert O == O and not O != O
        for copy in (GSet(twin, [list(map(np.int64, row)) for row in O.action]),
                     GSet(group, O.action)):
            assert copy is not O and copy == O and O == copy
            assert not copy != O and hash(copy) == hash(O)
            assert {copy: 1}[O] == 1
        moved = random_relabel(O, rng)
        assert (moved == O) == (O == moved) == (moved.action == O.action)


def _orbit_index_gsets(group):
    """Standard orbits, products of two of them, a pullback, the empty
    G-set and one G-set built straight from a permuted action table."""
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    out = list(orbs) + [product(X, Y).gset for X in orbs for Y in orbs]
    mid = orbs[len(orbs) // 2]
    out.append(pullback(product(mid, orbs[0]).left,
                        product(mid, orbs[1 % len(orbs)]).left).gset)
    out.append(disjoint_union_of_orbits(group, ()))
    raw = product(orbs[0], mid).gset
    perm = [(7 * p + 3) % raw.size for p in range(raw.size)]
    inv = [perm.index(p) for p in range(raw.size)]
    out.append(GSet(group, [[perm[row[inv[p]]] for p in range(raw.size)]
                            for row in raw.action]))
    return out


def _group(name):
    return builtin_group(name) if name in BUILTIN_GROUP_NAMES \
        else permutation_group(name)


def _class_oracle(group, H):
    """The class index of the subgroup H, found among the conjugates."""
    return next(cls.index for cls in group.subgroup_classes()
                if H in cls.conjugates)


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_orbit_index_matches_brute_force(name):
    group = _group(name)
    for X in _orbit_index_gsets(group):
        ix = X.orbit_index
        orbits = orbits_oracle(X)
        assert list(ix.orbits) == orbits and list(X.orbits()) == orbits
        for b, orbit in enumerate(orbits):
            base = orbit[0]
            stab = tuple(g for g in group.elements() if X.act(g, base) == base)
            assert ix.stabilizers[b] == stab
            assert ix.classes[b] == _class_oracle(group, stab)
            for x in orbit:
                assert ix.orbit_of[x] == b
                assert ix.reach[x] == next(g for g in range(group.order)
                                           if X.act(g, base) == x)
        assert X.orbit_type() == tuple(sorted(ix.classes))
        assert X.orbit_index is ix   # derived once


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_standard_orbit_reach_is_the_least_element_of_each_coset(name):
    # point x of G/H is the x-th coset in order of least element, and
    # reach[x], the least g with g.H = x, is that least element
    group = builtin_group(name) if name in BUILTIN_GROUP_NAMES \
        else permutation_group(name)
    for cls in group.subgroup_classes():
        O = standard_orbit(group, cls.index)
        assert list(O.orbit_index.reach) == \
            [coset[0] for coset in group.left_cosets(cls.representative)]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_fixed_and_subgroup_orbits_match_brute_force(name):
    # on the inputs of the orbit index test, one of them not canonical: per
    # class with representative R, the points of X^R, the least n in N(R)
    # carrying each to the least point of its N(R)-orbit and each least
    # point's stabilizer in N(R); the orbits of R with their stabilizers'
    # classes and transports; and `_least_under` at every stabilizer
    # `fixed_orbits` lists, each recomputed from the action rows
    group = _group(name)
    for X in _orbit_index_gsets(group):
        reach = X.orbit_index.reach
        for cls, fo, rows in zip(group.subgroup_classes(), X.fixed_orbits,
                                 X.subgroup_orbits):
            R, N = cls.representative, sorted(cls.normalizer)
            assert fo.points == fixed_points(X, R)
            least = {x1: min(X.act(n, x1) for n in N) for x1 in fo.points}
            assert fo.lead == tuple(
                min(n for n in N if X.act(n, x1) == least[x1])
                if x1 in least else None for x1 in range(X.size))
            assert fo.orbits == {
                x0: tuple(n for n in N if X.act(n, x0) == x0)
                for x0 in sorted(set(least.values()))}
            expected = []
            for p in range(X.size):
                if p == min(X.act(h, p) for h in R):
                    K = tuple(h for h in R if X.act(h, p) == p)
                    k = _class_oracle(group, K)
                    rep = group.subgroup_classes()[k].representative
                    expected.append((reach[p], k, min(
                        g for g in group.elements()
                        if group.conjugate_subgroup(g, K) == rep)))
            assert rows == tuple(expected), (X, cls.index)
            for S in set(fo.orbits.values()):
                assert _least_under(X, S) == least_under_oracle(X, S)


def _limit_inputs(group):
    """Standard orbits, a union of two and one of three orbits, and both
    unions with their points numbered in reverse, so not canonical."""
    orbs = [standard_orbit(group, c.index) for c in group.subgroup_classes()]
    last = len(orbs) - 1
    two = disjoint_union_of_orbits(group, (last // 2, last))
    three = disjoint_union_of_orbits(group, (min(1, last), last, last))
    return orbs, [two, three, _permuted(two), _permuted(three)]


def _permuted(X):
    """X with its points numbered in reverse."""
    n = X.size
    return GSet(X.group, [[n - 1 - row[n - 1 - p] for p in range(n)]
                          for row in X.action])


def _limit_maps(group, orbs, extra):
    """Pairs of G-maps with a common target: the maps to the point out of
    the unions, relabelled ones included, and into T = G/H for the class
    before the last, each standard orbit's map onto a point of T its
    subgroup fixes, with the projections X x T -> T of the unions."""
    pt, T = orbs[-1], orbs[max(len(orbs) - 2, 0)]
    to_pt = [GMap(X, pt, [0] * X.size) for X in extra]
    to_t = [orbit_map(O, T, fixed[0]) for O in orbs
            if (fixed := fixed_points(T, O.orbit_index.stabilizers[0]))]
    to_t += [product(X, T).right for X in extra]
    return [(f, g) for f in to_pt for g in to_pt[::2]] + \
        [(f, g) for f in to_t for g in to_t]


@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES + PERMUTATION_BATTERY)
def test_limits_match_the_checked_canonical_route(name):
    # product, coproduct and pullback relabel raw rows that are an action
    # by construction; the route through a checked GSet, canonicalize and
    # iso.inverse() must give the same union object, pair index and legs,
    # and the raw rows must pass the full |G|^2 |X| action check
    group = _group(name)
    orbs, extra = _limit_inputs(group)
    for X in orbs + extra:
        for Y in (extra[0], extra[2], orbs[-1]):
            for A, B in ((X, Y), (Y, X)):
                raw, ref = product_reference(A, B)
                got = product(A, B)
                assert full_action_oracle(group, raw)
                assert got.gset is ref.gset and got.pair_index == \
                    ref.pair_index
                assert got.left == ref.left and got.right == ref.right
                raw, ref = coproduct_reference(A, B)
                got = coproduct(A, B)
                assert full_action_oracle(group, raw)
                assert got.gset is ref.gset
                assert got.left == ref.left and got.right == ref.right
    for f, g in _limit_maps(group, orbs, extra):
        raw, ref = pullback_reference(f, g)
        got = pullback(f, g)
        assert full_action_oracle(group, raw)
        assert got.gset is ref.gset
        assert got.left == ref.left and got.right == ref.right
