import gc
import itertools
import random
import re
import weakref

import numpy as np
import pytest

from mackeykit import burnside
from mackeykit.groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
from mackeykit.gsets import (
    GMap,
    GSet,
    compose_maps,
    coproduct,
    disjoint_union_of_orbits,
    identity_map,
    point_gset,
    product,
    standard_orbit,
)
from mackeykit.burnside import (
    BurnsideElement,
    _least_under,
    basis_element,
    burnside_ring_from_spans,
    burnside_ring_table,
    canonical_code,
    code_subgroup,
    coevaluation_span,
    compose,
    dual,
    evaluation_span,
    hom_basis,
    identity_element,
    multi_product,
    promonoidal_coend_check,
    restriction_element,
    span_codes,
    span_element,
    table_of_marks,
    tensor,
    transfer_element,
    transitive_code,
    triangle_composite,
)
from mackeykit.jsonio import code_to_json, element_from_json, element_to_json
from support import (
    PERMUTATION_BATTERY,
    direct_sum_decompose,
    direct_sum_reassemble,
    fixed_points,
    hom_basis_walk_oracle,
    least_under_oracle,
    materialize_code,
    memo_entries,
    multimap_basis,
    permutation_group,
    pullback_compose_oracle,
    pullback_tensor_oracle,
    reaches,
    structure_span_oracles,
    transitive_code_oracle,
    weyl_element,
)

BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6")
# Of the permutation battery, A4 and D6 run against the span oracles.
# C2xC2xC2 (33,480 composable pairs, 11 s) and S4 (41,409 pairs, 50 s) are
# left out of Tier-1 for their run time.
ORACLE_PERMUTATION_GROUPS = ("A4", "D6")


def group_named(name):
    """A built-in group, or one of the permutation groups by name."""
    if name in BUILTIN_GROUP_NAMES:
        return builtin_group(name)
    return permutation_group(name)


def orbits_of(group):
    return [standard_orbit(group, i)
            for i in range(len(group.subgroup_classes()))]


def random_element(rng, X, Y, support=2, lo=-2, hi=2):
    basis = hom_basis(X, Y)
    picks = rng.sample(basis, min(support, len(basis)))
    return BurnsideElement(X, Y, {c: rng.randint(lo, hi) for c in picks})


# -- canonical forms -----------------------------------------------------------


def test_identity_and_zero_spans():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    ident = identity_element(O)
    assert len(ident.coeffs) == 1
    zero_mid = disjoint_union_of_orbits(C2, ())
    z = span_element(O, O, zero_mid, GMap(zero_mid, O, []), GMap(zero_mid, O, []))
    assert z.is_zero()


def test_translation_span_distinct_from_identity():
    # C2, X = Y = C2/e: middle C2/e with legs (id, translation) is a
    # different class from the identity span
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    ident = identity_element(O)
    trans = GMap(O, O, [O.act(1, x) for x in range(O.size)])
    tspan = span_element(O, O, O, identity_map(O), trans)
    assert set(tspan.coeffs) != set(ident.coeffs)
    # exhaustive: no equivariant middle iso over X x Y interchanges them
    assert hom_basis(O, O) == sorted(set(ident.coeffs) | set(tspan.coeffs))


def test_canonical_form_invariant_under_middle_relabeling():
    rng = random.Random(0)
    S3 = builtin_group("S3")
    orbs = orbits_of(S3)
    for _ in range(25):
        X, Y = orbs[rng.randrange(4)], orbs[rng.randrange(4)]
        code = rng.choice(hom_basis(X, Y))
        U, left, right = materialize_code(X, Y, code)
        # relabel the middle by a random permutation
        perm = list(range(U.size))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(U.size)]
        U2 = GSet(S3, [[perm[U.act(g, inv[p])] for p in range(U.size)]
                       for g in S3.elements()])
        left2 = GMap(U2, X, [left(inv[p]) for p in range(U.size)])
        right2 = GMap(U2, Y, [right(inv[p]) for p in range(U.size)])
        assert span_codes(X, Y, U2, left2, right2) == {code: 1}


def test_hom_basis_against_orbit_enumeration():
    # oracle: orbits of triples (subgroup, x, y) under simultaneous action,
    # on standard orbits and on products of two of them, for every built-in
    # group and for A4 and D6
    for name in BUILTIN_GROUP_NAMES + ORACLE_PERMUTATION_GROUPS:
        group = group_named(name)
        orbs = orbits_of(group)
        prods = [product(X, Y).gset
                 for i, X in enumerate(orbs) for Y in orbs[i:]]
        for X in orbs + prods:
            for Y in orbs:
                triples = set()
                for L in group.subgroups():
                    for x in fixed_points(X, L):
                        for y in fixed_points(Y, L):
                            triples.add((L, x, y))
                orbit_count = 0
                seen = set()
                for (L, x, y) in triples:
                    if (L, x, y) in seen:
                        continue
                    orbit_count += 1
                    for g in group.elements():
                        seen.add((group.conjugate_subgroup(g, L),
                                  X.act(g, x), Y.act(g, y)))
                basis = hom_basis(X, Y)
                assert basis == sorted(basis)
                assert len(basis) == orbit_count
                # each code is the canonical minimum of its orbit
                for (cidx, x, y) in basis:
                    rep = group.subgroup_classes()[cidx].representative
                    cands = []
                    for g in group.elements():
                        conj = group.conjugate_subgroup(g, rep)
                        cands.append((conj, X.act(g, x), Y.act(g, y)))
                    assert min(cands) == (rep, x, y)


def orbits_and_products(group):
    """The standard orbits, then the distinct products of two of them."""
    orbs = orbits_of(group)
    prods = dict.fromkeys(product(X, Y).gset
                          for i, X in enumerate(orbs) for Y in orbs[i:])
    return orbs, [P for P in prods if P not in orbs]


@pytest.mark.parametrize("name",
                         BUILTIN_GROUP_NAMES + ORACLE_PERMUTATION_GROUPS)
def test_least_under_tables_match_the_brute_force_minimum(name):
    # on the standard orbits and the products of two, for every class c
    # and every stabilizer S that some G-set's fixed_orbits[c] lists (the
    # S a code reader pairs with Y^R), the table is the least s.y over S
    # at every point of Y; and hom_basis, which filters Y^R by the table,
    # is the seen-set walk it replaced, as lists
    group = group_named(name)
    orbs, prods = orbits_and_products(group)
    gsets = orbs + prods
    checked = 0
    for c in range(len(orbs)):
        stabs = {S for X in gsets for S in X.fixed_orbits[c].orbits.values()}
        for Y in gsets:
            for S in stabs:
                assert _least_under(Y, S) == least_under_oracle(Y, S), \
                    (Y, c, S)
                checked += 1
    for X, Y in [(X, O) for X in gsets for O in orbs] + \
            [(O, P) for P in prods for O in orbs]:
        assert hom_basis(X, Y) == hom_basis_walk_oracle(X, Y), (X, Y)
    assert checked == {"trivial": 1, "C2": 9, "C3": 9, "C4": 36, "C6": 81,
                       "C2xC2": 120, "S3": 72, "D4": 480, "Q8": 252,
                       "A4": 154, "D6": 930}[name]


@pytest.mark.parametrize("name", ("S4", "C2xC2xC2"))
def test_hom_basis_is_the_seen_set_walk_on_larger_groups(name):
    orbs = orbits_of(group_named(name))
    for X, Y in itertools.product(orbs, repeat=2):
        assert hom_basis(X, Y) == hom_basis_walk_oracle(X, Y), (X, Y)


@pytest.mark.parametrize("name",
                         BUILTIN_GROUP_NAMES + ORACLE_PERMUTATION_GROUPS)
def test_transitive_code_matches_the_brute_force_oracle(name):
    # every subgroup L, not only the class representatives, and every pair
    # of L-fixed points, between a standard orbit and a standard orbit or
    # a product of two, in both orders
    group = group_named(name)
    orbs, prods = orbits_and_products(group)
    feet = [(X, O) for X in orbs + prods for O in orbs] + \
        [(O, P) for P in prods for O in orbs]
    checked = 0
    for L in group.subgroups():
        fixed = {X: fixed_points(X, L) for X in orbs + prods}
        for X, Y in feet:
            for x in fixed[X]:
                for y in fixed[Y]:
                    assert transitive_code(X, Y, L, x, y) == \
                        transitive_code_oracle(X, Y, L, x, y), (X, Y, L, x, y)
                    checked += 1
    assert checked == {"trivial": 1, "C2": 34, "C3": 89, "C4": 475,
                       "C6": 2162, "C2xC2": 1013, "S3": 2098, "D4": 12906,
                       "Q8": 6998, "A4": 22545, "D6": 56205}[name]


def test_transitive_code_rejects_points_its_subgroup_moves():
    # a pair L does not fix is no span with middle G/L; every pair of
    # points is tried, and exactly those with a moved point are refused
    for name in ("C2", "S3", "D4"):
        group = builtin_group(name)
        orbs = orbits_of(group)
        for L in group.subgroups():
            for X, Y in itertools.product(orbs, repeat=2):
                fx, fy = fixed_points(X, L), fixed_points(Y, L)
                for x, y in itertools.product(range(X.size), range(Y.size)):
                    if x in fx and y in fy:
                        assert transitive_code(X, Y, L, x, y) == \
                            transitive_code_oracle(X, Y, L, x, y)
                        continue
                    with pytest.raises(ValueError, match=re.escape(
                            f"the points ({x}, {y}) of a span are not fixed "
                            f"by its subgroup {L}")):
                        transitive_code(X, Y, L, x, y)
    C2 = builtin_group("C2")
    with pytest.raises(ValueError, match=re.escape("(1,) is not a subgroup")):
        transitive_code(point_gset(C2), point_gset(C2), (1,), 0, 0)


def test_hom_basis_examples():
    triv = builtin_group("trivial")
    pt0 = point_gset(triv)
    assert len(hom_basis(pt0, pt0)) == 1
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    O = standard_orbit(C2, 0)
    assert len(hom_basis(pt, pt)) == 2
    assert len(hom_basis(O, O)) == 2


# -- composition ----------------------------------------------------------------


def test_identity_laws_random():
    rng = random.Random(1)
    for name in ("C2", "S3"):
        group = builtin_group(name)
        orbs = orbits_of(group)
        for _ in range(50):
            X, Y = (orbs[rng.randrange(len(orbs))] for _ in range(2))
            s = random_element(rng, X, Y)
            assert compose(identity_element(Y), s) == s
            assert compose(s, identity_element(X)) == s


def basis_spans(group):
    """(X, Y, code) for every basis span between standard orbits."""
    orbs = orbits_of(group)
    return [(X, Y, c) for X in orbs for Y in orbs for c in hom_basis(X, Y)]


@pytest.mark.parametrize("name",
                         BUILTIN_GROUP_NAMES + ORACLE_PERMUTATION_GROUPS)
def test_compose_matches_pullback_oracle(name):
    # every composable pair of basis spans, 9,575 over the built-in groups
    # and 14,128 over A4 and D6; the code multiset and its order must equal
    # the pullback's, whose codes the brute-force oracle reads
    pairs = 0
    spans = basis_spans(group_named(name))
    for X, Y, c1 in spans:
        for Yp, Z, c2 in spans:
            if Yp == Y:
                got = compose(basis_element(Y, Z, c2), basis_element(X, Y, c1))
                want = pullback_compose_oracle(X, Y, Z, c1, c2)
                assert list(got.coeffs.items()) == list(want.items()), \
                    (X, Y, Z, c1, c2)
                pairs += 1
    assert pairs == {"trivial": 1, "C2": 18, "C3": 25, "C4": 149,
                     "C6": 450, "C2xC2": 565, "S3": 387, "D4": 5536,
                     "Q8": 2444, "A4": 2429, "D6": 11699}[name]


@pytest.mark.parametrize("name", BATTERY + ("D4",))
def test_tensor_matches_product_oracle(name):
    # every pair of basis spans over the battery, and over D4 every pair
    # whose second span has the point as a foot: 16,605 pairs in all
    group = builtin_group(name)
    pt = point_gset(group)
    spans = basis_spans(group)
    seconds = spans if name in BATTERY else [
        s for s in spans if pt in s[:2]]
    pairs = 0
    for X, Y, c1 in spans:
        for Xp, Yp, c2 in seconds:
            got = tensor(basis_element(X, Y, c1), basis_element(Xp, Yp, c2))
            want = pullback_tensor_oracle(X, Xp, Y, Yp, c1, c2)
            assert list(got.coeffs.items()) == list(want.items()), \
                (X, Y, Xp, Yp, c1, c2)
            pairs += 1
    assert pairs == {"trivial": 1, "C2": 36, "C3": 49, "C4": 441,
                     "C2xC2": 2809, "S3": 1521, "C6": 1764, "D4": 9984}[name]


# Bad codes, each with its file form and what `element_from_json` says:
# codes whose points are not fixed by their subgroup, out of range, or no
# triple of integers at all.  Class 5 has no label over C2.
BAD_CODES = [
    ((1, 0, 0), "O", "pt", ["C2", 0, 0], "span code (1, 0, 0): its points"),
    ((1, 0, 1), "O", "O", ["C2", 0, 1], "span code (1, 0, 1): its points"),
    ((0, 2, 0), "O", "pt", ["e", 2, 0], "span code (0, 2, 0) is out of range"),
    ((0, -1, 0), "O", "pt", ["e", -1, 0],
     "span code (0, -1, 0) is out of range"),
    ((5, 0, 0), "pt", "pt", ["C5", 0, 0], "unknown subgroup-class label 'C5'"),
    (5, "O", "pt", 5, "span code 5 is not [label, x, y]"),
    ((0, 0), "O", "pt", ["e", 0], "span code ['e', 0] is not [label, x, y]"),
    (("0", 0, 0), "O", "pt", ["0", 0, 0], "unknown subgroup-class label '0'"),
    ((0, True, 0), "O", "pt", ["e", True, 0],
     "span code ['e', True, 0] point[0] is not an integer: True"),
    ((0, 0, 1.0), "O", "O", ["e", 0, 1.0],
     "span code ['e', 0, 1.0] point[1] is not an integer: 1.0"),
]


def test_compose_tensor_and_dual_reject_codes_not_fixed_by_their_subgroup():
    # no element holds a bad code, so compose, tensor and dual never see
    # one: the constructor, `basis_element` and `element_from_json` refuse
    # it where it enters, naming it, whatever its coefficient; a code that
    # is no triple of integers once raised TypeError or an unpacking
    # error, or with a bool point was stored and written to a file no
    # reader accepts, and one with coefficient 0 was dropped unchecked
    C2 = builtin_group("C2")
    feet = {"O": standard_orbit(C2, 0), "pt": point_gset(C2)}
    for (bad, x, y, doc, error), v in itertools.product(BAD_CODES, (1, 0)):
        X, Y = feet[x], feet[y]
        with pytest.raises(ValueError, match=re.escape(f"span code {bad!r}")):
            BurnsideElement(X, Y, {bad: v})
        with pytest.raises(ValueError, match=re.escape(f"span code {bad!r}")):
            basis_element(X, Y, bad)
        with pytest.raises(ValueError, match=re.escape(error)):
            element_from_json(C2, X, Y, {"coefficients": [[doc, v]]})
    # a fixed but non-minimal code is a valid span: it enters as its
    # canonical code, and so composes, tensors and dualizes as that code
    O, pt = feet["O"], feet["pt"]
    (code,) = hom_basis(O, pt)
    moved = BurnsideElement(O, pt, {(0, 1, 0): 1})
    canonical = basis_element(O, pt, code)
    assert moved == canonical and moved.coeffs == {code: 1}
    assert compose(identity_element(pt), moved) == canonical
    assert tensor(moved, canonical) == tensor(canonical, canonical)
    assert dual(moved) == dual(canonical)


def test_compose_and_tensor_check_each_factor_once_even_against_zero(
        monkeypatch):
    # each code is checked once, where it enters an element: a bad code is
    # refused before any product is formed, even one against zero, and
    # compose, tensor and dual check no code again
    C2 = builtin_group("C2")
    O, pt = standard_orbit(C2, 0), point_gset(C2)
    (good,) = hom_basis(O, pt)
    # a bad code next to good ones is refused too, and of two bad codes
    # the first is named
    with pytest.raises(ValueError, match=re.escape("span code (1, 0, 0)")):
        BurnsideElement(O, pt, {good: 2, (1, 0, 0): 1})
    with pytest.raises(ValueError, match=re.escape("span code (1, 0, 0)")):
        BurnsideElement(O, pt, {(1, 0, 0): 1, (0, 2, 0): 1})
    checks = []
    real = burnside.code_subgroup
    monkeypatch.setattr(burnside, "code_subgroup",
                        lambda *args: checks.append(args[2]) or real(*args))
    e = BurnsideElement(O, pt, {good: 2, (0, 1, 0): 1})
    point = basis_element(pt, pt, (1, 0, 0))
    assert checks == [good, (0, 1, 0), (1, 0, 0)] and e.coeffs == {good: 3}
    zero = BurnsideElement(O, O)
    assert compose(e, zero).is_zero() and tensor(e, zero).is_zero()
    assert tensor(zero, e).is_zero() and dual(dual(e)) == e
    assert not compose(point, e).is_zero()
    assert not tensor(e, point).is_zero()
    assert checks == [good, (0, 1, 0), (1, 0, 0)]
    # a file's codes are summed as written, and each distinct one is
    # checked once, by the constructor
    doc = {"coefficients": [[["e", 1, 0], 1], [["e", 0, 0], 2],
                            [["e", 1, 0], 1]]}
    assert element_from_json(C2, O, pt, doc).coeffs == {good: 4}
    assert checks[3:] == [(0, 1, 0), good]


def code_subgroup_oracle(X, Y, code):
    """`code_subgroup` by testing every element of L, or its message."""
    cidx, x, y = code
    L = X.group.subgroup_classes()[cidx].representative
    if all(X.action[h][x] == x and Y.action[h][y] == y for h in L):
        return L
    return f"span code {code}: its points are not fixed by {L}"


@pytest.mark.parametrize("name", BATTERY + PERMUTATION_BATTERY)
def test_code_subgroup_checks_the_class_generators_like_every_element(name):
    group = group_named(name)
    orbits = [standard_orbit(group, cls.index)
              for cls in group.subgroup_classes()]
    refused = 0
    for X, Y in itertools.product(orbits, repeat=2):
        for code in itertools.product(range(len(orbits)), range(X.size),
                                      range(Y.size)):
            want = code_subgroup_oracle(X, Y, code)
            try:
                got = code_subgroup(X, Y, code)
            except ValueError as err:
                got = str(err)
                refused += 1
            assert got == want, (name, X.size, Y.size, code)
    # the trivial group fixes every point, and any other refuses some code
    assert (refused == 0) == (name == "trivial")


def test_orbit_tables_do_not_pin_gsets():
    # a fresh group object, and X built from its action table, not by one
    # of the group's memoized constructors, so only the derived orbit
    # tables could keep X alive; the group's own table is a cached
    # property, and its memo holds nothing that reaches X
    group = FiniteGroup(builtin_group("S3").table, name="S3")
    O, pt = standard_orbit(group, 1), point_gset(group)
    X = GSet(group, [row + tuple(O.size + y for y in row) for row in O.action])
    for c1, c2 in itertools.product(hom_basis(X, O), hom_basis(O, pt)):
        e = compose(basis_element(O, pt, c2), basis_element(X, O, c1))
        assert e.source is X and not e.is_zero()
        # X as the left factor: X x O is kept in X's memo
        t = tensor(basis_element(X, O, c1), basis_element(O, pt, c2))
        assert t.source is product(X, O).gset and not t.is_zero()
    assert len(X.subgroup_orbits) == len(X.fixed_orbits) == 4
    # the code walks read the lead tables of X and of X x O, whose G-set
    # is a union of standard orbits the group keeps
    P = product(X, O).gset
    assert {"fixed_orbits"} <= vars(X).keys() & vars(P).keys()
    assert reaches(group._memo, P) and not reaches(P, X)
    # the embeddings map into X, so X sits in a reference cycle
    assert [emb.target is X for emb in X.orbit_embeddings] == [True, True]
    assert reaches(group._memo, O) and not reaches(group._memo, X)
    ref = weakref.ref(X)
    del X, e, t
    gc.collect()
    assert ref() is None


def test_hom_basis_memo_pins_neither_foot():
    # the codes of a pair are kept on the left foot, keyed weakly by the
    # right one: an orbit the group keeps does not keep its partner
    # alive, and an entry is gone once its partner is collected
    group = FiniteGroup(builtin_group("S3").table, name="S3")
    O, pt = standard_orbit(group, 1), point_gset(group)
    X = GSet(group, [row + tuple(O.size + y for y in row) for row in O.action])
    Y = GSet(group, [(0,) + tuple(1 + y for y in row) for row in O.action])
    assert all(hom_basis(A, B) == hom_basis_walk_oracle(A, B)
               for A, B in ((X, Y), (Y, X), (O, X), (X, O), (pt, Y)))
    on_x, on_o = (memo_entries(F)["_hom_codes"] for F in (X, O))
    assert list(on_x) == [Y, O] and list(on_o) == [X]
    assert all(type(v) is int for codes in on_x.values()
               for code in codes for v in code)
    refs = [weakref.ref(X), weakref.ref(Y)]
    del Y
    gc.collect()
    assert refs[1]() is None and list(on_x) == [O]
    assert list(memo_entries(pt)["_hom_codes"]) == []
    del X, on_x
    gc.collect()
    assert refs[0]() is None and list(on_o) == []


def test_hom_basis_is_a_fresh_list_on_every_call():
    # the codes are kept, but each call copies them into a new list, so
    # what a caller does to one list reaches no other
    O = standard_orbit(builtin_group("S3"), 1)
    basis = hom_basis(O, O)
    want = list(basis)
    basis.append((0, 0, 0))
    basis.reverse()
    assert hom_basis(O, O) == want and hom_basis(O, O) is not hom_basis(O, O)


@pytest.mark.parametrize("name", ["C2xC2", "S3", "D4"])
def test_fibre_rows_on_a_product_middle_hold_ints_and_match_the_walk(name):
    # every composite through a product middle Y, against the pullback
    # oracle in order; the fibre table kept on Y holds ints only, and each
    # entry is the walk's rows over G/M whose coset carries y' to y,
    # sorted stably by class
    group = FiniteGroup(builtin_group(name).table, name=name)
    orbs = orbits_of(group)
    Y = product(orbs[1], orbs[-2]).gset
    for X, Z in ((orbs[0], orbs[-1]), (orbs[-2], orbs[1])):
        for c1, c2 in itertools.product(hom_basis(X, Y), hom_basis(Y, Z)):
            got = compose(basis_element(Y, Z, c2), basis_element(X, Y, c1))
            want = pullback_compose_oracle(X, Y, Z, c1, c2)
            assert list(got.coeffs.items()) == list(want.items())
    table = Y._memo[burnside._fibre_rows.__wrapped__]
    assert table and all(type(v) is int for key, rows in table.items()
                         for v in itertools.chain(key, *rows))
    for (c, y, m, yp), rows in table.items():
        walk = [(b, k, t) for b, k, t in orbs[m].subgroup_orbits[c]
                if Y.action[b][yp] == y]
        assert rows == tuple(sorted(walk, key=lambda row: row[1]))


@pytest.mark.parametrize("name", ["C2", "D4", "S3"])
def test_a_fixed_non_minimal_code_is_its_canonical_span(name):
    # every code between standard orbits whose points its subgroup fixes,
    # given to the constructor or `basis_element` or read from a file, is
    # the element of its canonical code, the brute-force minimum: equal,
    # with the same hash, and their difference is zero
    group = builtin_group(name)
    orbs = orbits_of(group)
    moved = 0
    for X, Y in itertools.product(orbs, repeat=2):
        for cls in group.subgroup_classes():
            R = cls.representative
            for x, y in itertools.product(fixed_points(X, R),
                                          fixed_points(Y, R)):
                code = (cls.index, x, y)
                want = basis_element(
                    X, Y, transitive_code_oracle(X, Y, R, x, y))
                doc = {"coefficients": [[code_to_json(group, code), 1]]}
                for got in (BurnsideElement(X, Y, {code: 1}),
                            basis_element(X, Y, code),
                            element_from_json(group, X, Y, doc)):
                    assert got == want and hash(got) == hash(want), code
                    assert (got - want).is_zero()
                    assert element_to_json(got) == element_to_json(want)
                (canon,) = want.coeffs
                if canon != code:
                    # codes that meet on entry are summed
                    moved += 1
                    assert BurnsideElement(X, Y, {code: 1, canon: 1}) \
                        == 2 * want
                    assert BurnsideElement(X, Y, {code: 1,
                                                  canon: -1}).is_zero()
    assert moved


def assert_canonical(e):
    """Every code of e is its own `canonical_code`."""
    for code in e.coeffs:
        assert canonical_code(e.source, e.target, code) == code, (e, code)


@pytest.mark.parametrize("name", BATTERY)
def test_every_element_holds_canonical_codes(name):
    # the basis codes, and the codes of the duals, composites and tensors
    # of basis elements, are fixed by the canonicalizer
    group = builtin_group(name)
    orbs, pt = orbits_of(group), point_gset(group)
    for X, Y in itertools.product(orbs, repeat=2):
        basis = hom_basis(X, Y)
        assert [canonical_code(X, Y, code) for code in basis] == basis
        for code in basis:
            e = basis_element(X, Y, code)
            assert e.coeffs == {code: 1}
            assert_canonical(dual(e))
            for c2 in hom_basis(Y, pt):
                assert_canonical(compose(basis_element(Y, pt, c2), e))
            for c2 in hom_basis(pt, X):
                assert_canonical(tensor(e, basis_element(pt, X, c2)))


def test_coefficients_cannot_be_edited():
    C2 = builtin_group("C2")
    O, pt = standard_orbit(C2, 0), point_gset(C2)
    (code,) = hom_basis(O, pt)
    e = basis_element(O, pt, code)
    with pytest.raises(TypeError):
        e.coeffs[code] = 2
    with pytest.raises(TypeError):
        del e.coeffs[code]
    for method in ("clear", "update", "pop", "setdefault"):
        assert not hasattr(e.coeffs, method)
    assert e.coeffs == {code: 1} and dict(e.coeffs) == {code: 1}
    assert e.coeffs.get(code) == 1 and list(e.coeffs.items()) == [(code, 1)]


def test_coefficients_must_be_integers():
    C2 = builtin_group("C2")
    O, pt = standard_orbit(C2, 0), point_gset(C2)
    (code,) = hom_basis(O, pt)
    with pytest.raises(TypeError, match=re.escape(f"span code {code}")):
        BurnsideElement(O, pt, {code: 1.9})
    e = BurnsideElement(O, pt, {code: np.int64(3)})
    assert e.coeffs == {code: 3} and type(e.coeffs[code]) is int
    with pytest.raises(TypeError, match="not an integer"):
        2.5 * e


def test_res_tr_composite_c2():
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    O = standard_orbit(C2, 0)
    f = GMap(O, pt, [0, 0])
    composite = compose(restriction_element(f), transfer_element(f))
    expected = identity_element(O) + span_element(
        O, O, O, identity_map(O),
        GMap(O, O, [O.act(1, x) for x in range(O.size)]))
    assert composite == expected


def test_res_tr_composite_indexed_by_double_cosets():
    S3 = builtin_group("S3")
    pt = point_gset(S3)
    OC2 = standard_orbit(S3, 1)
    f = GMap(OC2, pt, [0] * 3)
    composite = compose(restriction_element(f), transfer_element(f))
    C2rep = S3.subgroup_classes()[1].representative
    assert len(composite.coeffs) == len(S3.double_cosets(C2rep, C2rep))
    assert all(v == 1 for v in composite.coeffs.values())


def test_associativity_random_triples():
    rng = random.Random(2)
    for name in ("C4", "S3"):
        group = builtin_group(name)
        orbs = orbits_of(group)
        for _ in range(60):
            A, B, C, D = (orbs[rng.randrange(len(orbs))] for _ in range(4))
            s1 = random_element(rng, A, B)
            s2 = random_element(rng, B, C)
            s3 = random_element(rng, C, D)
            assert compose(s3, compose(s2, s1)) == compose(compose(s3, s2), s1)


def test_semiadditivity_of_hom_bases():
    S3 = builtin_group("S3")
    orbs = orbits_of(S3)
    X, Xp, Y = orbs[1], orbs[2], orbs[0]
    cp = coproduct(X, Xp)
    total = hom_basis(cp.gset, Y)
    assert len(total) == len(hom_basis(X, Y)) + len(hom_basis(Xp, Y))
    # every basis element restricts to one summand and vanishes on the other
    for code in total:
        e = basis_element(cp.gset, Y, code)
        e1, e2 = direct_sum_decompose(e, X, Xp)
        sizes = sorted((len(e1.coeffs), len(e2.coeffs)))
        assert sizes == [0, 1]
    # and in the target slot
    cpt = coproduct(X, Xp)
    total_t = hom_basis(Y, cpt.gset)
    assert len(total_t) == len(hom_basis(Y, X)) + len(hom_basis(Y, Xp))


def test_direct_sum_roundtrip():
    rng = random.Random(3)
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    cp = coproduct(O, pt)
    for _ in range(10):
        e = random_element(rng, cp.gset, O, support=3)
        e1, e2 = direct_sum_decompose(e, O, pt)
        assert direct_sum_reassemble(e1, e2, O, pt) == e
    z = BurnsideElement(cp.gset, O)
    z1, z2 = direct_sum_decompose(z, O, pt)
    assert z1.is_zero() and z2.is_zero()


# -- tensor ----------------------------------------------------------------------


def test_tensor_unit_laws():
    rng = random.Random(4)
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    orbs = orbits_of(C2)
    ipt = identity_element(pt)
    for _ in range(10):
        X, Y = (orbs[rng.randrange(2)] for _ in range(2))
        s = random_element(rng, X, Y)
        t = tensor(s, ipt)
        # X x pt is canonically X; transport through the unitor
        rho_s = product(X, pt).left
        rho_t = product(Y, pt).left
        back = compose(transfer_element(rho_t),
                       compose(t, transfer_element(rho_s.inverse())))
        assert back == s


def test_tensor_of_identities():
    S3 = builtin_group("S3")
    X, Y = standard_orbit(S3, 1), standard_orbit(S3, 2)
    assert tensor(identity_element(X), identity_element(Y)) == \
        identity_element(product(X, Y).gset)


def test_tensor_of_transfers_c2():
    # [transfer C2/e -> pt] (x) itself decomposes as 2 copies of the
    # transitive free-middle span
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    O = standard_orbit(C2, 0)
    f = GMap(O, pt, [0, 0])
    t = tensor(transfer_element(f), transfer_element(f))
    assert sorted(t.coeffs.values()) in ([2], [1, 1])
    total = sum(t.coeffs.values())
    assert total == 2
    # the middle classes are free
    for (cidx, _x, _y) in t.coeffs:
        assert C2.subgroup_classes()[cidx].label == "e"


def test_interchange_law():
    rng = random.Random(5)
    for name in ("C2", "S3"):
        group = builtin_group(name)
        orbs = orbits_of(group)
        for _ in range(12):
            A, B, C = (orbs[rng.randrange(len(orbs))] for _ in range(3))
            Ap, Bp, Cp = (orbs[rng.randrange(len(orbs))] for _ in range(3))
            s1, s2 = random_element(rng, A, B), random_element(rng, B, C)
            t1, t2 = random_element(rng, Ap, Bp), random_element(rng, Bp, Cp)
            assert compose(tensor(s2, t2), tensor(s1, t1)) == \
                tensor(compose(s2, s1), compose(t2, t1))


# -- duality -----------------------------------------------------------------------


def test_dual_involution_and_contravariance():
    rng = random.Random(6)
    S3 = builtin_group("S3")
    orbs = orbits_of(S3)
    for _ in range(50):
        X, Y, Z = (orbs[rng.randrange(4)] for _ in range(3))
        s = random_element(rng, X, Y)
        t = random_element(rng, Y, Z)
        assert dual(dual(s)) == s
        assert dual(compose(t, s)) == compose(dual(s), dual(t))
    ide = identity_element(orbs[1])
    assert dual(ide) == ide


def test_dual_of_transfer_is_restriction():
    S3 = builtin_group("S3")
    pt = point_gset(S3)
    O = standard_orbit(S3, 0)
    f = GMap(O, pt, [0] * O.size)
    assert dual(transfer_element(f)) == restriction_element(f)


def test_evaluation_on_point_is_identity():
    C2 = builtin_group("C2")
    pt = point_gset(C2)
    ev = evaluation_span(pt)
    coev = coevaluation_span(pt)
    # pt x pt is pt, so both are the identity span after the unitor
    assert len(ev.coeffs) == 1 and len(coev.coeffs) == 1
    ppt = product(pt, pt).gset
    assert ev.source == ppt and ev.target == pt


def test_evaluation_middle_is_diagonal():
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    ev = evaluation_span(O)
    ((cidx, x, y), mult), = ev.coeffs.items()
    assert mult == 1
    assert C2.subgroup_classes()[cidx].label == "e"
    P = product(O, O)
    # the marked point of the product lies on the diagonal
    assert P.left(x) == P.right(x)


def test_triangle_identity_all_orbits():
    for name in BATTERY:
        group = builtin_group(name)
        for cls in group.subgroup_classes():
            X = standard_orbit(group, cls.index)
            assert triangle_composite(X) == identity_element(X), \
                (name, cls.label)


# -- marks and the ring -------------------------------------------------------------


def test_marks_examples():
    assert table_of_marks(builtin_group("trivial")) == [[1]]
    assert table_of_marks(builtin_group("C2")) == [[2, 0], [1, 1]]


def test_marks_triangular_with_nonzero_diagonal():
    for name in BATTERY:
        marks = table_of_marks(builtin_group(name))
        n = len(marks)
        for i in range(n):
            assert marks[i][i] != 0
            for j in range(n):
                if j > i:
                    # higher class cannot fix points of a smaller orbit
                    # unless subgroup orders tie; triangularity holds in the
                    # (order, lex) class order
                    group = builtin_group(name)
                    oi = len(group.subgroup_classes()[i].representative)
                    oj = len(group.subgroup_classes()[j].representative)
                    if oj > oi:
                        assert marks[i][j] == 0


def test_marks_ring_homomorphism():
    # the ghost map sends products to entrywise products
    for name in BATTERY:
        group = builtin_group(name)
        marks = table_of_marks(group)
        table = burnside_ring_table(group)
        n = len(marks)
        for i in range(n):
            for j in range(n):
                for col in range(n):
                    lhs = marks[i][col] * marks[j][col]
                    rhs = sum(table[i][j][k] * marks[k][col] for k in range(n))
                    assert lhs == rhs


def test_burnside_ring_c2():
    table = burnside_ring_table(builtin_group("C2"))
    # [C2/e]^2 = 2 [C2/e]
    assert table[0][0] == [2, 0]
    assert table[1][1] == [0, 1]


def test_ring_table_matches_span_composition():
    for name in BATTERY:
        group = builtin_group(name)
        _, spans = burnside_ring_from_spans(group)
        assert burnside_ring_table(group) == spans


def test_trivial_group_ring():
    _, spans = burnside_ring_from_spans(builtin_group("trivial"))
    assert spans == [[[1]]]


# -- multimaps ----------------------------------------------------------------------


def test_multimap_single_foot_is_hom_basis():
    S3 = builtin_group("S3")
    O = standard_orbit(S3, 1)
    pt = point_gset(S3)
    assert multimap_basis([O], pt) == hom_basis(O, pt)


def test_multimap_two_point_feet_trivial_group():
    triv = builtin_group("trivial")
    pt = point_gset(triv)
    assert len(multimap_basis([pt, pt], pt)) == 1


def test_multimap_grouped_product_decomposition():
    # morphism data over a grouping J -> I is a tuple of per-target
    # multimaps; cardinality and an explicit bijection, for C2 orbit feet
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    feet = [O, pt, O]
    groups_of = [[0, 1], [2]]        # contiguous grouping of the feet
    targets = [pt, O]
    per_target = [multimap_basis([feet[i] for i in grp], targets[j])
                  for j, grp in enumerate(groups_of)]
    tuples = list(itertools.product(*per_target))
    # the tensor of the tuple components is a span between the iterated
    # products; distinct tuples give distinct tensors
    seen = set()
    for tup in tuples:
        parts = []
        for j, grp in enumerate(groups_of):
            P = multi_product([feet[i] for i in grp])
            parts.append(basis_element(P.gset, targets[j], tup[j]))
        t = tensor(parts[0], parts[1])
        key = tuple(sorted(t.coeffs.items()))
        assert key not in seen
        seen.add(key)
    assert len(seen) == len(per_target[0]) * len(per_target[1])


def test_multimap_composition_associative_over_regrouping():
    # compose an outer 2-foot multimap with inner multimaps by tensoring,
    # two different ways of bracketing agree
    rng = random.Random(8)
    C2 = builtin_group("C2")
    O = standard_orbit(C2, 0)
    pt = point_gset(C2)
    inner1 = multi_product([O, pt])
    inner2 = multi_product([O])
    for _ in range(8):
        m1 = random_element(rng, inner1.gset, O)
        m2 = random_element(rng, inner2.gset, pt)
        outer_src = multi_product([O, pt])
        m_out = random_element(rng, outer_src.gset, O)
        lhs = compose(m_out, tensor(m1, m2))
        # rebracket: the same composite built stepwise
        rhs = compose(compose(m_out, tensor(identity_element(O), m2)),
                      tensor(m1, identity_element(inner2.gset)))
        assert lhs == rhs


@pytest.mark.parametrize("name",
                         BUILTIN_GROUP_NAMES + ORACLE_PERMUTATION_GROUPS)
def test_structure_span_codes_match_explicit_spans(name):
    for what, built, oracle in structure_span_oracles(group_named(name)):
        assert built == oracle, what


def test_weyl_element_is_isomorphism_span():
    S3 = builtin_group("S3")
    for cls in S3.subgroup_classes():
        for n in cls.normalizer:
            w = weyl_element(S3, cls.index, n)
            winv = weyl_element(S3, cls.index, S3.inv(n))
            O = standard_orbit(S3, cls.index)
            assert compose(w, winv) == identity_element(O)


# -- promonoidal coend condition ------------------------------------------------------


@pytest.mark.parametrize("name", ["trivial", "C2"])
def test_promonoidal_coend_small(name):
    group = builtin_group(name)
    pt = point_gset(group)
    O = standard_orbit(group, 0)
    ok, detail = promonoidal_coend_check([O], pt)
    assert ok, detail
    ok2, detail2 = promonoidal_coend_check([O, pt], O)
    assert ok2, detail2
