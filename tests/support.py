"""Shared brute-force and dense oracles used by the tests."""

import gc
from functools import cached_property, lru_cache

import numpy as np

from mackeykit import intmat
from mackeykit import intmat as im
from mackeykit import abgroups, jsonio
from mackeykit.abgroups import FinPresAbGroup, maps_equal
from mackeykit.burnside import (
    basis_element,
    compose,
    hom_basis,
    identity_element,
    multi_product,
    res_element,
    restriction_element,
    span_element,
    tensor,
    tr_element,
    transfer_element,
)
from mackeykit.convolution import (
    GreenValidationError,
    _restriction,
    _unit_action_block,
    box,
    box_assoc_iso,
    box_comm_iso,
    box_unit_iso,
    over_codes,
)
from mackeykit.groups import FiniteGroup, group_from_permutations
from mackeykit.gsets import (
    CoproductData,
    GMap,
    GSet,
    ProductData,
    PullbackData,
    canonicalize,
    compose_maps,
    coproduct,
    orbit_map,
    point_gset,
    product,
    pullback,
    standard_orbit,
    translation_map,
)
from mackeykit.homalg import (
    ChainComplex,
    Resolution,
    SpectralSequencePage,
    _classifying_mats,
    _connecting,
    _cover_on_slots,
    _tor_of_resolution,
    complex_map_homology,
    module_kernel,
    module_resolution,
    quotient_complex,
    rel_box,
)
from mackeykit.mackey import (
    MackeyFunctor,
    MackeyMorphism,
    NatSolver,
    _Coordinates,
    compose_morphisms,
    identity_morphism,
    image,
    lift_through_inclusion,
    mackey_from_gmaps,
    minimize_presentation,
    representable,
)


# -- span and group helpers the tests build with ---------------------------------------


def materialize_code(X, Y, code):
    """Explicit transitive span (middle, left leg, right leg) for a code."""
    cidx, x, y = code
    U = standard_orbit(X.group, cidx)
    return U, orbit_map(U, X, x), orbit_map(U, Y, y)


def weyl_element(group, cidx, n):
    """Conjugation-by-n isomorphism span on ORB([H]), for n normalizing H:
    the transfer along `gsets.translation_map`, gH -> g n^-1 H."""
    return transfer_element(translation_map(group, cidx, n))


def direct_sum_decompose(e, X, Xp):
    """Split e: (X + X') -> Y over the two summands of the coproduct."""
    cp = coproduct(X, Xp)
    if e.source != cp.gset:
        raise ValueError("source is not the stated coproduct")
    return (compose(e, transfer_element(cp.left)),
            compose(e, transfer_element(cp.right)))


def direct_sum_reassemble(e1, e2, X, Xp):
    """The element (X + X') -> Y with the given restrictions to X and X'."""
    cp = coproduct(X, Xp)
    return (compose(e1, restriction_element(cp.left))
            + compose(e2, restriction_element(cp.right)))


def fixed_points(X, H):
    """Points of X fixed by every element of the subgroup H, by a scan of
    X's action rows: the oracle for `GSet.fixed_orbits`."""
    fixed = range(X.size)
    for h in H:
        row = X.action[h]
        fixed = [x for x in fixed if row[x] == x]
    return tuple(fixed)


def tensor_group(A, B):
    """Tensor product A (x) B presented on generator pairs.

    Generator (i, j) of the product sits at index i * B.generator_count + j.
    """
    na, nb = A.generator_count, B.generator_count
    rels = []
    for r in range(A.relations.shape[0]):
        for j in range(nb):
            row = [0] * (na * nb)
            for i in range(na):
                row[i * nb + j] = A.relations[r, i]
            rels.append(row)
    for r in range(B.relations.shape[0]):
        for i in range(na):
            row = [0] * (na * nb)
            for j in range(nb):
                row[i * nb + j] = B.relations[r, j]
            rels.append(row)
    return FinPresAbGroup(na * nb, im.intmat(rels, na * nb))


def gset_to_json(X):
    """The explicit-action JSON document `jsonio.gset_from_json` reads."""
    return {"group": jsonio.group_to_json(X.group), "size": X.size,
            "action": [list(r) for r in X.action]}


# One-line generators of the permutation groups beyond the built-ins.
PERMUTATION_GROUPS = {
    "A4": (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
    "D6": (6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "C2xC2xC2": (6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                     (0, 1, 2, 3, 5, 4)]),
    "S4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "A5": (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
    # (12) and (34) are conjugate under (135)(246) but not under the
    # normalizer of <(12), (34)>, so one class pair holds two conjugacy
    # classes of covering pairs, and a canonical cover starts at a
    # subgroup that is not its class representative
    "C2wrC3": (6, [(1, 0, 2, 3, 4, 5), (2, 3, 4, 5, 0, 1)]),
    "S5": (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
}

# The permutation battery: orders 8 to 24, up to 16 subgroup classes.
PERMUTATION_BATTERY = ("A4", "D6", "C2xC2xC2", "S4")


@lru_cache(maxsize=None)
def permutation_group(name):
    """The group `PERMUTATION_GROUPS[name]`, built once per test session."""
    degree, gens = PERMUTATION_GROUPS[name]
    return group_from_permutations(degree, gens, name=name)


def frontier_closure(group, seed):
    """Oracle for `FiniteGroup.closure`: multiply everything reached by the
    whole frontier, on both sides, and add the frontier's inverses, round
    after round until nothing new appears."""
    got = {0}
    frontier = set(seed) | {0}
    got |= frontier
    while frontier:
        new = set()
        for a in got:
            for b in frontier:
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in got:
                        new.add(c)
        for b in frontier:
            c = group.inverse[b]
            if c not in got:
                new.add(c)
        got |= new
        frontier = new
    return tuple(sorted(got))


def every_label_subgroups(group):
    """Oracle for `FiniteGroup.subgroups`: from the cyclic subgroups, extend
    each subgroup found by every label outside it, closing each extension
    with `frontier_closure`; sorted by (order, labels)."""
    found = {frontier_closure(group, [g]) for g in range(group.order)}
    frontier = set(found)
    while frontier:
        new = set()
        for H in frontier:
            inside = set(H)
            for g in range(group.order):
                if g not in inside:
                    S = frontier_closure(group, H + (g,))
                    if S not in found:
                        found.add(S)
                        new.add(S)
        frontier = new
    return tuple(sorted(found, key=lambda H: (len(H), H)))


class FrontierGroup(FiniteGroup):
    """A group whose closures and subgroups come from the oracles above,
    so its generators, subgroup classes, canonical covers and relation
    plan are the reference for those of a `FiniteGroup` on its table."""

    def closure(self, seed):
        return frontier_closure(self, seed)

    @cached_property
    def _subgroups(self):
        return every_label_subgroups(self)


def reaches(root, target):
    """Whether `target` is reachable from `root` through containers and
    mackeykit objects, following the references the garbage collector
    follows; modules, classes and functions are not entered."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, list, tuple, set, frozenset)) or \
                type(obj).__module__.startswith("mackeykit."):
            stack.extend(gc.get_referents(obj))
    return False


def memo_entries(owner):
    """{function name: entries} of what `groups.owned` and `groups.paired`
    keep on the owner: {args: value} for an owned memo, and the live
    {partner: value} weak mapping for a paired one."""
    return {fn.__name__: entries for fn, entries in owner._memo.items()}


def full_action_oracle(group, action):
    """Reference action check over all |G|^2 * |X| triples.

    True when `action` (rows of ints, one per group element) is a G-action:
    every row maps into range(|X|), the identity acts trivially, and
    action[g][action[h][x]] == action[g*h][x] for every g, h and x.
    """
    if len(action) != group.order:
        return False
    size = len(action[0])
    if any(len(row) != size or any(not 0 <= x < size for x in row)
           for row in action):
        return False
    if list(action[0]) != list(range(size)):
        return False
    return all(action[g][action[h][x]] == action[group.mul(g, h)][x]
               for g in group.elements() for h in group.elements()
               for x in range(size))


def full_equivariance_oracle(X, Y, mapping):
    """Reference equivariance check over all |G| * |X| pairs (g, x)."""
    if len(mapping) != X.size or any(not 0 <= y < Y.size for y in mapping):
        return False
    return all(mapping[X.act(g, x)] == Y.act(g, mapping[x])
               for g in X.group.elements() for x in range(X.size))


def _checked_route(group, raw):
    """The canonical relabelling of raw action rows by the checked route:
    the rows proven as a `GSet`, `canonicalize`, and the inverse `GMap`."""
    iso = canonicalize(GSet(group, raw))[1]
    return iso, iso.inverse()


def product_reference(X, Y):
    """(raw rows, `ProductData`) of X x Y by the checked route: the oracle
    for the labelling `product` reads off its raw rows."""
    m = Y.size
    raw = [[gx * m + gy for gx in row_x for gy in row_y]
           for row_x, row_y in zip(X.action, Y.action)]
    iso, inv = _checked_route(X.group, raw)
    n = iso.target.size
    pair = tuple(tuple(iso(x * m + y) for y in range(m))
                 for x in range(X.size))
    return raw, ProductData(
        iso.target, GMap(iso.target, X, [inv(p) // m for p in range(n)]),
        GMap(iso.target, Y, [inv(p) % m for p in range(n)]), pair)


def coproduct_reference(X, Y):
    """(raw rows, `CoproductData`) of X + Y by the checked route."""
    raw = [list(row_x) + [X.size + gy for gy in row_y]
           for row_x, row_y in zip(X.action, Y.action)]
    iso, _ = _checked_route(X.group, raw)
    return raw, CoproductData(
        iso.target, GMap(X, iso.target, [iso(x) for x in range(X.size)]),
        GMap(Y, iso.target, [iso(X.size + y) for y in range(Y.size)]))


def pullback_reference(f, g):
    """(raw rows, `PullbackData`) of the fibre product of f and g by the
    checked route, on the pairs (x, y) with f(x) = g(y) in lexicographic
    order."""
    pairs = [(x, y) for x in range(f.source.size)
             for y in range(g.source.size) if f(x) == g(y)]
    index = {p: i for i, p in enumerate(pairs)}
    raw = [[index[(row_x[x], row_y[y])] for (x, y) in pairs]
           for row_x, row_y in zip(f.source.action, g.source.action)]
    iso, inv = _checked_route(f.source.group, raw)
    n = iso.target.size
    return raw, PullbackData(
        iso.target,
        GMap(iso.target, f.source, [pairs[inv(p)][0] for p in range(n)]),
        GMap(iso.target, g.source, [pairs[inv(p)][1] for p in range(n)]))


def transitive_code_oracle(X, Y, L, x, y):
    """`burnside.transitive_code` by brute force: the class c of L and the
    least (g.x, g.y) over every g in G with gLg^-1 the representative of
    c, found by conjugating L by each element."""
    group = X.group
    L = tuple(sorted(L))
    cls = next(cls for cls in group.subgroup_classes()
               if L in cls.conjugates)
    return (cls.index, *min(
        (X.act(g, x), Y.act(g, y)) for g in group.elements()
        if group.conjugate_subgroup(g, L) == cls.representative))


def canonical_over_oracle(group, cidx, z, Ob):
    """`burnside._least_point` by brute force: the least (n.z, n)
    over the normalizer of the class representative, recomputed."""
    rep = group.subgroup_classes()[cidx].representative
    return min((Ob.act(n, z), n) for n in group.normalizer(rep))


def least_under_oracle(Y, S):
    """`burnside._least_under` by brute force: the least s.y over s in S,
    recomputed at every point of Y."""
    return tuple(min(Y.act(s, y) for s in S) for y in range(Y.size))


def hom_basis_walk_oracle(X, Y):
    """`burnside.hom_basis` as it read before its table lookup: for each
    class and each least point x0 of X^L with stabilizer S in N(L), the
    S-orbits on the sorted Y^L, walked with a seen set, give one code
    (c, x0, least point) each."""
    ya, out = Y.action, []
    for c, (fx, fy) in enumerate(zip(X.fixed_orbits, Y.fixed_orbits)):
        for x0, S in fx.orbits.items():
            rows = [ya[s] for s in S]
            seen = set()
            for y in fy.points:
                if y not in seen:
                    out.append((c, x0, y))
                    seen.update(row[y] for row in rows)
    return out


def span_codes_oracle(X, Y, U, left, right):
    """`burnside.span_codes` by `transitive_code_oracle`: one code per
    orbit of U, in order of least point, each orbit and stabilizer found
    by applying every element."""
    out = {}
    seen = set()
    for u in range(U.size):
        if u in seen:
            continue
        seen.update(U.act(g, u) for g in U.group.elements())
        stab = [g for g in U.group.elements() if U.act(g, u) == u]
        code = transitive_code_oracle(X, Y, stab, left(u), right(u))
        out[code] = out.get(code, 0) + 1
    return out


def pullback_compose_oracle(X, Y, Z, c1, c2):
    """Reference composite of basis spans c2 . c1: materialize both spans,
    take the pullback of the middles and read the codes of its orbits."""
    U, ux, uy = materialize_code(X, Y, c1)
    V, vy, vz = materialize_code(Y, Z, c2)
    W = pullback(uy, vy)
    left = compose_maps(ux, W.left)
    right = compose_maps(vz, W.right)
    return span_codes_oracle(X, Z, W.gset, left, right)


def pullback_tensor_oracle(X, Xp, Y, Yp, c1, c2):
    """Reference external product of basis spans c1, c2: the product of the
    materialized middles, mapped into X x X' and Y x Y'."""
    group = X.group
    ps, pt = product(X, Xp), product(Y, Yp)
    U, ux, uy = materialize_code(X, Y, c1)
    V, vx, vy = materialize_code(Xp, Yp, c2)
    n = U.size * V.size
    raw = GSet(group, [[U.act(g, w // V.size) * V.size + V.act(g, w % V.size)
                        for w in range(n)] for g in group.elements()])
    left = GMap(raw, ps.gset, tuple(ps.of_pair(ux(w // V.size), vx(w % V.size))
                                    for w in range(n)))
    right = GMap(raw, pt.gset, tuple(pt.of_pair(uy(w // V.size), vy(w % V.size))
                                     for w in range(n)))
    return span_codes_oracle(ps.gset, pt.gset, raw, left, right)


def structure_span_oracles(group):
    """Every restriction span along A <= B and every conjugation span,
    built as explicit spans with G-set middles: (built, oracle) pairs of
    (name, element) for comparison with the code-level builders."""
    def coset_gset(H):
        cosets = group.left_cosets(H)
        index = {c: i for i, c in enumerate(cosets)}
        return GSet(group, [[index[tuple(sorted(group.mul(g, x) for x in c))]
                             for c in cosets] for g in group.elements()])

    def reps(O):
        out = [None] * O.size
        for g, row in enumerate(O.action):
            if out[row[0]] is None:
                out[row[0]] = g
        return out

    def coset(cidx, g):
        return standard_orbit(group, cidx).action[g][0]

    out = []
    subs = group.subgroups()
    for A in subs:
        for B in subs:
            if not set(A) <= set(B):
                continue
            ca, cb = group.class_index_of(A), group.class_index_of(B)
            OA, OB = standard_orbit(group, ca), standard_orbit(group, cb)
            mid = coset_gset(A)
            ta, tb = group.transport(A), group.transport(B)
            left = GMap(mid, OB, tuple(coset(cb, group.mul(g, group.inv(tb)))
                                       for g in reps(mid)))
            right = GMap(mid, OA, tuple(coset(ca, group.mul(g, group.inv(ta)))
                                        for g in reps(mid)))
            out.append((("res", A, B), res_element(group, A, B),
                        span_element(OB, OA, mid, left, right)))
    for cls in group.subgroup_classes():
        O = standard_orbit(group, cls.index)
        for n in cls.normalizer:
            phi = GMap(O, O, tuple(coset(cls.index, group.mul(g, group.inv(n)))
                                   for g in reps(O)))
            out.append((("conj", cls.index, n),
                        weyl_element(group, cls.index, n),
                        transfer_element(phi)))
    return out


def orbits_oracle(X):
    """Orbits of X as sorted tuples, ordered by minimal point, by a scan of
    every row of the action table."""
    seen = [False] * X.size
    out = []
    for x in range(X.size):
        if not seen[x]:
            orb = sorted({row[x] for row in X.action})
            for y in orb:
                seen[y] = True
            out.append(tuple(orb))
    return out


def eval_span_oracle(M, e):
    """M(e) with every orbit, stabilizer and transporter re-derived per code
    and nothing cached: the evaluator before G-sets carried an orbit index."""
    group = M.group
    classes = group.subgroup_classes()
    X, Y = e.source, e.target

    def blocks(Z):
        out, offset = [], 0
        for o in orbits_oracle(Z):
            stab = Z.stabilizer(o[0])
            cidx = group.class_index_of(stab)
            out.append((o, stab, cidx, offset))
            offset += M.levels[cidx].generator_count
        return out, offset

    bxs, nx = blocks(X)
    bys, ny = blocks(Y)
    out = intmat.zeros(ny, nx)
    for (cidx, x, y), coeff in e.coeffs.items():
        L = classes[cidx].representative
        orbx, stabx, cx, offx = next(b for b in bxs if x in b[0])
        orby, staby, cy, offy = next(b for b in bys if y in b[0])
        a = next(g for g in group.elements() if X.act(g, orbx[0]) == x)
        b = next(g for g in group.elements() if Y.act(g, orby[0]) == y)
        h = group.mul(a, group.inv(group.transport(stabx)))
        k = group.mul(b, group.inv(group.transport(staby)))
        A2 = group.conjugate_subgroup(group.inv(h), L)
        B2 = group.conjugate_subgroup(group.inv(k), L)
        left = M.conj_mat(h, A2) @ M.res_mat(A2, classes[cx].representative)
        right = (M.tr_mat(B2, classes[cy].representative)
                 @ M.conj_mat(group.inv(k), L))
        block = right @ left
        rows, cols = block.shape
        out[offy:offy + rows, offx:offx + cols] += coeff * block
    return out


def span_functoriality_oracle(M):
    """Exhaustive span-level check that M's data is a functor on spans.

    Checks that evaluation sends every conjugation and every covering
    restriction and transfer span to M's own structure matrix, preserves
    identities, and preserves every composite of two basis spans between
    standard orbits.  Returns the number of basis-span pairs; raises
    ValueError naming the first failure.
    """
    group = M.group
    classes = group.subgroup_classes()

    def check(lhs, rhs, src, tgt, what):
        if not maps_equal(lhs, rhs, src, tgt):
            raise ValueError(f"functoriality fails: {what}")

    for cls in classes:
        c = cls.index
        for n in cls.normalizer:
            check(M.eval_span(weyl_element(group, c, n)), M.weyl[c][n],
                  M.levels[c], M.levels[c], f"conjugation by {n} at {c}")
    for (A, B) in group.covering_pairs:
        la = M.levels[group.class_index_of(A)]
        lb = M.levels[group.class_index_of(B)]
        check(M.eval_span(res_element(group, A, B)), M.res_mat(A, B), lb, la,
              f"restriction at {A} < {B}")
        check(M.eval_span(tr_element(group, A, B)), M.tr_mat(A, B), la, lb,
              f"transfer at {A} < {B}")
    orbs = [standard_orbit(group, c.index) for c in classes]
    pairs = 0
    for X in orbs:
        gx, _ = M.value_at(X)
        check(M.eval_span(identity_element(X)),
              im.identity(gx.generator_count), gx, gx, f"identity of {X}")
        for Y in orbs:
            for code_s in hom_basis(X, Y):
                s = basis_element(X, Y, code_s)
                eval_s = M.eval_span(s)
                for Z in orbs:
                    gz, _ = M.value_at(Z)
                    for code_t in hom_basis(Y, Z):
                        t = basis_element(Y, Z, code_t)
                        pairs += 1
                        check(M.eval_span(compose(t, s)),
                              M.eval_span(t) @ eval_s, gx, gz,
                              f"spans {code_s} ; {code_t}")
    return pairs


def representable_span_action(X):
    """The span action A_X is built from: e applied to each basis span
    X -> e.source by composition, read in the basis of X -> e.target.
    Its value on a conjugation span is the matrix a functor stored for
    every normalizer element before conjugation was stored on generators."""
    def action(e):
        src, tgt = hom_basis(X, e.source), hom_basis(X, e.target)
        out = intmat.zeros(len(tgt), len(src))
        for j, code in enumerate(src):
            image = compose(e, basis_element(X, e.source, code))
            for c, v in image.coeffs.items():
                out[tgt.index(c), j] += v
        return out
    return action


def derived_conjugation_oracle(M, action=None):
    """Every derived conjugation matrix against span evaluation.

    For every class c and every n in N(H_c), M.weyl[c][n], a product of
    the stored generator matrices `conj`, must equal M.eval_span of the
    conjugation span weyl_element(c, n) modulo the level's relations, and
    so must action(weyl_element(c, n)) when the span action M was built
    from is given.  Returns the number of elements checked; raises
    AssertionError naming the first mismatch.
    """
    group = M.group
    checked = 0
    for cls in group.subgroup_classes():
        c, lvl = cls.index, M.levels[cls.index]
        for n in cls.normalizer:
            e = weyl_element(group, c, n)
            for ref in [M.eval_span(e)] + ([action(e)] if action else []):
                assert maps_equal(M.weyl[c][n], ref, lvl, lvl), (cls.label, n)
            checked += 1
    return checked


def exhaustive_functoriality_oracle(M):
    """The Mackey-algebra relations on every subgroup and group element.

    The reference for `MackeyFunctor.validate_functoriality`, which checks
    a generating set of these: conjugation is a homomorphism on all of each
    N(H), every element of H acts trivially, transitivity at every covering
    step, conjugation commutes with res and tr at every covering pair and
    every g, and the double-coset formula for every L and H, K <= L.
    Returns {relation: cells checked}, every relation listed, and raises
    ValueError like the validator.
    """
    group = M.group
    subs = group.subgroups()
    counts = dict.fromkeys((
        "inner conjugation is trivial", "conjugation is a homomorphism",
        "conjugation commutes with restriction",
        "conjugation commutes with transfer", "transitivity of restriction",
        "transitivity of transfer", "double-coset formula"), 0)

    def check(lhs, rhs, src, tgt, relation, where):
        counts[relation] += 1
        if not abgroups.maps_equal(lhs, rhs, M.levels[src],
                                   M.levels[tgt]):
            raise ValueError(f"functoriality fails: {relation} at {where}")

    for cls in group.subgroup_classes():
        c, w = cls.index, M.weyl[cls.index]
        ident = intmat.identity(M.levels[c].generator_count)
        for h in cls.representative:
            check(w[h], ident, c, c, "inner conjugation is trivial",
                  f"{h} in {cls.representative}")
        for a in cls.normalizer:
            for b in cls.normalizer:
                check(w[a] @ w[b], w[group.mul(a, b)], c, c,
                      "conjugation is a homomorphism",
                      f"{a}*{b} on {cls.representative}")
    cidx = group.class_index_of
    for (C, B) in group.covering_pairs:
        r, t = M.cover_mats(C, B)
        for A in subs:
            if not set(A) < set(C) or group.maximal_under(A, B) == C:
                continue
            where = f"{A} < {C} < {B}"
            check(M.res_mat(A, C) @ r, M.res_mat(A, B), cidx(B),
                  cidx(A), "transitivity of restriction", where)
            check(t @ M.tr_mat(A, C), M.tr_mat(A, B), cidx(A),
                  cidx(B), "transitivity of transfer", where)
        for g in group.elements():
            gC, gB = (group.conjugate_subgroup(g, H) for H in (C, B))
            rg, tg = M.cover_mats(gC, gB)
            where = f"{g} on {C} < {B}"
            check(M.conj_mat(g, C) @ r, rg @ M.conj_mat(g, B),
                  cidx(B), cidx(C), "conjugation commutes with restriction",
                  where)
            check(M.conj_mat(g, B) @ t, tg @ M.conj_mat(g, C),
                  cidx(C), cidx(B), "conjugation commutes with transfer",
                  where)
    for L in subs:
        inside = [H for H in subs if set(H) <= set(L)]
        for H in inside:
            for K in inside:
                rhs = intmat.zeros(M._gens(H), M._gens(K))
                for x in _double_coset_reps(group, H, L, K):
                    D = tuple(sorted(set(group.conjugate_subgroup(
                        group.inv(x), H)) & set(K)))
                    rhs = rhs + M.tr_mat(group.conjugate_subgroup(x, D),
                                         H) \
                        @ M.conj_mat(x, D) @ M.res_mat(D, K)
                check(M.res_mat(H, L) @ M.tr_mat(K, L), rhs, cidx(K),
                      cidx(H), "double-coset formula",
                      f"res^{L}_{H} tr^{L}_{K}")
    return counts


def _double_coset_reps(group, H, L, K):
    """Minimal representatives of the double cosets H x K inside L."""
    covered, reps = set(), []
    for x in L:
        if x not in covered:
            reps.append(x)
            covered.update(group.mul(group.mul(h, x), k) for h in H for k in K)
    return reps


def gmodule_hom_group(group, M, V, act):
    """G-module maps M(G/e) -> V as a presented group.

    Independent oracle for the Borel adjunction: solves the equivariance
    conditions directly, one slack block per vector congruence.
    """
    lvl = M.levels[0]
    n_src = lvl.generator_count
    n_tgt = V.generator_count
    weyl = M.weyl[0]
    total = n_src * n_tgt

    def entry(i, j):
        return i * n_src + j

    blocks = []   # each block: list of n_tgt rows ({var: coeff})
    rel_src = lvl.relation_lattice
    for r in range(rel_src.shape[1]):
        rows = []
        for i in range(n_tgt):
            rows.append({entry(i, j): int(rel_src[j, r])
                         for j in range(n_src) if rel_src[j, r]})
        blocks.append(rows)
    for g in group.elements():
        for j in range(n_src):
            rows = []
            for i in range(n_tgt):
                row = {}
                for k in range(n_src):
                    if weyl[g][k, j]:
                        row[entry(i, k)] = row.get(entry(i, k), 0) + \
                            int(weyl[g][k, j])
                for k in range(n_tgt):
                    if act[g][i, k]:
                        row[entry(k, j)] = row.get(entry(k, j), 0) - \
                            int(act[g][i, k])
                rows.append(row)
            blocks.append(rows)
    relV = V.relation_lattice
    nslack = relV.shape[1]
    big = im.zeros(len(blocks) * n_tgt, total + len(blocks) * nslack)
    for bix, rows in enumerate(blocks):
        for i, row in enumerate(rows):
            r = bix * n_tgt + i
            for var, cf in row.items():
                big[r, var] += cf
            for s in range(nslack):
                big[r, total + bix * nslack + s] = relV[i, s]
    ker = im.kernel(big)
    lat = im.hermite_normal_form(ker[:total, :])
    zero_cols = []
    for j in range(n_src):
        for r in range(nslack):
            v = im.zero_vec(total)
            for i in range(n_tgt):
                v[entry(i, j)] = relV[i, r]
            zero_cols.append(v)
    zl = im.from_cols(zero_cols, total)
    rels = im.preimage_lattice(lat, zl)
    return FinPresAbGroup(lat.shape[1], rels.T)


def brute_force_borel_level(group, V, act, H):
    """Limit over free orbits mapping to G/H: equivariant point families."""
    O = standard_orbit(group, group.class_index_of(H))
    n = V.generator_count
    npts = O.size
    rel = V.relation_lattice
    rows = []
    # family (v_p) with v_{u.q} = act(u) v_q for all u, q
    for q in range(npts):
        for u in group.elements():
            p = O.act(u, q)
            for i in range(n):
                row = [0] * (n * npts)
                row[p * n + i] += 1
                for j in range(n):
                    if act[u][i, j]:
                        row[q * n + j] -= int(act[u][i, j])
                rows.append(row)
    big = im.intmat(rows, n * npts)
    nrows = big.shape[0]
    slack = im.block_diag([rel] * nrows) if rel.shape[1] else \
        im.zeros(nrows, 0)
    stacked = im.hstack([big, -slack]) if slack.shape[1] else big
    ker = im.kernel(stacked)
    fam = im.hermite_normal_form(ker[:n * npts, :])
    relfull = im.block_diag([rel] * npts) if rel.shape[1] else \
        im.zeros(n * npts, 0)
    rels = im.preimage_lattice(fam, relfull)
    return FinPresAbGroup(fam.shape[1], rels.T)


def fixed_point_by_cosets(group, V, act):
    """FP(V) with its structure maps built by hand, as `fixed_point_mackey`
    built them before it went through `mackey_from_gmaps`: res through the
    transports of both subgroups, tr as the sum over a transversal of B/A,
    and conjugation by n as act[n], each restricted to the fixed
    sublattices.  `act` is trusted."""
    n = V.generator_count
    ident, rel = im.identity(n), V.relation_lattice
    bases, levels = [], []
    for cls in group.subgroup_classes():
        H = cls.representative
        lat = ident
        if len(H) > 1:
            stacked = im.vstack([act[h] - ident for h in H if h != 0])
            big_rel = im.block_diag([rel] * (len(H) - 1)) if rel.shape[1] \
                else im.zeros(stacked.shape[0], 0)
            lat = im.preimage_lattice(stacked, big_rel)
        grp, basis = abgroups.subgroup_from_lattice(lat, V)
        bases.append(basis)
        levels.append(grp)
    fixed = _Coordinates(bases, [V] * len(levels))

    def on_fixed(mat, c_src, c_tgt):
        return fixed.restrict(mat, c_src, c_tgt, "not fixed")

    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        tA, tB = group.transport(A), group.transport(B)
        res[(A, B)] = on_fixed(act[tA] @ act[group.inv(tB)], cb, ca)
        cos_sum = sum((act[x] for x in group._left_cosets_in(B, A)[1]),
                      im.zeros(n, n))
        tr[(A, B)] = on_fixed(act[tB] @ cos_sum @ act[group.inv(tA)], ca, cb)
    conj = [{s: on_fixed(act[s], cls.index, cls.index)
             for s in cls.normalizer_generators}
            for cls in group.subgroup_classes()]
    return MackeyFunctor(group, levels, res, tr, conj, name="FP by cosets",
                         check=False)


# -- box-level Green validation ------------------------------------------------------


def action_from_tables(data, target, tables):
    """The map out of the presented box `data` that is the transfer of the
    level products.

    `tables[c][i][j]` is the level product e_i . e_j in target(G/H_c) of
    generator i of M and generator j of N, `data` = box(M, N).  A generator
    (code, i, j) of the box goes to the transfer along code of
    tables[class of code][i][j].
    """
    group = target.group
    mats = []
    for c in range(len(group.subgroup_classes())):
        X = standard_orbit(group, c)
        push = {code: target.eval_span(basis_element(
                    standard_orbit(group, code[0]), X,
                    (code[0], 0, code[1])))
                for code in data.starts[c]}
        cols = [push[code] @ tables[code[0]][i][j]
                for code, i, j in data.generators(c)]
        mats.append(intmat.from_cols(cols, target.levels[c].generator_count))
    return MackeyMorphism(data.functor, target, mats, check=False)


def green_morphisms(G):
    """(mult, unit): the monoid R box R -> R, A_pt -> R that G stores as
    level tables and a one-point unit.

    mult is the transfer of the level products on the presented box(R, R),
    and unit the Yoneda extension of G.unit.
    """
    R = G.underlying
    mult = action_from_tables(box(R, R), R, G.tables)
    unit, _A = yoneda_element(R, point_gset(G.group), G.unit)
    return mult, unit


def box_validate_green(G):
    """Exact associativity/commutativity/unit squares plus Frobenius.

    Raises GreenValidationError naming the first failing axiom and cell.
    """
    R = G.underlying
    mult, unit = green_morphisms(G)

    # commutativity: mult . comm = mult
    comm = box_comm_iso(R, R)
    if not compose_morphisms(mult, comm).equals(mult):
        raise GreenValidationError("multiplication is not commutative")

    # unit square: mult . (unit box id) = unit isomorphism
    eps, _data = box_unit_iso(R)
    u_boxed = box_map(unit, identity_morphism(R))
    if not compose_morphisms(mult, u_boxed).equals(eps):
        raise GreenValidationError("unit law fails")

    # associativity through the associator witness
    f, _g = box_assoc_iso(R, R, R)
    path1 = compose_morphisms(mult, box_map(mult, identity_morphism(R)))
    path2 = compose_morphisms(
        mult, compose_morphisms(box_map(identity_morphism(R), mult), f))
    if not path1.equals(path2):
        raise GreenValidationError("multiplication is not associative")

    # levelwise: restriction is a ring map; Frobenius reciprocity
    _box_validate_levelwise(G)


def _box_validate_levelwise(G):
    R = G.underlying
    group = G.group
    for (A, B) in group.covering_pairs:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        res = R.res_mat(A, B)
        tr = R.tr_mat(A, B)
        la, lb = R.levels[ca], R.levels[cb]
        nb, na = lb.generator_count, la.generator_count
        for i in range(nb):
            xi = intmat.zero_vec(nb)
            xi[i] = 1
            for j in range(nb):
                yj = intmat.zero_vec(nb)
                yj[j] = 1
                lhs = res @ G.level_product(cb, xi, yj)
                rhs = G.level_product(ca, res @ xi, res @ yj)
                if not la.elements_equal(lhs, rhs):
                    raise GreenValidationError(
                        f"restriction is not a ring map at {A}<{B}, "
                        f"cell ({i},{j})")
        if not la.elements_equal(res @ G.level_unit(cb), G.level_unit(ca)):
            raise GreenValidationError(
                f"restriction does not preserve the unit at {A}<{B}")
        # Frobenius: tr(x . res(y)) = tr(x) . y
        for i in range(na):
            xi = intmat.zero_vec(na)
            xi[i] = 1
            for j in range(nb):
                yj = intmat.zero_vec(nb)
                yj[j] = 1
                lhs = tr @ G.level_product(ca, xi, res @ yj)
                rhs = G.level_product(cb, tr @ xi, yj)
                if not lb.elements_equal(lhs, rhs):
                    raise GreenValidationError(
                        f"Frobenius reciprocity fails at {A}<{B}, "
                        f"cell ({i},{j})")


def dense_smith_oracle(A):
    """Dense Smith normal form with transforms, the oracle for
    `intmat.smith_normal_form`, whose sparse elimination performs the same
    operations in the same order and so must return the same matrices.

    Returns (S, D, T, Sinv, Tinv) with A = S @ D @ T, where S and T are
    unimodular, D is diagonal with nonnegative entries d_1 | d_2 | ...
    `smith_normal_form` returns (S, D, Sinv, Tinv), the same factors
    without T; T stays here, where it shows that Tinv is unimodular.
    The elimination runs on plain Python lists; object-dtype numpy access
    is far too slow for the inner loops.

    An input already in Smith form (nonzeros only at (t, t), nonnegative,
    each dividing the next, so zeros come last) returns
    (I_m, A, I_n, I_m, I_n) without elimination.  That is exactly what the
    elimination would return: at every step the pivot search picks (t, t),
    since d_t is the first nonzero of least size in what remains, and the
    row, column and divisibility passes find nothing to clear, so nothing
    is swapped, added or negated.
    """
    A = im.intmat(A)
    m, n = A.shape
    D = [list(map(int, r)) for r in A.tolist()]
    diag = [D[t][t] for t in range(min(m, n))]
    if (np.count_nonzero(A) == sum(1 for d in diag if d)
            and all(d >= 0 for d in diag)
            and all(b % a == 0 if a else b == 0
                    for a, b in zip(diag, diag[1:]))):
        return (im.identity(m), im._from_lists(D, m, n), im.identity(n),
                im.identity(m), im.identity(n))
    S = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Sinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # Elementary operations on D, mirrored so A = S @ D @ T stays true.
    def row_add(i, j, k):  # row_i += k * row_j
        Di, Dj = D[i], D[j]
        for c in range(n):
            if Dj[c]:
                Di[c] += k * Dj[c]
        for r in range(m):
            Sr = S[r]
            if Sr[i]:
                Sr[j] -= k * Sr[i]
        Si, Sj = Sinv[i], Sinv[j]
        for c in range(m):
            if Sj[c]:
                Si[c] += k * Sj[c]

    def col_add(j, i, k):  # col_j += k * col_i
        for r in range(m):
            Dr = D[r]
            if Dr[i]:
                Dr[j] += k * Dr[i]
        Ti, Tj = T[i], T[j]
        for c in range(n):
            if Tj[c]:
                Ti[c] -= k * Tj[c]
        for r in range(n):
            Tr = Tinv[r]
            if Tr[i]:
                Tr[j] += k * Tr[i]

    def row_swap(i, j):
        if i == j:
            return
        D[i], D[j] = D[j], D[i]
        Sinv[i], Sinv[j] = Sinv[j], Sinv[i]
        for r in range(m):
            Sr = S[r]
            Sr[i], Sr[j] = Sr[j], Sr[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in range(m):
            Dr = D[r]
            Dr[i], Dr[j] = Dr[j], Dr[i]
        T[i], T[j] = T[j], T[i]
        for r in range(n):
            Tr = Tinv[r]
            Tr[i], Tr[j] = Tr[j], Tr[i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        Sinv[i] = [-x for x in Sinv[i]]
        for r in range(m):
            S[r][i] = -S[r][i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Pick a nonzero pivot of small magnitude; a unit ends the search.
        piv = None
        best = None
        for i in range(t, m):
            Di = D[i]
            for j in range(t, n):
                v = Di[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    if q:
                        row_add(i, t, -q)
                    if D[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    if q:
                        col_add(j, t, -q)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Force divisibility of the remaining block by the pivot.
            if D[t][t] != 1 and D[t][t] != -1:
                stain = None
                dtt = D[t][t]
                for i in range(t + 1, m):
                    Di = D[i]
                    for j in range(t + 1, n):
                        if Di[j] % dtt:
                            stain = i
                            break
                    if stain is not None:
                        break
                if stain is not None:
                    row_add(t, stain, 1)
                    continue
            break
        if D[t][t] < 0:
            row_negate(t)
        t += 1

    return (im._from_lists(S, m, m), im._from_lists(D, m, n),
            im._from_lists(T, n, n), im._from_lists(Sinv, m, m),
            im._from_lists(Tinv, n, n))


def dense_solve_oracle(A, b):
    """One integer solution of A @ x = b from the dense Smith factors, or None.

    x = Tinv @ y with D @ y = Sinv @ b, every product dense.
    """
    _, D, _, Sinv, Tinv = dense_smith_oracle(A)
    m, n = D.shape
    c = Sinv @ np.asarray(b, dtype=object)
    y = im.zero_vec(n)
    for i in range(m):
        d = D[i, i] if i < min(m, n) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return Tinv @ y


def dense_free(n):
    """Z^n holding its identity projection and section as dense arrays.

    The oracle for the implicit identity of relator-free groups: the same
    canonical data, read through the general (presented) code paths.
    """
    return FinPresAbGroup._assembled(im.zeros(n, 0), im.identity(n),
                                     im.identity(n), [0] * n)


def assert_same_group(G, H):
    """Equal generators, relations, minimal presentation (projection,
    section and non-unit Smith entries), entry for entry."""
    assert G.generator_count == H.generator_count
    eye = im.identity(G.generator_count)    # what None stands for
    for a, b in ((G.relation_lattice, H.relation_lattice),
                 (G.relations, H.relations),
                 (G._proj if G._proj is not None else eye,
                  H._proj if H._proj is not None else eye),
                 (G._sect if G._sect is not None else eye,
                  H._sect if H._sect is not None else eye)):
        assert a.dtype == b.dtype == object
        assert im.mats_equal(a, b)
    assert G._diag == H._diag


def smith_slice(G):
    """(diag, U, Uinv) of G from `smith_normal_form`: the Smith diagonal,
    padded with 0 to the generator count, and the row transform with its
    inverse (the identity for a relator-free group)."""
    n = G.generator_count
    if G.relation_lattice.shape[1] == 0:
        return [0] * n, im.identity(n), im.identity(n)
    S, D, Sinv, _ = im.smith_normal_form(G.relation_lattice)
    return [D[i, i] if i < min(D.shape) else 0 for i in range(n)], Sinv, S


# -- the box product through spans and G-sets ----------------------------------------


def mackey_from_span_action(group, levels, action, name=None, check=True):
    """`mackey_from_gmaps` for a functor given on Burnside elements:
    `action(e)` is its matrix on e between standard orbits."""
    return mackey_from_gmaps(
        group, levels, lambda f, transfer: action(
            transfer_element(f) if transfer else restriction_element(f)),
        name=name, check=check)


def _oracle_struct_gmap(X, code):
    """The structure map ORB(class) -> X of an over-code, as a GMap."""
    cidx, x = code
    group = X.group
    O = standard_orbit(group, cidx)
    reps = [c[0] for c in group.left_cosets(
        group.subgroup_classes()[cidx].representative)]
    return GMap(O, X, tuple(X.act(g, x) for g in reps))


def _oracle_over_maps(X, code_src, code_tgt):
    """Equivariant maps between transitive over-objects of X, as GMaps."""
    group = X.group
    Op = standard_orbit(group, code_src[0])
    O = standard_orbit(group, code_tgt[0])
    Lp = group.subgroup_classes()[code_src[0]].representative
    sp = _oracle_struct_gmap(X, code_src)
    sc = _oracle_struct_gmap(X, code_tgt)
    reps = [c[0] for c in group.left_cosets(Lp)]
    return [GMap(Op, O, tuple(O.act(g, q) for g in reps))
            for q in fixed_points(O, Lp) if sc(q) == sp(0)]


def _oracle_level_presentation(M, N, X):
    """(M box N)(X): coend relations from transfer and restriction spans
    evaluated on every over-map, one dense row at a time."""
    codes = over_codes(X)
    layout, gens = {}, 0
    for c in codes:
        for i in range(M.levels[c[0]].generator_count):
            for j in range(N.levels[c[0]].generator_count):
                layout[(c, i, j)] = gens
                gens += 1
    rows = set()

    def add_row(entries):
        row = [0] * gens
        for idx, v in entries.items():
            row[idx] += v
        if any(row):
            rows.add(tuple(row))

    for c in codes:
        relM = M.levels[c[0]].relation_lattice
        relN = N.levels[c[0]].relation_lattice
        nM, nN = relM.shape[0], relN.shape[0]
        for r in range(relM.shape[1]):
            for j in range(nN):
                add_row({layout[(c, i, j)]: relM[i, r]
                         for i in range(nM) if relM[i, r] != 0})
        for r in range(relN.shape[1]):
            for i in range(nM):
                add_row({layout[(c, i, j)]: relN[j, r]
                         for j in range(nN) if relN[j, r] != 0})
    for cp in codes:
        for c in codes:
            for phi in _oracle_over_maps(X, cp, c):
                trM = M.eval_span(transfer_element(phi))
                rsM = M.eval_span(restriction_element(phi))
                trN = N.eval_span(transfer_element(phi))
                rsN = N.eval_span(restriction_element(phi))
                nMp, nNp = trM.shape[1], trN.shape[1]
                nM, nN = trM.shape[0], trN.shape[0]
                for ip in range(nMp):
                    for j in range(nN):
                        entries = {}
                        for a in range(nM):
                            if trM[a, ip]:
                                k = layout[(c, a, j)]
                                entries[k] = entries.get(k, 0) + trM[a, ip]
                        for b in range(nNp):
                            if rsN[b, j]:
                                k = layout[(cp, ip, b)]
                                entries[k] = entries.get(k, 0) - rsN[b, j]
                        add_row(entries)
                for i in range(nM):
                    for jp in range(nNp):
                        entries = {}
                        for b in range(nN):
                            if trN[b, jp]:
                                k = layout[(c, i, b)]
                                entries[k] = entries.get(k, 0) + trN[b, jp]
                        for a in range(nMp):
                            if rsM[a, i]:
                                k = layout[(cp, a, jp)]
                                entries[k] = entries.get(k, 0) - rsM[a, i]
                        add_row(entries)
    return codes, layout, FinPresAbGroup(gens, intmat.intmat(sorted(rows), gens))


def _oracle_struct_span(X, code):
    """Span product(O_L, O_L) => X with legs (diagonal, structure map)."""
    O = standard_orbit(X.group, code[0])
    P = product(O, O)
    diag = GMap(O, P.gset, tuple(P.of_pair(w, w) for w in range(O.size)))
    return span_element(P.gset, X, O, diag, _oracle_struct_gmap(X, code))


def box_oracle(M, N):
    """M box N by composing every structure span with the over-code spans
    and pairing through materialized G-sets: the box before the Mackey
    formula on over-codes.  Returns the functor."""
    group = M.group
    codes, layouts, levels = [], [], []
    for cls in group.subgroup_classes():
        c, lay, grp = _oracle_level_presentation(
            M, N, standard_orbit(group, cls.index))
        codes.append(c)
        layouts.append(lay)
        levels.append(grp)

    def entry_matrix(e):
        c_src = e.source.orbit_index.classes[0]
        c_tgt = e.target.orbit_index.classes[0]
        cols = [None] * levels[c_src].generator_count
        for code in codes[c_src]:
            O = standard_orbit(group, code[0])
            terms = _pairing_terms(M, N, layouts, levels, O, O,
                                   compose(e, _oracle_struct_span(e.source,
                                                                  code)))
            for i in range(M.levels[code[0]].generator_count):
                for j in range(N.levels[code[0]].generator_count):
                    col = intmat.zero_vec(levels[c_tgt].generator_count)
                    for (TM, TN, slot) in terms:
                        for aa in range(TM.shape[0]):
                            for bb in range(TN.shape[0]):
                                col[slot(aa, bb)] += TM[aa, i] * TN[bb, j]
                    cols[layouts[c_src][(code, i, j)]] = col
        return intmat.from_cols(cols, levels[c_tgt].generator_count)

    return mackey_from_span_action(group, levels, entry_matrix,
                                   name="box oracle", check=False)


# -- naturality by span evaluation --------------------------------------------------


def natural_by_spans(M, N, mats):
    """Is the levelwise family `mats` a natural transformation M -> N?

    Oracle: each U_c must be well defined, and U_{c'} M(e) = N(e) U_c
    modulo N's relations for every basis span e in
    hom_basis(G/H_c, G/H_{c'}), with M(e) and N(e) read through
    `eval_span`; no stored res, tr or conj matrix is read directly.
    """
    group = M.group
    orbits = [standard_orbit(group, c) for c in range(len(M.levels))]
    if not all(abgroups.map_is_welldefined(U, M.levels[c], N.levels[c])
               for c, U in enumerate(mats)):
        return False
    for c, S in enumerate(orbits):
        for d, T in enumerate(orbits):
            for code in hom_basis(S, T):
                e = basis_element(S, T, code)
                if not maps_equal(mats[d] @ M.eval_span(e),
                                  N.eval_span(e) @ mats[c],
                                  M.levels[c], N.levels[d]):
                    return False
    return True


# -- R-linear maps, checked at every over-code --------------------------------------


def hom_modules_oracle(P, M):
    """hom_{R-mod}(P, M) with R-linearity imposed at every over-code.

    Each action is the map R box P -> P that `action_from_tables` builds
    on the presented box, and a natural phi must satisfy
    phi . act_P = act_M . (id box phi) on every generator (code, i, j),
    not only at the diagonal over-code as `hom_modules` imposes it.
    """
    R = P.ring.underlying
    data_P, data_M = box(R, P.underlying), box(R, M.underlying)
    actP = action_from_tables(data_P, P.underlying, P.tables).mats
    actM = action_from_tables(data_M, M.underlying, M.tables).mats
    solver = NatSolver(P.underlying, M.underlying)
    for c, starts in enumerate(data_P.starts):
        for code in starts:
            cw = code[0]
            nP, nM = (F.levels[cw].generator_count
                      for F in (P.underlying, M.underlying))
            for i in range(R.levels[cw].generator_count):
                # phi . act_P = act_M . (id box phi) on the generators
                # (code, i, j) of R box P, for every j at once
                gammas = [data_P.index(c, code, i, j) for j in range(nP)]
                deltas = [data_M.index(c, code, i, b) for b in range(nM)]
                solver.add_commuting(cw, c, actP[c][:, gammas],
                                     actM[c][:, deltas])
    return solver.solve()


# -- the test-only surface: small constructions no library code calls ------------


def multimap_basis(feet, z):
    """Transitive multimap codes from a tuple of feet into z."""
    return hom_basis(multi_product(feet).gset, z)


def kernel_of_map(M, src, tgt):
    """Kernel of the induced map on quotients, as (grp, incl)."""
    M = intmat.intmat(M, src.generator_count)
    K = intmat.preimage_lattice(M, tgt.relation_lattice)
    return abgroups.subgroup_from_lattice(K, src)


def yoneda_element(M, X, vec):
    """Morphism A_X -> M classified by the element vec of M(X)."""
    group = X.group
    rep = representable(X)
    mats = []
    for c in range(len(group.subgroup_classes())):
        O = standard_orbit(group, c)
        cols = [M.eval_span(basis_element(X, O, code))
                @ np.asarray(vec, dtype=object)
                for code in hom_basis(X, O)]
        mats.append(intmat.from_cols(cols, M.levels[c].generator_count))
    return MackeyMorphism(rep, M, mats, check=False), rep


def identity_element_vector_oracle(X):
    """[id_X] in A_X(X) through a built representable A_X: its value at X
    gives the block offsets, hom_basis(X, G/H_c) the basis of each block,
    and each block holds the restriction along its orbit's embedding."""
    rep = representable(X)
    grp, offsets = rep.value_at(X)
    vec = intmat.zero_vec(grp.generator_count)
    for b, (emb, cidx) in enumerate(zip(X.orbit_embeddings,
                                        X.orbit_index.classes)):
        basis = hom_basis(X, standard_orbit(X.group, cidx))
        for code, v in restriction_element(emb).coeffs.items():
            vec[offsets[b] + basis.index(code)] += v
    return vec


def internal_hom_rep_by_spans(X, M):
    """F(A_X, M) through spans: each res/tr along a structure G-map f is
    M evaluated on id_X (x) e, e the restriction or transfer span of f."""
    group = X.group
    idX = identity_element(X)
    levels = [M.value_at(product(X, standard_orbit(group, cls.index)).gset)[0]
              for cls in group.subgroup_classes()]
    return mackey_from_span_action(
        group, levels, lambda e: M.eval_span(tensor(idX, e)),
        name=f"F(A_X, {M.name})", check=False)


def internal_hom_rep_by_identity(X, M):
    """F(A_X, M) by the earlier route: each res/tr along f: G/A -> G/B is
    M's along id_X x f, built as a checked `GMap` point by point and
    applied to an identity matrix orbit block by orbit block."""
    group = X.group
    levels = [M.value_at(product(X, standard_orbit(group, cls.index)).gset)[0]
              for cls in group.subgroup_classes()]

    def along(f, transfer):
        P, Q = product(X, f.source), product(X, f.target)
        g = GMap(P.gset, Q.gset, [Q.of_pair(x, f.mapping[o]) for x, o in
                                  zip(P.left.mapping, P.right.mapping)])
        n = M.offsets(g.source if transfer else g.target)[-1]
        return M.apply_gmap(g, intmat.identity(n), transfer)

    return mackey_from_gmaps(group, levels, along, name=f"F(A_X, {M.name})",
                             check=False)


def burnside_unit_vector(group):
    """The unit [pt <- pt -> pt] of the Burnside ring A_pt(pt) on its span
    basis, read off identity_element(pt)."""
    pt = point_gset(group)
    basis = hom_basis(pt, pt)
    (code, v), = identity_element(pt).coeffs.items()
    vec = intmat.zero_vec(len(basis))
    vec[basis.index(code)] = v
    return vec


def hom_modules(P, M):
    """R-linear natural transformations P -> M as a HomGroup.

    R-linearity is imposed on the level tables: at every level, phi
    commutes with the action of each generator of R.  The action on a
    generator (code, i, j) of R box P is the transfer along code of a
    level product, and a natural phi commutes with transfer, so this is
    linearity on all of R box P (`hom_modules_oracle` imposes it there).
    """
    if P.ring is not M.ring and P.ring.underlying != M.ring.underlying:
        raise ValueError("modules over different rings")
    solver = NatSolver(P.underlying, M.underlying)
    for c, (tP, tM) in enumerate(zip(P.tables, M.tables)):
        nP = P.underlying.levels[c].generator_count
        nM = M.underlying.levels[c].generator_count
        for rowP, rowM in zip(tP, tM):
            solver.add_commuting(c, c, intmat.from_cols(rowP, nP),
                                 intmat.from_cols(rowM, nM))
    return solver.solve()


# -- box witnesses generator by generator: the route before block formulas -----


def box_comm_oracle(M, N):
    """Levels of the symmetry M box N -> N box M, one column per generator:
    (code, i, j) goes to the generator (code, j, i) of box(N, M)."""
    src, tgt = box(M, N), box(N, M)
    mats = []
    for c, lvl in enumerate(tgt.functor.levels):
        cols = []
        for code, i, j in src.generators(c):
            col = intmat.zero_vec(lvl.generator_count)
            col[tgt.index(c, code, j, i)] = 1
            cols.append(col)
        mats.append(intmat.from_cols(cols, lvl.generator_count))
    return mats


def box_unit_eval_oracle(M, data):
    """Levels of A_pt box M -> M, one column per generator: (code, i, j)
    goes to column j of `_unit_action_block(M, c, code, i)`."""
    mats = []
    for c in range(len(data.starts)):
        blocks, cols = {}, []
        for code, i, j in data.generators(c):
            if (code, i) not in blocks:
                blocks[(code, i)] = _unit_action_block(M, c, code, i)
            cols.append(blocks[(code, i)][:, j])
        mats.append(intmat.from_cols(cols, M.levels[c].generator_count))
    return mats


def box_unit_inverse_oracle(M, data):
    """Levels of M -> A_pt box M, m -> res(1) (x) m, entry by entry: the
    generator (diagonal over-code, a, k) gets coordinate a of res(1) in
    column k, with 1 read off `burnside_unit_vector`."""
    group = M.group
    top = len(group.subgroup_classes()) - 1
    unit = burnside_unit_vector(group)
    mats = []
    for c, lvl in enumerate(data.functor.levels):
        one = _restriction(data.left, top, c, 0) @ unit
        key = (c, 0)
        inv = intmat.zeros(lvl.generator_count, M.levels[c].generator_count)
        for idx, (code, a, k) in enumerate(data.generators(c)):
            if code == key:
                inv[idx, k] = one[a]
        mats.append(inv)
    return mats


# -- Tor through a presented relative box per term: the old route -------------------


def box_map(f, g):
    """The induced morphism f box g on box products (same over-codes).

    Both boxes list the same over-codes, so each level is block diagonal
    over `src.starts`, the block of an over-code the Kronecker product of
    f and g at its class.
    """
    src = box(f.source, g.source)
    tgt = box(f.target, g.target)
    mats = [intmat.block_diag([intmat.kron(f.mats[cw], g.mats[cw])
                               for cw, _x in starts])
            for starts in src.starts]
    return MackeyMorphism(src.functor, tgt.functor, mats, check=False)


def _section(proj):
    """Levels of a right inverse of the surjection `proj` of a RelBox."""
    mats = []
    for c, P in enumerate(proj.mats):
        solver = intmat.Solver(P)
        n = proj.target.levels[c].generator_count
        mats.append(intmat.from_cols(
            [solver.solve(intmat.identity(n)[:, k]) for k in range(n)],
            P.shape[1]))
    return mats


def rel_box_map(src, tgt, phi):
    """Induced map M box_R N -> M box_R N' of RelBoxes from an R-linear
    phi: N -> N', through box_map on the presented boxes."""
    raw = box_map(identity_morphism(src.left.underlying), phi)
    mats = [tgt.projection.mats[c] @ intmat.sparse_mm(raw.mats[c], s)
            for c, s in enumerate(_section(src.projection))]
    return MackeyMorphism(src.functor, tgt.functor, mats, check=False)


def tor_by_rel_boxes(R, M, N, p_max):
    """(complex, witness) of Tor^R(M, N) with a presented rel_box(M, F_p)
    per term and rel_box_map differentials, the route before the Dress
    construction; the witness is H_0 -> rel_box(M, N)."""
    res = module_resolution(R, N, p_max + 1)
    rels = [rel_box(M, F) for F in res.modules]
    C = ChainComplex(R.group, {p: rb.functor for p, rb in enumerate(rels)},
                     {p: rel_box_map(rels[p], rels[p - 1], res.diffs[p - 1])
                      for p in range(1, len(rels))})
    target = rel_box(M, res.target)
    aug = rel_box_map(rels[0], target, res.augmentation)
    H0, incl0, _proj0, sect0 = C.homology_data(0)
    wit = MackeyMorphism(H0, target.functor,
                         [aug.mats[c] @ incl0.mats[c] @ sect0.mats[c]
                          for c in range(len(H0.levels))], check=False)
    return C, wit


# -- the second cover: the walk from G down, with no irredundancy pass -------------


def top_down_cover(M):
    """(F, surj), a free cover of M from the walk over level generators
    from G down to the trivial subgroup, one summand per generator not
    yet in the image of the partial cover, with nothing dropped after the
    walk: a second cover, independent of `module_cover`, that Tor is
    checked against."""
    group = M.group
    ncls = len(group.subgroup_classes())
    images = [lvl.relation_lattice.copy() for lvl in M.underlying.levels]
    slots = []
    for c in range(ncls - 1, -1, -1):
        n = M.underlying.levels[c].generator_count
        for k in range(n):
            ek = intmat.zero_vec(n)
            ek[k] = 1
            if intmat.in_lattice(ek, images[c]):
                continue
            slots.append((c, k))
            phi = _classifying_mats(M, standard_orbit(group, c), ek)
            images = [intmat.lattice_sum(a, b) for a, b in zip(images, phi)]
    return _cover_on_slots(M, slots)


def top_down_resolution(R, M, length):
    """The resolution of M by iterated `top_down_cover` out to `length`,
    or to its first zero kernel; nothing is cached on M."""
    F, last = top_down_cover(M)
    res = Resolution(R, M, [F], [], last)
    while len(res.modules) <= length:
        K, incl = module_kernel(res.modules[-1], last)
        if all(lvl.is_trivial() for lvl in K.underlying.levels):
            break
        F, cover = top_down_cover(K)
        last = compose_morphisms(incl, cover)
        res.diffs.append(last)
        res.modules.append(F)
    return res


def top_down_tor(R, M, N, p_max):
    """Tor_p(M, N) for p <= p_max, assembled as `tor` assembles it, off
    the top-down resolution of N in place of N's cached one."""
    return _tor_of_resolution(M, top_down_resolution(R, N, p_max + 1), p_max)


# -- spectral sequence pages at every entry: the route before zero entries ----------


def ss_pages_oracle(filt, r_max):
    """Pages E_1 .. E_{r_max} with every entry the image formula
    im[H_n(F(p)/F(p-r)) -> H_n(F(p+r-1)/F(p-1))] and every in-window
    differential induced by the connecting morphism, none skipped."""
    degs = filt.steps[-1].degrees()
    nmin, nmax = min(degs), max(degs)
    pmin, pmax = filt.min_index, filt.max_index
    pages = []
    for r in range(1, r_max + 1):
        entries, incls = {}, {}
        for p in range(pmin, pmax + 1):
            for n in range(nmin, nmax + 1):
                Q1 = quotient_complex(filt, p, p - r)
                Q2 = quotient_complex(filt, p + r - 1, p - 1)
                u = {m: MackeyMorphism(Q1.term(m), Q2.term(m),
                                       filt.inclusion(p, p + r - 1, m).mats,
                                       check=False) for m in Q1.degrees()}
                entries[(p, n - p)], incls[(p, n - p)] = image(
                    complex_map_homology(Q1, Q2, u, n))
        diffs = {}
        for (p, q), incl in incls.items():
            target = (p - r, q + r - 1)
            if target in incls:
                lift = compose_morphisms(_connecting(filt, r, p, p + q), incl)
                diffs[(p, q)] = lift_through_inclusion(incls[target], lift)
        pages.append(SpectralSequencePage(r, entries, diffs,
                                          ((pmin, pmax), (nmin, nmax))))
    return pages


# -- the box pairing along a materialized span ----------------------------------------


def _pairing_terms(M, N, layouts, levels, U, V, e):
    """Twisted evaluation matrices for pairing along e: U x V -> X.

    Yields (TM, TN, slot) per transitive code of e, where the image of
    m (x) n accumulates (TM @ m) outer (TN @ n) at the generator slots
    slot(a, b) of the box value at e.target.  `layouts[c]` maps each
    generator (code, i, j) of the oracle's level c to its index.
    """
    group = M.group
    PD = product(U, V)
    if e.source != PD.gset:
        raise ValueError("pairing element must start at product(U, V)")
    X = e.target
    offs, total = [], 0
    for c in X.orbit_index.classes:
        offs.append(total)
        total += levels[c].generator_count
    inv_embeds = [{emb(w): w for w in range(emb.source.size)}
                  for emb in X.orbit_embeddings]
    ix = X.orbit_index
    out = []
    for code, a in e.coeffs.items():
        cw, _p, y = code
        W, legP, legY = materialize_code(PD.gset, X, code)
        RU = M.eval_span(restriction_element(compose_maps(PD.left, legP)))
        RV = N.eval_span(restriction_element(compose_maps(PD.right, legP)))
        b = ix.orbit_of[y]
        cb = ix.classes[b]
        zstar, u = canonical_over_oracle(group, cw, inv_embeds[b][y],
                                         standard_orbit(group, cb))
        TM = (M.weyl[cw][u] @ RU) * a
        TN = N.weyl[cw][u] @ RV
        lay = layouts[cb]
        offset = offs[b]
        key = (cw, zstar)

        def slot(aa, bb, lay=lay, key=key, offset=offset):
            return offset + lay[(key, aa, bb)]

        out.append((TM, TN, slot))
    return out


# -- level actions by loops over vectors: the route before one array per level ------


def times_oracle(table, x, y, n):
    """x . y from table[i][j] = e_i . e_j, in a level with n generators,
    summed vector by vector over the nonzero coordinates of x and y."""
    out = intmat.zero_vec(n)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    out += xi * yj * table[i][j]
    return out


def rel_box_oracle(M, N):
    """(functor, projection mats) of rel_box(M, N) with one relation column
    per (over-code, m, r, n) generator triple, written into the presented
    box entry by entry."""
    Mk, Nk = M.underlying, N.underlying
    data = box(Mk, Nk)
    levels = []
    for c, lvl in enumerate(data.functor.levels):
        cols = []
        for code in data.starts[c]:
            for rowM, rowN in zip(M.tables[code[0]], N.tables[code[0]]):
                for i, rm in enumerate(rowM):
                    for k, rn in enumerate(rowN):
                        col = intmat.zero_vec(lvl.generator_count)
                        for a, x in enumerate(rm):
                            col[data.index(c, code, a, k)] += x
                        for b, x in enumerate(rn):
                            col[data.index(c, code, i, b)] -= x
                        if not intmat.is_zero(col):
                            cols.append(col)
        levels.append(abgroups.quotient_by_columns(
            lvl, intmat.from_cols(cols, lvl.generator_count)))
    F = data.functor
    Q, _section, projection = minimize_presentation(MackeyFunctor(
        M.group, levels, F.res, F.tr, F.conj, check=False))
    return Q, projection.mats


def assert_level_arrays(ring, M, tables):
    """Each level table of an action of `ring` on M is one object array of
    shape (nR, nM, nM)."""
    assert len(tables) == len(M.levels)
    for T, lr, lm in zip(tables, ring.underlying.levels, M.levels):
        assert isinstance(T, np.ndarray) and T.dtype == object
        assert T.shape == (lr.generator_count,) + (lm.generator_count,) * 2


def is_two_sided_inverse(f, g):
    """g . f and f . g are the identities of f's source and target."""
    return compose_morphisms(g, f).equals(identity_morphism(f.source)) and \
        compose_morphisms(f, g).equals(identity_morphism(f.target))


# -- derived functors carried at construction: the route before first-read maps ------


def eager_carried(M, levels, carry, name):
    """`mackey._carried` with every res, tr and conj matrix carried when
    the functor is built, each matrix m from class c_src to class c_tgt
    replaced by carry(m, c_src, c_tgt)."""
    cidx = M.group.class_index_of
    pairs = [(k, cidx(k[0]), cidx(k[1])) for k in M.res]
    res = {k: carry(M.res[k], cb, ca) for k, ca, cb in pairs}
    tr = {k: carry(M.tr[k], ca, cb) for k, ca, cb in pairs}
    conj = [{n: carry(m, c, c) for n, m in w.items()}
            for c, w in enumerate(M.conj)]
    return MackeyFunctor(M.group, levels, res, tr, conj, name=name,
                         check=False)


def structure_matrices(M):
    """Every stored res, tr and conj matrix of M, keyed by kind and key."""
    out = {("res", k): M.res[k] for k in M.res}
    out.update({("tr", k): M.tr[k] for k in M.tr})
    out.update({("conj", c, n): w[n] for c, w in enumerate(M.conj) for n in w})
    return out


# -- a fresh solver per call: the route before one solver per sublattice -----------


def fresh_coordinates(basis, amb, error):
    """`mackey._coordinates` as it was before `_Coordinates`: coords(vectors),
    the coordinates over the columns of `basis` of vectors of amb in their
    span modulo amb's relations, through a solver built for this call.  A
    vector outside raises ValueError(error)."""
    rel = amb.relation_lattice
    solver = intmat.Solver(intmat.hstack([basis, rel]) if rel.shape[1]
                           else basis)

    def coords(vectors):
        out = []
        for v in vectors:
            sol = solver.solve(v)
            if sol is None:
                raise ValueError(error)
            out.append(sol[:basis.shape[1]])
        return out
    return coords
