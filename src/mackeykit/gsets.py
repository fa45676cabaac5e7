"""Finite G-sets, equivariant maps, and their limit/colimit calculus.

G-sets are stored as explicit action tables, so products, pullbacks and
fixed points are direct set operations.  Every construction relabels its
result into canonical form: a disjoint union of standard orbits (cosets
of subgroup-class representatives) sorted by class.  This makes GSet
equality plain table equality and keeps all downstream span
canonicalization deterministic.  The standard orbits and their unions
are memoized on the group (`groups.owned`), so each dies with it, and
X x Y on X, keyed weakly by Y (`groups.paired`), so it pins neither.

Every orbit table is read off one walk, `_orbit_walk`, over the rows of
a subgroup: `GSet.orbit_index` (through `_orbit_index`, which products,
coproducts and pullbacks also run on their raw rows) walks every row of
G, `GSet.fixed_orbits` the rows n -> action[n^-1] over N(R) on X^R,
`GSet.subgroup_orbits` the rows of each class representative L, and
`burnside._least_under` the rows of S.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .groups import FiniteGroup, _same_group, owned, paired
from .intmat import _labels


@dataclass(frozen=True)
class OrbitIndex:
    """Orbits of a G-set with the data span evaluation reads per orbit.

    Orbit b is `orbits[b]`, sorted, with base point `orbits[b][0]` (its
    minimum); orbits are ordered by base point.  `stabilizers[b]` is the
    stabilizer of the base and `classes[b]` its subgroup-class index.  A
    point x lies in orbit `orbit_of[x]`, and `reach[x]` is the least g with
    g.base = x.
    """
    orbits: tuple
    stabilizers: tuple
    classes: tuple
    orbit_of: tuple
    reach: tuple


@dataclass(frozen=True, slots=True)
class FixedOrbits:
    """The points of a G-set fixed by a class representative R, in orbits.

    `points` is X^R, sorted.  `lead[x1]`, for x1 in X^R, is the least n
    in N(R) carrying x1 to x0 = n.x1, the least point of its N(R)-orbit;
    it is None at the other points of X.  `orbits` maps each such x0, in
    increasing order, to its stabilizer S in N(R), sorted.

    These give each span code by lookup.  The g with gLg^-1 = R are the
    m t for m in N(R), t = transport(L), so the least (g.x, g.y) has first
    entry x0, the least point of the orbit of x1 = t.x, and m.x1 = x0
    exactly for m in the coset S n, n = lead[x1].  So its second entry is
    the least point of the S-orbit of n t.y, which `burnside._least_under`
    tabulates per (G-set, S).  S <= N(R) maps Y^R to itself, so the
    S-orbits on Y^R partition it, and y in Y^R is the least point of its
    S-orbit exactly when that table reads y at y: filtering the sorted
    Y^R by this test yields each least point once, in sorted order.
    """
    points: tuple
    lead: tuple
    orbits: dict


class GSet:
    """A finite set with a validated G-action.

    `action[g][x]` is g·x.  The table is proven to be an action by checking
    that the identity acts trivially and that ρ(g·s) = ρ(g)∘ρ(s) for every
    g in G and every s in `group.generators`.  That is enough: the set of h
    with ρ(g·h) = ρ(g)∘ρ(h) for all g contains the identity and every
    generator, and is closed under right multiplication by a generator, so
    by induction on words it contains every product of generators, which in
    a finite group is every element.
    """

    def __init__(self, group: FiniteGroup, action, name=None):
        action = tuple(_labels(row, f"action[{g}]")
                       for g, row in enumerate(action))
        if len(action) != group.order:
            raise ValueError("action table needs one row per group element")
        size = len(action[0])
        for row in action:
            if len(row) != size:
                raise ValueError("ragged action table")
            if row and not (0 <= min(row) and max(row) < size):
                raise ValueError("action value out of range")
        if action[0] != tuple(range(size)):
            raise ValueError("identity must act as the identity")
        for s in group.generators:
            act_s = action[s]
            for g in range(group.order):
                act_g = action[g]
                act_gs = action[group.table[g][s]]
                if act_gs != tuple(map(act_g.__getitem__, act_s)):
                    x = next(x for x in range(size)
                             if act_g[act_s[x]] != act_gs[x])
                    raise ValueError(f"not a group action at ({g},{s},{x})")
        self.group = group
        self.size = size
        self.action = action
        self.name = name
        self._hash = hash((group, action))
        self._memo = {}

    def act(self, g, x):
        return self.action[g][x]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self.action == other.action

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or f"gset{self.size}"
        return f"GSet({label}, |X|={self.size})"

    @cached_property
    def orbit_index(self):
        """The orbit data of X, derived once: an `OrbitIndex`."""
        return _orbit_index(self.group, self.action, self.size)

    @cached_property
    def fixed_orbits(self):
        """One `FixedOrbits` per subgroup class, by class index, derived once.

        A point is fixed by R when each of `generators` of R fixes it.  The
        walk over N(R) labels the row of n^-1 by n, so the first label
        reaching x1 from x0 is the least n carrying x1 to x0, and the labels
        fixing x0 are its stabilizer in N(R).
        """
        action, inverse, out = self.action, self.group.inverse, []
        for cls in self.group.subgroup_classes():
            points = range(self.size)
            for h in cls.generators:
                row = action[h]
                points = [x for x in points if row[x] == x]
            _, lead, orbits = _orbit_walk(
                self.size, ((n, action[inverse[n]]) for n in cls.normalizer),
                points)
            out.append(FixedOrbits(tuple(points), tuple(lead), orbits))
        return tuple(out)

    @cached_property
    def subgroup_orbits(self):
        """The orbits of each class representative L on X, derived once.

        Entry c has one (b, k, t) per orbit of the representative of class
        c, in order of p, its least point: b = reach[p] carries the base
        point to p, and k and t are the class and `transport` of K, the
        stabilizer of p in L.  The walk over G/M in `burnside` reads them.
        """
        group, action, reach = self.group, self.action, self.orbit_index.reach
        out = []
        for cls in group.subgroup_classes():
            _, _, stabs = _orbit_walk(
                self.size, ((h, action[h]) for h in cls.representative),
                range(self.size))
            out.append(tuple((reach[p], group.class_index_of(K),
                              group.transport(K)) for p, K in stabs.items()))
        return tuple(out)

    @cached_property
    def orbit_embeddings(self):
        """Standard-orbit isomorphisms onto the orbits of X, one per block,
        derived once: a tuple of `GMap`s G/H_c -> X."""
        group, ix = self.group, self.orbit_index
        return tuple(orbit_map(standard_orbit(group, c), self,
                               self.act(group.transport(stab), orbit[0]))
                     for orbit, stab, c in zip(ix.orbits, ix.stabilizers,
                                               ix.classes))

    def orbits(self):
        """Orbits as sorted tuples, ordered by their minimal point."""
        return self.orbit_index.orbits

    def stabilizer(self, x):
        if not 0 <= x < self.size:
            raise ValueError(f"point {x} out of range for {self!r}")
        return tuple(g for g, row in enumerate(self.action) if row[x] == x)

    def orbit_type(self):
        """Multiset of subgroup-class indices, one per orbit, sorted."""
        return tuple(sorted(self.orbit_index.classes))


def _orbit_walk(size, rows, points):
    """(least, first, fixers) for the (label, row) pairs `rows` of a
    subgroup, in label order, on the sorted `points` they preserve: walking
    up, the first point not yet reached is the least of its orbit.  least[x]
    is that point and first[x] the first label carrying it to x (None off
    `points`); fixers maps each least point to the labels fixing it."""
    rows = tuple(rows)
    least, first, fixers = [None] * size, [None] * size, {}
    for x0 in points:
        if least[x0] is None:
            fix = []
            for label, row in rows:
                x = row[x0]
                if least[x] is None:
                    least[x], first[x] = x0, label
                if x == x0:
                    fix.append(label)
            fixers[x0] = tuple(fix)
    return least, first, fixers


def _orbit_index(group, action, size):
    """The `OrbitIndex` of the G-action `action` on range(size): a base is
    a least point, reach the first labels and a stabilizer the fixers."""
    least, reach, stabs = _orbit_walk(size, enumerate(action), range(size))
    number = {base: b for b, base in enumerate(stabs)}
    orbit_of = tuple(number[x] for x in least)
    orbits = [[] for _ in number]
    for x, b in enumerate(orbit_of):
        orbits[b].append(x)
    return OrbitIndex(tuple(map(tuple, orbits)), tuple(stabs.values()),
                      tuple(map(group.class_index_of, stabs.values())),
                      orbit_of, tuple(reach))


class GMap:
    """An equivariant map of G-sets.

    Equivariance, f(s·x) = s·f(x), is checked for every generator s in
    `group.generators`.  That is enough because both actions are already
    proven: if f commutes with g and with s, it commutes with g·s, and in a
    finite group every element is a product of generators.  `orbit_map`
    and `product` build their maps past this check (`_trusted`), on a
    proof of their own.
    """

    def __init__(self, source: GSet, target: GSet, mapping):
        mapping = _labels(mapping, "mapping")
        _same_group(source.group, target.group, "source and target")
        if len(mapping) != source.size:
            raise ValueError("mapping has the wrong length")
        if mapping and not (0 <= min(mapping) and max(mapping) < target.size):
            raise ValueError("mapping value out of range")
        for s in source.group.generators:
            src_s, tgt_s = source.action[s], target.action[s]
            if tuple(map(mapping.__getitem__, src_s)) != \
                    tuple(map(tgt_s.__getitem__, mapping)):
                x = next(x for x in range(source.size)
                         if mapping[src_s[x]] != tgt_s[mapping[x]])
                raise ValueError(f"map is not equivariant at ({s},{x})")
        self.source = source
        self.target = target
        self.mapping = mapping

    @classmethod
    def _trusted(cls, source, target, mapping):
        """The map `mapping`, a tuple, from source to target, unchecked:
        for a caller that holds the proof of equivariance."""
        f = object.__new__(cls)
        f.source, f.target, f.mapping = source, target, mapping
        return f

    def __call__(self, x):
        return self.mapping[x]

    def __eq__(self, other):
        if not isinstance(other, GMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.source, self.target, self.mapping))

    def __repr__(self):
        return f"GMap({self.mapping})"

    def is_bijective(self):
        return sorted(self.mapping) == list(range(self.target.size))

    def inverse(self):
        if not self.is_bijective():
            raise ValueError("map is not bijective")
        inv = [0] * self.target.size
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return GMap(self.target, self.source, inv)


def identity_map(X: GSet) -> GMap:
    return GMap(X, X, range(X.size))


def compose_maps(g: GMap, f: GMap) -> GMap:
    if f.target != g.source:
        raise ValueError("maps are not composable")
    return GMap(f.source, g.target, tuple(g.mapping[f.mapping[x]]
                                          for x in range(f.source.size)))


# -- standard orbits and canonical form ---------------------------------------


@owned
def standard_orbit(group: FiniteGroup, class_index: int) -> GSet:
    """The orbit G/H for the class representative H, on sorted cosets."""
    cls = group.subgroup_classes()[class_index]
    cosets = group.left_cosets(cls.representative)
    index = {c: i for i, c in enumerate(cosets)}
    action = [[index[tuple(sorted(group.mul(g, x) for x in c))] for c in cosets]
              for g in group.elements()]
    return GSet(group, action, name=f"{group.name}/{cls.label}")


def point_gset(group: FiniteGroup) -> GSet:
    """The terminal G-set (one point)."""
    return standard_orbit(group, len(group.subgroup_classes()) - 1)


def coset_index_of(group: FiniteGroup, class_index: int, g: int) -> int:
    """Index of the coset g*H inside the standard orbit of the class.

    Point 0 of the standard orbit is H itself (cosets are sorted by their
    minimal element), so g*H is where g sends it.
    """
    return standard_orbit(group, class_index).action[g][0]


def orbit_map(O: GSet, Y: GSet, y) -> GMap:
    """The G-map gH -> g.y out of a standard orbit O = G/H, for a point y
    of Y fixed by H.

    With g_x = reach[x], x -> g_x.y is equivariant exactly when H, the
    base point's stabilizer, fixes y (g g_x = g_{gx} h with h in H), so
    only that is checked; an h that moves y is named in the ValueError.
    """
    ix = O.orbit_index
    _same_group(O.group, Y.group, "source and target")
    if len(ix.orbits) != 1:
        raise ValueError("source must be a single orbit")
    if not 0 <= y < Y.size:
        raise ValueError("point out of range")
    moved = [h for h in ix.stabilizers[0] if Y.action[h][y] != y]
    if moved:
        raise ValueError(f"map is not equivariant: {moved[0]} fixes the "
                         f"base point but moves {y}")
    return GMap._trusted(O, Y, tuple(Y.action[g][y] for g in ix.reach))


def projection_map(group: FiniteGroup, A, B) -> GMap:
    """The projection G/A -> G/B for A <= B, on standard orbits: gA is the
    coset g tA^-1 of A's class representative, tA = transport(A), so the
    base goes to the coset of tA tB^-1.  A Mackey structure map."""
    A, B = tuple(sorted(A)), tuple(sorted(B))
    if not set(A) <= set(B):
        raise ValueError("A must be contained in B")
    cb = group.class_index_of(B)
    shift = group.mul(group.transport(A), group.inv(group.transport(B)))
    return orbit_map(standard_orbit(group, group.class_index_of(A)),
                     standard_orbit(group, cb),
                     coset_index_of(group, cb, shift))


def translation_map(group: FiniteGroup, class_index: int, n: int) -> GMap:
    """The translation gH -> g n^-1 H of the standard orbit of H, for n in
    N(H), H the class representative.  A Mackey structure map."""
    if n not in group.subgroup_classes()[class_index].normalizer:
        raise ValueError("element does not normalize the representative")
    O = standard_orbit(group, class_index)
    return orbit_map(O, O, coset_index_of(group, class_index, group.inv(n)))


def canonicalize(X: GSet):
    """Canonical form of X plus the witnessing isomorphism X -> canonical.

    The canonical form lists one standard-orbit block per orbit, sorted by
    subgroup class; blocks of equal class keep the order of their original
    minimal points.
    """
    target, mapping = _relabel(X.group, X.orbit_index)
    return target, GMap(X, target, mapping)


def _relabel(group, ix):
    """(canonical union, labels[x] = x's point there) for `OrbitIndex` ix."""
    keyed = sorted(zip(ix.classes, ix.orbits, ix.stabilizers))
    target = disjoint_union_of_orbits(group, tuple(c for c, _, _ in keyed))
    mapping = [0] * len(ix.reach)
    offset = 0
    for cidx, orbit, stab in keyed:
        t_inv = group.inverse[group.transport(stab)]
        std = standard_orbit(group, cidx).action
        # g*base  |->  coset (g * t^{-1}) H0, shifted by the block offset
        for x in orbit:
            mapping[x] = offset + std[group.table[ix.reach[x]][t_inv]][0]
        offset += len(orbit)
    return target, mapping


@owned
def disjoint_union_of_orbits(group: FiniteGroup, classes: tuple) -> GSet:
    """Explicit disjoint union of standard orbits for the given classes;
    one class gives its standard orbit itself, and none the empty G-set."""
    if len(classes) == 1:
        return standard_orbit(group, classes[0])
    blocks = [standard_orbit(group, c) for c in classes]
    action = []
    for g in group.elements():
        row = []
        offset = 0
        for b in blocks:
            row.extend(offset + y for y in b.action[g])
            offset += b.size
        action.append(row)
    return GSet(group, action)


# -- limits and colimits -------------------------------------------------------


@dataclass
class ProductData:
    """X x Y as `product` gives it, fresh on every call: only its right
    leg is built per call, onto the Y passed in."""
    gset: GSet
    left: GMap      # projection onto the first factor
    right: GMap     # projection onto the second factor
    pair_index: tuple  # pair_index[x][y] = point of the product

    def of_pair(self, x, y):
        return self.pair_index[x][y]


def product(X: GSet, Y: GSet) -> ProductData:
    """Cartesian product with the diagonal action, canonically relabelled.

    Read from `_product`, with the right leg's checked mapping put onto
    this Y.
    """
    canon, left, right, pair = _product(X, Y)
    return ProductData(canon, left, GMap._trusted(canon, Y, right), pair)


@paired
def _product(X: GSet, Y: GSet):
    """(canonical union, left leg, right leg's mapping, pair index) of
    X x Y, kept on X and keyed weakly by Y (`groups.paired`): the group
    owns the union and X the left leg, so nothing here pins Y.

    The raw rows send the pair code x|Y| + y to g.x |Y| + g.y.  They are an
    action as they stand, the diagonal one: e acts as the identity on each
    factor, and g.(h.(x, y)) = (gh.x, gh.y) since X and Y are actions.  So
    they are relabelled without a G-set of their own, and the pair index
    and the projections are read off the labels.  The right leg is checked
    as a `GMap` onto Y, so it is equivariant onto any G-set equal to Y.
    """
    _same_group(X.group, Y.group, "the factors")
    group = X.group
    m, n = Y.size, X.size * Y.size
    raw = [[gx * m + gy for gx in row_x for gy in row_y]
           for row_x, row_y in zip(X.action, Y.action)]
    canon, label = _relabel(group, _orbit_index(group, raw, n))
    pair = tuple(tuple(label[x * m:(x + 1) * m]) for x in range(X.size))
    inv = sorted(range(n), key=label.__getitem__)
    return (canon, GMap(canon, X, tuple(p // m for p in inv)),
            GMap(canon, Y, tuple(p % m for p in inv)).mapping, pair)


@dataclass(frozen=True)
class CoproductData:
    gset: GSet
    left: GMap      # injection of the first summand
    right: GMap     # injection of the second summand


def coproduct(X: GSet, Y: GSet) -> CoproductData:
    """Disjoint union, canonically relabelled, with its injections.

    The raw rows are X's rows followed by Y's shifted by |X|.  They are an
    action as they stand, the disjoint union of two: each half is closed
    under every row and acted on as in X or in Y.  So they are relabelled
    without a G-set of their own, and the injections read the labels.
    """
    _same_group(X.group, Y.group, "the summands")
    group = X.group
    raw = [list(row_x) + [X.size + gy for gy in row_y]
           for row_x, row_y in zip(X.action, Y.action)]
    canon, label = _relabel(group, _orbit_index(group, raw, X.size + Y.size))
    left = GMap(X, canon, tuple(label[:X.size]))
    right = GMap(Y, canon, tuple(label[X.size:]))
    return CoproductData(canon, left, right)


@dataclass(frozen=True)
class PullbackData:
    gset: GSet
    left: GMap      # projection to the source of f
    right: GMap     # projection to the source of g


def pullback(f: GMap, g: GMap) -> PullbackData:
    """Fiber product of f and g over their common target.

    The raw rows act on the pairs (x, y) with f(x) = g(y), numbered in
    order, by h.(x, y) = (h.x, h.y).  They are an action as they stand,
    the restriction of the diagonal action on X x Y: f and g are
    equivariant, so f(h.x) = h.f(x) = h.g(y) = g(h.y) and the pairs are
    closed under it.  So they are relabelled without a G-set of their own,
    and the projections read the pair behind each label.
    """
    if f.target != g.target:
        raise ValueError("pullback needs a common target")
    group = f.source.group
    fiber = [[] for _ in range(f.target.size)]
    for y, t in enumerate(g.mapping):
        fiber[t].append(y)
    pairs = [(x, y) for x, t in enumerate(f.mapping) for y in fiber[t]]
    index = {p: i for i, p in enumerate(pairs)}
    raw = [[index[(row_x[x], row_y[y])] for (x, y) in pairs]
           for row_x, row_y in zip(f.source.action, g.source.action)]
    canon, label = _relabel(group, _orbit_index(group, raw, len(pairs)))
    inv = sorted(range(len(pairs)), key=label.__getitem__)
    left = GMap(canon, f.source, tuple(pairs[i][0] for i in inv))
    right = GMap(canon, g.source, tuple(pairs[i][1] for i in inv))
    return PullbackData(canon, left, right)


def orbit_decompose(X: GSet):
    """Orbit multiplicities plus an isomorphism onto standard orbits.

    Returns ([(class_index, multiplicity), ...], iso) where iso maps X onto
    the matching disjoint union of standard orbits.
    """
    canon, iso = canonicalize(X)
    counts = sorted(Counter(X.orbit_index.classes).items())
    return counts, iso


def find_isomorphism(X: GSet, Y: GSet):
    """An equivariant bijection X -> Y, or None.

    Orbit decomposition is a complete isomorphism invariant, so this
    succeeds exactly when the orbit types agree; then both canonicalize
    onto the same memoized union of standard orbits.
    """
    _same_group(X.group, Y.group, "the G-sets")
    if X.orbit_type() != Y.orbit_type():
        return None
    _, ix = canonicalize(X)
    _, iy = canonicalize(Y)
    return compose_maps(iy.inverse(), ix)
