"""The effective Burnside category of finite G-sets at isomorphism level.

Morphisms X -> Y are integer combinations of isomorphism classes of spans
X <- U -> Y with transitive middle.  A transitive span is coded by the
G-orbit of the pair (stabilizer L of a middle point, its image point in
X x Y) under simultaneous conjugation; codes are minimized
lexicographically, with the subgroup part landing on its conjugacy-class
representative.  That single canonical form drives composition, the
tensor structure (by products), duality and the table of marks.

Basis spans compose by the double-coset (Mackey) formula, read off
action rows with no G-set built.  The pullback of G/L -> Y <- G/M has
one G-orbit per L-orbit of the cosets bM with b.y' = y: every orbit
meets the fibre over the base coset L, and two points (L, bM), (L, b'M)
of that fibre are G-related exactly when an element of L relates them.
The orbit of (L, bM) has stabilizer L n bMb^-1 and lies over (x, b.z),
so its transitive code is the one `transitive_code` gives for that
subgroup and pair.  Since codes are canonical, the result is the code
multiset of the pullback itself, exactly.  The tensor of two basis
spans is the same walk over G/L x G/M without the fibre condition.
Each basis pair is one loop over those L-orbits, shared with
`convolution.over_image`, that reads each code from orbit tables.  The
L-orbits that pass the fibre condition are read from `_fibre_rows`, a
table kept on the middle G-set and keyed by the ints (c, y, m, y').  A
code is checked once, where it enters: the `BurnsideElement`
constructor passes each through `canonical_code`, whatever its
coefficient, so an element holds canonical codes only, and `compose`,
`tensor` and `dual` check none.

Everything these walks read that depends only on the group or on one
G-set is derived once, as cached properties or `groups.owned` memos of
its owner.  The codes of `hom_basis(X, Y)` are derived once per pair,
by `_hom_codes`, kept on X and keyed weakly by Y (`groups.paired`).
Every such table holds ints only, so none pins a G-set.
`GSet.subgroup_orbits` holds, per class with representative L, one row
(b, k, t) per L-orbit on X: b reaches its least point p, and k and t
are the class and `transport` of the stabilizer K of p in L.  On G/M
that is the walk above.  `GSet.fixed_orbits` holds, per class with
representative R, the least point x0 of the N(R)-orbit of each x1 in
X^R with the least n in N(R) carrying x1 to x0, and the stabilizer S of
each x0 in N(R).  Every canonical span code is read from them by
`_least_pair`.  The g with gKg^-1 = R are the coset N(R) t, and the
least (g.x, g.y) over it is (x0, the least point of the S-orbit of
n t.y), for x0 and n those of x1 = t.x: g.x = x0 exactly for g in S n t.
`transitive_code`, `_add_composite` and `tensor` call it.  It reads x0
and n by `_least_point`, which `convolution.over_image` calls directly
for the box product's over-codes: an over-code has one foot.  It reads
the least point of the S-orbit from `_least_under(Y, S)`, the table
whose entry at y is the least s.y over s in S, kept on Y and keyed by S
alone.  S <= N(R) maps Y^R to itself, so each S-orbit on Y^R lies in
Y^R, and y is the least point of its S-orbit exactly when the table
reads y there.  `_hom_codes` filters the sorted Y^R by that test, which
yields each code once and in sorted order, and `table_of_marks` reads
`fixed_orbits` too.  The codes of an identity span are derived once per
G-set, by `_identity_codes`, and copied into each `identity_element`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from types import MappingProxyType

from . import intmat
from .groups import FiniteGroup, _same_group, owned, paired
from .gsets import (
    GMap,
    GSet,
    _orbit_walk,
    compose_maps,
    identity_map,
    point_gset,
    product,
    projection_map,
    standard_orbit,
)

# code := (subgroup class index, x, y) with (x, y) minimal in its orbit


def _least_point(X: GSet, c, x1):
    """(x0, n): the least point x0 of the N(R)-orbit of x1 in X^R, with R
    the representative of class c, and the least n in N(R) with n.x1 = x0,
    read from `X.fixed_orbits[c]`."""
    n = X.fixed_orbits[c].lead[x1]
    return X.action[n][x1], n


@owned
def _least_under(Y: GSet, S):
    """table[y]: the least s.y over s in S, for every point y of Y.

    S is a subgroup, as a sorted tuple of elements (the stabilizers
    `FixedOrbits.orbits` lists), so the table is the least points of
    `gsets._orbit_walk` over the rows of S.  Kept on Y (`groups.owned`)
    and keyed by group data only, so it pins nothing.
    """
    least, _, _ = _orbit_walk(Y.size, ((s, Y.action[s]) for s in S),
                              range(Y.size))
    return tuple(least)


def _least_pair(X: GSet, Y: GSet, c, t, x, y):
    """(x0, y0, n): the least (g.x, g.y) over g in N(R) t, with R the
    representative of class c, and the least n in N(R) with n t.x = x0.

    (x, y) must be fixed by t^-1 R t.  Read from `X.fixed_orbits[c]`
    (see `FixedOrbits`): x0 and n are `_least_point` of t.x, and y0 is
    the least point of the S-orbit of n t.y, read from `_least_under`.
    """
    ya = Y.action
    x0, n = _least_point(X, c, X.action[t][x])
    S = X.fixed_orbits[c].orbits[x0]
    return x0, _least_under(Y, S)[ya[n][ya[t][y]]], n


def transitive_code(X: GSet, Y: GSet, L, x, y):
    """Canonical code of the transitive span with middle G/L marked at (x, y).

    The least (g.x, g.y) over the g carrying L onto its class
    representative R, read by `_least_pair`.  Raises ValueError, naming
    L, x and y, unless L fixes both points: t = transport(L) carries the
    L-fixed points onto the R-fixed ones, which R's class generators fix.
    """
    group = X.group
    c, t = group.class_index_of(L), group.transport(L)
    xa, ya = X.action, Y.action
    x1, y1 = xa[t][x], ya[t][y]
    for h in group.subgroup_classes()[c].generators:
        if xa[h][x1] != x1 or ya[h][y1] != y1:
            raise ValueError(f"the points ({x}, {y}) of a span are not "
                             f"fixed by its subgroup {tuple(sorted(L))}")
    x0, y0, _ = _least_pair(X, Y, c, t, x, y)
    return (c, x0, y0)


def code_subgroup(X: GSet, Y: GSet, code):
    """Representative L of the code's class, after checking the code.

    Raises ValueError naming the code unless it is a tuple of three ints
    (a bool is not one) and x and y are points of X and Y fixed by L,
    which is what makes gL -> (g.x, g.y) a well-defined span.
    The class's `generators` suffice: the stabilizer of a point is a
    subgroup, so it contains L exactly when it contains a generating set
    of L.
    """
    if not (isinstance(code, tuple) and len(code) == 3
            and type(code[0]) is type(code[1]) is type(code[2]) is int):
        raise ValueError(f"span code {code!r} is not a triple of integers")
    cidx, x, y = code
    classes = X.group.subgroup_classes()
    if not (0 <= cidx < len(classes) and 0 <= x < X.size and 0 <= y < Y.size):
        raise ValueError(f"span code {code} is out of range")
    cls = classes[cidx]
    xa, ya = X.action, Y.action
    for h in cls.generators:
        if xa[h][x] != x or ya[h][y] != y:
            raise ValueError(f"span code {code}: its points are not fixed "
                             f"by {cls.representative}")
    return cls.representative


def canonical_code(X: GSet, Y: GSet, code):
    """The canonical code of the span `code` names, after `code_subgroup`
    checks it: its class c and the least pair of its N(R)-orbit, read by
    `_least_pair` with t the identity 0, the transport of R itself."""
    code_subgroup(X, Y, code)
    c, x, y = code
    x0, y0, _ = _least_pair(X, Y, c, 0, x, y)
    return (c, x0, y0)


def span_codes(X: GSet, Y: GSet, U: GSet, left: GMap, right: GMap):
    """Multiset of transitive codes of the span X <- U -> Y."""
    if left.source != U or right.source != U:
        raise ValueError("legs must start at the middle")
    if left.target != X or right.target != Y:
        raise ValueError("legs do not match the stated feet")
    return _orbit_codes(X, Y, U, left.mapping, right.mapping)


def _orbit_codes(X: GSet, Y: GSet, U: GSet, left, right):
    """Codes of X <- U -> Y, one per orbit of U; legs as point sequences."""
    out = {}
    ix = U.orbit_index
    for orbit, stab in zip(ix.orbits, ix.stabilizers):
        u0 = orbit[0]
        code = transitive_code(X, Y, stab, left[u0], right[u0])
        out[code] = out.get(code, 0) + 1
    return out


def _coefficient(code, v):
    """The coefficient v of a code, through `operator.index`."""
    try:
        return index(v)
    except TypeError:
        raise TypeError(f"coefficient {v!r} of span code {code} is "
                        f"not an integer") from None


def _nonzero(coeffs):
    """The nonzero coefficients of a mapping, each through `_coefficient`."""
    out = {}
    for c, v in coeffs.items():
        v = _coefficient(c, v)
        if v:
            out[c] = v
    return out


class BurnsideElement:
    """An integer combination of transitive span classes X -> Y.

    Each code passes `canonical_code` once, here, whatever its
    coefficient, so a bad code is rejected where it enters, and a fixed
    but non-minimal pair is stored as its canonical code, summed with any
    code it meets.  So one span has one representation, and equal
    elements compare and hash equal.  Every coefficient must pass
    `operator.index`, which numpy ints do and floats do not.  `coeffs` is
    a read-only mapping.
    """

    __slots__ = ("source", "target", "coeffs")

    def __init__(self, source: GSet, target: GSet, coeffs=None):
        _same_group(source.group, target.group, "the feet")
        out = {}
        for c, v in (coeffs or {}).items():
            v = _coefficient(c, v)
            c = canonical_code(source, target, c)
            out[c] = out.get(c, 0) + v
        self._fill(source, target, out)

    @classmethod
    def _of_checked(cls, source, target, coeffs):
        """An element of codes that are canonical by construction, unchecked.

        Only `burnside`'s own constructions call it.  The arithmetic
        operators keep the codes of their operands.  `compose`, `tensor`,
        `span_element`, `identity_element`, `transfer_element` and
        `restriction_element` read every code by `_least_pair`, from a
        subgroup that fixes the pair it is read at.  `dual` flips a
        canonical code, whose pair is fixed by its class representative.
        """
        obj = object.__new__(cls)
        obj._fill(source, target, coeffs)
        return obj

    def _fill(self, source, target, coeffs):
        self.source = source
        self.target = target
        self.coeffs = MappingProxyType(_nonzero(coeffs))

    @property
    def group(self):
        return self.source.group

    def __add__(self, other):
        self._check_parallel(other)
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return BurnsideElement._of_checked(self.source, self.target, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        return BurnsideElement._of_checked(
            self.source, self.target, {c: k * v for c, v in self.coeffs.items()})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"BurnsideElement({dict(self.coeffs)})"

    def is_zero(self):
        return not self.coeffs

    def _check_parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("elements have different feet")


def basis_element(X: GSet, Y: GSet, code) -> BurnsideElement:
    return BurnsideElement(X, Y, {code: 1})


def span_element(X: GSet, Y: GSet, U: GSet, left: GMap, right: GMap):
    """Canonicalize an explicit span into a BurnsideElement."""
    return BurnsideElement._of_checked(X, Y, span_codes(X, Y, U, left, right))


@owned
def _identity_codes(X: GSet):
    """The codes of the identity span of X, one per orbit, kept on X."""
    ids = range(X.size)
    return _orbit_codes(X, X, X, ids, ids)


def identity_element(X: GSet) -> BurnsideElement:
    """The identity span X <- X -> X, a fresh element on every call (its
    codes are copied out of `_identity_codes`)."""
    return BurnsideElement._of_checked(X, X, _identity_codes(X))


def transfer_element(f: GMap) -> BurnsideElement:
    """The span X <- X -> Y with right leg f (pushforward along f)."""
    X, Y = f.source, f.target
    return BurnsideElement._of_checked(
        X, Y, _orbit_codes(X, Y, X, range(X.size), f.mapping))


def restriction_element(f: GMap) -> BurnsideElement:
    """The span Y <- X -> X with left leg f (pullback along f)."""
    X, Y = f.source, f.target
    return BurnsideElement._of_checked(
        Y, X, _orbit_codes(Y, X, X, f.mapping, range(X.size)))


def hom_basis(X: GSet, Y: GSet):
    """All transitive span codes X -> Y, sorted by (class, x, y), as a
    fresh list on every call: the codes are derived once per pair, by
    `_hom_codes`."""
    _same_group(X.group, Y.group, "the G-sets")
    return list(_hom_codes(X, Y))


@paired
def _hom_codes(X: GSet, Y: GSet):
    """The codes of `hom_basis`, kept on X and keyed weakly by Y
    (`groups.paired`): they are ints, so they pin neither G-set.

    The code of class L is the least pair of an N(L)-orbit on X^L x Y^L.
    Its x is the least point x0 of an N(L)-orbit on X^L, and the pairs of
    that orbit starting at x0 are (x0, s.y) for s in the stabilizer S of
    x0 in N(L), so its y is the least point of an S-orbit on Y^L.
    Conversely each S-orbit on Y^L gives one N(L)-orbit.  S <= N(L) maps
    Y^L to itself, so each S-orbit on Y^L lies in Y^L, and y is the least
    point of its S-orbit exactly when `_least_under(Y, S)[y] == y`.  So
    filtering the sorted Y^L by that test, x0 by x0 from
    `X.fixed_orbits`, yields every code once and in sorted order.
    """
    out = []
    for c, (fx, fy) in enumerate(zip(X.fixed_orbits, Y.fixed_orbits)):
        for x0, S in fx.orbits.items():
            least = _least_under(Y, S)
            out.extend((c, x0, y) for y in fy.points if least[y] == y)
    return tuple(out)


# -- composition, tensor, duality ----------------------------------------------


@owned
def _fibre_rows(Y: GSet, c, y, m, yp):
    """The rows (b, k, t) of `standard_orbit(m).subgroup_orbits[c]` with
    b.yp = y, sorted stably by k.

    They are the L-orbits of cosets bM over (y, yp) that a composite of
    codes (c, x, y) and (m, yp, z) walks, in the order of the canonical
    pullback's orbits: by the class of their stabilizer, ties by first
    coset.  Kept on the middle G-set Y (`groups.owned`) and keyed by ints
    only, so it pins nothing.
    """
    ya = Y.action
    rows = [row for row in standard_orbit(Y.group, m).subgroup_orbits[c]
            if ya[row[0]][yp] == y]
    rows.sort(key=lambda row: row[1])
    return tuple(rows)


def _add_composite(out, a, X, Y, Z, c1, c2):
    """Add a times each code of the composite c2 . c1 of basis spans to out.

    The codes must be valid, as `code_subgroup` checks: an element's codes
    are, and so are those `convolution.over_image` is given.  The fibre
    condition b.y' = y is constant on L-orbits of cosets bM: L fixes y and
    M fixes y', so (hbm).y' = h.(b.y') for h in L, m in M.  Those orbits
    are the rows of `_fibre_rows`, and each code is read from its row.
    """
    c, x, y = c1
    m, yp, z = c2
    za = Z.action
    for b, k, t in _fibre_rows(Y, c, y, m, yp):
        x0, z0, _ = _least_pair(X, Z, k, t, x, za[b][z])
        code = (k, x0, z0)
        out[code] = out.get(code, 0) + a


def compose(s2: BurnsideElement, s1: BurnsideElement) -> BurnsideElement:
    """Composite s2 . s1 of spans X -> Y -> Z, by the double-coset formula."""
    if s1.target != s2.source:
        raise ValueError("feet do not match for composition")
    X, Y, Z = s1.source, s1.target, s2.target
    out = {}
    for c1, a1 in s1.coeffs.items():
        for c2, a2 in s2.coeffs.items():
            _add_composite(out, a1 * a2, X, Y, Z, c1, c2)
    return BurnsideElement._of_checked(X, Z, out)


def tensor(s: BurnsideElement, t: BurnsideElement) -> BurnsideElement:
    """External product A(X,Y) x A(X',Y') -> A(X x X', Y x Y')."""
    _same_group(s.group, t.group, "the factors")
    X, Y, Xp, Yp = s.source, s.target, t.source, t.target
    ps, pt = product(X, Xp), product(Y, Yp)
    xpa, ypa = Xp.action, Yp.action
    out = {}
    for (c, x, y), a1 in s.coeffs.items():
        px, py = ps.pair_index[x], pt.pair_index[y]
        for (m, xp, yp), a2 in t.coeffs.items():
            a = a1 * a2
            for b, k, tk in standard_orbit(s.group, m).subgroup_orbits[c]:
                u0, v0, _ = _least_pair(ps.gset, pt.gset, k, tk,
                                        px[xpa[b][xp]], py[ypa[b][yp]])
                code = (k, u0, v0)
                out[code] = out.get(code, 0) + a
    return BurnsideElement._of_checked(ps.gset, pt.gset, out)


def dual(s: BurnsideElement) -> BurnsideElement:
    """Flip every span; a contravariant involution A(X,Y) -> A(Y,X).

    Flipping maps N(R)-orbits of pairs one to one, so each code's flip is
    read by `_least_pair` with t = 0, and no two of them meet."""
    X, Y = s.source, s.target
    out = {}
    for (c, x, y), a in s.coeffs.items():
        y0, x0, _ = _least_pair(Y, X, c, 0, y, x)
        out[(c, y0, x0)] = a
    return BurnsideElement._of_checked(Y, X, out)


def evaluation_span(X: GSet) -> BurnsideElement:
    """X (x) X -> pt with middle X and legs (diagonal, terminal)."""
    group = X.group
    pt = point_gset(group)
    pd = product(X, X)
    left = GMap(X, pd.gset, tuple(pd.of_pair(x, x) for x in range(X.size)))
    right = GMap(X, pt, (0,) * X.size)
    return span_element(pd.gset, pt, X, left, right)


def coevaluation_span(X: GSet) -> BurnsideElement:
    """pt -> X (x) X with middle X and legs (terminal, diagonal)."""
    return dual(evaluation_span(X))


def triangle_composite(X: GSet) -> BurnsideElement:
    """The duality triangle around X, routed through the unitors.

    Builds lambda . (ev (x) id) . assoc . (id (x) coev) . rho^{-1}; for the
    self-dual objects of this category it must equal the identity span.
    """
    group = X.group
    pt = point_gset(group)
    PXX = product(X, X)
    ev, coev = evaluation_span(X), coevaluation_span(X)
    rho = product(X, pt).left        # X x pt -> X, bijective
    lam = product(pt, X).right       # pt x X -> X, bijective
    P_in = product(X, PXX.gset)
    P_out = product(PXX.gset, X)
    assoc = GMap(P_in.gset, P_out.gset,
                 [P_out.of_pair(PXX.of_pair(P_in.left(p),
                                            PXX.left.mapping[P_in.right(p)]),
                                PXX.right.mapping[P_in.right(p)])
                  for p in range(P_in.gset.size)])
    steps = [
        transfer_element(rho.inverse()),
        tensor(identity_element(X), coev),
        transfer_element(assoc),
        tensor(ev, identity_element(X)),
        transfer_element(lam),
    ]
    out = steps[0]
    for s in steps[1:]:
        out = compose(s, out)
    return out


# -- structure spans between standard orbits ----------------------------------


def res_element(group: FiniteGroup, A, B) -> BurnsideElement:
    """Restriction span ORB([B]) -> ORB([A]) along the inclusion A <= B:
    the restriction along `gsets.projection_map`."""
    return restriction_element(projection_map(group, A, B))


def tr_element(group: FiniteGroup, A, B) -> BurnsideElement:
    """Transfer span ORB([A]) -> ORB([B]) along the inclusion A <= B: the
    transfer along `gsets.projection_map`."""
    return transfer_element(projection_map(group, A, B))


# -- table of marks and the Burnside ring --------------------------------------


def table_of_marks(group: FiniteGroup):
    """marks[i][j] = number of K_j-fixed points of G/H_i."""
    k = len(group.subgroup_classes())
    return [[len(fixed.points)
             for fixed in standard_orbit(group, i).fixed_orbits]
            for i in range(k)]


def burnside_ring_table(group: FiniteGroup):
    """Structure constants of A(G) on the orbit basis, via products of G-sets.

    entry [i][j] is the list of multiplicities over the orbit basis.
    """
    classes = group.subgroup_classes()
    k = len(classes)
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            pd = product(standard_orbit(group, i), standard_orbit(group, j))
            counts = [0] * k
            for c in pd.gset.orbit_index.classes:
                counts[c] += 1
            row.append(counts)
        table.append(row)
    return table


def burnside_ring_from_spans(group: FiniteGroup):
    """Same structure constants computed by composing A(pt, pt) endospans."""
    pt = point_gset(group)
    basis = hom_basis(pt, pt)
    k = len(basis)
    table = []
    for c1 in basis:
        row = []
        for c2 in basis:
            prod = compose(basis_element(pt, pt, c1), basis_element(pt, pt, c2))
            row.append([prod.coeffs.get(c, 0) for c in basis])
        table.append(row)
    return basis, table


# -- multimaps ----------------------------------------------------------------


@dataclass(frozen=True)
class MultiFeet:
    """Iterated product of a tuple of feet, with projections to each foot."""
    feet: tuple
    gset: GSet
    projections: tuple


def multi_product(feet) -> MultiFeet:
    feet = tuple(feet)
    if not feet:
        raise ValueError("need at least one foot")
    P = feet[0]
    projs = [identity_map(P)]
    for nxt in feet[1:]:
        pd = product(P, nxt)
        projs = [compose_maps(pr, pd.left) for pr in projs]
        projs.append(pd.right)
        P = pd.gset
    return MultiFeet(feet, P, tuple(projs))


def promonoidal_coend_check(feet, z: GSet):
    """Decategorified promonoidal coend condition.

    Forms (+)_y hom(y, z) (x) multimap(feet, y) over orbit objects y, modulo
    the relations generated by transitive spans between orbits, and checks
    that composition induces an isomorphism onto multimap(feet, z).
    Returns (ok, detail dict).
    """
    group = z.group
    P = multi_product(feet).gset
    orbs = [standard_orbit(group, cls.index)
            for cls in group.subgroup_classes()]
    into_z = [hom_basis(Oy, z) for Oy in orbs]
    from_p = [hom_basis(P, Oy) for Oy in orbs]
    blocks = [(cy, h, m)     # (y class index, h code, m code)
              for cy in range(len(orbs))
              for h in into_z[cy] for m in from_p[cy]]
    pos = {b: i for i, b in enumerate(blocks)}
    rhs = hom_basis(P, z)
    rpos = {c: i for i, c in enumerate(rhs)}

    # composition pairing on generators
    pairing = intmat.zeros(len(rhs), len(blocks))
    for b, i in pos.items():
        cy, h, m = b
        Oy = orbs[cy]
        comp = compose(basis_element(Oy, z, h), basis_element(P, Oy, m))
        for code, v in comp.coeffs.items():
            pairing[rpos[code], i] += v

    # coend relations from spans a: O_{y'} -> O_y
    rel_cols = []
    for cy, Oy in enumerate(orbs):
        for cyp, Oyp in enumerate(orbs):
            for a in hom_basis(Oyp, Oy):
                amap = basis_element(Oyp, Oy, a)
                ams = [compose(amap, basis_element(P, Oyp, m))
                       for m in from_p[cyp]]
                for h in into_z[cy]:
                    ha = compose(basis_element(Oy, z, h), amap)
                    for m, am in zip(from_p[cyp], ams):
                        col = intmat.zero_vec(len(blocks))
                        for code, v in ha.coeffs.items():
                            col[pos[(cyp, code, m)]] += v
                        for code, v in am.coeffs.items():
                            col[pos[(cy, h, code)]] -= v
                        if not intmat.is_zero(col):
                            rel_cols.append(col)
    rels = intmat.from_cols(rel_cols, len(blocks))

    # the pairing must kill the relations, be surjective, and have kernel
    # exactly the relation lattice
    kills = intmat.is_zero(pairing @ rels) if rels.size else True
    diag = intmat.snf_diagonal(pairing)
    surjective = (len([d for d in diag if d != 0]) == len(rhs)
                  and all(d == 1 for d in diag if d != 0))
    ker = intmat.kernel(pairing)
    kernel_matches = intmat.lattices_equal(ker, rels)
    ok = kills and surjective and kernel_matches
    return ok, {
        "generators": len(blocks),
        "relations": rels.shape[1],
        "target_rank": len(rhs),
        "kills_relations": kills,
        "surjective": surjective,
        "kernel_matches": kernel_matches,
    }
