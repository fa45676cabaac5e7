"""Ordinary Mackey functors for a finite group, with exact arithmetic.

A Mackey functor stores one finitely presented abelian group per
subgroup-conjugacy class, one restriction and one transfer matrix per
G-conjugacy class of covering pairs (along `gsets.projection_map` of the
canonical pair of `FiniteGroup.canonical_covers`), and conjugation by the
generators of the normalizer of each class representative (the transfer
along `gsets.translation_map`), so `mackey_from_gmaps` builds every
functor given by a rule for res and tr along G-maps: fixed-point
functors, representables, box products, K0, the zero functor and the
Dress terms M(X x -).  Conjugation by any other element is the product
of the stored ones along a breadth-first walk.  Values at
arbitrary subgroups are reached through fixed transport elements (the
minimal conjugator onto the class representative); the covering step at
any other pair is derived from the stored one by conjugation, and
arbitrary spans are evaluated by factoring each transitive span as
transfer . conjugation . restriction.
Functoriality of that evaluation is equivalent to the relations of the
Mackey algebra (Thevenaz-Webb, Trans. AMS 347, 1995, section 3).
`validate_functoriality` checks a generating set of them rather than
trusting: the homomorphism relation off the walk that defines it, the
res/tr relations at class representatives and canonical pairs only, for
generators of their stabilizers, and the double-coset formula at pairs
of maximal subgroups, one per N(L)-orbit.  Every other instance is a
product or a conjugate of a checked one; its docstring has the proof.

Ownership: functors and morphisms keep the 2-D object arrays they are
given, so stored matrices may be shared with the caller and between
functors (a cokernel shares its target's structure matrices).  Stored
matrices are never written; other input is converted and checked.

Derived functors (kernels, images, cokernels, minimized presentations)
carry each res, tr and conj matrix from their parent when it is first
read (`CarriedMatrices`): on the Tor path most of them are never read,
and the homology of a complex costs its levels and inclusions only.
Every lift reads one `_Coordinates`, which factors each class once, on
first use: a morphism keeps one over its matrices and its target's
levels (`MackeyMorphism.coordinates`) for the lifts through it, and a
kernel or image shares its inclusion's with the maps it carries.

What evaluation derives from the stored data is kept on the functor:
`weyl` as a cached property, and the covering steps, the res and tr
chains and the span blocks through `groups.owned`, keyed by group data
only, so bounded by the group.  No G-set adds an entry: the orbit layout
of M(X) is computed (`offsets`).  What is built from a pair of functors
lives in the left one's memo, keyed weakly by the right one
(`groups.paired`): the boxes `convolution.box` presents.  The Burnside
and zero functors are one object per group, in its memo.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import abgroups, intmat
from .abgroups import FinPresAbGroup, _int_matrix
from .burnside import (
    BurnsideElement,
    basis_element,
    compose,
    hom_basis,
    restriction_element,
    transfer_element,
)
from .groups import FiniteGroup, _same_group, _walk, owned
from .gsets import (
    GMap,
    GSet,
    point_gset,
    projection_map,
    standard_orbit,
    translation_map,
)


def class_pair_covers(group: FiniteGroup):
    """{(ca, cb): (Hp, K0)}: the canonical cover of each class covering pair.

    Raises ValueError when one class pair holds several conjugacy classes
    of covering pairs, which data keyed by class pairs cannot address.
    """
    out = {}
    for (Hp, K0) in group.canonical_covers:
        key = (group.class_index_of(Hp), group.class_index_of(K0))
        if key in out:
            raise ValueError(
                f"class pair {key} holds several conjugacy classes of "
                f"covering pairs below {K0} ({out[key][0]} and {Hp}); "
                f"class-pair data cannot address them")
        out[key] = (Hp, K0)
    return out


def _generated_action(group: FiniteGroup, gens, identity):
    """{g: w(g)} for every g in the subgroup generated by `gens`.

    `gens` maps generators s to matrices w(s), and w(e) is `identity`.
    Along `groups._walk`, which `FiniteGroup.closure` also reads, w(as)
    is defined as the product w(a) w(s).
    """
    out = {0: identity}
    for a, s, b in _walk(group, tuple(gens)):
        out[b] = out[a] @ gens[s]
    return out


class CarriedMatrices(Mapping):
    """Structure matrices {key: compute(key)}, each computed on first read
    and stored.  Once every key has been read, `compute`, which holds the
    parent functor, is dropped."""

    def __init__(self, keys, compute):
        self._keys = dict.fromkeys(keys)
        self._done = {}
        self._compute = compute if self._keys else None

    def __getitem__(self, key):
        if key not in self._done:
            if key not in self._keys:
                raise KeyError(key)
            self._done[key] = self._compute(key)
            if len(self._done) == len(self._keys):
                self._compute = None
        return self._done[key]

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _stored(data, keys, convert):
    """Carried matrices as they are, unread; else {k: convert(k)}."""
    if isinstance(data, CarriedMatrices):
        return data
    return {k: convert(k) for k in keys}


class MackeyFunctor:
    """Levels on subgroup classes plus generating structure matrices.

    `res`/`tr` hold one matrix per G-conjugacy class of covering pairs,
    keyed by the canonical pairs of `FiniteGroup.canonical_covers`, and
    `conj[c]` one matrix per element of `normalizer_generators` of class
    c.  `weyl[c][n]`, conjugation by every n in that normalizer, is
    derived from `conj` on first read; no constructor takes it.  A
    derived functor's mappings are `CarriedMatrices`, kept as given.
    """

    def __init__(self, group: FiniteGroup, levels, res, tr, conj,
                 name=None, check=True):
        self.group = group
        self.levels = tuple(levels)
        classes = group.subgroup_classes()
        if len(self.levels) != len(classes):
            raise ValueError("need one level per subgroup class")
        covers = group.canonical_covers
        for kind, data in (("res", res), ("tr", tr)):
            if set(data) != set(covers):
                raise ValueError(f"{kind} must hold exactly one matrix per "
                                 f"canonical covering pair")
        self.res = _stored(res, covers, lambda k: _int_matrix(
            res[k], self._gens(k[1]), "res at {}", k))
        self.tr = _stored(tr, covers, lambda k: _int_matrix(
            tr[k], self._gens(k[0]), "tr at {}", k))
        if [set(w) for w in conj] != [set(c.normalizer_generators)
                                      for c in classes]:
            raise ValueError("conj must hold exactly one matrix per "
                             "generator of each normalizer")
        self.conj = tuple(
            _stored(w, cls.normalizer_generators, lambda s, w=w, c=cls.index:
                    _int_matrix(w[s], self.levels[c].generator_count,
                                "conjugation by {} at class {}", s, c))
            for w, cls in zip(conj, classes))
        self.name = name
        self._memo = {}
        if check:
            self._check_shapes()

    # -- bookkeeping -----------------------------------------------------------

    def _gens(self, H):
        return self.levels[self.group.class_index_of(H)].generator_count

    def _check_shapes(self):
        group = self.group
        classes = group.subgroup_classes()
        for (A, B) in group.canonical_covers:
            la, lb = (self.levels[group.class_index_of(H)] for H in (A, B))
            for what, m, src, tgt in (("restriction", self.res[(A, B)], lb, la),
                                      ("transfer", self.tr[(A, B)], la, lb)):
                if m.shape != (tgt.generator_count, src.generator_count):
                    raise ValueError(f"{what} shape mismatch at {A} < {B}")
                if not abgroups.map_is_welldefined(m, src, tgt):
                    raise ValueError(f"{what} not well-defined at {A} < {B}")
        for cls in classes:
            lvl = self.levels[cls.index]
            for m in self.conj[cls.index].values():
                if not abgroups.map_is_welldefined(m, lvl, lvl):
                    raise ValueError(f"conjugation not well-defined at {cls.label}")
        for cls in classes:
            w, lvl = self.weyl[cls.index], self.levels[cls.index]
            for h in cls.representative:
                if not abgroups.maps_equal(w[h], intmat.identity(lvl.generator_count),
                                           lvl, lvl):
                    raise ValueError(f"inner conjugation must act trivially "
                                     f"at class {cls.label}")

    def __repr__(self):
        name = self.name or "MackeyFunctor"
        ranks = [lvl.describe() for lvl in self.levels]
        return f"{name}({', '.join(ranks)})"

    # -- derived structure matrices, kept on the functor (`groups.owned`) -----

    @cached_property
    def weyl(self):
        """Conjugation by every element of each N(H_c), in class order."""
        return tuple(
            _generated_action(self.group, w,
                              intmat.identity(lvl.generator_count))
            for w, lvl in zip(self.conj, self.levels))

    def conj_mat(self, g, L):
        """Matrix of conjugation by g from M@L to M@(gLg^-1), in class coords."""
        c, n = self.group.conj_index(g, L)
        return self.weyl[c][n]

    def cover_mats(self, A, B):
        """(res, tr) of the covering step A < B, in class coords.  Raises
        ValueError naming A and B unless A is maximal in B."""
        return self._step(tuple(sorted(A)), tuple(sorted(B)))

    def res_mat(self, A, B):
        """Matrix of restriction from M@B to M@A (A <= B), in class coords."""
        return self._chain(tuple(sorted(A)), tuple(sorted(B)), False)

    def tr_mat(self, A, B):
        """Matrix of transfer from M@A to M@B (A <= B), in class coords."""
        return self._chain(tuple(sorted(A)), tuple(sorted(B)), True)

    @owned
    def _step(self, A, B):
        """(res, tr) of the covering step A < B, sorted tuples.

        t = transport(B) carries the step to A2 < K0, K0 the class
        representative, and the minimal u in N(K0) carries A2 onto the
        canonical Hp, whose stored matrices give
        res = c_{t^-1} c_{u^-1} res(Hp, K0) c_u, and dually tr.
        """
        group = self.group
        if (A, B) not in group.covering_pairs:
            raise ValueError(f"{A} < {B} is not a covering step of "
                             f"{group.name}")
        cls = group.subgroup_classes()[group.class_index_of(B)]
        t, K0 = group.transport(B), cls.representative
        A2 = group.conjugate_subgroup(t, A)
        Hp, u = min((group.conjugate_subgroup(n, A2), n)
                    for n in cls.normalizer)
        r, tr = self.res[(Hp, K0)], self.tr[(Hp, K0)]
        if (A, B) != (Hp, K0):
            w = self.weyl[cls.index]
            r = self.conj_mat(group.inv(t), A2) @ (
                self.conj_mat(group.inv(u), Hp) @ r @ w[u])
            tr = (w[group.inv(u)] @ tr @ self.conj_mat(u, A2)) \
                @ self.conj_mat(t, A)
        return r, tr

    @owned
    def _chain(self, A, B, transfer):
        """Restriction from B to A, or transfer from A to B (A <= B, sorted
        tuples): the product of the covering steps down `maximal_under`."""
        if A == B:
            return intmat.identity(self._gens(A))
        C = self.group.maximal_under(A, B)
        step = self._step(C, B)[transfer]
        rest = self._chain(A, C, transfer)
        return step @ rest if transfer else rest @ step

    def span_block(self, ix, iy, code):
        """Block of a transitive span code between G-sets with orbit indices
        ix and iy, and its (source, target) orbits.

        The block depends on group data only: the code's class and, for
        each foot, the stabilizer of the orbit's base point and the least
        element carrying the base to the code's point.  It is kept under
        that key (`_block`), so it holds no G-set.
        """
        cidx, x, y = code
        bx, by = ix.orbit_of[x], iy.orbit_of[y]
        return self._block(cidx, ix.stabilizers[bx], ix.reach[x],
                           iy.stabilizers[by], iy.reach[y]), (bx, by)

    @owned
    def _block(self, cidx, stabx, a, staby, b):
        """The block of `span_block` at its group-data key."""
        group = self.group
        classes = group.subgroup_classes()
        L = classes[cidx].representative
        # transport to the standard-orbit picture:  h carries the middle
        # base point into the class representative's coset space
        h = group.mul(a, group.inv(group.transport(stabx)))
        k = group.mul(b, group.inv(group.transport(staby)))
        Sx0, Sy0 = (classes[group.class_index_of(S)].representative
                    for S in (stabx, staby))
        A2 = group.conjugate_subgroup(group.inv(h), L)
        B2 = group.conjugate_subgroup(group.inv(k), L)
        left = self.conj_mat(h, A2) @ self._chain(A2, Sx0, False)
        right = self._chain(B2, Sy0, True) @ self.conj_mat(group.inv(k), L)
        return right @ left

    # -- values at arbitrary G-sets ----------------------------------------------

    def offsets(self, X: GSet):
        """Each orbit's block start in M(X), then M(X)'s generator count."""
        return [0, *accumulate(self.levels[c].generator_count
                               for c in X.orbit_index.classes)]

    def value_at(self, X: GSet):
        """M(X) presented as a sum of class levels: (group, offsets)."""
        return abgroups.direct_sum_groups(
            [self.levels[c] for c in X.orbit_index.classes])

    def eval_span(self, e: BurnsideElement):
        """Matrix of M applied to a Burnside element, M(source) -> M(target)."""
        _same_group(e.group, self.group, "the element and the functor")
        X, Y = e.source, e.target
        offx, offy = self.offsets(X), self.offsets(Y)
        out = intmat.zeros(offy[-1], offx[-1])
        for code, a in e.coeffs.items():
            block, (bx, by) = self.span_block(X.orbit_index, Y.orbit_index,
                                              code)
            rows, cols = block.shape
            out[offy[by]:offy[by] + rows, offx[bx]:offx[bx] + cols] += a * block
        return out

    def gmap_blocks(self, f: GMap, transfer=False):
        """(orbit of X, orbit of Y, block) of res_f: M(Y) -> M(X), or of
        tr_f: M(X) -> M(Y), for f: X -> Y: one triple per orbit of X.

        The orbit of its base x0 is the span G/L -> X x Y, gL ->
        (gt.x0, gt.f(x0)), t the transport of x0's stabilizer onto L: a
        valid code, whose block `span_block` derives as it is.
        """
        ix, iy = f.source.orbit_index, f.target.orbit_index
        xa, ya = f.source.action, f.target.action
        for bx, (orbit, stab, c) in enumerate(zip(ix.orbits, ix.stabilizers,
                                                  ix.classes)):
            t = self.group.transport(stab)
            x, y = xa[t][orbit[0]], ya[t][f.mapping[orbit[0]]]
            if transfer:
                block, (_, by) = self.span_block(ix, iy, (c, x, y))
            else:
                block, (by, _) = self.span_block(iy, ix, (c, y, x))
            yield bx, by, block

    def gmap_matrix(self, f: GMap, transfer=False):
        """The matrix of res_f: M(Y) -> M(X), or of tr_f: M(X) -> M(Y),
        for f: X -> Y, each block of `gmap_blocks` placed at its orbits'
        offsets.  The blocks come one per orbit of X, so no two share a
        place."""
        ends = (f.source, f.target) if transfer else (f.target, f.source)
        soff, toff = map(self.offsets, ends)
        out = intmat.zeros(toff[-1], soff[-1])
        for bx, by, block in self.gmap_blocks(f, transfer):
            s, t = (soff[bx], toff[by]) if transfer else (soff[by], toff[bx])
            rows, cols = block.shape
            out[t:t + rows, s:s + cols] = block
        return out

    def apply_gmap(self, f: GMap, v, transfer=False):
        """res_f v, or tr_f v, for a vector or a column block v, applied
        block by block: no dense |M(Y)| x |M(X)| matrix is built."""
        ends = (f.source, f.target) if transfer else (f.target, f.source)
        soff, toff = map(self.offsets, ends)
        out = np.zeros((toff[-1],) + v.shape[1:], dtype=object)
        for bx, by, block in self.gmap_blocks(f, transfer):
            s, t = (soff[bx], toff[by]) if transfer else (soff[by], toff[bx])
            out[t:t + len(block)] += block @ v[s:s + block.shape[1]]
        return out

    # -- validation ----------------------------------------------------------------

    def validate_functoriality(self):
        """Check the Mackey-algebra relations on a generating set of them.

        The span evaluation is a functor exactly when the relations of
        Thevenaz-Webb (Trans. AMS 347, 1995, section 3) hold at every
        subgroup and every group element.  This checks, on every cell and
        modulo the target level's relations (written ==):

        (I) w(e) == 1 and w(h) == 1 for h in `SubgroupClass.generators`;
        (H) w(a) w(s) == w(as) for every a in N(H) and s in
            `SubgroupClass.normalizer_generators` off the tree of `_walk`,
            on whose edges `weyl` defines w(as) as w(a) w(s);
        (C) conjugation commutes with the stored res and tr at each
            canonical pair (Hp, K0), for the generators of N(K0) cap N(Hp);
        (T) transitivity: res_mat/tr_mat through a covering step C < B equal
            res_mat/tr_mat along the chain `maximal_under` picks, for B a
            class representative and every A < C;
        (D) the double-coset formula res^L_H tr^L_K =
            sum_{x in H\\L/K} tr^H_{xDx^-1} c_x res^K_D, D = x^-1Hx cap K,
            for L a class representative and (H, K) the least pair in
            each N(L)-orbit of pairs of maximal subgroups of L.

        `FiniteGroup.relation_plan` holds the group data of (C), (T), (D).
        Here w is `weyl`, the products of the stored generator matrices
        `conj`; those are well-defined (the constructor checks it), so ==
        survives composition on both sides.
        These relations imply the full set:

        1. (H) holds on the tree by definition, so for every a and s.
           Writing b = s1...sk in generators, it gives w(ab) ==
           w(a) w(s1)...w(sk) for every a; with a = e and (I), w(b) ==
           w(s1)...w(sk), so w(a) w(b) == w(ab), and w is trivial on H
           because it is on H's generators.  Hence `conj_mat` is a functor:
           c_g' c_g == c_g'g, and c_h == 1 at L for h in L.
        2. Products of generators extend (C) to all of N(K0) cap N(Hp).
           `cover_mats(C, B)` is c_v^-1 R c_v for one v carrying (C, B)
           onto (Hp, K0); any other such v is nv with n in that
           stabilizer, so by (C) every v gives the same matrix.  As vg^-1
           carries (gC, gB) there, c_g cover(C, B) == cover(gC, gB) c_g
           for every covering pair and every g.
        3. By induction on |B|: once all maximal chains into proper
           subgroups of B give one product, (T) makes every chain into a
           representative B give res_mat/tr_mat, and conjugating the
           chains by 2 carries that to every conjugate of B.  So res_mat
           and tr_mat are transitive and commute with conjugation.
        4. Conjugating (D) at (L, H, K) by g gives, by 3, the formula at
           (gL, gH, gK), whose double cosets are the g-conjugates of those
           in L.  A term does not depend on its representative: x' = hxk
           changes it by c_h at H and c_k at K, both == 1 by 1.
        5. (D) holds at every L and H, K <= L, by induction on |L|, then
           on [L:H] + [L:K].  By 4, let L be a representative.  If H = L
           or K = L, the one term is the left side, as w(e) == 1 by (I).
           If H < H' < L, H' maximal, expand res^L_H tr^L_K = res^H'_H
           res^L_H' tr^L_K by (D) at (L, H', K), then each term by (D) at
           (H', H, H' cap xKx^-1) in the smaller H'; by 1 and 3 the terms
           recombine, as the H y x K, y in H\\H'/(H' cap xKx^-1) and x in
           H'\\L/K, are the double cosets H\\L/K.  A non-maximal K is
           dual.  Maximal H and K are carried by some n in N(L) to a
           checked pair, and 4 carries (D) back.

        Every checked cell is also a cell of the exhaustive check (the
        oracle in the tests), so both accept the same data.  Returns
        {relation: cells checked}.  Raises ValueError naming the relation
        and the subgroups of the first failing cell.
        """
        group = self.group
        plan = group.relation_plan
        cidx = group.class_index_of
        weyl, res_mat, tr_mat = self.weyl, self.res_mat, self.tr_mat
        counts = dict.fromkeys((
            "inner conjugation is trivial", "conjugation is a homomorphism",
            "conjugation commutes with restriction",
            "conjugation commutes with transfer", "transitivity of restriction",
            "transitivity of transfer", "double-coset formula"), 0)

        def check(lhs, rhs, src, tgt, relation, where):
            counts[relation] += 1
            if not abgroups.maps_equal(lhs, rhs, self.levels[src],
                                       self.levels[tgt]):
                raise ValueError(f"functoriality fails: {relation} at {where}")

        for cls in group.subgroup_classes():
            c, w = cls.index, weyl[cls.index]
            ident = intmat.identity(self.levels[c].generator_count)
            for h in (0,) + cls.generators:
                check(w[h], ident, c, c, "inner conjugation is trivial",
                      f"{h} in {cls.representative}")
            tree = {(a, s) for a, s, _ in _walk(group, tuple(self.conj[c]))}
            for a in cls.normalizer:
                for s, ws in self.conj[c].items():
                    if (a, s) not in tree:
                        check(w[a] @ ws, w[group.mul(a, s)], c, c,
                              "conjugation is a homomorphism",
                              f"{a}*{s} on {cls.representative}")
        for (Hp, K0), gens in plan.conjugation:
            ch, ck = cidx(Hp), cidx(K0)
            r, t = self.res[(Hp, K0)], self.tr[(Hp, K0)]
            for n, (c, m) in gens:
                wh, wk = weyl[c][m], weyl[ck][n]
                where = f"{n} on {Hp} < {K0}"
                check(wh @ r, r @ wk, ck, ch,
                      "conjugation commutes with restriction", where)
                check(wk @ t, t @ wh, ch, ck,
                      "conjugation commutes with transfer", where)
        for (A, C, B) in plan.transitivity:
            r, t = self.cover_mats(C, B)
            where = f"{A} < {C} < {B}"
            check(res_mat(A, C) @ r, res_mat(A, B), cidx(B), cidx(A),
                  "transitivity of restriction", where)
            check(t @ tr_mat(A, C), tr_mat(A, B), cidx(A), cidx(B),
                  "transitivity of transfer", where)
        for (L, H, K, terms) in plan.double_coset:
            rhs = intmat.zeros(self._gens(H), self._gens(K))
            for (E, D, (c, m)) in terms:
                rhs = rhs + tr_mat(E, H) @ weyl[c][m] @ res_mat(D, K)
            check(res_mat(H, L) @ tr_mat(K, L), rhs, cidx(K), cidx(H),
                  "double-coset formula", f"res^{L}_{H} tr^{L}_{K}")
        return counts


# -- morphisms ---------------------------------------------------------------------


def _naturality(M: MackeyFunctor, N: MackeyFunctor):
    """The naturality conditions on levelwise maps U: M -> N, one per
    stored structure matrix: (c_src, c_tgt, m_src, m_tgt, label) asks
    U_{c_tgt} m_src = m_tgt U_{c_src} modulo the relations of N at c_tgt.

    They are res and tr at each canonical cover and conjugation by the
    generators of each N(H): both functors' conjugations are
    homomorphisms, so commuting with the generators implies commuting
    with all of N(H).
    """
    group = M.group
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        yield cb, ca, M.res[(A, B)], N.res[(A, B)], f"res at {A}<{B}"
        yield ca, cb, M.tr[(A, B)], N.tr[(A, B)], f"tr at {A}<{B}"
    for cls in group.subgroup_classes():
        c = cls.index
        for n in cls.normalizer_generators:
            yield (c, c, M.conj[c][n], N.conj[c][n],
                   f"conjugation at class {c}")


class _Coordinates:
    """Coordinates over the columns of bases[c] of vectors of levels[c]
    in their span modulo levels[c]'s relations, class by class.

    Each class is factored once, on first use: one `intmat.Solver` on
    [bases[c] | relations], kept through `groups.owned`.  It holds
    matrices and groups only, no functor or morphism, so the functors and
    morphisms that share it make no reference cycle.
    """

    def __init__(self, bases, levels):
        self.bases = tuple(bases)
        self.levels = tuple(levels)
        self._memo = {}

    @owned
    def _solver(self, c):
        basis, rel = self.bases[c], self.levels[c].relation_lattice
        return intmat.Solver(intmat.hstack([basis, rel]) if rel.shape[1]
                             else basis)

    def lift(self, c, vectors, error):
        """The coordinates of each of `vectors`; a vector outside the span
        raises ValueError(error).  No vectors build no solver."""
        if not len(vectors):
            return []
        solver, k = self._solver(c), self.bases[c].shape[1]
        sols = [solver.solve(v) for v in vectors]
        if any(sol is None for sol in sols):
            raise ValueError(error)
        return [sol[:k] for sol in sols]

    def lift_matrix(self, c, mat, error):
        """The matrix of coordinates of the columns of `mat`."""
        return intmat.from_cols(self.lift(c, mat.T, error),
                                self.bases[c].shape[1])

    def restrict(self, mat, c_src, c_tgt, error):
        """mat, a map of ambient levels, restricted to the spans at c_src
        and c_tgt, in their coordinates."""
        return self.lift_matrix(c_tgt, mat @ self.bases[c_src], error)


class MackeyMorphism:
    """Levelwise matrices, well defined and commuting with the structure
    matrices `_naturality` lists.  Lifts through it read `coordinates`."""

    def __init__(self, source: MackeyFunctor, target: MackeyFunctor,
                 mats, check=True):
        _same_group(source.group, target.group, "source and target")
        mats = tuple(mats)
        if len(mats) != len(source.levels):
            raise ValueError(f"need one matrix per subgroup class: got "
                             f"{len(mats)} for {len(source.levels)}")
        self.source = source
        self.target = target
        self.mats = tuple(_int_matrix(m, source.levels[c].generator_count,
                                      "morphism at class {}", c)
                          for c, m in enumerate(mats))
        if check:
            self._check()

    def _check(self):
        M, N = self.source, self.target
        for c, mat in enumerate(self.mats):
            if not abgroups.map_is_welldefined(mat, M.levels[c], N.levels[c]):
                raise ValueError(f"morphism not well-defined at class {c}")
        for c_src, c_tgt, m_src, m_tgt, label in _naturality(M, N):
            if not abgroups.maps_equal(
                    self.mats[c_tgt] @ m_src, m_tgt @ self.mats[c_src],
                    M.levels[c_src], N.levels[c_tgt]):
                raise ValueError(f"morphism does not commute with {label}")

    @cached_property
    def coordinates(self):
        """Coordinates over `mats` modulo the target's level relations:
        one solver per class, built when a lift first reads it."""
        return _Coordinates(self.mats, self.target.levels)

    def at_gset(self, X: GSet):
        """Induced matrix M(X) -> N(X) in block coordinates."""
        return intmat.block_diag([self.mats[c]
                                  for c in X.orbit_index.classes])

    def __add__(self, other):
        self._check_parallel(other)
        return MackeyMorphism(self.source, self.target,
                              [a + b for a, b in zip(self.mats, other.mats)],
                              check=False)

    def __sub__(self, other):
        self._check_parallel(other)
        return MackeyMorphism(self.source, self.target,
                              [a - b for a, b in zip(self.mats, other.mats)],
                              check=False)

    def _check_parallel(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise ValueError("morphisms are not parallel")

    def is_zero(self):
        return all(abgroups.maps_equal(m, intmat.zeros(*m.shape),
                                       self.source.levels[c], self.target.levels[c])
                   for c, m in enumerate(self.mats))

    def equals(self, other):
        return all(abgroups.maps_equal(a, b, self.source.levels[c],
                                       self.target.levels[c])
                   for c, (a, b) in enumerate(zip(self.mats, other.mats)))

    def inverse(self):
        """Two-sided inverse morphism; raises if any level is not invertible."""
        invs = []
        for c, (mat, src, tgt) in enumerate(zip(
                self.mats, self.source.levels, self.target.levels)):
            error = f"morphism is not invertible at class {c}"
            g = self.coordinates.lift_matrix(c, intmat.identity(len(mat)),
                                             error)
            if not (abgroups.map_is_welldefined(g, tgt, src) and
                    abgroups.maps_equal(g @ mat, intmat.identity(len(g)),
                                        src, src)):
                raise ValueError(error)
            invs.append(g)
        return MackeyMorphism(self.target, self.source, invs, check=False)


def compose_morphisms(g: MackeyMorphism, f: MackeyMorphism) -> MackeyMorphism:
    if f.target is not g.source:
        raise ValueError("morphisms are not composable")
    return MackeyMorphism(f.source, g.target,
                          [g.mats[c] @ f.mats[c] for c in range(len(f.mats))],
                          check=False)


def identity_morphism(M: MackeyFunctor) -> MackeyMorphism:
    return MackeyMorphism(M, M, [intmat.identity(l.generator_count)
                                 for l in M.levels], check=False)


def zero_morphism(M: MackeyFunctor, N: MackeyFunctor) -> MackeyMorphism:
    return MackeyMorphism(M, N, [intmat.zeros(N.levels[c].generator_count,
                                              M.levels[c].generator_count)
                                 for c in range(len(M.levels))], check=False)


# -- constructions along the structure G-maps: representables -----------------------


def mackey_from_gmaps(group: FiniteGroup, levels, along, name=None,
                      check=True):
    """Atlas data of a functor from `along(f, transfer)`, its matrix of
    tr_f if `transfer` and of res_f if not, for f a G-map between standard
    orbits, in level coordinates: res/tr along `gsets.projection_map` at
    each canonical cover, conjugation along `gsets.translation_map`."""
    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        f = projection_map(group, A, B)
        res[(A, B)], tr[(A, B)] = along(f, False), along(f, True)
    conj = [{n: along(translation_map(group, cls.index, n), True)
             for n in cls.normalizer_generators}
            for cls in group.subgroup_classes()]
    return MackeyFunctor(group, levels, res, tr, conj, name=name, check=check)


def representable(X: GSet, name=None) -> MackeyFunctor:
    """The Mackey functor A_X = A(X, -), free on transitive span codes."""
    group = X.group
    classes = group.subgroup_classes()
    bases = [hom_basis(X, standard_orbit(group, c.index)) for c in classes]
    levels = [FinPresAbGroup.free(len(b)) for b in bases]

    def along(f: GMap, transfer):
        """Postcomposition with the span of tr_f or res_f."""
        e = transfer_element(f) if transfer else restriction_element(f)
        src_c = e.source.orbit_index.classes[0]
        tgt_c = e.target.orbit_index.classes[0]
        out = intmat.zeros(len(bases[tgt_c]), len(bases[src_c]))
        for j, code in enumerate(bases[src_c]):
            comp = compose(e, basis_element(X, e.source, code))
            for c2, v in comp.coeffs.items():
                out[bases[tgt_c].index(c2), j] += v
        return out

    return mackey_from_gmaps(group, levels, along,
                             name=name or f"A[{X.name or X.size}]")


@owned
def burnside_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The Burnside Mackey functor A_pt, represented by the one-point G-set."""
    return representable(point_gset(group), name="Burnside")


@owned
def zero_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The zero functor: every level 0, every structure matrix 0 x 0."""
    empty = intmat.zeros(0, 0)
    return mackey_from_gmaps(
        group, [FinPresAbGroup.zero()] * len(group.subgroup_classes()),
        lambda f, transfer: empty, name="0", check=False)


# -- levelwise abelian-category structure ---------------------------------------------


def kernel(f: MackeyMorphism):
    """Kernel subfunctor with its inclusion morphism.

    Structure maps are carried on first read (`_subfunctor`): for an f
    that is not natural (check=False), the first read of one leaving the
    kernel lattices raises "level lattices are not structure-stable".
    """
    if all(intmat.is_zero(m) for m in f.mats):
        return f.source, identity_morphism(f.source)
    levels, bases = zip(*(
        abgroups.subgroup_from_lattice(
            intmat.preimage_lattice(mat, f.target.levels[c].relation_lattice),
            f.source.levels[c])
        for c, mat in enumerate(f.mats)))
    return _subfunctor(f.source, levels, bases, "ker")


def image(f: MackeyMorphism):
    """Image subfunctor of the target with its inclusion morphism;
    structure maps are carried on first read, as in `kernel`."""
    levels, bases = zip(*(abgroups.subgroup_from_lattice(mat, f.target.levels[c])
                          for c, mat in enumerate(f.mats)))
    return _subfunctor(f.target, levels, bases, "im")


def _subfunctor(M: MackeyFunctor, levels, bases, name):
    """The subfunctor of M on the level sublattices spanned by the columns
    of `bases`, with its inclusion.  The carried structure maps read the
    `_Coordinates` set as the inclusion's `coordinates`, so each level is
    factored once, whether a lift or a carried map reads it first."""
    coords = _Coordinates(bases, M.levels)
    sub = _carried(M, levels, lambda m, c_src, c_tgt: coords.restrict(
        m, c_src, c_tgt, "level lattices are not structure-stable"), name)
    incl = MackeyMorphism(sub, M, bases, check=False)
    incl.coordinates = coords
    return sub, incl


def _carried(M: MackeyFunctor, levels, carry, name):
    """The functor on `levels` whose res, tr and conj are M's, each matrix
    m from class c_src to class c_tgt replaced by carry(m, c_src, c_tgt).

    Each entry is carried when first read and stored (`CarriedMatrices`),
    so an error of `carry`, such as "level lattices are not
    structure-stable", is raised by that read, not here.
    """
    cidx = M.group.class_index_of
    res = CarriedMatrices(M.res, lambda k: carry(M.res[k], cidx(k[1]),
                                                 cidx(k[0])))
    tr = CarriedMatrices(M.tr, lambda k: carry(M.tr[k], cidx(k[0]),
                                               cidx(k[1])))
    conj = [CarriedMatrices(w, lambda n, c=c, w=w: carry(w[n], c, c))
            for c, w in enumerate(M.conj)]
    return MackeyFunctor(M.group, levels, res, tr, conj, name=name,
                         check=False)


def minimize_presentation(M: MackeyFunctor):
    """Isomorphic functor with one generator per invariant factor.

    Returns (Mmin, section, projection) with projection . section the
    identity of Mmin and section . projection the identity of M modulo
    relations.  Quotient constructions leave many redundant generators
    behind; shrinking them keeps later solves small.
    """
    # None: a relator-free level, already minimal, with identity maps
    levels, projs, sects = zip(*(lvl.minimal_presentation()
                                 for lvl in M.levels))

    def squeeze(W, c_src, c_tgt):
        P, S = projs[c_tgt], sects[c_src]
        W = W if S is None else intmat.sparse_mm(W, S)
        return W if P is None else P @ W

    Mmin = _carried(M, levels, squeeze, M.name)
    eye = {c: intmat.identity(M.levels[c].generator_count)
           for c, P in enumerate(projs) if P is None}
    section = MackeyMorphism(Mmin, M, [eye.get(c, S) for c, S in enumerate(sects)],
                             check=False)
    projection = MackeyMorphism(M, Mmin, [eye.get(c, P) for c, P in enumerate(projs)],
                                check=False)
    return Mmin, section, projection


def cokernel(f: MackeyMorphism):
    """Cokernel functor with its projection morphism; it shares f.target's
    structure mappings, so carried ones stay unread."""
    group = f.source.group
    levels = [abgroups.quotient_by_columns(f.target.levels[c], mat)
              for c, mat in enumerate(f.mats)]
    M = f.target
    quo = MackeyFunctor(group, levels, M.res, M.tr, M.conj,
                        name=f"coker({M.name})", check=False)
    proj = MackeyMorphism(M, quo,
                          [intmat.identity(l.generator_count) for l in M.levels],
                          check=False)
    return quo, proj


def direct_sum(M: MackeyFunctor, N: MackeyFunctor):
    """Biproduct with its two inclusion and two projection morphisms."""
    group = M.group
    summands = (M, N)
    levels, offsets = zip(*(
        abgroups.direct_sum_groups([F.levels[c] for F in summands])
        for c in range(len(M.levels))))
    covers = group.canonical_covers
    res = {k: intmat.block_diag([F.res[k] for F in summands]) for k in covers}
    tr = {k: intmat.block_diag([F.tr[k] for F in summands]) for k in covers}
    conj = [{n: intmat.block_diag([F.conj[c][n] for F in summands])
             for n in w}
            for c, w in enumerate(M.conj)]
    D = MackeyFunctor(group, levels, res, tr, conj,
                      name=f"{M.name}+{N.name}", check=False)
    incls, projs = [], []
    for b, F in enumerate(summands):
        inc_mats = []
        for c, lvl in enumerate(D.levels):
            n_f = F.levels[c].generator_count
            off = offsets[c][b]
            inc = intmat.zeros(lvl.generator_count, n_f)
            inc[off:off + n_f, :] = intmat.identity(n_f)
            inc_mats.append(inc)
        incls.append(MackeyMorphism(F, D, inc_mats, check=False))
        projs.append(MackeyMorphism(D, F, [m.T.copy() for m in inc_mats],
                                    check=False))
    return D, incls[0], incls[1], projs[0], projs[1]


def _is_identity(incl: MackeyMorphism):
    return all(m.shape[0] == m.shape[1]
               and intmat.mats_equal(m, intmat.identity(m.shape[0]))
               for m in incl.mats)


def lift_columns(incl: MackeyMorphism, c, cols):
    """Coordinates over incl.source(G/H_c) of the vectors `cols` of
    incl.target(G/H_c), read off `incl.coordinates`, which factors the
    level once for every lift through incl and, for a kernel or image,
    for its carried structure maps too; an identity returns them."""
    if _is_identity(incl):
        return list(cols)
    return incl.coordinates.lift(
        c, cols, "morphism does not factor through the subfunctor")


def lift_through_inclusion(incl: MackeyMorphism, f: MackeyMorphism):
    """Factor f: X -> M through a subfunctor inclusion S -> M.  Raises
    ValueError unless f maps into incl's target."""
    if f.target is not incl.target:
        raise ValueError("the morphism does not map into the inclusion's "
                         "target")
    mats = f.mats if _is_identity(incl) else [
        intmat.from_cols(lift_columns(incl, c, mat.T), incl.mats[c].shape[1])
        for c, mat in enumerate(f.mats)]
    return MackeyMorphism(f.source, incl.source, mats, check=False)


def homology_at(d_in: MackeyMorphism, d_out: MackeyMorphism):
    """ker(d_out)/im(d_in), minimized.

    Returns (H, ker_incl, proj, section): proj carries kernel coordinates
    onto H, and section picks a representing cycle (in kernel coordinates)
    for each H generator.
    """
    K, incl = kernel(d_out)
    j = lift_through_inclusion(incl, d_in)
    Hbig, _proj_big = cokernel(j)          # generators = kernel generators
    H, section, projection = minimize_presentation(Hbig)
    return H, incl, projection, section


# -- natural transformations ------------------------------------------------------


@dataclass
class HomGroup:
    """hom(M, N) as a finitely presented group with explicit basis morphisms."""
    group: FinPresAbGroup
    basis: list            # MackeyMorphism per generator
    source: MackeyFunctor
    target: MackeyFunctor


class NatSolver:
    """Integer solver for naturality-style conditions on hom(M, N).

    The unknowns are vec(U_c), each level matrix U_c: M_c -> N_c read row
    by row, stacked in class order.  A condition is one block matrix over
    them, {class: block}, read modulo the relations rel of a level of N:
    its value, an n x k matrix read row by row, must have every column in
    the span of rel, so its slack columns are rel (x) I_k.  Read row by
    row, vec(A U B) = (A (x) B^T) vec(U): well-definedness U_c rel(M_c) is
    the block I (x) rel(M_c)^T, and U_t m_s = m_t U_s the blocks
    I (x) m_s^T at t and -(m_t (x) I) at s.
    """

    def __init__(self, M: MackeyFunctor, N: MackeyFunctor):
        self.M = M
        self.N = N
        self.conditions = []
        for c, (src, tgt) in enumerate(zip(M.levels, N.levels)):
            self.add_condition({c: intmat.kron(
                intmat.identity(tgt.generator_count),
                src.relation_lattice.T)}, tgt)
        for c_src, c_tgt, m_src, m_tgt, _ in _naturality(M, N):
            self.add_commuting(c_src, c_tgt, m_src, m_tgt)

    def add_condition(self, blocks, tgt_level):
        """blocks: {class c: matrix on vec(U_c)}, all with the rows of one
        n x k value read modulo tgt_level's relations, column by column."""
        self.conditions.append((blocks, tgt_level))

    def add_commuting(self, c_src, c_tgt, m_src, m_tgt):
        """U_{c_tgt} @ m_src = m_tgt @ U_{c_src}  (mod N relations)."""
        n = self.N.levels[c_tgt].generator_count
        blocks = {c_tgt: intmat.kron(intmat.identity(n), m_src.T)}
        blocks[c_src] = blocks.get(c_src, 0) - intmat.kron(
            m_tgt, intmat.identity(m_src.shape[1]))
        self.add_condition(blocks, self.N.levels[c_tgt])

    def solve(self) -> HomGroup:
        M, N = self.M, self.N
        shapes = [(b.generator_count, a.generator_count)
                  for a, b in zip(M.levels, N.levels)]
        starts = np.cumsum([0] + [r * c for r, c in shapes]).tolist()
        total = starts[-1]
        rows, slack = [], []
        for blocks, lvl in self.conditions:
            m = len(next(iter(blocks.values())))
            row = intmat.zeros(m, total)
            for c, block in blocks.items():
                row[:, starts[c]:starts[c + 1]] += block
            rows.append(row)
            n = lvl.generator_count
            slack.append(intmat.kron(lvl.relation_lattice,
                                     intmat.identity(m // n if n else 0)))
        if not total:
            sol = rels = intmat.zeros(0, 0)
        else:
            big = intmat.hstack([intmat.vstack(rows),
                                 intmat.block_diag(slack)])
            sol = intmat.hermite_normal_form(intmat.kernel(big)[:total, :])
            zero = intmat.block_diag([
                intmat.kron(b.relation_lattice, intmat.identity(a))
                for b, (_, a) in zip(N.levels, shapes)])
            rels = intmat.preimage_lattice(sol, zero)
        basis = [MackeyMorphism(M, N, [
            v[lo:hi].reshape(shape)
            for lo, hi, shape in zip(starts, starts[1:], shapes)],
            check=False) for v in sol.T]
        return HomGroup(FinPresAbGroup(sol.shape[1], rels.T), basis, M, N)


def hom_mackey(M: MackeyFunctor, N: MackeyFunctor) -> HomGroup:
    """Natural transformations M -> N, solved as one integer linear system."""
    return NatSolver(M, N).solve()


# -- Yoneda -----------------------------------------------------------------------


def identity_element_vector(X: GSet):
    """Coordinates of [id_X] in A_X(X), block by block over the orbits of X.

    The block of an orbit of class c is A_X(G/H_c), on the basis
    hom_basis(X, G/H_c), and holds the restriction along the orbit's
    standard embedding emb: one transitive span, marked at the least
    (emb(o), o) over the points o of G/H_c fixed by H_c, which are the
    N(H_c)-translates of the base.  No span is built.
    """
    group = X.group
    classes = X.orbit_index.classes
    bases = {c: hom_basis(X, standard_orbit(group, c)) for c in set(classes)}
    vec = intmat.zero_vec(sum(len(bases[c]) for c in classes))
    lo = 0
    for emb, c in zip(X.orbit_embeddings, classes):
        x, y = min((emb(o), o) for o in emb.source.fixed_orbits[c].points)
        vec[lo + bases[c].index((c, x, y))] = 1
        lo += len(bases[c])
    return vec


# -- fixed-point (Borel) construction ----------------------------------------------


def fixed_point_mackey(group: FiniteGroup, V: FinPresAbGroup, action,
                       name=None) -> MackeyFunctor:
    """Right Kan extension of a G-module from free orbits.

    Levels are the H-fixed subgroups of V; res and tr along a G-map f
    are precomposition with f and the sum over its fibres: inclusions,
    coset sums and, along translations, the module action.
    `action` maps each group element to a matrix on V's generators.  It is
    proven a representation, as `GSet` proves an action, by rho(e) = 1 and
    rho(g s) = rho(g) rho(s) for every g and every s in `group.generators`:
    the h with rho(g h) = rho(g) rho(h) for all g include e and every
    generator and are closed under right multiplication by a generator, so
    they are every element of G.  An entry of `action[g]` that is not an
    integer, or a matrix that is not n x n, raises ValueError naming it.
    """
    n = V.generator_count
    act = {}
    for g in group.elements():
        try:
            given = action[g]
        except LookupError:
            raise ValueError(f"action has no matrix for element {g}") from None
        act[g] = _int_matrix(given, n, "action[{}]", g)
        if act[g].shape != (n, n):
            raise ValueError(f"action[{g}] must be {n} x {n}, "
                             f"got {act[g].shape[0]} x {act[g].shape[1]}")
    ident = intmat.identity(n)
    if not abgroups.maps_equal(act[0], ident, V, V):
        raise ValueError("identity must act trivially")
    for g in group.elements():
        if not abgroups.map_is_welldefined(act[g], V, V):
            raise ValueError(f"action of {g} is not well-defined")
        for s in group.generators:
            if not abgroups.maps_equal(act[g] @ act[s], act[group.mul(g, s)],
                                       V, V):
                raise ValueError("action matrices are not a representation")

    classes = group.subgroup_classes()
    fixed_basis = []
    levels = []
    for cls in classes:
        H = cls.representative
        if len(H) == 1:
            lat = intmat.identity(n)
        else:
            stacked = intmat.vstack([act[h] - ident for h in H if h != 0])
            rel = V.relation_lattice
            big_rel = intmat.block_diag([rel] * (len(H) - 1)) if rel.shape[1] \
                else intmat.zeros(stacked.shape[0], 0)
            lat = intmat.preimage_lattice(stacked, big_rel)
        grp, basis = abgroups.subgroup_from_lattice(lat, V)
        fixed_basis.append(basis)
        levels.append(grp)

    fixed = _Coordinates(fixed_basis, [V] * len(classes))

    def on_fixed(mat, c_src, c_tgt):
        return fixed.restrict(mat, c_src, c_tgt,
                              "fixed-point bookkeeping is broken")

    def along(f: GMap, transfer):
        # res_f v = rho(g) v for g.base = f(base); tr_f v sums rho(g_x) v
        # over the points x = g_x.base with f(x) = base
        ca, cb = (Z.orbit_index.classes[0] for Z in (f.source, f.target))
        if not transfer:
            return on_fixed(act[f.target.orbit_index.reach[f.mapping[0]]],
                            cb, ca)
        reach = f.source.orbit_index.reach
        return on_fixed(sum((act[reach[x]] for x, y in enumerate(f.mapping)
                             if y == 0), intmat.zeros(n, n)), ca, cb)

    return mackey_from_gmaps(group, levels, along, name=name or "FP")


def trivial_module(group: FiniteGroup, V: FinPresAbGroup):
    """Constant action data for fixed_point_mackey."""
    n = V.generator_count
    return {g: intmat.identity(n) for g in group.elements()}


def regular_module(group: FiniteGroup):
    """Z[G] with the left regular action."""
    n = group.order
    V = FinPresAbGroup.free(n)
    act = {}
    for g in group.elements():
        m = intmat.zeros(n, n)
        for x in group.elements():
            m[group.mul(g, x), x] = 1
        act[g] = m
    return V, act


# -- user-facing constructor --------------------------------------------------------


def mackey_from_levels(group: FiniteGroup, levels, res_data, tr_data, conj_data,
                       name=None):
    """Build and validate a Mackey functor from generating data.

    `res_data`/`tr_data` are keyed by class covering pairs (ca, cb); the
    matrices are read against the canonical pair of
    `FiniteGroup.canonical_covers` (the minimal maximal subgroup of the
    class-cb representative lying in class ca).  `conj_data[c]` maps
    elements of the normalizer of the class-c representative to matrices;
    with the identity on the representative's generators they must
    generate the normalizer, and they give the stored generator matrices.
    Raises ValueError when class pairs cannot address the stored data
    (see class_pair_covers), on bad shapes, naming the class and the
    element when a given matrix disagrees with the action generated by
    the stored ones, and through validate_functoriality on data violating
    a Mackey-algebra relation.
    """
    classes = group.subgroup_classes()
    levels = tuple(levels)

    given, conj = [], []
    for cls in classes:
        n = levels[cls.index].generator_count
        mats = {}
        for g, m in conj_data.get(cls.index, {}).items():
            if g not in cls.normalizer:
                raise ValueError(f"{g} does not normalize class {cls.label}")
            mats[g] = _int_matrix(m, n, "conj {} {}", cls.label, g)
        known = _generated_action(
            group, {**dict.fromkeys(cls.generators, intmat.identity(n)),
                    **mats}, intmat.identity(n))
        missing = [g for g in cls.normalizer if g not in known]
        if missing:
            raise ValueError(f"conjugation data does not generate the "
                             f"normalizer action at class {cls.label}: "
                             f"missing {missing}")
        given.append(mats)
        conj.append({s: known[s] for s in cls.normalizer_generators})

    res, tr = {}, {}
    for (ca, cb), pair in class_pair_covers(group).items():
        if (ca, cb) not in res_data or (ca, cb) not in tr_data:
            raise ValueError(f"missing res/tr data for class pair ({ca},{cb})")
        where = (classes[ca].label, classes[cb].label)
        res[pair] = _int_matrix(res_data[(ca, cb)], levels[cb].generator_count,
                                "res {}<{}", *where)
        tr[pair] = _int_matrix(tr_data[(ca, cb)], levels[ca].generator_count,
                               "tr {}<{}", *where)
    M = MackeyFunctor(group, levels, res, tr, conj, name=name)
    for cls, mats in zip(classes, given):
        lvl = levels[cls.index]
        for g, m in mats.items():
            if not abgroups.maps_equal(m, M.weyl[cls.index][g], lvl, lvl):
                raise ValueError(
                    f"conjugation by {g} at class {cls.label} disagrees with "
                    f"the action generated by {cls.normalizer_generators}")
    M.validate_functoriality()
    return M
