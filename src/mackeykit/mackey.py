"""Ordinary Mackey functors for a finite group, with exact arithmetic.

A Mackey functor stores one finitely presented abelian group per
subgroup-conjugacy class, one restriction and one transfer matrix per
G-conjugacy class of covering pairs (read against the canonical pair of
`FiniteGroup.canonical_covers`), and the normalizer action on each class
representative.  Values at arbitrary subgroups are reached through fixed
transport elements (the minimal conjugator onto the class
representative); the covering step at any other pair is derived from the
stored one by conjugation, and arbitrary spans are evaluated by factoring
each transitive span as transfer . conjugation . restriction.
Functoriality of that evaluation is equivalent to the relations of the
Mackey algebra (Thevenaz-Webb, Trans. AMS 347, 1995, section 3).
`validate_functoriality` checks a generating set of them rather than
trusting: the homomorphism relation on generators of each normalizer,
and the res/tr relations at class representatives and canonical pairs
only, for generators of their stabilizers.  Every other instance is a
product or a conjugate of a checked one; its docstring has the proof.

Ownership: functors and morphisms keep the 2-D object arrays they are
given, so stored matrices may be shared with the caller and between
functors (a cokernel shares its target's structure matrices).  Stored
matrices are never written; other input is converted and checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import abgroups, intmat
from .abgroups import FinPresAbGroup, _int_matrix
from .burnside import (
    BurnsideElement,
    basis_element,
    compose,
    hom_basis,
    res_element,
    tr_element,
    weyl_element,
)
from .groups import FiniteGroup
from .gsets import GMap, GSet, standard_orbit


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


class MackeyFunctor:
    """Levels on subgroup classes plus generating structure matrices.

    `res`/`tr` hold one matrix per G-conjugacy class of covering pairs,
    keyed by the canonical pairs of `FiniteGroup.canonical_covers`.
    """

    def __init__(self, group: FiniteGroup, levels, res, tr, weyl,
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
        self.res = {k: _int_matrix(res[k], self._gens(k[1]), "res at {}", k)
                    for k in covers}
        self.tr = {k: _int_matrix(tr[k], self._gens(k[0]), "tr at {}", k)
                   for k in covers}
        self.weyl = tuple(
            {n: _int_matrix(m, self.levels[c].generator_count,
                            "conjugation by {} at class {}", n, c)
             for n, m in w.items()}
            for c, w in enumerate(weyl))
        self.name = name
        self._cache = {}
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
            w = self.weyl[cls.index]
            lvl = self.levels[cls.index]
            for n in cls.normalizer:
                if n not in w:
                    raise ValueError(f"missing normalizer action {n} at class "
                                     f"{cls.label}")
                if not abgroups.map_is_welldefined(w[n], lvl, lvl):
                    raise ValueError(f"conjugation not well-defined at {cls.label}")
            for h in cls.representative:
                if not abgroups.maps_equal(w[h], intmat.identity(lvl.generator_count),
                                           lvl, lvl):
                    raise ValueError(f"inner conjugation must act trivially "
                                     f"at class {cls.label}")

    def __repr__(self):
        name = self.name or "MackeyFunctor"
        ranks = [lvl.describe() for lvl in self.levels]
        return f"{name}({', '.join(ranks)})"

    # -- derived structure matrices ---------------------------------------------

    def conj_mat(self, g, L):
        """Matrix of conjugation by g from M@L to M@(gLg^-1), in class coords."""
        c, n = self.group.conj_index(g, L)
        return self.weyl[c][n]

    def cover_mats(self, A, B):
        """(res, tr) of the covering step A < B, in class coords.

        t = transport(B) carries the step to A2 < K0, K0 the class
        representative, and the minimal u in N(K0) carries A2 onto the
        canonical Hp, whose stored matrices give
        res = c_{t^-1} c_{u^-1} res(Hp, K0) c_u, and dually tr.
        """
        key = ("cover", A, B)
        if key not in self._cache:
            group = self.group
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
            self._cache[key] = (r, tr)
        return self._cache[key]

    def res_mat(self, A, B):
        """Matrix of restriction from M@B to M@A (A <= B), in class coords."""
        A, B = tuple(sorted(A)), tuple(sorted(B))
        key = ("res", A, B)
        if key in self._cache:
            return self._cache[key]
        if A == B:
            out = intmat.identity(self._gens(A))
        else:
            M = self.group.maximal_under(A, B)
            out = self.res_mat(A, M) @ self.cover_mats(M, B)[0]
        self._cache[key] = out
        return out

    def tr_mat(self, A, B):
        """Matrix of transfer from M@A to M@B (A <= B), in class coords."""
        A, B = tuple(sorted(A)), tuple(sorted(B))
        key = ("tr", A, B)
        if key in self._cache:
            return self._cache[key]
        if A == B:
            out = intmat.identity(self._gens(A))
        else:
            M = self.group.maximal_under(A, B)
            out = self.cover_mats(M, B)[1] @ self.tr_mat(A, M)
        self._cache[key] = out
        return out

    # -- values at arbitrary G-sets ----------------------------------------------

    def value_at(self, X: GSet):
        """M(X) as a direct sum of class levels; returns (group, offsets)."""
        key = ("value", X.orbit_index.classes)
        if key not in self._cache:
            self._cache[key] = abgroups.direct_sum_groups(
                [self.levels[c] for c in key[1]])
        return self._cache[key]

    def eval_span(self, e: BurnsideElement):
        """Matrix of M applied to a Burnside element, M(source) -> M(target)."""
        if e.group != self.group:
            raise ValueError("element lives over a different group")
        X, Y = e.source, e.target
        gx, offx = self.value_at(X)
        gy, offy = self.value_at(Y)
        out = intmat.zeros(gy.generator_count, gx.generator_count)
        for code, a in e.coeffs.items():
            block, (bx, by) = self._eval_code(X.orbit_index, Y.orbit_index,
                                              code)
            rows, cols = block.shape
            out[offy[by]:offy[by] + rows, offx[bx]:offx[bx] + cols] += a * block
        return out

    def _eval_code(self, ix, iy, code):
        """Block of a transitive span code and its (source, target) orbits.

        The block depends on group data only: the code's class and, for
        each foot, the stabilizer of the orbit's base point and the least
        element carrying the base to the code's point.  It is cached under
        that key, so the cache is bounded by the group and holds no G-set.
        """
        cidx, x, y = code
        bx, a = ix.orbit_of[x], ix.reach[x]
        by, b = iy.orbit_of[y], iy.reach[y]
        stabx, staby = ix.stabilizers[bx], iy.stabilizers[by]
        key = ("block", cidx, stabx, a, staby, b)
        if key not in self._cache:
            group = self.group
            classes = group.subgroup_classes()
            L = classes[cidx].representative
            # transport to the standard-orbit picture:  h carries the middle
            # base point into the class representative's coset space
            h = group.mul(a, group.inv(group.transport(stabx)))
            k = group.mul(b, group.inv(group.transport(staby)))
            Sx0 = classes[ix.classes[bx]].representative
            Sy0 = classes[iy.classes[by]].representative
            A2 = group.conjugate_subgroup(group.inv(h), L)
            B2 = group.conjugate_subgroup(group.inv(k), L)
            left = self.conj_mat(h, A2) @ self.res_mat(A2, Sx0)
            right = self.tr_mat(B2, Sy0) @ self.conj_mat(group.inv(k), L)
            self._cache[key] = right @ left
        return self._cache[key], (bx, by)

    # -- validation ----------------------------------------------------------------

    def validate_functoriality(self):
        """Check the Mackey-algebra relations on a generating set of them.

        The span evaluation is a functor exactly when the relations of
        Thevenaz-Webb (Trans. AMS 347, 1995, section 3) hold at every
        subgroup and every group element.  This checks, on every cell and
        modulo the target level's relations (written ==):

        (I) w(e) == 1 and w(h) == 1 for h in `SubgroupClass.generators`;
        (H) w(a) w(s) == w(as) for every a in N(H) and s in
            `SubgroupClass.normalizer_generators`;
        (C) conjugation commutes with the stored res and tr at each
            canonical pair (Hp, K0), for the generators of N(K0) cap N(Hp);
        (T) transitivity: res_mat/tr_mat through a covering step C < B equal
            res_mat/tr_mat along the chain `maximal_under` picks, for B a
            class representative and every A < C;
        (D) the double-coset formula res^L_H tr^L_K =
            sum_{x in H\\L/K} tr^H_{xDx^-1} c_x res^K_D, D = x^-1Hx cap K,
            for L a class representative and every H, K <= L.

        `FiniteGroup.relation_plan` holds the group data of (C), (T), (D).
        Here w is `weyl`; the stored matrices are well-defined (the
        constructor checks it), so == survives composition on both sides.
        These relations imply the full set:

        1. Writing b = s1...sk in generators, (H) gives w(ab) ==
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

        Every checked cell is also a cell of the exhaustive check (the
        oracle in the tests), so both accept the same data.  Returns
        {relation: cells checked}.  Raises ValueError naming the relation
        and the subgroups of the first failing cell.
        """
        group = self.group
        plan = group.relation_plan
        cidx = group.class_index_of
        counts = {}

        def check(lhs, rhs, src, tgt, relation, where):
            counts[relation] = counts.get(relation, 0) + 1
            if not abgroups.maps_equal(lhs, rhs, self.levels[src],
                                       self.levels[tgt]):
                raise ValueError(f"functoriality fails: {relation} at {where}")

        for cls in group.subgroup_classes():
            c, w = cls.index, self.weyl[cls.index]
            ident = intmat.identity(self.levels[c].generator_count)
            for h in (0,) + cls.generators:
                check(w[h], ident, c, c, "inner conjugation is trivial",
                      f"{h} in {cls.representative}")
            for a in cls.normalizer:
                for s in cls.normalizer_generators:
                    check(w[a] @ w[s], w[group.mul(a, s)], c, c,
                          "conjugation is a homomorphism",
                          f"{a}*{s} on {cls.representative}")
        for (Hp, K0), gens in plan.conjugation:
            ch, ck = cidx(Hp), cidx(K0)
            r, t = self.res[(Hp, K0)], self.tr[(Hp, K0)]
            for n, (c, m) in gens:
                wh, wk = self.weyl[c][m], self.weyl[ck][n]
                where = f"{n} on {Hp} < {K0}"
                check(wh @ r, r @ wk, ck, ch,
                      "conjugation commutes with restriction", where)
                check(wk @ t, t @ wh, ch, ck,
                      "conjugation commutes with transfer", where)
        for (A, C, B) in plan.transitivity:
            r, t = self.cover_mats(C, B)
            where = f"{A} < {C} < {B}"
            check(self.res_mat(A, C) @ r, self.res_mat(A, B), cidx(B),
                  cidx(A), "transitivity of restriction", where)
            check(t @ self.tr_mat(A, C), self.tr_mat(A, B), cidx(A),
                  cidx(B), "transitivity of transfer", where)
        for (L, H, K, terms) in plan.double_coset:
            rhs = intmat.zeros(self._gens(H), self._gens(K))
            for (E, D, (c, m)) in terms:
                rhs = rhs + self.tr_mat(E, H) @ self.weyl[c][m] \
                    @ self.res_mat(D, K)
            check(self.res_mat(H, L) @ self.tr_mat(K, L), rhs, cidx(K),
                  cidx(H), "double-coset formula", f"res^{L}_{H} tr^{L}_{K}")
        return counts


# -- morphisms ---------------------------------------------------------------------


class MackeyMorphism:
    """Levelwise matrices commuting with res, tr and conjugation.

    Commuting with conjugation is checked on the generators of each N(H):
    both functors' conjugations are homomorphisms, so it follows for every
    product of generators.
    """

    def __init__(self, source: MackeyFunctor, target: MackeyFunctor,
                 mats, check=True):
        if source.group != target.group:
            raise ValueError("source and target over different groups")
        self.source = source
        self.target = target
        self.mats = tuple(_int_matrix(m, source.levels[c].generator_count,
                                      "morphism at class {}", c)
                          for c, m in enumerate(mats))
        if check:
            self._check()

    def _check(self):
        group = self.source.group
        for c, mat in enumerate(self.mats):
            if not abgroups.map_is_welldefined(mat, self.source.levels[c],
                                               self.target.levels[c]):
                raise ValueError(f"morphism not well-defined at class {c}")
        for (A, B) in group.canonical_covers:
            ca, cb = group.class_index_of(A), group.class_index_of(B)
            if not abgroups.maps_equal(
                    self.mats[ca] @ self.source.res[(A, B)],
                    self.target.res[(A, B)] @ self.mats[cb],
                    self.source.levels[cb], self.target.levels[ca]):
                raise ValueError(f"morphism does not commute with res at {A}<{B}")
            if not abgroups.maps_equal(
                    self.mats[cb] @ self.source.tr[(A, B)],
                    self.target.tr[(A, B)] @ self.mats[ca],
                    self.source.levels[ca], self.target.levels[cb]):
                raise ValueError(f"morphism does not commute with tr at {A}<{B}")
        for cls in group.subgroup_classes():
            c = cls.index
            for n in cls.normalizer_generators:
                if not abgroups.maps_equal(
                        self.mats[c] @ self.source.weyl[c][n],
                        self.target.weyl[c][n] @ self.mats[c],
                        self.source.levels[c], self.target.levels[c]):
                    raise ValueError(
                        f"morphism does not commute with conjugation at class {c}")

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
            if self.source != other.source or self.target != other.target:
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
        for c, mat in enumerate(self.mats):
            inv = _invert_mod(mat, self.source.levels[c], self.target.levels[c])
            if inv is None:
                raise ValueError(f"morphism is not invertible at class {c}")
            invs.append(inv)
        return MackeyMorphism(self.target, self.source, invs, check=False)


def compose_morphisms(g: MackeyMorphism, f: MackeyMorphism) -> MackeyMorphism:
    if f.target != g.source and f.target is not g.source:
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


def _invert_mod(mat, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Matrix g with mat@g = id (mod tgt rels) and g@mat = id (mod src rels)."""
    n_t, n_s = mat.shape
    lat = tgt.relation_lattice
    stacked = intmat.hstack([mat, lat]) if lat.shape[1] else mat
    solver = intmat.Solver(stacked)
    cols = []
    for j in range(n_t):
        rhs = intmat.zero_vec(n_t)
        rhs[j] = 1
        sol = solver.solve(rhs)
        if sol is None:
            return None
        cols.append(sol[:n_s])
    g = intmat.from_cols(cols, n_s)
    if not abgroups.map_is_welldefined(g, tgt, src):
        return None
    if not abgroups.maps_equal(g @ mat, intmat.identity(n_s), src, src):
        return None
    return g


# -- constructions: representables, span actions ------------------------------------


def mackey_from_span_action(group: FiniteGroup, levels, action, name=None,
                            check=True):
    """Build atlas data by evaluating a functor on structure spans.

    `action(e)` must return the matrix of the functor on a Burnside element
    e between standard orbits, in the corresponding level coordinates.
    """
    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        res[(A, B)] = action(res_element(group, A, B))
        tr[(A, B)] = action(tr_element(group, A, B))
    weyl = []
    for cls in group.subgroup_classes():
        weyl.append({n: action(weyl_element(group, cls.index, n))
                     for n in cls.normalizer})
    return MackeyFunctor(group, levels, res, tr, weyl, name=name, check=check)


def representable(X: GSet, name=None) -> MackeyFunctor:
    """The Mackey functor A_X = A(X, -), free on transitive span codes."""
    group = X.group
    classes = group.subgroup_classes()
    bases = [hom_basis(X, standard_orbit(group, c.index)) for c in classes]
    levels = [FinPresAbGroup.free(len(b)) for b in bases]

    def action(e: BurnsideElement):
        src_c = e.source.orbit_index.classes[0]
        tgt_c = e.target.orbit_index.classes[0]
        out = intmat.zeros(len(bases[tgt_c]), len(bases[src_c]))
        for j, code in enumerate(bases[src_c]):
            comp = compose(e, basis_element(X, e.source, code))
            for c2, v in comp.coeffs.items():
                out[bases[tgt_c].index(c2), j] += v
        return out

    M = mackey_from_span_action(group, levels, action,
                                name=name or f"A[{X.name or X.size}]")
    M._cache["rep_bases"] = bases
    return M


def representable_basis(M: MackeyFunctor, cidx):
    return M._cache["rep_bases"][cidx]


def burnside_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The Burnside Mackey functor, represented by the one-point G-set."""
    from .gsets import point_gset
    return representable(point_gset(group), name="Burnside")


def zero_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The zero functor: every level 0, every structure matrix 0 x 0."""
    if "zero_mackey" not in group._cache:
        classes = group.subgroup_classes()
        covers = group.canonical_covers
        empty = intmat.zeros(0, 0)
        group._cache["zero_mackey"] = MackeyFunctor(
            group, [FinPresAbGroup.zero()] * len(classes),
            dict.fromkeys(covers, empty), dict.fromkeys(covers, empty),
            [dict.fromkeys(cls.normalizer, empty) for cls in classes],
            name="0", check=False)
    return group._cache["zero_mackey"]


# -- levelwise abelian-category structure ---------------------------------------------


def _literally_zero(f: MackeyMorphism) -> bool:
    return all(intmat.is_zero(m) for m in f.mats)


def kernel(f: MackeyMorphism):
    """Kernel subfunctor with its inclusion morphism."""
    if _literally_zero(f):
        return f.source, identity_morphism(f.source)
    incls = []
    levels = []
    for c, mat in enumerate(f.mats):
        K = intmat.preimage_lattice(mat, f.target.levels[c].relation_lattice)
        grp, basis = abgroups.subgroup_from_lattice(K, f.source.levels[c])
        incls.append(basis)
        levels.append(grp)
    sub = _subfunctor(f.source, levels, incls, name="ker")
    incl = MackeyMorphism(sub, f.source, incls, check=False)
    return sub, incl


def image(f: MackeyMorphism):
    """Image subfunctor of the target with its inclusion morphism."""
    levels, incls = [], []
    for c, mat in enumerate(f.mats):
        grp, basis = abgroups.image_of_map(mat, f.source.levels[c],
                                           f.target.levels[c])
        levels.append(grp)
        incls.append(basis)
    sub = _subfunctor(f.target, levels, incls, name="im")
    incl = MackeyMorphism(sub, f.target, incls, check=False)
    return sub, incl


def _subfunctor(M: MackeyFunctor, levels, incls, name=None):
    """Subfunctor on given level sublattices (columns of incls)."""
    group = M.group

    solvers = {}

    def restrict(mat, c_src, c_tgt):
        cols = []
        if c_tgt not in solvers:
            lat = intmat.hstack([incls[c_tgt],
                                 M.levels[c_tgt].relation_lattice]) \
                if M.levels[c_tgt].relation_lattice.shape[1] else incls[c_tgt]
            solvers[c_tgt] = intmat.Solver(lat)
        k = incls[c_tgt].shape[1]
        for j in range(incls[c_src].shape[1]):
            v = mat @ incls[c_src][:, j]
            sol = solvers[c_tgt].solve(v)
            if sol is None:
                raise ValueError("level lattices are not structure-stable")
            cols.append(sol[:k])
        return intmat.from_cols(cols, k)

    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        res[(A, B)] = restrict(M.res[(A, B)], cb, ca)
        tr[(A, B)] = restrict(M.tr[(A, B)], ca, cb)
    weyl = []
    for cls in group.subgroup_classes():
        weyl.append({n: restrict(M.weyl[cls.index][n], cls.index, cls.index)
                     for n in cls.normalizer})
    return MackeyFunctor(group, levels, res, tr, weyl,
                         name=name or f"sub({M.name})", check=False)


def minimize_presentation(M: MackeyFunctor):
    """Isomorphic functor with one generator per invariant factor.

    Returns (Mmin, section, projection) with projection . section the
    identity of Mmin and section . projection the identity of M modulo
    relations.  Quotient constructions leave many redundant generators
    behind; shrinking them keeps later solves small.
    """
    projs, sects, levels = [], [], []
    for lvl in M.levels:
        if lvl._transforms is None:
            # relator-free: already minimal, projection and section are
            # the identity, marked None
            levels.append(lvl)
            projs.append(None)
            sects.append(None)
            continue
        U, Uinv = lvl._transforms
        keep = [i for i, d in enumerate(lvl._diag) if d != 1]
        levels.append(FinPresAbGroup.from_invariants(
            [lvl._diag[i] for i in keep]))
        projs.append(U[keep, :] if keep else
                     intmat.zeros(0, lvl.generator_count))
        sects.append(Uinv[:, keep] if keep else
                     intmat.zeros(lvl.generator_count, 0))
    group = M.group

    def squeeze(P, W, S):
        W = W if S is None else intmat.sparse_mm(W, S)
        return W if P is None else P @ W

    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        res[(A, B)] = squeeze(projs[ca], M.res[(A, B)], sects[cb])
        tr[(A, B)] = squeeze(projs[cb], M.tr[(A, B)], sects[ca])
    weyl = []
    for cls in group.subgroup_classes():
        c = cls.index
        weyl.append({n: squeeze(projs[c], M.weyl[c][n], sects[c])
                     for n in cls.normalizer})
    Mmin = MackeyFunctor(group, levels, res, tr, weyl,
                         name=M.name, check=False)
    eye = {c: intmat.identity(M.levels[c].generator_count)
           for c, P in enumerate(projs) if P is None}
    section = MackeyMorphism(Mmin, M, [eye.get(c, S) for c, S in enumerate(sects)],
                             check=False)
    projection = MackeyMorphism(M, Mmin, [eye.get(c, P) for c, P in enumerate(projs)],
                                check=False)
    return Mmin, section, projection


def cokernel(f: MackeyMorphism):
    """Cokernel functor with its projection morphism."""
    group = f.source.group
    levels = [abgroups.cokernel_of_map(mat, f.source.levels[c],
                                       f.target.levels[c])
              for c, mat in enumerate(f.mats)]
    M = f.target
    quo = MackeyFunctor(group, levels, M.res, M.tr, M.weyl,
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
    weyl = [{n: intmat.block_diag([F.weyl[c][n] for F in summands])
             for n in M.weyl[c]}
            for c in range(len(M.levels))]
    D = MackeyFunctor(group, levels, res, tr, weyl,
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
    incl.target(G/H_c), one solver for all; an identity returns them."""
    if _is_identity(incl):
        return list(cols)
    amb = incl.target.levels[c]
    lat = intmat.hstack([incl.mats[c], amb.relation_lattice]) \
        if amb.relation_lattice.shape[1] else incl.mats[c]
    k = incl.mats[c].shape[1]
    solver = intmat.Solver(lat)
    out = []
    for v in cols:
        sol = solver.solve(v)
        if sol is None:
            raise ValueError("morphism does not factor through the subfunctor")
        out.append(sol[:k])
    return out


def lift_through_inclusion(incl: MackeyMorphism, f: MackeyMorphism):
    """Factor f: X -> M through a subfunctor inclusion S -> M."""
    if _is_identity(incl):
        return MackeyMorphism(f.source, incl.source, f.mats, check=False)
    mats = [intmat.from_cols(lift_columns(incl, c, list(mat.T)),
                             incl.mats[c].shape[1])
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


def _hom_layout(M: MackeyFunctor, N: MackeyFunctor):
    layout = []
    total = 0
    for c in range(len(M.levels)):
        rows = N.levels[c].generator_count
        cols = M.levels[c].generator_count
        layout.append((total, rows, cols))
        total += rows * cols
    return tuple(layout), total


def _morphism_from_vec(M, N, layout, vec):
    mats = []
    for (off, rows, cols) in layout:
        m = intmat.zeros(rows, cols)
        for i in range(rows):
            for j in range(cols):
                m[i, j] = vec[off + i * cols + j]
        mats.append(m)
    return MackeyMorphism(M, N, mats, check=False)


def _hom_zero_lattice(M, N, layout):
    """Tuples representing the zero morphism: single columns of N-relators."""
    total = layout[-1][0] + layout[-1][1] * layout[-1][2] if layout else 0
    cols = []
    for c, (off, rows, ncols) in enumerate(layout):
        rel = N.levels[c].relation_lattice
        for r in range(rel.shape[1]):
            for j in range(ncols):
                v = intmat.zero_vec(total)
                for i in range(rows):
                    v[off + i * ncols + j] = rel[i, r]
                cols.append(v)
    return intmat.from_cols(cols, total)


class NatSolver:
    """Integer solver for naturality-style constraints on hom(M, N).

    Unknowns are the per-class matrix entries of a would-be morphism; each
    condition is a vector of linear forms in those entries read modulo the
    relation lattice of a target level (handled by slack variables).
    """

    def __init__(self, M: MackeyFunctor, N: MackeyFunctor):
        self.M = M
        self.N = N
        self.layout, self.total = _hom_layout(M, N)
        self.conditions = []
        self._add_welldefined()
        self._add_structure()

    def entry(self, c, i, j):
        off, _, cols = self.layout[c]
        return off + i * cols + j

    def add_condition(self, coeff_rows, tgt_level):
        """coeff_rows: one {var: coeff} dict per generator of the target."""
        self.conditions.append((coeff_rows, tgt_level))

    def _add_welldefined(self):
        for c in range(len(self.M.levels)):
            src, tgt = self.M.levels[c], self.N.levels[c]
            rel = src.relation_lattice
            for r in range(rel.shape[1]):
                coeff_rows = []
                for i in range(tgt.generator_count):
                    row = {}
                    for j in range(src.generator_count):
                        if rel[j, r] != 0:
                            row[self.entry(c, i, j)] = rel[j, r]
                    coeff_rows.append(row)
                self.add_condition(coeff_rows, tgt)

    def add_commuting(self, c_src, c_tgt, m_src, m_tgt):
        """U_{c_tgt} @ m_src = m_tgt @ U_{c_src}  (mod N relations)."""
        for j in range(m_src.shape[1]):
            coeff_rows = []
            for i in range(self.N.levels[c_tgt].generator_count):
                row = {}
                for k in range(m_src.shape[0]):
                    if m_src[k, j] != 0:
                        key = self.entry(c_tgt, i, k)
                        row[key] = row.get(key, 0) + m_src[k, j]
                for k in range(self.N.levels[c_src].generator_count):
                    if m_tgt[i, k] != 0:
                        key = self.entry(c_src, k, j)
                        row[key] = row.get(key, 0) - m_tgt[i, k]
                coeff_rows.append(row)
            self.add_condition(coeff_rows, self.N.levels[c_tgt])

    def _add_structure(self):
        # as in MackeyMorphism._check, conjugation by the generators of
        # each N(H) implies it by all of N(H)
        group = self.M.group
        for (A, B) in group.canonical_covers:
            ca, cb = group.class_index_of(A), group.class_index_of(B)
            self.add_commuting(cb, ca, self.M.res[(A, B)], self.N.res[(A, B)])
            self.add_commuting(ca, cb, self.M.tr[(A, B)], self.N.tr[(A, B)])
        for cls in group.subgroup_classes():
            c = cls.index
            for n in cls.normalizer_generators:
                self.add_commuting(c, c, self.M.weyl[c][n], self.N.weyl[c][n])

    def solve(self) -> HomGroup:
        total = self.total
        nrows = sum(len(cr) for cr, _ in self.conditions)
        nslack = sum(lvl.relation_lattice.shape[1]
                     for _, lvl in self.conditions)
        big = intmat.zeros(nrows, total + nslack)
        r0, s0 = 0, total
        for coeff_rows, lvl in self.conditions:
            rel = lvl.relation_lattice
            for i, row in enumerate(coeff_rows):
                for var, cf in row.items():
                    big[r0 + i, var] += cf
                for s in range(rel.shape[1]):
                    big[r0 + i, s0 + s] += rel[i, s]
            r0 += len(coeff_rows)
            s0 += rel.shape[1]
        ker = intmat.kernel(big)
        sol_lattice = intmat.hermite_normal_form(ker[:total, :]) if total \
            else intmat.zeros(0, 0)
        zero_lat = _hom_zero_lattice(self.M, self.N, self.layout)
        rels = intmat.preimage_lattice(sol_lattice, zero_lat) if total \
            else intmat.zeros(0, 0)
        grp = FinPresAbGroup(sol_lattice.shape[1], rels.T)
        basis = [_morphism_from_vec(self.M, self.N, self.layout,
                                    sol_lattice[:, j])
                 for j in range(sol_lattice.shape[1])]
        return HomGroup(grp, basis, self.M, self.N)


def hom_mackey(M: MackeyFunctor, N: MackeyFunctor) -> HomGroup:
    """Natural transformations M -> N, solved as one integer linear system."""
    return NatSolver(M, N).solve()


# -- Yoneda -----------------------------------------------------------------------


def orbit_embeddings(X: GSet):
    """Standard-orbit isomorphisms onto the orbits of X, one per block."""
    group = X.group
    out = []
    ix = X.orbit_index
    for orbit, stab, cidx in zip(ix.orbits, ix.stabilizers, ix.classes):
        base = orbit[0]
        t = group.transport(stab)
        O = standard_orbit(group, cidx)
        reps = [c[0] for c in group.left_cosets(
            group.subgroup_classes()[cidx].representative)]
        out.append(GMap(O, X, tuple(X.act(group.mul(g, t), base) for g in reps)))
    return out


def yoneda_element(M: MackeyFunctor, X: GSet, vec):
    """Morphism A_X -> M classified by the element vec of M(X)."""
    group = X.group
    rep = representable(X)
    _, offsets = M.value_at(X)
    mats = []
    for c, cls in enumerate(group.subgroup_classes()):
        basis = representable_basis(rep, c)
        O = standard_orbit(group, c)
        cols = []
        for code in basis:
            e = basis_element(X, O, code)
            cols.append(M.eval_span(e) @ np.asarray(vec, dtype=object))
        cols = [np.asarray(col, dtype=object) for col in cols]
        mats.append(intmat.from_cols(cols, M.levels[c].generator_count))
    return MackeyMorphism(rep, M, mats, check=False), rep


def identity_element_vector(X: GSet):
    """Coordinates of [id_X] inside A_X(X) block coordinates."""
    from .burnside import restriction_element
    rep = representable(X)
    grp, offsets = rep.value_at(X)
    vec = intmat.zero_vec(grp.generator_count)
    for b, (emb, cidx) in enumerate(zip(orbit_embeddings(X),
                                        X.orbit_index.classes)):
        basis = representable_basis(rep, cidx)
        comp = restriction_element(emb)
        for code, v in comp.coeffs.items():
            vec[offsets[b] + basis.index(code)] += v
    return vec, rep


# -- fixed-point (Borel) construction ----------------------------------------------


def fixed_point_mackey(group: FiniteGroup, V: FinPresAbGroup, action,
                       name=None) -> MackeyFunctor:
    """Right Kan extension of a G-module from free orbits.

    Levels are the H-fixed subgroups of V, restrictions are inclusions,
    transfers are coset sums, and conjugation is the module action.
    `action` maps each group element to a matrix on V's generators.
    """
    n = V.generator_count
    act = {g: intmat.intmat(action[g], n) for g in group.elements()}
    ident = intmat.identity(n)
    if not abgroups.maps_equal(act[0], ident, V, V):
        raise ValueError("identity must act trivially")
    for g in group.elements():
        if not abgroups.map_is_welldefined(act[g], V, V):
            raise ValueError(f"action of {g} is not well-defined")
        for h in group.elements():
            if not abgroups.maps_equal(act[g] @ act[h], act[group.mul(g, h)], V, V):
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

    coord_solvers = {}

    def coords_in(cidx, v):
        basis = fixed_basis[cidx]
        if cidx not in coord_solvers:
            rel = V.relation_lattice
            lat = intmat.hstack([basis, rel]) if rel.shape[1] else basis
            coord_solvers[cidx] = intmat.Solver(lat)
        sol = coord_solvers[cidx].solve(v)
        if sol is None:
            raise AssertionError("fixed-point bookkeeping is broken")
        return sol[:basis.shape[1]]

    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        tA, tB = group.transport(A), group.transport(B)
        # res: V^B -> V^A transported into representative coordinates
        mat_r = act[tA] @ act[group.inv(tB)]
        cols = [coords_in(ca, mat_r @ fixed_basis[cb][:, j])
                for j in range(fixed_basis[cb].shape[1])]
        res[(A, B)] = intmat.from_cols(cols, fixed_basis[ca].shape[1])
        # tr: V^A -> V^B, sum over B/A coset translates
        cos_sum = intmat.zeros(n, n)
        for coset in _subcosets(group, A, B):
            cos_sum += act[coset]
        mat_t = act[tB] @ cos_sum @ act[group.inv(tA)]
        cols = [coords_in(cb, mat_t @ fixed_basis[ca][:, j])
                for j in range(fixed_basis[ca].shape[1])]
        tr[(A, B)] = intmat.from_cols(cols, fixed_basis[cb].shape[1])
    weyl = []
    for cls in classes:
        w = {}
        for nn in cls.normalizer:
            cols = [coords_in(cls.index, act[nn] @ fixed_basis[cls.index][:, j])
                    for j in range(fixed_basis[cls.index].shape[1])]
            w[nn] = intmat.from_cols(cols, fixed_basis[cls.index].shape[1])
        weyl.append(w)
    M = MackeyFunctor(group, levels, res, tr, weyl,
                      name=name or "FP")
    return M


def _subcosets(group, A, B):
    """Minimal representatives of the cosets bA inside B."""
    seen = set()
    reps = []
    for b in B:
        coset = tuple(sorted(group.mul(b, a) for a in A))
        if coset not in seen:
            seen.add(coset)
            reps.append(coset[0])
    return reps


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
    class-cb representative lying in class ca).  `conj_data[c]` maps elements of the normalizer of the
    class-c representative to matrices; missing elements are filled by
    closure.  Raises ValueError when class pairs cannot address the
    stored data (see class_pair_covers), on bad shapes, and, through
    validate_functoriality, on data violating a Mackey-algebra relation.
    """
    classes = group.subgroup_classes()
    levels = tuple(levels)

    weyl = []
    for cls in classes:
        c = cls.index
        n_gens = dict(conj_data.get(c, {}))
        ident = intmat.identity(levels[c].generator_count)
        known = {h: ident for h in cls.representative}
        for g, m in n_gens.items():
            if g not in cls.normalizer:
                raise ValueError(f"{g} does not normalize class {cls.label}")
            known[g] = _int_matrix(m, levels[c].generator_count,
                                   "conj {} {}", cls.label, g)
        changed = True
        while changed:
            changed = False
            for a in list(known):
                for b in list(known):
                    ab = group.mul(a, b)
                    if ab not in known:
                        known[ab] = known[a] @ known[b]
                        changed = True
        missing = [n for n in cls.normalizer if n not in known]
        if missing:
            raise ValueError(f"conjugation data does not generate the "
                             f"normalizer action at class {cls.label}: "
                             f"missing {missing}")
        weyl.append({n: known[n] for n in cls.normalizer})

    res, tr = {}, {}
    for (ca, cb), pair in class_pair_covers(group).items():
        if (ca, cb) not in res_data or (ca, cb) not in tr_data:
            raise ValueError(f"missing res/tr data for class pair ({ca},{cb})")
        where = (classes[ca].label, classes[cb].label)
        res[pair] = _int_matrix(res_data[(ca, cb)], levels[cb].generator_count,
                                "res {}<{}", *where)
        tr[pair] = _int_matrix(tr_data[(ca, cb)], levels[ca].generator_count,
                               "tr {}<{}", *where)
    M = MackeyFunctor(group, levels, res, tr, weyl, name=name)
    M.validate_functoriality()
    return M
