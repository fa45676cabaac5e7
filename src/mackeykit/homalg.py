"""Modules over Green functors, Tor, and filtered-complex spectral sequences.

A module over a Green functor R is stored as level action tables, e_i . m_j
in M(G/H) for generators of R(G/H) and M(G/H); for Mackey functors that
is the same thing as an action R box M -> M, and no box product is built
to hold it.  The free module on a G-set X is R(X x -), the Dress
construction of R at X, which is R box A_X: its levels are values of R,
the action is the level product after restriction, and a module map out
of it is the Yoneda formula at X.  Covers pick one free generator per
level generator the partial cover misses, then drop each one the others
generate; resolutions iterate kernels (whose tables are lifted through
the inclusion), and Tor_p(M, N) is the homology of M box_R F for the
free resolution F of N.  Since M box_R R(X x -) is M(X x -), no term
of that complex is a presented box: term p is M(X_p x -), and d_p is the
Yoneda formula read off the element of R(X_{p-1} x X_p) that defines the
map of free modules.  A Tor call presents no box: M box_R N, the target
of the Tor_0 witness, is presented when the witness is first read.
Spectral sequence pages follow the image formula
im[H(F(p)/F(p-r)) -> H(F(p+r-1)/F(p-1))] with differentials induced
by the connecting morphism of the obvious short exact sequence of
quotient complexes; an entry whose quotient has a trivial term in its
degree is the zero functor, and neither it nor a differential with a
zero end is computed.  A quotient F(a)/F(b) with F(b) = 0 is F(a)
itself, and the skeletal filtration's top step is the complex itself,
so pages reuse the homology a Tor call kept on its complex.
A complex keeps its homology, and a filtration its quotients F(a)/F(b),
keyed by the clamped pair, and its empty complex, through
`groups.owned`, as groups, G-sets and functors keep what they derive.
A module's free resolution is the one exception: it is extended in
place (`module_resolution`), so it is a field of the `GreenModule`.
Everything is levelwise exact integer arithmetic.
Res and tr along G-maps are applied orbit block by orbit block
(`MackeyFunctor.gmap_blocks`), with no span element or dense span matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import abgroups, intmat
from .convolution import (
    BoxData,
    GreenFunctor,
    GreenModule,
    _burnside_action_tables,
    box,
    dress_pairing,
    internal_hom_rep,
    yoneda_levels,
)
from .groups import _same_group, owned
from .gsets import (
    GSet,
    compose_maps,
    disjoint_union_of_orbits,
    identity_map,
    pairing,
    product,
    standard_orbit,
)
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    burnside_mackey,
    compose_morphisms,
    cokernel,
    homology_at,
    identity_morphism,
    image,
    kernel,
    lift_columns,
    lift_through_inclusion,
    minimize_presentation,
    zero_mackey,
    zero_morphism,
)


# -- free modules -------------------------------------------------------------------


@dataclass(eq=False)
class FreeModule(GreenModule):
    """The free left R-module R^X = R(X x -) on a basis G-set X: a
    GreenModule that remembers its basis.

    Its level at G/H is R(X x G/H), and r in R(G/H) acts on f by
    res(r) . f, restricting along the projection X x G/H -> G/H and
    multiplying blockwise over the orbits of X x G/H.  This is the Dress
    construction: R(X x -) is R box A_X (`free_evaluation_iso`), and for
    every R-module M, M box_R R(X x -) is M(X x -), which is how `tor`
    reads the terms of M box_R F.
    """
    base: GSet


def free_module(R: GreenFunctor, X: GSet) -> FreeModule:
    """R^X = R(X x -), the internal hom F(A_X, R), with its R-action.

    r in R(G/H) sends generator f of R(X x G/H) to f . res(r), which is
    res(r) . f since R is commutative: on an orbit of class L of X x G/H
    with restriction block B, e_i sends e_j to e_j . (B e_i).
    """
    Rk = R.underlying
    group = X.group
    F = internal_hom_rep(X, Rk)
    F.name = f"R^[{X.size}]"
    tables = []
    for cw in range(len(group.subgroup_classes())):
        P = product(X, standard_orbit(group, cw))
        offsets = Rk.offsets(P.gset)
        n, classes = offsets[-1], P.gset.orbit_index.classes
        table = np.zeros((Rk.levels[cw].generator_count, n, n), dtype=object)
        for b, _, block in Rk.gmap_blocks(P.right):
            lo, hi = offsets[b], offsets[b] + len(block)
            table[:, lo:hi, lo:hi] = np.tensordot(
                block.T, R.tables[classes[b]].swapaxes(0, 1), 1)
        tables.append(table)
    return FreeModule(R, F, tables, X)


def free_unit_vector(F: FreeModule):
    """The element tr_diag(1_X) of R^X(X) = R(X x X) classifying the identity.

    Orbit b of X, the image of its standard orbit O under emb, holds
    tr(1_O) along O -> X x O, o -> (emb(o), o), the pairing of emb with
    the identity, proven by construction (`gsets.pairing`).
    """
    Rk = F.ring.underlying
    X = F.base
    offsets = F.underlying.offsets(X)
    out = intmat.zero_vec(offsets[-1])
    for b, (emb, c) in enumerate(zip(X.orbit_embeddings,
                                     X.orbit_index.classes)):
        O = emb.source
        diag = pairing(product(X, O), emb, identity_map(O))
        vec = Rk.apply_gmap(diag, F.ring.level_unit(c), transfer=True)
        out[offsets[b]:offsets[b] + len(vec)] = vec
    return out


def _classifying_mats(M: GreenModule, X: GSet, m_vec):
    """Levels of the R-linear map R(X x -) -> M classified by m in M(X).

    The Yoneda formula f -> tr_{pr_Y}(f . res_{pr_X} m) (`yoneda_levels`):
    on an orbit of X x Y of class L, with m_b its part of res m, e_i
    pairs to e_i . m_b, so the pairing is (m_b @ tables[L]).T.
    """
    return yoneda_levels(M.underlying, M.underlying, X, m_vec,
                         lambda L, m_b: (m_b @ M.tables[L]).T)


def classifying_morphism(F: FreeModule, M: GreenModule, m_vec) -> MackeyMorphism:
    """The R-module map R^X -> M classified by m_vec in M(X)."""
    return MackeyMorphism(F.underlying, M.underlying,
                          _classifying_mats(M, F.base, m_vec), check=False)


# -- covers and resolutions ------------------------------------------------------------


def module_cover(M: GreenModule):
    """A deterministic, irredundant free cover F -> M.

    Walks level generators in canonical level order, from the trivial
    subgroup up, one free summand R^{G/H} per generator; a generator
    already in the image of the partial cover is skipped, which keeps
    iterated kernels from growing multiplicatively.  The walk cannot see
    that a summand it kept is generated by summands picked after it, so
    a pass then visits the summands in the order they were picked and
    drops summand (c, k) when e_k lies in the relation lattice of level c
    plus the level-c images of the summands still kept.  What is left is
    surjective, and no summand of it is generated by the others: A_pt,
    free of rank one, is covered by R^{G/G} alone and resolves at F_0.
    Returns (F: FreeModule, surj).
    """
    group = M.group
    classes = group.subgroup_classes()
    rels = [lvl.relation_lattice for lvl in M.underlying.levels]
    images = [r.copy() for r in rels]
    slots = []       # (class, generator, level images) per chosen summand
    for c in range(len(classes)):
        n = M.underlying.levels[c].generator_count
        for k in range(n):
            ek = intmat.zero_vec(n)
            ek[k] = 1
            if intmat.in_lattice(ek, images[c]):
                continue
            phi = _classifying_mats(M, standard_orbit(group, c), ek)
            slots.append((c, k, phi))
            for cp in range(len(classes)):
                images[cp] = intmat.lattice_sum(images[cp], phi[cp])
    kept = slots
    for slot in slots:
        c, k, _phi = slot
        others = [s for s in kept if s is not slot]
        ek = intmat.zero_vec(len(rels[c]))
        ek[k] = 1
        if intmat.in_lattice(ek, intmat.hstack(
                [rels[c]] + [phi[c] for _c, _k, phi in others])):
            kept = others
    return _cover_on_slots(M, [(c, k) for c, k, _phi in kept])


def _cover_on_slots(M: GreenModule, slots):
    """(F, surj) with one summand R^{G/H_c} per slot (c, k), in order,
    sent to generator k of M(G/H_c)."""
    X = disjoint_union_of_orbits(M.group, tuple(c for (c, _k) in slots))
    F = free_module(M.ring, X)
    # element of M(X): block b holds generator k of level c per slot
    offsets = M.underlying.offsets(X)
    m_vec = intmat.zero_vec(offsets[-1])
    for b, (c, k) in enumerate(slots):
        m_vec[offsets[b] + k] = 1
    return F, classifying_morphism(F, M, m_vec)


def module_kernel(M: GreenModule, f: MackeyMorphism):
    """Kernel of an R-linear map as a GreenModule, with its inclusion.

    e_i . k_j is the lift through the inclusion of e_i . incl(k_j).
    """
    K, incl = kernel(f)
    tables = []
    for c, table in enumerate(M.tables):
        acted = incl.mats[c].T @ table    # [i, j] = e_i . incl(k_j)
        nR, nK, n = acted.shape
        lifted = lift_columns(incl, c, list(acted.reshape(nR * nK, n)))
        tables.append(np.array(lifted, dtype=object).reshape(nR, nK, nK))
    return GreenModule(M.ring, K, tables), incl


@dataclass
class Resolution:
    """Free modules F_p with differentials d_p: F_p -> F_{p-1}."""
    ring: GreenFunctor
    target: GreenModule
    modules: list                  # FreeModule per degree
    diffs: list                    # d_p for p >= 1
    augmentation: MackeyMorphism   # F_0 -> target

    def complex(self):
        terms = {p: F.underlying for p, F in enumerate(self.modules)}
        diffs = {p: self.diffs[p - 1] for p in range(1, len(self.modules))}
        return ChainComplex(self.ring.group, terms, diffs)


def module_resolution(R: GreenFunctor, M, length: int) -> Resolution:
    """Iterated irredundant free covers out to the given length.

    A FreeModule is its own resolution of length zero.  The result is
    cached on the module, one resolution per module, so several Tor
    computations against the same argument share it, and a longer request
    extends the cached one from its last free module and its last
    differential (or the augmentation).  The kernel of incl . cover is
    the kernel of the cover, and kernels come in Hermite form, so each
    step is the one a fresh resolution takes.  A resolution whose last
    kernel was zero has terminated and is not extended.  Raises
    ValueError unless R is the ring of M and the length is nonnegative.
    """
    if length < 0:
        raise ValueError(f"resolution length must be nonnegative, got "
                         f"{length}")
    if M.ring is not R and M.ring.underlying != R.underlying:
        raise ValueError("module over a different ring")
    if isinstance(M, FreeModule):
        return Resolution(R, M, [M], [], identity_morphism(M.underlying))
    if M._resolution is None:
        F0, eps = module_cover(M)
        M._resolution = (False, Resolution(R, M, [F0], [], eps))
    terminated, res = M._resolution
    while not terminated and len(res.modules) <= length:
        last = res.diffs[-1] if res.diffs else res.augmentation
        Kmod, incl = module_kernel(res.modules[-1], last)
        terminated = _is_zero(Kmod.underlying)
        if not terminated:
            Fnext, cover_map = module_cover(Kmod)
            res.diffs.append(compose_morphisms(incl, cover_map))
            res.modules.append(Fnext)
    M._resolution = (terminated, res)
    return Resolution(R, res.target, res.modules[:length + 1],
                      res.diffs[:length], res.augmentation)


# -- relative box product ----------------------------------------------------------------


@dataclass
class RelBox:
    """M box_R N as a cokernel of the two action routes, minimized.

    `box` is the presented box(M, N) it quotients, and `projection` starts
    at box.functor.  A Tor result presents it for the target of its Tor_0
    witness only, when the witness is first read, never for a free term,
    and pairs into `box`.
    """
    left: GreenModule
    right: GreenModule
    box: BoxData
    functor: MackeyFunctor
    projection: MackeyMorphism     # from box.functor


def rel_box(M: GreenModule, N: GreenModule) -> RelBox:
    """Coequalizer of the two action routes on M box N.

    The image of (act_M box id - id box act_N) is generated by the
    balanced-product relations over diagonal transitive over-objects:
    for m, r, n all at one over-code, (r.m) (x) n = m (x) (r.n).  Per
    over-code and generator r they are the columns of the block
    kron(T_M[r].T, I) - kron(I, T_N[r].T) on the over-code's generators
    (code, i, j), i major, from `data.starts`, T the level tables; zero
    columns are dropped.
    """
    Mk, Nk = M.underlying, N.underlying
    group = M.group
    data = box(Mk, Nk)
    levels = []
    for c, lvl in enumerate(data.functor.levels):
        n = lvl.generator_count
        blocks = [intmat.zeros(n, 0)]
        for code, s in data.starts[c].items():
            TM, TN = M.tables[code[0]], N.tables[code[0]]
            IM, IN = intmat.identity(TM.shape[1]), intmat.identity(TN.shape[1])
            k = len(IM) * len(IN)
            for tm, tn in zip(TM, TN):
                block = intmat.zeros(n, k)
                block[s:s + k] = intmat.kron(tm.T, IN) - intmat.kron(IM, tn.T)
                blocks.append(block)
        rels = intmat.hstack(blocks)
        levels.append(abgroups.quotient_by_columns(
            lvl, rels[:, np.any(rels != 0, axis=0)]))
    F = data.functor
    Qbig = MackeyFunctor(group, levels, F.res, F.tr, F.conj,
                         name=f"({Mk.name} box_R {Nk.name})", check=False)
    Q, _section, projection = minimize_presentation(Qbig)
    return RelBox(M, N, data, Q,
                  MackeyMorphism(F, Q, projection.mats, check=False))


def canonical_module(G: GreenFunctor, M: MackeyFunctor) -> GreenModule:
    """Every Mackey functor is a module over the Burnside Green functor.

    Basis span i of A_pt(G/H) acts on M(G/H) by its block at the diagonal
    over-code, which `box_unit_eval` shares.  Raises ValueError unless G
    is a Green functor on A_pt over the group of M.
    """
    _same_group(G.group, M.group, "the ring and the functor")
    if G.underlying is not burnside_mackey(G.group):
        raise ValueError("canonical_module needs a Green functor on the "
                         "Burnside functor A_pt, such as burnside_green")
    return GreenModule(G, M, _burnside_action_tables(M))


# -- chain complexes ----------------------------------------------------------------------


@dataclass
class ChainComplex:
    """A bounded complex of Mackey functors, d_n: C_n -> C_{n-1}; its
    homology is kept on it (`groups.owned`)."""
    group: object
    terms: dict
    diffs: dict
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def term(self, n) -> MackeyFunctor:
        if n in self.terms:
            return self.terms[n]
        return zero_mackey(self.group)

    def diff(self, n) -> MackeyMorphism:
        if n in self.diffs:
            return self.diffs[n]
        return zero_morphism(self.term(n), self.term(n - 1))

    def degrees(self):
        return sorted(self.terms)

    def validate(self):
        for n in self.degrees():
            dd = compose_morphisms(self.diff(n), self.diff(n + 1))
            if not dd.is_zero():
                raise ValueError(f"d.d != 0 at degree {n + 1}")

    def homology(self, n) -> MackeyFunctor:
        return self.homology_data(n)[0]

    @owned
    def homology_data(self, n):
        return homology_at(self.diff(n + 1), self.diff(n))


def complex_map_homology(C: ChainComplex, D: ChainComplex, maps: dict, n):
    """Induced morphism H_n(C) -> H_n(D) from a chain map, a dict of
    morphisms by degree, of which only `maps[n]` is read (zero if absent)."""
    HC, inclC, _projC, sectC = C.homology_data(n)
    HD, inclD, projD, _sectD = D.homology_data(n)
    u = maps[n] if n in maps else zero_morphism(C.term(n), D.term(n))
    j = lift_through_inclusion(inclD, compose_morphisms(u, inclC))
    mats = [projD.mats[c] @ j.mats[c] @ sectC.mats[c]
            for c in range(len(HC.levels))]
    return MackeyMorphism(HC, HD, mats, check=False)


# -- Tor ------------------------------------------------------------------------------------


@dataclass
class TorResult:
    """Tor_p^R(M, N) for p = 0..p_max and the data it was computed from.

    `complex` is M box_R F for the resolution F of N, with term p the
    Dress construction M(X_p x -).  `rel` (M box_R N, `rel_box`) and
    `tor0_witness` are built when first read, once per result: a caller
    that reads only `tor` presents no box.
    """
    ring: GreenFunctor
    left: GreenModule
    right: GreenModule
    resolution: Resolution
    complex: ChainComplex
    tor: list                     # MackeyFunctor per degree 0..p_max

    @cached_property
    def rel(self) -> RelBox:
        return rel_box(self.left, self.right)

    @cached_property
    def tor0_witness(self) -> MackeyMorphism:
        """The isomorphism H_0 -> rel.functor induced by the augmentation.

        The augmentation eps is the Yoneda extension of n = eps(1_X0) in
        N(X_0), so M box_R eps sends m in M(X_0 x Y) to the class of
        tr(m (x) res n) along X_0 x Y -> Y (`dress_pairing`, then the
        projection of `rel`).
        """
        free0, target = self.resolution.modules[0], self.rel
        X0 = free0.base
        n0 = self.resolution.augmentation.at_gset(X0) @ free_unit_vector(free0)
        aug = dress_pairing(target.box, self.right.underlying, X0, n0)
        H0, incl0, _proj0, sect0 = self.complex.homology_data(0)
        mats = [target.projection.mats[c] @ aug[c] @ incl0.mats[c]
                @ sect0.mats[c] for c in range(len(H0.levels))]
        return MackeyMorphism(H0, target.functor, mats, check=False)


def _dress_map(M: GreenModule, d: MackeyMorphism, src: FreeModule,
               tgt: FreeModule, source: MackeyFunctor, target: MackeyFunctor):
    """M box_R d: M(Z x -) -> M(X x -) for an R-linear d: R^Z -> R^X.

    d is the Yoneda extension of its values f_b = d(1_b) in R(X x O_b) on
    the free generators of the orbits O_b of Z (`free_unit_vector`), so
    M box_R d sends m in M(Z x Y) to the sum over b of tr(res f_b . res m)
    along P_b x Y -> X x Y, P_b = X x O_b, with m restricted along
    P_b x Y -> Z x Y.  That is read orbit by orbit of P_b, skipping the
    orbits where f_b is zero: orbit k is a standard orbit O_k with maps
    to X and Z, and each orbit of O_k x Y adds the product of its blocks
    of those maps.  This is exact: P_b is canonical, so orbit k's
    embedding sends base to base with the class representative as
    stabilizer, and f_b restricted along it is f_b's slice at k (the
    block w(e) chain(L, L) is the identity); the orbits of P_b x Y over
    orbit k are those of O_k x Y, matched base to base by
    canonicalization; and the integer sum does not depend on its order.
    The maps O_k x Y -> X x Y and O_k x Y -> Z x Y pair O_k's maps to X
    and Z, composed with the left leg, with the right leg
    (`gsets.pairing`, `gsets.compose_maps`), so they are proven by
    construction and nothing checks them point by point.
    """
    Mk, Rk = M.underlying, M.ring.underlying
    group = M.group
    Z, X = src.base, tgt.base
    eta = free_unit_vector(src)
    offsets = d.source.offsets(Z)
    blocks = []
    for b, (emb, cb) in enumerate(zip(Z.orbit_embeddings,
                                      Z.orbit_index.classes)):
        n = d.source.levels[cb].generator_count
        f = d.mats[cb] @ eta[offsets[b]:offsets[b] + n]
        P = product(X, emb.source)
        poff = Rk.offsets(P.gset)
        for k, pemb in enumerate(P.gset.orbit_embeddings):
            fk = f[poff[k]:poff[k + 1]]
            if not intmat.is_zero(fk):
                blocks.append((compose_maps(P.left, pemb),
                               compose_maps(emb, compose_maps(P.right, pemb)),
                               fk))
    mats = []
    for c in range(len(group.subgroup_classes())):
        Y = standard_orbit(group, c)
        XY, ZY = product(X, Y), product(Z, Y)
        xoff, zoff = Mk.offsets(XY.gset), Mk.offsets(ZY.gset)
        out = intmat.zeros(target.levels[c].generator_count,
                           source.levels[c].generator_count)
        for x_map, z_map, f in blocks:
            T = product(x_map.source, Y)
            to_z = pairing(ZY, compose_maps(z_map, T.left), T.right)
            to_x = pairing(XY, compose_maps(x_map, T.left), T.right)
            # orbit t of O x Y: r_t = res f acts between its two blocks
            for (t, _, rb), (_, q, zb), (_, p, xb) in zip(
                    Rk.gmap_blocks(T.left), Mk.gmap_blocks(to_z),
                    Mk.gmap_blocks(to_x, transfer=True)):
                r = rb @ f
                act = np.tensordot(r, M.tables[T.gset.orbit_index.classes[t]],
                                   1).T
                out[xoff[p]:xoff[p] + len(xb),
                    zoff[q]:zoff[q] + zb.shape[1]] += xb @ act @ zb
        mats.append(out)
    return MackeyMorphism(source, target, mats, check=False)


def tor(R: GreenFunctor, M, N, p_max: int) -> TorResult:
    """Tor_p^R(M, N) for p = 0..p_max via the free resolution F of N.

    F is the module's one cached resolution (`module_resolution`), built
    from irredundant covers.  M box_R R(X x -) is M(X x -) (the Dress
    construction; Bouc, LNM 1671), so term p of M box_R F is
    `internal_hom_rep(X_p, M)` and d_p is the Yoneda formula
    (`_dress_map`).  No box is presented here: M box N, the target of
    the Tor_0 witness, is presented when `TorResult.tor0_witness` is
    first read.  Raises ValueError for a negative p_max.
    """
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    return _tor_of_resolution(M, module_resolution(R, N, p_max + 1), p_max)


def _tor_of_resolution(M: GreenModule, res: Resolution,
                       p_max: int) -> TorResult:
    """Tor_p(M, N) for p = 0..p_max read off a resolution of N out to
    length p_max + 1 or to its last term, presenting no box; see `tor`."""
    free = res.modules
    terms = {p: internal_hom_rep(F.base, M.underlying)
             for p, F in enumerate(free)}
    diffs = {p: _dress_map(M, res.diffs[p - 1], free[p], free[p - 1],
                           terms[p], terms[p - 1])
             for p in range(1, len(free))}
    C = ChainComplex(res.ring.group, terms, diffs)
    return TorResult(res.ring, M, res.target, res, C,
                     [C.homology(p) for p in range(p_max + 1)])


# -- filtered complexes and the spectral sequence ---------------------------------------------


@dataclass
class FilteredComplex:
    """An increasing, bounded-below filtration of a chain complex.

    steps[i] is F(min_index + i); F(p) vanishes below min_index and equals
    the total complex from the last step on.  step_incls[i] holds the
    per-degree inclusions of steps[i] into steps[i+1].  The empty complex
    below min_index and the quotients F(a)/F(b) are kept on the
    filtration (`groups.owned`).
    """
    steps: list
    step_incls: list
    min_index: int
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def max_index(self):
        return self.min_index + len(self.steps) - 1

    def complex_at(self, p) -> ChainComplex:
        if p < self.min_index:
            return self._empty_complex()
        i = min(p - self.min_index, len(self.steps) - 1)
        return self.steps[i]

    @owned
    def _empty_complex(self):
        return ChainComplex(self.steps[-1].group, {}, {})

    def inclusion(self, p, q, n) -> MackeyMorphism:
        """The inclusion F(p)_n -> F(q)_n for p <= q."""
        lo = self.complex_at(p).term(n)
        hi = self.complex_at(q).term(n)
        i = max(min(p, self.max_index) - self.min_index, -1)
        j = max(min(q, self.max_index) - self.min_index, -1)
        if i < 0:
            return zero_morphism(lo, hi)
        out = identity_morphism(self.steps[i].term(n))
        for k in range(i, j):
            step_in = self.step_incls[k].get(n)
            if step_in is None:
                step_in = zero_morphism(self.steps[k].term(n),
                                        self.steps[k + 1].term(n))
            out = compose_morphisms(step_in, out)
        return out

    def validate(self):
        """Each step is a complex and each inclusion is a chain map."""
        for step in self.steps:
            step.validate()
        for i, incls in enumerate(self.step_incls):
            lo, hi = self.steps[i], self.steps[i + 1]
            for n in lo.degrees():
                inc = incls.get(n)
                prev = incls.get(n - 1)
                if inc is None:
                    continue
                if prev is None and (n - 1) in hi.terms:
                    prev = zero_morphism(lo.term(n - 1), hi.term(n - 1))
                if prev is None:
                    continue
                lhs = compose_morphisms(prev, lo.diff(n))
                rhs = compose_morphisms(hi.diff(n), inc)
                if not lhs.equals(rhs):
                    raise ValueError(
                        f"filtration step {i} is not a chain map at degree {n}")


def skeletal_filtration(C: ChainComplex) -> FilteredComplex:
    """Brutal truncations sigma_{<=p} as an increasing filtration.

    The top step is C itself, so homology C already holds is reused.
    """
    degs = C.degrees()
    lo, hi = min(degs), max(degs)
    steps = []
    incls = []
    for p in range(lo, hi):
        terms = {n: C.term(n) for n in degs if n <= p}
        diffs = {n: C.diff(n) for n in degs if n <= p and (n - 1) in terms}
        steps.append(ChainComplex(C.group, terms, diffs))
    steps.append(C)
    for i in range(len(steps) - 1):
        mapping = {}
        for n in steps[i].degrees():
            mapping[n] = identity_morphism(steps[i].term(n))
        incls.append(mapping)
    return FilteredComplex(steps, incls, lo)


def quotient_complex(filt: FilteredComplex, a, b):
    """F(a)/F(b) with generator sets inherited from F(a); F(a) itself
    when F(b) is 0 (b below min_index), with the homology it holds."""
    a = min(a, filt.max_index)
    b = min(max(b, filt.min_index - 1), a)
    if b < filt.min_index:
        return filt.complex_at(a)
    return _quotient(filt, a, b)


@owned
def _quotient(filt: FilteredComplex, a, b):
    """F(a)/F(b) at a clamped pair min_index <= b <= a <= max_index."""
    Fa = filt.complex_at(a)
    terms = {n: cokernel(filt.inclusion(b, a, n))[0] for n in Fa.degrees()}
    diffs = {n: MackeyMorphism(terms[n], terms[n - 1], Fa.diff(n).mats,
                               check=False)
             for n in terms if (n - 1) in terms}
    return ChainComplex(Fa.group, terms, diffs)


@dataclass
class SpectralSequencePage:
    """One page: entries E_r^{p,q} and differentials of bidegree (-r, r-1)."""
    r: int
    entries: dict                 # (p, q) -> MackeyFunctor
    differentials: dict           # (p, q) -> MackeyMorphism E^{p,q} -> E^{p-r,q+r-1}
    window: tuple                 # (p_range, n_range)

    def entry(self, p, q):
        return self.entries.get((p, q))


def _entry_data(filt: FilteredComplex, Q1, Q2, r, p, n):
    """E_r at filtration p, total degree n, with its inclusion into
    H_n(Q2); (0, None) when a trivial term forces it to zero."""
    if _is_zero(Q1.term(n)) or _is_zero(Q2.term(n)):
        return zero_mackey(filt.steps[-1].group), None
    u = MackeyMorphism(Q1.term(n), Q2.term(n),
                       filt.inclusion(p, p + r - 1, n).mats, check=False)
    return image(complex_map_homology(Q1, Q2, {n: u}, n))


def _is_zero(M: MackeyFunctor):
    return all(level.is_trivial() for level in M.levels)


def ss_pages(filt: FilteredComplex, r_max: int):
    """Pages E_1 .. E_{r_max} of the filtration spectral sequence.

    Only the entries and differentials that can be nonzero are computed:

    - A trivial term gives a zero entry.  E_r^{p,q} (n = p + q) is the
      image of H_n(Q1) -> H_n(Q2) for Q1 = F(p)/F(p-r) and
      Q2 = F(p+r-1)/F(p-1).  H_n of a complex is a subquotient of its
      term in degree n, so if every level of Q1_n or of Q2_n is 0, then
      H_n(Q1) or H_n(Q2) is 0 and so is the image.  Such an entry is
      `zero_mackey`, and no homology of Q1 or Q2 is taken in degree n.
    - A zero end gives a zero differential.  d_r is a morphism
      E_r^{p,q} -> E_r^{p-r,q+r-1}; a morphism out of or into the zero
      functor is zero, so the connecting morphism is not built.
    - An entry depends only on the clamped pairs.  F(a) is F(max_index)
      for a above max_index and 0 below min_index, so Q1, Q2 and the
      inclusion F(p) -> F(p+r-1) inducing the map depend only on the
      clamped pairs, for which `quotient_complex` keeps one object each.
      Each (Q1, Q2, n) is computed once per call; once r passes the
      length of the filtration, the pages repeat at no cost.

    Raises ValueError for an r_max below 1.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    total = filt.steps[-1]
    degs = total.degrees()
    if not degs:
        return [SpectralSequencePage(r, {}, {}, ((0, -1), (0, -1)))
                for r in range(1, r_max + 1)]
    nmin, nmax = min(degs), max(degs)
    pmin, pmax = filt.min_index, filt.max_index
    done = {}     # (id Q1, id Q2, n) -> (entry, inclusion); ids are
                  # stable, as filt holds one object per clamped pair
    pages = []
    for r in range(1, r_max + 1):
        entries = {}
        incls = {}
        for p in range(pmin, pmax + 1):
            for n in range(nmin, nmax + 1):
                Q1 = quotient_complex(filt, p, p - r)
                Q2 = quotient_complex(filt, p + r - 1, p - 1)
                key = (id(Q1), id(Q2), n)
                if key not in done:
                    done[key] = _entry_data(filt, Q1, Q2, r, p, n)
                entries[(p, n - p)], incls[(p, n - p)] = done[key]
        diffs = {}
        for (p, q), incl in incls.items():
            tp, tq = p - r, q + r - 1
            if (tp, tq) not in incls:
                continue
            if incl is None or incls[(tp, tq)] is None:
                diffs[(p, q)] = zero_morphism(entries[(p, q)],
                                              entries[(tp, tq)])
                continue
            lift = compose_morphisms(_connecting(filt, r, p, p + q), incl)
            diffs[(p, q)] = lift_through_inclusion(incls[(tp, tq)], lift)
        pages.append(SpectralSequencePage(r, entries, diffs,
                                          ((pmin, pmax), (nmin, nmax))))
    return pages


def _connecting(filt: FilteredComplex, r, p, n):
    """Connecting H_n(F(p+r-1)/F(p-1)) -> H_{n-1}(F(p-1)/F(p-r-1)).

    Built from the short exact sequence of quotient complexes whose middle
    is F(p+r-1)/F(p-r-1); generator sets are shared, so lifting a cycle is
    the identity on coordinates and only the boundary needs solving.
    """
    A = quotient_complex(filt, p - 1, p - r - 1)
    B = quotient_complex(filt, p + r - 1, p - r - 1)
    C = quotient_complex(filt, p + r - 1, p - 1)
    HC, inclC, _projC, sectC = C.homology_data(n)
    HA, inclA, projA, _sectA = A.homology_data(n - 1)
    # the boundary lifts along A_{n-1} -> B_{n-1}, then through the
    # cycles of A, whose inclusion the homology memo keeps with its solvers
    lift = MackeyMorphism(A.term(n - 1), B.term(n - 1),
                          filt.inclusion(p - 1, p + r - 1, n - 1).mats,
                          check=False).coordinates
    dB = B.diff(n)
    mats = []
    for c in range(len(HC.levels)):
        bounds = dB.mats[c] @ inclC.mats[c] @ sectC.mats[c]
        cycles = inclA.coordinates.lift_matrix(c, lift.lift_matrix(
            c, bounds, "connecting morphism failed to solve"),
            "connecting image is not a cycle")
        mats.append(projA.mats[c] @ cycles)
    return MackeyMorphism(HC, HA, mats, check=False)


def homology_filtration_graded(filt: FilteredComplex, n):
    """Associated graded of H_n(total) along the filtration images.

    Returns {p: MackeyFunctor} with piece p equal to
    im(H_n(F(p)) -> H_n(total)) / im(H_n(F(p-1)) -> H_n(total)).
    """
    total = filt.steps[-1]
    out = {}
    prev = None
    prev_incl = None
    for p in range(filt.min_index - 1, filt.max_index + 1):
        Fp = filt.complex_at(p)
        u = {n: MackeyMorphism(Fp.term(n), total.term(n),
                               filt.inclusion(p, filt.max_index, n).mats,
                               check=False)} if n in Fp.terms else {}
        Im, incl = image(complex_map_homology(Fp, total, u, n))
        if prev is not None:
            j = lift_through_inclusion(incl, prev_incl)
            piece, _ = cokernel(j)
            out[p] = piece
        prev, prev_incl = Im, incl
    return out
