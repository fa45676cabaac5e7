"""The box product of Mackey functors and Green functors as its monoids.

The box product is the Day convolution against the Burnside hom of a
product, additivized over orbits.  At each orbit X it is presented by
generators m (x) n indexed by transitive G-sets over X (one block of
M(G/L) (x) N(G/L) per class of transitive over-object), modulo the coend
relations generated by equivariant maps between transitive over-objects:
a transfer in one slot trades for a restriction in the other.  The
universal bilinear pairing, the unit/associativity/commutativity
witnesses, and the internal hom against representables are all exact,
and every isomorphism returns a two-sided matrix witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intmat
from .abgroups import FinPresAbGroup
from .burnside import (
    BurnsideElement,
    basis_element,
    compose,
    hom_basis,
    materialize_code,
    restriction_element,
    span_element,
    tensor,
    transfer_element,
)
from .groups import _labels
from .gsets import GMap, GSet, compose_maps, point_gset, product, standard_orbit
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    canonical_covers,
    compose_morphisms,
    identity_morphism,
    mackey_from_span_action,
    orbit_embeddings,
    representable,
    yoneda_element,
)


def over_codes(X: GSet):
    """Canonical codes (class, base image) of transitive G-sets over X."""
    pt = point_gset(X.group)
    return tuple((c, x) for (c, _z, x) in hom_basis(pt, X))


def struct_gmap(X: GSet, code) -> GMap:
    """The structure map ORB(class) -> X of an over-code."""
    cidx, x = code
    group = X.group
    O = standard_orbit(group, cidx)
    reps = [c[0] for c in group.left_cosets(
        group.subgroup_classes()[cidx].representative)]
    return GMap(O, X, tuple(X.act(g, x) for g in reps))


def _canonical_over(group, cidx, z, Ob: GSet):
    """Canonical representative z* = min n.z over the normalizer, with witness."""
    cls = group.subgroup_classes()[cidx]
    zstar = min(Ob.act(n, z) for n in cls.normalizer)
    u = min(n for n in cls.normalizer if Ob.act(n, z) == zstar)
    return zstar, u


@dataclass
class BoxData:
    """Presentation bookkeeping for M box N."""
    left: MackeyFunctor
    right: MackeyFunctor
    codes: tuple          # per class: over-codes of the class orbit
    layout: tuple         # per class: dict (code, i, j) -> generator index
    functor: MackeyFunctor = None

    def generators(self, level_class):
        """Generator keys (code, i, j) in index order."""
        lay = self.layout[level_class]
        out = [None] * len(lay)
        for key, idx in lay.items():
            out[idx] = key
        return out


def _box_level_presentation(M: MackeyFunctor, N: MackeyFunctor, X: GSet):
    """Generators, layout and relations of (M box N)(X) for an orbit X."""
    group = X.group
    codes = over_codes(X)
    layout = {}
    gens = 0
    for c in codes:
        cw = c[0]
        for i in range(M.levels[cw].generator_count):
            for j in range(N.levels[cw].generator_count):
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
        cw = c[0]
        relM = M.levels[cw].relation_lattice
        relN = N.levels[cw].relation_lattice
        for r in range(relM.shape[1]):
            for j in range(N.levels[cw].generator_count):
                add_row({layout[(c, i, j)]: relM[i, r]
                         for i in range(M.levels[cw].generator_count)
                         if relM[i, r] != 0})
        for r in range(relN.shape[1]):
            for i in range(M.levels[cw].generator_count):
                add_row({layout[(c, i, j)]: relN[j, r]
                         for j in range(N.levels[cw].generator_count)
                         if relN[j, r] != 0})

    for cp in codes:
        for c in codes:
            for phi in _over_maps(X, cp, c):
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

    grp = FinPresAbGroup(gens, intmat.intmat(sorted(rows), gens))
    return codes, layout, grp


def _over_maps(X: GSet, code_src, code_tgt):
    """Equivariant maps between transitive over-objects of X."""
    group = X.group
    cwp, _ = code_src
    cw, _ = code_tgt
    Op = standard_orbit(group, cwp)
    O = standard_orbit(group, cw)
    Lp = group.subgroup_classes()[cwp].representative
    sp = struct_gmap(X, code_src)
    sc = struct_gmap(X, code_tgt)
    reps = [c[0] for c in group.left_cosets(Lp)]
    out = []
    for q in O.fixed_points(Lp):
        if sc(q) != sp(0):
            continue
        out.append(GMap(Op, O, tuple(O.act(g, q) for g in reps)))
    return out


def _level_offsets(levels, X: GSet):
    """Block offsets of the box value at X, matching value_at ordering."""
    offs = []
    total = 0
    for c in X.orbit_index.classes:
        offs.append(total)
        total += levels[c].generator_count
    return offs, total


def _pairing_terms(data: BoxData, levels, U: GSet, V: GSet, e: BurnsideElement):
    """Twisted evaluation matrices for pairing along e: U x V -> X.

    Yields (TM, TN, slot) per transitive code of e, where the image of
    m (x) n accumulates (TM @ m) outer (TN @ n) at the generator slots
    slot(a, b) of the box value at e.target.
    """
    M, N = data.left, data.right
    group = M.group
    PD = product(U, V)
    if e.source != PD.gset:
        raise ValueError("pairing element must start at product(U, V)")
    X = e.target
    offs, _total = _level_offsets(levels, X)
    embeds = orbit_embeddings(X)
    inv_embeds = [{emb(w): w for w in range(emb.source.size)} for emb in embeds]
    ix = X.orbit_index
    out = []
    for code, a in e.coeffs.items():
        cw, _p, y = code
        W, legP, legY = materialize_code(PD.gset, X, code)
        legU = compose_maps(PD.left, legP)
        legV = compose_maps(PD.right, legP)
        RU = M.eval_span(restriction_element(legU))
        RV = N.eval_span(restriction_element(legV))
        b = ix.orbit_of[y]
        cb = ix.classes[b]
        z = inv_embeds[b][y]
        Ob = standard_orbit(group, cb)
        zstar, u = _canonical_over(group, cw, z, Ob)
        TM = (M.weyl[cw][u] @ RU) * a
        TN = N.weyl[cw][u] @ RV
        lay = data.layout[cb]
        offset = offs[b]
        key = (cw, zstar)

        def slot(aa, bb, lay=lay, key=key, offset=offset):
            return offset + lay[(key, aa, bb)]

        out.append((TM, TN, slot))
    return out


def box(M: MackeyFunctor, N: MackeyFunctor, presentation=True) -> BoxData:
    """The box product M box N, with pairing data attached.

    With presentation=False only the generator layout is computed: the
    level groups are left free on the generators, and the functor, from
    `MackeyFunctor.levels_only`, has no structure maps.  That skeleton is
    enough for module plumbing (injections, action matrices, pairings),
    and avoids presenting the large auxiliary boxes that never get used
    as honest functors.
    """
    if M.group != N.group:
        raise ValueError("different groups")
    group = M.group
    key = ("box", id(N), presentation)
    if key in M._cache:
        return M._cache[key]
    classes = group.subgroup_classes()
    if not presentation:
        codes, layouts, levels = [], [], []
        for cls in classes:
            cs = over_codes(standard_orbit(group, cls.index))
            lay = {}
            gens = 0
            for c in cs:
                cw = c[0]
                for i in range(M.levels[cw].generator_count):
                    for j in range(N.levels[cw].generator_count):
                        lay[(c, i, j)] = gens
                        gens += 1
            codes.append(tuple(cs))
            layouts.append(lay)
            levels.append(FinPresAbGroup.free(gens))
        data = BoxData(M, N, tuple(codes), tuple(layouts))
        data.functor = MackeyFunctor.levels_only(group, levels,
                                                 "(layout-only box)")
        M._cache[key] = data
        return data
    codes, layouts, levels = [], [], []
    for cls in classes:
        c, l, grp = _box_level_presentation(M, N, standard_orbit(group, cls.index))
        codes.append(c)
        layouts.append(l)
        levels.append(grp)
    data = BoxData(M, N, tuple(codes), tuple(layouts))

    def entry_matrix(e: BurnsideElement):
        c_src = e.source.orbit_index.classes[0]
        c_tgt = e.target.orbit_index.classes[0]
        cols = [None] * levels[c_src].generator_count
        for code in codes[c_src]:
            terms = _pairing_terms(data, levels, standard_orbit(group, code[0]),
                                   standard_orbit(group, code[0]),
                                   compose(e, _struct_span(e.source, code)))
            cw = code[0]
            nM = M.levels[cw].generator_count
            nN = N.levels[cw].generator_count
            for i in range(nM):
                for j in range(nN):
                    col = intmat.zero_vec(levels[c_tgt].generator_count)
                    for (TM, TN, slot) in terms:
                        for aa in range(TM.shape[0]):
                            va = TM[aa, i]
                            if va == 0:
                                continue
                            for bb in range(TN.shape[0]):
                                vb = TN[bb, j]
                                if vb:
                                    col[slot(aa, bb)] += va * vb
                    cols[layouts[c_src][(code, i, j)]] = col
        return intmat.from_cols(cols, levels[c_tgt].generator_count)

    data.functor = mackey_from_span_action(
        group, levels, entry_matrix,
        name=f"({M.name or 'M'} box {N.name or 'N'})", check=False)
    M._cache[key] = data
    return data


def _struct_span(X: GSet, code) -> BurnsideElement:
    """Span product(O_L, O_L) => X with legs (diagonal, structure map)."""
    cidx, _x = code
    group = X.group
    O = standard_orbit(group, cidx)
    P = product(O, O)
    diag = GMap(O, P.gset, tuple(P.of_pair(w, w) for w in range(O.size)))
    return span_element(P.gset, X, O, diag, struct_gmap(X, code))


def box_pairing(data: BoxData, U: GSet, V: GSet, e: BurnsideElement,
                u_vec, v_vec):
    """Universal bilinear pairing M(U) x N(V) -> (M box N)(target of e)."""
    levels = data.functor.levels
    _offs, total = _level_offsets(levels, e.target)
    return _pair(_pairing_terms(data, levels, U, V, e), total, u_vec, v_vec)


def _pair(terms, total, u_vec, v_vec):
    """Image of u (x) v under precomputed pairing terms, of length total."""
    out = intmat.zero_vec(total)
    u_vec = np.asarray(u_vec, dtype=object)
    v_vec = np.asarray(v_vec, dtype=object)
    for (TM, TN, slot) in terms:
        mv = TM @ u_vec
        nv = TN @ v_vec
        for aa in range(len(mv)):
            if mv[aa] == 0:
                continue
            for bb in range(len(nv)):
                if nv[bb]:
                    out[slot(aa, bb)] += mv[aa] * nv[bb]
    return out


def box_map(f: MackeyMorphism, g: MackeyMorphism,
            presentation=True) -> MackeyMorphism:
    """The induced morphism f box g on box products (same over-codes)."""
    src = box(f.source, g.source, presentation=presentation)
    tgt = box(f.target, g.target, presentation=presentation)
    mats = []
    for c in range(len(src.functor.levels)):
        cols = [None] * src.functor.levels[c].generator_count
        for (code, i, j), idx in src.layout[c].items():
            cw = code[0]
            col = intmat.zero_vec(tgt.functor.levels[c].generator_count)
            for a in range(f.mats[cw].shape[0]):
                va = f.mats[cw][a, i]
                if va == 0:
                    continue
                for b in range(g.mats[cw].shape[0]):
                    vb = g.mats[cw][b, j]
                    if vb:
                        col[tgt.layout[c][(code, a, b)]] += va * vb
            cols[idx] = col
        mats.append(intmat.from_cols(cols, tgt.functor.levels[c].generator_count))
    return MackeyMorphism(src.functor, tgt.functor, mats, check=False)


# -- unit, commutativity, associativity ---------------------------------------------


def point_representable(group) -> MackeyFunctor:
    """The Burnside Mackey functor A_pt, cached per group."""
    key = "point_representable"
    if key not in group._cache:
        group._cache[key] = representable(point_gset(group), name="Burnside")
    return group._cache[key]


def box_unit_eval(M: MackeyFunctor, data: BoxData) -> MackeyMorphism:
    """The evaluation morphism A_pt box M -> M on generators.

    Works on layout-only data as well; no invertibility claims.
    """
    group = M.group
    pt = point_gset(group)
    F = data.functor
    classes = group.subgroup_classes()
    mats = []
    for cls in classes:
        X = standard_orbit(group, cls.index)
        cols = [None] * F.levels[cls.index].generator_count
        for (code, i, j), idx in data.layout[cls.index].items():
            cw = code[0]
            O = standard_orbit(group, cw)
            a_code = hom_basis(pt, O)[i]
            a_span = basis_element(pt, O, a_code)
            lam = product(pt, O).right        # pt x O -> O, bijective
            E = compose(_struct_span(X, code),
                        compose(tensor(a_span, _identity_elt(O)),
                                transfer_element(lam.inverse())))
            cols[idx] = M.eval_span(E)[:, j].copy()
        mats.append(intmat.from_cols(cols, M.levels[cls.index].generator_count))
    return MackeyMorphism(F, M, mats, check=False)


def box_unit_iso(M: MackeyFunctor, unit_rep=None):
    """Isomorphism A_pt box M -> M with verified two-sided inverse.

    Returns (iso, data) where data is the box presentation.  Raises if the
    constructed map fails invertibility, which would signal an
    implementation fault rather than a mathematical one.
    """
    group = M.group
    pt = point_gset(group)
    A = unit_rep if unit_rep is not None else point_representable(group)
    data = box(A, M)
    F = data.functor
    classes = group.subgroup_classes()
    eps = box_unit_eval(M, data)

    # inverse: m |-> [unit (x) m] over the unitor span
    inv_mats = []
    unit_index = _unit_code_index(group)
    for cls in classes:
        X = standard_orbit(group, cls.index)
        lamX = product(pt, X).right
        e = transfer_element(lamX)
        cols = []
        for k in range(M.levels[cls.index].generator_count):
            u_vec = intmat.zero_vec(A.levels[len(classes) - 1].generator_count)
            u_vec[unit_index] = 1
            m_vec = intmat.zero_vec(M.levels[cls.index].generator_count)
            m_vec[k] = 1
            cols.append(box_pairing(data, pt, X, e, u_vec, m_vec))
        inv_mats.append(intmat.from_cols(cols, F.levels[cls.index].generator_count))
    eta = MackeyMorphism(M, F, inv_mats, check=False)

    _verify_two_sided(eps, eta)
    return eps, data


def _identity_elt(X: GSet):
    from .burnside import identity_element
    return identity_element(X)


def _unit_code_index(group):
    pt = point_gset(group)
    basis = hom_basis(pt, pt)
    from .burnside import identity_element
    ident = identity_element(pt)
    (code, v), = ident.coeffs.items()
    assert v == 1
    return basis.index(code)


def _verify_two_sided(f: MackeyMorphism, g: MackeyMorphism):
    if not compose_morphisms(f, g).equals(identity_morphism(f.target)):
        raise ValueError(f"{f.source.name}: witness is not a right inverse")
    if not compose_morphisms(g, f).equals(identity_morphism(f.source)):
        raise ValueError(f"{f.source.name}: witness is not a left inverse")


def box_comm_iso(M: MackeyFunctor, N: MackeyFunctor) -> MackeyMorphism:
    """The symmetry M box N -> N box M, swapping tensor slots."""
    src = box(M, N)
    tgt = box(N, M)
    mats = []
    for c in range(len(src.functor.levels)):
        cols = [None] * src.functor.levels[c].generator_count
        for (code, i, j), idx in src.layout[c].items():
            col = intmat.zero_vec(tgt.functor.levels[c].generator_count)
            col[tgt.layout[c][(code, j, i)]] = 1
            cols[idx] = col
        mats.append(intmat.from_cols(cols, tgt.functor.levels[c].generator_count))
    return MackeyMorphism(src.functor, tgt.functor, mats, check=False)


def box_assoc_iso(M: MackeyFunctor, N: MackeyFunctor, P: MackeyFunctor):
    """Associator (M box N) box P -> M box (N box P), with verified inverse."""
    group = M.group
    MN = box(M, N)
    NP = box(N, P)
    left = box(MN.functor, P)
    right = box(M, NP.functor)

    diag = [_diag_code(group, c) for c in range(len(group.subgroup_classes()))]

    def to_right(c, outer_code, cwp, a, b, d):
        beta = NP.layout[cwp][(diag[cwp], b, d)]
        return ((right.layout[c][(outer_code, a, beta)], 1),)

    def to_left(c, outer_code, cwp, a, b, d):
        alpha = MN.layout[cwp][(diag[cwp], a, b)]
        return ((left.layout[c][(outer_code, alpha, d)], 1),)

    fwd = _regroup_matrices(left, MN, (M, N, P), True, right.functor.levels,
                            to_right)
    bwd = _regroup_matrices(right, NP, (M, N, P), False, left.functor.levels,
                            to_left)
    f = MackeyMorphism(left.functor, right.functor, fwd, check=False)
    g = MackeyMorphism(right.functor, left.functor, bwd, check=False)
    _verify_two_sided(f, g)
    return f, g


def _diag_code(group, cw):
    """Canonical over-code of the identity over-object of ORB(cw)."""
    O = standard_orbit(group, cw)
    zstar, _u = _canonical_over(group, cw, 0, O)
    return (cw, zstar)


def _regroup_matrices(outer: BoxData, inner: BoxData, factors, inner_left,
                      target_levels, place):
    """Generator matrices of a map out of a box of a box, one per level.

    `outer` presents (F0 box F1) box F2 when `inner_left` holds, else
    F0 box (F1 box F2); `inner` presents the parenthesized pair and
    `factors` is (F0, F1, F2).  A generator of `outer` unpacks to an outer
    over-code and generators (i, j, k) of the three factors at the inner
    over-code's class.  Each factor is twisted onto the canonical over-code
    of the composite over-object, the factor outside `inner` restricted
    along the inner structure map first, and every nonzero product term
    (a, b, d) is sent to `place(c, outer_code, cwp, a, b, d)`, which
    returns the (row, coefficient) pairs of its image in target_levels[c].
    """
    group = factors[0].group
    nclasses = len(group.subgroup_classes())
    inner_gens = [inner.generators(cw) for cw in range(nclasses)]
    plain = 2 if inner_left else 0
    mats = []
    for c in range(nclasses):
        X = standard_orbit(group, c)
        cols = [None] * outer.functor.levels[c].generator_count
        for (code, x, y), idx in outer.layout[c].items():
            cw = code[0]
            if inner_left:
                (code_in, i, j), k = inner_gens[cw][x], y
            else:
                i, (code_in, j, k) = x, inner_gens[cw][y]
            cwp, xp = code_in
            phi = struct_gmap(standard_orbit(group, cw), code_in)
            zstar, u = _canonical_over(group, cwp, struct_gmap(X, code)(xp), X)
            W = [F.weyl[cwp][u] for F in factors]
            W[plain] = W[plain] @ factors[plain].eval_span(
                restriction_element(phi))
            outer_code = (cwp, zstar)
            col = intmat.zero_vec(target_levels[c].generator_count)
            for a in range(W[0].shape[0]):
                va = W[0][a, i]
                if va == 0:
                    continue
                for b in range(W[1].shape[0]):
                    vb = W[1][b, j]
                    if vb == 0:
                        continue
                    for d in range(W[2].shape[0]):
                        vd = W[2][d, k]
                        if vd == 0:
                            continue
                        for row, v in place(c, outer_code, cwp, a, b, d):
                            col[row] += va * vb * vd * v
            cols[idx] = col
        mats.append(intmat.from_cols(cols, target_levels[c].generator_count))
    return mats


def rep_monoidal_iso(X: GSet, Y: GSet):
    """The natural isomorphism A_X box A_Y -> A_{X x Y}, with inverse.

    Sends a generator (over-code c, a, b) to s_c . (a tensor b); the
    two-sided inverse is solved for and verified.
    """
    group = X.group
    AX, AY = representable(X), representable(Y)
    data = box(AX, AY)
    P = product(X, Y).gset
    AP = representable(P)
    classes = group.subgroup_classes()
    mats = []
    for cls in classes:
        c = cls.index
        O_level = standard_orbit(group, c)
        target_basis = hom_basis(P, O_level)
        cols = [None] * data.functor.levels[c].generator_count
        for (code, i, j), idx in data.layout[c].items():
            cw = code[0]
            O = standard_orbit(group, cw)
            a_code = hom_basis(X, O)[i]
            b_code = hom_basis(Y, O)[j]
            t = tensor(basis_element(X, O, a_code), basis_element(Y, O, b_code))
            e = compose(_struct_span(O_level, code), t)
            col = intmat.zero_vec(len(target_basis))
            for cc, v in e.coeffs.items():
                col[target_basis.index(cc)] += v
            cols[idx] = col
        mats.append(intmat.from_cols(cols, len(target_basis)))
    fwd = MackeyMorphism(data.functor, AP, mats, check=False)
    bwd = fwd.inverse()
    _verify_two_sided(fwd, bwd)
    return fwd, bwd, data


def free_evaluation_iso(M: MackeyFunctor, X: GSet):
    """The natural isomorphism M(X x -) -> M box A_X, with inverse.

    The source is the internal hom F(A_X, M); the map pairs an element of
    M(X x Y) with the identity class of A_X(X) along the evident span.
    """
    group = M.group
    FX = internal_hom_rep(X, M)
    AX = representable(X)
    data = box(M, AX)
    from .mackey import identity_element_vector
    idvec, _rep = identity_element_vector(X)
    classes = group.subgroup_classes()
    mats = []
    for cls in classes:
        c = cls.index
        Y = standard_orbit(group, c)
        U = product(X, Y)
        PU = product(U.gset, X)
        leg1 = GMap(U.gset, PU.gset,
                    tuple(PU.of_pair(w, U.left(w)) for w in range(U.gset.size)))
        e = span_element(PU.gset, Y, U.gset, leg1, U.right)
        grp, _ = M.value_at(U.gset)
        cols = []
        for k in range(grp.generator_count):
            m_vec = intmat.zero_vec(grp.generator_count)
            m_vec[k] = 1
            cols.append(box_pairing(data, U.gset, X, e, m_vec, idvec))
        mats.append(intmat.from_cols(cols,
                                     data.functor.levels[c].generator_count))
    fwd = MackeyMorphism(FX, data.functor, mats, check=True)
    bwd = fwd.inverse()
    _verify_two_sided(fwd, bwd)
    return fwd, bwd, FX, data


# -- internal hom against representables ---------------------------------------------


def internal_hom_rep(X: GSet, M: MackeyFunctor) -> MackeyFunctor:
    """F(A_X, M), with level G/H equal to M(X x G/H)."""
    group = X.group
    from .burnside import identity_element
    idX = identity_element(X)
    classes = group.subgroup_classes()
    levels = []
    for cls in classes:
        grp, _ = M.value_at(product(X, standard_orbit(group, cls.index)).gset)
        levels.append(grp)

    return mackey_from_span_action(
        group, levels, lambda e: M.eval_span(tensor(idX, e)),
        name=f"F(A_X, {M.name})", check=False)


# -- Green functors -------------------------------------------------------------------


def _diag_terms(data: BoxData, cidx):
    """Pairing terms along the diagonal of G/H_cidx: the level product."""
    O = standard_orbit(data.left.group, cidx)
    PD = product(O, O)
    diag = GMap(O, PD.gset, tuple(PD.of_pair(w, w) for w in range(O.size)))
    return _pairing_terms(data, data.functor.levels, O, O,
                          restriction_element(diag))


def _level_table(data: BoxData, action: MackeyMorphism, cidx):
    """table[i][j] = action(e_i (x) e_j) at G/H_cidx; action starts at data."""
    terms = _diag_terms(data, cidx)
    total = data.functor.levels[cidx].generator_count
    EM = intmat.identity(data.left.levels[cidx].generator_count)
    EN = intmat.identity(data.right.levels[cidx].generator_count)
    return [[action.mats[cidx] @ _pair(terms, total, EM[:, i], EN[:, j])
             for j in range(EN.shape[1])] for i in range(EM.shape[1])]


@dataclass
class GreenFunctor:
    """A Mackey functor R with a commutative, unital box multiplication.

    `mult` is a morphism R box R -> R on the presentation `data`, and `unit`
    a morphism A_pt -> R.  validate_green checks the monoid laws through
    the level rings R(G/H), which is equivalent (see validate_green).
    """
    underlying: MackeyFunctor
    mult: MackeyMorphism          # (R box R) -> R
    unit: MackeyMorphism          # A_pt -> R
    data: BoxData                 # presentation of R box R
    unit_rep: MackeyFunctor       # the representable A_pt used by unit

    @property
    def group(self):
        return self.underlying.group

    def level_product(self, cidx, x_vec, y_vec):
        """The ring product on R(G/H) through the diagonal pairing."""
        vec = _pair(_diag_terms(self.data, cidx),
                    self.data.functor.levels[cidx].generator_count,
                    x_vec, y_vec)
        return self.mult.mats[cidx] @ vec

    def level_unit(self, cidx):
        """The multiplicative unit of R(G/H)."""
        group = self.group
        pt = point_gset(group)
        O = standard_orbit(group, cidx)
        to_pt = GMap(O, pt, (0,) * O.size)
        res_map = self.underlying.eval_span(restriction_element(to_pt))
        unit_pt = self.unit.mats[len(group.subgroup_classes()) - 1] \
            @ _unit_vector(group, self.unit_rep)
        return res_map @ unit_pt

    def ring_table(self, cidx):
        """Structure constants of the level ring on its generators."""
        return _level_table(self.data, self.mult, cidx)


def _unit_vector(group, unit_rep):
    nclasses = len(group.subgroup_classes())
    vec = intmat.zero_vec(unit_rep.levels[nclasses - 1].generator_count)
    vec[_unit_code_index(group)] = 1
    return vec


class GreenValidationError(ValueError):
    pass


def green_from_mult(R: MackeyFunctor, mult: MackeyMorphism,
                    unit: MackeyMorphism, data: BoxData = None,
                    unit_rep: MackeyFunctor = None,
                    check=True) -> GreenFunctor:
    """Assemble a Green functor from mult: R box R -> R and unit: A_pt -> R.

    With check, validate_green verifies the axioms exactly: it ties every
    column of mult to the level products and unit to its top-level value,
    then checks the level rings, which is equivalent to the box-level
    monoid laws.
    """
    data = data or box(R, R)
    unit_rep = unit_rep if unit_rep is not None else unit.source
    G = GreenFunctor(R, mult, unit, data, unit_rep)
    if check:
        validate_green(G)
    return G


def validate_green(G: GreenFunctor):
    """Exact Green functor axioms, checked levelwise on product tables.

    A monoid for the box product is the same thing as a Mackey functor with
    a ring at every level on which conjugation and restriction act by unital
    ring maps and Frobenius reciprocity holds (Thevenaz-Webb, Trans. AMS 347,
    1995; Bouc, LNM 1671, 1997).  Each level's product table and unit are
    built once, and the checks are table arithmetic:

    (a) every column of G.mult, on a generator (code, i, j) of G.data, is
        the transfer along code of the level product e_i . e_j, and G.unit
        is the Yoneda extension of the top-level unit.  This ties the
        morphisms to the tables, so no column of mult goes unchecked;
    (b) at every level the product is well defined on relations,
        commutative, associative and unital, and every normalizer element
        acts by a unital ring map;
    (c) at every canonical covering pair restriction is a unital ring map
        and tr(x . res y) = tr(x) . y.  The other covering pairs are
        conjugates of these, and conjugation is a ring map by (b).

    Raises GreenValidationError naming the first failing axiom and cell.
    """
    R = G.underlying
    group = G.group
    classes = group.subgroup_classes()
    tables = [G.ring_table(c) for c in range(len(classes))]
    units = [G.level_unit(c) for c in range(len(classes))]
    pt = point_gset(group)
    for c, cls in enumerate(classes):
        O = standard_orbit(group, c)
        for k, code in enumerate(hom_basis(pt, O)):
            want = R.eval_span(basis_element(pt, O, code)) @ units[-1]
            if not R.levels[c].elements_equal(G.unit.mats[c][:, k], want):
                raise GreenValidationError(
                    f"unit is not the Yoneda extension of the top-level unit "
                    f"at level {cls.label}, cell ({k})")
    _check_action(R, R, tables, tables, units, G.mult, G.data,
                  "multiplication")
    for c, cls in enumerate(classes):
        lvl = R.levels[c]
        for i in range(lvl.generator_count):
            for j in range(i):
                if not lvl.elements_equal(tables[c][i][j], tables[c][j][i]):
                    raise GreenValidationError(
                        f"multiplication is not commutative at level "
                        f"{cls.label}, cell ({i}, {j})")
        for n in cls.normalizer:
            if not lvl.elements_equal(R.weyl[c][n] @ units[c], units[c]):
                raise GreenValidationError(
                    f"conjugation by {n} does not preserve the unit at level "
                    f"{cls.label}")
    for (A, B) in canonical_covers(group):
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        if not R.levels[ca].elements_equal(R.res[(A, B)] @ units[cb],
                                           units[ca]):
            raise GreenValidationError(
                f"restriction does not preserve the unit at {A}<{B}")


def _times(table, x, y, n):
    """x . y from table[i][j] = e_i . e_j, in a level with n generators."""
    out = intmat.zero_vec(n)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    out += (xi * yj) * table[i][j]
    return out


def _check_action(R: MackeyFunctor, M: MackeyFunctor, rings, acts, units,
                  action: MackeyMorphism, data: BoxData, name):
    """Levelwise axioms of an action R box M -> M, on product tables.

    rings[c][i][j] and acts[c][i][j] are e_i . e_j in R(G/H_c) and in
    M(G/H_c), and units[c] is the unit of R(G/H_c).  Checks that `action`
    on each generator (code, i, j) of `data` is the transfer along code of
    acts[code class][i][j]; that the level action is well defined on the
    relations of both factors, associative and unital; that conjugation
    commutes with it at every level and restriction at every canonical
    covering pair; and Frobenius reciprocity on both sides at every
    canonical covering pair.  Raises GreenValidationError naming the axiom
    and the cell.
    """
    group = R.group
    classes = group.subgroup_classes()

    def times(c, x, y):
        return _times(acts[c], x, y, M.levels[c].generator_count)

    def check(c, lhs, rhs, what, where, cell):
        if not M.levels[c].elements_equal(lhs, rhs):
            raise GreenValidationError(
                f"{what} at {where}, cell ({', '.join(map(str, cell))})")

    ER = [intmat.identity(lvl.generator_count) for lvl in R.levels]
    EM = [intmat.identity(lvl.generator_count) for lvl in M.levels]
    for c, cls in enumerate(classes):
        where = f"level {cls.label}"
        X = standard_orbit(group, c)
        for code in data.codes[c]:
            push = M.eval_span(transfer_element(struct_gmap(X, code)))
            cw = code[0]
            for i in range(R.levels[cw].generator_count):
                for j in range(M.levels[cw].generator_count):
                    check(c, action.mats[c][:, data.layout[c][(code, i, j)]],
                          push @ acts[cw][i][j],
                          f"{name} is not the transfer of the level product",
                          where, (code, i, j))
        nR, nM = ER[c].shape[1], EM[c].shape[1]
        zero = intmat.zero_vec(nM)
        relR = R.levels[c].relation_lattice
        relM = M.levels[c].relation_lattice
        for r in range(relR.shape[1]):
            for j in range(nM):
                check(c, times(c, relR[:, r], EM[c][:, j]), zero,
                      f"{name} is not well defined on relations", where,
                      (f"relation {r}", j))
        for r in range(relM.shape[1]):
            for i in range(nR):
                check(c, times(c, ER[c][:, i], relM[:, r]), zero,
                      f"{name} is not well defined on relations", where,
                      (i, f"relation {r}"))
        for j in range(nM):
            check(c, times(c, units[c], EM[c][:, j]), EM[c][:, j],
                  f"unit law fails for the {name}", where, (j,))
        for i in range(nR):
            for k in range(nR):
                for j in range(nM):
                    check(c, times(c, rings[c][i][k], EM[c][:, j]),
                          times(c, ER[c][:, i], acts[c][k][j]),
                          f"{name} is not associative", where, (i, k, j))
        for n in cls.normalizer:
            WR, WM = R.weyl[c][n], M.weyl[c][n]
            for i in range(nR):
                for j in range(nM):
                    check(c, WM @ acts[c][i][j],
                          times(c, WR[:, i], WM[:, j]),
                          f"conjugation by {n} does not respect the {name}",
                          where, (i, j))
    for (A, B) in canonical_covers(group):
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        where = f"{A}<{B}"
        resR, resM = R.res[(A, B)], M.res[(A, B)]
        trR, trM = R.tr[(A, B)], M.tr[(A, B)]
        for i in range(ER[cb].shape[1]):
            for j in range(EM[cb].shape[1]):
                check(ca, resM @ acts[cb][i][j],
                      times(ca, resR[:, i], resM[:, j]),
                      f"restriction does not respect the {name}", where,
                      (i, j))
        for i in range(ER[ca].shape[1]):
            for j in range(EM[cb].shape[1]):
                check(cb, trM @ times(ca, ER[ca][:, i], resM[:, j]),
                      times(cb, trR[:, i], EM[cb][:, j]),
                      f"Frobenius reciprocity tr(r.res m) = tr(r).m fails "
                      f"for the {name}", where, (i, j))
        for i in range(ER[cb].shape[1]):
            for j in range(EM[ca].shape[1]):
                check(cb, trM @ times(ca, resR[:, i], EM[ca][:, j]),
                      times(cb, ER[cb][:, i], trM[:, j]),
                      f"Frobenius reciprocity tr(res r.m) = r.tr(m) fails "
                      f"for the {name}", where, (i, j))


def green_from_levelwise(R: MackeyFunctor, ring_tables, unit_vec,
                         check=True) -> GreenFunctor:
    """Build the mult/unit morphisms from levelwise ring tables.

    `ring_tables[c][i][j]` is the vector of e_i * e_j in R(G/H_c); `unit_vec`
    is the multiplicative unit of R at the one-point level.  Raises
    ValueError, naming the class label and the cell, unless there is one
    n x n table of length-n integer vectors per class (n the level's
    generator count); a float, string or bool entry, of a table or of the
    unit, is named rather than truncated.  Round-trips with green_from_mult
    through the same validation.
    """
    group = R.group
    classes = group.subgroup_classes()
    if len(ring_tables) != len(classes):
        raise ValueError(f"need one ring table per subgroup class, "
                         f"got {len(ring_tables)} for {len(classes)}")
    tables = []
    for cls, table in zip(classes, ring_tables):
        n = R.levels[cls.index].generator_count
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"ring table at level {cls.label} must be "
                             f"{n}x{n}")
        for i, row in enumerate(table):
            for j, vec in enumerate(row):
                if len(vec) != n:
                    raise ValueError(
                        f"ring table at level {cls.label}, cell ({i}, {j}): "
                        f"vector of length {len(vec)}, expected {n}")
        tables.append([[intmat.intvec(_labels(
            vec, f"ring table at level {cls.label}, cell ({i}, {j})"))
            for j, vec in enumerate(row)] for i, row in enumerate(table)])
    unit_vec = intmat.intvec(_labels(unit_vec, "unit"))
    data = box(R, R)
    mult = action_from_tables(data, R, tables)
    unit, unit_rep = yoneda_element(R, point_gset(group), unit_vec)
    return green_from_mult(R, mult, unit, data=data, unit_rep=unit_rep,
                           check=check)


def action_from_tables(data: BoxData, target: MackeyFunctor,
                       tables) -> MackeyMorphism:
    """The map out of `data` that is the transfer of the level products.

    `tables[c][i][j]` is the level product e_i . e_j in target(G/H_c) of
    generator i of data.left and generator j of data.right.  A generator
    (code, i, j) of the box goes to the transfer along code of
    tables[class of code][i][j], the rule that `_check_action` enforces.
    """
    group = target.group
    mats = []
    for c in range(len(group.subgroup_classes())):
        X = standard_orbit(group, c)
        push = {code: target.eval_span(transfer_element(struct_gmap(X, code)))
                for code in data.codes[c]}
        cols = [None] * data.functor.levels[c].generator_count
        for (code, i, j), idx in data.layout[c].items():
            cols[idx] = push[code] @ tables[code[0]][i][j]
        mats.append(intmat.from_cols(cols, target.levels[c].generator_count))
    return MackeyMorphism(data.functor, target, mats, check=False)


def burnside_green(group, check=True) -> GreenFunctor:
    """The Burnside Green functor: A_pt with the unitor multiplication."""
    key = ("burnside_green", check)
    if key in group._cache:
        return group._cache[key]
    R = point_representable(group)
    eps, data = box_unit_iso(R, unit_rep=R)
    unit = identity_morphism(R)
    G = green_from_mult(R, eps, unit, data=data, unit_rep=R, check=check)
    group._cache[key] = G
    return G


# -- modules over Green functors -------------------------------------------------------


@dataclass
class GreenModule:
    """A Mackey functor with a validated action of a Green functor."""
    ring: GreenFunctor
    underlying: MackeyFunctor
    action: MackeyMorphism        # (R box M) -> M
    data: BoxData                 # presentation of R box M

    @property
    def group(self):
        return self.underlying.group


def validate_module(mod: GreenModule):
    """Exact module axioms for the action R box M -> M, checked levelwise.

    As for validate_green, an action of a Green functor is the same thing
    as an action of each level ring R(G/H) on M(G/H) that commutes with
    conjugation and restriction and satisfies Frobenius reciprocity on both
    sides.  The check ties every column of the action to the level action
    tables, then verifies well-definedness, (r.s).m = r.(s.m), 1.m = m,
    compatibility with conjugation and restriction, and both Frobenius
    identities.  Raises GreenValidationError naming the axiom and cell.
    """
    ring = mod.ring
    nclasses = len(mod.group.subgroup_classes())
    rings = [ring.ring_table(c) for c in range(nclasses)]
    units = [ring.level_unit(c) for c in range(nclasses)]
    acts = [_level_table(mod.data, mod.action, c) for c in range(nclasses)]
    _check_action(ring.underlying, mod.underlying, rings, acts, units,
                  mod.action, mod.data, "module action")


def ring_as_module(G: GreenFunctor) -> GreenModule:
    """R regarded as a module over itself via its multiplication."""
    return GreenModule(G, G.underlying, G.mult, G.data)
