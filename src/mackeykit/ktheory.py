"""K0 of finite G-sets over orbits, and the Burnside comparison.

The group completion of isomorphism classes of G-sets over X is free on
the transitive classes, so K0(X) is computed exactly.  Restrictions come
from pullback of over-objects, transfers from postcomposition, and the
multiplication from fiber products over the base.  The comparison
isomorphism with the span-built Burnside Green functor is constructed on
canonical class codes and every compatibility (structure maps, unit,
multiplication tables) is checked exactly; this is the degree-zero shadow
of the equivariant Barratt-Priddy-Quillen equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import intmat
from .abgroups import FinPresAbGroup
from .burnside import hom_basis, materialize_code, span_codes, transitive_code
from .convolution import GreenFunctor, burnside_green, green_from_levelwise
from .groups import FiniteGroup
from .gsets import (
    GMap,
    GSet,
    compose_maps,
    coset_index_of,
    point_gset,
    pullback,
    standard_orbit,
)
from .mackey import MackeyFunctor, MackeyMorphism


@dataclass
class SliceK0:
    """K0 of finite G-sets over X: free abelian on transitive classes."""
    base: GSet
    basis: list          # transitive over-class codes, as spans pt -> X
    group: FinPresAbGroup

    def rank(self):
        return len(self.basis)


def k0_of_slice(X: GSet) -> SliceK0:
    pt = point_gset(X.group)
    basis = hom_basis(pt, X)
    return SliceK0(X, basis, FinPresAbGroup.free(len(basis)))


def _slices(group: FiniteGroup):
    """K0 over each standard orbit, in class order: the levels of k0_mackey."""
    return [k0_of_slice(standard_orbit(group, c.index))
            for c in group.subgroup_classes()]


def _over_object(X: GSet, code):
    """Materialize a basis class as (total G-set, structure map to X)."""
    pt = point_gset(X.group)
    W, _legpt, legX = materialize_code(pt, X, code)
    return W, legX


def _class_vector(slice_k0: SliceK0, U: GSet, u: GMap):
    """Expand the class of an arbitrary over-object in the slice basis."""
    pt = point_gset(U.group)
    to_pt = GMap(U, pt, (0,) * U.size)
    codes = span_codes(pt, slice_k0.base, U, to_pt, u)
    vec = intmat.zero_vec(len(slice_k0.basis))
    for code, mult in codes.items():
        vec[slice_k0.basis.index(code)] += mult
    return vec


def k0_restrict(src: SliceK0, tgt: SliceK0, f: GMap):
    """Pullback of over-objects along f: tgt.base -> src.base."""
    cols = []
    for code in src.basis:
        W, legX = _over_object(src.base, code)
        pb = pullback(legX, f)
        cols.append(_class_vector(tgt, pb.gset, pb.right))
    return intmat.from_cols(cols, len(tgt.basis))


def k0_transfer(src: SliceK0, tgt: SliceK0, f: GMap):
    """Postcomposition of over-objects with f: src.base -> tgt.base."""
    cols = []
    for code in src.basis:
        W, legX = _over_object(src.base, code)
        cols.append(_class_vector(tgt, W, compose_maps(f, legX)))
    return intmat.from_cols(cols, len(tgt.basis))


def _projection_map(group: FiniteGroup, A, B) -> GMap:
    """The transported projection ORB([A]) -> ORB([B]) for A <= B."""
    A, B = tuple(sorted(A)), tuple(sorted(B))
    ca, cb = group.class_index_of(A), group.class_index_of(B)
    OA, OB = standard_orbit(group, ca), standard_orbit(group, cb)
    tA, tB = group.transport(A), group.transport(B)
    shift = group.mul(tA, group.inv(tB))
    return GMap(OA, OB, tuple(coset_index_of(group, cb, group.mul(g, shift))
                              for g in OA.orbit_index.reach))


def _weyl_map(group: FiniteGroup, cidx, n) -> GMap:
    O = standard_orbit(group, cidx)
    return GMap(O, O, tuple(coset_index_of(group, cidx,
                                           group.mul(g, group.inv(n)))
                            for g in O.orbit_index.reach))


def k0_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The K0 Mackey functor: transfers by postcomposition, restrictions
    by pullback, conjugation by translation isomorphisms."""
    classes = group.subgroup_classes()
    slices = _slices(group)
    levels = [s.group for s in slices]
    res, tr = {}, {}
    for (A, B) in group.canonical_covers:
        ca, cb = group.class_index_of(A), group.class_index_of(B)
        pi = _projection_map(group, A, B)
        res[(A, B)] = k0_restrict(slices[cb], slices[ca], pi)
        tr[(A, B)] = k0_transfer(slices[ca], slices[cb], pi)
    conj = [{n: k0_transfer(slices[cls.index], slices[cls.index],
                            _weyl_map(group, cls.index, n))
             for n in cls.normalizer_generators}
            for cls in classes]
    return MackeyFunctor(group, levels, res, tr, conj, name="K0")


def k0_green(group: FiniteGroup) -> GreenFunctor:
    """K0 with the fiber-product multiplication, as a validated Green functor."""
    M = k0_mackey(group)
    slices = _slices(group)
    tables = []
    for sl in slices:
        legs = [_over_object(sl.base, code)[1] for code in sl.basis]
        tables.append([[_class_vector(sl, pb.gset, compose_maps(ui, pb.left))
                        for pb in (pullback(ui, uj) for uj in legs)]
                       for ui in legs])
    pt_slice = slices[-1]
    pt = point_gset(group)
    unit_code = transitive_code(pt, pt, tuple(range(group.order)), 0, 0)
    unit_vec = intmat.zero_vec(len(pt_slice.basis))
    unit_vec[pt_slice.basis.index(unit_code)] = 1
    return green_from_levelwise(M, tables, unit_vec)


@dataclass
class BpqResult:
    """The K0-level Barratt-Priddy-Quillen comparison; `bpq_verify` returns
    one only when every check passed."""
    group: FiniteGroup
    iso: MackeyMorphism           # k0_mackey -> Burnside Mackey functor
    inverse: MackeyMorphism


def bpq_verify(group: FiniteGroup) -> BpqResult:
    """Exhibit k0_green(G) = Burnside Green functor, or raise.

    The isomorphism matches each K0 basis class (a transitive G-set over
    G/H) with the span code of the same middle; the morphism must commute
    with every stored structure map, carry multiplication to
    multiplication, and preserve units.
    """
    K = k0_green(group)
    A = burnside_green(group, check=False)
    KM, AM = K.underlying, A.underlying
    classes = group.subgroup_classes()
    slices = _slices(group)
    pt = point_gset(group)
    mats = []
    for c, cls in enumerate(classes):
        O = standard_orbit(group, c)
        target_basis = hom_basis(pt, O)
        n = len(slices[c].basis)
        m = intmat.zeros(len(target_basis), n)
        for j, code in enumerate(slices[c].basis):
            m[target_basis.index(code), j] = 1
        mats.append(m)
    try:
        iso = MackeyMorphism(KM, AM, mats, check=True)
    except ValueError as err:
        raise ValueError(f"BPQ comparison fails on structure maps: {err}")
    inv = iso.inverse()

    for c, (m, table) in enumerate(zip(mats, K.tables)):
        for i, j in itertools.product(range(len(table)), repeat=2):
            if not AM.levels[c].elements_equal(
                    m @ table[i, j], A.level_product(c, m[:, i], m[:, j])):
                raise ValueError(
                    f"BPQ comparison fails multiplicativity at level "
                    f"{classes[c].label}, cell ({i},{j})")
        if not AM.levels[c].elements_equal(m @ K.level_unit(c),
                                           A.level_unit(c)):
            raise ValueError(
                f"BPQ comparison fails unitality at level {classes[c].label}")
    return BpqResult(group, iso, inv)
