"""K0 of finite G-sets over orbits, and the Burnside comparison.

The group completion of isomorphism classes of G-sets over X is free on
the transitive classes, so K0(X) is computed exactly.  Restrictions come
from pullback of over-objects, transfers from postcomposition, and the
multiplication from fiber products over the base.  `k0_mackey` takes them
along the structure G-maps of `gsets` (`projection_map`,
`translation_map`), whose coordinates the span-built Burnside functor
shares; no span is composed here.  The comparison isomorphism with that
Green functor is constructed on canonical class codes and every
compatibility (structure maps, unit, multiplication tables) is checked
exactly; this is the degree-zero shadow of the equivariant
Barratt-Priddy-Quillen equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import intmat
from .abgroups import FinPresAbGroup
from .burnside import hom_basis, span_codes
from .convolution import GreenFunctor, burnside_green, green_from_levelwise
from .groups import FiniteGroup
from .gsets import (
    GMap,
    GSet,
    compose_maps,
    identity_map,
    orbit_map,
    point_gset,
    pullback,
    standard_orbit,
)
from .mackey import MackeyFunctor, MackeyMorphism, mackey_from_gmaps


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
    """The structure map G/L -> X of a basis class of K0 over X."""
    return orbit_map(standard_orbit(X.group, code[0]), X, code[2])


def _class_vector(slice_k0: SliceK0, u: GMap):
    """Expand the class of an over-object u: U -> X in the slice basis."""
    U = u.source
    pt = point_gset(U.group)
    codes = span_codes(pt, slice_k0.base, U, GMap(U, pt, (0,) * U.size), u)
    vec = intmat.zero_vec(len(slice_k0.basis))
    for code, mult in codes.items():
        vec[slice_k0.basis.index(code)] += mult
    return vec


def k0_restrict(src: SliceK0, tgt: SliceK0, f: GMap):
    """Pullback of over-objects along f: tgt.base -> src.base."""
    cols = [_class_vector(tgt, pullback(_over_object(src.base, code), f).right)
            for code in src.basis]
    return intmat.from_cols(cols, len(tgt.basis))


def k0_transfer(src: SliceK0, tgt: SliceK0, f: GMap):
    """Postcomposition of over-objects with f: src.base -> tgt.base."""
    cols = [_class_vector(tgt, compose_maps(f, _over_object(src.base, code)))
            for code in src.basis]
    return intmat.from_cols(cols, len(tgt.basis))


def k0_mackey(group: FiniteGroup) -> MackeyFunctor:
    """The K0 Mackey functor: transfers by postcomposition, restrictions
    by pullback, conjugation by translation isomorphisms."""
    slices = _slices(group)

    def along(f: GMap, transfer):
        s, t = (slices[X.orbit_index.classes[0]] for X in (f.source, f.target))
        return k0_transfer(s, t, f) if transfer else k0_restrict(t, s, f)

    return mackey_from_gmaps(group, [s.group for s in slices], along,
                             name="K0")


def k0_green(group: FiniteGroup) -> GreenFunctor:
    """K0 with the fiber-product multiplication, as a validated Green functor."""
    M = k0_mackey(group)
    slices = _slices(group)
    tables = []
    for sl in slices:
        legs = [_over_object(sl.base, code) for code in sl.basis]
        tables.append([[_class_vector(sl, compose_maps(ui, pb.left))
                        for pb in (pullback(ui, uj) for uj in legs)]
                       for ui in legs])
    # the unit is the class of the identity over the point
    unit = _class_vector(slices[-1], identity_map(point_gset(group)))
    return green_from_levelwise(M, tables, unit)


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
    for c, sl in enumerate(slices):
        target_basis = hom_basis(pt, standard_orbit(group, c))
        m = intmat.zeros(len(target_basis), len(sl.basis))
        for j, code in enumerate(sl.basis):
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
