"""Finitely presented abelian groups with exact normal forms.

A group is Z^n modulo the lattice spanned by its relator rows.  Elements
are integer vectors of length n (generator coordinates); the Smith form
of the relation lattice gives unique normal forms, so equality is
decidable and deterministic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import intmat
from .intmat import (
    hermite_normal_form,
    intmat as mat,
    lattice_sum,
    preimage_lattice,
    smith_normal_form,
    zeros,
)


class FinPresAbGroup:
    """Z^generator_count modulo the row span of `relations`."""

    def __init__(self, generator_count, relations=None):
        self.generator_count = int(generator_count)
        if relations is None:
            relations = zeros(0, self.generator_count)
        raw = mat(relations, self.generator_count)
        if raw.shape[1] != self.generator_count:
            raise ValueError("relation width does not match generator count")
        # reduce the relator lattice once; everything downstream sees the
        # canonical basis, which keeps later matrix work small
        self._rel_cols = hermite_normal_form(raw.T)
        self.relations = self._rel_cols.T.copy()
        S, D, _, Sinv, _ = smith_normal_form(self._rel_cols)
        n, m = self._rel_cols.shape
        self._U = Sinv          # y = U @ v puts the relation lattice diagonal
        self._Uinv = S
        self._diag = [int(D[i, i]) if i < min(n, m) else 0 for i in range(n)]

    @classmethod
    def _assembled(cls, rel_cols, U, Uinv, diag):
        """Skip diagonalization when the canonical data is already known.

        Used by direct sums: block-diagonal transforms of the summands put
        the combined relation lattice in diagonal coordinates directly.
        """
        obj = object.__new__(cls)
        obj.generator_count = rel_cols.shape[0]
        obj._rel_cols = rel_cols
        obj.relations = rel_cols.T.copy()
        obj._U = U
        obj._Uinv = Uinv
        obj._diag = list(diag)
        return obj

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, factors):
        """Group with one generator per listed factor (0 meaning Z)."""
        n = len(factors)
        rels = [[factors[i] if j == i else 0 for j in range(n)]
                for i in range(n) if factors[i] != 0]
        return cls(n, mat(rels, n))

    @property
    def relation_lattice(self):
        """Relators as columns of an n x m matrix."""
        return self._rel_cols

    @property
    def invariant_factors(self):
        """Divisibility chain of torsion factors, then one 0 per free rank.

        The internal diagonal need not be chained (direct sums assemble
        blockwise), so the chain is rebuilt with C_a + C_b = C_gcd + C_lcm:
        after pass i, entry i divides every later entry.  No factoring.
        """
        chain = [d for d in self._diag if d > 1]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                a, b = chain[i], chain[j]
                g = math.gcd(a, b)
                chain[i], chain[j] = g, a // g * b
        frees = sum(1 for d in self._diag if d == 0)
        return tuple(d for d in chain if d > 1) + (0,) * frees

    @property
    def free_rank(self):
        return sum(1 for d in self._diag if d == 0)

    def is_trivial(self):
        return all(d == 1 for d in self._diag)

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            raise ValueError("group is infinite")
        out = 1
        for d in self._diag:
            out *= d
        return out

    def normal_form(self, v):
        """Unique canonical tuple for the class of v."""
        y = self._U @ np.asarray(v, dtype=object)
        out = []
        for yi, d in zip(y, self._diag):
            if d == 1:
                out.append(0)
            elif d == 0:
                out.append(int(yi))
            else:
                out.append(int(yi % d))
        return tuple(out)

    def reduce(self, v):
        """Canonical representative vector of the class of v."""
        return self._Uinv @ intmat.intvec(self.normal_form(v))

    def is_zero_element(self, v):
        return all(c == 0 for c in self.normal_form(v))

    def elements_equal(self, v, w):
        return self.normal_form(v) == self.normal_form(w)

    def elements(self):
        """All elements (canonical representatives); the group must be finite."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        ranges = [range(d) for d in self._diag]
        for combo in itertools.product(*ranges):
            yield self._Uinv @ intmat.intvec(combo)

    def __eq__(self, other):
        if not isinstance(other, FinPresAbGroup):
            return NotImplemented
        return (self.generator_count == other.generator_count
                and intmat.lattices_equal(self._rel_cols, other._rel_cols))

    def __hash__(self):
        return hash((self.generator_count, self.invariant_factors))

    def __repr__(self):
        return f"FinPresAbGroup(gens={self.generator_count}, inv={self.invariant_factors})"

    def describe(self):
        """Human name like 'Z^2 x C2' built from the invariant factors."""
        parts = []
        frees = self.free_rank
        if frees == 1:
            parts.append("Z")
        elif frees > 1:
            parts.append(f"Z^{frees}")
        for d in self.invariant_factors:
            if d > 0:
                parts.append(f"C{d}")
        return " x ".join(parts) if parts else "0"


def map_is_welldefined(M, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    """Does the generator matrix M send src relations into tgt relations?"""
    M = mat(M, src.generator_count)
    if M.shape != (tgt.generator_count, src.generator_count):
        return False
    img = M @ src.relation_lattice
    return all(tgt.is_zero_element(img[:, j]) for j in range(img.shape[1]))


def maps_equal(M1, M2, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    D = mat(M1, src.generator_count) - mat(M2, src.generator_count)
    return all(tgt.is_zero_element(D[:, j]) for j in range(D.shape[1]))


def subgroup_from_lattice(B, amb: FinPresAbGroup):
    """Subgroup of amb spanned by the columns of B (plus relations).

    Returns (grp, incl) where incl maps subgroup generators into ambient
    generator coordinates.
    """
    St = lattice_sum(mat(B, amb.generator_count), amb.relation_lattice)
    rels = preimage_lattice(St, amb.relation_lattice)
    return FinPresAbGroup(St.shape[1], rels.T), St


def quotient_by_columns(amb: FinPresAbGroup, cols):
    """Quotient of amb by the classes of the given columns.

    Returns (grp, proj) with proj the identity on generators.
    """
    rels = lattice_sum(amb.relation_lattice, mat(cols, amb.generator_count))
    grp = FinPresAbGroup(amb.generator_count, rels.T)
    return grp, intmat.identity(amb.generator_count)


def kernel_of_map(M, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Kernel of the induced map on quotients, as (grp, incl)."""
    M = mat(M, src.generator_count)
    K = preimage_lattice(M, tgt.relation_lattice)
    return subgroup_from_lattice(K, src)


def image_of_map(M, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Image subgroup of tgt, as (grp, incl)."""
    return subgroup_from_lattice(mat(M, src.generator_count), tgt)


def cokernel_of_map(M, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Cokernel of the induced map, as (grp, proj)."""
    return quotient_by_columns(tgt, mat(M, src.generator_count))


def tensor_group(A: FinPresAbGroup, B: FinPresAbGroup):
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
    return FinPresAbGroup(na * nb, mat(rels, na * nb))


def direct_sum_groups(groups):
    """Direct sum with block generator layout; returns (grp, offsets)."""
    groups = list(groups)
    offsets = []
    total = 0
    for g in groups:
        offsets.append(total)
        total += g.generator_count
    if not groups:
        return FinPresAbGroup(0), offsets
    rel_cols = intmat.block_diag([g.relation_lattice for g in groups])
    U = intmat.block_diag([g._U for g in groups])
    Uinv = intmat.block_diag([g._Uinv for g in groups])
    diag = [d for g in groups for d in g._diag]
    return FinPresAbGroup._assembled(rel_cols, U, Uinv, diag), offsets


def groups_isomorphic(A: FinPresAbGroup, B: FinPresAbGroup) -> bool:
    return A.invariant_factors == B.invariant_factors
