"""Finitely presented abelian groups with exact normal forms.

A group is Z^n modulo the lattice spanned by its relator rows.  Elements
are integer vectors of length n (generator coordinates); the Smith form
of the relation lattice gives unique normal forms, so equality is
decidable and deterministic.  A relator-free group Z^n carries its
identity transforms implicitly and costs O(n), not two n x n arrays.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import intmat
from .intmat import (
    _labels,
    hermite_normal_form,
    intmat as mat,
    lattice_sum,
    preimage_lattice,
    smith_normal_form,
    zeros,
)


def _int_matrix(rows, ncols, name, *where):
    """`rows` as an object matrix of Python ints, with `ncols` if empty.

    A 2-D object array is the library's own representation and is returned
    as given, not copied.  Other input goes through `intmat`, which names
    a float, string or bool entry as `name[i][j]`.  `name` is formatted
    with `where` only then, which keeps the shared path free of string
    work.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == object \
            and rows.ndim == 2:
        return rows
    return mat(rows, ncols, name.format(*where))


class FinPresAbGroup:
    """Z^generator_count modulo the row span of `relations`."""

    def __init__(self, generator_count, relations=None):
        """Raises ValueError on a generator count that is not a nonnegative
        integer and on a relator entry that is not an integer."""
        (n,) = _labels((generator_count,), "generator count")
        if n < 0:
            raise ValueError(f"generator count is negative: {n}")
        self.generator_count = n
        raw = zeros(0, n) if relations is None else \
            _int_matrix(relations, n, "relations")
        if raw.shape[1] != n:
            raise ValueError("relation width does not match generator count")
        # reduce the relator lattice once; everything downstream sees the
        # canonical basis, which keeps later matrix work small
        self._rel_cols = hermite_normal_form(raw.T) if raw.shape[0] \
            else zeros(n, 0)
        # (U, Uinv) with y = U @ v putting the relation lattice diagonal;
        # None stands for the identity of a relator-free group
        m = self._rel_cols.shape[1]
        if m == 0:
            self._transforms, self._diag = None, [0] * n
            return
        S, D, Sinv, _ = smith_normal_form(self._rel_cols)
        self._transforms = (Sinv, S)
        self._diag = [int(D[i, i]) if i < min(n, m) else 0 for i in range(n)]

    @classmethod
    def _assembled(cls, rel_cols, U, Uinv, diag):
        """Skip diagonalization when the canonical data is already known.

        Used by direct sums: block-diagonal transforms of the summands put
        the combined relation lattice in diagonal coordinates directly.
        U = Uinv = None stands for the identity of a relator-free group.
        """
        obj = object.__new__(cls)
        obj.generator_count = rel_cols.shape[0]
        obj._rel_cols = rel_cols
        obj._transforms = None if U is None else (U, Uinv)
        obj._diag = list(diag)
        return obj

    def _from_diagonal(self, y):
        """Generator coordinates Uinv @ y of diagonal coordinates y."""
        return y if self._transforms is None else self._transforms[1] @ y

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, factors):
        """Group with one generator per listed factor (0 meaning Z).

        Raises ValueError naming a factor that is not an integer."""
        factors = _labels(factors, "factors")
        n = len(factors)
        rels = [[factors[i] if j == i else 0 for j in range(n)]
                for i in range(n) if factors[i] != 0]
        return cls(n, mat(rels, n))

    @property
    def relation_lattice(self):
        """Relators as columns of an n x m matrix."""
        return self._rel_cols

    @property
    def relations(self):
        """Relators as rows: the transpose of the relation lattice, not a
        copy."""
        return self._rel_cols.T

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
        """Unique canonical tuple for the class of v.

        An object array, the library's own representation, is read as it
        is.  Any other v must hold integers: a float, bool or string entry
        raises ValueError naming it, as does a length other than the
        generator count.
        """
        if not (isinstance(v, np.ndarray) and v.dtype == object):
            v = _labels(v, "element")
        if len(v) != self.generator_count:
            raise ValueError(f"element of length {len(v)} in a group "
                             f"on {self.generator_count} generators")
        if self._transforms is None:
            return tuple(map(int, v))
        y = self._transforms[0] @ np.asarray(v, dtype=object)
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
        return self._from_diagonal(intmat.intvec(self.normal_form(v)))

    def elements_equal(self, v, w):
        return self.normal_form(v) == self.normal_form(w)

    def elements(self):
        """All elements (canonical representatives); the group must be finite."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        ranges = [range(d) for d in self._diag]
        for combo in itertools.product(*ranges):
            yield self._from_diagonal(intmat.intvec(combo))

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


def _columns_vanish(D, tgt: FinPresAbGroup) -> bool:
    """Is every column of D zero in tgt?

    One product U @ D puts all columns in diagonal coordinates, where row i
    must vanish modulo the i-th diagonal entry.  A relator-free tgt checks
    D itself.  The entries are Python ints, which plain iteration tests
    faster than numpy's object-array reductions at every size.
    """
    if D.shape[0] != tgt.generator_count:
        raise ValueError(f"elements of length {D.shape[0]} in a group "
                         f"on {tgt.generator_count} generators")
    if tgt._transforms is None:
        return not any(D.flat)
    Y = (tgt._transforms[0] @ D).tolist()
    return not any(any(x % d for x in row) if d else any(row)
                   for row, d in zip(Y, tgt._diag) if d != 1)


def map_is_welldefined(M, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    """Does the generator matrix M send src relations into tgt relations?"""
    M = _int_matrix(M, src.generator_count, "map")
    if M.shape != (tgt.generator_count, src.generator_count):
        return False
    return _columns_vanish(M @ src.relation_lattice, tgt)


def maps_equal(M1, M2, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    n = src.generator_count
    return _columns_vanish(_int_matrix(M1, n, "map") - _int_matrix(M2, n, "map"),
                           tgt)


def subgroup_from_lattice(B, amb: FinPresAbGroup):
    """Subgroup of amb spanned by the columns of B (plus relations).

    Returns (grp, incl) where incl maps subgroup generators into ambient
    generator coordinates.
    """
    St = lattice_sum(mat(B, amb.generator_count), amb.relation_lattice)
    rels = preimage_lattice(St, amb.relation_lattice)
    return FinPresAbGroup(St.shape[1], rels.T), St


def quotient_by_columns(amb: FinPresAbGroup, cols):
    """Quotient of amb by the classes of the given columns, on the same
    generators."""
    rels = lattice_sum(amb.relation_lattice, mat(cols, amb.generator_count))
    return FinPresAbGroup(amb.generator_count, rels.T)


def image_of_map(M, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Image subgroup of tgt, as (grp, incl)."""
    return subgroup_from_lattice(mat(M, src.generator_count), tgt)


def cokernel_of_map(M, src: FinPresAbGroup, tgt: FinPresAbGroup):
    """Cokernel of the induced map, on the generators of tgt."""
    return quotient_by_columns(tgt, mat(M, src.generator_count))


def direct_sum_groups(groups):
    """Direct sum with block generator layout; returns (grp, offsets).

    A single summand is returned as it is.  A sum of relator-free groups
    is relator-free; otherwise the transforms are block-diagonal, with
    ones for the implicit identities.
    """
    groups = list(groups)
    if len(groups) == 1:
        return groups[0], [0]
    *offsets, total = itertools.accumulate(
        (g.generator_count for g in groups), initial=0)
    if not groups:
        return FinPresAbGroup(0), offsets
    rel_cols = intmat.block_diag([g.relation_lattice for g in groups])
    diag = [d for g in groups for d in g._diag]
    if all(g._transforms is None for g in groups):
        return FinPresAbGroup._assembled(rel_cols, None, None, diag), offsets
    U, Uinv = zeros(total, total), zeros(total, total)
    for g, o in zip(groups, offsets):
        k = g.generator_count
        if g._transforms is None:
            ones = np.arange(o, o + k)
            U[ones, ones] = Uinv[ones, ones] = 1
        else:
            U[o:o + k, o:o + k], Uinv[o:o + k, o:o + k] = g._transforms
    return FinPresAbGroup._assembled(rel_cols, U, Uinv, diag), offsets
