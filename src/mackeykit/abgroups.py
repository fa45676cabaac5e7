"""Finitely presented abelian groups with exact normal forms.

A group is Z^n modulo the lattice spanned by its relator rows; elements
are integer vectors of length n.  A group stores its minimal
presentation, read off the Smith elimination `intmat._smith`: one
generator per non-unit Smith entry d, with the rows of the row transform
U there (k x n) and the columns of U^-1 (n x k).  Normal forms are the k
coordinates, each reduced modulo its d, so equality is decidable and
deterministic.  A relator-free group holds None for both identities and
costs O(n).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import intmat
from .intmat import (
    _from_rows,
    _labels,
    _smith,
    hermite_normal_form,
    intmat as mat,
    lattice_sum,
    preimage_lattice,
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
    """Z^generator_count modulo the row span of `relations`.

    `_diag` holds the k non-unit Smith entries in order, `_proj` (k x n)
    and `_sect` (n x k) the maps with `_proj @ _sect` = I_k; other modules
    read them through `minimal_presentation`.
    """

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
        if self._rel_cols.shape[1] == 0:
            self._proj = self._sect = None
            self._diag = [0] * n
            return
        # with S @ D == A @ Tinv, U is Sinv and U^-1 is S
        D, Sinv, St, _ = _smith(self._rel_cols)
        keep = [i for i, row in enumerate(D) if row.get(i, 0) != 1]
        self._diag = [D[i].get(i, 0) for i in keep]
        self._proj = _from_rows([Sinv[i] for i in keep], n)
        self._sect = _from_rows([St[i] for i in keep], n, transposed=True)

    @classmethod
    def _assembled(cls, rel_cols, proj, sect, diag):
        """A group whose minimal presentation is known (direct sums)."""
        obj = object.__new__(cls)
        obj.generator_count = rel_cols.shape[0]
        obj._rel_cols = rel_cols
        obj._proj, obj._sect, obj._diag = proj, sect, list(diag)
        return obj

    def minimal_presentation(self):
        """(group, projection, section): the group on one generator per
        non-unit Smith entry, the k x n projection onto it and the n x k
        section back, the group's own arrays.  A relator-free group is
        already minimal: (self, None, None), None for the identity."""
        if self._proj is None:
            return self, None, None
        return (FinPresAbGroup.from_invariants(self._diag), self._proj,
                self._sect)

    def _lift(self, y):
        """Generator coordinates `_sect @ y` of k coordinates y."""
        return y if self._sect is None else self._sect @ y

    @classmethod
    def free(cls, rank):
        return cls(rank)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, factors):
        """Group with one generator per listed factor (0 meaning Z).

        Factors that are each 0 or above 1 and divide the next (so zeros
        come last) are in Smith form with no unit entry: the elimination
        would keep their diagonal columns, find them already chained
        (`intmat._smith`) and keep every entry with identity factors, so
        that group is assembled directly.  Other lists, such as a direct
        sum's blockwise entries, are eliminated.  Raises ValueError naming
        a factor that is not an integer."""
        factors = _labels(factors, "factors")
        n = len(factors)
        if all(d == 0 or d > 1 for d in factors) and all(
                b % a == 0 if a else b == 0
                for a, b in zip(factors, factors[1:])):
            k = n - factors.count(0)
            rel_cols = zeros(n, k)
            for i in range(k):
                rel_cols[i, i] = factors[i]
            eye = intmat.identity(n) if k else None
            return cls._assembled(rel_cols, eye, eye, factors)
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
        chain = [d for d in self._diag if d]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                a, b = chain[i], chain[j]
                g = math.gcd(a, b)
                chain[i], chain[j] = g, a // g * b
        return tuple(d for d in chain if d > 1) + (0,) * self.free_rank

    @property
    def free_rank(self):
        return self._diag.count(0)

    def is_trivial(self):
        return not self._diag

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            raise ValueError("group is infinite")
        return math.prod(self._diag)

    def normal_form(self, v):
        """Unique canonical tuple for the class of v: its k coordinates,
        each reduced modulo its Smith entry.

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
        if self._proj is None:
            return tuple(map(int, v))
        y = (self._proj @ np.asarray(v, dtype=object)).tolist()
        return tuple([int(yi % d) if d else int(yi)
                      for yi, d in zip(y, self._diag)])

    def reduce(self, v):
        """Canonical representative vector of the class of v."""
        return self._lift(intmat.intvec(self.normal_form(v)))

    def elements_equal(self, v, w):
        return self.normal_form(v) == self.normal_form(w)

    def elements(self):
        """All elements (canonical representatives); the group must be finite."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        ranges = [range(d) for d in self._diag]
        for combo in itertools.product(*ranges):
            yield self._lift(intmat.intvec(combo))

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

    One product with tgt's projection puts all columns in its k
    coordinates, where row i must vanish modulo the i-th Smith entry.  A
    relator-free tgt checks D itself.  The entries are Python ints, which
    plain iteration tests faster than numpy's object-array reductions at
    every size.
    """
    if tgt._proj is None:
        return not any(D.flat)
    Y = (tgt._proj @ D).tolist()
    return not any(any(x % d for x in row) if d else any(row)
                   for row, d in zip(Y, tgt._diag))


def map_is_welldefined(M, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    """Does the generator matrix M send src relations into tgt relations?"""
    M = _int_matrix(M, src.generator_count, "map")
    if M.shape != (tgt.generator_count, src.generator_count):
        return False
    return _columns_vanish(M @ src.relation_lattice, tgt)


def maps_equal(M1, M2, src: FinPresAbGroup, tgt: FinPresAbGroup) -> bool:
    """Do the generator matrices M1 and M2 induce the same map src -> tgt?

    Raises ValueError on a matrix whose shape is not tgt x src."""
    shape = (tgt.generator_count, src.generator_count)
    M1 = _int_matrix(M1, shape[1], "map")
    M2 = _int_matrix(M2, shape[1], "map")
    if M1.shape != shape or M2.shape != shape:
        raise ValueError(f"maps of shape {M1.shape} and {M2.shape}, "
                         f"expected {shape}")
    return _columns_vanish(M1 - M2, tgt)


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


def direct_sum_groups(groups):
    """Direct sum with block generator layout; returns (grp, offsets).

    A single summand is returned as it is.  A sum of relator-free groups
    is relator-free; otherwise the projection and section are
    block-diagonal, with ones for the implicit identities.
    """
    groups = list(groups)
    if len(groups) == 1:
        return groups[0], [0]
    *offsets, _ = itertools.accumulate(
        (g.generator_count for g in groups), initial=0)
    if not groups:
        return FinPresAbGroup(0), offsets
    rel_cols = intmat.block_diag([g.relation_lattice for g in groups])
    diag = [d for g in groups for d in g._diag]
    if all(g._proj is None for g in groups):
        return FinPresAbGroup._assembled(rel_cols, None, None, diag), offsets
    blocks = [(intmat.identity(g.generator_count),) * 2 if g._proj is None
              else (g._proj, g._sect) for g in groups]
    proj, sect = (intmat.block_diag(b) for b in zip(*blocks))
    return FinPresAbGroup._assembled(rel_cols, proj, sect, diag), offsets
