"""Finite groups given by exact multiplication tables.

Elements are dense integer labels 0..order-1 with 0 the identity.  The
subgroup lattice, conjugacy classes of subgroups, normalizers and double
cosets are all enumerated exactly; every downstream module treats groups
opaquely through `mul`, `inv` and the subgroup-class data computed here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import product
from weakref import WeakKeyDictionary

from .intmat import _labels


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups.

    `representative` is the lexicographically minimal member (as sorted
    label tuples), which downstream canonical forms rely on.  `generators`
    and `normalizer_generators` generate the representative and its
    normalizer, chosen by `FiniteGroup.greedy_generators`.
    """
    representative: tuple
    conjugates: tuple
    normalizer: tuple
    weyl_order: int
    index: int
    label: str
    generators: tuple
    normalizer_generators: tuple


@dataclass(frozen=True)
class RelationPlan:
    """Where the Mackey-algebra relations are checked, as group data only.

    - `conjugation`: ((Hp, K0), ((n, conj_index(n, Hp)), ...)) for each
      canonical covering pair, n over the greedy generators of
      N(K0) cap N(Hp);
    - `transitivity`: the triples (A, C, B) with B a class representative,
      C < B a covering pair and A < C off the chain `maximal_under` picks;
    - `double_coset`: (L, H, K, terms) for each class representative L and
      each N(L)-orbit of pairs of maximal subgroups of L, (H, K) the least
      (nHn^-1, nKn^-1) in it, with one term (xDx^-1, D, conj_index(x, D))
      per double coset HxK in L, x its least label and D = x^-1Hx cap K.
    """
    conjugation: tuple
    transitivity: tuple
    double_coset: tuple


def owned(fn):
    """fn(owner, *args), computed once per args and kept on the owner.

    The owner is a `FiniteGroup` or a `GSet`, and the result is stored as
    `owner._memo[fn][args]`, so it lives exactly as long as its owner.
    The owner is never hashed: two groups with equal tables each keep
    their own results.  `args` must be hashable.
    """
    @wraps(fn)
    def memo(owner, *args):
        try:
            return owner._memo[fn][args]
        except KeyError:
            pass
        value = fn(owner, *args)
        owner._memo.setdefault(fn, {})[args] = value
        return value
    return memo


def paired(fn):
    """fn(owner, partner, *args), computed once and kept on the owner,
    keyed weakly by the partner.

    The owner is a `FiniteGroup` or a `GSet`, and the result is stored as
    `owner._memo[fn][partner][args]`, with `owner._memo[fn]` a
    `weakref.WeakKeyDictionary`, so an entry dies with its partner and
    the owner keeps no partner alive.  A value may not reference its
    partner: the entry would then keep its own key alive and never die.
    That is why the `product` memo and the box memo do not use it.  The
    partner is hashed, so partners that compare equal share an entry, and
    fn may read only what the partner's equality compares.  `args` must
    be hashable.
    """
    @wraps(fn)
    def memo(owner, partner, *args):
        try:
            return owner._memo[fn][partner][args]
        except KeyError:
            pass
        value = fn(owner, partner, *args)
        owner._memo.setdefault(fn, WeakKeyDictionary()).setdefault(
            partner, {})[args] = value
        return value
    return memo


def _same_group(G, H, what):
    """Raise ValueError, naming both groups, unless G == H; `what` names
    the two things that must share a group."""
    if G != H:
        raise ValueError(f"{what} are over different groups: "
                         f"{G.name} and {H.name}")


class FiniteGroup:
    """A finite group with a validated multiplication table.

    `generators` is the generating set `greedy_generators` chooses from all
    labels, so the trivial group has none.  G-set actions and equivariant
    maps are checked on it (see `GSet` and `GMap`).
    """

    def __init__(self, table, name=None):
        table = tuple(_labels(row, f"table[{a}]")
                      for a, row in enumerate(table))
        n = len(table)
        if n == 0:
            raise ValueError("empty multiplication table")
        for row in table:
            if len(row) != n:
                raise ValueError("multiplication table is not square")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("table entry out of range")
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise ValueError("label 0 is not a two-sided identity")
        for a in range(n):
            for b in range(n):
                tab_ab = table[a][b]
                for c in range(n):
                    if table[tab_ab][c] != table[a][table[b][c]]:
                        raise ValueError(
                            f"table is not associative at ({a},{b},{c})")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0 and table[b][a] == 0:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no two-sided inverse")
        self.order = n
        self.table = table
        self.inverse = tuple(inverse)
        self.name = name or f"group{n}"
        self._memo = {}
        self._hash = hash(table)
        self.generators = self.greedy_generators(range(n))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- subgroup machinery -------------------------------------------------

    def greedy_generators(self, elements):
        """Generators of the subgroup `elements`, chosen greedily.

        A label joins when it is not in the closure of the labels chosen
        before it, so the result is deterministic and the trivial subgroup
        has none.
        """
        gens, span = [], {0}
        for a in elements:
            if a not in span:
                gens.append(a)
                span = set(self.closure(gens))
        return tuple(gens)

    def closure(self, seed):
        """Smallest subgroup containing the seed labels, as a sorted tuple."""
        got = {0}
        frontier = set(seed) | {0}
        got |= frontier
        while frontier:
            new = set()
            for a in got:
                for b in frontier:
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in got:
                            new.add(c)
            for b in frontier:
                c = self.inverse[b]
                if c not in got:
                    new.add(c)
            got |= new
            frontier = new
        return tuple(sorted(got))

    def is_subgroup(self, S) -> bool:
        S = set(S)
        if 0 not in S:
            return False
        return all(self.mul(a, b) in S for a in S for b in S)

    def subgroups(self):
        """All subgroups, sorted by (order, labels).

        Breadth-first closure over subsets seeded by the cyclic subgroups:
        each subgroup found is extended by every element outside it.  That
        is quick to order 24 (0.09 s on S4) but grows fast beyond: 2.6 s
        on A5 and 56.6 s on S5 (156 subgroups), single runs on a shared
        2-core x86-64 host.
        """
        return self._subgroups

    @cached_property
    def _subgroups(self):
        found = {self.closure([g]) for g in range(self.order)}
        frontier = set(found)
        while frontier:
            new = set()
            for H in frontier:
                inside = set(H)
                for g in range(self.order):
                    if g not in inside:
                        S = self.closure(H + (g,))
                        if S not in found:
                            found.add(S)
                            new.add(S)
            frontier = new
        return tuple(sorted(found, key=lambda H: (len(H), H)))

    def conjugate_subgroup(self, g, H):
        row, gi = self.table[g], self.inverse[g]
        return tuple(sorted([self.table[row[h]][gi] for h in H]))

    def normalizer(self, H):
        H = tuple(sorted(H))
        return tuple(g for g in range(self.order)
                     if self.conjugate_subgroup(g, H) == H)

    def subgroup_classes(self):
        """Conjugacy classes of subgroups, ordered by (order, representative)."""
        return self._classes

    @cached_property
    def _classes(self):
        seen = set()
        classes = []
        for H in self.subgroups():
            if H in seen:
                continue
            conjs = tuple(sorted({self.conjugate_subgroup(g, H)
                                  for g in range(self.order)}))
            seen.update(conjs)
            rep = conjs[0]
            norm = self.normalizer(rep)
            classes.append((rep, conjs, norm))
        classes.sort(key=lambda c: (len(c[0]), c[0]))
        labels = _class_labels(self, [c[0] for c in classes])
        return tuple(
            SubgroupClass(representative=rep, conjugates=conjs,
                          normalizer=norm,
                          weyl_order=len(norm) // len(rep),
                          index=i, label=labels[i],
                          generators=self.greedy_generators(rep),
                          normalizer_generators=self.greedy_generators(norm))
            for i, (rep, conjs, norm) in enumerate(classes))

    @cached_property
    def _class_and_transport(self):
        """{H: (class index, transport(H))} for every subgroup H.

        Walking g upward from the identity, H = g^-1 rep g is met first at
        the least g conjugating H onto its class representative rep.
        """
        out = {}
        for cls in self.subgroup_classes():
            for g in range(self.order):
                H = self.conjugate_subgroup(self.inverse[g], cls.representative)
                if H not in out:
                    out[H] = (cls.index, g)
        return out

    def _class_entry(self, H):
        try:
            return self._class_and_transport[H]
        except (KeyError, TypeError):
            pass
        try:
            return self._class_and_transport[tuple(sorted(H))]
        except KeyError:
            raise ValueError(f"{tuple(sorted(H))} is not a subgroup") from None

    def class_index_of(self, H):
        """Index of the conjugacy class containing the subgroup H."""
        return self._class_entry(H)[0]

    def class_by_label(self, label):
        for cls in self.subgroup_classes():
            if cls.label == label:
                return cls
        aliases = {"1": 0, "e": 0}
        if label in aliases:
            return self.subgroup_classes()[aliases[label]]
        if label == "G":
            return self.subgroup_classes()[-1]
        raise ValueError(f"unknown subgroup-class label {label!r} "
                         f"(known: {[c.label for c in self.subgroup_classes()]})")

    def transport(self, H):
        """Smallest g conjugating H onto its class representative."""
        return self._class_entry(H)[1]

    def conj_index(self, g, L):
        """(c, n): conjugation by g out of L in class coordinates.

        c is the class of L and n = transport(gLg^-1) g transport(L)^-1 the
        element of the normalizer of its representative that the Mackey
        functors' conjugation `weyl[c][n]` reads.
        """
        L = tuple(sorted(L))
        n = self.mul(self.mul(self.transport(self.conjugate_subgroup(g, L)), g),
                     self.inverse[self.transport(L)])
        return self.class_index_of(L), n

    @cached_property
    def covering_pairs(self):
        """Covering pairs (A, B) of the full subgroup lattice, A maximal in B."""
        subs = self.subgroups()
        out = []
        for B in subs:
            Bs = set(B)
            inside = [A for A in subs if set(A) < Bs]
            for A in inside:
                As = set(A)
                if not any(As < set(C) and set(C) < Bs for C in inside):
                    out.append((A, B))
        return tuple(out)

    @cached_property
    def canonical_covers(self):
        """One covering pair (Hp, K0) per G-conjugacy class of covering pairs.

        K0 is a class representative and Hp the minimal member of the
        N(K0)-orbit of a maximal subgroup of K0.  A Mackey functor stores
        its restriction and transfer at these pairs only.
        """
        reps = {cls.representative: cls for cls in self.subgroup_classes()}
        seen, out = set(), []
        for (A, B) in self.covering_pairs:
            if B in reps and (A, B) not in seen:
                orbit = {self.conjugate_subgroup(n, A)
                         for n in reps[B].normalizer}
                seen |= {(C, B) for C in orbit}
                out.append((min(orbit), B))
        return tuple(out)

    def maximal_under(self, A, B):
        """Minimal-labelled maximal subgroup of B containing A (A < B)."""
        As = set(A)
        best = None
        for C, D in self.covering_pairs:
            if D == B and As <= set(C):
                if best is None or C < best:
                    best = C
        if best is None:
            raise ValueError("no covering step found")
        return best

    @cached_property
    def relation_plan(self):
        """The group data of the Mackey-algebra relations on a generating set.

        `MackeyFunctor.validate_functoriality` checks these relations, and
        its docstring proves that they imply the full set.  Built once per
        group, so validating many functors repeats no group arithmetic.
        """
        reps = [cls.representative for cls in self.subgroup_classes()]
        conjugation = []
        for (Hp, K0) in self.canonical_covers:
            stab = [n for n in self.subgroup_classes()[
                        self.class_index_of(K0)].normalizer
                    if self.conjugate_subgroup(n, Hp) == Hp]
            conjugation.append(((Hp, K0), tuple(
                (n, self.conj_index(n, Hp))
                for n in self.greedy_generators(stab))))
        transitivity = tuple(
            (A, C, B) for (C, B) in self.covering_pairs if B in reps
            for A in self.subgroups()
            if set(A) < set(C) and self.maximal_under(A, B) != C)
        double_coset = []
        for cls in self.subgroup_classes():
            L = cls.representative
            maximal = [A for (A, B) in self.covering_pairs if B == L]
            seen = set()
            for pair in product(maximal, repeat=2):
                if pair in seen:
                    continue
                orbit = {tuple(self.conjugate_subgroup(n, X) for X in pair)
                         for n in cls.normalizer}
                seen |= orbit
                H, K = min(orbit)
                terms = []
                for x in self._double_coset_reps(
                        self.greedy_generators(H), self._left_cosets_in(L, K)):
                    D = tuple(sorted(set(self.conjugate_subgroup(
                        self.inverse[x], H)) & set(K)))
                    terms.append((self.conjugate_subgroup(x, D), D,
                                  self.conj_index(x, D)))
                double_coset.append((L, H, K, tuple(terms)))
        return RelationPlan(tuple(conjugation), transitivity,
                            tuple(double_coset))

    def _left_cosets_in(self, L, K):
        """(coset_of, firsts) for the left cosets yK inside L.

        coset_of maps each y in L to the index of yK, and firsts lists the
        least label of each coset in increasing order.
        """
        coset_of, firsts = {}, []
        for y in sorted(L):
            if y not in coset_of:
                coset_of.update((self.table[y][k], len(firsts)) for k in K)
                firsts.append(y)
        return coset_of, firsts

    def _double_coset_reps(self, hgens, cosets):
        """Least labels of the double cosets HxK inside L, in order.

        `cosets` is `_left_cosets_in(L, K)`.  The double cosets are the
        orbits of H, given by `hgens`, on those cosets, so each costs its
        number of cosets times the number of generators, not |H| |K|.
        """
        coset_of, firsts = cosets
        rows, seen, reps = self.table, [False] * len(firsts), []
        for c, x in enumerate(firsts):
            if seen[c]:
                continue
            reps.append(x)
            seen[c] = True
            stack = [x]
            while stack:
                y = stack.pop()
                for h in hgens:
                    d = coset_of[rows[h][y]]
                    if not seen[d]:
                        seen[d] = True
                        stack.append(firsts[d])
        return reps

    def double_cosets(self, H, K):
        """Representatives of H\\G/K, each the minimal label in its coset."""
        if not self.is_subgroup(H):
            raise ValueError("H is not a subgroup")
        if not self.is_subgroup(K):
            raise ValueError("K is not a subgroup")
        return self._double_coset_reps(self.greedy_generators(sorted(H)),
                                       self._left_cosets_in(self.elements(), K))

    def double_coset_of(self, g, H, K):
        return tuple(sorted({self.mul(self.mul(h, g), k) for h in H for k in K}))

    def left_cosets(self, H):
        """Cosets gH as sorted tuples, ordered by minimal element."""
        H = tuple(sorted(H))
        seen = [False] * self.order
        cosets = []
        for g in range(self.order):
            if seen[g]:
                continue
            coset = tuple(sorted(self.mul(g, h) for h in H))
            for x in coset:
                seen[x] = True
            cosets.append(coset)
        return cosets


def _element_orders(group, H):
    out = []
    for h in H:
        k, x = 1, h
        while x != 0:
            x = group.mul(x, h)
            k += 1
        out.append(k)
    return out


def _structure_name(group, H):
    n = len(H)
    orders = _element_orders(group, H)
    if n == 1:
        return "e"
    if n in orders:
        return f"C{n}"
    two = orders.count(2)
    abelian = all(group.mul(a, b) == group.mul(b, a) for a in H for b in H)
    if n == 4:
        return "C2xC2"
    if n == 6:
        return "S3"
    if n == 8:
        if abelian:
            return "C2xC2xC2" if two == 7 else "C2xC4"
        return "Q8" if two == 1 else "D4"
    if n == 9:
        return "C3xC3"
    if n == 10:
        return "D5"
    if n == 12:
        if abelian:
            return "C2xC6"
        if two == 7:
            return "D6"
        if two == 3:
            return "A4"
        return "Dic3"
    return f"order{n}"


def _class_labels(group, reps):
    names = [_structure_name(group, rep) for rep in reps]
    labels = []
    for i, name in enumerate(names):
        if names.count(name) == 1:
            labels.append(name)
        else:
            nth = sum(1 for j in range(i) if names[j] == name)
            labels.append(f"{name}.{nth}")
    return labels


# -- construction ------------------------------------------------------------


def group_from_permutations(degree, generators, name=None):
    """Group generated by one-line permutations of range(degree).

    Elements are labelled by the lexicographic order of their one-line
    forms, which puts the identity at label 0.  `degree` must be a
    non-negative integer; a float, string or bool raises ValueError.
    """
    degree, gens = _permutations(degree, generators)
    ident = tuple(range(degree))
    elems = {ident}
    frontier = {ident}
    while frontier:
        new = set()
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    new.add(q)
        frontier = new
    elems = sorted(elems)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[i]] for i in range(degree))] for q in elems]
             for p in elems]
    return FiniteGroup(table, name=name)


def _permutations(degree, generators):
    """(degree, generators) as an int and a tuple of one-line permutations
    of range(degree); raises ValueError on anything else."""
    if (isinstance(degree, bool) or not isinstance(degree, numbers.Integral)
            or degree < 0):
        raise ValueError(f"degree must be a non-negative integer: {degree!r}")
    degree = int(degree)
    gens = []
    for k, g in enumerate(generators):
        g = _labels(g, f"generators[{k}]")
        if sorted(g) != list(range(degree)):
            raise ValueError(f"{g} is not a permutation of {degree} points")
        gens.append(g)
    return degree, tuple(gens)


def cyclic_group_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _quaternion_table():
    # units 1,-1,i,-i,j,-j,k,-k as (symbol, sign), symbol in "1ijk"
    def unpack(x):
        return "1ijk"[x // 2], 1 - 2 * (x % 2)

    def pack(sym, sign):
        return "1ijk".index(sym) * 2 + (0 if sign == 1 else 1)

    rules = {("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
             ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
             ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
             ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
             ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
             ("i", "k"): ("j", -1)}
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            sa, na = unpack(a)
            sb, nb = unpack(b)
            sym, sign = rules[(sa, sb)]
            row.append(pack(sym, sign * na * nb))
        table.append(row)
    return table


_BUILTIN_SPECS = {
    "trivial": lambda: FiniteGroup([[0]], name="trivial"),
    "C2": lambda: FiniteGroup(cyclic_group_table(2), name="C2"),
    "C3": lambda: FiniteGroup(cyclic_group_table(3), name="C3"),
    "C4": lambda: FiniteGroup(cyclic_group_table(4), name="C4"),
    "C6": lambda: FiniteGroup(cyclic_group_table(6), name="C6"),
    "C2xC2": lambda: group_from_permutations(
        4, [(1, 0, 3, 2), (2, 3, 0, 1)], name="C2xC2"),
    "S3": lambda: group_from_permutations(
        3, [(1, 0, 2), (1, 2, 0)], name="S3"),
    "D4": lambda: group_from_permutations(
        4, [(1, 2, 3, 0), (0, 3, 2, 1)], name="D4"),
    "Q8": lambda: FiniteGroup(_quaternion_table(), name="Q8"),
}

BUILTIN_GROUP_NAMES = tuple(_BUILTIN_SPECS)


@lru_cache(maxsize=None)
def builtin_group(name):
    if name not in _BUILTIN_SPECS:
        raise ValueError(f"unknown group {name!r}; "
                         f"built-ins: {', '.join(BUILTIN_GROUP_NAMES)}")
    return _BUILTIN_SPECS[name]()


def load_group(spec):
    """Build a group from a name or a JSON-style description.

    Accepted forms: a built-in name, {"kind": "table", "table": [[...]]},
    or {"kind": "perm", "degree": n, "generators": [[one-line perm], ...]}.
    A description gives one object per (name, table) or (name, degree,
    generators), as a name does, so what a group keeps (its subgroup
    classes and relation plan, and in its memo, see `owned`, its standard
    orbits and Burnside functor) is derived once per spec, for the last
    64 specs described.
    """
    if isinstance(spec, str):
        return builtin_group(spec)
    if isinstance(spec, FiniteGroup):
        return spec
    if not isinstance(spec, dict):
        raise ValueError("group spec must be a name or an object")
    kind, name = spec.get("kind"), spec.get("name")
    if kind not in ("table", "perm"):
        raise ValueError(f"unknown group kind {kind!r}")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"group name must be a string: {name!r}")
    if kind == "table":
        return _spec_group(name, tuple(_labels(row, f"table[{a}]")
                                       for a, row in enumerate(spec["table"])))
    return _spec_group(name, *_permutations(spec["degree"], spec["generators"]))


@lru_cache(maxsize=64)
def _spec_group(name, *data):
    """The group of a described spec whose entries are already ints:
    data is (table,) or (degree, generators)."""
    if len(data) == 1:
        return FiniteGroup(data[0], name=name)
    return group_from_permutations(*data, name=name)
