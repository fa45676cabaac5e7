"""The Barratt-Priddy-Quillen comparison at K0.

K0 of finite G-sets over each orbit is the free group on transitive
over-classes; restrictions act by pullback, transfers by
postcomposition, multiplication by fiber product.  None of that data is
built from spans, yet the resulting Green functor is the Burnside Green
functor: the comparison matches canonical class codes and verifies every
structure map, unit, and multiplication table exactly.
"""

from mackeykit import builtin_group, bpq_verify, k0_mackey, k0_of_slice
from mackeykit.gsets import point_gset, standard_orbit
from mackeykit.mackey import compose_morphisms, identity_morphism

triv = builtin_group("trivial")
s = k0_of_slice(point_gset(triv))
print(f"K0(finite sets) has rank {s.rank()}: the classical theorem's "
      "degree-zero shadow (pi_0 of the sphere)")

C2 = builtin_group("C2")
M = k0_mackey(C2)
print("\nK0 Mackey functor of C2:", [lvl.describe() for lvl in M.levels])
(A, B), = C2.covering_pairs
print("  restriction matrix:", [list(r) for r in M.res[(A, B)]],
      " transfer matrix:", [list(r) for r in M.tr[(A, B)]])

for name in ("trivial", "C2", "C3", "C4", "C2xC2", "S3", "C6"):
    group = builtin_group(name)
    result = bpq_verify(group)
    iso, inv = result.iso, result.inverse
    assert compose_morphisms(inv, iso).equals(identity_morphism(iso.source))
    assert compose_morphisms(iso, inv).equals(identity_morphism(iso.target))
    print(f"BPQ at K0 verified for {name}: K0(G-sets) = Burnside Green "
          "functor")
