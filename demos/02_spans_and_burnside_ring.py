"""The span category: composition by pullback, duality, and the marks.

Morphisms between G-sets are integer combinations of spans X <- U -> Y;
composing two spans pulls their middles back over the shared foot.  The
endomorphisms of the point recover the Burnside ring, and the table of
marks embeds it into a product of copies of Z.
"""

from mackeykit import builtin_group, compose, dual, hom_basis
from mackeykit.burnside import (
    basis_element,
    burnside_ring_table,
    identity_element,
    restriction_element,
    table_of_marks,
    transfer_element,
    triangle_composite,
)
from mackeykit.gsets import GMap, point_gset, standard_orbit

C2 = builtin_group("C2")
pt = point_gset(C2)
O = standard_orbit(C2, 0)          # the free orbit C2/e

print("hom basis of A(C2/e, C2/e):", hom_basis(O, O))
print("   (identity span and the translation span)")

# the Mackey relation res . tr = id + translation, found by the pullback
f = GMap(O, pt, [0, 0])
composite = compose(restriction_element(f), transfer_element(f))
print("\nres . tr on C2/e decomposes as:", dict(composite.coeffs))

# duality: every orbit is self-dual and the triangle identity is exact
for cls in C2.subgroup_classes():
    X = standard_orbit(C2, cls.index)
    ok = triangle_composite(X) == identity_element(X)
    print(f"triangle identity on C2/{cls.label}: {'exact' if ok else 'FAILS'}")

# the table of marks and the Burnside ring
print("\ntable of marks of C2:", table_of_marks(C2))
table = burnside_ring_table(C2)
print("Burnside ring of C2 on the orbit basis ([C2/e], [C2/C2]):")
print("  [C2/e]^2      =", table[0][0], " (two free orbits)")
print("  [C2/e][C2/C2] =", table[0][1])

# S3: composites through the point expand over double cosets
S3 = builtin_group("S3")
OC2 = standard_orbit(S3, 1)
fS = GMap(OC2, point_gset(S3), [0] * 3)
comp = compose(restriction_element(fS), transfer_element(fS))
print(f"\nS3: res.tr on S3/C2 has {len(comp.coeffs)} summands "
      "(= |C2\\S3/C2|)")

# dual is a contravariant involution
s = basis_element(O, pt, hom_basis(O, pt)[0])
print("\ndual of the transfer span is the restriction span:",
      dual(s) == restriction_element(f))
