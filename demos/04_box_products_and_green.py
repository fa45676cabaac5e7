"""Box products and Green functors.

The box product convolves two Mackey functors against the Burnside hom
of a product and additivizes; its monoids are Green functors, i.e.
levelwise commutative rings with ring-map restrictions and transfers
satisfying Frobenius reciprocity.  All coherence witnesses here are
explicit integer matrices with verified two-sided inverses.
"""

from mackeykit import builtin_group
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.convolution import (
    box,
    box_assoc_iso,
    box_unit_iso,
    burnside_green,
    free_evaluation_iso,
    rep_monoidal_iso,
)
from mackeykit.gsets import product, standard_orbit
from mackeykit.mackey import (
    burnside_mackey,
    fixed_point_mackey,
    representable,
    trivial_module,
)

S3 = builtin_group("S3")
A = burnside_mackey(S3)
Z = FinPresAbGroup.free(1)
FP = fixed_point_mackey(S3, Z, trivial_module(S3, Z))

# the Burnside functor is the unit: A_pt box M = M, witnessed
eps, _ = box_unit_iso(FP)
print("A_pt box FP(Z) = FP(Z): unit isomorphism verified two-sided")

# representables are monoidal: A_X box A_Y = A_{X x Y}
X = standard_orbit(S3, 1)          # S3/C2
Y = standard_orbit(S3, 2)          # S3/C3
fwd, bwd, data = rep_monoidal_iso(X, Y)
P = product(X, Y).gset
print(f"A_[S3/C2] box A_[S3/C3] = A_[{P.size} points]:",
      [lvl.describe() for lvl in fwd.target.levels])

# free-module evaluation: (M box A_X)(Y) = M(X x Y), naturally
fwd2, bwd2, FX, data2 = free_evaluation_iso(FP, X)
print("(FP box A_X)(-) = FP(X x -): natural isomorphism verified")

# the associator, verified two-sided
f, g = box_assoc_iso(A, FP, A)
print("associator (A box FP) box A = A box (FP box A): verified")

# the Burnside Green functor validates every axiom exactly
G = burnside_green(S3)
print("\nBurnside Green functor of S3:")
print("  associativity, commutativity, unit, Frobenius: all exact")
labels = [c.label for c in S3.subgroup_classes()]
top = len(labels) - 1
table = G.tables[top]
print(f"  ring at level {labels[top]} (the Burnside ring of S3):")
for i, row in enumerate(table):
    print(f"    row {i}: {[list(v) for v in row]}")
