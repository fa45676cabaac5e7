"""Mackey functors: exact levels, span evaluation, Yoneda, fixed points.

A Mackey functor stores one finitely presented abelian group per
subgroup class plus restriction/transfer/conjugation data; arbitrary
spans evaluate by factoring through those generators, and the double
coset formula is a theorem of the representation (enforced by an
exhaustive check of the Mackey-algebra relations, never assumed).
"""

from mackeykit import builtin_group, hom_mackey
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.burnside import compose, restriction_element, transfer_element
from mackeykit.gsets import GMap, point_gset, standard_orbit
from mackeykit.mackey import (
    burnside_mackey,
    cokernel,
    fixed_point_mackey,
    kernel,
    MackeyMorphism,
    regular_module,
    representable,
    trivial_module,
)
from mackeykit import intmat as im

C2 = builtin_group("C2")

# the Burnside Mackey functor is the representable at the point
A = burnside_mackey(C2)
print("Burnside Mackey functor of C2:",
      [lvl.describe() for lvl in A.levels])

report = A.validate_functoriality()
print("Mackey-algebra relations, every cell checked:", report)

# fixed points of an integer representation form a Mackey functor
V, act = regular_module(C2)                    # Z[C2]
FP = fixed_point_mackey(C2, V, act)
print("\nfixed points of Z[C2]:", [lvl.describe() for lvl in FP.levels],
      " transfer is the norm map")

# Yoneda: hom(A_pt, M) = M(pt)
hg = hom_mackey(A, FP)
print("hom(A_pt, FP(Z[C2])) =", hg.group.describe(), "= FP at the point")

# kernels and cokernels are levelwise with induced structure maps
Z = FinPresAbGroup.free(1)
FPZ = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
two = MackeyMorphism(FPZ, FPZ, [im.intmat([[2]])] * 2)
K, _ = kernel(two)
Q, _ = cokernel(two)
print("\nmultiplication by 2 on FP(Z):")
print("  kernel levels:  ", [lvl.describe() for lvl in K.levels])
print("  cokernel levels:", [lvl.describe() for lvl in Q.levels])

# evaluation realizes the double coset formula
pt = point_gset(C2)
O = standard_orbit(C2, 0)
f = GMap(O, pt, [0, 0])
res, tr = restriction_element(f), transfer_element(f)
lhs = A.eval_span(res) @ A.eval_span(tr)
rhs = A.eval_span(compose(res, tr))
print("\neval(res).eval(tr) == eval(res.tr):",
      bool((lhs == rhs).all()))
