"""Homological algebra over the Burnside Green functor.

Free modules R^X, deterministic irredundant free covers, Tor as the
homology of M box_R F for a free resolution F, whose terms are M(X_p x -)
because M box_R R(X x -) = M(X x -), and the spectral sequence of the
skeletal filtration with E_2 = Tor.
"""

from mackeykit import builtin_group
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.convolution import burnside_green
from mackeykit.gsets import standard_orbit
from mackeykit.homalg import (
    canonical_module,
    free_module,
    homology_filtration_graded,
    module_resolution,
    skeletal_filtration,
    ss_pages,
    tor,
)
from mackeykit.mackey import (
    MackeyMorphism,
    cokernel,
    fixed_point_mackey,
    trivial_module,
)
from mackeykit import intmat as im

C2 = builtin_group("C2")
R = burnside_green(C2, check=False)

Z = FinPresAbGroup.free(1)
FP = fixed_point_mackey(C2, Z, trivial_module(C2, Z))
two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * 2)
Q = cokernel(two)[0]                       # FP(Z)/2

FPm = canonical_module(R, FP)
Qm = canonical_module(R, Q)

# a deterministic free resolution of FP(Z)/2
res = module_resolution(R, Qm, 3)
print("free resolution of FP(Z)/2 over the Burnside Green functor:")
for p, F in enumerate(res.modules):
    print(f"  F_{p}:", [lvl.describe() for lvl in F.underlying.levels])

# Tor groups, with the Tor_0 = relative box witness
result = tor(R, FPm, Qm, 2)
print("\nTor_p(FP(Z), FP(Z)/2):")
for p, T in enumerate(result.tor):
    print(f"  Tor_{p}:", [lvl.describe() for lvl in T.levels])
result.tor0_witness.inverse()
print("Tor_0 = FP box_R FP/2, exact two-sided witness")

# Tor vanishes on free modules
F = free_module(R, standard_orbit(C2, 0))
vanish = tor(R, FPm, F, 3)
print("\nTor_p(FP, R^{C2/e}) for p = 1..3:",
      [[lvl.describe() for lvl in vanish.tor[p].levels] for p in (1, 2, 3)])

# the skeletal filtration spectral sequence collapses onto Tor at E_2
filt = skeletal_filtration(result.complex)
pages = ss_pages(filt, 4)
E2 = pages[1]
print("\nskeletal spectral sequence, E_2 row q = 0:")
for p in range(3):
    E = E2.entry(p, 0)
    print(f"  E_2^{{{p},0}}:", [lvl.describe() for lvl in E.levels] if E
          else "0")
print("matches Tor:", all(
    (E2.entry(p, 0) is None) or
    [l.invariant_factors for l in E2.entry(p, 0).levels]
    == [l.invariant_factors for l in result.tor[p].levels]
    for p in range(3)))

graded = homology_filtration_graded(filt, 0)
print("E_infinity at total degree 0 equals the graded homology:",
      [(p, [l.describe() for l in piece.levels]) for p, piece in graded.items()
       if any(not l.is_trivial() for l in piece.levels)])
