"""Memory guards, measured with the standard library's `tracemalloc`.

Dense object arrays cost 8 bytes per entry, so an n x n matrix that no
code reads shows up here long before it shows up as a wrong answer.
"""

import gc
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.burnside import (
    _identity_codes,
    basis_element,
    compose,
    hom_basis,
    identity_element,
    triangle_composite,
)
from mackeykit.convolution import box_unit_iso, burnside_green
from mackeykit.groups import FiniteGroup, builtin_group
from mackeykit.gsets import (
    GSet,
    disjoint_union_of_orbits,
    point_gset,
    product,
    standard_orbit,
)
from mackeykit.homalg import canonical_module, tor
from mackeykit.mackey import (
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    fixed_point_mackey,
    trivial_module,
)
from support import reaches

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_relator_free_group_traces_linear_in_its_rank():
    tracemalloc.start()
    try:
        G = FinPresAbGroup.free(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.invariant_factors == (0,) * 20_000
    # two dense 20,000 x 20,000 object identities would take about 6 GiB
    assert peak < 2 ** 20


TOR0 = """
import tracemalloc

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.convolution import burnside_green
from mackeykit.groups import builtin_group
from mackeykit.homalg import canonical_module, tor
from mackeykit.mackey import (MackeyMorphism, cokernel, fixed_point_mackey,
                              trivial_module)

tracemalloc.start()
group = builtin_group("C4")
R = burnside_green(group, check=False)
Z = FinPresAbGroup.free(1)
FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
Q = cokernel(MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels)))[0]
result = tor(R, canonical_module(R, R.underlying), canonical_module(R, Q), 0)
result.tor0_witness.inverse()
print(*tracemalloc.get_traced_memory())
print([list(level.invariant_factors) for level in result.tor[0].levels])
"""

# Traced memory of TOR0 in a fresh interpreter (caches cold), measured on
# x86-64 CPython 3.11.  Peak 0.200 MiB; held at the end, with the result
# and the caches, 0.193 MiB.  With a stored level sum per orbit-class
# sequence read and a dense diagonal pairing over all of X x G/H they were
# 0.211 and 0.204 MiB.  With free modules presented as sums of R box
# A_{G/H} they were 43.5 and 23.5 MiB (the peak set by the dense outputs
# of one Smith form), and 62.5 and 40.6 MiB before that, with zero
# structure matrices in layout-only boxes and dense identities in
# relator-free groups.
TOR0_PEAK_MIB = 0.20
TOR0_HELD_MIB = 0.19


def _traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    traced, result = out.splitlines()
    held, peak = map(int, traced.split())
    return held, peak, result


def test_fresh_c4_tor0_stays_under_its_traced_memory_bounds():
    held, peak, factors = _traced(TOR0)
    assert factors == "[[2], [2], [2]]"
    assert peak < 1.5 * TOR0_PEAK_MIB * 2 ** 20
    assert held < 1.5 * TOR0_HELD_MIB * 2 ** 20


RESOLUTION = """
import tracemalloc

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from mackeykit.convolution import burnside_green
from mackeykit.groups import builtin_group
from mackeykit.homalg import canonical_module, module_resolution
from mackeykit.mackey import (MackeyMorphism, cokernel, fixed_point_mackey,
                              trivial_module)

tracemalloc.start()
group = builtin_group("C2xC2")
R = burnside_green(group, check=False)
Z = FinPresAbGroup.free(1)
FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
Q = cokernel(MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels)))[0]
res = module_resolution(R, canonical_module(R, Q), 2)
print(*tracemalloc.get_traced_memory())
print([F.base.size for F in res.modules])
"""

# Traced memory of RESOLUTION in a fresh interpreter, measured on x86-64
# CPython 3.11.  Peak 0.701 MiB; held at the end 0.558 MiB, with ranks
# [1, 4, 17] (0.726 and 0.568 MiB with a stored level sum per orbit-class
# sequence read).  Before covers dropped the summands the others generate,
# the ranks were [11, 42, 87], the peak 3.33 MiB and the held 2.34 MiB.  When
# each cover built the dense matrices of res along X x G/H -> X and tr
# along X x G/H -> G/H for every class G/H, only to apply them to one
# vector and a few columns, the peak was 22.7 MiB (held 2.3 MiB).
RESOLUTION_PEAK_MIB = 0.70
RESOLUTION_HELD_MIB = 0.56


def test_fresh_c2xc2_resolution_stays_under_its_traced_memory_bounds():
    held, peak, ranks = _traced(RESOLUTION)
    assert ranks == "[1, 4, 17]"
    assert peak < 1.5 * RESOLUTION_PEAK_MIB * 2 ** 20
    assert held < 1.5 * RESOLUTION_HELD_MIB * 2 ** 20


# Unions of standard orbits a fresh D4 keeps memoized, for as long as the
# group lives, after Tor_0..1 of (FP(Z), FP(Z)/2) and its Tor_0 witness:
# the covers' bases and the canonical forms of the products the complex
# and the witness read.  With a support G-set built per block of each
# differential, for the Yoneda formula to be read on, there were 66.
TOR_UNIONS = 35


def test_d4_tor_leaves_no_support_unions_in_the_group_memo():
    group = FiniteGroup(builtin_group("D4").table, name="D4")
    R = burnside_green(group, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    two = MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels))
    result = tor(R, canonical_module(R, FP),
                 canonical_module(R, cokernel(two)[0]), 1)
    result.tor0_witness.inverse()   # raises unless an isomorphism
    assert [list(level.invariant_factors) for level in result.tor[1].levels] \
        == [[], [2], [2], [2], [2, 2, 2], [2, 2, 2], [2, 2], [2, 2, 2, 2, 2]]
    unions = group._memo[disjoint_union_of_orbits.__wrapped__]
    assert len(unions) == TOR_UNIONS


def test_identity_element_is_fresh_on_every_call():
    # the codes are derived once per G-set and copied into each element
    # behind a read-only mapping: no edit through one element reaches
    # `_identity_codes` or the next `identity_element`, not even an edit
    # of the dict that element's mapping wraps
    X = standard_orbit(builtin_group("S3"), 1)
    first = identity_element(X)
    want = dict(first.coeffs)
    code = next(iter(want))
    with pytest.raises(TypeError):
        first.coeffs[code] = 7
    with pytest.raises(TypeError):
        del first.coeffs[code]
    assert not hasattr(first.coeffs, "clear")
    assert not hasattr(first.coeffs, "update")
    (inner,) = gc.get_referents(first.coeffs)
    assert inner == want and inner is not _identity_codes(X)
    inner.clear()
    inner[code] = 7
    assert first.coeffs == {code: 7}
    assert identity_element(X).coeffs == want == _identity_codes(X)


def test_least_point_tables_and_identity_codes_do_not_pin_gsets():
    # a fresh group object, and X built from its action table, not by one
    # of the group's memoized constructors: the S-orbit tables of X and
    # its identity codes live on X, and the tables of the group-owned
    # orbit are keyed by subgroups only, so nothing the group keeps
    # reaches X
    group = FiniteGroup(builtin_group("S3").table, name="S3")
    O = standard_orbit(group, 1)
    X = GSet(group, [row + tuple(O.size + y for y in row) for row in O.action])
    into, out = hom_basis(O, X), hom_basis(X, O)
    assert into and out
    for c1 in into:
        for c2 in out:
            compose(basis_element(X, O, c2), basis_element(O, X, c1))
    assert len(identity_element(X).coeffs) == 2
    assert X._memo and O._memo
    assert not reaches(group._memo, X)
    ref = weakref.ref(X)
    del X
    gc.collect()
    assert ref() is None


# The partner-release case of each `groups.paired` memo in src, by module
# and function: `test_hygiene.py` checks that every paired memo has one.
PARTNER_RELEASES = {
    ("burnside.py", "_hom_codes"):
        "test_least_point_tables_and_identity_codes_do_not_pin_gsets",
    ("gsets.py", "_product"): "test_products_let_their_right_factor_go",
    ("convolution.py", "box"): "test_box_unit_iso_lets_its_functor_go",
}


def _two_orbits(group, c):
    """A fresh G-set of two copies of the class-c orbit, built from rows,
    so no memo of the group made it."""
    O = standard_orbit(group, c)
    return GSet(group, [row + tuple(O.size + y for y in row)
                        for row in O.action])


def _collected(ref):
    gc.collect()
    return ref() is None


def test_products_let_their_right_factor_go():
    # the point is owned by the group, so pt x X is kept as long as the
    # group, keyed weakly by X
    S3 = builtin_group("S3")
    X = _two_orbits(S3, 1)
    P = product(point_gset(S3), X)
    assert P.right.target is X and P.gset == X
    ref = weakref.ref(X)
    del X, P
    assert _collected(ref)


def test_triangle_composite_lets_its_gset_go():
    # the triangle multiplies Y on the right of the point and of the
    # canonical Y x Y, both owned by the group
    S3 = builtin_group("S3")
    Y = _two_orbits(S3, 2)
    assert triangle_composite(Y) == identity_element(Y)
    ref = weakref.ref(Y)
    del Y
    assert _collected(ref)


def test_products_with_equal_right_factors_share_their_memo():
    # Y2 equals Y but is another object: the union and the left leg are
    # read from Y's entry, and the right leg lands on Y2
    S3 = builtin_group("S3")
    X, Y, Y2 = _two_orbits(S3, 1), _two_orbits(S3, 0), _two_orbits(S3, 0)
    P, P2 = product(X, Y), product(X, Y2)
    assert Y == Y2 and Y is not Y2
    assert P2.gset is P.gset and P2.left is P.left
    assert P.right.target is Y and P2.right.target is Y2
    assert P2.right.mapping == P.right.mapping


def test_box_unit_iso_lets_its_functor_go():
    # A_pt box M is kept on A_pt, which the group owns, keyed weakly by M
    group = builtin_group("S3")
    Z = FinPresAbGroup.free(1)
    M = fixed_point_mackey(group, Z, trivial_module(group, Z))
    eps, data = box_unit_iso(M)
    assert eps.target is M and data.left is burnside_mackey(group)
    ref = weakref.ref(M)
    del M, eps, data
    assert _collected(ref)


def test_c4_tor0_witness_lets_the_right_module_go():
    # with R = A on the left, the witness presents A box N, kept on A
    group = builtin_group("C4")
    R = burnside_green(group, check=False)
    Z = FinPresAbGroup.free(1)
    FP = fixed_point_mackey(group, Z, trivial_module(group, Z))
    Q = cokernel(MackeyMorphism(FP, FP, [im.intmat([[2]])] * len(FP.levels)))[0]
    N = canonical_module(R, Q)
    result = tor(R, canonical_module(R, R.underlying), N, 0)
    result.tor0_witness.inverse()   # raises unless an isomorphism
    refs = [weakref.ref(N), weakref.ref(Q)]
    del FP, Q, N, result
    assert all(map(_collected, refs))
