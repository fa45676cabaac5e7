import itertools
import json
import operator
import os
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import (
    hermite_normal_form as sympy_hnf,
    smith_normal_form as sympy_snf,
)

from mackeykit import intmat as im
from mackeykit.abgroups import FinPresAbGroup
from support import dense_smith_oracle, dense_solve_oracle

TOR_SMITH_INPUTS = os.path.join(os.path.dirname(__file__), "data",
                                "tor_smith_inputs.json")


def rand_matrix(rng, m, n, lo=-9, hi=9):
    return im.intmat([[rng.randint(lo, hi) for _ in range(n)]
                      for _ in range(m)], n)


small_matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: im.intmat(rows, n))))

big_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: im.intmat(rows, n))))


def diagonal_matrix(entries, m, n):
    A = im.zeros(m, n)
    for t, d in enumerate(entries):
        A[t, t] = d
    return A


@st.composite
def smith_form_matrices(draw):
    """m x n matrices already in Smith form, entries beyond 2**63 included."""
    steps = draw(st.lists(st.one_of(st.integers(1, 6), st.just(2 ** 64 + 1)),
                          max_size=5))
    chain = list(itertools.accumulate(steps, operator.mul))
    chain += [0] * draw(st.integers(0, 3))
    return diagonal_matrix(chain, len(chain) + draw(st.integers(0, 3)),
                           len(chain) + draw(st.integers(0, 3)))


@st.composite
def diagonal_matrices(draw):
    """Diagonal matrices whose diagonal need not be chained, signed or sorted."""
    entries = draw(st.lists(st.integers(-12, 12), max_size=5))
    return diagonal_matrix(entries, len(entries) + draw(st.integers(0, 2)),
                           len(entries) + draw(st.integers(0, 2)))


oracle_matrices = st.one_of(small_matrices, big_matrices, smith_form_matrices(),
                            diagonal_matrices())

not_smith_diagonals = [
    diagonal_matrix([2, 3], 2, 2),
    diagonal_matrix([3, 2], 2, 2),
    diagonal_matrix([0, 1], 2, 2),
]


def to_sympy(A):
    m, n = A.shape
    return DomainMatrix([[ZZ(int(A[i, j])) for j in range(n)]
                         for i in range(m)], (m, n), ZZ)


def with_examples(test):
    for A in not_smith_diagonals + [im.zeros(3, 0), im.zeros(0, 3),
                                    diagonal_matrix([2 ** 64, 2 ** 65], 2, 3)]:
        test = example(A)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(oracle_matrices)
@with_examples
def test_snf_diagonal_matches_sympy(A):
    D = sympy_snf(to_sympy(A)).to_Matrix()
    expected = [int(D[t, t]) for t in range(min(A.shape))]
    assert im.snf_diagonal(A) == expected


@settings(max_examples=200, deadline=None)
@given(oracle_matrices)
@with_examples
def test_hermite_spans_the_sympy_lattice(A):
    # sympy's column Hermite form is canonical for the lattice, so the two
    # bases span the same lattice iff sympy reduces them to the same matrix
    H = im.hermite_normal_form(A)
    assert H.shape[0] == A.shape[0]
    assert sympy_hnf(to_sympy(H)) == sympy_hnf(to_sympy(A))


def assert_same_smith(A):
    S, D, _T, Sinv, Tinv = dense_smith_oracle(A)
    for X, Y in zip(im.smith_normal_form(A), (S, D, Sinv, Tinv), strict=True):
        assert im.mats_equal(X, Y), (A, X, Y)


def assert_smith_transforms(A, S, D, Sinv, Tinv):
    # S @ D == A @ Tinv with S and Tinv unimodular is A = S @ D @ T; the
    # oracle's T is an inverse of Tinv, so Tinv is unimodular
    m, n = A.shape
    assert im.mats_equal(S @ D, A @ Tinv)
    assert im.mats_equal(S @ Sinv, im.identity(m))
    assert im.mats_equal(dense_smith_oracle(A)[2] @ Tinv, im.identity(n))


@settings(max_examples=200, deadline=None)
@given(oracle_matrices)
@with_examples
def test_sparse_smith_matches_dense_oracle(A):
    assert_same_smith(A)


def load_tor_smith_inputs():
    with open(TOR_SMITH_INPUTS, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for entry in doc["matrices"]:
        A = im.zeros(*entry["shape"])
        for i, j, v in entry["entries"]:
            A[i, j] = v
        out.append(pytest.param(A, id=entry["op"]))
    return out


@pytest.mark.parametrize("A", load_tor_smith_inputs())
def test_sparse_smith_matches_dense_oracle_on_tor_inputs(A):
    # captured from the tor workload: eliminated (not already in Smith
    # form), with an invariant factor above 1
    D = im.smith_normal_form(A)[1]
    assert not im.mats_equal(D, A)
    assert any(D[t, t] > 1 for t in range(min(A.shape)))
    assert_same_smith(A)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
@example(im.intmat([[2, 0], [0, 0]]), random.Random(0))
def test_solver_matches_dense_reference(A, rng):
    m, n = A.shape
    solver = im.Solver(A)
    x = im.intvec([rng.randint(-4, 4) for _ in range(n)])
    b = A @ x if n else im.zero_vec(m)
    got = solver.solve(b)
    assert got is not None and im.mats_equal(got, dense_solve_oracle(A, b))
    # b + e_i is off the lattice for many A; both must then say None
    for i in range(m):
        e = im.zero_vec(m)
        e[i] = 1
        got, want = solver.solve(b + e), dense_solve_oracle(A, b + e)
        assert (got is None) == (want is None)
        if got is not None:
            assert im.mats_equal(got, want)


def test_solver_returns_none_off_the_lattice():
    A = im.intmat([[2, 0], [0, 0], [1, 3]])
    solver = im.Solver(A)
    for b in ([1, 0, 0], [0, 1, 0], [2, 0, 2]):
        assert solver.solve(im.intvec(b)) is None
        assert dense_solve_oracle(A, im.intvec(b)) is None
    assert list(solver.solve(im.intvec([2, 0, 4]))) == [1, 1]
    with pytest.raises(ValueError, match="expected \\(3,\\)"):
        solver.solve(im.intvec([1, 2]))


def column_entries_by_definition(A):
    m, n = A.shape
    return [[(i, A[i, j]) for i in range(m) if A[i, j] != 0]
            for j in range(n)]


@st.composite
def sparse_matrices(draw):
    """Up to 20 x 20, so on both sides of `_SMALL_MATRIX`, with a few
    nonzeros: small, negative or beyond 2**64."""
    m, n = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    A = im.zeros(m, n)
    if m and n:
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                          st.one_of(st.integers(-9, 9),
                                    st.integers(-2 ** 80, 2 ** 80)))
        for i, j, v in draw(st.lists(cells, max_size=40)):
            A[i, j] = v
    return A


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example(im.zeros(0, 400))
@example(im.zeros(400, 0))
@example(diagonal_matrix([-2 ** 64 - 1, 3, 2 ** 70], 10, 15))    # 150 entries
@example(diagonal_matrix([-2 ** 64 - 1, 3, 2 ** 70], 11, 14))    # 154 entries
@example(im.intmat([[-(2 ** 65)] * 13] * 12))
def test_column_entries_read_the_nonzeros_column_by_column(A):
    got = im._column_entries(A)
    assert got == column_entries_by_definition(A)
    assert all(type(v) is int for col in got for _, v in col)


def seeded_matrices():
    """Random dense and sparse matrices, square and not, and inputs already
    in Smith form, whose factors are identities."""
    rng = random.Random(47)
    out = [rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
           for _ in range(30)]
    out += [im.intmat([[rng.choice([0] * 9 + [1, -2, 3]) for _ in range(n)]
                       for _ in range(m)]) for m, n in ((13, 12), (9, 17))]
    out += [diagonal_matrix([1, 2, 6, 0], 4, 6), diagonal_matrix([3], 3, 1),
            diagonal_matrix([2 ** 64, 2 ** 65], 2, 2), im.zeros(2, 3),
            im.zeros(0, 2), im.zeros(3, 0)]
    return [pytest.param(A, id=f"{i}-{A.shape[0]}x{A.shape[1]}")
            for i, A in enumerate(out)]


@pytest.mark.parametrize("A", seeded_matrices())
def test_sparse_readers_agree_with_the_dense_factors(A):
    m, n = A.shape
    assert_same_smith(A)    # the dense view is the dense oracle's factors
    _, D, _, Tinv = im.smith_normal_form(A)
    diag = [D[t, t] for t in range(min(m, n))]
    sympy_D = sympy_snf(to_sympy(A)).to_Matrix()
    got = im.snf_diagonal(A)
    assert got == diag == [int(sympy_D[t, t]) for t in range(min(m, n))]
    assert all(type(d) is int for d in got)
    free = [j for j in range(n) if j >= m or D[j, j] == 0]
    assert im.mats_equal(im.kernel(A), Tinv[:, free])
    rng = random.Random(m * 100 + n)
    solver = im.Solver(A)
    b = A @ im.intvec([rng.randint(-4, 4) for _ in range(n)]) if n \
        else im.zero_vec(m)
    for k in range(-1, m):
        rhs = b.copy()
        if k >= 0:
            rhs[k] += 1
        got, want = solver.solve(rhs), dense_solve_oracle(A, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            assert im.mats_equal(got, want) and im.mats_equal(A @ got, rhs)


HERMITE = im.intmat([[2, 0], [0, 3], [5, 1]])


@pytest.mark.parametrize("H0", [HERMITE, im.intmat([[2, 0], [2, 3], [5, 1]]),
                                im.zeros(2, 0)])
def test_hermite_input_comes_back_as_a_copy(H0):
    H = im.hermite_normal_form(H0)
    assert im.mats_equal(H, H0)
    assert H is not H0 and not np.shares_memory(H, H0)
    assert sympy_hnf(to_sympy(H)) == sympy_hnf(to_sympy(H0))


@pytest.mark.parametrize("B", [
    im.hstack([HERMITE, im.zeros(3, 1)]),               # a zero column
    HERMITE[:, ::-1].copy(),                            # pivots not ascending
    HERMITE * im.intmat([[1, -1]]),                     # a negative pivot
    HERMITE + im.hstack([HERMITE[:, 1:], im.zeros(3, 1)]),  # 3 not in [0, 3)
], ids=["zero-column", "pivot-order", "negative-pivot", "unreduced"])
def test_hermite_input_breaking_one_condition_is_eliminated(B):
    assert not im._in_hermite_form(im._column_entries(B))
    H = im.hermite_normal_form(B)
    assert im.mats_equal(H, HERMITE)
    assert sympy_hnf(to_sympy(H)) == sympy_hnf(to_sympy(B))


@settings(max_examples=120, deadline=None)
@given(smith_form_matrices())
@example(im.zeros(717, 0))
@example(im.zeros(0, 4))
@example(diagonal_matrix([1, 1, 0], 3, 3))
def test_smith_form_input_returns_identity_transforms(A):
    m, n = A.shape
    S, D, Sinv, Tinv = im.smith_normal_form(A)
    assert im.mats_equal(D, A) and D is not A
    for X, k in ((S, m), (Sinv, m), (Tinv, n)):
        assert im.mats_equal(X, im.identity(k))


@pytest.mark.parametrize("A,chain", zip(not_smith_diagonals,
                                         [[1, 6], [1, 6], [1, 0]]))
def test_diagonal_input_not_in_smith_form_is_eliminated(A, chain):
    S, D, Sinv, Tinv = im.smith_normal_form(A)
    assert im.mats_equal(D, diagonal_matrix(chain, 2, 2))
    assert_smith_transforms(A, S, D, Sinv, Tinv)


def test_from_cols_rejects_column_of_wrong_length():
    with pytest.raises(ValueError, match="column 1 has length 1, expected 3"):
        im.from_cols([im.intvec([1, 2, 3]), im.intvec([1])], 3)
    assert im.mats_equal(im.from_cols([im.intvec([1, 2])], 2),
                         im.intmat([[1], [2]]))


def test_intmat_coerces_and_rejects_ragged_rows():
    A = im.intmat([[np.int64(3), 1], [2 ** 70, -1]])
    assert [type(x) for x in A.ravel()] == [int] * 4
    assert A[1, 0] == 2 ** 70 and A[0, 1] == 1
    assert im.mats_equal(im.intmat(np.array([[3, 1], [0, -1]], dtype=np.int8)),
                         im.intmat([[3, 1], [0, -1]]))
    assert im.intmat([], 3).shape == (0, 3)
    assert im.intmat([[], []]).shape == (2, 0)
    with pytest.raises(ValueError, match="ragged rows"):
        im.intmat([[1, 2], [3]])
    v = im.intvec([np.int64(4), 2 ** 70])
    assert [type(x) for x in v] == [int, int] and v[1] == 2 ** 70


@pytest.mark.parametrize("rows,entry", [
    (np.array([[1.5, 2.0], [0.0, 3.0]]), "[0][0] is not an integer: 1.5"),
    (np.array([[1.0, 2.0]]), "[0][0] is not an integer: 1.0"),
    (np.array([[1, 0], [0, 1]], dtype=bool), "[0][0] is not an integer: True"),
    (np.array([["1", "2"]]), "[0][0] is not an integer: '1'"),
    ([[1.7, 2]], "[0][0] is not an integer: 1.7"),
    ([[1, 2], [3, True]], "[1][1] is not an integer: True"),
    ([[1, np.float64(2.0)]], "[0][1] is not an integer: np.float64(2.0)"),
], ids=["float-array", "integral-float-array", "bool-array", "str-array",
        "float-list", "bool-list", "numpy-float"])
def test_intmat_refuses_entries_that_are_not_integers(rows, entry):
    # int() once truncated 1.7 to 1, and a float array kept its floats,
    # which the Hermite and Smith forms then divided and truncated
    with pytest.raises(ValueError, match=re.escape("matrix" + entry)):
        im.intmat(rows)
    if isinstance(rows, np.ndarray):
        for f in (im.hermite_normal_form, im.smith_normal_form):
            with pytest.raises(ValueError, match=re.escape(entry)):
                f(rows)


@pytest.mark.parametrize("build,entry", [
    (lambda: im.intmat([1, 2]), "matrix[0] is not a row: 1"),
    (lambda: im.intmat([[1, 2], 3]), "matrix[1] is not a row: 3"),
    (lambda: FinPresAbGroup(2, [1, 2]), "relations[0] is not a row: 1"),
], ids=["flat-list", "one-flat-row", "relations"])
def test_a_flat_list_is_not_a_matrix(build, entry):
    # len() of an int once raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(entry)}$"):
        build()


def test_intvec_refuses_entries_that_are_not_integers():
    for v, entry in (([1, 2.5], "[1] is not an integer: 2.5"),
                     ([True], "[0] is not an integer: True"),
                     (np.array([0.5]), "[0] is not an integer: 0.5")):
        with pytest.raises(ValueError, match=re.escape("vector" + entry)):
            im.intvec(v)


def test_object_arrays_pass_as_given():
    # the library's own representation is copied, not checked entry by entry
    A = im.intmat([[1, 2], [3, 4]])
    B = im.intmat(A)
    assert im.mats_equal(A, B) and B is not A
    v = im.intvec([1, 2 ** 70])
    w = im.intvec(v)
    assert im.mats_equal(v, w) and w is not v


@settings(max_examples=120, deadline=None)
@given(small_matrices, st.integers(0, 4), st.randoms(use_true_random=False))
def test_sparse_mm_matches_dense_product(A, k, rng):
    B = rand_matrix(rng, A.shape[1], k)
    assert im.mats_equal(im.sparse_mm(A, B), A @ B)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_smith_form_properties(A):
    m, n = A.shape
    S, D, Sinv, Tinv = im.smith_normal_form(A)
    assert_smith_transforms(A, S, D, Sinv, Tinv)
    diag = [D[i, i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal must vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i, j] == 0


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_kernel_and_solve(A):
    m, n = A.shape
    K = im.kernel(A)
    assert im.is_zero(A @ K)
    rng = random.Random(0)
    if n:
        x = im.intvec([rng.randint(-4, 4) for _ in range(n)])
        s = im.solve(A, A @ x)
        assert s is not None
        assert im.is_zero(A @ s - A @ x)


def test_solve_no_solution():
    A = im.intmat([[2]])
    assert im.solve(A, im.intvec([1])) is None
    assert im.solve(A, im.intvec([4]))[0] == 2


@pytest.mark.parametrize("b,entry", [
    ([4.0], "[0] is not an integer: 4.0"),
    (np.array([4.0]), "[0] is not an integer: 4.0"),
    ([True], "[0] is not an integer: True"),
    (np.array([True]), "[0] is not an integer: True"),
    (["4"], "[0] is not an integer: '4'"),
], ids=["float", "float-array", "bool", "bool-array", "str"])
def test_exact_solvers_refuse_right_hand_sides_that_are_not_integers(b, entry):
    # a float came back as a float solution, a bool was read as 0 or 1 and
    # a string raised a bare TypeError
    A = im.intmat([[2]])
    for solve in (lambda: im.solve(A, b), lambda: im.Solver(A).solve(b),
                  lambda: im.hnf_solve(A, b), lambda: im.in_lattice(b, A)):
        with pytest.raises(ValueError, match=re.escape("vector" + entry)):
            solve()
    four = im.intvec([4])
    assert list(im.solve(A, four)) == [2] and list(im.hnf_solve(A, four)) == [2]
    assert list(im.solve(A, np.array([4]))) == [2]


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_hermite_canonical(A):
    H = im.hermite_normal_form(A)
    # idempotent and span-preserving
    assert im.mats_equal(im.hermite_normal_form(H), H)
    for j in range(A.shape[1]):
        assert im.is_zero(A[:, j]) or im.in_lattice(A[:, j], H)
    for j in range(H.shape[1]):
        assert im.in_lattice(H[:, j], A)


def sparse_columns(A):
    """The columns of A as {row: value} dicts without zeros."""
    return [{i: v for i, v in enumerate(A[:, j]) if v}
            for j in range(A.shape[1])]


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
@example(im.zeros(4, 0), random.Random(0))
@example(im.zeros(0, 3), random.Random(0))
def test_hermite_of_columns_matches_the_dense_form(A, rng):
    # any order of the columns and of their entries, columns repeated,
    # negated and added, and zero columns: the same lattice, so the same form
    m, n = A.shape
    H = im.hermite_normal_form(A)
    cols = sparse_columns(A)
    moved = cols + [{i: -v for i, v in c.items()} for c in cols
                    if rng.random() < 0.5]
    moved += [rng.choice(cols) for _ in range(rng.randint(0, n))]
    for a, b in [(rng.choice(cols), rng.choice(cols)) for _ in range(n and 2)]:
        total = {i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()}
        moved.append({i: v for i, v in total.items() if v})
    moved += [{}] * rng.randint(0, 2)
    rng.shuffle(moved)
    items = []
    for c in moved:
        pairs = list(c.items())
        rng.shuffle(pairs)
        items.append(pairs)
    got = im.hermite_normal_form_of_columns(items, m)
    assert got.shape == H.shape and im.mats_equal(got, H)
    assert sympy_hnf(to_sympy(got)) == sympy_hnf(to_sympy(A))
    # a matrix already in Hermite form comes back unchanged, from its
    # columns in any order
    cols = sparse_columns(H)
    rng.shuffle(cols)
    assert im.mats_equal(im.hermite_normal_form_of_columns(
        [c.items() for c in cols], m), H)


def test_hermite_canonical_under_column_moves():
    rng = random.Random(5)
    for _ in range(60):
        A = rand_matrix(rng, rng.randint(1, 5), rng.randint(2, 5))
        H = im.hermite_normal_form(A)
        B = A.copy()
        B[:, 0] = B[:, 0] + rng.randint(-3, 3) * B[:, 1]
        perm = list(range(B.shape[1]))
        rng.shuffle(perm)
        assert im.mats_equal(im.hermite_normal_form(B[:, perm]), H)


def test_preimage_lattice_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        A = rand_matrix(rng, 2, 3, -3, 3)
        L = rand_matrix(rng, 2, 2, -3, 3)
        P = im.preimage_lattice(A, L)
        # oracle: exhaustive small box
        for x0 in range(-2, 3):
            for x1 in range(-2, 3):
                for x2 in range(-2, 3):
                    v = im.intvec([x0, x1, x2])
                    inside = im.in_lattice(A @ v, L)
                    assert inside == im.in_lattice(v, P), (A, L, v)


def test_lattice_sum_and_membership():
    A = im.intmat([[2, 0], [0, 0]])
    B = im.intmat([[0, 0], [3, 0]])
    S = im.lattice_sum(A, B)
    assert im.in_lattice(im.intvec([2, 3]), S)
    assert not im.in_lattice(im.intvec([1, 0]), S)
    assert im.lattices_equal(S, im.intmat([[2, 0], [0, 3]]))


def test_big_integers_survive():
    big = 10 ** 40
    A = im.intmat([[big, 1], [0, big]])
    S, D, Sinv, Tinv = im.smith_normal_form(A)
    assert_smith_transforms(A, S, D, Sinv, Tinv)
    assert D[0, 0] * D[1, 1] == big * big
