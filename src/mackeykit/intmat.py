"""Exact integer linear algebra on numpy object-dtype arrays.

All matrices here are 2-D numpy arrays with dtype=object holding Python
ints, so arithmetic never overflows.  Lattices are column spans: the
lattice "spanned by A" means the set {A @ x : x integer vector}.
"""

from __future__ import annotations

import numpy as np


def intmat(rows, ncols=None):
    """Build an object-dtype matrix from nested lists.

    `ncols` disambiguates the empty matrix: intmat([], 3) has shape (0, 3).
    """
    if isinstance(rows, np.ndarray):
        out = rows.astype(object)
        if out.ndim != 2:
            raise ValueError("expected a 2-D array")
        return out
    rows = list(rows)
    if not rows:
        return np.zeros((0, 0 if ncols is None else ncols), dtype=object)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    return _from_lists([list(map(int, r)) for r in rows], len(rows), width)


def _from_lists(rows, m, n):
    """m x n object matrix holding the Python ints of the row lists.

    One slice assignment; with dtype=object numpy stores the ints as they
    are, so entries beyond 64 bits survive.
    """
    out = np.empty((m, n), dtype=object)
    if m:
        out[:] = rows
    return out


def intvec(entries):
    out = np.empty(len(entries), dtype=object)
    out[:] = list(map(int, entries))
    return out


def zeros(m, n):
    return np.zeros((m, n), dtype=object)


def zero_vec(n):
    return np.zeros(n, dtype=object)


def identity(n):
    out = zeros(n, n)
    np.fill_diagonal(out, 1)
    return out


def is_zero(a) -> bool:
    return a.size == 0 or not np.any(a != 0)


def mats_equal(a, b) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


def hstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    return np.concatenate(mats, axis=1)


def vstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    return np.concatenate(mats, axis=0)


def from_cols(cols, nrows):
    """Matrix whose columns are the given 1-D vectors."""
    out = zeros(nrows, len(cols))
    for j, c in enumerate(cols):
        if len(c) != nrows:
            raise ValueError(f"column {j} has length {len(c)}, expected {nrows}")
        out[:, j] = c
    return out


def _column_entries(A):
    """For each column j of A, the pairs (i, A[i, j]) with A[i, j] != 0.

    Rows ascend within each column.  One comparison and one gather over
    the whole matrix; the Python loop runs over the nonzeros only.
    """
    js, is_ = np.nonzero(A.T != 0)
    cols = [[] for _ in range(A.shape[1])]
    for j, i, v in zip(js.tolist(), is_.tolist(), A[is_, js].tolist()):
        cols[j].append((i, v))
    return cols


def sparse_mm(A, B):
    """A @ B exploiting sparsity of A's columns."""
    m, n = A.shape
    n2, k = B.shape
    acols = _column_entries(A)
    Bl = B.tolist()
    out = [[0] * k for _ in range(m)]
    for c in range(k):
        for j in range(n):
            v = Bl[j][c]
            if v:
                for (i, a) in acols[j]:
                    out[i][c] += a * v
    return _from_lists(out, m, k)


def block_diag(mats):
    m = sum(a.shape[0] for a in mats)
    n = sum(a.shape[1] for a in mats)
    out = zeros(m, n)
    i = j = 0
    for a in mats:
        out[i:i + a.shape[0], j:j + a.shape[1]] = a
        i += a.shape[0]
        j += a.shape[1]
    return out


def smith_normal_form(A):
    """Smith normal form with transforms.

    Returns (S, D, T, Sinv, Tinv) with A = S @ D @ T, where S and T are
    unimodular, D is diagonal with nonnegative entries d_1 | d_2 | ...
    The elimination runs on plain Python lists; object-dtype numpy access
    is far too slow for the inner loops.

    An input already in Smith form (nonzeros only at (t, t), nonnegative,
    each dividing the next, so zeros come last) returns
    (I_m, A, I_n, I_m, I_n) without elimination.  That is exactly what the
    elimination would return: at every step the pivot search picks (t, t),
    since d_t is the first nonzero of least size in what remains, and the
    row, column and divisibility passes find nothing to clear, so nothing
    is swapped, added or negated.
    """
    A = intmat(A)
    m, n = A.shape
    D = [list(map(int, r)) for r in A.tolist()]
    diag = [D[t][t] for t in range(min(m, n))]
    if (np.count_nonzero(A) == sum(1 for d in diag if d)
            and all(d >= 0 for d in diag)
            and all(b % a == 0 if a else b == 0
                    for a, b in zip(diag, diag[1:]))):
        return (identity(m), _from_lists(D, m, n), identity(n),
                identity(m), identity(n))
    S = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Sinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # Elementary operations on D, mirrored so A = S @ D @ T stays true.
    def row_add(i, j, k):  # row_i += k * row_j
        Di, Dj = D[i], D[j]
        for c in range(n):
            if Dj[c]:
                Di[c] += k * Dj[c]
        for r in range(m):
            Sr = S[r]
            if Sr[i]:
                Sr[j] -= k * Sr[i]
        Si, Sj = Sinv[i], Sinv[j]
        for c in range(m):
            if Sj[c]:
                Si[c] += k * Sj[c]

    def col_add(j, i, k):  # col_j += k * col_i
        for r in range(m):
            Dr = D[r]
            if Dr[i]:
                Dr[j] += k * Dr[i]
        Ti, Tj = T[i], T[j]
        for c in range(n):
            if Tj[c]:
                Ti[c] -= k * Tj[c]
        for r in range(n):
            Tr = Tinv[r]
            if Tr[i]:
                Tr[j] += k * Tr[i]

    def row_swap(i, j):
        if i == j:
            return
        D[i], D[j] = D[j], D[i]
        Sinv[i], Sinv[j] = Sinv[j], Sinv[i]
        for r in range(m):
            Sr = S[r]
            Sr[i], Sr[j] = Sr[j], Sr[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in range(m):
            Dr = D[r]
            Dr[i], Dr[j] = Dr[j], Dr[i]
        T[i], T[j] = T[j], T[i]
        for r in range(n):
            Tr = Tinv[r]
            Tr[i], Tr[j] = Tr[j], Tr[i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        Sinv[i] = [-x for x in Sinv[i]]
        for r in range(m):
            S[r][i] = -S[r][i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Pick a nonzero pivot of small magnitude; a unit ends the search.
        piv = None
        best = None
        for i in range(t, m):
            Di = D[i]
            for j in range(t, n):
                v = Di[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    if q:
                        row_add(i, t, -q)
                    if D[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    if q:
                        col_add(j, t, -q)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Force divisibility of the remaining block by the pivot.
            if D[t][t] != 1 and D[t][t] != -1:
                stain = None
                dtt = D[t][t]
                for i in range(t + 1, m):
                    Di = D[i]
                    for j in range(t + 1, n):
                        if Di[j] % dtt:
                            stain = i
                            break
                    if stain is not None:
                        break
                if stain is not None:
                    row_add(t, stain, 1)
                    continue
            break
        if D[t][t] < 0:
            row_negate(t)
        t += 1

    return (_from_lists(S, m, m), _from_lists(D, m, n), _from_lists(T, n, n),
            _from_lists(Sinv, m, m), _from_lists(Tinv, n, n))


def snf_diagonal(A):
    """Diagonal of the Smith form as a list of nonnegative ints."""
    _, D, _, _, _ = smith_normal_form(A)
    return [int(D[i, i]) for i in range(min(D.shape))]


def kernel(A):
    """Basis (as columns) of the integer kernel {x : A @ x = 0}."""
    A = intmat(A)
    m, n = A.shape
    _, D, _, _, Tinv = smith_normal_form(A)
    free = [j for j in range(n) if j >= min(m, n) or D[j, j] == 0]
    return Tinv[:, free]


class Solver:
    """Factor a matrix once, then solve A @ x = b for many right sides."""

    def __init__(self, A):
        self.A = intmat(A)
        self.m, self.n = self.A.shape
        _, self.D, _, self.Sinv, self.Tinv = smith_normal_form(self.A)

    def solve(self, b):
        c = self.Sinv @ np.asarray(b, dtype=object)
        y = zero_vec(self.n)
        for i in range(self.m):
            d = self.D[i, i] if i < min(self.m, self.n) else 0
            if d == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % d != 0:
                    return None
                y[i] = c[i] // d
        return self.Tinv @ y


def solve(A, b):
    """One integer solution x of A @ x = b, or None if there is none."""
    return Solver(A).solve(b)


def hermite_normal_form(A):
    """Canonical column basis of the lattice spanned by the columns of A.

    Returns H with colspan(H) = colspan(A), no zero columns, pivots
    strictly descending the rows with positive pivot entries, and entries
    left of each pivot reduced into [0, pivot).  Two matrices span the
    same lattice iff their Hermite forms are equal.
    """
    A = intmat(A)
    m, n = A.shape
    # incremental sparse echelon insertion: pivots[r] holds a column (as a
    # sparse dict) whose minimal nonzero row is r.  Sparse unit columns go
    # in first; they make clean pivots and keep fill-in down.
    cols = [dict(c) for c in _column_entries(A)]
    cols.sort(key=lambda v: (len(v), max((abs(x) for x in v.values()),
                                         default=0)))
    pivots = {}
    for v in cols:
        v = dict(v)
        while v:
            r = min(v)
            p = pivots.get(r)
            if p is None:
                pivots[r] = v
                break
            if abs(v[r]) < abs(p[r]):
                pivots[r], v = v, p
                p = pivots[r]
            q = v[r] // p[r]
            for i, pv in p.items():
                nv = v.get(i, 0) - q * pv
                if nv:
                    v[i] = nv
                else:
                    v.pop(i, None)
    rows = sorted(pivots)
    W = zeros(m, len(rows))
    for j, r in enumerate(rows):
        col = pivots[r]
        sign = -1 if col[r] < 0 else 1
        for i, val in col.items():
            W[i, j] = sign * val
    # canonical reduction: entries of earlier columns at each pivot row
    # land in [0, pivot)
    for j, r in enumerate(rows):
        p = W[r, j]
        for k in range(j):
            q = W[r, k] // p
            if q:
                W[:, k] -= q * W[:, j]
    return W


def lattices_equal(A, B) -> bool:
    return mats_equal(hermite_normal_form(A), hermite_normal_form(B))


def lattice_sum(*mats):
    nrows = mats[0].shape[0]
    return hermite_normal_form(hstack([intmat(m, nrows) for m in mats]))


def hnf_solve(H, v):
    """Coefficients for v in a column-Hermite basis H, or None.

    Forward substitution down the pivot rows; no factorization needed.
    """
    v = np.asarray(v, dtype=object).copy()
    m, k = H.shape
    pivot_rows = []
    for j in range(k):
        r = next(i for i in range(m) if H[i, j] != 0)
        pivot_rows.append(r)
    coeffs = zero_vec(k)
    for j, r in enumerate(pivot_rows):
        if v[r] % H[r, j] != 0:
            return None
        q = v[r] // H[r, j]
        coeffs[j] = q
        if q:
            v -= q * H[:, j]
    if np.any(v != 0):
        return None
    return coeffs


def in_lattice(v, L) -> bool:
    """Is v in the column span of L?"""
    return hnf_solve(hermite_normal_form(L), v) is not None


def preimage_lattice(A, L):
    """Basis of {x : A @ x lies in colspan(L)} as columns.

    L may have zero columns, in which case this is just kernel(A).
    """
    A = intmat(A)
    m, n = A.shape
    L = intmat(L, m)
    if L.shape[1] == 0:
        return hermite_normal_form(kernel(A))
    K = kernel(hstack([A, -L]))
    return hermite_normal_form(K[:n, :])
