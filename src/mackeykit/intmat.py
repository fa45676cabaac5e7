"""Exact integer linear algebra on numpy object-dtype arrays.

All matrices taken and returned here are 2-D numpy arrays with
dtype=object holding Python ints, so arithmetic never overflows.
Lattices are column spans: the lattice "spanned by A" means the set
{A @ x : x integer vector}.

The hot kernels work on sparse rows, {column: value} dicts, and touch
numpy only to read their input, through `_column_entries`, and write
their output.  `_smith` eliminates on sparse rows of D and Sinv, with S
and Tinv kept transposed so that every operation they receive is a row
operation, in the dense elimination's order, which is why its output is
identical entry for entry.  `snf_diagonal`, `kernel` and `Solver` read
those rows; only `smith_normal_form`, their dense view, builds arrays.
`hermite_normal_form_of_columns` is the one Hermite elimination, on
sparse columns; `hermite_normal_form` hands it a dense matrix's nonzeros,
and returns an input already in Hermite form after one pass over them.

Object arrays, the library's own representation, are taken as given.
Any other input must hold integers: `intmat` and `intvec`, which read the
solvers' right-hand sides too, refuse a float, bool or string entry by
name where `int()` would truncate or parse it.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np


def _labels(values, name):
    """The entries of `values` as a tuple of ints.

    Python and numpy integers pass.  A float, string or bool raises a
    ValueError naming the entry as `name[i]`, where `int()` would truncate
    or parse it, and a `values` that is not a sequence one naming `name`.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{name} is not a sequence: {values!r}") from None
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    i = next(i for i, x in enumerate(values)
             if isinstance(x, bool) or not isinstance(x, numbers.Integral))
    raise ValueError(f"{name}[{i}] is not an integer: {values[i]!r}")


def intmat(rows, ncols=None, name="matrix"):
    """Build an object-dtype matrix from nested lists or a 2-D array.

    `ncols` disambiguates the empty matrix: intmat([], 3) has shape (0, 3).
    An object array, the library's own representation, is copied as it
    is.  Any other input must hold integers: a float, bool or string
    entry raises ValueError naming it as `name[i][j]`, where `int()`
    would truncate or parse it, and a row that is not a sequence as
    `name[i]`.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError(f"{name} is not a 2-D array")
        if rows.dtype == object or rows.dtype.kind in "iu":
            return rows.astype(object)
        rows = rows.tolist()    # named entry by entry below
    rows = list(rows)
    if not rows:
        return np.zeros((0, 0 if ncols is None else ncols), dtype=object)
    widths = set()
    for i, r in enumerate(rows):
        try:
            widths.add(len(r))
        except TypeError:
            raise ValueError(f"{name}[{i}] is not a row: {r!r}") from None
    if len(widths) != 1:
        raise ValueError("ragged rows")
    (width,) = widths
    return _from_lists([_labels(r, f"{name}[{i}]") for i, r in enumerate(rows)],
                       len(rows), width)


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
    """Object-dtype vector of the entries.

    An object array is copied as it is; any other entry that is not an
    integer raises ValueError naming it as `vector[i]`.
    """
    if isinstance(entries, np.ndarray):
        if entries.dtype == object and entries.ndim == 1:
            return entries.copy()
        entries = entries.tolist()
    out = np.empty(len(entries), dtype=object)
    out[:] = _labels(entries, "vector")
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


_SMALL_MATRIX = 150     # entries; see `_column_entries`


def _column_entries(A):
    """For each column j of A, the pairs (i, A[i, j]) with A[i, j] != 0.

    Rows ascend within each column.  A matrix of at most `_SMALL_MATRIX`
    entries is read with one `tolist()`, a larger one with one comparison
    and one gather whose Python loop runs over the nonzeros only.  1 x 1
    took 1.7 us against 7.7 us for the gather, 12 x 12 was even, and the
    66 x 65 box relation matrix of D4 (130 nonzeros) 196 us against 79 us.
    """
    if A.size <= _SMALL_MATRIX:
        return [[(i, v) for i, v in enumerate(col) if v]
                for col in A.T.tolist()]
    iz, jz = np.nonzero(A != 0)
    cols = [[] for _ in range(A.shape[1])]
    for i, j, v in zip(iz.tolist(), jz.tolist(), A[iz, jz].tolist()):
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


def kron(A, B):
    """Kronecker product of two object matrices: block (i, j) is A[i, j] B."""
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * r, q * s)


def _from_rows(rows, n, transposed=False):
    """Object matrix with the given sparse rows and n columns.

    With `transposed`, the sparse rows are the columns of an n-row matrix.
    Up to `_SMALL_MATRIX` entries it is written as nested lists in one
    slice assignment, a larger one by scattering the nonzeros into zeros.
    """
    shape = (n, len(rows)) if transposed else (len(rows), n)
    if len(rows) * n <= _SMALL_MATRIX:
        out = [[0] * shape[1] for _ in range(shape[0])]
        for a, row in enumerate(rows):
            for b, v in row.items():
                if transposed:
                    out[b][a] = v
                else:
                    out[a][b] = v
        return _from_lists(out, *shape)
    out = zeros(*shape)
    ii = [i for i, row in enumerate(rows) for _ in row]
    jj = [j for row in rows for j in row]
    vals = np.array([v for row in rows for v in row.values()], dtype=object)
    if transposed:
        ii, jj = jj, ii
    out[ii, jj] = vals
    return out


def _add_row(dst, src, k):
    """dst += k * src on sparse rows; k != 0 and dst is not src."""
    for c, v in src.items():
        w = dst.get(c, 0) + k * v
        if w:
            dst[c] = w
        else:
            del dst[c]


def smith_normal_form(A):
    """Smith normal form with transforms.

    Returns (S, D, Sinv, Tinv) with S @ D == A @ Tinv, where S (with
    inverse Sinv) and Tinv are unimodular and D is diagonal with
    nonnegative entries d_1 | d_2 | ...

    The dense view of the sparse elimination `_smith`, and the only code
    that builds arrays of its factors.  Exported, with no library caller.
    """
    D, Sinv, St, Tinvt = _smith(A)
    m, n = len(D), len(Tinvt)
    return (_from_rows(St, m, transposed=True), _from_rows(D, n),
            _from_rows(Sinv, m), _from_rows(Tinvt, n, transposed=True))


def _smith(A):
    """`smith_normal_form` on sparse rows: (D, Sinv, St, Tinvt).

    D and Sinv are {column: value} dicts, one per row; St and Tinvt hold
    the columns of S and Tinv, so their column operations are row
    operations too: a swap exchanges two list slots and an add costs the
    nonzeros of the row added.  Only the column operations on D visit
    rows, and only rows t and below, since every row above the current
    pivot t is already zero outside its diagonal.

    The operations are the dense elimination's, in its order, so the
    output is the same matrices entry for entry.  For pivot t: the pivot
    is the first entry, in row-major order over the remaining block, of
    least absolute value (a unit ends the search); it is swapped to (t, t);
    a row pass reduces column t below the pivot, swapping in any row that
    leaves a remainder; a column pass does the same along row t; while the
    pivot is not a unit, the first remaining row holding an entry it does
    not divide is added to row t and the passes repeat; a negative pivot's
    row is negated.

    An input already in Smith form (nonzeros only at (t, t), nonnegative,
    each dividing the next, so zeros come last) returns its rows with
    identity factors without elimination.  That is exactly what the
    elimination would return: at every step the pivot search picks (t, t),
    since d_t is the first nonzero of least size in what remains, and the
    row, column and divisibility passes find nothing to clear, so nothing
    is swapped, added or negated.
    """
    A = intmat(A)
    m, n = A.shape
    D = list(map(dict, _column_entries(A.T)))    # the rows of A
    Sinv = [{i: 1} for i in range(m)]
    St = [{i: 1} for i in range(m)]         # St[i] is column i of S
    Tinvt = [{i: 1} for i in range(n)]      # Tinvt[i] is column i of Tinv
    diag = [D[t].get(t, 0) for t in range(min(m, n))]
    # every nonzero on the diagonal, nonnegative and chained
    if (all(len(row) == (t in row) for t, row in enumerate(D))
            and all(d >= 0 for d in diag)
            and all(b % a == 0 if a else b == 0
                    for a, b in zip(diag, diag[1:]))):
        return D, Sinv, St, Tinvt
    t = 0

    # Elementary operations on D, mirrored so S @ D == A @ Tinv stays true.
    # Column operations on D touch only rows t and below.
    def row_add(i, j, k):  # row_i += k * row_j
        _add_row(D[i], D[j], k)
        _add_row(St[j], St[i], -k)
        _add_row(Sinv[i], Sinv[j], k)

    def col_add(j, i, k, rows):  # col_j += k * col_i; rows: col_i's nonzeros
        for r in rows:
            Dr = D[r]
            w = Dr.get(j, 0) + k * Dr[i]
            if w:
                Dr[j] = w
            else:
                del Dr[j]
        _add_row(Tinvt[j], Tinvt[i], k)

    def col_swap(i, j):
        """Swap columns i != j; returns the rows where column i is nonzero."""
        rows = []
        for r in range(t, m):
            Dr = D[r]
            if i in Dr or j in Dr:
                a, b = Dr.pop(i, 0), Dr.pop(j, 0)
                if b:
                    Dr[i] = b
                    rows.append(r)
                if a:
                    Dr[j] = a
        Tinvt[i], Tinvt[j] = Tinvt[j], Tinvt[i]
        return rows

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        Sinv[i], Sinv[j] = Sinv[j], Sinv[i]
        St[i], St[j] = St[j], St[i]

    def row_negate(i):
        for rows in (D, Sinv, St):
            rows[i] = {c: -v for c, v in rows[i].items()}

    limit = min(m, n)
    while t < limit:
        # Pick a nonzero pivot of small magnitude; a unit ends the search.
        # Rows from t on are zero left of column t, and a row's least entry
        # comes first in column order when its (size, column) is least.
        piv = None
        best = None
        for i in range(t, m):
            if D[i]:
                a, j = min((v if v > 0 else -v, j) for j, v in D[i].items())
                if best is None or a < best:
                    best = a
                    piv = (i, j)
                    if a == 1:
                        break
        if piv is None:
            break
        row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        # Within a pass, the operations on line t and line i leave the
        # later lines alone, so the lines to visit are known up front.
        while True:
            dirty = False
            for i in [i for i in range(t + 1, m) if t in D[i]]:
                q = D[i][t] // D[t][t]
                if q:
                    row_add(i, t, -q)
                if t in D[i]:
                    row_swap(t, i)
                    dirty = True
            if dirty:
                continue
            Dt = D[t]
            rows = [t]              # column t is now zero below the pivot
            for j in sorted(c for c in Dt if c > t):
                q = Dt[j] // Dt[t]
                if q:
                    col_add(j, t, -q, rows)
                if j in Dt:
                    rows = col_swap(t, j)
                    dirty = True
            if dirty:
                continue
            # Force divisibility of the remaining block by the pivot.
            dtt = Dt[t]
            if dtt != 1 and dtt != -1:
                stain = next((i for i in range(t + 1, m)
                              if any(v % dtt for v in D[i].values())), None)
                if stain is not None:
                    row_add(t, stain, 1)
                    continue
            break
        if D[t][t] < 0:
            row_negate(t)
        t += 1

    return D, Sinv, St, Tinvt


def snf_diagonal(A):
    """Diagonal of the Smith form as a list of nonnegative ints."""
    D, _, _, Tinvt = _smith(A)
    return [D[t].get(t, 0) for t in range(min(len(D), len(Tinvt)))]


def kernel(A):
    """Basis (as columns) of the integer kernel {x : A @ x = 0}."""
    D, _, _, Tinvt = _smith(A)
    free = [c for j, c in enumerate(Tinvt) if j >= len(D) or j not in D[j]]
    return _from_rows(free, len(Tinvt), transposed=True)


class Solver:
    """Factor a matrix once, then solve A @ x = b for many right sides.

    With S @ D == A @ Tinv, x = Tinv @ y where D @ y = Sinv @ b.  Sinv by
    rows and Tinv by columns are read from `_smith` as they are, so a solve
    costs the nonzeros of Sinv plus those of the Tinv columns y uses.
    """

    def __init__(self, A):
        D, self._sinv_rows, _, self._tinv_cols = _smith(A)
        self.m, self.n = len(D), len(self._tinv_cols)
        self._diag = [row.get(i, 0) for i, row in enumerate(D)]

    def solve(self, b):
        b = intvec(b)
        if b.shape != (self.m,):
            raise ValueError(f"right-hand side has shape {b.shape}, "
                             f"expected ({self.m},)")
        b = b.tolist()
        x = [0] * self.n
        for i, (row, d) in enumerate(zip(self._sinv_rows, self._diag)):
            c = sum(v * b[j] for j, v in row.items())
            if d == 0:
                if c != 0:
                    return None
            elif c % d != 0:
                return None
            elif c:
                y = c // d
                for r, v in self._tinv_cols[i].items():
                    x[r] += v * y
        out = np.empty(self.n, dtype=object)
        out[:] = x
        return out


def solve(A, b):
    """One integer solution x of A @ x = b, or None if there is none."""
    return Solver(A).solve(b)


def hermite_normal_form(A):
    """Canonical column basis of the lattice spanned by the columns of A.

    Returns H with colspan(H) = colspan(A), no zero columns, pivots
    strictly descending the rows with positive pivot entries, and entries
    left of each pivot reduced into [0, pivot).  Two matrices span the
    same lattice iff their Hermite forms are equal.

    An input that already has those properties is returned as a copy
    after one pass over its nonzeros: the Hermite form of a lattice is
    unique, so elimination would give the same matrix.  Any other input
    is eliminated by `hermite_normal_form_of_columns` on its nonzeros.
    """
    A = intmat(A)          # a fresh array, returned as is when canonical
    entries = _column_entries(A)
    if _in_hermite_form(entries):
        return A
    return hermite_normal_form_of_columns(entries, A.shape[0])


def hermite_normal_form_of_columns(cols, nrows):
    """`hermite_normal_form` of the nrows-row matrix with sparse columns.

    Each column is an iterable of (row, value) pairs: distinct rows in
    [0, nrows), values nonzero Python ints, as `_column_entries` or the
    items of a {row: value} dict give them.  An empty sequence is a zero
    column.  The Hermite form of a lattice is unique, so neither the order
    of the columns nor repeated columns change the result.

    Incremental sparse echelon insertion: pivots[r] holds a column (as a
    sparse dict) whose least nonzero row is r.  Sparse unit columns go in
    first; they make clean pivots and keep fill-in down.
    """
    pivots = {}
    for v in sorted(map(dict, cols), key=lambda v: (
            len(v), max((abs(x) for x in v.values()), default=0))):
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
    W = zeros(nrows, len(rows))
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


def _in_hermite_form(cols):
    """Whether columns, as `_column_entries` gives them, are a Hermite form.

    That is: no zero column, the first nonzero rows (pivot rows) strictly
    ascending, positive pivots, and every entry at a later column's pivot
    row in [0, that pivot).  Entries at an earlier column's pivot row are
    zero, since a column has no nonzeros above its own pivot.
    """
    pivot_of_row = {}
    last = -1
    for col in cols:
        if not col:
            return False
        r, p = col[0]
        if r <= last or p < 0:
            return False
        pivot_of_row[r] = p
        last = r
    return all(0 < v < pivot_of_row[i]
               for col in cols for i, v in col[1:] if i in pivot_of_row)


def lattices_equal(A, B) -> bool:
    return mats_equal(hermite_normal_form(A), hermite_normal_form(B))


def lattice_sum(*mats):
    nrows = mats[0].shape[0]
    return hermite_normal_form(hstack([intmat(m, nrows) for m in mats]))


def hnf_solve(H, v):
    """Coefficients for v in a column-Hermite basis H, or None.

    Forward substitution down the pivot rows; no factorization needed.
    Raises ValueError on a v of the wrong length or a zero column of H.
    """
    v = intvec(v)
    m, k = H.shape
    if v.shape != (m,):
        raise ValueError(f"right-hand side has shape {v.shape}, "
                         f"expected ({m},)")
    cols = _column_entries(H)
    if not all(cols):
        raise ValueError(f"column {cols.index([])} of H is zero")
    pivot_rows = [col[0][0] for col in cols]
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
