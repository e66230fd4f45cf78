"""Integer matrix utilities: Smith normal form with unimodular transforms
and integer linear solving.

Implemented in-house because we need the transform matrices to produce
kernel bases, cocycle class coordinates, and explicit cochain solutions;
library normal forms expose only the diagonal.  The row transform U and
the column transform V suffice: where a caller needs a column of U^-1 it
reads it off A*V, since U*A*V = diag(d).
Matrices are lists of lists of Python ints, at most a few hundred rows.
The right-hand sides h2 and extend_automorphism solve for are mostly a
modulus times a unit vector, so mat_vec skips the zero entries of v; the
factorizations themselves are cached by the callers (see cohomology).
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nz) for row in A]


def smith_normal_form(A):
    """Smith normal form with transforms.

    Returns (diag, U, V) where U*A*V = S, S diagonal with
    diag[i] = S[i][i] >= 0 and diag[i] | diag[i+1]; U, V unimodular.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # row i of S is row i of A followed by row i of U, so each row
    # operation transforms both with one list operation
    S = [row + e for row, e in zip(A, identity_matrix(m))]
    V = identity_matrix(n)

    def add_row(i, j, c):
        # row_i += c * row_j
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for r in S:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    t = 0
    size = min(m, n)
    while t < size:
        # the nonzero entry of smallest magnitude in the submatrix, first
        # in row-major order among ties
        piv = min(
            ((abs(a), i, j) for i in range(t, m) for j, a in enumerate(S[i][t:n], t) if a),
            default=None,
        )
        if piv is None:
            break
        _, i, j = piv
        S[t], S[i] = S[i], S[t]
        if j != t:
            for r in S:
                r[t], r[j] = r[j], r[t]
            for r in V:
                r[t], r[j] = r[j], r[t]
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
        # clear the pivot row and column; restart if a remainder survives
        dirty = False
        p = S[t][t]
        for i in range(t + 1, m):
            if S[i][t]:
                q = S[i][t] // p
                if q:
                    add_row(i, t, -q)
                if S[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j]:
                q = S[t][j] // p
                if q:
                    add_col(j, t, -q)
                if S[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        offender = next(
            (i for i in range(t + 1, m) if any(a % p for a in S[i][t + 1 : n])), None
        )
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    diag = [S[i][i] for i in range(size)]
    return diag, [row[n:] for row in S], V


def solve_from_snf(snf, b):
    """One integer solution x of A x = b, or None, given
    snf = smith_normal_form(A)."""
    diag, U, V = snf
    y = mat_vec(U, b)
    z = [0] * len(V)
    for i, v in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d:
            if v % d:
                return None
            z[i] = v // d
        elif v:
            return None
    return mat_vec(V, z)


def solve_integer(A, b):
    """One integer solution x of A x = b, or None."""
    return solve_from_snf(smith_normal_form(A), b)
