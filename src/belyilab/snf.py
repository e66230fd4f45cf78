"""Integer matrix utilities: Smith normal form with unimodular transforms
and integer linear solving.

Implemented in-house because we need the transform matrices to produce
kernel bases, cocycle class coordinates, and explicit cochain solutions;
library normal forms expose only the diagonal.  The row transform U and
the column transform V suffice: where a caller needs a column of U^-1 it
reads it off A*V, since U*A*V = diag(d).
Matrices are lists of lists of Python ints, at most a few hundred rows.
The systems cohomology factors are sparse with many unit entries, so the
elimination skips zero work without changing a single step: the pivot
is found in one scan of the rows that stops at the first row holding a
unit, row operations add only the pivot row's nonzero entries, column
operations touch only the rows of S and V that are nonzero in the pivot
column, and a pivot 1 needs no divisibility scan.
The right-hand sides extend_automorphism solves for are mostly a modulus
times a unit vector, so mat_vec skips the zero entries of v.
"""

from __future__ import annotations

from math import gcd


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
    # operation transforms both
    S = [row + e for row, e in zip(A, identity_matrix(m))]
    V = identity_matrix(n)

    t = 0
    size = min(m, n)
    while t < size:
        piv = _pivot(S, t, n)
        if piv is None:
            break
        i, j = piv
        S[t], S[i] = S[i], S[t]
        if j != t:
            for r in S:
                r[t], r[j] = r[j], r[t]
            for r in V:
                r[t], r[j] = r[j], r[t]
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
        # clear the pivot row and column; restart if a remainder survives.
        # Row operations add multiples of the pivot row's nonzero entries,
        # column operations reach only the rows nonzero in the pivot column.
        dirty = False
        pivot_row = S[t]
        p = pivot_row[t]
        support = [(c, a) for c, a in enumerate(pivot_row) if a]
        for i in range(t + 1, m):
            r = S[i]
            if r[t]:
                q = r[t] // p
                if q:
                    for c, a in support:
                        r[c] -= q * a
                if r[t]:
                    dirty = True
        rows = [r for r in S if r[t]] + [r for r in V if r[t]]
        for j in range(t + 1, n):
            if pivot_row[j]:
                q = pivot_row[j] // p
                if q:
                    for r in rows:
                        r[j] -= q * r[t]
                if pivot_row[j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: the pivot must divide every remaining entry
        if p != 1:
            offender = next(
                (i for i in range(t + 1, m) if any(a % p for a in S[i][t + 1 : n])), None
            )
            if offender is not None:
                S[t] = [a + b for a, b in zip(S[t], S[offender])]
                continue
        t += 1

    diag = [S[i][i] for i in range(size)]
    return diag, [row[n:] for row in S], V


def _pivot(S, t, n):
    """(i, j) of the nonzero entry of S[t:][t:n] of smallest magnitude,
    first in row-major order among ties, or None if there is none.

    One scan of the rows, ending at the first row holding a unit: a unit
    is the smallest magnitude there is."""
    best = None
    for i in range(t, len(S)):
        seg = S[i][t:n]
        a = min(map(abs, filter(None, seg)), default=0)
        if not a or (best is not None and a >= best[0]):
            continue
        best = a, i, seg
        if a == 1:
            break
    if best is None:
        return None
    a, i, seg = best
    return i, t + min(seg.index(u) for u in (a, -a) if u in seg)


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


def solve_mod_from_snf(snf, b, modulus):
    """One integer solution x of A x = b (mod modulus), or None, given
    snf = smith_normal_form(A).

    With y = U b and z = V^-1 x the system is d_i z_i = y_i (mod modulus)
    row by row (d_i = 0 past the diagonal): solvable exactly when
    g = gcd(d_i, modulus) divides y_i, with z_i = (y_i/g) (d_i/g)^-1
    modulo modulus/g."""
    diag, U, V = snf
    z = [0] * len(V)
    for i, v in enumerate(mat_vec(U, b)):
        d = diag[i] if i < len(diag) else 0
        g = gcd(d, modulus)
        if v % g:
            return None
        if d:
            z[i] = v // g * pow(d // g, -1, modulus // g) % (modulus // g)
    return mat_vec(V, z)


def solve_integer(A, b):
    """One integer solution x of A x = b, or None."""
    return solve_from_snf(smith_normal_form(A), b)
