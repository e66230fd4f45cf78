"""The library's matrix algebra: the integer Smith normal form and the
solves read off it, sparse congruence lattices, products modulo per-row
moduli, and the F_p echelon, nullspace and characteristic polynomial.
Matrices are lists (or tuples) of lists of ints, at most a few hundred
rows; a `_mod` routine reduces modulo what it is given.

smith_normal_form returns both transforms; a caller needing a column of
U^-1 reads it off A*V, since U*A*V = diag(d).  Its systems are sparse
with many unit entries, so it skips zero work without changing a step:
the pivot scan stops at the first row holding a unit, row and column
operations touch only nonzero entries, and a pivot 1 needs no
divisibility scan.  mat_vec skips the zero entries of v, as the
right-hand sides are mostly a modulus times a unit vector.  The F_p
routines are dense, for Dixon's r x r class-sum matrices (r <= 40), and
invert with pow(a, -1, p): a pivot or divisor that is not a unit mod p
raises ValueError instead of giving a wrong answer.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul

from .errors import InternalError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nz) for row in A]


def mat_vec_mod(A, v, moduli):
    """A v with entry i reduced modulo moduli[i], as a tuple."""
    return tuple(sum(map(mul, row, v)) % m for row, m in zip(A, moduli))


def mat_mul_mod(A, B, moduli):
    """A B with row i reduced modulo moduli[i], as a tuple of tuples."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) % m for col in cols) for row, m in zip(A, moduli))


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
    diag, U, V = smith_normal_form(A)
    z = [0] * len(V)
    for i, v in enumerate(mat_vec(U, b)):
        d = diag[i] if i < len(diag) else 0
        if d:
            if v % d:
                return None
            z[i] = v // d
        elif v:
            return None
    return mat_vec(V, z)


def congruence_lattice(n, rows):
    """(B, ops): an n x n matrix B whose columns are a basis of
    L = {x in Z^n : row . x = 0 mod m for each (row, m)}, each row a dict
    of its nonzero entries, and the column operations that build B from
    the identity, in order.

    Maintains a basis of the running lattice and intersects with one
    congruence at a time by integer column operations.  B is kept as one
    dict of nonzero entries per row, with the set of rows nonzero in each
    column: a congruence's values on the basis add up only the nonzero
    entries of the rows it touches, and a column operation reaches only
    the rows nonzero in the pivot column.  ops holds (j0, j, q) for
    col_j -= q * col_j0 and (j0, None, t) for col_j0 *= t, with
    t = m / gcd(w, m) > 1, so det B, the product of the t, is nonzero;
    lattice_coordinates undoes them.  B is returned dense.
    """
    Brows = [{i: 1} for i in range(n)]
    support = [{i} for i in range(n)]
    ops = []
    for row, m in rows:
        w = {}
        for v, coeff in row.items():
            for j, b in Brows[v].items():
                w[j] = w.get(j, 0) + coeff * b
        if all(x % m == 0 for x in w.values()):
            continue
        # column-reduce w to a single nonzero entry, mirroring the
        # operations on the basis columns.  The pivot is an entry of least
        # magnitude and a pass leaves every other entry below it, so each
        # pass lowers sum |w|; a pass that does not is a fault, not a loop
        while True:
            nz = sorted(j for j, x in w.items() if x)
            if len(nz) <= 1:
                break
            size = sum(abs(w[j]) for j in nz)
            j0 = min(nz, key=lambda j: abs(w[j]))
            p, rows0 = w[j0], support[j0]
            for j in nz:
                if j == j0:
                    continue
                q = w[j] // p
                if q:
                    w[j] -= q * p
                    col = support[j]
                    for r in rows0:
                        R = Brows[r]
                        x = R.get(j, 0) - q * R[j0]
                        if x:
                            R[j] = x
                            col.add(r)
                        else:
                            del R[j]
                            col.discard(r)
                    ops.append((j0, j, q))
            if sum(abs(x) for x in w.values()) >= size:
                raise InternalError("a column pass of congruence_lattice left sum |w| at %d" % size)
        # the operations keep the gcd of w, so one entry is left
        (j0,) = nz
        t = m // gcd(w[j0], m)
        for r in support[j0]:
            Brows[r][j0] *= t
        ops.append((j0, None, t))
    return _dense(Brows, n), ops


def _dense(rows, width):
    """Lists of length width from dicts of their nonzero entries."""
    out = [[0] * width for _ in rows]
    for row, R in zip(out, rows):
        for j, x in R.items():
            row[j] = x
    return out


def lattice_coordinates(ops, X):
    """B^-1 X for (B, ops) = congruence_lattice(...), or None when a
    column of X is outside L.

    B is the identity times the operations in ops, so B^-1 X undoes them
    in the same order on the rows of X: col_j -= q * col_j0 becomes
    row_j0 += q * row_j, and col_j0 *= t becomes row_j0 /= t.  Each
    intermediate basis spans a lattice containing L, so every division is
    exact on a column in L; if all are exact the result Z is integral with
    B Z = X, so a column outside L fails one.  The rows are kept as dicts
    of their nonzero entries, so a row operation adds only those of row_j.
    """
    Z = [{c: a for c, a in enumerate(row) if a} for row in X]
    for j0, j, q in ops:
        r = Z[j0]
        if j is not None:
            for c, b in Z[j].items():
                x = r.get(c, 0) + q * b
                if x:
                    r[c] = x
                else:
                    del r[c]
        elif any(a % q for a in r.values()):
            return None
        else:
            Z[j0] = {c: a // q for c, a in r.items()}
    return _dense(Z, len(X[0]) if X else 0)


def lattice_index(ops):
    """[Z^n : L] = det B for (B, ops) = congruence_lattice(n, ...)."""
    return prod(t for _, j, t in ops if j is None)


def echelon_mod(A, ncols, p):
    """Bring the rows of A (lists, entries in 0..p-1) to reduced row
    echelon form over F_p in its first ncols columns, in place; returns
    the pivot columns, the i-th pivot belonging to row i."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [(x * inv) % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return pivots


def nullspace_mod(M, p):
    """Basis of the right nullspace of M over F_p (rows of the result)."""
    cols = len(M[0]) if M else 0
    A = [[x % p for x in row] for row in M]
    pivots = echelon_mod(A, cols, p)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-A[ri][fc]) % p
        basis.append(v)
    return basis


def charpoly_mod(R, p):
    """Characteristic polynomial coefficients [1, c1, ..., cn] of R mod p
    (Faddeev-LeVerrier).  It divides by k = 1..n, so it needs p > n."""
    n = len(R)
    moduli = [p] * n
    coeffs = [1]
    M = identity_matrix(n)
    for k in range(1, n + 1):
        RM = mat_mul_mod(R, M, moduli)
        ck = -sum(RM[i][i] for i in range(n)) * pow(k, -1, p) % p
        coeffs.append(ck)
        M = [[x + ck * (i == j) for j, x in enumerate(row)] for i, row in enumerate(RM)]
    return coeffs
