from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab.snf import identity_matrix, mat_vec, smith_normal_form, solve_integer


def mat_mul(A, B):
    """Plain integer matrix product (the oracle for U·A·V = S)."""
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    oi[j] += a * Bt[j]
    return out


def det(A):
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    from fractions import Fraction

    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    p = Fraction(sign)
    for i in range(n):
        p *= M[i][i]
    return p


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=60)
@given(matrices)
def test_snf_decomposition(A):
    diag, U, V = smith_normal_form(A)
    m, n = len(A), len(A[0])
    S = mat_mul(mat_mul(U, A), V)
    for i in range(m):
        for j in range(n):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert S[i][j] == expect
    # divisibility chain and nonnegativity
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    assert all(d >= 0 for d in diag)
    # transforms unimodular; U inverts the inverse the slow oracle tracks
    Uinv = slow_paths.smith_normal_form(A)[2]
    assert mat_mul(U, Uinv) == identity_matrix(m)
    assert abs(det(U)) == 1 and abs(det(V)) == 1


@settings(max_examples=60)
@given(matrices, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_integer_roundtrip(A, xfull):
    x = xfull[: len(A[0])]
    b = mat_vec(A, x)
    sol = solve_integer(A, b)
    assert sol is not None
    assert mat_vec(A, sol) == b


def test_solve_integer_unsolvable():
    # 2x = 1 has no integer solution
    assert solve_integer([[2]], [1]) is None
    # x + y = 1, x + y = 2 inconsistent
    assert solve_integer([[1, 1], [1, 1]], [1, 2]) is None


def test_known_invariant_factors():
    # classic example: diag(2, 6) -> invariant factors 2, 6
    diag, *_ = smith_normal_form([[2, 0], [0, 6]])
    assert diag == [2, 6]
    diag, *_ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]
