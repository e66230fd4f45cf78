import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import snf
from belyilab.snf import (
    charpoly_mod,
    congruence_lattice,
    echelon_mod,
    identity_matrix,
    mat_mul_mod,
    mat_vec,
    mat_vec_mod,
    nullspace_mod,
    smith_normal_form,
    solve_integer,
)


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


# -- the modular kernels ---------------------------------------------------

primes = st.sampled_from([2, 3, 5, 7, 31])
composites = st.sampled_from([4, 6, 8, 9, 10, 12, 15])
squares = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=200)
@given(matrices, primes)
def test_echelon_and_nullspace_mod_match_the_smith_form(A, p):
    # U A V = diag(d) with U, V unimodular, so both stay invertible mod p
    # and the rank of A over F_p is the number of d_i prime to p
    n = len(A[0])
    rank = sum(1 for d in slow_paths.smith_normal_form(A)[0] if d % p)
    E = [[x % p for x in row] for row in A]
    pivots = echelon_mod(E, n, p)
    assert len(pivots) == rank
    for i, c in enumerate(pivots):
        assert [row[c] for row in E] == [int(t == i) for t in range(len(E))]
    assert not any(any(row) for row in E[rank:])
    null = nullspace_mod(A, p)
    assert len(null) == n - rank
    assert all(x % p == 0 for v in null for x in mat_vec(A, v))
    # the basis is independent: one pivot per vector
    assert len(echelon_mod([list(v) for v in null], n, p)) == len(null)


@settings(max_examples=100)
@given(matrices, composites)
def test_a_composite_modulus_with_a_non_unit_pivot_raises(A, m):
    # the first pivot is a prime factor of m, which has no inverse mod m;
    # Fermat's a^(m-2) would have scaled the row by a wrong "inverse"
    f = next(q for q in range(2, m + 1) if m % q == 0)
    A = [[f] + A[0][1:]] + A[1:]
    with pytest.raises(ValueError):
        echelon_mod([[x % m for x in row] for row in A], len(A[0]), m)
    with pytest.raises(ValueError):
        nullspace_mod(A, m)


@settings(max_examples=100)
@given(squares, st.sampled_from([5, 7, 31]))
def test_charpoly_mod_is_det_of_lambda_minus_r(R, p):
    # p > n, so the values at every lambda in F_p determine the polynomial
    coeffs = charpoly_mod(R, p)
    assert len(coeffs) == len(R) + 1 and coeffs[0] == 1
    for lam in range(p):
        value = 0
        for c in coeffs:
            value = (value * lam + c) % p
        shifted = [[lam * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(R)]
        assert value == int(det(shifted)) % p


def test_charpoly_mod_refuses_a_prime_at_most_n():
    # Faddeev divides by k = 1..n, and k = p = 3 has no inverse mod 3
    with pytest.raises(ValueError):
        charpoly_mod(identity_matrix(3), 3)


@settings(max_examples=100)
@given(squares, st.lists(st.integers(1, 12), min_size=4, max_size=4))
def test_products_mod_reduce_the_integer_products(A, moduli):
    B = [row[::-1] for row in A[::-1]]
    assert mat_mul_mod(A, B, moduli) == tuple(
        tuple(x % m for x in row) for row, m in zip(mat_mul(A, B), moduli)
    )
    assert mat_vec_mod(A, B[0], moduli) == tuple(x % m for x, m in zip(mat_vec(A, B[0]), moduli))


# congruence_lattice with its column pivot taken as the entry of largest
# magnitude: on x + 3y = 0 mod 7 every quotient 1 // 3 is 0, so a pass
# changes nothing and only the check that sum |w| falls ends the loop.
# The address space is capped at 1 GiB, as for the faulty Schreier-Sims
# levels in test_permgroup.py.
_LARGEST_PIVOT = """
import inspect, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from belyilab import snf
from belyilab.errors import InternalError
source = inspect.getsource(snf.congruence_lattice)
faulty = source.replace("j0 = min(nz, key=", "j0 = max(nz, key=")
assert faulty != source
namespace = dict(vars(snf))
exec(faulty, namespace)
try:
    namespace["congruence_lattice"](2, [({0: 1, 1: 3}, 7)])
except InternalError as exc:
    print("InternalError:", exc)
"""


def test_congruence_lattice_on_x_plus_3y():
    # x + 3y = 0 mod 7: the lattice has index 7, spanned by (-3, 1), (7, 0)
    B, ops = congruence_lattice(2, [({0: 1, 1: 3}, 7)])
    assert abs(B[0][0] * B[1][1] - B[0][1] * B[1][0]) == 7
    assert all((B[0][j] + 3 * B[1][j]) % 7 == 0 for j in range(2))


def test_largest_pivot_raises_instead_of_looping():
    src = str(Path(snf.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LARGEST_PIVOT],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.startswith("InternalError: "), done.stderr
