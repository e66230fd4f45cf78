"""Genus-1 Galois cover machinery: inertia triples, cyclic Kummer covers,
CM-stable torsion subgroups, and the degree of the j-invariant attached to
an odd torsion level.

The Hurwitz identity 1/a + 1/b + 1/c = 1 pins the inertia orders of a
genus-1 Galois cover of the line to three triples.  The cyclic models are
the covers y^d = t^a (t-1)^b; the nonabelian ones are semidirect products
J x| Z/d where J is a subgroup of the n-torsion (Z/n)^2 stable under the
multiplication-by-zeta_d matrix.  j_invariant_degree evaluates
j = 256 (z^2 - z + 1)^3 / (z^2 (z - 1)^2) at a primitive t-th root of
unity and counts its Galois conjugates, exactly: a mod-q prefilter
discards most candidate stabilizer elements and every survivor a is
confirmed when NUM(x^a) DEN(x) - NUM(x) DEN(x^a), for j/256 = NUM/DEN,
folds to zero modulo Phi_t.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import fold, phi_of, prime_1_mod, root_of_unity_mod
from .errors import InternalError, PreconditionError
from .permgroup import Permutation

ADMISSIBLE_KUMMER = ((1, 1, 3), (2, 2, 3), (1, 2, 6), (5, 4, 6), (1, 1, 4), (3, 3, 4))

# (c0, c1) with zeta_d satisfying x^2 + c1 x + c0
_MINIMAL_POLYNOMIALS = {
    3: (1, 1),  # x^2 + x + 1
    4: (1, 0),  # x^2 + 1
    6: (1, -1),  # x^2 - x + 1
}


def inertia_triples():
    """All (a, b, c) with a >= b >= c >= 2 and 1/a + 1/b + 1/c = 1."""
    out = []
    for c in range(2, 4):  # 3/c >= 1 forces c <= 3
        for b in range(c, 13):
            for a in range(b, 13):
                if Fraction(1, a) + Fraction(1, b) + Fraction(1, c) == 1:
                    out.append((a, b, c))
    out.sort(reverse=True)
    if out != [(6, 3, 2), (4, 4, 2), (3, 3, 3)]:
        raise InternalError("inertia triple search found an unexpected set")
    return out


def kummer_cover(a, b, d):
    """The cyclic cover y^d = t^a (t-1)^b as a monodromy pair on Z/d, a
    BelyiCover."""
    from .cover import BelyiCover

    if d not in (3, 4, 6):
        raise PreconditionError("d must be one of 3, 4, 6")
    if gcd(gcd(a, b), d) > 1:
        raise PreconditionError("gcd(a, b, d) > 1: the cover is reducible")
    x = Permutation([(i + a) % d + 1 for i in range(d)])
    y = Permutation([(i + b) % d + 1 for i in range(d)])
    return BelyiCover(x, y)


def inertia_orders(a, b, d):
    return (d // gcd(a, d), d // gcd(b, d), d // gcd(a + b, d))


# bound on the level n: the stable-subgroup search spans every subgroup of
# (Z/n)^2 and the output lists every stable subgroup's elements;
# `genus1 cm 4 256` takes 1.6 s and prints 5.4 MB of JSON on a 2-core x86
# VM, n = 720 about 12 s and 45 MB
_CM_LEVEL_LIMIT = 256


class CmModule:
    """(Z/n)^2 with multiplication by zeta_d, and its stable subgroups."""

    def __init__(self, d, n):
        # snf is imported here, not at the top, so that the CLI's `genus1
        # jdeg` and `genus1 kummer`, which build no CmModule, do not load it
        from .snf import mat_mul_mod

        if n < 1:
            raise PreconditionError("level must be positive")
        if n > _CM_LEVEL_LIMIT:
            raise PreconditionError("level n = %d exceeds the limit %d" % (n, _CM_LEVEL_LIMIT))
        if d not in _MINIMAL_POLYNOMIALS:
            raise PreconditionError("d must be one of 3, 4, 6")
        self.d = d
        self.n = n
        c0, c1 = _MINIMAL_POLYNOMIALS[d]
        # companion matrix of x^2 + c1 x + c0, the minimal polynomial of zeta_d
        A = self.matrix = ((0, (-c0) % n), (1, (-c1) % n))
        # A^2 + c1 A + c0 I = 0 (mod n), entry by entry
        A2 = mat_mul_mod(A, A, (n, n))
        if any((A2[i][j] + c1 * A[i][j] + c0 * (i == j)) % n for i in range(2) for j in range(2)):
            raise InternalError("companion matrix violates its minimal polynomial")
        self.stable_subgroups = self._stable_subgroups()

    def _stable_subgroups(self):
        """Every subgroup of (Z/n)^2 is the span of (a, b) and (0, c) for
        exactly one triple with a | n, c | n, 0 <= b < c and c | (n/a)·b
        (its Hermite normal form); keep those the matrix maps into
        themselves."""
        from .snf import mat_vec_mod

        n = self.n
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        stable = []
        for a in divisors:
            for c in divisors:
                for b in range(c):
                    if (n // a) * b % c:
                        continue
                    S = {
                        (i * a % n, (i * b + j * c) % n)
                        for i in range(n // a)
                        for j in range(n // c)
                    }
                    if all(mat_vec_mod(self.matrix, v, (n, n)) in S for v in S):
                        stable.append(sorted(S))
        stable.sort(key=lambda S: (len(S), S))
        return stable


def cm_stable_subgroups(d, n):
    """All subgroups of (Z/n)^2 stable under the zeta_d matrix."""
    return CmModule(d, n).stable_subgroups


# bound on the level t: the exact test costs about t^2 steps, 0.9 s at
# t = 5005 and 7.4 s at t = 15015 on a 2-core x86 VM (CPython 3.11)
_LEVEL_LIMIT = 5000

# j/256 = NUM(z) / DEN(z), as the coefficients of z^0, z^1, ...:
# NUM = (z^2 - z + 1)^3 and DEN = z^2 (z - 1)^2
_J_NUM = (1, -3, 6, -7, 6, -3, 1)
_J_DEN = (0, 0, 1, -2, 1)


def j_invariant_degree(t) -> int:
    """Number of Galois conjugates of j = 256 (z^2-z+1)^3 / (z^2 (z-1)^2)
    for z a primitive t-th root of unity, t odd."""
    if t <= 1 or t % 2 == 0:
        raise PreconditionError("t must be odd and greater than 1")
    if t > _LEVEL_LIMIT:
        raise PreconditionError("level t = %d exceeds the limit %d" % (t, _LEVEL_LIMIT))
    units = [a for a in range(1, t) if gcd(a, t) == 1]
    phi = len(units)
    if phi != phi_of(t):
        raise InternalError("unit count disagrees with Euler phi")

    # mod-q prefilter: map zeta to an element of exact order t in F_q and
    # keep the a with NUM(r^a) DEN(r) = NUM(r) DEN(r^a) there
    q = prime_1_mod(t, t)
    r = root_of_unity_mod(q, t)

    def parts_mod(z):
        return [sum(c * pow(z, e, q) for e, c in enumerate(P)) % q for P in (_J_NUM, _J_DEN)]

    num1, den1 = parts_mod(r)
    survivors = []
    for a in units:
        num_a, den_a = parts_mod(pow(r, a, q))
        if (num_a * den1 - num1 * den_a) % q == 0:
            survivors.append(a)
    stab = [a for a in survivors if _fixes_j(t, a)]
    if 1 not in stab:
        raise InternalError("the identity is missing from the stabilizer")
    if phi % len(stab):
        raise InternalError("stabilizer size does not divide phi(t)")
    return phi // len(stab)


def _fixes_j(t, a):
    """Whether zeta -> zeta^a fixes j at zeta = zeta_t, exactly:
    NUM(x^a) DEN(x) - NUM(x) DEN(x^a) must vanish modulo Phi_t."""
    terms = []
    for e, c in enumerate(_J_NUM):
        for f, d in enumerate(_J_DEN):
            terms += [(a * e + f, c * d), (e + a * f, -c * d)]
    return not any(fold(t, terms))
