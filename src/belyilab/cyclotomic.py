"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored as rational coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(N)-1), kept reduced modulo the N-th cyclotomic
polynomial.  The conductor is fixed by the caller (the group exponent in
character-table work) and never minimized; equality is coordinate equality
at one conductor, and a sum, product or comparison of values of different
conductors raises ValueError.  Only the field operations the package uses
are here: sums, products, lifts to a multiple of the conductor and
equality.  There are no Galois automorphisms; the complex conjugate of a
character value chi(g) is chi(g^-1), which chartab reads at the inverse
class.

There is one reduction modulo Phi_N, `fold`: the power-basis coordinates
of a sum of c * zeta_N^e, by one exact division by the monic Phi_N in
integers.  Products, lifts to a larger conductor and Dixon's lift in
chartab all go through it; no table of powers of zeta_N is kept.

The elementary number theory the package needs (factorization, Euler phi,
primality, cyclotomic polynomials, primes p = 1 (mod N) and elements of
order N in F_p) lives here too, in plain integers.  Primality is trial
division: every modulus the package picks is below 230,000.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InternalError


def factorint(n):
    """{prime: exponent} for an integer n >= 1, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def phi_of(N):
    """Euler's phi, from the factorization of N."""
    out = N
    for p in factorint(N):
        out = out // p * (p - 1)
    return out


def isprime(n):
    """Primality by trial division."""
    return factorint(n) == {n: 1}


def prime_1_mod(N, bound):
    """The least prime p = 1 (mod N) with p > bound."""
    p = N + 1
    while p <= bound or not isprime(p):
        p += N
    return p


def root_of_unity_mod(p, N):
    """A fixed element of multiplicative order N in F_p (needs N | p-1):
    the least primitive root mod p raised to the power (p-1)/N."""
    if (p - 1) % N:
        raise InternalError("F_%d has no element of order %d" % (p, N))
    factors = list(factorint(p - 1))
    g = 1  # the primitive root mod 2; every larger p skips it
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return pow(g, (p - 1) // N, p)


def _divide_monic(num, den):
    """Divide the integer coefficients num by the monic den (both constant
    term first), in place: afterwards num[:deg den] is the remainder.
    Returns the quotient."""
    k = len(den) - 1
    low = [(j, a) for j, a in enumerate(den[:k]) if a]
    quot = [0] * (len(num) - k)
    for i in range(len(num) - 1, k - 1, -1):
        c = quot[i - k] = num[i]
        if c:
            for j, a in low:
                num[i - k + j] -= c * a
    return quot


@lru_cache(maxsize=None)
def cyclotomic_coeffs(N):
    """Integer coefficients of the N-th cyclotomic polynomial, constant term
    first: x^N - 1 divided exactly by Phi_d for every proper divisor d of N."""
    num = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d:
            continue
        den = cyclotomic_coeffs(d)
        quot = _divide_monic(num, den)
        if any(num[: len(den) - 1]):
            raise InternalError("Phi_%d does not divide x^%d - 1" % (d, N))
        num = quot
    return tuple(num)


def fold(N, terms):
    """Power-basis coordinates of the sum of c * zeta_N^e over the (e, c)
    pairs in terms, c an int or Fraction: exponents are taken mod N, then
    the sum is divided by the monic Phi_N in integers over a common
    denominator.  The dividend reaches only the highest exponent present
    (never below phi(N) positions), so positions that are always zero are
    neither filled nor divided (O(N) memory)."""
    coeffs = cyclotomic_coeffs(N)
    phi = len(coeffs) - 1
    terms = [(e % N, c) for e, c in terms if c]
    den = lcm(*(c.denominator for _, c in terms))
    rem = [0] * max([phi] + [e + 1 for e, _ in terms])
    for e, c in terms:
        rem[e] += c.numerator * (den // c.denominator)
    if len(rem) > phi:
        _divide_monic(rem, coeffs)
    return [Fraction(c, den) for c in rem[:phi]]


class Cyclotomic:
    """An element of Q(zeta_N) in reduced power-basis coordinates."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor, coords):
        phi = phi_of(conductor)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != phi:
            raise ValueError("expected %d coordinates for conductor %d" % (phi, conductor))
        self.conductor = conductor
        self.coords = coords

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, N):
        return cls(N, [0] * phi_of(N))

    @classmethod
    def from_rational(cls, r, N):
        coords = [Fraction(r)] + [Fraction(0)] * (phi_of(N) - 1)
        return cls(N, coords)

    # -- structure ---------------------------------------------------------

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if other.conductor != self.conductor:
            raise ValueError("conductor mismatch: %d vs %d" % (self.conductor, other.conductor))
        return other

    def __add__(self, other):
        other = self._check(other)
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            return Cyclotomic(self.conductor, [a * Fraction(other) for a in self.coords])
        other = self._check(other)
        # sparse convolution, then one reduction modulo Phi_N
        right = [(j, b) for j, b in enumerate(other.coords) if b]
        terms = {}
        for i, a in enumerate(self.coords):
            if a:
                for j, b in right:
                    terms[i + j] = terms.get(i + j, 0) + a * b
        return Cyclotomic(self.conductor, fold(self.conductor, terms.items()))

    __rmul__ = __mul__

    def lift(self, L):
        """Re-express in Q(zeta_L) for a multiple L of the conductor."""
        N = self.conductor
        if L == N:
            return self
        if L % N:
            raise ValueError("cannot lift conductor %d into %d" % (N, L))
        step = L // N
        return Cyclotomic(L, fold(L, ((i * step, a) for i, a in enumerate(self.coords))))

    def __eq__(self, other):
        return self.coords == self._check(other).coords

    def __str__(self):
        if self.is_rational():
            return str(self.coords[0])
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append("%s*z%d^%d" % (c, self.conductor, i))
        return " + ".join(terms)

    def __repr__(self):
        return "Cyclotomic(%s)" % self
