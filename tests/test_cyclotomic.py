from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from belyilab.cyclotomic import (
    Cyclotomic,
    _divide_monic,
    cyclotomic_coeffs,
    factorint,
    fold,
    phi_of,
    prime_1_mod,
    root_of_unity_mod,
)
from slow_paths import fold_full_width, galois


def zeta(N, k=1):
    return Cyclotomic(N, fold(N, [(k, 1)]))


def rat(r, N):
    return Cyclotomic.from_rational(r, N)


class TestBasics:
    def test_root_of_unity_order(self):
        for N in (1, 2, 3, 4, 5, 6, 8, 12):
            z = zeta(N)
            p = rat(1, N)
            for _ in range(N):
                p = p * z
            assert p == rat(1, N)

    def test_primitive_root_relation(self):
        # 1 + z3 + z3^2 = 0
        assert rat(1, 3) + zeta(3) + zeta(3, 2) == Cyclotomic.zero(3)
        # z4^2 = -1
        assert zeta(4) * zeta(4) == rat(-1, 4)

    def test_conductor_mismatch(self):
        # values of different conductors are neither added, multiplied nor
        # compared
        with pytest.raises(ValueError):
            zeta(3) + zeta(4)
        with pytest.raises(ValueError):
            zeta(3) * zeta(6)
        with pytest.raises(ValueError):
            rat(1, 4) == rat(1, 1)

    def test_rational_detection(self):
        r = rat(Fraction(2, 3), 5)
        assert r.is_rational() and r.coords[0] == Fraction(2, 3)
        assert not zeta(5).is_rational()
        assert zeta(5) != Cyclotomic.zero(5)

    def test_conjugation(self):
        z = zeta(5)
        assert galois(z, 4) == zeta(5, 4)
        assert (z * galois(z, 4)) == rat(1, 5)
        # z + conj(z) is fixed by conjugation (real)
        s = z + galois(z, 4)
        assert galois(s, 4) == s

    def test_text_forms(self):
        assert str(rat(Fraction(-2, 3), 5)) == "-2/3"
        assert str(rat(1, 3) + -2 * zeta(3)) == "1 + -2*z3^1"
        assert str(zeta(3, 2)) == "-1 + -1*z3^1"
        assert repr(zeta(3)) == "Cyclotomic(1*z3^1)"
        assert repr(Cyclotomic.zero(4)) == "Cyclotomic(0)"


class TestGalois:
    """The Galois oracle of tests/slow_paths.py, which checks complex
    conjugation at the inverse class in test_fast_paths.py."""

    def test_galois_requires_coprime(self):
        with pytest.raises(ValueError):
            galois(zeta(6), 2)

    def test_galois_on_roots(self):
        assert galois(zeta(7), 3) == zeta(7, 3)
        assert galois(zeta(12, 5), 7) == zeta(12, 35)

    def test_galois_is_additive_multiplicative(self):
        a = zeta(5) + 2 * zeta(5, 2)
        b = zeta(5, 3) + rat(-1, 5)
        assert galois(a + b, 2) == galois(a, 2) + galois(b, 2)
        assert galois(a * b, 2) == galois(a, 2) * galois(b, 2)

    def test_galois_composition(self):
        a = zeta(7) + zeta(7, 5)
        assert galois(galois(a, 2), 3) == galois(a, 6)


small_vals = st.integers(-3, 3)


@given(st.lists(small_vals, min_size=4, max_size=4).map(lambda c: Cyclotomic(5, c)),
       st.lists(small_vals, min_size=4, max_size=4).map(lambda c: Cyclotomic(5, c)),
       st.lists(small_vals, min_size=4, max_size=4).map(lambda c: Cyclotomic(5, c)))
def test_ring_axioms_q_zeta5(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


def test_phi_of():
    assert [phi_of(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


class TestModularRoots:
    def test_exact_order_up_to_200(self):
        for N in range(1, 201):
            for bound in (0, N, 2 * N * N):
                p = prime_1_mod(N, bound)
                assert p > bound and (p - 1) % N == 0
                z = root_of_unity_mod(p, N)
                assert pow(z, N, p) == 1
                assert all(pow(z, N // q, p) != 1 for q in factorint(N))

    def test_least_prime(self):
        assert prime_1_mod(4, 0) == 5
        assert prime_1_mod(4, 5) == 13
        assert prime_1_mod(6, 12) == 13


class TestFold:
    def test_matches_root_of_unity_sums(self):
        for N in (1, 2, 5, 9, 12, 15):
            terms = [(e, Fraction(e % 3 - 1, e % 4 + 1)) for e in range(2 * N + 1)]
            expect = Cyclotomic.zero(N)
            for e, c in terms:
                expect = expect + c * zeta(N, e)
            assert Cyclotomic(N, fold(N, terms)) == expect

    @given(
        st.one_of(st.integers(1, 60), st.sampled_from([2, 3, 7, 13, 31, 61, 97])).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.lists(
                    st.tuples(
                        st.integers(0, 3 * N),
                        st.fractions(max_denominator=12).map(lambda c: c.limit_denominator(12)),
                    ),
                    max_size=12,
                ),
            )
        )
    )
    def test_matches_full_width_division(self, case):
        # the dividend cut at the highest exponent present gives the same
        # coordinates as all N positions divided by Phi_N; at prime N,
        # phi(N) = N - 1 and exponents from N on wrap below phi(N)
        N, terms = case
        assert fold(N, terms) == fold_full_width(N, terms)

    def test_vanishes_exactly_on_multiples_of_phi(self):
        # 1 + x + ... + x^(p-1) vanishes at zeta_p; 1 + x does not
        assert not any(fold(7, enumerate([1] * 7)))
        assert any(fold(7, enumerate([1, 1])))

    def test_shared_division_is_exact_on_cyclotomic_factors(self):
        # Phi_d divides x^N - 1 for every d | N: the remainder is zero and
        # quotient * Phi_d gives x^N - 1 back; and Phi_d vanishes at
        # zeta_N^(N/d), so fold of Phi_d(x^(N/d)) is zero at conductor N
        for N in range(1, 61):
            for d in (d for d in range(1, N + 1) if N % d == 0):
                den = cyclotomic_coeffs(d)
                num = [-1] + [0] * (N - 1) + [1]
                quot = _divide_monic(num, den)
                assert not any(num[: len(den) - 1]), (N, d)
                back = [0] * (N + 1)
                for i, q in enumerate(quot):
                    for j, c in enumerate(den):
                        back[i + j] += q * c
                assert back == [-1] + [0] * (N - 1) + [1], (N, d)
                assert not any(fold(N, [(j * (N // d), c) for j, c in enumerate(den)])), (N, d)
