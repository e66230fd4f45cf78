from math import gcd

import pytest

import slow_paths
from belyilab import genus1
from belyilab.chartab import character_table
from belyilab.cli import main
from belyilab.cover import genus, tate_characters, validate
from belyilab.cyclotomic import Cyclotomic, phi_of
from belyilab.descent import DESCENDS, descent_report
from belyilab.errors import InternalError, PreconditionError
from belyilab.genus1 import (
    ADMISSIBLE_KUMMER,
    CmModule,
    cm_stable_subgroups,
    inertia_orders,
    inertia_triples,
    j_invariant_degree,
    kummer_cover,
)
from belyilab.permgroup import orbit
from test_cyclotomic import zeta

EXPECTED_ORDERS = {3: (3, 3, 3), 6: (6, 3, 2), 4: (4, 4, 2)}


def stable_subgroups_by_pairs(cm):
    """The stable subgroups found by spanning every pair of vectors (the
    O(n^6) oracle for CmModule's Hermite-normal-form enumeration)."""
    n = cm.n

    def span(gens):
        return frozenset(
            orbit((0, 0), gens, lambda v, g: ((v[0] + g[0]) % n, (v[1] + g[1]) % n))
        )

    vectors = [(i, j) for i in range(n) for j in range(n)]
    subgroups = {span([])}
    for v in vectors:
        for w in vectors:
            subgroups.add(span([v, w]))
    (a, b), (c, d) = cm.matrix

    def apply(v):
        return ((a * v[0] + b * v[1]) % n, (c * v[0] + d * v[1]) % n)

    stable = [sorted(S) for S in subgroups if all(apply(v) in S for v in S)]
    stable.sort(key=lambda S: (len(S), S))
    return stable


def cyclotomic_power(x, k):
    out = Cyclotomic.from_rational(1, x.conductor)
    for _ in range(k):
        out = out * x
    return out


def j_parts(z):
    """(numerator, denominator) of j/256 at z: ((z^2-z+1)^3, z^2 (z-1)^2),
    in the cyclotomic field (the oracle for j_invariant_degree)."""
    one = Cyclotomic.from_rational(1, z.conductor)
    num = cyclotomic_power(z * z + -1 * z + one, 3)
    den = (z * z) * cyclotomic_power(z + -1 * one, 2)
    return num, den


class TestInertiaTriples:
    def test_exact_set(self):
        assert inertia_triples() == [(6, 3, 2), (4, 4, 2), (3, 3, 3)]


class TestKummerCovers:
    def test_admissible_triples_genus_one(self):
        for a, b, d in ADMISSIBLE_KUMMER:
            cover = kummer_cover(a, b, d)
            assert genus(cover) == 1
            assert inertia_orders(a, b, d) == EXPECTED_ORDERS[d]

    def test_inertia_orders_match_monodromy(self):
        for a, b, d in ADMISSIBLE_KUMMER:
            cover = kummer_cover(a, b, d)
            got = (cover.x.order(), cover.y.order(), cover.z.order())
            assert got == inertia_orders(a, b, d)

    def test_jacobian_two_conjugate_linear_characters(self):
        for a, b, d in ADMISSIBLE_KUMMER:
            cover = kummer_cover(a, b, d)
            cd = validate(cover)
            assert cd.is_galois and cd.D.order == d
            tab = character_table(cd.D)
            _, _, jac = tate_characters(cd)
            assert jac.degree == 2
            nontrivial = [i for i, m in enumerate(jac.mults) if m]
            assert len(nontrivial) == 2
            assert all(jac.mults[i] == 1 for i in nontrivial)
            assert all(tab.degrees[i] == 1 for i in nontrivial)
            i, j = nontrivial
            assert all(
                tab.rows[i][inv] == tab.rows[j][k] for k, inv in enumerate(tab.inverse_class)
            )

    def test_kummer_covers_descend(self):
        for a, b, d in ADMISSIBLE_KUMMER:
            rep = descent_report(kummer_cover(a, b, d))
            assert rep.verdict == DESCENDS
            assert all(r["degree"] == 1 for r in rep.rows)

    def test_reducible_rejected(self):
        with pytest.raises(PreconditionError):
            kummer_cover(2, 2, 6)
        with pytest.raises(PreconditionError):
            kummer_cover(2, 2, 4)

    def test_bad_degree_rejected(self):
        with pytest.raises(PreconditionError):
            kummer_cover(1, 1, 5)


class TestCmModules:
    def test_minimal_polynomial_all_levels(self):
        # the constructor verifies A^2 + c1 A + c0 = 0 on every vector
        for d in (3, 4, 6):
            for n in range(1, 13):
                CmModule(d, n)

    def test_level_one_trivial(self):
        for d in (3, 4, 6):
            subs = cm_stable_subgroups(d, 1)
            assert subs == [[(0, 0)]]

    def test_d4_n2_stable_subgroups(self):
        # (Z/2)^2 has five subgroups; the swap matrix fixes three of them
        subs = cm_stable_subgroups(4, 2)
        assert len(subs) == 3
        assert sorted(map(len, subs)) == [1, 2, 4]
        two = next(S for S in subs if len(S) == 2)
        assert two == [(0, 0), (1, 1)]

    def test_stable_subgroups_match_pair_spans(self):
        for d in (3, 4, 6):
            for n in range(1, 9):
                cm = CmModule(d, n)
                assert cm.stable_subgroups == stable_subgroups_by_pairs(cm)

    def test_bad_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            CmModule(5, 2)
        with pytest.raises(PreconditionError):
            CmModule(3, 0)
        with pytest.raises(PreconditionError):
            CmModule(3, 257)


class TestJInvariantDegree:
    def test_small_values(self):
        assert j_invariant_degree(3) == 1
        assert j_invariant_degree(5) == 2

    def test_bad_inputs(self):
        for t in (1, 2, 4, 10):
            with pytest.raises(PreconditionError):
                j_invariant_degree(t)

    def test_matches_direct_cyclotomic_evaluation(self):
        # independent slow path: evaluate j exactly in the cyclotomic
        # field and count distinct conjugates pairwise
        for t in (3, 5, 7, 9, 15):
            units = [a for a in range(1, t) if gcd(a, t) == 1]
            parts = {}
            for a in units:
                parts[a] = j_parts(zeta(t, a))
            distinct = []
            for a in units:
                na, da = parts[a]
                if not any(
                    na * parts[b][1] == parts[b][0] * da for b in distinct
                ):
                    distinct.append(a)
            assert j_invariant_degree(t) == len(distinct)

    def test_degree_bounds_all_odd_t(self):
        for t in range(3, 201, 2):
            deg = j_invariant_degree(t)
            phi = phi_of(t)
            assert 6 * deg >= phi
            if phi > 24:
                assert deg > 4

    def test_exact_test_matches_polynomial_oracle(self):
        # every unit, those the mod-q prefilter drops included, against the
        # cross-multiplication in Z[x]/(x^t - 1)
        fixed = moved = 0
        for t in range(3, 202, 2):
            parts1 = slow_paths._j_parts_poly(1, t)
            for a in range(1, t):
                if gcd(a, t) == 1:
                    expected = slow_paths.j_fixed_by(t, a, parts1)
                    assert genus1._fixes_j(t, a) == expected, (t, a)
                    fixed += expected
                    moved += not expected
        assert fixed and moved

    @pytest.mark.parametrize("t", [1155, 3003, 3465, 4999])
    def test_large_levels_match_polynomial_oracle(self, t):
        assert j_invariant_degree(t) == slow_paths.j_invariant_degree(t)


class TestJInvariantDegreeChecks:
    """Each InternalError of j_invariant_degree, fired by corrupting the
    computation upstream of it."""

    def test_unit_count_against_euler_phi(self, monkeypatch):
        monkeypatch.setattr(genus1, "phi_of", lambda t: t - 1)
        with pytest.raises(InternalError, match="disagrees with Euler phi"):
            j_invariant_degree(9)

    def test_identity_in_the_stabilizer(self, monkeypatch):
        # an exact test that fixes nothing, not even a = 1
        monkeypatch.setattr(genus1, "fold", lambda N, terms: [1])
        with pytest.raises(InternalError, match="identity is missing"):
            j_invariant_degree(7)

    def test_stabilizer_size_divides_phi_through_cli(self, monkeypatch, capsys):
        # r = 1 lets every unit through the prefilter, and an exact test
        # that rejects only a = 3 leaves 5 of the 6 units of Z/7
        monkeypatch.setattr(genus1, "root_of_unity_mod", lambda q, t: 1)
        monkeypatch.setattr(genus1, "_fixes_j", lambda t, a: a != 3)
        assert main(["genus1", "jdeg", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: stabilizer size does not divide phi(t)" in captured.err
