import random
from fractions import Fraction

import pytest

from belyilab import chartab
from belyilab.chartab import (
    CharacterTable,
    TableError,
    VirtualCharacter,
    character_table,
    perm_character,
)
from belyilab.corpus import _table_groups
from belyilab.cyclotomic import Cyclotomic
from belyilab.errors import PreconditionError
from belyilab.permgroup import (
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    generate,
    symmetric_group,
    trivial_group,
)
from test_cyclotomic import zeta


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def swapped_powers(powers, swaps):
    """A copy of a power table with the entries at each pair of (class, s)
    positions swapped."""
    rows = [list(row) for row in powers]
    for (c1, s1), (c2, s2) in swaps:
        rows[c1][s1], rows[c2][s2] = rows[c2][s2], rows[c1][s1]
    return rows


def corrupt_power_tables(monkeypatch, swaps):
    """Make every group's power table come out with the given swaps."""
    build = PermGroup.power_table.func

    def corrupted(G):
        return swapped_powers(build(G), swaps)

    monkeypatch.setattr(PermGroup, "power_table", property(corrupted))


def quaternion_group():
    """Q8 as a permutation group of degree 8 (regular action)."""
    i = Permutation([2, 3, 4, 1, 6, 7, 8, 5])
    j = Permutation([5, 8, 7, 6, 3, 2, 1, 4])
    G = generate([i, j])
    assert G.order == 8
    return G


CORPUS = None


def corpus():
    global CORPUS
    if CORPUS is None:
        CORPUS = (
            [cyclic_group(n) for n in range(1, 13)]
            + [
                symmetric_group(3),
                generate([perm(4, (1, 2)), perm(4, (3, 4))]),  # Z/2 x Z/2
                quaternion_group(),
                alternating_group(4),
                alternating_group(5),
            ]
        )
    return CORPUS


class TestTableStructure:
    def test_z3_degrees_and_values(self):
        tab = character_table(cyclic_group(3))
        assert tab.degrees == [1, 1, 1]
        z3 = zeta(3)
        vals = {tab.rows[i][1].coords for i in range(3)}
        assert vals == {v.coords for v in (Cyclotomic.from_rational(1, 3), z3, z3 * z3)}

    def test_inverse_class_is_the_last_power(self):
        # rep^(o-1) = rep^-1 for rep of order o: the power table's last
        # column against a class lookup of each inverse, on the criterion-9
        # groups, S5 and S6 and on copies with their points relabelled
        rng = random.Random(1)
        for G in _table_groups() + [symmetric_group(5), symmetric_group(6)]:
            n = G.degree
            pi = Permutation(rng.sample(range(1, n + 1), n))
            relabelled = PermGroup([pi.inverse() * g * pi for g in G.generators])
            for H in (G, relabelled):
                tab = CharacterTable(H)
                assert tab.inverse_class == [tab.class_of(rep.inverse()) for rep, _ in tab.classes]

    def test_s3_degrees(self):
        tab = character_table(symmetric_group(3))
        assert sorted(tab.degrees) == [1, 1, 2]

    def test_a5_degrees(self):
        tab = character_table(alternating_group(5))
        assert sorted(tab.degrees) == [1, 3, 3, 4, 5]

    def test_corpus_orthogonality_and_degree_sum(self):
        # orthogonality is checked in the constructor; re-check the sums here
        for G in corpus():
            tab = character_table(G)
            assert sum(d * d for d in tab.degrees) == G.order
            assert len(tab.rows) == len(tab.classes)
            for i in range(len(tab.rows)):
                for j in range(len(tab.rows)):
                    assert tab.inner_product(tab.rows[i], tab.rows[j]) == (1 if i == j else 0)

    def test_column_orthogonality(self):
        for G in (symmetric_group(3), alternating_group(4), quaternion_group()):
            tab = character_table(G)
            r = len(tab.classes)
            for j in range(r):
                for k in range(r):
                    acc = Cyclotomic.zero(tab.exponent)
                    for i in range(r):
                        # conj(chi(g_k)) = chi(g_k^-1)
                        acc = acc + tab.rows[i][j] * tab.rows[i][tab.inverse_class[k]]
                    expect = G.order // tab.classes[j][1] if j == k else 0
                    assert acc == Cyclotomic.from_rational(expect, tab.exponent)

    def test_abelian_all_linear(self):
        for n in range(1, 13):
            tab = character_table(cyclic_group(n))
            assert tab.degrees == [1] * n

    def test_algebraic_integer_values_for_integral_tables(self):
        # all values are sums of roots of unity: integer coordinates
        tab = character_table(alternating_group(4))
        for row in tab.rows:
            for v in row:
                assert all(c.denominator == 1 for c in v.coords)

    def test_trivial_group(self):
        tab = character_table(trivial_group(1))
        assert tab.degrees == [1]


class TestFixedSpaceDim:
    def test_a5_four_dim_on_3cycle(self):
        tab = character_table(alternating_group(5))
        row4 = tab.degrees.index(4)
        assert tab.fixed_space_dim(row4, perm(5, (1, 2, 3))) == 2

    def test_a5_four_dim_on_5cycle(self):
        tab = character_table(alternating_group(5))
        row4 = tab.degrees.index(4)
        assert tab.fixed_space_dim(row4, perm(5, (1, 2, 3, 4, 5))) == 0

    def test_trivial_character_always_one(self):
        for G in (symmetric_group(3), alternating_group(4)):
            tab = character_table(G)
            for rep, _ in tab.classes:
                assert tab.fixed_space_dim(0, rep) == 1

    def test_foreign_element_rejected(self):
        tab = character_table(cyclic_group(3))
        with pytest.raises(ValueError):
            tab.fixed_space_dim(0, perm(3, (1, 2)))

    def test_burnside_orbit_agreement(self):
        # fixed dim of the permutation character at g = #orbits of <g>
        for G in corpus():
            if G.degree > 8:
                continue
            pc = perm_character(G)
            for rep, _ in G.conjugacy_classes():
                orbits = 0
                seen = [False] * G.degree
                for s in range(G.degree):
                    if seen[s]:
                        continue
                    orbits += 1
                    i = s
                    while not seen[i]:
                        seen[i] = True
                        i = rep.imgs[i]
                fixed = sum(
                    m * pc.table.fixed_space_dim(i, rep) for i, m in enumerate(pc.mults) if m
                )
                assert fixed == orbits


class TestPermCharacter:
    def test_a5_natural(self):
        G = alternating_group(5)
        tab = character_table(G)
        pc = perm_character(G)
        expect = [0] * len(tab.degrees)
        expect[0] = 1
        expect[tab.degrees.index(4)] = 1
        assert pc.mults == expect

    def test_regular_action(self):
        G = symmetric_group(3)
        from belyilab.permgroup import regular_representation

        R = PermGroup(
            [Permutation(r, zero_based=True) for r in regular_representation(G, G.generators)]
        )
        tab = character_table(R)
        pc = perm_character(R)
        assert pc.mults == list(tab.degrees)

    def test_z2_on_two_points(self):
        G = cyclic_group(2)
        pc = perm_character(G)
        assert pc.mults == [1, 1]

    def test_degree_identity(self):
        for G in corpus():
            pc = perm_character(G)
            assert pc.degree == G.degree


class TestVirtualCharacters:
    def test_decompose_regular(self):
        G = symmetric_group(3)
        tab = character_table(G)
        reg = VirtualCharacter(tab, list(tab.degrees))
        vals = reg.values()
        assert tab.decompose(vals) == list(tab.degrees)
        assert reg.degree == G.order

    def test_restrict_a5_four_dim_to_z3(self):
        G = alternating_group(5)
        tab = character_table(G)
        g = perm(5, (1, 2, 3))
        sub = generate([g])
        subtab = character_table(sub)
        row4 = tab.degrees.index(4)
        mults = [0] * len(tab.degrees)
        mults[row4] = 1
        vc = VirtualCharacter(tab, mults)
        res = vc.restrict(subtab)
        # eigenvalues 1, 1, z3, z3^2: multiplicities (2,1,1) over the z3 characters
        assert sorted(res.mults) == [1, 1, 2]
        assert res.mults[0] == 2  # trivial appears twice

    def test_restrict_reproduces_values_at_the_larger_conductor(self):
        # decompose takes the subgroup's class values at the big table's
        # conductor; lifting the restriction back must give them again
        for G in (symmetric_group(4), alternating_group(5)):
            n = G.degree
            tab = character_table(G)
            v4 = generate([perm(n, (1, 2), (3, 4)), perm(n, (1, 3), (2, 4))])
            for sub in [generate([rep]) for rep, _ in tab.classes] + [v4]:
                subtab = character_table(sub)
                for i in range(tab.nclasses()):
                    chi = VirtualCharacter(tab, [int(j == i) for j in range(tab.nclasses())])
                    res = chi.restrict(subtab)
                    assert res.degree == tab.degrees[i]
                    expect = [chi.values()[G.class_index()[rep.imgs]] for rep, _ in subtab.classes]
                    assert [v.lift(tab.exponent) for v in res.values()] == expect

    def test_decompose_rejects_a_lifted_non_character(self):
        # half the trivial character of Z/3, read at conductor 6: the
        # multiplicities are not integers
        tab = character_table(cyclic_group(3))
        half = [Cyclotomic.from_rational(Fraction(1, 2), 6)] * tab.nclasses()
        with pytest.raises(TableError):
            tab.decompose(half)
        # zeta_6 at every class: its multiplicity of the trivial character
        # is zeta_6 itself
        z6 = [zeta(6)] * tab.nclasses()
        with pytest.raises(TableError):
            tab.decompose(z6)

    def test_trivial_and_arithmetic(self):
        tab = character_table(symmetric_group(3))
        t = VirtualCharacter(tab, [1] + [0] * (tab.nclasses() - 1))
        assert t.degree == 1
        r = VirtualCharacter(tab, list(tab.degrees))
        assert (r - t).degree == tab.order - 1


class TestDixonChecks:
    def test_a_wrong_degree_fails_the_degree_sum(self, monkeypatch):
        # one degree of Dixon's list raised by 1: the rows, and so their
        # orthogonality, are untouched, and only the degree sum sees it
        dixon = CharacterTable._dixon

        def bumped(self):
            rows, degrees = dixon(self)
            return rows, degrees[:-1] + [degrees[-1] + 1]

        monkeypatch.setattr(CharacterTable, "_dixon", bumped)
        with pytest.raises(TableError, match="degree squares do not sum to the group order"):
            CharacterTable(symmetric_group(3))

    def test_a_table_with_no_trivial_row_is_refused(self, monkeypatch):
        # _dixon finds the trivial row by comparing each row with the
        # constant 1 from Cyclotomic.from_rational; read as 2, that
        # constant matches no row, and the first row after the sort is
        # not trivial
        real = Cyclotomic.from_rational.__func__
        doubled = classmethod(lambda cls, r, N: real(cls, 2 * r, N))
        monkeypatch.setattr(Cyclotomic, "from_rational", doubled)
        with pytest.raises(TableError, match="trivial character missing"):
            CharacterTable(symmetric_group(3))

    @pytest.mark.parametrize(
        "make", [lambda: alternating_group(4), lambda: cyclic_group(5)], ids=["A4", "Z5"]
    )
    def test_a_wrong_root_of_unity_fails_the_multiplicity_bound(self, monkeypatch, make):
        # 2 in place of a primitive N-th root of unity mod p (p = 13 for A4,
        # N = 6, and p = 11 for Z/5; 2 has order 12 and 10 there): the
        # eigenvalue multiplicities read mod p are no longer counts, and
        # the first one past the character's degree stops the lift before
        # the rows reach the orthogonality check
        monkeypatch.setattr(chartab, "root_of_unity_mod", lambda p, N: 2)
        with pytest.raises(TableError, match="eigenvalue multiplicity \\d+ exceeds degree"):
            CharacterTable(make())

    # A power table with two entries of one row swapped: rep^a and rep^b
    # trade classes, so the lift reads chi(rep^b) where it wants chi(rep^a).

    def test_a_swapped_power_fails_the_multiplicity_bound(self, monkeypatch):
        # Z/5, rep^1 and rep^2 of the generator's class: the multiplicities
        # read mod 11 are no longer counts, and the first past the degree
        # stops the lift
        G = cyclic_group(5)
        monkeypatch.setattr(G, "power_table", swapped_powers(G.power_table, [((1, 1), (1, 2))]))
        with pytest.raises(TableError, match="eigenvalue multiplicity \\d+ exceeds degree 1"):
            CharacterTable(G)

    def test_a_swapped_power_fails_degree_recovery(self, monkeypatch):
        # A4, rep and rep^2 of a 3-cycle's class, which lie in the two
        # classes of 3-cycles: the inverse class is the last power's, so
        # the class reads as its own inverse and the degrees that Dixon's
        # norms give are wrong
        G = alternating_group(4)
        ci = next(c for c, row in enumerate(G.power_table) if len(row) == 3)
        monkeypatch.setattr(G, "power_table", swapped_powers(G.power_table, [((ci, 1), (ci, 2))]))
        with pytest.raises(TableError, match="degree is not recoverable"):
            CharacterTable(G)

    def test_a_degree_square_that_is_only_a_residue_fails_degree_recovery(self, monkeypatch):
        # Z/5, rep and rep^4 = rep^-1 of the generator's class swapped: the
        # class reads as its own inverse, and a norm sum gives d^2 = 3 mod
        # 11.  3 = 5^2 mod 11 is a square mod p but no integer square, so
        # a root taken mod p would read a degree 5 > sqrt(|G|)
        G = cyclic_group(5)
        monkeypatch.setattr(G, "power_table", swapped_powers(G.power_table, [((1, 1), (1, 4))]))
        with pytest.raises(TableError, match="degree is not recoverable"):
            CharacterTable(G)

    def test_rows_that_are_not_orthonormal_fail_validation(self):
        # A4's rows with the trivial row repeated, then with the trivial
        # row off by one at the class of (1 2)(3 4): over the classes of
        # sizes 1, 4, 4 and 3 its norm is (1 + 4 + 4 + 3 * 4) / 12
        tab = CharacterTable(alternating_group(4))
        rows = tab.rows
        tab.rows = [rows[0], rows[0]] + rows[2:]
        with pytest.raises(TableError, match="row orthogonality fails at \\(0, 1\\)"):
            tab._validate()
        ci = tab.class_of(perm(4, (1, 2), (3, 4)))
        one = Cyclotomic.from_rational(1, tab.exponent)
        tab.rows = [[v + one if j == ci else v for j, v in enumerate(rows[0])]] + rows[1:]
        with pytest.raises(TableError, match="21 / 12 is not an integer"):
            tab._validate()

    def test_a_swapped_power_fails_the_fixed_space_mean(self, monkeypatch):
        # fixed_space_dim averages a row over all powers of g, so a swap
        # inside one row leaves it unchanged; a swap between the rows of a
        # 3-cycle and a 5-cycle in A5 puts a 5-cycle among the 3-cycle's
        # powers, and the 3-dimensional rows' mean there is irrational
        G = alternating_group(5)
        tab = CharacterTable(G)
        assert tab.powers is G.power_table  # the table reads the group's
        c3 = tab.class_of(perm(5, (1, 2, 3)))
        c5 = tab.class_of(perm(5, (1, 2, 3, 4, 5)))
        monkeypatch.setattr(tab, "powers", swapped_powers(tab.powers, [((c3, 1), (c5, 1))]))
        row3 = tab.degrees.index(3)
        with pytest.raises(TableError, match="is not an integer"):
            tab.fixed_space_dim(row3, perm(5, (1, 2, 3)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cyclic_group(30),
            lambda: generate([perm(12, (2 * i + 1, 2 * i + 2)) for i in range(6)]),
        ],
        ids=["Z30-lift", "Z2^6-classes"],
    )
    def test_refused_before_the_power_table(self, monkeypatch, make):
        # the class and lift limits refuse a table before anything reads
        # the group's power table
        def unbuilt(G):
            raise AssertionError("power table built before the size check")

        monkeypatch.setattr(PermGroup, "power_table", property(unbuilt))
        with pytest.raises(PreconditionError, match="character table too large"):
            CharacterTable(make())
