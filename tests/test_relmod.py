import math

import pytest

import slow_paths
from belyilab import corpus, relmod
from belyilab.cohomology import Cocycle2, build_extension, h2
from belyilab.errors import InternalError, PreconditionError
from belyilab.groups import automorphisms
from belyilab.permgroup import (
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    generate,
    symmetric_group,
    trivial_group,
)
from belyilab.relmod import (
    extension_cocycle,
    rational_character,
    reduce_mod,
    rewrite,
    schreier_data,
    verify_main_theorem,
)


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def z2_rank3():
    # F_2 -> Z/2 with x -> the involution, y -> identity
    H = cyclic_group(2)
    inv = H.elements[1]
    return schreier_data(H, [inv, H.identity()])


class TestSchreierData:
    def test_z2_rank3_generators(self):
        rm = z2_rank3()
        assert rm.rank == 3
        assert rm.free_gens == [(2,), (1, 1), (1, 2, -1)]

    def test_trivial_group_rank_d(self):
        H = trivial_group(1)
        rm = schreier_data(H, [H.identity(), H.identity()])
        assert rm.rank == 2
        assert rm.free_gens == [(1,), (2,)]

    def test_z3_rank4(self):
        H = cyclic_group(3)
        g = H.generators[0]
        rm = schreier_data(H, [g, H.identity()])
        assert rm.rank == 4

    def test_non_generating_rejected(self):
        H = cyclic_group(4)
        g = H.generators[0]
        with pytest.raises(PreconditionError):
            schreier_data(H, [g * g, H.identity() * g * g * g * g])

    def test_no_cayley_table_is_built(self):
        # the tree reads the images' regular action, d tuples of |H| points
        H = symmetric_group(4)
        rm = schreier_data(H, padded_generators(H, 3))
        rational_character(rm)
        assert rm.rank == 49 and "_table" not in vars(H)

    @pytest.mark.parametrize("limit, refused", [(6, False), (5, True)])
    def test_order_limit_edges(self, monkeypatch, limit, refused):
        # S3 at the bound is admitted, and past it refused before H is
        # enumerated (the real bound, 4096, is patched low)
        monkeypatch.setattr(relmod, "TABLE_LIMIT", limit)
        H = symmetric_group(3)
        if refused:
            with pytest.raises(PreconditionError, match="too large for a relation module"):
                schreier_data(H, H.generators)
            assert "_elt_map" not in vars(H)
        else:
            assert schreier_data(H, H.generators).rank == 6 * (len(H.generators) - 1) + 1

    def test_transversal_is_prefix_closed_shortlex(self):
        H = symmetric_group(3)
        rm = schreier_data(H, list(H.generators))
        words = set(rm.transversal)
        assert len(words) == H.order
        for w in words:
            assert w[:-1] in words or w == ()
        # the word at position h evaluates to H.elements[h] under the
        # presentation's images, multiplied as permutations; image i is
        # where its regular action sends the identity, position 0
        for h, word in enumerate(rm.transversal):
            value = H.identity()
            for letter in word:
                g = H.elements[rm.acts[abs(letter) - 1][0]]
                value = value * (g if letter > 0 else g.inverse())
            assert value == H.elements[h]


class TestRewrite:
    def test_free_generators_are_units(self):
        rm = z2_rank3()
        for i, w in enumerate(rm.free_gens):
            vec = rewrite(rm, w)
            assert vec == [1 if j == i else 0 for j in range(rm.rank)]

    def test_conjugated_generator(self):
        rm = z2_rank3()
        # x * y * x^-1 is the third free generator
        assert rewrite(rm, (1, 2, -1)) == [0, 0, 1]

    def test_commutator_vanishes(self):
        rm = z2_rank3()
        # [y, x^2] = y x x y^-1 x^-1 x^-1
        assert rewrite(rm, (2, 1, 1, -2, -1, -1)) == [0, 0, 0]

    def test_additive_on_products(self):
        rm = z2_rank3()
        w1 = (1, 2, -1, 2)
        w2 = (1, 1, 2)
        lhs = rewrite(rm, w1 + w2)
        assert lhs == [a + b for a, b in zip(rewrite(rm, w1), rewrite(rm, w2))]

    def test_word_outside_kernel_rejected(self):
        rm = z2_rank3()
        with pytest.raises(PreconditionError):
            rewrite(rm, (1,))

    @pytest.mark.parametrize("letter", [0, 3, -3])
    def test_letter_outside_the_generators_rejected(self, letter):
        # d = 2, so the letters are +-1 and +-2
        rm = z2_rank3()
        with pytest.raises(PreconditionError):
            rewrite(rm, (1, letter, -1))

    def test_unreduced_word(self):
        rm = z2_rank3()
        # x y y^-1 x^-1 = 1 and x x^-1 = 1 read as written
        assert rewrite(rm, (1, 2, -2, -1)) == [0, 0, 0]
        assert rewrite(rm, (1, 2, -1, 1, -1)) == [0, 0, 1]


def padded_generators(H, d):
    gens = H.small_generating_set()
    if len(gens) > d:
        return None
    return gens + [H.identity()] * (d - len(gens))


def character_corpus():
    return [
        trivial_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(6),
        cyclic_group(8),
        generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))]),  # V4
        symmetric_group(3),
        generate([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))]),  # D4
        generate(
            [
                Permutation([2, 3, 4, 1, 6, 7, 8, 5]),
                Permutation([5, 8, 7, 6, 3, 2, 1, 4]),
            ]
        ),  # Q8 on its regular action
        alternating_group(4),
        generate([perm(6, (1, 2, 3, 4, 5, 6)), perm(6, (1, 6), (2, 5), (3, 4))]),  # D6
        symmetric_group(4),
    ]


class TestRationalCharacter:
    def test_z2_d2_is_trivial_plus_regular(self):
        rm = z2_rank3()
        chi = rational_character(rm)
        # 2*trivial + 1*sign
        assert chi.mults == [2, 1]
        assert chi.degree == 3

    def test_trivial_group_d2(self):
        H = trivial_group(1)
        rm = schreier_data(H, [H.identity(), H.identity()])
        assert rational_character(rm).mults == [2]

    def test_s3_d2(self):
        H = symmetric_group(3)
        rm = schreier_data(H, padded_generators(H, 2))
        chi = rational_character(rm)
        tab = chi.table
        expected = [d for d in tab.degrees]
        expected[0] += 1
        assert chi.mults == expected

    @pytest.mark.parametrize("h", [1, 5])
    def test_trace_check_catches_a_bumped_diagonal(self, h):
        # the trace at h != identity must be 1; raising one diagonal entry
        # of one action matrix must be caught
        H = symmetric_group(3)
        rm = schreier_data(H, padded_generators(H, 2))
        rm.action[h][h][h] += 1
        with pytest.raises(InternalError):
            rational_character(rm)

    def test_rank_and_character_identity_over_corpus(self):
        # rank = |H|(d-1)+1 and character = trivial + (d-1)*regular for
        # groups of order up to 24 and d in {1, 2, 3}
        for H in character_corpus():
            for d in (1, 2, 3):
                images = padded_generators(H, d)
                if images is None:
                    continue
                rm = schreier_data(H, images)
                assert rm.rank == H.order * (d - 1) + 1
                chi = rational_character(rm)
                expected = [(d - 1) * deg for deg in chi.table.degrees]
                expected[0] += 1
                assert chi.mults == expected


class TestModReduction:
    def test_cocycle_is_normalized_and_valid(self):
        rm = z2_rank3()
        beta = extension_cocycle(rm, 2)  # Cocycle2 validates on build
        # positions: 0 is the identity, 1 the involution x
        assert beta.table[0][1] == (0, 0, 0)
        # beta(x, x) = rewrite(s(x)^2) = class of x^2, the second generator
        assert beta.table[1][1] == (0, 1, 0)

    def test_class_nonzero_for_z2(self):
        rm = z2_rank3()
        M = reduce_mod(rm, 2)
        beta = extension_cocycle(rm, 2)
        data = h2(M)
        assert data.class_of(beta) != data.class_of(Cocycle2.zero(M))

    def test_trivial_group_zero_cocycle(self):
        H = trivial_group(1)
        rm = schreier_data(H, [H.identity(), H.identity()])
        beta = extension_cocycle(rm, 3)
        assert beta.table[0][0] == (0, 0)

    def test_modulus_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            reduce_mod(z2_rank3(), 1)


class TestMainTheorem:
    def test_z2_d2_m2(self):
        rm = z2_rank3()
        report = verify_main_theorem(rm, 2)
        assert report["order_P"] == 16
        assert report["equal"]

    def test_trivial_group(self):
        H = trivial_group(1)
        rm = schreier_data(H, [H.identity()])
        for m in (2, 3, 4):
            report = verify_main_theorem(rm, m)
            assert report["equal"]
            # Aut_{H,beta} is the full unit group of Z/m
            assert report["stabilizer_count"] == len(
                [a for a in range(1, m) if math.gcd(a, m) == 1]
            )

    def test_z3_d1(self):
        H = cyclic_group(3)
        rm = schreier_data(H, [H.generators[0]])
        assert rm.rank == 1
        for m in (2, 4):
            report = verify_main_theorem(rm, m)
            assert report["equal"]

    def test_scale_guard(self):
        # trivial H at d = 3, m = 4: End_H(R-bar/4) is all 4^9 matrices,
        # refused by aut_h before anything is enumerated
        H = trivial_group(1)
        rm = schreier_data(H, [H.identity()] * 3)
        with pytest.raises(PreconditionError, match="too large for automorphism enumeration"):
            verify_main_theorem(rm, 4)


def replace_last_derivation(monkeypatch, matrix, order=None):
    """Make relmod._derivations return matrix(rank) in place of its last
    generator, the one with D(x_d) = e_rank, for groups of the given order
    or for all."""
    derivations = relmod._derivations

    def patched(rm, m):
        out = derivations(rm, m)
        return out if order not in (None, rm.H.order) else out[:-1] + [matrix(rm.rank)]

    monkeypatch.setattr(relmod, "_derivations", patched)


def zero_matrix(k):
    return ((0,) * k,) * k


class TestMainTheoremChecks:
    @pytest.mark.parametrize("order", [2, 1, 3], ids=["Z2,d=2", "trivial", "Z3,d=1"])
    def test_a_lost_derivation_fails_corpus_criterion_6(self, monkeypatch, order):
        # the fault reaches one of the criterion's three checks at a time
        replace_last_derivation(monkeypatch, zero_matrix, order)
        monkeypatch.setattr(corpus, "CRITERIA", [row for row in corpus.CRITERIA if row[0] == 6])
        [result] = corpus.run_corpus()
        assert result["criterion"] == 6 and result["pass"] is False

    def test_a_derivation_off_the_commutant_is_refused(self, monkeypatch):
        def corner(k):
            return tuple(tuple(int((r, c) == (0, 1)) for c in range(k)) for r in range(k))

        replace_last_derivation(monkeypatch, corner)
        with pytest.raises(InternalError, match="does not commute"):
            verify_main_theorem(z2_rank3(), 2)


def fixing_cases():
    """(H, images, m): the golden --verify-main cases (the CLI pads the
    group's generators with identities up to the rank) and instances like
    the benchmark's, with a relabelled Z/3 sent to the square of its
    generator."""
    z2, z3, z4, z5 = (cyclic_group(n) for n in (2, 3, 4, 5))
    trivial = trivial_group(1)
    relabelled = generate([perm(3, (2, 1, 3))])
    return [
        (z2, [z2.generators[0], z2.identity()], 2),
        (z3, [z3.generators[0]], 3),
        (z4, [z4.generators[0]], 8),
        (z5, [z5.generators[0]], 9),
        (z2, [z2.generators[0]], 32),
        (trivial, [trivial.identity()], 2),
        (trivial, [trivial.identity()], 3),
        (trivial, [trivial.identity()], 4),
        (z3, [z3.generators[0]], 2),
        (z3, [z3.generators[0]], 4),
        (relabelled, [relabelled.generators[0] ** 2], 4),
    ]


@pytest.mark.parametrize("H, images, m", fixing_cases())
def test_fiber_search_finds_the_h_fixing_automorphisms(H, images, m):
    # the P-table oracle: P is generated by the images of x_1..x_d, so
    # searching each one's H-fiber finds exactly the automorphisms of P
    # that fix H pointwise
    rm = schreier_data(H, images)
    beta = extension_cocycle(rm, m)
    E = build_extension(beta.module, beta)
    T = E.group
    brute = [
        f
        for f in automorphisms(T)
        if all(T.names[f[a]][0] == T.names[a][0] for a in range(T.n))
    ]
    found = slow_paths.h_fixing_automorphisms(rm, E, m)
    assert len(found) == len(brute) > 0
    assert set(map(tuple, found)) == set(map(tuple, brute))
    assert verify_main_theorem(rm, m)["extension_fixing_count"] == len(brute)
