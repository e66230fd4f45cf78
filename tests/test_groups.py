import operator
from collections import Counter

import pytest

from belyilab.errors import PreconditionError
from belyilab.groups import (
    TableGroup,
    automorphisms,
    homomorphism_from_generators,
    map_from_generators,
)
from belyilab.permgroup import Permutation, generate, greedy_generators
from slow_paths import table_from_elements


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def cyclic_table(n):
    """Z/n with element i standing for i."""
    return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def s3_table():
    return TableGroup.from_permgroup(generate([perm(3, (1, 2, 3)), perm(3, (1, 2))]))


class TestTableGroup:
    def test_bad_table_rejected(self):
        with pytest.raises(PreconditionError):
            TableGroup([[0, 0], [1, 1]])
        with pytest.raises(PreconditionError):
            TableGroup([[1, 0], [0, 1]])  # 0 is not the identity

    def test_cyclic_orders(self):
        T = cyclic_table(6)
        assert sorted(T.order_of(a) for a in range(6)) == [1, 2, 3, 3, 6, 6]
        assert T.inv[1] == 5

    def test_from_permgroup_s3(self):
        T = s3_table()
        assert T.n == 6
        assert any(T.mult(a, b) != T.mult(b, a) for a in range(6) for b in range(6))
        assert Counter(map(T.order_of, range(6))) == {1: 1, 2: 3, 3: 2}

    @pytest.mark.parametrize(
        "gens",
        [
            [perm(1)],
            [perm(4, (1, 2, 3, 4)), perm(4, (1, 2))],
            [Permutation([2, 3, 4, 1, 6, 7, 8, 5]), Permutation([5, 8, 7, 6, 3, 2, 1, 4])],
            [perm(5, (1, 2, 3, 4, 5)), perm(5, (1, 2))],
            # D5 on the points relabelled by 1->4->2->5->3->1
            [perm(5, (4, 5, 1, 2, 3)), perm(5, (5, 3), (1, 2))],
        ],
        ids=["trivial", "S4", "Q8", "S5", "D5-relabelled"],
    )
    def test_from_permgroup_matches_permutation_products(self, gens):
        G = generate(gens)
        T = TableGroup.from_permgroup(G)
        slow = table_from_elements(G.elements, G.identity(), operator.mul)
        assert T.names == slow.names == G.elements
        assert T.table == slow.table
        assert T.index == slow.index
        assert TableGroup.from_permgroup(G) is T

    def test_from_permgroup_degree_zero(self):
        # the group on no points is trivial; the CLI accepts it as a group
        G = generate([Permutation([])])
        T = TableGroup.from_permgroup(G)
        assert T.table == ((0,),) and T.names == G.elements

    def test_closure_and_generation(self):
        T = cyclic_table(6)
        assert not T.generates([2])
        assert T.generates([1])
        assert T.generates([2, 3])

    def test_gens_are_the_greedy_generators(self):
        for T in (cyclic_table(6), s3_table()):
            assert T.gens == greedy_generators(range(T.n), 0, T.mult)
            assert T.generates(T.gens)

    def test_words_reconstruct(self):
        # each element, written as a word in gens, evaluates back to itself
        T = s3_table()
        assert map_from_generators(T, T, T.gens, T.gens) == list(range(T.n))
        with pytest.raises(PreconditionError, match="do not generate"):
            map_from_generators(T, T, [T.gens[0]], [T.gens[0]])


class TestHomomorphisms:
    def test_listed_images_must_hold(self):
        # the identity as a generator sent to 1, and a repeated generator
        # with two images: the word tree reads neither second image
        T = cyclic_table(3)
        assert map_from_generators(T, T, [1, 0], [1, 1]) is None
        assert map_from_generators(T, T, [1, 1], [1, 2]) is None
        assert homomorphism_from_generators(T, T, [1, 0], [1, 1]) is None
        assert map_from_generators(T, T, [1, 0, 1], [2, 0, 2]) == [0, 2, 1]

    def test_quotient_map(self):
        src = cyclic_table(4)
        dst = cyclic_table(2)
        f = homomorphism_from_generators(src, dst, [1], [1])
        assert f == [0, 1, 0, 1]

    def test_non_homomorphism_is_none(self):
        # no homomorphism Z/4 -> Z/3 sends the generator to 1
        src = cyclic_table(4)
        dst = cyclic_table(3)
        assert homomorphism_from_generators(src, dst, [1], [1]) is None

    def test_doubling_is_an_endomorphism(self):
        src = cyclic_table(4)
        assert homomorphism_from_generators(src, src, [1], [2]) == [0, 2, 0, 2]

    def test_automorphism_counts(self):
        assert len(automorphisms(cyclic_table(5))) == 4
        assert len(automorphisms(s3_table())) == 6
        v4 = TableGroup.from_permgroup(
            generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
        )
        assert len(automorphisms(v4)) == 6
