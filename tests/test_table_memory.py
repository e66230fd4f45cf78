"""A character table holds its group's class data, not the group.

`character_table(G)` memoizes the table on G, so a table that pointed
back at G would make a reference cycle: neither would be freed until a
full garbage collection.  These tests check that a table works after its
group is gone, and that the library's usual calls leave no cyclic garbage
behind: with the collector off, dropping their results must free
everything by reference counting alone.
"""

import gc
import weakref

import pytest

from belyilab.chartab import character_table, perm_character
from belyilab.cyclotomic import Cyclotomic
from belyilab.cli import _table_json
from belyilab.cover import BelyiCover
from belyilab.descent import descent_report
from belyilab.permgroup import Permutation, PermGroup, generate
from belyilab.relmod import rational_character, schreier_data

A5_GENS = [Permutation.from_cycles(5, [(1, 2, 3)]), Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])]


def answers(tab, G):
    """fixed_space_dim on every row and element, the decomposition of the
    permutation character and its restriction to <(1 2)(3 4)>, all read
    through the table alone; G supplies the elements."""
    fixed = [[tab.fixed_space_dim(i, g) for g in G.elements] for i in range(tab.nclasses())]
    pc = perm_character(G, tab)
    values = [
        sum((row[j] * m for row, m in zip(tab.rows, pc.mults)), Cyclotomic.zero(tab.exponent))
        for j in range(tab.nclasses())
    ]
    sub = generate([Permutation.from_cycles(5, [(1, 2), (3, 4)])])
    return fixed, tab.decompose(values), pc.restrict(character_table(sub)).mults


class TestTableOutlivesGroup:
    def test_answers_unchanged_after_the_group_is_freed(self):
        G = PermGroup(A5_GENS)
        expect = answers(character_table(G), G)

        lone = PermGroup(A5_GENS)
        gone = weakref.ref(lone)
        tab = character_table(lone)
        del lone
        gc.collect()
        assert gone() is None
        assert answers(tab, G) == expect

    def test_membership_still_checked(self):
        tab = character_table(PermGroup(A5_GENS))
        gc.collect()
        with pytest.raises(ValueError, match="does not belong"):
            tab.fixed_space_dim(0, Permutation.from_cycles(5, [(1, 2)]))
        with pytest.raises(ValueError, match="does not belong"):
            tab.fixed_space_dim(0, Permutation.identity(6))
        with pytest.raises(ValueError, match="does not belong"):
            tab.fixed_space_dim(0, (0, 1, 2, 3, 4))


def cyclic_garbage(op):
    """Objects the collector finds unreachable after op() runs with the
    collector off and its result is dropped."""
    gc.collect()
    gc.disable()
    try:
        op()
        return gc.collect()
    finally:
        gc.enable()


def chartab_op():
    # the shape of one op of the benchmark's chartab workload
    G = PermGroup(A5_GENS)
    tab = character_table(G)
    chi = perm_character(G, tab)
    [tab.fixed_space_dim(i, rep) for i in range(tab.nclasses()) for rep, _ in tab.classes]
    sub = PermGroup([Permutation.from_cycles(5, [(1, 2), (3, 4)])])
    chi.restrict(character_table(sub))
    _table_json(tab)


def relmod_op():
    H = PermGroup(A5_GENS)
    rational_character(schreier_data(H, list(H.generators)))


def descent_op():
    x = Permutation.from_cycles(5, [(1, 2, 3)])
    y = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    for cover in (BelyiCover(x, y), BelyiCover.regular(x, y)):
        descent_report(cover, refine=True).to_json()


@pytest.mark.parametrize(
    "op", [chartab_op, relmod_op, descent_op], ids=["chartab", "relmod", "descent"]
)
def test_no_cyclic_garbage(op):
    assert cyclic_garbage(op) == 0
