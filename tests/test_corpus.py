"""Faults that reach one corpus check each, run through run_corpus: the
criterion holding the check fails with its message and every other
criterion still passes."""

import pytest

from belyilab import corpus
from belyilab.chartab import VirtualCharacter
from belyilab.cover import ClosureData


def raised_at_trivial(character):
    """character with its multiplicity at index 0, the trivial row, raised
    by one."""
    return VirtualCharacter(character.table, [character.mults[0] + 1] + character.mults[1:])


def shifted_middle(tate_characters):
    def patched(cd):
        left, middle, jac = tate_characters(cd)
        return left, raised_at_trivial(middle), jac

    return patched


def shifted_perm_character(perm_character):
    return lambda G: raised_at_trivial(perm_character(G))


@pytest.mark.parametrize(
    "name, fault, number, detail",
    [
        # the middle term stays >= n_V, so only the middle-term check sees it
        ("tate_characters", shifted_middle, 10, "middle term at cover 1"),
        # the trivial row fixes a line at every class, so the fixed-space
        # count is one over the cycle count at the first group, Z/2
        ("perm_character", shifted_perm_character, 9, "Burnside at |G|=2"),
    ],
    ids=["criterion10-middle-term", "criterion9-burnside"],
)
def test_a_shifted_character_fails_its_criterion_only(monkeypatch, name, fault, number, detail):
    monkeypatch.setattr(corpus, name, fault(getattr(corpus, name)))
    results = corpus.run_corpus()
    assert [r["criterion"] for r in results if not r["pass"]] == [number]
    [failed] = [r for r in results if not r["pass"]]
    assert failed["detail"] == "AssertionError: " + detail


def test_criterion10_computes_each_closures_tate_characters_once(monkeypatch):
    # criterion_rows, criterion 10 and refine_search each read the
    # characters of one closure per cover; the body of tate_characters
    # subtracts once, as jac = middle - left
    closures, subtractions = [], []
    init, sub = ClosureData.__init__, VirtualCharacter.__sub__

    def recording_init(self, *args):
        closures.append(self)
        init(self, *args)

    def counting_sub(self, other):
        subtractions.append(self.table)
        return sub(self, other)

    monkeypatch.setattr(ClosureData, "__init__", recording_init)
    monkeypatch.setattr(VirtualCharacter, "__sub__", counting_sub)
    corpus.criterion_10()
    assert len(closures) == len(subtractions) == len(corpus.random_covers())
    assert subtractions == [cd._tate[0].table for cd in closures]
