import random
import sys

import pytest

import slow_paths
from belyilab import chartab, descent
from belyilab import cover as cover_module
from belyilab.chartab import VirtualCharacter, character_table
from belyilab.cover import BelyiCover, analysis_report, genus, validate, tate_characters
from belyilab.descent import (
    DESCENDS,
    DOES_NOT_DESCEND,
    INCONCLUSIVE,
    descent_report,
    refine_search,
    subgroup_certify,
)
from belyilab.corpus import random_covers
from belyilab.errors import InternalError, PreconditionError
from belyilab.permgroup import Permutation, PermGroup, trivial_group
from make_golden import fixture_covers, seeded_covers


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def a5_regular_cover():
    return BelyiCover.regular(perm(5, (1, 2, 3)), perm(5, (1, 2, 3, 4, 5)))


def cubic_cover():
    return BelyiCover(perm(3, (1, 2, 3)), perm(3, (1, 2, 3)))


def isogeny_cover():
    return BelyiCover(Permutation([2, 4, 5, 1, 6, 3]), Permutation([3, 4, 5, 6, 1, 2]))


class TestVerdicts:
    def test_a5_regular_does_not_descend(self):
        rep = descent_report(a5_regular_cover())
        assert rep.verdict == DOES_NOT_DESCEND
        row4 = next(r for r in rep.rows if r["degree"] == 4)
        assert row4["n_V"] == 2 and row4["m_V"] == 4 and not row4["passes"]

    def test_a5_regular_no_certificates_even_refined(self):
        rep = descent_report(a5_regular_cover(), refine=True)
        assert rep.verdict == DOES_NOT_DESCEND
        assert rep.certificates == []

    def test_isogeny_cover_inconclusive(self):
        rep = descent_report(isogeny_cover())
        assert rep.verdict == INCONCLUSIVE
        row = rep.rows[0]  # trivial character row
        assert row["n_V"] == 2 and row["m_V"] == 4 and not row["passes"]

    def test_isogeny_cover_refine_finds_nothing(self):
        rep = descent_report(isogeny_cover(), refine=True)
        assert rep.verdict == INCONCLUSIVE
        assert rep.certificates == []

    def test_cubic_descends_all_linear(self):
        rep = descent_report(cubic_cover())
        assert rep.verdict == DESCENDS
        assert all(r["passes"] for r in rep.rows)
        assert all(r["degree"] == 1 for r in rep.rows)

    def test_report_json(self):
        data = descent_report(cubic_cover()).to_json()
        assert data["verdict"] == DESCENDS
        assert data["genus"] == 1
        assert data["certificates"] == ["D"]


class TestCertificates:
    def test_certify_with_full_group_equals_main(self):
        cd = validate(cubic_cover())
        assert subgroup_certify(cd, cd.D)
        cd2 = validate(a5_regular_cover())
        assert not subgroup_certify(cd2, cd2.D)

    def test_trivial_subgroup_needs_left_or_jac_zero(self):
        # genus-0 cover: jac = 0, so the trivial subgroup certifies
        cover = BelyiCover(perm(2, (1, 2)), perm(2, (1, 2)))
        cd = validate(cover)
        triv = trivial_group(cd.D.degree)
        assert subgroup_certify(cd, triv)
        # isogeny cover: left and jac both nonzero, trivial subgroup fails
        cd2 = validate(isogeny_cover())
        assert not subgroup_certify(cd2, trivial_group(cd2.D.degree))

    def test_refine_search_includes_d_when_main_passes(self):
        cd = validate(cubic_cover())
        certs = refine_search(cd)
        assert certs, "main criterion passes so D must certify"

    def test_certificate_soundness_on_random_covers(self):
        rng = random.Random(5150)
        count = 0
        while count < 20:
            n = rng.randint(2, 6)
            try:
                cover = BelyiCover(
                    Permutation(rng.sample(range(1, n + 1), n)),
                    Permutation(rng.sample(range(1, n + 1), n)),
                )
            except PreconditionError:
                continue
            count += 1
            cd = validate(cover)
            rows = descent_report(cover).rows
            main_ok = all(r["passes"] for r in rows)
            for _, sub in refine_search(cd):
                assert main_ok, "certificate found but the main criterion fails"

    def test_refine_search_agrees_with_subgroup_certify(self):
        rng = random.Random(777)
        covers = [cubic_cover(), isogeny_cover(), a5_regular_cover()]
        while len(covers) < 23:
            n = rng.randint(2, 7)
            try:
                covers.append(
                    BelyiCover(
                        Permutation(rng.sample(range(1, n + 1), n)),
                        Permutation(rng.sample(range(1, n + 1), n)),
                    )
                )
            except PreconditionError:
                continue
        for cover in covers:
            cd = validate(cover)
            certified = {frozenset(g.imgs for g in sub.elements) for _, sub in refine_search(cd)}
            candidates = [PermGroup([rep]) for rep, _ in cd.D.conjugacy_classes()] + [cd.D]
            for sub in candidates:
                key = frozenset(g.imgs for g in sub.elements)
                assert subgroup_certify(cd, sub) == (key in certified)


class TestFormulas:
    def test_trivial_row_counts(self):
        # n_trivial = #points of Z over {0,1,inf} - 1; m_trivial = 1 + [H:W]
        for cover in (cubic_cover(), isogeny_cover(), a5_regular_cover()):
            cd = validate(cover)
            rep = descent_report(cover)
            row = rep.rows[0]
            points_of_Z = sum(len(recs) for recs in cd.branch.values())
            assert row["n_V"] == points_of_Z - 1
            assert row["m_V"] == 1 + cd.index_HW

    def test_galois_one_dimensional_always_pass(self):
        for cover in (cubic_cover(), a5_regular_cover()):
            rep = descent_report(cover)
            for r in rep.rows:
                if r["degree"] == 1:
                    assert r["passes"]

    def test_rows_match_direct_fixed_space_formulas(self):
        cover = a5_regular_cover()
        cd = validate(cover)
        tab = character_table(cd.D)
        rep = descent_report(cover)
        for i, r in enumerate(rep.rows):
            n_direct = -(1 if i == 0 else 0)
            for b in ("0", "1", "inf"):
                for _, d in cd.branch[b]:
                    n_direct += tab.fixed_space_dim(i, d)
            assert r["n_V"] == n_direct


class TestDescentChecks:
    """The InternalErrors of criterion_rows and descent_report, each fired
    by corrupting a value upstream of its check."""

    @staticmethod
    def corrupt(monkeypatch, which, index, delta):
        # tate_characters with one multiplicity of left (0) or middle (1) moved
        exact = descent.tate_characters

        def corrupted(cd):
            chars = list(exact(cd))
            mults = list(chars[which].mults)
            mults[index] += delta
            chars[which] = VirtualCharacter(chars[which].table, mults)
            return tuple(chars)

        monkeypatch.setattr(descent, "tate_characters", corrupted)

    def test_middle_term_matches_m_v(self, monkeypatch):
        self.corrupt(monkeypatch, 1, 0, 1)
        with pytest.raises(InternalError, match="middle multiplicity disagrees"):
            descent_report(cubic_cover())

    @pytest.mark.parametrize("delta", [-3, 5], ids=["below_0", "above_m_V"])
    def test_n_v_between_0_and_m_v(self, monkeypatch, delta):
        # the trivial row of the cubic cover has n_V = 2, m_V = 2
        self.corrupt(monkeypatch, 0, 0, delta)
        with pytest.raises(InternalError, match="outside \\[0, m_V = 2\\]"):
            descent_report(cubic_cover())

    def test_necessity_on_galois_covers(self, monkeypatch):
        # the A5 regular cover fails the criterion, so no certificate may exist
        monkeypatch.setattr(descent, "refine_search", lambda cd: [("D", cd.D)])
        with pytest.raises(InternalError, match="necessity violated"):
            descent_report(a5_regular_cover(), refine=True)


def relabelled(cover, rng):
    n = cover.degree
    pi = Permutation(rng.sample(range(1, n + 1), n))
    pinv = pi.inverse()
    return BelyiCover(pinv * cover.x * pi, pinv * cover.y * pi)


def cyclic_galois_covers():
    """Regular covers of Z/3, Z/5 and Z/6: D = H, cyclic of order >= 3."""
    z5 = perm(5, (1, 2, 3, 4, 5))
    z6 = perm(6, (1, 2, 3, 4, 5, 6))
    return [cubic_cover(), BelyiCover.regular(z5, z5 * z5), BelyiCover.regular(z6, z6)]


def golden_covers():
    return list(fixture_covers().values()) + list(seeded_covers().values())


COVER_SETS = {
    "criterion_10": random_covers,
    "golden": golden_covers,
    "cyclic_galois": cyclic_galois_covers,
}


def certificate_sets(certs):
    return [(label, frozenset(g.imgs for g in sub.elements)) for label, sub in certs]


def is_cyclic(G):
    return any(PermGroup([rep]).order == G.order for rep, _ in G.conjugacy_classes())


@pytest.fixture
def tables_built(monkeypatch):
    """The element set of every CharacterTable built, in build order."""
    built = []
    build = chartab.CharacterTable.__init__

    def counting(self, group):
        built.append(frozenset(g.imgs for g in group.elements))
        build(self, group)

    monkeypatch.setattr(chartab.CharacterTable, "__init__", counting)
    return built


class TestRefineSearchOracle:
    @pytest.mark.parametrize("name", list(COVER_SETS))
    def test_certificates_match_fresh_subgroups(self, name):
        for cover in COVER_SETS[name]():
            cd = validate(cover)
            fast = certificate_sets(refine_search(cd))
            assert fast == certificate_sets(slow_paths.refine_search(cd))

    def test_relabelled_covers_match_and_keep_their_labels(self):
        for i, cover in enumerate(random_covers() + golden_covers()):
            cd = validate(relabelled(cover, random.Random(i)))
            fast = certificate_sets(refine_search(cd))
            assert fast == certificate_sets(slow_paths.refine_search(cd))
            labels = sorted(label for label, _ in refine_search(validate(cover)))
            assert sorted(label for label, _ in fast) == labels

    @pytest.mark.parametrize("name", list(COVER_SETS))
    def test_no_element_set_is_tabled_twice(self, name, tables_built):
        # one Dixon table per element set, so D's own table serves a cyclic
        # candidate that is all of D
        for cover in COVER_SETS[name]():
            del tables_built[:]
            rep = descent_report(cover, refine=True)
            assert len(set(tables_built)) == len(tables_built)
            assert tables_built[0] == frozenset(g.imgs for g in rep.closure.D.elements)

    def test_one_table_of_d_per_report_on_cyclic_d(self, tables_built):
        # D's table is built once, by tate_characters; the other tables are
        # the proper subgroups <rep>, so trivial D makes exactly one table
        for cover in cyclic_galois_covers():
            cd = validate(cover)
            assert cd.is_galois and cd.D.order >= 3 and is_cyclic(cd.D)
        cyclic = cyclic_galois_covers() + [c for c in random_covers() if is_cyclic(validate(c).D)]
        assert any(validate(c).D.order == 1 for c in cyclic)
        for cover in cyclic:
            del tables_built[:]
            D = descent_report(cover, refine=True).closure.D
            subgroups = {
                frozenset(g.imgs for g in PermGroup([rep]).elements)
                for rep, _ in D.conjugacy_classes()
            }
            assert len(tables_built) == len(subgroups)
            assert tables_built.count(frozenset(g.imgs for g in D.elements)) == 1
            if D.order == 1:
                assert len(tables_built) == 1


def memo_covers():
    """The fixture and seeded covers, a relabelled copy of each, and the
    regular covers of Z/3, Z/5, Z/6 and A5."""
    covers = golden_covers()
    rng = random.Random(7)
    return covers + [relabelled(c, rng) for c in covers] + cyclic_galois_covers()


@pytest.fixture
def subtractions(monkeypatch):
    """The tables of every VirtualCharacter subtraction, in call order: the
    body of tate_characters subtracts once, as jac = middle - left."""
    seen = []
    sub = VirtualCharacter.__sub__

    def counting(self, other):
        seen.append(self.table)
        return sub(self, other)

    monkeypatch.setattr(VirtualCharacter, "__sub__", counting)
    return seen


def fresh_tate_characters(cd):
    """tate_characters computed anew on every call, as before the memo."""
    chars = tate_characters(cd)
    del cd._tate
    return chars


class TestTateMemo:
    def test_body_runs_once_per_refined_report(self, subtractions):
        for cover in memo_covers():
            del subtractions[:]
            rep = descent_report(cover, refine=True)
            assert subtractions == [character_table(rep.closure.D)]
            subgroup_certify(rep.closure, rep.closure.D)
            assert len(subtractions) == 1

    def test_reports_match_a_fresh_computation_per_call(self, monkeypatch):
        memo = [descent_report(c, refine=True) for c in memo_covers()]
        monkeypatch.setattr(descent, "tate_characters", fresh_tate_characters)
        fresh = [descent_report(c, refine=True) for c in memo_covers()]
        for a, b in zip(memo, fresh):
            assert a.to_json() == b.to_json()
            assert certificate_sets(a.certificates) == certificate_sets(b.certificates)
            assert not hasattr(b.closure, "_tate")

    def test_consumers_leave_the_shared_characters_unchanged(self, monkeypatch):
        for cover in memo_covers():
            cd = validate(cover)
            chars = tate_characters(cd)
            before = [list(c.mults) for c in chars]
            monkeypatch.setattr(descent, "validate", lambda _: cd)
            rep = descent_report(cover, refine=True)
            for _, sub in rep.certificates:
                assert subgroup_certify(cd, sub)
            assert tate_characters(cd) is chars
            assert [c.mults for c in chars] == before

    def test_a_failed_check_stores_nothing(self, monkeypatch, subtractions):
        cd = validate(cubic_cover())
        monkeypatch.setattr(cover_module, "genus", lambda cover: genus(cover) + 1)
        for _ in range(2):
            with pytest.raises(InternalError, match="Jacobian character degree"):
                tate_characters(cd)
        assert len(subtractions) == 2 and not hasattr(cd, "_tate")
        monkeypatch.setattr(cover_module, "genus", genus)
        assert tate_characters(cd) is tate_characters(cd)
        assert len(subtractions) == 3


def test_reports_hold_exact_length_lists_and_shared_labels():
    """A report's lists hold no spare room, and each certificate label is
    one string object shared by every report that names it."""
    labels = {}
    for cover in memo_covers():
        data = descent_report(cover, refine=True).to_json()
        lists = [*analysis_report(cover)["branch"].values(), data["rows"], data["certificates"]]
        for lst in lists:
            assert sys.getsizeof(lst) == sys.getsizeof(lst.copy())
        for label in data["certificates"]:
            assert labels.setdefault(label, label) is label
    assert "cyclic(order 1)" in labels and "cyclic(order 2)" in labels
