import random

from belyilab.chartab import character_table
from belyilab.cover import BelyiCover, validate, tate_characters
from belyilab.descent import (
    DESCENDS,
    DOES_NOT_DESCEND,
    INCONCLUSIVE,
    descent_report,
    refine_search,
    subgroup_certify,
)
from belyilab.errors import PreconditionError
from belyilab.permgroup import Permutation, PermGroup, trivial_group


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
            certified = {frozenset(g.imgs for g in sub) for _, sub in refine_search(cd)}
            candidates = [PermGroup([rep]) for rep, _ in cd.D.conjugacy_classes()] + [cd.D]
            for sub in candidates:
                key = frozenset(g.imgs for g in sub)
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
