import json
import random
from math import factorial

import pytest

from belyilab import chartab, cover as cover_module, permgroup
from belyilab.chartab import character_table
from belyilab.cover import (
    BelyiCover,
    analysis_report,
    genus,
    tate_characters,
    validate,
)
from belyilab.corpus import random_covers
from belyilab.cyclotomic import Cyclotomic
from belyilab.descent import descent_report
from belyilab.errors import InternalError, PreconditionError
from belyilab.groups import SchreierTree
from belyilab.permgroup import PermGroup, Permutation, generate
from make_golden import fixture_covers


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def a5_degree5_cover():
    return BelyiCover(perm(5, (1, 2, 3)), perm(5, (1, 2, 3, 4, 5)))


def a5_regular_cover():
    return BelyiCover.regular(perm(5, (1, 2, 3)), perm(5, (1, 2, 3, 4, 5)))


def cubic_cover():
    # y^3 = t(t-1): cyclic degree-3 Galois cover
    return BelyiCover(perm(3, (1, 2, 3)), perm(3, (1, 2, 3)))


def isogeny_cover():
    # A4 on the cosets of an order-2 subgroup; x, y, z all of order 3.
    # Frozen from the coset action of (1 2 3), (1 4 2) on <(1 2)(3 4)>;
    # re-derived below in test_isogeny_cover_matches_coset_action.
    return BelyiCover(Permutation([2, 4, 5, 1, 6, 3]), Permutation([3, 4, 5, 6, 1, 2]))


def z4_cover():
    # Z/4 acting on itself: D is Z/4, regular on all four points
    return BelyiCover(perm(4, (1, 2, 3, 4)), perm(4, (1, 2, 3, 4)))


class SwappedPoints(PermGroup):
    """Fault: a PermGroup built on its generators with points 1 and 2
    swapped, as if D were read on relabelled positions.  Orders do not
    change, but on z4_cover the group built for D is <(1 3 4 2)>, which
    misses the deck transformation (1 3)(2 4)."""

    def __init__(self, generators):
        swap = Permutation.from_cycles(generators[0].degree, [(1, 2)])
        super().__init__([swap * g * swap for g in generators])


class TestBelyiCover:
    def test_intransitive_rejected(self):
        with pytest.raises(PreconditionError):
            BelyiCover(perm(4, (1, 2)), perm(4, (3, 4)))

    def test_xyz_product_is_identity(self):
        c = a5_degree5_cover()
        assert (c.x * c.y * c.z).is_identity()

    def test_json_roundtrip(self):
        c = a5_degree5_cover()
        assert BelyiCover.from_json(c.to_json()).x == c.x

    def test_json_galois_flag_normalizes_to_regular(self):
        c = BelyiCover.from_json(
            {"degree": 3, "x": [2, 3, 1], "y": [2, 3, 1], "galois": True}
        )
        assert c.degree == 3  # Z/3 regular action is already degree 3
        c2 = BelyiCover.from_json(
            {"degree": 5, "x": [2, 3, 1, 4, 5], "y": [2, 3, 4, 5, 1], "galois": True}
        )
        assert c2.degree == 60

    def test_degree_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            BelyiCover.from_json({"degree": 4, "x": [2, 3, 1], "y": [2, 3, 1]})


class TestClosure:
    def test_a5_degree5_closure(self):
        cd = validate(a5_degree5_cover())
        assert cd.H.order == 60
        assert cd.order_J == 12
        assert cd.order_W == 12
        assert cd.D.order == 1
        assert cd.index_HW == 5
        assert not cd.is_galois

    def test_a5_regular_closure(self):
        cd = validate(a5_regular_cover())
        assert cd.is_galois
        assert cd.D.order == 60
        records = [cd.branch[b] for b in ("0", "1", "inf")]
        assert all(len(r) == 1 for r in records)
        orders = [r[0][1].order() for r in records]
        assert orders == [3, 5, 5]
        assert all(r[0][0] == 1 for r in records)

    def test_trivial_cover(self):
        c = BelyiCover(Permutation([1]), Permutation([1]))
        cd = validate(c)
        assert cd.H.order == 1 and cd.is_galois
        assert genus(c) == 0

    def test_ramification_sums(self):
        for cover in (a5_degree5_cover(), isogeny_cover(), cubic_cover()):
            cd = validate(cover)
            for b in ("0", "1", "inf"):
                assert sum(e for e, _ in cd.branch[b]) == cd.index_HW

    def test_fast_normalizer_agrees_with_generic(self):
        # the point model against the enumerated stabilizer and normalizer
        rng = random.Random(4242)
        covers = [a5_degree5_cover(), a5_regular_cover(), cubic_cover(), isogeny_cover()]
        covers += [random_transitive_cover(rng, max_degree=6) for _ in range(40)]
        for cover in covers:
            cd = validate(cover)
            J = cd.H.stabilizer(1)
            assert J.order == cd.order_J
            assert cd.H.normalizer(J).order == cd.order_W
            fixed = [p for p in range(cover.degree) if all(g.imgs[p] == p for g in J.generators)]
            assert fixed == cd.fixed

    def test_isogeny_cover_matches_coset_action(self):
        A4 = generate([perm(4, (1, 2, 3)), perm(4, (1, 4, 2))])
        S = generate([perm(4, (1, 2), (3, 4))])
        _, _, project = A4.coset_action(S)
        c = isogeny_cover()
        assert project(perm(4, (1, 2, 3))) == c.x
        assert project(perm(4, (1, 4, 2))) == c.y


class TestGenus:
    def test_cubic_curve(self):
        assert genus(cubic_cover()) == 1

    def test_conic(self):
        assert genus(BelyiCover(perm(2, (1, 2)), perm(2, (1, 2)))) == 0

    def test_a5_regular_genus9(self):
        assert genus(a5_regular_cover()) == 9

    def test_isogeny_cover_genus1(self):
        assert genus(isogeny_cover()) == 1


class TestTateCharacters:
    def test_cubic_jac_two_conjugate_characters(self):
        cd = validate(cubic_cover())
        tab = character_table(cd.D)
        left, middle, jac = tate_characters(cd)
        assert jac.degree == 2
        assert jac.mults[0] == 0  # no trivial part
        nontrivial = [i for i, m in enumerate(jac.mults) if m]
        assert len(nontrivial) == 2 and all(jac.mults[i] == 1 for i in nontrivial)
        i, j = nontrivial
        # the two rows are complex conjugate
        assert all(
            tab.rows[i][inv] == tab.rows[j][k] for k, inv in enumerate(tab.inverse_class)
        )

    def test_a5_regular_degrees(self):
        cd = validate(a5_regular_cover())
        left, middle, jac = tate_characters(cd)
        assert left.degree == 43
        assert middle.degree == 61
        assert jac.degree == 18

    def test_a5_degree5_trivial_deck(self):
        cd = validate(a5_degree5_cover())
        left, middle, jac = tate_characters(cd)
        assert left.mults == [4]
        assert middle.mults == [6]
        assert jac.degree == 2

    def test_isogeny_cover_paper_values(self):
        cd = validate(isogeny_cover())
        left, middle, jac = tate_characters(cd)
        assert left.mults[0] == 2  # n_V for the trivial character
        assert middle.mults[0] == 4  # m_V for the trivial character
        assert jac.degree == 2

    def test_middle_is_trivial_plus_regular(self):
        for cover in (cubic_cover(), isogeny_cover(), a5_regular_cover()):
            cd = validate(cover)
            tab = character_table(cd.D)
            _, middle, _ = tate_characters(cd)
            expect = [cd.index_HW * d for d in tab.degrees]
            expect[0] += 1
            assert middle.mults == expect


def random_transitive_cover(rng, max_degree=8):
    while True:
        n = rng.randint(2, max_degree)
        x = Permutation(rng.sample(range(1, n + 1), n))
        y = Permutation(rng.sample(range(1, n + 1), n))
        try:
            return BelyiCover(x, y)
        except PreconditionError:
            continue


class TestRandomCoverInvariants:
    def test_structural_invariants_sample(self):
        rng = random.Random(20108)
        for _ in range(25):
            cover = random_transitive_cover(rng, max_degree=6)
            cd = validate(cover)
            tab = character_table(cd.D)
            left, middle, jac = tate_characters(cd)
            g = genus(cover)
            assert jac.degree == 2 * g
            for n_V, m_row, deg in zip(left.mults, middle.mults, tab.degrees):
                assert 0 <= n_V <= m_row

    def test_representative_choice_independence(self):
        # recompute each d_j from every h in H whose block Fix(J)^h lies in
        # the record's <sigma>-orbit: the fixed-space dimensions must not change
        rng = random.Random(977)
        for _ in range(10):
            cover = random_transitive_cover(rng, max_degree=6)
            cd = validate(cover)
            tab = character_table(cd.D)
            dims_of = {}

            def dims(d):
                if d.imgs not in dims_of:
                    dims_of[d.imgs] = tuple(
                        tab.fixed_space_dim(r, d) for r in range(tab.nclasses())
                    )
                return dims_of[d.imgs]

            def block(h):
                return frozenset(h.imgs[p] for p in cd.fixed)

            for b in ("0", "1", "inf"):
                sigma = cover.sigma(b)
                ref = sorted((e, dims(d)) for e, d in cd.branch[b])
                orbits = {}
                for h in cd.H.elements:
                    start = block(h)
                    orbit = [start]
                    while block(h * sigma ** len(orbit)) != start:
                        orbit.append(block(h * sigma ** len(orbit)))
                    orbits.setdefault(frozenset(orbit), []).append(h)
                got = []
                for orbit, hs in orbits.items():
                    e = len(orbit)
                    found = {dims(cd.project(h * sigma**e * h.inverse())) for h in hs}
                    assert len(found) == 1
                    got.append((e, found.pop()))
                assert sorted(got) == ref

    def test_relabeling_invariance(self):
        # conjugating (x, y) by a permutation relabels the points and
        # changes none of the closure or descent data
        rng = random.Random(31337)
        for _ in range(15):
            cover = random_transitive_cover(rng, max_degree=6)
            n = cover.degree
            pi = Permutation(rng.sample(range(1, n + 1), n))
            pinv = pi.inverse()
            relabeled = BelyiCover(pinv * cover.x * pi, pinv * cover.y * pi)
            reports = [analysis_report(c) for c in (cover, relabeled)]
            for rep in reports:
                for b in rep["branch"]:
                    rep["branch"][b].sort(key=lambda r: (r["e"], r["order_d"]))
            assert reports[0] == reports[1]
            descents = [descent_report(c, refine=True) for c in (cover, relabeled)]
            assert descents[0].verdict == descents[1].verdict
            rows = [sorted(tuple(sorted(r.items())) for r in d.rows) for d in descents]
            assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "relabel",
    [lambda c: (c.y, c.x), lambda c: (c.y, c.z)],
    ids=["swap_0_1", "rotate_0_1_inf"],
)
def test_branch_point_relabeling_invariance(relabel):
    # (x, y) -> (y, x) and (x, y, z) -> (y, z, x) permute the branch points
    # {0, 1, oo} by a Moebius map: the curve, D and its representations stay
    def invariants(cover):
        rep = descent_report(cover)
        rows = sorted((r["degree"], r["n_V"], r["m_V"]) for r in rep.rows)
        return genus(cover), rep.closure.D.order, rep.verdict, rows

    covers = list(fixture_covers().values()) + random_covers()[:40]
    for cover in covers:
        assert invariants(BelyiCover(*relabel(cover))) == invariants(cover)


@pytest.mark.parametrize("name", sorted(fixture_covers()))
def test_schreier_tree_on_the_points(name):
    # F_2 acting on the n points through (x, y): the stabilizer of point 0
    # is free of rank n(2-1)+1 = n + 1, one generator per non-tree edge of
    # the coset graph, and each one read from 0 returns to 0 crossing only
    # itself.  Read from q, every one returns to q exactly when the
    # stabilizer of 0 fixes q: the points validate finds as Fix(J).
    cover = fixture_covers()[name]
    n = cover.degree
    st = SchreierTree(n, [cover.x.imgs, cover.y.imgs])
    assert st.rank == n + 1
    for j, w in enumerate(st.free_gens):
        assert st.walk(w, 0) == ([int(i == j) for i in range(n + 1)], 0)
    fixed = [q for q in range(n) if all(st.walk(w, q)[1] == q for w in st.free_gens)]
    assert fixed == validate(cover).fixed


def test_schreier_tree_refuses_an_intransitive_action():
    x, y = perm(4, (1, 2)), perm(4, (3, 4))
    with pytest.raises(InternalError, match="transversal misses"):
        SchreierTree(4, [x.imgs, y.imgs])


def test_validate_does_not_enumerate_h():
    cover = BelyiCover(perm(8, (1, 2)), perm(8, (1, 2, 3, 4, 5, 6, 7, 8)))
    cd = validate(cover)
    assert cd.H.order == 40320 and cd.order_J == 5040
    assert "_elt_map" not in vars(cd.H)


def random_pair_cover(n, seed):
    rng = random.Random(seed)
    return BelyiCover(*(Permutation(rng.sample(range(n), n), zero_based=True) for _ in range(2)))


# x = (1 2), y = (1 2 ... n) gives H = S_n; the seeded pairs of degree 64
# are transitive, one with an odd generator (S_64) and one even (A_64)
LARGE_GIANTS = {
    "S48": lambda: BelyiCover(perm(48, (1, 2)), perm(48, tuple(range(1, 49)))),
    "S100": lambda: BelyiCover(perm(100, (1, 2)), perm(100, tuple(range(1, 101)))),
    "S64 random": lambda: random_pair_cover(64, 64),
    "A64 random": lambda: random_pair_cover(64, 61),
}


@pytest.mark.parametrize("name", sorted(LARGE_GIANTS))
def test_large_degree_giants_need_no_schreier_sims(name, monkeypatch):
    # Schreier-Sims on S_48 alone takes about 20 s; past degree 16 it must
    # not run at all, so |H| comes from the Jordan certificate (D, on
    # Fix(J), still gets its order from Schreier-Sims)
    schreier_sims = permgroup._schreier_sims_order

    def small_only(gens, n):
        assert n <= 16, "Schreier-Sims ran at degree %d" % n
        return schreier_sims(gens, n)

    monkeypatch.setattr(permgroup, "_schreier_sims_order", small_only)
    cover = LARGE_GIANTS[name]()
    n = cover.degree
    odd = any((n - g.cycle_count()) % 2 for g in (cover.x, cover.y))
    assert odd == (name[0] == "S")
    order_H = factorial(n) if odd else factorial(n) // 2
    rep = analysis_report(cover)
    assert (rep["order_H"], rep["order_J"], rep["order_W"]) == (order_H, order_H // n, order_H // n)
    assert (rep["order_D"], rep["index_HW"], rep["is_galois"]) == (1, n, False)
    if odd:
        assert rep["order_J"] == factorial(n - 1)
    data = descent_report(LARGE_GIANTS[name](), refine=True).to_json()
    assert (data["order_D"], data["index_HW"], data["genus"]) == (1, n, rep["genus"])
    # one row for trivial D: m_V = 1 + [H:W], and m_V - n_V = 2g
    (row,) = data["rows"]
    assert (row["degree"], row["m_V"], row["m_V"] - row["n_V"]) == (1, n + 1, 2 * rep["genus"])


REGULAR_GENERATORS = {
    "S3": (((1, 2),), ((1, 2, 3),)),
    "D4": (((1, 2, 3, 4),), ((1, 3),)),
    "Q8": (((1, 2, 3, 4), (5, 6, 7, 8)), ((1, 5, 3, 7), (2, 8, 4, 6))),
    "A4": (((1, 2, 3),), ((1, 2), (3, 4))),
    "S4": (((1, 2),), ((1, 2, 3, 4),)),
    "A5": (((1, 2, 3),), ((1, 2, 3, 4, 5),)),
    "S5": (((1, 2),), ((1, 2, 3, 4, 5),)),
}


@pytest.mark.parametrize("name", sorted(REGULAR_GENERATORS))
def test_galois_closure_reuses_d_as_h(name, monkeypatch):
    # Fix(J) is every point, so validate takes D as H: same order and
    # element set as the group of x and y, and the same report as with H
    # built from x and y, also on a relabelled copy of the points
    cycles = REGULAR_GENERATORS[name]
    degree = max(p for c in cycles for cyc in c for p in cyc)
    x, y = (perm(degree, *c) for c in cycles)
    cover = BelyiCover.regular(x, y)
    n = cover.degree
    pi = Permutation(random.Random(n).sample(range(1, n + 1), n))
    relabeled = BelyiCover(pi.inverse() * cover.x * pi, pi.inverse() * cover.y * pi)
    for c in (cover, relabeled):
        cd = validate(c)
        H = PermGroup([c.x, c.y])
        assert cd.is_galois and cd.H.order == H.order == n
        assert set(cd.H.elements) == set(H.elements)
        report = json.dumps(analysis_report(c), sort_keys=True)

        def validate_with_h(cover):
            cd = validate(cover)
            cd.H = PermGroup([cover.x, cover.y])
            return cd

        with monkeypatch.context() as m:
            m.setattr(cover_module, "validate", validate_with_h)
            assert json.dumps(analysis_report(c), sort_keys=True) == report


def test_regular_s6_cover_is_admitted():
    # the regular S7 cover is refused (test_cli.py); S6 stays under the limit
    s6 = BelyiCover.regular(perm(6, (1, 2)), perm(6, (1, 2, 3, 4, 5, 6)))
    assert s6.degree == 720 <= cover_module._REGULAR_LIMIT


def test_analysis_report_shape():
    rep = analysis_report(cubic_cover())
    assert rep["genus"] == 1
    assert rep["order_H"] == 3
    assert rep["is_galois"] is True
    # Galois cover: Z = P^1, single unramified record carrying d of order 3
    assert rep["branch"]["0"] == [{"e": 1, "order_d": 3}]


class TestClosureChecks:
    """The InternalErrors of validate, genus and tate_characters, each
    fired by corrupting a value upstream of its check."""

    def test_d_acts_regularly(self, monkeypatch):
        class DoubledOrder(PermGroup):
            def __init__(self, generators):
                super().__init__(generators)
                self.order *= 2

        monkeypatch.setattr(cover_module, "PermGroup", DoubledOrder)
        with pytest.raises(InternalError, match="D does not act regularly"):
            validate(a5_degree5_cover())

    def test_every_deck_transformation_lies_in_d(self, monkeypatch):
        monkeypatch.setattr(cover_module, "PermGroup", SwappedPoints)
        with pytest.raises(InternalError, match="lies outside D"):
            validate(z4_cover())

    def test_riemann_hurwitz_parity(self, monkeypatch):
        count = Permutation.cycle_count
        monkeypatch.setattr(Permutation, "cycle_count", lambda self: count(self) + 1)
        with pytest.raises(InternalError, match="Riemann-Hurwitz total is odd"):
            genus(cubic_cover())

    def test_negative_genus(self, monkeypatch):
        count = Permutation.cycle_count
        monkeypatch.setattr(Permutation, "cycle_count", lambda self: count(self) + 2)
        with pytest.raises(InternalError, match="negative genus"):
            genus(cubic_cover())

    def test_jacobian_multiplicities_nonnegative(self, monkeypatch):
        # every branch record fixing 5 more dimensions inflates the left term
        fixed = chartab.CharacterTable.fixed_space_dim
        monkeypatch.setattr(
            chartab.CharacterTable, "fixed_space_dim", lambda self, i, g: fixed(self, i, g) + 5
        )
        with pytest.raises(InternalError, match="negative multiplicity"):
            tate_characters(validate(cubic_cover()))

    def test_jacobian_degree_is_twice_the_genus(self, monkeypatch):
        monkeypatch.setattr(cover_module, "genus", lambda cover: genus(cover) + 1)
        with pytest.raises(InternalError, match="Jacobian character degree 2 != 2\\*genus = 4"):
            tate_characters(validate(cubic_cover()))
