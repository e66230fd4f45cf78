import itertools
import os
import random
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import permgroup
from belyilab.errors import PreconditionError
from belyilab.permgroup import (
    Permutation,
    PermGroup,
    _compose,
    _jordan_order,
    _schreier_sims_order,
    alternating_group,
    cyclic_group,
    generate,
    orbit,
    regular_representation,
    symmetric_group,
    trivial_group,
)


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


random_perms = st.integers(2, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
)


class TestPermutation:
    def test_compose_identity(self):
        p = perm(3, (1, 2, 3))
        assert p * Permutation.identity(3) == p

    def test_compose_hand_derived(self):
        # x=(1 2 3), y=(1 2 3 4 5): apply x first, then y gives (1 3 2 4 5)
        x = perm(5, (1, 2, 3))
        y = perm(5, (1, 2, 3, 4, 5))
        assert x * y == perm(5, (1, 3, 2, 4, 5))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            perm(3, (1, 2)) * perm(4, (1, 2))

    @given(random_perms)
    def test_inverse_law(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(random_perms, st.integers(-6, 6))
    def test_power_consistency(self, p, k):
        q = Permutation.identity(p.degree)
        step = p if k >= 0 else p.inverse()
        for _ in range(abs(k)):
            q = q * step
        assert p**k == q

    @given(random_perms)
    def test_order_is_least_period(self, p):
        q = p
        k = 1
        while not q.is_identity():
            q = q * p
            k += 1
        assert p.order() == k

    def test_wire_format_one_based(self):
        p = Permutation([2, 3, 1])
        assert p.images == [2, 3, 1]
        assert p.images[0] == 2 and p.images[2] == 1

    def test_order_and_cycles(self):
        p = perm(6, (1, 2, 3), (4, 5))
        assert p.order() == 6
        assert p.cycles() == [(1, 2, 3), (4, 5)]
        assert p.cycle_count() == 3  # includes the fixed point 6


class TestGenerate:
    def test_a5_order_60(self):
        G = generate([perm(5, (1, 2, 3)), perm(5, (1, 2, 3, 4, 5))])
        assert G.order == 60

    def test_trivial(self):
        G = generate([Permutation.identity(4)])
        assert G.order == 1

    def test_a4_model(self):
        G = generate([perm(4, (1, 2, 3)), perm(4, (1, 3, 4))])
        assert G.order == 12

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            generate([])

    def test_closure_idempotent(self):
        G = generate([perm(4, (1, 2, 3)), perm(4, (1, 2))])
        assert generate(G.elements).order == G.order

    def test_named_constructors(self):
        assert symmetric_group(4).order == 24
        assert alternating_group(4).order == 12
        assert alternating_group(5).order == 60
        assert cyclic_group(6).order == 6


def _shape_gens(n, images, k, with_identity, duplicate):
    """Generators from image lists, each reshaped to keep {0..k-1} and
    {k..n-1} (intransitive when 0 < k < n), plus the identity and a repeated
    generator on request."""
    gens = []
    for imgs in images:
        low = sorted(range(k), key=imgs.__getitem__)
        high = sorted(range(k, n), key=imgs.__getitem__)
        gens.append(Permutation(low + high, zero_based=True))
    if duplicate:
        gens.append(gens[0])
    if with_identity:
        gens.insert(len(gens) // 2, Permutation.identity(n))
    return gens


generator_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.permutations(list(range(n))), min_size=1, max_size=4),
        st.integers(0, n),
        st.booleans(),
        st.booleans(),
    ).map(lambda t: _shape_gens(n, *t))
)


random_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*(st.permutations(list(range(n))) for _ in range(3)))
)


def _block_perm(m, blocks, sigma):
    """0-based images of the permutation sending point b*m + i of block b
    to sigma[b]*m + blocks[b][i]: it permutes the blocks of size m."""
    return [sigma[b] * m + blocks[b][i] for b in range(len(blocks)) for i in range(m)]


def _imprimitive_gens(km):
    k, m = km
    block_perm = st.tuples(
        st.lists(st.permutations(list(range(m))), min_size=k, max_size=k),
        st.permutations(list(range(k))),
    ).map(lambda t: _block_perm(m, *t))
    return st.lists(block_perm, min_size=1, max_size=3)


imprimitive_gens = (
    st.sampled_from([(k, m) for k in range(2, 7) for m in range(2, 7) if k * m <= 12])
    .flatmap(_imprimitive_gens)
)


def closure_size(gens):
    """Number of products of the generators, by breadth-first search."""
    return len(orbit(tuple(range(gens[0].degree)), [g.imgs for g in gens], _compose))


def order_and_sifts(order_fn, gens):
    """(order, number of calls to a function named sift) of
    order_fn(gens, degree), the calls counted with sys.setprofile."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "sift":
            calls += 1

    sys.setprofile(count)
    try:
        order = order_fn(gens, gens[0].degree)
    finally:
        sys.setprofile(None)
    return order, calls


def order_and_sifted_pairs(gens, check_level=None):
    """(order, [(level i, point a, generator index m)] in the order
    residue sifts the pairs) of _schreier_sims_order(gens, degree), read
    off residue's locals with sys.setprofile; check_level gets the locals
    of each grow call as it returns."""
    sifted = []

    def watch(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name == "sift" and frame.f_back.f_code.co_name == "residue":
            scope = frame.f_back.f_locals
            sifted.append((scope["i"], scope["a"], scope["m"]))
        elif event == "return" and name == "grow" and check_level:
            check_level(frame.f_locals)

    sys.setprofile(watch)
    try:
        order = _schreier_sims_order(gens, gens[0].degree)
    finally:
        sys.setprofile(None)
    return order, sifted


class LevelChecks:
    """The invariants of a Schreier-Sims level that grow has just
    extended, checked on its locals: every transversal entry (u, u^-1)
    sends the base point to its point, with its inverse alongside; every
    tree edge (a, m) -> b has u_a s_m = u_b, so its Schreier generator is
    the identity; the orbit is closed under the level's generators; the
    queue holds no tree edge and no pair twice, and it holds every other
    pair of a new point or of a new generator; and an entry made by an
    earlier growth is still there, unchanged."""

    def __init__(self):
        self.entries = {}

    def __call__(self, scope):
        i, s, tree, closed, old = (scope[k] for k in ("i", "s", "tree", "closed", "old"))
        b0, t, queue = scope["base"][i], scope["trans"][i], scope["unsifted"][i]
        ident = tuple(range(len(s[0])))
        assert list(t) == list(tree)
        for b, (u, uinv) in t.items():
            assert u[b0] == b
            assert _compose(u, uinv) == ident
        edges = set()
        for b, edge in tree.items():
            if edge is not None:
                a, m = edge
                assert t[b][0] == _compose(t[a][0], s[m])
                edges.add(edge)
        assert all(g[a] in tree for a in tree for g in s)
        pairs = {(a, m) for a in tree for m in range(len(s))}
        assert len(set(queue)) == len(queue)
        assert set(queue) <= pairs - edges
        new = {(a, m) for k, a in enumerate(tree) for m in range(len(s)) if k >= old or m >= closed}
        assert new - edges <= set(queue)
        earlier = self.entries.setdefault(i, {})
        assert all(t[b] is entry for b, entry in earlier.items())
        earlier.update(t)


def check_popped_pairs_never_return(sifted):
    """A pair that gave a residue stays last in its level's queue and is
    sifted again when the check comes back to its level; once a level
    sifts another pair after it, it has left the queue for good."""
    last, gone = {}, set()
    for i, a, m in sifted:
        if last.get(i, (a, m)) != (a, m):
            gone.add((i,) + last[i])
        assert (i, a, m) not in gone
        last[i] = (a, m)


def check_levels(gens):
    """The order with each grown level checked, equal to the orders of
    the restarting and the rebuilding oracle and, up to 8! elements, to
    the closure's size; returns it with the number of sifts and the
    rebuilding oracle's."""
    order, sifted = order_and_sifted_pairs(gens, LevelChecks())
    check_popped_pairs_never_return(sifted)
    rebuilt_order, rebuilt_sifts = order_and_sifts(slow_paths.rebuilding_schreier_sims_order, gens)
    assert order == rebuilt_order == slow_paths.schreier_sims_order(gens, gens[0].degree)
    if order <= factorial(8):
        assert order == closure_size(gens)
    return order, len(sifted), rebuilt_sifts


def check_resumed_scan(gens):
    """The resumed scan returns the restarting scan's order and never
    sifts more; returns both sift counts."""
    order, sifts = order_and_sifts(_schreier_sims_order, gens)
    slow_order, slow_sifts = order_and_sifts(slow_paths.schreier_sims_order, gens)
    assert order == slow_order
    assert sifts <= slow_sifts
    return sifts, slow_sifts


def wreath_square(m):
    """S_m wr S_2 on 2m points: x = (1 2) and y = (1, m+1, 2, m+2, ...,
    m, 2m), whose square is an m-cycle on each block and which swaps the
    blocks; it has order 2 (m!)^2 and no Jordan witness."""
    n = 2 * m
    y = tuple(v for i in range(1, m + 1) for v in (i, m + i))
    return [perm(n, (1, 2)), perm(n, y)]


# cyclic_group(12) with every transversal element read as one generator
# step from the identity, also in a grown level: the levels' (u, u^-1)
# pairs are wrong, so sifted residues move base points.  The address
# space is capped at 1 GiB so that a regression fails on the timeout or
# on memory, not the machine.
_FAULTY_LEVELS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from itertools import islice
from belyilab import permgroup
from belyilab.errors import InternalError

def one_step_labels(tree, root, step, out=None):
    out = {} if out is None else out
    for p, edge in islice(tree.items(), len(out), None):
        out[p] = root if edge is None else step(root, *edge)
    return out

permgroup.labels = one_step_labels
try:
    permgroup.cyclic_group(12)
except InternalError as exc:
    print("InternalError:", exc)
"""

# symmetric_group(12) with its order read as 12: enumerating the elements
# would build all 12! of them before comparing their number with the
# order; under the same 1 GiB cap the closure must stop at its budget.
_ORDER_TOO_SMALL = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from belyilab import permgroup
from belyilab.errors import InternalError
G = permgroup.symmetric_group(12)
G.order = 12
try:
    G.elements
except InternalError as exc:
    print("InternalError:", exc)
"""


def run_capped(script):
    """stdout of script in a fresh interpreter that imports this
    checkout's belyilab; stderr goes into the assertion message."""
    src = str(Path(permgroup.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.startswith("InternalError: "), done.stderr
    return done.stdout


class TestSchreierSims:
    @settings(deadline=None)
    @given(random_pairs)
    def test_resumed_scan_matches_restarting_scan(self, images):
        x, y, pi = (Permutation(imgs, zero_based=True) for imgs in images)
        check_resumed_scan([x, y])
        check_resumed_scan([pi.inverse() * x * pi, pi.inverse() * y * pi])

    @settings(deadline=None)
    @given(imprimitive_gens)
    def test_resumed_scan_on_block_preserving_groups(self, images):
        check_resumed_scan([Permutation(imgs, zero_based=True) for imgs in images])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_resumed_scan_sifts_fewer_on_symmetric_and_alternating(self, n):
        for G in (symmetric_group(n), alternating_group(n)):
            sifts, slow_sifts = check_resumed_scan(G.generators)
            if n >= 5:
                assert sifts < slow_sifts

    @settings(deadline=None)
    @given(random_pairs)
    def test_grown_levels_keep_invariants_on_random_pairs(self, images):
        x, y, pi = (Permutation(imgs, zero_based=True) for imgs in images)
        check_levels([x, y])
        check_levels([pi.inverse() * x * pi, pi.inverse() * y * pi])

    @settings(deadline=None)
    @given(imprimitive_gens)
    def test_grown_levels_keep_invariants_on_block_preserving_groups(self, images):
        check_levels([Permutation(imgs, zero_based=True) for imgs in images])

    @pytest.mark.parametrize("n", range(4, 11))
    def test_grown_levels_keep_invariants_on_symmetric_and_alternating(self, n):
        for G, order in ((symmetric_group(n), factorial(n)), (alternating_group(n), factorial(n) // 2)):
            assert check_levels(G.generators)[0] == order

    @pytest.mark.parametrize("n", range(1, 11))
    def test_growth_sifts_no_more_than_rebuilding_on_symmetric_and_alternating(self, n):
        for G in (symmetric_group(n), alternating_group(n)):
            _, sifts, rebuilt_sifts = check_levels(G.generators)
            assert sifts <= rebuilt_sifts
            # two equal empty records would compare nothing
            assert sifts > 0 or n < 3
            if n >= 5:
                assert sifts < rebuilt_sifts

    def test_growth_sifts_fewer_than_rebuilding_over_seeded_groups(self):
        # Not pair by pair: a grown level's tree is not the one a rebuild
        # finds, so the residues differ, and on about 1% of random pairs
        # of degree 4-7 the growth sifts a few pairs more (33 against 32
        # for x = (2 4 5)(3 6), y = (1 2 3 5)).
        rng = random.Random(0)
        groups = []
        for n in range(4, 13):
            for _ in range(6):
                x, y, pi = (Permutation(rng.sample(range(n), n), zero_based=True) for _ in range(3))
                groups += [[x, y], [pi.inverse() * x * pi, pi.inverse() * y * pi]]
        for k, m in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (2, 6), (3, 4), (4, 3)):
            for _ in range(4):
                images = [
                    _block_perm(m, [rng.sample(range(m), m) for _ in range(k)], rng.sample(range(k), k))
                    for _ in range(2)
                ]
                groups.append([Permutation(imgs, zero_based=True) for imgs in images])
        counts = [check_levels(gens)[1:] for gens in groups]
        assert sum(grown for grown, _ in counts) < sum(rebuilt for _, rebuilt in counts)

    def test_wreath_square_order_with_fewer_sifts(self):
        gens = wreath_square(16)
        order, sifts = order_and_sifts(_schreier_sims_order, gens)
        rebuilt_order, rebuilt_sifts = order_and_sifts(slow_paths.rebuilding_schreier_sims_order, gens)
        assert order == rebuilt_order == 2 * factorial(16) ** 2
        assert sifts < rebuilt_sifts
        assert PermGroup(gens).order == order

    def test_faulty_level_raises_instead_of_running_away(self):
        run_capped(_FAULTY_LEVELS)

    def test_closure_past_the_order_raises_instead_of_running_away(self):
        assert "exceeds the Schreier-Sims order 12" in run_capped(_ORDER_TOO_SMALL)

    @settings(deadline=None)
    @given(generator_lists)
    def test_order_matches_closure(self, gens):
        assert _schreier_sims_order(gens, gens[0].degree) == closure_size(gens)

    def test_large_group_keeps_order_without_enumerating(self):
        G = symmetric_group(12)
        assert G.order == 479001600
        with pytest.raises(PreconditionError):
            G.elements
        with pytest.raises(PreconditionError):
            G.conjugacy_classes()
        with pytest.raises(PreconditionError):
            perm(12, (1, 2, 3)) in PermGroup(wreath_square(6))

    def test_closure_is_lazy(self):
        G = alternating_group(5)
        assert "_elt_map" not in vars(G)
        assert len(G.elements) == G.order == 60
        assert "_elt_map" in vars(G)


def _psl2(q):
    """PSL(2, q), q prime, on the projective line: x -> x + 1 and
    x -> -1/x, the point q standing for infinity."""

    def s(x):
        return 0 if x == q else q if x == 0 else -pow(x, -1, q) % q

    t = [q if x == q else (x + 1) % q for x in range(q + 1)]
    return [Permutation(t, zero_based=True), Permutation([s(x) for x in range(q + 1)], zero_based=True)]


def _agl32():
    """AGL(3, 2) on the vectors 0..7 of F_2^3 as bit patterns: a
    translation, a Singer cycle (times alpha in F_8 = F_2[alpha]/(alpha^3 +
    alpha + 1)) and a transvection; the last two generate GL(3, 2), since
    its maximal subgroups with an element of order 7 have odd order."""
    translate = [v ^ 1 for v in range(8)]
    singer = [(v << 1 & 7) ^ (3 if v & 4 else 0) for v in range(8)]
    transvect = [v ^ (v >> 1 & 1) for v in range(8)]
    return [Permutation(g, zero_based=True) for g in (translate, singer, transvect)]


_M11 = [perm(11, tuple(range(1, 12))), perm(11, (3, 7, 11, 8), (4, 10, 5, 6))]
_M12 = [Permutation(list(g.images) + [12]) for g in _M11] + [
    perm(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))
]

# transitive or not, none of these holds a Jordan witness: a cycle of prime
# length p with n/2 < p <= n - 3 in a transitive group
WITNESS_FREE = [
    pytest.param(_psl2(7), 168, id="PSL(2,7) on 8 points"),
    pytest.param(_agl32(), 1344, id="AGL(3,2) on 8 points"),
    pytest.param(_M11, 7920, id="M11"),
    pytest.param(_M12, 95040, id="M12"),
    pytest.param(_psl2(13), 1092, id="PSL(2,13) on 14 points"),
    pytest.param(
        [perm(12, (1, 2)), perm(12, (1, 2, 3, 4, 5, 6)), perm(12, *((i, i + 6) for i in range(1, 7)))],
        2 * factorial(6) ** 2,
        id="S6 wr S2 on 12 points",
    ),
    pytest.param([perm(8, tuple(range(1, 8))), perm(8, (1, 2))], factorial(7), id="S7 fixing point 8"),
    pytest.param(cyclic_group(8).generators, 8, id="one 8-cycle"),
]


@pytest.fixture
def schreier_sims_runs(monkeypatch):
    """The orders that PermGroup's calls of _schreier_sims_order return
    while the test runs, in call order."""
    runs = []

    def spy(gens, n):
        runs.append(_schreier_sims_order(gens, n))
        return runs[-1]

    monkeypatch.setattr(permgroup, "_schreier_sims_order", spy)
    return runs


def check_certificate(gens):
    """The Jordan order of the generators, equal to the Schreier-Sims order
    where the search finds a witness; returns it (None where it does not)."""
    n = gens[0].degree
    order = _jordan_order([g.imgs for g in gens], n)
    assert order in (None, _schreier_sims_order(gens, n))
    return order


class TestJordanCertificate:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_certified_order_matches_schreier_sims_on_random_pairs(self, n):
        rng = random.Random(n)
        certified = 0
        for _ in range(8):
            x, y, pi = (Permutation(rng.sample(range(n), n), zero_based=True) for _ in range(3))
            order = check_certificate([x, y])
            # the walk reads only products of the generators, so a
            # relabelled copy finds its witness at the same step
            assert check_certificate([pi.inverse() * x * pi, pi.inverse() * y * pi]) == order
            certified += order is not None
        assert certified >= 4

    @settings(deadline=None)
    @given(imprimitive_gens)
    def test_block_preserving_groups_are_never_certified(self, images):
        gens = [Permutation(imgs, zero_based=True) for imgs in images]
        assert check_certificate(gens) is None
        assert PermGroup(gens).order == _schreier_sims_order(gens, len(images[0]))

    @pytest.mark.parametrize("n", range(8, 13))
    def test_symmetric_and_alternating_are_certified(self, n, schreier_sims_runs):
        for G, order in ((symmetric_group(n), factorial(n)), (alternating_group(n), factorial(n) // 2)):
            assert G.order == order == _schreier_sims_order(G.generators, n)
        assert schreier_sims_runs == []

    @pytest.mark.parametrize("gens, order", WITNESS_FREE)
    def test_witness_free_groups_fall_back_to_schreier_sims(self, gens, order, schreier_sims_runs):
        assert _jordan_order([g.imgs for g in gens], gens[0].degree) is None
        assert PermGroup(gens).order == order
        assert schreier_sims_runs == [order]


def inversion_parity(p):
    """0 for an even permutation, 1 for an odd one, by counting inversions."""
    imgs = p.imgs
    return sum(imgs[i] > imgs[j] for i in range(len(imgs)) for j in range(i + 1, len(imgs))) % 2


class TestMembership:
    def test_symmetric_and_alternating_at_degree_12_by_parity(self):
        S, A = symmetric_group(12), alternating_group(12)
        rng = random.Random(12)
        perms = [Permutation(rng.sample(range(12), 12), zero_based=True) for _ in range(200)]
        assert {inversion_parity(p) for p in perms} == {0, 1}
        for p in perms:
            assert p in S
            assert (p in A) == (inversion_parity(p) == 0)
        assert "_elt_map" not in vars(S) and "_elt_map" not in vars(A)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_symmetric_and_alternating_match_enumeration(self, n):
        for G in (symmetric_group(n), alternating_group(n)):
            members = {p.imgs for p in G.elements}
            for imgs in itertools.permutations(range(n)):
                assert (Permutation(imgs, zero_based=True) in G) == (imgs in members)

    @settings(max_examples=30, deadline=None)
    @given(generator_lists)
    def test_other_groups_match_enumeration(self, gens):
        G = PermGroup(gens)
        members = {p.imgs for p in G.elements}
        for imgs in itertools.permutations(range(G.degree)):
            assert (Permutation(imgs, zero_based=True) in G) == (imgs in members)

    def test_degree_mismatch_is_not_a_member(self):
        for G in (symmetric_group(12), alternating_group(12), cyclic_group(12)):
            assert Permutation.identity(11) not in G
            assert Permutation.identity(13) not in G
            assert Permutation.identity(12).imgs not in G
        assert Permutation.identity(3) not in symmetric_group(4)


class TestConjugacy:
    def test_a5_class_sizes(self):
        G = alternating_group(5)
        sizes = sorted(s for _, s in G.conjugacy_classes())
        assert sizes == [1, 12, 12, 15, 20]

    def test_identity_class_first(self):
        G = symmetric_group(3)
        classes = G.conjugacy_classes()
        assert classes[0][0].is_identity() and classes[0][1] == 1
        assert sum(s for _, s in classes) == G.order

    def test_trivial_one_class(self):
        assert len(trivial_group(3).conjugacy_classes()) == 1

    def test_cyclic6_six_classes(self):
        assert len(cyclic_group(6).conjugacy_classes()) == 6

    def test_class_index_first_matches_classes_first(self):
        # one memo holds the classes and the class index, filled by
        # whichever is asked for first; building the group fills none
        for make in (lambda: symmetric_group(4), lambda: alternating_group(5)):
            G, H = make(), make()
            assert "_elt_map" not in vars(G) and "_conjugacy" not in vars(G)
            index = G.class_index()
            classes = H.conjugacy_classes()
            assert index == H.class_index()
            assert [(rep.imgs, size) for rep, size in classes] == [
                (rep.imgs, size) for rep, size in G.conjugacy_classes()
            ]

    def test_power_map_consistency(self):
        G = symmetric_group(4)
        for ci, (rep, _) in enumerate(G.conjugacy_classes()):
            for a in range(1, 7):
                for b in range(1, 7):
                    inner = G.conjugacy_classes()[G.power_map(ci, a)][0]
                    assert G.class_index()[(inner**b).imgs] == G.power_map(ci, a * b)


class TestSubgroupsAndActions:
    def test_a5_point_stabilizer(self):
        G = alternating_group(5)
        S = G.stabilizer(1)
        assert S.order == 12

    def test_orbit_stabilizer(self):
        G = symmetric_group(4)
        for pt in range(1, 5):
            assert G.stabilizer(pt).order * 4 == G.order

    def test_stabilizer_out_of_range(self):
        with pytest.raises(ValueError):
            symmetric_group(3).stabilizer(5)

    def test_normalizer_self_normalizing_a4_in_a5(self):
        G = alternating_group(5)
        S = G.stabilizer(1)
        assert G.normalizer(S).order == 12

    def test_normalizer_trivial_and_full(self):
        G = symmetric_group(3)
        assert G.normalizer(G).order == G.order
        assert G.normalizer(trivial_group(3)).order == G.order

    def test_normalizer_requires_subgroup(self):
        with pytest.raises(ValueError):
            # not a subgroup: wrong degree entirely
            symmetric_group(3).normalizer(symmetric_group(4))

    def test_coset_action_quotient(self):
        # V4 inside A4 is normal of index 3
        A4 = alternating_group(4)
        V4 = generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
        image, reps, project = A4.coset_action(V4)
        assert len(reps) == 3
        assert image.order == 3

    def test_coset_action_full_subgroup(self):
        G = symmetric_group(3)
        image, reps, _ = G.coset_action(G)
        assert image.order == 1 and len(reps) == 1

    def test_coset_action_order2_in_v4(self):
        V4 = generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
        J = generate([perm(4, (1, 2), (3, 4))])
        image, reps, project = V4.coset_action(J)
        assert image.order == 2

    def test_coset_action_projection_is_homomorphism(self):
        G = symmetric_group(4)
        S = G.stabilizer(1)
        image, reps, project = G.coset_action(S)
        assert image.degree == 4
        for a in G.generators:
            for b in G.generators:
                assert project(a * b) == project(a) * project(b)

    def test_regular_representation(self):
        G = symmetric_group(3)
        R = PermGroup(
            [Permutation(r, zero_based=True) for r in regular_representation(G, G.generators)]
        )
        assert R.degree == 6 and R.order == 6
        # regular action is free: nonidentity elements fix nothing
        for g in R.elements:
            if not g.is_identity():
                assert all(g.imgs[i] != i for i in range(6))

    def test_regular_representation_of_given_elements(self):
        # point i is G.elements[i], so each element's right-regular image
        # sends the identity, point 0, to that element's own position
        G = symmetric_group(3)
        images = regular_representation(G, G.elements)
        assert all(type(r) is tuple for r in images)
        assert [r[0] for r in images] == list(range(G.order))
        assert all(
            G.elements[r[i]] == e * g
            for r, g in zip(images, G.elements)
            for i, e in enumerate(G.elements)
        )
