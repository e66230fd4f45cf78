import time

import pytest

from belyilab.errors import InternalError, PreconditionError
from belyilab.gaschuetz import (
    SurjectionProblem,
    count_lifts,
    lift_generators,
    min_generators,
)
from belyilab.permgroup import (
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    generate,
    symmetric_group,
    trivial_group,
)


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def quaternion_group():
    i = Permutation([2, 3, 4, 1, 6, 7, 8, 5])
    j = Permutation([5, 8, 7, 6, 3, 2, 1, 4])
    return generate([i, j])


def quotient_problem(G1, normal_gens, S2=None, d=None):
    """SurjectionProblem for G1 -> G1/N via the coset action."""
    N = generate(normal_gens)
    G2, _, project = G1.coset_action(N)
    if S2 is None:
        S2 = tuple(G2.small_generating_set())
        if d is not None:
            S2 = S2 + (G2.identity(),) * (d - len(S2))
    return SurjectionProblem(G1, G2, project, S2), G2, project


class TestMinGenerators:
    def test_cyclic(self):
        assert min_generators(cyclic_group(6)) == 1
        assert min_generators(cyclic_group(7)) == 1

    def test_trivial(self):
        assert min_generators(trivial_group(1)) == 0

    def test_v4_needs_two(self):
        V4 = generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
        assert min_generators(V4) == 2

    def test_a5_needs_two(self):
        assert min_generators(alternating_group(5)) == 2

    def test_search_bound(self):
        # (Z/2)^5 needs 5 generators; length 4 would walk 32^4 > 10^6
        # tuples and is refused after lengths 0..3, where the unbounded
        # walk went on through length 5 for about 20 s
        G = generate([perm(10, (2 * i + 1, 2 * i + 2)) for i in range(5)])
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="generator search too large"):
            min_generators(G)
        assert time.perf_counter() - start < 1.0


class TestLiftGenerators:
    def test_z6_to_z3(self):
        G1 = cyclic_group(6)
        g = G1.generators[0]
        p, G2, project = quotient_problem(G1, [g * g * g], S2=None)
        lift = lift_generators(p)
        assert len(lift) == 1
        assert project(lift[0]) == p.from2(p.S2[0])
        assert generate(list(lift)).order == 6
        # the lexicographically least element of the fiber generating Z/6
        assert lift[0].order() == 6

    def test_q8_to_v4(self):
        Q8 = quaternion_group()
        center = [g for g in Q8.elements if g.order() == 2]
        p, G2, project = quotient_problem(Q8, center)
        lift = lift_generators(p)
        assert generate(list(lift)).order == 8
        assert all(g.order() == 4 for g in lift)
        assert [project(g) for g in lift] == [p.from2(s) for s in p.S2]

    def test_identity_surjection(self):
        G = symmetric_group(3)
        S2 = tuple(G.small_generating_set())
        p = SurjectionProblem(G, G, lambda x: x, S2)
        assert lift_generators(p) == S2
        assert count_lifts(p) == 1

    def test_short_tuple_rejected(self):
        V4 = generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
        G2, _, project = V4.coset_action(generate([V4.generators[0]]))
        with pytest.raises(PreconditionError):
            lift_generators(SurjectionProblem(V4, G2, project, tuple(G2.small_generating_set())))

    def test_search_bound(self):
        # S4 onto the trivial group over five identities: the 24^5 tuples
        # of the fibers are refused before the lift search
        G1 = symmetric_group(4)
        one = trivial_group(1).identity()
        p = SurjectionProblem(G1, trivial_group(1), lambda x: one, (one,) * 5)
        with pytest.raises(PreconditionError, match="too large"):
            lift_generators(p)

    def test_missing_lift_on_a_valid_instance(self, monkeypatch):
        # fibers corrupted to the identity alone: Z/6 has a generating
        # 1-tuple, so the failed search is an internal defect
        G1 = cyclic_group(6)
        g = G1.generators[0]
        p, _, _ = quotient_problem(G1, [g * g * g])
        monkeypatch.setattr(p, "fibers", lambda: [[p.to1(G1.identity())]])
        with pytest.raises(InternalError, match="no lift found"):
            lift_generators(p)

    def test_non_generating_tuple_rejected(self):
        G = cyclic_group(4)
        with pytest.raises(PreconditionError):
            SurjectionProblem(G, G, lambda x: x, (G.identity(),))

    def test_identity_generator_with_another_image_rejected(self):
        G = cyclic_group(3)
        g = G.generators[0]
        with pytest.raises(PreconditionError, match="psi does not extend"):
            SurjectionProblem(G, G, {g: g, G.identity(): g}, (g,))
        with pytest.raises(PreconditionError, match="psi does not extend"):
            SurjectionProblem(G, G, [(g, g), (g, g * g)], (g,))
        p = SurjectionProblem(G, G, [(g, g), (G.identity(), G.identity()), (g, g)], (g,))
        assert count_lifts(p) == 1

    def test_non_surjective_rejected(self):
        G = cyclic_group(4)
        g = G.generators[0]
        with pytest.raises(PreconditionError):
            SurjectionProblem(G, G, lambda x: x * x, (g,))


class TestCountLifts:
    def test_search_bound(self):
        # S4 onto the trivial group: the 24^2 pairs are counted (216 of
        # them generate, Hall's count), the 24^5 5-tuples are refused
        G1 = symmetric_group(4)
        G2 = trivial_group(1)
        one = G2.identity()
        assert count_lifts(SurjectionProblem(G1, G2, lambda x: one, (one,) * 2)) == 216
        with pytest.raises(PreconditionError, match="too large"):
            count_lifts(SurjectionProblem(G1, G2, lambda x: one, (one,) * 5))

    def test_z4_to_z2(self):
        G1 = cyclic_group(4)
        g = G1.generators[0]
        p, _, _ = quotient_problem(G1, [g * g])
        assert count_lifts(p) == 2  # both odd powers generate

    def test_z2_to_trivial(self):
        G1 = cyclic_group(2)
        p, G2, _ = quotient_problem(G1, [G1.generators[0]], d=1)
        assert G2.order == 1
        assert count_lifts(p) == 1


def invariance_corpus():
    """(G1, normal generators) pairs for quotient surjections, |G1| <= 16."""
    z4 = cyclic_group(4)
    z6 = cyclic_group(6)
    z8 = cyclic_group(8)
    z12 = cyclic_group(12)
    v4 = generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
    s3 = symmetric_group(3)
    d4 = generate([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])
    q8 = quaternion_group()
    a4 = alternating_group(4)
    return [
        (z4, [z4.generators[0] ** 2]),
        (z6, [z6.generators[0] ** 2]),
        (z6, [z6.generators[0] ** 3]),
        (z8, [z8.generators[0] ** 4]),
        (z12, [z12.generators[0] ** 6]),
        (v4, [v4.generators[0]]),
        (s3, [perm(3, (1, 2, 3))]),
        (d4, [perm(4, (1, 3), (2, 4))]),
        (q8, [g for g in q8.elements if g.order() == 2]),
        (a4, [perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))]),
    ]


class TestCountInvariance:
    def test_count_same_for_every_generating_tuple(self):
        # the lift count depends only on the surjection and the tuple
        # length, not on which generating tuple of G2 is chosen
        for G1, ngens in invariance_corpus():
            N = generate(ngens)
            G2, _, project = G1.coset_action(N)
            d = max(min_generators(G1), 1)
            counts = set()
            tuples = 0
            for S2 in _all_tuples(G2, d):
                if generate(list(S2)).order != G2.order:
                    continue
                tuples += 1
                p = SurjectionProblem(G1, G2, project, S2)
                counts.add(count_lifts(p))
                assert lift_generators(p) is not None
            assert tuples > 0
            assert len(counts) == 1, "lift count varies across tuples"
            assert counts.pop() > 0


def _all_tuples(G, d):
    import itertools

    return itertools.product(G.elements, repeat=d)
