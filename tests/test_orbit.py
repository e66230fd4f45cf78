"""The breadth-first orbit routine against the frontier BFS it replaced,
a tree grown in place against one search, the labelling pass over its
trees against replayed words, and the coset action built on it against
brute-force right cosets."""

import itertools

from hypothesis import given, settings, strategies as st

from belyilab.corpus import _surjection_corpus
from belyilab.groups import TableGroup
from belyilab.permgroup import (
    Permutation,
    alternating_group,
    cyclic_group,
    generate,
    labels,
    orbit,
    symmetric_group,
)


def frontier_bfs(start, gens, act):
    """Discovery order of a level-by-level BFS (the oracle for orbit)."""
    order = [start]
    known = {start}
    frontier = [start]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = act(p, g)
                if q not in known:
                    known.add(q)
                    order.append(q)
                    new.append(q)
        frontier = new
    return order


def check_tree(start, gens, act):
    tree = orbit(start, gens, act)
    assert list(tree) == frontier_bfs(start, gens, act)
    assert tree[start] is None
    position = {p: i for i, p in enumerate(tree)}
    for point, edge in tree.items():
        if edge is None:
            continue
        parent, i = edge
        assert position[parent] < position[point]
        assert act(parent, gens[i]) == point
        # walking the tree back to start and replaying the word reproduces point
        word = []
        p = point
        while tree[p] is not None:
            p, gi = tree[p]
            word.append(gi)
        assert p == start
        for gi in reversed(word):
            p = act(p, gens[gi])
        assert p == point
    return tree


def compose(p, g):
    return tuple(g[i] for i in p)


perm_lists = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(list(range(n))).map(tuple), min_size=0, max_size=3)
    .map(lambda gens: (n, gens))
)


class TestOrbitOrder:
    @settings(max_examples=60, deadline=None)
    @given(perm_lists)
    def test_permutation_closure(self, n_gens):
        n, gens = n_gens
        check_tree(tuple(range(n)), gens, compose)

    @settings(max_examples=60, deadline=None)
    @given(perm_lists, st.integers(0, 5))
    def test_point_orbit(self, n_gens, start):
        n, gens = n_gens
        check_tree(start % n, gens, lambda a, g: g[a])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["z12", "s4", "a4"]),
        st.lists(st.integers(0, 23), max_size=3),
    )
    def test_table_indices(self, name, picks):
        G = {"z12": cyclic_group(12), "s4": symmetric_group(4), "a4": alternating_group(4)}[name]
        T = TableGroup.from_permgroup(G)
        check_tree(0, [a % T.n for a in picks], T.mult)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
    )
    def test_vectors(self, n, start, gens):
        def add(v, g):
            return ((v[0] + g[0]) % n, (v[1] + g[1]) % n)

        check_tree((start[0] % n, start[1] % n), gens, add)


def check_grown_tree(start, gens, act, closed):
    """orbit grown from the tree of gens[:closed] to all of gens: the same
    points as one search under all of them, the earlier tree as its
    first entries, unchanged, and every edge a generator step from a
    parent that comes before its child.  labels then extends the earlier
    labels to those of the grown tree."""
    tree = orbit(start, gens[:closed], act)
    before = dict(tree)
    words = labels(tree, (), lambda w, _, i: w + (i,))
    assert orbit(start, gens, act, tree) is tree
    assert set(tree) == set(orbit(start, gens, act))
    assert list(tree.items())[: len(before)] == list(before.items())
    position = {p: i for i, p in enumerate(tree)}
    for point, edge in tree.items():
        if edge is not None:
            parent, i = edge
            assert position[parent] < position[point]
            assert act(parent, gens[i]) == point
    assert labels(tree, (), lambda w, _, i: w + (i,), words) is words
    assert words == labels(tree, (), lambda w, _, i: w + (i,))
    for point, word in words.items():
        assert replay(start, gens, act, word) == point


def replay(start, gens, act, word):
    p = start
    for gi in word:
        p = act(p, gens[gi])
    return p


def check_labels(start, gens, act):
    """labels with step appending the generator index: every label is the
    word read off the tree back to start, and step sees the parent's label
    and the parent itself, once per point other than start."""
    tree = check_tree(start, gens, act)
    calls = []

    def step(word, parent, i):
        assert replay(start, gens, act, word) == parent
        calls.append((parent, i))
        return word + (i,)

    words = labels(tree, (), step)
    assert list(words) == list(tree)
    assert sorted(calls) == sorted(edge for edge in tree.values() if edge is not None)
    for point, word in words.items():
        back = []
        p = point
        while tree[p] is not None:
            p, gi = tree[p]
            back.append(gi)
        assert word == tuple(reversed(back))
        assert replay(start, gens, act, word) == point
    return words


class TestLabels:
    @settings(max_examples=60, deadline=None)
    @given(perm_lists)
    def test_words_on_permutation_closure(self, n_gens):
        n, gens = n_gens
        check_labels(tuple(range(n)), gens, compose)

    @settings(max_examples=60, deadline=None)
    @given(perm_lists, st.integers(0, 5))
    def test_words_on_point_orbit(self, n_gens, start):
        n, gens = n_gens
        check_labels(start % n, gens, lambda a, g: g[a])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["z12", "s4", "a4"]),
        st.lists(st.integers(0, 23), max_size=3),
    )
    def test_words_on_table_indices(self, name, picks):
        G = {"z12": cyclic_group(12), "s4": symmetric_group(4), "a4": alternating_group(4)}[name]
        T = TableGroup.from_permgroup(G)
        check_labels(0, [a % T.n for a in picks], T.mult)

    @settings(max_examples=60, deadline=None)
    @given(perm_lists, st.integers(0, 3))
    def test_grown_permutation_closure(self, n_gens, closed):
        n, gens = n_gens
        check_grown_tree(tuple(range(n)), gens, compose, min(closed, len(gens)))

    @settings(max_examples=60, deadline=None)
    @given(perm_lists, st.integers(0, 5), st.integers(0, 3))
    def test_grown_point_orbit(self, n_gens, start, closed):
        n, gens = n_gens
        check_grown_tree(start % n, gens, lambda a, g: g[a], min(closed, len(gens)))

    @settings(max_examples=60, deadline=None)
    @given(perm_lists)
    def test_transversal_sends_start_to_each_point(self, n_gens):
        # the orbit of 0 is a transitive action; u[p] = product along the tree
        n, gens = n_gens
        perms = [Permutation(g, zero_based=True) for g in gens]
        tree = orbit(0, gens, lambda a, g: g[a])
        u = labels(tree, Permutation.identity(n), lambda v, _, i: v * perms[i])
        assert list(u) == list(tree)
        for p, v in u.items():
            assert v.imgs[0] == p


def brute_coset_reps(G, S):
    """Right-coset representatives by the frontier BFS with membership
    tests (the routine coset_action used to call)."""
    reps = [G.identity()]
    frontier = [G.identity()]
    while frontier:
        new = []
        for r in frontier:
            for g in G.generators:
                cand = r * g
                if all((cand * r2.inverse()) not in S for r2 in reps):
                    reps.append(cand)
                    new.append(cand)
        frontier = new
    return reps


def brute_coset_index(S, reps, g):
    return next(i for i, r in enumerate(reps) if (g * r.inverse()) in S)


class TestCosetAction:
    def test_against_brute_force_cosets(self):
        for G, ngens in _surjection_corpus():
            S = generate(ngens)
            image, reps, project = G.coset_action(S)
            expect = brute_coset_reps(G, S)
            assert reps == expect
            assert image.order == G.order // S.order  # S is normal here
            for g in G.elements:
                images = [brute_coset_index(S, reps, r * g) for r in reps]
                assert project(g).imgs == tuple(images)
            for a, b in itertools.product(G.elements, repeat=2):
                assert project(a * b) == project(a) * project(b)

    def test_non_normal_subgroup(self):
        G = symmetric_group(4)
        S = generate([Permutation.from_cycles(4, [(1, 2)])])
        image, reps, project = G.coset_action(S)
        assert reps == brute_coset_reps(G, S)
        assert len(reps) == 12 and image.order == 24  # core of <(1 2)> is trivial
        for g in G.generators:
            assert project(g).imgs == tuple(
                brute_coset_index(S, reps, r * g) for r in reps
            )
