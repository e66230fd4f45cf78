"""Exact permutation and finite-permutation-group engine.

Permutations are stored as 0-based image tuples internally; every external
surface (JSON, repr, cycle notation) is 1-based.  The composition convention
is fixed once and for all: (p * q)(i) = q(p(i)), apply p first.  A group's
order comes from a deterministic Schreier-Sims base and strong generating
set, in time polynomial in the degree.  Its elements are enumerated by full
closure only when something first needs them (the element list, membership,
conjugacy classes), and only up to _SCALE_LIMIT elements: a larger group
keeps its order but refuses enumeration with PreconditionError.

`orbit` is the library's one breadth-first search (closures, Schreier-Sims
levels, conjugacy classes, cosets, cover transversals and blocks, words).
It returns the Schreier tree {point: (parent, generator index)} with the
start mapped to None, in discovery order: level by level, and within a
level by parent, then by generator index.  Parents precede children, so
`labels` gives every point its label (word, element, matrix) in one pass
over the tree; it is the library's one labelling pass.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm, prod

from .errors import InternalError, PreconditionError

_SCALE_LIMIT = 100_000


class Permutation:
    """A permutation of {1..n}, immutable and hashable."""

    __slots__ = ("imgs",)

    def __init__(self, images, zero_based=False):
        if zero_based:
            imgs = tuple(images)
        else:
            imgs = tuple(i - 1 for i in images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise ValueError("images are not a bijection of {1..%d}" % n)
        self.imgs = imgs

    @classmethod
    def from_json(cls, images):
        """From a JSON value; PreconditionError unless it is a 1-based image list."""
        ints = isinstance(images, list) and all(type(i) is int for i in images)
        if not ints or sorted(images) != list(range(1, len(images) + 1)):
            raise PreconditionError("a permutation must be a list of the integers 1..n")
        return cls(images)

    @classmethod
    def identity(cls, n):
        return cls(range(n), zero_based=True)

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build from 1-based disjoint cycles, e.g. from_cycles(5, [(1,2,3)])."""
        imgs = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a - 1] = b - 1
        return cls(imgs, zero_based=True)

    @property
    def degree(self):
        return len(self.imgs)

    @property
    def images(self):
        """1-based image list (the wire format)."""
        return [i + 1 for i in self.imgs]

    def __mul__(self, other):
        """(p * q)(i) = q(p(i)): apply self first, then other."""
        if len(self.imgs) != len(other.imgs):
            raise ValueError("degree mismatch: %d vs %d" % (len(self.imgs), len(other.imgs)))
        o = other.imgs
        return Permutation(tuple(o[i] for i in self.imgs), zero_based=True)

    def inverse(self):
        return Permutation(_inverse(self.imgs), zero_based=True)

    def __pow__(self, k):
        imgs = [0] * len(self.imgs)
        for cyc in self.all_cycles():
            for pos, i in enumerate(cyc):
                imgs[i] = cyc[(pos + k) % len(cyc)]
        return Permutation(imgs, zero_based=True)

    def order(self):
        return lcm(*(len(cyc) for cyc in self.all_cycles()))

    def all_cycles(self):
        """Disjoint cycles as 0-based lists, fixed points included, each
        starting at its least point, in order of that point."""
        seen = [False] * len(self.imgs)
        out = []
        for start in range(len(self.imgs)):
            if seen[start]:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = self.imgs[i]
            out.append(cyc)
        return out

    def cycles(self):
        """Disjoint cycles as 1-based tuples, fixed points omitted."""
        return [tuple(i + 1 for i in cyc) for cyc in self.all_cycles() if len(cyc) > 1]

    def cycle_count(self):
        """Number of cycles including fixed points (for Riemann-Hurwitz)."""
        return len(self.all_cycles())

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.imgs))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.imgs == other.imgs

    def __lt__(self, other):
        return self.imgs < other.imgs

    def __hash__(self):
        return hash(self.imgs)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id/%d)" % self.degree
        return "Permutation(%s)" % " ".join("(%s)" % " ".join(map(str, c)) for c in cyc)


def orbit(start, gens, act):
    """Schreier tree {point: (parent, generator index)} of start under
    the generators, by breadth-first search with act(point, generator);
    start maps to None and the dict is in discovery order."""
    tree = {start: None}
    queue = [start]
    indexed = list(enumerate(gens))
    for p in queue:  # the queue grows while it is read
        for i, g in indexed:
            q = act(p, g)
            if q not in tree:
                tree[q] = (p, i)
                queue.append(q)
    return tree


def labels(tree, root, step):
    """{point: label} in the order of a tree from `orbit`: the start gets
    root, and the point reached by the edge (parent, i) gets
    step(label of parent, parent, i)."""
    out = {}
    for p, edge in tree.items():
        out[p] = root if edge is None else step(out[edge[0]], *edge)
    return out


def _compose(p, g):
    """Image tuple of p * g."""
    return tuple(g[i] for i in p)


def _inverse(imgs):
    """Image tuple of the inverse permutation."""
    inv = [0] * len(imgs)
    for i, j in enumerate(imgs):
        inv[j] = i
    return tuple(inv)


def _schreier_sims_order(gens, n):
    """|<gens>| by deterministic Schreier-Sims on 0-based image tuples.

    Level i keeps the strong generators fixing base[:i] and a transversal
    {point: (u, u^-1)} of the orbit of base[i], with base[i]^u = point.
    Working down from the last level, every Schreier generator
    u_a s u_(a^s)^-1 of level i is sifted through the levels below; a
    nontrivial residue becomes a strong generator of the levels it reached
    (extending the base if it fixes every base point) and the check resumes
    at the deepest of them.  When no level yields a residue, each level's
    generators generate the stabilizer of base[:i], and |G| is the product
    of the orbit lengths (Holt-Eick-O'Brien, Handbook of CGT, 4.4.2).

    `unsifted[i]` lists the pairs (a, index of s) of level i not yet known
    to sift to the identity, the next one last.  `level_orbit` refills it
    in reverse scan order when it rebuilds the level, leaving out the
    orbit tree's edges (a, s) -> a^s, whose Schreier generator is the
    identity because `labels` builds u_(a^s) as u_a s.  A pair leaves the
    list only once it sifts to the identity, and comes back only with a
    rebuild: the deeper levels only grow, so it stays in <strong[i+1]>.
    A residue that moves a base point means a faulty level, and raises
    InternalError (the base would otherwise grow without end).
    """
    ident = tuple(range(n))
    base, strong, trans, unsifted = [], [], [], []

    def add_level(h):
        if any(h[b] != b for b in base):
            raise InternalError("a Schreier-Sims residue moves a base point")
        base.append(next(p for p in range(n) if h[p] != p))
        strong.append([])
        trans.append(None)
        unsifted.append(None)

    def level_orbit(i):
        s = strong[i]

        def step(pair, _, j):
            ub = _compose(pair[0], s[j])
            return ub, _inverse(ub)

        tree = orbit(base[i], s, lambda a, g: g[a])
        trans[i] = labels(tree, (ident, ident), step)
        unsifted[i] = [
            (a, m)
            for a in reversed(tree)
            for m in reversed(range(len(s)))
            if tree[s[m][a]] != (a, m)
        ]

    def sift(g, i):
        """(residue, level it stopped at) of g sifted from level i on."""
        while i < len(base):
            entry = trans[i].get(g[base[i]])
            if entry is None:
                return g, i
            uinv = entry[1]
            g = tuple(uinv[j] for j in g)
            i += 1
        return g, i

    def residue(i):
        """Sifts the pairs of unsifted[i] from its end, dropping each one
        that sifts to the identity; (residue, level) of the first that
        does not, which stays, or None."""
        t, strong_i, pairs = trans[i], strong[i], unsifted[i]
        while pairs:
            a, m = pairs[-1]
            s = strong_i[m]
            vinv = t[s[a]][1]
            h, j = sift(tuple(vinv[s[q]] for q in t[a][0]), i + 1)
            if h != ident:
                return h, j
            pairs.pop()
        return None

    for g in gens:
        g = g.imgs
        if g == ident:
            continue
        if all(g[b] == b for b in base):
            add_level(g)
        first_moved = next(i for i, b in enumerate(base) if g[b] != b)
        for level in range(first_moved + 1):
            strong[level].append(g)
    for i in range(len(base)):
        level_orbit(i)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            add_level(h)
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            level_orbit(level)
        i = j
    return prod(len(u) for u in trans)


def greedy_generators(elements, identity, mul):
    """A short generating list for the group formed by the elements.

    Walks the elements in the given order and keeps each one outside the
    span of those kept so far, until the span is the whole group."""
    gens = []
    span = {identity}
    for g in elements:
        if g in span:
            continue
        gens.append(g)
        span = orbit(identity, gens, mul)
        if len(span) == len(elements):
            break
    return gens


class PermGroup:
    """A finite permutation group.

    The order is computed on construction; the element closure and the
    conjugacy data (classes, power table) are computed lazily on first use.
    All values are immutable after construction; operations never mutate.
    """

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("empty generator list")
        n = generators[0].degree
        for g in generators:
            if g.degree != n:
                raise ValueError("generator degree mismatch")
        self.degree = n
        self.generators = generators
        self.order = _schreier_sims_order(generators, n)

    @cached_property
    def _elt_map(self):
        """{image tuple: element} for every product of the generators,
        built on first use.  The closure multiplies each element it holds
        by each generator, and raises InternalError at the first product
        past order * len(generators): a group larger than its order says
        costs that many products at most, not its whole closure."""
        if self.order > _SCALE_LIMIT:
            raise PreconditionError(
                "group of order %d is too large to enumerate (limit %d)"
                % (self.order, _SCALE_LIMIT)
            )
        budget = iter(range(self.order * len(self.generators)))

        def times(p, g):
            if next(budget, None) is None:
                raise InternalError("closure exceeds the Schreier-Sims order %d" % self.order)
            return tuple(g[i] for i in p)

        tree = orbit(tuple(range(self.degree)), [g.imgs for g in self.generators], times)
        if len(tree) != self.order:
            raise InternalError(
                "closure has %d elements, Schreier-Sims order is %d" % (len(tree), self.order)
            )
        return {imgs: Permutation(imgs, zero_based=True) for imgs in tree}

    @cached_property
    def elements(self):
        return sorted(self._elt_map.values())

    def __contains__(self, p):
        return isinstance(p, Permutation) and p.imgs in self._elt_map

    def identity(self):
        return Permutation.identity(self.degree)

    def is_subgroup(self, other):
        """True if self is a subgroup of other."""
        return self.degree == other.degree and all(g in other for g in self.generators)

    def small_generating_set(self):
        """Greedy reduction of the element list to a short generating set."""
        return _reduce_gens(self.elements, self.degree)

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self):
        """List of (representative, size), identity class first.

        Classes are conjugation orbits computed by brute force; within each
        class the representative is the minimal element, and classes are
        ordered identity first, then by representative.
        """
        return self._conjugacy[0]

    def class_index(self):
        """{image tuple: index of its class in conjugacy_classes order} for
        every element."""
        return self._conjugacy[1]

    @cached_property
    def _conjugacy(self):
        """(conjugacy_classes, class_index), built on first use."""
        pairs = [(g.imgs, g.inverse().imgs) for g in self.generators]

        def conjugate(p, pair):
            g, ginv = pair  # image tuple of ginv * p * g
            return tuple(g[p[j]] for j in ginv)

        unseen = set(self._elt_map)
        orbits = []
        for e in self.elements:
            if e.imgs not in unseen:
                continue
            cls = orbit(e.imgs, pairs, conjugate)
            unseen -= cls.keys()
            orbits.append((self._elt_map[min(cls)], cls))
        # identity class first, then by representative
        orbits.sort(key=lambda ro: (not ro[0].is_identity(), ro[0].imgs))
        classes = [(rep, len(cls)) for rep, cls in orbits]
        return classes, {imgs: ci for ci, (_, cls) in enumerate(orbits) for imgs in cls}

    @cached_property
    def power_table(self):
        """Row i holds the class of rep_i^s for s = 0..ord(rep_i)-1, built on
        first use by repeated multiplication; its length is the order."""
        index = self.class_index()
        ident = tuple(range(self.degree))
        table = []
        for rep, _ in self.conjugacy_classes():
            row, x = [0], rep.imgs  # rep^0 is the identity, class 0
            while x != ident:
                row.append(index[x])
                x = _compose(x, rep.imgs)
            table.append(row)
        return table

    def power_map(self, class_idx, k):
        """Class index of rep^k for the given class."""
        row = self.power_table[class_idx]
        return row[k % len(row)]

    # -- subgroups and actions ---------------------------------------------

    def stabilizer(self, point):
        """Subgroup fixing a 1-based point."""
        if not 1 <= point <= self.degree:
            raise ValueError("point %d out of range 1..%d" % (point, self.degree))
        fixing = [g for g in self.elements if g.imgs[point - 1] == point - 1]
        return PermGroup(_reduce_gens(fixing, self.degree))

    def normalizer(self, S):
        """N_G(S) for a subgroup S of self."""
        if not S.is_subgroup(self):
            raise ValueError("S is not a subgroup of G")
        sgens = S.small_generating_set()
        members = []
        for h in self.elements:
            hinv = h.inverse()
            if all((hinv * s * h) in S for s in sgens):
                members.append(h)
        return PermGroup(_reduce_gens(members, self.degree))

    def coset_action(self, S):
        """Permutation image of G on the right cosets Sr of a subgroup S.

        Returns (image: PermGroup, reps: list of coset representatives,
        project: element -> Permutation on cosets).  The cosets are the
        orbit of S's element set under right multiplication, and reps
        are read off its Schreier tree, identity first.  The kernel of
        the projection is the core of S in G; when S is normal the image
        is the quotient group G/S.
        """
        if not S.is_subgroup(self):
            raise ValueError("S is not a subgroup of G")
        gens = self.generators
        tree = orbit(
            frozenset(S._elt_map),
            [g.imgs for g in gens],
            lambda coset, g: frozenset(_compose(c, g) for c in coset),
        )
        reps = list(labels(tree, self.identity(), lambda r, _, i: r * gens[i]).values())
        coset_of = {c: i for i, coset in enumerate(tree) for c in coset}
        if not len(coset_of) == len(tree) * S.order == self.order:
            raise InternalError("the cosets of S do not partition G")

        def project(g):
            if g not in self:
                raise ValueError("element not in G")
            return Permutation([coset_of[(r * g).imgs] for r in reps], zero_based=True)

        return PermGroup([project(g) for g in gens]), reps, project


def _reduce_gens(elements, degree):
    """A short generating list for the group formed by the given elements."""
    by_imgs = {g.imgs: g for g in elements}
    gens = greedy_generators(sorted(by_imgs), tuple(range(degree)), _compose)
    return [by_imgs[g] for g in gens] or [Permutation.identity(degree)]


def generate(gens):
    """Group generated by the permutations (the spec's generate op)."""
    return PermGroup(list(gens))


def trivial_group(n):
    return PermGroup([Permutation.identity(n)])


def cyclic_group(n):
    """Z/n as the regular cyclic group on n points."""
    return PermGroup([Permutation([(i + 1) % n for i in range(n)], zero_based=True)])


def symmetric_group(n):
    if n == 1:
        return trivial_group(1)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return PermGroup(gens)


def alternating_group(n):
    if n <= 2:
        return trivial_group(max(n, 1))
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        cyc = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
        gens.append(Permutation.from_cycles(n, [cyc]))
    return PermGroup(gens)


def regular_representation(G, gens):
    """The image tuples of gens, elements of G, in the right-regular action
    of G on its own elements, point i standing for G.elements[i]."""
    elts = [e.imgs for e in G.elements]
    pos = {e: i for i, e in enumerate(elts)}
    return [tuple(pos[_compose(e, g.imgs)] for e in elts) for g in gens]
