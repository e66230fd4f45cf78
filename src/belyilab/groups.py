"""Small abstract finite groups as multiplication tables.

Quotients and extensions rarely come with a natural small permutation
degree, so parts of the library work with explicit multiplication tables
instead.  Elements are indices 0..n-1 with 0 the identity.  The group
axioms and the homomorphism property are checked against a generating
set only, which is exact (see TableGroup.__init__ and preserves_products).

SchreierTree takes a transitive action of F_d as d image tuples, not a
table: the transversal, the free generators of a point stabilizer R and
the walk that rewrites words in them, all read off one `orbit` tree by
`permgroup.labels`.  On the right-regular action of H, R is the kernel of
F_d -> H: relmod builds the relation module R-bar on it, and
cohomology.h2 computes H^2 through Hom_H(R-bar, M).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import InternalError, PreconditionError
from .permgroup import _inverse, greedy_generators, labels, orbit

# the most elements a Cayley table may have: 4096^2 = 16.8 million entries
TABLE_LIMIT = 4096


class TableGroup:
    def __init__(self, table, names=None):
        n = len(table)
        self.n = n
        self.table = tuple(tuple(row) for row in table)
        self.names = names
        self.index = None if names is None else {e: i for i, e in enumerate(names)}
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise PreconditionError("multiplication table rows must be permutations")
        for j in range(n):
            if sorted(self.table[i][j] for i in range(n)) != list(range(n)):
                raise PreconditionError("multiplication table columns must be permutations")
        if any(self.table[0][j] != j for j in range(n)) or any(
            self.table[i][0] != i for i in range(n)
        ):
            raise PreconditionError("element 0 must be the identity")
        self.gens = greedy_generators(range(n), 0, self.mult)
        # The set {c : (ab)c = a(bc) for all a, b} is closed under products:
        # for c, d in it, (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).
        # Every element is a product of gens, so checking c in gens is exact.
        t = self.table
        for c in self.gens:
            for a in range(n):
                ta = t[a]
                for b in range(n):
                    if t[ta[b]][c] != ta[t[b][c]]:
                        raise PreconditionError("multiplication table is not associative")
        # each row is a permutation of 0..n-1, so it holds the identity 0
        self.inv = [row.index(0) for row in t]

    @classmethod
    def from_permgroup(cls, G):
        """G's table, with position i standing for G.elements[i] (the
        identity is first).  Memoized on G; refused above TABLE_LIMIT
        elements before G is enumerated."""
        if G.order > TABLE_LIMIT:
            raise PreconditionError(
                "group of order %d is too large for a multiplication table (limit %d)"
                % (G.order, TABLE_LIMIT)
            )
        T = getattr(G, "_table", None)
        if T is None:
            # G.elements is sorted, so the identity (0, 1, ..., n-1) comes
            # first.  itemgetter(*a)(b) = (b[a[0]], ..., b[a[n-1]]) is the
            # image tuple of a * b, made without a Permutation; at degree 1
            # it is the bare b[a[0]], so the keys go through the same getter.
            imgs = [g.imgs for g in G.elements]
            if not imgs[0]:
                imgs = [(0,)]  # degree 0: the trivial group, as on one point
            key = itemgetter(*imgs[0])
            pos = {key(t): i for i, t in enumerate(imgs)}
            table = [list(map(pos.__getitem__, map(itemgetter(*a), imgs))) for a in imgs]
            T = G._table = cls(table, names=list(G.elements))
        return T

    def mult(self, a, b):
        return self.table[a][b]

    def order_of(self, a):
        k = 1
        x = a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def generates(self, gens):
        return len(orbit(0, gens, self.mult)) == self.n


def preserves_products(f, src: TableGroup, dst: TableGroup):
    """Whether the image list f is a homomorphism src -> dst.

    The set {b : f(ab) = f(a)f(b) for all a} is closed under products: for
    b, c in it, f(a(bc)) = f((ab)c) = f(ab)f(c) = f(a)f(b)f(c) = f(a)f(bc).
    Every element of the finite group src is a product of src.gens, so
    checking b in src.gens is exact.
    """
    for b in src.gens:
        fb = f[b]
        for a in range(src.n):
            if f[src.table[a][b]] != dst.table[f[a]][fb]:
                return False
    return True


def map_from_generators(src: TableGroup, dst: TableGroup, gens, images):
    """The image list sending each element of src, written as a word in
    gens, to that word in images, or None if it does not send every
    listed generator to its listed image (the word tree reads one image
    per element, so an identity or a repeated generator listed with
    another image is caught only here); a homomorphism exactly when
    preserves_products says so."""
    tree = orbit(0, gens, src.mult)
    if len(tree) != src.n:
        raise PreconditionError("the given elements do not generate the group")
    f = labels(tree, 0, lambda v, _, i: dst.table[v][images[i]])
    out = [f[b] for b in range(src.n)]
    return out if all(out[g] == y for g, y in zip(gens, images)) else None


def homomorphism_from_generators(src: TableGroup, dst: TableGroup, gens, images):
    """The homomorphism src -> dst sending gens to images, as an image
    list, or None if no such homomorphism exists."""
    out = map_from_generators(src, dst, gens, images)
    return out if out is not None and preserves_products(out, src, dst) else None


def automorphisms(T: TableGroup):
    """All automorphisms, as image lists, by brute force over the images of
    T.gens with matching element orders."""
    pools = [[b for b in range(T.n) if T.order_of(b) == o] for o in map(T.order_of, T.gens)]
    out = []
    for chosen in itertools.product(*pools):
        f = homomorphism_from_generators(T, T, T.gens, list(chosen))
        if f is not None and len(set(f)) == T.n:
            out.append(f)
    return out


class SchreierTree:
    """The Schreier transversal of F_d acting transitively on the points
    0..n-1, x_i by the image tuple acts[i], and the free generators of R,
    the stabilizer of point 0 (for H's right-regular action, the kernel of
    F_d -> H, point h being an element).

    tree is the breadth-first orbit of 0, each point mapped to the edge
    (parent, i), point = acts[i][parent], that first reached it, parents
    first.  `labels` reads the transversal words s_p off it, so they are
    positive.  Every other edge (p, i), k = acts[i][p], gives the Schreier
    generator s_p x_i s_k^-1, number gen_index[(p, i + 1)] of free_gens,
    and there are rank = n(d-1)+1 of them.  A word is a tuple of nonzero
    letters, +i for x_i and -i for its inverse.  All rewriting is one coset
    walk: tree edges carry no Schreier generator, so s_p w s_p^-1 rewrites
    as w read from p, and s(h1) s(h2) s(h1 h2)^-1 as s(h2) read from h1.
    """

    def __init__(self, n, acts):
        self.acts = acts = [tuple(a) for a in acts]
        self.inverses = [_inverse(a) for a in acts]
        self.d = len(acts)
        self.tree = tree = orbit(0, acts, lambda p, a: a[p])
        if len(tree) != n:
            raise InternalError("transversal misses part of the points")
        words = labels(tree, (), lambda w, _, i: w + (i + 1,))
        transversal = [words[p] for p in range(n)]
        back = [tuple(-l for l in reversed(w)) for w in transversal]  # s_p^-1
        self.transversal = transversal
        self.free_gens, self.gen_index = [], {}
        for p in tree:
            for i, a in enumerate(acts):
                k = a[p]
                if tree[k] != (p, i):
                    self.gen_index[(p, i + 1)] = len(self.free_gens)
                    self.free_gens.append(transversal[p] + (i + 1,) + back[k])
        self.rank = len(self.free_gens)
        if self.rank != n * (self.d - 1) + 1:
            raise InternalError(
                "Schreier generator count %d != rank %d" % (self.rank, n * (self.d - 1) + 1)
            )

    def walk(self, letters, state):
        """Read letters from the point state: (coordinates of the Schreier
        generators crossed, the point where the walk ends)."""
        coords = [0] * self.rank
        acts, inverses, index = self.acts, self.inverses, self.gen_index
        for l in letters:
            if l > 0:
                j = index.get((state, l))
                if j is not None:
                    coords[j] += 1
                state = acts[l - 1][state]
            else:
                state = inverses[-l - 1][state]
                j = index.get((state, -l))
                if j is not None:
                    coords[j] -= 1
        return coords, state

    def conjugation(self, p):
        """The columns of s_p acting on R-bar by conjugation: column j is
        the j-th generator read from p, a walk that must end at p."""
        cols = []
        for w in self.free_gens:
            coords, end = self.walk(w, p)
            if end != p:
                raise InternalError("a walk from %d ends at %d, not at %d" % (p, end, p))
            cols.append(coords)
        return cols

    def generator_values(self, zero, step):
        """The values at the Schreier generators of a crossed homomorphism
        D (or the fiber part of a map to an extension), from zero = D(1)
        and step(D(s_p), p, i) = D(s_p x_i): `labels` gives every D(s_p)
        along the tree, and s_p x_i s_k^-1 takes D(s_p x_i) - D(s_k)."""
        D = labels(self.tree, zero, step)
        cols = [None] * self.rank
        for (p, l), j in self.gen_index.items():
            ends = step(D[p], p, l - 1), D[self.acts[l - 1][p]]
            cols[j] = [a - b for a, b in zip(*ends)]
        return cols

    def derivations(self, action, k):
        """For D: F -> Z^k the derivation with D(x_i) = e_c (0 on the
        other letters), H acting by the integer matrices action[h], and
        (i, c) in order: D on each Schreier generator, with D(s_h x_i) =
        D(s_h) + h.D(x_i)."""
        out = []
        for i0 in range(self.d):
            for c in range(k):
                def step(v, h, i):
                    return [x + row[c] for x, row in zip(v, action[h])] if i == i0 else v
                out.append(self.generator_values([0] * k, step))
        return out
