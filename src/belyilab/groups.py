"""Small abstract finite groups as multiplication tables.

Quotients and extensions rarely come with a natural small permutation
degree, so parts of the library work with explicit multiplication tables
instead.  Elements are indices 0..n-1 with 0 the identity.  Everything
here is brute force on purpose; the scale is tiny.
"""

from __future__ import annotations

import itertools
import operator

from .errors import PreconditionError
from .permgroup import greedy_generators, orbit


class TableGroup:
    def __init__(self, table, names=None):
        n = len(table)
        self.n = n
        self.table = tuple(tuple(row) for row in table)
        self.names = names
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
        # associativity (cubic, but n is small)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise PreconditionError("multiplication table is not associative")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == 0:
                    inv[a] = b
                    break
        if any(v is None for v in inv):
            raise PreconditionError("multiplication table has no inverses")
        self.inv = inv

    @classmethod
    def from_elements(cls, elements, identity, mult):
        """Table of the group formed by hashable elements under mult, with
        the identity as 0, the rest in the given order, and names[i] the
        element i stands for."""
        names = [identity] + [e for e in elements if e != identity]
        pos = {e: i for i, e in enumerate(names)}
        return cls([[pos[mult(a, b)] for b in names] for a in names], names=names)

    @classmethod
    def from_permgroup(cls, G):
        return cls.from_elements(G.elements, G.identity(), operator.mul)

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

    def small_generating_set(self):
        return greedy_generators(range(self.n), 0, self.mult)

    def words(self, gens):
        """Express each element as a word (list of generator indices)."""
        word = {}
        for b, edge in orbit(0, gens, self.mult).items():
            word[b] = [] if edge is None else word[edge[0]] + [edge[1]]
        if len(word) != self.n:
            raise PreconditionError("the given elements do not generate the group")
        return word


def homomorphism_from_generators(src: TableGroup, dst: TableGroup, gens, images):
    """The homomorphism src -> dst sending gens to images, as an image
    list, or None if no such homomorphism exists."""
    word = src.words(gens)
    out = [None] * src.n
    for a in range(src.n):
        v = 0
        for gi in word[a]:
            v = dst.table[v][images[gi]]
        out[a] = v
    # verify multiplicativity
    for a in range(src.n):
        for b in range(src.n):
            if out[src.table[a][b]] != dst.table[out[a]][out[b]]:
                return None
    return out


def automorphisms(T: TableGroup):
    """All automorphisms, as image lists, by brute force over the images of
    T's small generating set with matching element orders."""
    gens = T.small_generating_set()
    pools = [[b for b in range(T.n) if T.order_of(b) == o] for o in map(T.order_of, gens)]
    out = []
    for chosen in itertools.product(*pools):
        f = homomorphism_from_generators(T, T, gens, list(chosen))
        if f is not None and len(set(f)) == T.n:
            out.append(f)
    return out
