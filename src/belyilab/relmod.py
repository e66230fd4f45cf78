"""Relation modules of surjections from a free group onto a finite group.

Given generators images = (g_1, ..., g_d) of H, the kernel R of the
induced map F_d -> H is free on |H|(d-1)+1 Schreier generators attached to
a shortlex transversal.  The abelianization R-bar is Z^rank with H acting
by conjugation through the transversal section; its rational character is
trivial + (d-1)*regular.  Reducing mod m gives a finite module M = R-bar/m
and the cocycle beta of 1 -> M -> P -> H -> 1, P = F_d / R^m[R,R].

The finite-level main theorem: the automorphisms of P over id_H restrict
onto the stabilizer of beta's class in Aut_H(M).  Those endomorphisms are
x_i -> m_i x_i, (m_i) in M^d, and restrict to 1 + D, D the derivation with
D(x_i) = m_i (Fox calculus), read off the transversal tree.  No table of P
is built: the check is bounded by |H|*|M| (FiniteHModule), the cocycle
lattice (h2) and |End_H| (aut_h).  The stabilizer comes from the cochain
h2, independent of the tree; H^2 computed as End_H(M) modulo the
derivation image, where beta's class is the identity, would make the
comparison a tautology.

As in cohomology, H is indexed by position in its Cayley table
(TableGroup.from_permgroup), and the transversal, the action matrices and
the extension cocycle are lists by position.  A word is a tuple of
nonzero letters, +i for x_i and -i for its inverse.

All rewriting is one coset walk, _walk: it reads a word from a position
of the table and counts the Schreier generators it crosses.  The
transversal grows by generators only, so its words are positive and the
generator s_h x_i s_{h g_i}^-1 of a non-tree edge is reduced as written.
Tree edges carry no Schreier generator, so s_h read from the identity, or
s_h^-1 back to it, adds nothing: s_h w s_h^-1 rewrites as w read from h,
s(h1) s(h2) s(h1 h2)^-1 as s(h2) read from h1, and x_i s(g_i)^-1 as the
letter i read from the identity.  No word is multiplied or reduced.
"""

from __future__ import annotations

from .chartab import character_table, VirtualCharacter
from .cohomology import Cocycle2, FiniteHModule, _commutes, aut_h, h2, stabilizer_beta
from .errors import InternalError, PreconditionError
from .groups import TableGroup
from .permgroup import PermGroup, orbit


class RelationModule:
    """Schreier data and conjugation action for one surjection F_d -> H.

    H is indexed by position in its Cayley table T: images, the keys of
    gen_index and the indices of transversal and action are positions.
    action[h] is a rank x rank integer matrix whose column j is the j-th
    Schreier generator read from h.
    """

    def __init__(self, H, T, images, transversal, free_gens, gen_index):
        self.H = H
        self.T = T
        self.images = images  # position of the image of each x_i
        self.d = len(images)
        self.transversal = transversal  # position -> positive letter tuple
        self.free_gens = free_gens  # letter tuples
        self.rank = len(free_gens)
        self.gen_index = gen_index  # (position, letter) -> generator index
        self.action = [
            [list(row) for row in zip(*(_read(self, w, h, h) for w in free_gens))]
            for h in range(T.n)
        ]


# bound on |H| * rank^2, the integers in the conjugation action, checked
# before the transversal is built: S5 at rank 2 has 1.8 million, S6 at
# rank 2 has 3.7e8
_ACTION_LIMIT = 2_000_000


def relation_rank(order, d):
    """The rank |H|(d-1)+1 of R-bar for |H| = order, refused when the
    conjugation action would hold more than _ACTION_LIMIT integers."""
    rank = order * (d - 1) + 1
    if order * rank**2 > _ACTION_LIMIT:
        raise PreconditionError(
            "relation module too large: |H|*rank^2 = %d > %d" % (order * rank**2, _ACTION_LIMIT)
        )
    return rank


def schreier_data(H: PermGroup, images) -> RelationModule:
    """Shortlex Schreier transversal and free generators of the kernel of
    F_d -> H sending the i-th free generator to images[i]."""
    images = list(images)
    rank = relation_rank(H.order, len(images))
    if PermGroup(images).order != H.order or not all(g in H for g in images):
        raise PreconditionError("the images do not generate H")

    T = TableGroup.from_permgroup(H)
    gens = [T.index[g] for g in images]
    tree = orbit(0, gens, T.mult)
    if len(tree) != T.n:
        raise InternalError("transversal misses part of the group")
    transversal = [None] * T.n
    for h, edge in tree.items():
        transversal[h] = () if edge is None else transversal[edge[0]] + (edge[1] + 1,)
    back = [tuple(-l for l in reversed(w)) for w in transversal]  # s_h^-1

    free_gens, gen_index = [], {}
    for h in tree:
        for i, g in enumerate(gens):
            k = T.table[h][g]
            if tree[k] != (h, i):
                gen_index[(h, i + 1)] = len(free_gens)
                free_gens.append(transversal[h] + (i + 1,) + back[k])
    if len(free_gens) != rank:
        raise InternalError("Schreier generator count %d != rank %d" % (len(free_gens), rank))
    return RelationModule(H, T, gens, transversal, free_gens, gen_index)


def _walk(rm: RelationModule, letters, state):
    """Read letters from position state: (coordinates of the Schreier
    generators crossed, the position where the walk ends)."""
    coords = [0] * rm.rank
    t, inv, images, index = rm.T.table, rm.T.inv, rm.images, rm.gen_index
    for l in letters:
        if l > 0:
            j = index.get((state, l))
            if j is not None:
                coords[j] += 1
            state = t[state][images[l - 1]]
        else:
            state = t[state][inv[images[-l - 1]]]
            j = index.get((state, -l))
            if j is not None:
                coords[j] -= 1
    return coords, state


def _read(rm: RelationModule, letters, start, end):
    """The coordinates of _walk from start, which must end at end."""
    coords, state = _walk(rm, letters, start)
    if state != end:
        raise InternalError("a walk from %d ends at %d, not at %d" % (start, state, end))
    return coords


def rewrite(rm: RelationModule, w):
    """Coordinates of a kernel word, a tuple of letters in +-1..d, in the
    abelianized free generators."""
    if not all(0 < abs(l) <= rm.d for l in w):
        raise PreconditionError("letters must be nonzero and at most %d in absolute value" % rm.d)
    coords, state = _walk(rm, w, 0)
    if state != 0:
        raise PreconditionError("word is not in the kernel of the surjection")
    return coords


def rational_character(rm: RelationModule) -> VirtualCharacter:
    """Character of the conjugation action, trivial + (d-1)*regular
    (Gaschuetz): its trace must be the rank at the identity and 1 at every
    other element, checked on the integer action matrices."""
    for h, mat in enumerate(rm.action):
        trace = sum(mat[i][i] for i in range(rm.rank))
        if trace != (rm.rank if h == 0 else 1):
            raise InternalError(
                "trace %d at position %d differs from trivial + (d-1)*regular" % (trace, h)
            )
    tab = character_table(rm.H)
    mults = [(rm.d - 1) * deg for deg in tab.degrees]
    mults[0] += 1
    return VirtualCharacter(tab, mults)


def reduce_mod(rm: RelationModule, m: int) -> FiniteHModule:
    """The finite module R-bar/m with the conjugation action."""
    if m < 2:
        raise PreconditionError("modulus must be at least 2")
    return FiniteHModule(rm.H, (m,) * rm.rank, rm.action)


def extension_cocycle(rm: RelationModule, m: int) -> Cocycle2:
    """The cocycle of 1 -> R-bar/m -> P -> H -> 1 for the transversal
    section: beta(h1, h2) is s(h2) read from h1."""
    M = reduce_mod(rm, m)
    t, s = rm.T.table, rm.transversal
    table = [
        [tuple(v % m for v in _read(rm, s2, h1, t[h1][h2])) for h2, s2 in enumerate(s)]
        for h1 in range(rm.T.n)
    ]
    return Cocycle2(M, table)


def _derivations(rm: RelationModule, m: int):
    """The restrictions to R-bar/m of the derivations D(x_i) = e_c (0 on
    the other letters), (i, c) in order, as matrices: column j is D of the
    j-th Schreier generator s_h x_i s_k^-1, k = h g_i, that is D(s_h x_i) -
    D(s_k), with D(s_h x_i) = D(s_h) + h.D(x_i) along the transversal."""
    k, t, s = rm.rank, rm.T.table, rm.transversal
    order = sorted(range(1, rm.T.n), key=lambda h: len(s[h]))  # parents first
    out = []
    for i0 in range(rm.d):
        for c in range(k):
            def step(v, h, i):  # D(s_h x_i) from v = D(s_h)
                return [x + row[c] for x, row in zip(v, rm.action[h])] if i == i0 else v
            D = [[0] * k] + [None] * (rm.T.n - 1)
            for h in order:
                i = s[h][-1] - 1
                parent = t[h][rm.T.inv[rm.images[i]]]
                D[h] = step(D[parent], parent, i)
            cols = [None] * k
            for (h, l), j in rm.gen_index.items():
                ends = step(D[h], h, l - 1), D[t[h][rm.images[l - 1]]]
                cols[j] = [(a - b) % m for a, b in zip(*ends)]
            out.append(tuple(zip(*cols)))
    return out


def verify_main_theorem(rm: RelationModule, m: int, beta=None, data=None) -> dict:
    """Compare Aut_{H,beta}(R-bar/m), from the cochain h2, with the
    restrictions of the automorphisms of P over id_H, from the tree: the
    units in 1 + F, F the span of the _derivations, each shared by |M|^d /
    |F| of them; FiniteHModule, h2 and aut_h bound the work.  beta
    (extension_cocycle) and data (h2) are computed unless passed in.
    Returns a report dict with both sets' sizes and the equality flag."""
    if beta is None:
        beta = extension_cocycle(rm, m)
    M = beta.module
    if data is None:
        data = h2(M)
    autos = aut_h(M)
    stab = {sum(g, ()) for g in stabilizer_beta(autos, beta, data)}
    gens = _derivations(rm, m)
    if not all(_commutes(M, X) for X in gens):
        raise InternalError("a derivation does not commute with the action of H")
    plus = lambda x, y: tuple((a + b) % m for a, b in zip(x, y))
    image = orbit((0,) * rm.rank**2, [sum(X, ()) for X in gens], plus)
    one = tuple(int(r == c) for r in range(rm.rank) for c in range(rm.rank))
    restrictions = {sum(g, ()) for g in autos} & {plus(one, x) for x in image}
    return {
        "rank": rm.rank,
        "modulus": m,
        "order_P": rm.H.order * M.size,
        "h2_invariants": data.invariants,
        "aut_h_count": len(autos),
        "stabilizer_count": len(stab),
        "extension_fixing_count": M.size**rm.d // len(image) * len(restrictions),
        "restriction_count": len(restrictions),
        "equal": restrictions == stab,
    }
