"""Relation modules of surjections from a free group onto a finite group.

Given generators images = (g_1, ..., g_d) of H, the kernel R of the
induced map F_d -> H is free on |H|(d-1)+1 Schreier generators attached to
a shortlex transversal.  The abelianization R-bar is Z^rank with H acting
by conjugation through the transversal section; its rational character is
trivial + (d-1)*regular.  Reducing mod m gives a finite module together
with the extension cocycle of the sequence 1 -> R-bar/m -> P -> H -> 1,
and the finite-level main-theorem check compares the automorphisms of P
that fix H pointwise with the cocycle-class stabilizer in Aut_H.

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

import itertools

from .chartab import character_table, VirtualCharacter
from .cohomology import Cocycle2, FiniteHModule, aut_h, build_extension, h2, stabilizer_beta
from .errors import InternalError, PreconditionError
from .groups import TableGroup, homomorphism_from_generators
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


_VERIFY_LIMIT = 64


def _p_generators(rm: RelationModule, T, m: int):
    """Positions in P's table T of the free generators' images (g_i,
    x_i s(g_i)^-1 mod m): the letter i read from the identity ends at g_i."""
    coords = [_walk(rm, (i + 1,), 0)[0] for i in range(rm.d)]
    return [T.index[(g, tuple(v % m for v in c))] for g, c in zip(rm.images, coords)]


def _h_fixing_automorphisms(rm: RelationModule, E, m: int):
    """The automorphisms of P = E.group, E built on extension_cocycle(rm,
    m), that fix H pointwise, as image lists.  P is a quotient of F_d
    (_p_generators), so these are the bijective maps sending each free
    generator's image into its own H-fiber: |M|^d candidates."""
    T = E.group
    gens = _p_generators(rm, T, m)
    if not T.generates(gens):
        raise InternalError("the images of the free generators do not generate P")
    fibers = [[a for a, (h, _) in enumerate(T.names) if h == g] for g in rm.images]
    maps = (homomorphism_from_generators(T, T, gens, list(c)) for c in itertools.product(*fibers))
    return [f for f in maps if f is not None and len(set(f)) == T.n]


def verify_main_theorem(rm: RelationModule, m: int, beta=None, data=None) -> dict:
    """Compare Aut_{H,beta}(R-bar/m) with the fiber restrictions of the
    automorphisms of P = build_extension that fix H pointwise.

    A caller that already holds beta = extension_cocycle(rm, m) and
    data = h2(beta.module) passes them in; they are computed otherwise.
    Returns a report dict with both sets' sizes and the equality flag.
    """
    if rm.H.order * m**rm.rank > _VERIFY_LIMIT:
        raise PreconditionError(
            "extension of order %d exceeds the enumeration limit %d"
            % (rm.H.order * m**rm.rank, _VERIFY_LIMIT)
        )
    if beta is None:
        beta = extension_cocycle(rm, m)
    M = beta.module
    if data is None:
        data = h2(M)
    autos = aut_h(M)
    stab = stabilizer_beta(autos, beta, data)

    E = build_extension(M, beta)
    T = E.group
    units = [T.index[(0, tuple(1 if r == c else 0 for r in range(M.k)))] for c in range(M.k)]
    fixing = _h_fixing_automorphisms(rm, E, m)
    # the matrix whose column c is the image of the c-th unit vector
    restrictions = {tuple(zip(*(T.names[f[u]][1] for u in units))) for f in fixing}

    stab_set = {tuple(tuple(row) for row in g) for g in stab}
    return {
        "rank": rm.rank,
        "modulus": m,
        "order_P": E.order,
        "h2_invariants": data.invariants,
        "aut_h_count": len(autos),
        "stabilizer_count": len(stab_set),
        "extension_fixing_count": len(fixing),
        "restriction_count": len(restrictions),
        "equal": restrictions == stab_set,
    }
