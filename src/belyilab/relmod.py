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
(TableGroup.from_permgroup): words are rewritten by walking that table,
and the transversal, the action matrices and the extension cocycle are
lists by position.
"""

from __future__ import annotations

import itertools

from .chartab import character_table, VirtualCharacter
from .cohomology import (
    Cocycle2,
    FiniteHModule,
    aut_h,
    build_extension,
    h2,
    stabilizer_beta,
)
from .cyclotomic import Cyclotomic
from .errors import InternalError, PreconditionError
from .groups import TableGroup, homomorphism_from_generators
from .permgroup import PermGroup, orbit


class FreeWord:
    """A reduced word in the free group on x_1, ..., x_d.

    Letters are nonzero integers: +i is x_i, -i is its inverse.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        out = []
        for l in letters:
            if l == 0:
                raise PreconditionError("letter 0 is not a generator")
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        self.letters = tuple(out)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord(tuple(-l for l in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "FreeWord(1)"
        parts = []
        for l in self.letters:
            parts.append("x%d" % l if l > 0 else "x%d^-1" % -l)
        return "FreeWord(%s)" % "*".join(parts)


class RelationModule:
    """Schreier data and conjugation action for one surjection F_d -> H.

    H is indexed by position in its Cayley table T: images, the keys of
    gen_index and the indices of transversal and action are positions.
    """

    def __init__(self, H, T, images, d, transversal, free_gens, gen_index, action):
        self.H = H
        self.T = T
        self.images = images  # position of the image of each x_i
        self.d = d
        self.transversal = transversal  # position -> FreeWord
        self.free_gens = free_gens  # list of FreeWord
        self.rank = len(free_gens)
        self.gen_index = gen_index  # (position, letter) -> generator index
        self.action = action  # position -> rank x rank integer matrix


# bound on |H| * rank^2, the integers in the conjugation action, checked
# before the transversal is built: S5 at rank 2 has 1.8 million, S6 at
# rank 2 has 3.7e8
_ACTION_LIMIT = 2_000_000


def schreier_data(H: PermGroup, images) -> RelationModule:
    """Shortlex Schreier transversal and free generators of the kernel of
    F_d -> H sending the i-th free generator to images[i]."""
    images = list(images)
    d = len(images)
    rank = H.order * (d - 1) + 1
    if H.order * rank**2 > _ACTION_LIMIT:
        raise PreconditionError(
            "relation module too large: |H|*rank^2 = %d > %d"
            % (H.order * rank**2, _ACTION_LIMIT)
        )
    if PermGroup(images).order != H.order or not all(g in H for g in images):
        raise PreconditionError("the images do not generate H")

    T = TableGroup.from_permgroup(H)
    t = T.table
    gens = [T.index[g] for g in images]
    tree = orbit(0, gens, T.mult)
    if len(tree) != T.n:
        raise InternalError("transversal misses part of the group")
    transversal = [None] * T.n
    for h, edge in tree.items():
        word = FreeWord() if edge is None else transversal[edge[0]] * FreeWord((edge[1] + 1,))
        transversal[h] = word

    free_gens = []
    gen_index = {}
    for h in tree:
        for i in range(d):
            w = transversal[h] * FreeWord((i + 1,)) * transversal[t[h][gens[i]]].inverse()
            if w.is_identity():
                continue
            gen_index[(h, i + 1)] = len(free_gens)
            free_gens.append(w)
    if len(free_gens) != rank:
        raise InternalError(
            "Schreier generator count %d != rank formula %d" % (len(free_gens), rank)
        )

    rm = RelationModule(H, T, gens, d, transversal, free_gens, gen_index, None)
    action = []
    for s in transversal:
        sinv = s.inverse()
        cols = [rewrite(rm, s * w * sinv) for w in free_gens]
        action.append([[cols[j][r] for j in range(rank)] for r in range(rank)])
    rm.action = action
    return rm


def rewrite(rm: RelationModule, w: FreeWord):
    """Coordinates of a kernel word in the abelianized free generators."""
    coords = [0] * rm.rank
    t, inv = rm.T.table, rm.T.inv
    state = 0
    for l in w.letters:
        g = rm.images[abs(l) - 1]
        if l > 0:
            key = (state, l)
            if key in rm.gen_index:
                coords[rm.gen_index[key]] += 1
            state = t[state][g]
        else:
            state = t[state][inv[g]]
            key = (state, -l)
            if key in rm.gen_index:
                coords[rm.gen_index[key]] -= 1
    if state != 0:
        raise PreconditionError("word is not in the kernel of the surjection")
    return coords


def rational_character(rm: RelationModule) -> VirtualCharacter:
    """Character of the conjugation action, checked against the identity
    trivial + (d-1)*regular."""
    tab = character_table(rm.H)
    N = tab.exponent
    values = []
    for rep, _ in tab.classes:
        tr = sum(rm.action[rm.T.index[rep]][i][i] for i in range(rm.rank))
        values.append(Cyclotomic.from_rational(tr, N))
    mults = tab.decompose(values)
    expected = [(rm.d - 1) * deg for deg in tab.degrees]
    expected[0] += 1
    if mults != expected:
        raise InternalError(
            "relation-module character %s differs from trivial + (d-1)*regular"
            % (mults,)
        )
    return VirtualCharacter(tab, mults)


def reduce_mod(rm: RelationModule, m: int) -> FiniteHModule:
    """The finite module R-bar/m with the conjugation action."""
    if m < 2:
        raise PreconditionError("modulus must be at least 2")
    return FiniteHModule(rm.H, (m,) * rm.rank, rm.action)


def extension_cocycle(rm: RelationModule, m: int) -> Cocycle2:
    """The cocycle of 1 -> R-bar/m -> P -> H -> 1 for the transversal
    section."""
    M = reduce_mod(rm, m)
    t, s = rm.T.table, rm.transversal
    table = [
        [
            tuple(v % m for v in rewrite(rm, s1 * s2 * s[t[h1][h2]].inverse()))
            for h2, s2 in enumerate(s)
        ]
        for h1, s1 in enumerate(s)
    ]
    return Cocycle2(M, table)


_VERIFY_LIMIT = 64


def _h_fixing_automorphisms(rm: RelationModule, E, m: int):
    """The automorphisms of P = E.group, E built on extension_cocycle(rm,
    m), that fix H pointwise, as image lists.  P is a quotient of F_d, x_i
    mapping to (g_i, rewrite(x_i s(g_i)^-1) mod m), so these are the
    bijective maps sending each such image into its own H-fiber: |M|^d
    candidates."""
    T = E.group
    words = [FreeWord((i + 1,)) * rm.transversal[g].inverse() for i, g in enumerate(rm.images)]
    gens = [T.index[(g, tuple(v % m for v in rewrite(rm, w)))] for g, w in zip(rm.images, words)]
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
    report = {
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
    return report
