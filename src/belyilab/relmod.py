"""Relation modules of surjections from a free group onto a finite group.

Given generators images = (g_1, ..., g_d) of H, the kernel R of the
induced map F_d -> H is free on |H|(d-1)+1 Schreier generators attached to
a shortlex transversal.  The abelianization R-bar is Z^rank with H acting
by conjugation through the transversal section; its rational character is
trivial + (d-1)*regular.  Reducing mod m gives a finite module together
with the extension cocycle of the sequence 1 -> R-bar/m -> P -> H -> 1,
and the finite-level main-theorem check compares the automorphisms of P
that fix H pointwise with the cocycle-class stabilizer in Aut_H.
"""

from __future__ import annotations

import operator

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
from .groups import automorphisms
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
    """Schreier data and conjugation action for one surjection F_d -> H."""

    def __init__(self, H, images, d, transversal, free_gens, gen_index, action):
        self.H = H
        self.images = images
        self.d = d
        self.transversal = transversal  # H element -> FreeWord
        self.free_gens = free_gens  # list of FreeWord
        self.rank = len(free_gens)
        self.gen_index = gen_index  # (H element, letter) -> generator index
        self.action = action  # H element -> rank x rank integer matrix


def schreier_data(H: PermGroup, images, d=None) -> RelationModule:
    """Shortlex Schreier transversal and free generators of the kernel."""
    images = list(images)
    if d is None:
        d = len(images)
    if len(images) != d:
        raise PreconditionError("expected %d generator images" % d)
    if PermGroup(images).order != H.order or not all(g in H for g in images):
        raise PreconditionError("the images do not generate H")

    transversal = {}
    for h, edge in orbit(H.identity(), images, operator.mul).items():
        word = FreeWord() if edge is None else transversal[edge[0]] * FreeWord((edge[1] + 1,))
        transversal[h] = word
    if len(transversal) != H.order:
        raise InternalError("transversal misses part of the group")

    free_gens = []
    gen_index = {}
    for h in transversal:
        for i in range(d):
            w = transversal[h] * FreeWord((i + 1,)) * transversal[h * images[i]].inverse()
            if w.is_identity():
                continue
            gen_index[(h, i + 1)] = len(free_gens)
            free_gens.append(w)
    expected = H.order * (d - 1) + 1
    if len(free_gens) != expected:
        raise InternalError(
            "Schreier generator count %d != rank formula %d" % (len(free_gens), expected)
        )

    rm = RelationModule(H, images, d, transversal, free_gens, gen_index, None)
    action = {}
    for h in H.elements:
        s = transversal[h]
        sinv = s.inverse()
        cols = [rewrite(rm, s * w * sinv) for w in free_gens]
        action[h] = [
            [cols[j][r] for j in range(rm.rank)] for r in range(rm.rank)
        ]
    rm.action = action
    return rm


def rewrite(rm: RelationModule, w: FreeWord):
    """Coordinates of a kernel word in the abelianized free generators."""
    coords = [0] * rm.rank
    state = rm.H.identity()
    for l in w.letters:
        g = rm.images[abs(l) - 1]
        if l > 0:
            key = (state, l)
            if key in rm.gen_index:
                coords[rm.gen_index[key]] += 1
            state = state * g
        else:
            state = state * g.inverse()
            key = (state, -l)
            if key in rm.gen_index:
                coords[rm.gen_index[key]] -= 1
    if not state.is_identity():
        raise PreconditionError("word is not in the kernel of the surjection")
    return coords


def rational_character(rm: RelationModule) -> VirtualCharacter:
    """Character of the conjugation action, checked against the identity
    trivial + (d-1)*regular."""
    tab = character_table(rm.H)
    N = tab.exponent
    values = []
    for rep, _ in tab.classes:
        tr = sum(rm.action[rep][i][i] for i in range(rm.rank))
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
    table = {}
    for h1 in rm.H.elements:
        s1 = rm.transversal[h1]
        for h2 in rm.H.elements:
            w = s1 * rm.transversal[h2] * rm.transversal[h1 * h2].inverse()
            table[(h1, h2)] = tuple(v % m for v in rewrite(rm, w))
    return Cocycle2(M, table)


_VERIFY_LIMIT = 64


def verify_main_theorem(rm: RelationModule, m: int) -> dict:
    """Compare Aut_{H,beta}(R-bar/m) with the fiber restrictions of the
    automorphisms of P = build_extension that fix H pointwise.

    Returns a report dict with both sets' sizes and the equality flag.
    """
    if rm.H.order * m**rm.rank > _VERIFY_LIMIT:
        raise PreconditionError(
            "extension of order %d exceeds the enumeration limit %d"
            % (rm.H.order * m**rm.rank, _VERIFY_LIMIT)
        )
    beta = extension_cocycle(rm, m)
    M = beta.module
    data = h2(M)
    autos = aut_h(M)
    stab = stabilizer_beta(autos, beta, data)

    E = build_extension(M, beta)
    T = E.group
    units = [
        T.index[E.embed(tuple(1 if r == c else 0 for r in range(M.k)))]
        for c in range(M.k)
    ]
    restrictions = set()
    fixing_h = 0
    for f in automorphisms(T):
        if any(T.names[f[a]][0] != T.names[a][0] for a in range(T.n)):
            continue
        fixing_h += 1
        cols = [T.names[f[u]][1] for u in units]
        mat = tuple(
            tuple(cols[c][r] % M.shape[r] for c in range(M.k)) for r in range(M.k)
        )
        restrictions.add(mat)

    stab_set = {tuple(tuple(row) for row in g) for g in stab}
    report = {
        "rank": rm.rank,
        "modulus": m,
        "order_P": E.order,
        "h2_invariants": data.invariants,
        "aut_h_count": len(autos),
        "stabilizer_count": len(stab_set),
        "extension_fixing_count": fixing_h,
        "restriction_count": len(restrictions),
        "equal": restrictions == stab_set,
    }
    return report
