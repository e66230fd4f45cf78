"""Relation modules of surjections from a free group onto a finite group.

Given generators images = (g_1, ..., g_d) of H, the kernel R of the
induced map F_d -> H is free on |H|(d-1)+1 Schreier generators attached to
a shortlex transversal (groups.SchreierTree on the right-regular action of
the images, which also holds the coset walk that rewrites words).  The
abelianization R-bar is Z^rank with H acting by conjugation through the
transversal section; its rational character is trivial + (d-1)*regular.
Reducing mod m gives a finite module M = R-bar/m and the cocycle beta of
1 -> M -> P -> H -> 1, P = F_d / R^m[R,R].

The finite-level main theorem: the automorphisms of P over id_H restrict
onto the stabilizer of beta's class in Aut_H(M).  Those endomorphisms are
x_i -> m_i x_i, (m_i) in M^d, and restrict to 1 + D, D the derivation with
D(x_i) = m_i (Fox calculus), read off the transversal tree; these D span F,
whose size and members are read off one Smith form.  No table of P is
built: the check is bounded by |H|*|M| (FiniteHModule), the 2-cochain
dimension (FiniteHModule.coboundary_snf) and |End_H| (aut_h).  The
stabilizer is {gamma : gamma(beta) - beta = dc}, solved on the coboundary
map of normalized cochains, independent of the tree.  h2 works through
Hom_H(R-bar, M) over the table's own generators; for the same presentation
beta's class there is the identity, and reading the stabilizer off it
would make the comparison a tautology.

H is indexed by position in H.elements, point i of the regular action
(permgroup.regular_representation), and the transversal, the action
matrices and the extension cocycle are lists by position.  H's Cayley
table is built only for the finite module, by reduce_mod (FiniteHModule).
"""

from __future__ import annotations

from math import gcd, prod

from .chartab import character_table, VirtualCharacter
from .cohomology import (
    Cocycle2,
    FiniteHModule,
    _commutes,
    _lifting_cochain,
    _pushed_cocycle,
    aut_h,
    h2,
)
from .errors import InternalError, PreconditionError
from .groups import TABLE_LIMIT, SchreierTree
from .permgroup import PermGroup, regular_representation
from .snf import smith_normal_form, solve_mod_from_snf


class RelationModule(SchreierTree):
    """Schreier data and conjugation action for one surjection F_d -> H.

    acts are the images' right-regular actions on H.elements: points, the
    keys of gen_index and the indices of transversal and action are
    positions.  action[h] is a rank x rank integer matrix whose column j
    is the j-th Schreier generator read from h.
    """

    def __init__(self, H, acts):
        super().__init__(H.order, acts)
        self.H = H
        self.action = [[list(row) for row in zip(*self.conjugation(h))] for h in range(H.order)]


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
    F_d -> H sending the i-th free generator to images[i]; refused past
    |H| = TABLE_LIMIT before any element is enumerated."""
    images = list(images)
    relation_rank(H.order, len(images))
    if H.order > TABLE_LIMIT:
        raise PreconditionError(
            "group of order %d is too large for a relation module (limit %d)"
            % (H.order, TABLE_LIMIT)
        )
    if PermGroup(images).order != H.order or not all(g in H for g in images):
        raise PreconditionError("the images do not generate H")
    return RelationModule(H, regular_representation(H, images))


def rewrite(rm: RelationModule, w):
    """Coordinates of a kernel word, a tuple of letters in +-1..d, in the
    abelianized free generators."""
    if not all(0 < abs(l) <= rm.d for l in w):
        raise PreconditionError("letters must be nonzero and at most %d in absolute value" % rm.d)
    coords, state = rm.walk(w, 0)
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
    section: beta(h1, h2) is s(h2) read from h1, reduced mod m."""
    M = reduce_mod(rm, m)
    one = [int(j == r) for j in range(rm.rank) for r in range(rm.rank)]
    return Cocycle2(M, _pushed_cocycle(M, rm, one))


def _derivations(rm: RelationModule, m: int):
    """The restrictions to R-bar/m of the derivations D(x_i) = e_c (0 on
    the other letters), (i, c) in order, as matrices: column j is D of the
    j-th Schreier generator (SchreierTree.derivations on the action)."""
    return [
        tuple(zip(*([x % m for x in col] for col in cols)))
        for cols in rm.derivations(rm.action, rm.rank)
    ]


def _restrictions(rm: RelationModule, m: int, M: FiniteHModule, autos):
    """(|F|, {gamma in autos, flattened : gamma - 1 in F}), F read off one
    Smith form U A V = diag(d) of the _derivations A as columns: |F| is the
    product of m / gcd(d_i, m), and A x = gamma - 1 is solved mod m."""
    gens = _derivations(rm, m)
    if not all(_commutes(M, X) for X in gens):
        raise InternalError("a derivation does not commute with the action of H")
    snf = smith_normal_form([list(row) for row in zip(*(sum(X, ()) for X in gens))])
    one = [int(r == c) for r in range(rm.rank) for c in range(rm.rank)]
    in_span = lambda v: solve_mod_from_snf(snf, [a - b for a, b in zip(v, one)], m) is not None
    return prod(m // gcd(d, m) for d in snf[0]), set(filter(in_span, (sum(g, ()) for g in autos)))


def verify_main_theorem(rm: RelationModule, m: int, beta=None, data=None) -> dict:
    """Compare Aut_{H,beta}(R-bar/m), the gamma in aut_h with gamma(beta) -
    beta a coboundary, with the restrictions of the automorphisms of P
    over id_H, from the tree: the units in 1 + F, F the span of the
    _derivations read off their Smith form, each shared by |M|^d / |F| of
    them.  FiniteHModule, coboundary_snf and aut_h bound the work.  beta
    (extension_cocycle) and data (h2, for the invariants) are computed
    unless passed in.  Returns a report dict with both sets' sizes and the
    equality flag."""
    if beta is None:
        beta = extension_cocycle(rm, m)
    M = beta.module
    M.coboundary_snf  # refuses a 2-cochain dimension over the limit first
    if data is None:
        data = h2(M)
    autos = aut_h(M)
    stab = {sum(g, ()) for g in autos if _lifting_cochain(g, beta) is not None}
    span, restrictions = _restrictions(rm, m, M, autos)
    return {
        "rank": rm.rank,
        "modulus": m,
        "order_P": rm.H.order * M.size,
        "h2_invariants": data.invariants,
        "aut_h_count": len(autos),
        "stabilizer_count": len(stab),
        "extension_fixing_count": M.size**rm.d // span * len(restrictions),
        "restriction_count": len(restrictions),
        "equal": restrictions == stab,
    }
