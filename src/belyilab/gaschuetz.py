"""Constructive generator lifting through surjections of finite groups.

Any generating d-tuple of a quotient G2 = psi(G1) lifts to a generating
d-tuple of G1 as soon as d is at least the minimal generator number of
G1.  lift_generators finds a witness by deterministic lexicographic fiber
search; count_lifts counts all witnesses over a fixed tuple, which is the
quantity whose tuple-independence drives the standard proof.

Groups are PermGroups; they are converted to multiplication tables
internally and witnesses are translated back.
"""

from __future__ import annotations

import itertools
from math import prod

from .errors import InternalError, PreconditionError
from .groups import TableGroup, map_from_generators, preserves_products

# the most tuples lift_generators and count_lifts enumerate (the product of
# the fiber sizes, or |G1|^d when a failed lift search is confirmed) and
# min_generators walks at one length; S4 onto the trivial group with d = 4
# is 331,776 tuples and about 2.5 s
_COUNT_LIMIT = 10**6


def _as_table(G):
    """(TableGroup, to_index, from_index) for the PermGroup G."""
    T = TableGroup.from_permgroup(G)
    return T, T.index.__getitem__, T.names.__getitem__


class SurjectionProblem:
    """A surjection psi: G1 -> G2 together with a generating tuple of G2.

    psi is a callable on G1, or a dict or a list of (generator, image)
    pairs whose generators generate G1; every listed pair must hold in
    the homomorphism they define.
    """

    def __init__(self, G1, G2, psi, S2):
        self.T1, self.to1, self.from1 = _as_table(G1)
        self.T2, self.to2, self.from2 = _as_table(G2)
        if callable(psi):
            full = [self.to2(psi(self.from1(a))) for a in range(self.T1.n)]
            message = "psi is not a homomorphism"
        else:
            pairs = list(psi.items() if isinstance(psi, dict) else psi)
            gens = [self.to1(g) for g, _ in pairs]
            images = [self.to2(y) for _, y in pairs]
            full = map_from_generators(self.T1, self.T2, gens, images)
            message = "psi does not extend to a homomorphism"
        if full is None or not preserves_products(full, self.T1, self.T2):
            raise PreconditionError(message)
        if len(set(full)) != self.T2.n:
            raise PreconditionError("psi is not surjective")
        self.psi = full
        self.S2 = [self.to2(s) for s in S2]
        if not self.T2.generates(self.S2):
            raise PreconditionError("S2 does not generate G2")

    @property
    def d(self):
        return len(self.S2)

    def fibers(self):
        return [
            [a for a in range(self.T1.n) if self.psi[a] == s] for s in self.S2
        ]


def _generated_by_some(T, d):
    """Whether some d-tuple of the TableGroup T generates it (at most
    |T|^d tuples)."""
    return any(T.generates(list(tup)) for tup in itertools.product(range(T.n), repeat=d))


def min_generators(G) -> int:
    """The least d such that G has a generating d-tuple, refused before
    walking a length d whose |G|^d tuples exceed _COUNT_LIMIT."""
    T = TableGroup.from_permgroup(G)
    d = 0
    while True:
        if T.n**d > _COUNT_LIMIT:
            raise PreconditionError(
                "generator search too large: %d tuples of length %d > %d"
                % (T.n**d, d, _COUNT_LIMIT)
            )
        if _generated_by_some(T, d):
            return d
        d += 1


def _bounded_fibers(p: SurjectionProblem):
    """p's fibers, refused before any search when their product holds more
    than _COUNT_LIMIT tuples."""
    fibers = p.fibers()
    space = prod(map(len, fibers))
    if space > _COUNT_LIMIT:
        raise PreconditionError(
            "lift count search too large: %d tuples > %d" % (space, _COUNT_LIMIT)
        )
    return fibers


def lift_generators(p: SurjectionProblem):
    """The lexicographically least tuple S1 with psi(S1) = S2 elementwise
    and <S1> = G1.

    By Gaschuetz's lemma the fibers hold no generating tuple exactly when
    d is below the minimal generator number of G1.  When |G1|^d tuples are
    within _COUNT_LIMIT that is confirmed, and a valid instance without a
    lift is an internal defect, not a user error.
    """
    for tup in itertools.product(*_bounded_fibers(p)):
        if p.T1.generates(list(tup)):
            return tuple(p.from1(a) for a in tup)
    if p.T1.n**p.d <= _COUNT_LIMIT and _generated_by_some(p.T1, p.d):
        raise InternalError("no lift found on a valid instance")
    raise PreconditionError(
        "tuple length %d is below the minimal generator number of G1" % p.d
    )


def count_lifts(p: SurjectionProblem) -> int:
    """The number of generating tuples of G1 over S2, refused before the
    search when the fibers hold more than _COUNT_LIMIT tuples."""
    fibers = _bounded_fibers(p)
    return sum(p.T1.generates(list(tup)) for tup in itertools.product(*fibers))
