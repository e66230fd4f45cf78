"""The n_V/m_V descent criterion for Tate modules of generalized Jacobians.

For each irreducible V of the deck group D the report records
n_V = -dim V^D + sum_j dim V^<d_j> and m_V = dim V^D + [H:W] dim V;
V passes when n_V is 0 or m_V.  The criterion is sufficient always and
necessary exactly for Galois covers, so the verdict is three-valued:
DESCENDS, DOES_NOT_DESCEND (Galois with a failing V), or INCONCLUSIVE.
Subgroup certificates refine a failing test: if every irreducible of some
D1 <= D misses either the left or the Jacobian restriction, the criterion
holds for D after all.
"""

from __future__ import annotations

import sys

from .chartab import character_table
from .cover import BelyiCover, genus, tate_characters, validate
from .errors import InternalError
from .permgroup import PermGroup

DESCENDS = "DESCENDS"
DOES_NOT_DESCEND = "DOES_NOT_DESCEND"
INCONCLUSIVE = "INCONCLUSIVE"


class DescentReport:
    def __init__(self, cover, cd, rows, verdict, certificates):
        self.cover = cover
        self.closure = cd
        self.rows = rows  # list of dicts: degree, n_V, m_V, passes
        self.verdict = verdict
        self.certificates = certificates  # list of (label, PermGroup)

    def to_json(self):
        return {
            "degree": self.cover.degree,
            "genus": genus(self.cover),
            "is_galois": self.closure.is_galois,
            "order_D": self.closure.D.order,
            "index_HW": self.closure.index_HW,
            # exact-length lists, as in analysis_report
            "rows": [dict(r) for r in self.rows].copy(),
            "verdict": self.verdict,
            "certificates": [label for label, _ in self.certificates].copy(),
        }


def criterion_rows(cd):
    """Per-irreducible (degree, n_V, m_V, passes) records."""
    left, middle, _ = tate_characters(cd)
    rows = []
    for i, deg in enumerate(left.table.degrees):
        n_V = left.mults[i]
        m_V = (1 if i == 0 else 0) + cd.index_HW * deg
        if m_V != middle.mults[i]:
            raise InternalError("middle multiplicity disagrees with the m_V formula")
        if not 0 <= n_V <= m_V:
            raise InternalError("n_V = %d outside [0, m_V = %d]" % (n_V, m_V))
        rows.append({"degree": deg, "n_V": n_V, "m_V": m_V, "passes": n_V in (0, m_V)})
    return rows


def subgroup_certify(cd, D1: PermGroup) -> bool:
    """True iff every irreducible of D1 misses the left or the Jacobian
    restriction (so the main criterion holds for D, by restriction)."""
    if not D1.is_subgroup(cd.D):
        raise ValueError("D1 is not a subgroup of D")
    left, _, jac = tate_characters(cd)
    return _certifies(left, jac, D1)


def _certifies(left, jac, D1):
    """subgroup_certify on precomputed left and Jacobian characters of D."""
    subtab = character_table(D1)
    return all(
        min(a, b) == 0 for a, b in zip(left.restrict(subtab).mults, jac.restrict(subtab).mults)
    )


def refine_search(cd):
    """Certifying subgroups among cyclic subgroups of D (one generator per
    conjugacy class) plus D itself.

    A cyclic candidate whose elements are all of D (always the case when D
    is cyclic, trivial D included) keeps its cyclic label but is certified
    on, and returned as, D itself, so its restrictions read the table that
    tate_characters already built for D."""
    D = cd.D
    whole = frozenset(g.imgs for g in D.elements)
    # one (label, subgroup) per distinct element set, the first label kept
    candidates = {}
    for rep, _ in D.conjugacy_classes():
        sub = PermGroup([rep])
        key = frozenset(g.imgs for g in sub.elements)
        # one label string per order, shared by every report that keeps it
        label = sys.intern("cyclic(order %d)" % sub.order)
        candidates.setdefault(key, (label, D if key == whole else sub))
    candidates.setdefault(whole, ("D", D))
    left, _, jac = tate_characters(cd)
    return [(label, sub) for label, sub in candidates.values() if _certifies(left, jac, sub)]


def descent_report(cover: BelyiCover, refine: bool = False) -> DescentReport:
    cd = validate(cover)
    rows = criterion_rows(cd)
    all_pass = all(r["passes"] for r in rows)
    certificates = []
    if all_pass:
        certificates.append(("D", cd.D))
    if refine:
        certificates = refine_search(cd)
    if all_pass or certificates:
        verdict = DESCENDS
    elif cd.is_galois:
        verdict = DOES_NOT_DESCEND
    else:
        verdict = INCONCLUSIVE
    if cd.is_galois and not all_pass and certificates:
        raise InternalError(
            "necessity violated: Galois cover fails the criterion yet a certificate exists"
        )
    return DescentReport(cover, cd, rows, verdict, certificates)
