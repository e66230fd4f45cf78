"""Belyi covers as monodromy pairs and their Galois-closure data.

A cover is a transitive pair (x, y) on n points with z = (x*y)^-1 and
monodromy group H = <x, y>.  Apart from |H|, the closure data is read off
the action on the points.  For J = Stab_H(1), W = N_H(J) is the set of
h with 1^h in Fix(J), the points fixed by J, and the deck group D = W/J
acts regularly on Fix(J); so |D| = |Fix(J)| and [H:W] = n / |Fix(J)|.
A point a is in Fix(J) exactly when the map delta_a: p -> a^u[p], u the
transversal, commutes with x and y; delta_a is then the deck
transformation sending 1 to a.  (If J fixes a, a^h depends only on 1^h;
conversely a commuting delta_a gives a^h = delta_a(1^h), so a^j = a for
j in J.)  D is generated by the projections of u[a] for the points a of
Fix(J) that the earlier ones do not reach, at most log2 |D| of them, and
checked to have order |Fix(J)| and to contain the projection of every
u[a].  The images of Fix(J) under H are blocks partitioning the points,
one per coset of W, and the branch records (e_j, d_j) come from sigma_b
acting on the blocks, with d_j read on Fix(J).  The fiber model: points
of X over a branch point b are the <sigma_b>-orbits on the points (H/J),
points of Z over b the <sigma_b>-orbits on the blocks (H/W).
"""

from __future__ import annotations

from .errors import InternalError, PreconditionError
from .permgroup import (
    PermGroup,
    Permutation,
    greedy_generators,
    labels,
    orbit,
    regular_representation,
)

# A regular cover has degree |G|, and its transversal alone holds |G|^2
# integers.  Past order 2000 the character table of its deck group G,
# which `descend` needs, is refused anyway (chartab._SCALE_LIMIT).  At that
# size `analyze` takes about 7 s and 230 MB (W(D5), order 1920, on a 2-core
# VM with CPython 3.11).  Memory grows as |G|^2: A7 (2520) peaked at 385 MB,
# so S7 (5040) would need about 1.5 GB.
_REGULAR_LIMIT = 2000


class BelyiCover:
    """Monodromy pair of a cover of the line branched over {0, 1, oo}."""

    def __init__(self, x: Permutation, y: Permutation):
        if x.degree != y.degree:
            raise PreconditionError("x and y must have the same degree")
        if x.degree == 0:
            raise PreconditionError("a cover needs at least one point")
        self.degree = x.degree
        self.x = x
        self.y = y
        self.z = (x * y).inverse()
        # {a: u} with 1^u = a for every point a in the orbit of 1 (0-based)
        gens = (x, y)
        tree = orbit(0, [x.imgs, y.imgs], lambda a, g: g[a])
        self.transversal = labels(tree, Permutation.identity(x.degree), lambda u, _, i: u * gens[i])
        if len(self.transversal) != self.degree:
            raise PreconditionError("monodromy group is not transitive: cover is reducible")

    @classmethod
    def from_json(cls, data):
        """Cover from wire format {"degree": n, "x": [...], "y": [...]}.

        With "galois": true the generators are abstract and the cover is
        normalized to the regular action of the group they generate;
        "galois" must be a JSON boolean when present.
        """
        if not isinstance(data, dict):
            raise PreconditionError("cover JSON needs 'x' and 'y' image lists")
        x = Permutation.from_json(data.get("x"))
        y = Permutation.from_json(data.get("y"))
        if x.degree != y.degree or data.get("degree", x.degree) != x.degree:
            raise PreconditionError("x, y and the declared degree disagree")
        galois = data.get("galois", False)
        if not isinstance(galois, bool):
            raise PreconditionError("'galois' must be true or false")
        return cls.regular(x, y) if galois else cls(x, y)

    @classmethod
    def regular(cls, x, y):
        """The regular (Galois) cover of the group generated by x and y,
        refused past _REGULAR_LIMIT on the Schreier-Sims order, before any
        element is enumerated."""
        G = PermGroup([x, y])
        if G.order > _REGULAR_LIMIT:
            raise PreconditionError(
                "a Galois cover of a group of order %d is too large (limit %d)"
                % (G.order, _REGULAR_LIMIT)
            )
        x, y = regular_representation(G, G.generators)
        return cls(Permutation(x, zero_based=True), Permutation(y, zero_based=True))

    def to_json(self):
        return {"degree": self.degree, "x": self.x.images, "y": self.y.images}

    def sigma(self, b):
        return {"0": self.x, "1": self.y, "inf": self.z}[b]


BRANCH_POINTS = ("0", "1", "inf")


class ClosureData:
    """Galois-closure and branch data of a Belyi cover, on points.

    `fixed` lists Fix(J) for J = Stab_H(1), as sorted 0-based points.  D is
    W/J as a permutation group on Fix(J), point i of D being fixed[i], and
    `project` restricts an element of W to Fix(J).  `branch` maps each
    branch point b to its records (e_j, d_j), one per <sigma_b>-orbit on
    the blocks Fix(J)^h.  J and W enter only through their orders.
    """

    def __init__(self, cover, H, fixed, D, project, branch):
        self.cover = cover
        self.H = H
        self.fixed = fixed
        self.D = D
        self.project = project  # W -> D homomorphism (on elements)
        self.branch = branch  # b -> list of (e_j, d_j)
        self.order_J = H.order // cover.degree
        self.order_W = self.order_J * len(fixed)
        self.index_HW = cover.degree // len(fixed)
        self.is_galois = len(fixed) == cover.degree


def validate(cover: BelyiCover) -> ClosureData:
    """Compute the full closure data of a cover.

    Fix(J) by deck maps: for a point a let delta_a be p -> a^u[p], u the
    transversal.  Then a is in Fix(J) exactly when delta_a commutes with x
    and y, and delta_a is the deck transformation sending 0 to a.  If J
    fixes a, then a^h depends only on 0^h, so delta_a(p^g) = delta_a(p)^g.
    Conversely, a commuting delta_a has delta_a(0^h) = a^h for every h in
    H, so a^j = a for every j in J.

    D from the points it must reach: D acts regularly on Fix(J), so Fix(J)
    is walked in order and u[a] is projected to a generator only when a's
    position lies outside the orbit of position 0 under the generators
    kept so far.  The kept generators span a transitive, hence the whole,
    subgroup of D, and there are at most log2 |D| of them.  The check
    that D has order |Fix(J)| and contains the projection of every u[a],
    a in Fix(J), then covers each transversal element, as a generator list
    of all of them would.

    When Fix(J) is every point, J = 1 and project is the identity, so D is
    generated by elements u[a] of H and has order n = |H|: D is H on the
    same points, and H costs no second Schreier-Sims.
    """
    n = cover.degree
    gens = (cover.x, cover.y)
    u = cover.transversal
    x, y = cover.x.imgs, cover.y.imgs
    U = [u[p].imgs for p in range(n)]
    fixed = []
    for a in range(n):
        for p in range(n):
            b = U[p][a]  # delta_a(p)
            if U[x[p]][a] != x[b] or U[y[p]][a] != y[b]:
                break
        else:
            fixed.append(a)
    pos = {p: i for i, p in enumerate(fixed)}

    def project(w):
        return Permutation([pos[w.imgs[p]] for p in fixed], zero_based=True)

    deck = [project(u[a]) for a in fixed]
    kept = greedy_generators(range(len(fixed)), 0, lambda q, i: deck[i].imgs[q])
    D = PermGroup([deck[i] for i in kept] or deck)
    if D.order != len(fixed):
        raise InternalError("D does not act regularly on Fix(J)")
    if not all(d in D for d in deck):
        raise InternalError("a deck transformation of Fix(J) lies outside D")
    H = D if len(fixed) == n else PermGroup(list(gens))

    # the blocks Fix(J)^t, each with its t, by BFS with x^-1 and y^-1.
    # Block Fix(J)^(g^-1) stands for the left coset gW, so the blocks come
    # in the order of a left-coset BFS that left-multiplies by x and y.
    inv_gens = [g.inverse() for g in gens]
    tree = orbit(
        frozenset(fixed), inv_gens, lambda block, g: frozenset(g.imgs[p] for p in block)
    )
    ts = list(labels(tree, Permutation.identity(n), lambda t, _, i: t * inv_gens[i]).values())
    block_of = {p: i for i, block in enumerate(tree) for p in block}
    if not len(block_of) == len(ts) * len(fixed) == n:
        raise InternalError("the images of Fix(J) do not partition the points")

    branch = {}
    for b in BRANCH_POINTS:
        sigma = cover.sigma(b)
        action = Permutation([block_of[sigma.imgs[min(pts)]] for pts in tree], zero_based=True)
        records = []
        for cyc in action.all_cycles():
            e = len(cyc)
            t = ts[cyc[0]]
            w = t * (sigma**e) * t.inverse()
            if w.imgs[0] not in pos:
                raise InternalError("ramification index does not return to W")
            records.append((e, project(w)))
        if sum(e for e, _ in records) != len(ts):
            raise InternalError("ramification indices do not sum to [H:W]")
        branch[b] = records
    return ClosureData(cover, H, fixed, D, project, branch)


def genus(cover: BelyiCover) -> int:
    """Genus of X from the cycle counts of x, y, z (Riemann-Hurwitz)."""
    n = cover.degree
    total = -2 * n
    for sigma in (cover.x, cover.y, cover.z):
        total += n - sigma.cycle_count()
    if total % 2:
        raise InternalError("Riemann-Hurwitz total is odd")
    g = total // 2 + 1
    if g < 0:
        raise InternalError("negative genus: invalid monodromy")
    return g


def tate_characters(cd: ClosureData):
    """The three Tate-module characters (left, middle, jac) of the deck
    group D, with jac = middle - left checked effective of degree 2*genus.

    Memoized per closure as `cd._tate`, so the descent criterion, its
    subgroup search and the corpus share one computation; the characters
    are shared and must not be mutated.  A failed check stores nothing."""
    chars = getattr(cd, "_tate", None)
    if chars is not None:
        return chars
    from .chartab import VirtualCharacter, character_table

    tab = character_table(cd.D)
    # middle term: trivial + [H:W] * regular
    middle_mults = [cd.index_HW * d for d in tab.degrees]
    middle_mults[0] += 1
    middle = VirtualCharacter(tab, middle_mults)
    # left term: mult of V = -dim V^D + sum over branch records of dim V^<d_j>
    records = [d for b in BRANCH_POINTS for _, d in cd.branch[b]]
    left_mults = [sum(tab.fixed_space_dim(i, d) for d in records) for i in range(tab.nclasses())]
    left_mults[0] -= 1
    left = VirtualCharacter(tab, left_mults)
    jac = middle - left
    if any(m < 0 for m in jac.mults):
        raise InternalError("Jacobian character has a negative multiplicity")
    g = genus(cd.cover)
    if jac.degree != 2 * g:
        raise InternalError(
            "Jacobian character degree %d != 2*genus = %d" % (jac.degree, 2 * g)
        )
    cd._tate = left, middle, jac
    return cd._tate


def analysis_report(cover: BelyiCover) -> dict:
    """JSON-ready structural summary of a cover.

    The report is a read-only payload: equal branch records within it are
    one dict, shared by every position that holds them, so mutating one
    would change the others.  Its JSON and its == are those of separate
    dicts."""
    cd = validate(cover)
    g = genus(cover)
    records = {}

    def record(e, d):
        key = e, d.order()
        return records.setdefault(key, {"e": e, "order_d": key[1]})

    report = {
        "degree": cover.degree,
        "genus": g,
        "order_H": cd.H.order,
        "order_J": cd.order_J,
        "order_W": cd.order_W,
        "order_D": cd.D.order,
        "index_HW": cd.index_HW,
        "is_galois": cd.is_galois,
        # lists are copied to their exact length: a list built item by item
        # keeps spare slots (three for one item), and callers such as a
        # census keep reports by the thousand
        "branch": {b: [record(e, d) for e, d in cd.branch[b]].copy() for b in BRANCH_POINTS},
    }
    return report
