"""Second cohomology of a finite group with coefficients in a finite
abelian module, by the integer linear algebra of snf: this module chooses
the congruences and the moduli.

H is indexed by position in its Cayley table (TableGroup.from_permgroup):
position i is H.elements[i], and the identity is 0.  A module is
M = Z/m_1 + ... + Z/m_k with the H-action given by a list of integer
matrices, one per position, and a 2-cochain is an |H| x |H| list of
module tuples, so nothing here multiplies permutations once the table is
built.

h2 presents H as F_d / R by the table's own generators T.gens
(groups.SchreierTree) and uses Gruenberg's resolution: H^2(H, M) is
Hom_H(R-bar, M) modulo the restrictions of the derivations F -> M.  A
homomorphism is its values on the rank = |H|(d-1)+1 Schreier generators,
rank * k integers, and H-equivariance at T.gens (the g where it holds are
closed under products) is a set of congruences, so Hom_H lifts to a
finite-index lattice L in Z^(rank*k), the cocycle lattice, with basis B
(snf.congruence_lattice).  The derivations D(x_i) = e_c and the moduli
come into B-coordinates as Y = B^-1 [D | diag(moduli)], and U Y V =
diag(d): row i of U gives class coordinate i, and basis class i is
B Y V e_i / d_i (column i of U^-1, which is never formed).  A cocycle and
a homomorphism correspond through the extension they define
(_restriction, _pushed_cocycle).

extend_automorphism finds the 1-cochain by which an automorphism of the
module extends with its own factorization, on normalized cochains (n2 =
(|H|-1)^2 * k of them, value at positions (i, j), i, j >= 1, in block
(i-1)(|H|-1) + j-1), cached per module (FiniteHModule.coboundary_snf), so
"gamma extends iff it fixes the class" compares two independent
computations.  It factors D1 alone, n2 x n1, with row v scaled by L/m_v,
L the lcm of the moduli: dc = delta holds in M exactly when the scaled
rows agree modulo L, which the diagonal decides entry by entry.

End_H(M) is Hom_H(M, M), a lattice too: a k x k matrix X, entry (r, c)
at c*k + r, is an endomorphism when m_c X[r][c] = 0 mod m_r (_map_steps)
and _equivariance_rows holds with the columns of H's generator matrices
as the source action.  Its lattice basis spans m_r times every unit
matrix of row r, so |End_H| is the product of the k^2 row moduli over
the lattice's index (snf.lattice_index).  aut_h counts End_H before it
enumerates it from the basis and keeps the units: Aut_H(M).  A
well-defined X is bijective when its kernel lattice {x : X x = 0 mod m_r
in row r}, which contains m_1 Z + ... + m_k Z, has index |M|, read off
one more congruence lattice with no element of M.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, lcm, prod

from .errors import InternalError, PreconditionError
from .groups import TABLE_LIMIT, SchreierTree, TableGroup, preserves_products
from .permgroup import labels, orbit
from .snf import (
    congruence_lattice,
    identity_matrix,
    lattice_coordinates,
    lattice_index,
    mat_mul_mod,
    mat_vec,
    mat_vec_mod,
    smith_normal_form,
    solve_mod_from_snf,
)

# The three bounds of this module, timed on a 2-core x86-64 VM, CPython 3.11.
# _RELATION_LIMIT bounds rank * k, the unknowns of h2 and the side of the
# Smith normal form it computes: Q8 on (Z/2)^9 (81) takes 0.02 s, S5 on
# Z/2 (361) 0.25 s, (Z/2)^6 on Z/2 (321, with 21 basis cocycles of 64^2
# values each to check) 1.2 s; past it, (Z/2)^5 on (Z/2)^4 (516) 1.3 s and
# (Z/2)^7 on Z/2 (769) 3.8 s.  _LATTICE_LIMIT bounds n2 = (|H|-1)^2 * k,
# the rows of the coboundary map extend_automorphism and
# verify_main_theorem solve on: factoring it takes 0.01 s for C17 on Z/2
# (n2 = 256) and 0.03 s for Q8 on (Z/2)^9 (n2 = 441), but the work of
# those checks grows with n2 * |End_H| and with |H|^2 * |M|.  _END_LIMIT
# bounds |End_H|, which aut_h enumerates: 3.8 s for trivial H on (Z/2)^4,
# R-bar/2 at rank 4, where it is exactly 2^16.
_RELATION_LIMIT = 512
_LATTICE_LIMIT = 256
_END_LIMIT = 2**16


def _map_steps(shape):
    """((r, c), s) where s = m_r/gcd(m_r, m_c) > 1: entry X[r][c] is a
    well-defined map Z/m_c -> Z/m_r, m_c X[r][c] = 0 mod m_r, iff s | X[r][c]."""
    pairs = itertools.product(enumerate(shape), repeat=2)
    return [((r, c), m // gcd(m, n)) for (r, m), (c, n) in pairs if n % m]


def _checked_table(H, shape):
    """H's Cayley table, once the shape is valid and |H|*|M|, the order of
    every extension of H by M, is within TABLE_LIMIT."""
    if any(m < 1 for m in shape):
        raise PreconditionError("module shape entries must be positive")
    if H.order * prod(shape) > TABLE_LIMIT:
        raise PreconditionError("cohomology instance too large: |H|*|M| > %d" % TABLE_LIMIT)
    return TableGroup.from_permgroup(H)


class FiniteHModule:
    """A finite abelian group ⊕ Z/m_i with an action of H by matrices.

    T is H's Cayley table (TableGroup.from_permgroup), and action[i] is the
    matrix of the element at position i, H.elements[i].  The action is
    given on every element, not just generators, and verified to be a
    homomorphism with the identity matrix at position 0.  |H|*|M| is
    bounded by TABLE_LIMIT, checked before the table is built.
    """

    def __init__(self, H, shape, action):
        self.H = H
        self.shape = tuple(int(m) for m in shape)
        self.T = T = _checked_table(H, self.shape)
        self.k = len(self.shape)
        self.size = prod(self.shape)
        if len(action) != T.n:
            raise PreconditionError("action must be given on every element of H")
        norm = []
        for mat in action:
            if len(mat) != self.k or any(len(row) != self.k for row in mat):
                raise PreconditionError("action matrix has the wrong shape")
            mat = tuple(tuple(x % m for x in row) for row, m in zip(mat, self.shape))
            for (r, c), step in _map_steps(self.shape):
                if mat[r][c] % step:
                    raise PreconditionError(
                        "action entry (%d,%d) is not a well-defined map "
                        "Z/%d -> Z/%d" % (r, c, self.shape[c], self.shape[r])
                    )
            norm.append(mat)
        self.action = norm
        # reduced mod the row moduli, maps on M compare as tuples
        one = tuple(tuple(int(r == c) % m for c in range(self.k)) for r, m in enumerate(self.shape))
        if norm[0] != one:
            raise PreconditionError("action at the identity is not the identity matrix")
        # {s : A(g)A(s) = A(gs) for all g} contains 1, as A(1) = I, and is
        # closed under products: for s, t in it, A(g)A(st) = A(g)A(s)A(t)
        # = A(gs)A(t) = A(gst), using A(s)A(t) = A(st) (g = s).  T.gens
        # generate H, so checking s in T.gens is exact.
        for s in T.gens:
            for g in range(T.n):
                if mat_mul_mod(norm[g], norm[s], self.shape) != norm[T.table[g][s]]:
                    raise PreconditionError("action is not a homomorphism")

    @classmethod
    def trivial(cls, H, shape):
        return cls(H, shape, [identity_matrix(len(shape))] * H.order)

    @classmethod
    def from_generator_matrices(cls, H, shape, gen_mats):
        """Action from matrices for H.generators, extended by products."""
        if len(gen_mats) != len(H.generators):
            raise PreconditionError("one matrix per generator is required")
        T = _checked_table(H, shape)
        gens = [T.index[g] for g in H.generators]
        step = lambda a, _, i: mat_mul_mod(a, gen_mats[i], shape)
        action = labels(orbit(0, gens, T.mult), identity_matrix(len(shape)), step)
        return cls(H, shape, [action[h] for h in range(T.n)])

    @cached_property
    def coboundary_snf(self):
        """(L, the Smith normal form of D1 with row v scaled by L/m_v), L
        the lcm of the moduli; refused past _LATTICE_LIMIT rows."""
        n2 = (self.T.n - 1) ** 2 * self.k
        if n2 > _LATTICE_LIMIT:
            raise PreconditionError(
                "cohomology instance too large: 2-cochain dimension %d > %d"
                % (n2, _LATTICE_LIMIT)
            )
        L = lcm(*self.shape)
        scale = [L // m for m in self.shape]
        D = [[scale[v % self.k] * a for a in row] for v, row in enumerate(_coboundary_map(self))]
        return L, smith_normal_form(D)

    def zero(self):
        return (0,) * self.k

    def reduce(self, vec):
        return tuple(v % m for v, m in zip(vec, self.shape))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.shape))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.shape))

    def apply(self, g, m):
        """The action of the element at position g on m."""
        return mat_vec_mod(self.action[g], m, self.shape)

    def elements(self):
        return list(itertools.product(*map(range, self.shape)))


def _is_cocycle(M, table):
    """Whether a normalized table satisfies the cocycle identity
    h1.beta(h2, g) - beta(h1 h2, g) + beta(h1, h2 g) - beta(h1, h2) = 0.

    The identity at (h1, h2, g) is associativity of the extension table at
    z = (g, 0); at z = (1, m) it holds for any normalized beta.  These z
    generate the extension, so by the lemma in groups.TableGroup checking
    g in T.gens is exact.
    """
    t, shape = M.T.table, M.shape
    acts = [None if A == M.action[0] else A for A in M.action]
    for g in M.T.gens:
        col = [row[g] for row in table]
        times_g = [row[g] for row in t]
        for h1, row1 in enumerate(table):
            A, th1 = acts[h1], t[h1]
            for h2, v in enumerate(col):
                Av = v if A is None else mat_vec_mod(A, v, shape)
                a, b, c = col[th1[h2]], row1[times_g[h2]], row1[h2]
                for x, y, z, w, m in zip(Av, a, b, c, shape):
                    if (x - y + z - w) % m:
                        return False
    return True


class Cocycle2:
    """A normalized 2-cocycle on H with values in a FiniteHModule, stored
    as an |H| x |H| list: table[i][j] is its value at the elements of
    positions i and j."""

    def __init__(self, module, table):
        self.module = module
        n = module.T.n
        zero = module.zero()
        if len(table) != n or any(len(row) != n for row in table):
            raise PreconditionError("cocycle table is missing a pair")
        full = [[module.reduce(val) for val in row] for row in table]
        if any(val != zero for val in full[0]) or any(row[0] != zero for row in full):
            raise PreconditionError("cocycle is not normalized")
        self.table = full
        if not _is_cocycle(module, full):
            raise PreconditionError("cocycle identity fails at a triple")

    @classmethod
    def _trusted(cls, module, table):
        """A sum, multiple or push forward of cocycles, left unchecked."""
        beta = cls.__new__(cls)
        beta.module, beta.table = module, table
        return beta

    @classmethod
    def zero(cls, module):
        n = module.T.n
        return cls._trusted(module, [[module.zero()] * n for _ in range(n)])

    def __add__(self, other):
        if other.module is not self.module:
            raise PreconditionError("cocycles live over different modules")
        M = self.module
        return Cocycle2._trusted(
            M,
            [[M.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.table, other.table)],
        )

    def scale(self, n):
        M = self.module
        return Cocycle2._trusted(
            M, [[M.reduce([n * x for x in val]) for val in row] for row in self.table]
        )


def apply_aut(gamma, beta: Cocycle2) -> Cocycle2:
    """The pushed cocycle (gamma . beta)(h1, h2) = gamma(beta(h1, h2)),
    for an H-equivariant automorphism gamma of beta's module."""
    M = beta.module
    _check_automorphism(M, gamma)
    return Cocycle2._trusted(
        M, [[mat_vec_mod(gamma, val, M.shape) for val in row] for row in beta.table]
    )


class H2Data:
    """Structure of H^2(H, M) with explicit class coordinates.

    invariants: the invariant factors > 1; basis: cocycles mapping to the
    corresponding unit classes; class_of: cocycle -> coordinate tuple.
    """

    def __init__(self, module, invariants, basis, class_fn):
        self.module = module
        self.invariants = invariants
        self.basis = basis
        self._class_fn = class_fn

    @property
    def order(self):
        return prod(self.invariants)

    def class_of(self, beta: Cocycle2):
        return self._class_fn(beta)


def _internal_cocycle(M, table, what):
    """Cocycle2(M, table) for a table the library computed, where a failed
    check is a fault of the library, not of its input."""
    try:
        return Cocycle2(M, table)
    except PreconditionError as exc:
        raise InternalError("%s fails the cocycle identity" % what) from exc


def _block(n, k, a, b):
    """The first normalized C^2 coordinate of positions a, b >= 1 in a
    group of order n, for a module of k coordinates."""
    return ((a - 1) * (n - 1) + b - 1) * k


def _flatten(table):
    """The normalized C^2 coordinates of an |H| x |H| cochain table."""
    return [x for row in table[1:] for val in row[1:] for x in val]


def _coboundary_map(M):
    """D1, n2 x n1: the map C^1 -> C^2, c -> dc, on normalized cochains."""
    t, n, k = M.T.table, M.T.n, M.k
    n1, n2 = (n - 1) * k, (n - 1) ** 2 * k
    D = [[0] * n1 for _ in range(n2)]
    for i in range(1, n):
        Ai = M.action[i]
        for j in range(1, n):
            ij = t[i][j]
            base = _block(n, k, i, j)
            for r in range(k):
                row = D[base + r]
                for s in range(k):
                    row[(j - 1) * k + s] += Ai[r][s]
                if ij:
                    row[(ij - 1) * k + r] -= 1
                row[(i - 1) * k + r] += 1
    return D


def _equivariance_rows(M, source):
    """The congruences on the values f(e_j) of a homomorphism N -> M,
    coordinate r of f(e_j) at j*k + r, that make f commute with the
    positions g in source: f(g.e_j) = g.f(e_j) modulo m_r in coordinate r,
    column j of source[g] holding g.e_j (for N = R-bar, from
    SchreierTree.conjugation; for N = M, M's own matrices)."""
    k, shape = M.k, M.shape
    rows = []
    for g, cols in source.items():
        A = M.action[g]
        for j, col in enumerate(cols):
            for r in range(k):
                row = {l * k + r: a for l, a in enumerate(col) if a}
                for s, a in enumerate(A[r]):
                    if a:
                        row[j * k + s] = row.get(j * k + s, 0) - a
                row = {v: coeff for v, coeff in row.items() if coeff}
                if row:
                    rows.append((row, shape[r]))
    return rows


def _relation_system(M, pres):
    """[D | diag(moduli)]: column (i, c) of D is the derivation with D(x_i)
    = e_c restricted to the Schreier generators, flattened as the unknowns
    of _equivariance_rows are."""
    k, dim = M.k, pres.rank * M.k
    cols = [[x for val in der for x in val] for der in pres.derivations(M.action, k)]
    return [
        [col[v] for col in cols] + [M.shape[v % k] if u == v else 0 for u in range(dim)]
        for v in range(dim)
    ]


def _restriction(M, pres, table):
    """f_beta, flattened: the Schreier generators' images in M under F ->
    the extension by the cocycle table, x_i -> (g_i, 0), g_i = T.gens[i].
    The fiber part of s_h's image grows along the tree by beta(h, g_i)
    (SchreierTree.generator_values), reduced once at the end."""
    gens = M.T.gens
    step = lambda v, h, i: [a + b for a, b in zip(v, table[h][gens[i]])]
    return [x for val in pres.generator_values(M.zero(), step) for x in M.reduce(val)]


def _pushed_cocycle(M, pres, f):
    """The table of beta_f(h1, h2) = f(s(h1) s(h2) s(h1 h2)^-1), that is f
    of s(h2) read from h1, for f given by its flattened values: along the
    tree in h2, the walk crosses generator j of the edge (h1 p, i)."""
    k, t = M.k, M.T.table
    vals = [M.reduce(f[j * k : j * k + k]) for j in range(pres.rank)]
    table = []
    for h1 in range(M.T.n):
        def step(v, p, i):
            j = pres.gen_index.get((t[h1][p], i + 1))
            return v if j is None else M.add(v, vals[j])
        row = labels(pres.tree, M.zero(), step)
        table.append([row[h2] for h2 in range(M.T.n)])
    return table


def h2(M: FiniteHModule) -> H2Data:
    """H^2(H, M) with invariant factors, basis cocycles and a
    representative-to-class map, from Hom_H(R-bar, M) over the
    presentation of H by T.gens."""
    gens = M.T.gens
    dim = (M.T.n * (len(gens) - 1) + 1) * M.k
    if dim > _RELATION_LIMIT:
        raise PreconditionError(
            "cohomology instance too large: %d unknowns in Hom_H(R-bar, M) > %d"
            % (dim, _RELATION_LIMIT)
        )

    pres = SchreierTree(M.T.n, [[row[g] for row in M.T.table] for g in gens])
    rows = _equivariance_rows(M, {g: pres.conjugation(g) for g in gens})
    B, ops = congruence_lattice(dim, rows)
    # the restricted derivations and the moduli, in lattice coordinates
    Ymat = lattice_coordinates(ops, _relation_system(M, pres))
    if Ymat is None:
        raise InternalError("coboundary escapes the cocycle lattice")
    diag, U2, V2 = smith_normal_form(Ymat)
    if len(diag) < dim or any(d == 0 for d in diag):
        raise InternalError("H^2 is not finite at finite level")

    keep = [i for i in range(dim) if diag[i] > 1]
    invariants = [diag[i] for i in keep]

    def class_fn(beta):
        N = beta.module
        if N is not M and (N.T.names, N.shape, N.action) != (M.T.names, M.shape, M.action):
            raise PreconditionError("cocycle belongs to a different module")
        # f_beta reads beta at the generator columns only
        y = None
        if _is_cocycle(M, beta.table):
            y = lattice_coordinates(ops, [[x] for x in _restriction(M, pres, beta.table)])
        if y is None:
            raise InternalError("valid cocycle is outside the cocycle lattice")
        z = mat_vec(U2, [x for x, in y])
        return tuple(z[i] % diag[i] for i in keep)

    basis = []
    for pos_i in keep:
        # column pos_i of U2^-1 is Ymat V2 e_i / d_i, since U2 Ymat V2 = diag(d)
        d = diag[pos_i]
        f = mat_vec(B, [v // d for v in mat_vec(Ymat, [row[pos_i] for row in V2])])
        basis.append(_internal_cocycle(M, _pushed_cocycle(M, pres, f), "basis cocycle"))
    data = H2Data(M, invariants, basis, class_fn)
    for b, unit in zip(basis, identity_matrix(len(keep))):
        if data.class_of(b) != tuple(unit):
            raise InternalError("basis cocycle does not map to its unit class")
    return data


def _end_h_rows(M):
    """The congruences on a k x k matrix X, entry (r, c) at c*k + r, that
    make it a well-defined endomorphism of M commuting with the
    generator matrices of the action: End_H(M) is Hom_H(M, M)."""
    rows = [({c * M.k + r: 1}, step) for (r, c), step in _map_steps(M.shape)]
    return rows + _equivariance_rows(M, {g: list(zip(*M.action[g])) for g in M.T.gens})


def aut_h(M: FiniteHModule):
    """All module automorphisms commuting with the H-action, as matrices,
    in lexicographic order of their entries: the units of End_H(M),
    enumerated from a basis of its lattice once |End_H| <= _END_LIMIT."""
    k, kk = M.k, M.k**2
    moduli = M.shape * k
    B, ops = congruence_lattice(kk, _end_h_rows(M))
    if prod(moduli) // lattice_index(ops) > _END_LIMIT:
        raise PreconditionError("module too large for automorphism enumeration")
    gens = [tuple(row[j] % m for row, m in zip(B, moduli)) for j in range(kk)]
    gens = [g for g in gens if any(g)]
    ends = orbit((0,) * kk, gens, lambda x, g: tuple((a + b) % m for a, b, m in zip(x, g, moduli)))
    out = []
    for mat in sorted(tuple(zip(*(x[c * k : c * k + k] for c in range(k)))) for x in ends):
        if not _commutes(M, mat):
            raise InternalError("endomorphism from the lattice does not commute with H")
        if _is_bijective(M, mat):
            out.append(mat)
    return out


def _commutes(M, mat):
    """Whether mat commutes with every generator matrix of the H-action
    (mat_mul_mod reduces both products, so they compare as tuples)."""
    acts, shape = [M.action[g] for g in M.T.gens], M.shape
    return all(mat_mul_mod(mat, A, shape) == mat_mul_mod(A, mat, shape) for A in acts)


def _is_bijective(M, mat):
    """Whether a well-defined map mat is a bijection of M: its kernel
    lattice {x : mat x = 0 mod m_r in row r} contains m_1 Z + ... + m_k Z
    and has index |M|/|ker| in Z^k, so mat is one iff the index is |M|."""
    rows = [({c: a for c, a in enumerate(row) if a}, m) for row, m in zip(mat, M.shape)]
    _, ops = congruence_lattice(M.k, rows)
    return lattice_index(ops) == M.size


def _check_automorphism(M, gamma):
    """Refuse gamma unless it is a k x k well-defined map, commutes with H
    and is bijective."""
    defined = len(gamma) == M.k and all(len(row) == M.k for row in gamma)
    defined = defined and all(gamma[r][c] % step == 0 for (r, c), step in _map_steps(M.shape))
    if not (defined and _commutes(M, gamma) and _is_bijective(M, gamma)):
        raise PreconditionError("gamma is not an H-equivariant module automorphism")


def stabilizer_beta(autos, beta: Cocycle2, h2data: H2Data):
    """The automorphisms gamma with class(gamma . beta) = class(beta)."""
    ref = h2data.class_of(beta)
    return [g for g in autos if h2data.class_of(apply_aut(g, beta)) == ref]


class ExtensionGroup:
    """The extension of H by M with 2-cocycle beta.

    Its elements are pairs (h, m), h a position in H's table, with product
    (h1, m1)(h2, m2) = (h1 h2, m1 + h1.m2 + beta(h1, h2)).  `group` is
    their TableGroup, with (h, m) at position h*|M| + (m's index in
    M.elements()), so the identity (0, 0) comes first.  It is filled from
    index tables of M's addition, the H-action and beta, and TableGroup
    checks it, associativity exactly; `extension_class` and
    `extend_automorphism` read it.  `elements` lists the same pairs with
    H.elements[h] in place of h, in the same order, and `embed` returns
    one of them.
    """

    def __init__(self, module: FiniteHModule, beta: Cocycle2):
        if beta.module is not module:
            raise PreconditionError("cocycle module mismatch")
        self.H = module.H
        self.module = module
        self.beta = beta
        n, fiber = module.T.n, module.elements()
        S, idx = len(fiber), {m: i for i, m in enumerate(fiber)}
        add = [[idx[module.add(a, b)] for b in fiber] for a in fiber]
        act = [[idx[module.apply(h, m)] for m in fiber] for h in range(n)]
        # plus[h1][h2][i] is the index of m_i + beta(h1, h2)
        plus = [[add[idx[val]] for val in row] for row in beta.table]
        table = [
            [th[h2] * S + plus[h1][h2][a[x]] for h2 in range(n) for x in act[h1]]
            for h1, th in enumerate(module.T.table)
            for a in add
        ]
        pairs = [(h, m) for h in range(n) for m in fiber]
        try:
            self.group = TableGroup(table, names=pairs)
        except PreconditionError as exc:
            # a normalized beta makes the rows and columns permutations with
            # (0, 0) as the identity, so only associativity can fail
            raise InternalError("extension multiplication is not associative") from exc
        self.elements = [(self.H.elements[h], m) for h, m in pairs]
        self.order = len(pairs)

    def embed(self, m):
        return (self.H.identity(), self.module.reduce(m))

    def section(self):
        """The standard section h -> (h, 0), a normalized transversal."""
        return [(h, self.module.zero()) for h in range(self.module.T.n)]


def build_extension(M: FiniteHModule, beta: Cocycle2) -> ExtensionGroup:
    return ExtensionGroup(M, beta)


def extension_class(E, section=None) -> Cocycle2:
    """The 2-cocycle beta(h1, h2) = s(h1) s(h2) s(h1 h2)^-1 of an
    extension, in module coordinates.

    E is an ExtensionGroup; section lists an element (h, m) of E.group for
    each position h of H and defaults to the standard section.  It must be
    a transversal with s(0) the identity.
    """
    M = E.module
    n, tH = M.T.n, M.T.table
    s = section if section is not None else E.section()
    T = E.group
    if len(s) != n or any(a not in T.index or a[0] != h for h, a in enumerate(s)):
        raise PreconditionError("section is not a transversal of the extension")
    if s[0] != T.names[0]:
        raise PreconditionError("section must send the identity to the identity")
    si = [T.index[a] for a in s]
    t, inv = T.table, T.inv
    table = [[None] * n for _ in range(n)]
    for h1 in range(n):
        for h2 in range(n):
            h, m = T.names[t[t[si[h1]][si[h2]]][inv[si[tH[h1][h2]]]]]
            if h != 0:
                raise InternalError("cocycle value is not in the fiber")
            table[h1][h2] = m
    return _internal_cocycle(M, table, "extension class")


def _lifting_cochain(gamma, beta: Cocycle2):
    """The normalized 1-cochain c with gamma(beta) - beta = dc, as module
    values by position, or None when there is none: gamma fixes beta's
    class exactly when one exists.  Solved on the cached scaled coboundary
    map (FiniteHModule.coboundary_snf); gamma is taken to be an
    H-equivariant automorphism."""
    M = beta.module
    shape, k = M.shape, M.k
    delta = _flatten(
        [[M.sub(mat_vec_mod(gamma, val, shape), val) for val in row] for row in beta.table]
    )
    L, snf = M.coboundary_snf
    sol = solve_mod_from_snf(snf, [L // shape[v % k] * x for v, x in enumerate(delta)], L)
    if sol is None:
        return None
    return [M.zero()] + [M.reduce(sol[(h - 1) * k : h * k]) for h in range(1, M.T.n)]


def extend_automorphism(gamma, E: ExtensionGroup):
    """An automorphism of E restricting to gamma on M and to the identity
    on H, or None if no such automorphism exists.

    Searches for a normalized 1-cochain c with gamma(beta) - beta = dc
    (_lifting_cochain); on success the automorphism is (h, m) -> (h,
    gamma(m) + c(h)), returned as a map on E.elements.
    """
    M = E.module
    _check_automorphism(M, gamma)
    cochain = _lifting_cochain(gamma, E.beta)
    if cochain is None:
        return None

    T = E.group
    f = [T.index[(h, M.add(mat_vec_mod(gamma, m, M.shape), cochain[h]))] for h, m in T.names]
    if len(set(f)) != E.order:
        raise InternalError("extended map is not a bijection")
    if not preserves_products(f, T, T):
        raise InternalError("extended map is not a homomorphism")
    return {E.elements[a]: E.elements[b] for a, b in enumerate(f)}
