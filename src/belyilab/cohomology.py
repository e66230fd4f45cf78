"""Second cohomology of a finite group with coefficients in a finite
abelian module, by integer linear algebra.

A module is M = Z/m_1 + ... + Z/m_k with the H-action given by an integer
matrix for every group element.  Normalized 2-cochains form the free
abelian group Z^n2 modulo the component moduli, n2 = (|H|-1)^2 * k; the
cocycle conditions are congruences, so Z^2 lifts to a finite-index lattice
L in Z^n2.  H^2 = L / (coboundaries + moduli) is read off from two Smith
normal forms, and the tracked transforms give explicit basis cocycles,
class coordinates for arbitrary cocycles, and explicit 1-cochains when an
automorphism of the module extends to the corresponding extension group.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd

from .errors import InternalError, PreconditionError
from .groups import TableGroup, preserves_products
from .permgroup import orbit
from .snf import mat_vec, smith_normal_form, solve_integer

_SCALE_LIMIT = 4096
# bound on n2 = (|H|-1)^2 * k, the dimension of the cocycle lattice and of
# the Smith normal forms h2 computes; |H|*|M| alone lets Q8 on (Z/2)^9
# through with n2 = 441, which takes about 100 s
_LATTICE_LIMIT = 256


def _mat_apply(mat, m, shape):
    return tuple(
        sum(a * x for a, x in zip(row, m)) % mod for row, mod in zip(mat, shape)
    )


def _mat_eq(A, B, shape):
    """Equality of matrices as maps on the module (entries mod the row
    modulus)."""
    k = len(shape)
    return all(
        (A[r][c] - B[r][c]) % shape[r] == 0 for r in range(k) for c in range(k)
    )


def _mat_mul_mod(A, B, shape):
    k = len(shape)
    return tuple(
        tuple(sum(A[r][t] * B[t][c] for t in range(k)) % shape[r] for c in range(k))
        for r in range(k)
    )


class FiniteHModule:
    """A finite abelian group ⊕ Z/m_i with an action of H by matrices.

    The action map is stored for every element of H (not just generators)
    and verified to be a homomorphism with identity at the identity.
    """

    def __init__(self, H, shape, action):
        self.H = H
        self.shape = tuple(int(m) for m in shape)
        if any(m < 1 for m in self.shape):
            raise PreconditionError("module shape entries must be positive")
        self.k = len(self.shape)
        elts = H.elements
        norm = {}
        for g in elts:
            if g not in action:
                raise PreconditionError("action must be given on every element of H")
            mat = action[g]
            if len(mat) != self.k or any(len(row) != self.k for row in mat):
                raise PreconditionError("action matrix has the wrong shape")
            mat = tuple(
                tuple(mat[r][c] % self.shape[r] for c in range(self.k))
                for r in range(self.k)
            )
            for r in range(self.k):
                for c in range(self.k):
                    if (mat[r][c] * self.shape[c]) % self.shape[r]:
                        raise PreconditionError(
                            "action entry (%d,%d) is not a well-defined map "
                            "Z/%d -> Z/%d" % (r, c, self.shape[c], self.shape[r])
                        )
            norm[g] = mat
        self.action = norm
        ident = H.identity()
        eye = tuple(
            tuple(1 if r == c else 0 for c in range(self.k)) for r in range(self.k)
        )
        if not _mat_eq(self.action[ident], eye, self.shape):
            raise PreconditionError("action at the identity is not the identity matrix")
        # {s : A(g)A(s) = A(gs) for all g} contains 1, as A(1) = I, and is
        # closed under products: for s, t in it, A(g)A(st) = A(g)A(s)A(t)
        # = A(gs)A(t) = A(gst), using A(s)A(t) = A(st) (g = s).  The
        # generators generate H, so checking s in H.generators is exact.
        for s in H.generators:
            for g in elts:
                prod = _mat_mul_mod(self.action[g], self.action[s], self.shape)
                if not _mat_eq(prod, self.action[g * s], self.shape):
                    raise PreconditionError("action is not a homomorphism")
        self.size = 1
        for m in self.shape:
            self.size *= m

    @classmethod
    def trivial(cls, H, shape):
        k = len(shape)
        eye = [[1 if r == c else 0 for c in range(k)] for r in range(k)]
        return cls(H, shape, {g: eye for g in H.elements})

    @classmethod
    def from_generator_matrices(cls, H, shape, gen_mats):
        """Action from matrices for H.generators, extended by products."""
        if len(gen_mats) != len(H.generators):
            raise PreconditionError("one matrix per generator is required")
        k = len(shape)
        eye = tuple(tuple(1 if r == c else 0 for c in range(k)) for r in range(k))
        known = {}
        for h, edge in orbit(H.identity(), H.generators, operator.mul).items():
            known[h] = (
                eye if edge is None else _mat_mul_mod(known[edge[0]], gen_mats[edge[1]], shape)
            )
        return cls(H, shape, known)

    def zero(self):
        return (0,) * self.k

    def reduce(self, vec):
        return tuple(v % m for v, m in zip(vec, self.shape))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.shape))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.shape))

    def apply(self, g, m):
        return _mat_apply(self.action[g], m, self.shape)

    def elements(self):
        return [
            tuple(v) for v in itertools.product(*[range(m) for m in self.shape])
        ]


class Cocycle2:
    """A normalized 2-cocycle on H with values in a FiniteHModule."""

    def __init__(self, module, table):
        self.module = module
        H = module.H
        elts = H.elements
        full = {}
        for h1 in elts:
            for h2 in elts:
                if h1.is_identity() or h2.is_identity():
                    val = table.get((h1, h2), module.zero())
                    if module.reduce(val) != module.zero():
                        raise PreconditionError("cocycle is not normalized")
                    full[(h1, h2)] = module.zero()
                else:
                    if (h1, h2) not in table:
                        raise PreconditionError("cocycle table is missing a pair")
                    full[(h1, h2)] = module.reduce(table[(h1, h2)])
        self.table = full
        # The identity at (h1, h2, g) is associativity of the extension
        # table at z = (g, 0); at z = (1, m) it holds for any normalized
        # beta.  These z generate the extension, so by the lemma in
        # groups.TableGroup checking g in H.generators is exact.
        for g in H.generators:
            for h1 in elts:
                for h2 in elts:
                    lhs = module.apply(h1, full[(h2, g)])
                    lhs = module.sub(lhs, full[(h1 * h2, g)])
                    lhs = module.add(lhs, full[(h1, h2 * g)])
                    lhs = module.sub(lhs, full[(h1, h2)])
                    if lhs != module.zero():
                        raise PreconditionError("cocycle identity fails at a triple")

    @classmethod
    def zero(cls, module):
        elts = module.H.elements
        return cls(module, {(a, b): module.zero() for a in elts for b in elts})

    def __call__(self, h1, h2):
        return self.table[(h1, h2)]

    def __add__(self, other):
        if other.module is not self.module:
            raise PreconditionError("cocycles live over different modules")
        M = self.module
        return Cocycle2(
            M, {pair: M.add(v, other.table[pair]) for pair, v in self.table.items()}
        )

    def scale(self, n):
        M = self.module
        return Cocycle2(
            M,
            {
                pair: tuple((n * x) % m for x, m in zip(v, M.shape))
                for pair, v in self.table.items()
            },
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and self.module is other.module
            and self.table == other.table
        )


def apply_aut(gamma, beta: Cocycle2) -> Cocycle2:
    """The pushed cocycle (gamma . beta)(h1, h2) = gamma(beta(h1, h2))."""
    M = beta.module
    table = {
        pair: _mat_apply(gamma, val, M.shape) for pair, val in beta.table.items()
    }
    return Cocycle2(M, table)


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
        out = 1
        for s in self.invariants:
            out *= s
        return out

    def class_of(self, beta: Cocycle2):
        return self._class_fn(beta)


def _cochain_indexing(M):
    """Index maps for normalized cochains of a module.

    Returns (nonid, nn, n1, n2) with nn = len(nonid): the C^2 coordinate
    at (h_i, h_j) is block i * nn + j, C^1 blocks are indexed by i alone.
    """
    if not M.H.elements[0].is_identity():
        raise InternalError("element list does not start with the identity")
    nonid = M.H.elements[1:]
    nn = len(nonid)
    return nonid, nn, nn * M.k, nn * nn * M.k


def _cocycle_rows(M):
    """The cocycle conditions as (sparse row, modulus) congruences on the
    n2 normalized C^2 coordinates."""
    nonid, nn, _, _ = _cochain_indexing(M)
    pos = {h: i for i, h in enumerate(nonid)}
    k = M.k
    rows = []
    for a in range(nn):
        Aa = M.action[nonid[a]]
        for b in range(nn):
            ab = nonid[a] * nonid[b]
            for c in range(nn):
                bc = nonid[b] * nonid[c]
                for r in range(k):
                    row = {}

                    def put(pair, comp, coeff, row=row):
                        v = pair * k + comp
                        row[v] = row.get(v, 0) + coeff

                    for s in range(k):
                        if Aa[r][s]:
                            put(b * nn + c, s, Aa[r][s])
                    if not ab.is_identity():
                        put(pos[ab] * nn + c, r, -1)
                    if not bc.is_identity():
                        put(a * nn + pos[bc], r, 1)
                    put(a * nn + b, r, -1)
                    row = {v: coeff for v, coeff in row.items() if coeff}
                    if row:
                        rows.append((row, M.shape[r]))
    return rows


def _coboundary_matrix(M):
    """The map C^1 -> C^2, c -> dc, as an n2 x n1 integer matrix on
    normalized cochains."""
    nonid, nn, n1, n2 = _cochain_indexing(M)
    pos = {h: i for i, h in enumerate(nonid)}
    k = M.k
    D = [[0] * n1 for _ in range(n2)]
    for i in range(nn):
        Ai = M.action[nonid[i]]
        for j in range(nn):
            ij = nonid[i] * nonid[j]
            base = (i * nn + j) * k
            for r in range(k):
                v = base + r
                for s in range(k):
                    D[v][j * k + s] += Ai[r][s]
                if not ij.is_identity():
                    D[v][pos[ij] * k + r] -= 1
                D[v][i * k + r] += 1
    return D


def _congruence_lattice(n, rows):
    """Column basis of {x in Z^n : row . x = 0 mod m for each (row, m)}.

    Maintains a basis of the running lattice and intersects with one
    congruence at a time by integer column operations.
    """
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for row, m in rows:
        w = []
        for col in cols:
            w.append(sum(coeff * col[v] for v, coeff in row.items()))
        if all(x % m == 0 for x in w):
            continue
        # column-reduce w to a single nonzero entry, mirroring the
        # operations on the basis columns
        while True:
            nz = [j for j in range(len(w)) if w[j]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(w[j]))
            for j in nz:
                if j == j0:
                    continue
                q = w[j] // w[j0]
                if q:
                    w[j] -= q * w[j0]
                    cj, c0 = cols[j], cols[j0]
                    for t in range(n):
                        cj[t] -= q * c0[t]
        j0 = next(j for j in range(len(w)) if w[j])
        t = m // gcd(w[j0], m)
        cols[j0] = [x * t for x in cols[j0]]
    return cols


class _LatticeSolver:
    """Cached-SNF solver for B y = x with B square nonsingular."""

    def __init__(self, cols):
        n = len(cols)
        B = [[cols[j][i] for j in range(n)] for i in range(n)]
        self.B = B
        self.diag, self.U, _, self.V = smith_normal_form(B)
        if any(d == 0 for d in self.diag):
            raise InternalError("cocycle lattice basis is singular")

    def solve(self, x):
        y = mat_vec(self.U, x)
        z = []
        for d, v in zip(self.diag, y):
            if v % d:
                return None
            z.append(v // d)
        return mat_vec(self.V, z)


def h2(M: FiniteHModule) -> H2Data:
    """H^2(H, M) with invariant factors, basis cocycles and a
    representative-to-class map."""
    H = M.H
    if H.order * M.size > _SCALE_LIMIT:
        raise PreconditionError("cohomology instance too large: |H|*|M| > %d" % _SCALE_LIMIT)
    nonid, nn, n1, n2 = _cochain_indexing(M)
    if n2 > _LATTICE_LIMIT:
        raise PreconditionError(
            "cohomology instance too large: cocycle lattice dimension %d > %d"
            % (n2, _LATTICE_LIMIT)
        )
    k = M.k

    def flatten(beta):
        vec = [0] * n2
        for i, h1 in enumerate(nonid):
            for j, h2 in enumerate(nonid):
                val = beta.table[(h1, h2)]
                base = (i * nn + j) * k
                for r in range(k):
                    vec[base + r] = val[r]
        return vec

    def unflatten(vec):
        table = {}
        for i, h1 in enumerate(nonid):
            for j, h2 in enumerate(nonid):
                base = (i * nn + j) * k
                table[(h1, h2)] = tuple(vec[base + r] for r in range(k))
        return Cocycle2(M, table)

    if n2 == 0:
        # H trivial: the only normalized cocycle is zero
        return H2Data(M, [], [], lambda beta: ())

    rows = _cocycle_rows(M)
    cols = _congruence_lattice(n2, rows)
    solver = _LatticeSolver(cols)

    # sublattice of coboundaries plus the component moduli, expressed in
    # lattice coordinates
    D1 = _coboundary_matrix(M)
    avec = [M.shape[v % k] for v in range(n2)]
    Y = []
    for j in range(n1 + n2):
        if j < n1:
            x = [D1[v][j] for v in range(n2)]
        else:
            x = [0] * n2
            x[j - n1] = avec[j - n1]
        y = solver.solve(x)
        if y is None:
            raise InternalError("coboundary escapes the cocycle lattice")
        Y.append(y)
    Ymat = [[Y[j][i] for j in range(n1 + n2)] for i in range(n2)]
    diag, U2, Uinv2, _ = smith_normal_form(Ymat)
    if len(diag) < n2 or any(d == 0 for d in diag):
        raise InternalError("H^2 is not finite at finite level")

    keep = [i for i in range(n2) if diag[i] > 1]
    invariants = [diag[i] for i in keep]

    def class_fn(beta):
        if beta.module is not M and beta.module.shape != M.shape:
            raise PreconditionError("cocycle belongs to a different module")
        y = solver.solve(flatten(beta))
        if y is None:
            raise InternalError("valid cocycle is outside the cocycle lattice")
        z = mat_vec(U2, y)
        return tuple(z[i] % diag[i] for i in keep)

    basis = []
    for pos_i in keep:
        y = [Uinv2[r][pos_i] for r in range(n2)]
        x = mat_vec(solver.B, y)
        basis.append(unflatten([v % m for v, m in zip(x, avec)]))
    data = H2Data(M, invariants, basis, class_fn)
    for idx, b in enumerate(basis):
        expect = tuple(1 if t == idx else 0 for t in range(len(keep)))
        if data.class_of(b) != expect:
            raise InternalError("basis cocycle does not map to its unit class")
    return data


def aut_h(M: FiniteHModule):
    """All module automorphisms commuting with the H-action, as matrices."""
    k = M.k
    shape = M.shape
    pools = []
    total = 1
    for r in range(k):
        for c in range(k):
            step = shape[r] // gcd(shape[r], shape[c])
            pool = list(range(0, shape[r], step))
            total *= len(pool)
            pools.append(pool)
    if total > 10**6:
        raise PreconditionError("module too large for automorphism enumeration")
    out = []
    for entries in itertools.product(*pools):
        mat = tuple(tuple(entries[r * k + c] for c in range(k)) for r in range(k))
        if _is_equivariant_automorphism(M, mat):
            out.append(mat)
    return out


def _is_equivariant_automorphism(M, mat):
    """Whether mat is a bijection of M that commutes with every generator
    matrix of the H-action."""
    shape = M.shape
    return len({_mat_apply(mat, m, shape) for m in M.elements()}) == M.size and all(
        _mat_eq(_mat_mul_mod(mat, A, shape), _mat_mul_mod(A, mat, shape), shape)
        for A in (M.action[g] for g in M.H.generators)
    )


def stabilizer_beta(autos, beta: Cocycle2, h2data: H2Data):
    """The automorphisms gamma with class(gamma . beta) = class(beta)."""
    ref = h2data.class_of(beta)
    return [g for g in autos if h2data.class_of(apply_aut(g, beta)) == ref]


class ExtensionGroup:
    """The extension of H by M with 2-cocycle beta.

    Elements are pairs (h, m) with product
    (h1, m1)(h2, m2) = (h1 h2, m1 + h1.m2 + beta(h1, h2)).

    `elements` lists H's elements in order, each with every m, so the
    identity comes first.  `group` is their TableGroup, built once from
    |E|^2 calls to `mult`, with an associativity check exact at every size;
    `extension_class` and `extend_automorphism` read its table.
    """

    def __init__(self, module: FiniteHModule, beta: Cocycle2):
        if beta.module is not module:
            raise PreconditionError("cocycle module mismatch")
        self.H = module.H
        self.module = module
        self.beta = beta
        fiber = module.elements()
        self.elements = [(h, m) for h in self.H.elements for m in fiber]
        self.order = len(self.elements)
        self.identity = (self.H.identity(), module.zero())
        if self.elements[0] != self.identity:
            raise InternalError("extension element list does not start with the identity")
        try:
            self.group = TableGroup.from_elements(self.elements, self.identity, self.mult)
        except PreconditionError as exc:
            # a normalized beta makes the rows and columns permutations with
            # (1, 0) as the identity, so only associativity can fail
            raise InternalError("extension multiplication is not associative") from exc

    def mult(self, a, b):
        h1, m1 = a
        h2, m2 = b
        M = self.module
        m = M.add(M.add(m1, M.apply(h1, m2)), self.beta(h1, h2))
        return (h1 * h2, m)

    def project(self, a):
        return a[0]

    def embed(self, m):
        return (self.H.identity(), self.module.reduce(m))

    def section(self):
        """The standard section h -> (h, 0), a normalized transversal."""
        return {h: (h, self.module.zero()) for h in self.H.elements}


def build_extension(M: FiniteHModule, beta: Cocycle2) -> ExtensionGroup:
    return ExtensionGroup(M, beta)


def extension_class(E, section=None) -> Cocycle2:
    """The 2-cocycle beta(h1, h2) = s(h1) s(h2) s(h1 h2)^-1 of an
    extension, in module coordinates.

    E is an ExtensionGroup; section maps elements of H to elements of E
    and defaults to the standard section.  The section must be a
    transversal with s(1) = 1.
    """
    M = E.module
    H = E.H
    s = section if section is not None else E.section()
    t, inv, index = E.group.table, E.group.inv, E.group.index
    for h in H.elements:
        if h not in s or s[h] not in index or E.project(s[h]) != h:
            raise PreconditionError("section is not a transversal of the extension")
    if s[H.identity()] != E.identity:
        raise PreconditionError("section must send the identity to the identity")
    si = {h: index[s[h]] for h in H.elements}
    table = {}
    for h1 in H.elements:
        for h2 in H.elements:
            val = E.elements[t[t[si[h1]][si[h2]]][inv[si[h1 * h2]]]]
            if E.project(val) != H.identity():
                raise InternalError("cocycle value is not in the fiber")
            table[(h1, h2)] = val[1]
    return Cocycle2(M, table)


def extend_automorphism(gamma, E: ExtensionGroup):
    """An automorphism of E restricting to gamma on M and to the identity
    on H, or None if no such automorphism exists.

    Searches for a normalized 1-cochain c with gamma(beta) - beta = dc; on
    success the automorphism is (h, m) -> (h, gamma(m) + c(h)).
    """
    M = E.module
    shape = M.shape
    k = M.k
    if not _is_equivariant_automorphism(M, gamma):
        raise PreconditionError("gamma is not an H-equivariant module automorphism")
    nonid, nn, n1, n2 = _cochain_indexing(M)
    cochain = {M.H.identity(): M.zero()}
    if n2 > 0:
        delta = [0] * n2
        for i, h1 in enumerate(nonid):
            for j, h2 in enumerate(nonid):
                val = M.sub(
                    _mat_apply(gamma, E.beta(h1, h2), shape), E.beta(h1, h2)
                )
                base = (i * nn + j) * k
                for r in range(k):
                    delta[base + r] = val[r]
        D1 = _coboundary_matrix(M)
        stacked = [
            D1[v] + [M.shape[v % k] if u == v else 0 for u in range(n2)]
            for v in range(n2)
        ]
        sol = solve_integer(stacked, delta)
        if sol is None:
            return None
        for i, h in enumerate(nonid):
            cochain[h] = M.reduce(tuple(sol[i * k + r] for r in range(k)))

    out = {}
    for h, m in E.elements:
        out[(h, m)] = (h, M.add(_mat_apply(gamma, m, shape), cochain[h]))
    if len(set(out.values())) != E.order:
        raise InternalError("extended map is not a bijection")
    T = E.group
    if not preserves_products([T.index[out[e]] for e in E.elements], T, T):
        raise InternalError("extended map is not a homomorphism")
    return out
