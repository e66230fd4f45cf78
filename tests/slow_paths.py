"""Slow paths kept as oracles for the integer kernels of cohomology and
snf, for the extension table and for relmod's Schreier rewriting.

Each function here is the version the library replaced, kept verbatim in
its arithmetic: the nested-loop Smith normal form (which also tracks the
inverse of its row transform, U^-1), the dense mat_vec, h2 on the
lattice of normalized 2-cocycles in Z^n2, n2 = (|H|-1)^2 * k, cut out by
the cocycle congruences at generators in the third place or at every
triple of elements (the library's h2 works on Hom_H(R-bar, M) instead),
the column-major congruence lattice with coordinates in it solved from
its basis's Smith normal form, the extension product on module tuples
and the table built from |E|^2 calls to it, extend_automorphism solving
[D1 | diag(moduli)] over the integers, factored on every call, aut_h
trying every matrix on the module and testing bijectivity by mapping
every element, relmod's action, extension cocycle and P-generator images
from freely reduced products of FreeWords (s w s^-1, s1 s2 s(h1 h2)^-1,
x_i s(g_i)^-1) rewritten from the identity coset, the derivation span
F walked element by element, the main-theorem check from P's Cayley
table by searching each generator's H-fiber for the automorphisms that
fix H, with H^2 and the class stabilizer from the cochain h2
(verify_main_theorem names the report keys it computes without the
library), and cyclotomic's product, reduction and Galois
automorphisms read off an N x phi(N) table of the powers of zeta_N, and
genus1's j-invariant degree with j's numerator and denominator
cross-multiplied as dense lists in Z[x]/(x^t - 1), and descent's
subgroup certificates from a fresh PermGroup (and so a fresh character
table) for every cyclic candidate, also one whose elements are all of D,
PermGroup.power_map powering the class representative and classing
the result on every call instead of reading the group's power table, and
cover.validate's Fix(J) from the Schreier generators of J with D built
from the projections of every transversal element over Fix(J),
Schreier-Sims restarting each level's scan of Schreier generators from
the first pair after every new strong generator, and resuming it from a
(point, generator) position that goes back to the first pair when the
level is rebuilt, and cyclotomic's fold
filling and dividing all N positions whatever exponents it is given.
test_fast_paths.py, test_extension_table.py and test_genus1.py assert
that the library returns identical results; where the library's h2 and
the cochain h2 work on different lattices, and where the generator and
the all-triples congruences build different bases of one lattice, they
assert the same H^2 invariants and class maps that differ by an
automorphism of H^2.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from belyilab import chartab, cohomology, cyclotomic, descent, relmod
from belyilab.cover import tate_characters
from belyilab.cyclotomic import Cyclotomic, _divide_monic, cyclotomic_coeffs, phi_of
from belyilab.errors import InternalError, PreconditionError
from belyilab.groups import TableGroup, homomorphism_from_generators, preserves_products
from belyilab.permgroup import PermGroup, Permutation, _compose, _inverse, labels, orbit
from belyilab.snf import identity_matrix


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def smith_normal_form(A):
    """(diag, U, Uinv, V) with U*A*V diagonal, pivoting on the first entry
    of smallest magnitude in row-major order."""
    m = len(A)
    n = len(A[0]) if m else 0
    S = [row[:] for row in A]
    U, Uinv = identity_matrix(m), identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] -= c * r[i]

    def add_col(i, j, c):
        for r in S:
            r[i] += c * r[j]
        for r in V:
            r[i] += c * r[j]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    t = 0
    size = min(m, n)
    while t < size:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = S[i][j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        if S[t][t] < 0:
            negate_row(t)
        dirty = False
        p = S[t][t]
        for i in range(t + 1, m):
            if S[i][t]:
                q = S[i][t] // p
                if q:
                    add_row(i, t, -q)
                if S[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j]:
                q = S[t][j] // p
                if q:
                    add_col(j, t, -q)
                if S[t][j]:
                    dirty = True
        if dirty:
            continue
        p = S[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    diag = [S[i][i] for i in range(size)]
    return diag, U, Uinv, V


def smith_normal_form_3(A):
    """The oracle's (diag, U, V), the library's return shape."""
    diag, U, _, V = smith_normal_form(A)
    return diag, U, V


def solve_from_snf(snf, b):
    diag, U, V = snf
    y = mat_vec(U, b)
    z = [0] * len(V)
    for i, v in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d:
            if v % d:
                return None
            z[i] = v // d
        elif v:
            return None
    return mat_vec(V, z)


def cocycle_rows(M):
    """The cocycle conditions as (sparse row, modulus) congruences on the
    n2 normalized C^2 coordinates: the identity at (a, b, c) for a, b >= 1
    and c in T.gens, (|H|-1)^2 * |gens| * k rows.

    That suffices (the lemma in groups.TableGroup): the identity at
    (a, b, c) is associativity of the extension at ((a, x), (b, y), (c, 0)),
    and at z = (1, m) it holds for any normalized cochain.  The z at which
    associativity holds for all x, y are closed under products, and the
    (c, 0), c in T.gens, with the (1, m) generate the extension.  With a
    or b the identity a normalized cochain satisfies the identity.
    """
    t, n, k = M.T.table, M.T.n, M.k
    block = cohomology._block
    rows = []
    for a in range(1, n):
        Aa = M.action[a]
        for b in range(1, n):
            ab = t[a][b]
            for c in M.T.gens:
                bc = t[b][c]
                for r in range(k):
                    row = {}

                    def put(v, coeff, row=row):
                        row[v] = row.get(v, 0) + coeff

                    for s in range(k):
                        if Aa[r][s]:
                            put(block(n, k, b, c) + s, Aa[r][s])
                    if ab:
                        put(block(n, k, ab, c) + r, -1)
                    if bc:
                        put(block(n, k, a, bc) + r, 1)
                    put(block(n, k, a, b) + r, -1)
                    row = {v: coeff for v, coeff in row.items() if coeff}
                    if row:
                        rows.append((row, M.shape[r]))
    return rows


def coboundary_system(M):
    """[D1 | diag(moduli)], n2 x (n1 + n2): column n1 + v holds the
    modulus of coordinate v."""
    k, n2 = M.k, (M.T.n - 1) ** 2 * M.k
    return [
        row + [M.shape[v % k] if u == v else 0 for u in range(n2)]
        for v, row in enumerate(cohomology._coboundary_map(M))
    ]


def h2(M, rows=cocycle_rows):
    """cohomology.h2 on the lattice of normalized 2-cocycles in Z^n2, n2 =
    (|H|-1)^2 * k, cut out by rows(M) (the generator congruences above by
    default), with the coboundaries [D1 | diag(moduli)] brought into
    lattice coordinates and factored; no limit on n2."""
    n, k = M.T.n, M.k
    n2 = (n - 1) ** 2 * k
    if n2 == 0:
        return cohomology.H2Data(M, [], [], lambda beta: ())
    B, ops = cohomology.congruence_lattice(n2, rows(M))
    Ymat = cohomology.lattice_coordinates(ops, coboundary_system(M))
    if Ymat is None:
        raise InternalError("coboundary escapes the cocycle lattice")
    diag, U2, V2 = cohomology.smith_normal_form(Ymat)
    if len(diag) < n2 or any(d == 0 for d in diag):
        raise InternalError("H^2 is not finite at finite level")
    keep = [i for i in range(n2) if diag[i] > 1]

    def class_fn(beta):
        N = beta.module
        if N is not M and (N.T.names, N.shape, N.action) != (M.T.names, M.shape, M.action):
            raise PreconditionError("cocycle belongs to a different module")
        y = cohomology.lattice_coordinates(ops, [[x] for x in cohomology._flatten(beta.table)])
        if y is None:
            raise InternalError("valid cocycle is outside the cocycle lattice")
        z = cohomology.mat_vec(U2, [x for x, in y])
        return tuple(z[i] % diag[i] for i in keep)

    basis = []
    zero = M.zero()
    for pos_i in keep:
        d = diag[pos_i]
        col = cohomology.mat_vec(Ymat, [row[pos_i] for row in V2])
        x = cohomology.mat_vec(B, [v // d for v in col])
        cells = [x[v : v + k] for v in range(0, n2, k)]
        rows_ = [[zero] + cells[i : i + n - 1] for i in range(0, len(cells), n - 1)]
        basis.append(cohomology._internal_cocycle(M, [[zero] * n] + rows_, "basis cocycle"))
    data = cohomology.H2Data(M, [diag[i] for i in keep], basis, class_fn)
    for idx, b in enumerate(basis):
        if data.class_of(b) != tuple(int(t == idx) for t in range(len(keep))):
            raise InternalError("basis cocycle does not map to its unit class")
    return data


def cocycle_rows_all_triples(M):
    """The cocycle conditions as (sparse row, modulus) congruences at
    every triple (a, b, c) of nonidentity positions, (|H|-1)^3 * k rows."""
    t, n, k = M.T.table, M.T.n, M.k
    block = cohomology._block
    rows = []
    for a in range(1, n):
        Aa = M.action[a]
        for b in range(1, n):
            ab = t[a][b]
            for c in range(1, n):
                bc = t[b][c]
                for r in range(k):
                    row = {}

                    def put(v, coeff, row=row):
                        row[v] = row.get(v, 0) + coeff

                    for s in range(k):
                        if Aa[r][s]:
                            put(block(n, k, b, c) + s, Aa[r][s])
                    if ab:
                        put(block(n, k, ab, c) + r, -1)
                    if bc:
                        put(block(n, k, a, bc) + r, 1)
                    put(block(n, k, a, b) + r, -1)
                    row = {v: coeff for v, coeff in row.items() if coeff}
                    if row:
                        rows.append((row, M.shape[r]))
    return rows


def congruence_lattice_columns(n, rows):
    """The basis vectors of {x in Z^n : row . x = 0 mod m}, one list per
    basis vector."""
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for row, m in rows:
        w = []
        for col in cols:
            w.append(sum(coeff * col[v] for v, coeff in row.items()))
        if all(x % m == 0 for x in w):
            continue
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


def congruence_lattice(n, rows):
    """The columns above as the n x n matrix B h2 expects, and in place of
    its column operations B's Smith normal form, which
    lattice_coordinates solves with."""
    cols = congruence_lattice_columns(n, rows)
    B = [[cols[j][i] for j in range(n)] for i in range(n)]
    B_snf = smith_normal_form_3(B)
    if any(d == 0 for d in B_snf[0]):
        raise InternalError("cocycle lattice basis is singular")
    return B, B_snf


def lattice_coordinates(B_snf, X):
    """B^-1 X, one column at a time from B's Smith normal form, or None
    when a column of X is outside the lattice."""
    Y = []
    for x in zip(*X):
        y = solve_from_snf(B_snf, x)
        if y is None:
            return None
        Y.append(y)
    return [list(row) for row in zip(*Y)]


def use_slow_kernels(monkeypatch):
    """Route the SNF, mat_vec, congruence lattice and lattice coordinates
    that cohomology imports from snf through the oracles above for the
    rest of a test."""
    monkeypatch.setattr(cohomology, "smith_normal_form", smith_normal_form_3)
    monkeypatch.setattr(cohomology, "mat_vec", mat_vec)
    monkeypatch.setattr(cohomology, "congruence_lattice", congruence_lattice)
    monkeypatch.setattr(cohomology, "lattice_coordinates", lattice_coordinates)


def mult(E, a, b):
    """The product (h1, m1)(h2, m2) = (h1 h2, m1 + h1.m2 + beta(h1, h2))
    in the extension E, computed on module tuples."""
    (h1, m1), (h2, m2) = a, b
    M = E.module
    return (M.T.table[h1][h2], M.add(M.add(m1, M.apply(h1, m2)), E.beta.table[h1][h2]))


def table_from_elements(elements, identity, mult):
    """Table of the group formed by hashable elements under mult, with
    the identity as 0 and the rest in the given order."""
    names = [identity] + [e for e in elements if e != identity]
    pos = {e: i for i, e in enumerate(names)}
    return TableGroup([[pos[mult(a, b)] for b in names] for a in names], names=names)


def extension_table(E):
    """E's Cayley table from |E|^2 calls to mult."""
    pairs = E.group.names
    return table_from_elements(pairs, pairs[0], lambda a, b: mult(E, a, b))


def extend_automorphism(gamma, E):
    """extend_automorphism with [D1 | diag(moduli)] built and factored on
    every call."""
    M = E.module
    shape = M.shape
    k = M.k
    n = M.T.n
    n2 = (n - 1) ** 2 * k
    cochain = [M.zero()] * n
    if n2 > 0:
        delta = cohomology._flatten(
            [
                [M.sub(cohomology.mat_vec_mod(gamma, val, shape), val) for val in row]
                for row in E.beta.table
            ]
        )
        stacked = coboundary_system(M)
        sol = solve_from_snf(smith_normal_form_3(stacked), delta)
        if sol is None:
            return None
        for h in range(1, n):
            cochain[h] = M.reduce(sol[(h - 1) * k : h * k])
    T = E.group
    f = [
        T.index[(h, M.add(cohomology.mat_vec_mod(gamma, m, shape), cochain[h]))]
        for h, m in T.names
    ]
    assert len(set(f)) == E.order and preserves_products(f, T, T)
    return {E.elements[a]: E.elements[b] for a, b in enumerate(f)}


def aut_h(M):
    """All module automorphisms commuting with the H-action, by trying
    every matrix whose entries are well-defined maps Z/m_c -> Z/m_r."""
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
        if cohomology._commutes(M, mat) and is_bijective(M, mat):
            out.append(mat)
    return out


def is_bijective(M, mat):
    """cohomology._is_bijective by mapping every element of M."""
    return len({cohomology.mat_vec_mod(mat, m, M.shape) for m in M.elements()}) == M.size


class FreeWord:
    """A reduced word in the free group on x_1, ..., x_d: +i is x_i, -i
    its inverse."""

    def __init__(self, letters=()):
        out = []
        for l in letters:
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


def image_positions(rm):
    """The positions in rm.H.elements of the images of the free
    generators: where each one's regular action sends the identity."""
    return [a[0] for a in rm.acts]


class FreeWordSchreier:
    """relmod's Schreier data, out of FreeWord products, for the generator
    positions gens in H's Cayley table T, built here from H: the
    transversal, the Schreier generators (the products that do not reduce
    to 1), their index and the conjugation action, column j of action[h]
    being the rewritten s_h w_j s_h^-1."""

    def __init__(self, H, gens):
        self.T = T = TableGroup.from_permgroup(H)
        self.images, self.d = gens, len(gens)
        t = T.table
        tree = orbit(0, gens, T.mult)
        transversal = [None] * T.n
        for h, edge in tree.items():
            word = FreeWord() if edge is None else transversal[edge[0]] * FreeWord((edge[1] + 1,))
            transversal[h] = word
        self.transversal = transversal
        self.free_gens, self.gen_index = [], {}
        for h in tree:
            for i in range(self.d):
                w = transversal[h] * FreeWord((i + 1,)) * transversal[t[h][gens[i]]].inverse()
                if w.is_identity():
                    continue
                self.gen_index[(h, i + 1)] = len(self.free_gens)
                self.free_gens.append(w)
        self.rank = len(self.free_gens)
        self.action = []
        for s in transversal:
            sinv = s.inverse()
            cols = [self.rewrite(s * w * sinv) for w in self.free_gens]
            self.action.append([[cols[j][r] for j in range(self.rank)] for r in range(self.rank)])

    def rewrite(self, w):
        coords = [0] * self.rank
        t, inv = self.T.table, self.T.inv
        state = 0
        for l in w.letters:
            g = self.images[abs(l) - 1]
            if l > 0:
                key = (state, l)
                if key in self.gen_index:
                    coords[self.gen_index[key]] += 1
                state = t[state][g]
            else:
                state = t[state][inv[g]]
                key = (state, -l)
                if key in self.gen_index:
                    coords[self.gen_index[key]] -= 1
        if state != 0:
            raise PreconditionError("word is not in the kernel of the surjection")
        return coords

    def cocycle_table(self, m):
        """rewrite(s(h1) s(h2) s(h1 h2)^-1) mod m for every pair."""
        t, s = self.T.table, self.transversal
        return [
            [
                tuple(v % m for v in self.rewrite(s1 * s2 * s[t[h1][h2]].inverse()))
                for h2, s2 in enumerate(s)
            ]
            for h1, s1 in enumerate(s)
        ]

    def p_generators(self, P, m):
        """Positions in P's table of (g_i, rewrite(x_i s(g_i)^-1) mod m)."""
        words = [FreeWord((i + 1,)) * self.transversal[g].inverse() for i, g in enumerate(self.images)]
        return [
            P.index[(g, tuple(v % m for v in self.rewrite(w)))]
            for g, w in zip(self.images, words)
        ]


def extension_cocycle(rm, m):
    """relmod.extension_cocycle from FreeWord products, on the module
    reduced from the FreeWord action."""
    slow = FreeWordSchreier(rm.H, image_positions(rm))
    M = cohomology.FiniteHModule(rm.H, (m,) * slow.rank, slow.action)
    return cohomology.Cocycle2(M, slow.cocycle_table(m))


def h_fixing_automorphisms(rm, E, m):
    """The automorphisms of P = E.group, E built on the extension cocycle
    of rm mod m, that fix H pointwise, as image lists.  P is a quotient of
    F_d, generated by the images of the free generators (FreeWordSchreier
    .p_generators), so these are the bijective maps sending each one into
    its own H-fiber: |M|^d candidates."""
    T = E.group
    images = image_positions(rm)
    gens = FreeWordSchreier(rm.H, images).p_generators(T, m)
    if not T.generates(gens):
        raise InternalError("the images of the free generators do not generate P")
    fibers = [[a for a, (h, _) in enumerate(T.names) if h == g] for g in images]
    maps = (homomorphism_from_generators(T, T, gens, list(c)) for c in itertools.product(*fibers))
    return [f for f in maps if f is not None and len(set(f)) == T.n]


def derivation_span(rm, m):
    """The span F of relmod._derivations mod m, flattened, walked from 0
    by adding the generators one at a time, where the library reads |F|
    and membership in F off one Smith form."""
    gens = [sum(X, ()) for X in relmod._derivations(rm, m)]
    plus = lambda x, y: tuple((a + b) % m for a, b in zip(x, y))
    return set(orbit((0,) * rm.rank**2, gens, plus))


def verify_main_theorem(rm, m):
    """relmod.verify_main_theorem from P's Cayley table: the extension
    cocycle from FreeWord products, P = build_extension on it, and the
    restrictions to the fiber over the identity of the H-fixing
    automorphisms found by the fiber search above.

    Computed here without the library's h2 or main-theorem code:
    h2_invariants (the cochain h2 above), stabilizer_count (its class_of on
    each pushed cocycle), order_P, extension_fixing_count and
    restriction_count (P's table and the fiber search), and equal.  rank
    and modulus are read off rm.  aut_h_count, and the automorphisms the
    stabilizer is taken over, come from cohomology.aut_h, whose own oracle
    is aut_h above."""
    beta = extension_cocycle(rm, m)
    M = beta.module
    data = h2(M)
    autos = cohomology.aut_h(M)
    ref = data.class_of(beta)
    stab_set = set()
    for g in autos:
        pushed = [[cohomology.mat_vec_mod(g, val, M.shape) for val in row] for row in beta.table]
        if data.class_of(cohomology.Cocycle2._trusted(M, pushed)) == ref:
            stab_set.add(tuple(tuple(row) for row in g))
    E = cohomology.build_extension(M, beta)
    T = E.group
    units = [T.index[(0, tuple(1 if r == c else 0 for r in range(M.k)))] for c in range(M.k)]
    fixing = h_fixing_automorphisms(rm, E, m)
    # the matrix whose column c is the image of the c-th unit vector
    restrictions = {tuple(zip(*(T.names[f[u]][1] for u in units))) for f in fixing}
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


@lru_cache(maxsize=None)
def power_table(N):
    """Coordinates of zeta_N^k for k = 0..N-1 in the power basis (int tuples)."""
    phi = phi_of(N)
    coeffs = cyclotomic_coeffs(N)
    assert len(coeffs) == phi + 1 and coeffs[-1] == 1
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1})
    top = [-c for c in coeffs[:phi]]
    table = []
    for k in range(phi):
        table.append(tuple(1 if i == k else 0 for i in range(phi)))
    for _ in range(phi, N):
        prev = table[-1]
        # multiply by zeta: shift, then fold the overflow through `top`
        nxt = [0] * phi
        for i in range(phi - 1):
            nxt[i + 1] += prev[i]
        ov = prev[phi - 1]
        if ov:
            for i in range(phi):
                nxt[i] += ov * top[i]
        table.append(tuple(nxt))
    return tuple(table)


def cyclotomic_mul(self, other):
    """Cyclotomic.__mul__ with exponents >= phi(N) reduced through the
    power table."""
    if not isinstance(other, Cyclotomic):
        return Cyclotomic(self.conductor, [a * Fraction(other) for a in self.coords])
    other = self._check(other)
    N = self.conductor
    table = power_table(N)
    phi = len(self.coords)
    # convolve, reducing exponents >= phi through the table
    acc = [Fraction(0)] * phi
    for i, a in enumerate(self.coords):
        if a == 0:
            continue
        for j, b in enumerate(other.coords):
            if b == 0:
                continue
            e = i + j
            c = a * b
            if e < phi:
                acc[e] += c
            else:
                row = table[e % N]
                for t, r in enumerate(row):
                    if r:
                        acc[t] += c * r
    return Cyclotomic(N, acc)


def fold(N, terms):
    """cyclotomic.fold as the sum of c times the table row of zeta_N^e."""
    table = power_table(N)
    acc = [Fraction(0)] * phi_of(N)
    for e, c in terms:
        for t, r in enumerate(table[e % N]):
            if r:
                acc[t] += c * r
    return acc


def galois(a, k):
    """The Galois automorphism zeta -> zeta^k (gcd(k, N) = 1) applied to a,
    read off the power table: with k = -1 the oracle for complex
    conjugation, which chartab reads at the inverse class."""
    N = a.conductor
    if gcd(k, N) != 1:
        raise ValueError("k = %d is not prime to the conductor %d" % (k, N))
    return Cyclotomic(N, fold(N, ((i * k, c) for i, c in enumerate(a.coords))))


def use_slow_cyclotomic(monkeypatch):
    """Route Cyclotomic products, lift and Dixon's lift in chartab through
    the power table for the rest of a test."""
    monkeypatch.setattr(Cyclotomic, "__mul__", cyclotomic_mul)
    monkeypatch.setattr(Cyclotomic, "__rmul__", cyclotomic_mul)
    monkeypatch.setattr(cyclotomic, "fold", fold)
    monkeypatch.setattr(chartab, "fold", fold)


def _poly_mul(a, b, t):
    """Product of integer coefficient lists in Z[x]/(x^t - 1)."""
    out = [0] * t
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % t] += ai * bj
    return out


def _j_parts_poly(a, t):
    """(numerator, denominator) of j/256 at x^a in Z[x]/(x^t - 1)."""
    base = [0] * t
    base[(2 * a) % t] += 1
    base[a % t] -= 1
    base[0] += 1
    num = _poly_mul(_poly_mul(base, base, t), base, t)
    lin = [0] * t
    lin[a % t] += 1
    lin[0] -= 1
    sq = [0] * t
    sq[(2 * a) % t] = 1
    den = _poly_mul(sq, _poly_mul(lin, lin, t), t)
    return num, den


def j_fixed_by(t, a, parts1=None):
    """genus1's exact test on one unit a: the cross-multiplied difference,
    computed with integer coefficients in Z[x]/(x^t - 1), must vanish at
    zeta_t (parts1, when given, is _j_parts_poly(1, t))."""
    num1_p, den1_p = parts1 or _j_parts_poly(1, t)
    num_a, den_a = _j_parts_poly(a, t)
    diff = [
        u - v
        for u, v in zip(_poly_mul(num_a, den1_p, t), _poly_mul(num1_p, den_a, t))
    ]
    return not any(cyclotomic.fold(t, enumerate(diff)))


def j_invariant_degree(t):
    """genus1.j_invariant_degree with j written as jnum_mod for the mod-q
    prefilter and j_fixed_by as the exact test on its survivors."""
    units = [a for a in range(1, t) if gcd(a, t) == 1]
    phi = len(units)
    q = cyclotomic.prime_1_mod(t, t)
    r = cyclotomic.root_of_unity_mod(q, t)
    powers = {a: pow(r, a, q) for a in range(t)}

    def jnum_mod(a):
        z = powers[a % t]
        num = pow((z * z - z + 1) % q, 3, q)
        den = (z * z) % q * pow(z - 1, 2, q) % q
        return num, den

    num1, den1 = jnum_mod(1)
    survivors = []
    for a in units:
        num_a, den_a = jnum_mod(a)
        if (num_a * den1 - num1 * den_a) % q == 0:
            survivors.append(a)
    parts1 = _j_parts_poly(1, t)
    stab = [a for a in survivors if j_fixed_by(t, a, parts1)]
    return phi // len(stab)


def refine_search(cd):
    """descent.refine_search certifying each cyclic candidate on its own
    PermGroup([rep]), never on D."""
    D = cd.D
    candidates = {}
    for rep, _ in D.conjugacy_classes():
        sub = PermGroup([rep])
        key = frozenset(g.imgs for g in sub.elements)
        candidates.setdefault(key, ("cyclic(order %d)" % sub.order, sub))
    candidates.setdefault(frozenset(g.imgs for g in D.elements), ("D", D))
    left, _, jac = tate_characters(cd)
    return [
        (label, sub) for label, sub in candidates.values() if descent._certifies(left, jac, sub)
    ]


def power_map(G, class_idx, k):
    """PermGroup.power_map as the class of rep^(k mod ord(rep)), the power
    taken on rep's cycles, for the given class of G."""
    rep, _ = G.conjugacy_classes()[class_idx]
    return G.class_index()[(rep ** (k % rep.order())).imgs]


def fixed_and_deck_group(cover):
    """(Fix(J), D) as cover.validate read them before deck maps: Fix(J) as
    the points fixed by all 2n Schreier generators u[a] g u[a^g]^-1 of J,
    and D generated by the projections of u[a] for every a in Fix(J)."""
    u = cover.transversal
    gens = (cover.x, cover.y)
    u_inv = {a: ua.inverse() for a, ua in u.items()}
    schreier = [u[a] * g * u_inv[g.imgs[a]] for a in u for g in gens]
    fixed = [p for p in range(cover.degree) if all(s.imgs[p] == p for s in schreier)]
    pos = {p: i for i, p in enumerate(fixed)}
    D = PermGroup(
        [Permutation([pos[u[a].imgs[p]] for p in fixed], zero_based=True) for a in fixed]
    )
    return fixed, D


def schreier_sims_order(gens, n):
    """permgroup._schreier_sims_order with residue(i) scanning level i
    from its first pair (a, s) every time, also after pairs that already
    sifted to the identity."""
    ident = tuple(range(n))
    base, strong, trans = [], [], []

    def add_level(h):
        base.append(next(p for p in range(n) if h[p] != p))
        strong.append([])
        trans.append(None)

    def level_orbit(i):
        s = strong[i]

        def step(pair, _, j):
            ub = _compose(pair[0], s[j])
            return ub, _inverse(ub)

        trans[i] = labels(orbit(base[i], s, lambda a, g: g[a]), (ident, ident), step)

    def sift(g, i):
        while i < len(base):
            entry = trans[i].get(g[base[i]])
            if entry is None:
                return g, i
            uinv = entry[1]
            g = tuple(uinv[j] for j in g)
            i += 1
        return g, i

    def residue(i):
        for a, (ua, _) in trans[i].items():
            for s in strong[i]:
                vinv = trans[i][s[a]][1]
                h, j = sift(tuple(vinv[s[k]] for k in ua), i + 1)
                if h != ident:
                    return h, j
        return None

    for g in gens:
        g = g.imgs
        if g == ident:
            continue
        if all(g[b] == b for b in base):
            add_level(g)
        first_moved = next(i for i, b in enumerate(base) if g[b] != b)
        for level in range(first_moved + 1):
            strong[level].append(g)
    for i in range(len(base)):
        level_orbit(i)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            add_level(h)
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            level_orbit(level)
        i = j
    return prod(len(u) for u in trans)


def resumed_schreier_sims_order(gens, n):
    """permgroup._schreier_sims_order with residue(i) resuming level i's
    scan from scan[i], the position (index of a in trans[i], index of s in
    strong[i]) of the last pair that gave a residue, reset to (0, 0) when
    level_orbit(i) rebuilds the level, and skipping the pairs that are
    edges of the level's orbit tree."""
    ident = tuple(range(n))
    base, strong, trees, trans, scan = [], [], [], [], []

    def add_level(h):
        if any(h[b] != b for b in base):
            raise InternalError("a Schreier-Sims residue moves a base point")
        base.append(next(p for p in range(n) if h[p] != p))
        strong.append([])
        trees.append(None)
        trans.append(None)
        scan.append(None)

    def level_orbit(i):
        s = strong[i]

        def step(pair, _, j):
            ub = _compose(pair[0], s[j])
            return ub, _inverse(ub)

        trees[i] = orbit(base[i], s, lambda a, g: g[a])
        trans[i] = labels(trees[i], (ident, ident), step)
        scan[i] = (0, 0)

    def sift(g, i):
        while i < len(base):
            entry = trans[i].get(g[base[i]])
            if entry is None:
                return g, i
            uinv = entry[1]
            g = tuple(uinv[j] for j in g)
            i += 1
        return g, i

    def residue(i):
        tree, t, strong_i = trees[i], trans[i], strong[i]
        start, first = scan[i]
        for k, (a, (ua, _)) in enumerate(itertools.islice(t.items(), start, None), start):
            for m in range(first, len(strong_i)):
                s = strong_i[m]
                b = s[a]
                if tree[b] == (a, m):
                    continue
                vinv = t[b][1]
                h, j = sift(tuple(vinv[s[q]] for q in ua), i + 1)
                if h != ident:
                    scan[i] = (k, m)
                    return h, j
            first = 0
        scan[i] = (len(t), 0)
        return None

    for g in gens:
        g = g.imgs
        if g == ident:
            continue
        if all(g[b] == b for b in base):
            add_level(g)
        first_moved = next(i for i, b in enumerate(base) if g[b] != b)
        for level in range(first_moved + 1):
            strong[level].append(g)
    for i in range(len(base)):
        level_orbit(i)
    i = len(base) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            add_level(h)
        for level in range(i + 1, j + 1):
            strong[level].append(h)
            level_orbit(level)
        i = j
    return prod(len(u) for u in trans)


def fold_full_width(N, terms):
    """cyclotomic.fold with the dividend filled at all N positions and
    divided by Phi_N whatever the highest exponent present."""
    coeffs = cyclotomic_coeffs(N)
    terms = [(e, c) for e, c in terms if c]
    den = lcm(*(c.denominator for _, c in terms))
    rem = [0] * N
    for e, c in terms:
        rem[e % N] += c.numerator * (den // c.denominator)
    _divide_monic(rem, coeffs)
    return [Fraction(c, den) for c in rem[: len(coeffs) - 1]]
