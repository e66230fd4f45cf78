"""The integer kernels of snf, cohomology, relmod and cyclotomic against
their slow paths.

The oracles in slow_paths.py are the versions the library replaced: the
nested-loop Smith normal form, the dense mat_vec, the column-major
congruence lattice and the solve from its basis's Smith normal form that
h2's replayed column operations replace, the extension table from the
product on module tuples, extend_automorphism factoring its system on
every call, aut_h and its bijectivity test walking the module's elements,
relmod's Schreier data from FreeWord products, the main-theorem check
from P's Cayley table, and the power table of zeta_N behind Cyclotomic
products, Dixon's lift and the Galois automorphisms. They do the same
arithmetic or count the same sets, so every result here must be
identical, not just equivalent: the SNF (diag, U, V), h2's invariants,
basis tables and class coordinates, the extension tables and the
extended maps, the relation modules' words, action matrices, cocycle
tables and main-theorem reports, the coordinates of products, powers of
zeta_N and character tables, and each character value at the inverse
class against its complex conjugate.  The one exception is the cocycle
congruences at every triple, where h2 states them at generators only:
the two build different bases of one lattice, so what must agree is the
lattice, H^2's invariants and which cocycles share a class.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import cohomology, relmod, snf
from belyilab.chartab import CharacterTable
from belyilab.cli import _parse_group
from belyilab.cohomology import (
    Cocycle2,
    FiniteHModule,
    _coboundary_system,
    _cocycle_rows,
    _congruence_lattice,
    _flatten,
    _is_bijective,
    _lattice_coordinates,
    _mat_apply,
    aut_h,
    build_extension,
    extend_automorphism,
    h2,
    stabilizer_beta,
)
from belyilab.corpus import _module_corpus, _padded_generators, _relmod_groups, _table_groups
from belyilab.cyclotomic import Cyclotomic, fold, phi_of
from belyilab.errors import PreconditionError
from belyilab.groups import preserves_products
from belyilab.permgroup import Permutation, PermGroup, cyclic_group, symmetric_group, trivial_group
from belyilab.relmod import extension_cocycle, schreier_data, verify_main_theorem
from test_cohomology import all_classes
from test_golden import CASES
from test_relabeling import conjugator, relabeled

entries = st.one_of(st.just(0), st.integers(-9, 9))
matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    )
)


@settings(max_examples=200)
@given(matrices)
def test_snf_matches_nested_loops(A):
    assert snf.smith_normal_form(A) == slow_paths.smith_normal_form_3(A)


@settings(max_examples=100)
@given(matrices, st.lists(entries, min_size=6, max_size=6))
def test_mat_vec_matches_dense(A, v):
    v = v[: len(A[0])]
    assert snf.mat_vec(A, v) == slow_paths.mat_vec(A, v)


def modules():
    """The criterion-7 corpus and two modules like the benchmark's: C8
    on Z/2 and S3 permuting the nonzero vectors of (Z/2)^2."""
    return _module_corpus() + [
        FiniteHModule.trivial(cyclic_group(8), (2,)),
        FiniteHModule.from_generator_matrices(
            symmetric_group(3), (2, 2), [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]
        ),
    ]


MODULES = modules()
IDS = ["|H|=%d,%s,%d" % (M.H.order, M.shape, i) for i, M in enumerate(MODULES)]


def random_cocycle(M, data, rng):
    """A random combination of basis cocycles plus the coboundary of a
    random normalized 1-cochain, checked as a table from outside."""
    n, t = M.T.n, M.T.table
    c = [M.zero()] + [M.reduce([rng.randrange(m) for m in M.shape]) for _ in range(n - 1)]
    dc = [[M.sub(M.add(M.apply(a, c[b]), c[a]), c[t[a][b]]) for b in range(n)] for a in range(n)]
    beta = Cocycle2(M, dc)
    for b in data.basis:
        beta = beta + b.scale(rng.randrange(5))
    return Cocycle2(M, beta.table)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_congruence_lattice_is_the_transposed_columns(M):
    n2 = (M.T.n - 1) ** 2 * M.k
    rows = _cocycle_rows(M)
    cols = slow_paths.congruence_lattice_columns(n2, rows)
    B, _ = _congruence_lattice(n2, rows)
    assert B == [[col[i] for col in cols] for i in range(n2)]


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_replay_matches_lattice_snf_solve(M):
    # B^-1 x by undoing the lattice's column operations against the
    # solve from B's Smith normal form: on every coboundary column, random
    # cocycles, unit vectors and random vectors, which are mostly off the
    # lattice and must give None
    rng = random.Random(M.T.n * 100 + M.size + 1)
    n2 = (M.T.n - 1) ** 2 * M.k
    B, ops = _congruence_lattice(n2, _cocycle_rows(M))
    B_snf = slow_paths.smith_normal_form_3(B)
    D = _coboundary_system(M)
    data = h2(M)
    vectors = [list(x) for x in zip(*D)]
    vectors += [_flatten(random_cocycle(M, data, rng).table) for _ in range(8)]
    vectors += [[int(i == j) for j in range(n2)] for i in range(n2)]
    vectors += [[rng.randrange(-4, 5) for _ in range(n2)] for _ in range(8)]
    ys = []
    for x in vectors:
        y = _lattice_coordinates(ops, [[v] for v in x])
        y = None if y is None else [v for v, in y]
        assert y == slow_paths.solve_from_snf(B_snf, x)
        ys.append(y)
    # B is the identity when no congruence cuts the lattice down
    assert None in ys or B == snf.identity_matrix(n2)
    # all coboundary columns at once, as h2 replays them
    assert _lattice_coordinates(ops, D) == [list(r) for r in zip(*ys[: len(D[0])])]
    assert _lattice_coordinates(ops, B) == snf.identity_matrix(n2)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_snf_matches_nested_loops_on_h2_systems(M):
    # the sparse systems h2 and extend_automorphism factor, up to 50 x 60,
    # with long runs of unit pivots: B, Ymat = B^-1 [D1 | diag(moduli)]
    # and [D1 | diag(moduli)] itself
    n2 = (M.T.n - 1) ** 2 * M.k
    B, ops = _congruence_lattice(n2, _cocycle_rows(M))
    D = _coboundary_system(M)
    for A in (B, _lattice_coordinates(ops, D), D):
        assert snf.smith_normal_form(A) == slow_paths.smith_normal_form_3(A)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_h2_matches_slow_kernels(M, monkeypatch):
    rng = random.Random(M.T.n * 100 + M.size)
    fast = h2(M)
    cocycles = [random_cocycle(M, fast, rng) for _ in range(8)]
    fast_classes = [fast.class_of(beta) for beta in cocycles]
    slow_paths.use_slow_kernels(monkeypatch)
    slow = h2(M)
    assert fast.invariants == slow.invariants
    assert [b.table for b in fast.basis] == [b.table for b in slow.basis]
    assert fast_classes == [slow.class_of(beta) for beta in cocycles]


GOLDEN_RELMOD = [c for c in CASES if c["argv"][1] == "relmod" and "--mod" in c["argv"]]


def golden_cocycle(case):
    """The extension cocycle on R-bar/m whose class a golden relmod case
    prints, built as the relmod command builds it."""
    argv = case["argv"]
    rank, m = (int(argv[argv.index(flag) + 1]) for flag in ("--rank", "--mod"))
    H = _parse_group(case["inputs"]["group"])
    rm = schreier_data(H, list(H.generators) + [H.identity()] * (rank - len(H.generators)))
    return extension_cocycle(rm, m)


def is_coboundary(M, table):
    """Whether a normalized cochain table is dc for a 1-cochain c, solved
    on the scaled coboundary map alone."""
    L, factored = M.coboundary_snf
    rhs = [L // M.shape[v % M.k] * x for v, x in enumerate(_flatten(table))]
    return snf.solve_mod_from_snf(factored, rhs, L) is not None


def check_generator_rows(M, monkeypatch, rng, extra=()):
    """The cocycle lattice and H^2 of M from the generator congruences
    against those from every triple."""
    n2 = (M.T.n - 1) ** 2 * M.k
    rows, oracle = _cocycle_rows(M), slow_paths.cocycle_rows_all_triples(M)
    assert len(rows) <= len(oracle)
    B, ops = _congruence_lattice(n2, rows)
    _, oracle_ops = _congruence_lattice(n2, oracle)
    # B's columns meet every all-triples congruence, and their lattice has
    # the oracle's index in Z^n2 (det B, the product of the scalings), so
    # the two lattices are equal
    for row, m in oracle:
        for j in range(n2):
            assert sum(coeff * B[v][j] for v, coeff in row.items()) % m == 0
    assert prod(t for _, j, t in ops if j is None) == prod(
        t for _, j, t in oracle_ops if j is None
    )
    fast = h2(M)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_cocycle_rows", slow_paths.cocycle_rows_all_triples)
        slow = h2(M)
    assert fast.invariants == slow.invariants
    # random cocycles over either basis, few enough classes to collide:
    # two share a class exactly when their difference is a coboundary
    cocycles = list(extra)
    cocycles += [random_cocycle(M, data, rng) for data in (fast, slow) for _ in range(6)]
    classes = [fast.class_of(beta) for beta in cocycles]
    outcomes = set()
    for (a, ca), (b, cb) in itertools.combinations(zip(cocycles, classes), 2):
        diff = [[M.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a.table, b.table)]
        assert (ca == cb) == is_coboundary(M, diff)
        outcomes.add(ca == cb)
    assert outcomes == ({True, False} if fast.order > 1 else {True})


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_generator_rows_match_all_triples(M, monkeypatch):
    check_generator_rows(M, monkeypatch, random.Random(M.T.n * 100 + M.size + 2))


@pytest.mark.parametrize("case", GOLDEN_RELMOD, ids=[c["name"] for c in GOLDEN_RELMOD])
def test_generator_rows_match_all_triples_on_golden_relmod(case, monkeypatch):
    # the relation modules whose cocycle class the golden file holds
    assert '"cocycle_class"' in case["stdout"]
    beta = golden_cocycle(case)
    check_generator_rows(beta.module, monkeypatch, random.Random(len(case["stdout"])), [beta])


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_extensions_match_slow_paths(M):
    autos = aut_h(M)
    for beta in all_classes(M, h2(M)):
        E = build_extension(M, beta)
        slow = slow_paths.extension_table(E)
        assert E.group.table == slow.table and E.group.names == slow.names
        for gamma in autos:
            assert extend_automorphism(gamma, E) == slow_paths.extend_automorphism(gamma, E)


def test_coboundary_snf_is_cached_per_module():
    M = FiniteHModule.trivial(cyclic_group(3), (3,))
    assert M.coboundary_snf is M.coboundary_snf
    assert FiniteHModule.trivial(cyclic_group(3), (3,)).coboundary_snf is not M.coboundary_snf


def relation_modules():
    """(H, d) for the corpus relation-module groups and one relabelled
    copy of each nontrivial one, d = 1..3 where H has at most d
    generators."""
    rng = random.Random(7)
    groups = _relmod_groups()
    groups += [relabeled(H, conjugator(rng, H.degree))[0] for H in groups if H.order > 1]
    return [
        (H, d) for H in groups for d in (1, 2, 3) if _padded_generators(H, d) is not None
    ]


RELATION_MODULES = relation_modules()
RM_IDS = ["|H|=%d,d=%d,%d" % (H.order, d, i) for i, (H, d) in enumerate(RELATION_MODULES)]


def oracle_finishes(rm, m):
    """Whether the P-table oracle's fiber search, |M|^d candidate maps
    checked on |P| = |H| |M| elements, stays within a few seconds."""
    size = m**rm.rank
    return size**rm.d * rm.H.order * size <= 4 * 10**6


@pytest.mark.parametrize("H, d", RELATION_MODULES, ids=RM_IDS)
def test_relation_module_matches_free_words(H, d):
    rm = schreier_data(H, _padded_generators(H, d))
    slow = slow_paths.FreeWordSchreier(rm.T, rm.images)
    assert rm.transversal == [w.letters for w in slow.transversal]
    assert rm.free_gens == [w.letters for w in slow.free_gens]
    assert rm.gen_index == slow.gen_index
    assert rm.action == slow.action
    for m in (2, 3):
        try:
            beta = extension_cocycle(rm, m)
        except PreconditionError:
            # |H| * m^rank is over the Cayley-table limit for both
            with pytest.raises(PreconditionError):
                slow_paths.extension_cocycle(rm, m)
            continue
        assert beta.table == slow.cocycle_table(m)
        if oracle_finishes(rm, m):
            # the report from the derivation image against the one from
            # P's Cayley table, its fiber search and FreeWord products
            assert verify_main_theorem(rm, m) == slow_paths.verify_main_theorem(rm, m)


GOLDEN_VERIFY = [case for case in CASES if case["name"].endswith("/verify_main")]


@pytest.mark.parametrize("record", GOLDEN_VERIFY, ids=[r["name"] for r in GOLDEN_VERIFY])
def test_golden_verify_main_matches_the_p_table(record):
    # the relmod command's images: the group's generators padded with
    # identities up to the rank.  s3_rank2 (|P| = 768) is past the few
    # seconds the oracle is given; z3_rank2_m3 (|P| = 243) is within them
    flags = record["argv"]
    rank, m = int(flags[flags.index("--rank") + 1]), int(flags[flags.index("--mod") + 1])
    H = _parse_group(record["inputs"]["group"])
    rm = schreier_data(H, list(H.generators) + [H.identity()] * (rank - len(H.generators)))
    golden = json.loads(record["stdout"])["verify_main"]
    assert golden == verify_main_theorem(rm, m)
    if oracle_finishes(rm, m):
        assert golden == slow_paths.verify_main_theorem(rm, m)


def mixed_moduli():
    """Modules whose coordinates have different moduli: trivial Z/2, Z/3
    and Z/4 on (2,4), (4,2), (2,2,4) and (3,9) with |H|*|M| <= 200, and Z/2
    acting by matrices that mix or scale the coordinates."""
    out = [
        FiniteHModule.trivial(cyclic_group(n), shape)
        for n in (2, 3, 4)
        for shape in ((2, 4), (4, 2), (2, 2, 4), (3, 9))
        if n * prod(shape) <= 200
    ]
    actions = (((2, 4), [[1, 0], [2, 1]]), ((4, 2), [[1, 2], [0, 1]]), ((4, 4), [[3, 0], [0, 1]]))
    out += [
        FiniteHModule.from_generator_matrices(cyclic_group(2), shape, [A]) for shape, A in actions
    ]
    return out


def relation_module_quotients():
    """R-bar/m for the relation modules above and m = 2, 3, where the
    enumeration tries m^(rank^2) <= 2^16 matrices."""
    out = []
    for H, d in RELATION_MODULES:
        rm = schreier_data(H, _padded_generators(H, d))
        for m in (2, 3):
            if m ** (rm.rank**2) <= 2**16:
                out.append(relmod.reduce_mod(rm, m))
    return out


MIXED = mixed_moduli()
MIXED_IDS = ["|H|=%d,%s,%d" % (M.H.order, M.shape, i) for i, M in enumerate(MIXED)]
QUOTIENTS = relation_module_quotients()
QUOTIENT_IDS = ["|H|=%d,%s,%d" % (M.H.order, M.shape, i) for i, M in enumerate(QUOTIENTS)]


@pytest.mark.parametrize(
    "M", MODULES + MIXED + QUOTIENTS, ids=["module" + i for i in IDS + MIXED_IDS + QUOTIENT_IDS]
)
def test_aut_h_matches_enumeration(M):
    # the units of End_H(M) from its lattice against every matrix tried,
    # as the same list in the same order
    assert aut_h(M) == slow_paths.aut_h(M)


@pytest.mark.parametrize(
    "M", MODULES + MIXED + QUOTIENTS, ids=["module" + i for i in IDS + MIXED_IDS + QUOTIENT_IDS]
)
def test_bijectivity_from_the_snf_matches_the_element_walk(M):
    # random well-defined matrices, mostly singular, and unipotent ones,
    # 1 plus a random strictly upper triangular part, which are bijective
    rng = random.Random(M.T.n * 1000 + M.size)
    k, shape = M.k, M.shape
    steps = [[shape[r] // gcd(shape[r], shape[c]) for c in range(k)] for r in range(k)]

    def entry(r, c):
        return steps[r][c] * rng.randrange(shape[r])

    for _ in range(40):
        mat = tuple(tuple(entry(r, c) for c in range(k)) for r in range(k))
        unipotent = tuple(
            tuple(int(r == c) if c <= r else entry(r, c) for c in range(k)) for r in range(k)
        )
        assert _is_bijective(M, mat) == slow_paths.is_bijective(M, mat)
        assert _is_bijective(M, unipotent) and slow_paths.is_bijective(M, unipotent)


def test_aut_h_refuses_a_large_endomorphism_ring_at_once():
    # trivial H on (Z/2)^5: End_H holds all 2^25 matrices
    M = FiniteHModule.trivial(trivial_group(1), (2,) * 5)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="too large for automorphism enumeration"):
        aut_h(M)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("M", MIXED, ids=MIXED_IDS)
def test_extend_automorphism_on_mixed_moduli(M, monkeypatch):
    # the cochain solved modulo the lcm of the moduli may differ from the
    # integer solve's by a 1-cocycle, so the maps are compared as
    # automorphisms: None exactly when the oracle gives None and exactly
    # off the class stabilizer, and otherwise an automorphism of E fixing
    # H and restricting to gamma.  The oracle's factorization depends only
    # on the module, so it is made once per matrix.
    factored = {}

    def smith_normal_form_3(A, snf=slow_paths.smith_normal_form_3):
        key = tuple(map(tuple, A))
        if key not in factored:
            factored[key] = snf(A)
        return factored[key]

    monkeypatch.setattr(slow_paths, "smith_normal_form_3", smith_normal_form_3)
    data = h2(M)
    autos = aut_h(M)
    for beta in all_classes(M, data):
        E = build_extension(M, beta)
        T, pos = E.group, {e: i for i, e in enumerate(E.elements)}
        stab = stabilizer_beta(autos, beta, data)
        for gamma in autos:
            phi = extend_automorphism(gamma, E)
            slow = slow_paths.extend_automorphism(gamma, E)
            assert (phi is None) == (slow is None) == (gamma not in stab)
            if phi is None:
                continue
            f = [pos[phi[e]] for e in E.elements]
            assert len(set(f)) == E.order and preserves_products(f, T, T)
            assert all(phi[e][0] == e[0] for e in E.elements)
            for m in M.elements():
                assert phi[E.embed(m)] == E.embed(_mat_apply(gamma, m, M.shape))


CONDUCTORS = list(range(1, 61)) + [330, 546]


def sparse_element(rng, N, nonzero):
    coords = [0] * phi_of(N)
    for _ in range(nonzero):
        coords[rng.randrange(len(coords))] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Cyclotomic(N, coords)


@pytest.mark.parametrize("N", CONDUCTORS)
def test_products_match_power_table(N):
    rng = random.Random(N)
    for _ in range(6):
        a = sparse_element(rng, N, rng.randint(1, 4))
        b = sparse_element(rng, N, rng.randint(1, 4))
        assert (a * b).coords == slow_paths.cyclotomic_mul(a, b).coords
    if N <= 60:
        a, b = sparse_element(rng, N, phi_of(N)), sparse_element(rng, N, phi_of(N))
        assert (a * b).coords == slow_paths.cyclotomic_mul(a, b).coords


@pytest.mark.parametrize("N", CONDUCTORS)
def test_roots_of_unity_match_power_table(N):
    table = slow_paths.power_table(N)
    for k in range(-N, 2 * N):
        assert Cyclotomic(N, fold(N, [(k, 1)])).coords == table[k % N]


def psl2(q):
    """PSL(2, q), q prime, on the projective line {0..q-1, oo = q}."""
    t = [(x + 1) % q for x in range(q)] + [q]
    s = [q] + [(-pow(x, q - 2, q)) % q for x in range(1, q)] + [0]
    return PermGroup([Permutation(t, zero_based=True), Permutation(s, zero_based=True)])


def direct_product(m, n):
    """C_m x C_n on m + n points."""
    a = [(x + 1) % m for x in range(m)] + list(range(m, m + n))
    b = list(range(m)) + [m + (x + 1) % n for x in range(n)]
    return PermGroup([Permutation(a, zero_based=True), Permutation(b, zero_based=True)])


DIXON_GROUPS = {
    "PSL(2,7)": lambda: psl2(7),
    "PSL(2,11)": lambda: psl2(11),
    "S5": lambda: symmetric_group(5),
    "C16": lambda: cyclic_group(16),
    "C2xC8": lambda: direct_product(2, 8),
}


@pytest.mark.parametrize("name", sorted(DIXON_GROUPS))
def test_dixon_tables_match_power_table(name, monkeypatch):
    fast = CharacterTable(DIXON_GROUPS[name]())
    slow_paths.use_slow_cyclotomic(monkeypatch)
    slow = CharacterTable(DIXON_GROUPS[name]())
    assert fast.exponent == slow.exponent and fast.degrees == slow.degrees
    assert [[v.coords for v in row] for row in fast.rows] == [
        [v.coords for v in row] for row in slow.rows
    ]


CONJUGATION_GROUPS = {"criterion9-%d" % i: G for i, G in enumerate(_table_groups())}
CONJUGATION_GROUPS.update((name, make()) for name, make in DIXON_GROUPS.items())


@pytest.mark.parametrize("name", sorted(CONJUGATION_GROUPS))
def test_conjugation_is_the_inverse_class(name):
    # the value at the inverse class is the Galois conjugate zeta -> zeta^-1
    tab = CharacterTable(CONJUGATION_GROUPS[name])
    N = tab.exponent
    for row in tab.rows:
        for j, inv in enumerate(tab.inverse_class):
            assert row[inv] == slow_paths.galois(row[j], N - 1)
