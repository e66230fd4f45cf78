"""The integer kernels of snf, cohomology, relmod and cyclotomic against
their slow paths.

The oracles in slow_paths.py are the versions the library replaced: the
nested-loop Smith normal form, the dense mat_vec, the column-major
congruence lattice and the solve from its basis's Smith normal form that
h2's replayed column operations replace, h2 on the 2-cocycle lattice,
the extension table from the product on module tuples,
extend_automorphism factoring its system on every call, aut_h and its
bijectivity test walking the module's elements, relmod's Schreier data
from FreeWord products, the derivation span walked element by element,
the main-theorem check from P's Cayley table,
the power table of zeta_N behind Cyclotomic products, Dixon's lift
and the Galois automorphisms, the power map from powering each class
representative, and a cover's Fix(J) from the Schreier generators of J
with its deck group D generated by every transversal element over
Fix(J). They do the same arithmetic or count the
same sets, so every result here must be identical, not just equivalent:
the SNF (diag, U, V), h2's invariants, basis tables and class
coordinates under the slow kernels, the extension tables and the
extended maps, the relation modules' words, action matrices, cocycle
tables, |F| and restriction sets and main-theorem reports, the
coordinates of products, powers of zeta_N and character tables, each
character value at the inverse class against its complex conjugate, and
the class of every power of every class representative.  The exception is H^2 itself: h2
works on Hom_H(R-bar, M) and the cochain oracle on 2-cocycles, and the
oracle's congruences at generators and at every triple build different
bases of one lattice.  There what must agree is the lattice, H^2's
invariants, and class maps that differ by an automorphism of H^2, so
that two cocycles share a class exactly when they are cohomologous.
"""

import itertools
import json
import random
import sys
import time
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import cohomology, relmod, snf
from belyilab.chartab import CharacterTable
from belyilab.cli import _parse_group
from belyilab.cohomology import (
    Cocycle2,
    FiniteHModule,
    H2Data,
    _equivariance_rows,
    _flatten,
    _is_bijective,
    _relation_system,
    _restriction,
    aut_h,
    build_extension,
    extend_automorphism,
    h2,
    stabilizer_beta,
)
from belyilab.corpus import (
    _module_corpus,
    _padded_generators,
    _relmod_groups,
    _table_groups,
    random_covers,
)
from belyilab.cover import BelyiCover, validate
from belyilab.cyclotomic import Cyclotomic, fold, phi_of
from belyilab.errors import PreconditionError
from belyilab.groups import SchreierTree, preserves_products
from belyilab.permgroup import (
    Permutation,
    PermGroup,
    alternating_group,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from belyilab.relmod import extension_cocycle, schreier_data, verify_main_theorem
from belyilab.snf import congruence_lattice, lattice_coordinates, mat_vec_mod
from test_chartab import quaternion_group
from test_cohomology import all_classes
from test_descent import relabelled
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


def relation_system(M):
    """(presentation, unknowns, equivariance congruences, [D | diag(moduli)])
    as h2 builds them."""
    pres = SchreierTree(M.T.n, [[row[g] for row in M.T.table] for g in M.T.gens])
    rows = _equivariance_rows(M, {g: pres.conjugation(g) for g in M.T.gens})
    return pres, pres.rank * M.k, rows, _relation_system(M, pres)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_congruence_lattice_is_the_transposed_columns(M):
    # on h2's equivariance congruences and on the cochain oracle's
    _, dim, rows, _ = relation_system(M)
    n2 = (M.T.n - 1) ** 2 * M.k
    for n, congruences in ((dim, rows), (n2, slow_paths.cocycle_rows(M))):
        cols = slow_paths.congruence_lattice_columns(n, congruences)
        B, _ = congruence_lattice(n, congruences)
        assert B == [[col[i] for col in cols] for i in range(n)]


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_replay_matches_lattice_snf_solve(M):
    # B^-1 x by undoing the lattice's column operations against the
    # solve from B's Smith normal form: on every coboundary column, the
    # homomorphisms of random cocycles, unit vectors and random vectors,
    # which are mostly off the lattice and must give None
    rng = random.Random(M.T.n * 100 + M.size + 1)
    pres, dim, rows, D = relation_system(M)
    B, ops = congruence_lattice(dim, rows)
    B_snf = slow_paths.smith_normal_form_3(B)
    data = h2(M)
    vectors = [list(x) for x in zip(*D)]
    vectors += [_restriction(M, pres, random_cocycle(M, data, rng).table) for _ in range(8)]
    vectors += [[int(i == j) for j in range(dim)] for i in range(dim)]
    vectors += [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(8)]
    ys = []
    for x in vectors:
        y = lattice_coordinates(ops, [[v] for v in x])
        y = None if y is None else [v for v, in y]
        assert y == slow_paths.solve_from_snf(B_snf, x)
        ys.append(y)
    # B is the identity when no congruence cuts the lattice down
    assert None in ys or B == snf.identity_matrix(dim)
    # all coboundary columns at once, as h2 replays them
    assert lattice_coordinates(ops, D) == [list(r) for r in zip(*ys[: len(D[0])])]
    assert lattice_coordinates(ops, B) == snf.identity_matrix(dim)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_snf_matches_nested_loops_on_h2_systems(M):
    # the sparse systems h2 factors, with long runs of unit pivots: B,
    # Ymat = B^-1 [D | diag(moduli)] and [D | diag(moduli)] itself
    _, dim, rows, D = relation_system(M)
    B, ops = congruence_lattice(dim, rows)
    for A in (B, lattice_coordinates(ops, D), D):
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


def cochain_dimension(case):
    """n2 = (|H|-1)^2 * rank for the module R-bar/m of a golden relmod case."""
    out = json.loads(case["stdout"])
    return (out["order_H"] - 1) ** 2 * out["rank"]


GOLDEN_RELMOD = [c for c in CASES if c["argv"][1] == "relmod" and "--mod" in c["argv"]]
# the cases whose 2-cochain lattice the oracle factors within seconds, at
# every triple too, and the rest (Q8 at rank 2, n2 = 441)
WITHIN_LIMIT = [c for c in GOLDEN_RELMOD if cochain_dimension(c) <= cohomology._LATTICE_LIMIT]
PAST_LIMIT = [c for c in GOLDEN_RELMOD if c not in WITHIN_LIMIT]


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


def check_against_cochains(M, rng, extra=(), slow=None):
    """h2 against the cochain oracle slow (slow_paths.h2 unless given):
    equal invariants, and class maps that differ by an automorphism of
    the sum of the Z/d_i, so that two cocycles share a class exactly when
    their difference is a coboundary."""
    fast = h2(M)
    slow = slow or slow_paths.h2(M)
    assert fast.invariants == slow.invariants
    # phi sends the oracle's unit classes to h2's classes of its basis;
    # every cocycle's class must be phi of its oracle class
    phi = [fast.class_of(b) for b in slow.basis]

    def mapped(coords):
        return tuple(
            sum(x * p[i] for x, p in zip(coords, phi)) % d for i, d in enumerate(fast.invariants)
        )

    # phi is onto, so it is an automorphism: h2's basis classes are hit
    if slow.order <= 4096:
        image = {mapped(c) for c in itertools.product(*map(range, slow.invariants))}
        assert len(image) == slow.order
    # random cocycles over either basis, few enough classes to collide:
    # two share a class exactly when their difference is a coboundary
    cocycles = list(extra)
    cocycles += [random_cocycle(M, data, rng) for data in (fast, slow) for _ in range(6)]
    # and, however many classes there are, one cohomologous to the first
    # and one a basis class away from it
    cocycles.append(cocycles[0] + random_cocycle(M, H2Data(M, [], [], None), rng))
    cocycles += [cocycles[0] + b for b in fast.basis[:1]]
    classes = []
    for beta in cocycles:
        classes.append(fast.class_of(beta))
        assert classes[-1] == mapped(slow.class_of(beta))
    outcomes = set()
    for (a, ca), (b, cb) in itertools.combinations(zip(cocycles, classes), 2):
        diff = [[M.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a.table, b.table)]
        assert (ca == cb) == is_coboundary(M, diff)
        outcomes.add(ca == cb)
    assert outcomes == ({True, False} if fast.order > 1 else {True})


def check_generator_rows(M, rng, extra=()):
    """The cochain oracle's lattice from the generator congruences against
    the one from every triple, and h2 against the oracle on either."""
    n2 = (M.T.n - 1) ** 2 * M.k
    rows, oracle = slow_paths.cocycle_rows(M), slow_paths.cocycle_rows_all_triples(M)
    assert len(rows) <= len(oracle)
    B, ops = congruence_lattice(n2, rows)
    _, oracle_ops = congruence_lattice(n2, oracle)
    # B's columns meet every all-triples congruence, and their lattice has
    # the oracle's index in Z^n2 (det B, the product of the scalings), so
    # the two lattices are equal
    for row, m in oracle:
        for j in range(n2):
            assert sum(coeff * B[v][j] for v, coeff in row.items()) % m == 0
    assert prod(t for _, j, t in ops if j is None) == prod(
        t for _, j, t in oracle_ops if j is None
    )
    slow = slow_paths.h2(M, slow_paths.cocycle_rows_all_triples)
    assert slow.invariants == slow_paths.h2(M).invariants
    check_against_cochains(M, rng, extra, slow)


@pytest.mark.parametrize("M", MODULES, ids=IDS)
def test_generator_rows_match_all_triples(M):
    check_generator_rows(M, random.Random(M.T.n * 100 + M.size + 2))


@pytest.mark.parametrize("case", WITHIN_LIMIT, ids=[c["name"] for c in WITHIN_LIMIT])
def test_generator_rows_match_all_triples_on_golden_relmod(case):
    # the relation modules whose cocycle class the golden file holds
    assert '"cocycle_class"' in case["stdout"]
    beta = golden_cocycle(case)
    check_generator_rows(beta.module, random.Random(len(case["stdout"])), [beta])


@pytest.mark.parametrize("case", PAST_LIMIT, ids=[c["name"] for c in PAST_LIMIT])
def test_h2_matches_the_cochain_oracle_past_the_limit(case, monkeypatch):
    # the golden relation modules past the 2-cochain limit, against the
    # oracle from the generator congruences only; is_coboundary factors
    # the scaled D1 (441 x 63 for Q8, 0.03 s) past the limit that keeps
    # extend_automorphism's inputs small
    monkeypatch.setattr(cohomology, "_LATTICE_LIMIT", cochain_dimension(case))
    assert '"cocycle_class"' in case["stdout"]
    beta = golden_cocycle(case)
    check_against_cochains(beta.module, random.Random(len(case["stdout"])), [beta])


def algebra_modules():
    """The 17 modules of the algebra benchmark's module ops
    (bench/wl_algebra.py), on their groups as listed there."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import wl_algebra
    finally:
        sys.path.pop(0)
    return [
        FiniteHModule.from_generator_matrices(
            PermGroup([Permutation(g, zero_based=True) for g in gens]), shape, mats
        )
        for gens, shape, mats in wl_algebra.MODULES
    ]


def relabeled_modules(modules):
    """Each module on its group conjugated by a random permutation, the
    generators sent to the same matrices: other positions, other T.gens
    and so another presentation for h2."""
    rng = random.Random(11)
    out = []
    for M in modules:
        H2, _ = relabeled(M.H, conjugator(rng, M.H.degree))
        gen_mats = [M.action[M.H.elements.index(g)] for g in M.H.generators]
        out.append(FiniteHModule.from_generator_matrices(H2, M.shape, gen_mats))
    return out


ALGEBRA = algebra_modules()
ORACLE_MODULES = ALGEBRA + relabeled_modules(MODULES + ALGEBRA)
ORACLE_IDS = ["algebra%d" % i for i in range(len(ALGEBRA))]
ORACLE_IDS += ["relabeled%d" % i for i in range(len(ORACLE_MODULES) - len(ALGEBRA))]


@pytest.mark.parametrize("M", ORACLE_MODULES, ids=ORACLE_IDS)
def test_h2_matches_the_cochain_oracle(M):
    assert len(ALGEBRA) == 17
    check_against_cochains(M, random.Random(M.T.n * 100 + M.size + 3))


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


def share_aut_h(monkeypatch):
    """Compute aut_h once per module for both sides of a main-theorem
    comparison: the oracle takes Aut_H(M) from the library (aut_h's own
    oracle is slow_paths.aut_h), so its call would repeat the library's."""
    found = {}

    def cached(M):
        key = (tuple(M.T.names), M.shape, tuple(M.action))
        if key not in found:
            found[key] = aut_h(M)
        return found[key]

    monkeypatch.setattr(cohomology, "aut_h", cached)
    monkeypatch.setattr(relmod, "aut_h", cached)


@pytest.mark.parametrize("H, d", RELATION_MODULES, ids=RM_IDS)
def test_relation_module_matches_free_words(H, d, monkeypatch):
    share_aut_h(monkeypatch)
    rm = schreier_data(H, _padded_generators(H, d))
    slow = slow_paths.FreeWordSchreier(rm.H, slow_paths.image_positions(rm))
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


@pytest.mark.parametrize("H, d", RELATION_MODULES, ids=RM_IDS)
def test_derivation_span_matches_the_walk(H, d):
    # |F| and the matrices gamma with gamma - 1 in F, read off the Smith
    # form of F's generators, against F walked element by element.  The
    # candidates are 1 + x for 200 sampled x in F (all of F when smaller)
    # and 50 random matrices: membership does not depend on gamma being a
    # unit, and aut_h would cost seconds here
    rng = random.Random(d)
    rm = schreier_data(H, _padded_generators(H, d))
    for m in (2, 3):
        if m ** (d * rm.rank) > 2**18:
            continue  # |F| <= m^(d * rank) may be too many points to walk
        try:
            M = relmod.reduce_mod(rm, m)
        except PreconditionError:
            continue  # |H| * m^rank is over the Cayley-table limit
        walk = slow_paths.derivation_span(rm, m)
        one = [int(r == c) for r in range(rm.rank) for c in range(rm.rank)]
        sample = rng.sample(sorted(walk), min(200, len(walk)))
        shifted = {tuple((a + b) % m for a, b in zip(x, one)) for x in sample}
        noise = [tuple(rng.randrange(m) for _ in one) for _ in range(50)]
        expect = shifted | {v for v in noise if tuple((a - b) % m for a, b in zip(v, one)) in walk}
        candidates = [tuple(zip(*[iter(v)] * rm.rank)) for v in sorted(shifted) + noise]
        assert relmod._restrictions(rm, m, M, candidates) == (len(walk), expect)


GOLDEN_VERIFY = [case for case in CASES if case["name"].endswith("/verify_main")]


@pytest.mark.parametrize("record", GOLDEN_VERIFY, ids=[r["name"] for r in GOLDEN_VERIFY])
def test_golden_verify_main_matches_the_p_table(record, monkeypatch):
    share_aut_h(monkeypatch)
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
    and Z/4 on (2,4), (4,2), (2,2,4) and (3,9) with |H|*|M| <= 200, Z/2
    acting by matrices that mix or scale the coordinates, and composite
    moduli, where two primes meet in one coordinate or across two: trivial
    Z/2 and Z/3 on (6,), (2,6), (2,3), (12,) and (4,6)."""
    out = [
        FiniteHModule.trivial(cyclic_group(n), shape)
        for n in (2, 3, 4)
        for shape in ((2, 4), (4, 2), (2, 2, 4), (3, 9))
        if n * prod(shape) <= 200
    ]
    actions = (
        ((2, 4), [[1, 0], [2, 1]]),
        ((4, 2), [[1, 2], [0, 1]]),
        ((4, 4), [[3, 0], [0, 1]]),
        ((6,), [[5]]),
        ((2, 6), [[1, 3], [0, 5]]),
    )
    out += [
        FiniteHModule.from_generator_matrices(cyclic_group(2), shape, [A]) for shape, A in actions
    ]
    out += [
        FiniteHModule.trivial(cyclic_group(n), shape)
        for n in (2, 3)
        for shape in ((6,), (2, 6), (2, 3), (12,), (4, 6))
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


@pytest.mark.parametrize("M", MIXED + QUOTIENTS, ids=MIXED_IDS + QUOTIENT_IDS)
def test_h2_matches_the_cochain_oracle_on_mixed_moduli_and_quotients(M):
    # coordinates of different moduli, where the equivariance congruences
    # mix unknowns taken modulo different m_s, and the relation modules
    # R-bar/m themselves
    check_against_cochains(M, random.Random(M.T.n * 100 + M.size + 4))


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
def test_bijectivity_from_the_kernel_index_matches_the_element_walk(M):
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
                assert phi[E.embed(m)] == E.embed(mat_vec_mod(gamma, m, M.shape))


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


def dihedral_group(n):
    """D_n, the symmetries of a regular n-gon, on its n vertices."""
    r = [(x + 1) % n for x in range(n)]
    s = [(-x) % n for x in range(n)]
    return PermGroup([Permutation(r, zero_based=True), Permutation(s, zero_based=True)])


POWER_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "S5": lambda: symmetric_group(5),
    "PSL(2,7)": lambda: psl2(7),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
    "C2xC8": lambda: direct_product(2, 8),
}


@pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabelled"])
@pytest.mark.parametrize("name", sorted(POWER_GROUPS))
def test_power_table_matches_powering(name, relabel):
    G = POWER_GROUPS[name]()
    if relabel:
        G, _ = relabeled(G, conjugator(random.Random(name), G.degree))
    for ci, (rep, _) in enumerate(G.conjugacy_classes()):
        m = rep.order()
        assert len(G.power_table[ci]) == m
        for k in range(-2 * m, 2 * m + 1):
            assert G.power_map(ci, k) == slow_paths.power_map(G, ci, k)


def coset_cover(G, K):
    """The cover given by G's two generators acting on the cosets of K."""
    _, _, project = G.coset_action(K)
    return BelyiCover(project(G.generators[0]), project(G.generators[1]))


def closure_covers():
    golden = {}
    for case in CASES:
        data = case["inputs"].get("cover")
        if data is not None:
            golden.setdefault(case["name"].split("/")[0], BelyiCover.from_json(data))
    covers = {"criterion10-%03d" % i: c for i, c in enumerate(random_covers())}
    for name, cover in golden.items():
        covers["golden-" + name] = cover
        covers["golden-%s-relabelled" % name] = relabelled(cover, random.Random(name))
    regular = {
        "S3": symmetric_group(3),
        "D4": dihedral_group(4),
        "Q8": quaternion_group(),
        "A4": alternating_group(4),
        "S4": symmetric_group(4),
        "A5": alternating_group(5),
    }
    for name, G in regular.items():
        covers["regular-" + name] = BelyiCover.regular(*G.generators)
    # imprimitive covers with D = N_G(K)/K nontrivial but Fix(J) short of
    # all points: S4 on the cosets of <(1 2)(3 4)> (D of order 4) and of
    # <(1 2)> (order 2), A5 on those of Z/5 and Z/3 (order 2 each)
    S4, A5 = symmetric_group(4), alternating_group(5)
    perm = Permutation.from_cycles
    for name, G, K in (
        ("S4/V", S4, [perm(4, [(1, 2), (3, 4)])]),
        ("S4/C2", S4, [perm(4, [(1, 2)])]),
        ("A5/C5", A5, [perm(5, [(1, 2, 3, 4, 5)])]),
        ("A5/C3", A5, [perm(5, [(1, 2, 3)])]),
    ):
        covers["imprimitive-" + name] = coset_cover(G, PermGroup(K))
    return covers


CLOSURE_COVERS = closure_covers()


def test_closure_covers_reach_both_extremes_of_fix_j():
    orders = {name: validate(c).D.order for name, c in CLOSURE_COVERS.items()}
    degrees = {name: c.degree for name, c in CLOSURE_COVERS.items()}
    assert all(orders[k] == degrees[k] for k in orders if k.startswith("regular"))
    assert [orders["imprimitive-" + k] for k in ("S4/V", "S4/C2", "A5/C5", "A5/C3")] == [
        4, 2, 2, 2
    ]
    assert sum(1 < orders[k] < degrees[k] for k in orders if k.startswith("criterion10"))


@pytest.mark.parametrize("name", sorted(CLOSURE_COVERS))
def test_fix_j_and_d_from_deck_maps_match_the_schreier_generators(name):
    cover = CLOSURE_COVERS[name]
    cd = validate(cover)
    fixed, D = slow_paths.fixed_and_deck_group(cover)
    assert cd.fixed == fixed
    assert cd.D.order == D.order == len(fixed)
    assert cd.D.elements == D.elements
    # at most log2 |D| generators, each one reaching a new point
    assert 2 ** len(cd.D.generators) <= max(2, cd.D.order)
