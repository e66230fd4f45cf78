"""The integer kernels of snf, cohomology and relmod against their slow
paths.

The oracles in slow_paths.py are the versions the library replaced: the
nested-loop Smith normal form, the dense mat_vec, the column-major
congruence lattice, the extension table from the product on module
tuples, extend_automorphism factoring its system on every call, and
relmod's Schreier data from FreeWord products.  They do the same
arithmetic, so every result here must be identical, not just equivalent:
the SNF (diag, U, V), h2's invariants, basis tables and class coordinates,
the extension tables and the extended maps, and the relation modules'
words, action matrices, cocycle tables, P-generator positions and
main-theorem reports.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import relmod, snf
from belyilab.cohomology import (
    Cocycle2,
    FiniteHModule,
    _cocycle_rows,
    _congruence_lattice,
    aut_h,
    build_extension,
    extend_automorphism,
    h2,
)
from belyilab.corpus import _module_corpus, _padded_generators, _relmod_groups
from belyilab.errors import PreconditionError
from belyilab.permgroup import cyclic_group, symmetric_group
from belyilab.relmod import (
    _p_generators,
    extension_cocycle,
    schreier_data,
    verify_main_theorem,
)
from test_cohomology import all_classes
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
    assert _congruence_lattice(n2, rows) == [[col[i] for col in cols] for i in range(n2)]


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


@pytest.mark.parametrize("H, d", RELATION_MODULES, ids=RM_IDS)
def test_relation_module_matches_free_words(H, d, monkeypatch):
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
        if H.order * m**rm.rank > relmod._VERIFY_LIMIT:
            continue
        # with the same P generators _h_fixing_automorphisms runs the same
        # search; the reports are compared where aut_h, which dominates
        # them, tries at most 2^9 matrices (m^rank <= 8)
        P = build_extension(beta.module, beta).group
        assert _p_generators(rm, P, m) == slow.p_generators(P, m)
        if m**rm.rank <= 8:
            fast = verify_main_theorem(rm, m)
            with monkeypatch.context() as patch:
                slow_paths.use_slow_relmod(patch)
                assert verify_main_theorem(rm, m) == fast
