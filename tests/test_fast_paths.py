"""The integer kernels of snf and cohomology against their slow paths.

The oracles in slow_paths.py are the versions the library replaced: the
nested-loop Smith normal form, the dense mat_vec, the column-major
congruence lattice, the extension table from the product on module
tuples, and extend_automorphism factoring its system on every call.  They
do the same arithmetic, so every result here must be identical, not just equivalent:
the SNF (diag, U, V), h2's invariants, basis tables and class coordinates, the
extension tables and the extended maps.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import slow_paths
from belyilab import snf
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
from belyilab.corpus import _module_corpus
from belyilab.permgroup import cyclic_group, symmetric_group
from test_cohomology import all_classes

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
