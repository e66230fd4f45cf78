"""The Cayley-table reads of ExtensionGroup against the element-wise path.

The oracles below are the element-wise versions the table replaced: an
inverse found by scanning the elements with `mult`, the extension class
computed with `mult` and that scan, and the homomorphism check through
`mult`.  They run on the criterion-7 module corpus and on one extension
of order 48.
"""

import itertools

import pytest

from belyilab.cohomology import (
    Cocycle2,
    FiniteHModule,
    aut_h,
    build_extension,
    extend_automorphism,
    extension_class,
    h2,
)
from belyilab.corpus import _module_corpus
from belyilab.errors import InternalError, PreconditionError
from belyilab.groups import preserves_products
from belyilab.permgroup import cyclic_group, symmetric_group
from test_cohomology import all_classes


def scan_inverse(E, a):
    for b in E.elements:
        if E.mult(a, b) == E.identity:
            return b
    raise AssertionError("no inverse")


def oracle_extension_class(E, s):
    H = E.H
    table = {}
    for h1 in H.elements:
        for h2 in H.elements:
            val = E.mult(E.mult(s[h1], s[h2]), scan_inverse(E, s[h1 * h2]))
            assert E.project(val) == H.identity()
            table[(h1, h2)] = val[1]
    return Cocycle2(E.module, table)


def oracle_preserves_products(E, out):
    return all(
        out[E.mult(a, b)] == E.mult(out[a], out[b]) for a in E.elements for b in E.elements
    )


def table_preserves_products(E, out):
    T = E.group
    return preserves_products([T.index[out[a]] for a in E.elements], T, T)


def apply(gamma, m, shape):
    return tuple(sum(r * x for r, x in zip(row, m)) % mod for row, mod in zip(gamma, shape))


def extensions():
    """(M, beta, E) for every class of the criterion-7 corpus and of
    H^2(S3, Z/8) with the trivial action (|E| = 48)."""
    modules = _module_corpus() + [FiniteHModule.trivial(symmetric_group(3), (8,))]
    for M in modules:
        for beta in all_classes(M, h2(M)):
            yield M, beta, build_extension(M, beta)


EXTENSIONS = list(extensions())


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_inverse_matches_scan(M, beta, E):
    # the inverse table extension_class reads
    for a, inv in zip(E.elements, E.group.inv):
        assert E.elements[inv] == scan_inverse(E, a)


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_extension_class_matches_elementwise(M, beta, E):
    assert extension_class(E) == oracle_extension_class(E, E.section())
    # a section shifted off the zero fiber by a cochain with c(1) = 0
    shifted = {
        h: (h, tuple((i + r) % m for r, m in enumerate(M.shape)) if i else M.zero())
        for i, h in enumerate(M.H.elements)
    }
    assert extension_class(E, shifted) == oracle_extension_class(E, shifted)


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_extend_automorphism_matches_elementwise(M, beta, E):
    for gamma in aut_h(M):
        phi = extend_automorphism(gamma, E)
        if phi is not None:
            assert oracle_preserves_products(E, phi)
        # with the zero cochain the map is a homomorphism exactly when
        # gamma fixes beta itself, so both verdicts occur
        naive = {(h, m): (h, apply(gamma, m, M.shape)) for h, m in E.elements}
        assert table_preserves_products(E, naive) == oracle_preserves_products(E, naive)


def test_homomorphism_check_sees_both_verdicts():
    verdicts = set()
    for M, beta, E in EXTENSIONS:
        for gamma in aut_h(M):
            naive = {(h, m): (h, apply(gamma, m, M.shape)) for h, m in E.elements}
            verdicts.add(table_preserves_products(E, naive))
    assert verdicts == {True, False}


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_to_table_group_matches_products(M, beta, E):
    # E.group, which replaced to_table_group(), indexes E.elements
    T = E.group
    assert T.names == E.elements
    for i, a in enumerate(E.elements):
        assert [T.names[v] for v in T.table[i]] == [E.mult(a, b) for b in E.elements]


def fake_cocycle(M, x, y):
    """A normalized table with beta(x, y) = 1 and 0 elsewhere, stored in a
    Cocycle2 without the cocycle check."""
    elts = M.H.elements
    table = {(a, b): M.zero() for a, b in itertools.product(elts, repeat=2)}
    table[(x, y)] = (1,)
    with pytest.raises(PreconditionError):
        Cocycle2(M, table)
    beta = Cocycle2.__new__(Cocycle2)
    beta.module = M
    beta.table = table
    return beta


@pytest.mark.parametrize("m", [3, 16])
def test_non_cocycle_fails_associativity(m):
    # over Z/3 the delta of this table is nonzero at (x, x, x^2); |E| = 9
    # and |E| = 48
    H = cyclic_group(3)
    M = FiniteHModule.trivial(H, (m,))
    x = H.elements[1]
    beta = fake_cocycle(M, x, x)
    with pytest.raises(InternalError, match="not associative"):
        build_extension(M, beta)


def test_single_pair_non_cocycle_on_s4_fails_associativity():
    # |E| = 48; the 300 triples sampled above |E| = 40 all missed this one
    H = symmetric_group(4)
    M = FiniteHModule.trivial(H, (2,))
    beta = fake_cocycle(M, H.elements[1], H.elements[4])
    with pytest.raises(InternalError, match="extension multiplication is not associative"):
        build_extension(M, beta)
