"""The Cayley-table reads of ExtensionGroup against the element-wise path.

The oracles below are the element-wise versions the table replaced: an
inverse found by scanning the elements with `mult` (the product on
module tuples, in slow_paths.py), the extension class computed with
`mult` and that scan, and the homomorphism check through `mult`.  They
run on the criterion-7 module corpus and on one extension of order 48.
"""

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
from slow_paths import mult
from test_cohomology import all_classes


def scan_inverse(E, a):
    for b in E.group.names:
        if mult(E, a, b) == E.group.names[0]:
            return b
    raise AssertionError("no inverse")


def position_product(H, i, j):
    """The position of H.elements[i] * H.elements[j], multiplied as
    permutations."""
    return H.elements.index(H.elements[i] * H.elements[j])


def oracle_extension_class(E, s):
    n = E.H.order
    table = [[None] * n for _ in range(n)]
    for h1 in range(n):
        for h2 in range(n):
            inv = scan_inverse(E, s[position_product(E.H, h1, h2)])
            val = mult(E, mult(E, s[h1], s[h2]), inv)
            assert val[0] == 0
            table[h1][h2] = val[1]
    return Cocycle2(E.module, table)


def on_names(E, phi):
    """A map on E.elements, such as extend_automorphism returns, as a map
    on E.group.names."""
    name = dict(zip(E.elements, E.group.names))
    return {name[a]: name[b] for a, b in phi.items()}


def oracle_preserves_products(E, out):
    names = E.group.names
    return all(out[mult(E, a, b)] == mult(E, out[a], out[b]) for a in names for b in names)


def table_preserves_products(E, out):
    T = E.group
    return preserves_products([T.index[out[a]] for a in T.names], T, T)


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
    names = E.group.names
    for a, inv in zip(names, E.group.inv):
        assert names[inv] == scan_inverse(E, a)


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_extension_class_matches_elementwise(M, beta, E):
    assert extension_class(E).table == oracle_extension_class(E, E.section()).table
    # a section shifted off the zero fiber by a cochain with c(1) = 0
    shifted = [
        (i, tuple((i + r) % m for r, m in enumerate(M.shape)) if i else M.zero())
        for i in range(M.H.order)
    ]
    assert extension_class(E, shifted).table == oracle_extension_class(E, shifted).table


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_extend_automorphism_matches_elementwise(M, beta, E):
    for gamma in aut_h(M):
        phi = extend_automorphism(gamma, E)
        if phi is not None:
            assert oracle_preserves_products(E, on_names(E, phi))
        # with the zero cochain the map is a homomorphism exactly when
        # gamma fixes beta itself, so both verdicts occur
        naive = {(h, m): (h, apply(gamma, m, M.shape)) for h, m in E.group.names}
        assert table_preserves_products(E, naive) == oracle_preserves_products(E, naive)


def test_homomorphism_check_sees_both_verdicts():
    verdicts = set()
    for M, beta, E in EXTENSIONS:
        for gamma in aut_h(M):
            naive = {(h, m): (h, apply(gamma, m, M.shape)) for h, m in E.group.names}
            verdicts.add(table_preserves_products(E, naive))
    assert verdicts == {True, False}


@pytest.mark.parametrize("M, beta, E", EXTENSIONS)
def test_to_table_group_matches_products(M, beta, E):
    # E.group, which replaced to_table_group(), indexes the pairs (h, m)
    # with h a position in H's table; E.elements lists them with H's
    # elements in place of positions
    T = E.group
    assert [(M.H.elements[h], m) for h, m in T.names] == E.elements
    for i, a in enumerate(T.names):
        assert [T.names[v] for v in T.table[i]] == [mult(E, a, b) for b in T.names]


def fake_cocycle(M, x, y):
    """A normalized table with beta(x, y) = 1 at positions x, y and 0
    elsewhere, stored in a Cocycle2 without the cocycle check."""
    n = M.H.order
    table = [[M.zero()] * n for _ in range(n)]
    table[x][y] = (1,)
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
    beta = fake_cocycle(M, 1, 1)
    with pytest.raises(InternalError, match="not associative"):
        build_extension(M, beta)


def test_single_pair_non_cocycle_on_s4_fails_associativity():
    # |E| = 48; the 300 triples sampled above |E| = 40 all missed this one
    H = symmetric_group(4)
    M = FiniteHModule.trivial(H, (2,))
    beta = fake_cocycle(M, 1, 4)
    with pytest.raises(InternalError, match="extension multiplication is not associative"):
        build_extension(M, beta)
