"""Generator-reduced checks against the full loops they replaced.

TableGroup checks associativity only at c in its generating set,
preserves_products checks f(ab) = f(a)f(b) only at b in src.gens,
Cocycle2 checks the cocycle identity only at (h1, h2, g) with g in the
generating set of H's table, and FiniteHModule checks A(g)A(s) = A(gs)
only at s in that set.  The oracles below are the full loops over every
triple or pair, with elements of H multiplied as permutations.  Each test
asserts that the verdicts agree and that both occur.
"""

import itertools
import random

import pytest

from belyilab.cohomology import Cocycle2, FiniteHModule, h2
from belyilab.corpus import _module_corpus
from belyilab.errors import PreconditionError
from belyilab.groups import TableGroup, preserves_products
from belyilab.permgroup import Permutation, cyclic_group, generate, symmetric_group
from test_cohomology import all_classes


def oracle_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a, b, c in itertools.product(range(n), repeat=3)
    )


def oracle_preserves_products(f, src, dst):
    return all(
        f[src.table[a][b]] == dst.table[f[a]][f[b]]
        for a, b in itertools.product(range(src.n), repeat=2)
    )


def position_product(H):
    """(i, j) -> the position of H.elements[i] * H.elements[j]."""
    pos = {h: i for i, h in enumerate(H.elements)}
    return lambda i, j: pos[H.elements[i] * H.elements[j]]


def oracle_is_cocycle(M, table):
    mul = position_product(M.H)
    for a, b, c in itertools.product(range(M.H.order), repeat=3):
        lhs = M.apply(a, table[b][c])
        lhs = M.sub(lhs, table[mul(a, b)][c])
        lhs = M.add(lhs, table[a][mul(b, c)])
        lhs = M.sub(lhs, table[a][b])
        if lhs != M.zero():
            return False
    return True


def oracle_is_action(H, shape, action):
    k = len(shape)

    def mul(A, B):
        return [
            [sum(A[r][t] * B[t][c] for t in range(k)) % shape[r] for c in range(k)]
            for r in range(k)
        ]

    def reduce(A):
        return [[x % m for x in row] for row, m in zip(A, shape)]

    product = position_product(H)
    return all(
        mul(action[g], action[h]) == reduce(action[product(g, h)])
        for g, h in itertools.product(range(H.order), repeat=2)
    )


def verdict(build, message):
    """True if build() succeeds, False if it raises the given
    PreconditionError."""
    try:
        build()
    except PreconditionError as exc:
        assert str(exc) == message
        return False
    return True


def normalized_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0, 1, ..., n-1:
    the multiplication tables of the loops of order n with identity 0."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == (n - 1) * (n - 1):
            yield [list(r) for r in rows]
            return
        i, j = 1 + cell // (n - 1), 1 + cell % (n - 1)
        for v in range(n):
            if v not in rows[i] and all(rows[r][j] != v for r in range(i)):
                rows[i][j] = v
                yield from fill(cell + 1)
                rows[i][j] = None

    yield from fill(0)


def relabeled(table, sigma):
    """The table with element i renamed sigma[i]; sigma fixes 0."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def test_table_associativity_matches_oracle():
    tables = [t for n in range(1, 6) for t in normalized_latin_squares(n)]
    assert [sum(len(t) == n for t in tables) for n in range(1, 6)] == [1, 1, 1, 4, 56]
    s3 = TableGroup.from_permgroup(symmetric_group(3)).table
    tables += [relabeled(s3, (0,) + rest) for rest in itertools.permutations(range(1, 6))]
    d4 = TableGroup.from_permgroup(generate([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])).table
    rng = random.Random(0)
    for _ in range(50):
        rest = list(range(1, 8))
        rng.shuffle(rest)
        tables.append(relabeled(d4, [0] + rest))
    verdicts = set()
    for t in tables:
        v = verdict(lambda: TableGroup(t), "multiplication table is not associative")
        assert v == oracle_associative(t)
        verdicts.add(v)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "src, dst",
    [(cyclic_group(4), cyclic_group(4)), (symmetric_group(3), cyclic_group(2))],
)
def test_preserves_products_matches_oracle(src, dst):
    S, T = TableGroup.from_permgroup(src), TableGroup.from_permgroup(dst)
    verdicts = set()
    for f in itertools.product(range(T.n), repeat=S.n):
        v = preserves_products(f, S, T)
        assert v == oracle_preserves_products(f, S, T)
        verdicts.add(v)
    assert verdicts == {True, False}


def s3_modules():
    """S3 on the trivial Z/2 and on Z/3 through the sign."""
    s3 = symmetric_group(3)
    # symmetric_group(3) generators are ((1 2), (1 2 3))
    return [
        FiniteHModule.trivial(s3, (2,)),
        FiniteHModule.from_generator_matrices(s3, (3,), [[[2]], [[1]]]),
    ]


def all_maps(domain, values, fixed):
    """Every dict on domain that agrees with the dict fixed where it is
    defined and takes values in values elsewhere."""
    free = [x for x in domain if x not in fixed]
    for choice in itertools.product(values, repeat=len(free)):
        yield {**fixed, **dict(zip(free, choice))}


def test_cocycle_check_matches_oracle():
    cases = []
    for M in _module_corpus():
        cases += [(M, beta.table) for beta in all_classes(M, h2(M))]
    # every normalized table over V4 on the trivial Z/2; each generator of
    # V4 catches failures the other misses
    V = FiniteHModule.trivial(generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))]), (2,))
    pairs = list(itertools.product(range(4), repeat=2))
    normal = {(a, b): (0,) for a, b in pairs if a == 0 or b == 0}
    for values in all_maps(pairs, [(0,), (1,)], normal):
        cases.append((V, [[values[(a, b)] for b in range(4)] for a in range(4)]))
    for M in s3_modules():
        for beta in all_classes(M, h2(M)):
            for a, b in itertools.product(range(1, M.H.order), repeat=2):
                for shift in range(1, M.shape[0]):
                    table = [list(row) for row in beta.table]
                    table[a][b] = M.add(table[a][b], (shift,))
                    cases.append((M, table))
    verdicts = set()
    for M, table in cases:
        v = verdict(lambda: Cocycle2(M, table), "cocycle identity fails at a triple")
        assert v == oracle_is_cocycle(M, table)
        verdicts.add(v)
    assert verdicts == {True, False}


def test_action_check_matches_oracle():
    s3 = symmetric_group(3)
    modules = s3_modules() + [
        # the swap and an order-3 matrix: the standard representation
        FiniteHModule.from_generator_matrices(s3, (2, 2), [[[0, 1], [1, 0]], [[0, 1], [1, 1]]])
    ]
    # every map from S3 to the 1 x 1 matrices over Z/3 with 1 -> 1, by
    # position; some are multiplicative at (1 2) and not at (1 2 3)
    cases = [
        (modules[1], [action[g] for g in range(6)])
        for action in all_maps(range(6), [[[v]] for v in range(3)], {0: [[1]]})
    ]
    for M in modules:
        action = [[list(row) for row in A] for A in M.action]
        cases.append((M, action))
        entries = [range(m) for m in M.shape for _ in M.shape]
        for g in range(1, M.H.order):
            for flat in itertools.product(*entries):
                mat = [list(flat[r * M.k:(r + 1) * M.k]) for r in range(M.k)]
                cases.append((M, action[:g] + [mat] + action[g + 1:]))
    verdicts = set()
    for M, action in cases:
        v = verdict(
            lambda: FiniteHModule(M.H, M.shape, action), "action is not a homomorphism"
        )
        assert v == oracle_is_action(M.H, M.shape, action)
        verdicts.add(v)
    assert verdicts == {True, False}
