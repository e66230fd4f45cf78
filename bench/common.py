"""Helpers shared by the benchmark workloads.

Permutations here are plain 0-based image tuples, independent of
belyilab's own Permutation class, so that input generation and the
oracles never run the code being measured.
"""

from __future__ import annotations

import cmath
import math
import random


class OracleError(AssertionError):
    """An op's output disagrees with an independent oracle."""


def expect(cond, detail):
    if not cond:
        raise OracleError(detail)


# -- permutations as 0-based tuples ------------------------------------------


def mul(p, q):
    """Apply p first, then q (belyilab's convention)."""
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def power(g, k):
    out = tuple(range(len(g)))
    for _ in range(k):
        out = mul(out, g)
    return out


def cycle_lengths(p):
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            n += 1
        out.append(n)
    return out


def one_based(p):
    return [i + 1 for i in p]


def zero_based(images):
    return tuple(i - 1 for i in images)


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def relabel(gens, rng):
    """Conjugate 0-based permutations by one random relabelling of the points."""
    n = len(gens[0])
    c = random_perm(rng, n)
    cinv = inv(c)
    return [mul(mul(cinv, g), c) for g in gens]


def symmetric_gens(n):
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple((i + 1) % n for i in range(n))
    return [swap, cycle]


def product_gens(*factors):
    """Direct product of groups given as generator lists, on disjoint points."""
    total = sum(len(gens[0]) for gens in factors)
    out = []
    offset = 0
    for gens in factors:
        n = len(gens[0])
        for g in gens:
            p = list(range(total))
            for i in range(n):
                p[offset + i] = offset + g[i]
            out.append(tuple(p))
        offset += n
    return out


def cyclic_gens(n):
    return [tuple((i + 1) % n for i in range(n))]


def is_transitive(gens, n):
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                j = g[i]
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == n


def closure(gens, n):
    """All elements of <gens>, for the small groups the oracles handle."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def group_order(gens, n):
    """|<gens>| by deterministic Schreier-Sims (Holt, Handbook of CGT, 4.4.2).

    Used only to sort generated covers into strata by monodromy group; it
    shares no code with belyilab.
    """
    ident = tuple(range(n))
    gens = [g for g in gens if g != ident]
    if not gens:
        return 1

    def moved(g):
        return next(i for i in range(n) if g[i] != i)

    def orbit(b, level_gens):
        trans = {b: ident}
        frontier = [b]
        while frontier:
            nxt = []
            for p in frontier:
                for g in level_gens:
                    q = g[p]
                    if q not in trans:
                        trans[q] = mul(trans[p], g)
                        nxt.append(q)
            frontier = nxt
        return trans

    base = []
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(moved(g))
    S = [[g for g in gens if all(g[b] == b for b in base[:i])] for i in range(len(base))]
    T = [orbit(base[i], S[i]) for i in range(len(base))]

    def strip(g, start):
        for lvl in range(start, len(base)):
            pt = g[base[lvl]]
            if pt not in T[lvl]:
                return g, lvl
            g = mul(g, inv(T[lvl][pt]))
        return g, len(base)

    i = len(base) - 1
    while i >= 0:
        grew = False
        for p, u in list(T[i].items()):
            for s in S[i]:
                schreier = mul(mul(u, s), inv(T[i][s[p]]))
                h, j = strip(schreier, i + 1)
                if h == ident:
                    continue
                if j == len(base):
                    base.append(moved(h))
                    S.append([])
                    T.append({})
                for lvl in range(i + 1, j + 1):
                    S[lvl].append(h)
                    T[lvl] = orbit(base[lvl], S[lvl])
                i = j
                grew = True
                break
            if grew:
                break
        if not grew:
            i -= 1
    return math.prod(len(t) for t in T)


# -- character values ----------------------------------------------------------


def cyclotomic_value(value):
    """Complex value of a CLI-style cyclotomic {"conductor", "num", "den"}."""
    N = value["conductor"]
    z = cmath.exp(2j * math.pi / N)
    return sum(n / d * z**k for k, (n, d) in enumerate(zip(value["num"], value["den"])))


def check_table(table, order, label):
    """Sum of squared degrees and column orthogonality of a table given in
    the CLI's JSON shape, against an independently known group order."""
    degrees = table["degrees"]
    sizes = [c["size"] for c in table["classes"]]
    expect(sum(sizes) == order, "%s: class sizes sum to %d, not %d" % (label, sum(sizes), order))
    expect(
        sum(d * d for d in degrees) == order,
        "%s: sum of squared degrees %d != |G| = %d" % (label, sum(d * d for d in degrees), order),
    )
    values = [[cyclotomic_value(v) for v in row] for row in table["values"]]
    for j, size in enumerate(sizes):
        col = sum(abs(row[j]) ** 2 for row in values)
        expect(
            abs(col - order / size) < 1e-6 * order,
            "%s: column %d orthogonality %.6f != %s" % (label, j, col, order / size),
        )


def seeded(seed, salt):
    """An independent random stream for one part of a workload's inputs."""
    return random.Random("%s/%s" % (seed, salt))
