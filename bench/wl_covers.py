"""Workload `covers`: census requests on seeded random covers.

Each op is `analysis_report` plus `descent_report(refine=True)` on one
cover, each call with its own BelyiCover built from the cover JSON.  A
round holds PER_DEGREE covers of each degree 4..8, split over the strata
"symmetric" (H = S_n), "alternating" (H = A_n) and "smaller" (any other
transitive H) in the proportions that seeded uniform random transitive
pairs fall into them (FREQ).  Symmetric and alternating covers are such
random pairs, conditioned on their stratum; a smaller cover is a random
pair of the proper transitive group that random pairs generate most often
at its degree (D4, F20, PGL(2,5), PSL(3,2), AGL(3,2)).  Closure cost grows
with |H|, so fixing the counts keeps a run's mix of |H| the same for every
seed.

The pairs themselves are drawn once, from a fixed stream, and the seed
relabels their points.  Op cost varies by a factor of two between covers
of one stratum, and op_p50_ms falls near the cheap end of the S_6 covers,
so covers drawn afresh for each seed moved op_p50_ms by a quarter from
seed to seed; a relabelled cover keeps its cost.  The order of each round
is shuffled once, from the same fixed stream.
"""

from __future__ import annotations

import math

from belyilab import cover, descent

from common import (
    closure,
    cycle_lengths,
    expect,
    group_order,
    is_transitive,
    mul,
    one_based,
    random_perm,
    relabel,
    seeded,
    zero_based,
)

DEGREES = (4, 5, 6, 7, 8)
STRATA = ("symmetric", "alternating", "smaller")
PER_DEGREE = 12
# rounds of distinct covers; a run measures two or three
ROUNDS = 3
TAIL_PCT = 90
# the stream the pairs are drawn from, before the seed relabels them
POOL_SEED = 0

# share of each stratum among uniform random transitive pairs of each
# degree: stratum_shares(n, 50000), rounded (bench/README.md)
FREQ = {
    4: (0.5075, 0.2249, 0.2676),
    5: (0.6162, 0.2055, 0.1783),
    6: (0.5534, 0.1861, 0.2605),
    7: (0.7386, 0.2233, 0.0381),
    8: (0.7183, 0.2212, 0.0605),
}


def round_counts(n):
    """Covers per stratum in a round, FREQ[n] apportioned to PER_DEGREE
    by largest remainders."""
    quotas = [f * PER_DEGREE for f in FREQ[n]]
    counts = [math.floor(q) for q in quotas]
    by_remainder = sorted(range(len(STRATA)), key=lambda k: counts[k] - quotas[k])
    for k in by_remainder[: PER_DEGREE - sum(counts)]:
        counts[k] += 1
    return dict(zip(STRATA, counts))


# a generating pair of the "smaller" group for each degree
SMALLER = {
    4: [(0, 2, 1, 3), (2, 3, 0, 1)],
    5: [(2, 3, 1, 0, 4), (1, 3, 2, 4, 0)],
    6: [(1, 4, 3, 0, 2, 5), (0, 3, 1, 5, 4, 2)],
    7: [(2, 3, 4, 0, 5, 6, 1), (4, 5, 0, 6, 3, 2, 1)],
    8: [(0, 5, 7, 6, 4, 2, 3, 1), (1, 3, 5, 6, 0, 2, 7, 4)],
}


def _draw(rng, n, stratum):
    """A random transitive pair generating the stratum's group, 0-based."""
    if stratum == "smaller":
        elements = sorted(closure(SMALLER[n], n))
        order = len(elements)
    else:
        order = math.factorial(n) // (2 if stratum == "alternating" else 1)
    while True:
        if stratum == "smaller":
            x, y = relabel([rng.choice(elements), rng.choice(elements)], rng)
        else:
            x, y = random_perm(rng, n), random_perm(rng, n)
            even = all(sum(c - 1 for c in cycle_lengths(p)) % 2 == 0 for p in (x, y))
            if even != (stratum == "alternating"):
                continue
        if is_transitive((x, y), n) and group_order([x, y], n) == order:
            return x, y


def stratum_shares(n, pairs, seed=12345):
    """Share of each stratum among `pairs` seeded uniform random transitive
    pairs of degree n: the measurement behind FREQ."""
    rng = seeded(seed, "freq-%d" % n)
    counts = dict.fromkeys(STRATA, 0)
    for _ in range(pairs):
        while True:
            x, y = random_perm(rng, n), random_perm(rng, n)
            if is_transitive((x, y), n):
                break
        order = group_order([x, y], n)
        if order == math.factorial(n):
            counts["symmetric"] += 1
        elif order == math.factorial(n) // 2:
            counts["alternating"] += 1
        else:
            counts["smaller"] += 1
    return {k: c / pairs for k, c in counts.items()}


def _riemann_hurwitz_genus(x, y):
    n = len(x)
    z = mul(x, y)  # (xy)^-1 has the cycle type of xy
    total = sum(n - len(cycle_lengths(p)) for p in (x, y, z))
    return total // 2 - n + 1


class Covers:
    name = "covers"
    tail_pct = TAIL_PCT
    round_len = len(DEGREES) * PER_DEGREE

    def __init__(self, seed):
        pool = seeded(POOL_SEED, "covers")
        rng = seeded(seed, "covers")
        self.items = []
        for _ in range(ROUNDS):
            round_items = []
            for stratum in STRATA:
                for n in DEGREES:
                    for _ in range(round_counts(n)[stratum]):
                        x, y = relabel(_draw(pool, n, stratum), rng)
                        round_items.append({"degree": n, "x": one_based(x), "y": one_based(y)})
            # spread each stratum over the round, so that a few seconds of a
            # slower machine cannot move all of its ops at once
            pool.shuffle(round_items)
            self.items += round_items
        # a cheap op warms up without touching S_8
        self.warmup = next(it for it in self.items if it["degree"] == 4)
        self._expected = {}

    def run(self, item):
        rep = cover.analysis_report(cover.BelyiCover.from_json(item))
        dr = descent.descent_report(cover.BelyiCover.from_json(item), refine=True)
        return {"analysis": rep, "descent": dr.to_json()}

    def expected(self, item):
        key = (tuple(item["x"]), tuple(item["y"]))
        if key not in self._expected:
            self._expected[key] = closure_oracle(item)
        return self._expected[key]

    def check(self, item, out):
        exp = self.expected(item)
        check_analysis(exp, out["analysis"])
        check_descent(exp, out["descent"])


def closure_oracle(item):
    """|H|, |J|, |D|, [H:W], Galois flag and genus from sympy's
    Schreier-Sims and the cycle counts, never from belyilab."""
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup

    n = item["degree"]
    x = zero_based(item["x"])
    y = zero_based(item["y"])
    H = PermutationGroup([SymPerm(list(x)), SymPerm(list(y))])
    J = H.stabilizer(0)
    fixed = [i for i in range(n) if all(g.array_form[i] == i for g in J.generators)]
    return {
        "degree": n,
        "order_H": H.order(),
        "order_J": J.order(),
        "order_D": len(fixed),
        "index_HW": n // len(fixed),
        "is_galois": len(fixed) == n,
        "genus": _riemann_hurwitz_genus(x, y),
    }


def check_analysis(exp, analysis):
    """Check an analysis report against the closure oracle."""
    for key in ("degree", "order_H", "order_J", "order_D", "index_HW", "is_galois", "genus"):
        expect(analysis[key] == exp[key], "analysis %s = %r, oracle %r" % (key, analysis[key], exp[key]))
    for b, recs in analysis["branch"].items():
        expect(
            sum(r["e"] for r in recs) == exp["index_HW"],
            "ramification over %s does not sum to [H:W]" % b,
        )


def check_descent(exp, report):
    """Check a descent report's rows and verdict against the oracle and
    Riemann-Hurwitz."""
    for key in ("degree", "order_D", "index_HW", "is_galois", "genus"):
        expect(report[key] == exp[key], "descent %s = %r, oracle %r" % (key, report[key], exp[key]))
    rows = report["rows"]
    expect(sum(r["degree"] ** 2 for r in rows) == exp["order_D"], "row degrees do not fill |D|")
    jac = 0
    for i, r in enumerate(rows):
        m_V = (1 if i == 0 else 0) + exp["index_HW"] * r["degree"]
        expect(r["m_V"] == m_V, "m_V = %d, expected %d" % (r["m_V"], m_V))
        expect(0 <= r["n_V"] <= m_V, "n_V = %d outside [0, %d]" % (r["n_V"], m_V))
        expect(r["passes"] == (r["n_V"] in (0, m_V)), "passes flag disagrees with n_V")
        jac += (m_V - r["n_V"]) * r["degree"]
    expect(
        jac == 2 * exp["genus"],
        "sum (m_V - n_V) deg = %d, Riemann-Hurwitz gives 2g = %d" % (jac, 2 * exp["genus"]),
    )
    if all(r["passes"] for r in rows) or report["certificates"]:
        verdict = "DESCENDS"
    elif exp["is_galois"]:
        verdict = "DOES_NOT_DESCEND"
    else:
        verdict = "INCONCLUSIVE"
    expect(report["verdict"] == verdict, "verdict %s, rows imply %s" % (report["verdict"], verdict))
