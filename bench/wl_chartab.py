"""Workload `chartab`: exact character tables built and used.

Each op builds a PermGroup and its character table from generator JSON,
decomposes the permutation character, takes the fixed-space dimension of
that character on every class and restricts it to a seeded subgroup of
order 2.  The family mixes large groups with few classes (PSL(2, q)
for q = 7, 11, 13, S5, S6) and small groups with many classes (abelian
groups of order 12-16 and small direct products); the two kinds load
different Dixon stages.  The seed relabels each group's points.
"""

from __future__ import annotations

import math

from belyilab import chartab
from belyilab.cli import _table_json
from belyilab.permgroup import Permutation, PermGroup

from common import (
    check_table,
    cycle_lengths,
    cyclic_gens,
    expect,
    mul,
    one_based,
    power,
    product_gens,
    relabel,
    seeded,
    symmetric_gens,
    zero_based,
)

TAIL_PCT = 80
# rounds of distinct relabellings; a run measures about two
ROUNDS = 2


def _psl2(q):
    """PSL(2, q), q prime, on the projective line {0..q-1, oo = q}."""
    oo = q

    def t(x):
        return oo if x == oo else (x + 1) % q

    def s(x):
        if x == oo:
            return 0
        if x == 0:
            return oo
        return (-pow(x, q - 2, q)) % q

    return [tuple(t(i) for i in range(q + 1)), tuple(s(i) for i in range(q + 1))]


# name, generators, |G|, number of classes (all known in closed form), and
# copies per round.  The cheap many-class groups come three times, each
# copy with its own relabelling: the extra samples keep op_p50_ms and
# op_tail_ms inside a block of ops of like cost, where a run-to-run change
# in the machine's speed cannot move them from one group to another.
FAMILY = [
    ("C2xC6", product_gens(cyclic_gens(2), cyclic_gens(6)), 12, 12, 3),
    ("PSL(2,13)", _psl2(13), 1092, 9, 1),
    ("S3xC2", product_gens(symmetric_gens(3), cyclic_gens(2)), 12, 6, 3),
    ("C16", cyclic_gens(16), 16, 16, 1),
    ("C4xC4", product_gens(cyclic_gens(4), cyclic_gens(4)), 16, 16, 3),
    ("PSL(2,11)", _psl2(11), 660, 8, 1),
    ("D4xC2", product_gens([(1, 2, 3, 0), (0, 3, 2, 1)], cyclic_gens(2)), 16, 10, 3),
    ("S6", symmetric_gens(6), 720, 11, 1),
    ("C12", cyclic_gens(12), 12, 12, 3),
    ("PSL(2,7)", _psl2(7), 168, 6, 1),
    ("C2xC8", product_gens(cyclic_gens(2), cyclic_gens(8)), 16, 16, 3),
    ("S5", symmetric_gens(5), 120, 7, 1),
    ("C2xC2xC4", product_gens(cyclic_gens(2), cyclic_gens(2), cyclic_gens(4)), 16, 16, 3),
    ("S3xC3", product_gens(symmetric_gens(3), cyclic_gens(3)), 18, 9, 3),
]
COPIES = max(copies for *_, copies in FAMILY)


def _involution(gens, rng):
    """A seeded element of order 2, as a power of a random word in the
    generators.  Every family member has even order; restricting to an
    order-2 subgroup keeps the op's cost independent of the seed."""
    n = len(gens[0])
    while True:
        g = tuple(range(n))
        for _ in range(rng.randint(1, 8)):
            g = mul(g, rng.choice(gens))
        order = math.lcm(*cycle_lengths(g))
        if order % 2 == 0:
            return power(g, order // 2)


class Chartab:
    name = "chartab"
    tail_pct = TAIL_PCT
    round_len = sum(copies for *_, copies in FAMILY)

    def __init__(self, seed):
        rng = seeded(seed, "chartab")
        self.items = []
        for _ in range(ROUNDS):
            for copy in range(COPIES):
                for name, gens, order, nclasses, copies in FAMILY:
                    if copy >= copies:
                        continue
                    gens = relabel(gens, rng)
                    sub = _involution(gens, rng)
                    self.items.append(
                        {
                            "name": name,
                            "order": order,
                            "nclasses": nclasses,
                            "generators": [one_based(g) for g in gens],
                            "cyclic": one_based(sub),
                        }
                    )
        self.warmup = min(self.items, key=lambda it: it["order"] * it["nclasses"])

    def run(self, item):
        G = PermGroup([Permutation(g) for g in item["generators"]])
        tab = chartab.character_table(G)
        chi = chartab.perm_character(G, tab)
        fixed = [
            sum(m * tab.fixed_space_dim(i, rep) for i, m in enumerate(chi.mults) if m)
            for rep, _ in tab.classes
        ]
        C = PermGroup([Permutation(item["cyclic"])])
        res = chi.restrict(chartab.character_table(C))
        out = _table_json(tab)
        out["reps"] = [rep.images for rep, _ in tab.classes]
        out["perm_mults"] = list(chi.mults)
        out["perm_fixed"] = fixed
        out["restricted_mults"] = list(res.mults)
        out["restricted_degrees"] = list(res.table.degrees)
        return out

    def check(self, item, out):
        check_table(out, item["order"], item["name"])
        expect(len(out["degrees"]) == item["nclasses"], "%s: class count" % item["name"])
        n = len(item["generators"][0])
        expect(
            sum(m * d for m, d in zip(out["perm_mults"], out["degrees"])) == n,
            "%s: permutation character degree" % item["name"],
        )
        for rep, fixed in zip(out["reps"], out["perm_fixed"]):
            orbits = len(cycle_lengths(zero_based(rep)))
            expect(fixed == orbits, "%s: Burnside count %d != %d orbits" % (item["name"], fixed, orbits))
        # every irreducible of a cyclic group is linear, the trivial one first
        res, degs = out["restricted_mults"], out["restricted_degrees"]
        orbits = len(cycle_lengths(zero_based(item["cyclic"])))
        expect(all(d == 1 for d in degs), "%s: cyclic subgroup has a non-linear row" % item["name"])
        expect(min(res) >= 0 and sum(res) == n, "%s: restriction degree" % item["name"])
        expect(res[0] == orbits, "%s: restricted trivial multiplicity" % item["name"])
