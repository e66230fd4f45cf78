"""Workload `algebra`: the paper's finite-level checks.

A round holds five kinds of op, interleaved:

- module: h2, aut_h and extend_automorphism over every (gamma, class)
  pair, with the extension-class round trip, on modules with |H| <= 8 and
  up to two coordinates, trivial and nontrivial actions;
- relmod: schreier_data and rational_character for |H| <= 24, d <= 3;
- verify: verify_main_theorem on the instances within its limit;
- lift: count_lifts on a corpus of surjections;
- jdeg: j_invariant_degree on odd t.

The seed relabels every group's points and picks the generating tuple
each lift starts from.  The levels t are fixed: the cost of
j_invariant_degree grows with t, and a seeded t would move op_p50_ms.  Cyclic groups of order 12
and up, whose character tables cost seconds, are left to `chartab`.
"""

from __future__ import annotations

import itertools
import math

from belyilab import cohomology, gaschuetz, genus1, relmod
from belyilab.permgroup import Permutation, PermGroup

from common import (
    closure,
    cyclic_gens,
    expect,
    mul,
    one_based,
    power,
    relabel,
    seeded,
    symmetric_gens,
    zero_based,
)

TAIL_PCT = 95
# rounds of distinct relabellings and lift tuples; a run measures four or five
ROUNDS = 3

V4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
D4 = [(1, 2, 3, 0), (0, 3, 2, 1)]
Q8 = [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]
A4 = [(1, 2, 0, 3), (1, 0, 3, 2)]
D6 = [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)]
TRIVIAL = [(0,)]

# group, shape, one action matrix per generator
MODULES = [
    (cyclic_gens(2), (2,), [[[1]]]),
    (cyclic_gens(2), (4,), [[[1]]]),
    (cyclic_gens(2), (2, 2), [[[1, 0], [0, 1]]]),
    (cyclic_gens(2), (4,), [[[3]]]),
    (cyclic_gens(2), (2, 2), [[[0, 1], [1, 0]]]),
    (cyclic_gens(2), (3,), [[[1]]]),
    (cyclic_gens(3), (3,), [[[1]]]),
    (cyclic_gens(3), (2, 2), [[[0, 1], [1, 1]]]),
    (cyclic_gens(3), (2,), [[[1]]]),
    (cyclic_gens(4), (4,), [[[1]]]),
    (cyclic_gens(4), (4,), [[[3]]]),
    (V4, (2,), [[[1]], [[1]]]),
    (symmetric_gens(3), (2,), [[[1]], [[1]]]),
    (symmetric_gens(3), (2, 2), [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]),
    (symmetric_gens(3), (3,), [[[2]], [[1]]]),
    (cyclic_gens(6), (2,), [[[1]]]),
    (cyclic_gens(8), (2,), [[[1]]]),
]

RELMOD_GROUPS = [
    TRIVIAL,
    cyclic_gens(2),
    cyclic_gens(3),
    cyclic_gens(4),
    cyclic_gens(6),
    V4,
    symmetric_gens(3),
    D4,
    Q8,
    A4,
    D6,
    symmetric_gens(4),
]

# group, images of the free generators (None = identity), modulus
VERIFY = [
    (cyclic_gens(2), [0, None], 2),
    (TRIVIAL, [None], 2),
    (TRIVIAL, [None], 3),
    (TRIVIAL, [None], 4),
    (cyclic_gens(3), [0], 2),
    (cyclic_gens(3), [0], 4),
]


# G1 and generators of a normal subgroup N; G2 = G1/N
SURJECTIONS = [
    (cyclic_gens(4), [power(cyclic_gens(4)[0], 2)]),
    (cyclic_gens(6), [power(cyclic_gens(6)[0], 2)]),
    (cyclic_gens(6), [power(cyclic_gens(6)[0], 3)]),
    (cyclic_gens(8), [power(cyclic_gens(8)[0], 4)]),
    (cyclic_gens(12), [power(cyclic_gens(12)[0], 6)]),
    (V4, [V4[0]]),
    (symmetric_gens(3), [(1, 2, 0)]),
    (D4, [(2, 3, 0, 1)]),
    (Q8, [power(Q8[0], 2)]),
    (A4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
]

JDEG_LEVELS = (3, 5, 21, 35, 45, 63, 77, 99)


def _generates(tup, n, order):
    return len(closure(tup, n)) == order


def _generating_tuples(elements, n, d):
    order = len(elements)
    return sum(1 for tup in itertools.product(elements, repeat=d) if _generates(tup, n, order))


def _coset_action(g1, ngens):
    """G1 acting on the cosets of the normal subgroup <ngens>, by own code."""
    n = len(g1[0])
    N = closure(ngens, n)
    cosets = {}
    for g in sorted(closure(g1, n)):
        key = frozenset(mul(x, g) for x in N)
        cosets.setdefault(key, len(cosets))
    reps = {i: next(iter(key)) for key, i in cosets.items()}

    def image(h):
        return tuple(
            cosets[frozenset(mul(x, mul(reps[i], h)) for x in N)] for i in range(len(cosets))
        )

    return image, len(cosets)


def _module_item(gens, shape, mats, rng):
    n = len(gens[0])
    order = len(closure(gens, n))
    item = {
        "kind": "module",
        "group": [one_based(g) for g in relabel(gens, rng)],
        "shape": list(shape),
        "action": mats,
    }
    if all(m == [[int(r == c) for c in range(len(shape))] for r in range(len(shape))] for m in mats):
        # trivial action of a cyclic group: H^2(Z/n, Z/m) = Z/gcd(n, m) per
        # coordinate; for V4 = (Z/2)^2 on Z/2 it is (Z/2)^3
        if len(gens) == 1:
            item["h2_order"] = math.prod(math.gcd(order, m) for m in shape)
        elif gens == V4 and list(shape) == [2]:
            item["h2_order"] = 8
        if len(shape) == 1:
            item["aut_count"] = sum(1 for a in range(shape[0]) if math.gcd(a, shape[0]) == 1)
        elif list(shape) == [2, 2]:
            item["aut_count"] = 6
    return item


class Algebra:
    name = "algebra"
    tail_pct = TAIL_PCT

    def __init__(self, seed):
        rng = seeded(seed, "algebra")
        self.items = []
        for _ in range(ROUNDS):
            kinds = [
                [_module_item(g, s, m, rng) for g, s, m in MODULES],
                self._relmod_items(rng),
                self._verify_items(rng),
                self._lift_items(rng),
                [{"kind": "jdeg", "t": t} for t in JDEG_LEVELS],
            ]
            self.items += [
                it for group in itertools.zip_longest(*kinds) for it in group if it is not None
            ]
        self.round_len = len(self.items) // ROUNDS
        self.warmup = self.items[0]
        self._expected = {}

    @staticmethod
    def _relmod_items(rng):
        items = []
        for gens in RELMOD_GROUPS:
            order = len(closure(gens, len(gens[0])))
            for d in range(max(len(gens), 1), 4):
                items.append(
                    {
                        "kind": "relmod",
                        "group": [one_based(g) for g in relabel(gens, rng)],
                        "order": order,
                        "d": d,
                    }
                )
        return items

    @staticmethod
    def _verify_items(rng):
        items = []
        for gens, images, m in VERIFY:
            gens = relabel(gens, rng)
            items.append(
                {
                    "kind": "verify",
                    "group": [one_based(g) for g in gens],
                    "order": len(closure(gens, len(gens[0]))),
                    "images": [None if i is None else one_based(gens[i]) for i in images],
                    "m": m,
                }
            )
        return items

    @staticmethod
    def _lift_items(rng):
        items = []
        for g1, ngens in SURJECTIONS:
            n = len(g1[0])
            both = relabel(list(g1) + list(ngens), rng)
            g1, ngens = both[: len(g1)], both[len(g1) :]
            elements = sorted(closure(g1, n))
            d = 1 if any(_generates([g], n, len(elements)) for g in elements) else 2
            image, m = _coset_action(g1, ngens)
            psi = [image(g) for g in g1]
            quotient = sorted(closure(psi, m))
            while True:
                tup = [rng.choice(quotient) for _ in range(d)]
                if _generates(tup, m, len(quotient)):
                    break
            items.append(
                {
                    "kind": "lift",
                    "g1": [one_based(g) for g in g1],
                    "g2": [one_based(p) for p in psi],
                    "psi": [one_based(p) for p in psi],
                    "tuple": [one_based(p) for p in tup],
                }
            )
        return items

    # -- ops ---------------------------------------------------------------

    def run(self, item):
        return getattr(self, "_run_" + item["kind"])(item)

    @staticmethod
    def _group(gens):
        return PermGroup([Permutation(g) for g in gens])

    def _run_module(self, item):
        H = self._group(item["group"])
        M = cohomology.FiniteHModule.from_generator_matrices(H, tuple(item["shape"]), item["action"])
        data = cohomology.h2(M)
        autos = cohomology.aut_h(M)
        reps = [cohomology.Cocycle2.zero(M)]
        for order, b in zip(data.invariants, data.basis):
            reps = [r + b.scale(s) for r in reps for s in range(order)]
        units = [tuple(int(r == c) for r in range(M.k)) for c in range(M.k)]
        classes = []
        for beta in reps:
            E = cohomology.build_extension(M, beta)
            round_trip = data.class_of(cohomology.extension_class(E)) == data.class_of(beta)
            lifts = []
            for gamma in autos:
                phi = cohomology.extend_automorphism(gamma, E)
                lifts.append(None if phi is None else [list(phi[E.embed(u)][1]) for u in units])
            classes.append({"round_trip": round_trip, "lifts": lifts})
        return {
            "h2_order": data.order,
            "autos": [[list(row) for row in g] for g in autos],
            "classes": classes,
        }

    def _run_relmod(self, item):
        H = self._group(item["group"])
        images = list(H.generators) + [H.identity()] * (item["d"] - len(H.generators))
        rm = relmod.schreier_data(H, images)
        chi = relmod.rational_character(rm)
        return {"rank": rm.rank, "mults": list(chi.mults), "degrees": list(chi.table.degrees)}

    def _run_verify(self, item):
        H = self._group(item["group"])
        images = [H.identity() if g is None else Permutation(g) for g in item["images"]]
        rm = relmod.schreier_data(H, images)
        rep = relmod.verify_main_theorem(rm, item["m"])
        return {"rank": rm.rank, "order_P": rep["order_P"], "equal": rep["equal"]}

    def _run_lift(self, item):
        G1 = self._group(item["g1"])
        G2 = self._group(item["g2"])
        psi = dict(zip(G1.generators, (Permutation(p) for p in item["psi"])))
        S2 = tuple(Permutation(s) for s in item["tuple"])
        problem = gaschuetz.SurjectionProblem(G1, G2, psi, S2)
        return {"count": gaschuetz.count_lifts(problem)}

    def _run_jdeg(self, item):
        return {"degree": genus1.j_invariant_degree(item["t"])}

    # -- oracles -----------------------------------------------------------

    def check(self, item, out):
        getattr(self, "_check_" + item["kind"])(item, out)

    def _check_module(self, item, out):
        shape = item["shape"]
        if "h2_order" in item:
            expect(out["h2_order"] == item["h2_order"], "|H^2| = %d, expected %d" % (out["h2_order"], item["h2_order"]))
        if "aut_count" in item:
            expect(len(out["autos"]) == item["aut_count"], "|Aut_H(M)| = %d" % len(out["autos"]))
        expect(len(out["classes"]) == out["h2_order"], "one extension per class of H^2")
        for idx, cls in enumerate(out["classes"]):
            expect(cls["round_trip"], "extension class round trip failed")
            if idx == 0:
                # the split extension: every automorphism fixes the zero class
                expect(all(lift is not None for lift in cls["lifts"]), "split extension lost a lift")
            for gamma, lift in zip(out["autos"], cls["lifts"]):
                if lift is None:
                    continue
                cols = [[gamma[r][c] % shape[r] for r in range(len(shape))] for c in range(len(shape))]
                expect(lift == cols, "lifted automorphism does not restrict to gamma on M")

    def _check_relmod(self, item, out):
        order, d = item["order"], item["d"]
        expect(out["rank"] == order * (d - 1) + 1, "rank %d != |H|(d-1)+1" % out["rank"])
        expect(sum(x * x for x in out["degrees"]) == order, "table degrees do not fill |H|")
        expect(out["mults"][0] == d, "trivial multiplicity %d != d" % out["mults"][0])
        expect(
            all(m == (d - 1) * deg for m, deg in zip(out["mults"][1:], out["degrees"][1:])),
            "character is not trivial + (d-1) regular",
        )

    def _check_verify(self, item, out):
        rank = item["order"] * (len(item["images"]) - 1) + 1
        expect(out["rank"] == rank, "relation module rank")
        expect(out["order_P"] == item["order"] * item["m"] ** rank, "|P| != |H| m^rank")
        expect(out["equal"], "main theorem mismatch")

    def _check_lift(self, item, out):
        key = ("lift", tuple(map(tuple, item["g1"])), tuple(map(tuple, item["tuple"])))
        if key not in self._expected:
            g1 = [zero_based(g) for g in item["g1"]]
            g2 = [zero_based(g) for g in item["g2"]]
            d = len(item["tuple"])
            e1 = sorted(closure(g1, len(g1[0])))
            e2 = sorted(closure(g2, len(g2[0])))
            # Gaschuetz: every generating d-tuple of G2 has the same number
            # of generating lifts, so that number is phi_d(G1) / phi_d(G2)
            phi1 = _generating_tuples(e1, len(g1[0]), d)
            phi2 = _generating_tuples(e2, len(g2[0]), d)
            self._expected[key] = (phi1 // phi2, phi1 % phi2)
        count, rest = self._expected[key]
        expect(rest == 0 and out["count"] == count, "lift count %d, expected %d" % (out["count"], count))

    def _check_jdeg(self, item, out):
        check_jdeg(item["t"], out["degree"])


def check_jdeg(t, deg):
    phi = sum(1 for a in range(1, t) if math.gcd(a, t) == 1)
    known = {3: 1, 5: 2}
    if t in known:
        expect(deg == known[t], "jdeg(%d) = %d, expected %d" % (t, deg, known[t]))
    expect(deg > 0 and phi % deg == 0, "jdeg(%d) = %d does not divide phi" % (t, deg))
    expect(6 * deg >= phi, "6 jdeg(%d) < phi(%d)" % (t, t))
