"""The bundled acceptance corpus: eleven numbered checks covering the
descent criterion, the genus-1 classification, relation modules, the
cohomological lifting equivalence, generator lifting, character tables
and the j-invariant degree bounds.

Each criterion returns (passed, detail); run_corpus evaluates all of them
and the CLI renders one line per criterion.
"""

from __future__ import annotations

import random

from .chartab import character_table, perm_character
from .cohomology import (
    Cocycle2,
    FiniteHModule,
    aut_h,
    build_extension,
    extend_automorphism,
    extension_class,
    h2,
    stabilizer_beta,
)
from .cover import BRANCH_POINTS, BelyiCover, genus, tate_characters, validate
from .cyclotomic import phi_of
from .descent import DOES_NOT_DESCEND, INCONCLUSIVE, descent_report, refine_search
from .errors import PreconditionError
from .gaschuetz import SurjectionProblem, count_lifts, lift_generators, min_generators
from .genus1 import (
    ADMISSIBLE_KUMMER,
    inertia_orders,
    inertia_triples,
    j_invariant_degree,
    kummer_cover,
)
from .permgroup import (
    Permutation,
    alternating_group,
    cyclic_group,
    generate,
    symmetric_group,
    trivial_group,
)
from .relmod import rational_character, schreier_data, verify_main_theorem

DEFAULT_SEED = 20259


def _perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def _quaternion_group():
    return generate(
        [Permutation([2, 3, 4, 1, 6, 7, 8, 5]), Permutation([5, 8, 7, 6, 3, 2, 1, 4])]
    )


def _v4():
    return generate([_perm(4, (1, 2), (3, 4)), _perm(4, (1, 3), (2, 4))])


def _check(cond, detail):
    if not cond:
        raise AssertionError(detail)


def criterion_1():
    """A5 regular cover: the 4-dimensional character fails with n=2, m=4."""
    cover = BelyiCover.regular(_perm(5, (1, 2, 3)), _perm(5, (1, 2, 3, 4, 5)))
    rep = descent_report(cover)
    cd = rep.closure
    tab = character_table(cd.D)
    i4 = tab.degrees.index(4)
    dims = []
    for b in BRANCH_POINTS:
        (e, d) = cd.branch[b][0]
        dims.append(tab.fixed_space_dim(i4, d))
    _check(dims == [2, 0, 0], "fixed dims %s != [2, 0, 0]" % dims)
    row = next(r for r in rep.rows if r["degree"] == 4)
    _check(row["n_V"] == 2 and row["m_V"] == 4, "n, m = %s" % row)
    _check(rep.verdict == DOES_NOT_DESCEND, "verdict %s" % rep.verdict)
    return "dim V^<x> = 2, n_V = 2, m_V = 4, verdict DOES_NOT_DESCEND"


def criterion_2():
    """Degree-6 isogeny cover: trivial character gives n=2, m=4,
    verdict INCONCLUSIVE."""
    cover = BelyiCover(Permutation([2, 4, 5, 1, 6, 3]), Permutation([3, 4, 5, 6, 1, 2]))
    rep = descent_report(cover)
    cd = rep.closure
    _check(cd.H.order == 12 and cd.D.order == 2, "closure is not the A4 instance")
    row = rep.rows[0]
    _check(row["n_V"] == 2 and row["m_V"] == 4, "trivial row %s" % row)
    _check(rep.verdict == INCONCLUSIVE, "verdict %s" % rep.verdict)
    return "-1 + 3 = 2 vs 1 + 3 = 4, verdict INCONCLUSIVE"


def criterion_3():
    """Kummer covers: inertia orders, genus 1, Jacobian = two conjugate
    linear characters."""
    expected = {3: (3, 3, 3), 6: (6, 3, 2), 4: (4, 4, 2)}
    for a, b, d in ADMISSIBLE_KUMMER:
        cover = kummer_cover(a, b, d)
        _check(inertia_orders(a, b, d) == expected[d], "inertia (%d,%d,%d)" % (a, b, d))
        _check(genus(cover) == 1, "genus != 1 at (%d,%d,%d)" % (a, b, d))
        cd = validate(cover)
        _, _, jac = tate_characters(cd)
        tab = jac.table
        nontrivial = [i for i, m in enumerate(jac.mults) if m]
        _check(
            len(nontrivial) == 2
            and all(jac.mults[i] == 1 and tab.degrees[i] == 1 for i in nontrivial)
            and nontrivial[0] != 0
            and nontrivial[1] != 0,
            "Jacobian characters at (%d,%d,%d)" % (a, b, d),
        )
        i, j = nontrivial
        _check(
            all(tab.rows[i][inv] == tab.rows[j][k] for k, inv in enumerate(tab.inverse_class)),
            "characters not conjugate at (%d,%d,%d)" % (a, b, d),
        )
    return "all 6 admissible (a,b,d) verified"


def criterion_4():
    triples = inertia_triples()
    _check(triples == [(6, 3, 2), (4, 4, 2), (3, 3, 3)], "triples %s" % triples)
    return "{(3,3,3), (4,4,2), (6,3,2)}"


def _relmod_groups():
    return [
        trivial_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(6),
        cyclic_group(8),
        cyclic_group(12),
        _v4(),
        symmetric_group(3),
        generate([_perm(4, (1, 2, 3, 4)), _perm(4, (1, 3))]),
        _quaternion_group(),
        alternating_group(4),
        generate([_perm(6, (1, 2, 3, 4, 5, 6)), _perm(6, (1, 6), (2, 5), (3, 4))]),
        symmetric_group(4),
    ]


def _padded_generators(H, d):
    gens = H.small_generating_set()
    if len(gens) > d:
        return None
    return gens + [H.identity()] * (d - len(gens))


def criterion_5():
    """Relation modules for |H| <= 24, d in {1,2,3}: rank and character."""
    checked = 0
    for H in _relmod_groups():
        for d in (1, 2, 3):
            images = _padded_generators(H, d)
            if images is None:
                continue
            rm = schreier_data(H, images)
            _check(
                rm.rank == H.order * (d - 1) + 1,
                "rank at |H|=%d, d=%d" % (H.order, d),
            )
            chi = rational_character(rm)  # raises on a character mismatch
            expected = [(d - 1) * deg for deg in chi.table.degrees]
            expected[0] += 1
            _check(chi.mults == expected, "character at |H|=%d, d=%d" % (H.order, d))
            checked += 1
    return "%d (H, d) instances: rank = |H|(d-1)+1, char = 1 + (d-1)reg" % checked


def criterion_6():
    """Finite main-theorem instances: extension automorphisms realize
    exactly the class stabilizer."""
    H = cyclic_group(2)
    rm = schreier_data(H, [H.elements[1], H.identity()])
    rep = verify_main_theorem(rm, 2)
    _check(rep["equal"] and rep["order_P"] == 16, "Z/2 d=2 m=2: %s" % rep)
    T = trivial_group(1)
    rmT = schreier_data(T, [T.identity()])
    for m in (2, 3, 4):
        _check(verify_main_theorem(rmT, m)["equal"], "trivial H, m=%d" % m)
    Z3 = cyclic_group(3)
    rm3 = schreier_data(Z3, [Z3.generators[0]])
    for m in (2, 4):
        _check(verify_main_theorem(rm3, m)["equal"], "Z/3 d=1 m=%d" % m)
    return "equality for |P|=16, trivial H, and Z/3 with m in {2,4}"


def _module_corpus():
    H2, H3, H4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    s3 = symmetric_group(3)

    def sign(H, n):
        mats = [[[n - 1]] if not g.is_identity() else [[1]] for g in H.generators]
        return FiniteHModule.from_generator_matrices(H, (n,), mats)

    return [
        FiniteHModule.trivial(H2, (2,)),
        FiniteHModule.trivial(H2, (4,)),
        FiniteHModule.trivial(H2, (2, 2)),
        sign(H2, 4),
        FiniteHModule.from_generator_matrices(H2, (2, 2), [[[0, 1], [1, 0]]]),
        FiniteHModule.trivial(H3, (3,)),
        FiniteHModule.from_generator_matrices(H3, (2, 2), [[[0, 1], [1, 1]]]),
        FiniteHModule.trivial(H4, (4,)),
        sign(H4, 4),
        FiniteHModule.trivial(_v4(), (2,)),
        FiniteHModule.trivial(s3, (2,)),
        # symmetric_group(3) generators are ((1 2), (1 2 3)); send them to
        # the swap and an order-3 matrix for the standard representation
        FiniteHModule.from_generator_matrices(
            s3, (2, 2), [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]
        ),
        FiniteHModule.from_generator_matrices(s3, (3,), [[[2]], [[1]]]),
    ]


def criterion_7():
    """extend_automorphism succeeds exactly on class-stabilizer members."""
    instances = 0
    for M in _module_corpus():
        data = h2(M)
        autos = aut_h(M)
        reps = [Cocycle2.zero(M)]
        for inv, b in zip(data.invariants, data.basis):
            reps = [r + b.scale(s) for r in reps for s in range(inv)]
        for beta in reps:
            E = build_extension(M, beta)
            _check(
                data.class_of(extension_class(E)) == data.class_of(beta),
                "extension class round trip",
            )
            stab = stabilizer_beta(autos, beta, data)
            for gamma in autos:
                phi = extend_automorphism(gamma, E)
                _check(
                    (phi is not None) == (gamma in stab),
                    "lifting mismatch at |H|=%d, |M|=%d" % (M.H.order, M.size),
                )
                instances += 1
    return "%d (gamma, beta) pairs: extend iff class fixed" % instances


def _surjection_corpus():
    z4, z6, z8 = cyclic_group(4), cyclic_group(6), cyclic_group(8)
    z12 = cyclic_group(12)
    v4 = _v4()
    s3 = symmetric_group(3)
    d4 = generate([_perm(4, (1, 2, 3, 4)), _perm(4, (1, 3))])
    q8 = _quaternion_group()
    a4 = alternating_group(4)
    return [
        (z4, [z4.generators[0] ** 2]),
        (z6, [z6.generators[0] ** 2]),
        (z6, [z6.generators[0] ** 3]),
        (z8, [z8.generators[0] ** 4]),
        (z12, [z12.generators[0] ** 6]),
        (v4, [v4.generators[0]]),
        (s3, [_perm(3, (1, 2, 3))]),
        (d4, [_perm(4, (1, 3), (2, 4))]),
        (q8, [g for g in q8.elements if g.order() == 2]),
        (a4, [_perm(4, (1, 2), (3, 4)), _perm(4, (1, 3), (2, 4))]),
    ]


def criterion_8():
    """Generator lifting succeeds and the lift count is tuple-invariant."""
    import itertools

    surjections = 0
    for G1, ngens in _surjection_corpus():
        N = generate(ngens)
        G2, _, project = G1.coset_action(N)
        d = max(min_generators(G1), 1)
        counts = set()
        for S2 in itertools.product(G2.elements, repeat=d):
            if generate(list(S2)).order != G2.order:
                continue
            p = SurjectionProblem(G1, G2, project, S2)
            lift = lift_generators(p)
            _check(
                [project(g) for g in lift] == list(S2), "lift does not cover S2"
            )
            _check(generate(list(lift)).order == G1.order, "lift does not generate")
            counts.add(count_lifts(p))
        _check(len(counts) == 1 and counts.pop() > 0, "count varies or vanishes")
        surjections += 1
    return "%d surjections: lifts found, count tuple-invariant" % surjections


def _table_groups():
    """The groups whose character tables criterion 9 builds."""
    groups = [cyclic_group(n) for n in range(2, 13)]
    groups += [symmetric_group(3), _v4(), _quaternion_group()]
    return groups + [alternating_group(4), alternating_group(5)]


def criterion_9():
    """Character-table suite: orthogonality, degree sums, Burnside."""
    groups = _table_groups()
    for G in groups:
        tab = character_table(G)  # orthogonality is validated on build
        _check(
            sum(d * d for d in tab.degrees) == G.order,
            "degree sum at |G|=%d" % G.order,
        )
        chi = perm_character(G)
        for rep, _ in tab.classes:
            dim = sum(
                m * tab.fixed_space_dim(i, rep) for i, m in enumerate(chi.mults) if m
            )
            _check(dim == rep.cycle_count(), "Burnside at |G|=%d" % G.order)
    return "%d tables: orthogonality, sum d^2 = |G|, Burnside" % len(groups)


def random_covers(seed=DEFAULT_SEED):
    """The first 200 transitive random pairs of degree 2..8 drawn from the
    seed, as covers: criterion 10's inputs."""
    rng = random.Random(seed)
    covers = []
    while len(covers) < 200:
        n = rng.randint(2, 8)
        try:
            covers.append(
                BelyiCover(
                    Permutation(rng.sample(range(1, n + 1), n)),
                    Permutation(rng.sample(range(1, n + 1), n)),
                )
            )
        except PreconditionError:
            continue
    return covers


def criterion_10(seed=DEFAULT_SEED):
    """Structural properties on 200 seeded random transitive covers."""
    for done, cover in enumerate(random_covers(seed), 1):
        rep = descent_report(cover)
        cd = rep.closure
        left, middle, jac = tate_characters(cd)
        g = genus(cover)
        _check(jac.degree == 2 * g, "deg jac != 2g at cover %d" % done)
        for i, (n_V, m_V) in enumerate(zip(left.mults, middle.mults)):
            _check(0 <= n_V <= m_V, "n_V out of range at cover %d" % done)
        # middle = trivial + [H:W]*regular, i.e. D acts freely on J\H
        expect = [cd.index_HW * d for d in middle.table.degrees]
        expect[0] += 1
        _check(middle.mults == expect, "middle term at cover %d" % done)
        if cd.is_galois:
            for r in rep.rows:
                if r["degree"] == 1:
                    _check(r["passes"], "1-dim failure on Galois cover %d" % done)
        certs = refine_search(cd)
        if certs:
            _check(
                all(r["passes"] for r in rep.rows),
                "certificate without the main criterion at cover %d" % done,
            )
    return "200 covers: jac degree, bounds, Galois linear, certificates"


def criterion_11():
    """j-invariant degree: values and bounds for odd t up to 200."""
    _check(j_invariant_degree(3) == 1, "t=3")
    _check(j_invariant_degree(5) == 2, "t=5")
    for t in range(3, 201, 2):
        deg = j_invariant_degree(t)
        phi = phi_of(t)
        _check(6 * deg >= phi, "6*deg < phi at t=%d" % t)
        if phi > 24:
            _check(deg > 4, "deg <= 4 with phi > 24 at t=%d" % t)
    return "t=3 -> 1, t=5 -> 2; bounds hold for odd t <= 200"


CRITERIA = [
    (1, "A5 regular cover descent failure", criterion_1),
    (2, "isogeny cover inconclusive verdict", criterion_2),
    (3, "Kummer cover inertia, genus, Jacobian", criterion_3),
    (4, "inertia triple enumeration", criterion_4),
    (5, "relation module rank and character", criterion_5),
    (6, "extension automorphism equality", criterion_6),
    (7, "lifting equivalence over module corpus", criterion_7),
    (8, "generator lifting and count invariance", criterion_8),
    (9, "character table suite", criterion_9),
    (10, "random cover structural properties", criterion_10),
    (11, "j-invariant degree bounds", criterion_11),
]


def run_corpus(seed=DEFAULT_SEED):
    """Evaluate every criterion; returns a list of result dicts."""
    results = []
    for number, description, fn in CRITERIA:
        try:
            if fn is criterion_10:
                detail = fn(seed)
            else:
                detail = fn()
            passed = True
        except Exception as exc:  # report any failure, keep going
            detail = "%s: %s" % (type(exc).__name__, exc)
            passed = False
        results.append(
            {
                "criterion": number,
                "description": description,
                "pass": passed,
                "detail": detail,
            }
        )
    return results
