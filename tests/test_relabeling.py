"""Invariance of the algebra layer under relabeling the points of H.

Conjugating H's generators by a permutation pi gives the same abstract
group with another sorted element list, so the positions of its Cayley
table, which modules, cocycles and relation modules are indexed by, stand
for other elements.  H^2, Aut_H(M), the class stabilizers, the
main-theorem report, the relation module and the Gaschuetz lift counts
must not change; a position read as the wrong element would change them.
"""

import itertools
import random

import pytest

from belyilab.cohomology import Cocycle2, FiniteHModule, aut_h, h2, stabilizer_beta
from belyilab.corpus import (
    _module_corpus,
    _padded_generators,
    _relmod_groups,
    _surjection_corpus,
)
from belyilab.gaschuetz import SurjectionProblem, count_lifts, min_generators
from belyilab.permgroup import PermGroup, Permutation, cyclic_group, generate
from belyilab.relmod import rational_character, schreier_data, verify_main_theorem
from test_cohomology import all_classes

SEEDS = [1, 2]


def conjugator(rng, n):
    return Permutation(rng.sample(range(1, n + 1), n))


def conjugate(pi, g):
    return pi.inverse() * g * pi


def relabeled(H, pi):
    """(H conjugated by pi, with its generators in the same order, and the
    list sending each position of H to the position of its conjugate)."""
    H2 = PermGroup([conjugate(pi, g) for g in H.generators])
    return H2, [H2.elements.index(conjugate(pi, h)) for h in H.elements]


def moved_count(positions):
    return sum(i != j for i, j in enumerate(positions))


def modules():
    """The criterion-7 corpus and Z/4 swapping the coordinates of (Z/2)^2,
    where an element of order 2 acts trivially: whether position 1 holds
    a generator depends on the labels."""
    z4_swap = FiniteHModule.from_generator_matrices(cyclic_group(4), (2, 2), [[[0, 1], [1, 0]]])
    return _module_corpus() + [z4_swap]


@pytest.mark.parametrize("seed", SEEDS)
def test_h2_aut_and_stabilizers(seed):
    rng = random.Random(seed)
    moved = 0
    for M, _ in itertools.product(modules(), range(3)):  # three labelings each
        H2, pos = relabeled(M.H, conjugator(rng, M.H.degree))
        moved += moved_count(pos)
        gen_mats = [M.action[M.H.elements.index(g)] for g in M.H.generators]
        M2 = FiniteHModule.from_generator_matrices(H2, M.shape, gen_mats)
        assert all(M2.action[pos[h]] == A for h, A in enumerate(M.action))
        data, data2 = h2(M), h2(M2)
        assert data.invariants == data2.invariants
        autos, autos2 = aut_h(M), aut_h(M2)
        assert sorted(autos) == sorted(autos2)
        classes = set()
        for beta in all_classes(M, data):
            table = [[None] * M.H.order for _ in range(M.H.order)]
            for h1, h2_ in itertools.product(range(M.H.order), repeat=2):
                table[pos[h1]][pos[h2_]] = beta.table[h1][h2_]
            beta2 = Cocycle2(M2, table)
            classes.add(data2.class_of(beta2))
            stab = stabilizer_beta(autos, beta, data)
            assert len(stab) == len(stabilizer_beta(autos2, beta2, data2))
        # the transported representatives still lie in distinct classes
        assert len(classes) == data.order
    assert moved > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_main_theorem_report(seed):
    rng = random.Random(seed)
    z2, z3 = cyclic_group(2), cyclic_group(3)
    instances = [
        (z2, [z2.elements[1], z2.identity()], 2),
        (z3, [z3.generators[0]], 2),
        (z3, [z3.generators[0]], 4),
        (z3, [z3.generators[0] ** 2], 2),
    ]
    for H, images, m in instances:
        pi = conjugator(rng, H.degree)
        H2, _ = relabeled(H, pi)
        images2 = [conjugate(pi, g) for g in images]
        report = verify_main_theorem(schreier_data(H, images), m)
        assert report["equal"]
        assert verify_main_theorem(schreier_data(H2, images2), m) == report


@pytest.mark.parametrize("seed", SEEDS)
def test_relation_module(seed):
    rng = random.Random(seed)
    moved = 0
    for H in _relmod_groups():
        pi = conjugator(rng, H.degree)
        H2, pos = relabeled(H, pi)
        moved += moved_count(pos)
        for d in (1, 2, 3):
            images = _padded_generators(H, d)
            if images is None:
                continue
            rm = schreier_data(H, images)
            rm2 = schreier_data(H2, [conjugate(pi, g) for g in images])
            assert rm2.rank == rm.rank
            # the transversal is built from the words alone, so each
            # element's conjugation matrix moves with the element
            assert all(rm2.action[pos[h]] == A for h, A in enumerate(rm.action))
            chi, chi2 = rational_character(rm), rational_character(rm2)
            # the order of the irreducibles follows class representatives,
            # which relabeling may change
            assert sorted(zip(chi.table.degrees, chi.mults)) == sorted(
                zip(chi2.table.degrees, chi2.mults)
            )
    assert moved > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_lift_counts(seed):
    rng = random.Random(seed)
    for G1, ngens in _surjection_corpus():
        G2, _, project = G1.coset_action(generate(ngens))
        d = max(min_generators(G1), 1)
        S2 = next(
            list(tup)
            for tup in itertools.product(G2.elements, repeat=d)
            if generate(list(tup)).order == G2.order
        )
        count = count_lifts(SurjectionProblem(G1, G2, project, S2))
        pi, rho = conjugator(rng, G1.degree), conjugator(rng, G2.degree)
        G1r, _ = relabeled(G1, pi)
        G2r, _ = relabeled(G2, rho)

        def psi(g):
            return conjugate(rho, project(conjugate(pi.inverse(), g)))

        S2r = [conjugate(rho, s) for s in S2]
        assert count_lifts(SurjectionProblem(G1r, G2r, psi, S2r)) == count
