"""sympy as an independent oracle for the stdlib replacements: group
orders (Schreier-Sims), factorization, Euler phi, primality and cyclotomic
polynomials.  sympy is a test dependency only; the package never imports it."""

import os
import random
import subprocess
import sys

import sympy
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup

import belyilab
from belyilab.cyclotomic import cyclotomic_coeffs, factorint, isprime, phi_of
from belyilab.permgroup import PermGroup, Permutation


def test_group_order_matches_sympy():
    rng = random.Random(1203)
    for _ in range(150):
        n = rng.randint(1, 12)
        gens = [Permutation(rng.sample(range(n), n), zero_based=True) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            # an element of smaller support keeps some groups intransitive
            k = rng.randint(1, n)
            gens.append(Permutation(rng.sample(range(k), k) + list(range(k, n)), zero_based=True))
        expected = PermutationGroup([SymPerm(list(g.imgs)) for g in gens]).order()
        assert PermGroup(gens).order == expected


def test_number_theory_matches_sympy():
    x = sympy.Symbol("x")
    for N in range(1, 501):
        assert factorint(N) == {int(p): int(e) for p, e in sympy.factorint(N).items()}, N
        assert phi_of(N) == int(sympy.totient(N)), N
        poly = sympy.cyclotomic_poly(N, x, polys=True)
        assert list(cyclotomic_coeffs(N)) == [int(c) for c in reversed(poly.all_coeffs())], N


def test_isprime_matches_sympy():
    assert [n for n in range(-2, 20001) if isprime(n)] == list(sympy.primerange(2, 20001))


def test_cli_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(belyilab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, belyilab.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
