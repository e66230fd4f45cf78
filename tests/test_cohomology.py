import itertools
from collections import Counter

import pytest

from belyilab import cohomology
from belyilab.cohomology import (
    Cocycle2,
    ExtensionGroup,
    FiniteHModule,
    apply_aut,
    aut_h,
    build_extension,
    extend_automorphism,
    extension_class,
    h2,
    stabilizer_beta,
)
from belyilab.errors import InternalError, PreconditionError
from belyilab.permgroup import Permutation, cyclic_group, generate, trivial_group


def perm(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def v4():
    return generate([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])


def s3():
    return generate([perm(3, (1, 2, 3)), perm(3, (1, 2))])


def sign_module(H, n):
    """Z/n with every non-identity generator acting by -1 (needs the
    generators to have even order or n | 2)."""
    mats = [[[n - 1]] if not g.is_identity() else [[1]] for g in H.generators]
    return FiniteHModule.from_generator_matrices(H, (n,), mats)


def brute_force_h2_order(M):
    """|H^2| by enumerating every normalized table and every normalized
    1-cochain directly; elements of H are multiplied as permutations and
    looked up by position."""
    pos = {h: i for i, h in enumerate(M.H.elements)}

    def mul(a, b):
        return pos[M.H.elements[a] * M.H.elements[b]]

    nonid = range(1, M.H.order)
    values = M.elements()
    pairs = [(a, b) for a in nonid for b in nonid]

    def full(table):
        t = dict(table)
        for h in range(M.H.order):
            t[(0, h)] = M.zero()
            t[(h, 0)] = M.zero()
        return t

    cocycles = []
    for choice in itertools.product(values, repeat=len(pairs)):
        t = full(dict(zip(pairs, choice)))
        ok = True
        for h1 in nonid:
            for h2 in nonid:
                for h3 in nonid:
                    lhs = M.apply(h1, t[(h2, h3)])
                    lhs = M.sub(lhs, t[(mul(h1, h2), h3)])
                    lhs = M.add(lhs, t[(h1, mul(h2, h3))])
                    lhs = M.sub(lhs, t[(h1, h2)])
                    if lhs != M.zero():
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            cocycles.append(tuple(t[p] for p in pairs))
    coboundaries = set()
    for choice in itertools.product(values, repeat=len(nonid)):
        c = dict(zip(nonid, choice))
        c[0] = M.zero()
        t = tuple(
            M.sub(M.add(M.apply(a, c[b]), c[a]), c[mul(a, b)]) for a, b in pairs
        )
        coboundaries.add(t)
    assert len(cocycles) % len(coboundaries) == 0
    return len(cocycles) // len(coboundaries)


def sparse_table(M, values):
    """The |H| x |H| cochain table with values[(i, j)] at positions (i, j)
    and zero elsewhere."""
    n = M.H.order
    return [[values.get((i, j), M.zero()) for j in range(n)] for i in range(n)]


def all_classes(M, data):
    """One representative cocycle per class of H^2."""
    reps = [Cocycle2.zero(M)]
    for inv, b in zip(data.invariants, data.basis):
        reps = [r + b.scale(s) for r in reps for s in range(inv)]
    assert len({data.class_of(r) for r in reps}) == len(reps)
    return reps


class TestFiniteHModule:
    def test_action_must_cover_all_elements(self):
        H = cyclic_group(2)
        with pytest.raises(PreconditionError):
            FiniteHModule(H, (2,), [[[1]]])

    def test_identity_must_act_trivially(self):
        H = cyclic_group(2)
        with pytest.raises(PreconditionError):
            FiniteHModule(H, (3,), [[[2]], [[1]]])

    def test_homomorphism_enforced(self):
        H = cyclic_group(3)
        # positions 0, 1, 2: the identity and the two generators
        with pytest.raises(PreconditionError):
            FiniteHModule(H, (7,), [[[1]], [[2]], [[2]]])

    def test_entry_well_definedness(self):
        # a map Z/2 -> Z/4 must have even matrix entry in that slot
        H = cyclic_group(2)
        with pytest.raises(PreconditionError):
            FiniteHModule.from_generator_matrices(H, (4, 2), [[[1, 1], [0, 1]]])
        FiniteHModule.from_generator_matrices(H, (4, 2), [[[1, 2], [0, 1]]])

    def test_sign_module_is_valid(self):
        M = sign_module(cyclic_group(2), 3)
        assert M.apply(1, (1,)) == (2,)


class TestH2Structure:
    def test_trivial_group_trivial_h2(self):
        T = trivial_group(1)
        data = h2(FiniteHModule.trivial(T, (4,)))
        assert data.invariants == [] and data.order == 1

    def test_cyclic_self_coefficients(self):
        for n in (2, 3, 4):
            data = h2(FiniteHModule.trivial(cyclic_group(n), (n,)))
            assert data.invariants == [n]

    def test_matches_brute_force_small(self):
        H2 = cyclic_group(2)
        H3 = cyclic_group(3)
        H4 = cyclic_group(4)
        cases = [
            FiniteHModule.trivial(H2, (2,)),
            FiniteHModule.trivial(H2, (4,)),
            FiniteHModule.trivial(H2, (2, 2)),
            sign_module(H2, 3),
            sign_module(H2, 4),
            FiniteHModule.trivial(H3, (3,)),
            FiniteHModule.trivial(H3, (2,)),
            FiniteHModule.trivial(H4, (2,)),
            FiniteHModule.trivial(v4(), (2,)),
        ]
        for M in cases:
            data = h2(M)
            assert data.order == brute_force_h2_order(M)

    def test_coprime_coefficients_vanish(self):
        assert h2(FiniteHModule.trivial(cyclic_group(3), (4,))).order == 1
        assert h2(sign_module(cyclic_group(2), 3)).order == 1

    def test_induced_module_vanishes(self):
        # Z/2 permuting the coordinates of (Z/2)^2 is the regular module
        H = cyclic_group(2)
        M = FiniteHModule.from_generator_matrices(H, (2, 2), [[[0, 1], [1, 0]]])
        assert h2(M).order == 1

    def test_class_of_zero_and_basis(self):
        M = FiniteHModule.trivial(cyclic_group(4), (4,))
        data = h2(M)
        assert data.class_of(Cocycle2.zero(M)) == (0,)
        reps = all_classes(M, data)
        assert len(reps) == 4


class TestExtensionClass:
    def z4_over_z2(self):
        H = cyclic_group(2)
        M = FiniteHModule.trivial(H, (2,))
        beta = Cocycle2(M, sparse_table(M, {(1, 1): (1,)}))
        return M, beta

    def test_z4_class_nonzero(self):
        M, beta = self.z4_over_z2()
        E = build_extension(M, beta)
        T = E.group
        assert Counter(map(T.order_of, range(T.n))) == {1: 1, 2: 1, 4: 2}
        data = h2(M)
        assert data.class_of(extension_class(E)) == data.class_of(beta) != (0,)

    def test_split_extension_zero_cocycle(self):
        M = FiniteHModule.trivial(cyclic_group(2), (2,))
        E = build_extension(M, Cocycle2.zero(M))
        assert extension_class(E).table == Cocycle2.zero(M).table

    def test_section_independence(self):
        M, beta = self.z4_over_z2()
        E = build_extension(M, beta)
        data = h2(M)
        ref = data.class_of(extension_class(E))
        shifted = [(0, (0,)), (1, (1,))]
        assert data.class_of(extension_class(E, shifted)) == ref

    def test_bad_section_rejected(self):
        M, beta = self.z4_over_z2()
        E = build_extension(M, beta)
        bad = [(0, (0,))] * 2
        with pytest.raises(PreconditionError):
            extension_class(E, bad)

    def test_round_trip_over_classes(self):
        H = cyclic_group(3)
        M = FiniteHModule.trivial(H, (3,))
        data = h2(M)
        for beta in all_classes(M, data):
            E = build_extension(M, beta)
            assert data.class_of(extension_class(E)) == data.class_of(beta)


class TestAutH:
    def test_trivial_module(self):
        assert len(aut_h(FiniteHModule.trivial(trivial_group(1), (2,)))) == 1

    def test_swap_commutant(self):
        H = cyclic_group(2)
        M = FiniteHModule.from_generator_matrices(H, (2, 2), [[[0, 1], [1, 0]]])
        assert len(aut_h(M)) == 2

    def test_units_mod_3(self):
        auts = aut_h(FiniteHModule.trivial(trivial_group(1), (3,)))
        assert sorted(a[0][0] for a in auts) == [1, 2]

    def test_gl2_f2_order(self):
        M = FiniteHModule.trivial(trivial_group(1), (2, 2))
        assert len(aut_h(M)) == 6

    def test_end_limit_edges(self, monkeypatch):
        # End_H of trivial H on (Z/2)^2 is all 16 matrices: admitted with
        # the bound at 16 and refused at 15 (a real |End_H| = 2^16 takes
        # seconds to enumerate, so the bound is patched low)
        M = FiniteHModule.trivial(trivial_group(1), (2, 2))
        monkeypatch.setattr(cohomology, "_END_LIMIT", 16)
        assert len(aut_h(M)) == 6
        monkeypatch.setattr(cohomology, "_END_LIMIT", 15)
        with pytest.raises(PreconditionError, match="too large for automorphism enumeration"):
            aut_h(M)


class TestInternalFaults:
    def test_a_dropped_generator_is_caught(self, monkeypatch):
        # the equivariance congruences of one generator dropped: where that
        # loses a congruence, the lattice holds homomorphisms R-bar -> M
        # that are not H-equivariant, and the basis cocycle h2 reads off
        # one fails the cocycle identity, a fault of h2 and not bad input;
        # a drop that loses nothing changes nothing
        from belyilab.corpus import _module_corpus

        rows = cohomology._equivariance_rows
        fired = 0
        for M in _module_corpus():
            want = h2(M).invariants
            for drop in range(len(M.T.gens)):
                fewer = M.T.gens[:drop] + M.T.gens[drop + 1 :]
                monkeypatch.setattr(
                    cohomology,
                    "_equivariance_rows",
                    lambda M, source, N=fewer: rows(M, {g: source[g] for g in N}),
                )
                try:
                    got = h2(M).invariants
                except InternalError as exc:
                    assert "basis cocycle fails the cocycle identity" in str(exc)
                    fired += 1
                else:
                    assert got == want
                monkeypatch.setattr(cohomology, "_equivariance_rows", rows)
        assert fired == 10

    def test_a_doubled_restriction_fails_the_round_trip(self, monkeypatch):
        # f_beta read off the tree twice over: still in the lattice, so
        # class_of returns 2 e_i for basis cocycle i, which h2's round trip
        # refuses wherever H^2 is nontrivial
        from belyilab.corpus import _module_corpus

        modules = _module_corpus()
        nontrivial = sum(h2(M).order > 1 for M in modules)
        restriction = cohomology._restriction
        monkeypatch.setattr(
            cohomology, "_restriction", lambda *args: [2 * x for x in restriction(*args)]
        )
        fired = 0
        for M in modules:
            try:
                assert h2(M).order == 1
            except InternalError as exc:
                assert "basis cocycle does not map to its unit class" in str(exc)
                fired += 1
        assert fired == nontrivial == 10

    def test_an_extension_read_against_another_action_is_caught(self):
        # the extension of Z/2 by trivial Z/4 with beta(1, 1) = 1 read as
        # one over the sign module: its class table fails the sign
        # module's cocycle identity, which only a fault inside the library
        # can bring about
        H = cyclic_group(2)
        M = FiniteHModule.trivial(H, (4,))
        E = build_extension(M, Cocycle2(M, sparse_table(M, {(1, 1): (1,)})))
        assert extension_class(E).table[1][1] == (1,)
        E.module = sign_module(H, 4)
        with pytest.raises(InternalError, match="extension class fails the cocycle identity"):
            extension_class(E)


class TestAutHChecks:
    def test_a_dropped_commutation_congruence_is_caught(self, monkeypatch):
        # Z/2 acting by [[3,0],[0,1]] on (Z/4)^2: X commutes exactly when
        # 2 X[0][1] = 2 X[1][0] = 0 mod 4.  With one congruence dropped the
        # lattice holds matrices that do not commute, and aut_h raises
        # instead of skipping them; a drop that loses nothing changes
        # nothing.
        M = FiniteHModule.from_generator_matrices(cyclic_group(2), (4, 4), [[[3, 0], [0, 1]]])
        rows = cohomology._end_h_rows(M)
        want = aut_h(M)
        fired = 0
        for i in range(len(rows)):
            monkeypatch.setattr(cohomology, "_end_h_rows", lambda M, i=i: rows[:i] + rows[i + 1 :])
            try:
                got = aut_h(M)
            except InternalError as exc:
                assert "does not commute" in str(exc)
                fired += 1
            else:
                assert got == want
        assert fired == len(rows) == 2


class TestExtendAutomorphismChecks:
    def test_a_perturbed_cochain_is_caught(self, monkeypatch):
        # one value of the solved 1-cochain moved by 1: on trivial Z/3 by
        # Z/3 the result is no derivation, so the map is a bijection but
        # not a homomorphism
        M = FiniteHModule.trivial(cyclic_group(3), (3,))
        E = build_extension(M, h2(M).basis[0])
        assert extend_automorphism(((1,),), E) is not None
        solve = cohomology.solve_mod_from_snf

        def perturbed(*args):
            sol = solve(*args)
            return None if sol is None else [sol[0] + 1] + sol[1:]

        monkeypatch.setattr(cohomology, "solve_mod_from_snf", perturbed)
        with pytest.raises(InternalError, match="not a homomorphism"):
            extend_automorphism(((1,),), E)


class TestStabilizerAndLifting:
    def test_zero_class_stabilized_by_all(self):
        M = FiniteHModule.trivial(cyclic_group(2), (4,))
        data = h2(M)
        autos = aut_h(M)
        assert stabilizer_beta(autos, Cocycle2.zero(M), data) == autos

    def test_z8_class_times_three(self):
        # H^2(Z/2, Z/4) has exponent 2, so 3*beta is always cohomologous
        H = cyclic_group(2)
        M = FiniteHModule.trivial(H, (4,))
        data = h2(M)
        assert data.invariants == [2]
        beta = Cocycle2(M, sparse_table(M, {(1, 1): (1,)}))
        three = ((3,),)
        assert three in aut_h(M)
        assert data.class_of(apply_aut(three, beta)) == data.class_of(beta)

    def test_identity_extends_with_zero_cochain(self):
        M = FiniteHModule.trivial(cyclic_group(2), (2,))
        E = build_extension(M, Cocycle2(M, sparse_table(M, {(1, 1): (1,)})))
        ident = ((1,),)
        phi = extend_automorphism(ident, E)
        assert phi is not None
        assert all(phi[e] == e for e in E.elements)

    def test_non_equivariant_rejected(self):
        H = cyclic_group(2)
        M = FiniteHModule.from_generator_matrices(H, (2, 2), [[[0, 1], [1, 0]]])
        E = build_extension(M, Cocycle2.zero(M))
        with pytest.raises(PreconditionError):
            extend_automorphism(((1, 1), (0, 1)), E)

    def test_an_ill_defined_gamma_is_rejected(self):
        # gamma sends the generator of Z/2 to 1 in Z/4, no map Z/2 -> Z/4
        # as 2 * 1 != 0 mod 4.  It commutes with the trivial action and its
        # columns with the relations span Z^2, so only the well-definedness
        # check refuses it; as an action matrix it is refused by entry.
        # Matrices of the wrong size stay refused.
        bad, good = ((1, 0), (1, 1)), ((1, 0), (2, 1))
        refused = "gamma is not an H-equivariant module automorphism"
        for H in (trivial_group(1), cyclic_group(2)):
            M = FiniteHModule.trivial(H, (2, 4))
            for beta in [Cocycle2.zero(M)] + h2(M).basis:
                E = build_extension(M, beta)
                with pytest.raises(PreconditionError, match=refused):
                    apply_aut(bad, beta)
                with pytest.raises(PreconditionError, match=refused):
                    extend_automorphism(bad, E)
                assert apply_aut(good, beta).module is M
                assert extend_automorphism(good, E) is not None
                for wrong_size in (((1,),), good + ((5, 5),), ((1, 0, 7), (0, 1, 9))):
                    with pytest.raises(PreconditionError, match=refused):
                        apply_aut(wrong_size, beta)
        named = r"entry \(1,0\) is not a well-defined map Z/2 -> Z/4"
        with pytest.raises(PreconditionError, match=named):
            FiniteHModule.from_generator_matrices(cyclic_group(2), (2, 4), [bad])


def lifting_corpus():
    """(H, M) instances with |H|*|M| <= 64 covering trivial and
    nontrivial actions."""
    H2, H3, H4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    out = [
        FiniteHModule.trivial(H2, (2,)),
        FiniteHModule.trivial(H2, (4,)),
        FiniteHModule.trivial(H2, (2, 2)),
        sign_module(H2, 4),
        FiniteHModule.from_generator_matrices(H2, (2, 2), [[[0, 1], [1, 0]]]),
        FiniteHModule.trivial(H3, (3,)),
        FiniteHModule.from_generator_matrices(H3, (2, 2), [[[0, 1], [1, 1]]]),
        FiniteHModule.trivial(H4, (4,)),
        sign_module(H4, 4),
        FiniteHModule.trivial(v4(), (2,)),
        FiniteHModule.from_generator_matrices(
            v4(), (2, 2), [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]
        ),
        FiniteHModule.trivial(s3(), (2,)),
        FiniteHModule.from_generator_matrices(
            s3(), (2, 2), [[[0, 1], [1, 1]], [[0, 1], [1, 0]]]
        ),
        FiniteHModule.from_generator_matrices(
            s3(), (3,), [[[1]], [[2]]]
        ),
    ]
    return [M for M in out if M is not None and M.H.order * M.size <= 64]


class TestLiftingEquivalence:
    def test_extend_iff_stabilizer(self):
        # an automorphism of the module extends to the extension group
        # exactly when it fixes the extension class
        for M in lifting_corpus():
            data = h2(M)
            autos = aut_h(M)
            for beta in all_classes(M, data):
                E = build_extension(M, beta)
                stab = stabilizer_beta(autos, beta, data)
                for gamma in autos:
                    phi = extend_automorphism(gamma, E)
                    if gamma in stab:
                        assert phi is not None
                        # restricts to gamma on the fiber, identity on H
                        for a in E.elements:
                            assert phi[a][0] == a[0]
                        for m in M.elements():
                            a = E.embed(m)
                            want = tuple(
                                sum(r * x for r, x in zip(row, m)) % mod
                                for row, mod in zip(gamma, M.shape)
                            )
                            assert phi[a][1] == want
                    else:
                        assert phi is None

    def test_round_trip_on_corpus(self):
        for M in lifting_corpus():
            data = h2(M)
            for beta in all_classes(M, data):
                E = build_extension(M, beta)
                assert data.class_of(extension_class(E)) == data.class_of(beta)


class TestTrustedCocycles:
    def test_sums_multiples_and_pushes_pass_the_full_check(self):
        # __add__, scale and apply_aut skip the cocycle identity; the
        # checked constructor accepts each of their tables
        from belyilab.corpus import _module_corpus

        for M in _module_corpus():
            data = h2(M)
            reps = all_classes(M, data)
            made = [r.scale(s) for r in reps for s in (0, 2, 3)]
            made += [a + b for a in reps for b in data.basis]
            made += [apply_aut(g, r) for g in aut_h(M) for r in reps]
            for r in made:
                assert Cocycle2(M, r.table).table == r.table

    def test_class_of_a_bumped_table_is_an_internal_error(self):
        # one value of a trusted table bumped so that a cocycle identity
        # fails is outside the cocycle lattice: class_of raises instead of
        # returning a class
        from belyilab.corpus import _module_corpus

        bumped = 0
        for M in _module_corpus():
            data = h2(M)
            for beta in [Cocycle2.zero(M)] + data.basis:
                for a, b, r in itertools.product(range(1, M.T.n), range(1, M.T.n), range(M.k)):
                    table = [list(row) for row in beta.table]
                    table[a][b] = M.add(table[a][b], [int(s == r) for s in range(M.k)])
                    try:
                        Cocycle2(M, table)
                        continue
                    except PreconditionError:
                        bumped += 1
                    with pytest.raises(InternalError, match="outside the cocycle lattice"):
                        data.class_of(Cocycle2._trusted(M, table))
        assert bumped > 100

    def test_apply_aut_rejects_non_equivariant_matrices(self):
        H = cyclic_group(2)
        M = FiniteHModule.from_generator_matrices(H, (2, 2), [[[0, 1], [1, 0]]])
        with pytest.raises(PreconditionError, match="H-equivariant"):
            apply_aut(((1, 1), (0, 1)), Cocycle2.zero(M))
        with pytest.raises(PreconditionError, match="H-equivariant"):
            apply_aut(((1, 1), (1, 1)), Cocycle2.zero(M))


class TestClassOfModule:
    def test_coboundary_of_another_action_is_rejected(self):
        # a coboundary for Z/3 acting by [[0,1],[1,1]] on (Z/2)^2 is not a
        # cocycle of the trivial module of the same shape
        H = cyclic_group(3)
        M = FiniteHModule.from_generator_matrices(H, (2, 2), [[[0, 1], [1, 1]]])
        c = [(0, 0), (1, 0), (0, 1)]
        t = M.T.table
        table = [
            [M.sub(M.add(M.apply(a, c[b]), c[a]), c[t[a][b]]) for b in range(3)]
            for a in range(3)
        ]
        beta = Cocycle2(M, table)
        with pytest.raises(PreconditionError, match="different module"):
            h2(FiniteHModule.trivial(H, (2, 2))).class_of(beta)

    def test_sign_cocycle_is_rejected_by_the_trivial_module(self):
        H = cyclic_group(2)
        M = sign_module(H, 4)
        beta = Cocycle2(M, sparse_table(M, {(1, 1): (2,)}))
        with pytest.raises(PreconditionError, match="different module"):
            h2(FiniteHModule.trivial(H, (4,))).class_of(beta)

    def test_equal_module_built_twice_is_accepted(self):
        H = cyclic_group(2)
        M, N = sign_module(H, 4), sign_module(H, 4)
        beta = Cocycle2(N, sparse_table(N, {(1, 1): (2,)}))
        assert h2(M).class_of(beta) == h2(N).class_of(beta)
