"""Exact character tables of finite groups via Dixon's method.

Class-sum matrices are diagonalized over a prime field F_p with
p = 1 (mod exponent) and p large enough to recover degrees and eigenvalue
multiplicities as honest integers; values are then lifted to exact
Cyclotomic numbers at the group exponent's conductor through a fixed
primitive root of unity in F_p.  Every table is validated against row
orthogonality and the degree sum before it is returned.  The F_p linear
algebra is snf's; this module builds the class sums, drives the
eigenspace split, lifts the values and orders the rows.

A table keeps its group's class data (order, classes, class index and
power table), not the group, so it stays usable once the group is gone and
the memo `G._chartab` is the only link between the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .cyclotomic import Cyclotomic, fold, prime_1_mod, root_of_unity_mod
from .errors import InternalError, PreconditionError
from .permgroup import Permutation, PermGroup
from .snf import (
    charpoly_mod,
    echelon_mod,
    identity_matrix,
    mat_mul_mod,
    mat_vec_mod,
    nullspace_mod,
)


class TableError(InternalError):
    """Internal inconsistency in character data (signals a bug upstream)."""


_SCALE_LIMIT = 2000
# Dixon's cost past the order: Faddeev's characteristic polynomial grows as
# r^4 in the class count r, and the lift makes r * sum(m_j^2) multiply-adds
# over the group's power table, m_j the class orders.  On a 2-core x86 VM
# (CPython 3.11, one session, limits lifted), (Z/2)^6 (64 classes) took
# 4.5-6.9 s, Z/30 (work 287,850) 1.5-2.2 s and Z/24 (work 133,608)
# 0.65-1.1 s.
_CLASS_LIMIT = 40
_LIFT_LIMIT = 150_000


def _poly_roots_mod(coeffs, p):
    """All roots in F_p of the monic polynomial with the given coefficients
    (highest degree first), found by direct scan."""
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


class CharacterTable:
    """Complete exact character table of a finite permutation group.

    It holds the group's order, classes, class index ({image tuple: class})
    and power table (row i: the classes of rep_i^s, s = 0..ord(rep_i)-1)."""

    def __init__(self, group: PermGroup):
        if group.order > _SCALE_LIMIT:
            raise PreconditionError(
                "group order %d exceeds the character-table scale limit %d"
                % (group.order, _SCALE_LIMIT)
            )
        self.order = group.order
        self.classes = group.conjugacy_classes()
        r = len(self.classes)
        work = r * sum(rep.order() ** 2 for rep, _ in self.classes)
        if r > _CLASS_LIMIT or work > _LIFT_LIMIT:
            raise PreconditionError(
                "character table too large: %d classes (limit %d), lift work %d (limit %d)"
                % (r, _CLASS_LIMIT, work, _LIFT_LIMIT)
            )
        self._index = group.class_index()
        self.powers = group.power_table
        self.exponent = lcm(*map(len, self.powers))
        # the class of g^-1 = g^(o-1) for each class of g of order o:
        # conj(chi(g)) = chi(g^-1)
        self.inverse_class = [row[-1] for row in self.powers]
        self.rows, self.degrees = self._dixon()
        self._validate()

    # -- construction ------------------------------------------------------

    def _dixon(self):
        classes = self.classes
        r = len(classes)
        N = self.exponent
        index = self._index
        # p > |G| keeps Faddeev's divisions legal on r <= |G| classes, and
        # makes each degree's square d^2 <= |G| its own residue mod p
        p = prime_1_mod(N, self.order)
        self._prime = p

        # bucket the elements, as image tuples, by class
        members = [[] for _ in range(r)]
        for g, ci in index.items():
            members[ci].append(g)

        # class-sum matrices: (N_i)[j][k] = #{x in C_i : class(x^-1 rep_k) = j};
        # x^-1 runs over the inverse class, and y * rep_k has the images
        # rep_k[y[t]]
        reps = [rep.imgs for rep, _ in classes]
        mats = []
        for i in range(r):
            M = [[0] * r for _ in range(r)]
            for y in members[self.inverse_class[i]]:
                for k in range(r):
                    j = index[tuple(reps[k][t] for t in y)]
                    M[j][k] += 1
            mats.append(M)

        # split the r-dimensional space into common eigenlines
        moduli = [p] * r
        spaces = [identity_matrix(r)]
        # spaces: list of subspace bases; each basis is a list of vectors
        for M in mats[1:]:
            if all(len(B) == 1 for B in spaces):
                break
            new_spaces = []
            for B in spaces:
                if len(B) == 1:
                    new_spaces.append(B)
                    continue
                dim = len(B)
                # restriction of M to span(B): reducing [B | M*B], vectors as
                # columns, leaves M*B[t] in B-coordinates in column dim + t
                MB = [mat_vec_mod(M, v, moduli) for v in B]
                A = [list(row) for row in zip(*B, *MB)]
                if echelon_mod(A, dim, p) != list(range(dim)):
                    raise TableError("eigenspace basis is not independent")
                R = [row[dim:] for row in A[:dim]]
                total = 0
                for lam in _poly_roots_mod(charpoly_mod(R, p), p):
                    shifted = [row[:] for row in R]
                    for i in range(dim):
                        shifted[i][i] -= lam
                    null = nullspace_mod(shifted, p)
                    if not null:
                        continue
                    new_spaces.append(mat_mul_mod(null, B, moduli))
                    total += len(null)
                if total != dim:
                    raise TableError("class-sum matrix failed to diagonalize")
            spaces = new_spaces
        if any(len(B) != 1 for B in spaces) or len(spaces) != r:
            raise TableError("class-sum eigenspace splitting failed")

        sizes = [s for _, s in classes]
        order_mod = self.order % p
        rows = []
        degrees = []
        z = root_of_unity_mod(p, N)
        for (vec,) in spaces:
            # normalize so the identity-class coordinate is 1
            if vec[0] % p == 0:
                raise TableError("eigenvector vanishes at the identity class")
            inv0 = pow(vec[0], p - 2, p)
            v = [(x * inv0) % p for x in vec]
            # degree from the second orthogonality sum
            t = sum(v[j] * v[self.inverse_class[j]] * pow(sizes[j], p - 2, p) for j in range(r)) % p
            if t == 0:
                raise TableError("degenerate norm sum")
            dsq = (order_mod * pow(t, p - 2, p)) % p
            d = isqrt(dsq)
            if d * d != dsq:
                raise TableError("degree is not recoverable from F_p data")
            degrees.append(d)
            # character values mod p
            chi_p = [(d * v[j] * pow(sizes[j], p - 2, p)) % p for j in range(r)]
            # lift each value through root-of-unity multiplicities
            row = []
            for j in range(r):
                powers = self.powers[j]
                m = len(powers)
                zm = pow(z, N // m, p)
                minv = pow(m, p - 2, p)
                terms = []
                for k in range(m):
                    mu = 0
                    for s in range(m):
                        mu = (mu + chi_p[powers[s]] * pow(zm, (-k * s) % (p - 1), p)) % p
                    mu = (mu * minv) % p
                    if mu > d:
                        raise TableError("eigenvalue multiplicity %d exceeds degree %d" % (mu, d))
                    terms.append((k * (N // m), mu))
                row.append(Cyclotomic(N, fold(N, terms)))
            rows.append(row)

        # deterministic order: trivial first, then by degree and value key
        one = Cyclotomic.from_rational(1, N)
        trivial = lambda row, d: d == 1 and all(v == one for v in row)
        key = lambda rd: (not trivial(*rd), rd[1], [tuple(v.coords) for v in rd[0]])
        ordered = sorted(zip(rows, degrees), key=key)
        if not trivial(*ordered[0]):
            raise TableError("trivial character missing")
        return [row for row, _ in ordered], [d for _, d in ordered]

    def _validate(self):
        r = len(self.classes)
        if len(self.rows) != r:
            raise TableError("row count != class count")
        if sum(d * d for d in self.degrees) != self.order:
            raise TableError("degree squares do not sum to the group order")
        for i in range(r):
            for j in range(i, r):
                ip = self.inner_product(self.rows[i], self.rows[j])
                if ip != (1 if i == j else 0):
                    raise TableError("row orthogonality fails at (%d, %d)" % (i, j))

    # -- lookups -----------------------------------------------------------

    def nclasses(self):
        return len(self.classes)

    def class_of(self, g):
        """Index of the class of an element of the table's group;
        ValueError for anything else."""
        ci = self._index.get(g.imgs) if isinstance(g, Permutation) else None
        if ci is None:
            raise ValueError("element does not belong to the table's group")
        return ci

    # -- inner products and dimensions -------------------------------------

    def inner_product(self, f, h):
        """Exact inner product of a class function f with a (virtual)
        character h of the table's group, both lists of Cyclotomic at one
        conductor; TableError unless it is an integer.  The conjugate of
        h(g) is h(g^-1), read at the inverse class."""
        inv = self.inverse_class
        terms = (size * (f[j] * h[inv[j]]) for j, (_, size) in enumerate(self.classes))
        return _integer_mean(sum(terms, Cyclotomic.zero(f[0].conductor)), self.order)

    def decompose(self, values):
        """Multiplicities of a class function over the irreducible rows.

        The values may lie in Q(zeta_L) for any multiple L of the table's
        exponent, such as a restriction from a group whose exponent the
        subgroup's divides: the rows are lifted to L once.  The function
        must be recovered exactly from the multiplicities, else TableError."""
        L = values[0].conductor
        rows = [[v.lift(L) for v in row] for row in self.rows]
        mults = [self.inner_product(values, row) for row in rows]
        back = VirtualCharacter(self, mults).values()
        if any(b.lift(L) != v for b, v in zip(back, values)):
            raise TableError("class function is not a virtual character")
        return mults

    def fixed_space_dim(self, row, g):
        """dim of the <g>-fixed subspace in the row's representation: the
        row's mean over the powers of g."""
        powers = self.powers[self.class_of(g)]
        chi = self.rows[row]
        terms = (chi[c] for c in powers)
        v = _integer_mean(sum(terms, Cyclotomic.zero(self.exponent)), len(powers))
        if v < 0:
            raise TableError("fixed-space dimension %d is negative" % v)
        return v


def _integer_mean(total, n):
    """The Cyclotomic total divided by n, as an int; TableError unless it
    is one."""
    val = total * Fraction(1, n)
    if not val.is_rational() or val.coords[0].denominator != 1:
        raise TableError("%s / %d is not an integer" % (total, n))
    return val.coords[0].numerator


def character_table(G: PermGroup) -> CharacterTable:
    """Memoized character table of G."""
    tab = getattr(G, "_chartab", None)
    if tab is None:
        tab = CharacterTable(G)
        G._chartab = tab
    return tab


class VirtualCharacter:
    """An integer combination of the irreducible rows of a table."""

    def __init__(self, table, mults):
        if len(mults) != table.nclasses():
            raise ValueError("multiplicity vector has the wrong length")
        self.table = table
        self.mults = list(mults)

    @property
    def degree(self):
        return sum(m * d for m, d in zip(self.mults, self.table.degrees))

    def values(self):
        tab = self.table
        terms = [(m, row) for m, row in zip(self.mults, tab.rows) if m]
        zero = Cyclotomic.zero(tab.exponent)
        return [sum((m * row[j] for m, row in terms), zero) for j in range(tab.nclasses())]

    def __sub__(self, other):
        assert self.table is other.table
        return VirtualCharacter(self.table, [a - b for a, b in zip(self.mults, other.mults)])

    def restrict(self, subtable):
        """Restriction to a subgroup, decomposed in the subgroup's table at
        this table's conductor."""
        vals = self.values()
        index = self.table.class_of
        return VirtualCharacter(
            subtable, subtable.decompose([vals[index(rep)] for rep, _ in subtable.classes])
        )


def perm_character(G: PermGroup, table=None) -> VirtualCharacter:
    """Permutation character of G's natural action, decomposed."""
    tab = table if table is not None else character_table(G)
    vals = []
    for rep, _ in tab.classes:
        fixed = sum(1 for i in range(G.degree) if rep.imgs[i] == i)
        vals.append(Cyclotomic.from_rational(fixed, tab.exponent))
    mults = tab.decompose(vals)
    return VirtualCharacter(tab, mults)
