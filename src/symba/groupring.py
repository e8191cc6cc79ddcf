"""Exact arithmetic in (Z/n)[G] and matrices over it.

Elements are finitely supported functions G -> Z/n stored sparsely; the
product is convolution. A matrix-rule automaton with coefficient family
{C_m} corresponds to the matrix with entries sum_m C_m[i][j] * delta_m, and
with the reading convention "new value at g = sum over m of C_m applied to
the value at g*m" automaton composition is plain matrix product: the
automaton sigma-after-tau corresponds to D @ C.

Products of elements and matrices go through one convolution loop,
`_convolve`, which sums x*y over a list of pairs into one dict and builds
one element: a single pair for `gr_mul`, the d pairs (X[i][k], Y[k][j])
for each entry of `matrix_mul`. `random_invertible_matrix` never forms
its elementary factors: it applies each one as a column operation on the
product and a row operation on the inverse, which multiplies one row or
column by a monomial. `one_sided_inverse_solve` builds one
(d*|U|) x (d*|B|) block for D on B = ball(r) and the products
U = B * supp(C), one assignment per support element, and solves it once
for all d rows of D. `to_linear_ca` reads its memory off the coefficient
family, so the support is sorted once.

The public constructors validate every group element and entry. Results
computed from validated operands (sums, negations, scalings, products)
are built by `_trusted`, whose `_fill` only reduces the coefficients mod n
and drops zeros.
"""

from __future__ import annotations

import operator

import numpy as np

from . import linalg
from .alphabets import Alphabet, StructuredMap
from .ca import CellularAutomaton, LocalRule
from .caps import check_size
from .errors import InvalidInputError, json_int
from .groups import FiniteSubset, Group, _Keyed, ball, set_product

Coeffs = dict


class GroupRingElement(_Keyed):
    """A finitely supported function G -> Z/n, canonical sparse storage."""

    __slots__ = ("group", "modulus", "coeffs")

    def __init__(self, group: Group, modulus: int, coeffs: Coeffs | None = None):
        modulus = json_int(modulus, "modulus")
        if modulus < 2:
            raise InvalidInputError(f"modulus must be >= 2, got {modulus}")
        coeffs = coeffs or {}
        for g in coeffs:
            group.validate(g)
        self._fill(group, modulus, {g: json_int(c, "coefficient") for g, c in coeffs.items()})

    def _fill(self, group, modulus, coeffs):
        clean: Coeffs = {}
        for g, c in coeffs.items():
            c %= modulus
            if c:
                clean[g] = c
        self.group = group
        self.modulus = modulus
        self.coeffs = clean

    @classmethod
    def zero(cls, group, modulus):
        return cls(group, modulus, {})

    @classmethod
    def monomial(cls, group, modulus, g, c=1):
        return cls(group, modulus, {g: c})

    @classmethod
    def one(cls, group, modulus):
        return cls.monomial(group, modulus, group.identity())

    def support(self):
        return sorted(self.coeffs, key=self.group.sort_key)

    def _check_compatible(self, other):
        if other.group != self.group or other.modulus != self.modulus:
            raise InvalidInputError("elements live in different group rings")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElement._trusted(self.group, self.modulus, out)

    def __neg__(self):
        return GroupRingElement._trusted(
            self.group, self.modulus, {g: -c for g, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return gr_mul(self, other)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, k):
        """k times self for any integer k (int, bool or numpy integer)."""
        try:
            k = operator.index(k)
        except TypeError:
            return NotImplemented
        return GroupRingElement._trusted(
            self.group, self.modulus, {g: c * k for g, c in self.coeffs.items()}
        )

    def _key(self):
        return self.group, self.modulus, frozenset(self.coeffs.items())

    def to_json(self):
        return [
            {"elem": self.group.elem_to_json(g), "coef": self.coeffs[g]}
            for g in self.support()
        ]

    def __repr__(self):
        return " + ".join(f"{self.coeffs[g]}*{g!r}" for g in self.support()) or "0"


def _convolve(G: Group, n: int, pairs) -> GroupRingElement:
    """The sum over (x, y) in pairs of x*y in (Z/n)[G], as one element."""
    mul = G.mul
    out: Coeffs = {}
    for x, y in pairs:
        for a, ca in x.coeffs.items():
            for b, cb in y.coeffs.items():
                h = mul(a, b)
                out[h] = out.get(h, 0) + ca * cb
    return GroupRingElement._trusted(G, n, out)


def gr_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product: coefficient at h is sum over ab=h of x(a)y(b)."""
    x._check_compatible(y)
    return _convolve(x.group, x.modulus, [(x, y)])


class GroupRingMatrix(_Keyed):
    """Square matrix with group-ring entries, all sharing one modulus."""

    __slots__ = ("group", "modulus", "dim", "entries")

    def __init__(self, group: Group, modulus: int, entries):
        modulus = json_int(modulus, "modulus")
        d = len(entries)
        for row in entries:
            if len(row) != d:
                raise InvalidInputError("matrix must be square")
        for row in entries:
            for e in row:
                if not isinstance(e, GroupRingElement):
                    raise InvalidInputError("entries must be group-ring elements")
                if e.group != group or e.modulus != modulus:
                    raise InvalidInputError("entry lives in the wrong group ring")
        self._fill(group, modulus, entries)

    def _fill(self, group, modulus, entries):
        self.group = group
        self.modulus = modulus
        self.dim = len(entries)
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, group, modulus, dim):
        one = GroupRingElement.one(group, modulus)
        zero = GroupRingElement.zero(group, modulus)
        return cls(
            group,
            modulus,
            [[one if i == j else zero for j in range(dim)] for i in range(dim)],
        )

    @classmethod
    def from_coeffs(cls, group, modulus, dim, family: dict):
        """Build from a family {group element -> d x d integer matrix}."""
        entries = [
            [
                GroupRingElement(
                    group, modulus, {g: mat[i][j] for g, mat in family.items()}
                )
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        return cls(group, modulus, entries)

    def support(self) -> list:
        out = set()
        for row in self.entries:
            for e in row:
                out.update(e.coeffs)
        return sorted(out, key=self.group.sort_key)

    def coeff_family(self) -> dict:
        """The inverse of from_coeffs: {element -> dense d x d numpy matrix}."""
        fam: dict = {}
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for g, c in e.coeffs.items():
                    fam.setdefault(g, np.zeros((self.dim, self.dim), dtype=np.int64))[
                        i, j
                    ] = c
        return fam

    def is_identity(self) -> bool:
        one = {self.group.identity(): 1}
        return all(
            e.coeffs == (one if i == j else {})
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def _key(self):
        return self.group, self.modulus, self.entries

    def to_json(self):
        return {
            "modulus": self.modulus,
            "dim": self.dim,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    def __repr__(self):
        return f"GroupRingMatrix(dim={self.dim}, mod {self.modulus}, |support|={len(self.support())})"


def matrix_mul(X: GroupRingMatrix, Y: GroupRingMatrix) -> GroupRingMatrix:
    """Standard matrix product over the group ring."""
    if X.group != Y.group or X.modulus != Y.modulus or X.dim != Y.dim:
        raise InvalidInputError("matrices are not compatible")
    columns = list(zip(*Y.entries))
    out = [
        [_convolve(X.group, X.modulus, zip(row, col)) for col in columns]
        for row in X.entries
    ]
    return GroupRingMatrix._trusted(X.group, X.modulus, out)


def from_linear_ca(tau: CellularAutomaton) -> GroupRingMatrix:
    """The matrix of a matrix-rule automaton."""
    if not tau.rule.map.is_matrix:
        raise InvalidInputError("automaton does not carry a matrix rule")
    A = tau.alphabet
    family = {
        m: tau.rule.map.matrices[j] for j, m in enumerate(tau.memory)
    }
    return GroupRingMatrix.from_coeffs(tau.universe, A.modulus, A.dim, family)


def to_linear_ca(X: GroupRingMatrix, G: Group, A: Alphabet) -> CellularAutomaton:
    """The matrix-rule automaton of a group-ring matrix."""
    if G != X.group:
        raise InvalidInputError("matrix lives over a different group")
    if not A.is_module or A.modulus != X.modulus or A.dim != X.dim:
        raise InvalidInputError("alphabet does not match the matrix shape")
    fam = X.coeff_family()
    memory = FiniteSubset._trusted(G, fam or [G.identity()])
    mats = np.zeros((len(memory), A.dim, A.dim), dtype=np.int64)
    for i, m in enumerate(memory):
        if m in fam:
            mats[i] = fam[m]
    return CellularAutomaton(G, A, LocalRule(memory, StructuredMap(A, len(memory), matrices=mats)))


def one_sided_inverse_solve(C: GroupRingMatrix, r: int) -> GroupRingMatrix | None:
    """Find D supported in ball(r) with D @ C = identity, or None.

    The unknown coefficients of D satisfy a finite linear system over Z/p:
    row i of D @ C must equal row i of the identity at every group element
    reachable as a product of a ball(r) element with a support element of
    C. The coefficients of that system do not depend on i, so it is one
    block solved once with d right-hand columns, one per row of D. RREF is
    unique and free variables are set to zero, so D is deterministic.
    """
    linalg.require_prime(C.modulus, "one-sided inverse solving")
    p, d, G = C.modulus, C.dim, C.group
    B = ball(G, r)
    S = FiniteSubset._trusted(G, C.support() or [G.identity()])
    U = set_product(G, B, S)
    if G.identity() not in U:
        U = U.union(FiniteSubset._trusted(G, [G.identity()]))
    check_size(d * len(U) * d * len(B), "inverse solve system")

    # Row (j, u) of the block is slot j of row i of D @ C at u, column
    # (k, s) the unknown D_s[i, k]; the coefficient there is C_t[k, j] for
    # the one t with s*t = u. Right-hand column i is 1 at (i, identity).
    block = np.zeros((d, len(U), d, len(B)), dtype=np.int64)
    columns = np.arange(len(B))
    for t, mat in C.coeff_family().items():
        block[:, [U._index[G.mul(s, t)] for s in B], :, columns] = mat.T
    rhs = np.zeros((d, len(U), d), dtype=np.int64)
    rhs[range(d), U.index_of(G.identity()), range(d)] = 1
    solution = linalg.solve(
        block.reshape(d * len(U), d * len(B)), rhs.reshape(d * len(U), d), p
    )
    if solution is None:
        return None
    coeffs = solution.reshape(d, len(B), d)  # [k, s, i] = D_s[i, k]
    family = {s: coeffs[:, s_idx].T for s_idx, s in enumerate(B) if coeffs[:, s_idx].any()}
    D = GroupRingMatrix.from_coeffs(G, p, d, family)
    if not matrix_mul(D, C).is_identity():
        raise AssertionError("solver returned a non-inverse")
    return D


def random_invertible_matrix(
    G: Group, seed: int, d: int, r: int, modulus: int, factors: int = 5
):
    """A random two-sided invertible matrix plus its exact inverse.

    The product of elementary factors: identity plus one off-diagonal
    group-ring monomial c*g at (i, j), or a diagonal scaling of slot i by a
    unit monomial c*g. Each factor has an explicit inverse, so the product
    does too (inverted factors multiplied in reverse order). Neither is
    formed as a matrix: multiplying the product on the right by I + c*g*E_ij
    adds column i times c*g to column j, and multiplying the inverse on the
    left by I - c*g*E_ij subtracts c*g times row j from row i; a scaling
    multiplies one column, or row, by a monomial.
    """
    linalg.require_prime(modulus, "random invertible matrix generation")
    rng = np.random.default_rng(seed)
    B = list(ball(G, r))
    mul = G.mul
    identity = GroupRingMatrix.identity(G, modulus, d).entries
    fwd = [list(row) for row in identity]
    rev = [list(row) for row in identity]
    zero = GroupRingElement.zero(G, modulus)

    def plus(x, y, g, c, left):
        """x + (c*g)*y when left, else x + y*(c*g)."""
        out = dict(x.coeffs)
        for a, ca in y.coeffs.items():
            h = mul(g, a) if left else mul(a, g)
            out[h] = out.get(h, 0) + c * ca
        return GroupRingElement._trusted(G, modulus, out)

    for _ in range(factors):
        g = B[int(rng.integers(len(B)))]
        c = int(rng.integers(1, modulus))
        if d >= 2 and rng.integers(2) == 0:
            i = int(rng.integers(d))
            j = int(rng.integers(d - 1))
            j = j + 1 if j >= i else j
            for row in fwd:
                row[j] = plus(row[j], row[i], g, c, left=False)
            rev[i] = [plus(x, y, g, -c, left=True) for x, y in zip(rev[i], rev[j])]
        else:
            i = int(rng.integers(d))
            for row in fwd:
                row[i] = plus(zero, row[i], g, c, left=False)
            g_inv, c_inv = G.inv(g), pow(c, modulus - 2, modulus)
            rev[i] = [plus(zero, y, g_inv, c_inv, left=True) for y in rev[i]]
    return GroupRingMatrix._trusted(G, modulus, fwd), GroupRingMatrix._trusted(G, modulus, rev)
