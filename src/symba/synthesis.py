"""Left-inverse synthesis: decide invertibility at a radius, build the rule.

The core scan asks, for a candidate inverse memory N, whether the window
image of the rule on N determines the value at the identity cell. A conflict
(two windows with equal images but different center values) is a witness
that no inverse with memory N exists; no conflict yields an inverse rule
directly, with the basepoint filled in off the image. Radius-increasing
search over balls turns this into a bounded-radius decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .alphabets import StructuredMap, cell_digits, decode_index
from .ca import (
    CellularAutomaton,
    LocalRule,
    Pattern,
    _live_rule,
    check_left_inverse,
    window_positions,
)
from .caps import check_size
from .errors import InvalidInputError, UnsupportedSubgroupError
from .groups import (
    FiniteGroup,
    FiniteSubset,
    FreeAbelianGroup,
    FreeGroup,
    ProductGroup,
    ball,
    generated_ball,
    product_window,
)


@dataclass(frozen=True)
class DeterminacyResult:
    """Either an inverse rule over N, or a witness pair over N*M', M' = symmetrize(M).

    Witness patterns x, y satisfy: equal rule images on N, different values
    at the identity cell, and digit 0 on the cells the scan does not read.
    """

    rule: LocalRule | None
    witness: tuple | None

    @property
    def is_determined(self) -> bool:
        return self.rule is not None


@dataclass(frozen=True)
class SynthesisResult:
    ca: CellularAutomaton | None
    radius: int | None
    witness: tuple | None

    @property
    def found(self) -> bool:
        return self.ca is not None


def determinacy_check(tau: CellularAutomaton, N: FiniteSubset) -> DeterminacyResult:
    """Scan A^W for image conflicts, W = N*M and 1; synthesize the rule when none exist.

    A window takes its row of `product_window(G, N, M)`; the identity joins
    W when N*M misses it. When that scan would pass one block or the cap, a
    table rule is first read over its live cells M'' (`ca._live_rule`), so
    that W = N*M'' and 1, and the cap counts that window. Witnesses are
    padded with digit 0 to N*M', built only then: zeroing cells tau does
    not read keeps each image, so the first conflict over N*M' is 0 there.
    A table scan costs O(windows) per block of `window_codes`, with no sort
    and no division per window. One `owner` array holds the identity value of each
    image seen (or -1). After block 0, a block reads it at its images, and
    stops there when every value matches; a clash with an earlier block
    shows as a value that differs from one already set. The block then
    writes its identity values in one scatter and reads them back, to catch
    two values for one image within the block. The identity digits come from
    `cell_digits`. Only a block that conflicts is searched for the exact
    witness (see `_first_conflict`).
    """
    G, A = tau.universe, tau.alphabet
    if N.group != G:
        raise InvalidInputError("candidate memory lives in the wrong group")
    ident = G.identity()
    if ident not in N or any(G.inv(n) not in N for n in N):
        raise InvalidInputError("candidate memory must be symmetric and contain 1")
    W, pos = _scan_window(G, N, tau.memory)
    if tau.rule.map.is_matrix:
        return _determinacy_linear(tau, N, W, pos)
    live = _live_rule(tau.rule, A.size ** len(W))
    if live is not tau.rule:
        W, pos = _scan_window(G, N, live.memory)
    smap = live.map

    check_size(A.size ** len(N), "inverse rule table")
    check_size(A.size ** len(W), "determinacy scan")
    n = len(W)
    owner = np.full(A.size ** len(N), -1, dtype=np.int64)
    blocks = smap.window_codes(pos, n)
    for start, keys, vals in cell_digits(blocks, A.size, n, W.index_of(ident)):
        seen = None  # block 0 meets no earlier image
        if start:
            seen = owner[keys]
            differs = seen != vals
            if not differs.any():
                continue  # every image met before, with these values
        owner[keys] = vals
        if (owner[keys] != vals).any() or (seen is not None and (seen[differs] >= 0).any()):
            x, y = _first_conflict(smap.window_codes(pos, n), start, keys, vals, seen, owner)
            return _witness(tau, N, W, decode_index([x, y], A.size, n))

    table = np.where(owner >= 0, owner, A.basepoint)
    table.flags.writeable = False  # handed to the map without a copy
    rule = LocalRule(N, StructuredMap(A, len(N), table=table))
    return DeterminacyResult(rule=rule, witness=None)


def _scan_window(G, N, memory):
    """(W, pos): W = N*memory and 1, pos[i, j] the position of N[i]*memory[j] in W."""
    W, pos = product_window(G, N, memory)
    ident = G.identity()
    if ident not in W:  # the rule does not read the identity cell on N; the scan does
        W = FiniteSubset._trusted(G, (*W, ident))
        pos += pos >= W.index_of(ident)
    return W, pos


def _witness(tau, N, W, rows) -> DeterminacyResult:
    """The witness pair over N*M': the two rows of digits on W, 0 elsewhere.

    N*M' is built in one pass, as `set_product(G, N, symmetrize(G, M))`
    would build it; the digits are Python ints, so the patterns take them
    unchecked.
    """
    G = tau.universe
    mul, sym = G.mul, {G.identity(), *tau.memory, *map(G.inv, tau.memory)}
    wide = FiniteSubset._trusted(G, {mul(n, m) for n in N for m in sym})
    pair = np.zeros((2, len(wide)), dtype=np.int64)
    pair[:, np.fromiter(map(wide._index.__getitem__, W), dtype=np.int64, count=len(W))] = rows
    witness = tuple(Pattern._trusted(wide, tuple(row)) for row in pair.tolist())
    return DeterminacyResult(rule=None, witness=witness)


def _first_conflict(blocks, start, keys, vals, seen, scratch) -> tuple:
    """The witness (x, y) as window indices, for a block that conflicts.

    y is the first window whose identity value differs from that of the
    earliest window x of equal image. Earlier blocks held one value per
    image, so y lies in this block. `seen` holds the value each window's
    image had before it (-1 for none; None in block 0); an image new here
    takes its block's earliest window from one `np.minimum.at` into
    `scratch` (the owner array, no longer needed). When y's image is older,
    `blocks`, a fresh scan, is walked to the first block holding it.
    """
    scratch[keys] = keys.size
    np.minimum.at(scratch, keys, np.arange(keys.size))
    expected = vals[scratch[keys]]
    if seen is not None:
        expected = np.where(seen >= 0, seen, expected)
    y = int(np.flatnonzero(expected != vals)[0])
    if seen is None or seen[y] < 0:
        return start + int(scratch[keys[y]]), start + y
    for first, codes in blocks:
        hit = np.flatnonzero(codes == keys[y])
        if hit.size:
            return first + int(hit[0]), start + y
    raise AssertionError("an image seen before is in no earlier block")


def _determinacy_linear(tau, N, W, pos) -> DeterminacyResult:
    """Matrix-rule determinacy: solve eta @ T = (read off at identity) over W;
    the cells off W would add zero columns, with no pivot and no witness."""
    A = tau.alphabet
    d = A.dim
    check_size(len(N) * d * len(W) * d, "determinacy linear system")
    T = tau.rule.map.window_matrix(pos, len(W))
    center = W.index_of(W.group.identity())
    proj = np.eye(d, len(W) * d, center * d, dtype=np.int64)

    eta, kernel = linalg.left_solve(T, proj, A.modulus)
    if eta is None:
        # witness: the first kernel vector that is nonzero at the identity cell
        z = next(z for z in kernel if z[center * d : (center + 1) * d].any())
        return _witness(tau, N, W, A.cell_values(np.stack([z, 0 * z])).reshape(2, -1))
    rule = LocalRule(N, StructuredMap.from_block_row(A, eta))
    return DeterminacyResult(rule=rule, witness=None)


def synthesize_left_inverse(tau: CellularAutomaton, r_max: int) -> SynthesisResult:
    """Radius-increasing search for a left inverse with memory ball(r).

    tau is read as given, by every scan and by the certificate, which
    checks the rule found with check_left_inverse.
    """
    if r_max < 0:
        raise InvalidInputError(f"r_max must be >= 0, got {r_max}")
    G = tau.universe
    witness = previous = None
    for r in range(r_max + 1):
        N = ball(G, r)
        if N == previous:
            break  # ball(r) = ball(r - 1): every later radius repeats the last scan
        previous = N
        res = determinacy_check(tau, N)
        if res.is_determined:
            sigma = CellularAutomaton(G, tau.alphabet, res.rule)
            if not check_left_inverse(sigma, tau):
                raise AssertionError("synthesized rule failed the inverse criterion")
            return SynthesisResult(ca=sigma, radius=r, witness=None)
        witness = res.witness
    return SynthesisResult(ca=None, radius=None, witness=witness)


def _hermite_basis(vectors, dim: int) -> list[list[int]]:
    """Row-echelon basis (not reduced) of the lattice spanned by the vectors."""
    rows = [list(v) for v in vectors if any(v)]  # the rows not yet in the basis
    basis: list[list[int]] = []
    for c in range(dim):
        live = [i for i, row in enumerate(rows) if row[c]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(rows[i][c]))
            base = rows[live[0]]
            for i in live[1:]:
                q = rows[i][c] // base[c]
                rows[i] = [x - q * y for x, y in zip(rows[i], base)]
            live = [i for i, row in enumerate(rows) if row[c]]
        if live:
            rows[0], rows[live[0]] = rows[live[0]], rows[0]
            lead = rows.pop(0)
            basis.append(lead if lead[c] > 0 else [-x for x in lead])
            rows = [row for row in rows if any(row)]
    return basis


def _lattice_coordinates(basis: list[list[int]], v) -> tuple:
    """Coordinates of v in the row-echelon basis (v must lie in the lattice)."""
    v = list(v)
    coords = []
    for row in basis:
        c = next(i for i, x in enumerate(row) if x != 0)
        if v[c] % row[c] != 0:
            raise AssertionError("memory vector escaped its own lattice")
        q = v[c] // row[c]
        coords.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        raise AssertionError("memory vector escaped its own lattice")
    return tuple(coords)


def restrict_to_memory_subgroup(tau: CellularAutomaton) -> CellularAutomaton:
    """Re-base the automaton on the subgroup its memory generates.

    Recognized shapes: sublattices of Z^d (via an exact row-echelon basis,
    not reduced), free factors and single-generator powers in free groups,
    and sub-blocks of direct products. For finite universes the subgroup
    closure is computed outright. Anything else raises
    UnsupportedSubgroupError.
    """
    G = tau.universe
    M = tau.memory

    if isinstance(G, FreeAbelianGroup):
        basis = _hermite_basis(M.elems, G.rank)
        H = FreeAbelianGroup(len(basis))
        encode = {m: _lattice_coordinates(basis, m) for m in M}
    elif isinstance(G, FreeGroup):
        H, encode = _free_subgroup_encoding(G, M)
    elif isinstance(G, ProductGroup):
        ident = G.identity()
        live = [
            i
            for i in range(len(G.factors))
            if any(m[i] != ident[i] for m in M)
        ]
        if not live:
            live = [0]
        if len(live) == 1:
            H = G.factors[live[0]]
            encode = {m: m[live[0]] for m in M}
        else:
            H = ProductGroup([G.factors[i] for i in live])
            encode = {m: tuple(m[i] for i in live) for m in M}
    elif isinstance(G, FiniteGroup):
        closure = generated_ball(G, M, G.size)
        H = FiniteGroup(window_positions(closure, closure, closure))
        encode = {m: closure.index_of(m) for m in M}
    else:
        raise UnsupportedSubgroupError(f"no subgroup re-basing for {G!r}")

    new_memory = FiniteSubset(H, encode.values())
    cols = [new_memory.index_of(encode[m]) for m in M]
    rule = LocalRule(new_memory, tau.rule.map.reindexed(cols, len(new_memory)))
    return CellularAutomaton(H, tau.alphabet, rule)


def _free_subgroup_encoding(G: FreeGroup, M: FiniteSubset):
    """Re-encode free-group memory into a standard subgroup, if recognizable.

    Two supported shapes: all words of length <= 1 (the free factor on the
    letters used), and all words powers of one generator (an infinite cyclic
    subgroup, rescaled by the gcd of the exponents).
    """
    words = [w for w in M if w]
    if all(len(w) <= 1 for w in words):
        letters = sorted({abs(w[0]) for w in words})
        rename = {s * a: s * (i + 1) for i, a in enumerate(letters) for s in (1, -1)}
        return FreeGroup(len(letters)), {w: tuple(rename[x] for x in w) for w in M}
    letters = {abs(x) for w in words for x in w}
    if len(letters) == 1 and all(len(set(w)) == 1 for w in words):
        # a^k is the vector (k,) of Z, re-based as a sublattice of Z^d is
        exps = {m: (len(m) * (1 if m[0] > 0 else -1) if m else 0,) for m in M}
        basis = _hermite_basis(exps.values(), 1)
        return FreeAbelianGroup(1), {m: _lattice_coordinates(basis, v) for m, v in exps.items()}
    raise UnsupportedSubgroupError(
        "free-group memory is neither inside a free factor nor a single generator's powers"
    )
