"""Left-inverse synthesis: decide invertibility at a radius, build the rule.

The core scan asks, for a candidate inverse memory N, whether the window
image of the rule on N determines the value at the identity cell. A conflict
(two windows with equal images but different center values) is a witness
that no inverse with memory N exists; no conflict yields an inverse rule
directly, with the basepoint filled in off the image. A large table scan
reads only the windows of N linked to the identity cell through shared
cells, so a memory inside a proper subgroup pays for one coset, not all of
the universe. Radius-increasing search over balls turns this into a
bounded-radius decision procedure.
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
    _large_scan,
    _live_rule,
    check_left_inverse,
)
from .caps import check_size
from .errors import InvalidInputError
from .groups import FiniteSubset, ball, product_window


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
    table rule is first read over its live cells M'' (`ca._live_rule`), and
    only the rows N_C of N whose windows link to the identity cell through
    shared cells are kept (`_identity_component`), so that W = N_C*M'' and
    1, and the cap counts that window. The rows off N_C read only cells
    that no row of N_C reads, so they do not bear on the identity value
    (Ceccherini-Silberstein & Coornaert, ch. 1: the cosets of the subgroup
    the memory generates). A determined table over N_C is read back over N:
    a determined tau is injective, hence surjective (every universe here is
    sofic), so every pattern on N is an image and the table over N would
    be constant off N_C. Witnesses are padded with digit 0 to N*M', built
    only then: zeroing the cells tau does not read, or those off the
    component, on both windows of a conflict keeps it a conflict and moves
    it no later, so the first conflict over N*M' is 0 there.
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
    smap, rows = tau.rule.map, None  # None: every row of N
    if _large_scan(A.size ** len(W)):
        live = _live_rule(tau.rule, A.size ** len(W))
        smap = live.map
        W, pos, rows = _identity_component(G, N, live.memory)

    check_size(A.size ** len(N), "inverse rule table")
    check_size(A.size ** len(W), "determinacy scan")
    n = len(W)
    owner = np.full(A.size ** len(pos), -1, dtype=np.int64)
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
    inverse = StructuredMap(A, len(pos), table=table)
    if len(pos) < len(N):
        inverse = inverse.reindexed(rows, len(N))
    return DeterminacyResult(rule=LocalRule(N, inverse), witness=None)


def _scan_window(G, N, memory):
    """(W, pos): W = N*memory and 1, pos[i, j] the position of N[i]*memory[j] in W."""
    W, pos = product_window(G, N, memory)
    ident = G.identity()
    if ident not in W:  # the rule does not read the identity cell on N; the scan does
        W = FiniteSubset._trusted(G, (*W, ident))
        pos += pos >= W.index_of(ident)
    return W, pos


def _identity_component(G, N, memory):
    """(W, pos, rows): the rows of N whose windows over `memory` link to the
    identity cell through shared cells, their cells and 1, and positions.

    A breadth-first walk over the rows of the scan window of `_scan_window`:
    each step takes every row that reads a cell reached so far, and reaches
    its cells. `rows` are indices into N, ascending; W keeps the canonical
    order of the cells reached, and pos[i, j] is the position in W of
    N[rows[i]]*memory[j].
    """
    W, pos = _scan_window(G, N, memory)
    cells = np.zeros(len(W), dtype=bool)
    cells[W.index_of(G.identity())] = True
    rows = np.zeros(len(N), dtype=bool)
    while (step := ~rows & cells[pos].any(axis=1)).any():
        rows |= step
        cells[pos[step]] = True
    at = np.cumsum(cells) - 1  # a reached cell's position among those reached
    W = FiniteSubset._trusted(G, [W[i] for i in np.flatnonzero(cells)])
    return W, at[pos[rows]], np.flatnonzero(rows)


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

