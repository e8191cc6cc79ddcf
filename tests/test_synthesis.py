"""Determinacy scanning and radius search."""

import itertools

import numpy as np
import pytest

import symba as sy
from symba import alphabets
from symba.errors import InvalidInputError

from conftest import (
    axis_table_ca,
    cyclic_alphabet,
    make_table_ca,
    oracle_determinacy_table,
    oracle_determinacy_witness,
    oracle_identity_component,
    oracle_live_inputs,
    planted_table,
    pointed_permutation,
    random_pointed_table,
    set_cap,
    symmetric_table,
    xor_ca,
)


def test_determinacy_xor_witness(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    N = sy.FiniteSubset(Z, [(0,)])
    res = sy.determinacy_check(xor, N)
    assert not res.is_determined
    x, y = res.witness
    assert x.domain == y.domain
    assert [e for e in x.domain] == [(-1,), (0,), (1,)]
    # the first enumeration-order collision: equal images, centers differ
    assert x.values == (0, 0, 1) and y.values == (0, 1, 0)
    assert (x.values[1] + x.values[2]) % 2 == (y.values[1] + y.values[2]) % 2
    assert x.values[1] != y.values[1]


@pytest.mark.parametrize("seed", [11, 12])
def test_determinacy_witness_past_first_chunk_matches_oracle(Z, bit, seed):
    """A 2^17-window scan whose first conflict lies in the second chunk.

    The rule c xor g(a, b), g a seeded random pointed table, is permutive in
    its right cell, so a window is fixed by its image and its two leftmost
    cells; for these seeds the first conflict pairs a window of the first
    chunk with one of the second.
    """
    g = random_pointed_table(np.random.default_rng(seed), bit, 2)
    table = [c ^ int(g[2 * a + b]) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    tau = make_table_ca(Z, bit, [(-1,), (0,), (1,)], table)
    N = sy.ball(Z, 7)
    assert bit.size ** len(sy.set_product(Z, N, tau.memory)) == 1 << 17
    x, y = oracle_determinacy_witness(tau, N)
    radix = 2 ** np.arange(16, -1, -1)
    assert int(np.dot(y, radix)) >= 1 << 16 > int(np.dot(x, radix))
    res = sy.determinacy_check(tau, N)
    assert not res.is_determined
    assert (res.witness[0].values, res.witness[1].values) == (x, y)


@pytest.mark.parametrize("seed", [5, 11])
def test_determinacy_witness_past_first_block_q3_matches_oracle(Z, seed):
    """q = 3: a 3^11-window scan in blocks of 3^10 whose first conflict lies
    past the first block.

    The rule b + g(a) mod 3 (g a seeded random pointed table) makes a
    window a function of its image and its leftmost cell, which is constant
    on the first block; so every conflict pairs the first block with a
    later one (the second for seed 5, the third for seed 11).
    """
    A = sy.Alphabet.plain(3)
    g = random_pointed_table(np.random.default_rng(seed), A, 1)
    table = [(b + int(g[a])) % 3 for a in range(3) for b in range(3) for c in range(3)]
    tau = make_table_ca(Z, A, [(-1,), (0,), (1,)], table)
    N = sy.ball(Z, 4)
    assert A.size ** len(sy.set_product(Z, N, tau.memory)) == 3**11
    x, y = oracle_determinacy_witness(tau, N)
    radix = 3 ** np.arange(10, -1, -1)
    assert int(np.dot(y, radix)) >= 3**10 > int(np.dot(x, radix))
    res = sy.determinacy_check(tau, N)
    assert not res.is_determined
    assert (res.witness[0].values, res.witness[1].values) == (x, y)


def _leading_identity_scan(F2, tau):
    """N = ball(1) over F2 with q = 3: 3^11 windows in blocks of 3^10, and
    the identity, first in graded order, is the one leading digit."""
    N = sy.ball(F2, 1)
    NM = sy.set_product(F2, N, sy.symmetrize(F2, tau.memory))
    assert len(NM) == 11 and NM.index_of(F2.identity()) == 0
    return N


def test_determinacy_table_with_leading_identity_matches_oracle(F2):
    """A pointed permutation after the shift by a is determined on ball(1);
    the synthesized table is the earliest identity value of each image."""
    A = sy.Alphabet.plain(3)
    tau = make_table_ca(F2, A, [(1,)], [0, 2, 1])
    N = _leading_identity_scan(F2, tau)
    res = sy.determinacy_check(tau, N)
    assert res.is_determined
    assert np.array_equal(res.rule.map.table, oracle_determinacy_table(tau, N))


def test_determinacy_witness_with_leading_identity_matches_oracle(F2):
    """With the identity as the leading digit every block has one identity
    value, so the first conflict pairs a window with the earliest window
    of equal image in an earlier block."""
    A = sy.Alphabet.plain(3)
    perm = [0, 2, 1]
    table = [perm[(u + v) % 3] for u in range(3) for v in range(3)]
    tau = make_table_ca(F2, A, [(), (1,)], table)
    N = _leading_identity_scan(F2, tau)
    x, y = oracle_determinacy_witness(tau, N)
    radix = 3 ** np.arange(10, -1, -1)
    assert int(np.dot(x, radix)) // 3**10 < int(np.dot(y, radix)) // 3**10
    res = sy.determinacy_check(tau, N)
    assert not res.is_determined
    assert (res.witness[0].values, res.witness[1].values) == (x, y)


def test_determinacy_shift_rule(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    res = sy.determinacy_check(shift, sy.ball(Z, 1))
    assert res.is_determined
    # the synthesized rule reads off the value one step back
    sigma = sy.CellularAutomaton(Z, bit, res.rule)
    assert sy.same_action(sigma, sy.projection_ca(Z, bit, (-1,)))


def test_determinacy_identity(Z, bit):
    ident = sy.identity_ca(Z, bit)
    res = sy.determinacy_check(ident, sy.FiniteSubset(Z, [(0,)]))
    assert res.is_determined
    assert sy.same_action(sy.CellularAutomaton(Z, bit, res.rule), ident)


def test_determinacy_requires_symmetric_candidate(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    with pytest.raises(InvalidInputError):
        sy.determinacy_check(shift, sy.FiniteSubset(Z, [(0,), (1,)]))


def _small_block_scans(monkeypatch):
    """Blocks of at most 16 windows, and a log of the window scans that start.

    The log holds one entry per `window_codes` scan actually walked, so a
    determinacy check that re-scans for an earlier block's window logs two.
    """
    monkeypatch.setattr(alphabets, "_SCAN_CHUNK", 16)
    kernel = alphabets.StructuredMap.window_codes
    scans = []

    def logged(self, pos, n_cells):
        scans.append(n_cells)
        yield from kernel(self, pos, n_cells)

    monkeypatch.setattr(alphabets.StructuredMap, "window_codes", logged)
    return scans


def _block_size(q):
    """Windows per block, at 16 windows at most, of a scan longer than one."""
    size = q
    while size * q <= 16:
        size *= q
    return size


def _assert_matches_oracle(tau, N):
    """determinacy_check agrees with the unchunked oracles; the witness or None."""
    want = oracle_determinacy_witness(tau, N)
    res = sy.determinacy_check(tau, N)
    if want is None:
        assert res.is_determined
        assert np.array_equal(res.rule.map.table, oracle_determinacy_table(tau, N))
        return None
    assert not res.is_determined
    assert (res.witness[0].values, res.witness[1].values) == want
    G = tau.universe
    assert res.witness[0].domain == sy.set_product(G, N, sy.symmetrize(G, tau.memory))
    return want


def test_determinacy_takes_every_witness_path_in_small_blocks(Z, bit, monkeypatch):
    """Every pointed radius-1 rule over bits, on N = ball(2): 2^7 windows in
    blocks of 16, the identity a trailing digit.

    Each way the scan can end occurs: no conflict; a conflict in block 0; a
    later conflict on an image new to its block, whose earliest window that
    block gives; and a later conflict on an image from an earlier block,
    found by walking the scan again.
    """
    scans = _small_block_scans(monkeypatch)
    N = sy.ball(Z, 2)
    paths = {"determined": 0, "block 0": 0, "new image": 0, "earlier image": 0}
    for bits in itertools.product((0, 1), repeat=7):
        tau = make_table_ca(Z, bit, [(-1,), (0,), (1,)], (0, *bits))
        scans.clear()
        want = _assert_matches_oracle(tau, N)
        if want is None:
            path = "determined"
        elif np.dot(want[1], 2 ** np.arange(6, -1, -1)) < _block_size(2):
            path = "block 0"
        else:
            path = "earlier image" if len(scans) == 2 else "new image"
        assert len(scans) == (2 if path == "earlier image" else 1)
        paths[path] += 1
    assert min(paths.values()) >= 1, paths


# (universe, N, symmetric memory): 2^3 to 3^5 windows, or 2^9 for q = 2
_SMALL_SCANS = [
    ("Z", [(0,)], [(-1,), (0,), (1,)]),
    ("Z", [(-1,), (0,), (1,)], [(-1,), (0,), (1,)]),
    ("Z", [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)], [(-1,), (0,), (1,)]),
    ("F2", [(), (1,), (-1,)], [(), (1,), (-1,)]),
    ("F2", [(), (1,), (-1,)], [(), (2,), (-2,)]),
    ("F2", [(), (1,), (-1,), (2,), (-2,)], [()]),
]


def _permutive_table(rng, q, m):
    """x_j + g(the other cells) mod q, for a seeded cell j and pointed g."""
    j = int(rng.integers(m))
    g = rng.integers(0, q, size=q ** (m - 1))
    g[0] = 0
    X = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.int64)
    rest = np.delete(X, j, axis=1) @ q ** np.arange(m - 2, -1, -1)
    return (X[:, j] + g[rest]) % q


@pytest.mark.parametrize("q", [2, 3])
def test_determinacy_in_small_blocks_matches_oracle(Z, F2, q, monkeypatch):
    """Seeded random and cell-permutive pointed rules on Z and F2, scanned in
    blocks of at most 16 windows, with the identity both a trailing digit
    (the middle cell on Z) and a leading one (first in graded order on F2)."""
    _small_block_scans(monkeypatch)
    A = sy.Alphabet.plain(q)
    rng = np.random.default_rng([q, 22])
    places = set()
    for name, cells, memory in _SMALL_SCANS:
        G = {"Z": Z, "F2": F2}[name]
        N = sy.FiniteSubset(G, cells)
        NM = sy.set_product(G, N, sy.FiniteSubset(G, memory))
        n = len(NM)
        if q**n > 1 << 9:
            continue
        place = q ** (n - 1 - NM.index_of(G.identity()))
        places.add("leading" if place >= _block_size(q) else "trailing")
        for _ in range(8):
            table = random_pointed_table(rng, A, len(memory))
            _assert_matches_oracle(make_table_ca(G, A, memory, table), N)
            table = _permutive_table(rng, q, len(memory))
            _assert_matches_oracle(make_table_ca(G, A, memory, table), N)
    assert places == {"leading", "trailing"}


# (universe, radius of N, a memory that is not symmetric); on Z the first
# three leave the identity out of N*M: it is the leading, trailing or a
# middle cell of the scan
_ASYMMETRIC_SCANS = [
    ("Z", 1, [(3,), (4,)]),
    ("Z", 1, [(-4,), (-3,)]),
    ("Z", 0, [(-1,), (1,), (3,)]),
    ("Z", 1, [(1,), (2,)]),
    ("Z2", 1, [(1, 1)]),
    ("Z2", 1, [(0, 1), (1, 0)]),
    ("F2", 0, [(1,), (2,)]),
    ("F2", 1, [(-2,)]),
    ("F2", 1, [(1, 2)]),
]


def _scan_window(G, N, memory):
    """N*M and the identity: the cells a determinacy scan reads."""
    return sy.set_product(G, N, sy.FiniteSubset(G, memory)).union(sy.FiniteSubset(G, [G.identity()]))


def test_determinacy_scans_only_the_cells_tau_reads(Z, bit, monkeypatch):
    """tau(x)_g = x_{g+1}, read over {1, 2}: on N = ball(1) it reads the 4
    cells N*M = {0, ..., 3}, where N*sym(M) = {-3, ..., 3} has 7, and the
    scan finds the shift back."""
    scans = _small_block_scans(monkeypatch)
    tau = make_table_ca(Z, bit, [(1,), (2,)], [0, 0, 1, 1])
    res = sy.determinacy_check(tau, sy.ball(Z, 1))
    assert scans == [4]
    assert res.is_determined
    assert sy.same_action(sy.CellularAutomaton(Z, bit, res.rule), sy.projection_ca(Z, bit, (-1,)))


@pytest.mark.parametrize("q", [2, 3])
def test_determinacy_on_asymmetric_memories_matches_oracle(Z, Z2, F2, q, monkeypatch):
    """Seeded random and cell-permutive pointed rules with one-sided memories
    on Z, Z^2 and F2, and the projection onto the first memory cell, scanned
    in blocks of at most 16 windows. Every scan reads N*M and the identity
    only; the table, or the witness over N*sym(M), is the oracle's, which
    scans all of N*sym(M)."""
    scans = _small_block_scans(monkeypatch)
    A = sy.Alphabet.plain(q)
    rng = np.random.default_rng([q, 29])
    places, outcomes = set(), set()
    for name, r, memory in _ASYMMETRIC_SCANS:
        G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
        N, M = sy.ball(G, r), sy.FiniteSubset(G, memory)
        if q ** len(sy.set_product(G, N, sy.symmetrize(G, M))) > 1 << 15:
            continue
        W = _scan_window(G, N, memory)
        at = W.index_of(G.identity())
        if len(W) > len(sy.set_product(G, N, M)):  # the scan adds the identity
            places.add("leading" if at == 0 else "trailing" if at == len(W) - 1 else "middle")
        m = len(memory)
        tables = [np.arange(q**m) // q ** (m - 1)]
        for _ in range(4):
            tables += [random_pointed_table(rng, A, m), _permutive_table(rng, q, m)]
        for table in tables:
            scans.clear()
            outcomes.add(_assert_matches_oracle(make_table_ca(G, A, memory, table), N) is None)
            assert set(scans) == {len(W)}
    # at q = 3 the oracle over N*sym(M) is too large for M = {-4, -3}
    assert places == {"leading", "middle"} | ({"trailing"} if q == 2 else set())
    assert outcomes == {True, False}


# (universe, radius of N, memory): written scans of 8 to 10 cells
_DEAD_INPUT_SCANS = [
    ("Z", 1, [(-3,), (-2,), (-1,), (0,), (1,), (2,), (3,)]),
    ("Z", 1, [(1,), (2,), (3,), (4,), (5,), (6,), (7,)]),
    ("Z2", 1, [(0, 0), (0, 1), (1, 0)]),
    ("F2", 1, [(), (1,)]),
]


@pytest.mark.parametrize("alphabet", ["q1", "q2", "q3", "group"])
def test_determinacy_on_live_cells_matches_oracle(Z, Z2, F2, alphabet, monkeypatch):
    """Seeded tables with planted dead inputs on Z, Z^2 and F_2, over |A| =
    1, 2, 3 and a group alphabet whose identity is index 1, each under a cap
    one cell short of its written scan N*M and 1. Past the cap, the scan
    reads the identity's component of N*M'' and 1, M'' the cells the table
    reads (both found by brute force), and counts those cells against the
    cap; the table, or the witness over N*sym(M), is the oracle's, which
    scans all of N*sym(M).
    Random tables, cell-permutive ones on a plain alphabet, a pointed
    permutation of one cell, a constant rule and an arity-0 rule; a table
    that reads every cell is still refused."""
    A = {"q1": sy.Alphabet.plain(1), "q2": sy.Alphabet.plain(2), "q3": sy.Alphabet.plain(3),
         "group": cyclic_alphabet(3, 1)}[alphabet]
    q = A.size
    scans = []
    kernel = alphabets.StructuredMap.window_codes
    logged = lambda self, pos, n_cells: scans.append(n_cells) or kernel(self, pos, n_cells)
    monkeypatch.setattr(alphabets.StructuredMap, "window_codes", logged)
    rng = np.random.default_rng([q, 31])
    outcomes, capped = set(), 0
    for name, r, memory in _DEAD_INPUT_SCANS:
        G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
        N, M = sy.ball(G, r), sy.FiniteSubset(G, memory)
        if q ** len(sy.set_product(G, N, sy.symmetrize(G, M))) > 1 << 15:
            continue  # the oracle's scan of N*sym(M): Z^2 and F_2 at |A| = 3
        m, W = len(M), _scan_window(G, N, memory)
        tables = [np.full(q**m, A.basepoint), random_pointed_table(rng, A, m)]
        for _ in range(6):
            live = sorted(rng.choice(m, size=int(rng.integers(1, min(m, 4))), replace=False).tolist())
            tables.append(planted_table(rng, A, m, live))
            if not A.is_group:
                spread = _permutive_table(rng, q, len(live)).reshape([q if j in live else 1 for j in range(m)])
                tables.append(np.broadcast_to(spread, (q,) * m).ravel())
            perm = pointed_permutation(rng, A)
            tables.append(perm[np.arange(q**m) // q ** (m - 1 - live[0]) % q])
        set_cap(monkeypatch, str(max(q, 2) ** (len(W) - 1)))
        for table in tables:
            tau = make_table_ca(G, A, memory, table)
            live = [M[j] for j in oracle_live_inputs(tau.rule.map)]
            read = W if q == 1 else oracle_identity_component(G, N, live)
            scans.clear()
            if q ** len(read) > max(q, 2) ** (len(W) - 1):
                with pytest.raises(sy.ResourceCapError, match=f"^determinacy scan would have {q ** len(read)} entries"):
                    sy.determinacy_check(tau, N)
                capped += 1
                continue
            outcomes.add(_assert_matches_oracle(tau, N) is None)
            assert scans[0] == len(read)
    empty = make_table_ca(Z, A, [], [A.basepoint])
    assert (_assert_matches_oracle(empty, sy.ball(Z, 2)) is None) == (q == 1)
    assert outcomes == ({True} if q == 1 else {True, False})
    assert (capped > 0) == (q > 1)


# (universe, memory): memories whose windows split, on Z by parity or by
# distance, on Z^2 by row, on F_2 within and off the powers of a
_SPLIT_MEMORIES = [
    ("Z", [(-2,), (0,), (2,)]),
    ("Z", [(0,), (2,)]),
    ("Z", [(2,)]),
    ("Z2", [(-1, 0), (0, 0), (1, 0)]),
    ("F2", [(1,), (-1,)]),
    ("F2", [(), (1, 1)]),
]


@pytest.mark.parametrize("alphabet", ["q1", "q2", "q3", "group"])
def test_determinacy_on_the_identity_component_matches_oracle(Z, Z2, F2, alphabet, monkeypatch):
    """Seeded planted, cell-permutive, pointed-permutation and constant
    tables on split memories, N = ball(0) to ball(2), over |A| = 1, 2, 3
    and a group alphabet whose identity is index 1, each under a cap one
    cell short of its written scan N*M and 1. Past the cap, the scan reads
    only the identity's component of N*M'' and 1 (found by brute force),
    fewer cells than N*M'' and 1 for some tables, and counts those cells
    against the cap; the table, or the witness over N*sym(M), is the
    oracle's, which scans all of N*sym(M)."""
    A = {"q1": sy.Alphabet.plain(1), "q2": sy.Alphabet.plain(2), "q3": sy.Alphabet.plain(3),
         "group": cyclic_alphabet(3, 1)}[alphabet]
    q = A.size
    scans = []
    kernel = alphabets.StructuredMap.window_codes
    logged = lambda self, pos, n_cells: scans.append(n_cells) or kernel(self, pos, n_cells)
    monkeypatch.setattr(alphabets.StructuredMap, "window_codes", logged)
    rng = np.random.default_rng([q, 32])
    outcomes, narrowed, capped = set(), 0, 0
    for name, memory in _SPLIT_MEMORIES:
        G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
        M = sy.FiniteSubset(G, memory)
        m = len(M)
        for r in range(3):
            set_cap(monkeypatch, None)  # the last case's cap
            N, sym = sy.ball(G, r), sy.symmetrize(G, M)
            W = _scan_window(G, N, memory)
            cap = max(q, 2) ** (len(W) - 1)
            if q ** len(sy.set_product(G, N, sym)) > 1 << 15 or max(q ** len(N), len(N) * len(sym)) > cap:
                continue  # the oracle's scan of N*sym(M), or a cap met before the scan
            tables = [np.full(q**m, A.basepoint)]
            for _ in range(3):
                live = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
                tables.append(planted_table(rng, A, m, live))
                if not A.is_group:
                    tables.append(_permutive_table(rng, q, m))
                perm = pointed_permutation(rng, A)
                tables.append(perm[np.arange(q**m) // q ** (m - 1 - live[0]) % q])
            set_cap(monkeypatch, str(cap))
            for table in tables:
                tau = make_table_ca(G, A, list(M), table)
                live = [M[j] for j in oracle_live_inputs(tau.rule.map)]
                read = W if q == 1 else oracle_identity_component(G, N, live)
                scans.clear()
                if q ** len(read) > cap:
                    with pytest.raises(sy.ResourceCapError, match=f"^determinacy scan would have {q ** len(read)} entries"):
                        sy.determinacy_check(tau, N)
                    capped += 1
                    continue
                outcomes.add(_assert_matches_oracle(tau, N) is None)
                assert scans[0] == len(read)
                narrowed += len(read) < len(_scan_window(G, N, live))
    assert outcomes == ({True} if q == 1 else {True, False})
    assert (narrowed > 0) == (q > 1)
    assert (capped > 0) == (q > 1)


def test_axis_rule_on_z2_synthesizes_at_radius_1(Z2):
    """An invertible 4-symbol table on the x-axis of Z^2, memory {-1, 0, 1}:
    its written radius-1 scan would have 4^11 windows, past the default cap;
    the identity's component, the cells (-2, 0) to (2, 0), has 4^5."""
    tau = axis_table_ca()
    scans = []
    kernel = alphabets.StructuredMap.window_codes
    logged = lambda self, pos, n_cells: scans.append(n_cells) or kernel(self, pos, n_cells)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alphabets.StructuredMap, "window_codes", logged)
        assert sy.determinacy_check(tau, sy.ball(Z2, 1)).is_determined
    assert scans[0] == 5  # then the table is read back over the 5 cells of N
    res = sy.synthesize_left_inverse(tau, 2)
    assert res.found and res.radius == 1
    assert sy.check_right_inverse(res.ca, tau)


def test_matrix_determinacy_on_asymmetric_memories(Z, Z2, F2, monkeypatch):
    """Seeded matrix rules with one-sided memories: the linear system has a
    column block per cell of N*M and the identity; each verdict is the one
    of tau re-read over sym(M), whose system spans all of N*sym(M); a
    witness lies over N*sym(M), with equal images on N, through that copy,
    and different identity values."""
    kernel = alphabets.StructuredMap.window_matrix
    cells = []
    logged = lambda self, pos, n_cells: cells.append(n_cells) or kernel(self, pos, n_cells)
    monkeypatch.setattr(alphabets.StructuredMap, "window_matrix", logged)
    rng = np.random.default_rng(29)
    outcomes = set()
    for name, r, memory in _ASYMMETRIC_SCANS:
        G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
        N, M = sy.ball(G, r), sy.FiniteSubset(G, memory)
        for p, d in [(2, 2), (3, 1)]:
            A = sy.Alphabet.module(p, d)
            smap = sy.StructuredMap(A, len(M), matrices=rng.integers(0, p, size=(len(M), d, d)))
            tau = sy.CellularAutomaton(G, A, sy.LocalRule(M, smap))
            wide = _widened(tau)
            cells.clear()
            res = sy.determinacy_check(tau, N)
            assert cells == [len(_scan_window(G, N, memory))]
            assert _verdict(res) == _verdict(sy.determinacy_check(wide, N))
            outcomes.add(res.is_determined)
            if res.is_determined:
                continue
            x, y = res.witness
            assert x.domain == y.domain == sy.set_product(G, N, wide.memory)
            assert sy.induced_map(wide, N, x) == sy.induced_map(wide, N, y)
            assert x.value_at(G.identity()) != y.value_at(G.identity())
    assert outcomes == {True, False}


def test_witness_validity_reverified_through_induced_map(Z, Z2, bit):
    """The reported witness must be a genuine image collision: the xor of
    two neighbours on Z up to radius 3, and along the x-axis of Z^2 at
    radius 1."""
    for G, cells, r in [(Z, [(0,), (1,)], 3), (Z2, [(0, 0), (1, 0)], 1)]:
        xor = xor_ca(G, bit, cells)
        res = sy.synthesize_left_inverse(xor, r)
        assert not res.found
        x, y = res.witness
        xor_wide = sy.CellularAutomaton(
            G, bit, sy.extend_memory(xor.rule, sy.symmetrize(G, xor.memory))
        )
        N = sy.ball(G, r)
        ix = sy.induced_map(xor_wide, N, x)
        iy = sy.induced_map(xor_wide, N, y)
        assert ix.values == iy.values
        assert x.value_at(G.identity()) != y.value_at(G.identity())


def test_synthesize_shift(Z, Z2, bit):
    """The shift by one on Z, and along the x-axis of Z^2, inverts at radius 1."""
    for shift in (sy.projection_ca(Z, bit, (1,)), sy.projection_ca(Z2, bit, (1, 0))):
        res = sy.synthesize_left_inverse(shift, 2)
        assert res.found and res.radius == 1
        assert sy.check_left_inverse(res.ca, shift)
        assert sy.check_right_inverse(res.ca, shift)


def test_synthesize_identity_radius_zero(Z, bit):
    ident = sy.identity_ca(Z, bit)
    res = sy.synthesize_left_inverse(ident, 0)
    assert res.found and res.radius == 0


def test_synthesize_linear_rule(Z, Z2):
    """Matrix-rule synthesis solves the reversible pair exactly, and finds the
    shift by (2, 0) on Z^2 back at radius 2."""
    A = sy.Alphabet.module(2, 2)
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    one, t = Z.identity(), (1,)
    C = sy.GroupRingMatrix(Z, 2, [[E({}), E({one: 1})], [E({one: 1}), E({t: 1})]])
    tau = sy.to_linear_ca(C, Z, A)
    res = sy.synthesize_left_inverse(tau, 2)
    assert res.found and res.radius == 1
    assert res.ca.rule.map.is_matrix  # structure preserved
    assert sy.check_right_inverse(res.ca, tau)
    f2 = sy.Alphabet.module(2, 1)
    stretched = sy.LocalRule(sy.FiniteSubset(Z2, [(2, 0)]), sy.StructuredMap(f2, 1, matrices=[[[1]]]))
    res = sy.synthesize_left_inverse(sy.CellularAutomaton(Z2, f2, stretched), 3)
    assert res.found and res.radius == 2


def test_synthesize_linear_negative(Z):
    A = sy.Alphabet.module(2, 1)
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    X1 = sy.GroupRingMatrix(Z, 2, [[E({Z.identity(): 1, (1,): 1})]])
    tau = sy.to_linear_ca(X1, Z, A)
    res = sy.synthesize_left_inverse(tau, 3)
    assert not res.found
    x, y = res.witness
    assert x.value_at(Z.identity()) != y.value_at(Z.identity())


def test_determinacy_monotone_on_nested_balls(Z, bit):
    """Once the image determines the center it keeps doing so on supersets."""
    shift = sy.projection_ca(Z, bit, (1,))
    assert not sy.determinacy_check(shift, sy.ball(Z, 0)).is_determined
    for r in (1, 2, 3):
        assert sy.determinacy_check(shift, sy.ball(Z, r)).is_determined


def test_soundness_randomized(Z, bit):
    """Whatever the search returns passes both inverse checks."""
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(60):
        table = rng.integers(0, 2, size=2)
        table[0] = 0
        tau = make_table_ca(Z, bit, [(int(rng.integers(-1, 2)),)], table)
        res = sy.synthesize_left_inverse(tau, 2)
        if res.found:
            found += 1
            assert sy.check_left_inverse(res.ca, tau)
            assert sy.check_right_inverse(res.ca, tau)
    assert found > 0


def test_matrix_rule_composite_modulus_rejected(Z):
    from symba.errors import UnsupportedModulusError

    A = sy.Alphabet.module(4, 1)
    mem = sy.FiniteSubset(Z, [(1,)])
    tau = sy.CellularAutomaton(
        Z, A, sy.LocalRule(mem, sy.StructuredMap(A, 1, matrices=[[[1]]]))
    )
    with pytest.raises(UnsupportedModulusError):
        sy.determinacy_check(tau, sy.ball(Z, 1))


def test_group_alphabet_synthesis(Z):
    """Shift over a nonabelian value group still inverts at radius 1."""
    from conftest import symmetric_table

    A = sy.Alphabet.group(symmetric_table(3))
    shift = sy.projection_ca(Z, A, (1,))
    res = sy.synthesize_left_inverse(shift, 1)
    assert res.found and res.radius == 1
    assert sy.check_right_inverse(res.ca, shift)


def _widened(tau):
    """tau re-read over its symmetrized memory, as synthesis once scanned it."""
    G = tau.universe
    rule = sy.extend_memory(tau.rule, sy.symmetrize(G, tau.memory))
    return sy.CellularAutomaton(G, tau.alphabet, rule)


def _rule_bytes(rule):
    smap = rule.map
    return list(rule.memory), (smap.matrices if smap.is_matrix else smap.table).tobytes()


def _verdict(res):
    """A determinacy or synthesis result as comparable data: rule bytes or witnesses."""
    rule = res.rule if isinstance(res, sy.DeterminacyResult) else res.found and res.ca.rule
    if rule:
        return getattr(res, "radius", None), _rule_bytes(rule)
    return [(list(p.domain), p.values) for p in res.witness]


def _swap_rule(G, A, g1, g2, rng):
    """(a, b) at g becomes P(a at g*g1 + b at g*g2, b at g*g2) for a seeded
    invertible P over F_2: invertible, with inverse memory {g1^-1, g2^-1},
    and memory {g1, g2}, not symmetric."""
    P = rng.integers(0, 2, size=(2, 2))
    while round(np.linalg.det(P)) % 2 == 0:
        P = rng.integers(0, 2, size=(2, 2))
    mats = {g1: P @ [[1, 0], [0, 0]], g2: P @ [[0, 1], [0, 1]]}
    memory = sy.FiniteSubset(G, [g1, g2])
    smap = sy.StructuredMap(A, 2, matrices=[mats[m] for m in memory])
    return sy.CellularAutomaton(G, A, sy.LocalRule(memory, smap))


def _as_given_case(name, seed):
    """(tau, r_max, whether a left inverse exists by r_max) for each named case."""
    rng = np.random.default_rng(seed)
    Z, Z2, F2 = sy.FreeAbelianGroup(1), sy.FreeAbelianGroup(2), sy.FreeGroup(2)
    bit, pair, f3 = sy.Alphabet.plain(2), sy.Alphabet.module(2, 2), sy.Alphabet.module(3, 1)
    cells = {"Z": (Z, [(1,), (3,)]), "Z2": (Z2, [(0, 1), (1, 0)]), "F2": (F2, [(1,), (2,)])}
    kind, where = name.split("-")
    G, memory = cells[where]
    if kind == "table":  # a seeded table: no inverse
        return make_table_ca(G, bit, memory, random_pointed_table(rng, bit, 2)), 1, False
    if kind == "first":  # reads two cells, keeps the first: an inverse at radius 1
        return make_table_ca(G, bit, memory, [0, 0, 1, 1]), 1, True
    if kind == "matrix":  # seeded scalars mod 3 at both cells: no inverse
        mats = rng.integers(1, 3, size=(2, 1, 1))
        rule = sy.LocalRule(sy.FiniteSubset(G, memory), sy.StructuredMap(f3, 2, matrices=mats))
        return sy.CellularAutomaton(G, f3, rule), 1, False
    if kind == "swap":
        return _swap_rule(G, pair, *memory, rng), 3 if where == "Z" else 1, True
    # the swap rule over Z with its table over a plain alphabet of size 4
    swap = _swap_rule(Z, pair, (1,), (2,), rng)
    table = swap.rule.map.expand_table().table
    return make_table_ca(Z, sy.Alphabet.plain(4), [(1,), (2,)], table), 2, True


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name",
    ["table-Z", "table-Z2", "table-F2", "first-Z", "first-Z2", "first-F2",
     "matrix-Z", "matrix-Z2", "matrix-F2", "swap-Z", "swap-Z2", "swap-F2", "swaptable-Z"],
)
def test_tau_read_as_given_matches_the_widened_copy(name, seed):
    """Determinacy and synthesis on tau as given give the same rule bytes, or
    the same witness patterns, as on tau re-read over its symmetrized memory."""
    tau, r_max, found = _as_given_case(name, seed)
    wide = _widened(tau)
    assert list(wide.memory) != list(tau.memory)
    for r in range(r_max + 1):
        N = sy.ball(tau.universe, r)
        assert _verdict(sy.determinacy_check(tau, N)) == _verdict(sy.determinacy_check(wide, N))
    res = sy.synthesize_left_inverse(tau, r_max)
    assert res.found == found
    assert _verdict(res) == _verdict(sy.synthesize_left_inverse(wide, r_max))


def test_search_stops_once_the_ball_stops_growing(bit, monkeypatch):
    """On Z/3, ball(1) is the whole group, so every radius past 1 would repeat
    radius 1's scan: a bound of 10^6 scans twice and keeps radius 1's witness."""
    from symba import synthesis

    z3 = sy.FiniteGroup.cyclic(3)
    xor = xor_ca(z3, bit, [0, 1])
    expected = sy.synthesize_left_inverse(xor, 1)
    calls = []

    scan = synthesis._determinacy

    def counted(tau, N):
        calls.append(N)
        if len(calls) > 2:
            raise AssertionError("scanned a radius whose ball did not grow")
        return scan(tau, N)

    monkeypatch.setattr(synthesis, "_determinacy", counted)
    res = sy.synthesize_left_inverse(xor, 10**6)
    assert not res.found and res.radius is None
    assert res.witness == expected.witness is not None
    assert calls == [sy.ball(z3, 0), sy.ball(z3, 1)]


def _search_by_radius(tau, r_max):
    """The search as a plain loop over determinacy_check: (radius, rule, scans)
    when found, else (None, the witness of the last radius whose ball grew,
    scans)."""
    G, previous, scans = tau.universe, None, 0
    for r in range(r_max + 1):
        N = sy.ball(G, r)
        if N == previous:
            break
        previous, scans = N, scans + 1
        res = sy.determinacy_check(tau, N)
        if res.is_determined:
            return r, res.rule, scans
        witness = res.witness
    return None, witness, scans


def _equivalence_case(where, kind, q, seed):
    """(tau, r_max): a seeded rule on two cells of `where`."""
    rng = np.random.default_rng([seed, q, 34])
    cells = {
        "Z": (sy.FreeAbelianGroup(1), [(1,), (2,)], 2),
        "Z2": (sy.FreeAbelianGroup(2), [(0, 1), (1, 0)], 1),
        "F2": (sy.FreeGroup(2), [(1,), (-2,)], 1),
        "C3": (sy.FiniteGroup.cyclic(3), [0, 1], 10**6),
    }
    G, memory, r_max = cells[where]
    if kind == "matrix":  # seeded scalars mod q at both cells
        A = sy.Alphabet.module(q, 1)
        mats = rng.integers(0, q, size=(2, 1, 1))
        rule = sy.LocalRule(sy.FiniteSubset(G, memory), sy.StructuredMap(A, 2, matrices=mats))
        return sy.CellularAutomaton(G, A, rule), r_max
    A = sy.Alphabet.plain(q)
    if kind == "table":
        return make_table_ca(G, A, memory, random_pointed_table(rng, A, 2)), r_max
    # a seeded permutation of one cell, invertible
    read = int(rng.integers(0, 2))
    table = pointed_permutation(rng, A)[np.arange(q * q) // q ** (1 - read) % q]
    return make_table_ca(G, A, memory, table), r_max


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind, q", [("table", 2), ("table", 3), ("perm", 2), ("perm", 3), ("matrix", 2), ("matrix", 3)])
@pytest.mark.parametrize("where", ["Z", "Z2", "F2", "C3"])
def test_synthesis_matches_a_loop_over_determinacy_check(where, kind, q, seed, monkeypatch):
    """synthesize_left_inverse finds the radius and rule of a plain loop over
    determinacy_check, or reports the witness of its last radius whose ball
    grew. Each ball is scanned once, and pulled only after the previous
    radius's scan; one witness is built when none is found, none otherwise."""
    from symba import synthesis

    tau, r_max = _equivalence_case(where, kind, q, seed)
    radius, found, scans = _search_by_radius(tau, r_max)
    events = []
    balls, scan, witness = synthesis._balls, synthesis._determinacy, synthesis._witness

    def logged_balls(G):
        for N in balls(G):
            events.append("ball")
            yield N

    monkeypatch.setattr(synthesis, "_balls", logged_balls)
    monkeypatch.setattr(synthesis, "_determinacy", lambda *a: events.append("scan") or scan(*a))
    monkeypatch.setattr(synthesis, "_witness", lambda *a: events.append("witness") or witness(*a))
    res = sy.synthesize_left_inverse(tau, r_max)
    assert events == ["ball", "scan"] * scans + ([] if res.found else ["witness"])
    assert res.radius == radius
    if radius is not None:
        assert _rule_bytes(res.ca.rule) == _rule_bytes(found)
        return
    assert res.witness == found
    # a matrix witness comes from a kernel, not the first conflict; the oracle
    # decodes every window of N*M' at once, so it stops at 2^18 of them
    if kind != "matrix" and q ** len(found[0].domain) <= 1 << 18:
        N = sy.ball(tau.universe, scans - 1)
        assert (found[0].values, found[1].values) == oracle_determinacy_witness(tau, N)
