"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they are used to
check: they index windows with their own dictionaries, decode pattern
spaces with their own mixed-radix arithmetic, and touch rule tables
directly.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import symba as sy


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    """Every test starts from the default caps, whatever SYMBA_CAP the shell exports."""
    monkeypatch.delenv("SYMBA_CAP", raising=False)


@pytest.fixture
def Z():
    return sy.FreeAbelianGroup(1)


@pytest.fixture
def Z2():
    return sy.FreeAbelianGroup(2)


@pytest.fixture
def F2():
    return sy.FreeGroup(2)


@pytest.fixture
def bit():
    return sy.Alphabet.plain(2)


def make_table_ca(G, A, memory_elems, table):
    memory = sy.FiniteSubset(G, memory_elems)
    smap = sy.StructuredMap(A, len(memory), table=table)
    return sy.CellularAutomaton(G, A, sy.LocalRule(memory, smap))


def xor_ca(G, A, cells):
    """Sum mod alphabet-size over the given memory cells (table rule)."""
    memory = sy.FiniteSubset(G, cells)
    m = len(memory)
    q = A.size
    table = [sum(w) % q for w in itertools.product(range(q), repeat=m)]
    return make_table_ca(G, A, list(memory), table)


def pair_CD(Z):
    """A linear pair over Z with coefficients in Z/2: D is a two-sided
    inverse of the 2x2 group-ring matrix C."""
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    one, t = Z.identity(), (1,)
    C = sy.GroupRingMatrix(Z, 2, [[E({}), E({one: 1})], [E({one: 1}), E({t: 1})]])
    D = sy.GroupRingMatrix(Z, 2, [[E({t: 1}), E({one: 1})], [E({one: 1}), E({})]])
    return C, D


def axis_table_ca():
    """A seeded invertible matrix rule over Z, memory {-1, 0, 1} and
    alphabet (Z/2)^2, read as a table over 4 plain symbols on the x-axis of
    Z^2: a rule whose memory lies in a proper subgroup."""
    Z, Z2 = sy.FreeAbelianGroup(1), sy.FreeAbelianGroup(2)
    C, _ = sy.random_invertible_matrix(Z, 2, 2, 1, 2, factors=3)
    line = sy.to_linear_ca(C, Z, sy.Alphabet.module(2, 2))
    cells = [(m[0], 0) for m in line.memory]
    return make_table_ca(Z2, sy.Alphabet.plain(4), cells, line.rule.map.expand_table().table)


def symmetric_table(n):
    """Multiplication table of the symmetric group on n points."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms
    ]


def reduce_word_free(word):
    """Independent free reduction: repeated adjacent-cancellation scan."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def brute_force_free_ball(rank, radius):
    """All reduced words of length <= radius, by reducing every raw string."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    seen = set()
    for n in range(radius + 1):
        for raw in itertools.product(letters, repeat=n):
            w = reduce_word_free(raw)
            if len(w) <= radius:
                seen.add(w)
    return seen


def oracle_left_identity(sigma, tau, window_elems, cap=1 << 18):
    """Brute force: does sigma-after-tau fix every pattern on the window?

    Enumerates every assignment on the cells {g*s*m} for g in the window,
    s in sigma's memory, m in tau's memory, evaluates the composite through
    the raw rule tables, and compares with the window values. Returns None
    when the pattern space would exceed `cap`.
    """
    G, A = tau.universe, tau.alphabet
    q = A.size
    Ms, Mt = list(sigma.memory), list(tau.memory)
    tbl_s = sigma.rule.map.expand_table().table
    tbl_t = tau.rule.map.expand_table().table

    cells = []
    index = {}

    def idx(u):
        if u not in index:
            index[u] = len(cells)
            cells.append(u)
        return index[u]

    pos = np.array(
        [
            [[idx(G.mul(G.mul(g, s), m)) for m in Mt] for s in Ms]
            for g in window_elems
        ],
        dtype=np.int64,
    )
    win = np.array([idx(g) for g in window_elems], dtype=np.int64)
    n = len(cells)
    if q**n > cap:
        return None
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    X = (np.arange(q**n, dtype=np.int64)[:, None] // radix[None, :]) % q
    rt = q ** np.arange(len(Mt) - 1, -1, -1, dtype=np.int64)
    rs = q ** np.arange(len(Ms) - 1, -1, -1, dtype=np.int64)
    for gi in range(len(window_elems)):
        inner = tbl_t[X[:, pos[gi]] @ rt]
        out = tbl_s[inner @ rs]
        if not np.array_equal(out, X[:, win[gi]]):
            return False
    return True


def oracle_ball_action_letters(G, R):
    """Letter permutations of the radius-R ball-action embedding, by a plain loop.

    On ball(R+1), in canonical order, letter i sends x to the free reduction
    of i·x when that stays in the ball; the points it pushes out take the
    targets no point reached, in increasing order. Returns {i: perm} for
    the positive letters.
    """
    pts = list(sy.ball(G, R + 1))
    at = {x: j for j, x in enumerate(pts)}
    n = len(pts)
    letters = {}
    for i in range(1, G.rank + 1):
        perm, used = [-1] * n, [False] * n
        for idx, x in enumerate(pts):
            y = reduce_word_free((i,) + x)
            if y in at:
                perm[idx] = at[y]
                used[at[y]] = True
        free_targets = iter([j for j in range(n) if not used[j]])
        letters[i] = tuple(j if j >= 0 else next(free_targets) for j in perm)
    return letters


def oracle_pointed(smap):
    """Pointedness by evaluation: the map applied, through `evaluate_batch`,
    to the window holding the basepoint at every cell."""
    e = smap.alphabet.basepoint
    return smap.evaluate_batch([[e] * smap.arity])[0] == e


def oracle_sort_key(G, a):
    """The canonical order's key, worked out per element: free-group words
    by length, then letterwise with a < a^-1 < b < ...; products factor by
    factor; every other kind by its encoding."""
    if isinstance(G, sy.FreeGroup):
        return (len(a), tuple([2 * x - 2 if x > 0 else -2 * x - 1 for x in a]))
    if isinstance(G, sy.ProductGroup):
        return tuple(oracle_sort_key(f, x) for f, x in zip(G.factors, a))
    return a


def random_pointed_table(rng, A, arity):
    """A uniformly random rule table fixing the all-basepoints window."""
    q = A.size
    table = rng.integers(0, q, size=q**arity)
    base_idx = int(sum(A.basepoint * q**k for k in range(arity)))
    table[base_idx] = A.basepoint
    return table


def planted_table(rng, A, arity, live):
    """A seeded pointed table of `arity` inputs that reads only those in `live`."""
    q = A.size
    table = random_pointed_table(rng, A, len(live))
    axes = [q if j in live else 1 for j in range(arity)]
    return np.broadcast_to(table.reshape(axes), (q,) * arity).ravel()


def pointed_permutation(rng, A):
    """A seeded permutation of A's indices that fixes the basepoint."""
    perm, e = rng.permutation(A.size), A.basepoint
    k = int(np.flatnonzero(perm == e)[0])
    perm[[e, k]] = perm[[k, e]]
    return perm


def cyclic_alphabet(n, identity):
    """Z/n as a group alphabet whose identity is the index `identity`."""
    label = [(k + identity) % n for k in range(n)]  # label[k]: the index of k in Z/n
    table = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        table[label[a]][label[b]] = label[(a + b) % n]
    return sy.Alphabet.group(table)


def oracle_live_inputs(smap):
    """The inputs a table rule reads, by brute force: input j is read when
    setting digit j of some input tuple to 0 changes the value."""
    q, m = smap.alphabet.size, smap.arity
    X = np.array(list(itertools.product(range(q), repeat=m)), dtype=np.int64).reshape(-1, m)
    rt = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    live = []
    for j in range(m):
        Y = X.copy()
        Y[:, j] = 0
        if (smap.table[X @ rt] != smap.table[Y @ rt]).any():
            live.append(j)
    return live


def oracle_identity_component(G, N, memory):
    """The cells a large determinacy scan reads, by brute force: starting
    from {1}, every window g*memory (g in N) that meets the cells gathered
    so far is merged into them, until no window adds a cell."""
    windows = [{G.mul(g, m) for m in memory} for g in N]
    cells, grown = {G.identity()}, True
    while grown:
        grown = False
        for window in windows:
            if window & cells and not window <= cells:
                cells |= window
                grown = True
    return cells


def oracle_determinacy_witness(tau, N):
    """Unchunked determinacy scan: the first conflict pair as value tuples.

    Decodes the whole pattern space on N*M at once, reads each image through
    the raw rule table, then walks the windows in enumeration order keeping
    the earliest window of every image. Returns (x, y) for the first window
    y whose identity value differs from that earliest window x, or None.
    """
    G, A = tau.universe, tau.alphabet
    q = A.size
    Mt = list(tau.memory)
    NM = list(sy.set_product(G, N, sy.symmetrize(G, tau.memory)))
    at = {u: i for i, u in enumerate(NM)}
    tbl = tau.rule.map.expand_table().table
    n = len(NM)
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    X = (np.arange(q**n, dtype=np.int64)[:, None] // radix[None, :]) % q
    rt = q ** np.arange(len(Mt) - 1, -1, -1, dtype=np.int64)
    images = np.stack([tbl[X[:, [at[G.mul(g, m)] for m in Mt]] @ rt] for g in N], axis=1)
    center = X[:, at[G.identity()]]
    earliest = {}
    for y, image in enumerate(map(tuple, images.tolist())):
        x = earliest.setdefault(image, y)
        if center[x] != center[y]:
            return tuple(int(v) for v in X[x]), tuple(int(v) for v in X[y])
    return None


def oracle_verify_embedding(e, M):
    """Whether e embeds the window of M, by brute force from set_product.

    Raises InvalidInputError, with verify_embedding's messages, when M lives
    in another group or M or M*M leaves the subset; else checks phi
    injective on M*M and phi(a)phi(b) = phi(ab) over all of M x M.
    """
    G, F, phi = e.source, e.target, e.phi
    if M.group != G:
        raise sy.InvalidInputError("memory lives in the wrong group")
    M2 = sy.set_product(G, M, M)
    if any(x not in e.subset for x in [*M, *M2]):
        raise sy.InvalidInputError("embedded subset must contain M and M*M")
    injective = len({phi[x] for x in M2}) == len(M2)
    products = all(F.mul(phi[a], phi[b]) == phi[G.mul(a, b)] for a in M for b in M)
    return injective and products


def oracle_transport_table(tau, e):
    """Transported table of a table rule, read cell by cell.

    Decodes all of A^F with its own mixed-radix arithmetic, applies the raw
    rule table at the cells h*phi(m) of every cell h of F (carrier in
    canonical order), and encodes the images; no alphabets kernel is used.
    """
    F = e.target
    carrier = list(F.elements())
    at = {h: i for i, h in enumerate(carrier)}
    q, n = tau.alphabet.size, len(carrier)
    Mt = list(tau.memory)
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    X = (np.arange(q**n, dtype=np.int64)[:, None] // radix[None, :]) % q
    rt = q ** np.arange(len(Mt) - 1, -1, -1, dtype=np.int64)
    tbl = tau.rule.map.table
    out = np.zeros(q**n, dtype=np.int64)
    for i, h in enumerate(carrier):
        cells = [at[F.mul(h, e.phi[m])] for m in Mt]
        out += radix[i] * tbl[X[:, cells] @ rt]
    return out


def oracle_transport_matrix(tau, e):
    """Transported block matrix of a matrix rule, built cell by cell.

    Block (h, h*phi(m)) gains the rule's matrix of m, for every cell h of F
    (carrier in canonical order) and every m in the memory, by plain group
    products; the sums are reduced mod p at the end.
    """
    F = e.target
    carrier = list(F.elements())
    at = {h: i for i, h in enumerate(carrier)}
    A = tau.alphabet
    d, n = A.dim, len(carrier)
    out = np.zeros((n, d, n, d), dtype=np.int64)
    for i, h in enumerate(carrier):
        for m, mat in zip(tau.memory, tau.rule.map.matrices):
            out[i, :, at[F.mul(h, e.phi[m])], :] += mat
    return out.reshape(n * d, n * d) % A.modulus


def oracle_window_table(table, q, pos, n_cells):
    """window_table of a raw rule table, read configuration by configuration.

    Decodes all of A^n_cells with its own mixed-radix arithmetic (leftmost
    cell most significant), reads the rule table at the code of the cells
    pos[i] (leftmost most significant), and encodes the len(pos) values the
    same way, window 0 most significant; no alphabets kernel is used.
    """
    radix = q ** np.arange(n_cells - 1, -1, -1, dtype=np.int64)
    X = (np.arange(q**n_cells, dtype=np.int64)[:, None] // radix[None, :]) % q
    tbl = np.asarray(table, dtype=np.int64)
    out = np.zeros(q**n_cells, dtype=np.int64)
    for cells in pos:
        rt = q ** np.arange(len(cells) - 1, -1, -1, dtype=np.int64)
        out = q * out + tbl[X[:, list(cells)] @ rt]
    return out


def oracle_determinacy_table(tau, N):
    """The inverse table a conflict-free determinacy scan should synthesize.

    Decodes the pattern space on N*M the same way as
    oracle_determinacy_witness and reads each window's image on N through
    the raw rule table. Entry k of the result is the identity value of the
    earliest window whose image has code k (mixed radix over N, leftmost
    cell most significant), and the basepoint for codes no window hits.
    """
    G, A = tau.universe, tau.alphabet
    q = A.size
    Mt = list(tau.memory)
    NM = list(sy.set_product(G, N, sy.symmetrize(G, tau.memory)))
    at = {u: i for i, u in enumerate(NM)}
    tbl = tau.rule.map.expand_table().table
    n = len(NM)
    radix = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    X = (np.arange(q**n, dtype=np.int64)[:, None] // radix[None, :]) % q
    rt = q ** np.arange(len(Mt) - 1, -1, -1, dtype=np.int64)
    rn = q ** np.arange(len(N) - 1, -1, -1, dtype=np.int64)
    codes = sum(
        rn[i] * tbl[X[:, [at[G.mul(g, m)] for m in Mt]] @ rt] for i, g in enumerate(N)
    )
    hit, earliest = np.unique(codes, return_index=True)
    table = np.full(q ** len(N), A.basepoint, dtype=np.int64)
    table[hit] = X[earliest, at[G.identity()]]
    return table


def oracle_module_morphism(A, arity, table):
    """The pair scan for module tables: additive on all input pairs, and
    compatible with every scalar, with values decoded to vectors here."""
    n, d = A.modulus, A.dim
    vectors = list(itertools.product(range(n), repeat=d))  # index order of A
    index = {v: i for i, v in enumerate(vectors)}
    inputs = list(itertools.product(range(len(vectors)), repeat=arity))
    f = dict(zip(inputs, (int(v) for v in table)))

    def combine(c, x, y):
        return tuple(index[tuple((c * a + b) % n for a, b in zip(vectors[i], vectors[j]))]
                     for i, j in zip(x, y))

    zero = (0,) * arity
    for x in inputs:
        for y in inputs:
            if f[combine(1, x, y)] != combine(1, (f[x],), (f[y],))[0]:
                return False
        for c in range(n):
            if f[combine(c, x, zero)] != combine(c, (f[x],), (0,))[0]:
                return False
    return True


def oracle_group_morphism(A, arity, table):
    """The pair scan for group tables: f(xy) = f(x)f(y) on all input pairs,
    with the componentwise product read from the raw multiplication table
    and inputs indexed by plain mixed-radix arithmetic here."""
    mul = np.array(A.table.table)
    q = len(mul)
    inputs = np.array(list(itertools.product(range(q), repeat=arity)), dtype=np.int64)
    products = mul[inputs[:, None, :], inputs[None, :, :]].reshape(len(inputs) ** 2, arity)
    index = products @ (q ** np.arange(arity - 1, -1, -1, dtype=np.int64))
    f = np.asarray(table, dtype=np.int64)
    return bool(np.array_equal(f[index].reshape(len(f), len(f)), mul[f[:, None], f[None, :]]))


def oracle_division_index(F):
    """div[h, k] = position of h^-1 k in F's enumeration, by plain group products."""
    carrier = list(F.elements())
    at = {h: i for i, h in enumerate(carrier)}
    return np.array([[at[F.mul(F.inv(h), k)] for k in carrier] for h in carrier])


def oracle_block_circulant(B):
    """The (N*d) x (N*d) matrix whose block (h, k) is B's coefficient of x^((k - h) mod N)."""
    d, N = B.shape[0], B.shape[2]
    full = np.zeros((N * d, N * d), dtype=np.int64)
    for h in range(N):
        for k in range(N):
            full[h * d : (h + 1) * d, k * d : (k + 1) * d] = B[:, :, (k - h) % N]
    return full


def oracle_rref(A, p):
    """Reduced row echelon form of A mod p in Python integers: (rows, pivot columns)."""
    R = [[int(x) % p for x in row] for row in np.asarray(A).tolist()]
    n_cols = len(R[0]) if R else 0
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        lead = next((i for i in range(r, len(R)) if R[i][c]), None)
        if lead is None:
            continue
        R[r], R[lead] = R[lead], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i, row in enumerate(R):
            if i != r and row[c]:
                f = row[c]
                R[i] = [(x - f * y) % p for x, y in zip(row, R[r])]
        pivots.append(c)
    return R, pivots


def oracle_random_invertible_matrix(G, seed, d, r, modulus, factors=5):
    """The generator as a product of explicit elementary matrices.

    The same rng draws as `random_invertible_matrix`, but each factor is
    built as a matrix and multiplied in with a full `matrix_mul`.
    """
    rng = np.random.default_rng(seed)
    B = list(sy.ball(G, r))
    identity = sy.GroupRingMatrix.identity(G, modulus, d)

    def elementary(i, j, g, c):
        entries = [list(row) for row in identity.entries]
        entries[i][j] = sy.GroupRingElement.monomial(G, modulus, g, c)
        return sy.GroupRingMatrix(G, modulus, entries)

    fwd = rev = identity
    for _ in range(factors):
        g = B[int(rng.integers(len(B)))]
        c = int(rng.integers(1, modulus))
        if d >= 2 and rng.integers(2) == 0:
            i = int(rng.integers(d))
            j = int(rng.integers(d - 1))
            j = j + 1 if j >= i else j
            F, F_inv = elementary(i, j, g, c), elementary(i, j, g, -c)
        else:
            i = int(rng.integers(d))
            F = elementary(i, i, g, c)
            F_inv = elementary(i, i, G.inv(g), pow(c, modulus - 2, modulus))
        fwd = sy.matrix_mul(fwd, F)
        rev = sy.matrix_mul(F_inv, rev)
    return fwd, rev


def oracle_evolve(tau, p, steps):
    """Window dynamics as separate stages: keep, product window, restrict, apply.

    Each step keeps the candidates g = e * M[0]^-1 whose g*M lies in the
    window, restricts the pattern to E*M (from `set_product`) through its
    own dictionary, and applies the rule with `induced_map`. None when the
    window empties.
    """
    G, M = tau.universe, tau.memory
    anchor = G.inv(M[0])
    for _ in range(steps):
        window = dict(zip(p.domain, p.values))
        candidates = {G.mul(e, anchor) for e in window}
        kept = [g for g in candidates if all(G.mul(g, m) in window for m in M)]
        if not kept:
            return None
        E = sy.FiniteSubset(G, kept)
        EM = sy.set_product(G, E, M)
        p = sy.induced_map(tau, E, sy.Pattern(EM, tuple(window[x] for x in EM)))
    return p
