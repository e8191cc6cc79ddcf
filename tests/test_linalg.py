"""Products and cyclic inverses mod p, the modulus bound of elimination,
and group-table validation.

The oracles here use Python integers and brute force: a plain triple loop
for products, and all n^3 triples for associativity.
"""

import itertools

import numpy as np
import pytest

import symba as sy
from symba import linalg, transport
from symba.errors import InvalidInputError, UnsupportedModulusError

from conftest import oracle_block_circulant, oracle_rref, symmetric_table

LARGEST_PRIME = 1048573  # the largest prime below MAX_MODULUS = 2^20


def _oracle_matmul(A, B, p):
    cols = list(zip(*B.tolist()))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in A.tolist()]


@pytest.mark.parametrize(
    "p, n, k, m",
    [
        (2, 5, 7, 4),
        (3, 1, 1, 1),
        (3, 6, 40, 5),
        (LARGEST_PRIME, 4, 9, 3),
        (LARGEST_PRIME, 2, 8200, 3),  # two chunks
    ],
)
def test_matmul_matches_python_integers(p, n, k, m):
    rng = np.random.default_rng([p, k])
    A = rng.integers(-p, 2 * p, size=(n, k))
    B = rng.integers(-p, 2 * p, size=(k, m))
    assert linalg.matmul(A, B, p).tolist() == _oracle_matmul(A, B, p)


def test_matmul_exact_at_the_largest_entries():
    """Entries just below p: in one chunk the sums would pass 2^53 and round."""
    p, k = LARGEST_PRIME, 8200
    rng = np.random.default_rng(1)
    A = rng.integers(p - 1000, p, size=(4, k))
    B = rng.integers(p - 1000, p, size=(k, 4))
    assert linalg.matmul(A, B, p).tolist() == _oracle_matmul(A, B, p)


def test_invert_exact_at_the_largest_prime():
    rng = np.random.default_rng(5)
    p = LARGEST_PRIME
    for _ in range(5):
        A = rng.integers(0, p, size=(8, 8))
        X = linalg.invert(A, p)
        assert X is not None
        assert _oracle_matmul(A, X, p) == np.eye(8, dtype=int).tolist()


def _all_left_solutions(A, E, p):
    """Every R with R @ A = E mod p, by enumerating all of (Z/p)^(e x k)."""
    e, k = E.shape[0], A.shape[0]
    R = np.array(list(itertools.product(range(p), repeat=e * k))).reshape(-1, e, k)
    hits = ((R @ A) % p == E % p).all(axis=(1, 2))
    return {r.tobytes() for r in R[hits]}


def test_left_solve_matches_brute_force():
    """Solvable iff brute force finds an R; otherwise the kernel, which separates E."""
    rng = np.random.default_rng(20211201)
    seen = {True: 0, False: 0}
    for p in (2, 3):
        for k, n in [(1, 1), (2, 1), (1, 3), (2, 3), (3, 2), (3, 3), (4, 3)]:
            for e in (1, 2):
                for trial in range(6):
                    A = rng.integers(0, p, size=(k, n))
                    if trial % 3 == 0:
                        A[-1] = (2 * A[0]) % p  # rank deficient
                    if trial % 2:
                        E = rng.integers(0, p, size=(e, k)) @ A % p  # solvable
                    else:
                        E = rng.integers(0, p, size=(e, n))
                    solutions = _all_left_solutions(A, E, p)
                    R, kernel = linalg.left_solve(A, E, p)
                    seen[R is not None] += 1
                    if solutions:
                        assert kernel is None and R.tobytes() in solutions
                    else:
                        # the kernel of A, and some vector of it separates E
                        assert R is None
                        assert kernel.tobytes() == linalg.nullspace_basis(A, p).tobytes()
                        assert not (A @ kernel.T % p).any() and (E @ kernel.T % p).any()
    assert seen[True] and seen[False]


def _rref_cases(rng, p):
    """Dense, banded and near-permutation matrices, square or not, some rank deficient."""
    for rows, cols in [(1, 1), (3, 3), (5, 8), (8, 5), (12, 12), (7, 16)]:
        yield rng.integers(0, p, size=(rows, cols))
        k = max(1, min(rows, cols) // 2)  # rank at most k
        yield rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
        band = rng.integers(0, p, size=(rows, cols))
        band[np.abs(np.subtract.outer(np.arange(rows), np.arange(cols))) > 1] = 0
        yield band
        # one nonzero per row at a permuted column, a second one in half the rows
        near = np.zeros((rows, cols), dtype=np.int64)
        near[np.arange(rows), rng.permutation(max(rows, cols))[:rows] % cols] = rng.integers(1, p, size=rows)
        extra = rng.permutation(rows)[: rows // 2]
        near[extra, rng.integers(0, cols, size=extra.size)] = rng.integers(1, p, size=extra.size)
        yield near
        if rows > 1:
            near[-1] = near[0] * 2 % p  # a repeated row
            yield near
    yield np.zeros((4, 6), dtype=np.int64)
    yield rng.integers(-3 * p, 3 * p, size=(6, 9))  # entries outside 0..p-1
    # column 1's first nonzero is in row 0, which holds column 0's pivot; the
    # first row without a pivot that is nonzero there is row 2, below row 1
    scale = rng.integers(1, p, size=(3, 1))
    yield np.array([[1, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]]) * scale % p
    yield _transport_system(rng, p)
    # more rows than columns, at full column rank
    tall = rng.integers(0, p, size=(20, 6))
    tall[:6] = np.triu(tall[:6], 1) + np.diag(rng.integers(1, p, size=6))
    yield rng.permutation(tall)
    # every row holds a pivot by column 5, so columns 6 on are never pivot columns
    wide = rng.integers(0, p, size=(6, 14))
    wide[:, :6] = np.triu(wide[:, :6], 1) + np.diag(rng.integers(1, p, size=6))
    yield wide


def _transport_system(rng, p):
    """[A^T | E^T] for a seeded sparse matrix rule on Z transported to Z/12.

    A is the transported block matrix and E the identity block row, the
    system left_solve eliminates to invert a matrix transport.
    """
    Z = sy.FreeAbelianGroup(1)
    A = sy.Alphabet.module(p, 2 if p * p <= 1 << 20 else 1)
    M = sy.ball(Z, 1)
    shape = (len(M), A.dim, A.dim)
    mats = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.75)
    tau = sy.CellularAutomaton(Z, A, sy.LocalRule(M, sy.StructuredMap(A, len(M), matrices=mats)))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 12})
    alpha = sy.transport_endomap(tau, e)
    E, _ = transport._equivariant_rows(alpha)
    return np.concatenate([alpha.matrix.T, E.T], axis=1)


@pytest.mark.parametrize("p", [2, 3, 7, LARGEST_PRIME])
def test_row_reduce_matches_python_rref(p):
    """The RREF and pivot columns equal a plain Python elimination, and A is untouched."""
    rng = np.random.default_rng([p, 5])
    deficient = 0
    for A in _rref_cases(rng, p):
        before = A.copy()
        R, pivots = linalg.row_reduce(A, p)
        want_R, want_pivots = oracle_rref(A, p)
        assert R.dtype == np.int64 and R.tolist() == want_R
        assert pivots == want_pivots
        assert np.array_equal(A, before)
        deficient += len(pivots) < min(A.shape)
    assert deficient >= 6


@pytest.mark.parametrize("p", [2, 3, 7, LARGEST_PRIME])
def test_rank_is_the_python_pivot_count(p):
    rng = np.random.default_rng([p, 6])
    deficient = set()
    for A in _rref_cases(rng, p):
        r = linalg.rank(A, p)
        assert r == len(oracle_rref(A, p)[1])
        deficient.add(r < min(A.shape))
    assert deficient == {False, True}  # full-rank and deficient cases both met


def test_moduli_above_the_cap_are_refused():
    """A modulus above 2^20 would overflow int64 in the inverse check."""
    p = 2**31 - 1
    A = np.random.default_rng(0).integers(0, p, size=(8, 8))
    for call in (linalg.invert, linalg.rank, linalg.nullspace_basis):
        with pytest.raises(UnsupportedModulusError):
            call(A, p)
    with pytest.raises(UnsupportedModulusError):
        linalg.solve(A, np.ones((8, 1), dtype=np.int64), p)
    with pytest.raises(UnsupportedModulusError):
        linalg.matmul(A, A, p)
    for q in (p, 4):  # above the cap, and composite
        with pytest.raises(UnsupportedModulusError):
            linalg.cyclic_inverse(A.reshape(2, 2, 16), q)


@pytest.mark.parametrize("p", [2, 3, 7, LARGEST_PRIME])
def test_cyclic_inverse_matches_the_expanded_inverse(p):
    """Over F_p[x]/(x^N - 1) the inverse is the expanded one, byte for byte;
    a singular B gets None. None for an invertible B (no unit pivot) needs
    two rows or more: a 1 x 1 entry is invertible exactly when a unit."""
    rng = np.random.default_rng([p, 19])
    outcomes = set()
    for N in (1, 2, 3, 5, 12, 64):
        for d in (1, 2, 3):
            for trial in range(3):
                B = rng.integers(0, p, size=(d, d, N))
                if trial == 1:  # sparse: a few coefficients only
                    B[rng.random(B.shape) < 0.8] = 0
                if trial == 2 and d > 1:
                    B[1] = B[0] * (p - 1)  # two dependent rows
                full = linalg.invert(oracle_block_circulant(B), p)
                inverse = linalg.cyclic_inverse(B, p)
                if inverse is not None:
                    assert inverse.dtype == np.int64 and inverse.shape == B.shape
                    assert oracle_block_circulant(inverse).tobytes() == full.tobytes()
                    outcomes.add("inverted")
                elif full is None:
                    outcomes.add("singular")
                else:
                    assert d > 1, (N, p)
    assert outcomes == {"inverted", "singular"}


def test_cyclic_products_match_the_circulant_product():
    rng = np.random.default_rng(7)
    for N, p in [(1, 2), (4, 3), (13, LARGEST_PRIME)]:
        a, b = rng.integers(0, p, size=(2, N))
        A, B = oracle_block_circulant(a[None, None]), oracle_block_circulant(b[None, None])
        assert linalg.cyclic_mul(a, b, p).tolist() == linalg.matmul(A, B, p)[0].tolist()


def _oracle_first_nonassociative(T):
    n = len(T)
    for a, b, c in itertools.product(range(n), repeat=3):
        if T[T[a][b]][c] != T[a][T[b][c]]:
            return (a, b, c)
    return None


def _verdict(T):
    """None when FiniteGroup accepts T, else the reported triple."""
    try:
        sy.FiniteGroup(T)
    except InvalidInputError as err:
        message = str(err)
        assert message.startswith("table is not associative at ")
        return tuple(int(x) for x in message.rsplit("(", 1)[1].rstrip(")").split(","))
    return None


def _normalized_latin_squares(n, rng=None):
    """Latin squares on 0..n-1 whose first row and column are 0..n-1.

    Without rng: all of them, in lexicographic order. With rng: an endless
    stream of random ones, each filled cell by cell in shuffled order.
    """
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    T = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(at):
        if at == len(cells):
            yield [row[:] for row in T]
            return
        i, j = cells[at]
        used = set(T[i][:j]) | {T[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in used]
        if rng is not None:
            rng.shuffle(options)
        for x in options:
            T[i][j] = x
            yield from fill(at + 1)
            if rng is not None:
                return
        T[i][j] = None

    if rng is None:
        yield from fill(0)
        return
    while True:
        yield from fill(0)


def _right_span(T, g):
    """Closure of {0} under right multiplication by g."""
    span, x = {0}, T[0][g]
    while x not in span:
        span.add(x)
        x = T[x][g]
    return span


def test_all_normalized_latin_squares_of_order_5():
    squares = list(_normalized_latin_squares(5))
    assert len(squares) == 56
    verdicts = [_verdict(T) for T in squares]
    assert verdicts == [_oracle_first_nonassociative(T) for T in squares]
    assert any(v is None for v in verdicts) and any(v is not None for v in verdicts)


def test_order_6_loops_needing_several_generators_match_the_oracle():
    rng = np.random.default_rng(20211201)
    sample = []
    for T in _normalized_latin_squares(6, rng):
        if len(_right_span(T, 1)) < 6:
            sample.append(T)
        if len(sample) == 150:
            break
    assert [_verdict(T) for T in sample] == [_oracle_first_nonassociative(T) for T in sample]


def _c2xc3_table():
    elems = list(itertools.product(range(2), range(3)))
    at = {x: i for i, x in enumerate(elems)}
    return [[at[((a + c) % 2, (b + d) % 3)] for c, d in elems] for a, b in elems]


@pytest.mark.parametrize("table", [symmetric_table(3), _c2xc3_table(), symmetric_table(4)])
def test_group_tables_are_accepted(table):
    assert _oracle_first_nonassociative(table) is None
    G = sy.FiniteGroup(table)
    assert G.order() == len(table)
