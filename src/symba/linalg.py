"""Exact linear algebra over Z/p, p prime, p <= MAX_MODULUS = 2^20.

Inputs are integer arrays. Each is reduced mod p once, where it is used,
by `reduce`, which passes an array already in 0..p-1 through untouched:
`row_reduce` reduces a copy, `matmul` its operands; every output has
entries in 0..p-1. `require_prime` checks the bound before primality, so
a huge modulus is refused at once, not after trial division up to its
square root. Elimination is Gauss-Jordan, one pivot column at a time, and
swaps no rows: the pivot of column c is the first nonzero among the rows
that hold no pivot yet, and it stays in its row. Each pivot column reads
the column's nonzeros once, scales the pivot row only when the pivot is
not already 1, and clears the column over columns c onward in every
other row with a nonzero there by one fancy-indexed update (none when no
such row exists). So sparse transport matrices pay for the rows and
columns they fill. The pivot rows are gathered in pivot order at the end,
above the rows that never held one, which are zero by then. The RREF of a
matrix mod p is unique, so the output does not depend on which row
supplies each pivot. Pivot columns come sorted, so `solve` and
`nullspace_basis` read their results off the RREF by slicing, with no
loop over its rows. Products mod p (`matmul`, and
with it the check of every inverse) are float64 BLAS products kept
exact: every partial sum is an integer below 2^53, the FFLAS-FFPACK
technique (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008).
The modulus bound keeps every p^2 inside int64 and every product inside
one float64 chunk up to an inner dimension of 8192. `left_solve` (rows R
with R·A = E, or the kernel of A, from which each caller picks its witness)
serves matrix-rule determinacy, `invert` and the matrix transport inverse.
"""

from __future__ import annotations

import numpy as np

from .caps import MAX_MODULUS
from .errors import UnsupportedModulusError

# float64 represents every integer up to 2^53 exactly
_FLOAT_EXACT = 1 << 53


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int, context: str) -> None:
    if p > MAX_MODULUS:
        raise UnsupportedModulusError(f"{context} needs p <= {MAX_MODULUS}, got {p}")
    if not is_prime(p):
        raise UnsupportedModulusError(f"{context} needs a prime modulus, got {p}")


def reduce(A, p: int) -> np.ndarray:
    """A as an int64 array with entries in 0..p-1; A itself when they already are."""
    A = np.asarray(A, dtype=np.int64)
    return A % p if A.size and (A.min() < 0 or A.max() >= p) else A


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exactly, as an int64 array with entries in 0..p-1.

    The reduced operands are multiplied in float64, which is exact while
    every partial sum stays below 2^53: the inner dimension is cut into
    chunks of at most 2^53 / (p-1)^2 terms (one chunk for any transport
    under TRANSPORT_DIM_CAP), and the chunk products are reduced and summed
    in int64.
    """
    if not 2 <= p <= MAX_MODULUS:
        raise UnsupportedModulusError(f"products mod p need 2 <= p <= {MAX_MODULUS}, got {p}")
    A, B = reduce(A, p), reduce(B, p)
    step = (_FLOAT_EXACT - 1) // (p - 1) ** 2
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for start in range(0, A.shape[1], step):
        chunk = slice(start, start + step)
        out += (A[:, chunk].astype(np.float64) @ B[chunk].astype(np.float64)).astype(np.int64)
        out %= p
    return out


def row_reduce(A: np.ndarray, p: int):
    """Reduced row echelon form of A mod p.

    Returns (R, pivot_cols); rows of R below len(pivot_cols) are zero.
    Pivot rows stay in place while columns are cleared, and are gathered in
    pivot order at the end; the RREF is unique, so R and pivot_cols do not
    depend on which row supplies each pivot.
    Pivots are scaled by Fermat inverses, so p must be prime, and p must not
    exceed MAX_MODULUS, so that products of entries stay exact in int64 and
    the inverse checks in float64: every other function here eliminates
    through this one and inherits both checks. A is not modified.
    """
    require_prime(p, "linear algebra mod p")
    R = np.array(reduce(A, p), order="C")  # a copy; row operations need C order
    rows, cols = R.shape
    open_rows = np.ones(rows, dtype=bool)  # rows that hold no pivot yet
    pivot_rows, pivot_cols = [], []
    for c in range(cols):
        if len(pivot_rows) == rows:
            break
        hits = R[:, c].nonzero()[0]
        candidates = hits[open_rows[hits]]
        if candidates.size == 0:
            continue
        lead = int(candidates[0])
        # an open row is zero left of c, so only columns c: change
        row = R[lead, c:]  # a view: the pivot row is scaled in place
        if row[0] != 1:
            row *= pow(int(row[0]), p - 2, p)
            row %= p
        if hits.size > 1:
            other = hits[hits != lead]
            R[other, c:] = (R[other, c:] - R[other, c, None] * row) % p
        open_rows[lead] = False
        pivot_rows.append(lead)
        pivot_cols.append(c)
    # every column was cleared in the rows still open, so they are zero
    return R[pivot_rows + np.flatnonzero(open_rows).tolist()], pivot_cols


def solve(A: np.ndarray, B: np.ndarray, p: int):
    """One solution X of A @ X = B mod p, or None when inconsistent.

    B is a matrix, solved column by column in one sweep. Free variables are
    set to zero, so the solution is deterministic.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    cols = A.shape[1]
    R, pivot_cols = row_reduce(np.concatenate([A, B], axis=1), p)
    rank = int(np.searchsorted(pivot_cols, cols))  # pivots are sorted: A's come first
    if R[rank:, cols:].any():
        return None
    X = np.zeros((cols, B.shape[1]), dtype=np.int64)
    X[pivot_cols[:rank]] = R[:rank, cols:]
    return X


def nullspace_basis(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the kernel of A mod p, one vector per row (may be empty).

    Row k is 1 at the k-th free column f and -R[i, f] at the i-th pivot.
    """
    A = np.asarray(A, dtype=np.int64)
    cols = A.shape[1]
    R, pivot_cols = row_reduce(A, p)
    free = np.delete(np.arange(cols), pivot_cols)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivot_cols] = (-R[: len(pivot_cols), free].T) % p
    return basis


def left_solve(A: np.ndarray, E: np.ndarray, p: int):
    """Rows R with R @ A = E mod p, or the kernel of A that rules them out.

    Returns (R, None), R = solve(A.T, E.T, p).T checked by one exact
    product, or (None, nullspace_basis(A, p)), in which some z has E @ z
    != 0: the caller picks the kernel vector it reports as the witness.
    """
    A = np.asarray(A, dtype=np.int64)
    E = np.asarray(E, dtype=np.int64)
    X = solve(A.T, E.T, p)
    if X is not None and np.array_equal(matmul(X.T, A, p), reduce(E, p)):
        return X.T, None
    return None, nullspace_basis(A, p)


def invert(A: np.ndarray, p: int):
    """Inverse of a square matrix mod p, or None when singular."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {A.shape}")
    return left_solve(A, np.eye(n, dtype=np.int64), p)[0]


def rank(A: np.ndarray, p: int) -> int:
    _, pivot_cols = row_reduce(A, p)
    return len(pivot_cols)
