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
serves matrix-rule determinacy, `invert` and every matrix transport inverse
that the ring route below leaves undecided.

On a cyclic target Z/N an equivariant block matrix is a d x d matrix over
the group ring F_p[x]/(x^N - 1) (the polynomial view of linear automata:
Ito, Osato & Nasu, JCSS 27, 1983), so it is inverted as that, not as an
(N·d) x (N·d) matrix. `cyclic_mul` multiplies two ring elements by
np.convolve folded at N; a unit is inverted by extended Euclid against
x^N - 1, each division one power-series quotient of O(log N) numpy steps
(Newton iteration); `cyclic_inverse` runs Gauss-Jordan over the ring with
unit pivots. Its int64 sums stay below N·(p-1)^2, at most 2^52 under
TRANSPORT_DIM_CAP and MAX_MODULUS.
"""

from __future__ import annotations

import numpy as np

from .caps import MAX_MODULUS
from .errors import InvalidInputError, ResourceCapError, UnsupportedModulusError

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


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its zero leading coefficients (the zero polynomial is empty)."""
    nonzero = np.flatnonzero(a)
    return a[: nonzero[-1] + 1] if nonzero.size else a[:0]


def _series_inverse(f: np.ndarray, m: int, p: int) -> np.ndarray:
    """g with f·g = 1 mod (p, x^m), for f[0] != 0, by Newton steps g <- g(2 - f·g)."""
    g = np.array([pow(int(f[0]), p - 2, p)], dtype=np.int64)
    n = 1
    while n < m:
        n = min(2 * n, m)
        error = np.convolve(f[:n], g)[:n] % p
        error[0] -= 1  # f·g - 1, zero below the old precision
        step = np.convolve(g, error)[:n]
        step[: len(g)] -= g
        g = -step % p
    return g


def _poly_divmod(a: np.ndarray, b: np.ndarray, p: int):
    """(q, r) with a = q·b + r over F_p and r trimmed below deg b; b's lead is nonzero.

    a must be longer than b, as in `_unit_inverse`: x^N - 1 is divided by a
    slice of at most N coefficients, then each divisor by a remainder
    trimmed below it. Reversed, the quotient is a power series quotient:
    rev(q) = rev(a)/rev(b) mod x^m, m = len(a) - len(b) + 1 >= 2, so one
    division is O(log m) numpy steps, however long its quotient.
    """
    m, k = len(a) - len(b) + 1, len(b) - 1
    if k == 0:
        return a * pow(int(b[0]), p - 2, p) % p, a[:0]
    q = np.convolve(a[::-1][:m], _series_inverse(b[::-1], m, p))[:m][::-1] % p
    return q, _trim((a[:k] - np.convolve(q, b)[:k]) % p)


def _unit_inverse(a: np.ndarray, p: int) -> np.ndarray | None:
    """a^-1 in F_p[x]/(x^N - 1), N = len(a), or None when a is not a unit.

    Extended Euclid against x^N - 1 tracks t with t·a = r mod x^N - 1 for
    each remainder r; a is a unit exactly when the last nonzero remainder,
    the gcd, is a constant.
    """
    N, nonzero = len(a), np.flatnonzero(a)
    if not nonzero.size:
        return None
    # a = x^low·b with the unit x^low, so a^-1 is b^-1 turned back by low
    low = int(nonzero[0])
    r0 = np.zeros(N + 1, dtype=np.int64)
    r0[0], r0[N] = p - 1, 1
    r1 = a[low : nonzero[-1] + 1]
    t0, t1 = a[:0], np.ones(1, dtype=np.int64)
    while r1.size:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t = -np.convolve(q, t1)  # t1's degree grows, so t is longer than t0
        t[: len(t0)] += t0
        t0, t1 = t1, t % p
    if r0.size != 1:
        return None
    out = np.zeros(N, dtype=np.int64)
    out[: len(t0)] = t0 * pow(int(r0[0]), p - 2, p) % p  # deg t0 < N
    return np.roll(out, -low)


def cyclic_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a·b in F_p[x]/(x^N - 1): coefficient vectors of length N, x^j at j.

    np.convolve in int64, folded at N and reduced mod p: exact while
    N·(p-1)^2 < 2^63, which `cyclic_inverse` checks.
    """
    N = len(a)
    full = np.convolve(a, b)
    full[: N - 1] += full[N:]
    return full[:N] % p


def cyclic_inverse(B: np.ndarray, p: int) -> np.ndarray | None:
    """The inverse of B(x) among d x d matrices over F_p[x]/(x^N - 1), or None.

    B has shape (d, d, N): B[a, b, j] is the coefficient of x^j in entry
    (a, b). Gauss-Jordan over the ring on [B | I]: the pivot of column c is
    the first row holding no pivot yet whose entry there is a unit, scaled
    to 1 by its inverse (`_unit_inverse`), and every other row is cleared
    by cyclic products. The ring is a product of local rings, so an
    invertible B may have no unit left in some column (over F_2[x]/(x^3 - 1)
    with e = 1 + x + x^2, [[e, 1+e], [1+e, e]] is its own inverse): None
    then means "no unit pivot", not "singular", and the caller decides by
    dense elimination. The inverse is unique, so it is the one dense
    elimination of the expanded block-circulant matrix finds.
    """
    require_prime(p, "linear algebra mod p")  # the message elimination would give
    B = reduce(B, p)
    d, N = B.shape[0], B.shape[2]
    if N * (p - 1) ** 2 >= 1 << 63:
        raise ResourceCapError(f"cyclic products mod {p} at order {N} would overflow int64")
    M = np.zeros((d, 2 * d, N), dtype=np.int64)
    M[:, :d] = B
    M[range(d), range(d, 2 * d), 0] = 1
    open_rows, pivot_rows = list(range(d)), []
    for c in range(d):
        for r in open_rows:
            unit = _unit_inverse(M[r, c], p)
            if unit is not None:
                break
        else:
            return None
        open_rows.remove(r)
        pivot_rows.append(r)
        # a row without a pivot is zero left of c; zero entries cost no product
        filled = [j for j in range(c, 2 * d) if M[r, j].any()]
        for j in filled:
            M[r, j] = cyclic_mul(unit, M[r, j], p)
        for s in range(d):
            if s != r and M[s, c].any():
                factor = M[s, c].copy()  # a copy: j = c clears it
                for j in filled:
                    M[s, j] = (M[s, j] - cyclic_mul(factor, M[r, j], p)) % p
    return M[pivot_rows, d:]


def invert(A: np.ndarray, p: int):
    """Inverse of a square matrix mod p, or None when singular."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidInputError(f"matrix must be square, got {A.shape}")
    return left_solve(A, np.eye(n, dtype=np.int64), p)[0]


def rank(A: np.ndarray, p: int) -> int:
    _, pivot_cols = row_reduce(A, p)
    return len(pivot_cols)
