"""Resource caps for enumerations.

Every algorithm in this package is exponential in some window size, so all
enumerated collections (subsets, pattern spaces, finite-group carriers) are
capped and fail fast with ResourceCapError instead of thrashing. The env var
SYMBA_CAP overrides the caps for a whole process, up to 2^62: capped counts
then keep every mixed-radix index and place value inside int64.

The caps match measured budgets (2-core VM, Python 3.11, numpy 2.4, q = 2).
At DEFAULT_TRANSPORT_CAP = 2^24 configurations, for a radius-1 shift on
Z/24 (best of three), the window-scan kernel tabulates the transport in
0.026 s, inversion takes 0.028 s and the equivariance check 0.074 s (peak
about 290 MB: the table plus one translation table). The whole hinted
inverse pipeline takes 0.055 s at a peak of about 286 MB: the table and
its inverse, scattered in 2^16-entry blocks. So at this cap memory, not
time, is the budget: each doubling of the cap doubles that peak.
A determinacy scan of 2^17 windows (the shift by one on Z, N = ball(8),
which reads the cells -7..9) takes about 2.6-3.3 ms at best and 2.9-3.4 ms
in the median of seven; one of 2^20 windows, DEFAULT_ENUMERATION_CAP (on
pairs of bits, the high bit of x_{g+1} with the low bit of x_{g+2}, q = 4,
N = ball(4): cells -3..6), takes 8.5 and 9.0 ms. A scan counts the cells
its table rules read: once the inverse checks or determinacy would scan
more than one block (2^16 windows) or the cap over the written memories,
each table rule is first read over its live cells, and the scan and the
cap count those (x_{g+1} written over {1, 2} scans 2^19 windows on
N = ball(9), not 2^20); determinacy counts only the cells linked to the
identity cell through the windows of N. The same cap
stops finite-group multiplication tables at order 1024, n^2 <= 2^20
(`FiniteGroup.cyclic` builds Z/192 in about 0.1 ms and Z/1024 in about 6 ms).

TRANSPORT_DIM_CAP bounds the dimension of a transported block matrix. Its
products mod p (the block-row certificate of the inverse) are exact float64
BLAS products, one chunk each up to this dimension for any modulus up to
MAX_MODULUS. On Z/N the inverse is taken over F_p[x]/(x^N - 1), not by
elimination: for the linear benchmark's rules over (Z/3)^2, building the
embedding and running the hinted inverse pipeline take about 1.1 ms at
dimension 384 (Z/192; 0.4 ms inverting) and 22 ms at dimension 2048
(Z/1024; 14 ms inverting), against 4-4.6 ms and 120-135 ms by dense
elimination.
Every other target, and a singular or pivot-less matrix on Z/N, is still
eliminated densely, one Python step per pivot column. For a seeded Z^2
rule over (Z/3)^2 (random_invertible_matrix, seed 1, r = 1, 3 factors)
the hinted pipeline into (Z/32)^2, dimension 2048, takes 0.21-0.26 s at
a peak RSS of 269 MB, and into (Z/45)^2, dimension 4050, 0.92 s at 883 MB
(best of three, each in a fresh process): both grow about as the square
of the dimension, so the cap bounds a run near 1 s and 0.9 GB. Under the
default caps it is not reached on Z/N: the cyclic target stops at order
1024, so a transport with d = 2 stops at dimension 2048 (Z/1025 exits 3)
before TRANSPORT_DIM_CAP = 4096 applies.
MAX_MODULUS bounds the modulus of module alphabets and of linear algebra
mod p, so that products of two residues stay exact in int64 and sums of
8192 of them in float64.
"""

import os

from .errors import ResourceCapError

DEFAULT_ENUMERATION_CAP = 1 << 20
DEFAULT_TRANSPORT_CAP = 1 << 24
TRANSPORT_DIM_CAP = 4096
MAX_MODULUS = 1 << 20

_ENV_VAR = "SYMBA_CAP"
_MAX_ENV_CAP = 1 << 62


def _env_cap():
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ResourceCapError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    if value <= 0:
        raise ResourceCapError(f"{_ENV_VAR} must be positive, got {value}")
    if value > _MAX_ENV_CAP:
        raise ResourceCapError(f"{_ENV_VAR} must be at most 2**62, got {value}")
    return value


def enumeration_cap() -> int:
    """Cap on the size of any enumerated subset or pattern space."""
    return _env_cap() or DEFAULT_ENUMERATION_CAP


def transport_cap() -> int:
    """Cap on the number of configurations materialized by a transport."""
    return _env_cap() or DEFAULT_TRANSPORT_CAP


def check_size(n: int, what: str) -> None:
    limit = enumeration_cap()
    if n > limit:
        # str() refuses integers over 4300 digits: write a huge count by its bit length
        count = n if n < 1 << 63 else f"at least 2^{n.bit_length() - 1}"
        raise ResourceCapError(f"{what} would have {count} entries, cap is {limit}")
