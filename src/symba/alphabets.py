"""Pointed finite alphabets and structured maps between their powers.

Alphabet values are handled as indices 0..size-1 everywhere. The canonical
index order is: plain alphabets count up, module alphabets enumerate (Z/n)^d
in mixed radix with the leftmost vector coordinate most significant, group
alphabets follow their table indices. A map A^m -> A is stored either as a
full lookup table over the mixed-radix input index (again leftmost memory
coordinate most significant) or, for module alphabets, as a list of m
matrices acting by x -> sum_j mat[j] @ x_j mod n.

`radix` is the only place this index order is computed: every table
lookup and witness decode goes through it (or `decode_index` /
`decode_assignments`, built on it). `StructuredMap.window_codes` is the one
window-scan kernel: every table scan (composition, inverse checks,
determinacy, transport tabulation, equivariance, re-reading) walks A^n
through it in canonical order, without decoding configurations into
digits; a configuration's code is the canonical index of its image
pattern, and `cell_digits` gives the inverse checks and determinacy the
identity cell's digit of each configuration. Over large cubes it first
sums nearby windows in groups, each into one small table over the union of
their cells, so a block costs one full-size addition per group.
Module alphabets never store their carrier: a value's vector is its digits
in radix `modulus`.

`StructuredMap.reindexed` is the one way to re-read a map over a different
window (a wider memory, or a determined table read back over N).

A matrix map read at several windows of a cell array is one block matrix
over (Z/n)^(cells*dim), laid out cell-major with the vector coordinate minor.
`StructuredMap.window_matrix` writes this layout, `from_block_row` turns one
block row back into a matrix family, and `Alphabet.cell_values` decodes a
coordinate vector cell by cell.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from .caps import MAX_MODULUS, check_size, enumeration_cap
from .errors import InvalidInputError, ResourceCapError, json_int
from .groups import FiniteGroup, _Keyed, greedy_generators

_PLAIN = "plain"
_MODULE = "module"
_GROUP = "group"

_SCAN_CHUNK = 1 << 16
_GROUP_TABLE = 1 << 12  # most entries of one table summing a group of nearby windows


class Alphabet(_Keyed):
    """Finite carrier with a basepoint and optional algebraic structure."""

    def __init__(self, flavor, size, modulus=None, dim=None, table=None):
        self.flavor = flavor
        self.size = json_int(size, "size")
        self.basepoint = 0 if table is None else table.identity()
        self.modulus = modulus
        self.dim = dim
        self.table = table
        if self.size < 1:
            raise InvalidInputError(f"alphabet size must be >= 1, got {size}")
        if flavor == _MODULE:
            # index = vector in radix `modulus`, index 0 = zero vector = basepoint
            self._radix = radix(modulus, dim)

    @classmethod
    def plain(cls, size: int) -> "Alphabet":
        return cls(_PLAIN, size)

    @classmethod
    def module(cls, modulus: int, dim: int) -> "Alphabet":
        modulus, dim = json_int(modulus, "modulus"), json_int(dim, "dim")
        if modulus < 2 or dim < 1:
            raise InvalidInputError(f"need modulus >= 2 and dim >= 1, got {modulus}, {dim}")
        if modulus > MAX_MODULUS:
            # whatever SYMBA_CAP says: modulus^2 <= 2^40 keeps int64 arithmetic exact
            raise ResourceCapError(
                f"modulus {modulus} is above {MAX_MODULUS}, the largest supported"
            )
        if dim > enumeration_cap().bit_length():  # modulus**dim > cap: refused before the power
            raise ResourceCapError(f"module alphabet of dim {dim} is over the enumeration cap")
        size = modulus**dim
        check_size(size, "module alphabet carrier")
        return cls(_MODULE, size, modulus=modulus, dim=dim)

    @classmethod
    def group(cls, table) -> "Alphabet":
        carrier = FiniteGroup(table)
        return cls(_GROUP, carrier.size, table=carrier)

    @property
    def is_module(self):
        return self.flavor == _MODULE

    @property
    def is_group(self):
        return self.flavor == _GROUP

    def vectors(self) -> np.ndarray:
        """(size, dim) array of module vectors, row i = vector of index i."""
        if not self.is_module:
            raise InvalidInputError("vectors only exist for module alphabets")
        return decode_assignments(self.modulus, self.dim)

    def _vector(self, i) -> np.ndarray:
        return decode_index(i, self.modulus, self.dim)

    def vector_to_index(self, vec) -> int:
        if not self.is_module:
            raise InvalidInputError("vectors only exist for module alphabets")
        v = np.asarray(vec, dtype=np.int64) % self.modulus
        if v.shape != (self.dim,):
            raise InvalidInputError(f"expected a length-{self.dim} vector, got {vec!r}")
        return int(v @ self._radix)

    def cell_values(self, flat) -> np.ndarray:
        """One value index per cell of a cell-major coordinate vector."""
        if not self.is_module:
            raise InvalidInputError("vectors only exist for module alphabets")
        cells = np.asarray(flat, dtype=np.int64).reshape(-1, self.dim)
        return cells % self.modulus @ self._radix

    def add(self, i: int, j: int) -> int:
        """Alphabet structure operation on indices (module add / group mul)."""
        if self.is_module:
            return self.vector_to_index(self._vector(i) + self._vector(j))
        if self.is_group:
            return self.table.mul(i, j)
        raise InvalidInputError("plain alphabets carry no operation")

    def _row(self, i: int) -> np.ndarray:
        """add(i, x) for every index x: a group table row, or for a module
        every vector plus i's, re-encoded."""
        if self.is_group:
            return np.asarray(self.table.table[i])
        return (self.vectors() + self._vector(i)) % self.modulus @ self._radix

    def scale(self, c: int, i: int) -> int:
        if not self.is_module:
            raise InvalidInputError("scaling needs a module alphabet")
        return self.vector_to_index(c * self._vector(i))

    def validate_value(self, i) -> None:
        if not isinstance(i, (int, np.integer)) or not (0 <= int(i) < self.size):
            raise InvalidInputError(f"not an alphabet index below {self.size}: {i!r}")

    def value_to_json(self, i: int):
        if self.is_module:
            return [int(x) for x in self._vector(i)]
        return int(i)

    def value_from_json(self, data) -> int:
        if self.is_module:
            if not isinstance(data, list) or len(data) != self.dim:
                raise InvalidInputError(f"expected a length-{self.dim} vector, got {data!r}")
            return self.vector_to_index([json_int(x, "vector entry") for x in data])
        value = json_int(data, "alphabet index")
        self.validate_value(value)
        return value

    def to_json(self) -> dict:
        if self.flavor == _PLAIN:
            return {"flavor": "plain", "size": self.size}
        if self.flavor == _MODULE:
            return {"flavor": "module", "modulus": self.modulus, "dim": self.dim}
        return {"flavor": "group", "table": [list(r) for r in self.table.table]}

    def _key(self):
        return self.flavor, self.size, self.modulus, self.dim, self.table

    def __repr__(self):
        if self.is_module:
            return f"Alphabet.module({self.modulus}, {self.dim})"
        if self.is_group:
            return f"Alphabet.group(order={self.size})"
        return f"Alphabet.plain({self.size})"


def radix(size: int, n: int) -> np.ndarray:
    """Place values of an n-digit canonical index, most significant first."""
    return size ** np.arange(n - 1, -1, -1, dtype=np.int64)


def decode_index(index, size: int, n: int) -> np.ndarray:
    """Digits of canonical indices: shape index.shape + (n,)."""
    return (np.asarray(index, dtype=np.int64)[..., None] // radix(size, n)) % size


def cell_digits(blocks, size: int, n: int, cell: int):
    """Yield (start, codes, digits) for each (start, codes) block of a scan of A^n.

    digits[k] is the digit at `cell` of configuration start + k, read off
    the block layout with no division per window: the blocks of
    `window_codes` share their trailing digits, so a trailing cell's digits
    are one pattern tiled once and reused, and a leading cell's digit is
    one constant per block.
    """
    place = int(radix(size, n)[cell])
    tiled = None
    for start, codes in blocks:
        if place < codes.size:
            if tiled is None:
                tiled = np.empty(codes.size, dtype=np.int64)
                tiled.reshape(-1, size, place)[:] = np.arange(size)[:, None]
            yield start, codes, tiled
        else:
            yield start, codes, np.broadcast_to(start // place % size, codes.shape)


def decode_assignments(size: int, arity: int) -> np.ndarray:
    """(size^arity, arity) array of all input tuples in canonical index order."""
    count = size**arity
    check_size(count, "assignment enumeration")
    return decode_index(np.arange(count, dtype=np.int64), size, arity)


def _axes(cells, span, q: int) -> tuple:
    """Shape laying a table over the sorted `cells` onto the axes `span`."""
    return tuple(q if u in cells else 1 for u in span)


def _grouped(windows, q: int, lead: int) -> list:
    """Sum runs of nearby windows into one table over the union of their cells.

    `windows` are (sorted cells, table with its axes in that order). Taken
    in order of first cell, a run grows while its cells span at most
    _GROUP_TABLE configurations, and ends where windows stop reading a
    leading cell (below `lead`), so those still go to the once-summed base.
    """
    width = 0  # most cells of one group
    while q ** (width + 1) <= _GROUP_TABLE:
        width += 1

    def first(window):
        return window[0][0] if window[0] else float("inf")

    runs = []  # [union of cells, member windows]
    for window in sorted(windows, key=first):
        if runs:
            union, members = runs[-1]
            merged = union.union(window[0])
            if len(merged) <= width and (first(window) < lead) == (first(members[0]) < lead):
                runs[-1][0] = merged
                members.append(window)
                continue
        runs.append([set(window[0]), [window]])
    groups = []
    for union, members in runs:
        if len(members) == 1:
            groups += members
            continue
        cells = sorted(union)
        total = np.zeros((q,) * len(cells), dtype=np.int64)
        for c, spread in members:
            total += spread.reshape(_axes(c, cells, q))
        groups.append((cells, total))
    return groups


def _int64_entries(values, what: str, copy: bool) -> np.ndarray:
    """The values as an int64 array, a new one when `copy` is set.

    An array of bools, floats or strings is refused by its dtype. numpy
    reads a list that mixes ints and bools as int64, so a list (never an
    array) is also searched for bools.
    """
    array = np.array(values) if copy else np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} entries must be integers, got dtype {array.dtype}")
    if not isinstance(values, np.ndarray):
        if {bool, np.bool_} & set(map(type, np.asarray(values, dtype=object).ravel().tolist())):
            raise InvalidInputError(f"{what} entries must be integers, got a bool")
    return array.astype(np.int64, copy=False)


class StructuredMap:
    """A set map A^arity -> A, as a lookup table or a matrix family."""

    def __init__(self, alphabet: Alphabet, arity: int, table=None, matrices=None):
        arity = json_int(arity, "arity")
        if arity < 0:
            raise InvalidInputError(f"arity must be >= 0, got {arity}")
        if (table is None) == (matrices is None):
            raise InvalidInputError("give exactly one of table / matrices")
        self.alphabet = alphabet
        self.arity = arity
        if table is not None:
            # a read-only array that owns its data is taken as frozen and shared;
            # any other table is copied (a view may have a writeable base), so the
            # caller's array is never frozen or aliased
            shared = isinstance(table, np.ndarray) and table.flags.owndata and not table.flags.writeable
            table = _int64_entries(table, "table", copy=not shared)
            expected = alphabet.size**self.arity
            if table.shape != (expected,):
                raise InvalidInputError(
                    f"table must have length {expected}, got shape {table.shape}"
                )
            if table.size and (table.min() < 0 or table.max() >= alphabet.size):
                raise InvalidInputError("table entries must be alphabet indices")
            table.flags.writeable = False
            self.table = table
            self.matrices = None
        else:
            if not alphabet.is_module:
                raise InvalidInputError("matrix maps need a module alphabet")
            mats = _int64_entries(matrices, "matrix", copy=False) % alphabet.modulus
            if mats.shape != (self.arity, alphabet.dim, alphabet.dim):
                raise InvalidInputError(
                    f"need {self.arity} matrices of shape "
                    f"{alphabet.dim}x{alphabet.dim}, got {mats.shape}"
                )
            mats.flags.writeable = False
            self.matrices = mats
            self.table = None

    @property
    def is_matrix(self):
        return self.matrices is not None

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Apply the map to rows of X, an (n, arity) array of value indices."""
        X = np.asarray(X, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise InvalidInputError(f"expected shape (n, {self.arity}), got {X.shape}")
        A = self.alphabet
        if self.table is not None:
            return self.table[X @ radix(A.size, self.arity)]
        vecs = decode_index(X, A.modulus, A.dim)  # (n, arity, dim)
        out = np.einsum("jkd,njd->nk", self.matrices, vecs) % A.modulus
        return out @ A._radix

    def window_codes(self, pos, n_cells: int):
        """Yield (start, codes) blocks covering A^n_cells in canonical order.

        codes[k] is the canonical index in A^len(pos) of the image pattern
        (self(x[pos[i]]))_i of x, the configuration of index start + k. Each
        window's table is transposed onto its cells of the (size,)*n_cells
        digit cube and added by broadcasting; a block fixes the leading
        digits and holds at most max(_SCAN_CHUNK, size) entries. When a
        block is larger than _GROUP_TABLE, windows taken in order of first
        cell are first summed in groups, each into one table over the union
        of its cells of at most _GROUP_TABLE entries, so a block pays one
        full-size addition per group rather than per window. Windows (or
        groups) that read no leading cell are summed once and reused. A
        one-letter alphabet has one configuration and one block, [0].

        A yielded block is read-only to its consumer: when no window reads
        a leading cell (always so when no digit leads), every block is that
        once-summed base itself, not a copy.
        """
        q = self.alphabet.size
        rows = np.asarray(pos, dtype=np.int64).tolist()
        if any(len(row) != self.arity for row in rows):
            raise InvalidInputError(f"every window needs {self.arity} cells")
        windows = []  # (sorted cells, their order in the row)
        for row in rows:
            order = sorted(range(self.arity), key=row.__getitem__)
            cells = [row[j] for j in order]
            if len(set(cells)) < len(cells):
                raise InvalidInputError("a window reads one cell twice")
            if cells and not 0 <= cells[0] <= cells[-1] < n_cells:
                raise InvalidInputError(f"window cells must lie in 0..{n_cells - 1}")
            windows.append((cells, order))
        if q == 1:  # one configuration, of code 0: no digit cube, whose axes numpy caps at 64
            yield 0, np.zeros(1, dtype=np.int64)
            return
        table = self.expand_table().table.reshape((q,) * self.arity)
        # place * table with its axes in the order of its sorted cells
        windows = [(cells, (c * table).transpose(order))
                   for (cells, order), c in zip(windows, radix(q, len(rows)))]
        trail = min(n_cells, 1)  # digits that vary within a block
        while trail < n_cells and q ** (trail + 1) <= _SCAN_CHUNK:
            trail += 1
        lead = n_cells - trail
        if q**trail > _GROUP_TABLE:
            windows = _grouped(windows, q, lead)
        base = np.zeros((q,) * trail, dtype=np.int64)
        moving = []  # (leading cells read, table indexed by their digits)
        for cells, spread in windows:
            k = bisect.bisect_left(cells, lead)
            spread = spread.reshape((q,) * k + _axes(cells, range(lead, n_cells), q))
            if k:
                moving.append((cells[:k], spread))
            else:
                base += spread
        base.flags.writeable = False
        for b, digits in enumerate(itertools.product(range(q), repeat=lead)):
            codes = base.copy() if moving else base
            for cells, spread in moving:
                codes += spread[tuple(digits[u] for u in cells)]
            yield b * base.size, codes.reshape(-1)

    def window_table(self, pos, n_cells: int) -> np.ndarray:
        """All of window_codes(pos, n_cells) as one array."""
        out = np.empty(self.alphabet.size**n_cells, dtype=np.int64)
        for start, codes in self.window_codes(pos, n_cells):
            out[start : start + codes.size] = codes
        return out

    def window_matrix(self, pos, n_cells: int) -> np.ndarray:
        """The linear twin of window_codes, for matrix maps.

        Returns the (len(pos)*dim, n_cells*dim) matrix mod n whose block
        (i, pos[i, j]) holds matrices[j] (summed where a row repeats a cell),
        so row block i applies the map to the cells pos[i] of a flat vector.
        """
        A = self.alphabet
        d = A.dim
        pos = np.asarray(pos, dtype=np.int64)
        blocks = np.zeros((len(pos), d, n_cells, d), dtype=np.int64)
        rows = np.arange(len(pos))[:, None]
        np.add.at(blocks, (rows, slice(None), pos, slice(None)), self.matrices)
        np.remainder(blocks, A.modulus, out=blocks)
        return blocks.reshape(len(pos) * d, n_cells * d)

    @classmethod
    def from_block_row(cls, A: Alphabet, row) -> "StructuredMap":
        """The matrix map whose window_matrix at the window of cells
        0..arity-1 is the (dim, arity*dim) row `row` (reduced mod n)."""
        row = np.asarray(row, dtype=np.int64)
        arity = row.shape[1] // A.dim
        return cls(A, arity, matrices=row.reshape(A.dim, arity, A.dim).transpose(1, 0, 2))

    def reindexed(self, cols, arity: int) -> "StructuredMap":
        """The same map read over a window of `arity` cells, input j at cols[j].

        The result sends x to self(x[cols]); cells outside cols are ignored.
        """
        A = self.alphabet
        if self.is_matrix:
            return StructuredMap.from_block_row(A, self.window_matrix([cols], arity))
        check_size(A.size**arity, "re-read rule table")
        return StructuredMap(A, arity, table=self.window_table([cols], arity))

    def expand_table(self) -> "StructuredMap":
        """The same map with its table materialized (identity for tables)."""
        if self.table is not None:
            return self
        X = decode_assignments(self.alphabet.size, self.arity)
        return StructuredMap(self.alphabet, self.arity, table=self.evaluate_batch(X))

    def to_json(self) -> dict:
        if self.table is not None:
            return {
                "arity": self.arity,
                "table": [self.alphabet.value_to_json(int(v)) for v in self.table],
            }
        return {
            "arity": self.arity,
            "matrices": [[[int(x) for x in row] for row in mat] for mat in self.matrices],
        }

    def __repr__(self):
        kind = "matrices" if self.is_matrix else "table"
        return f"StructuredMap(arity={self.arity}, {kind}, over {self.alphabet!r})"


def verify_pointed(smap: StructuredMap) -> bool:
    """True iff the map sends the all-basepoints input to the basepoint.

    One read at most. A matrix map is linear and the module basepoint is
    0, so it holds. A table is read at the all-basepoints input e*(q^m -
    1)/(q - 1), for basepoint e, size q and arity m (index 0 when q = 1).
    """
    if smap.is_matrix:
        return True
    q, e = smap.alphabet.size, smap.alphabet.basepoint
    index = e * (q**smap.arity - 1) // (q - 1) if q > 1 else 0
    return int(smap.table[index]) == e


def verify_structure(smap: StructuredMap) -> bool:
    """Check the map is a morphism for the alphabet's structure.

    A table f: A^m -> A is one iff it fixes the identity and f(u*x) =
    f(u)*f(x) for every x and every unit tuple u, a generator at one cell
    and the identity elsewhere (unit vectors of (Z/n)^d, `greedy_generators`
    of a group). The u that pass are closed under products, so they are all
    of A^m (Light's argument, as in FiniteGroup); additive module maps are
    Z/n-linear. One gather per (cell, generator): O(|A|^m * m * gens) time,
    O(|A|^m) memory. Matrix maps are morphisms by construction.
    """
    A = smap.alphabet
    if not (A.is_module or A.is_group):
        raise InvalidInputError("plain alphabets carry no structure to verify")
    if smap.is_matrix:
        return True
    q, e, f = A.size, A.basepoint, smap.table
    gens = A._radix.tolist() if A.is_module else greedy_generators(A.table.mul, e, range(q))
    place = radix(q, smap.arity).tolist()
    ident = e * sum(place)  # input index of the all-identity tuple
    if f[ident] != e:
        return False
    for r in place:
        cube = f.reshape(-1, q, r)  # this cell's digit on the middle axis
        for g in gens:
            image = f[ident + (g - e) * r]  # f(u) for u = g at this cell
            if not np.array_equal(cube[:, A._row(g), :], A._row(image)[cube]):
                return False
    return True


def finite_map_classify(endomap) -> dict:
    """Injectivity/surjectivity/bijectivity flags for an endomap of 0..n-1."""
    f = np.asarray(endomap, dtype=np.int64)
    if f.ndim != 1:
        raise InvalidInputError(f"expected a 1-d lookup array, got shape {f.shape}")
    n = f.shape[0]
    if n and (f.min() < 0 or f.max() >= n):
        raise InvalidInputError("endomap values must stay within 0..n-1")
    # On a finite set an endomap is injective iff it is surjective.
    hit = np.zeros(n, dtype=bool)
    hit[f] = True
    bijective = bool(hit.all())
    return {"injective": bijective, "surjective": bijective, "bijective": bijective}
