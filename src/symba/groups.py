"""Finitely generated group universes with canonical element encodings.

Shipped kinds: free abelian lattices Z^d (elements are integer tuples), free
groups F_k (reduced words as tuples of signed generator indices, 1-based),
finite groups given by a multiplication table (elements are indices), direct
products (tuples of factor elements), and the symmetric group on n points
(permutation tuples; used as an embedding target, never enumerated unless
small). Canonical encodings give every subset a deterministic tabulation
order, which is what makes rule tables reproducible byte for byte.

Groups, subsets, alphabets, patterns and group-ring values derive from
`_Keyed`: equal and hashed by type and `_key()`. `_Value._trusted`, which
`_Keyed` extends, is the one way the library builds a value from parts it
has already checked: finite groups, subsets, alphabets, patterns,
group-ring elements and matrices, and transported endomaps (a `_Value`
without a key, equal only to itself). A new group kind defines `identity`,
`mul`, `inv`, `validate`, `generators`, `_key` and `to_json` (with `order`
and `elements` if finite); it inherits equality, hashing, the encoding as
`sort_key`, the integer-tuple JSON codec worded by `_noun`, and the repr
`Kind(key)`.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, itemgetter, neg
from typing import Any, Iterator, Sequence

import numpy as np

from .caps import check_size, enumeration_cap
from .errors import InvalidInputError, ResourceCapError, json_int

Elem = Any


class _Value:
    """A value its public constructor checks and then fills with `_fill`."""

    __slots__ = ()

    @classmethod
    def _trusted(cls, *args, **kwargs):
        """The value of already canonical parts: `_fill` without the public checks."""
        self = cls.__new__(cls)
        self._fill(*args, **kwargs)
        return self


class _Keyed(_Value):
    """An immutable value identified by its type and `_key()`.

    Built through `_trusted`: `FiniteGroup`, `FiniteSubset`, `ca.Pattern`,
    the group-ring values and `alphabets.Alphabet`, which has no other
    constructor.
    """

    __slots__ = ()

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self), self._key()))


class Group(_Keyed):
    """Base class: canonical encodings plus the group operations."""

    kind = "abstract"
    _noun, _entry = "entry", None  # JSON errors name a `_noun` list, each entry `_entry or _noun`

    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def validate(self, a: Elem) -> None:
        """Raise InvalidInputError unless `a` is a canonical encoding."""
        raise NotImplementedError

    def sort_key(self, a: Elem):
        """Key realizing the canonical total order on encodings."""
        return a

    def generators(self) -> list[Elem]:
        """Distinguished generators (inverses not included)."""
        raise NotImplementedError

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None

    def _log2_order(self) -> float | None:
        """log2 of the order, or None when infinite, without forming a huge order."""
        n = self.order()
        return None if n is None else math.log2(n)

    def elements(self) -> Iterator[Elem]:
        """All elements in canonical order; only for finite kinds."""
        raise InvalidInputError(f"cannot enumerate elements of {self!r}")

    def elem_to_json(self, a: Elem):
        return list(a)

    def elem_from_json(self, data) -> Elem:
        if not isinstance(data, list):
            raise InvalidInputError(f"expected a {self._noun} list, got {data!r}")
        elem = tuple(json_int(x, self._entry or self._noun) for x in data)
        self.validate(elem)
        return elem

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self._key()!r})"


def _check_order(G: Group, what: str) -> None:
    """check_size on a finite G's order, formed only under 2^16 bits, where
    degree! takes a few ms at most (it takes seconds at degree 2^20). Past
    that the count is 2^k, k its rounded log2 shaved to stay a lower bound."""
    bits = G._log2_order()
    if bits >= 1 << 16:
        check_size(2, what, exponent=int(bits * (1 - 2**-40)))
    check_size(G.order(), what)


class _RankedGroup(Group):
    """A free kind fixed by its rank; elements are integer tuples.

    Rank 0 is the trivial group, the only finite one.
    """

    def __init__(self, rank: int):
        rank = json_int(rank, "rank")
        if rank < 0:
            raise InvalidInputError(f"rank must be >= 0, got {rank}")
        check_size(rank, "a tuple sized by rank")  # Z^rank elements, F_rank generators
        self.rank = rank

    def order(self):
        return 1 if self.rank == 0 else None

    def elements(self):
        if self.rank == 0:
            return iter([()])
        return super().elements()

    def to_json(self):
        return {"kind": self.kind, "rank": self.rank}

    def _key(self):
        return self.rank


class FreeAbelianGroup(_RankedGroup):
    """Z^d under addition; elements are length-d integer tuples."""

    kind = "free_abelian"
    _noun = "coordinate"

    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def validate(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.rank
            or not all(type(x) is int for x in a)  # bool is an int subclass
        ):
            raise InvalidInputError(f"not a Z^{self.rank} element: {a!r}")

    def generators(self):
        check_size(self.rank**2, "the rank x rank generators")
        return [(0,) * i + (1,) + (0,) * (self.rank - 1 - i) for i in range(self.rank)]


def _reduce_concat(a: tuple, b: tuple) -> tuple:
    """Concatenate two reduced words, cancelling at the seam."""
    if not (a and b and a[-1] == -b[0]):
        return a + b
    n = min(len(a), len(b))
    i = 1
    while i < n and a[-1 - i] == -b[i]:
        i += 1
    return a[: len(a) - i] + b[i:]


class FreeGroup(_RankedGroup):
    """Free group F_k; elements are reduced words over signed indices.

    Letter i in 1..k is the i-th generator, -i its inverse. Canonical order
    is graded: shorter words first, then letterwise with a < a^-1 < b < ...
    """

    kind = "free"
    _noun = "letter"

    def identity(self):
        return ()

    def mul(self, a, b):
        return _reduce_concat(a, b)

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def validate(self, a):
        if not isinstance(a, tuple):
            raise InvalidInputError(f"not a free-group word: {a!r}")
        for x in a:
            if type(x) is not int or x == 0 or abs(x) > self.rank:
                raise InvalidInputError(f"bad letter {x!r} in word {a!r}")
        for x, y in zip(a, a[1:]):
            if x == -y:
                raise InvalidInputError(f"word not reduced: {a!r}")

    def sort_key(self, a):
        return (len(a), tuple(map(self._letter_ranks.__getitem__, a)))

    @functools.cached_property
    def _letter_ranks(self) -> list:
        """ranks[x] for a letter x: i > 0 ranks 2(i-1), its inverse -i ranks
        2(i-1) + 1, read from the end of the list."""
        k = self.rank
        return [0, *range(0, 2 * k, 2), *range(2 * k - 1, 0, -2)]

    def generators(self):
        return [(i,) for i in range(1, self.rank + 1)]


class FiniteGroup(Group):
    """Finite group given by an n x n multiplication table on 0..n-1.

    Entries are read by json_int unless the table is an integer array. It is
    validated with array operations as a Latin square (rows and columns
    sorted) with an identity, and then by Light's associativity test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961, section
    1.2): the elements b with (ab)c = a(bc) for all a, c contain the
    identity and are closed under products, so testing b over a generating
    set decides associativity, in O(n^2) time and memory per generator
    (stopping at the first that fails) instead of O(n^3) time in all. `mul`
    reads the table as tuples.
    """

    kind = "finite"

    def __init__(self, table: Sequence[Sequence[int]]):
        check_size(len(table) ** 2, "multiplication table")
        n = len(table)
        if n == 0:
            raise InvalidInputError("multiplication table must be nonempty")
        not_square = "multiplication table is not n x n over 0..n-1"
        if not (isinstance(table, np.ndarray) and table.dtype.kind == "i"):
            table = [[json_int(x, "multiplication table entry") for x in row] for row in table]
        try:
            T = np.array(table, dtype=np.int64)
        except (ValueError, OverflowError):  # ragged rows, or an entry beyond int64
            raise InvalidInputError(not_square) from None
        if T.shape != (n, n):
            raise InvalidInputError(not_square)
        # the rows, then the columns, that are not permutations of 0..n-1
        bad = (np.sort(np.concatenate([T, T.T]), axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            if T.min() < 0 or T.max() >= n:
                raise InvalidInputError(not_square)
            bad = bad.reshape(2, n)
            i = int(bad.any(axis=0).argmax())
            raise InvalidInputError(f"{'row' if bad[0, i] else 'column'} {i} is not a permutation")
        table = tuple(map(tuple, T.tolist()))
        # an identity e has e*0 = 0, and column 0 holds 0 in one row only
        ident = int(T[:, 0].argmin())
        if table[ident] != tuple(range(n)) or T[:, ident].tolist() != list(range(n)):
            raise InvalidInputError("table has no identity element")

        def fails(a, b):
            """Whether (ab)c != a(bc) for some c; n >= 2 whenever it is
            called, so itemgetter returns the row a(bc) as a tuple."""
            return table[table[a][b]] != itemgetter(*table[b])(table[a])

        gens = greedy_generators(lambda x, y: table[x][y], ident, range(n))
        # entry [a, c]: (a b) c against a (b c), one generator b at a time
        if any((T.take(T[:, b], axis=0) != T.take(T[b], axis=1)).any() for b in gens):
            # report the first failing triple in (a, b, c) order
            a, b = next((a, b) for a in range(n) for b in range(n) if fails(a, b))
            c = next(c for c in range(n) if table[table[a][b]][c] != table[a][table[b][c]])
            raise InvalidInputError(f"table is not associative at ({a},{b},{c})")
        self._fill(table, ident, tuple((T == ident).argmax(axis=1).tolist()))

    def _fill(self, table, identity, inv):
        self.table = table
        self.size = len(table)
        self._identity = identity
        self._inv = inv

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        """Z/n under addition: row a of the table is 0..n-1 rotated left by a.

        Addition mod n is a group, so the table is built directly, without
        the validation that `FiniteGroup(table)` runs.
        """
        n = json_int(n, "cyclic order")
        if n <= 0:
            raise InvalidInputError(f"cyclic order must be positive, got {n}")
        check_size(n * n, "multiplication table")
        points = tuple(range(n))
        table = tuple(points[a:] + points[:a] for a in points)
        return cls._trusted(table, 0, tuple(-a % n for a in points))

    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def validate(self, a):
        if type(a) is not int or not (0 <= a < self.size):
            raise InvalidInputError(f"not an index below {self.size}: {a!r}")

    def generators(self):
        # Every element generates within one step; diameter <= 1.
        return [a for a in range(self.size) if a != self._identity] or [self._identity]

    def order(self):
        return self.size

    def elements(self):
        return iter(range(self.size))

    def elem_to_json(self, a):
        return int(a)

    def elem_from_json(self, data):
        elem = json_int(data, "element index")
        self.validate(elem)
        return elem

    def to_json(self):
        return {"kind": "finite", "table": [list(row) for row in self.table]}

    def _key(self):
        return self.table

    def __repr__(self):
        return f"FiniteGroup(order={self.size})"


def greedy_generators(mul, identity: Elem, elements) -> list:
    """Generators picked greedily in the order of `elements`.

    Each one is the first element outside the span of those picked before
    it: the closure of {identity} under right multiplication by them. When
    `elements` lists the whole carrier of a finite group (or of a loop),
    the span of the result is all of it.
    """
    gens: list = []
    span = {identity}
    for h in elements:
        if h in span:
            continue
        gens.append(h)
        todo = list(span)
        while todo:
            u = todo.pop()
            for g in gens:
                v = mul(u, g)
                if v not in span:
                    span.add(v)
                    todo.append(v)
    return gens


class ProductGroup(Group):
    """Direct product; elements are tuples of factor elements."""

    kind = "product"

    def __init__(self, factors: Sequence[Group]):
        factors = tuple(factors)
        if not factors:
            raise InvalidInputError("product needs at least one factor")
        self.factors = factors

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def validate(self, a):
        if not isinstance(a, tuple) or len(a) != len(self.factors):
            raise InvalidInputError(f"not a {len(self.factors)}-factor element: {a!r}")
        for f, x in zip(self.factors, a):
            f.validate(x)

    def sort_key(self, a):
        return tuple(f.sort_key(x) for f, x in zip(self.factors, a))

    def generators(self):
        gens = []
        ident = self.identity()
        for i, f in enumerate(self.factors):
            for g in f.generators():
                v = list(ident)
                v[i] = g
                gens.append(tuple(v))
        return gens

    def order(self):
        return None if self._log2_order() is None else math.prod(f.order() for f in self.factors)

    def _log2_order(self):
        logs = [f._log2_order() for f in self.factors]
        return None if None in logs else math.fsum(logs)

    def elements(self):
        if self._log2_order() is None:
            return super().elements()
        _check_order(self, "product group carrier")
        return itertools.product(*[list(f.elements()) for f in self.factors])

    def elem_to_json(self, a):
        return [f.elem_to_json(x) for f, x in zip(self.factors, a)]

    def elem_from_json(self, data):
        if not isinstance(data, list) or len(data) != len(self.factors):
            raise InvalidInputError(f"expected {len(self.factors)} components, got {data!r}")
        return tuple(f.elem_from_json(x) for f, x in zip(self.factors, data))

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}

    def _key(self):
        return self.factors

    def __repr__(self):
        return f"ProductGroup({list(self.factors)!r})"


class SymmetricGroup(Group):
    """All permutations of 0..degree-1, as tuples mapping i -> p[i].

    Composition `mul(p, q)` applies q first, then p, matching left actions.
    The carrier is only enumerable while degree! stays under the cap; large
    degrees still support mul/inv/compare, which is all an embedding target
    needs for verification.
    """

    kind = "symmetric"
    _noun, _entry = "permutation", "permutation entry"

    def __init__(self, degree: int):
        degree = json_int(degree, "degree")
        if degree < 1:
            raise InvalidInputError(f"degree must be >= 1, got {degree}")
        check_size(degree, "a permutation tuple sized by degree")
        self.degree = degree

    def identity(self):
        return tuple(range(self.degree))

    def mul(self, a, b):
        return tuple(map(a.__getitem__, b))

    def inv(self, a):
        out = [0] * self.degree
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def validate(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.degree
            or not all(type(x) is int for x in a)
            or sorted(a) != list(range(self.degree))
        ):
            raise InvalidInputError(f"not a permutation of {self.degree} points: {a!r}")

    def generators(self):
        if self.degree == 1:
            return [self.identity()]
        swap = list(range(self.degree))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = tuple(list(range(1, self.degree)) + [0])
        return [tuple(swap), cycle]

    def order(self):
        return math.factorial(self.degree)

    def _log2_order(self):
        return math.lgamma(self.degree + 1) / math.log(2)

    def elements(self):
        _check_order(self, "symmetric group carrier")
        return itertools.permutations(range(self.degree))

    def to_json(self):
        return {"kind": "symmetric", "degree": self.degree}

    def _key(self):
        return self.degree


class FiniteSubset(_Keyed):
    """Ordered duplicate-free subset of a group, in canonical order.

    Positions in the subset are the coordinate indices used by every rule
    table and pattern, so the order must never depend on construction order.
    Elements are validated where they enter, by this constructor. Subsets
    derived from validated ones (products, inverses, balls, unions) are
    built by `_trusted`, which skips that check: group operations on
    canonical encodings return canonical encodings.
    """

    __slots__ = ("group", "elems", "_index")

    def __init__(self, group: Group, elements):
        elements = list(elements)
        for e in elements:
            group.validate(e)
        self._fill(group, elements)

    def _fill(self, group, elements):
        # an encoding that is its own key sorts with no call per element
        key = None if type(group).sort_key is Group.sort_key else group.sort_key
        elems = sorted(set(elements), key=key)
        check_size(len(elems), "finite subset")
        self.group = group
        self.elems = tuple(elems)
        self._index = {e: i for i, e in enumerate(self.elems)}

    def index_of(self, e: Elem) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise InvalidInputError(f"element {e!r} not in subset") from None

    def __contains__(self, e):
        return e in self._index

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def _key(self):
        return self.group, self.elems

    def issubset(self, other: "FiniteSubset") -> bool:
        return all(e in other for e in self.elems)

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        if other.group != self.group:
            raise InvalidInputError("subsets live in different groups")
        return FiniteSubset._trusted(self.group, self.elems + other.elems)

    def __repr__(self):
        shown = ", ".join(repr(e) for e in self.elems[:6])
        more = "" if len(self) <= 6 else f", ... ({len(self)} total)"
        return f"FiniteSubset[{shown}{more}]"


def _walk(G: Group) -> Iterator[set]:
    """The elements within 0, 1, 2, ... steps of the identity, one breadth-first walk.

    Each step multiplies the last layer on the right by every generator and
    its inverse. The walk is lazy: step r runs only when its set is pulled,
    and it ends once a step adds nothing. Each yield is the same set, grown
    in place, so a caller copies what it keeps before pulling the next.
    """
    steps = [h for g in G.generators() for h in (g, G.inv(g))]
    cap = enumeration_cap()
    seen = {G.identity()}
    frontier = list(seen)
    while frontier:
        yield seen
        nxt = []
        for x in frontier:
            for s in steps:
                y = G.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    # stop at the first element past the cap, not after the layer
                    if len(seen) > cap:
                        raise ResourceCapError(
                            f"ball enumeration exceeded cap ({len(seen)} > {cap})"
                        )
        frontier = nxt


def _ball_bounds(G: Group, radius: int) -> None:
    """`ball`'s two sizes known before the walk, each refused past the cap."""
    if radius and isinstance(G, _RankedGroup) and G.rank:
        check_size(2 * (G.rank + radius) - 1, f"a ball over {G!r} (counted from below)")
        if isinstance(G, FreeGroup) and G.rank == 1:
            check_size(radius * (radius + 1), f"a ball over {G!r}, counted in letters,")


def ball(G: Group, radius: int) -> FiniteSubset:
    """All elements of word length <= radius over the distinguished generators.

    For Z^k and F_k, k >= 1, two sizes are known before the walk starts,
    and each is refused up front past the cap. The ball holds the identity,
    every generator and its inverse, and the powers g^j, |j| <= radius, of
    the first generator g: 2(k + radius) - 1 distinct elements. In F_1 these
    powers are words of radius(radius + 1) letters in all, while the walk
    counts only 2·radius + 1 elements. In higher rank the walk's own count
    of elements, capped as it goes, also bounds the letters.
    """
    if radius < 0:
        raise InvalidInputError(f"radius must be >= 0, got {radius}")
    _ball_bounds(G, radius)
    for seen in itertools.islice(_walk(G), radius + 1):
        pass
    return FiniteSubset._trusted(G, seen)


def _balls(G: Group) -> Iterator[FiniteSubset]:
    """ball(G, 0), ball(G, 1), ... from one walk, until a ball stops growing.

    Radius r's bounds are checked, and its layer walked, only when its ball
    is pulled, so each refusal comes at the radius, and with the message,
    of `ball(G, r)`. The last ball yielded is every later radius's ball.
    """
    for radius, seen in enumerate(_walk(G)):
        yield FiniteSubset._trusted(G, seen)
        _ball_bounds(G, radius + 1)


def _check_product(G: Group, M: FiniteSubset, N: FiniteSubset) -> None:
    if M.group != G or N.group != G:
        raise InvalidInputError("subsets must live in the given group")
    check_size(len(M) * len(N), "set product enumeration")


def set_product(G: Group, M: FiniteSubset, N: FiniteSubset) -> FiniteSubset:
    """The product set {mn : m in M, n in N}, deduplicated, canonical order."""
    _check_product(G, M, N)
    return FiniteSubset._trusted(G, {G.mul(m, n) for m in M for n in N})


def product_window(G: Group, M: FiniteSubset, N: FiniteSubset):
    """(M*N, pos): the product set, and pos[i, j] = position of M[i]*N[j] in it.

    Each product is computed once; `set_product` and `window_positions`
    together would compute it twice.
    """
    _check_product(G, M, N)
    mul = G.mul
    products = [mul(m, n) for m in M for n in N]
    MN = FiniteSubset._trusted(G, products)
    pos = np.fromiter(map(MN._index.__getitem__, products), dtype=np.int64, count=len(products))
    return MN, pos.reshape(len(M), len(N))


def symmetrize(G: Group, M: FiniteSubset) -> FiniteSubset:
    """M united with its inverses and the identity."""
    if M.group != G:
        raise InvalidInputError("subset must live in the given group")
    out = set(M.elems)
    out.update(G.inv(m) for m in M)
    out.add(G.identity())
    return FiniteSubset._trusted(G, out)
