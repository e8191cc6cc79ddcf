"""Group universes: encodings, balls, subset combinatorics."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symba as sy
from symba.ca import window_positions
from symba.errors import InvalidInputError, ResourceCapError

from conftest import brute_force_free_ball, oracle_sort_key, reduce_word_free, symmetric_table


def test_element_mul_examples(Z, F2):
    assert Z.mul((2,), (3,)) == (5,)
    assert F2.mul((1,), (-1,)) == ()
    z5 = sy.FiniteGroup.cyclic(5)
    assert z5.mul(3, 4) == 2


def test_element_inv_examples(Z, F2):
    assert Z.inv((2,)) == (-2,)
    assert F2.inv((1, 2)) == (-2, -1)
    z5 = sy.FiniteGroup.cyclic(5)
    assert z5.inv(0) == 0


def test_malformed_encodings_rejected(Z, F2):
    with pytest.raises(InvalidInputError):
        Z.validate((1, 2))
    with pytest.raises(InvalidInputError):
        F2.validate((1, -1))  # not reduced
    with pytest.raises(InvalidInputError):
        F2.validate((3,))  # letter out of range
    with pytest.raises(InvalidInputError):
        sy.FiniteGroup.cyclic(3).validate(5)


def test_ball_integers(Z):
    assert list(sy.ball(Z, 2)) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert list(sy.ball(Z, 0)) == [(0,)]


def test_ball_free_group_against_brute_force(F2):
    for r in range(4):
        expected = brute_force_free_ball(2, r)
        assert set(sy.ball(F2, r)) == expected
    assert len(sy.ball(F2, 2)) == 17  # 1 + 4 + 12


def test_ball_finite_group_covers_everything():
    s3 = sy.FiniteGroup(symmetric_table(3))
    assert set(sy.ball(s3, 1)) == set(range(6))
    assert set(sy.ball(s3, 3)) == set(range(6))


def test_ball_resource_cap(F2, monkeypatch):
    monkeypatch.setenv("SYMBA_CAP", "10")
    with pytest.raises(ResourceCapError, match=r"\(11 > 10\)"):  # not the whole layer's 17
        sy.ball(F2, 3)


def test_ball_sizes_known_up_front_are_refused_before_the_walk(Z):
    """The radius-1 ball of F_(10^6) has 2 * 10^6 + 1 elements, and F_1's
    radius-10^4 ball only 20001, but in 100010000 letters: both are refused
    before any seed or word is built."""
    huge_rank = r"FreeGroup\(1000000\) \(counted from below\) would have 2000001 "
    with pytest.raises(ResourceCapError, match=huge_rank):
        sy.ball(sy.FreeGroup(10**6), 1)
    with pytest.raises(ResourceCapError, match=r"counted in letters, would have 100010000 "):
        sy.ball(sy.FreeGroup(1), 10**4)
    pinned = r"^a ball over FreeAbelianGroup\(1\) \(counted from below\) would have at least 2\^"
    with pytest.raises(ResourceCapError, match=pinned):
        sy.ball(Z, 2**70)
    assert len(sy.ball(sy.FreeGroup(1), 1000)) == 2001  # 1001000 letters fit the cap


def test_set_product_examples(Z, F2):
    m = sy.ball(Z, 1)
    assert list(sy.set_product(Z, m, m)) == [(-2,), (-1,), (0,), (1,), (2,)]
    single = sy.FiniteSubset(Z, [(0,)])
    assert sy.set_product(Z, single, m) == m
    b1 = sy.ball(F2, 1)
    # brute-force oracle: all pairwise products
    expected = {F2.mul(a, b) for a in b1 for b in b1}
    assert set(sy.set_product(F2, b1, b1)) == expected
    assert sy.set_product(F2, b1, b1) == sy.ball(F2, 2)


def test_symmetrize_examples(Z, F2):
    assert list(sy.symmetrize(Z, sy.FiniteSubset(Z, [(1,)]))) == [(-1,), (0,), (1,)]
    b = sy.ball(F2, 1)
    assert sy.symmetrize(F2, b) == b  # idempotence on symmetric input
    s = sy.symmetrize(F2, sy.FiniteSubset(F2, [(1,), (1, 2)]))
    assert list(s) == [(), (1,), (-1,), (1, 2), (-2, -1)]


def test_symmetrize_properties(F2):
    subset = sy.FiniteSubset(F2, [(1,), (2, 1), (-1, 2)])
    s = sy.symmetrize(F2, subset)
    assert sy.symmetrize(F2, s) == s
    assert F2.identity() in s
    assert all(F2.inv(x) in s for x in s)


def test_generated_ball_examples(Z2, F2):
    S = sy.FiniteSubset(Z2, [(1, 0)])
    got = sy.generated_ball(Z2, S, 3)
    assert list(got) == [(k, 0) for k in range(-3, 4)]

    ident_only = sy.FiniteSubset(Z2, [(0, 0)])
    assert list(sy.generated_ball(Z2, ident_only, 5)) == [(0, 0)]

    S2 = sy.FiniteSubset(F2, [(1, 1)])
    got2 = sy.generated_ball(F2, S2, 2)
    # brute-force oracle: products of <= 2 factors from {1, a^2, a^-2}
    seeds = [(), (1, 1), (-1, -1)]
    expected = {F2.mul(x, y) for x in seeds for y in seeds}
    assert set(got2) == expected
    assert list(got2) == [(), (1,) * 2, (-1,) * 2, (1,) * 4, (-1,) * 4]


def test_generated_ball_of_generators_is_ball(Z2, F2):
    for G in (Z2, F2, sy.FiniteGroup(symmetric_table(3))):
        gens = sy.FiniteSubset(G, G.generators())
        for r in range(3):
            assert sy.generated_ball(G, gens, r) == sy.ball(G, r)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sy.FreeAbelianGroup(1),
        lambda: sy.FreeAbelianGroup(2),
        lambda: sy.FreeGroup(2),
        lambda: sy.FiniteGroup.cyclic(5),
        lambda: sy.FiniteGroup(symmetric_table(3)),
        lambda: sy.ProductGroup([sy.FiniteGroup.cyclic(2), sy.FreeAbelianGroup(1)]),
        lambda: sy.SymmetricGroup(3),
    ],
)
def test_group_axioms_on_ball_two(make):
    G = make()
    elems = list(sy.ball(G, 2))
    e = G.identity()
    for g in elems:
        assert G.mul(e, g) == g
        assert G.mul(g, e) == g
        assert G.mul(g, G.inv(g)) == e
    for g, h, k in itertools.product(elems, repeat=3):
        assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))


def _elements(G):
    """A strategy drawing canonical elements of G."""
    if isinstance(G, sy.FreeAbelianGroup):
        return st.tuples(*[st.integers(-3, 3)] * G.rank)
    if isinstance(G, sy.FreeGroup):
        letters = st.sampled_from([x for i in range(1, G.rank + 1) for x in (i, -i)])
        return st.lists(letters, max_size=5).map(reduce_word_free)
    if isinstance(G, sy.FiniteGroup):
        return st.integers(0, G.size - 1)
    if isinstance(G, sy.SymmetricGroup):
        return st.permutations(range(G.degree)).map(tuple)
    return st.tuples(*map(_elements, G.factors))


@pytest.mark.parametrize(
    "make",
    [
        lambda: sy.FreeAbelianGroup(2),
        lambda: sy.FreeGroup(3),
        lambda: sy.FiniteGroup(symmetric_table(3)),
        lambda: sy.SymmetricGroup(4),
        lambda: sy.ProductGroup([sy.FreeGroup(2), sy.FiniteGroup.cyclic(3)]),
        lambda: sy.ProductGroup([sy.SymmetricGroup(3), sy.FreeAbelianGroup(1), sy.FreeGroup(1)]),
    ],
)
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_subset_order_is_the_sort_key_order(make, data):
    """A subset lists its elements in the order of the sort key, whether the
    encoding is its own key or not, and that key orders as the per-element one."""
    G = make()
    xs = data.draw(st.lists(_elements(G), max_size=30))
    got = list(sy.FiniteSubset(G, xs))
    assert got == sorted(set(xs), key=G.sort_key)
    assert got == sorted(set(xs), key=lambda a: oracle_sort_key(G, a))


@pytest.mark.parametrize("r,s", [(0, 1), (1, 1), (1, 2), (2, 1), (3, 2)])
def test_ball_products_nest(Z2, F2, r, s):
    for G in (Z2, F2):
        big = sy.ball(G, r + s)
        assert sy.set_product(G, sy.ball(G, r), sy.ball(G, s)).issubset(big)


def test_canonical_order_is_total_and_stable(F2):
    b = sy.ball(F2, 2)
    keys = [F2.sort_key(x) for x in b]
    assert keys == sorted(keys)
    shuffled = sy.FiniteSubset(F2, reversed(list(b)))
    assert shuffled == b and hash(shuffled) == hash(b)
    assert sy.FiniteSubset(F2, list(b)[1:]) != b


def test_finite_group_validation_rejects_bad_tables():
    with pytest.raises(InvalidInputError):
        sy.FiniteGroup([[0, 1], [0, 1]])  # rows not permutations
    with pytest.raises(InvalidInputError):
        sy.FiniteGroup([[1, 0, 2], [0, 2, 1], [2, 1, 0]])  # no identity
    # a Latin square with identity that fails associativity (order 5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidInputError):
        sy.FiniteGroup(loop)


NOT_SQUARE = "multiplication table is not n x n over 0..n-1"
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "multiplication table must be nonempty"),
        ([[0, 1], [1]], NOT_SQUARE),
        ([[0, 1], [1, 0, 1]], NOT_SQUARE),
        ([[0, 2], [1, 0]], NOT_SQUARE),
        ([[0, -1], [1, 0]], NOT_SQUARE),
        ([[0, 2**70], [1, 0]], NOT_SQUARE),
        (np.zeros((2, 3), dtype=np.int64), NOT_SQUARE),
        ([[0, 1], [0, 1]], "column 0 is not a permutation"),
        ([[0, 0], [1, 1]], "row 0 is not a permutation"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 is not a permutation"),
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
        ([[1, 0, 2], [0, 2, 1], [2, 1, 0]], "table has no identity element"),
        (LOOP5, r"table is not associative at \(1,1,2\)"),
    ],
)
def test_finite_group_messages(table, message):
    """Each check names the first failure: range, then rows before columns."""
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        sy.FiniteGroup(table)


def _plain_pattern(value):
    return sy.Pattern(sy.FiniteSubset(sy.FreeAbelianGroup(1), [(0,)]), (value,))


# Public constructor calls, each given one float, string or bool where an
# integer belongs.
NON_INTEGERS = {
    "coefficient-float": lambda: sy.GroupRingElement(sy.FreeAbelianGroup(1), 3, {(0,): 1.9}),
    "coefficient-string": lambda: sy.GroupRingElement(sy.FreeAbelianGroup(1), 3, {(0,): "2"}),
    "coefficient-bool": lambda: sy.GroupRingElement(sy.FreeAbelianGroup(1), 3, {(0,): True}),
    "ring-modulus-float": lambda: sy.GroupRingElement(sy.FreeAbelianGroup(1), 3.0),
    "pattern-float": lambda: _plain_pattern(1.9),
    "pattern-string": lambda: _plain_pattern("1"),
    "pattern-bool": lambda: _plain_pattern(True),
    "table-float": lambda: sy.StructuredMap(sy.Alphabet.plain(2), 1, table=[0, 1.9]),
    "table-bool": lambda: sy.StructuredMap(sy.Alphabet.plain(2), 1, table=np.array([False, True])),
    "matrices-float": lambda: sy.StructuredMap(sy.Alphabet.module(3, 1), 1, matrices=[[[1.5]]]),
    "arity-float": lambda: sy.StructuredMap(sy.Alphabet.plain(2), 1.0, table=[0, 1]),
    "finite-group-bool": lambda: sy.FiniteGroup([[True, False], [False, True]]),
    "finite-group-string": lambda: sy.FiniteGroup([["0", "1"], ["1", "0"]]),
    "finite-group-string-rows": lambda: sy.FiniteGroup(["01", "10"]),
    "finite-group-float": lambda: sy.FiniteGroup([[0.0, 1.9], [1, 0]]),
    "plain-size-float": lambda: sy.Alphabet.plain(2.5),
    "module-modulus-float": lambda: sy.Alphabet.module(3.0, 1),
    "module-dim-bool": lambda: sy.Alphabet.module(3, True),
    "rank-float": lambda: sy.FreeAbelianGroup(2.5),
    "free-rank-bool": lambda: sy.FreeGroup(True),
    "degree-string": lambda: sy.SymmetricGroup("3"),
}


@pytest.mark.parametrize("call", NON_INTEGERS)
def test_public_constructors_refuse_non_integers(call):
    with pytest.raises(InvalidInputError, match="must be (an integer|integers)"):
        NON_INTEGERS[call]()


def test_public_constructors_take_numpy_integers():
    Z = sy.FreeAbelianGroup(np.int64(1))
    assert Z.rank == 1 and type(Z.rank) is int
    assert sy.GroupRingElement(Z, np.int64(3), {(0,): np.int64(5)}).coeffs == {(0,): 2}
    assert _plain_pattern(np.int32(1)).values == (1,)
    table = np.array([0, 1], dtype=np.uint8)
    smap = sy.StructuredMap(sy.Alphabet.plain(np.int64(2)), 1, table=table)
    assert smap.table.dtype == np.int64 and smap.table.tolist() == [0, 1]
    A = sy.Alphabet.module(np.int64(3), np.int64(1))
    assert (A.modulus, A.dim) == (3, 1) and type(A.modulus) is int
    G = sy.FiniteGroup(np.array([[1, 0], [0, 1]], dtype=np.int32))
    assert G.identity() == 1 and G.order() == 2
    assert all(isinstance(x, int) for row in G.table for x in row)


def test_finite_group_validation_keeps_table_sized_temporaries():
    """Light's test compares one n x n pair per generator; (Z/2)^8 has 8
    greedy generators, so testing them all at once would take about 20
    tables' worth of memory."""
    points = np.arange(256)
    table = points[:, None] ^ points
    tracemalloc.start()
    try:
        G = sy.FiniteGroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order() == 256 and G.identity() == 0
    assert peak < 8 * table.nbytes


def test_cyclic_tables_and_inverses():
    """cyclic(n), built without validation, equals the validated table of addition mod n."""
    for n in range(1, 65):
        G = sy.FiniteGroup.cyclic(n)
        H = sy.FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])
        assert G.table == H.table and G.order() == H.order() == n
        assert G.identity() == H.identity() == 0
        assert [G.inv(a) for a in range(n)] == [H.inv(a) for a in range(n)] == [(-a) % n for a in range(n)]
        assert G == H and hash(G) == hash(H)
    for bad in (0, -3, True, 2.0):
        with pytest.raises(InvalidInputError):
            sy.FiniteGroup.cyclic(bad)
    S3 = sy.FiniteGroup(symmetric_table(3))
    assert all(S3.mul(a, S3.inv(a)) == S3.identity() for a in range(6))


def test_multiplication_tables_are_capped(monkeypatch):
    """Order 1024 is the largest table under the default cap of 2^20 entries."""
    with pytest.raises(ResourceCapError):
        sy.FiniteGroup.cyclic(1025)
    with pytest.raises(ResourceCapError):
        sy.FiniteGroup([[0] * 1025] * 1025)  # refused before any validation
    monkeypatch.setenv("SYMBA_CAP", str(1 << 22))
    assert sy.FiniteGroup.cyclic(1100).order() == 1100


def test_product_group_componentwise(Z):
    z2 = sy.FiniteGroup.cyclic(2)
    P = sy.ProductGroup([z2, Z])
    a = (1, (3,))
    b = (1, (-1,))
    assert P.mul(a, b) == (0, (2,))
    assert P.inv(a) == (1, (-3,))
    assert list(sy.ball(P, 1)) == [(0, (-1,)), (0, (0,)), (0, (1,)), (1, (0,))]


def test_symmetric_group_operations():
    S = sy.SymmetricGroup(3)
    a = (1, 0, 2)
    b = (0, 2, 1)
    # mul applies the right factor first
    assert S.mul(a, b) == tuple(a[b[i]] for i in range(3))
    assert S.mul(a, S.inv(a)) == S.identity()
    assert S.order() == 6
    assert len(list(S.elements())) == 6


def test_huge_symmetric_carriers_are_refused_without_their_order(monkeypatch):
    """log2(degree!) is bounded before degree! is formed: Sym(2^20), alone or
    as a factor, is refused at once, in the words check_size would use."""
    cap = sy.caps.enumeration_cap()
    for n in (10, 21, 57, 1597):
        count = math.factorial(n)
        words = count if count < 2**63 else f"at least 2^{count.bit_length() - 1}"
        with pytest.raises(ResourceCapError) as refused:
            sy.SymmetricGroup(n).elements()
        assert str(refused.value) == f"symmetric group carrier would have {words} entries, cap is {cap}"
    big = sy.ProductGroup([sy.FiniteGroup.cyclic(2), sy.SymmetricGroup(10**5)])
    with pytest.raises(ResourceCapError, match=r"^product group carrier would have at least 2\^1516705 "):
        big.elements()

    def refuse(self):
        raise AssertionError("formed the order of a huge symmetric group")

    monkeypatch.setattr(sy.SymmetricGroup, "order", refuse)
    huge = sy.SymmetricGroup(2**20)
    with pytest.raises(ResourceCapError, match=r"^symmetric group carrier would have at least 2\^19458755 "):
        huge.elements()
    nested = [sy.ProductGroup([huge]), sy.FreeAbelianGroup(0)]
    for factors in ([huge], [sy.FiniteGroup.cyclic(3), huge], nested):
        with pytest.raises(ResourceCapError, match=r"^product group carrier would have at least 2\^"):
            sy.ProductGroup(factors).elements()
    with pytest.raises(InvalidInputError, match=r"cannot enumerate elements of ProductGroup"):
        sy.ProductGroup([sy.FreeGroup(1), huge]).elements()
    assert sy.ProductGroup([sy.FreeGroup(1), huge]).order() is None


# Values of different kinds whose keys coincide. Here and below, values are
# built by factories called in the test, under the default caps; a partial
# has no __name__, so pytest names it by its position.
SAME_KEYS = [
    (functools.partial(kind_a, key), functools.partial(kind_b, key))
    for kind_a, kind_b, key in [
        (sy.FreeAbelianGroup, sy.FreeGroup, 0),
        (sy.FreeAbelianGroup, sy.SymmetricGroup, 3),
        (sy.FreeGroup, sy.SymmetricGroup, 2),
    ]
]


@pytest.mark.parametrize("a, b", SAME_KEYS)
def test_equal_keys_across_kinds_stay_unequal(a, b):
    a, b = a(), b()
    assert a._key() == b._key()
    assert a != b and b != a and len({a, b}) == 2
    assert a == type(a)(a._key()) and hash(a) == hash(type(a)(a._key()))


Z1 = functools.partial(sy.FreeAbelianGroup, 1)


@pytest.mark.parametrize(
    "value, text",
    [
        (Z1, "FreeAbelianGroup(1)"),
        (functools.partial(sy.FreeGroup, 2), "FreeGroup(2)"),
        (functools.partial(sy.SymmetricGroup, 3), "SymmetricGroup(3)"),
        (functools.partial(sy.FiniteGroup.cyclic, 6), "FiniteGroup(order=6)"),
        (
            functools.partial(lambda: sy.ProductGroup([sy.FiniteGroup.cyclic(2), Z1()])),
            "ProductGroup([FiniteGroup(order=2), FreeAbelianGroup(1)])",
        ),
        (
            functools.partial(lambda: sy.FiniteSubset(Z1(), [(1,), (0,)])),
            "FiniteSubset[(0,), (1,)]",
        ),
    ],
)
def test_reprs_printed_by_error_messages(value, text):
    assert repr(value()) == text


def test_tuple_codec_error_wording():
    """Z^k, F_k and S_n share one integer-tuple JSON codec; each keeps its words."""
    cases = [
        (sy.FreeAbelianGroup(2), "coordinate", "coordinate"),
        (sy.FreeGroup(2), "letter", "letter"),
        (sy.SymmetricGroup(2), "permutation", "permutation entry"),
    ]
    for G, noun, entry in cases:
        assert G.elem_from_json(G.elem_to_json(G.generators()[0])) == G.generators()[0]
        with pytest.raises(InvalidInputError, match=rf"^expected a {noun} list, got 3$"):
            G.elem_from_json(3)
        with pytest.raises(InvalidInputError, match=rf"^{entry} must be an integer, got 1\.5$"):
            G.elem_from_json([1.5, 0])


# Non-canonical encodings, each with the universe it fails in.
NON_CANONICAL = [
    ("F2", (1, -1)),  # an unreduced word
    ("F2", (True,)),  # a bool letter
    ("Z2", (1,)),  # a Z^2 tuple of the wrong length
    ("Z2", (1, True)),  # a bool coordinate
    ("Z2", (1.0, 0)),  # a float coordinate
    ("C3", True),  # a bool index
    ("S2", (True, 0)),  # a bool permutation entry
]


@pytest.mark.parametrize("name, elem", NON_CANONICAL)
def test_public_constructors_refuse_non_canonical_elements(name, elem, Z2, F2):
    G = {"F2": F2, "Z2": Z2, "C3": sy.FiniteGroup.cyclic(3), "S2": sy.SymmetricGroup(2)}[name]
    with pytest.raises(InvalidInputError):
        sy.FiniteSubset(G, [G.identity(), elem])
    with pytest.raises(InvalidInputError):
        sy.GroupRingElement(G, 3, {G.identity(): 1, elem: 1})


def test_products_refuse_subsets_of_another_group(Z, Z2):
    for product in (sy.set_product, sy.product_window):
        with pytest.raises(InvalidInputError, match="must live in the given group"):
            product(Z2, sy.ball(Z, 1), sy.ball(Z2, 1))
        with pytest.raises(InvalidInputError, match="must live in the given group"):
            product(Z2, sy.ball(Z2, 1), sy.ball(Z, 1))


def test_product_window_matches_set_product_and_window_positions(Z2, F2, monkeypatch):
    """One pass gives the product set and every product's position in it."""
    for G in (Z2, F2, sy.FiniteGroup(symmetric_table(3))):
        for r, s in [(0, 0), (1, 0), (1, 2), (2, 1)]:
            E, M = sy.ball(G, r), sy.ball(G, s)
            EM, pos = sy.product_window(G, E, M)
            assert EM == sy.set_product(G, E, M)
            assert pos.dtype == np.int64
            assert np.array_equal(pos, window_positions(EM, E, M))
    # the cap on len(E) * len(M), with set_product's message
    E = sy.ball(Z2, 2)
    monkeypatch.setenv("SYMBA_CAP", str(len(E) ** 2 - 1))
    for product in (sy.set_product, sy.product_window):
        with pytest.raises(ResourceCapError, match="^set product enumeration would have 169 entries"):
            product(Z2, E, E)
