"""Alphabets, structured maps, pointedness and morphism verification."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import symba as sy
from symba.alphabets import decode_assignments
from symba.errors import InvalidInputError, ResourceCapError

from conftest import (
    oracle_group_morphism,
    oracle_module_morphism,
    oracle_pointed,
    oracle_window_table,
    symmetric_table,
)


def test_plain_alphabet_basics():
    A = sy.Alphabet.plain(3)
    assert A.size == 3 and A.basepoint == 0
    with pytest.raises(InvalidInputError):
        A.validate_value(3)


def test_module_alphabet_indexing():
    A = sy.Alphabet.module(2, 2)
    assert A.size == 4
    assert [list(v) for v in A.vectors()] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert A.vector_to_index((1, 0)) == 2
    assert A.basepoint == 0


def test_row_is_add_at_every_index():
    """A._row(i) lists add(i, x) over every index x, for modules and for a
    non-commutative group."""
    for A in (sy.Alphabet.module(2, 2), sy.Alphabet.module(3, 2), sy.Alphabet.module(5, 1),
              sy.Alphabet.group(symmetric_table(3))):
        for i in range(A.size):
            assert A._row(i).tolist() == [A.add(i, x) for x in range(A.size)]


def test_large_module_alphabet_stores_no_carrier(monkeypatch):
    monkeypatch.setenv("SYMBA_CAP", str(1 << 41))
    p = 1048573
    A = sy.Alphabet.module(p, 2)
    assert A.size == p * p
    i = A.vector_to_index([p - 1, 5])
    assert A.value_to_json(A.add(i, i)) == [p - 2, 10]
    assert A.value_to_json(A.scale(3, i)) == [p - 3, 15]
    double = sy.StructuredMap(A, 1, matrices=[[[2, 0], [0, 1]]])
    assert A.value_to_json(double.evaluate_batch([[i]])[0]) == [p - 2, 5]
    # above 2^20 the modulus is refused whatever the cap, so p^2 fits int64
    with pytest.raises(ResourceCapError):
        sy.Alphabet.module(1048583, 1)


@pytest.mark.parametrize("dim", [22, 10**5, 2**70])
def test_huge_module_dimension_is_refused_before_the_power(dim):
    """modulus^dim is not computed: at 10^5 it cannot be printed, at 2^70 built."""
    with pytest.raises(ResourceCapError, match=f"dim {dim} "):
        sy.Alphabet.module(2, dim)
    assert sy.Alphabet.module(2, 20).size == 1 << 20  # the default cap itself


def test_group_alphabet_basepoint_is_identity():
    table = symmetric_table(3)
    A = sy.Alphabet.group(table)
    assert A.basepoint == 0
    assert A.add(1, 1) == table[1][1]
    # Z/3 relabelled so that its identity is 2
    shifted = sy.Alphabet.group([[(a + b + 1) % 3 for b in range(3)] for a in range(3)])
    assert shifted.basepoint == 2


def test_alphabet_equality_and_hash():
    """Alphabets are equal when flavor, size and structure agree, whatever built them."""
    table = symmetric_table(3)
    A, B = sy.Alphabet.group(table), sy.Alphabet.group([list(row) for row in table])
    assert A == B and hash(A) == hash(B)
    assert A != sy.Alphabet.group([[(a + b) % 6 for b in range(6)] for a in range(6)])
    assert sy.Alphabet.module(3, 2) == sy.Alphabet.module(3, 2)
    assert hash(sy.Alphabet.plain(4)) == hash(sy.Alphabet.plain(4))
    unequal = [
        sy.Alphabet.plain(4),
        sy.Alphabet.module(2, 2),
        sy.Alphabet.module(4, 1),
        sy.Alphabet.group([[(a + b) % 4 for b in range(4)] for a in range(4)]),
    ]
    assert len(set(unequal)) == 4
    assert all((x == y) == (i == j) for i, x in enumerate(unequal) for j, y in enumerate(unequal))
    assert [repr(x) for x in unequal] == [
        "Alphabet.plain(4)",
        "Alphabet.module(2, 2)",
        "Alphabet.module(4, 1)",
        "Alphabet.group(order=4)",
    ]


def test_verify_pointed_examples():
    A = sy.Alphabet.plain(2)
    xor = sy.StructuredMap(A, 2, table=[0, 1, 1, 0])
    assert sy.verify_pointed(xor)
    const_one = sy.StructuredMap(A, 2, table=[1, 1, 1, 1])
    assert not sy.verify_pointed(const_one)
    M = sy.Alphabet.module(2, 1)
    mat = sy.StructuredMap(M, 2, matrices=[[[1]], [[1]]])
    assert sy.verify_pointed(mat)


def test_verify_pointed_agrees_with_evaluation():
    """The one-read test against the all-basepoints window, evaluated: plain,
    module and group alphabets, Z/3 labelled so that its identity is 2, one
    value (q = 1) and arity 0; matrix maps always fix 0, and a table with
    another value at the all-basepoints input is not pointed."""
    rng = np.random.default_rng(25)
    alphabets = [
        sy.Alphabet.plain(1),
        sy.Alphabet.plain(2),
        sy.Alphabet.plain(3),
        sy.Alphabet.module(2, 2),
        sy.Alphabet.module(3, 1),
        sy.Alphabet.group(symmetric_table(3)),
        sy.Alphabet.group([[(a + b + 1) % 3 for b in range(3)] for a in range(3)]),
    ]
    assert alphabets[-1].basepoint == 2
    for A in alphabets:
        q, e = A.size, A.basepoint
        for arity in range(4):
            all_base = sum(e * q**k for k in range(arity))
            for _ in range(4):
                table = rng.integers(0, q, size=q**arity)
                table[all_base] = e
                moved = table.copy()
                moved[all_base] = (e + 1) % q
                for t, want in [(table, True), (moved, q == 1)]:
                    smap = sy.StructuredMap(A, arity, table=t)
                    assert sy.verify_pointed(smap) == oracle_pointed(smap) == want
                if A.is_module:
                    mats = rng.integers(0, A.modulus, size=(arity, A.dim, A.dim))
                    smap = sy.StructuredMap(A, arity, matrices=mats)
                    assert sy.verify_pointed(smap) and oracle_pointed(smap)


def test_verify_structure_examples():
    M = sy.Alphabet.module(2, 1)
    xor = sy.StructuredMap(M, 2, table=[0, 1, 1, 0])
    assert sy.verify_structure(xor)
    orr = sy.StructuredMap(M, 2, table=[0, 1, 1, 1])
    assert not sy.verify_structure(orr)
    G = sy.Alphabet.group(symmetric_table(3))
    ident = sy.StructuredMap(G, 1, table=list(range(6)))
    assert sy.verify_structure(ident)
    # swapping two non-identity elements of S3 is not a homomorphism
    swapped = sy.StructuredMap(G, 1, table=[0, 2, 1, 3, 4, 5])
    assert not sy.verify_structure(swapped)


def _linear_tables(rng, A, arity, count):
    """Tables of random matrix maps, every other one with one entry changed."""
    d = A.dim
    for k in range(count):
        mats = rng.integers(0, A.modulus, size=(arity, d, d))
        table = sy.StructuredMap(A, arity, matrices=mats).expand_table().table.copy()
        if k % 2:
            table[rng.integers(table.size)] = rng.integers(A.size)
        yield table


def _module_families():
    """(alphabet, arity, tables): all of them, or a seeded sample plus the linear ones."""
    Z2, Z2sq, Z3 = sy.Alphabet.module(2, 1), sy.Alphabet.module(2, 2), sy.Alphabet.module(3, 1)
    for arity in range(4):
        yield Z2, arity, itertools.product(range(2), repeat=2**arity)
    yield Z2sq, 1, itertools.product(range(4), repeat=4)
    rng = np.random.default_rng(3)
    linear = [sy.StructuredMap(Z3, 2, matrices=[[[a]], [[b]]]).expand_table().table
              for a in range(3) for b in range(3)]
    yield Z3, 2, list(rng.integers(0, 3, size=(150, 9))) + linear
    for n in (4, 6):
        A = sy.Alphabet.module(n, 1)
        yield A, 2, list(rng.integers(0, n, size=(30, n * n))) + list(_linear_tables(rng, A, 2, 40))


def test_module_structure_matches_the_pair_scan():
    for A, arity, tables in _module_families():
        verdicts = []
        for table in tables:
            got = sy.verify_structure(sy.StructuredMap(A, arity, table=list(table)))
            assert got == oracle_module_morphism(A, arity, table), (A, arity, table)
            verdicts.append(got)
        assert any(verdicts) and not all(verdicts)


def test_module_structure_has_no_pair_scan_cap():
    """The arity-11 xor has 2^11 inputs, 2^22 pairs: above the default cap."""
    A = sy.Alphabet.module(2, 1)
    xor = decode_assignments(2, 11).sum(axis=1) % 2
    assert sy.verify_structure(sy.StructuredMap(A, 11, table=xor.copy()))
    xor[5] ^= 1
    assert not sy.verify_structure(sy.StructuredMap(A, 11, table=xor))


def test_module_structure_keeps_table_sized_memory():
    """The arity-20 xor has 2^20 entries (8 MiB): one gather per cell, no
    decoded windows (those took 480 MiB)."""
    A = sy.Alphabet.module(2, 1)
    xor = np.zeros(1, dtype=np.int64)
    for _ in range(20):
        xor = np.concatenate([xor, 1 - xor])
    smap = sy.StructuredMap(A, 20, table=xor)
    tracemalloc.start()
    try:
        assert sy.verify_structure(smap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    xor[-1] ^= 1
    assert not sy.verify_structure(sy.StructuredMap(A, 20, table=xor))


def _relabelled(table, perm):
    """The same group with element a renamed perm[a]."""
    out = np.empty((len(table), len(table)), dtype=np.int64)
    out[np.ix_(perm, perm)] = np.asarray(perm)[np.asarray(table)]
    return out.tolist()


def _group_families():
    """(alphabet, arity, tables) over S3, C3 x C3 and a relabelled S3:
    exhaustive at arity 1 for S3, seeded elsewhere, with products of
    homomorphisms mixed in so that both verdicts occur."""
    rng = np.random.default_rng(11)
    s3 = symmetric_table(3)
    S3 = sy.Alphabet.group(s3)
    yield S3, 1, itertools.product(range(6), repeat=6)
    homs = [h for h in itertools.product(range(6), repeat=6) if oracle_group_morphism(S3, 1, h)]
    pairs = [[s3[h[x]][k[y]] for x in range(6) for y in range(6)] for h in homs for k in homs]
    s3_pairs = list(rng.integers(0, 6, size=(60, 36))) + pairs
    yield S3, 2, s3_pairs
    # C3 x C3 indexed 3a + b: the index order of module(3, 2), whose linear maps are its homs
    c3sq = [[3 * ((a // 3 + b // 3) % 3) + (a + b) % 3 for b in range(9)] for a in range(9)]
    C3sq, M = sy.Alphabet.group(c3sq), sy.Alphabet.module(3, 2)
    yield C3sq, 1, list(rng.integers(0, 9, size=(40, 9))) + list(_linear_tables(rng, M, 1, 40))
    yield C3sq, 2, list(rng.integers(0, 9, size=(20, 81))) + list(_linear_tables(rng, M, 2, 40))
    perm = [3, 0, 1, 2, 5, 4]  # the identity becomes index 3
    R = sy.Alphabet.group(_relabelled(s3, perm))
    assert R.basepoint == 3
    at = np.asarray(perm)
    cells = (at[:, None] * 6 + at).reshape(-1)  # index of (perm x, perm y)
    yield R, 1, [at[list(h)][np.argsort(at)] for h in homs] + list(rng.integers(0, 6, size=(60, 6)))
    yield R, 2, [at[np.asarray(t)][np.argsort(cells)] for t in s3_pairs]


def test_group_structure_matches_the_pair_scan():
    for A, arity, tables in _group_families():
        verdicts = []
        for table in tables:
            got = sy.verify_structure(sy.StructuredMap(A, arity, table=list(table)))
            assert got == oracle_group_morphism(A, arity, table), (A, arity, table)
            verdicts.append(got)
        assert any(verdicts) and not all(verdicts), (A, arity)


def test_group_structure_has_no_pair_scan_cap():
    """An S3 rule at arity 4 has 6^8 input pairs, over the 2^20 cap."""
    A = sy.Alphabet.group(symmetric_table(3))
    last = decode_assignments(6, 4)[:, -1]
    assert sy.verify_structure(sy.StructuredMap(A, 4, table=last))
    swapped = np.array([0, 2, 1, 3, 4, 5])[last]  # two transpositions swapped, 3-cycles kept
    assert not sy.verify_structure(sy.StructuredMap(A, 4, table=swapped))


def test_structure_implies_pointed_exhaustively():
    """Every additive table over (Z/2)^1 with arity <= 2 fixes zero."""
    M = sy.Alphabet.module(2, 1)
    for arity in (1, 2):
        for table in itertools.product(range(2), repeat=2**arity):
            smap = sy.StructuredMap(M, arity, table=list(table))
            if sy.verify_structure(smap):
                assert sy.verify_pointed(smap)


def test_matrix_map_agrees_with_expanded_table():
    A = sy.Alphabet.module(3, 2)
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 3, size=(2, 2, 2))
    smap = sy.StructuredMap(A, 2, matrices=mats)
    expanded = smap.expand_table()
    X = decode_assignments(A.size, 2)
    assert np.array_equal(smap.evaluate_batch(X), expanded.evaluate_batch(X))
    # spot check one window by hand
    v = A.vectors()
    x = (A.vector_to_index((1, 2)), A.vector_to_index((0, 1)))
    want = (mats[0] @ v[x[0]] + mats[1] @ v[x[1]]) % 3
    assert smap.evaluate_batch([x])[0] == A.vector_to_index(want)


def test_finite_map_classify_examples():
    cyc = np.array([1, 2, 3, 4, 0])
    assert sy.finite_map_classify(cyc) == {
        "injective": True,
        "surjective": True,
        "bijective": True,
    }
    const = np.array([0, 0])
    assert sy.finite_map_classify(const) == {
        "injective": False,
        "surjective": False,
        "bijective": False,
    }
    ident = np.arange(7)
    assert sy.finite_map_classify(ident)["bijective"]


def test_classify_flags_consistent_exhaustively():
    """On a finite carrier: injective, surjective, bijective coincide."""
    for n in range(1, 5):
        for f in itertools.product(range(n), repeat=n):
            flags = sy.finite_map_classify(np.array(f))
            assert flags["injective"] == flags["surjective"] == flags["bijective"]


def test_structured_map_shape_validation():
    A = sy.Alphabet.plain(2)
    with pytest.raises(InvalidInputError):
        sy.StructuredMap(A, 2, table=[0, 1, 1])  # wrong length
    with pytest.raises(InvalidInputError):
        sy.StructuredMap(A, 1, table=[0, 2])  # value out of range
    with pytest.raises(InvalidInputError):
        sy.StructuredMap(A, 1, matrices=[[[1]]])  # matrices need a module
    M = sy.Alphabet.module(2, 2)
    with pytest.raises(InvalidInputError):
        sy.StructuredMap(M, 2, matrices=[[[1, 0], [0, 1]]])  # one matrix short


# each alphabet is a factory, called in the test under the default caps
@pytest.mark.parametrize(
    "alphabet, given",
    [
        (functools.partial(sy.Alphabet.plain, 2), {"table": [0, True]}),
        (functools.partial(sy.Alphabet.plain, 2), {"table": [np.True_, 0]}),
        (functools.partial(sy.Alphabet.module, 3, 2), {"matrices": [[[1, True], [0, 1]]]}),
    ],
)
def test_structured_map_refuses_a_bool_inside_a_list(alphabet, given):
    """numpy reads a list that mixes ints and bools as int64; the map does not."""
    with pytest.raises(InvalidInputError, match="entries must be integers, got a bool"):
        sy.StructuredMap(alphabet(), 1, **given)


def test_map_keeps_its_own_copy_of_a_table_array():
    A = sy.Alphabet.plain(2)
    table = np.array([0, 1, 1, 0], dtype=np.int64)
    xor = sy.StructuredMap(A, 2, table=table)
    table[1] = 0  # the caller's array stays writeable
    assert xor.table.tolist() == [0, 1, 1, 0]
    assert not xor.table.flags.writeable
    frozen = np.array([0, 1, 1, 0], dtype=np.int64)
    frozen.flags.writeable = False  # read-only and owning its data: shared
    assert sy.StructuredMap(A, 2, table=frozen).table is frozen
    # read-only views of a writeable array are copied, so later writes to
    # the array do not reach the map
    base = np.array([0, 1, 1, 0], dtype=np.int64)
    view = base[:]
    view.flags.writeable = False
    for ro in (view, np.broadcast_to(base, (4,))):
        m = sy.StructuredMap(A, 2, table=ro)
        base[1] = 0
        assert m.table.tolist() == [0, 1, 1, 0]
        base[1] = 1


def _carrier_windows():
    """Windows h*M over the carrier of S3 x C3, as transport reads them."""
    F = sy.ProductGroup([sy.FiniteGroup(symmetric_table(3)), sy.FiniteGroup.cyclic(3)])
    carrier = list(F.elements())
    at = {h: i for i, h in enumerate(carrier)}
    return [[at[F.mul(h, m)] for m in [(3, 1), (0, 0), (4, 2)]] for h in carrier]


@pytest.mark.parametrize(
    "q, n, windows",
    [
        (2, 17, "shift"),
        (3, 11, "shift"),
        (4, 9, "shift"),
        (2, 17, "scattered"),
        (3, 11, "scattered"),
        (4, 9, "scattered"),
        (2, 18, "carrier"),
        (2, 17, "constant"),
        (4, 9, "constant"),
        (2, 10, "shift"),
        (3, 7, "scattered"),
    ],
)
def test_window_table_matches_oracle(q, n, windows):
    """window_table and the blocks of window_codes against a decode-everything
    oracle. Above 2^16 configurations a block fixes leading cells and windows
    are summed in groups first; the last two cases fit one group table."""
    rng = np.random.default_rng([q, n, len(windows)])
    if windows == "shift":  # wrapping around Z/n, cells in unsorted order
        pos = [[(h + k) % n for k in (1, -2, 0)] for h in range(n)]
    elif windows == "scattered":
        pos = [rng.choice(n, 3, replace=False).tolist() for _ in range(2 * n)]
    elif windows == "carrier":
        pos = _carrier_windows()
    else:  # an arity-0 map
        pos = [[]] * 5
    arity = len(pos[0])
    table = rng.integers(0, q, q**arity)
    m = sy.StructuredMap(sy.Alphabet.plain(q), arity, table=table)
    expected = oracle_window_table(table, q, pos, n)
    assert np.array_equal(m.window_table(pos, n), expected)
    blocks = list(m.window_codes(pos, n))
    assert [start for start, _ in blocks] == [b * blocks[0][1].size for b in range(len(blocks))]
    assert (len(blocks) > 1) == (q**n > 1 << 16)


def test_window_codes_refuses_a_window_reading_one_cell_twice():
    A = sy.Alphabet.plain(2)
    xor = sy.StructuredMap(A, 2, table=[0, 1, 1, 0])
    assert [c.tolist() for _, c in xor.window_codes([[0, 1], [2, 1]], 3)] == [
        [0, 1, 3, 2, 2, 3, 1, 0]
    ]
    with pytest.raises(InvalidInputError, match="twice"):
        list(xor.window_codes([[0, 1], [1, 1]], 3))
