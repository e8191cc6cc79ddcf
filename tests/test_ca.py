"""Window calculus: induced maps, composition, inverse criteria, dynamics."""

import functools
import itertools

import numpy as np
import pytest

import symba as sy
from symba.errors import EmptyWindowError, InvalidInputError, ResourceCapError

from conftest import (
    make_table_ca,
    oracle_evolve,
    cyclic_alphabet,
    oracle_left_identity,
    oracle_live_inputs,
    planted_table,
    pointed_permutation,
    random_pointed_table,
    set_cap,
    symmetric_table,
    xor_ca,
)


def _pattern(G, A, cells, values):
    return sy.Pattern(sy.FiniteSubset(G, cells), tuple(values))


def test_local_rule_rejects_unpointed_and_mismatched(Z, bit):
    mem = sy.FiniteSubset(Z, [(0,), (1,)])
    with pytest.raises(InvalidInputError):
        sy.LocalRule(mem, sy.StructuredMap(bit, 2, table=[1, 1, 1, 1]))
    with pytest.raises(InvalidInputError):
        sy.LocalRule(mem, sy.StructuredMap(bit, 1, table=[0, 1]))


def test_induced_map_shift(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    E = sy.FiniteSubset(Z, [(0,), (1,)])
    p = _pattern(Z, bit, [(1,), (2,)], [1, 0])
    out = sy.induced_map(shift, E, p)
    assert out.domain == E
    assert out.values == (1, 0)


def test_induced_map_xor(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    E = sy.FiniteSubset(Z, [(0,)])
    p = _pattern(Z, bit, [(0,), (1,)], [1, 1])
    assert sy.induced_map(xor, E, p).values == (0,)


def test_induced_map_linear_pair_hand_oracle(Z):
    # rule value at g = C0 @ x(g) + C1 @ x(g+1) over (Z/2)^2
    A = sy.Alphabet.module(2, 2)
    C0 = np.array([[0, 1], [1, 0]])
    C1 = np.array([[0, 0], [0, 1]])
    mem = sy.FiniteSubset(Z, [(0,), (1,)])
    tau = sy.CellularAutomaton(
        Z, A, sy.LocalRule(mem, sy.StructuredMap(A, 2, matrices=[C0, C1]))
    )
    E = sy.FiniteSubset(Z, [(0,)])
    x0, x1 = (1, 0), (0, 1)
    p = _pattern(Z, A, [(0,), (1,)], [A.vector_to_index(x0), A.vector_to_index(x1)])
    want = (C0 @ np.array(x0) + C1 @ np.array(x1)) % 2
    got = sy.induced_map(tau, E, p).values[0]
    assert got == A.vector_to_index(want)
    assert tuple(want) == (0, 0)


def test_induced_map_domain_mismatch(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    E = sy.FiniteSubset(Z, [(0,)])
    p = _pattern(Z, bit, [(0,)], [1])
    with pytest.raises(InvalidInputError):
        sy.induced_map(shift, E, p)


def test_induced_map_refuses_a_value_outside_the_alphabet(Z, bit):
    """A bit pattern holding 3: (0, 3) read as index 3, configuration (1, 1)."""
    xor = xor_ca(Z, bit, [(0,), (1,)])
    p = _pattern(Z, bit, [(0,), (1,)], [0, 3])
    with pytest.raises(InvalidInputError, match=r"alphabet indices 0\.\.1"):
        sy.induced_map(xor, sy.FiniteSubset(Z, [(0,)]), p)


def test_extend_memory_shift(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    bigger = sy.ball(Z, 1)
    ext = sy.extend_memory(shift.rule, bigger)
    ext_ca = sy.CellularAutomaton(Z, bit, ext)
    assert sy.same_action(ext_ca, shift)
    # extending by nothing changes nothing
    again = sy.extend_memory(shift.rule, shift.memory)
    assert np.array_equal(again.map.table, shift.rule.map.table)
    with pytest.raises(InvalidInputError):
        sy.extend_memory(ext, shift.memory)


def test_extend_memory_window_agreement(Z, bit):
    """Extended rules act identically on every window over ball(2)."""
    xor = xor_ca(Z, bit, [(0,), (1,)])
    ext = sy.CellularAutomaton(Z, bit, sy.extend_memory(xor.rule, sy.ball(Z, 1)))
    E = sy.ball(Z, 2)
    EM1 = sy.set_product(Z, E, xor.memory)
    EM2 = sy.set_product(Z, E, ext.memory)
    for bits in itertools.product(range(2), repeat=len(EM2)):
        p2 = sy.Pattern(EM2, bits)
        p1 = p2.restrict(EM1)
        assert sy.induced_map(xor, E, p1).values == sy.induced_map(ext, E, p2).values


def test_compose_shifts(Z, bit):
    s1 = sy.projection_ca(Z, bit, (1,))
    s2 = sy.compose(s1, s1)
    assert list(s2.memory) == [(2,)]
    assert sy.same_action(s2, sy.projection_ca(Z, bit, (2,)))


def test_compose_with_identity(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    composed = sy.compose(sy.identity_ca(Z, bit), xor)
    assert sy.same_action(composed, xor)


def test_compose_matrix_rules_stay_matrix(Z):
    A = sy.Alphabet.module(2, 2)
    C = sy.GroupRingMatrix(
        Z,
        2,
        [
            [sy.GroupRingElement(Z, 2, {}), sy.GroupRingElement(Z, 2, {(0,): 1})],
            [
                sy.GroupRingElement(Z, 2, {(0,): 1}),
                sy.GroupRingElement(Z, 2, {(1,): 1}),
            ],
        ],
    )
    D = sy.GroupRingMatrix(
        Z,
        2,
        [
            [sy.GroupRingElement(Z, 2, {(1,): 1}), sy.GroupRingElement(Z, 2, {(0,): 1})],
            [sy.GroupRingElement(Z, 2, {(0,): 1}), sy.GroupRingElement(Z, 2, {})],
        ],
    )
    tau, sig = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
    comp = sy.compose(sig, tau)
    assert comp.rule.map.is_matrix
    assert sy.same_action(comp, sy.identity_ca(Z, A))


def test_compose_cocycle_against_induced_maps(Z, bit):
    """compose(sigma, tau)'s window action equals applying both in turn."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        sigma = make_table_ca(
            Z, bit, [(0,), (1,)], random_pointed_table(rng, bit, 2)
        )
        tau = make_table_ca(
            Z, bit, [(-1,), (0,)], random_pointed_table(rng, bit, 2)
        )
        comp = sy.compose(sigma, tau)
        E = sy.ball(Z, 1)
        EMs = sy.set_product(Z, E, sigma.memory)
        dom = sy.set_product(Z, EMs, tau.memory)
        assert dom == sy.set_product(Z, E, comp.memory)
        for bits in itertools.product(range(2), repeat=len(dom)):
            p = sy.Pattern(dom, bits)
            two_step = sy.induced_map(sigma, E, sy.induced_map(tau, EMs, p))
            one_step = sy.induced_map(comp, E, p)
            assert two_step.values == one_step.values


def test_translation_equivariance_on_windows(Z, F2, bit):
    """Window evaluation commutes with translating both pattern and window."""
    for G in (Z, F2):
        rng = np.random.default_rng(3)
        mem = [G.identity(), G.generators()[0]]
        tau = make_table_ca(G, bit, mem, random_pointed_table(rng, bit, 2))
        E = sy.ball(G, 1)
        EM = sy.set_product(G, E, tau.memory)
        for g in sy.ball(G, 1):
            gE = sy.FiniteSubset(G, [G.mul(g, x) for x in E])
            for bits in itertools.product(range(2), repeat=len(EM)):
                p = sy.Pattern(EM, bits)
                direct = sy.induced_map(tau, E, p).translate(g)
                moved = sy.induced_map(tau, gE, p.translate(g))
                assert direct.domain == moved.domain
                assert direct.values == moved.values


def test_check_left_inverse_examples(Z, bit):
    ident = sy.identity_ca(Z, bit)
    assert sy.check_left_inverse(ident, ident)
    fwd = sy.projection_ca(Z, bit, (1,))
    back = sy.projection_ca(Z, bit, (-1,))
    assert sy.check_left_inverse(back, fwd)
    assert sy.check_right_inverse(back, fwd)
    xor = xor_ca(Z, bit, [(0,), (1,)])
    rng = np.random.default_rng(4)
    for _ in range(5):
        sigma = make_table_ca(Z, bit, [(-1,), (0,), (1,)], random_pointed_table(rng, bit, 3))
        assert not sy.check_left_inverse(sigma, xor)
    # constant-basepoint rule is no right inverse for the identity
    const = make_table_ca(Z, bit, [(0,)], [0, 0])
    assert not sy.check_right_inverse(const, ident)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_is_identity_at_every_identity_position(Z, F2, q, where):
    """The projection onto the identity cell passes; one changed entry fails.

    Composed with the identity on either side, tau's table is the composite
    over M_tau, so both checks decide whether tau is that projection.
    """
    G, memory = {
        "first": (F2, list(sy.ball(F2, 1))),  # graded order: identity first
        "middle": (Z, [(-1,), (0,), (1,)]),
        "last": (Z, [(-2,), (-1,), (0,)]),
    }[where]
    c = {"first": 0, "middle": 1, "last": 2}[where]
    assert list(sy.FiniteSubset(G, memory)) == memory and memory[c] == G.identity()
    A = sy.Alphabet.plain(q)
    ident = sy.identity_ca(G, A)
    table = np.array([w[c] for w in itertools.product(range(q), repeat=len(memory))])
    tau = make_table_ca(G, A, memory, table)
    assert sy.check_left_inverse(ident, tau) and sy.check_right_inverse(ident, tau)
    rng = np.random.default_rng(q)
    for k in [1, table.size - 1, *rng.integers(1, table.size, size=6)]:
        wrong = table.copy()
        wrong[k] = (wrong[k] + 1) % q
        tau = make_table_ca(G, A, memory, wrong)
        assert not sy.check_left_inverse(ident, tau)
        assert not sy.check_right_inverse(ident, tau)


def test_inverse_checks_over_two_blocks(Z, bit):
    """2^17-window composites, scanned in two blocks of 2^16.

    The shift pair widened to ball(4) composes over ball(8) to the identity
    (each rule reads one cell, so it is decided on the live product {0}).
    Against the identity automaton, a rule over ball(8) is its own
    composite, so one wrong entry in the first or the last block of the
    projection onto the identity cell must be found: that entry makes every
    cell live, so the scan covers both blocks.
    """
    wide = sy.ball(Z, 4)
    tau, sigma = (
        sy.CellularAutomaton(Z, bit, sy.extend_memory(sy.projection_ca(Z, bit, g).rule, wide))
        for g in [(1,), (-1,)]
    )
    assert len(sy.set_product(Z, wide, wide)) == 17
    assert sy.check_left_inverse(sigma, tau) and sy.check_right_inverse(sigma, tau)
    assert oracle_left_identity(sigma, tau, [Z.identity()])

    ident = sy.identity_ca(Z, bit)
    memory = list(sy.ball(Z, 8))
    table = (np.arange(1 << 17) >> 8) & 1  # the digit of the middle cell
    assert sy.check_left_inverse(ident, make_table_ca(Z, bit, memory, table))
    for k in [1, 12345, (1 << 16) - 1, 1 << 16, (1 << 17) - 1]:
        wrong = table.copy()
        wrong[k] ^= 1
        tau = make_table_ca(Z, bit, memory, wrong)
        assert not sy.check_left_inverse(ident, tau)
        assert not sy.check_right_inverse(ident, tau)
        assert oracle_left_identity(ident, tau, [Z.identity()]) is False


@pytest.mark.parametrize("q", [1, 2, 3])
def test_inverse_checks_when_the_product_memory_misses_the_identity(Z, q, monkeypatch):
    """Shifts by 1 compose to the shift by 2: the identity only when A has
    one value. That verdict comes before the composite table's cap, which
    applies only to a pair whose live product holds the identity.

    Shifts by 11 and -11 written over {1, ..., 11} and {-11, ..., -1} read
    one cell each: their live product is {0}, so the pair is decided, though
    its written product {-10, ..., 10} passes the cap. Seeded dense tables
    over the same memories read every cell and still meet the cap. The
    oracle, which enumerates the written product, checks the same shape
    over 6 cells each under a cap of 2^10.
    """
    A = sy.Alphabet.plain(q)
    shift = sy.projection_ca(Z, A, (1,))
    assert sy.check_left_inverse(shift, shift) == sy.check_right_inverse(shift, shift) == (q == 1)
    bit = sy.Alphabet.plain(2)
    rng = np.random.default_rng([q, 31])

    def pair(m):
        ahead = make_table_ca(Z, bit, [(i,) for i in range(1, m + 1)], np.arange(1 << m) & 1)
        behind = make_table_ca(Z, bit, [(-i,) for i in range(1, m + 1)], np.arange(1 << m) >> (m - 1))
        dense = [make_table_ca(Z, bit, ca.memory, random_pointed_table(rng, bit, m)) for ca in (behind, ahead)]
        return behind, ahead, dense

    behind, ahead, (dense_behind, dense_ahead) = pair(11)
    for check in (sy.check_left_inverse, sy.check_right_inverse):
        assert check(ahead, ahead) is False  # memory {2, ..., 22}: no scan, no cap
        assert check(behind, ahead) is True
        with pytest.raises(ResourceCapError, match=r"^composite rule table would have 2097152 entries, cap is 1048576$"):
            check(dense_behind, dense_ahead)  # memory {-10, ..., 10}, every cell live

    behind, ahead, (dense_behind, dense_ahead) = pair(6)
    set_cap(monkeypatch, str(1 << 10))
    assert sy.check_left_inverse(behind, ahead) is oracle_left_identity(behind, ahead, [Z.identity()])
    assert sy.check_right_inverse(behind, ahead) is oracle_left_identity(ahead, behind, [Z.identity()])
    assert sy.check_left_inverse(behind, ahead) is True
    for check in (sy.check_left_inverse, sy.check_right_inverse):
        with pytest.raises(ResourceCapError, match=r"^composite rule table would have 2048 entries, cap is 1024$"):
            check(dense_behind, dense_ahead)


def test_widened_shift_pair_past_the_cap_is_decided(Z, bit):
    """The shift pair widened to ball(6): 2^25 windows over the written
    product ball(12), past the default cap, but each rule reads one cell,
    so both checks scan the two windows of the live product {0}."""
    wide = sy.ball(Z, 6)
    tau, sigma = (
        sy.CellularAutomaton(Z, bit, sy.extend_memory(sy.projection_ca(Z, bit, g).rule, wide))
        for g in [(1,), (-1,)]
    )
    assert len(sy.set_product(Z, wide, wide)) == 25
    assert sy.check_left_inverse(sigma, tau) is True
    assert sy.check_right_inverse(sigma, tau) is True
    assert sy.check_left_inverse(tau, tau) is False  # live product {2}


def test_one_letter_rules_past_numpy_axes(Z):
    """Over one letter every scan has one configuration, however many cells
    it spans: 81 cells for the product of {-20..20}, 121 for a radius-40
    determinacy, 70 for a rule compared with the identity."""
    one = sy.Alphabet.plain(1)
    tau = xor_ca(Z, one, [(i,) for i in range(-20, 21)])
    assert sy.check_left_inverse(tau, tau) is True
    assert sy.compose(tau, tau).rule.map.table.tolist() == [0]
    assert sy.determinacy_check(tau, sy.ball(Z, 40)).is_determined
    assert sy.same_action(xor_ca(Z, one, [(i,) for i in range(70)]), sy.identity_ca(Z, one))


def _logged_scans(monkeypatch):
    """A log of the cell count of each window scan walked."""
    kernel = sy.StructuredMap.window_codes
    scans = []

    def logged(self, pos, n_cells):
        scans.append(n_cells)
        yield from kernel(self, pos, n_cells)

    monkeypatch.setattr(sy.StructuredMap, "window_codes", logged)
    return scans


# (universe, sigma's memory, tau's memory): written products of 7 to 9 cells
_DEAD_INPUT_PAIRS = [
    ("Z", [(-2,), (-1,), (0,), (1,)], [(-1,), (0,), (1,), (2,)]),
    ("Z", [(-3,), (-1,), (0,), (2,)], [(-1,), (1,), (3,)]),
    ("Z2", [(0, 0), (0, -1), (-1, 0)], [(0, 0), (0, 1), (1, 0)]),
    ("F2", [(), (-1,), (2,)], [(), (1,), (-2,)]),
]


@pytest.mark.parametrize("alphabet", ["q1", "q2", "q3", "group"])
def test_inverse_checks_on_live_cells_match_the_oracle(Z, Z2, F2, alphabet, monkeypatch):
    """Seeded tables with planted dead inputs on Z, Z^2 and F_2, under a cap
    of max(|A|, 2)^5 windows, so every written product is read over its live
    cells: random tables, shift pairs that are inverses (each a pointed
    permutation of one cell, the other cells dead), constant rules and an
    arity-0 rule, over |A| = 1, 2, 3 and a group alphabet whose identity
    is index 2. Both checks agree with the oracle, which enumerates the
    written product, and scan the product of the cells each table reads
    (found by brute force), or nothing when it misses the identity; with
    one value no scan passes the cap."""
    A = {"q1": sy.Alphabet.plain(1), "q2": sy.Alphabet.plain(2), "q3": sy.Alphabet.plain(3),
         "group": cyclic_alphabet(3, 2)}[alphabet]
    q = A.size
    set_cap(monkeypatch, str(max(q, 2) ** 5))
    scans = _logged_scans(monkeypatch)
    rng = np.random.default_rng([q, 31])
    verdicts, narrowed = set(), 0
    for name, mem_s, mem_t in _DEAD_INPUT_PAIRS:
        G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
        ms, mt = sy.FiniteSubset(G, mem_s), sy.FiniteSubset(G, mem_t)
        written = len(sy.set_product(G, ms, mt))
        cases = []
        for _ in range(4):
            live_s = sorted(rng.choice(len(ms), size=int(rng.integers(1, 3)), replace=False).tolist())
            live_t = sorted(rng.choice(len(mt), size=int(rng.integers(1, 3)), replace=False).tolist())
            cases.append((planted_table(rng, A, len(ms), live_s), planted_table(rng, A, len(mt), live_t)))
        for j in range(len(mt)):  # tau a permutation of cell mt[j], sigma its inverse at mt[j]^-1
            g = mt[j]
            if G.inv(g) not in ms:
                continue
            perm = pointed_permutation(rng, A)
            i = ms.index_of(G.inv(g))
            cases.append((np.argsort(perm)[_digit(q, len(ms), i)], perm[_digit(q, len(mt), j)]))
        cases.append((np.full(q ** len(ms), A.basepoint), planted_table(rng, A, len(mt), [0, 1])))
        for tab_s, tab_t in cases:
            sigma, tau = make_table_ca(G, A, mem_s, tab_s), make_table_ca(G, A, mem_t, tab_t)
            for check, first, second in [(sy.check_left_inverse, sigma, tau), (sy.check_right_inverse, tau, sigma)]:
                scans.clear()
                want = oracle_left_identity(first, second, [G.identity()])
                assert check(sigma, tau) is want
                verdicts.add(want)
                read = sy.set_product(G, *(
                    sy.FiniteSubset(G, [ca.memory[j] for j in oracle_live_inputs(ca.rule.map)]) for ca in (first, second)
                ))
                if q == 1:
                    assert scans == [written]
                else:
                    assert scans == ([len(read)] if G.identity() in read else [])
                    narrowed += len(read) < written
        empty = sy.CellularAutomaton(G, A, sy.LocalRule(sy.FiniteSubset(G, []), sy.StructuredMap(A, 0, table=[A.basepoint])))
        for check in (sy.check_left_inverse, sy.check_right_inverse):
            assert check(empty, tau) is check(tau, empty) is (q == 1)
    assert verdicts == ({True} if q == 1 else {True, False})
    assert (narrowed > 0) == (q > 1)


def _digit(q, arity, j):
    """The digit of input j of every index of a table over `arity` inputs."""
    return np.arange(q**arity) // q ** (arity - 1 - j) % q


def test_check_left_inverse_matches_brute_force_oracle(Z, F2, bit):
    trit = sy.Alphabet.plain(3)
    rng = np.random.default_rng(12)
    cases = 0
    for G in (Z, F2):
        gen = G.generators()[0]
        for A in (bit, trit):
            for mem_s, mem_t in [
                ([G.identity()], [G.identity()]),
                ([gen], [G.inv(gen)]),
                ([gen], [gen]),  # the product misses the identity
                ([G.identity(), gen], [G.identity(), gen]),
            ]:
                for _ in range(4):
                    sigma = make_table_ca(
                        G, A, mem_s, random_pointed_table(rng, A, len(mem_s))
                    )
                    tau = make_table_ca(
                        G, A, mem_t, random_pointed_table(rng, A, len(mem_t))
                    )
                    window = list(sy.ball(G, 2)) if G == Z else [G.identity()]
                    want = oracle_left_identity(sigma, tau, window)
                    assert want is not None
                    assert sy.check_left_inverse(sigma, tau) == want
                    cases += 1
    assert cases >= 48


def _matrix_ca(G, A, cells, mats):
    memory = sy.FiniteSubset(G, cells)
    smap = sy.StructuredMap(A, len(memory), matrices=mats)
    return sy.CellularAutomaton(G, A, sy.LocalRule(memory, smap))


def _matrix_pairs(G, d, rng):
    """(sigma, tau) matrix rules over (Z/2)^d: seeded random pairs, two that
    compose to the identity both ways, and pairs whose product memory misses
    the identity."""
    A = sy.Alphabet.module(2, d)
    one, gens = G.identity(), G.generators()
    g, h = gens[0], gens[-1]
    g_inv = G.inv(g)
    pairs = []
    for cells_s, cells_t in [([g_inv, one], [one, g]), ([g], [g]), ([g], [g, h])]:
        for _ in range(4):
            mats_s = rng.integers(0, 2, size=(len(set(cells_s)), d, d))
            mats_t = rng.integers(0, 2, size=(len(set(cells_t)), d, d))
            pairs.append((_matrix_ca(G, A, cells_s, mats_s), _matrix_ca(G, A, cells_t, mats_t)))
    P = np.eye(d, dtype=np.int64)[rng.permutation(d)]  # P^-1 = P^T
    pairs.append((_matrix_ca(G, A, [g_inv], [P.T]), _matrix_ca(G, A, [g], [P])))
    N = np.zeros((d, d), dtype=np.int64)
    N[0, d - 1] = d > 1  # N^2 = 0, so I + N g and I - N g are inverse; N = 0 when d = 1
    I = np.eye(d, dtype=np.int64)
    pairs.append((_matrix_ca(G, A, [one, g], [I, -N]), _matrix_ca(G, A, [one, g], [I, N])))
    return A, pairs


def test_check_left_inverse_matrix_route_agrees_with_table_route(Z, Z2, F2):
    """Matrix pairs are decided on their coefficient-family product; compose
    and both checks agree with their table route and the brute-force oracle.
    Over Z, Z^2 and F_2 with d = 1 to 3 over F_2: seeded random pairs,
    inverse pairs (one with a zero coefficient in its composite) and pairs
    whose product memory misses the identity."""
    rng = np.random.default_rng(9)
    verdicts = []
    for G, d in itertools.product((Z, Z2, F2), (1, 2, 3)):
        A, pairs = _matrix_pairs(G, d, rng)
        ident = sy.identity_ca(G, A)
        for sig_m, tau_m in pairs:
            sig_t, tau_t = (
                sy.CellularAutomaton(G, A, sy.LocalRule(ca.memory, ca.rule.map.expand_table()))
                for ca in (sig_m, tau_m)
            )
            left = oracle_left_identity(sig_m, tau_m, [G.identity()])
            right = oracle_left_identity(tau_m, sig_m, [G.identity()])
            for check, want in [(sy.check_left_inverse, left), (sy.check_right_inverse, right)]:
                assert check(sig_m, tau_m) == check(sig_t, tau_t) == want
            comp_m, comp_t = sy.compose(sig_m, tau_m), sy.compose(sig_t, tau_t)
            assert comp_m.rule.map.is_matrix and comp_m.memory == comp_t.memory
            assert np.array_equal(comp_m.rule.map.expand_table().table, comp_t.rule.map.table)
            assert sy.check_left_inverse(ident, comp_m) == left
            verdicts.append(left)
    assert True in verdicts and False in verdicts


def test_module_and_table_windows_agree(Z):
    A = sy.Alphabet.module(3, 1)
    mats = np.array([[[1]], [[2]]])
    mem = sy.FiniteSubset(Z, [(0,), (1,)])
    tau_m = sy.CellularAutomaton(Z, A, sy.LocalRule(mem, sy.StructuredMap(A, 2, matrices=mats)))
    tau_t = sy.CellularAutomaton(Z, A, sy.LocalRule(mem, tau_m.rule.map.expand_table()))
    E = sy.ball(Z, 2)
    EM = sy.set_product(Z, E, mem)
    for vals in itertools.product(range(3), repeat=len(EM)):
        p = sy.Pattern(EM, vals)
        assert sy.induced_map(tau_m, E, p).values == sy.induced_map(tau_t, E, p).values


def test_evolve_xor_word(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    dom = sy.FiniteSubset(Z, [(i,) for i in range(5)])
    p = sy.Pattern(dom, (1, 0, 1, 1, 0))
    out = sy.evolve(xor, p, 1)
    assert [e for e in out.domain] == [(0,), (1,), (2,), (3,)]
    assert out.values == (1, 1, 0, 1)
    assert sy.evolve(xor, p, 0) is p or sy.evolve(xor, p, 0).values == p.values


def test_evolve_shift_moves_window(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    dom = sy.FiniteSubset(Z, [(i,) for i in range(3)])
    p = sy.Pattern(dom, (1, 0, 1))
    out = sy.evolve(shift, p, 1)
    assert [e for e in out.domain] == [(-1,), (0,), (1,)]
    assert out.values == (1, 0, 1)


def test_evolve_refuses_a_value_outside_the_alphabet(Z, bit):
    """A bit pattern holding 7 is refused, not an IndexError from the table."""
    xor = xor_ca(Z, bit, [(0,), (1,)])
    p = sy.Pattern(sy.FiniteSubset(Z, [(0,), (1,), (2,)]), (1, 7, 0))
    with pytest.raises(InvalidInputError, match=r"alphabet indices 0\.\.1"):
        sy.evolve(xor, p, 1)


def test_evolve_empty_window_errors(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    dom = sy.FiniteSubset(Z, [(0,), (1,)])
    p = sy.Pattern(dom, (1, 1))
    with pytest.raises(EmptyWindowError):
        sy.evolve(xor, p, 2)


def test_evolve_caps_its_cell_reads_before_the_first_step(Z, bit, monkeypatch):
    """A shift never shrinks its window, so steps * |window| * |M| reads are
    capped up front: 10^12 steps on 13 cells are refused with no step run."""
    shift = sy.projection_ca(Z, bit, (1,))
    p = sy.Pattern(sy.ball(Z, 6), (1,) + (0,) * 12)
    set_cap(monkeypatch, "26")
    assert sy.evolve(shift, p, 2).values == p.values  # 2 * 13 * 1 reads, at the cap
    with pytest.raises(ResourceCapError, match="evolve cell reads would have 39 entries"):
        sy.evolve(shift, p, 3)
    set_cap(monkeypatch, None)
    calls = []
    batch = sy.StructuredMap.evaluate_batch
    monkeypatch.setattr(sy.StructuredMap, "evaluate_batch", lambda *a: calls.append(1) or batch(*a))
    with pytest.raises(ResourceCapError, match="evolve cell reads"):
        sy.evolve(shift, p, 10**12)
    assert not calls


EVOLVE_CASES = 7


@functools.cache
def _evolve_cases():
    """(automaton, window) pairs over Z, Z^2, F_2, S_3 and a (Z/3)^2 matrix rule.

    Built on first use inside a test, under the default caps.
    """
    Z, Z2, F2 = sy.FreeAbelianGroup(1), sy.FreeAbelianGroup(2), sy.FreeGroup(2)
    S3 = sy.FiniteGroup(symmetric_table(3))
    bit, c3 = sy.Alphabet.plain(2), sy.Alphabet.group(sy.FiniteGroup.cyclic(3).table)
    module = sy.Alphabet.module(3, 2)
    rng = np.random.default_rng(0)
    smap = sy.StructuredMap(module, 3, matrices=rng.integers(0, 3, size=(3, 2, 2)))
    linear = sy.CellularAutomaton(Z, module, sy.LocalRule(sy.ball(Z, 1), smap))
    cases = [
        (xor_ca(Z, bit, [(-1,), (0,), (2,)]), sy.ball(Z, 6)),
        (xor_ca(Z2, bit, [(0, 0), (1, 0), (0, -1)]), sy.ball(Z2, 4)),
        (xor_ca(F2, c3, [(), (1,), (-2,)]), sy.ball(F2, 3)),
        (xor_ca(S3, bit, [1, 2]), sy.FiniteSubset(S3, range(6))),
        (xor_ca(S3, bit, [0, 3]), sy.FiniteSubset(S3, [0, 1, 3, 4])),
        (linear, sy.ball(Z, 5)),
        (xor_ca(Z, bit, [(0,), (1,)]), sy.FiniteSubset(Z, [(0,), (1,), (2,)])),  # empties at step 3
    ]
    out = []
    for tau, domain in cases:
        values = rng.integers(0, tau.alphabet.size, size=len(domain)).tolist()
        out.append((tau, sy.Pattern(domain, values)))
    assert len(out) == EVOLVE_CASES
    return out


@pytest.mark.parametrize("steps", range(4))
@pytest.mark.parametrize("case", range(EVOLVE_CASES))
def test_evolve_matches_the_staged_oracle(case, steps):
    """Same domain and values as keep-restrict-apply, or both empty the window."""
    tau, p = _evolve_cases()[case]
    want = oracle_evolve(tau, p, steps)
    if want is None:
        with pytest.raises(EmptyWindowError):
            sy.evolve(tau, p, steps)
        return
    got = sy.evolve(tau, p, steps)
    assert got.domain == want.domain
    assert got.values == want.values
