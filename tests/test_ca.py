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
    oracle_left_identity,
    random_pointed_table,
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

    The shift pair widened to ball(4) composes over ball(8) to the identity.
    Against the identity automaton, a rule over ball(8) is its own
    composite, so one wrong entry in the first or the last block of the
    projection onto the identity cell must be found.
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
def test_inverse_checks_when_the_product_memory_misses_the_identity(Z, q):
    """Shifts by 1 compose to the shift by 2: the identity only when A has
    one value. That verdict comes before the composite table's cap, which
    applies only to a pair whose product holds the identity."""
    A = sy.Alphabet.plain(q)
    shift = sy.projection_ca(Z, A, (1,))
    assert sy.check_left_inverse(shift, shift) == sy.check_right_inverse(shift, shift) == (q == 1)
    bit = sy.Alphabet.plain(2)
    ahead = make_table_ca(Z, bit, [(i,) for i in range(1, 12)], np.arange(1 << 11) & 1)
    behind = make_table_ca(Z, bit, [(-i,) for i in range(1, 12)], np.arange(1 << 11) & 1)
    for check in (sy.check_left_inverse, sy.check_right_inverse):
        assert check(ahead, ahead) is False  # memory {2, ..., 22}: no scan, no cap
        with pytest.raises(ResourceCapError, match=r"^composite rule table would have 2097152 entries, cap is 1048576$"):
            check(behind, ahead)  # memory {-10, ..., 10}


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
    monkeypatch.setenv("SYMBA_CAP", "26")
    assert sy.evolve(shift, p, 2).values == p.values  # 2 * 13 * 1 reads, at the cap
    with pytest.raises(ResourceCapError, match="evolve cell reads would have 39 entries"):
        sy.evolve(shift, p, 3)
    monkeypatch.delenv("SYMBA_CAP")
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
