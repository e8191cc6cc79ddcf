"""Group-ring arithmetic, the CA correspondence, and the linear solver."""

import hashlib

import numpy as np
import pytest

import symba as sy
from symba import serialize
from symba.errors import InvalidInputError, UnsupportedModulusError

from conftest import make_table_ca, oracle_random_invertible_matrix, pair_CD


def _E(G, n, d=None):
    return sy.GroupRingElement(G, n, d or {})


def _random_element(rng, G, modulus, support_pool, max_terms=3):
    coeffs = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        g = support_pool[int(rng.integers(len(support_pool)))]
        coeffs[g] = int(rng.integers(1, modulus))
    return sy.GroupRingElement(G, modulus, coeffs)


def test_gr_mul_examples(Z, F2):
    d = lambda g: sy.GroupRingElement(Z, 5, {g: 1})
    assert sy.gr_mul(d((2,)), d((3,))) == d((5,))
    one_plus_t = sy.GroupRingElement(Z, 2, {Z.identity(): 1, (1,): 1})
    sq = sy.gr_mul(one_plus_t, one_plus_t)
    assert sq == sy.GroupRingElement(Z, 2, {Z.identity(): 1, (2,): 1})
    a, b = (1,), (2,)
    x = sy.GroupRingElement(F2, 2, {F2.identity(): 1, a: 1})
    y = sy.GroupRingElement(F2, 2, {F2.identity(): 1, b: 1})
    assert sy.gr_mul(x, y) == sy.GroupRingElement(
        F2, 2, {F2.identity(): 1, a: 1, b: 1, (1, 2): 1}
    )


def test_gr_mul_hand_convolution_oracle(Z):
    """Independent oracle: dict convolution written from scratch."""
    rng = np.random.default_rng(2)
    pool = list(sy.ball(Z, 2))
    for _ in range(50):
        x = _random_element(rng, Z, 7, pool)
        y = _random_element(rng, Z, 7, pool)
        expect = {}
        for g, c in x.coeffs.items():
            for h, e in y.coeffs.items():
                k = (g[0] + h[0],)
                expect[k] = (expect.get(k, 0) + c * e) % 7
        expect = {k: v for k, v in expect.items() if v}
        assert sy.gr_mul(x, y).coeffs == expect


def test_ring_axioms_randomized(Z, F2):
    rng = np.random.default_rng(17)
    cases = 0
    for G in (Z, F2):
        pool = list(sy.ball(G, 2))
        for modulus in (2, 3, 4):
            for _ in range(200):
                x = _random_element(rng, G, modulus, pool)
                y = _random_element(rng, G, modulus, pool)
                z = _random_element(rng, G, modulus, pool)
                assert sy.gr_mul(sy.gr_mul(x, y), z) == sy.gr_mul(x, sy.gr_mul(y, z))
                assert sy.gr_mul(x, y + z) == sy.gr_mul(x, y) + sy.gr_mul(x, z)
                assert sy.gr_mul(x + y, z) == sy.gr_mul(x, z) + sy.gr_mul(y, z)
                assert x - x == sy.GroupRingElement(G, modulus, {})
                assert -(-x) == x
                assert 3 * x == x * np.int64(3) == x + x + x
                cases += 1
    assert cases == 1200


def test_equal_values_built_apart_are_equal_with_equal_hashes(Z, F2):
    """Coefficients inserted in another order, or equal mod n, give one element."""
    g, h, e = (1, 2), (-1,), F2.identity()
    x = sy.GroupRingElement(F2, 5, {g: 1, h: 2, e: 3})
    y = sy.GroupRingElement(F2, 5, {e: 8, h: -3, g: 6})
    assert x == y and hash(x) == hash(y)
    assert x != sy.GroupRingElement(F2, 7, {g: 1, h: 2, e: 3})
    assert x != sy.GroupRingElement(sy.FreeGroup(3), 5, {g: 1, h: 2, e: 3})
    assert repr(x) == repr(y) == "3*() + 2*(-1,) + 1*(1, 2)"
    assert repr(_E(Z, 5)) == "0"
    C, D = pair_CD(Z)
    assert C == pair_CD(Z)[0] and hash(C) == hash(pair_CD(Z)[0])
    assert C != D and len({C, D, pair_CD(Z)[1]}) == 2
    assert repr(C) == "GroupRingMatrix(dim=2, mod 2, |support|=2)"


def test_integer_scalars_on_either_side(Z):
    x = _E(Z, 5, {Z.identity(): 2, (1,): 4})
    for k in (0, 1, 3, -2, 7, True, np.int64(3), np.uint8(9)):
        assert k * x == x * k == _E(Z, 5, {g: int(k) * c for g, c in x.coeffs.items()})
    for bad in (1.5, "2", None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x


def test_matrix_refuses_entries_from_another_ring(Z, Z2):
    e = _E(Z, 3, {Z.identity(): 1})
    for entries in (
        [[_E(Z, 5, {Z.identity(): 1})]],  # another modulus
        [[_E(Z2, 3, {Z2.identity(): 1})]],  # another group
        [[1]],  # not a group-ring element
        [[e, e], [e]],  # not square
    ):
        with pytest.raises(InvalidInputError):
            sy.GroupRingMatrix(Z, 3, entries)


def test_matrix_mul_reversible_pair(Z):
    C, D = pair_CD(Z)
    assert sy.matrix_mul(D, C).is_identity()
    assert sy.matrix_mul(C, D).is_identity()
    I = sy.GroupRingMatrix.identity(Z, 2, 2)
    assert sy.matrix_mul(C, I) == C


def test_matrix_mul_hand_oracle(Z):
    """Row-by-row hand convolution of D@C, frozen from first principles."""
    C, D = pair_CD(Z)
    got = sy.matrix_mul(D, C)
    # (D@C)[0][0] = t*0 + 1*1 = 1 ; [0][1] = t*1 + 1*t = 0
    # (D@C)[1][0] = 1*0 + 0*1 = 0 ; [1][1] = 1*1 + 0*t = 1
    assert got.entries[0][0].coeffs == {Z.identity(): 1}
    assert got.entries[0][1].coeffs == {}
    assert got.entries[1][0].coeffs == {}
    assert got.entries[1][1].coeffs == {Z.identity(): 1}


def test_linear_ca_round_trip(Z):
    A1 = sy.Alphabet.module(2, 1)
    shift = sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {(1,): 1})]])
    tau = sy.to_linear_ca(shift, Z, A1)
    assert sy.from_linear_ca(tau) == shift
    assert sy.same_action(tau, sy.to_linear_ca(sy.from_linear_ca(tau), Z, A1))

    xor = sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {Z.identity(): 1, (1,): 1})]])
    assert sy.from_linear_ca(sy.to_linear_ca(xor, Z, A1)) == xor

    C, _ = pair_CD(Z)
    A2 = sy.Alphabet.module(2, 2)
    assert sy.from_linear_ca(sy.to_linear_ca(C, Z, A2)) == C


def test_round_trip_rejects_non_matrix_rule(Z, bit):
    tau = make_table_ca(Z, bit, [(0,)], [0, 1])
    with pytest.raises(InvalidInputError):
        sy.from_linear_ca(tau)


def test_composition_functoriality(Z, F2):
    """compose corresponds to matrix product, exhaustively on small cases."""
    rng = np.random.default_rng(23)
    for G in (Z, F2):
        A = sy.Alphabet.module(3, 2)
        pool = list(sy.ball(G, 1))
        for _ in range(10):
            fam1 = {g: rng.integers(0, 3, size=(2, 2)) for g in pool}
            fam2 = {g: rng.integers(0, 3, size=(2, 2)) for g in pool}
            X = sy.GroupRingMatrix.from_coeffs(G, 3, 2, fam1)
            Y = sy.GroupRingMatrix.from_coeffs(G, 3, 2, fam2)
            sig, tau = sy.to_linear_ca(X, G, A), sy.to_linear_ca(Y, G, A)
            assert sy.from_linear_ca(sy.compose(sig, tau)) == sy.matrix_mul(X, Y)


def test_evaluation_agreement_on_windows(Z):
    """to_linear_ca acts exactly like the matrix on every small window."""
    import itertools

    A = sy.Alphabet.module(2, 2)
    C, _ = pair_CD(Z)
    tau = sy.to_linear_ca(C, Z, A)
    E = sy.ball(Z, 2)
    EM = sy.set_product(Z, E, tau.memory)
    fam = C.coeff_family()
    vecs = A.vectors()
    for vals in itertools.product(range(A.size), repeat=len(EM)):
        p = sy.Pattern(EM, vals)
        out = sy.induced_map(tau, E, p)
        for g, got in zip(E, out.values):
            want = np.zeros(2, dtype=np.int64)
            for m, mat in fam.items():
                want = (want + mat @ vecs[p.value_at(Z.mul(g, m))]) % 2
            assert got == A.vector_to_index(want)


def test_one_sided_inverse_solve_pair(Z):
    C, D = pair_CD(Z)
    got = sy.one_sided_inverse_solve(C, 1)
    assert got == D
    assert sy.matrix_mul(got, C).is_identity()
    assert sy.matrix_mul(C, got).is_identity()


def test_one_sided_inverse_solve_xor_fails(Z):
    xor = sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {Z.identity(): 1, (1,): 1})]])
    for r in range(5):
        assert sy.one_sided_inverse_solve(xor, r) is None


def test_one_sided_inverse_solve_identity(Z):
    I = sy.GroupRingMatrix.identity(Z, 3, 2)
    assert sy.one_sided_inverse_solve(I, 0) == I
    shift = sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {(1,): 1})]])
    got = sy.one_sided_inverse_solve(shift, 1)
    assert got == sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {(-1,): 1})]])


def test_solve_requires_prime_modulus(Z):
    M4 = sy.GroupRingMatrix.identity(Z, 4, 1)
    with pytest.raises(UnsupportedModulusError):
        sy.one_sided_inverse_solve(M4, 1)


def test_moduli_above_the_cap_are_refused_before_primality(Z):
    """2^61 - 1 is prime, but trial division up to its root would take hours."""
    for p in (2**31 - 1, 2**61 - 1):
        with pytest.raises(UnsupportedModulusError):
            sy.random_invertible_matrix(Z, seed=0, d=2, r=1, modulus=p)
        with pytest.raises(UnsupportedModulusError):
            sy.one_sided_inverse_solve(sy.GroupRingMatrix.identity(Z, p, 1), 1)


def test_composite_modulus_arithmetic_still_works(Z):
    x = sy.GroupRingElement(Z, 4, {Z.identity(): 2, (1,): 3})
    y = sy.GroupRingElement(Z, 4, {(1,): 2})
    assert sy.gr_mul(x, y) == sy.GroupRingElement(Z, 4, {(1,): 4 % 4, (2,): 6 % 4})


def test_solver_agrees_with_synthesis(Z):
    """The linear solver and the window search agree case by case."""
    A2 = sy.Alphabet.module(2, 2)
    A1 = sy.Alphabet.module(2, 1)
    C, D = pair_CD(Z)
    tau = sy.to_linear_ca(C, Z, A2)
    for r in (0, 1):
        solved = sy.one_sided_inverse_solve(C, r)
        searched = sy.synthesize_left_inverse(tau, r)
        assert (solved is not None) == searched.found
        if solved is not None:
            assert sy.same_action(sy.to_linear_ca(solved, Z, A2), searched.ca)
    xor = sy.GroupRingMatrix(Z, 2, [[_E(Z, 2, {Z.identity(): 1, (1,): 1})]])
    for r in (0, 1, 2):
        assert sy.one_sided_inverse_solve(xor, r) is None
        assert not sy.synthesize_left_inverse(sy.to_linear_ca(xor, Z, A1), r).found


def test_random_invertible_matrix_basics(Z):
    M0, M0_inv = sy.random_invertible_matrix(Z, seed=1, d=2, r=1, modulus=3, factors=0)
    assert M0.is_identity() and M0_inv.is_identity()

    M1, M1_inv = sy.random_invertible_matrix(Z, seed=2, d=2, r=1, modulus=3, factors=1)
    assert sy.matrix_mul(M1_inv, M1).is_identity()

    M5, M5_inv = sy.random_invertible_matrix(Z, seed=3, d=2, r=1, modulus=2, factors=5)
    assert sy.matrix_mul(M5, M5_inv).is_identity()
    assert sy.matrix_mul(M5_inv, M5).is_identity()


# sha256 of the canonical JSON of (C, C^-1) from random_invertible_matrix at
# r = 1 with 5 factors, keyed by (universe, d, modulus, seed): the generator's
# rng draws, its factor order and the products all show in these bytes.
_GENERATOR_DIGESTS = {
    ("Z", 2, 2, 11): (
        "b4dd0ebcaa49d4d6a6279bc7cc2377eec48a71a14050841b08c5e113c39733b5",
        "fcbdef097cef84ffbcef02934843b5c1941ee7cd023fdc5c6706afbe864fc8c7",
    ),
    ("Z", 2, 3, 12): (
        "af50353548dd50324707ef25aae7c34be1bcd7324e4e2d485cf75315276a2a08",
        "278c1546cc6720d5a68a4f9edbc13fcbabb96058ba100cc131252867ec5226b1",
    ),
    ("Z", 3, 2, 13): (
        "65612814cacd3e2937242c143eeadca108850a48031eb21bd8e2a18b0f2cacf9",
        "019d4dabf31b156c2667397d45d98870b88b1aea920025fdb8360f73d8960800",
    ),
    ("Z", 3, 5, 14): (
        "af014cc63fb8e49f5e639e6d63d47e3a09b86a30209daae4f321c95e187be5df",
        "efcef08a04cfa83f7f53359009a1f2ab8fc55b7f331e8bd71dfa2f820052bca9",
    ),
    ("F2", 2, 2, 11): (
        "236affeda619e7f72fa1bfaac2447e9fcde1ef3ca93577a000ef1fff91bc2985",
        "97f1e8286a6462376691209cdec42ec1c873c03fe99b403ccb5914f18fe25053",
    ),
    ("F2", 2, 3, 12): (
        "52df3363a9f1da07971b4da8b38909eec02ab767cb0fe4482e66ffc976747e9e",
        "28f0e5585ab807216afdcaabba8ccd111146b97afe7e0e45a601e09cd064a6aa",
    ),
    ("F2", 3, 2, 13): (
        "628fa93e8b7f9999aadb08646dcea5b939780a8326142af65b69952b2b97051f",
        "50dceaafd7da623257dabce72fb9d0530f52bc1c2c530e84ed9ed81499ec8b53",
    ),
    ("F2", 3, 5, 14): (
        "7aca55dda48788a008957ad92c6d5fca21b1c9d9388c96fa3386a8b0de1e07b6",
        "cf27fb5fc6fb02607417214d1972b5da253a3cc7351b082877800a17993a45f8",
    ),
}


def test_random_invertible_matrix_output_is_pinned(Z, F2):
    """The generator's exact bytes, for fixed seeds over Z and F_2."""
    C, D = sy.random_invertible_matrix(Z, seed=7, d=2, r=1, modulus=3, factors=3)
    terms = lambda M: [
        [[(t["elem"], t["coef"]) for t in e] for e in row] for row in M.to_json()["entries"]
    ]
    assert terms(C) == [[[([0], 2)], []], [[([0], 2)], [([1], 2)]]]
    assert terms(D) == [[[([0], 2)], []], [[([-1], 1)], [([-1], 2)]]]
    universes = {"Z": Z, "F2": F2}
    for (name, d, p, seed), expected in _GENERATOR_DIGESTS.items():
        pair = sy.random_invertible_matrix(universes[name], seed=seed, d=d, r=1, modulus=p, factors=5)
        got = tuple(
            hashlib.sha256(serialize.canonical_dumps(serialize.matrix_to_json(M)).encode()).hexdigest()
            for M in pair
        )
        assert got == expected, (name, d, p, seed)


def test_random_invertible_direct_finiteness_both_ways(Z, F2):
    """Every generated one-sided identity is two-sided, exactly."""
    for seed in range(20):
        G = (Z, F2)[seed % 2]
        p = (2, 3)[(seed // 2) % 2]
        d = 1 + (seed % 3) % 2
        C, D = sy.random_invertible_matrix(G, seed=seed, d=d, r=1, modulus=p, factors=4)
        assert sy.matrix_mul(D, C).is_identity()
        assert sy.matrix_mul(C, D).is_identity()


@pytest.mark.parametrize("name", ["Z", "Z2", "F2"])
def test_random_invertible_matrix_matches_elementary_products(name, Z, Z2, F2):
    """Row and column operations give the bytes of the explicit factor products."""
    G = {"Z": Z, "Z2": Z2, "F2": F2}[name]
    for d in (1, 2, 3):
        for r in (1, 2):
            for factors in (0, 5, 16):
                for p in (2, 5):
                    seed = 100 * d + 10 * r + factors + p
                    got = sy.random_invertible_matrix(G, seed=seed, d=d, r=r, modulus=p, factors=factors)
                    want = oracle_random_invertible_matrix(G, seed, d, r, p, factors)
                    for M, W in zip(got, want):
                        assert serialize.canonical_dumps(M.to_json()) == serialize.canonical_dumps(W.to_json())
