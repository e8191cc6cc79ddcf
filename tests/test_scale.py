"""Larger instances near the documented caps; everything stays exact."""

import math
import time

import numpy as np
import pytest

import symba as sy
from symba.caps import check_size

from conftest import make_table_ca


def test_transport_sixteen_cell_target(Z, bit):
    """2^16 configurations tabulate, invert, and certify in a few seconds."""
    start = time.perf_counter()
    shift = sy.projection_ca(Z, bit, (1,))
    M = sy.symmetrize(Z, shift.memory)
    S = sy.set_product(Z, M, M)
    e = sy.build_embedding(Z, S, {"kind": "modular", "N": 16})
    result = sy.transport_inverse_pipeline(shift, e)
    assert result.alpha.table.size == 1 << 16
    assert result.report["alpha"]["bijective"]
    assert sy.same_action(result.ca, sy.projection_ca(Z, bit, (-1,)))
    assert time.perf_counter() - start < 20.0


def test_wide_support_matrix_checks_over_free_group(F2):
    """Products of many factors spread over ball(5); the sparse route copes."""
    start = time.perf_counter()
    for seed in (11, 12, 13):
        C, D = sy.random_invertible_matrix(F2, seed=seed, d=2, r=1, modulus=3, factors=10)
        assert sy.matrix_mul(D, C).is_identity()
        assert sy.matrix_mul(C, D).is_identity()
        A = sy.Alphabet.module(3, 2)
        tau = sy.to_linear_ca(C, F2, A)
        sig = sy.to_linear_ca(D, F2, A)
        assert sy.check_left_inverse(sig, tau)
        assert sy.check_right_inverse(sig, tau)
    assert time.perf_counter() - start < 20.0


def test_full_ball_memory_scan_over_free_group(F2, bit):
    """A true verdict forces the whole 2^17-window scan; it stays fast."""
    start = time.perf_counter()
    b1 = sy.ball(F2, 1)
    wide_ident = sy.CellularAutomaton(
        F2, bit, sy.extend_memory(sy.identity_ca(F2, bit).rule, b1)
    )
    assert sy.check_left_inverse(wide_ident, wide_ident)
    # a false verdict composes over the same 2^17 windows
    rng = np.random.default_rng(99)
    table = rng.integers(0, 2, size=2 ** len(b1))
    table[0] = 0
    noisy = make_table_ca(F2, bit, list(b1), table)
    assert not sy.check_left_inverse(noisy, wide_ident)
    assert time.perf_counter() - start < 20.0


def test_deep_synthesis_radius_over_integers(Z, bit):
    """A shift by 3 needs exactly radius 3 with table rules."""
    tau = sy.projection_ca(Z, bit, (3,))
    res = sy.synthesize_left_inverse(tau, 3)
    assert res.found and res.radius == 3
    assert sy.check_right_inverse(res.ca, tau)


def test_cap_message_writes_a_huge_count_by_its_bit_length():
    """1597! has 4,400-odd digits, past what str() converts; a count that fits
    int64 is written in full as before."""
    with pytest.raises(sy.ResourceCapError, match=r"^carrier would have at least 2\^14696 entries"):
        check_size(math.factorial(1597), "carrier")
    with pytest.raises(sy.ResourceCapError, match=r"^carrier would have 2097152 entries, cap"):
        check_size(1 << 21, "carrier")
    with pytest.raises(sy.ResourceCapError, match=f"would have {(1 << 63) - 1} entries"):
        check_size((1 << 63) - 1, "carrier")


def test_cap_check_of_a_power_forms_no_huge_power():
    """check_size(n, what, exponent=k) weighs n^k as check_size(n^k) does, in
    the same words, and never forms a power past 2^126."""
    check_size(2, "carrier", exponent=20)  # the default cap itself
    check_size(1, "carrier", exponent=10**12)
    with pytest.raises(sy.ResourceCapError, match=r"^carrier would have 2097152 entries, cap"):
        check_size(2, "carrier", exponent=21)
    with pytest.raises(sy.ResourceCapError, match=r"^carrier would have at least 2\^1584962 entries"):
        check_size(3, "carrier", exponent=10**6)
    with pytest.raises(sy.ResourceCapError, match=r"^carrier would have at least 2\^1000000000000 entries"):
        check_size(2, "carrier", exponent=10**12)
