"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance here is exact (boolean agreement or exact algebra);
the only numeric budgets are the wall-time ceilings, asserted per criterion.
"""

import itertools
import time

import numpy as np
import pytest

import symba as sy

from conftest import make_table_ca, oracle_left_identity, pair_CD, random_pointed_table, xor_ca

FEASIBLE = 1 << 18


class budget:
    """Context manager asserting a wall-clock ceiling and printing a line."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
            print(f"criterion {self.number} ({self.label}): PASS in {elapsed:.2f}s")
        else:
            print(f"criterion {self.number} ({self.label}): FAIL after {elapsed:.2f}s")
        return False


def _cells_needed(G, window, mem_s, mem_t):
    cells = set(window)
    for g in window:
        for s in mem_s:
            gs = G.mul(g, s)
            for m in mem_t:
                cells.add(G.mul(gs, m))
    return len(cells)


def _pick_window(G, q, mem_s, mem_t):
    """Largest window among ball(2), ball(1), {1} keeping the scan feasible."""
    for r in (2, 1, 0):
        window = list(sy.ball(G, r))
        if q ** _cells_needed(G, window, mem_s, mem_t) <= FEASIBLE:
            return window
    return None


def _sample_pair(rng, G, q):
    """Random memories inside ball(1) whose merged scan stays feasible."""
    b1 = list(sy.ball(G, 1))
    while True:
        mem_s = [b1[i] for i in rng.choice(len(b1), size=int(rng.integers(1, 4)), replace=False)]
        mem_t = [b1[i] for i in rng.choice(len(b1), size=int(rng.integers(1, 4)), replace=False)]
        merged = set(mem_s) | set(mem_t) | {G.identity()}
        merged |= {G.inv(x) for x in merged}
        m2 = {G.mul(a, b) for a in merged for b in merged}
        if q ** len(m2) > FEASIBLE:
            continue
        window = _pick_window(G, q, mem_s, mem_t)
        if window is None:
            continue
        return mem_s, mem_t, window


def _pointed_permutation(rng, q):
    perm = np.concatenate([[0], 1 + rng.permutation(q - 1)])
    return perm.astype(np.int64)


def test_criterion_1_inverse_criterion_agrees_with_brute_force(Z, F2):
    """Exact agreement between the window criterion and brute-force scans."""
    rng = np.random.default_rng(20260808)
    with budget(1, "inverse criterion vs brute force, 200 random pairs", 30.0):
        agreements = 0
        true_cases = 0
        for i in range(200):
            G = (Z, F2)[i % 2]
            q = (2, 3)[(i // 2) % 2]
            A = sy.Alphabet.plain(q)
            mem_s, mem_t, window = _sample_pair(rng, G, q)
            if i % 8 == 0:
                # constructed invertible pair: permutation rule and its undo
                g = list(sy.ball(G, 1))[int(rng.integers(5 if G is F2 else 3))]
                perm = _pointed_permutation(rng, q)
                inv_perm = np.argsort(perm)
                sigma = make_table_ca(G, A, [G.inv(g)], perm)
                tau = make_table_ca(G, A, [g], inv_perm)
                window = _pick_window(G, q, [G.inv(g)], [g])
            else:
                sigma = make_table_ca(
                    G, A, mem_s, random_pointed_table(rng, A, len(mem_s))
                )
                tau = make_table_ca(
                    G, A, mem_t, random_pointed_table(rng, A, len(mem_t))
                )
            expected = oracle_left_identity(sigma, tau, window, cap=FEASIBLE)
            assert expected is not None
            got = sy.check_left_inverse(sigma, tau)
            assert got == expected, f"disagreement on pair {i}"
            agreements += 1
            true_cases += int(expected)
        assert agreements == 200
        assert true_cases >= 25  # every constructed pair plus any lucky ones


def test_criterion_2_shift_round_trip(Z):
    """Synthesis at radius 1 and two transports all certify the shift inverse."""
    A = sy.Alphabet.plain(2)
    with budget(2, "shift inverse: synthesis + mod-5/mod-8 transports", 1.0):
        shift = sy.projection_ca(Z, A, (1,))
        res = sy.synthesize_left_inverse(shift, 2)
        assert res.found and res.radius == 1
        assert sy.check_left_inverse(res.ca, shift)
        assert sy.check_right_inverse(res.ca, shift)
        M = sy.common_memory(res.ca, shift)
        S = sy.set_product(Z, M, M)
        for N in (5, 8):
            e = sy.build_embedding(Z, S, {"kind": "modular", "N": N})
            out = sy.transport_inverse_pipeline(shift, e, sigma_hint=res.ca)
            assert out.report["left_certified"] and out.report["right_certified"]
            assert sy.check_left_inverse(out.ca, shift)
            assert sy.check_right_inverse(out.ca, shift)


def test_criterion_3_reversible_linear_pair(Z):
    """The linear solver recovers the two-sided inverse of the module pair."""
    with budget(3, "group-ring solve of the reversible pair", 1.0):
        C, D = pair_CD(Z)
        got = sy.one_sided_inverse_solve(C, 1)
        assert got is not None
        assert sy.matrix_mul(got, C).is_identity()
        assert sy.matrix_mul(C, got).is_identity()
        assert got == D
        A = sy.Alphabet.module(2, 2)
        tau = sy.to_linear_ca(C, Z, A)
        sig = sy.to_linear_ca(got, Z, A)
        assert sy.check_left_inverse(sig, tau)
        assert sy.check_right_inverse(sig, tau)


def test_criterion_4_one_sided_implies_two_sided_at_scale(Z, F2):
    """100 seeded invertible matrices: left identity forces the right one."""
    with budget(4, "direct finiteness on 100 generated instances", 60.0):
        for seed in range(100):
            G = (Z, F2)[seed % 2]
            p = (2, 3)[(seed // 2) % 2]
            d = (1, 2)[(seed // 4) % 2]
            r = (0, 1)[(seed // 8) % 2]
            factors = 1 + seed % 5
            C, D = sy.random_invertible_matrix(
                G, seed=seed, d=d, r=r, modulus=p, factors=factors
            )
            assert sy.matrix_mul(D, C).is_identity()  # premise, by construction
            assert sy.matrix_mul(C, D).is_identity()  # conclusion, exact
            A = sy.Alphabet.module(p, d)
            tau = sy.to_linear_ca(C, G, A)
            sig = sy.to_linear_ca(D, G, A)
            assert sy.check_right_inverse(sig, tau)


def test_criterion_5_negative_control(Z):
    """The sum rule has no left inverse: search and solver both refuse."""
    A = sy.Alphabet.plain(2)
    with budget(5, "negative control on the sum rule", 10.0):
        xor = xor_ca(Z, A, [(0,), (1,)])
        res = sy.synthesize_left_inverse(xor, 4)
        assert not res.found
        x, y = res.witness
        # independent re-verification of the witness through induced maps
        M = sy.symmetrize(Z, xor.memory)
        wide = sy.CellularAutomaton(Z, A, sy.extend_memory(xor.rule, M))
        N = sy.ball(Z, 4)
        assert x.domain == sy.set_product(Z, N, M)
        ix = sy.induced_map(wide, N, x)
        iy = sy.induced_map(wide, N, y)
        assert ix.values == iy.values
        assert x.value_at(Z.identity()) != y.value_at(Z.identity())

        E = lambda d: sy.GroupRingElement(Z, 2, d)
        one_plus_t = sy.GroupRingMatrix(Z, 2, [[E({Z.identity(): 1, (1,): 1})]])
        for r in range(5):
            assert sy.one_sided_inverse_solve(one_plus_t, r) is None


def test_criterion_6_embedding_verifier(Z, F2):
    """Rejection with the exact collision; acceptance with full verification."""
    with budget(6, "embedding verifier on mod-3, mod-5, ball action", 5.0):
        S = sy.ball(Z, 2)
        with pytest.raises(sy.EmbeddingCollisionError) as err:
            sy.build_embedding(Z, S, {"kind": "modular", "N": 3})
        assert (err.value.first, err.value.second) == ((-2,), (1,))

        e5 = sy.build_embedding(Z, S, {"kind": "modular", "N": 5})
        assert sy.verify_embedding(e5, sy.ball(Z, 1))

        S2 = sy.ball(F2, 2)
        ef = sy.build_embedding(F2, S2, None)
        assert isinstance(ef.target, sy.SymmetricGroup) and ef.target.degree == 53
        # full exhaustive verification, independent of the builder's own check
        images = [ef.phi[s] for s in S2]
        for i, j in itertools.combinations(range(len(S2)), 2):
            assert images[i] != images[j]
        for a in S2:
            for b in S2:
                ab = F2.mul(a, b)
                if ab in S2:
                    assert ef.target.mul(ef.phi[a], ef.phi[b]) == ef.phi[ab]
        assert sy.verify_embedding(ef, sy.ball(F2, 1))


def test_criterion_7_transport_invariants(Z):
    """Equivariance and hinted inverse composition on every pipeline rerun."""
    A2 = sy.Alphabet.plain(2)
    with budget(7, "transport equivariance and composed identity", 30.0):
        runs = []
        shift = sy.projection_ca(Z, A2, (1,))
        back = sy.projection_ca(Z, A2, (-1,))
        M = sy.common_memory(back, shift)
        S = sy.set_product(Z, M, M)
        for N in (5, 8):
            e = sy.build_embedding(Z, S, {"kind": "modular", "N": N})
            runs.append((sy.transport_inverse_pipeline(shift, e, sigma_hint=back), back, M))

        C, D = pair_CD(Z)
        Am = sy.Alphabet.module(2, 2)
        tau = sy.to_linear_ca(C, Z, Am)
        sig = sy.to_linear_ca(D, Z, Am)
        Mm = sy.common_memory(sig, tau)
        Sm = sy.set_product(Z, Mm, Mm)
        em = sy.build_embedding(Z, Sm, {"kind": "modular", "N": 8})
        runs.append((sy.transport_inverse_pipeline(tau, em, sigma_hint=sig), sig, Mm))

        for run, hint, memory in runs:
            assert sy.check_equivariance(run.alpha)
            size = (
                run.alpha.table.size
                if run.alpha.table is not None
                else run.alpha.alphabet.size ** len(run.alpha.carrier)
            )
            assert size <= 1 << 16
            assert run.report["beta_alpha_identity"]
            assert run.report["left_certified"] and run.report["right_certified"]
            # the report decides the hint on Z; its transport composes to I on A^F
            wide = sy.CellularAutomaton(Z, hint.alphabet, sy.extend_memory(hint.rule, memory))
            beta = sy.transport_endomap(wide, run.alpha.embedding)
            assert sy.composes_to_identity(beta, run.alpha)
