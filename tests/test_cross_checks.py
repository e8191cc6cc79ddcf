"""Cross-module consistency: every route to an inverse agrees with the others."""

import numpy as np

import symba as sy

from conftest import make_table_ca


def _random_matrix(rng, G, p, d, pool, density=0.7):
    fam = {}
    for g in pool:
        if rng.random() < density:
            fam[g] = rng.integers(0, p, size=(d, d))
    return sy.GroupRingMatrix.from_coeffs(G, p, d, fam)


def test_pipeline_matches_synthesis_on_invertible_table_rules(Z):
    """Transported inverses act exactly like searched inverses."""
    rng = np.random.default_rng(31)
    for q in (2, 3):
        A = sy.Alphabet.plain(q)
        for step in ((1,), (-1,), (0,)):
            perm = np.concatenate([[0], 1 + rng.permutation(q - 1)]).astype(np.int64)
            tau = make_table_ca(Z, A, [step], perm)
            searched = sy.synthesize_left_inverse(tau, 1)
            assert searched.found
            M = sy.common_memory(searched.ca, tau)
            S = sy.set_product(Z, M, M)
            e = sy.build_embedding(Z, S, None)
            piped = sy.transport_inverse_pipeline(tau, e, sigma_hint=searched.ca)
            assert piped.report["beta_alpha_identity"]
            assert sy.same_action(piped.ca, searched.ca)


def test_pipeline_over_finite_universe_identity_embedding(bit):
    z5 = sy.FiniteGroup.cyclic(5)
    tau = sy.projection_ca(z5, bit, 1)
    searched = sy.synthesize_left_inverse(tau, 1)
    assert searched.found
    M = sy.symmetrize(z5, tau.memory)
    e = sy.build_embedding(z5, sy.set_product(z5, M, M), {"kind": "identity"})
    piped = sy.transport_inverse_pipeline(tau, e)
    assert sy.same_action(piped.ca, searched.ca)


def test_solver_and_search_agree_on_random_matrices(Z, F2):
    """Solvable at radius r via the algebra iff the window search succeeds.

    When either route finds an inverse it must pass the window criterion;
    the two inverses may differ off the rule's image, so only actions as
    left inverses are compared, not the artifacts themselves.
    """
    rng = np.random.default_rng(47)
    found = 0
    for G in (Z, F2):
        pool = list(sy.ball(G, 1))
        for p, d in ((2, 1), (2, 2), (3, 1), (2, 3)):
            A = sy.Alphabet.module(p, d)
            for _ in range(12):
                C = _random_matrix(rng, G, p, d, pool)
                if not C.support():
                    continue
                tau = sy.to_linear_ca(C, G, A)
                for r in (0, 1):
                    D = sy.one_sided_inverse_solve(C, r)
                    searched = sy.synthesize_left_inverse(tau, r)
                    assert (D is not None) == searched.found
                    if D is not None:
                        sig = sy.to_linear_ca(D, G, A)
                        assert sy.check_left_inverse(sig, tau)
                        assert sy.check_left_inverse(searched.ca, tau)
                        assert sy.check_right_inverse(sig, tau)
                        found += 1
    assert found >= 3


def test_generator_outputs_synthesize_back(Z, F2):
    """Inverses of generated matrices are found by the search at their radius."""
    for seed in (0, 5, 9):
        for G in (Z, F2):
            C, D = sy.random_invertible_matrix(G, seed=seed, d=2, r=1, modulus=2, factors=2)
            A = sy.Alphabet.module(2, 2)
            tau = sy.to_linear_ca(C, G, A)
            supp = sy.FiniteSubset(G, D.support() or [G.identity()])
            radius = max(
                (len(w) if G is F2 else abs(w[0]) for w in supp), default=0
            )
            res = sy.synthesize_left_inverse(tau, radius)
            assert res.found
            assert sy.check_right_inverse(res.ca, tau)
