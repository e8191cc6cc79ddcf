"""Traced replays of symba's composite entry points.

Each function makes the public calls that the library entry of the same name
makes, in the same order, with a span around each call into a layer and
the work counts computed from input sizes. Where a public method is a thin
wrapper over another layer's public function (`TransportedEndomap.classify`
over `finite_map_classify` or `linalg.rank`, the matrix `invert_transport`
over `linalg.invert`), the replay calls the inner function, so that layer
gets its own span. The outputs equal those of the library entries.
"""

from __future__ import annotations

import numpy as np

import symba as sy
from symba import caps, linalg


def ball(tr, G, r):
    S = tr.call("groups.ball", sy.ball, G, r)
    tr.add("groups.elements", len(S))
    return S


def set_product(tr, G, M, N):
    S = tr.call("groups.set_product", sy.set_product, G, M, N)
    tr.add("groups.elements", len(S))
    return S


def extend_memory(tr, rule, memory):
    return tr.call("ca.extend_memory", sy.extend_memory, rule, memory)


def _enumeration(tr, counts: dict, n: int, cap: int) -> dict:
    """Count an enumeration of n items only if the cap lets it run."""
    if n > cap:
        return {}
    tr.add("caps.headroom", n / cap)
    return counts


def _window_counts(tr, sigma, tau) -> dict:
    """Windows the criterion scans for a table pair: A^|M*M|, M merged."""
    if sigma.rule.map.is_matrix and tau.rule.map.is_matrix:
        return {}
    G = tau.universe
    M = sy.common_memory(sigma, tau)
    n = tau.alphabet.size ** len(sy.set_product(G, M, M))
    return _enumeration(tr, {"ca.windows": n}, n, caps.enumeration_cap())


def check_left(tr, sigma, tau) -> bool:
    counts = _window_counts(tr, sigma, tau)
    return tr.call("ca.check_left_inverse", sy.check_left_inverse, sigma, tau, counts=counts)


def check_right(tr, sigma, tau) -> bool:
    counts = _window_counts(tr, tau, sigma)
    return tr.call("ca.check_right_inverse", sy.check_right_inverse, sigma, tau, counts=counts)


def determinacy(tr, tau, N):
    G, A = tau.universe, tau.alphabet
    M = sy.symmetrize(G, tau.memory)
    nm = len(sy.set_product(G, N, M))
    cap = caps.enumeration_cap()
    if tau.rule.map.is_matrix:
        counts = _enumeration(tr, {}, len(N) * A.dim * nm * A.dim, cap)
    else:
        n = A.size**nm
        counts = {"synthesis.windows": n, "synthesis.keys": A.size ** len(N)}
        counts = _enumeration(tr, counts, n, cap)
    return tr.call("synthesis.determinacy_check", sy.determinacy_check, tau, N, counts=counts)


def synthesize(tr, tau, r_max):
    """Replay of synthesize_left_inverse."""
    if r_max < 0:
        raise sy.InvalidInputError(f"r_max must be >= 0, got {r_max}")
    witness = None
    for r in range(r_max + 1):
        N = ball(tr, tau.universe, r)
        res = determinacy(tr, tau, N)
        if res.is_determined:
            sigma = sy.CellularAutomaton(tau.universe, tau.alphabet, res.rule)
            if not check_left(tr, sigma, tau):
                raise AssertionError("synthesized rule failed the inverse criterion")
            return sy.SynthesisResult(ca=sigma, radius=r, witness=None)
        witness = res.witness
    return sy.SynthesisResult(ca=None, radius=None, witness=witness)


def build_embedding(tr, G, S, spec):
    return tr.call("transport.build_embedding", sy.build_embedding, G, S, spec)


def transport_endomap(tr, tau, e):
    A = tau.alphabet
    n_f = e.target.order()
    tr.add("transport.target_order", n_f)
    if tau.rule.map.is_matrix:
        dim = A.dim * n_f
        counts = _enumeration(tr, {}, dim, caps.TRANSPORT_DIM_CAP)
        if dim <= caps.TRANSPORT_DIM_CAP:
            tr.add("linalg.dim", dim)
    else:
        configs = A.size**n_f
        counts = _enumeration(tr, {"transport.configs": configs}, configs, caps.transport_cap())
        if configs <= caps.transport_cap():
            tr.add("transport.table_bytes", 8 * configs)
    return tr.call("transport.transport_endomap", sy.transport_endomap, tau, e, counts=counts)


def classify(tr, alpha) -> dict:
    """Replay of TransportedEndomap.classify."""
    if alpha.table is not None:
        return tr.call("alphabets.finite_map_classify", sy.finite_map_classify, alpha.table)
    full = alpha.matrix.shape[0]
    invertible = tr.call("linalg.rank", linalg.rank, alpha.matrix, alpha.alphabet.modulus) == full
    return {"injective": invertible, "surjective": invertible, "bijective": invertible}


def invert(tr, alpha):
    """Replay of invert_transport; the matrix branch calls linalg directly."""
    if alpha.table is not None:
        return tr.call("transport.invert_transport", sy.invert_transport, alpha)
    A = alpha.alphabet
    p = A.modulus
    linalg.require_prime(p, "matrix transport inversion")
    inv = tr.call("linalg.invert", linalg.invert, alpha.matrix, p)
    if inv is None:
        for z in linalg.nullspace_basis(alpha.matrix, p):
            if z.any():
                raise sy.NotInvertibleError(
                    (tuple(int(x) for x in z), tuple(0 for _ in z)),
                    "transported matrix is singular",
                )
        raise AssertionError("singular matrix with trivial kernel")
    return sy.TransportedEndomap(alpha.embedding, A, alpha.carrier, matrix=inv)


def pipeline(tr, tau, e, sigma_hint=None):
    """Replay of transport_inverse_pipeline."""
    G, A = tau.universe, tau.alphabet
    if sigma_hint is not None:
        if sigma_hint.universe != G or sigma_hint.alphabet != A:
            raise sy.InvalidInputError("hint automaton is not compatible")
        M = tr.call("ca.common_memory", sy.common_memory, sigma_hint, tau)
    else:
        M = tr.call("groups.symmetrize", sy.symmetrize, G, tau.memory)
    tau_ext = sy.CellularAutomaton(G, A, extend_memory(tr, tau.rule, M))

    alpha = transport_endomap(tr, tau_ext, e)
    classification = classify(tr, alpha)
    gamma = invert(tr, alpha)
    rule = tr.call("transport.extract_local_rule", sy.extract_local_rule, gamma, e, M, A)
    nu_ca = sy.CellularAutomaton(G, A, rule)

    left = check_left(tr, nu_ca, tau)
    right = check_right(tr, nu_ca, tau)
    if not (left and right):
        raise AssertionError("extracted rule failed certification; this is a bug")

    report = {
        "alpha": classification,
        "target_order": len(alpha.carrier),
        "representation": "matrix" if alpha.is_matrix else "table",
        "left_certified": left,
        "right_certified": right,
    }
    if sigma_hint is not None:
        sigma_ext = sy.CellularAutomaton(G, A, extend_memory(tr, sigma_hint.rule, M))
        beta = transport_endomap(tr, sigma_ext, e)
        report["beta_alpha_identity"] = tr.call(
            "transport.composes_to_identity", sy.composes_to_identity, beta, alpha
        )
    return sy.TransportResult(alpha=alpha, gamma=gamma, rule=rule, ca=nu_ca, report=report)


def check_equivariance(tr, alpha) -> bool:
    return tr.call("transport.check_equivariance", sy.check_equivariance, alpha)


def _conv_terms(X, Y) -> int:
    """Convolution terms of X @ Y: sum of |supp x| * |supp y| over entry pairs."""
    support_x = np.array([[len(e.coeffs) for e in row] for row in X.entries])
    support_y = np.array([[len(e.coeffs) for e in row] for row in Y.entries])
    return int((support_x @ support_y).sum())


def matrix_mul(tr, X, Y):
    return tr.call(
        "groupring.matrix_mul", sy.matrix_mul, X, Y, counts={"groupring.conv_terms": _conv_terms(X, Y)}
    )


def one_sided_inverse_solve(tr, C, r):
    unknowns = C.dim * C.dim * len(sy.ball(C.group, r))
    return tr.call(
        "groupring.one_sided_inverse_solve",
        sy.one_sided_inverse_solve,
        C,
        r,
        counts={"groupring.solve_unknowns": unknowns},
    )


def to_linear_ca(tr, X, G, A):
    return tr.call("groupring.to_linear_ca", sy.to_linear_ca, X, G, A)
