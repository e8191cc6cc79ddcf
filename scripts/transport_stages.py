"""Stage timings of the matrix transport route, at several dimensions.

Usage (from the root of a checkout; PYTHONPATH picks the tree to time):

    PYTHONPATH=src python3 scripts/transport_stages.py

For each embedding modulus N the rule is the invertible 2x2 matrix over Z
with coefficients mod 3 and radius 1 drawn from SEED (the shape of the
`linear` benchmark pipelines), so the transported block matrix has
dimension 2N. Each stage is timed on its own, REPEATS times after one
warm-up call, and the median is printed in milliseconds: building the Z/N
multiplication table, inverting the transported matrix, checking the
hinted composite, and the whole hinted pipeline (embedding included). Only
public entry points are called, so the script times any version of the
library.
"""

from __future__ import annotations

import json
import statistics
import time

import symba as sy

MODULI = (8, 16, 24, 64, 96, 128, 160, 192)
REPEATS = 21
SEED = 0


def median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def stages(N: int) -> dict:
    Z = sy.FreeAbelianGroup(1)
    A = sy.Alphabet.module(3, 2)
    C, D = sy.random_invertible_matrix(Z, seed=SEED, d=2, r=1, modulus=3, factors=4)
    tau, sigma = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
    M = sy.common_memory(sigma, tau)
    tau_ext = sy.CellularAutomaton(Z, A, sy.extend_memory(tau.rule, M))
    sigma_ext = sy.CellularAutomaton(Z, A, sy.extend_memory(sigma.rule, M))
    spec = {"kind": "modular", "N": N}
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), spec)
    alpha = sy.transport_endomap(tau_ext, e)
    beta = sy.transport_endomap(sigma_ext, e)
    if not sy.composes_to_identity(beta, alpha):
        raise AssertionError(f"N={N}: the seeded pair is not inverse")

    def pipeline():
        emb = sy.build_embedding(Z, sy.set_product(Z, M, M), spec)
        sy.transport_inverse_pipeline(tau, emb, sigma_hint=sigma)

    return {
        "dim": 2 * N,
        "cyclic_ms": median_ms(lambda: sy.FiniteGroup.cyclic(N)),
        "invert_ms": median_ms(lambda: sy.invert_transport(alpha)),
        "composite_ms": median_ms(lambda: sy.composes_to_identity(beta, alpha)),
        "pipeline_ms": median_ms(pipeline),
    }


def main() -> None:
    for N in MODULI:
        print(json.dumps({k: round(v, 4) for k, v in stages(N).items()}))


if __name__ == "__main__":
    main()
