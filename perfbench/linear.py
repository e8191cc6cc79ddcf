"""Workload `linear`: matrix rules and the group-ring oracle.

The time goes to linalg (rank and inversion of the transported block
matrix, the linear systems of the solver and of matrix-rule synthesis),
groupring convolution and the construction of the mod-N embedding target;
no table scan runs. The pipeline, solver and synthesis rules have a fixed
support with seeded coefficients, so every seed builds matrices of the same
shape.
"""

from __future__ import annotations

import numpy as np

import symba as sy
from symba import serialize

import replays
from jobs import Job, ca_digest, digest, first_of_each_kind, fixed_shape_pair, pipeline_job, same_action_errors

Z = sy.FreeAbelianGroup(1)
Z2 = sy.FreeAbelianGroup(2)
F2 = sy.FreeGroup(2)
GROUPS = {"Z": Z, "Z2": Z2, "F2": F2}

# Hinted matrix pipelines over Z with d = 2: (modulus p, embedding modulus
# N). The block matrix has dimension 2N; check_equivariance runs up to
# dimension 128, where it takes about 0.3 s and grows like N^4.
PIPELINES = [(3, 16), (2, 24), (3, 32), (2, 48), (3, 64), (2, 96), (2, 128), (3, 128), (2, 160), (3, 192)]
EQUIVARIANCE_MAX_N = 64
# random_invertible_matrix chains: (universe, p, d, factors)
RANDOM_MATRICES = [(g, p, d, f) for f in (8, 16) for g in ("Z", "Z2", "F2") for p in (3, 5) for d in (2, 3)]
RANDOM_MATRIX_SEED = 20211201
# (universe, radius) of the negative 1 + a + b solves
NEGATIVE_SOLVES = [("Z2", 2), ("F2", 2), ("Z2", 6), ("F2", 4)]


def _random_matrix_job(job_id, G, p, d, factors, seed):
    A = sy.Alphabet.module(p, d)

    def chain(mul, to_ca, left, right, compose, rim):
        C, D = rim(G, seed=seed, d=d, r=1, modulus=p, factors=factors)
        dc, cd = mul(D, C).is_identity(), mul(C, D).is_identity()
        tau, sigma = to_ca(C, G, A), to_ca(D, G, A)
        return C, D, dc, cd, left(sigma, tau), right(sigma, tau), compose(sigma, tau)

    def run():
        return chain(sy.matrix_mul, sy.to_linear_ca, sy.check_left_inverse,
                     sy.check_right_inverse, sy.compose, sy.random_invertible_matrix)

    def replay(tr):
        return chain(
            lambda X, Y: replays.matrix_mul(tr, X, Y),
            lambda X, H, B: replays.to_linear_ca(tr, X, H, B),
            lambda s, t: replays.check_left(tr, s, t),
            lambda s, t: replays.check_right(tr, s, t),
            lambda s, t: tr.call("ca.compose", sy.compose, s, t),
            lambda *a, **k: tr.call("groupring.random_invertible_matrix", sy.random_invertible_matrix, *a, **k),
        )

    def summarize(out):
        C, D, dc, cd, left, right, comp = out
        rec = {"C": digest(serialize.matrix_to_json(C)), "D": digest(serialize.matrix_to_json(D)),
               "verdicts": [dc, cd, left, right], "compose": ca_digest(comp)}
        return rec, ((dc, cd, left, right), comp)

    def check(kept):
        verdicts, comp = kept
        if not all(verdicts):
            return [f"{job_id}: a constructed inverse pair failed {verdicts}"]
        identity = sy.to_linear_ca(sy.GroupRingMatrix.identity(G, p, d), G, A)
        if not sy.same_action(comp, identity):
            return [f"{job_id}: composite of the pair is not the identity"]
        return []

    return Job(job_id, "random_invertible_matrix", run, replay, summarize, check)


def _solve_job(job_id, C, r, known):
    def summarize(D):
        return {"D": None if D is None else digest(serialize.matrix_to_json(D))}, D

    def check(D):
        if known is None:
            return [] if D is None else [f"{job_id}: non-invertible element was inverted"]
        return [] if D == known else [f"{job_id}: solver result differs from the known inverse"]

    return Job(
        job_id,
        "one_sided_inverse_solve",
        lambda: sy.one_sided_inverse_solve(C, r),
        lambda tr: replays.one_sided_inverse_solve(tr, C, r),
        summarize,
        check,
    )


def _synthesis_job(job_id, tau, sigma, r_max):
    def summarize(res):
        return {"radius": res.radius, "ca": ca_digest(res.ca) if res.found else None}, res.ca

    return Job(
        job_id,
        "matrix_synthesis",
        lambda: sy.synthesize_left_inverse(tau, r_max),
        lambda tr: replays.synthesize(tr, tau, r_max),
        summarize,
        lambda found: same_action_errors(found, sigma, job_id),
    )


def build(seed: int, quick: bool, workdir) -> list:
    """The job list; quick mode keeps the first job of each kind."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    t, t_inv = (1,), (-1,)
    shape = [(0, 1, t), (1, 0, t_inv), (0, 0, t), (0, 1, (0,))]
    for p, N in PIPELINES:
        C, D = fixed_shape_pair(Z, rng, p, shape)
        A = sy.Alphabet.module(p, 2)
        tau, sigma = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
        spec = {"kind": "modular", "N": N}
        jobs.append(pipeline_job(f"mpipe/p{p}/dim{2 * N}", tau, sigma, spec, N <= EQUIVARIANCE_MAX_N))

    # The generator's own seed fixes the supports, and so the cost, of these
    # chains; it is the same for every workload seed.
    for k, (name, p, d, factors) in enumerate(RANDOM_MATRICES):
        job_id = f"rim/{name}/p{p}/d{d}/f{factors}"
        jobs.append(_random_matrix_job(job_id, GROUPS[name], p, d, factors, RANDOM_MATRIX_SEED + k))

    for name in ("Z", "Z2", "F2"):
        G = GROUPS[name]
        a = G.generators()[0]
        b = G.generators()[-1] if name != "Z" else G.inv(a)
        C, D = fixed_shape_pair(G, rng, 3, [(0, 1, a), (1, 0, b)])
        # The inverse E10(-b) E01(-a) is supported on {1, a, b, ba}, inside ball(2).
        jobs.append(_solve_job(f"solve/{name}/r2", C, 2, D))
        A = sy.Alphabet.module(3, 2)
        tau, sigma = sy.to_linear_ca(C, G, A), sy.to_linear_ca(D, G, A)
        jobs.append(_synthesis_job(f"msyn/{name}/r2", tau, sigma, 2))
    for name, r in NEGATIVE_SOLVES:
        G = GROUPS[name]
        a, b = G.generators()
        one_a_b = sy.GroupRingElement(G, 2, {G.identity(): 1, a: 1, b: 1})
        jobs.append(_solve_job(f"solve/{name}/1+a+b/r{r}", sy.GroupRingMatrix(G, 2, [[one_a_b]]), r, None))
    return first_of_each_kind(jobs) if quick else jobs
