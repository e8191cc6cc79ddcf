"""Workload `transport-table`: table rules inverted through a finite group.

Each job embeds M*M into a finite group, runs transport_inverse_pipeline
with the known inverse as the hint, and (where the carrier is small enough)
checks the equivariance of the transported map. This is the tabulate /
classify / invert / extract / equivariance path, which holds the largest
arrays in the program, so peak_rss_mb moves here; no linear algebra runs.
A non-invertible xor rule ends in a NotInvertibleError witness. The seed
picks permutations and second-order rules; carrier sizes are fixed.
"""

from __future__ import annotations

import numpy as np

import symba as sy

import replays
from jobs import (
    Job,
    digest,
    first_of_each_kind,
    perm_shift_pair,
    pipeline_job,
    pointed_perm,
    second_order_pair,
    sum_ca,
    symmetric_table,
)

Z = sy.FreeAbelianGroup(1)

# Hinted pipelines over Z: (family, alphabet size, shift k, modulus N,
# check equivariance). M*M = {-2k, -k, 0, k, 2k} must stay injective mod N.
# The carrier has A^N configurations.
PIPELINES = [
    ("perm", 2, 1, 8, True), ("perm", 2, 1, 9, False), ("perm", 2, 1, 10, False),
    ("perm", 2, 2, 10, False), ("perm", 2, 1, 11, False), ("perm", 2, 2, 11, False),
    ("perm", 2, 1, 12, False), ("perm", 2, 2, 12, False), ("perm", 2, 1, 13, False),
    ("perm", 2, 3, 13, False), ("perm", 2, 2, 14, False), ("perm", 2, 3, 14, False),
    ("perm", 2, 1, 15, False), ("perm", 2, 1, 16, True), ("perm", 2, 2, 18, False),
    ("perm", 3, 1, 6, False), ("perm", 3, 1, 7, False), ("perm", 3, 1, 8, True),
    ("perm", 3, 1, 9, False), ("perm", 3, 2, 9, False), ("perm", 3, 2, 10, True),
    ("perm", 3, 1, 11, False),
    ("second", 4, 1, 5, False), ("second", 4, 1, 6, False), ("second", 4, 1, 7, True),
    ("second", 4, 2, 7, False), ("second", 4, 1, 8, True), ("second", 4, 2, 9, False),
]
# The xor rule is not invertible: every modulus ends in a collision witness.
XOR_MODULI = [8, 9, 10, 11, 12, 13, 14, 16, 18]


def _evaluate(tau, e, config):
    """The transported map at one configuration, evaluated cell by cell."""
    G, A = tau.universe, tau.alphabet
    M = sy.symmetrize(G, tau.memory)
    wide = sy.extend_memory(tau.rule, M).map.table
    F = e.target
    carrier = list(F.elements())
    where = {h: i for i, h in enumerate(carrier)}
    out = []
    for h in carrier:
        index = 0
        for m in M:
            index = index * A.size + config[where[F.mul(h, e.phi[m])]]
        out.append(int(wide[index]))
    return out


def _xor_job(job_id, tau, N):
    G = tau.universe
    M = sy.symmetrize(G, tau.memory)
    S = sy.set_product(G, M, M)
    spec = {"kind": "modular", "N": N}

    def run():
        e = sy.build_embedding(G, S, spec)
        try:
            sy.transport_inverse_pipeline(tau, e)
        except sy.NotInvertibleError as err:
            return e, err.witness
        return e, None

    def replay(tr):
        e = replays.build_embedding(tr, G, S, spec)
        try:
            replays.pipeline(tr, tau, e)
        except sy.NotInvertibleError as err:
            return e, err.witness
        return e, None

    def check(kept):
        e, witness = kept
        if witness is None:
            return [f"{job_id}: non-invertible xor was inverted"]
        x, y = witness
        if x == y or _evaluate(tau, e, x) != _evaluate(tau, e, y):
            return [f"{job_id}: collision witness does not collide"]
        return []

    def summarize(out):
        e, witness = out
        return {"witness": digest(witness)}, (e, witness)

    return Job(job_id, "not_invertible", run, replay, summarize, check)


def build(seed: int, quick: bool, workdir) -> list:
    """The job list; quick mode keeps the first job of each kind."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for family, q, k, N, equivariance in PIPELINES:
        if family == "perm":
            tau, sigma = perm_shift_pair(Z, sy.Alphabet.plain(q), (k,), pointed_perm(rng, q))
        else:
            tau, sigma = second_order_pair(Z, rng, (k,), (-k,))
        job_id = f"pipe/{family}/q{q}/k{k}/N{N}"
        jobs.append(pipeline_job(job_id, tau, sigma, {"kind": "modular", "N": N}, equivariance))

    S3 = sy.FiniteGroup(symmetric_table(3))
    G = sy.ProductGroup([S3, sy.FiniteGroup.cyclic(3)])
    g = (int(rng.choice([3, 4])), 1)  # a 3-cycle times a generator: order 3
    tau, sigma = perm_shift_pair(G, sy.Alphabet.plain(2), g, pointed_perm(rng, 2))
    jobs.append(pipeline_job("pipe/S3xC3/q2", tau, sigma, None, False))

    xor = sum_ca(Z, sy.Alphabet.plain(2), [(0,), (1,)])
    for N in XOR_MODULI:
        jobs.append(_xor_job(f"xor/N{N}", xor, N))
    return first_of_each_kind(jobs) if quick else jobs
