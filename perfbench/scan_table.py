"""Workload `scan-table`: table-rule window scans.

Almost all the time goes to the synthesis/ca/alphabets scan kernels, with
no linear algebra. Full scans (determinacy on rules invertible by
construction, true-verdict inverse checks, synthesis that finds an inverse
and certifies it) sit beside early exits (non-invertible controls), so a
change that helps one path and hurts the other shows. The seed picks the
permutations and second-order rules; the sizes are fixed, so every seed
does the same amount of scanning.
"""

from __future__ import annotations

import numpy as np

import symba as sy
from symba import serialize

import replays
from jobs import (
    Job,
    array_digest,
    ca_digest,
    first_of_each_kind,
    perm_shift_pair,
    pointed_perm,
    same_action_errors,
    second_order_pair,
    sum_ca,
    table_ca,
    widen,
    witness_digest,
    witness_errors,
)

Z = sy.FreeAbelianGroup(1)
Z2 = sy.FreeAbelianGroup(2)
F2 = sy.FreeGroup(2)

# Determinacy on invertible rules: (family, alphabet size, shift k, radius R
# of N). Both families read {-k, 0, k} once symmetrized, so N*M has
# 2R + 2k + 1 cells and the scan covers A^(2R + 2k + 1) windows.
DETERMINACY = [
    ("perm", 2, 1, 3), ("perm", 2, 1, 4), ("perm", 2, 1, 5), ("perm", 2, 2, 4), ("perm", 2, 2, 5),
    ("perm", 2, 3, 4), ("perm", 2, 1, 6), ("perm", 2, 3, 5), ("perm", 2, 2, 6), ("perm", 3, 1, 2),
    ("perm", 3, 2, 2), ("perm", 3, 1, 3), ("perm", 3, 1, 4),
    ("second", 4, 1, 1), ("second", 4, 1, 2), ("second", 4, 1, 3),
]
# Synthesis that finds the inverse at radius k: (family, alphabet size, shift k).
SYNTHESIS = [("perm", 2, 1), ("perm", 2, 2), ("perm", 3, 1), ("perm", 3, 2), ("perm", 2, 3),
             ("second", 4, 1), ("perm", 2, 4)]
# True-verdict left and right checks of a pair widened to ball(r):
# (universe, alphabet size, r); the scan covers A^|ball(2r)| windows.
CHECKS = [("Z", 3, 1), ("Z", 2, 2), ("Z", 3, 2), ("Z2", 2, 1), ("Z", 2, 3), ("F2", 2, 1), ("Z", 2, 4)]
# Non-invertible controls ending in early-exit witnesses: a seeded pointed
# permutation of Z/3 after the sum over (cells), checked at ball(R), and the
# xor rule synthesized up to r. The permutation does not change how many
# windows share an image, so the cost of the early exit is the same for
# every seed.
SUM_CONTROLS = [([(0,), (1,)], 2), ([(-1,), (1,)], 2), ([(0,), (1,)], 3), ([(-1,), (1,)], 3),
                ([(-1,), (0,), (1,)], 3)]
XOR_RADII = [4, 6]
GROUPS = {"Z": Z, "Z2": Z2, "F2": F2}


def _determinacy_summary(res):
    if res.is_determined:
        rec = {
            "memory": serialize.subset_to_json(res.rule.memory),
            "table": array_digest(res.rule.map.table),
        }
    else:
        rec = {"witness": witness_digest(res.witness)}
    return rec, res


def _synthesis_summary(res):
    rec = {"radius": res.radius, "ca": ca_digest(res.ca) if res.found else None}
    if not res.found:
        rec["witness"] = witness_digest(res.witness)
    return rec, res


def _determinacy_job(job_id, kind, tau, N, known):
    def check(res):
        if known is not None:
            if not res.is_determined:
                return [f"{job_id}: invertible rule reported undetermined"]
            return same_action_errors(sy.CellularAutomaton(tau.universe, tau.alphabet, res.rule), known, job_id)
        if res.is_determined:
            return [f"{job_id}: non-invertible control reported determined"]
        return witness_errors(tau, N, res.witness)

    return Job(
        id=job_id,
        kind=kind,
        run=lambda: sy.determinacy_check(tau, N),
        replay=lambda tr: replays.determinacy(tr, tau, N),
        summarize=_determinacy_summary,
        check=check,
    )


def _synthesis_job(job_id, kind, tau, r_max, known):
    def check(res):
        if known is not None:
            return same_action_errors(res.ca, known, job_id)
        if res.found:
            return [f"{job_id}: non-invertible control was inverted"]
        return witness_errors(tau, sy.ball(tau.universe, r_max), res.witness)

    return Job(
        id=job_id,
        kind=kind,
        run=lambda: sy.synthesize_left_inverse(tau, r_max),
        replay=lambda tr: replays.synthesize(tr, tau, r_max),
        summarize=_synthesis_summary,
        check=check,
    )


def _check_job(job_id, side, sigma, tau):
    entry = sy.check_left_inverse if side == "left" else sy.check_right_inverse
    replay = replays.check_left if side == "left" else replays.check_right
    return Job(
        id=job_id,
        kind=f"check_{side}_inverse",
        run=lambda: entry(sigma, tau),
        replay=lambda tr: replay(tr, sigma, tau),
        summarize=lambda verdict: ({"verdict": bool(verdict)}, verdict),
        check=lambda verdict: [] if verdict is True else [f"{job_id}: constructed inverse pair rejected"],
    )


def _pair(family, q, k, rng):
    if family == "perm":
        return perm_shift_pair(Z, sy.Alphabet.plain(q), (k,), pointed_perm(rng, q))
    return second_order_pair(Z, rng, (k,), (-k,))


def build(seed: int, quick: bool, workdir) -> list:
    """The job list; quick mode keeps the first job of each kind."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for family, q, k, R in DETERMINACY:
        tau, sigma = _pair(family, q, k, rng)
        job_id = f"det/{family}/q{q}/k{k}/R{R}"
        jobs.append(_determinacy_job(job_id, "determinacy_check", tau, sy.ball(Z, R), sigma))
    for family, q, k in SYNTHESIS:
        tau, sigma = _pair(family, q, k, rng)
        jobs.append(_synthesis_job(f"syn/{family}/q{q}/k{k}", "synthesize_left_inverse", tau, k, sigma))
    for universe, q, r in CHECKS:
        G = GROUPS[universe]
        tau, sigma = perm_shift_pair(G, sy.Alphabet.plain(q), G.generators()[0], pointed_perm(rng, q))
        wide = sy.ball(G, r)
        tau, sigma = widen(tau, wide), widen(sigma, wide)
        for side in ("left", "right"):
            jobs.append(_check_job(f"chk/{universe}/q{q}/r{r}/{side}", side, sigma, tau))
    A3 = sy.Alphabet.plain(3)
    for i, (cells, R) in enumerate(SUM_CONTROLS):
        summed = sum_ca(Z, A3, cells)
        tau = table_ca(Z, A3, cells, pointed_perm(rng, 3)[summed.rule.map.table])
        jobs.append(_determinacy_job(f"ctl/sum{i}/R{R}", "determinacy_control", tau, sy.ball(Z, R), None))
    xor = sum_ca(Z, sy.Alphabet.plain(2), [(0,), (1,)])
    for r in XOR_RADII:
        jobs.append(_synthesis_job(f"ctl/xor/r{r}", "synthesis_control", xor, r, None))
    return first_of_each_kind(jobs) if quick else jobs
