"""Jobs, output digests, seeded rule builders and independent output checks.

A job is one top-level call into symba. `run` makes the call untraced;
`replay` makes the same sequence of public calls that the entry makes, each
inside a span named after the module that owns it, and must produce the
same output. `summarize` turns an output into a small JSON record, whose
digest is compared across passes, against the traced replay and (for the
default seed) against the committed goldens. `check` re-verifies the output
without the kernel that produced it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import symba as sy
from symba import serialize

import replays


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], Any]
    replay: Callable[[Any], Any]
    summarize: Callable[[Any], tuple]  # output -> (record, kept for check)
    check: Callable[[Any], list]  # kept -> error messages


def first_of_each_kind(jobs: list) -> list:
    """The first (smallest) job of every kind: the warm-ups, and the quick job list."""
    seen = set()
    return [j for j in jobs if not (j.kind in seen or seen.add(j.kind))]


def digest(obj) -> str:
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


def array_digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype="<i8"))
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def ca_digest(ca) -> str:
    return digest(serialize.ca_to_json(ca))


def witness_digest(witness) -> str:
    """Digest of a pattern pair: domains in canonical order plus values."""
    return digest([[serialize.subset_to_json(p.domain), list(p.values)] for p in witness])


# ---------------------------------------------------------------- builders


def table_ca(G, A, memory, table):
    mem = sy.FiniteSubset(G, memory)
    return sy.CellularAutomaton(G, A, sy.LocalRule(mem, sy.StructuredMap(A, len(mem), table=table)))


def pointed_perm(rng, q: int) -> np.ndarray:
    return np.concatenate([[0], 1 + rng.permutation(q - 1)]).astype(np.int64)


def perm_shift_pair(G, A, g, perm):
    """tau reads the value at g*x through a pointed permutation; sigma undoes it."""
    tau = table_ca(G, A, [g], perm)
    sigma = table_ca(G, A, [G.inv(g)], np.argsort(perm))
    return tau, sigma


def second_order_pair(G, rng, m1, m2):
    """A rule over pairs of bits that is invertible by construction, and its inverse.

    A value 2a + b holds the bits (a, b). tau sends the cell's pair to
    (b, a xor f(b at g*m1, b at g*m2)) for a seeded pointed f; sigma maps
    (a', b') back to (b' xor f(a' at g*m1, a' at g*m2), a').
    """
    A = sy.Alphabet.plain(4)
    f = rng.integers(0, 2, size=4)
    f[0] = 0
    mem = sy.FiniteSubset(G, [G.identity(), m1, m2])
    c, c1, c2 = (mem.index_of(x) for x in (G.identity(), m1, m2))
    X = (np.arange(64)[:, None] // 4 ** np.arange(2, -1, -1)[None, :]) % 4
    a, b = X // 2, X % 2
    tau = 2 * b[:, c] + (a[:, c] ^ f[2 * b[:, c1] + b[:, c2]])
    sigma = 2 * (b[:, c] ^ f[2 * a[:, c1] + a[:, c2]]) + a[:, c]
    return table_ca(G, A, list(mem), tau), table_ca(G, A, list(mem), sigma)


def widen(ca, memory):
    """The same automaton read over a larger memory."""
    return sy.CellularAutomaton(ca.universe, ca.alphabet, sy.extend_memory(ca.rule, memory))


def sum_ca(G, A, cells):
    """The rule summing the values on `cells` mod the alphabet size (xor for q = 2)."""
    mem = sy.FiniteSubset(G, cells)
    q, m = A.size, len(mem)
    X = (np.arange(q**m)[:, None] // q ** np.arange(m - 1, -1, -1)[None, :]) % q
    return table_ca(G, A, list(mem), X.sum(axis=1) % q)


def random_pointed_table(rng, q: int, arity: int) -> np.ndarray:
    table = rng.integers(0, q, size=q**arity)
    table[0] = 0
    return table


def _elementary(G, p, d, i, j, g, c):
    """Identity plus c*g at (i, j) for i != j, or c*g on the diagonal at i == j."""
    one = sy.GroupRingElement.one(G, p)
    zero = sy.GroupRingElement.zero(G, p)
    entries = [[one if a == b else zero for b in range(d)] for a in range(d)]
    entries[i][j] = sy.GroupRingElement.monomial(G, p, g, c)
    return sy.GroupRingMatrix(G, p, entries)


def fixed_shape_pair(G, rng, p, shape):
    """C and its inverse D, from elementary factors at fixed cells and elements.

    `shape` lists (i, j, g): an off-diagonal factor (inverse: coefficient
    negated) or, for i == j, a unit monomial (inverse: g^-1 and 1/c). Only
    the coefficients come from the seed.
    """
    C = D = sy.GroupRingMatrix.identity(G, p, 2)
    for i, j, g in shape:
        c = int(rng.integers(1, p))
        if i == j:
            fwd = _elementary(G, p, 2, i, i, g, c)
            back = _elementary(G, p, 2, i, i, G.inv(g), pow(c, p - 2, p))
        else:
            fwd = _elementary(G, p, 2, i, j, g, c)
            back = _elementary(G, p, 2, i, j, g, -c)
        C = sy.matrix_mul(C, fwd)
        D = sy.matrix_mul(back, D)
    return C, D


def non_shift_table(rng) -> np.ndarray:
    """A random pointed radius-1 binary table that is not invertible.

    Memory {-1, 0, 1}; the only invertible pointed tables are the three
    shifts, so those are drawn again.
    """
    shifts = ([0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1])
    table = random_pointed_table(rng, 2, 3)
    while table.tolist() in shifts:
        table = random_pointed_table(rng, 2, 3)
    return table


def symmetric_table(n: int):
    """Multiplication table of the symmetric group on n points."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]


# ------------------------------------------------------------------- jobs


def _endomap_digest(alpha) -> str:
    return array_digest(alpha.table if alpha.table is not None else alpha.matrix)


def _pipeline_summary(out):
    res, equivariant = out
    rec = {
        "report": res.report,
        "nu": ca_digest(res.ca),
        "alpha": _endomap_digest(res.alpha),
        "gamma": _endomap_digest(res.gamma),
        "equivariant": equivariant,
    }
    return rec, (res.ca, res.report, equivariant)


def pipeline_job(job_id, tau, sigma, spec, equivariance: bool) -> Job:
    """Embed M*M, run the hinted transport pipeline, optionally check equivariance."""
    G = tau.universe
    M = sy.common_memory(sigma, tau)
    S = sy.set_product(G, M, M)

    def run():
        e = sy.build_embedding(G, S, spec)
        res = sy.transport_inverse_pipeline(tau, e, sigma_hint=sigma)
        return res, sy.check_equivariance(res.alpha) if equivariance else None

    def replay(tr):
        e = replays.build_embedding(tr, G, S, spec)
        res = replays.pipeline(tr, tau, e, sigma_hint=sigma)
        return res, replays.check_equivariance(tr, res.alpha) if equivariance else None

    def check(kept):
        nu, report, equivariant = kept
        errs = same_action_errors(nu, sigma, job_id)
        flags = (report["alpha"]["bijective"], report["left_certified"],
                 report["right_certified"], report["beta_alpha_identity"])
        if not all(flags):
            errs.append(f"{job_id}: pipeline report of an invertible rule is not all true")
        if equivariant is False:
            errs.append(f"{job_id}: transported map is not equivariant")
        return errs

    kind = "pipeline_equivariance" if equivariance else "pipeline"
    return Job(job_id, kind, run, replay, _pipeline_summary, check)


# ------------------------------------------------------------------ checks


def witness_errors(tau, N, witness) -> list:
    """Re-verify a determinacy witness through induced maps (criterion 5)."""
    G = tau.universe
    M = sy.symmetrize(G, tau.memory)
    wide = widen(tau, M)
    x, y = witness
    if x.domain != sy.set_product(G, N, M) or y.domain != x.domain:
        return ["witness domain is not N*M"]
    if sy.induced_map(wide, N, x).values != sy.induced_map(wide, N, y).values:
        return ["witness patterns have different images"]
    if x.value_at(G.identity()) == y.value_at(G.identity()):
        return ["witness patterns agree at the identity"]
    return []


def same_action_errors(found, known, what: str) -> list:
    if found is None:
        return [f"{what}: no inverse found for an invertible rule"]
    if not sy.same_action(found, known):
        return [f"{what}: result differs from the known inverse"]
    return []
