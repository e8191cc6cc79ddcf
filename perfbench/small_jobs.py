"""Workload `small-jobs`: many small CLI invocations through `symba.cli.main(argv)`.

Fixed per-call costs dominate: argparse, JSON load and validation,
FiniteSubset construction, report emission and tiny scans. These are the
kernels that scan-table runs at the opposite size, so a kernel change that
adds per-call set-up shows up here. Every job reads JSON files generated in
set-up, and its RunReport is parsed. The job list repeats a block of 40
jobs BLOCKS times. The kinds and sizes in a block are fixed; the seed draws
the tables, the permutations and the random matrices. Exit codes 1
(witness), 2 (invalid input) and 3 (cap) are expected where the block says
so.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import symba as sy
from symba import cli, serialize

import cli_replay
from jobs import (
    Job,
    digest,
    fixed_shape_pair,
    non_shift_table,
    perm_shift_pair,
    pointed_perm,
    random_pointed_table,
    same_action_errors,
    second_order_pair,
    sum_ca,
    table_ca,
    witness_errors,
)

Z = sy.FreeAbelianGroup(1)
Z2 = sy.FreeAbelianGroup(2)
F2 = sy.FreeGroup(2)
BLOCKS = 5  # 200 calls: a pass stays near half a second, so every call gets many passes
QUICK_BLOCKS = 1

# Random table pairs (universe, alphabet size, sigma memory, tau memory):
# merged symmetric memories stay in ball(1), at most 2^13 windows.
PAIR_SHAPES = [
    (Z, 2, [(0,)], [(1,)]),
    (Z, 2, [(-1,), (0,)], [(0,), (1,)]),
    (Z, 3, [(-1,), (1,)], [(0,)]),
    (Z, 2, [(-1,), (0,), (1,)], [(1,)]),
    (F2, 2, [(1,)], [(), (-1,)]),
    (F2, 2, [(2,), (-2,)], [()]),
    (Z2, 2, [(1, 0)], [(0, 1)]),
    (Z2, 2, [(0, 0), (1, 0)], [(0, -1)]),
]
# Constructed invertible pairs: (universe, alphabet size, shift element).
CONSTRUCTED = [(Z, 3, (1,)), (F2, 2, (2,)), (Z2, 2, (0, 1))]


class Block:
    """Writes one block's input files and collects its jobs."""

    def __init__(self, rng, workdir: Path, index: int):
        self.rng = rng
        self.dir = workdir
        self.index = index
        self.jobs = []
        self.files = 0

    def write(self, payload) -> str:
        self.files += 1
        path = self.dir / f"b{self.index}-{self.files}.json"
        path.write_text(serialize.canonical_dumps(payload))
        return str(path)

    def ca(self, tau) -> str:
        return self.write(serialize.ca_to_json(tau))

    def out(self) -> str:
        self.files += 1
        return str(self.dir / f"b{self.index}-{self.files}.out.json")

    def add(self, kind, argv, exit_codes, check=None, output=None):
        job_id = f"b{self.index}/{len(self.jobs)}/{kind}"
        self.jobs.append(_cli_job(job_id, kind, argv, exit_codes, check, output))

    def random_pair(self, shape):
        G, q, mem_s, mem_t = shape
        A = sy.Alphabet.plain(q)
        sigma = table_ca(G, A, mem_s, random_pointed_table(self.rng, q, len(mem_s)))
        tau = table_ca(G, A, mem_t, random_pointed_table(self.rng, q, len(mem_t)))
        return sigma, tau

    def constructed_pair(self, i):
        G, q, g = CONSTRUCTED[i % len(CONSTRUCTED)]
        return perm_shift_pair(G, sy.Alphabet.plain(q), g, pointed_perm(self.rng, q))


def _cli_job(job_id, kind, argv, exit_codes, check, output):
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def summarize(out):
        code, text = out
        report = json.loads(text)
        artifact = None
        if output and Path(output).exists():
            artifact = Path(output).read_text()
            Path(output).unlink()
        stable = {k: v for k, v in report.items() if k != "wall_time_ms"}
        rec = {"exit": code, "report": digest(stable), "artifact": None if artifact is None else digest(artifact)}
        return rec, (code, report, artifact)

    def verify(kept):
        code, report, artifact = kept
        if code not in exit_codes or report["exit_code"] != code:
            return [f"{job_id}: exit {code}, expected one of {sorted(exit_codes)}: {report['outcome']}"]
        return [f"{job_id}: {err}" for err in (check(report["outcome"], artifact) if check else [])]

    return Job(job_id, kind, run, lambda tr: cli_replay.main(tr, argv), summarize, verify)


def _ca_check(known):
    """The artifact's automaton (or a transport's `nu`) acts as `known`."""

    def check(outcome, artifact):
        if artifact is None:
            return ["no artifact written"]
        data = json.loads(artifact)
        return same_action_errors(serialize.ca_from_json(data.get("nu", data)), known, "artifact")

    return check


def _witness_check(tau, r_max):
    def check(outcome, artifact):
        G, A = tau.universe, tau.alphabet
        pair = [serialize.pattern_from_json(p, G, A) for p in outcome["witness"]]
        return witness_errors(tau, sy.ball(G, r_max), pair)

    return check


def _fill_block(b: Block):
    rng = b.rng
    # check-inverse: seven random pairs and one constructed pair
    for shape in PAIR_SHAPES[:7]:
        sigma, tau = b.random_pair(shape)
        b.add("check-inverse", ["check-inverse", "--sigma", b.ca(sigma), "--tau", b.ca(tau)], {0, 1})
    sigma, tau = b.constructed_pair(b.index)
    b.add("check-inverse", ["check-inverse", "--sigma", b.ca(sigma), "--tau", b.ca(tau)], {0},
          lambda o, a: [] if o == {"left": True, "right": True} else [f"constructed pair rejected: {o}"])

    # direct-finiteness: five random pairs and one constructed pair
    for shape in PAIR_SHAPES[1:6] + [None]:
        sigma, tau = b.random_pair(shape) if shape else b.constructed_pair(b.index + 1)
        b.add("direct-finiteness", ["direct-finiteness", "--sigma", b.ca(sigma), "--tau", b.ca(tau)], {0},
              lambda o, a: [] if o["theorem_consistent"] else ["left inverse without right inverse"])

    # synthesize-inverse: two invertible rules, the xor rule, a random radius-1 table
    A2 = sy.Alphabet.plain(2)
    tau, sigma = perm_shift_pair(Z, sy.Alphabet.plain(3), (1,), pointed_perm(rng, 3))
    tau2, sigma2 = second_order_pair(Z, rng, (1,), (-1,))
    controls = [sum_ca(Z, A2, [(0,), (1,)]), table_ca(Z, A2, [(-1,), (0,), (1,)], non_shift_table(rng))]
    for t, s in ((tau, sigma), (tau2, sigma2)):
        out = b.out()
        b.add("synthesize-inverse", ["synthesize-inverse", "--input", b.ca(t), "--max-radius", "2", "--output", out],
              {0}, _ca_check(s), out)
    for t in controls:
        b.add("synthesize-inverse", ["synthesize-inverse", "--input", b.ca(t), "--max-radius", "2"], {1},
              _witness_check(t, 2))

    # compose: a constructed pair (the composite is the identity) and two random pairs
    sigma, tau = b.constructed_pair(b.index + 2)
    out = b.out()
    identity = sy.identity_ca(sigma.universe, sigma.alphabet)
    b.add("compose", ["compose", "--sigma", b.ca(sigma), "--tau", b.ca(tau), "--output", out], {0},
          _ca_check(identity), out)
    for shape in (PAIR_SHAPES[3], PAIR_SHAPES[4]):
        sigma, tau = b.random_pair(shape)
        out = b.out()
        b.add("compose", ["compose", "--sigma", b.ca(sigma), "--tau", b.ca(tau), "--output", out], {0}, output=out)

    # evolve: three windows that survive their steps, one that empties (exit 2)
    for G, mem, radius, steps in ((Z, [(-1,), (0,), (1,)], 6, 2), (F2, [(), (1,)], 3, 1),
                                  (Z2, [(0, 0), (1, 0), (0, 1)], 4, 2)):
        tau = table_ca(G, A2, mem, random_pointed_table(rng, 2, len(mem)))
        dom = sy.ball(G, radius)
        pattern = sy.Pattern(dom, tuple(int(v) for v in rng.integers(0, 2, size=len(dom))))
        out = b.out()
        b.add("evolve", ["evolve", "--ca", b.ca(tau), "--pattern", b.write(pattern.to_json(A2)),
                         "--steps", str(steps), "--output", out], {0}, output=out)
    tau = table_ca(Z, A2, [(-3,), (0,), (3,)], random_pointed_table(rng, 2, 3))
    pattern = sy.Pattern(sy.ball(Z, 1), (0, 1, 0))
    b.add("evolve", ["evolve", "--ca", b.ca(tau), "--pattern", b.write(pattern.to_json(A2)), "--steps", "1"], {2})

    # verify-embedding: a colliding modulus, an injective one, a free-group ball action
    tau = table_ca(Z, A2, [(-1,), (0,), (1,)], random_pointed_table(rng, 2, 3))
    path = b.ca(tau)
    b.add("verify-embedding", ["verify-embedding", "--ca", path, "--embedding", '{"kind": "modular", "N": 4}'], {1})
    b.add("verify-embedding", ["verify-embedding", "--ca", path, "--embedding", '{"kind": "modular", "N": 5}'], {0})
    tau = table_ca(F2, A2, [(), (1,)], random_pointed_table(rng, 2, 2))
    b.add("verify-embedding", ["verify-embedding", "--ca", b.ca(tau), "--embedding", "null"], {0})

    # transport: two hinted inversions, the xor rule (witness), a carrier over the cap
    for q, N in ((2, 5 + b.index % 4), (3, 6)):
        tau, sigma = perm_shift_pair(Z, sy.Alphabet.plain(q), (1,), pointed_perm(rng, q))
        out = b.out()
        b.add("transport", ["transport", "--ca", b.ca(tau), "--sigma", b.ca(sigma), "--embedding",
                            f'{{"kind": "modular", "N": {N}}}', "--out", out], {0},
              _ca_check(sigma), out)
    b.add("transport", ["transport", "--ca", b.ca(controls[0]), "--embedding", '{"kind": "modular", "N": 8}'], {1})
    # the q = 3 rule over Z/30 would tabulate 3^30 configurations
    b.add("transport", ["transport", "--ca", b.ca(tau), "--embedding", '{"kind": "modular", "N": 30}'], {3})

    # groupring: mul of an inverse pair (identity) and of two random matrices,
    # solve at the radius of a known inverse and for 1 + t over F_2, roundtrip
    C, D = sy.random_invertible_matrix(Z, seed=int(rng.integers(1 << 31)), d=2, r=1, modulus=3, factors=3)
    X, Y = (sy.random_invertible_matrix(Z2, seed=int(rng.integers(1 << 31)), d=2, r=1, modulus=5, factors=3)[0]
            for _ in range(2))
    m = lambda M: b.write(serialize.matrix_to_json(M))  # noqa: E731
    out = b.out()
    b.add("groupring mul", ["groupring", "mul", "--a", m(D), "--b", m(C), "--output", out], {0},
          lambda o, a: [] if serialize.matrix_from_json(json.loads(a)).is_identity() else ["D*C != 1"], out)
    out = b.out()
    b.add("groupring mul", ["groupring", "mul", "--a", m(X), "--b", m(Y), "--output", out], {0}, output=out)
    E, E_inv = fixed_shape_pair(Z, rng, 3, [(0, 1, (1,)), (1, 0, (-1,))])
    out = b.out()
    b.add("groupring solve", ["groupring", "solve", "--matrix", m(E), "--radius", "2", "--output", out], {0},
          lambda o, a: [] if serialize.matrix_from_json(json.loads(a)) == E_inv else ["wrong inverse"], out)
    one_t = sy.GroupRingMatrix(Z, 2, [[sy.GroupRingElement(Z, 2, {(0,): 1, (1,): 1})]])
    b.add("groupring solve", ["groupring", "solve", "--matrix", m(one_t), "--radius", "2"], {1})
    for M in (C, X):
        out = b.out()
        b.add("groupring roundtrip", ["groupring", "roundtrip", "--ca", b.ca(_matrix_ca(M)), "--output", out], {0},
              output=out)

    # invalid input: memories listed out of canonical order (exit 2)
    sigma, tau = b.random_pair(PAIR_SHAPES[1])
    bad = serialize.ca_to_json(tau)
    bad["memory"] = bad["memory"][::-1]
    b.add("invalid", ["check-inverse", "--sigma", b.ca(sigma), "--tau", b.write(bad)], {2})
    b.add("invalid", ["compose", "--sigma", b.write(bad), "--tau", b.ca(sigma)], {2})


def _matrix_ca(M):
    A = sy.Alphabet.module(M.modulus, M.dim)
    return sy.to_linear_ca(M, M.group, A)


def build(seed: int, quick: bool, workdir) -> list:
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for index in range(QUICK_BLOCKS if quick else BLOCKS):
        block = Block(rng, Path(workdir), index)
        _fill_block(block)
        jobs.extend(block.jobs)
    return jobs
