"""Traced replay of `symba.cli.main(argv)`.

Parsing goes through the CLI's own `build_parser`. Each subcommand handler
is replayed as the public calls it makes: loading a JSON file is the
serialize layer (read, digest, parse, decode), writing an artifact or the
RunReport is the serialize layer again, and the work in between goes
through `replays`. The RunReport text and the artifacts equal those of
`cli.main`; the report's wall_time_ms is measured the same way.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import symba as sy
from symba import cli, serialize

import replays


def _load_file(tr, path, digests, label, decode):
    with tr.span("serialize.load"):
        try:
            raw = Path(path).read_bytes()
        except OSError as err:
            raise sy.InvalidInputError(f"cannot read {label} file {path!r}: {err}") from None
        digests[label] = hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as err:
            raise sy.InvalidInputError(f"{label} file {path!r} is not valid JSON: {err}") from None
        tr.add("serialize.bytes", len(raw))
        return decode(data)


def _load_arg(tr, value, digests, label):
    if value.startswith("@"):
        return _load_file(tr, value[1:], digests, label, lambda data: data)
    with tr.span("serialize.load"):
        try:
            data = json.loads(value)
        except json.JSONDecodeError:
            inline = False
        else:
            inline = True
            digests[label] = hashlib.sha256(value.encode()).hexdigest()
            tr.add("serialize.bytes", len(value))
    return data if inline else _load_file(tr, value, digests, label, lambda data: data)


def _dump(tr, path, payload_fn):
    if not path:
        return
    with tr.span("serialize.dump"):
        text = serialize.canonical_dumps(payload_fn())
        Path(path).write_text(text)
        tr.add("serialize.bytes", len(text))


def _check_inverse(tr, args, digests):
    sigma = _load_file(tr, args.sigma, digests, "sigma", serialize.ca_from_json)
    tau = _load_file(tr, args.tau, digests, "tau", serialize.ca_from_json)
    outcome = {}
    if args.side in ("left", "both"):
        outcome["left"] = replays.check_left(tr, sigma, tau)
    if args.side in ("right", "both"):
        outcome["right"] = replays.check_right(tr, sigma, tau)
    return outcome, cli.EXIT_OK if all(outcome.values()) else cli.EXIT_PROPERTY_FAILS


def _synthesize(tr, args, digests):
    tau = _load_file(tr, args.input, digests, "input", serialize.ca_from_json)
    result = replays.synthesize(tr, tau, args.max_radius)
    if result.found:
        _dump(tr, args.output, lambda: serialize.ca_to_json(result.ca))
        outcome = {"found": True, "radius": result.radius}
        _dump(tr, args.report, lambda: {"outcome": outcome, "sigma": serialize.ca_to_json(result.ca)})
        return outcome, cli.EXIT_OK
    with tr.span("serialize.dump"):
        witness = [serialize.pattern_to_json(p, tau.alphabet) for p in result.witness]
    outcome = {"found": False, "max_radius": args.max_radius, "witness": witness}
    _dump(tr, args.report, lambda: {"outcome": outcome})
    return outcome, cli.EXIT_PROPERTY_FAILS


def _transport(tr, args, digests):
    tau = _load_file(tr, args.ca, digests, "ca", serialize.ca_from_json)
    sigma = None
    if args.sigma:
        sigma = _load_file(tr, args.sigma, digests, "sigma", serialize.ca_from_json)
        if sigma.universe != tau.universe or sigma.alphabet != tau.alphabet:
            raise sy.InvalidInputError("hint automaton is not compatible with the input")
    spec = _load_arg(tr, args.embedding, digests, "embedding")
    G = tau.universe
    memory = tau.memory if sigma is None else tau.memory.union(sigma.memory)
    M = tr.call("groups.symmetrize", sy.symmetrize, G, memory)
    S = replays.set_product(tr, G, M, M)
    e = replays.build_embedding(tr, G, S, spec)
    result = replays.pipeline(tr, tau, e, sigma_hint=sigma)
    _dump(tr, args.out, lambda: {
        "report": result.report,
        "nu": serialize.ca_to_json(result.ca),
        "embedding": {"target": result.alpha.embedding.target.to_json()},
    })
    return {"report": result.report, "nu_memory_size": len(result.rule.memory)}, cli.EXIT_OK


def _direct_finiteness(tr, args, digests):
    sigma = _load_file(tr, args.sigma, digests, "sigma", serialize.ca_from_json)
    tau = _load_file(tr, args.tau, digests, "tau", serialize.ca_from_json)
    left = replays.check_left(tr, sigma, tau)
    right = replays.check_right(tr, sigma, tau)
    outcome = {"left": left, "right": right, "theorem_consistent": (not left) or right}
    return outcome, cli.EXIT_OK if outcome["theorem_consistent"] else cli.EXIT_PROPERTY_FAILS


def _evolve(tr, args, digests):
    tau = _load_file(tr, args.ca, digests, "ca", serialize.ca_from_json)
    pattern = _load_file(
        tr, args.pattern, digests, "pattern",
        lambda data: serialize.pattern_from_json(data, tau.universe, tau.alphabet),
    )
    out = tr.call("ca.evolve", sy.evolve, tau, pattern, args.steps)
    _dump(tr, args.output, lambda: serialize.pattern_to_json(out, tau.alphabet))
    return {"steps": args.steps, "cells": len(out.domain)}, cli.EXIT_OK


def _compose(tr, args, digests):
    sigma = _load_file(tr, args.sigma, digests, "sigma", serialize.ca_from_json)
    tau = _load_file(tr, args.tau, digests, "tau", serialize.ca_from_json)
    out = tr.call("ca.compose", sy.compose, sigma, tau)
    _dump(tr, args.output, lambda: serialize.ca_to_json(out))
    return {"memory_size": len(out.memory)}, cli.EXIT_OK


def _groupring_mul(tr, args, digests):
    a = _load_file(tr, args.a, digests, "a", serialize.matrix_from_json)
    b = _load_file(tr, args.b, digests, "b", serialize.matrix_from_json)
    out = replays.matrix_mul(tr, a, b)
    _dump(tr, args.output, lambda: serialize.matrix_to_json(out))
    return {"dim": out.dim, "support_size": len(out.support())}, cli.EXIT_OK


def _groupring_solve(tr, args, digests):
    C = _load_file(tr, args.matrix, digests, "matrix", serialize.matrix_from_json)
    D = replays.one_sided_inverse_solve(tr, C, args.radius)
    if D is None:
        return {"found": False, "radius": args.radius}, cli.EXIT_PROPERTY_FAILS
    _dump(tr, args.output, lambda: serialize.matrix_to_json(D))
    return {"found": True, "radius": args.radius}, cli.EXIT_OK


def _groupring_roundtrip(tr, args, digests):
    tau = _load_file(tr, args.ca, digests, "ca", serialize.ca_from_json)
    X = tr.call("groupring.from_linear_ca", sy.from_linear_ca, tau)
    back = replays.to_linear_ca(tr, X, tau.universe, tau.alphabet)
    if not tr.call("ca.same_action", sy.same_action, back, tau):
        raise AssertionError("matrix round trip changed the automaton; this is a bug")
    _dump(tr, args.output, lambda: serialize.matrix_to_json(X))
    return {"roundtrip_consistent": True, "support_size": len(X.support())}, cli.EXIT_OK


def _verify_embedding(tr, args, digests):
    if args.ca:
        tau = _load_file(tr, args.ca, digests, "ca", serialize.ca_from_json)
        G = tau.universe
        M = tr.call("groups.symmetrize", sy.symmetrize, G, tau.memory)
    else:
        if not (args.group and args.memory):
            raise sy.InvalidInputError("need either --ca or both --group and --memory")
        G = serialize.group_from_json(_load_arg(tr, args.group, digests, "group"))
        raw = _load_arg(tr, args.memory, digests, "memory")
        subset = sy.FiniteSubset(G, [G.elem_from_json(e) for e in raw])
        M = tr.call("groups.symmetrize", sy.symmetrize, G, subset)
    S = replays.set_product(tr, G, M, M)
    spec = _load_arg(tr, args.embedding, digests, "embedding")
    try:
        e = replays.build_embedding(tr, G, S, spec)
    except sy.EmbeddingCollisionError as err:
        outcome = {
            "accepted": False,
            "collision": [G.elem_to_json(err.first), G.elem_to_json(err.second)],
        }
        return outcome, cli.EXIT_PROPERTY_FAILS
    accepted = tr.call("transport.verify_embedding", sy.verify_embedding, e, M)
    outcome = {
        "accepted": accepted,
        "target": e.target.to_json() if e.target.kind != "symmetric" else None,
        "target_kind": e.target.kind,
        "subset_size": len(S),
    }
    if e.target.kind == "symmetric":
        outcome["target_degree"] = e.target.degree
    return outcome, cli.EXIT_OK if accepted else cli.EXIT_PROPERTY_FAILS


HANDLERS = {
    "check-inverse": _check_inverse,
    "synthesize-inverse": _synthesize,
    "transport": _transport,
    "direct-finiteness": _direct_finiteness,
    "evolve": _evolve,
    "compose": _compose,
    "groupring mul": _groupring_mul,
    "groupring solve": _groupring_solve,
    "groupring roundtrip": _groupring_roundtrip,
    "verify-embedding": _verify_embedding,
}


def main(tr, argv) -> tuple:
    """Replay of cli.main(argv); returns (exit code, RunReport text)."""
    with tr.span("cli.parse"):
        args = cli.build_parser().parse_args(argv)
    command = args.command
    if getattr(args, "groupring_command", None):
        command = f"{command} {args.groupring_command}"
    digests: dict = {}
    started = time.perf_counter()
    try:
        outcome, code = HANDLERS[command](tr, args, digests)
    except (sy.InvalidInputError, sy.EmptyWindowError) as err:
        outcome, code = {"error": str(err)}, cli.EXIT_INVALID_INPUT
    except sy.ResourceCapError as err:
        outcome, code = {"error": str(err)}, cli.EXIT_RESOURCE_CAP
    except sy.NotInvertibleError as err:
        outcome = {"error": str(err), "witness": [list(w) for w in err.witness]}
        code = cli.EXIT_PROPERTY_FAILS
    except sy.EmbeddingCollisionError as err:
        outcome = {"error": str(err), "collision": [repr(err.first), repr(err.second)]}
        code = cli.EXIT_PROPERTY_FAILS
    wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
    report = {
        "command": command,
        "inputs": digests,
        "outcome": outcome,
        "seed": args.seed,
        "exit_code": code,
        "wall_time_ms": wall_ms,
    }
    with tr.span("serialize.dump"):
        text = serialize.canonical_dumps(report)
    tr.add("serialize.bytes", len(text))
    tr.add(f"cli.exit_{code}", 1)
    return code, text
