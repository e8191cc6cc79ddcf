"""Command-line front end with stable file formats and exit codes.

Exit-code contract, uniform across subcommands:
  0  the requested property holds / the artifact was produced
  1  the property fails; a witness is included in the report
  2  invalid input (malformed JSON, bad encodings, bad preconditions or output paths)
  3  an enumeration exceeded the configured resource cap (see SYMBA_CAP),
     or the run ran out of memory
  4  internal error: any other exception; the report names its type and
     the traceback goes to stderr

Every run that gets past argument parsing prints one RunReport JSON
object to stdout: command, input digests, outcome flags, witnesses or
certificates, and wall time. Apart from the wall_time_ms field the report
is deterministic for fixed inputs and seed. An argparse usage error
(unknown command, missing or malformed option) prints no report: it
prints usage to stderr and exits 2, and `main` called in-process raises
SystemExit(2).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
from pathlib import Path

from . import serialize
from .ca import (
    check_left_inverse,
    check_right_inverse,
    common_memory,
    compose,
    evolve,
)
from .errors import (
    EmbeddingCollisionError,
    EmptyWindowError,
    InvalidInputError,
    NotInvertibleError,
    ResourceCapError,
    UncertifiedInverseError,
)
from .groupring import matrix_mul, one_sided_inverse_solve, from_linear_ca, to_linear_ca
from .groups import set_product, symmetrize
from .synthesis import synthesize_left_inverse
from .transport import (
    build_embedding,
    transport_inverse_pipeline,
    verify_embedding,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_CAP = 3
EXIT_INTERNAL_ERROR = 4


def _digest_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _load_json_file(path: str, digests: dict, label: str):
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as err:
        raise InvalidInputError(f"cannot read {label} file {path!r}: {err}") from None
    digests[label] = _digest_bytes(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{label} file {path!r} is not valid JSON: {err}") from None
    except RecursionError:
        raise InvalidInputError(f"{label} file {path!r} nests too deeply") from None


def _load_json_arg(value: str, digests: dict, label: str):
    """Accept inline JSON, or @path / bare path to a JSON file."""
    if value.startswith("@"):
        return _load_json_file(value[1:], digests, label)
    try:
        data = json.loads(value)
    except json.JSONDecodeError:
        return _load_json_file(value, digests, label)
    except RecursionError:
        raise InvalidInputError(f"inline {label} JSON nests too deeply") from None
    digests[label] = _digest_bytes(value.encode())
    return data


def _write_artifact(path: str | None, payload: dict) -> None:
    if path:
        try:
            Path(path).write_text(serialize.canonical_dumps(payload))
        except OSError as err:
            raise InvalidInputError(f"cannot write output file {path!r}: {err}") from None


def _cmd_check_inverse(args, digests):
    sigma = serialize.ca_from_json(_load_json_file(args.sigma, digests, "sigma"))
    tau = serialize.ca_from_json(_load_json_file(args.tau, digests, "tau"))
    outcome = {}
    if args.side in ("left", "both"):
        outcome["left"] = check_left_inverse(sigma, tau)
    if args.side in ("right", "both"):
        outcome["right"] = check_right_inverse(sigma, tau)
    ok = all(outcome.values())
    return outcome, EXIT_OK if ok else EXIT_PROPERTY_FAILS


def _cmd_synthesize_inverse(args, digests):
    tau = serialize.ca_from_json(_load_json_file(args.input, digests, "input"))
    result = synthesize_left_inverse(tau, args.max_radius)
    if result.found:
        artifact = serialize.ca_to_json(result.ca)
        _write_artifact(args.output, artifact)
        outcome = {"found": True, "radius": result.radius}
        _write_artifact(args.report, {"outcome": outcome, "sigma": artifact})
        return outcome, EXIT_OK
    outcome = {
        "found": False,
        "max_radius": args.max_radius,
        "witness": [serialize.pattern_to_json(p, tau.alphabet) for p in result.witness],
    }
    _write_artifact(args.report, {"outcome": outcome})
    return outcome, EXIT_PROPERTY_FAILS


def _cmd_transport(args, digests):
    tau = serialize.ca_from_json(_load_json_file(args.ca, digests, "ca"))
    sigma = None
    if args.sigma:
        sigma = serialize.ca_from_json(_load_json_file(args.sigma, digests, "sigma"))
    M = common_memory(sigma or tau, tau)
    spec = _load_json_arg(args.embedding, digests, "embedding")
    e = build_embedding(tau.universe, set_product(tau.universe, M, M), spec)
    result = transport_inverse_pipeline(tau, e, sigma_hint=sigma)
    payload = {
        "report": result.report,
        "nu": serialize.ca_to_json(result.ca),
        "embedding": {"target": result.alpha.embedding.target.to_json()},
    }
    _write_artifact(args.out, payload)
    return {"report": result.report, "nu_memory_size": len(result.rule.memory)}, EXIT_OK


def _cmd_direct_finiteness(args, digests):
    outcome, _ = _cmd_check_inverse(args, digests)  # side "both", set by the subparser
    outcome["theorem_consistent"] = (not outcome["left"]) or outcome["right"]
    return outcome, EXIT_OK if outcome["theorem_consistent"] else EXIT_PROPERTY_FAILS


def _cmd_evolve(args, digests):
    tau = serialize.ca_from_json(_load_json_file(args.ca, digests, "ca"))
    pattern = serialize.pattern_from_json(
        _load_json_file(args.pattern, digests, "pattern"), tau.universe, tau.alphabet
    )
    out = evolve(tau, pattern, args.steps)
    artifact = serialize.pattern_to_json(out, tau.alphabet)
    _write_artifact(args.output, artifact)
    return {"steps": args.steps, "cells": len(out.domain)}, EXIT_OK


def _cmd_compose(args, digests):
    sigma = serialize.ca_from_json(_load_json_file(args.sigma, digests, "sigma"))
    tau = serialize.ca_from_json(_load_json_file(args.tau, digests, "tau"))
    out = compose(sigma, tau)
    _write_artifact(args.output, serialize.ca_to_json(out))
    return {"memory_size": len(out.memory)}, EXIT_OK


def _cmd_groupring_mul(args, digests):
    a = serialize.matrix_from_json(_load_json_file(args.a, digests, "a"))
    b = serialize.matrix_from_json(_load_json_file(args.b, digests, "b"))
    out = matrix_mul(a, b)
    _write_artifact(args.output, serialize.matrix_to_json(out))
    return {"dim": out.dim, "support_size": len(out.support())}, EXIT_OK


def _cmd_groupring_solve(args, digests):
    C = serialize.matrix_from_json(_load_json_file(args.matrix, digests, "matrix"))
    D = one_sided_inverse_solve(C, args.radius)
    if D is None:
        return {"found": False, "radius": args.radius}, EXIT_PROPERTY_FAILS
    _write_artifact(args.output, serialize.matrix_to_json(D))
    return {"found": True, "radius": args.radius}, EXIT_OK


def _cmd_groupring_roundtrip(args, digests):
    from .ca import same_action

    tau = serialize.ca_from_json(_load_json_file(args.ca, digests, "ca"))
    X = from_linear_ca(tau)
    back = to_linear_ca(X, tau.universe, tau.alphabet)
    if not same_action(back, tau):
        raise AssertionError("matrix round trip changed the automaton; this is a bug")
    _write_artifact(args.output, serialize.matrix_to_json(X))
    return {"roundtrip_consistent": True, "support_size": len(X.support())}, EXIT_OK


def _cmd_verify_embedding(args, digests):
    if args.ca:
        tau = serialize.ca_from_json(_load_json_file(args.ca, digests, "ca"))
        G = tau.universe
        M = symmetrize(G, tau.memory)
    else:
        if not (args.group and args.memory):
            raise InvalidInputError("need either --ca or both --group and --memory")
        G = serialize.group_from_json(_load_json_arg(args.group, digests, "group"))
        raw = _load_json_arg(args.memory, digests, "memory")
        M = symmetrize(G, serialize.subset_from_json(raw, G, "memory"))
    S = set_product(G, M, M)
    spec = _load_json_arg(args.embedding, digests, "embedding")
    try:
        e = build_embedding(G, S, spec)
    except EmbeddingCollisionError as err:
        collision = [err.group.elem_to_json(x) for x in (err.first, err.second)]
        return {"accepted": False, "collision": collision}, EXIT_PROPERTY_FAILS
    accepted = verify_embedding(e, M)
    outcome = {
        "accepted": accepted,
        "target": e.target.to_json() if e.target.kind != "symmetric" else None,
        "target_kind": e.target.kind,
        "subset_size": len(S),
    }
    if e.target.kind == "symmetric":
        outcome["target_degree"] = e.target.degree
    return outcome, EXIT_OK if accepted else EXIT_PROPERTY_FAILS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared by every call in the process.

    Callers must not mutate it. It binds no handlers: `main` looks the
    handler up by command name on each call.
    """
    parser = argparse.ArgumentParser(
        prog="symba",
        description="Cellular automata over group universes: inverse checks, "
        "synthesis, finite-group transport, group-ring arithmetic.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-inverse", help="decide one-sided inverse relations")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--side", choices=["left", "right", "both"], default="both")

    p = sub.add_parser("synthesize-inverse", help="search for a left inverse rule")
    p.add_argument("--input", required=True)
    p.add_argument("--max-radius", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("--report")

    p = sub.add_parser("transport", help="invert through a finite-group transport")
    p.add_argument("--ca", required=True)
    p.add_argument("--sigma")
    p.add_argument("--embedding", required=True, help="inline JSON or @file")
    p.add_argument("--out")

    p = sub.add_parser("direct-finiteness", help="check left implies right inverse")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(side="both")

    p = sub.add_parser("evolve", help="iterate a rule on a finite window")
    p.add_argument("--ca", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("compose", help="compose two automata")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--output")

    p = sub.add_parser("groupring", help="matrix arithmetic over the group ring")
    gsub = p.add_subparsers(dest="groupring_command", required=True)
    g = gsub.add_parser("mul", help="matrix product")
    g.add_argument("--a", required=True)
    g.add_argument("--b", required=True)
    g.add_argument("--output")
    g = gsub.add_parser("solve", help="find D with D*C = identity at a radius")
    g.add_argument("--matrix", required=True)
    g.add_argument("--radius", type=int, required=True)
    g.add_argument("--output")
    g = gsub.add_parser("roundtrip", help="matrix form of a matrix-rule automaton")
    g.add_argument("--ca", required=True)
    g.add_argument("--output")

    p = sub.add_parser("verify-embedding", help="build and verify an embedding")
    p.add_argument("--ca")
    p.add_argument("--group", help="inline JSON or @file (with --memory)")
    p.add_argument("--memory", help="inline JSON element list (with --group)")
    p.add_argument("--embedding", required=True, help="inline JSON or @file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if getattr(args, "groupring_command", None):
        command = f"{command} {args.groupring_command}"
    # looked up per call, so a handler replaced after the parser was built is used
    handler = globals()["_cmd_" + command.replace("-", "_").replace(" ", "_")]
    digests: dict = {}
    started = time.perf_counter()
    try:
        outcome, code = handler(args, digests)
    except (InvalidInputError, EmptyWindowError) as err:
        outcome, code = {"error": str(err)}, EXIT_INVALID_INPUT
    except ResourceCapError as err:
        outcome, code = {"error": str(err)}, EXIT_RESOURCE_CAP
    except MemoryError as err:
        outcome, code = {"error": f"out of memory: {err}"}, EXIT_RESOURCE_CAP
    except NotInvertibleError as err:
        outcome, code = (
            {"error": str(err), "witness": [list(w) for w in err.witness]},
            EXIT_PROPERTY_FAILS,
        )
    except EmbeddingCollisionError as err:
        collision = [err.group.elem_to_json(x) for x in (err.first, err.second)]
        outcome, code = {"error": str(err), "collision": collision}, EXIT_PROPERTY_FAILS
    except UncertifiedInverseError as err:
        outcome = {
            "error": str(err),
            "left_certified": err.left,
            "right_certified": err.right,
            "nu": serialize.ca_to_json(err.ca),
        }
        code = EXIT_PROPERTY_FAILS
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        outcome = {"error": str(err), "exception": type(err).__name__}
        code = EXIT_INTERNAL_ERROR
    wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
    report = {
        "command": command,
        "inputs": digests,
        "outcome": outcome,
        "seed": args.seed,
        "exit_code": code,
        "wall_time_ms": wall_ms,
    }
    sys.stdout.write(serialize.canonical_dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
