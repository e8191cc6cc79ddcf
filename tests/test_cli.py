"""End-to-end command-line runs: exit codes, reports, artifact round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import symba as sy
from symba import cli, serialize

from conftest import axis_table_ca, make_table_ca, pair_CD, xor_ca


@pytest.fixture
def files(tmp_path, Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    back = sy.projection_ca(Z, bit, (-1,))
    xor = xor_ca(Z, bit, [(0,), (1,)])
    ident = sy.identity_ca(Z, bit)
    paths = {}
    for name, ca in [("tau", shift), ("sigma", back), ("xor", xor), ("ident", ident)]:
        p = tmp_path / f"{name}.json"
        p.write_text(serialize.canonical_dumps(serialize.ca_to_json(ca)))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_check_inverse_decides_a_product_without_the_identity_before_its_cap(tmp_path, capsys, Z, bit):
    """Memory {1, ..., 11} twice: M_sigma * M_tau = {2, ..., 22} misses the
    identity, so the pair fails at once, though a composite table over those
    21 cells would be over the cap."""
    wide = make_table_ca(Z, bit, [(i,) for i in range(1, 12)], np.arange(1 << 11) & 1)
    path = tmp_path / "wide.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(wide)))
    code, report = run(capsys, "check-inverse", "--sigma", str(path), "--tau", str(path), "--side", "left")
    assert code == 1 and report["outcome"] == {"left": False}


def test_check_inverse_decides_a_widened_pair_past_the_cap_on_its_live_cells(tmp_path, capsys, Z, bit):
    """The shift pair written over ball(6): the written product ball(12)
    would be a 2^25-window scan, past the cap, but each table reads one
    cell, so both sides are decided on the live product {0}."""
    paths = []
    for g in [(1,), (-1,)]:
        rule = sy.extend_memory(sy.projection_ca(Z, bit, g).rule, sy.ball(Z, 6))
        paths.append(tmp_path / f"shift{g[0]}.json")
        paths[-1].write_text(serialize.canonical_dumps(serialize.ca_to_json(sy.CellularAutomaton(Z, bit, rule))))
    tau, sigma = map(str, paths)
    code, report = run(capsys, "check-inverse", "--sigma", sigma, "--tau", tau, "--side", "both")
    assert code == report["exit_code"] == 0
    assert report["outcome"] == {"left": True, "right": True}


def test_check_inverse_pass_and_fail(files, capsys):
    code, report = run(
        capsys, "check-inverse", "--sigma", files["sigma"], "--tau", files["tau"]
    )
    assert code == 0
    assert report["outcome"] == {"left": True, "right": True}
    code, report = run(
        capsys, "check-inverse", "--sigma", files["ident"], "--tau", files["xor"]
    )
    assert code == 1
    code, _ = run(
        capsys,
        "check-inverse",
        "--sigma",
        files["sigma"],
        "--tau",
        files["tau"],
        "--side",
        "left",
    )
    assert code == 0


def test_check_inverse_on_arity_zero_matrix_rules_exits_one(tmp_path, capsys, Z):
    """Two matrix rules that read no cell load from their own JSON; sigma
    after tau reads no cell either, so it is no identity on (Z/2)^1."""
    A = sy.Alphabet.module(2, 1)
    smap = sy.StructuredMap(A, 0, matrices=np.zeros((0, 1, 1), dtype=np.int64))
    path = tmp_path / "zero.json"
    zero = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, []), smap))
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(zero)))
    code, report = run(capsys, "check-inverse", "--sigma", str(path), "--tau", str(path))
    assert code == 1 and report["outcome"] == {"left": False, "right": False}


def test_malformed_input_exit_two(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text("{nope")
    code, report = run(
        capsys, "check-inverse", "--sigma", str(bad), "--tau", files["tau"]
    )
    assert code == 2
    assert "error" in report["outcome"]
    missing = str(files["dir"] / "missing.json")
    code, _ = run(capsys, "check-inverse", "--sigma", missing, "--tau", files["tau"])
    assert code == 2
    # unconvertible numbers inside well-formed JSON are invalid input too
    tau = json.loads((files["dir"] / "tau.json").read_text())
    Z = sy.FreeAbelianGroup(1)
    matrix = serialize.matrix_to_json(
        sy.GroupRingMatrix(Z, 2, [[sy.GroupRingElement(Z, 2, {(0,): 1})]])
    )
    matrix["entries"][0][0][0]["coef"] = "q"
    check = ["check-inverse", "--sigma", str(bad), "--tau", files["tau"]]
    for payload, argv in [
        ({**tau, "universe": {"kind": "free_abelian", "rank": "x"}}, check),
        ({**tau, "memory": [["x"]]}, check),
        (matrix, ["groupring", "mul", "--a", str(bad), "--b", str(bad)]),
    ]:
        bad.write_text(json.dumps(payload))
        code, report = run(capsys, *argv)
        assert code == 2 and "error" in report["outcome"], payload
    # malformed embedding specs and --memory lists
    lattice = ["verify-embedding", "--group", '{"kind":"free_abelian","rank":1}']
    free = ["verify-embedding", "--group", '{"kind":"free","rank":1}']
    for argv in [
        lattice + ["--memory", "[[1]]", "--embedding", '{"kind":"modular","N":"x"}'],
        lattice + ["--memory", "[[1]]", "--embedding", "[1]"],
        free + ["--memory", "[[1]]", "--embedding", '{"kind":"ball_action","radius":"x"}'],
        lattice + ["--memory", '[["x"]]', "--embedding", '{"kind":"modular","N":5}'],
        lattice + ["--memory", "5", "--embedding", '{"kind":"modular","N":5}'],
    ]:
        code, report = run(capsys, *argv)
        assert code == 2 and "error" in report["outcome"], argv


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def test_deeply_nested_json_file_is_invalid_input(files, capsys):
    """JSON nested past the recursion limit once exited 4 with RecursionError."""
    deep = files["dir"] / "deep.json"
    deep.write_text(_nested(100_000))
    code, report = run(capsys, "check-inverse", "--sigma", str(deep), "--tau", str(deep))
    assert code == 2 and "nests too deeply" in report["outcome"]["error"], report


def test_deeply_nested_inline_json_is_invalid_input(capsys):
    code, report = run(
        capsys,
        "verify-embedding",
        "--group",
        '{"kind":"free_abelian","rank":1}',
        "--memory",
        _nested(100_000),
        "--embedding",
        '{"kind":"modular","N":5}',
    )
    assert code == 2 and "nests too deeply" in report["outcome"]["error"], report


def test_ca_file_with_deeply_nested_matrices_is_invalid_input(files, capsys):
    tau = json.loads(Path(files["tau"]).read_text())
    tau["alphabet"] = {"flavor": "module", "modulus": 2, "dim": 1}
    tau["map"] = {"arity": 1, "matrices": "MATRICES"}
    deep = files["dir"] / "deep_matrices.json"
    deep.write_text(json.dumps(tau).replace('"MATRICES"', _nested(5_000)))
    code, report = run(capsys, "check-inverse", "--sigma", files["sigma"], "--tau", str(deep))
    assert code == 2 and "error" in report["outcome"], report


@pytest.mark.parametrize(
    "path, value",
    [
        (("memory", 0, 0), 1.9),
        (("universe", "rank"), 1.5),
        (("universe", "rank"), True),
        (("alphabet", "size"), 2.9),
        (("map", "arity"), 1.2),
    ],
)
def test_non_integer_numbers_are_invalid_input(files, capsys, path, value):
    """A float or a bool where the CA file needs an integer is refused, not
    truncated: memory [[1.9]] once read as [[1]], a left inverse of sigma."""
    tau = json.loads(Path(files["tau"]).read_text())
    node = tau
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps(tau))
    code, report = run(capsys, "check-inverse", "--sigma", files["sigma"], "--tau", str(bad))
    assert code == 2 and "must be an integer" in report["outcome"]["error"], report


def test_non_integer_group_ring_modulus_is_invalid_input(files, capsys, Z):
    """modulus 3.5 once read as 3."""
    C = sy.GroupRingMatrix(Z, 3, [[sy.GroupRingElement(Z, 3, {(0,): 1})]])
    data = serialize.matrix_to_json(C)
    cpath = files["dir"] / "C.json"
    cpath.write_text(json.dumps(data))
    assert run(capsys, "groupring", "mul", "--a", str(cpath), "--b", str(cpath))[0] == 0
    cpath.write_text(json.dumps({**data, "modulus": 3.5}))
    code, report = run(capsys, "groupring", "mul", "--a", str(cpath), "--b", str(cpath))
    assert code == 2 and "modulus must be an integer" in report["outcome"]["error"]


def test_synthesize_success_writes_verifiable_artifact(files, capsys):
    out = str(files["dir"] / "sig.json")
    code, report = run(
        capsys,
        "synthesize-inverse",
        "--input",
        files["tau"],
        "--max-radius",
        "2",
        "--output",
        out,
    )
    assert code == 0
    assert report["outcome"] == {"found": True, "radius": 1}
    # the artifact re-parses and re-verifies with exit 0
    code, report = run(capsys, "check-inverse", "--sigma", out, "--tau", files["tau"])
    assert code == 0 and report["outcome"]["left"] and report["outcome"]["right"]


def test_synthesize_failure_writes_witness_report(files, capsys):
    rep = str(files["dir"] / "report.json")
    code, report = run(
        capsys,
        "synthesize-inverse",
        "--input",
        files["xor"],
        "--max-radius",
        "2",
        "--report",
        rep,
    )
    assert code == 1
    assert not report["outcome"]["found"]
    saved = json.loads((files["dir"] / "report.json").read_text())
    wx, wy = saved["outcome"]["witness"]
    assert wx["values"] != wy["values"]


def test_synthesize_resource_cap_exit_three(files, capsys, monkeypatch):
    """Under a cap of 8 the xor on {0, 1} is scanned at radius 0, over the
    cells {0, 1}, and stops at radius 1, whose scan reads {-1, ..., 2}: 16
    windows. The shift by one passes this cap: its radius-1 scan reads the
    8 windows of {0, 1, 2}, and finds the shift back."""
    monkeypatch.setenv("SYMBA_CAP", "8")
    code, report = run(
        capsys, "synthesize-inverse", "--input", files["xor"], "--max-radius", "3"
    )
    assert code == 3
    assert report["outcome"]["error"] == "determinacy scan would have 16 entries, cap is 8"
    code, report = run(
        capsys, "synthesize-inverse", "--input", files["tau"], "--max-radius", "3"
    )
    assert code == 0 and report["outcome"] == {"found": True, "radius": 1}


def test_synthesize_a_shift_by_eight_finds_its_inverse_at_radius_eight(tmp_path, capsys, Z, bit):
    """tau(x)_g = x_{g+8}: the inverse reads the cell -8, so it has radius 8.
    At radius r the scan reads the cells 8 - r, ..., 8 + r and the identity,
    2^17 windows at r = 8, under the default cap of 2^20."""
    path = tmp_path / "shift8.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(sy.projection_ca(Z, bit, (8,)))))
    code, report = run(
        capsys, "synthesize-inverse", "--input", str(path), "--max-radius", "8"
    )
    assert code == 0 and report["outcome"] == {"found": True, "radius": 8}


def test_synthesize_an_axis_rule_on_z2_finds_radius_one(tmp_path, capsys):
    """A 4-symbol table reading (-1, 0), (0, 0) and (1, 0) of Z^2: its written
    radius-1 scan would have 4^11 windows, past the default cap; the scan
    reads the identity's row only, 4^5 windows."""
    path = tmp_path / "axis.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(axis_table_ca())))
    code, report = run(capsys, "synthesize-inverse", "--input", str(path), "--max-radius", "2")
    assert code == 0 and report["outcome"] == {"found": True, "radius": 1}


def test_cap_above_int64_index_range_exit_three(files, capsys, monkeypatch):
    monkeypatch.setenv("SYMBA_CAP", str((1 << 62) + 1))
    code, report = run(
        capsys, "synthesize-inverse", "--input", files["tau"], "--max-radius", "1"
    )
    assert code == 3
    assert "SYMBA_CAP" in report["outcome"]["error"]


@pytest.mark.parametrize(
    "exc, code, exception",
    [
        (MemoryError("no room"), 3, None),
        (RuntimeError("kernel bug"), 4, "RuntimeError"),
        (AssertionError("certification failed"), 4, "AssertionError"),
        (ValueError("escaped conversion"), 4, "ValueError"),
    ],
)
def test_unexpected_exceptions_keep_the_exit_code_contract(
    files, capsys, monkeypatch, exc, code, exception
):
    def handler(args, digests):
        raise exc

    monkeypatch.setattr(cli, "_cmd_check_inverse", handler)
    got, report = run(capsys, "check-inverse", "--sigma", files["sigma"], "--tau", files["tau"])
    assert got == code == report["exit_code"]
    assert str(exc) in report["outcome"]["error"]
    assert report["outcome"].get("exception") == exception


def test_check_inverse_decided_on_composite_memory(files, capsys, monkeypatch):
    # both composites have memory {0} (2 windows); the merged M*M has 2^5
    monkeypatch.setenv("SYMBA_CAP", "16")
    code, report = run(
        capsys, "check-inverse", "--sigma", files["sigma"], "--tau", files["tau"]
    )
    assert code == 0
    assert report["outcome"] == {"left": True, "right": True}


def test_modulus_above_supported_range_exit_three(files, capsys, monkeypatch):
    monkeypatch.setenv("SYMBA_CAP", str(1 << 40))
    ca = {
        "universe": {"kind": "free_abelian", "rank": 1},
        "alphabet": {"flavor": "module", "modulus": 4294967291, "dim": 1},
        "memory": [[0]],
        "map": {"arity": 1, "matrices": [[[1]]]},
    }
    path = files["dir"] / "huge.json"
    path.write_text(json.dumps(ca))
    code, report = run(capsys, "check-inverse", "--sigma", str(path), "--tau", str(path))
    assert code == 3
    assert "modulus" in report["outcome"]["error"]


def test_huge_module_dimension_exits_three_at_once(files, capsys):
    """(Z/2)^dim is refused from dim alone: 2^70 would never finish."""
    path = files["dir"] / "wide.json"
    for dim in (10**5, 2**70):
        ca = {
            "universe": {"kind": "free_abelian", "rank": 1},
            "alphabet": {"flavor": "module", "modulus": 2, "dim": dim},
            "memory": [[0]],
            "map": {"arity": 1, "matrices": [[[1]]]},
        }
        path.write_text(json.dumps(ca))
        started = time.perf_counter()
        code, report = run(capsys, "check-inverse", "--sigma", str(path), "--tau", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert f"dim {dim}" in report["outcome"]["error"]


def test_groupring_solve_huge_modulus_exits_two_at_once(files, capsys, Z):
    """A modulus of 2^61 - 1 is refused before any trial division."""
    p = 2**61 - 1
    C = sy.GroupRingMatrix(Z, p, [[sy.GroupRingElement(Z, p, {(1,): 1})]])
    path = files["dir"] / "huge_matrix.json"
    path.write_text(serialize.canonical_dumps(serialize.matrix_to_json(C)))
    start = time.perf_counter()
    code, report = run(capsys, "groupring", "solve", "--matrix", str(path), "--radius", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(2**20) in report["outcome"]["error"]


def test_transport_and_equivalence_with_synthesis(files, capsys):
    out = str(files["dir"] / "result.json")
    code, report = run(
        capsys,
        "transport",
        "--ca",
        files["tau"],
        "--sigma",
        files["sigma"],
        "--embedding",
        '{"kind":"modular","N":5}',
        "--out",
        out,
    )
    assert code == 0
    assert report["outcome"]["report"]["left_certified"]
    assert report["outcome"]["report"]["beta_alpha_identity"]
    saved = json.loads((files["dir"] / "result.json").read_text())
    nu = serialize.ca_from_json(saved["nu"])
    sigma = serialize.ca_from_json(json.loads(Path(files["sigma"]).read_text()))
    assert sy.same_action(nu, sigma)


def test_transport_of_noninvertible_rule_exits_one(files, capsys):
    code, report = run(
        capsys,
        "transport",
        "--ca",
        files["xor"],
        "--embedding",
        '{"kind":"modular","N":5}',
    )
    assert code == 1
    assert "witness" in report["outcome"]
    u, v = report["outcome"]["witness"]
    assert u != v


def _xor3(Z, flavour):
    """The 3-cell xor over Z, as a table or as a matrix rule."""
    if flavour == "table":
        return xor_ca(Z, sy.Alphabet.plain(2), [(-1,), (0,), (1,)])
    A = sy.Alphabet.module(2, 1)
    memory = sy.FiniteSubset(Z, [(-1,), (0,), (1,)])
    smap = sy.StructuredMap(A, 3, matrices=[[[1]]] * 3)
    return sy.CellularAutomaton(Z, A, sy.LocalRule(memory, smap))


@pytest.mark.parametrize("embedding", ["null", '{"kind":"modular","N":7}'])
@pytest.mark.parametrize("flavour", ["table", "matrix"])
def test_transport_bijective_but_not_liftable_exits_one(files, capsys, Z, flavour, embedding):
    """The 3-cell xor is bijective on Z/5 and Z/7 yet has no inverse on Z."""
    path = files["dir"] / "xor3.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(_xor3(Z, flavour))))
    for hint in ([], ["--sigma", str(path)]):
        code, report = run(
            capsys, "transport", "--ca", str(path), *hint, "--embedding", embedding
        )
        assert code == report["exit_code"] == 1
        outcome = report["outcome"]
        assert "exception" not in outcome
        assert not (outcome["left_certified"] and outcome["right_certified"])
    nu = files["dir"] / "nu.json"
    nu.write_text(serialize.canonical_dumps(outcome["nu"]))
    code, report = run(capsys, "check-inverse", "--sigma", str(nu), "--tau", str(path))
    assert code == 1
    assert report["outcome"] == {
        "left": outcome["left_certified"],
        "right": outcome["right_certified"],
    }


def test_transport_hint_is_decided_on_the_universe(files, capsys, Z):
    """A false hint is a report, not a failure; a table hint for a matrix rule
    over the same alphabet runs; a hint over another alphabet or universe is
    refused in the words of every other two-automaton command."""
    A = sy.Alphabet.module(2, 1)
    smap = sy.StructuredMap(A, 1, matrices=[[[1]]])
    shift = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, [(1,)]), smap))
    ternary = sy.identity_ca(Z, sy.Alphabet.plain(3))
    planar = sy.identity_ca(sy.FreeAbelianGroup(2), sy.Alphabet.plain(2))
    paths = {}
    for name, ca in [("shift", shift), ("back", sy.projection_ca(Z, A, (-1,))),
                     ("ident", sy.identity_ca(Z, A)), ("ternary", ternary), ("planar", planar)]:
        paths[name] = files["dir"] / f"module_{name}.json"
        paths[name].write_text(serialize.canonical_dumps(serialize.ca_to_json(ca)))
    embedding = ["--embedding", '{"kind":"modular","N":5}']
    for tau, hint, expected in [(files["tau"], files["ident"], False),
                                (paths["shift"], paths["back"], True),
                                (paths["shift"], paths["ident"], False)]:
        code, report = run(capsys, "transport", "--ca", str(tau), "--sigma", str(hint), *embedding)
        assert code == 0, report["outcome"]
        assert report["outcome"]["report"]["beta_alpha_identity"] is expected
    for hint, message in [("ternary", "automata use different alphabets"),
                          ("planar", "automata live over different universes")]:
        argv = ["--ca", files["tau"], "--sigma", str(paths[hint])]
        code, report = run(capsys, "transport", *argv, *embedding)
        assert code == 2 and report["outcome"]["error"] == message
        code, report = run(capsys, "check-inverse", "--sigma", str(paths[hint]), "--tau", files["tau"])
        assert code == 2 and report["outcome"]["error"] == message


def test_direct_finiteness_exit_zero(files, capsys, Z):
    """The shift pair and the linear pair (a matrix rule) are two-sided
    inverses; identity against xor is neither, so vacuously consistent."""
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    for name, M in [("C", C), ("D", D)]:
        files[name] = files["dir"] / f"{name}.json"
        files[name].write_text(serialize.canonical_dumps(serialize.ca_to_json(sy.to_linear_ca(M, Z, A))))
    for sigma, tau, holds in [("sigma", "tau", True), ("D", "C", True), ("ident", "xor", False)]:
        code, report = run(capsys, "direct-finiteness", "--sigma", str(files[sigma]), "--tau", str(files[tau]))
        assert code == 0
        assert report["outcome"] == {"left": holds, "right": holds, "theorem_consistent": True}


def test_evolve_command(files, capsys, Z, bit):
    dom = sy.FiniteSubset(Z, [(i,) for i in range(5)])
    p = sy.Pattern(dom, (1, 0, 1, 1, 0))
    ppath = files["dir"] / "p.json"
    ppath.write_text(serialize.canonical_dumps(serialize.pattern_to_json(p, bit)))
    out = str(files["dir"] / "evolved.json")
    code, report = run(
        capsys,
        "evolve",
        "--ca",
        files["xor"],
        "--pattern",
        str(ppath),
        "--steps",
        "1",
        "--output",
        out,
    )
    assert code == 0
    saved = json.loads((files["dir"] / "evolved.json").read_text())
    assert saved["values"] == [1, 1, 0, 1]
    # shrinking past the window is invalid input
    code, _ = run(
        capsys, "evolve", "--ca", files["xor"], "--pattern", str(ppath), "--steps", "9"
    )
    assert code == 2


def test_evolve_a_rule_with_an_empty_memory(files, capsys, Z):
    """A rule that reads no cell: zero steps return the window as it is; one
    step is refused up front, since every cell of Z would stay."""
    A = sy.Alphabet.plain(2)
    const = make_table_ca(Z, A, [], [0])
    cpath, ppath = files["dir"] / "const.json", files["dir"] / "p.json"
    cpath.write_text(serialize.canonical_dumps(serialize.ca_to_json(const)))
    p = sy.Pattern(sy.ball(Z, 1), (1, 0, 1))
    ppath.write_text(serialize.canonical_dumps(serialize.pattern_to_json(p, A)))
    out = files["dir"] / "same.json"
    argv = ["evolve", "--ca", str(cpath), "--pattern", str(ppath)]
    code, report = run(capsys, *argv, "--steps", "0", "--output", str(out))
    assert code == 0 and report["outcome"] == {"steps": 0, "cells": 3}
    assert out.read_text() == ppath.read_text()
    code, report = run(capsys, *argv, "--steps", "1")
    assert code == 2 and "empty memory" in report["outcome"]["error"]


def test_evolve_huge_step_count_exits_three_before_stepping(files, capsys, Z, bit, monkeypatch):
    p = sy.Pattern(sy.ball(Z, 6), (1,) + (0,) * 12)
    ppath = files["dir"] / "p.json"
    ppath.write_text(serialize.canonical_dumps(serialize.pattern_to_json(p, bit)))
    calls = []
    batch = sy.StructuredMap.evaluate_batch
    monkeypatch.setattr(sy.StructuredMap, "evaluate_batch", lambda *a: calls.append(1) or batch(*a))
    code, report = run(
        capsys, "evolve", "--ca", files["tau"], "--pattern", str(ppath), "--steps", "1000000000"
    )
    assert code == 3 and "evolve cell reads" in report["outcome"]["error"]
    assert not calls


def test_compose_command(files, capsys):
    out = str(files["dir"] / "comp.json")
    code, report = run(
        capsys,
        "compose",
        "--sigma",
        files["tau"],
        "--tau",
        files["tau"],
        "--output",
        out,
    )
    assert code == 0
    comp = serialize.ca_from_json(json.loads((files["dir"] / "comp.json").read_text()))
    assert list(comp.memory) == [(2,)]


def test_groupring_commands(files, capsys, Z):
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    C = sy.GroupRingMatrix(
        Z, 2, [[E({}), E({Z.identity(): 1})], [E({Z.identity(): 1}), E({(1,): 1})]]
    )
    cpath = files["dir"] / "C.json"
    cpath.write_text(serialize.canonical_dumps(serialize.matrix_to_json(C)))
    dpath = str(files["dir"] / "D.json")
    code, report = run(
        capsys,
        "groupring",
        "solve",
        "--matrix",
        str(cpath),
        "--radius",
        "1",
        "--output",
        dpath,
    )
    assert code == 0 and report["outcome"]["found"]
    prodpath = str(files["dir"] / "DC.json")
    code, _ = run(
        capsys,
        "groupring",
        "mul",
        "--a",
        dpath,
        "--b",
        str(cpath),
        "--output",
        prodpath,
    )
    assert code == 0
    DC = serialize.matrix_from_json(json.loads((files["dir"] / "DC.json").read_text()))
    assert DC.is_identity()

    # solve failure exits 1
    xpath = files["dir"] / "X.json"
    X = sy.GroupRingMatrix(Z, 2, [[E({Z.identity(): 1, (1,): 1})]])
    xpath.write_text(serialize.canonical_dumps(serialize.matrix_to_json(X)))
    code, report = run(
        capsys, "groupring", "solve", "--matrix", str(xpath), "--radius", "3"
    )
    assert code == 1 and not report["outcome"]["found"]


def test_groupring_roundtrip_command(files, capsys, Z):
    A = sy.Alphabet.module(2, 2)
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    C = sy.GroupRingMatrix(
        Z, 2, [[E({}), E({Z.identity(): 1})], [E({Z.identity(): 1}), E({(1,): 1})]]
    )
    tau = sy.to_linear_ca(C, Z, A)
    capath = files["dir"] / "lin.json"
    capath.write_text(serialize.canonical_dumps(serialize.ca_to_json(tau)))
    out = str(files["dir"] / "mat.json")
    code, report = run(
        capsys, "groupring", "roundtrip", "--ca", str(capath), "--output", out
    )
    assert code == 0 and report["outcome"]["roundtrip_consistent"]
    assert serialize.matrix_from_json(json.loads((files["dir"] / "mat.json").read_text())) == C


def test_verify_embedding_command(files, capsys):
    code, report = run(
        capsys,
        "verify-embedding",
        "--ca",
        files["tau"],
        "--embedding",
        '{"kind":"modular","N":5}',
    )
    assert code == 0 and report["outcome"]["accepted"]
    code, report = run(
        capsys,
        "verify-embedding",
        "--ca",
        files["tau"],
        "--embedding",
        '{"kind":"modular","N":3}',
    )
    assert code == 1
    assert report["outcome"]["collision"] == [[-2], [1]]
    code, report = run(
        capsys,
        "verify-embedding",
        "--group",
        '{"kind":"free","rank":2}',
        "--memory",
        "[[1],[2]]",
        "--embedding",
        '{"kind":"ball_action"}',
    )
    assert code == 0 and report["outcome"]["accepted"]
    assert report["outcome"]["target_degree"] == 53


def test_huge_cyclic_target_exits_three_at_once(files, capsys):
    """Z/10^6 would need a 10^12-entry multiplication table."""
    started = time.perf_counter()
    code, report = run(
        capsys,
        "verify-embedding",
        "--ca",
        files["tau"],
        "--embedding",
        '{"kind":"modular","N":1000000}',
    )
    assert code == 3 and "multiplication table" in report["outcome"]["error"]
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "rank, entries", [(1, 2041**2), (2, 1025**2)], ids=["Z", "one-axis-of-Z2"]
)
def test_default_modulus_over_the_cap_exits_three(capsys, rank, entries):
    """M*M = {-1020, ..., 1020} along one axis needs Z/2041, over the cap.
    On Z the pigeonhole bound is 2041 itself; on Z^2 the search stops at
    1025, the first modulus whose table passes the cap, and names that one
    (test_transport times the search)."""
    memory = json.dumps([[i] + [0] * (rank - 1) for i in range(511)])
    group = json.dumps({"kind": "free_abelian", "rank": rank})
    code, report = run(capsys, "verify-embedding", "--group", group, "--memory", memory,
                       "--embedding", '{"kind":"modular"}')
    assert code == 3
    assert report["outcome"]["error"] == (
        f"multiplication table would have {entries} entries, cap is {1 << 20}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "--sigma", "{sigma}", "--tau", "{tau}", "--output", "{dir}"],
        ["synthesize-inverse", "--input", "{tau}", "--max-radius", "1", "--output", "{dir}"],
        ["synthesize-inverse", "--input", "{xor}", "--max-radius", "1", "--report", "{dir}"],
        ["transport", "--ca", "{tau}", "--embedding", "null", "--out", "{dir}"],
    ],
    ids=["compose-output", "synthesize-output", "synthesize-report", "transport-out"],
)
def test_unwritable_output_path_is_invalid_input(files, capsys, argv):
    """A directory given as an output file is a bad path, exit 2, with the report."""
    argv = [arg.format(**files) for arg in argv]
    code, report = run(capsys, *argv)
    assert code == report["exit_code"] == 2
    assert report["outcome"]["error"].startswith(f"cannot write output file {str(files['dir'])!r}: ")
    assert "exception" not in report["outcome"]


def test_huge_symmetric_target_exits_three(tmp_path, capsys):
    """The default target for memory {a} in F_6 is Sym(1597): its order
    1597! has more than 4300 digits, so the cap message writes its bit
    length (printing the number itself once raised ValueError, exit 4)."""
    F6 = sy.FreeGroup(6)
    path = tmp_path / "ca.json"
    tau = sy.projection_ca(F6, sy.Alphabet.plain(2), (1,))
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(tau)))
    code, report = run(capsys, "transport", "--ca", str(path), "--embedding", "null")
    assert code == 3
    assert "symmetric group carrier would have at least 2^" in report["outcome"]["error"]


def test_transport_matrix_dimension_cap_exits_three(tmp_path, capsys):
    """Z/1000 with a (Z/2)^5 alphabet would need a 5000 x 5000 transport."""
    Z, A = sy.FreeAbelianGroup(1), sy.Alphabet.module(2, 5)
    memory = sy.FiniteSubset(Z, [(1,)])
    rule = sy.LocalRule(memory, sy.StructuredMap(A, 1, matrices=[np.eye(5, dtype=np.int64)]))
    path = tmp_path / "ca.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(sy.CellularAutomaton(Z, A, rule))))
    spec = '{"kind":"modular","N":1000}'
    code, report = run(capsys, "transport", "--ca", str(path), "--embedding", spec)
    assert code == 3
    assert report["outcome"]["error"] == "transport matrix dimension 5000 over cap 4096"


def test_singular_matrix_transport_witness_is_a_configuration(tmp_path, capsys):
    """The kernel witness has one (Z/2)^2 value per cell of Z/3, not 6 coordinates."""
    Z, A = sy.FreeAbelianGroup(1), sy.Alphabet.module(2, 2)
    smap = sy.StructuredMap(A, 1, matrices=[[[1, 0], [0, 0]]])
    tau = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, [(0,)]), smap))
    path = tmp_path / "singular.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(tau)))
    code, report = run(
        capsys, "transport", "--ca", str(path), "--embedding", '{"kind":"modular","N":3}'
    )
    assert code == 1
    assert report["outcome"]["witness"] == [[1, 0, 0], [0, 0, 0]]


def test_collision_witnesses_are_elements_of_their_group(files, capsys):
    """Both commands serialize a collision with the colliding group's encoding."""
    code, report = run(
        capsys, "transport", "--ca", files["tau"], "--embedding", '{"kind":"modular","N":3}'
    )
    assert code == 1
    assert report["outcome"]["collision"] == [[-2], [1]]
    # the Z factor of Z x C2 collides: the witness is a pair of Z elements
    code, report = run(
        capsys,
        "verify-embedding",
        "--group",
        '{"kind":"product","factors":[{"kind":"free_abelian","rank":1},'
        '{"kind":"finite","table":[[0,1],[1,0]]}]}',
        "--memory",
        "[[[0],0],[[1],0]]",
        "--embedding",
        '{"kind":"product","factors":[{"kind":"modular","N":2},null]}',
    )
    assert code == 1
    assert report["outcome"] == {"accepted": False, "collision": [[-2], [0]]}


def test_parser_reuse_leaks_nothing_between_calls(files, capsys, Z):
    """One process, one shared parser: every call sees only its own arguments."""
    check = ["check-inverse", "--sigma", files["sigma"], "--tau", files["tau"]]
    _, report = run(capsys, *check, "--side", "left")
    assert report["outcome"] == {"left": True}
    _, report = run(capsys, *check)
    assert report["outcome"] == {"left": True, "right": True}

    _, report = run(capsys, "--seed", "7", *check)
    assert report["seed"] == 7
    _, report = run(capsys, *check)
    assert report["seed"] == 0

    synth = ["synthesize-inverse", "--input", files["tau"], "--max-radius", "1"]
    out = files["dir"] / "X.json"
    code, _ = run(capsys, *synth, "--output", str(out))
    assert code == 0 and out.exists()
    out.unlink()
    before = set(files["dir"].iterdir())
    code, _ = run(capsys, *synth)
    assert code == 0 and set(files["dir"].iterdir()) == before

    C = sy.GroupRingMatrix(Z, 2, [[sy.GroupRingElement(Z, 2, {(1,): 1})]])
    cpath = files["dir"] / "C.json"
    cpath.write_text(serialize.canonical_dumps(serialize.matrix_to_json(C)))
    code, report = run(capsys, "groupring", "solve", "--matrix", str(cpath), "--radius", "1")
    assert code == 0 and report["command"] == "groupring solve"
    code, report = run(capsys, "compose", "--sigma", files["sigma"], "--tau", files["tau"])
    assert code == 0 and report["command"] == "compose"

    with pytest.raises(SystemExit) as err:
        cli.main([*synth[:-1], "x"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""
    code, report = run(capsys, *synth)
    assert code == 0 and report["outcome"] == {"found": True, "radius": 1}


def test_module_entry_point_matches_in_process_run(files, capsys):
    """`python -m symba.cli` exits with the report's code and prints the same report."""
    argv = ["check-inverse", "--sigma", files["ident"], "--tau", files["xor"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "symba.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    report = json.loads(proc.stdout)
    assert proc.returncode == report["exit_code"] == 1
    _, in_process = run(capsys, *argv)
    report.pop("wall_time_ms")
    in_process.pop("wall_time_ms")
    assert report == in_process


def test_report_is_deterministic_apart_from_timing(files, capsys):
    code1, r1 = run(
        capsys, "check-inverse", "--sigma", files["sigma"], "--tau", files["tau"]
    )
    code2, r2 = run(
        capsys, "check-inverse", "--sigma", files["sigma"], "--tau", files["tau"]
    )
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    assert code1 == code2 == 0
    assert r1 == r2


def _sweep_cases():
    """Sum rules over a fixed grid of universes, memories and alphabets."""
    from conftest import symmetric_table

    Z, C2 = sy.FreeAbelianGroup(1), sy.FiniteGroup.cyclic(2)
    universes = [
        (Z, [[(1,)], [(0,), (1,)], [(-1,), (0,), (1,)]]),
        (sy.FreeAbelianGroup(2), [[(1, 0)], [(0, 0), (0, 1)]]),
        (sy.FreeGroup(2), [[(1,)], [(1,), (2,)]]),
        (sy.FiniteGroup.cyclic(3), [[1], [0, 1]]),
        (sy.FiniteGroup(symmetric_table(3)), [[1], [1, 2]]),
        (sy.ProductGroup([Z, C2]), [[((1,), 0)], [((0,), 1), ((1,), 0)]]),
        (sy.FreeAbelianGroup(0), [[()]]),
    ]
    alphabets = [
        sy.Alphabet.plain(1),
        sy.Alphabet.plain(2),
        sy.Alphabet.group(sy.FiniteGroup.cyclic(3).table),
        sy.Alphabet.module(2, 1),
    ]
    for G, memories in universes:
        for cells in memories:
            memory = sy.FiniteSubset(G, cells)
            for A in alphabets:
                if A.is_module:
                    smap = sy.StructuredMap(A, len(memory), matrices=[[[1]]] * len(memory))
                    yield sy.CellularAutomaton(G, A, sy.LocalRule(memory, smap))
                else:
                    yield xor_ca(G, A, list(memory))
    # more cells than numpy has axes; a table over them exists for one letter only
    yield xor_ca(Z, sy.Alphabet.plain(1), [(i,) for i in range(-32, 33)])


def test_exit_code_contract_over_a_fixed_grid(tmp_path, capsys):
    """Every command on every grid point exits 0-3 with a parseable report."""
    specs = [
        "null",
        "{}",
        '{"kind":"modular","N":3}',
        '{"kind":"identity"}',
        '{"kind":"product","factors":[null,null]}',
    ]
    seen = []
    for i, tau in enumerate(_sweep_cases()):
        path = tmp_path / f"ca{i}.json"
        path.write_text(serialize.canonical_dumps(serialize.ca_to_json(tau)))
        ca = str(path)
        calls = [
            ["check-inverse", "--sigma", ca, "--tau", ca],
            ["direct-finiteness", "--sigma", ca, "--tau", ca],
            ["compose", "--sigma", ca, "--tau", ca],
            ["synthesize-inverse", "--input", ca, "--max-radius", "1"],
            ["groupring", "roundtrip", "--ca", ca],
        ]
        for spec in specs:
            calls.append(["transport", "--ca", ca, "--embedding", spec])
            calls.append(["verify-embedding", "--ca", ca, "--embedding", spec])
        for argv in calls:
            code, report = run(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, report["outcome"])
            assert report["exit_code"] == code
            seen.append(code)
    assert set(seen) == {0, 1, 2, 3}
