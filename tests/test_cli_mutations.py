"""The exit-code contract under mutated input files.

Valid automata, embedding specs, patterns and group-ring matrices are
mutated one JSON node at a time: a value replaced, a key or list element
dropped, a list element repeated. Inside multiplication tables that gives
ragged rows and entries that are huge, negative, bool, float (Infinity and
NaN included) or strings. Every run must exit 0-3 with a parseable
RunReport; exit 4 is a contract breach. The search is derandomized and
bounded, so the test is deterministic. An integer replaced by a bool or a
non-integer float is invalid input wherever it sits, in every file kind.
"""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symba as sy
from symba import cli, serialize

from conftest import symmetric_table, xor_ca

# Every field may get huge values: `rank`, `degree`, `dim` and `radius` are
# bounded before the tuples, powers or balls they size, and a huge `size` or
# `modulus` is refused at once. Hypothesis draws early list entries more
# often, so the values that once broke the contract come first.
ODD = [float("inf"), True, float("nan"), -1, 1.5, "2", " 1", "x", None, [], {}, False]
ANY = st.one_of(st.sampled_from([2**70, *ODD, -(2**70), 2**63, 10**6, 1e300]), st.integers(-2, 6))
SPECS = [None, {}, {"kind": "modular", "N": 3}, {"kind": "modular", "N": 5},
         {"kind": "identity"}, {"kind": "product", "factors": [None, None]},
         {"kind": "ball_action", "radius": 2}, {"kind": "ball_action", "radius": 2**70}]
# The construction each universe kind takes. Half the runs draw their spec
# from the ones of that kind, so that a spec, a huge radius among them,
# meets the automaton it fits; the other half draw from all of SPECS.
SPEC_KIND = {"free_abelian": "modular", "free": "ball_action", "finite": "identity",
             "symmetric": "identity", "product": "product"}


# The starting files are built on first use inside a test, under the default
# caps, and shared by the tests that follow.
@functools.cache
def _automata():
    Z, C2 = sy.FreeAbelianGroup(1), sy.FiniteGroup.cyclic(2)
    plain, cyclic = sy.Alphabet.plain(2), sy.Alphabet.group(sy.FiniteGroup.cyclic(3).table)
    module = sy.Alphabet.module(3, 1)
    cases = [
        (Z, [(-1,), (0,), (1,)]),
        (sy.FreeAbelianGroup(2), [(0, 0), (1, 0)]),
        (sy.FreeGroup(2), [(1,)]),
        (sy.FiniteGroup(symmetric_table(3)), [0, 1]),
        (sy.ProductGroup([Z, C2]), [((0,), 1), ((1,), 0)]),
        (sy.SymmetricGroup(3), [(0, 1, 2), (1, 0, 2)]),
    ]
    out = []
    for G, cells in cases:
        memory = sy.FiniteSubset(G, cells)
        smap = sy.StructuredMap(module, len(memory), matrices=[[[1]]] * len(memory))
        linear = sy.CellularAutomaton(G, module, sy.LocalRule(memory, smap))
        shift = sy.projection_ca(G, plain, cells[-1])
        for tau in (shift, xor_ca(G, plain, cells), xor_ca(G, cyclic, cells), linear):
            out.append(serialize.ca_to_json(tau))
    return out


@functools.cache
def _patterns():
    """(automaton, pattern) pairs: seeded values on M*M, one per automaton."""
    rng = np.random.default_rng(0)
    out = []
    for data in _automata():
        tau = serialize.ca_from_json(data)
        G, A = tau.universe, tau.alphabet
        M = sy.symmetrize(G, tau.memory)
        domain = sy.set_product(G, M, M)
        values = tuple(int(v) for v in rng.integers(0, A.size, size=len(domain)))
        out.append((data, serialize.pattern_to_json(sy.Pattern(domain, values), A)))
    return out


@functools.cache
def _matrices():
    """(C, D) pairs of group-ring matrices with D C = 1, as JSON."""
    s3 = sy.FiniteGroup(symmetric_table(3))
    out = []
    for G, d, modulus in [(sy.FreeAbelianGroup(1), 1, 2), (sy.FreeAbelianGroup(1), 2, 3),
                          (sy.FreeGroup(2), 1, 2), (s3, 2, 2)]:
        C, D = sy.random_invertible_matrix(G, seed=d, d=d, r=1, modulus=modulus, factors=3)
        out.append((serialize.matrix_to_json(C), serialize.matrix_to_json(D)))
    return out


def _mutate(draw, value):
    """`value` with one node replaced, dropped or repeated."""
    action = draw(st.sampled_from(["descend", "descend", "descend", "drop", "repeat", "replace"]))
    if isinstance(value, dict) and value and action != "replace":
        k = draw(st.sampled_from(sorted(value)))
        out = dict(value)
        if action == "drop":
            del out[k]
        else:
            out[k] = _mutate(draw, value[k])
        return out
    if isinstance(value, list) and value and action != "replace":
        i = draw(st.integers(0, len(value) - 1))
        out = list(value)
        if action == "drop":
            del out[i]
        elif action == "repeat":
            out.insert(i, out[i])
        else:
            out[i] = _mutate(draw, value[i])
        return out
    return draw(ANY)


_SERIAL = itertools.count()


def _write(directory, value) -> str:
    """`value` as JSON in a new file: overwriting one can cost tens of ms."""
    path = directory / f"input{next(_SERIAL)}.json"
    path.write_text(json.dumps(value))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2, 3), (argv, report["outcome"])
    assert report["exit_code"] == code
    return code


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys, data):
    fit = data.draw(st.booleans())
    ca = dict(data.draw(st.sampled_from(_automata())))
    fitting = [s for s in SPECS if s and s["kind"] == SPEC_KIND[ca["universe"]["kind"]]]
    spec = data.draw(st.sampled_from(fitting if fit else SPECS))
    part = data.draw(st.sampled_from(["table", "universe", "alphabet", "embedding"]))
    tables = [key for key in ("universe", "alphabet") if "table" in ca[key]]
    if part == "table" and tables:
        key = data.draw(st.sampled_from(tables))
        rows = [list(row) for row in ca[key]["table"]]
        i = data.draw(st.integers(0, len(rows) - 1))
        how = data.draw(st.sampled_from(["entry", "entry", "ragged", "ragged"]))
        if how == "entry":
            rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(ANY)
        elif data.draw(st.booleans()):
            rows[i].pop()
        else:
            rows[i].append(rows[i][0])
        ca[key] = {**ca[key], "table": rows}
    for _ in range(data.draw(st.integers(part != "table", 2))):
        if part == "embedding":
            spec = _mutate(data.draw, spec)
        else:
            part = "alphabet" if part == "table" else part
            ca[part] = _mutate(data.draw, ca[part])
    path = _write(tmp_path, ca)
    embedding = json.dumps(spec)
    _run(capsys, ["transport", "--ca", path, "--embedding", embedding])
    group = json.dumps(ca["universe"])
    memory = json.dumps(ca["memory"])
    argv = ["verify-embedding", "--group", group, "--memory", memory, "--embedding", embedding]
    _run(capsys, argv)


EDITS = [("entry", v) for v in [2**70, -(2**70), 2**63, -1, True, 1.5, 1e300, float("inf"),
                                 float("nan"), "1", " 1", "x", None, []]]


@pytest.mark.parametrize("edit, value", EDITS + [("drop", None), ("repeat", None)])
def test_edited_finite_tables_keep_the_exit_code_contract(tmp_path, capsys, edit, value):
    """Each kind of table edit, in the first and the last row, of a universe
    (S3) and of an alphabet (Z/3). Ragged rows, entries that are not JSON
    integers (bools, floats and strings included) and entries outside
    0..n-1 are invalid input."""
    s3 = next(ca for ca in _automata() if ca["universe"]["kind"] == "finite")
    c3 = next(ca for ca in _automata() if ca["alphabet"]["flavor"] == "group")
    for ca, key in [(s3, "universe"), (c3, "alphabet")]:
        for i in (0, -1):
            rows = [list(row) for row in ca[key]["table"]]
            if edit == "entry":
                rows[i][1] = value
            elif edit == "drop":
                rows[i].pop()
            else:
                rows[i].append(rows[i][0])
            path = _write(tmp_path, {**ca, key: {**ca[key], "table": rows}})
            code = _run(capsys, ["transport", "--ca", path, "--embedding", "null"])
            assert code == 2, (key, i, edit, value)


@pytest.mark.parametrize(
    "memory, code",
    [("[[1,0,2]]", 0), ("[[1,0]]", 2), ("[[1,1,2]]", 2), ("[[1.0,0,2]]", 2),
     ("[[true,0,2]]", 2), ("[5]", 2)],
)
def test_permutation_memory_lists(capsys, memory, code):
    """A symmetric-group element is a JSON list of the integers 0..n-1, each
    once; a short list, a repeat, a float, a bool or a bare number is
    invalid input."""
    argv = ["verify-embedding", "--group", '{"kind":"symmetric","degree":3}',
            "--memory", memory, "--embedding", "null"]
    assert _run(capsys, argv) == code


@pytest.mark.parametrize("radius, code", [(10**4, 3), (10**6, 3), (2**70, 3), (-1, 2), (2, 0)])
def test_ball_radii_are_bounded_before_their_balls(tmp_path, capsys, radius, code):
    """A huge radius exits 3 at once, in an embedding spec and in
    `groupring solve`: F_1's words grow with the radius, so its balls grow
    in letters as radius^2."""
    spec = json.dumps({"kind": "ball_action", "radius": radius})
    argv = ["verify-embedding", "--group", '{"kind":"free","rank":1}', "--memory", "[[1]]",
            "--embedding", spec]
    assert _run(capsys, argv) == code
    F1 = sy.FreeGroup(1)
    C = sy.GroupRingMatrix(F1, 2, [[sy.GroupRingElement(F1, 2, {(): 1})]])
    path = _write(tmp_path, serialize.matrix_to_json(C))
    assert _run(capsys, ["groupring", "solve", "--matrix", path, "--radius", str(radius)]) == code


def test_mutation_pool_reaches_every_outcome(tmp_path, capsys):
    """The unmutated starting points alone reach exits 0, 1, 2 and 3."""
    seen = set()
    for ca in _automata():
        path = _write(tmp_path, ca)
        for spec in SPECS:
            argv = ["transport", "--ca", path, "--embedding", json.dumps(spec)]
            seen.add(_run(capsys, argv))
    assert {0, 1, 2, 3} <= seen


@pytest.fixture
def fixed_files(tmp_path_factory):
    """The unmutated partner files: each pattern's automaton and each
    matrix's inverse."""
    root = tmp_path_factory.mktemp("fixed")
    cas = {f"ca{i}": _write(root, ca) for i, (ca, _) in enumerate(_patterns())}
    return cas | {f"inverse{i}": _write(root, D) for i, (_, D) in enumerate(_matrices())}


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_patterns_and_matrices_keep_the_exit_code_contract(
    tmp_path, capsys, fixed_files, data
):
    """`evolve` on a mutated pattern file; `groupring mul` and `groupring
    solve` on a mutated matrix file."""
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(_patterns()) - 1))
        pattern = _patterns()[i][1]
        for _ in range(data.draw(st.integers(1, 2))):
            pattern = _mutate(data.draw, pattern)
        path = _write(tmp_path, pattern)
        argv = ["evolve", "--ca", fixed_files[f"ca{i}"], "--pattern", path, "--steps", "1"]
        _run(capsys, argv)
        return
    i = data.draw(st.integers(0, len(_matrices()) - 1))
    C = _matrices()[i][0]
    for _ in range(data.draw(st.integers(1, 2))):
        C = _mutate(data.draw, C)
    path = _write(tmp_path, C)
    _run(capsys, ["groupring", "mul", "--a", fixed_files[f"inverse{i}"], "--b", path])
    _run(capsys, ["groupring", "solve", "--matrix", path, "--radius", "1"])


def _integer_paths(value, path=()):
    """The path to every integer (not bool) inside a JSON value."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _integer_paths(value[k], path + (k,))
    elif isinstance(value, list):
        for i, x in enumerate(value):
            yield from _integer_paths(x, path + (i,))
    elif isinstance(value, int) and not isinstance(value, bool):
        yield path


def _replaced(value, path, new):
    """A copy of `value` with the node at `path` replaced by `new`."""
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def _file_kinds(fixed_files):
    """(kind, JSON, commands on a file holding it): valid files of each kind."""
    automata, patterns, matrices = _automata(), _patterns(), _matrices()
    finite = next(ca for ca in automata if "table" in ca["universe"] and "table" in ca["alphabet"])
    i = next(i for i, (ca, _) in enumerate(patterns) if "matrices" in ca["map"])
    spec = {"kind": "product", "factors": [{"kind": "modular", "N": 3}, {"kind": "identity"}]}
    product = automata.index(next(ca for ca in automata if ca["universe"]["kind"] == "product"))
    yield "ca", finite, lambda p: [["transport", "--ca", p, "--embedding", "null"]]
    yield "ca", patterns[i][0], lambda p: [["transport", "--ca", p, "--embedding", "null"]]
    yield "embedding", spec, lambda p: [
        ["transport", "--ca", fixed_files[f"ca{product}"], "--embedding", p]]
    yield "pattern", patterns[i][1], lambda p: [
        ["evolve", "--ca", fixed_files[f"ca{i}"], "--pattern", p, "--steps", "1"]]
    yield "matrix", matrices[-1][0], lambda p: [
        ["groupring", "mul", "--a", fixed_files[f"inverse{len(matrices) - 1}"], "--b", p],
        ["groupring", "solve", "--matrix", p, "--radius", "1"]]


def test_non_integer_numbers_are_invalid_input_in_every_file_kind(tmp_path, capsys, fixed_files):
    """Each integer of a valid file of each kind (automaton, embedding spec,
    pattern, group-ring matrix), replaced by true or by 1.5, exits 2."""
    for kind, value, calls in _file_kinds(fixed_files):
        assert all(_run(capsys, argv) in (0, 1) for argv in calls(_write(tmp_path, value))), kind
        for where in _integer_paths(value):
            for new in (True, 1.5):
                for argv in calls(_write(tmp_path, _replaced(value, where, new))):
                    assert _run(capsys, argv) == 2, (kind, where, new, argv)
