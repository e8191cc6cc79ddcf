"""Input guards: each refusal's type and message, and for JSON inputs the
command line's exit code 2 (3 for a malformed SYMBA_CAP)."""

import json

import numpy as np
import pytest

import symba as sy
from symba import cli, serialize
from symba import linalg
from symba.errors import InvalidInputError, ResourceCapError

from conftest import xor_ca


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def shift_file(tmp_path, Z, bit):
    path = tmp_path / "shift.json"
    path.write_text(serialize.canonical_dumps(serialize.ca_to_json(sy.projection_ca(Z, bit, (1,)))))
    return path


def _ca_file_with_map(path, smap_json):
    """The automaton file at `path`, over (Z/2)^1, with its map replaced."""
    data = json.loads(path.read_text())
    data["alphabet"], data["map"] = sy.Alphabet.module(2, 1).to_json(), smap_json
    bad = path.with_name("bad.json")
    bad.write_text(json.dumps(data))
    return str(bad)


# groups


def test_group_guards(Z, F2):
    with pytest.raises(InvalidInputError, match="rank must be >= 0, got -1"):
        sy.FreeAbelianGroup(-1)
    with pytest.raises(InvalidInputError, match="cannot enumerate elements of"):
        list(Z.elements())
    with pytest.raises(InvalidInputError, match="not a free-group word"):
        F2.validate([1])
    with pytest.raises(InvalidInputError, match="product needs at least one factor"):
        sy.ProductGroup([])
    with pytest.raises(InvalidInputError, match="not a 2-factor element"):
        sy.ProductGroup([Z, Z]).validate(((0,),))
    with pytest.raises(InvalidInputError, match="degree must be >= 1, got 0"):
        sy.SymmetricGroup(0)
    assert sy.SymmetricGroup(1).generators() == [(0,)]


def test_subset_guards(Z, Z2):
    ball = sy.ball(Z, 1)
    with pytest.raises(InvalidInputError, match=r"element \(2,\) not in subset"):
        ball.index_of((2,))
    with pytest.raises(InvalidInputError, match="subsets live in different groups"):
        ball.union(sy.ball(Z2, 1))
    with pytest.raises(InvalidInputError, match="subset must live in the given group"):
        sy.symmetrize(Z, sy.ball(Z2, 1))
    with pytest.raises(InvalidInputError, match="radius must be >= 0, got -1"):
        sy.generated_ball(Z, ball, -1)


# serialize


@pytest.mark.parametrize(
    "smap_json, message",
    [
        ({"table": [0, 1]}, "needs an arity"),
        ({"arity": 1}, "needs a table or matrices"),
        ({"arity": 2, "matrices": [[[1]], [[1], [0]]]}, "malformed map JSON"),
    ],
    ids=["no-arity", "no-table-or-matrices", "ragged-matrices"],
)
def test_malformed_map_json(shift_file, capsys, smap_json, message):
    A = sy.Alphabet.module(2, 1)
    with pytest.raises(InvalidInputError, match=message):
        serialize.structured_map_from_json(smap_json, A)
    code, report = run(capsys, "check-inverse", "--sigma", _ca_file_with_map(shift_file, smap_json),
                       "--tau", str(shift_file))
    assert code == 2 and message in report["outcome"]["error"]


@pytest.mark.parametrize("term", [{"coef": 1}, {"elem": [0]}])
def test_group_ring_term_without_elem_or_coef(tmp_path, capsys, term):
    data = {"universe": {"kind": "free_abelian", "rank": 1}, "modulus": 2, "dim": 1,
            "entries": [[[term]]]}
    with pytest.raises(InvalidInputError, match="term needs elem and coef"):
        serialize.matrix_from_json(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "groupring", "mul", "--a", str(path), "--b", str(path))
    assert code == 2 and "term needs elem and coef" in report["outcome"]["error"]


# transport


def test_embedding_spec_factors_must_be_a_list(shift_file, capsys, Z):
    with pytest.raises(InvalidInputError, match="'factors' must be a list"):
        sy.build_embedding(Z, sy.ball(Z, 1), {"kind": "product", "factors": 3})
    code, report = run(capsys, "verify-embedding", "--ca", str(shift_file),
                       "--embedding", '{"kind": "product", "factors": 3}')
    assert code == 2 and "'factors' must be a list" in report["outcome"]["error"]


def test_embedding_subset_and_memory_from_another_group(Z, Z2):
    with pytest.raises(InvalidInputError, match="subset lives in the wrong group"):
        sy.build_embedding(Z, sy.ball(Z2, 1))
    e = sy.build_embedding(Z, sy.ball(Z, 2))
    with pytest.raises(InvalidInputError, match="memory lives in the wrong group"):
        sy.verify_embedding(e, sy.ball(Z2, 1))


# alphabets


def test_structured_map_shape_guards(bit):
    A = sy.Alphabet.module(2, 1)
    with pytest.raises(InvalidInputError, match="exactly one of table / matrices"):
        sy.StructuredMap(A, 1, table=[0, 1], matrices=[[[1]]])
    with pytest.raises(InvalidInputError, match="exactly one of table / matrices"):
        sy.StructuredMap(A, 1)
    with pytest.raises(InvalidInputError, match="arity must be >= 0"):
        sy.StructuredMap(bit, -1, table=[0])
    smap = sy.StructuredMap(bit, 2, table=[0, 1, 1, 0])
    with pytest.raises(InvalidInputError, match=r"expected shape \(n, 2\)"):
        smap.evaluate_batch(np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(InvalidInputError, match="every window needs 2 cells"):
        next(smap.window_codes([[0]], 3))
    with pytest.raises(InvalidInputError, match=r"window cells must lie in 0\.\.2"):
        next(smap.window_codes([[0, 3]], 3))
    with pytest.raises(InvalidInputError, match="alphabet size must be >= 1"):
        sy.Alphabet.plain(0)


def test_module_operations_on_a_plain_alphabet(bit):
    for call, message in [
        (bit.vectors, "vectors only exist for module alphabets"),
        (lambda: bit.cell_values([0, 1]), "vectors only exist for module alphabets"),
        (lambda: bit.add(0, 1), "plain alphabets carry no operation"),
        (lambda: bit.scale(1, 1), "scaling needs a module alphabet"),
    ]:
        with pytest.raises(InvalidInputError, match=message):
            call()
    with pytest.raises(InvalidInputError, match="expected a length-2 vector"):
        sy.Alphabet.module(3, 2).vector_to_index([1])


def test_verify_structure_and_classify_guards(bit):
    with pytest.raises(InvalidInputError, match="plain alphabets carry no structure to verify"):
        sy.verify_structure(sy.StructuredMap(bit, 1, table=[0, 1]))
    A = sy.Alphabet.module(3, 2)
    assert sy.verify_structure(sy.StructuredMap(A, 1, matrices=[[[1, 2], [0, 1]]])) is True
    with pytest.raises(InvalidInputError, match=r"expected a 1-d lookup array, got shape \(2, 2\)"):
        sy.finite_map_classify([[0, 1], [1, 0]])
    for values in ([0, 2], [-1, 0]):
        with pytest.raises(InvalidInputError, match=r"endomap values must stay within 0\.\.n-1"):
            sy.finite_map_classify(values)


# ca, groupring, synthesis, linalg, caps


def test_automaton_rule_from_another_universe_or_alphabet(Z, Z2, bit):
    rule = sy.projection_ca(Z, bit, (1,)).rule
    with pytest.raises(InvalidInputError, match="rule memory does not live in the universe"):
        sy.CellularAutomaton(Z2, bit, rule)
    with pytest.raises(InvalidInputError, match="rule map is not over the given alphabet"):
        sy.CellularAutomaton(Z, sy.Alphabet.plain(3), rule)


def test_group_ring_operators_and_linear_ca_guards(Z, Z2):
    x = sy.GroupRingElement(Z, 3, {(0,): 1, (1,): 2})
    y = sy.GroupRingElement(Z, 3, {(-1,): 1, (2,): 1})
    assert x * y == sy.gr_mul(x, y)
    with pytest.raises(InvalidInputError, match="elements live in different group rings"):
        x + sy.GroupRingElement(Z, 5, {(0,): 1})
    X = sy.GroupRingMatrix(Z, 3, [[x]])
    with pytest.raises(InvalidInputError, match="matrix lives over a different group"):
        sy.to_linear_ca(X, Z2, sy.Alphabet.module(3, 1))
    for A in (sy.Alphabet.module(3, 2), sy.Alphabet.module(5, 1), sy.Alphabet.plain(3)):
        with pytest.raises(InvalidInputError, match="alphabet does not match the matrix shape"):
            sy.to_linear_ca(X, Z, A)


def test_invert_refuses_a_non_square_matrix():
    with pytest.raises(InvalidInputError, match=r"matrix must be square, got \(2, 3\)"):
        linalg.invert(np.zeros((2, 3), dtype=np.int64), 5)


def test_automata_over_different_universes_or_alphabets(Z, Z2, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    for other, message in [(sy.identity_ca(Z2, bit), "different universes"),
                           (sy.identity_ca(Z, sy.Alphabet.plain(3)), "different alphabets")]:
        for call in (sy.compose, sy.check_left_inverse):
            with pytest.raises(InvalidInputError, match=message):
                call(other, shift)


def test_negative_step_count_and_radius(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    with pytest.raises(InvalidInputError, match="steps must be >= 0, got -1"):
        sy.evolve(shift, sy.Pattern(sy.ball(Z, 1), (0, 1, 0)), -1)
    with pytest.raises(InvalidInputError, match="r_max must be >= 0, got -1"):
        sy.synthesize_left_inverse(shift, -1)


def test_determinacy_candidate_from_another_group(Z, Z2, bit):
    with pytest.raises(InvalidInputError, match="candidate memory lives in the wrong group"):
        sy.determinacy_check(xor_ca(Z, bit, [(0,), (1,)]), sy.ball(Z2, 1))


@pytest.mark.parametrize("value, message", [("abc", "must be an integer"), ("0", "must be positive")])
def test_malformed_symba_cap_exits_three(shift_file, capsys, monkeypatch, value, message):
    monkeypatch.setenv("SYMBA_CAP", value)
    with pytest.raises(ResourceCapError, match=message):
        sy.caps.enumeration_cap()
    code, report = run(capsys, "check-inverse", "--sigma", str(shift_file), "--tau", str(shift_file))
    assert code == 3 and message in report["outcome"]["error"]


# command line


def test_embedding_spec_read_from_a_file(shift_file, capsys):
    spec = shift_file.with_name("spec.json")
    spec.write_text('{"kind": "modular", "N": 5}')
    code, report = run(capsys, "verify-embedding", "--ca", str(shift_file), "--embedding", f"@{spec}")
    assert code == 0 and report["outcome"]["accepted"]
    assert set(report["inputs"]) == {"ca", "embedding"}


def test_synthesize_report_on_success(shift_file, capsys):
    out = shift_file.with_name("report.json")
    code, report = run(capsys, "synthesize-inverse", "--input", str(shift_file),
                       "--max-radius", "1", "--report", str(out))
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["outcome"] == report["outcome"] == {"found": True, "radius": 1}
    assert list(saved["sigma"]["memory"]) == [[-1], [0], [1]]


def test_verify_embedding_needs_a_ca_or_a_group_and_memory(capsys):
    code, report = run(capsys, "verify-embedding", "--group", '{"kind": "free", "rank": 1}',
                       "--embedding", "{}")
    assert code == 2 and "need either --ca" in report["outcome"]["error"]
