"""Wire formats: round trips, canonical bytes, strict validation."""

import json

import numpy as np
import pytest

import symba as sy
from symba import serialize
from symba.errors import InvalidInputError

from conftest import symmetric_table, xor_ca


def test_group_round_trips(Z, Z2, F2):
    groups = [
        Z,
        Z2,
        F2,
        sy.FiniteGroup.cyclic(5),
        sy.FiniteGroup(symmetric_table(3)),
        sy.ProductGroup([sy.FiniteGroup.cyclic(2), sy.FreeAbelianGroup(1)]),
        sy.SymmetricGroup(4),
    ]
    for G in groups:
        assert serialize.group_from_json(G.to_json()) == G


def test_element_round_trips(Z, F2):
    for G, elems in [(Z, [(-3,), (0,)]), (F2, [(), (1, 2, -1)])]:
        for e in elems:
            assert G.elem_from_json(G.elem_to_json(e)) == e
    with pytest.raises(InvalidInputError):
        F2.elem_from_json([1, -1])


def test_alphabet_round_trips():
    for A in (
        sy.Alphabet.plain(3),
        sy.Alphabet.module(2, 2),
        sy.Alphabet.group(symmetric_table(3)),
    ):
        assert serialize.alphabet_from_json(A.to_json()) == A


def test_ca_round_trip_and_canonical_bytes(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    blob = serialize.canonical_dumps(serialize.ca_to_json(xor))
    again = serialize.ca_from_json(json.loads(blob))
    assert serialize.canonical_dumps(serialize.ca_to_json(again)) == blob
    assert sy.same_action(again, xor)


def test_module_ca_round_trip(Z):
    A = sy.Alphabet.module(2, 2)
    mem = sy.FiniteSubset(Z, [(0,), (1,)])
    mats = [[[0, 1], [1, 0]], [[0, 0], [0, 1]]]
    tau = sy.CellularAutomaton(Z, A, sy.LocalRule(mem, sy.StructuredMap(A, 2, matrices=mats)))
    data = serialize.ca_to_json(tau)
    again = serialize.ca_from_json(data)
    assert again.rule.map.is_matrix
    assert sy.same_action(again, tau)
    # table-valued module maps serialize values as vectors
    expanded = sy.CellularAutomaton(
        Z, A, sy.LocalRule(mem, tau.rule.map.expand_table())
    )
    data2 = serialize.ca_to_json(expanded)
    assert isinstance(data2["map"]["table"][0], list)
    assert sy.same_action(serialize.ca_from_json(data2), tau)


def test_arity_zero_matrix_rule_round_trip(Z):
    """A matrix rule that reads no cell writes "matrices": [], which loads
    back as a (0, d, d) family; that list with a nonzero arity is refused."""
    A = sy.Alphabet.module(3, 2)
    smap = sy.StructuredMap(A, 0, matrices=np.zeros((0, 2, 2), dtype=np.int64))
    tau = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, []), smap))
    blob = serialize.canonical_dumps(serialize.ca_to_json(tau))
    again = serialize.ca_from_json(json.loads(blob))
    assert again.rule.map.matrices.shape == (0, 2, 2)
    assert serialize.canonical_dumps(serialize.ca_to_json(again)) == blob
    data = json.loads(blob)
    data["memory"], data["map"]["arity"] = [[0]], 1
    with pytest.raises(InvalidInputError, match=r"need 1 matrices of shape 2x2, got \(0, 2, 2\)"):
        serialize.ca_from_json(data)


def test_ca_memory_must_be_canonical(Z, bit):
    xor = xor_ca(Z, bit, [(0,), (1,)])
    data = serialize.ca_to_json(xor)
    data["memory"] = list(reversed(data["memory"]))
    with pytest.raises(InvalidInputError):
        serialize.ca_from_json(data)


def test_pattern_round_trip(Z, bit):
    dom = sy.FiniteSubset(Z, [(0,), (1,), (2,)])
    p = sy.Pattern(dom, (1, 0, 1))
    data = serialize.pattern_to_json(p, bit)
    again = serialize.pattern_from_json(data, Z, bit)
    assert again.domain == p.domain and again.values == p.values


def test_matrix_round_trip(Z):
    E = lambda d: sy.GroupRingElement(Z, 2, d)
    C = sy.GroupRingMatrix(
        Z, 2, [[E({}), E({Z.identity(): 1})], [E({Z.identity(): 1}), E({(1,): 1})]]
    )
    data = serialize.matrix_to_json(C)
    assert data["modulus"] == 2 and data["dim"] == 2
    again = serialize.matrix_from_json(data)
    assert again == C
    bare = {k: v for k, v in data.items() if k != "universe"}
    with pytest.raises(InvalidInputError):
        serialize.matrix_from_json(bare)


def test_malformed_inputs_rejected(Z, bit):
    with pytest.raises(InvalidInputError):
        serialize.group_from_json({"kind": "nope"})
    with pytest.raises(InvalidInputError):
        serialize.alphabet_from_json({"flavor": "plain"})
    with pytest.raises(InvalidInputError):
        serialize.ca_from_json({"universe": {"kind": "free_abelian", "rank": 1}})
    xor = xor_ca(Z, bit, [(0,), (1,)])
    data = serialize.ca_to_json(xor)
    data["map"]["table"] = [0, 1, 1]
    with pytest.raises(InvalidInputError):
        serialize.ca_from_json(data)
