"""JSON wire formats for every value the tools exchange.

All emitters produce canonical output: sorted keys, two-space indent, one
trailing newline, memory and domain lists in canonical subset order. Loaders
validate strictly and raise InvalidInputError on anything malformed, since
rule tables are coordinate-order-sensitive: a memory list in a CA file must
already be in canonical order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .alphabets import Alphabet, StructuredMap
from .ca import CellularAutomaton, LocalRule, Pattern
from .errors import InvalidInputError, json_int
from .groupring import GroupRingElement, GroupRingMatrix
from .groups import (
    FiniteGroup,
    FiniteSubset,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    ProductGroup,
    SymmetricGroup,
)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_dict(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _require_list(data, what: str) -> list:
    if not isinstance(data, list):
        raise InvalidInputError(f"{what} must be a JSON array, got {type(data).__name__}")
    return data


def _int_array(data, depth: int, what: str) -> list:
    """A depth-`depth` nested JSON array of integers, each read by json_int."""
    if depth == 0:
        return json_int(data, f"{what} entry")
    return [_int_array(x, depth - 1, what) for x in _require_list(data, what)]


@contextmanager
def _parsing(what: str):
    """Report missing keys and unconvertible values in `what` as invalid input.

    Used as a decorator on the loaders, so a malformed array in a file (a
    ragged matrix, or an entry past int64, which numpy refuses with
    OverflowError) exits with the invalid-input code rather than escaping
    as a crash. Numbers are read by json_int, which refuses non-integers.
    """
    try:
        yield
    except KeyError as missing:
        raise InvalidInputError(f"{what} JSON is missing {missing}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidInputError(f"malformed {what} JSON: {err}") from None


@_parsing("group")
def group_from_json(data) -> Group:
    data = _require_dict(data, "group")
    kind = data.get("kind")
    if kind == "free_abelian":
        return FreeAbelianGroup(data["rank"])
    if kind == "free":
        return FreeGroup(data["rank"])
    if kind == "finite":
        return FiniteGroup(_int_array(data["table"], 2, "multiplication table"))
    if kind == "product":
        return ProductGroup([group_from_json(f) for f in _require_list(data["factors"], "factors")])
    if kind == "symmetric":
        return SymmetricGroup(data["degree"])
    raise InvalidInputError(f"unknown group kind {kind!r}")


@_parsing("alphabet")
def alphabet_from_json(data) -> Alphabet:
    data = _require_dict(data, "alphabet")
    flavor = data.get("flavor")
    if flavor == "plain":
        return Alphabet.plain(data["size"])
    if flavor == "module":
        return Alphabet.module(data["modulus"], data["dim"])
    if flavor == "group":
        return Alphabet.group(_int_array(data["table"], 2, "multiplication table"))
    raise InvalidInputError(f"unknown alphabet flavor {flavor!r}")


@_parsing("map")
def structured_map_from_json(data, alphabet: Alphabet) -> StructuredMap:
    data = _require_dict(data, "map")
    if "arity" not in data:
        raise InvalidInputError("map JSON needs an arity")
    arity = json_int(data["arity"], "arity")
    if "table" in data:
        table = [alphabet.value_from_json(v) for v in _require_list(data["table"], "table")]
        return StructuredMap(alphabet, arity, table=table)
    if "matrices" in data:
        matrices = _int_array(data["matrices"], 3, "matrices")
        if not matrices and alphabet.is_module:  # numpy would read [] as shape (0,)
            matrices = np.zeros((0, alphabet.dim, alphabet.dim), dtype=np.int64)
        return StructuredMap(alphabet, arity, matrices=matrices)
    raise InvalidInputError("map JSON needs a table or matrices")


def subset_to_json(S: FiniteSubset) -> list:
    return [S.group.elem_to_json(e) for e in S]


@_parsing("subset")
def subset_from_json(data, G: Group, what: str = "subset") -> FiniteSubset:
    elems = [G.elem_from_json(e) for e in _require_list(data, what)]
    subset = FiniteSubset(G, elems)
    if list(subset) != elems:
        raise InvalidInputError(
            f"{what} must be listed in canonical order without duplicates"
        )
    return subset


def ca_to_json(tau: CellularAutomaton) -> dict:
    return {
        "universe": tau.universe.to_json(),
        "alphabet": tau.alphabet.to_json(),
        "memory": subset_to_json(tau.memory),
        "map": tau.rule.map.to_json(),
    }


def ca_from_json(data) -> CellularAutomaton:
    data = _require_dict(data, "cellular automaton")
    for key in ("universe", "alphabet", "memory", "map"):
        if key not in data:
            raise InvalidInputError(f"cellular automaton JSON is missing {key!r}")
    G = group_from_json(data["universe"])
    A = alphabet_from_json(data["alphabet"])
    memory = subset_from_json(data["memory"], G, "memory")
    smap = structured_map_from_json(data["map"], A)
    return CellularAutomaton(G, A, LocalRule(memory, smap))


def pattern_to_json(p: Pattern, alphabet: Alphabet) -> dict:
    return p.to_json(alphabet)


@_parsing("pattern")
def pattern_from_json(data, G: Group, alphabet: Alphabet) -> Pattern:
    data = _require_dict(data, "pattern")
    if "domain" not in data or "values" not in data:
        raise InvalidInputError("pattern JSON needs domain and values")
    domain = subset_from_json(data["domain"], G, "domain")
    values = [alphabet.value_from_json(v) for v in _require_list(data["values"], "values")]
    return Pattern(domain, tuple(values))


def matrix_to_json(X: GroupRingMatrix) -> dict:
    out = X.to_json()
    out["universe"] = X.group.to_json()
    return out


@_parsing("group-ring matrix")
def matrix_from_json(data) -> GroupRingMatrix:
    data = _require_dict(data, "group-ring matrix")
    if "universe" not in data:
        raise InvalidInputError("matrix JSON needs a universe")
    G = group_from_json(data["universe"])
    for key in ("modulus", "dim", "entries"):
        if key not in data:
            raise InvalidInputError(f"matrix JSON is missing {key!r}")
    modulus = json_int(data["modulus"], "modulus")
    dim = json_int(data["dim"], "dim")
    rows = _require_list(data["entries"], "entries")
    if len(rows) != dim:
        raise InvalidInputError(f"expected {dim} rows, got {len(rows)}")
    entries = []
    for row in rows:
        row = _require_list(row, "matrix row")
        if len(row) != dim:
            raise InvalidInputError(f"expected {dim} entries per row, got {len(row)}")
        parsed = []
        for terms in row:
            coeffs = {}
            for term in _require_list(terms, "entry"):
                term = _require_dict(term, "term")
                if "elem" not in term or "coef" not in term:
                    raise InvalidInputError("term needs elem and coef")
                g = G.elem_from_json(term["elem"])
                coeffs[g] = coeffs.get(g, 0) + json_int(term["coef"], "coef")
            parsed.append(GroupRingElement(G, modulus, coeffs))
        entries.append(parsed)
    return GroupRingMatrix(G, modulus, entries)
