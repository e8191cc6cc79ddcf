"""Cellular automata on group universes and their finite-window calculus.

A CA is a universe G, an alphabet A, and a local rule (memory subset M plus
a map A^M -> A, coordinates in canonical M order). The new value at cell g
reads the old values at the cells g*m for m in M. Nothing infinite is ever
materialized: every operation works on patterns, finite windows E with an
assignment E -> A, again in canonical order.

The composite sigma-after-tau is again such an automaton, with memory
M_sigma * M_tau, so a one-sided inverse is decided in one place: the
composite's local rule must be the projection onto the identity cell. The
composite rule is never built to decide it. For matrix pairs the coefficient
family of the composite, `_family_product`, is compared with the identity
family (I at the identity, 0 elsewhere); `compose` builds its matrix rule
from the same product. Otherwise sigma's table is read at tau's window codes
over M_sigma * M_tau, block by block, and compared with each configuration's
identity-cell digit, stopping at the first block that differs.

A memory is only a presentation: a table rule need not read every cell it
names. A scan over the written memories that would pass one block
(`_SCAN_CHUNK` windows) or the enumeration cap first reads each table rule
over its live cells (`_live_rule`), the inputs its table is not constant
along. Smaller scans keep the written memories, since there the detection
would cost more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabets import _SCAN_CHUNK, Alphabet, StructuredMap, cell_digits, verify_pointed
from .caps import check_size, enumeration_cap
from .errors import EmptyWindowError, InvalidInputError, json_int
from .groups import FiniteSubset, Group, product_window, symmetrize


@dataclass(frozen=True)
class Pattern:
    """A finite window: domain subset E plus one alphabet index per cell."""

    domain: FiniteSubset
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.domain):
            raise InvalidInputError(
                f"pattern needs {len(self.domain)} values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(json_int(v, "pattern value") for v in self.values))

    @classmethod
    def _trusted(cls, domain: FiniteSubset, values: tuple) -> "Pattern":
        """A pattern of Python ints already checked: no per-value `json_int`."""
        self = cls.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def from_dict(cls, domain: FiniteSubset, assignment: dict) -> "Pattern":
        return cls(domain, tuple(assignment[e] for e in domain))

    def value_at(self, e) -> int:
        return self.values[self.domain.index_of(e)]

    def restrict(self, sub: FiniteSubset) -> "Pattern":
        return Pattern(sub, tuple(self.values[self.domain.index_of(e)] for e in sub))

    def translate(self, g) -> "Pattern":
        """The left translate: value at g*e equals the old value at e."""
        G = self.domain.group
        moved = {G.mul(g, e): v for e, v in zip(self.domain, self.values)}
        dom = FiniteSubset(G, moved.keys())
        return Pattern.from_dict(dom, moved)

    def to_json(self, alphabet: Alphabet) -> dict:
        G = self.domain.group
        return {
            "domain": [G.elem_to_json(e) for e in self.domain],
            "values": [alphabet.value_to_json(v) for v in self.values],
        }


class LocalRule:
    """Memory subset plus a structured map of matching arity.

    The map must be pointed (send the all-basepoints window to the
    basepoint); this is checked at construction.
    """

    def __init__(self, memory: FiniteSubset, smap: StructuredMap):
        if smap.arity != len(memory):
            raise InvalidInputError(
                f"map arity {smap.arity} does not match memory size {len(memory)}"
            )
        if not verify_pointed(smap):
            raise InvalidInputError("local rule map is not pointed")
        self.memory = memory
        self.map = smap

    @property
    def alphabet(self):
        return self.map.alphabet

    def __repr__(self):
        return f"LocalRule(|memory|={len(self.memory)}, {self.map!r})"


class CellularAutomaton:
    """Universe + alphabet + local rule."""

    def __init__(self, universe: Group, alphabet: Alphabet, rule: LocalRule):
        if rule.memory.group != universe:
            raise InvalidInputError("rule memory does not live in the universe")
        if rule.alphabet != alphabet:
            raise InvalidInputError("rule map is not over the given alphabet")
        self.universe = universe
        self.alphabet = alphabet
        self.rule = rule

    @property
    def memory(self) -> FiniteSubset:
        return self.rule.memory

    def __repr__(self):
        return (
            f"CellularAutomaton(over {self.universe!r}, {self.alphabet!r}, "
            f"|memory|={len(self.memory)})"
        )


def identity_ca(G: Group, A: Alphabet) -> CellularAutomaton:
    """The identity automaton: memory {1_G}, value copied through."""
    return projection_ca(G, A, G.identity())


def projection_ca(G: Group, A: Alphabet, elem) -> CellularAutomaton:
    """The CA reading off the value at g*elem (a shift for elem != 1)."""
    memory = FiniteSubset(G, [elem])
    smap = StructuredMap(A, 1, table=np.arange(A.size))
    return CellularAutomaton(G, A, LocalRule(memory, smap))


def window_positions(domain: FiniteSubset, E, M) -> np.ndarray:
    """(len(E), len(M)) array: entry [i, j] = position of E[i]*M[j] in domain."""
    mul, index = domain.group.mul, domain._index
    rows = [[index[mul(g, m)] for m in M] for g in E]
    return np.array(rows, dtype=np.int64).reshape(len(E), len(M))


def induced_map(tau: CellularAutomaton, E: FiniteSubset, p: Pattern) -> Pattern:
    """Apply the rule on the window E; p must cover exactly E*M."""
    EM, pos = product_window(tau.universe, E, tau.memory)
    if p.domain != EM:
        raise InvalidInputError("pattern domain must equal the product window E*M")
    vals = np.asarray(p.values, dtype=np.int64)
    out = tau.rule.map.evaluate_batch(vals[pos])
    return Pattern(E, tuple(int(v) for v in out))


def extend_memory(rule: LocalRule, bigger: FiniteSubset) -> LocalRule:
    """The same local behaviour read over a superset of the memory."""
    M = rule.memory
    if not M.issubset(bigger):
        raise InvalidInputError("new memory must contain the old one")
    if M == bigger:
        return rule
    cols = [bigger.index_of(m) for m in M]
    return LocalRule(bigger, rule.map.reindexed(cols, len(bigger)))


def _large_scan(windows: int) -> bool:
    """True when a scan of `windows` windows would pass one block or the
    enumeration cap: the scans that first read table rules over their live
    cells."""
    return windows > min(_SCAN_CHUNK, enumeration_cap())


def _live_rule(rule: LocalRule, windows: int) -> LocalRule:
    """The rule read over its live cells, for a scan of `windows` windows
    that would pass one block or the enumeration cap; else the rule itself.

    Input j is dead when the table, read as a (q^j, q, rest) array, equals
    its first slice along the middle axis. A few leading entries are
    compared first, so a table that reads every input costs O(arity) small
    compares, and each dead axis is dropped (taken at digit 0) before the
    next input is tested. The live memory is a subsequence of the canonical
    order, and the rule stays pointed, since dead digits do not matter. A
    matrix map, or a table that reads every input, is returned as it is.
    Nothing is kept between calls.
    """
    smap = rule.map
    if smap.is_matrix or not _large_scan(windows):
        return rule
    q, table, live = smap.alphabet.size, smap.table, []
    for j in range(smap.arity):
        cube = table.reshape(q ** len(live), q, -1)  # live inputs before j lead
        head = cube[:4, :, :4]
        if (head != head[:, :1]).any() or (cube != cube[:, :1]).any():
            live.append(j)
        else:
            table = cube[:, 0].ravel()
    if len(live) == smap.arity:
        return rule
    memory = FiniteSubset._trusted(rule.memory.group, [rule.memory[j] for j in live])
    return LocalRule(memory, StructuredMap(smap.alphabet, len(live), table=table))


def common_memory(sigma: CellularAutomaton, tau: CellularAutomaton) -> FiniteSubset:
    """Symmetrized union of the two memories (contains the identity)."""
    _require_compatible(sigma, tau)
    return symmetrize(sigma.universe, sigma.memory.union(tau.memory))


def _require_compatible(sigma: CellularAutomaton, tau: CellularAutomaton) -> None:
    if sigma.universe != tau.universe:
        raise InvalidInputError("automata live over different universes")
    if sigma.alphabet != tau.alphabet:
        raise InvalidInputError("automata use different alphabets")


def compose(sigma: CellularAutomaton, tau: CellularAutomaton) -> CellularAutomaton:
    """The automaton acting as sigma-after-tau; memory is M_sigma * M_tau.

    When both rules are matrix maps the composite stays a matrix map, with
    coefficient at u equal to sum over s*m = u of D_s @ C_m (see
    `_family_product`), zero coefficients included.
    """
    _require_compatible(sigma, tau)
    G, A = sigma.universe, sigma.alphabet
    Mc, pos = product_window(G, sigma.memory, tau.memory)

    if sigma.rule.map.is_matrix and tau.rule.map.is_matrix:
        S, T = sigma.rule.map.matrices, tau.rule.map.matrices
        family = _family_product(S, T, pos, len(Mc), A.modulus)
        rule = LocalRule(Mc, StructuredMap(A, len(Mc), matrices=family))
        return CellularAutomaton(G, A, rule)

    n = len(Mc)
    check_size(A.size**n, "composite rule table")
    table = sigma.rule.map.expand_table().table[tau.rule.map.window_table(pos, n)]
    table.flags.writeable = False  # handed to the map without a copy
    rule = LocalRule(Mc, StructuredMap(A, n, table=table))
    return CellularAutomaton(G, A, rule)


def _family_product(S, T, pos, n: int, p: int) -> np.ndarray:
    """The (n, d, d) family out[u] = sum over pos[s, t] = u of S[s] @ T[t], mod p.

    S and T are coefficient families over memories M_S and M_T, and pos the
    positions of their products in the n cells of M_S * M_T. Since s*t = u
    fixes t given s, a coefficient sums at most min(|M_S|, |M_T|) * d
    products of entries below p.
    """
    d = S.shape[1]
    terms = np.einsum("sij,tjk->stik", S, T).reshape(-1, d, d)
    out = np.zeros((n, d, d), dtype=np.int64)
    np.add.at(out, pos.ravel(), terms)
    return np.remainder(out, p, out=out)


def check_left_inverse(sigma: CellularAutomaton, tau: CellularAutomaton) -> bool:
    """True iff sigma-after-tau is the identity on every configuration.

    The composite over M_sigma * M_tau is never built. An identity outside
    M_sigma * M_tau is decided first, before any scan or cap: the verdict is
    then |A| == 1. Matrix pairs compare the coefficient family with I at the
    identity and 0 elsewhere. Otherwise sigma's table at tau's window code
    is compared with each configuration's identity-cell digit block by
    block. When that scan would pass one block or the cap, each table rule
    is first read over its live cells (`_live_rule`): the composite depends
    only on the live product M'_sigma * M'_tau, so the scan and the cap
    count that product, and a live product that misses the identity again
    gives |A| == 1.
    """
    _require_compatible(sigma, tau)
    G, A = sigma.universe, sigma.alphabet
    Mc, pos = product_window(G, sigma.memory, tau.memory)
    n, one = len(Mc), G.identity()
    if one not in Mc:
        return A.size == 1
    if sigma.rule.map.is_matrix and tau.rule.map.is_matrix:
        S, T = sigma.rule.map.matrices, tau.rule.map.matrices
        family = _family_product(S, T, pos, n, A.modulus)
        want = np.zeros_like(family)
        want[Mc.index_of(one)] = np.eye(A.dim, dtype=np.int64)
        return np.array_equal(family, want)
    windows = A.size**n
    live_s, live_t = _live_rule(sigma.rule, windows), _live_rule(tau.rule, windows)
    if live_s is not sigma.rule or live_t is not tau.rule:
        Mc, pos = product_window(G, live_s.memory, live_t.memory)
        n = len(Mc)
        if one not in Mc:
            return A.size == 1
    check_size(A.size**n, "composite rule table")
    table = live_s.map.expand_table().table
    blocks = live_t.map.window_codes(pos, n)
    for _, codes, digits in cell_digits(blocks, A.size, n, Mc.index_of(one)):
        if not np.array_equal(table[codes], digits):
            return False
    return True


def check_right_inverse(sigma: CellularAutomaton, tau: CellularAutomaton) -> bool:
    """True iff tau-after-sigma is the identity, both read as given:
    check_left_inverse(tau, sigma)."""
    return check_left_inverse(tau, sigma)


def evolve(tau: CellularAutomaton, p: Pattern, steps: int) -> Pattern:
    """Iterate the rule on a window; the domain shrinks every step.

    A step keeps each g = e * M[0]^-1 (e in the window) with all of g * M in
    the window; the positions of those products, each computed once, are the
    cells the rule reads. A window need not shrink (a shift keeps its size),
    so steps * |window| * |M| reads are capped before the first step. Zero
    steps return the window as it is; a rule with an empty memory is
    refused for any other count, since every cell of G would stay.
    """
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    G, M, smap = tau.universe, tau.memory, tau.rule.map
    if not steps:
        return p
    if not len(M):
        raise InvalidInputError(
            "cannot evolve a rule with an empty memory: every cell of the universe would stay in the window"
        )
    check_size(steps * len(p.domain) * len(M), "evolve cell reads")
    mul, anchor = G.mul, G.inv(M[0])
    for _ in range(steps):
        index = p.domain._index
        reads = {}
        for g in {mul(e, anchor) for e in p.domain}:
            pos = [index.get(mul(g, m)) for m in M]
            if None not in pos:
                reads[g] = pos
        if not reads:
            raise EmptyWindowError("window shrank to nothing before finishing")
        E = FiniteSubset._trusted(G, reads)
        pos = np.array([reads[g] for g in E], dtype=np.int64).reshape(len(E), len(M))
        out = smap.evaluate_batch(np.asarray(p.values, dtype=np.int64)[pos])
        p = Pattern(E, tuple(out.tolist()))
    return p


def same_action(
    first: CellularAutomaton, second: CellularAutomaton
) -> bool:
    """True iff the two automata act identically on all configurations.

    Decided by reading both rules over the merged memory and comparing the
    resulting maps pointwise (for matrix pairs, coefficient by coefficient).
    """
    _require_compatible(first, second)
    M = first.memory.union(second.memory)
    r1 = extend_memory(first.rule, M)
    r2 = extend_memory(second.rule, M)
    if r1.map.is_matrix and r2.map.is_matrix:
        return np.array_equal(r1.map.matrices, r2.map.matrices)
    return np.array_equal(r1.map.expand_table().table, r2.map.expand_table().table)
