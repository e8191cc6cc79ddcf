"""Transport of an automaton to a finite group, inversion, rule extraction.

The route to an inverse rule: embed the window M*M of the universe into a
finite group F preserving products of memory elements, re-read the local
rule as an F-equivariant endomap of A^F, invert that finite object exactly
(table scan or modular linear algebra), and read the inverse's local rule
back off through the embedding, filling the cells outside the image with
the basepoint. The extracted rule is certified against the original
automaton by both one-sided inverse checks before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .alphabets import (
    _SCAN_CHUNK,
    Alphabet,
    StructuredMap,
    decode_assignments,
    decode_index,
    radix,
)
from .ca import (
    CellularAutomaton,
    LocalRule,
    check_left_inverse,
    check_right_inverse,
    common_memory,
    extend_memory,
    window_positions,
)
from .caps import TRANSPORT_DIM_CAP, transport_cap
from .errors import (
    EmbeddingCollisionError,
    InvalidInputError,
    NotInvertibleError,
    ResourceCapError,
    UncertifiedInverseError,
)
from .groups import (
    FiniteGroup,
    FiniteSubset,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    ProductGroup,
    SymmetricGroup,
    ball,
    greedy_generators,
    set_product,
    symmetrize,
)


@dataclass(frozen=True)
class LefEmbedding:
    """A finite-group approximation of a subset of the universe.

    `phi` maps the subset injectively into the finite target so that
    phi(ab) = phi(a)phi(b) whenever a, b and ab all lie in the subset.
    """

    source: Group
    subset: FiniteSubset
    target: Group
    phi: dict = field(hash=False)


def _first_collision(e: LefEmbedding, S) -> tuple | None:
    """The first pair of S, in S's order, that phi sends to one image."""
    seen = {}
    for s in S:
        img = e.phi[s]
        if img in seen:
            return seen[img], s
        seen[img] = s
    return None


def _product_rule_failure(e: LefEmbedding, M) -> tuple | None:
    """The first (a, b) in M x M with ab in the subset and phi(a)phi(b) != phi(ab)."""
    G, F = e.source, e.target
    for a in M:
        for b in M:
            ab = G.mul(a, b)
            if ab in e.subset and F.mul(e.phi[a], e.phi[b]) != e.phi[ab]:
                return a, b
    return None


def _post_verify(e: LefEmbedding) -> LefEmbedding:
    """Reject collisions; assert the partial product rule on the subset."""
    pair = _first_collision(e, e.subset)
    if pair is not None:
        raise EmbeddingCollisionError(*pair, e.source)
    pair = _product_rule_failure(e, e.subset)
    if pair is not None:
        raise AssertionError(f"embedding construction bug: products disagree at {pair!r}")
    return e


def _minimal_modulus(S: FiniteSubset) -> int:
    N = 1
    while True:
        residues = {tuple(x % N for x in v) for v in S}
        if len(residues) == len(S):
            return N
        N += 1


def _modular_embedding(G: FreeAbelianGroup, S: FiniteSubset, N: int | None) -> LefEmbedding:
    if N is None:
        N = _minimal_modulus(S)
    if N < 1:
        raise InvalidInputError(f"modulus must be >= 1, got {N}")
    cyc = FiniteGroup.cyclic(N)
    if G.rank == 1:
        target: Group = cyc
        phi = {v: v[0] % N for v in S}
    else:
        target = ProductGroup([cyc] * G.rank) if G.rank > 0 else FiniteGroup.cyclic(1)
        phi = {v: tuple(x % N for x in v) for v in S}
        if G.rank == 0:
            phi = {v: 0 for v in S}
    return _post_verify(LefEmbedding(G, S, target, phi))


def _ball_action_embedding(G: FreeGroup, S: FiniteSubset, radius: int | None) -> LefEmbedding:
    """Generators act on the radius-(R+1) ball by extended left translation."""
    R = max((len(w) for w in S), default=0) if radius is None else radius
    inner = ball(G, R)
    if not S.issubset(inner):
        raise InvalidInputError(f"subset does not fit inside the radius-{R} ball")
    pts = ball(G, R + 1)
    n = len(pts)
    target = SymmetricGroup(n)

    letter_perm = {}
    for i in range(1, G.rank + 1):
        g = (i,)
        perm = [-1] * n
        used = [False] * n
        for idx, x in enumerate(pts):
            y = G.mul(g, x)
            if y in pts:
                j = pts.index_of(y)
                perm[idx] = j
                used[j] = True
        free_targets = iter([j for j in range(n) if not used[j]])
        for idx in range(n):
            if perm[idx] < 0:
                perm[idx] = next(free_targets)
        letter_perm[i] = tuple(perm)
        letter_perm[-i] = target.inv(tuple(perm))

    def image(word):
        acc = target.identity()
        for letter in word:
            acc = target.mul(acc, letter_perm[letter])
        return acc

    phi = {w: image(w) for w in S}
    return _post_verify(LefEmbedding(G, S, target, phi))


def _checked_spec(spec) -> dict:
    """The embedding spec as a dict (None reads as {}), its shape validated."""
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise InvalidInputError(f"embedding spec must be a JSON object, got {spec!r}")
    for key in ("N", "radius"):
        value = spec.get(key)
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if value is not None and not integer:
            raise InvalidInputError(f"embedding spec {key!r} must be an integer, got {value!r}")
    if not isinstance(spec.get("factors", []), (list, type(None))):
        raise InvalidInputError(f"embedding spec 'factors' must be a list, got {spec['factors']!r}")
    return spec


def build_embedding(G: Group, S: FiniteSubset, spec: dict | None = None) -> LefEmbedding:
    """Build an embedding of S into a finite group.

    `spec` picks the construction: {"kind": "modular", "N": n} for lattices,
    {"kind": "ball_action", "radius": r} for free groups, {"kind":
    "identity"} for finite universes, {"kind": "product", "factors": [...]}
    componentwise. With spec=None each kind gets its minimal default, and
    minimality is established by construction plus the post-verification.
    A spec of the wrong shape raises InvalidInputError.
    """
    if S.group != G:
        raise InvalidInputError("subset lives in the wrong group")
    spec = _checked_spec(spec)
    kind = spec.get("kind", "auto")

    if isinstance(G, FreeAbelianGroup) and kind in ("auto", "modular"):
        return _modular_embedding(G, S, spec.get("N"))
    if isinstance(G, FreeGroup) and kind in ("auto", "ball_action"):
        return _ball_action_embedding(G, S, spec.get("radius"))
    if isinstance(G, (FiniteGroup, SymmetricGroup)) and kind in ("auto", "identity"):
        return _post_verify(LefEmbedding(G, S, G, {s: s for s in S}))
    if isinstance(G, ProductGroup) and kind in ("auto", "product"):
        factor_specs = spec.get("factors")
        if factor_specs is None:
            factor_specs = [None] * len(G.factors)
        if len(factor_specs) != len(G.factors):
            raise InvalidInputError("one factor spec per product factor required")
        parts = []
        for i, (f, fspec) in enumerate(zip(G.factors, factor_specs)):
            proj = FiniteSubset(f, {v[i] for v in S})
            parts.append(build_embedding(f, proj, fspec))
        target = ProductGroup([p.target for p in parts])
        phi = {v: tuple(p.phi[x] for p, x in zip(parts, v)) for v in S}
        return _post_verify(LefEmbedding(G, S, target, phi))
    raise InvalidInputError(f"no {kind!r} embedding construction for {G!r}")


def verify_embedding(e: LefEmbedding, M: FiniteSubset) -> bool:
    """Check injectivity on M*M and the product rule on all pairs from M."""
    G = e.source
    if M.group != G:
        raise InvalidInputError("memory lives in the wrong group")
    M2 = set_product(G, M, M)
    if not M2.issubset(e.subset):
        raise InvalidInputError("embedded subset must contain M*M")
    return _first_collision(e, M2) is None and _product_rule_failure(e, M) is None


@dataclass(frozen=True, eq=False)
class TransportedEndomap:
    """An endomap of A^F, as a config lookup table or a block matrix."""

    embedding: LefEmbedding
    alphabet: Alphabet
    carrier: FiniteSubset  # F in the order of F.elements(); a sequence is converted
    table: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.carrier, FiniteSubset):
            carrier = FiniteSubset(self.embedding.target, self.carrier)
            object.__setattr__(self, "carrier", carrier)

    @property
    def is_matrix(self):
        return self.matrix is not None


def transport_endomap(tau: CellularAutomaton, e: LefEmbedding) -> TransportedEndomap:
    """The F-equivariant endomap reading the rule through the embedding.

    At cell h of F the transported map applies the local rule to the values
    at the cells h*phi(m), exactly mirroring how the rule reads g*m in G.
    """
    G, A = tau.universe, tau.alphabet
    M = tau.memory
    ident = G.identity()
    if ident not in M or any(G.inv(m) not in M for m in M):
        raise InvalidInputError("memory must be symmetric and contain the identity")
    if not verify_embedding(e, M):
        raise InvalidInputError("embedding fails verification over this memory")

    carrier = FiniteSubset(e.target, e.target.elements())
    nF = len(carrier)
    pos = window_positions(carrier, carrier, [e.phi[m] for m in M])

    if tau.rule.map.is_matrix:
        dim = A.dim * nF
        if dim > TRANSPORT_DIM_CAP:
            raise ResourceCapError(f"transport matrix dimension {dim} over cap {TRANSPORT_DIM_CAP}")
        return TransportedEndomap(e, A, carrier, matrix=tau.rule.map.window_matrix(pos, nF))

    count = A.size**nF
    if count > transport_cap():
        raise ResourceCapError(f"transport would tabulate {count} configurations")
    table = tau.rule.map.window_table(pos, nF, radix(A.size, nF))
    return TransportedEndomap(e, A, carrier, table=table)


def invert_transport(alpha: TransportedEndomap) -> TransportedEndomap:
    """Invert the finite endomap exactly; injectivity is all it takes."""
    A = alpha.alphabet
    table = alpha.table
    if table is not None:
        repeated = np.flatnonzero(np.bincount(table, minlength=table.size) > 1)
        if repeated.size:
            # witness: the first two preimages of the smallest value hit twice
            first_two = np.flatnonzero(table == repeated[0])[:2]
            pair = decode_index(first_two, A.size, len(alpha.carrier))
            raise NotInvertibleError(
                tuple(tuple(w) for w in pair.tolist()), "transported map is not injective"
            )
        inverse = np.empty_like(table)
        inverse[table] = np.arange(table.size, dtype=np.int64)
        return TransportedEndomap(alpha.embedding, A, alpha.carrier, table=inverse)
    identity = np.eye(alpha.matrix.shape[0], dtype=np.int64)
    inv, z = linalg.left_solve(alpha.matrix, identity, A.modulus)
    if inv is None:
        x = tuple(A.cell_values(z).tolist())  # a kernel configuration, beside the zero one
        raise NotInvertibleError((x, (0,) * len(x)), "transported matrix is singular")
    return TransportedEndomap(alpha.embedding, A, alpha.carrier, matrix=inv)


def extract_local_rule(
    gamma: TransportedEndomap, e: LefEmbedding, M: FiniteSubset, A: Alphabet
) -> LocalRule:
    """Read the inverse rule off the inverted endomap.

    A window over M is planted into A^F through the embedding, every other
    cell is filled with the basepoint, the inverted map is applied, and the
    value at the identity of F is the rule's output.
    """
    carrier = gamma.carrier
    cols = [carrier.index_of(e.phi[m]) for m in M]
    one = carrier.index_of(e.target.identity())

    if gamma.is_matrix:
        # the identity cell's block row, read as a map of all of F, then at M
        row = StructuredMap.from_block_row(A, gamma.matrix[one * A.dim : (one + 1) * A.dim])
        return LocalRule(M, StructuredMap(A, len(M), matrices=row.matrices[cols]))

    place = radix(A.size, len(carrier))
    X = decode_assignments(A.size, len(M))
    codes = A.basepoint * place.sum() + (X - A.basepoint) @ place[cols]
    table = (gamma.table[codes] // place[one]) % A.size
    return LocalRule(M, StructuredMap(A, len(M), table=table))


def check_equivariance(alpha: TransportedEndomap) -> bool:
    """Exhaustively check the transported map commutes with translations.

    Commuting with a generating set of F implies commuting with all of F,
    so only the greedy generators are tested, each on every configuration.
    """
    A = alpha.alphabet
    F = alpha.embedding.target
    carrier = alpha.carrier
    nF = len(carrier)
    # row i of perms moves the value at cell h^-1 u to cell u, for h = gens[i]
    gens = greedy_generators(F.mul, F.identity(), carrier)
    perms = window_positions(carrier, [F.inv(h) for h in gens], carrier)
    if alpha.is_matrix:
        blocks = alpha.matrix.reshape(nF, A.dim, nF, A.dim) % A.modulus
        return all(np.array_equal(blocks[perm][:, :, perm], blocks) for perm in perms)
    copy = StructuredMap(A, 1, table=np.arange(A.size))
    place = radix(A.size, nF)
    table = alpha.table
    for perm in perms:
        # P[x] is the index of x translated: its digit u is x's digit perm[u]
        P = copy.window_table(perm[:, None], nF, place)
        for start in range(0, table.size, _SCAN_CHUNK):
            block = slice(start, start + _SCAN_CHUNK)
            if not np.array_equal(table[P[block]], P[table[block]]):
                return False
        del P  # freed before the next tabulation: one extra array at a time
    return True


def composes_to_identity(beta: TransportedEndomap, alpha: TransportedEndomap) -> bool:
    """Exhaustively check beta after alpha is the identity on A^F."""
    if beta.is_matrix != alpha.is_matrix:
        raise InvalidInputError("endomaps use different representations")
    if alpha.is_matrix:
        p = alpha.alphabet.modulus
        identity = np.eye(alpha.matrix.shape[0], dtype=np.int64)
        return np.array_equal(linalg.matmul(beta.matrix, alpha.matrix, p), identity)
    return np.array_equal(beta.table[alpha.table], np.arange(alpha.table.size))


@dataclass(frozen=True, eq=False)
class TransportResult:
    alpha: TransportedEndomap
    gamma: TransportedEndomap
    rule: LocalRule
    ca: CellularAutomaton
    report: dict


def transport_inverse_pipeline(
    tau: CellularAutomaton,
    e: LefEmbedding,
    sigma_hint: CellularAutomaton | None = None,
) -> TransportResult:
    """Full route: transport, invert, extract, certify.

    When `sigma_hint` is given its rule is transported alongside and the
    composite with the transported rule is checked to be the identity on
    A^F. A bijective transport does not make tau invertible: the 3-cell xor
    over Z is bijective on Z/5 and Z/7. When the extracted rule fails
    either one-sided check, UncertifiedInverseError carries it and both
    outcomes.
    """
    G, A = tau.universe, tau.alphabet
    if sigma_hint is not None:
        if sigma_hint.universe != G or sigma_hint.alphabet != A:
            raise InvalidInputError("hint automaton is not compatible")
        M = common_memory(sigma_hint, tau)
    else:
        M = symmetrize(G, tau.memory)
    tau_ext = CellularAutomaton(G, A, extend_memory(tau.rule, M))

    alpha = transport_endomap(tau_ext, e)
    gamma = invert_transport(alpha)
    rule = extract_local_rule(gamma, e, M, A)
    nu_ca = CellularAutomaton(G, A, rule)

    left = check_left_inverse(nu_ca, tau)
    right = check_right_inverse(nu_ca, tau)
    if not (left and right):
        raise UncertifiedInverseError(nu_ca, left, right)

    # invert_transport raises unless alpha is a bijection
    bijective = {"injective": True, "surjective": True, "bijective": True}
    report = {
        "alpha": bijective,
        "target_order": len(alpha.carrier),
        "representation": "matrix" if alpha.is_matrix else "table",
        "left_certified": left,
        "right_certified": right,
    }
    if sigma_hint is not None:
        sigma_ext = CellularAutomaton(G, A, extend_memory(sigma_hint.rule, M))
        beta = transport_endomap(sigma_ext, e)
        report["beta_alpha_identity"] = composes_to_identity(beta, alpha)
    return TransportResult(alpha=alpha, gamma=gamma, rule=rule, ca=nu_ca, report=report)


def direct_finiteness(sigma: CellularAutomaton, tau: CellularAutomaton) -> dict:
    """Report both one-sided checks and whether left implies right held."""
    left = check_left_inverse(sigma, tau)
    right = check_right_inverse(sigma, tau)
    return {
        "left": left,
        "right": right,
        "theorem_consistent": (not left) or right,
    }
