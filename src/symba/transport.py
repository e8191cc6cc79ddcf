"""Transport of an automaton to a finite group, inversion, rule extraction.

The route to an inverse rule: embed the window M*M of the universe into a
finite group F (injective where built, `LefEmbedding`; multiplicative on
M x M where used, `verify_embedding`), read the local rule over its own
memory as an F-equivariant endomap of A^F, invert that exactly (table scan
or modular linear algebra), and read the inverse's rule over M back off
through the embedding, filling the cells outside the image with the
basepoint. The extracted rule is certified against the original automaton
by both one-sided inverse checks, an inverse hint by the left one.

A transported matrix is F-equivariant, so its identity block row determines
it (`division_index`): the matrix is built as the expansion of that row,
and after an exact equivariance test the inverse's row comes from the group
ring when F is Z/N (`linalg.cyclic_inverse`), else from `linalg.left_solve`
(as in matrix-rule synthesis); either way one exact product certifies it.
On Z/N the expansion is a strided view of the doubled row, so neither the
division index nor a gather is needed there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    window_positions,
)
from .caps import TRANSPORT_DIM_CAP, enumeration_cap, transport_cap
from .errors import (
    EmbeddingCollisionError,
    InvalidInputError,
    NotInvertibleError,
    ResourceCapError,
    UncertifiedInverseError,
    json_int,
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
)


@dataclass(frozen=True)
class LefEmbedding:
    """A finite-group approximation of a subset of the universe.

    `phi` maps the subset injectively into the finite target (a collision
    raises EmbeddingCollisionError, first pair in subset order). It restricts a
    homomorphism, so phi(ab) = phi(a)phi(b) whenever a, b and ab all lie in
    the subset; `verify_embedding` checks this over M x M where it is used.
    """

    source: Group
    subset: FiniteSubset
    target: Group
    phi: dict = field(hash=False)

    def __post_init__(self):
        seen = {}
        for s in self.subset:
            first = seen.setdefault(self.phi[s], s)
            if first != s:
                raise EmbeddingCollisionError(first, s, self.source)


def _minimal_modulus(S: FiniteSubset) -> int:
    """The least N injective on S mod N, searched from just below the pigeonhole
    bound N^k >= |S|, or else the first N whose N^2 passes the cap (the cyclic
    target refuses it). Each element's residues are coded base N in a Python int."""
    k = S.group.rank
    N = max(1, int(len(S) ** (1 / max(k, 1))))
    points = np.array(S.elems, dtype=object).reshape(len(S), k)
    while N * N <= enumeration_cap():
        if len(set((points % N) @ (N ** np.arange(k, dtype=object)))) == len(S):
            return N
        N += 1
    return N


def _modular_embedding(G: FreeAbelianGroup, S: FiniteSubset, N: int | None) -> LefEmbedding:
    """Reduction mod N into Z/1, Z/N or (Z/N)^k: one branch per rank, building one target."""
    N = _minimal_modulus(S) if N is None else N
    if N < 1:
        raise InvalidInputError(f"modulus must be >= 1, got {N}")
    if G.rank == 0:
        target: Group = FiniteGroup.cyclic(1)
        phi = {v: 0 for v in S}
    elif G.rank == 1:
        target = FiniteGroup.cyclic(N)
        phi = {v: v[0] % N for v in S}
    else:
        target = ProductGroup([FiniteGroup.cyclic(N)] * G.rank)
        phi = {v: tuple(x % N for x in v) for v in S}
    return LefEmbedding(G, S, target, phi)


def _ball_action_embedding(G: FreeGroup, S: FiniteSubset, radius: int | None) -> LefEmbedding:
    """Generators act on the radius-(R+1) ball by extended left translation."""
    R = max((len(w) for w in S), default=0) if radius is None else radius
    if any(len(w) > R for w in S):  # a reduced word lies in ball(R) iff it has at most R letters
        raise InvalidInputError(f"subset does not fit inside the radius-{R} ball")
    pts = ball(G, R + 1)
    n = len(pts)
    target = SymmetricGroup(n)

    letter_perm = {}
    for i in range(1, G.rank + 1):
        # a point whose translate leaves the ball takes an unused target, in order
        perm = [pts._index.get(G.mul((i,), x), -1) for x in pts]
        free_targets = iter(sorted(set(range(n)).difference(perm)))
        letter_perm[i] = tuple(j if j >= 0 else next(free_targets) for j in perm)
        letter_perm[-i] = target.inv(letter_perm[i])

    images = {(): target.identity()}

    def image(word):
        """The letter permutations multiplied along the word: one product
        on its prefix's image, taken (or made) first."""
        if word not in images:
            images[word] = target.mul(image(word[:-1]), letter_perm[word[-1]])
        return images[word]

    phi = {w: image(w) for w in S}
    return LefEmbedding(G, S, target, phi)


def _checked_spec(spec) -> dict:
    """The embedding spec as a dict (None reads as {}), its shape validated."""
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise InvalidInputError(f"embedding spec must be a JSON object, got {spec!r}")
    for key in ("N", "radius"):
        if spec.get(key) is not None:
            json_int(spec[key], f"embedding spec {key!r}")
    if not isinstance(spec.get("factors", []), (list, type(None))):
        raise InvalidInputError(f"embedding spec 'factors' must be a list, got {spec['factors']!r}")
    return spec


def build_embedding(G: Group, S: FiniteSubset, spec: dict | None = None) -> LefEmbedding:
    """Build an embedding of S into a finite group.

    `spec` picks the construction: {"kind": "modular", "N": n} for lattices,
    {"kind": "ball_action", "radius": r} for free groups, {"kind":
    "identity"} for finite universes, {"kind": "product", "factors": [...]}
    componentwise. With spec=None each kind gets its minimal default. Every
    construction restricts a homomorphism (reduction mod N, the identity,
    letter permutations multiplied along the word), so LefEmbedding checks
    only injectivity on S (EmbeddingCollisionError, from the colliding factor
    of a product). A bad spec raises InvalidInputError.
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
        return LefEmbedding(G, S, G, {s: s for s in S})
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
        return LefEmbedding(G, S, target, phi)
    raise InvalidInputError(f"no {kind!r} embedding construction for {G!r}")


def verify_embedding(e: LefEmbedding, M: FiniteSubset) -> bool:
    """Whether phi(a)phi(b) = phi(ab) for all a, b in M.

    The subset must hold M and M*M (InvalidInputError otherwise; M need not
    hold 1). phi is injective on the subset by construction, so one pass
    over M x M, one product each, is the whole check.
    """
    G, F, S, phi = e.source, e.target, e.subset, e.phi
    if M.group != G:
        raise InvalidInputError("memory lives in the wrong group")
    if not M.issubset(S):
        raise InvalidInputError("embedded subset must contain M and M*M")
    holds = True
    for a in M:
        for b in M:
            ab = G.mul(a, b)
            if ab not in S:
                raise InvalidInputError("embedded subset must contain M and M*M")
            holds = holds and F.mul(phi[a], phi[b]) == phi[ab]
    return holds


@dataclass(frozen=True, eq=False)
class TransportedEndomap:
    """An endomap of A^F, as a config lookup table or a block matrix (exactly one).

    A matrix built by `_expanded` keeps the layout it was expanded with as `_division`.
    """

    embedding: LefEmbedding
    alphabet: Alphabet
    carrier: FiniteSubset  # F in the order of F.elements(); a sequence is converted
    table: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if (self.table is None) == (self.matrix is None):
            raise InvalidInputError("give exactly one of table / matrix")
        if not isinstance(self.carrier, FiniteSubset):
            carrier = FiniteSubset(self.embedding.target, self.carrier)
            object.__setattr__(self, "carrier", carrier)

    @property
    def is_matrix(self):
        return self.matrix is not None

    @cached_property
    def _division(self) -> np.ndarray | None:
        return _layout(self.carrier)


def transport_endomap(tau: CellularAutomaton, e: LefEmbedding) -> TransportedEndomap:
    """The F-equivariant endomap reading the rule as given through the embedding.

    At cell h of F the transported map applies the local rule to the values
    at the cells h*phi(m), m in tau's own memory (symmetric or not), exactly
    mirroring how the rule reads g*m in G. A matrix rule's block (h, k) sums
    the matrices of the m with h*phi(m) = k, that is phi(m) = h^-1 k: it is
    block h^-1 k of the identity's block row, so only that row is built.
    """
    if not verify_embedding(e, tau.memory):
        raise InvalidInputError("embedding fails verification over this memory")
    return _transported(tau, e)


def _transported(tau: CellularAutomaton, e: LefEmbedding) -> TransportedEndomap:
    """`transport_endomap` for an embedding already verified over tau's memory."""
    A, M = tau.alphabet, tau.memory
    carrier = FiniteSubset(e.target, e.target.elements())
    nF = len(carrier)

    if tau.rule.map.is_matrix:
        dim = A.dim * nF
        if dim > TRANSPORT_DIM_CAP:
            raise ResourceCapError(f"transport matrix dimension {dim} over cap {TRANSPORT_DIM_CAP}")
        row = tau.rule.map.window_matrix([[carrier.index_of(e.phi[m]) for m in M]], nF)
        return _expanded(e, A, carrier, row, _layout(carrier))

    count = A.size**nF
    if count > transport_cap():
        raise ResourceCapError(f"transport would tabulate {count} configurations")
    pos = window_positions(carrier, carrier, [e.phi[m] for m in M])
    table = tau.rule.map.window_table(pos, nF)
    return TransportedEndomap(e, A, carrier, table=table)


def _translations(carrier: FiniteSubset) -> np.ndarray:
    """Row i moves the value at cell h^-1 u to cell u, for h the i-th greedy generator."""
    F = carrier.group
    gens = greedy_generators(F.mul, F.identity(), carrier)
    return window_positions(carrier, [F.inv(h) for h in gens], carrier)


def _cyclic_order(carrier: FiniteSubset) -> int | None:
    """N when the carrier is Z/N in its natural order, else None; O(N) work.

    F must be a `FiniteGroup` (validated, or built by `cyclic`), so it is
    associative, with identity 0 and table row 1 the map b -> b + 1 mod N.
    Then k = 1^k, and k b = 1^k b = b + k: the whole table is addition mod N.
    """
    F, N = carrier.group, len(carrier)
    if not isinstance(F, FiniteGroup) or N != F.size or F.identity() != 0:
        return None
    return N if N == 1 or F.table[1] == (*range(1, N), 0) else None


def division_index(carrier: FiniteSubset) -> np.ndarray:
    """div[h, k]: the carrier position of h^-1 k, for a carrier that is all of F.

    A breadth-first walk over the greedy generators g fills left[x, u], the
    position of xu: row x g^-1 is row x read through the translation by g.
    That is |F| array steps, with no |F|^2 group products; div[h] inverts
    left[h].
    """
    nF, one = len(carrier), carrier.index_of(carrier.group.identity())
    perms = _translations(carrier)
    left = np.empty((nF, nF), dtype=np.int64)
    left[one] = np.arange(nF)
    reached, seen = [one], {one}
    for x in reached:  # grows while it is read
        for perm in perms:
            k = int(left[x, perm[one]])
            if k not in seen:
                seen.add(k)
                reached.append(k)
                left[k] = left[x][perm]
    div = np.empty_like(left)
    div[np.arange(nF)[:, None], left] = np.arange(nF)
    return div


def _layout(carrier: FiniteSubset) -> np.ndarray | None:
    """The carrier's division_index, or None on Z/N, where `_expansion` needs none."""
    return None if _cyclic_order(carrier) is not None else division_index(carrier)


def _expansion(row: np.ndarray, div: np.ndarray | None) -> np.ndarray:
    """[h, a, k, b]: entry (a, b) of block h^-1 k of the (d, |F|*d) row.

    That is the (|F|*d)^2 matrix's own layout, written by d gathers. On Z/N
    (div None) block h^-1 k is block (k - h) mod N, so the result is a view
    of the doubled row, read backwards in h, and no gather runs.
    """
    d = len(row)
    blocks = row.reshape(d, -1, d)
    nF = blocks.shape[1]
    if div is None:
        # window s at offset t reads block s + t, and s = N - h
        doubled = np.concatenate([blocks, blocks], axis=1)
        return sliding_window_view(doubled, nF, axis=1)[:, nF:0:-1].transpose(1, 0, 3, 2)
    out = np.empty((nF, d, nF, d), dtype=row.dtype)
    for a in range(d):
        np.take(blocks[a], div, axis=0, out=out[:, a])
    return out


def _expanded(e, A, carrier, row, div) -> TransportedEndomap:
    """The map whose matrix is the expansion of `row` by `div`, kept as its layout."""
    dim = len(carrier) * A.dim
    m = TransportedEndomap(e, A, carrier, matrix=_expansion(row, div).reshape(dim, dim))
    m.__dict__["_division"] = div  # where cached_property keeps it
    return m


def _identity_row(m: TransportedEndomap, div: np.ndarray | None) -> np.ndarray | None:
    """m's identity block row mod n if m is its expansion (is F-equivariant), else None."""
    d, nF = m.alphabet.dim, len(m.carrier)
    one = m.carrier.index_of(m.carrier.group.identity())
    matrix = linalg.reduce(m.matrix, m.alphabet.modulus)
    row = matrix[one * d : (one + 1) * d]
    return row if np.array_equal(_expansion(row, div), matrix.reshape(nF, d, nF, d)) else None


def _equivariant_rows(*maps: TransportedEndomap):
    """(E, rows): the identity block rows of maps on one carrier, E those of I."""
    carrier, div = maps[0].carrier, maps[0]._division
    rows = [_identity_row(m, div) for m in maps]
    if any(row is None for row in rows):
        raise InvalidInputError("transported matrix is not F-equivariant")
    d, n = rows[0].shape
    one = carrier.index_of(carrier.group.identity())
    return np.eye(d, n, one * d, dtype=np.int64), rows


def _cyclic_inverse_row(alpha: TransportedEndomap, row: np.ndarray, E: np.ndarray):
    """The inverse's identity block row, certified, through F_p[Z/N], or None.

    On Z/N in its natural order (`_cyclic_order`, which leaves alpha no
    division index) the product of two block rows is the product of the
    d x d matrices B(x) = sum_j (block j) x^j over F_p[x]/(x^N - 1). So the
    inverse's row is B(x)^-1 (`linalg.cyclic_inverse`), kept only when
    row·alpha = E.
    """
    if alpha._division is not None:
        return None
    d, p, N = alpha.alphabet.dim, alpha.alphabet.modulus, len(alpha.carrier)
    inverse = linalg.cyclic_inverse(row.reshape(d, N, d).transpose(0, 2, 1), p)
    if inverse is None:
        return None
    inverse = inverse.transpose(0, 2, 1).reshape(d, N * d)
    return inverse if np.array_equal(linalg.matmul(inverse, alpha.matrix, p), E) else None


def invert_transport(alpha: TransportedEndomap) -> TransportedEndomap:
    """Invert the finite endomap exactly; injectivity is all it takes.

    A table's inverse, filled with -1 and scattered block by block, is its
    own injectivity test: on a finite set injective means onto, so a -1
    left over is a configuration nothing maps to. Only a failure counts
    hits, after the inverse is freed, to name its witness. A matrix must be
    F-equivariant; its inverse is the expansion of one certified block row.
    On Z/N that row is B(x)^-1 over
    F_p[x]/(x^N - 1), and its expansion is copied once from a view. Off
    Z/N, and on Z/N when the ring route finds no unit pivot (B singular, or
    invertible with no unit left in some column) or its row fails the
    certificate, left_solve solves for and certifies the row, or returns the
    kernel whose first vector is the witness. The inverse is unique, so both
    routes give the same matrix.
    """
    A = alpha.alphabet
    table = alpha.table
    if table is not None:
        inverse = np.full_like(table, -1)
        for start in range(0, table.size, _SCAN_CHUNK):  # no full-size index range
            block = table[start : start + _SCAN_CHUNK]
            inverse[block] = np.arange(start, start + block.size, dtype=np.int64)
        if inverse.min() < 0:
            del inverse  # freed before the hits are counted
            # witness: the first two preimages of the smallest value hit twice
            repeated = np.flatnonzero(np.bincount(table, minlength=table.size) > 1)
            first_two = np.flatnonzero(table == repeated[0])[:2]
            pair = decode_index(first_two, A.size, len(alpha.carrier))
            raise NotInvertibleError(
                tuple(tuple(w) for w in pair.tolist()), "transported map is not injective"
            )
        return TransportedEndomap(alpha.embedding, A, alpha.carrier, table=inverse)
    E, (block_row,) = _equivariant_rows(alpha)
    row = _cyclic_inverse_row(alpha, block_row, E)
    if row is None:
        row, kernel = linalg.left_solve(alpha.matrix, E, A.modulus)
    if row is None:
        # a kernel configuration, beside the zero one
        x = tuple(A.cell_values(kernel[0]).tolist())
        raise NotInvertibleError((x, (0,) * len(x)), "transported matrix is singular")
    return _expanded(alpha.embedding, A, alpha.carrier, row, alpha._division)


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
        # the identity cell's block row, read at the cells of M
        d = A.dim
        row = gamma.matrix[one * d : (one + 1) * d].reshape(d, len(carrier), d)[:, cols]
        return LocalRule(M, StructuredMap(A, len(M), matrices=row.transpose(1, 0, 2)))

    place = radix(A.size, len(carrier))
    X = decode_assignments(A.size, len(M))
    codes = A.basepoint * place.sum() + (X - A.basepoint) @ place[cols]
    table = (gamma.table[codes] // place[one]) % A.size
    return LocalRule(M, StructuredMap(A, len(M), table=table))


def check_equivariance(alpha: TransportedEndomap) -> bool:
    """Exhaustively check the transported map commutes with translations.

    A matrix is compared with the expansion of its identity block row. A
    table is tested on every configuration, for the greedy generators only:
    commuting with a generating set of F implies commuting with all of F.
    """
    A = alpha.alphabet
    carrier = alpha.carrier
    nF = len(carrier)
    if alpha.is_matrix:
        return _identity_row(alpha, alpha._division) is not None
    perms = _translations(carrier)
    copy = StructuredMap(A, 1, table=np.arange(A.size))
    table = alpha.table
    for perm in perms:
        # P[x] is the index of x translated: its digit u is x's digit perm[u]
        P = copy.window_table(perm[:, None], nF)
        for start in range(0, table.size, _SCAN_CHUNK):
            block = slice(start, start + _SCAN_CHUNK)
            if not np.array_equal(table[P[block]], P[table[block]]):
                return False
        del P  # freed before the next tabulation: one extra array at a time
    return True


def composes_to_identity(beta: TransportedEndomap, alpha: TransportedEndomap) -> bool:
    """Exhaustively check beta after alpha is the identity on A^F.

    Both must act on one carrier and alphabet, since both are read with
    alpha's division index. Matrices must be F-equivariant; then so is the
    composite, which is I exactly when its identity block row is.
    """
    if beta.is_matrix != alpha.is_matrix:
        raise InvalidInputError("endomaps use different representations")
    if beta.carrier != alpha.carrier or beta.alphabet != alpha.alphabet:
        raise InvalidInputError("endomaps act on different carriers or alphabets")
    if alpha.is_matrix:
        E, (_, row) = _equivariant_rows(alpha, beta)
        return np.array_equal(linalg.matmul(row, alpha.matrix, alpha.alphabet.modulus), E)
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

    M is common_memory(sigma_hint, tau), or tau's symmetrized memory; the
    embedding is verified over it, and tau is transported as given. The
    hint's verdict is check_left_inverse(sigma_hint, tau): phi is injective
    on M*M and multiplicative on M x M, so the transported hint after the
    transported tau reads sigma-after-tau at the distinct cells h*phi(st),
    and is the identity on A^F exactly when sigma-after-tau is on A^G.

    A bijective transport does not make tau invertible: the 3-cell xor
    over Z is bijective on Z/5 and Z/7. When the extracted rule fails
    either one-sided check, UncertifiedInverseError carries it and both
    outcomes.
    """
    G, A = tau.universe, tau.alphabet
    M = common_memory(sigma_hint if sigma_hint is not None else tau, tau)
    if not verify_embedding(e, M):
        raise InvalidInputError("embedding fails verification over this memory")

    alpha = _transported(tau, e)  # M holds M_tau: verified above
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
        report["beta_alpha_identity"] = check_left_inverse(sigma_hint, tau)
    return TransportResult(alpha=alpha, gamma=gamma, rule=rule, ca=nu_ca, report=report)
