"""Embeddings into finite groups, transported endomaps, rule extraction."""

import functools
import itertools
import time

import numpy as np
import pytest

import symba as sy
from symba.errors import (
    EmbeddingCollisionError,
    InvalidInputError,
    NotInvertibleError,
    ResourceCapError,
    UncertifiedInverseError,
    UnsupportedModulusError,
)

from conftest import (
    make_table_ca,
    oracle_ball_action_letters,
    oracle_block_circulant,
    oracle_division_index,
    oracle_transport_matrix,
    oracle_transport_table,
    oracle_verify_embedding,
    pair_CD,
    random_pointed_table,
    set_cap,
    symmetric_table,
    xor_ca,
)
from symba import linalg, serialize
from symba.groups import greedy_generators
from symba.transport import _cyclic_order, division_index


def test_modular_embedding_accepts_and_rejects(Z):
    S = sy.ball(Z, 2)
    e5 = sy.build_embedding(Z, S, {"kind": "modular", "N": 5})
    assert sy.verify_embedding(e5, sy.ball(Z, 1))
    with pytest.raises(EmbeddingCollisionError) as err:
        sy.build_embedding(Z, S, {"kind": "modular", "N": 3})
    assert err.value.first == (-2,) and err.value.second == (1,)


def test_hand_built_embedding_refuses_a_collision(Z):
    """phi sends 1 onto -2 and 2 onto -1 in Z/5: construction raises with the
    first pair in subset order (-2, -1, 0, 1, 2), in the source group."""
    S = sy.ball(Z, 2)
    phi = {v: v[0] % 5 for v in S} | {(1,): 3, (2,): 4}
    with pytest.raises(EmbeddingCollisionError) as err:
        sy.LefEmbedding(Z, S, sy.FiniteGroup.cyclic(5), phi)
    assert (err.value.first, err.value.second, err.value.group) == ((-2,), (1,), Z)


def test_verify_embedding_makes_one_product_per_pair(Z2, monkeypatch):
    """|M|^2 products in the universe: phi is injective by construction, so
    M*M is not rebuilt to check it again."""
    M = sy.ball(Z2, 3)
    e = sy.build_embedding(Z2, sy.set_product(Z2, M, M), None)
    calls = []
    mul = sy.FreeAbelianGroup.mul
    monkeypatch.setattr(sy.FreeAbelianGroup, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert sy.verify_embedding(e, M)
    assert len(calls) == len(M) ** 2 == 625


def _verdict(verify, e, M):
    """verify(e, M), or the type and message of the InvalidInputError it raises."""
    try:
        return verify(e, M)
    except InvalidInputError as err:
        return type(err), str(err)


def _hand_built_embeddings():
    """Seeded injective maps into Z/9 and (Z/9)^2 over M*M and M, M in ball(2):
    reduction mod 9 (a homomorphism there), the same with two images swapped,
    or a random injective map; the subset whole, missing a product outside
    M, or missing an element of M."""
    for rank, how, gap, seed in itertools.product((1, 2), range(3), range(3), range(3)):
        rng = np.random.default_rng([rank, how, gap, seed])
        G = sy.FreeAbelianGroup(rank)
        F = sy.ProductGroup([sy.FiniteGroup.cyclic(9)] * 2) if rank == 2 else sy.FiniteGroup.cyclic(9)
        pool = list(sy.ball(G, 2))
        M = sy.FiniteSubset(G, [pool[i] for i in rng.choice(len(pool), rng.integers(1, 5), replace=False)])
        S = sorted(set(sy.set_product(G, M, M)) | set(M))
        outside = sorted(set(S) - set(M))
        if gap == 1 and outside:
            S.remove(outside[rng.integers(len(outside))])
        elif gap == 2:
            S.remove(list(M)[rng.integers(len(M))])
        S = sy.FiniteSubset(G, S)
        reduce = (lambda v: v[0] % 9) if rank == 1 else (lambda v: tuple(x % 9 for x in v))
        images = [reduce(v) for v in S]
        if how == 1 and len(S) > 1:
            i, j = rng.choice(len(S), 2, replace=False)
            images[i], images[j] = images[j], images[i]
        elif how == 2:
            elements = list(F.elements())
            images = [elements[k] for k in rng.choice(len(elements), len(S), replace=False)]
        yield sy.LefEmbedding(G, S, F, dict(zip(S, images))), M


def _built_embeddings():
    """Every build_embedding kind, over the window of ball(1), checked against
    memories inside it, beyond it, and in another group."""
    Z, Z2, F2 = sy.FreeAbelianGroup(1), sy.FreeAbelianGroup(2), sy.FreeGroup(2)
    for G, spec in [(Z, None), (Z, {"kind": "modular", "N": 5}), (Z2, None), (F2, None),
                    (sy.FiniteGroup(symmetric_table(3)), None), (sy.SymmetricGroup(3), None),
                    (sy.ProductGroup([sy.FiniteGroup.cyclic(2), Z]), None)]:
        B1 = sy.ball(G, 1)
        e = sy.build_embedding(G, sy.set_product(G, B1, B1), spec)
        for M in (sy.ball(G, 0), B1, sy.ball(G, 2), sy.ball(Z2 if G == Z else Z, 1)):
            yield e, M


def test_verify_embedding_agrees_with_the_brute_force_oracle():
    verdicts = []
    for e, M in [*_hand_built_embeddings(), *_built_embeddings()]:
        verdict = _verdict(sy.verify_embedding, e, M)
        assert verdict == _verdict(oracle_verify_embedding, e, M)
        verdicts.append(verdict)
    # every outcome occurs: both verdicts and both refusals
    assert {v if isinstance(v, bool) else v[1] for v in verdicts} == {
        True, False, "embedded subset must contain M and M*M", "memory lives in the wrong group"}


def test_modular_embedding_minimal_default(Z):
    e = sy.build_embedding(Z, sy.ball(Z, 2), None)
    assert e.target.order() == 5
    e0 = sy.build_embedding(Z, sy.FiniteSubset(Z, [(0,)]), None)
    assert e0.target.order() == 1


def test_modular_embedding_of_rank_zero_builds_only_the_trivial_target():
    """Z^0 maps to Z/1 whatever N says; Z/2000 (a 4 * 10^6-entry table, over
    the default cap) is never built."""
    Z0 = sy.FreeAbelianGroup(0)
    e = sy.build_embedding(Z0, sy.ball(Z0, 1), {"kind": "modular", "N": 2000})
    assert e.target == sy.FiniteGroup.cyclic(1) and e.phi == {(): 0}


def test_modular_embedding_rank_two():
    Z2 = sy.FreeAbelianGroup(2)
    S = sy.ball(Z2, 1)
    e = sy.build_embedding(Z2, S, None)
    assert e.target.order() == 9  # 3 x 3
    assert sy.verify_embedding(e, sy.ball(Z2, 0))


def _least_injective_modulus(S):
    N = 1
    while len({tuple(x % N for x in v) for v in S}) < len(S):
        N += 1
    return N


def test_default_modulus_is_the_least_injective_one(monkeypatch):
    """The search from the pigeonhole bound finds the modulus of a plain
    upward scan on 800 seeded sets in Z^0 to Z^3, and on coordinates past
    int64. Past the cap it stops at the first N with N^2 over it, no larger
    than the least injective N, and the cyclic target refuses that N."""
    from symba.transport import _minimal_modulus

    rng = np.random.default_rng(5)
    for i in range(800):
        G, spread = sy.FreeAbelianGroup(i % 4), int(rng.integers(1, 60))
        S = sy.FiniteSubset(G, [tuple(rng.integers(-spread, spread + 1, G.rank).tolist())
                                for _ in range(int(rng.integers(1, 40)))])
        assert _minimal_modulus(S) == _least_injective_modulus(S)
    for elems in ([(0,), (10**30,)], [(0, 0), (2**64, 1), (2**64, 2**65)]):
        S = sy.FiniteSubset(sy.FreeAbelianGroup(len(elems[0])), elems)
        assert _minimal_modulus(S) == _least_injective_modulus(S) > 1
    set_cap(monkeypatch, "64")
    Z2 = sy.FreeAbelianGroup(2)
    line = sy.FiniteSubset(Z2, [(x, 0) for x in range(11)])
    assert _minimal_modulus(line) == 9 < _least_injective_modulus(line) == 11
    with pytest.raises(ResourceCapError, match="^multiplication table would have 81 entries"):
        sy.build_embedding(Z2, line, None)


@pytest.mark.parametrize("rank", [1, 2], ids=["Z", "one-axis-of-Z2"])
def test_default_modulus_over_the_cap_is_refused_at_once(rank):
    """M*M = {-1020, ..., 1020} along one axis: the least injective modulus,
    2041, is over the cap, and the search gives up within a second."""
    G = sy.FreeAbelianGroup(rank)
    M = sy.symmetrize(G, sy.FiniteSubset(G, [(i,) + (0,) * (rank - 1) for i in range(511)]))
    S = sy.set_product(G, M, M)
    started = time.perf_counter()
    with pytest.raises(ResourceCapError, match="^multiplication table would have"):
        sy.build_embedding(G, S, None)
    assert time.perf_counter() - started < 1.0


def test_ball_action_radius_below_the_word_length_is_refused(F2):
    with pytest.raises(InvalidInputError, match=r"^subset does not fit inside the radius-1 ball$"):
        sy.build_embedding(F2, sy.ball(F2, 2), {"kind": "ball_action", "radius": 1})


def test_ball_action_embedding_free_group(F2):
    S = sy.ball(F2, 2)
    e = sy.build_embedding(F2, S, None)
    assert isinstance(e.target, sy.SymmetricGroup)
    assert e.target.degree == 53
    # exhaustive injectivity over S plus the product rule over ball(1)
    images = [e.phi[s] for s in S]
    assert len(set(images)) == len(images)
    assert sy.verify_embedding(e, sy.ball(F2, 1))


def test_ball_action_build_multiplies_only_along_words(F2, monkeypatch):
    """The build makes one product per word of S, on the image of its
    prefix, and one per prefix outside S that it needs; it never checks the
    product rule over S x S, which `verify_embedding` checks over M x M
    where the embedding is used."""
    calls = []
    mul = sy.SymmetricGroup.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(sy.SymmetricGroup, "mul", counted)
    sparse = sy.FiniteSubset(F2, [(), (1, 2), (-2, -1)])
    for M in (sy.ball(F2, 2), sparse):
        S = sy.set_product(F2, M, M)
        prefixes = {w[:k] for w in S for k in range(1, len(w))} - set(S)
        calls.clear()
        e = sy.build_embedding(F2, S, {"kind": "ball_action", "radius": 4})
        assert e.target.degree == len(sy.ball(F2, 5))
        assert len(calls) <= len(S) + len(prefixes)
        assert sy.verify_embedding(e, M)
    assert len(prefixes) == 4


@pytest.mark.parametrize("radius", [3, 4])
def test_ball_action_images_are_letter_products(F2, radius):
    """phi(w) is the product of the letter permutations along w, composed
    here entry by entry (apply the last letter first)."""
    S = sy.ball(F2, 3)
    e = sy.build_embedding(F2, S, {"kind": "ball_action", "radius": radius})
    n = e.target.degree
    assert n == len(sy.ball(F2, radius + 1))
    letters = {x: e.phi[(x,)] for x in (1, 2, -1, -2)}
    for x in (1, 2):
        assert [letters[-x][letters[x][i]] for i in range(n)] == list(range(n))
    for w in S:
        product = list(range(n))
        for x in w:
            product = [product[letters[x][i]] for i in range(n)]
        assert e.phi[w] == tuple(product), w


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_ball_action_letters_match_oracle(rank, radius):
    """Each letter's permutation of ball(R+1), and its inverse letter's, equal
    the oracle's loop; at R = 0 only the identity word fits in the subset."""
    G = sy.FreeGroup(rank)
    S = sy.ball(G, radius)
    e = sy.build_embedding(G, S, {"kind": "ball_action", "radius": radius})
    n = len(sy.ball(G, radius + 1))
    assert e.target.degree == n and e.phi[()] == tuple(range(n))
    letters = oracle_ball_action_letters(G, radius)
    for i, perm in letters.items():
        if radius:
            assert e.phi[(i,)] == perm
            assert [e.phi[(-i,)][j] for j in perm] == list(range(n))


def test_ball_action_translation_structure(F2):
    """Each generator's permutation extends its partial left translation."""
    S = sy.ball(F2, 1)
    e = sy.build_embedding(F2, S, {"kind": "ball_action", "radius": 1})
    pts = sy.ball(F2, 2)
    for i in (1, 2):
        perm = e.phi[(i,)]
        for idx, x in enumerate(pts):
            y = F2.mul((i,), x)
            if y in pts:
                assert pts[perm[idx]] == y


def test_identity_embedding_finite():
    from conftest import symmetric_table

    G = sy.FiniteGroup(symmetric_table(3))
    S = sy.ball(G, 1)
    e = sy.build_embedding(G, S, None)
    assert e.target == G
    assert sy.verify_embedding(e, S)


def test_product_embedding_componentwise(Z):
    z2 = sy.FiniteGroup.cyclic(2)
    P = sy.ProductGroup([z2, Z])
    S = sy.ball(P, 2)
    e = sy.build_embedding(P, S, None)
    assert sy.verify_embedding(e, sy.ball(P, 1))


def test_embedding_radius_too_small_is_parameter_error(F2):
    S = sy.ball(F2, 2)
    with pytest.raises(InvalidInputError):
        sy.build_embedding(F2, S, {"kind": "ball_action", "radius": 1})


def test_transport_shift_is_cyclic_shift(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    M = sy.symmetrize(Z, shift.memory)
    shift_wide = sy.CellularAutomaton(Z, bit, sy.extend_memory(shift.rule, M))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    alpha = sy.transport_endomap(shift_wide, e)
    # independent construction: decode, read each cell from its successor
    radix = 2 ** np.arange(4, -1, -1)
    X = (np.arange(32)[:, None] // radix[None, :]) % 2
    shifted = np.roll(X, -1, axis=1)  # new value at h = old value at h+1
    assert np.array_equal(alpha.table, shifted @ radix)


def test_transport_identity_ca(Z, bit):
    ident = sy.identity_ca(Z, bit)
    e = sy.build_embedding(Z, sy.ball(Z, 0), None)
    alpha = sy.transport_endomap(ident, e)
    assert np.array_equal(alpha.table, np.arange(2))


def test_transport_reads_a_one_sided_memory_as_given(Z, bit):
    """The shift on memory {1} transports to the table of its copy widened to
    {-1, 0, 1}. An embedding that misses M*M = {2}, or M itself, is refused."""
    shift = sy.projection_ca(Z, bit, (1,))
    wide = sy.CellularAutomaton(Z, bit, sy.extend_memory(shift.rule, sy.symmetrize(Z, shift.memory)))
    e = sy.build_embedding(Z, sy.ball(Z, 2), None)
    alpha = sy.transport_endomap(shift, e)
    assert alpha.table.tobytes() == sy.transport_endomap(wide, e).table.tobytes()
    for S in (sy.ball(Z, 1), sy.FiniteSubset(Z, [(2,)])):
        with pytest.raises(InvalidInputError, match=r"^embedded subset must contain M and M\*M$"):
            sy.transport_endomap(shift, sy.build_embedding(Z, S, None))


def test_transport_matrix_flavor_dimensions(Z):
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau = sy.to_linear_ca(C, Z, A)
    M = sy.symmetrize(Z, tau.memory)
    tau_wide = sy.CellularAutomaton(Z, A, sy.extend_memory(tau.rule, M))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 8})
    alpha = sy.transport_endomap(tau_wide, e)
    assert alpha.matrix.shape == (16, 16)
    assert sy.invert_transport(alpha).matrix.shape == (16, 16)


def test_invert_transport_examples(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    M = sy.symmetrize(Z, shift.memory)
    shift_wide = sy.CellularAutomaton(Z, bit, sy.extend_memory(shift.rule, M))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    alpha = sy.transport_endomap(shift_wide, e)
    gamma = sy.invert_transport(alpha)
    assert np.array_equal(gamma.table[alpha.table], np.arange(32))

    # a non-injective transported map raises with a genuine collision
    xor = xor_ca(Z, bit, [(0,), (1,)])
    xor_wide = sy.CellularAutomaton(Z, bit, sy.extend_memory(xor.rule, M))
    beta = sy.transport_endomap(xor_wide, e)
    with pytest.raises(NotInvertibleError) as err:
        sy.invert_transport(beta)
    u, v = err.value.witness
    assert u != v
    radix = 2 ** np.arange(4, -1, -1)
    assert beta.table[int(np.array(u) @ radix)] == beta.table[int(np.array(v) @ radix)]


def test_invert_transport_witness_is_smallest_repeated_value(Z, bit):
    """Indices 0 and 1 collide first, on value 5; the witness is the first
    two preimages of the smallest repeated value, 2, at indices 2 and 4."""
    e = sy.build_embedding(Z, sy.ball(Z, 1), {"kind": "modular", "N": 3})
    table = np.array([5, 5, 2, 0, 2, 1, 3, 4], dtype=np.int64)
    alpha = sy.TransportedEndomap(e, bit, (0, 1, 2), table=table)
    with pytest.raises(NotInvertibleError) as err:
        sy.invert_transport(alpha)
    assert err.value.witness == ((0, 1, 0), (1, 0, 0))


def _endomap_of_z18(Z, bit, table):
    e = sy.build_embedding(Z, sy.ball(Z, 1), {"kind": "modular", "N": 18})
    return sy.TransportedEndomap(e, bit, tuple(range(18)), table=table)


def test_invert_transport_late_collision_on_a_large_table(Z, bit):
    """One collision near the end of 2^18 configurations: the witness is the
    first two preimages of the smallest value hit twice, as counted by bincount."""
    rng = np.random.default_rng(18)
    table = rng.permutation(1 << 18)
    table[-1] = table[-5]
    counts = np.bincount(table, minlength=table.size)
    first_two = np.flatnonzero(table == np.flatnonzero(counts > 1)[0])[:2]
    assert first_two.tolist() == [table.size - 5, table.size - 1]
    expected = tuple(tuple(int(d) for d in np.binary_repr(i, 18)) for i in first_two)
    with pytest.raises(NotInvertibleError) as err:
        sy.invert_transport(_endomap_of_z18(Z, bit, table))
    assert err.value.witness == expected


def test_invert_transport_of_a_large_permutation_is_its_argsort(Z, bit):
    table = np.random.default_rng(19).permutation(1 << 18)
    gamma = sy.invert_transport(_endomap_of_z18(Z, bit, table))
    assert np.array_equal(gamma.table, np.argsort(table))


def test_pipeline_bijective_transport_that_does_not_lift(Z, bit):
    """The 3-cell xor is bijective on Z/5 but has no inverse on Z: the
    pipeline raises with the candidate rule and both check outcomes."""
    xor = xor_ca(Z, bit, [(-1,), (0,), (1,)])
    M = sy.symmetrize(Z, xor.memory)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    with pytest.raises(sy.UncertifiedInverseError) as err:
        sy.transport_inverse_pipeline(xor, e)
    nu = err.value.ca
    assert (err.value.left, err.value.right) == (
        sy.check_left_inverse(nu, xor),
        sy.check_right_inverse(nu, xor),
    )
    assert not (err.value.left and err.value.right)


def test_pipeline_shift_both_embeddings(Z, bit):
    shift = sy.projection_ca(Z, bit, (1,))
    back = sy.projection_ca(Z, bit, (-1,))
    M = sy.symmetrize(Z, shift.memory)
    S = sy.set_product(Z, M, M)
    for N in (5, 8):
        e = sy.build_embedding(Z, S, {"kind": "modular", "N": N})
        result = sy.transport_inverse_pipeline(shift, e)
        assert result.report["left_certified"] and result.report["right_certified"]
        assert sy.same_action(result.ca, back)
        assert sy.check_equivariance(result.alpha)


def test_pipeline_identity(Z, bit):
    ident = sy.identity_ca(Z, bit)
    e = sy.build_embedding(Z, sy.ball(Z, 0), None)
    result = sy.transport_inverse_pipeline(ident, e)
    assert sy.same_action(result.ca, ident)


def test_pipeline_linear_pair_with_hint(Z):
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau, sig = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
    M = sy.common_memory(sig, tau)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 8})
    result = sy.transport_inverse_pipeline(tau, e, sigma_hint=sig)
    assert result.rule.map.is_matrix  # structure preserved through the pipeline
    assert result.report["beta_alpha_identity"]
    assert sy.same_action(result.ca, sig)
    assert sy.check_equivariance(result.alpha)


def test_beta_alpha_identity_follows_left_inverse(Z, bit):
    """Transporting a valid inverse pair gives composing-to-identity maps."""
    fwd = sy.projection_ca(Z, bit, (1,))
    back = sy.projection_ca(Z, bit, (-1,))
    M = sy.common_memory(back, fwd)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    fwd_w = sy.CellularAutomaton(Z, bit, sy.extend_memory(fwd.rule, M))
    back_w = sy.CellularAutomaton(Z, bit, sy.extend_memory(back.rule, M))
    alpha = sy.transport_endomap(fwd_w, e)
    beta = sy.transport_endomap(back_w, e)
    assert sy.composes_to_identity(beta, alpha)
    assert sy.check_equivariance(alpha) and sy.check_equivariance(beta)


def _hinted_pair(G, p, d, seed, representation):
    """A seeded tau, its inverse and a false hint (one coefficient off)."""
    C, D = sy.random_invertible_matrix(G, seed=seed, d=d, r=1, modulus=p, factors=4)
    A = sy.Alphabet.module(p, d)
    tau, sigma = sy.to_linear_ca(C, G, A), sy.to_linear_ca(D, G, A)
    mats = sigma.rule.map.matrices.copy()
    mats[0, 0, 0] = (mats[0, 0, 0] + 1) % p
    wrong = sy.StructuredMap(A, len(sigma.memory), matrices=mats)

    def as_ca(memory, smap):
        smap = smap if representation == "matrix" else smap.expand_table()
        return sy.CellularAutomaton(G, A, sy.LocalRule(memory, smap))

    return as_ca(tau.memory, tau.rule.map), [
        (as_ca(sigma.memory, sigma.rule.map), True),
        (as_ca(sigma.memory, wrong), False),
    ]


def _s3_times_c3():
    return sy.ProductGroup([sy.FiniteGroup(symmetric_table(3)), sy.FiniteGroup.cyclic(3)])


def _shift(G, A, s):
    """The matrix rule reading the cell g*s."""
    eye = sy.StructuredMap(A, 1, matrices=[np.eye(A.dim, dtype=np.int64)])
    return sy.CellularAutomaton(G, A, sy.LocalRule(sy.FiniteSubset(G, [s]), eye))


def _one_sided_triple(G, p, d, seed, s):
    """A seeded matrix rule tau0 after the shift by s, its inverse (the shift
    back after sigma0), and the shift back alone, a hint that is false unless
    tau0 is the identity: memories M0*s, s^-1*M0 and {s^-1}, none symmetric."""
    C, D = sy.random_invertible_matrix(G, seed=seed, d=d, r=1, modulus=p, factors=2)
    A = sy.Alphabet.module(p, d)
    back = _shift(G, A, G.inv(s))
    cas = [sy.compose(sy.to_linear_ca(C, G, A), _shift(G, A, s)),
           sy.compose(back, sy.to_linear_ca(D, G, A)), back]
    for ca in cas:
        assert sy.symmetrize(G, ca.memory) != ca.memory
    return cas


def _along_letter(ca, F2):
    """A matrix rule on Z read along the letter a of F2: cell k becomes a^k."""
    word = lambda m: (1,) * m[0] if m[0] >= 0 else (-1,) * -m[0]
    family = dict(zip(map(word, ca.memory), ca.rule.map.matrices))
    memory = sy.FiniteSubset(F2, family)
    smap = sy.StructuredMap(ca.alphabet, len(memory), matrices=[family[w] for w in memory])
    return sy.CellularAutomaton(F2, ca.alphabet, sy.LocalRule(memory, smap))


def _letter_embedding(F2, S):
    """a^k -> k mod N on a subset of powers of a, N past its diameter: the
    restriction of a homomorphism F2 -> Z/N (the ball action's target would
    be a symmetric group of degree 53 or more)."""
    power = {w: len(w) if not w or w[0] > 0 else -len(w) for w in S}
    N = 2 * max(map(abs, power.values())) + 1
    return sy.LefEmbedding(F2, S, sy.FiniteGroup.cyclic(N), {w: k % N for w, k in power.items()})


def _one_sided_cases(kind, representation):
    """Three seeded one-sided triples on a universe, each with an embedding of
    M*M, M the symmetrized union of their memories. On F2 the rules live on
    the powers of a, so that a cyclic target holds M*M."""
    p, d = (2, 1) if representation == "table" else (3, 1 if kind == "Z2" else 2)
    G, s = {"Z": (sy.FreeAbelianGroup(1), (1,)), "F2": (sy.FreeAbelianGroup(1), (1,)),
            "Z2": (sy.FreeAbelianGroup(2), (1, 0)), "S3xC3": (_s3_times_c3(), (1, 1))}[kind]
    for seed in range(3):
        cas = _one_sided_triple(G, p, d, seed, s)
        if kind == "F2":
            cas = [_along_letter(ca, sy.FreeGroup(2)) for ca in cas]
        U = cas[0].universe
        if representation == "table":
            as_table = lambda ca: sy.LocalRule(ca.memory, ca.rule.map.expand_table())
            cas = [sy.CellularAutomaton(U, ca.alphabet, as_table(ca)) for ca in cas]
        M = sy.symmetrize(U, cas[0].memory.union(cas[1].memory).union(cas[2].memory))
        S = sy.set_product(U, M, M)
        yield cas, _letter_embedding(U, S) if kind == "F2" else sy.build_embedding(U, S, None)


def _outputs(tau, e, hint):
    """The pipeline's alpha, gamma, nu and report, as bytes and JSON, or its
    uncertified rule and both verdicts."""
    try:
        result = sy.transport_inverse_pipeline(tau, e, sigma_hint=hint)
    except UncertifiedInverseError as err:
        return serialize.canonical_dumps(serialize.ca_to_json(err.ca)), (err.left, err.right)
    maps = [m.matrix if m.is_matrix else m.table for m in (result.alpha, result.gamma)]
    nu = serialize.canonical_dumps(serialize.ca_to_json(result.ca))
    return [(m.dtype.str, m.shape, m.tobytes()) for m in maps], nu, result.report


@pytest.mark.parametrize(
    "kind, representation",
    [("Z", "table"), ("Z", "matrix"), ("Z2", "matrix"), ("F2", "table"), ("F2", "matrix"),
     ("S3xC3", "table"), ("S3xC3", "matrix")],
)
def test_pipeline_on_tau_as_given_equals_the_pipeline_on_tau_widened(kind, representation):
    """Byte for byte: transporting tau on its own one-sided memory gives the
    alpha, gamma, nu and report of transporting its copy widened to the
    inverse's memory, with no hint, the true hint and the shift back. Without
    the true hint the inverse's memory may miss sigma's, and both routes then
    return the same uncertified rule."""
    certified = 0
    for (tau, sigma, back), e in _one_sided_cases(kind, representation):
        G, A = tau.universe, tau.alphabet
        for hint in (None, sigma, back):
            M = sy.common_memory(hint or tau, tau)
            wide = sy.CellularAutomaton(G, A, sy.extend_memory(tau.rule, M))
            outputs = _outputs(tau, e, hint)
            assert outputs == _outputs(wide, e, hint)
            report = outputs[-1]
            if hint is sigma:
                assert report["beta_alpha_identity"] is True
                assert report["representation"] == representation
            certified += isinstance(report, dict)
    assert certified >= 7  # of 9


def test_pipeline_widens_no_rule(monkeypatch):
    """Seeded table and matrix pipelines on Z run with extend_memory and
    StructuredMap.reindexed refusing: tau is transported as given."""
    from symba import ca

    cases = [case for rep in ("table", "matrix") for case in _one_sided_cases("Z", rep)]

    def refuse(*args):
        raise AssertionError("a rule was widened")

    for owner, name in [(sy, "extend_memory"), (ca, "extend_memory"), (sy.StructuredMap, "reindexed")]:
        monkeypatch.setattr(owner, name, refuse)
    for (tau, sigma, back), e in cases:
        for hint in (None, sigma, back):
            result = sy.transport_inverse_pipeline(tau, e, sigma_hint=hint)
            assert result.report["left_certified"] and result.report["right_certified"]


@pytest.mark.parametrize("G", [functools.partial(sy.FreeAbelianGroup, 2), _s3_times_c3])
def test_hinted_matrix_pipeline_walks_the_division_index_once(G, monkeypatch):
    """(Z/N)^2 and S3xC3 need a division index; the transport keeps the one
    it expanded with, so inverting it walks the carrier no second time."""
    from symba import transport

    G = G()
    tau, [(hint, _), _] = _hinted_pair(G, 3, 1, 0, "matrix")
    M = sy.common_memory(hint, tau)
    e = sy.build_embedding(G, sy.set_product(G, M, M), None)
    calls = []
    counted = lambda carrier: calls.append(carrier) or division_index(carrier)
    monkeypatch.setattr(transport, "division_index", counted)
    result = transport.transport_inverse_pipeline(tau, e, sigma_hint=hint)
    assert result.report["beta_alpha_identity"] is True
    assert calls == [result.alpha.carrier]
    assert result.alpha._division is result.gamma._division is not None


# G is a factory, called in the test under the default caps; a partial has
# no __name__, so pytest still names each one G<i>.
@pytest.mark.parametrize(
    "G, modulus, p, d, representation",
    [(functools.partial(sy.FreeAbelianGroup, 1), modulus, p, d, representation)
     for modulus in ("minimal", "wide")
     for p, d, representation in [(2, 2, "table"), (3, 2, "matrix")]]
    + [(functools.partial(_s3_times_c3), None, p, d, representation)
       for p, d, representation in [(2, 1, "table"), (3, 2, "matrix")]],
)
def test_hint_verdict_on_the_universe_is_the_transported_composite(
    G, modulus, p, d, representation
):
    """The pipeline decides a hint by check_left_inverse on G; transporting
    both rules and composing them on A^F gives the same verdict. Z at its
    minimal modulus and at one above the diameter of M*M, S3xC3 by the
    identity embedding."""
    G = G()
    for seed in range(3):
        tau, hints = _hinted_pair(G, p, d, seed, representation)
        A = tau.alphabet
        M = sy.common_memory(hints[0][0], tau)
        S = sy.set_product(G, M, M)
        spec = {"kind": "modular", "N": 2 * max(abs(s[0]) for s in S) + 2}
        e = sy.build_embedding(G, S, spec if modulus == "wide" else None)
        widen = lambda ca: sy.CellularAutomaton(G, A, sy.extend_memory(ca.rule, M))
        alpha = sy.transport_endomap(widen(tau), e)
        assert alpha.is_matrix == (representation == "matrix")
        for hint, expected in hints:
            beta = sy.transport_endomap(widen(hint), e)
            assert sy.check_left_inverse(hint, tau) == expected
            assert sy.composes_to_identity(beta, alpha) == expected
            report = sy.transport_inverse_pipeline(tau, e, sigma_hint=hint).report
            assert report["beta_alpha_identity"] is expected


def test_transported_endomap_needs_exactly_one_representation(Z, bit):
    e = sy.build_embedding(Z, sy.ball(Z, 1), {"kind": "modular", "N": 3})
    both = {"table": np.arange(8), "matrix": np.eye(3, dtype=np.int64)}
    for call in (sy.invert_transport, sy.check_equivariance):
        for given in ({}, both):
            with pytest.raises(InvalidInputError, match="^give exactly one of table / matrix$"):
                call(sy.TransportedEndomap(e, bit, (0, 1, 2), **given))


def test_mixed_representation_hint_takes_one_transport(Z, monkeypatch):
    """A table hint for a matrix rule is decided on Z; only tau is transported."""
    from symba import transport

    A = sy.Alphabet.module(2, 1)
    smap = sy.StructuredMap(A, 1, matrices=[[[1]]])
    shift = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, [(1,)]), smap))
    back = sy.projection_ca(Z, A, (-1,))
    M = sy.common_memory(back, shift)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    calls = []
    transported = transport._transported  # the pipeline's transport, after its one check
    counted = lambda tau, e: calls.append(tau) or transported(tau, e)
    monkeypatch.setattr(transport, "_transported", counted)
    for hint, expected in [(back, True), (sy.identity_ca(Z, A), False)]:
        result = transport.transport_inverse_pipeline(shift, e, sigma_hint=hint)
        assert result.report["representation"] == "matrix"
        assert result.report["beta_alpha_identity"] is expected
    assert len(calls) == 2


@pytest.mark.parametrize("representation", ["table", "matrix"])
def test_pipeline_verifies_its_embedding_once(representation, monkeypatch):
    """Hinted or not, the pipeline checks its embedding once, over the
    inverse's memory M, which holds tau's; its alpha, gamma, nu and report
    are those of the public steps, transport_endomap checking on its own."""
    from symba import transport

    (tau, sigma, _), e = next(_one_sided_cases("Z", representation))
    G, A = tau.universe, tau.alphabet
    for hint in (None, sigma):
        M = sy.common_memory(hint or tau, tau)
        alpha = sy.transport_endomap(tau, e)
        gamma = sy.invert_transport(alpha)
        nu = sy.CellularAutomaton(G, A, sy.extract_local_rule(gamma, e, M, A))
        report = {"alpha": dict.fromkeys(["injective", "surjective", "bijective"], True),
                  "target_order": len(alpha.carrier), "representation": representation,
                  "left_certified": True, "right_certified": True}
        if hint is not None:
            report["beta_alpha_identity"] = True
        maps = [m.matrix if m.is_matrix else m.table for m in (alpha, gamma)]
        expected = ([(m.dtype.str, m.shape, m.tobytes()) for m in maps],
                    serialize.canonical_dumps(serialize.ca_to_json(nu)), report)
        calls = []
        verify = transport.verify_embedding
        with monkeypatch.context() as patch:
            patch.setattr(transport, "verify_embedding", lambda e, M: calls.append(M) or verify(e, M))
            assert _outputs(tau, e, hint) == expected
        assert calls == [M]


def test_hint_over_another_alphabet_is_invalid_input(Z, bit):
    """common_memory refuses the hint, as check_left_inverse would."""
    shift = sy.projection_ca(Z, bit, (1,))
    M = sy.common_memory(shift, shift)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), None)
    for hint, message in [
        (sy.projection_ca(Z, sy.Alphabet.plain(3), (-1,)), "automata use different alphabets"),
        (sy.projection_ca(sy.FreeAbelianGroup(2), bit, (-1, 0)), "automata live over different universes"),
    ]:
        for refused in (lambda: sy.transport_inverse_pipeline(shift, e, sigma_hint=hint),
                        lambda: sy.check_left_inverse(hint, shift)):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                refused()


def test_check_equivariance_sees_one_broken_configuration(Z, bit):
    """nF = 17, q = 2: 2^17 configurations, two scan chunks.

    The all-ones configuration is fixed by every translation, so a break
    there shows only at that configuration, the last one of the last chunk.
    """
    tau = xor_ca(Z, bit, [(-1,), (0,), (1,)])
    e = sy.build_embedding(Z, sy.ball(Z, 2), {"kind": "modular", "N": 17})
    alpha = sy.transport_endomap(tau, e)
    assert alpha.table.size == 1 << 17
    broken = alpha.table.copy()
    as_endomap = lambda t: sy.TransportedEndomap(e, bit, alpha.carrier, table=t)
    for config in [(1 << 16) + 5, (1 << 17) - 1]:
        broken[config] ^= 1
        assert not sy.check_equivariance(as_endomap(broken))
        broken[config] = alpha.table[config]
        assert sy.check_equivariance(as_endomap(broken))


def test_check_equivariance_sees_one_broken_matrix_entry(Z):
    """The matrix twin: one changed entry of a transported block matrix."""
    C, _ = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau = sy.to_linear_ca(C, Z, A)
    M = sy.symmetrize(Z, tau.memory)
    tau_wide = sy.CellularAutomaton(Z, A, sy.extend_memory(tau.rule, M))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 8})
    alpha = sy.transport_endomap(tau_wide, e)
    as_endomap = lambda m: sy.TransportedEndomap(e, A, alpha.carrier, matrix=m)
    broken = alpha.matrix.copy()
    broken[5, 12] ^= 1
    assert not sy.check_equivariance(as_endomap(broken))
    broken[5, 12] = alpha.matrix[5, 12]
    assert sy.check_equivariance(as_endomap(broken))
    broken[5, 12] += A.modulus  # the same map mod p
    assert sy.check_equivariance(as_endomap(broken))


def _c3xc3_via_z2():
    Z2 = sy.FreeAbelianGroup(2)
    return sy.build_embedding(Z2, sy.ball(Z2, 1), {"kind": "modular", "N": 3})


def _s3xc3():
    G = _s3_times_c3()
    return sy.build_embedding(G, sy.FiniteSubset(G, G.elements()), None)


def _closure(F, gens):
    span, frontier = {F.identity()}, [F.identity()]
    while frontier:
        frontier = [v for v in {F.mul(u, g) for u in frontier for g in gens} if v not in span]
        span.update(frontier)
    return span


@pytest.mark.parametrize("make_embedding", [_c3xc3_via_z2, _s3xc3])
def test_greedy_generators_generate_the_target(make_embedding):
    e = make_embedding()
    F = e.target
    carrier = tuple(F.elements())
    gens = greedy_generators(F.mul, F.identity(), carrier)
    assert gens[0] == carrier[1]
    assert _closure(F, gens) == set(carrier)
    # each generator lies outside the subgroup the earlier ones generate
    assert all(g not in _closure(F, gens[:i]) for i, g in enumerate(gens))


@pytest.mark.parametrize("make_embedding", [_c3xc3_via_z2, _s3xc3])
def test_check_equivariance_sees_a_later_generator(make_embedding, bit):
    """alpha(x) = x o rho commutes with the first greedy generator g only.

    rho(u) = u*g on the subgroup H = <g> and u elsewhere; H is invariant
    under left translation by g, so alpha commutes with it, but not with a
    translation moving H off itself. Right translation by g on all of F
    commutes with every left translation.
    """
    e = make_embedding()
    F = e.target
    carrier = tuple(F.elements())
    at = {h: i for i, h in enumerate(carrier)}
    g = carrier[1]
    H = _closure(F, [g])
    assert len(H) < len(carrier)
    rho = np.array([at[F.mul(u, g)] if u in H else at[u] for u in carrier])
    n = len(carrier)
    radix = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    X = (np.arange(2**n, dtype=np.int64)[:, None] // radix) % 2
    table = X[:, rho] @ radix

    def commutes(h):
        perm = [at[F.mul(F.inv(h), u)] for u in carrier]
        return np.array_equal(table[X[:, perm] @ radix], X[table][:, perm] @ radix)

    assert commutes(g)
    assert not all(commutes(h) for h in carrier)
    as_endomap = lambda t: sy.TransportedEndomap(e, bit, carrier, table=t)
    assert not sy.check_equivariance(as_endomap(table))
    right = np.array([at[F.mul(u, g)] for u in carrier])
    assert sy.check_equivariance(as_endomap(X[:, right] @ radix))


def _transport_case(kind, q):
    A = sy.Alphabet.plain(q)
    if kind == "C3xC3":
        G = sy.ProductGroup([sy.FiniteGroup.cyclic(3)] * 2)
        M = sy.FiniteSubset(G, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
        e = sy.build_embedding(G, sy.set_product(G, M, M), None)
    elif kind == "S3xC3":
        e = _s3xc3()
        G = e.source
        M = sy.symmetrize(G, sy.FiniteSubset(G, [(1, 0), (0, 1)]))
    else:
        G = sy.FreeAbelianGroup(1)
        M = sy.ball(G, 1)
        e = sy.build_embedding(G, sy.ball(G, 2), {"kind": "modular", "N": kind})
    table = random_pointed_table(np.random.default_rng(q), A, len(M))
    return make_table_ca(G, A, list(M), table), e


@pytest.mark.parametrize(
    "kind, q",
    [(7, 2), (17, 2), (6, 3), (11, 3), (12, 3), (9, 4), ("C3xC3", 2), ("C3xC3", 3),
     ("C3xC3", 4), ("S3xC3", 2)],
)
def test_transport_table_matches_cell_by_cell_oracle(kind, q):
    """Z/N, C3xC3 and S3xC3; 3^11, 3^12, 4^9, 2^17 and 2^18 span several blocks."""
    tau, e = _transport_case(kind, q)
    alpha = sy.transport_endomap(tau, e)
    assert np.array_equal(alpha.table, oracle_transport_table(tau, e))
    assert sy.check_equivariance(alpha)


def test_invert_transport_rejects_composite_modulus(Z):
    """x -> 2x over Z/4 is not injective; elimination mod 4 must refuse it."""
    A = sy.Alphabet.module(4, 1)
    M = sy.ball(Z, 1)
    double = sy.LocalRule(sy.FiniteSubset(Z, [(0,)]), sy.StructuredMap(A, 1, matrices=[[[2]]]))
    tau = sy.CellularAutomaton(Z, A, sy.extend_memory(double, M))
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    alpha = sy.transport_endomap(tau, e)
    with pytest.raises(UnsupportedModulusError):
        sy.invert_transport(alpha)


def test_transport_cap_enforced(Z, monkeypatch):
    big = sy.Alphabet.plain(3)
    ident = sy.identity_ca(Z, big)
    M = sy.symmetrize(Z, ident.memory)
    e = sy.build_embedding(Z, sy.ball(Z, 4), {"kind": "modular", "N": 9})
    set_cap(monkeypatch, "100")
    with pytest.raises(ResourceCapError):
        sy.transport_endomap(
            sy.CellularAutomaton(Z, big, sy.extend_memory(ident.rule, M)), e
        )


def test_direct_finiteness_reports(Z, bit):
    """Direct finiteness is decided by the two inverse checks: the shift
    pair and the linear pair C/D are two-sided inverses, identity against
    xor is neither (so left implies right holds vacuously)."""
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    cases = [
        (sy.projection_ca(Z, bit, (-1,)), sy.projection_ca(Z, bit, (1,)), True),
        (sy.to_linear_ca(D, Z, A), sy.to_linear_ca(C, Z, A), True),
        (sy.identity_ca(Z, bit), xor_ca(Z, bit, [(0,), (1,)]), False),
    ]
    for sigma, tau, holds in cases:
        left = sy.check_left_inverse(sigma, tau)
        right = sy.check_right_inverse(sigma, tau)
        assert (left, right) == (holds, holds)
        assert (not left) or right


def _z_mod_7():
    Z = sy.FreeAbelianGroup(1)
    return sy.build_embedding(Z, sy.ball(Z, 2), {"kind": "modular", "N": 7})


def _rank0_default():
    Z0 = sy.FreeAbelianGroup(0)
    return sy.build_embedding(Z0, sy.ball(Z0, 1), None)


def _rank0_identity():
    """The rank-0 lattice as its own target."""
    Z0 = sy.FreeAbelianGroup(0)
    return sy.LefEmbedding(Z0, sy.FiniteSubset(Z0, [()]), Z0, {(): ()})


@pytest.mark.parametrize(
    "make_embedding", [_z_mod_7, _c3xc3_via_z2, _s3xc3, _rank0_default, _rank0_identity]
)
def test_carrier_order_is_the_target_enumeration(make_embedding, bit):
    e = make_embedding()
    tau = sy.identity_ca(e.source, bit)
    alpha = sy.transport_endomap(tau, e)
    assert tuple(alpha.carrier) == tuple(e.target.elements())


def _cell_by_cell_image(mats, memory, N, config, p):
    """alpha(config) on Z/N for a matrix rule over (Z/p)^2, one cell at a time."""
    vec = lambda i: np.array([i // p, i % p])
    out = []
    for h in range(N):
        acc = sum(np.array(mat) @ vec(config[(h + m[0]) % N]) for mat, m in zip(mats, memory))
        out.append(tuple(int(x) % p for x in acc))
    return out


@pytest.mark.parametrize(
    "memory, mats, N",
    [
        ([(0,)], [[[1, 0], [0, 0]]], 3),
        ([(0,), (1,)], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], 6),
        ([(-1,), (1,)], [[[1, 1], [0, 1]], [[1, 1], [0, 1]]], 5),
    ],
)
def test_singular_matrix_witness_collides_cell_by_cell(Z, memory, mats, N):
    """The witness is two configurations of Z/N over (Z/2)^2 with one image."""
    A = sy.Alphabet.module(2, 2)
    smap = sy.StructuredMap(A, len(memory), matrices=mats)
    tau = sy.CellularAutomaton(Z, A, sy.LocalRule(sy.FiniteSubset(Z, memory), smap))
    M = sy.symmetrize(Z, tau.memory)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": N})
    with pytest.raises(NotInvertibleError) as err:
        sy.transport_inverse_pipeline(tau, e)
    x, y = err.value.witness
    assert len(x) == len(y) == N and x != y
    assert all(0 <= v < A.size for v in x + y)
    image = lambda c: _cell_by_cell_image(mats, memory, N, c, 2)
    assert image(x) == image(y)


def _c3xc3():
    G = sy.ProductGroup([sy.FiniteGroup.cyclic(3)] * 2)
    return sy.build_embedding(G, sy.FiniteSubset(G, G.elements()), None)


# Z/6 relabelled so that label 1 names 3, of order 2: _Z6_LABELS[k] names k
_Z6_LABELS = [0, 2, 3, 1, 4, 5]
def _z6_relabelled():
    return sy.FiniteGroup(
        [[_Z6_LABELS[(a + b) % 6] for b in np.argsort(_Z6_LABELS)] for a in np.argsort(_Z6_LABELS)]
    )


@pytest.mark.parametrize(
    "target",
    [functools.partial(sy.FiniteGroup.cyclic, N) for N in (1, 2, 7, 12)]
    + [lambda: sy.FiniteGroup(symmetric_table(3)), functools.partial(sy.FreeAbelianGroup, 0)]
    + [lambda: _c3xc3_via_z2().target, lambda: _s3xc3().target]
    + [lambda: sy.FiniteGroup(sy.FiniteGroup.cyclic(12).table), _z6_relabelled],
    ids=["Z1", "Z2", "Z7", "Z12", "S3", "Z^0", "C3xC3", "S3xC3", "Z12-validated", "Z6-relabelled"],
)
def test_division_index_matches_group_products(target):
    """The walk matches group products; only Z/N in its natural labelling is Z/N."""
    target = target()  # built here, under the default caps
    carrier = sy.FiniteSubset(target, target.elements())
    assert np.array_equal(division_index(carrier), oracle_division_index(target))
    natural = isinstance(target, sy.FiniteGroup) and target == sy.FiniteGroup.cyclic(target.size)
    assert (_cyclic_order(carrier) is not None) == natural


def _random_matrix_rule(kind, p, d, rng):
    """A seeded matrix rule on a symmetric memory, and an embedding to its target."""
    if kind in ("C3xC3", "S3xC3"):
        e = _c3xc3() if kind == "C3xC3" else _s3xc3()
        G = e.source
        M = sy.symmetrize(G, sy.FiniteSubset(G, [(1, 0), (0, 1)]))
    elif kind in (1, 2, "S3", "Z6-relabelled"):  # finite universes, embedded as themselves
        G, gens = {
            1: (sy.FiniteGroup.cyclic(1), []),
            2: (sy.FiniteGroup.cyclic(2), [1]),
            "S3": (sy.SymmetricGroup(3), [(1, 0, 2), (1, 2, 0)]),
            "Z6-relabelled": (_z6_relabelled(), [_Z6_LABELS[1]]),
        }[kind]
        e = sy.build_embedding(G, sy.FiniteSubset(G, G.elements()), None)
        M = sy.symmetrize(G, sy.FiniteSubset(G, gens))
    else:
        G = sy.FreeAbelianGroup(1)
        M = sy.ball(G, 1)
        e = sy.build_embedding(G, sy.set_product(G, M, M), {"kind": "modular", "N": kind})
    A = sy.Alphabet.module(p, d)
    smap = sy.StructuredMap(A, len(M), matrices=rng.integers(0, p, (len(M), d, d)))
    return sy.CellularAutomaton(G, A, sy.LocalRule(M, smap)), e


def _random_matrix_transport(kind, p, d, rng):
    """A seeded matrix rule on a symmetric memory, transported to its target."""
    return sy.transport_endomap(*_random_matrix_rule(kind, p, d, rng))


@pytest.mark.parametrize("kind", [1, 2, 5, 12, "C3xC3", "S3xC3", "S3", "Z6-relabelled"])
def test_transport_matrix_matches_cell_by_cell_oracle(kind):
    """The expansion of the identity's block row is the matrix built cell by
    cell, byte for byte, on Z/N and off it (SymmetricGroup(3) is a carrier
    that is no FiniteGroup)."""
    rng = np.random.default_rng(13)
    for p, d in [(2, 1), (3, 2), (7, 3)]:
        tau, e = _random_matrix_rule(kind, p, d, rng)
        alpha = sy.transport_endomap(tau, e)
        expected = oracle_transport_matrix(tau, e)
        assert alpha.matrix.dtype == expected.dtype and alpha.matrix.shape == expected.shape
        assert alpha.matrix.tobytes() == expected.tobytes()


def test_relabelled_cyclic_group_takes_the_dense_route(monkeypatch):
    """Z/6 with element 1 of order 2 is no Z/N in its natural order, so its
    transports are inverted by left_solve, byte for byte as linalg.invert."""
    rng = np.random.default_rng(14)

    def refuse(*args):
        raise AssertionError("ring route taken off Z/N")

    monkeypatch.setattr(linalg, "cyclic_inverse", refuse)
    inverted = 0
    for p, d in MATRIX_FAMILY:
        alpha = _random_matrix_transport("Z6-relabelled", p, d, rng)
        full = linalg.invert(alpha.matrix, p)
        if full is None:
            with pytest.raises(NotInvertibleError):
                sy.invert_transport(alpha)
            continue
        inverted += 1
        gamma = sy.invert_transport(alpha)
        assert gamma.matrix.dtype == full.dtype and gamma.matrix.tobytes() == full.tobytes()
    assert inverted


MATRIX_TARGETS = [5, 12, "C3xC3", "S3xC3"]
MATRIX_FAMILY = [(2, 1), (2, 2), (3, 1), (3, 2)] * 4


@pytest.mark.parametrize("kind", MATRIX_TARGETS)
def test_block_row_inverse_is_the_full_inverse(kind):
    """Byte for byte linalg.invert's inverse; singular verdicts and witnesses
    (the first nullspace_basis vector, cell by cell) as before."""
    rng = np.random.default_rng(11)
    singular = []
    for p, d in MATRIX_FAMILY:
        alpha = _random_matrix_transport(kind, p, d, rng)
        full = linalg.invert(alpha.matrix, p)
        singular.append(full is None)
        if full is None:
            with pytest.raises(NotInvertibleError) as err:
                sy.invert_transport(alpha)
            z = linalg.nullspace_basis(alpha.matrix, p)[0]
            x = tuple(alpha.alphabet.cell_values(z).tolist())
            assert err.value.witness == (x, (0,) * len(x))
        else:
            gamma = sy.invert_transport(alpha)
            assert gamma.matrix.dtype == full.dtype and gamma.matrix.shape == full.shape
            assert gamma.matrix.tobytes() == full.tobytes()
    assert any(singular) and not all(singular)


@pytest.mark.parametrize("kind", MATRIX_TARGETS)
def test_block_row_composite_check_agrees_with_the_full_product(kind):
    rng = np.random.default_rng(12)
    verdicts = set()
    for p, d in MATRIX_FAMILY:
        alpha = _random_matrix_transport(kind, p, d, rng)
        betas = [alpha, _random_matrix_transport(kind, p, d, rng)]
        full = linalg.invert(alpha.matrix, p)
        if full is not None:
            A = alpha.alphabet
            betas.append(sy.TransportedEndomap(alpha.embedding, A, alpha.carrier, matrix=full))
        identity = np.eye(len(alpha.matrix), dtype=np.int64)
        for beta in betas:
            expected = np.array_equal(linalg.matmul(beta.matrix, alpha.matrix, p), identity)
            assert sy.composes_to_identity(beta, alpha) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def _matrices_on(Z, N):
    """The matrix rule C of pair_CD over (Z/2)^2, transported to Z/N."""
    C, _ = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau = sy.to_linear_ca(C, Z, A)
    M = sy.symmetrize(Z, tau.memory)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": N})
    return sy.transport_endomap(sy.CellularAutomaton(Z, A, sy.extend_memory(tau.rule, M)), e)


def test_broken_wrap_around_block_is_seen_on_z_mod_8(Z):
    """Block (N - 1, 0) is block 1 of the row, read from the doubled row's
    wrap-around: one changed entry there is not F-equivariant."""
    alpha, A = _matrices_on(Z, 8), sy.Alphabet.module(2, 2)
    assert sy.check_equivariance(alpha)
    for row, col in [(14, 0), (15, 1)]:  # entries (0, 0) and (1, 1) of block (7, 0)
        broken = alpha.matrix.copy()
        broken[row, col] ^= 1
        as_endomap = sy.TransportedEndomap(alpha.embedding, A, alpha.carrier, matrix=broken)
        assert not sy.check_equivariance(as_endomap)
        with pytest.raises(InvalidInputError, match="not F-equivariant"):
            sy.invert_transport(as_endomap)


def test_invertible_cyclic_transport_eliminates_nothing(Z, monkeypatch):
    """On Z/N an invertible transport is inverted over F_p[x]/(x^N - 1)."""
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau, sigma = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
    M = sy.common_memory(sigma, tau)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 8})
    alpha = sy.transport_endomap(sy.CellularAutomaton(Z, A, sy.extend_memory(tau.rule, M)), e)
    full = linalg.invert(alpha.matrix, 2)

    def refuse(*args):
        raise AssertionError("row_reduce called on a cyclic transport")

    monkeypatch.setattr(linalg, "row_reduce", refuse)
    assert sy.invert_transport(alpha).matrix.tobytes() == full.tobytes()


def test_invertible_cyclic_transport_without_a_unit_pivot(Z):
    """e = 1 + x + x^2 is idempotent in F_2[x]/(x^3 - 1), so T = [[e, 1+e],
    [1+e, e]] is its own inverse, though no entry of T is a unit: the ring
    route finds no pivot and dense elimination decides."""
    A = sy.Alphabet.module(2, 2)
    e = sy.build_embedding(Z, sy.ball(Z, 1), {"kind": "modular", "N": 3})
    idem, rest = [1, 1, 1], [0, 1, 1]  # coefficients of x^0, x^1, x^2
    B = np.array([[idem, rest], [rest, idem]], dtype=np.int64)
    assert linalg.cyclic_inverse(B, 2) is None
    T = oracle_block_circulant(B)
    alpha = sy.TransportedEndomap(e, A, e.target.elements(), matrix=T)
    assert linalg.matmul(T, T, 2).tolist() == np.eye(6, dtype=np.int64).tolist()
    assert sy.invert_transport(alpha).matrix.tolist() == T.tolist()


def test_non_equivariant_matrix_is_invalid_input(Z):
    """A block-row solve would misread these, so they are refused."""
    C, D = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau, sigma = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
    M = sy.common_memory(sigma, tau)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 8})
    widen = lambda ca: sy.CellularAutomaton(Z, A, sy.extend_memory(ca.rule, M))
    alpha, beta = sy.transport_endomap(widen(tau), e), sy.transport_endomap(widen(sigma), e)
    as_endomap = lambda m: sy.TransportedEndomap(e, A, alpha.carrier, matrix=m)
    broken = alpha.matrix.copy()
    broken[5, 12] ^= 1
    # invertible, but it swaps two cells: not a translation
    swap = np.eye(16, dtype=np.int64)[[0, 1, 4, 5, 2, 3] + list(range(6, 16))]
    assert linalg.invert(swap, 2) is not None
    for m in (broken, swap):
        with pytest.raises(InvalidInputError, match="not F-equivariant"):
            sy.invert_transport(as_endomap(m))
        with pytest.raises(InvalidInputError, match="not F-equivariant"):
            sy.composes_to_identity(beta, as_endomap(m))
        with pytest.raises(InvalidInputError, match="not F-equivariant"):
            sy.composes_to_identity(as_endomap(m), alpha)
    assert sy.composes_to_identity(beta, alpha)


def test_transport_refuses_an_embedding_that_fails_verification(Z, bit):
    """A hand-built map into Z/5, injective on M*M, that swaps the images of
    1 and 2: phi(1)phi(1) != phi(2), so it is no embedding over M."""
    shift = sy.projection_ca(Z, bit, (1,))
    M = sy.symmetrize(Z, shift.memory)
    wide = sy.CellularAutomaton(Z, bit, sy.extend_memory(shift.rule, M))
    S = sy.set_product(Z, M, M)
    phi = {v: v[0] % 5 for v in S} | {(1,): 2, (2,): 1}
    e = sy.LefEmbedding(Z, S, sy.FiniteGroup.cyclic(5), phi)
    assert not sy.verify_embedding(e, M)
    with pytest.raises(InvalidInputError, match="fails verification over this memory"):
        sy.transport_endomap(wide, e)


def test_composes_to_identity_refuses_mixed_representations(Z):
    """The same rule transported as a matrix and as a table cannot be composed."""
    C, _ = pair_CD(Z)
    A = sy.Alphabet.module(2, 2)
    tau = sy.to_linear_ca(C, Z, A)
    M = sy.symmetrize(Z, tau.memory)
    rule = sy.extend_memory(tau.rule, M)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
    matrix = sy.transport_endomap(sy.CellularAutomaton(Z, A, rule), e)
    table_rule = sy.LocalRule(M, rule.map.expand_table())
    table = sy.transport_endomap(sy.CellularAutomaton(Z, A, table_rule), e)
    assert matrix.is_matrix and not table.is_matrix
    for beta, alpha in [(table, matrix), (matrix, table)]:
        with pytest.raises(InvalidInputError, match="different representations"):
            sy.composes_to_identity(beta, alpha)


def _shift_tables_on(Z, q, N):
    """The shift over q symbols, transported to Z/N as a table."""
    shift = sy.projection_ca(Z, sy.Alphabet.plain(q), (1,))
    M = sy.symmetrize(Z, shift.memory)
    e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": N})
    wide = sy.CellularAutomaton(Z, shift.alphabet, sy.extend_memory(shift.rule, M))
    return sy.transport_endomap(wide, e)


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda Z: (_shift_tables_on(Z, 2, 5), _shift_tables_on(Z, 2, 6)),
        lambda Z: (_matrices_on(Z, 5), _matrices_on(Z, 6)),
        lambda Z: (_shift_tables_on(Z, 2, 5), _shift_tables_on(Z, 3, 5)),
    ],
    ids=["tables-Z5-Z6", "matrices-Z5-Z6", "tables-q2-q3"],
)
def test_composes_to_identity_refuses_maps_on_different_spaces(Z, make_pair):
    """Maps over different carriers or alphabets cannot be composed; each
    map still composes with its own inverse."""
    first, second = make_pair(Z)
    for beta, alpha in [(first, second), (second, first)]:
        with pytest.raises(InvalidInputError, match="different carriers or alphabets"):
            sy.composes_to_identity(beta, alpha)
        assert sy.composes_to_identity(sy.invert_transport(alpha), alpha)
