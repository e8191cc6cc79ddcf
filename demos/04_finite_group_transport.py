"""Inverting a rule by transporting it to a finite group.

The pipeline: embed the window M*M into a finite group F so that products
of memory elements survive, re-read the local rule as an endomap of A^F,
invert that finite object exactly, and extract the inverse's local rule by
planting a window through the embedding, basepoint elsewhere. The result
is certified against the original rule before anything is returned.
"""

import symba as sy

Z = sy.FreeAbelianGroup(1)
F2 = sy.FreeGroup(2)
bits = sy.Alphabet.plain(2)

print("== embeddings: lattices reduce mod N ==")
S = sy.ball(Z, 2)
e5 = sy.build_embedding(Z, S, {"kind": "modular", "N": 5})
print("mod 5 embeds {-2..2} into Z/5:", [e5.phi[s] for s in S])
try:
    sy.build_embedding(Z, S, {"kind": "modular", "N": 3})
except sy.EmbeddingCollisionError as err:
    print("mod 3 is rejected:", err)

print()
print("== embeddings: free groups act on a ball by extended translation ==")
ef = sy.build_embedding(F2, sy.ball(F2, 2), None)
print("ball(2) of the free group embeds into the symmetric group on",
      ef.target.degree, "points")
print("verification against memory ball(1):",
      sy.verify_embedding(ef, sy.ball(F2, 1)))

print()
print("== transporting the shift through Z/5 ==")
shift = sy.projection_ca(Z, bits, (1,))
M = sy.symmetrize(Z, shift.memory)
e = sy.build_embedding(Z, sy.set_product(Z, M, M), {"kind": "modular", "N": 5})
result = sy.transport_inverse_pipeline(shift, e)
print("the transported endomap is a cyclic coordinate shift on 2^5 configs;")
print("report:", result.report)
print("extracted rule acts like the backward shift:",
      sy.same_action(result.ca, sy.projection_ca(Z, bits, (-1,))))
print("equivariance holds exhaustively:", sy.check_equivariance(result.alpha))

print()
print("== a matrix rule transports as one exact matrix over Z/2 ==")
A = sy.Alphabet.module(2, 2)
E = lambda d: sy.GroupRingElement(Z, 2, d)
C = sy.GroupRingMatrix(Z, 2, [[E({}), E({(0,): 1})], [E({(0,): 1}), E({(1,): 1})]])
D = sy.GroupRingMatrix(Z, 2, [[E({(1,): 1}), E({(0,): 1})], [E({(0,): 1}), E({})]])
tau, sig = sy.to_linear_ca(C, Z, A), sy.to_linear_ca(D, Z, A)
Mm = sy.common_memory(sig, tau)
em = sy.build_embedding(Z, sy.set_product(Z, Mm, Mm), {"kind": "modular", "N": 8})
out = sy.transport_inverse_pipeline(tau, em, sigma_hint=sig)
print("transported matrix shape:", out.alpha.matrix.shape)
print("report:", out.report)
print("extracted rule matches the known inverse:", sy.same_action(out.ca, sig))

print()
print("== one-sided always means two-sided here ==")
print("left inverse:", sy.check_left_inverse(sig, tau),
      "right inverse:", sy.check_right_inverse(sig, tau))
