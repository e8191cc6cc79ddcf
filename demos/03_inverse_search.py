"""Searching for an inverse rule by determinacy scanning.

For a candidate inverse memory N, scan every window on N*M: if the rule's
image on N ever fails to pin down the value at the identity cell, the two
offending windows are a witness that no inverse with memory N exists.
Otherwise the scan itself IS the inverse rule (basepoint off the image).
Balls of growing radius turn this into a bounded search.
"""

import symba as sy

Z = sy.FreeAbelianGroup(1)
bits = sy.Alphabet.plain(2)

print("== the shift inverts at radius 1 ==")
shift = sy.projection_ca(Z, bits, (1,))
res = sy.synthesize_left_inverse(shift, 2)
print("found:", res.found, "at radius", res.radius)
print("certificates:", sy.check_left_inverse(res.ca, shift), sy.check_right_inverse(res.ca, shift))
print("the found rule reads at:", list(res.ca.memory), "and acts like the backward shift:",
      sy.same_action(res.ca, sy.projection_ca(Z, bits, (-1,))))

print()
print("== the sum rule never inverts; the witness says why ==")
mem = sy.FiniteSubset(Z, [(0,), (1,)])
xor = sy.CellularAutomaton(Z, bits, sy.LocalRule(mem, sy.StructuredMap(bits, 2, table=[0, 1, 1, 0])))
res = sy.synthesize_left_inverse(xor, 3)
print("found:", res.found)
x, y = res.witness
print("two windows on", [e[0] for e in x.domain])
print("  x =", x.values)
print("  y =", y.values)
print("equal images, different centers: no rule can recover the center.")

print()
print("== matrix rules synthesize by exact linear algebra ==")
A = sy.Alphabet.module(2, 2)
E = lambda d: sy.GroupRingElement(Z, 2, d)
C = sy.GroupRingMatrix(Z, 2, [[E({}), E({(0,): 1})], [E({(0,): 1}), E({(1,): 1})]])
tau = sy.to_linear_ca(C, Z, A)
res = sy.synthesize_left_inverse(tau, 2)
print("found:", res.found, "at radius", res.radius, "- rule stays a matrix family:",
      res.ca.rule.map.is_matrix)

print()
print("== a rule on one axis of Z^2 pays for one row, not the plane ==")
Z2 = sy.FreeAbelianGroup(2)
C, _ = sy.random_invertible_matrix(Z, 2, 2, 1, 2, factors=3)
line = sy.to_linear_ca(C, Z, A)
cells = sy.FiniteSubset(Z2, [(m[0], 0) for m in line.memory])
table = line.rule.map.expand_table().table
axis = sy.CellularAutomaton(Z2, sy.Alphabet.plain(4), sy.LocalRule(
    cells, sy.StructuredMap(sy.Alphabet.plain(4), len(cells), table=table)))
res = sy.synthesize_left_inverse(axis, 2)
print("a 4-symbol table reading", list(cells), "inverts at radius", res.radius)
print("(the scan reads the identity's row of the window: 4^5 windows, not 4^11)")
