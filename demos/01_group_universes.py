"""Group universes and the finite-subset toolkit.

Everything downstream (rule tables, inverse searches, transports) consumes
finite subsets of a group in a canonical order, so this demo walks the
basics: canonical encodings, balls, products, symmetrization, and the ball
of a generated subgroup.
"""

import symba as sy

Z = sy.FreeAbelianGroup(1)
Z2 = sy.FreeAbelianGroup(2)
F2 = sy.FreeGroup(2)

print("== integers ==")
Z.validate((2,))  # a malformed encoding raises InvalidInputError
print("2 * 3 ->", Z.mul((2,), (3,)))
print("ball of radius 2:", list(sy.ball(Z, 2)))

print()
print("== free group on a, b (letters 1, 2; negatives are inverses) ==")
F2.validate((1, 2))  # reduced words only: (1, -1) is refused
print("a * a^-1 ->", F2.mul((1,), (-1,)))
print("(ab)^-1  ->", F2.inv((1, 2)))
for r in range(4):
    print(f"|ball({r})| =", len(sy.ball(F2, r)))

print()
print("== canonical order is graded: shorter words first ==")
print(list(sy.ball(F2, 2))[:9], "...")

print()
print("== subset combinatorics ==")
b1 = sy.ball(F2, 1)
print("ball(1) * ball(1) == ball(2):", sy.set_product(F2, b1, b1) == sy.ball(F2, 2))
S = sy.FiniteSubset(F2, [(1,), (1, 2)])
print("symmetrize {a, ab}:", list(sy.symmetrize(F2, S)))

print()
print("== the subgroup generated by a^2 inside the free group ==")
S2 = sy.FiniteSubset(F2, [(1, 1)])
print("radius-2 ball of <a^2>:", list(sy.generated_ball(F2, S2, 2)))

print()
print("== a finite universe from a multiplication table ==")
z5 = sy.FiniteGroup.cyclic(5)
print("3 * 4 mod 5 ->", z5.mul(3, 4))
print("whole group reached at radius 1:", list(sy.ball(z5, 1)))

print()
print("== direct products compose componentwise ==")
P = sy.ProductGroup([sy.FiniteGroup.cyclic(2), Z])
print("(1,3) * (1,-1) ->", P.mul((1, (3,)), (1, (-1,))))
print("ball(1):", list(sy.ball(P, 1)))
