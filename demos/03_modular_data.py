"""Genus-1 modular data: the S and T matrices and their exact relations,
including the behavior under Galois twisting of the root.

Run:  python demos/03_modular_data.py [level]
"""
import math
import sys

from tljhecke import TheoryParams, verify_genus1_relations
from tljhecke.rep_genus1 import modular_data

r = int(sys.argv[1]) if len(sys.argv) > 1 else 2
params = TheoryParams(r)
md = modular_data(params)
n = md.s_tilde.nrows

print(f"level r = {r}: {n} colors")
print("\nS~ (colored Hopf link values; the unitary S is S~/D):")
for i in range(n):
    print("  " + "  ".join(f"{md.s_tilde[i, j].embed().real:+8.4f}" for j in range(n)))

print("\nT diagonal (twists):")
for t in md.t:
    z = t.embed()
    print(f"  theta = {z.real:+.6f}{z.imag:+.6f}i   (angle {math.atan2(z.imag, z.real)/math.pi:+.4f} pi)")

print("\nexact relations (squared where D appears):")
print(verify_genus1_relations(params))

kg = 3 * params.root_exponent % params.root_order
while math.gcd(kg, params.root_order) != 1:
    kg += 1
print(f"\nsame relations at the Galois-conjugate root k = {kg}:")
print(verify_genus1_relations(params.with_root(kg)))
