"""Recoupling data at one level: colors, loop values, twists, theta and
tetrahedral nets, 6j symbols and their orthogonality, global constants,
and the dimension formula.

Run:  python demos/02_recoupling_data.py [level]
"""
import sys
from itertools import product

from tljhecke import CycNumber, TheoryParams, color_set, verlinde_dim
from tljhecke.recoupling import (
    admissible,
    delta_at,
    global_constants,
    sixj_at,
    theta_at,
    twist_at,
)

r = int(sys.argv[1]) if len(sys.argv) > 1 else 4
params = TheoryParams(r)
cs = color_set(r)
print(f"level r = {r}: colors {list(cs)}, "
      f"root A = zeta_{params.root_order}^{params.root_exponent} "
      f"(the unitary choice i*e^(i*pi/{2 * params.p}))")

print("\nloop values and twists:")
for i in cs:
    d = delta_at(params, i).embed().real
    t = twist_at(params, i).embed()
    print(f"  Delta_{i} = {d:9.6f}    theta_{i} = {t.real:+.6f}{t.imag:+.6f}i")

print("\ntheta nets on a few admissible triples:")
shown = 0
for tri in product(cs, repeat=3):
    if admissible(r, *tri) and tri[0] <= tri[1] <= tri[2]:
        v = theta_at(params, *tri).embed().real
        print(f"  Theta{tri} = {v:.6f}")
        shown += 1
        if shown >= 6:
            break

print("\n6j orthogonality (F-move composed with its inverse):")
i, j, k, l = cs[-1], cs[1], cs[1], cs[-1]
ms = [m for m in cs if admissible(r, i, j, m) and admissible(r, k, l, m)]
ns = [n for n in cs if admissible(r, i, l, n) and admissible(r, j, k, n)]
print(f"  externals ({i},{j},{k},{l}): old channels {ms}, new channels {ns}")
for m in ms:
    row = []
    for mp in ms:
        tot = CycNumber.zero(params.root_order)
        for n in ns:
            tot = tot + sixj_at(params, i, j, n, k, l, m) * sixj_at(params, i, l, mp, k, j, n)
        row.append(f"{tot.embed().real:+.3f}")
    print("   ", "  ".join(row))

gc = global_constants(params)
print("\nglobal constants:")
print(f"  D^2   = {gc.d_squared.embed().real:.6f}, sign {gc.d_squared.real_sign():+d}"
      "   (D enters only through D^2; no square root is taken)")
pp = gc.p_plus.embed()
print(f"  P+    = {pp.real:+.6f}{pp.imag:+.6f}i")
print(f"  P+P- == D^2 exactly: {gc.p_plus * gc.p_minus == gc.d_squared}")

print("\ndimensions of the surface spaces:")
for g in (1, 2, 3):
    print(f"  genus {g}: dim = {verlinde_dim(r, g)}")
