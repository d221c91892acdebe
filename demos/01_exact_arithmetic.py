"""Tour of the exact arithmetic kernel: cyclotomic fields, Laurent
fractions in the formal variable A, and specialization at roots of unity.

Run:  python demos/01_exact_arithmetic.py
"""
from tljhecke import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    LaurentPoly,
    PoleAtRoot,
    cyclotomic_poly,
    is_cyclotomic,
    specialize,
)

print("== cyclotomic polynomials ==")
for n in (1, 4, 12, 20):
    print(f"  Phi_{n}(x) has coefficients {list(cyclotomic_poly(n).coeffs)}")

quartic = IntPolynomial((1, -3, 3, -3, 1))
print(f"  x^4-3x^3+3x^2-3x+1 cyclotomic? {is_cyclotomic(quartic)}")
print(f"  x^2+x+1 cyclotomic?            {is_cyclotomic(IntPolynomial((1, 1, 1)))}")

print("\n== the field Q(zeta_20) ==")
z = CycNumber.zeta(20)
sqrt5 = 1 + 2 * (CycNumber.zeta(20, 4) + CycNumber.zeta(20, 4).conj())
print(f"  zeta^20 = {z ** 20 == CycNumber.one(20)}")
print(f"  sqrt(5) as a power-basis vector: {[str(c) for c in sqrt5.coeffs]}")
print(f"  numerically: {sqrt5.embed().real:.12f}")
print(f"  conjugation fixes it: {sqrt5.conj() == sqrt5}")

print("\n== square roots stay (square, sign) pairs ==")
# level 3 works in Q(zeta_10), and D = sqrt((5+sqrt5)/2) lies outside it; a
# quantity known through its square is carried as the square and an exact sign
d2 = (5 + sqrt5) / 2
print(f"  D^2 = (5+sqrt5)/2 = {d2.embed().real:.12f}, kept as the square")
for label, x in (("sqrt5/5", sqrt5 / 5), ("(sqrt5-5)/10", (sqrt5 - 5) / 10)):
    print(f"  {label}: square {(x * x).embed().real:.12f}, sign {x.real_sign():+d}")

print("\n== Laurent fractions and specialization ==")
# the quantum integer [3] = (A^6 - A^-6)/(A^2 - A^-2) = A^4 + 1 + A^-4
num = LaurentPoly(-6, [-1] + [0] * 11 + [1])
den = LaurentPoly(-2, [-1, 0, 0, 0, 1])
q3 = LaurentFraction(num, den)
print(f"  [3] reduces to {q3.num!r}")
v = specialize(q3, 10, 3)  # A = i e^(i pi/10), a primitive 10th root
print(f"  [3] at A = i e^(i pi/10): {v.embed().real:.12f}  (the golden ratio)")

print("\n== poles cancel at the polynomial level ==")
phi20 = LaurentPoly.from_int_poly(cyclotomic_poly(20))
f = LaurentFraction(phi20 * LaurentPoly(0, (2, 1)), phi20)
print(f"  (Phi_20 * (A+2)) / Phi_20 at zeta_20: {specialize(f, 20, 1).embed():.6f}")
try:
    specialize(LaurentFraction(LaurentPoly.one(), phi20), 20, 1)
except PoleAtRoot as exc:
    print(f"  1/Phi_20 at zeta_20 raises PoleAtRoot: {exc}")
