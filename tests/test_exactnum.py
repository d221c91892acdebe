"""Tests for the exact arithmetic kernel."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tljhecke.exactnum import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    LaurentPoly,
    NonMonic,
    PoleAtRoot,
    SPLIT_PRIME_FLOOR,
    SplitPrime,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_factor,
    cyclotomic_poly,
    euler_phi,
    is_cyclotomic,
    specialize,
    split_primes,
)
from tljhecke.matrix import (
    ExactMatrix,
    char_poly,
    det_mod,
    matmul_mod,
    poly_at_matrix_mod,
    residue_matrix,
    _pack_digits,
    _unpack_digits,
)


# --------------------------------------------------------------------------
# cyclotomic polynomials

def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    # x^8 - x^6 + x^4 - x^2 + 1, derived by dividing x^20 - 1 by proper divisors
    assert cyclotomic_poly(20).coeffs == (1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_cyclotomic_poly_degree_is_phi():
    for n in range(1, 41):
        assert cyclotomic_poly(n).degree == euler_phi(n)


def test_cyclotomic_product_is_x_pow_n_minus_one():
    for n in range(1, 41):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        want = IntPolynomial([-1] + [0] * (n - 1) + [1])
        assert prod == want, n


def test_is_cyclotomic():
    assert is_cyclotomic(IntPolynomial((1, 1, 1)))          # Phi_3
    assert is_cyclotomic(IntPolynomial((-1, 1)))            # Phi_1
    assert not is_cyclotomic(IntPolynomial((1, -3, 3, -3, 1)))
    assert not is_cyclotomic(IntPolynomial((1, 0, 1)) * IntPolynomial((1, 1, 1)))
    assert cyclotomic_factor(IntPolynomial((-1, 0, 0, 0, 0, 1))) == 1     # x^5 - 1
    assert cyclotomic_factor(IntPolynomial((1, 0, 1)) * IntPolynomial((1, -3, 3, -3, 1))) == 4
    assert cyclotomic_factor(IntPolynomial((1, -3, 3, -3, 1))) is None
    with pytest.raises(NonMonic):
        is_cyclotomic(IntPolynomial((1, 2)))
    with pytest.raises(NonMonic):
        is_cyclotomic(IntPolynomial((7,)))


# --------------------------------------------------------------------------
# Laurent polynomials and fractions

def q2_poly():
    return LaurentPoly(-2, (1, 0, 0, 0, 1))   # A^2 + A^-2


def test_laurent_canonical_form():
    p = LaurentPoly(3, (0, 0, 1, 2, 0))
    assert p.low == 5 and p.coeffs == (Fraction(1), Fraction(2))
    assert LaurentPoly(5, ()).is_zero()
    assert LaurentPoly(0, (0, 0)).is_zero()


def test_laurent_substitute_inverse():
    p = LaurentPoly(-1, (1, 2, 3))
    q = p.substitute_inverse()
    assert q == LaurentPoly(-1, (3, 2, 1))
    assert q.substitute_inverse() == p


def test_fraction_rejects_zero_denominator():
    A = LaurentPoly.monomial(1)
    with pytest.raises(ZeroDivisionError):
        LaurentFraction(LaurentPoly.one(), A - A)


def test_fraction_reduction():
    q2 = q2_poly()
    f = LaurentFraction(q2 * q2, q2)
    assert f == LaurentFraction.from_poly(q2)
    assert f.den == LaurentPoly.one()


def test_fraction_bar_is_involution():
    q2 = q2_poly()
    f = LaurentFraction(q2, LaurentPoly(0, (1, 1)))
    assert f.bar().bar() == f


@st.composite
def small_fractions(draw):
    def poly():
        low = draw(st.integers(-3, 3))
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
        return LaurentPoly(low, coeffs)
    num = poly()
    den = poly()
    if den.is_zero():
        den = LaurentPoly.one()
    return LaurentFraction(num, den)


@settings(max_examples=60, deadline=None)
@given(small_fractions(), small_fractions())
def test_specialize_is_ring_homomorphism(f, g):
    N, k = 20, 3
    try:
        vf, vg = specialize(f, N, k), specialize(g, N, k)
        v_sum, v_prod = specialize(f + g, N, k), specialize(f * g, N, k)
    except PoleAtRoot:
        return
    assert v_sum == vf + vg
    assert v_prod == vf * vg


@settings(max_examples=40, deadline=None)
@given(small_fractions())
def test_embed_specialize_matches_float_evaluation(f):
    N, k = 16, 3
    z = complex(math.cos(2 * math.pi * k / N), math.sin(2 * math.pi * k / N))
    try:
        exact = specialize(f, N, k).embed()
        direct = f.evaluate_complex(z)
    except (PoleAtRoot, ZeroDivisionError):
        return
    if abs(direct) < 1e6:
        assert abs(exact - direct) < 1e-10 * max(1.0, abs(direct))


def test_specialize_identity_fraction():
    q2 = q2_poly()
    assert specialize(LaurentFraction(q2, q2), 20, 1) == CycNumber.one(20)


def test_specialize_quantum_three_at_golden_root():
    # [3] = A^4 + 1 + A^-4 evaluates to the golden ratio at A = i e^(i pi/10)
    q3 = LaurentFraction.from_poly(LaurentPoly(-4, (1, 0, 0, 0, 1, 0, 0, 0, 1)))
    v = specialize(q3, 10, 3)
    assert abs(v.embed() - (1 + math.sqrt(5)) / 2) < 1e-12


def test_specialize_cancels_common_phi_power():
    phi20 = LaurentPoly.from_int_poly(cyclotomic_poly(20))
    shifted = LaurentPoly(0, (2, 1))
    f = LaurentFraction._raw(phi20 * shifted, phi20)  # uncancelled on purpose
    assert specialize(f, 20, 1) == CycNumber.zeta(20) + 2


def test_specialize_pole():
    phi20 = LaurentPoly.from_int_poly(cyclotomic_poly(20))
    f = LaurentFraction(LaurentPoly.one(), phi20)
    with pytest.raises(PoleAtRoot):
        specialize(f, 20, 1)
    # but regular at any other root order
    assert specialize(f, 16, 1) is not None


def test_specialize_zero_of_positive_order():
    phi20 = LaurentPoly.from_int_poly(cyclotomic_poly(20))
    f = LaurentFraction._raw(phi20 * phi20, phi20)
    assert specialize(f, 20, 1).is_zero()


# --------------------------------------------------------------------------
# cyclotomic numbers

def test_cyc_basic_arithmetic():
    z = CycNumber.zeta(20)
    assert z ** 20 == CycNumber.one(20)
    assert (z + 1) - 1 == z
    assert z * z.inverse() == CycNumber.one(20)
    assert (z / z) == 1


def test_cyc_equality_is_coefficientwise():
    x = CycNumber(20, [Fraction(1, 2)] + [0] * 7)
    y = CycNumber(20, [Fraction(2, 4)] + [0] * 7)
    assert x == y and hash(x) == hash(y)


def test_galois_conj_inv_examples():
    one = CycNumber.one(20)
    assert one.conj() == one
    z = CycNumber.zeta(20)
    assert z.conj() == z ** 19
    real = z + z.inverse()
    assert real.conj() == real


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=8, max_size=8),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=8, max_size=8))
def test_galois_conj_is_involutive_ring_hom(cx, cy):
    x, y = CycNumber(20, cx), CycNumber(20, cy)
    assert x.conj().conj() == x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


def _reduced(N, coeffs, den):
    """Reference for the kernel: sum coeffs[t] x^t / den reduced by polynomial
    division by Phi_N, with no table of zeta powers."""
    rem = IntPolynomial(coeffs).divmod_monic(cyclotomic_poly(N))[1].coeffs
    return CycNumber(N, list(rem) + [0] * (euler_phi(N) - len(rem)), den)


def _substituted(vec, step):
    """The integer coefficients of sum vec[j] x^(j*step)."""
    out = [0] * ((len(vec) - 1) * step + 1)
    for j, c in enumerate(vec):
        out[j * step] += c
    return out


@st.composite
def kernel_cases(draw):
    # the odd N have 2*phi - 2 >= N, so products fold through rows t mod N
    N = draw(st.sampled_from([1, 2, 5, 7, 9, 12, 15, 16, 20, 32]))
    vec = st.lists(st.integers(-6, 6), min_size=euler_phi(N), max_size=euler_phi(N))
    x, y = (CycNumber(N, draw(vec), draw(st.integers(1, 12))) for _ in range(2))
    m = draw(st.sampled_from([k for k in range(1, N + 1) if math.gcd(k, N) == 1]))
    return x, y, m, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_cyc_kernel_matches_polynomial_reference(case):
    x, y, m, step = case
    N = x.order
    prod = IntPolynomial(x.vec) * IntPolynomial(y.vec)
    assert x * y == _reduced(N, prod.coeffs, x.den * y.den)
    assert x.galois(m) == _reduced(N, _substituted(x.vec, m), x.den)
    assert x.lift(step * N) == _reduced(step * N, _substituted(x.vec, step), x.den)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(N).inverse()


# --------------------------------------------------------------------------
# reduction modulo a split prime

@pytest.mark.parametrize("N", [1, 2, 10, 14, 16, 22, 24])
def test_split_primes_are_split_and_deterministic(N):
    first = [sp.p for sp, _ in zip(split_primes(N), range(3))]
    assert first == sorted(set(first)) and first[0] > SPLIT_PRIME_FLOOR
    assert first == [sp.p for sp, _ in zip(split_primes(N), range(3))]
    # the smallest p = 1 (mod N) above the floor, primes in between skipped
    below = [q for q in range(SPLIT_PRIME_FLOOR + 1, first[0]) if (q - 1) % N == 0]
    assert not any(all(q % f for f in range(2, int(q ** 0.5) + 1)) for q in below)
    for p in first:
        sp = SplitPrime(N, p)
        assert (p - 1) % N == 0
        assert pow(sp.omega, N, p) == 1
        assert all(pow(sp.omega, e, p) != 1 for e in range(1, N))
    # a prime dividing den is passed over
    assert next(split_primes(N, den=6 * first[0])).p == first[1]


def test_split_prime_rejects_what_does_not_reduce():
    with pytest.raises(ValueError):
        SplitPrime(10, 1048583)          # prime, but not 1 mod 10
    sp = next(split_primes(10))
    with pytest.raises(ValueError):
        sp.residue(CycNumber.from_rational(10, Fraction(1, sp.p)))
    with pytest.raises(ValueError):
        sp.residue(CycNumber.one(20))
    with pytest.raises(ValueError):
        next(split_primes(10, den=0))


def test_det_mod_pivots_and_singular():
    assert det_mod([[0, 1], [1, 0]], 7) == 6
    assert det_mod([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 7) == 1
    assert det_mod([[1, 2], [2, 4]], 7) == 0
    assert det_mod([[2, 3, 1], [0, 0, 5], [4, 6, 3]], 11) == 0


@st.composite
def cyc_pairs(draw):
    N = draw(st.sampled_from([1, 3, 8, 10, 12, 14, 22, 24]))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    cx, cy = (draw(st.lists(coeff, min_size=euler_phi(N), max_size=euler_phi(N)))
              for _ in range(2))
    return CycNumber(N, cx), CycNumber(N, cy)


@settings(max_examples=60, deadline=None)
@given(cyc_pairs())
def test_split_prime_residue_is_a_ring_homomorphism(xy):
    x, y = xy
    N = x.order
    sp = next(split_primes(N))
    p, res = sp.p, sp.residue
    assert res(x + y) == (res(x) + res(y)) % p
    assert res(x * y) == res(x) * res(y) % p
    assert res(CycNumber.one(N)) == 1
    assert res(CycNumber.zeta(N)) == sp.omega % p
    # conj is zeta -> zeta^-1, so its residue is x evaluated at omega^-1
    winv = pow(sp.omega, -1, p)
    at_winv = sum(c * pow(winv, i, p) for i, c in enumerate(x.vec)) * pow(x.den, -1, p) % p
    assert res(x.conj()) == at_winv


@settings(max_examples=30, deadline=None)
@given(cyc_pairs())
def test_residue_matrix_ops_match_exact(xy):
    x, y = xy
    N = x.order
    A = ExactMatrix(N, [[x, y], [x * y + 1, y - 2]])
    sp = next(split_primes(N))
    p = sp.p
    Am = residue_matrix(A, sp)
    A2 = A @ A
    assert matmul_mod(Am, Am, p) == residue_matrix(A2, sp)
    assert det_mod(Am, p) == sp.residue(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    # Q(A) for the level-3 quartic x^4 - 3x^3 + 3x^2 - 3x + 1
    q = IntPolynomial((1, -3, 3, -3, 1))
    qA = (A2 @ A2) - (A2 @ A).scale(3) + A2.scale(3) - A.scale(3) + ExactMatrix.identity(N, 2)
    assert poly_at_matrix_mod(q, Am, p) == residue_matrix(qA, sp)


def test_galois_orbit_products_are_rational():
    z = CycNumber.zeta(16)
    x = z + 2
    prod = CycNumber.one(16)
    for m in range(1, 16):
        if math.gcd(m, 16) == 1:
            prod = prod * x.galois(m)
    assert prod.is_rational()


def test_embed_examples():
    assert CycNumber.one(4).embed() == complex(1.0, 0.0)
    w = CycNumber.zeta(4).embed()
    assert abs(w.real) < 1e-15 and abs(w.imag - 1) < 1e-15
    # (5 - sqrt5)/10 in Q(zeta_20)
    z = CycNumber.zeta(20, 4)
    sqrt5 = 1 + 2 * (z + z.conj())
    val = (CycNumber.from_rational(20, 5) - sqrt5) / 10
    w = val.embed(7)
    assert abs(w.real - (5 - math.sqrt(5)) / 10) < 1e-7
    assert abs(w.imag) < 1e-7


def test_real_sign():
    z = CycNumber.zeta(20, 4)
    sqrt5 = 1 + 2 * (z + z.conj())
    assert sqrt5.real_sign() == 1
    assert (-sqrt5).real_sign() == -1
    assert CycNumber.zero(20).real_sign() == 0


def test_lift_preserves_value():
    x = CycNumber.zeta(10) + 3
    y = x.lift(20)
    assert y.order == 20
    assert abs(x.embed() - y.embed()) < 1e-12
    assert y == CycNumber.zeta(20, 2) + 3


# --------------------------------------------------------------------------
# serialization

def test_cyc_serialization_roundtrip():
    z = CycNumber.zeta(20)
    x = (z + 1) / (z ** 3 - 2)
    d = cyc_to_json(x)
    assert set(d) == {"order", "coeffs", "approx"}
    assert cyc_from_json(d) == x


# --------------------------------------------------------------------------
# matrices and characteristic polynomials

def test_char_poly_identity():
    cp = char_poly(ExactMatrix.identity(20, 2))
    assert cp.rational_coeffs() == [Fraction(1), Fraction(-2), Fraction(1)]


def test_char_poly_diagonal():
    entries = [CycNumber.zeta(20), CycNumber.from_rational(20, 3),
               CycNumber.zeta(20, 7)]
    M = ExactMatrix.diagonal(20, entries)
    cp = char_poly(M)
    for e in entries:
        assert cp.evaluate(e).is_zero()


def test_char_poly_block_diagonal_multiplicativity():
    z = CycNumber.zeta(12)
    zero = CycNumber.zero(12)
    A = ExactMatrix(12, [[z, z + 1], [CycNumber.one(12), z ** 2]])
    B = ExactMatrix.diagonal(12, [z ** 3, z - 2])
    rows = []
    for i in range(2):
        rows.append(list(A.rows[i]) + [zero, zero])
    for i in range(2):
        rows.append([zero, zero] + list(B.rows[i]))
    blk = ExactMatrix(12, rows)
    assert char_poly(blk) == char_poly(A) * char_poly(B)


def test_matmul_matches_entrywise_defn():
    z = CycNumber.zeta(8)
    A = ExactMatrix(8, [[z, z + 1], [z ** 2, CycNumber.from_rational(8, Fraction(1, 3))]])
    B = ExactMatrix(8, [[z ** 5, CycNumber.one(8)], [z - 1, z]])
    C = A @ B
    for i in range(2):
        for j in range(2):
            want = A[i, 0] * B[0, j] + A[i, 1] * B[1, j]
            assert C[i, j] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9),
       st.integers(22, 64))
def test_pack_unpack_roundtrip(digits, width):
    packed = _pack_digits(digits, width)
    assert _unpack_digits(packed, width, len(digits)) == digits
