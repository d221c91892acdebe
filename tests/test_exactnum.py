"""Tests for the exact arithmetic kernel."""
import copy
import marshal
import math
import operator
import os
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tljhecke.exactnum import (
    FIRST_BITS,
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    LaurentPoly,
    NonMonic,
    PoleAtRoot,
    SPLIT_PRIME_FLOOR,
    SplitPrime,
    _is_prime,
    _prime_factors,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_factor,
    cyclotomic_poly,
    descent_step,
    euler_phi,
    is_cyclotomic,
    laurent_gcd,
    shift_vector,
    specialize,
    split_primes,
    square_subfield_order,
)
from tljhecke.matrix import (
    ExactMatrix,
    char_poly,
    det_mod,
    matmul_mod,
    poly_at_matrix_mod,
    residue_matrix,
    _dots,
    _fold_gain,
    _lowest_terms,
    _digit_words,
    _modulus,
    _pack_digits,
    _pack_mod,
    _products,
    _tabulate,
    _unpack_digits,
    _width,
)
from tljhecke import matrix


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


def test_euler_phi_counts_the_units():
    for n in range(2000):
        assert euler_phi(n) == sum(math.gcd(k, n) == 1 for k in range(1, n + 1)), n


def test_cyclotomic_product_is_x_pow_n_minus_one():
    for n in range(1, 41):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        want = IntPolynomial([-1] + [0] * (n - 1) + [1])
        assert prod == want, n


def test_cyclotomic_poly_matches_the_division_definition():
    # the closed-form Moebius product against Phi_N = (x^N - 1) / prod of
    # Phi_d over the proper divisors d of N, by long division, for N < 400
    ref = {}
    for n in range(1, 400):
        poly = IntPolynomial([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                poly, rem = poly.divmod_monic(ref[d])
                assert rem.is_zero(), (n, d)
        ref[n] = poly
        assert cyclotomic_poly(n) == poly, n


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


def test_laurent_gcd_scales_by_a_non_monic_lead():
    # the pseudo-remainder of a by b takes lead(b)^(deg a - deg b + 1) = 2^2
    # times a: gcd((2x+1)(3x^2-1), (2x+1)(x+5)) = x + 1/2
    common = LaurentPoly(0, (1, 2))
    a = common * LaurentPoly(0, (-1, 0, 3))
    b = common * LaurentPoly(0, (5, 1))
    assert laurent_gcd(a, b) == LaurentPoly(0, (Fraction(1, 2), 1))


_nonzero_polys = st.builds(LaurentPoly, st.integers(-3, 3),
                           st.lists(st.integers(-5, 5), min_size=1, max_size=5)
                           ).filter(lambda p: not p.is_zero())


@settings(max_examples=100, deadline=None)
@given(_nonzero_polys, _nonzero_polys, _nonzero_polys)
def test_laurent_gcd_of_a_common_factor(f, g, h):
    # the gcd of f h and g h is monic, divides both exactly, and is divided
    # by the monic part of h
    d = laurent_gcd(f * h, g * h)
    assert d.low == 0 and d.coeffs[-1] == 1
    for x in (f * h, g * h):
        assert x.exact_div(d) * d == x
    m = h.shift(-h.low).scale(1 / h.coeffs[-1])
    assert d.exact_div(m) * m == d


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


@pytest.mark.parametrize("N", [10, 12, 18, 24, 30, 40])
def test_zeta_log_and_shift(N):
    # the relation check reads kappa^4 and T as powers of zeta and shifts J~
    # by them instead of multiplying
    x = CycNumber(N, range(1, euler_phi(N) + 1), 7)
    for t in range(-N, 2 * N):
        z = CycNumber.zeta(N, t)
        assert z.zeta_log() == t % N
        assert x.times_zeta(t) == x * z
    assert (CycNumber.zeta(N) * 2).zeta_log() is None
    assert CycNumber.zero(N).zeta_log() is None
    assert (CycNumber.zeta(N) / 3).zeta_log() is None


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
def kernel_operand(draw, N):
    """A dense vector, a sparse one (at most a quarter of its coefficients
    nonzero, as in the recoupling values), +-zeta^b or a rational."""
    phi = euler_phi(N)
    kind = draw(st.sampled_from(["dense", "sparse", "sparse", "monomial", "rational"]))
    if kind == "monomial":
        z = CycNumber.zeta(N, draw(st.integers(0, 2 * N)))
        return z if draw(st.booleans()) else -z
    if kind == "rational":
        return CycNumber.from_rational(N, draw(st.fractions(-6, 6, max_denominator=12)))
    if kind == "dense":
        vec = draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi))
    else:
        vec = [0] * phi
        for i in draw(st.sets(st.integers(0, phi - 1), max_size=max(1, phi // 4))):
            vec[i] = draw(st.integers(-6, 6).filter(bool))
    return CycNumber(N, vec, draw(st.integers(1, 12)))


@st.composite
def kernel_cases(draw):
    # the odd N have 2*phi - 2 >= N, so products fold through rows t mod N
    # (at N = 5 a product reaches x^6); 18, 24 and 40 are the root orders at
    # r = 7, 4 and 8, and 36 is one more even order
    N = draw(st.sampled_from([1, 2, 5, 7, 9, 12, 15, 16, 18, 20, 24, 32, 36, 40]))
    x, y = draw(kernel_operand(N)), draw(kernel_operand(N))
    m = draw(st.sampled_from([k for k in range(1, N + 1) if math.gcd(k, N) == 1]))
    return x, y, m, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
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


@pytest.mark.parametrize("N", [10, 16, 24])
def test_split_primes_skip_a_prime_of_the_denominator(N):
    # a value over den has no residue mod a prime dividing den, so the
    # search passes that prime over, even when den is the prime itself
    first, second = (sp.p for sp, _ in zip(split_primes(N), range(2)))
    assert next(split_primes(N, den=first)).p == second
    assert next(split_primes(N, den=first * second)).p not in (first, second)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    # deterministic Miller-Rabin against the definition: every n below
    # 2 * 10**5, the Carmichael numbers (Fermat liars to every coprime base),
    # squares of primes and strong pseudoprimes to base 2
    assert [n for n in range(200_000) if _is_prime(n) != _trial_division(n)] == []
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161)
    squares = [q * q for q in (2, 3, 1009, 65521, 1048573, 2 ** 31 - 1)]
    spsp2 = (2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747, 3474749660383)
    for n in carmichael + tuple(squares) + spsp2:
        assert not _is_prime(n), n
    for q in (1048609, 2 ** 31 - 1, 2 ** 61 - 1):
        assert _is_prime(q) and not _is_prime(q * 1048609), q
    # the bases 2..41 decide no further: the bound itself is a strong
    # pseudoprime to all of them
    with pytest.raises(ValueError):
        _is_prime(3317044064679887385961981)


def test_prime_factors_match_trial_division():
    for n in range(1, 3000):
        assert _prime_factors(n) == [f for f in range(2, n + 1)
                                     if n % f == 0 and _trial_division(f)], n
    assert _prime_factors(2 ** 10 * 3 ** 4 * 1048573) == [2, 3, 1048573]


# the first four split primes and their roots of unity, as found by trial
# division before the search used Miller-Rabin
SPLIT_PRIME_PINS = {
    10: ((1048601, 1048661, 1048681, 1048721), (368814, 185483, 426779, 77401)),
    14: ((1048601, 1048783, 1048867, 1048909), (215224, 603990, 602983, 536831)),
    18: ((1048609, 1048627, 1048681, 1048717), (5082, 983990, 355833, 291794)),
    24: ((1048609, 1048633, 1048681, 1048897), (727903, 851465, 103974, 109233)),
    32: ((1048609, 1048897, 1049057, 1049089), (415330, 642751, 32273, 263354)),
    40: ((1048601, 1048681, 1048721, 1049201), (750598, 1038593, 624328, 970857)),
}


@pytest.mark.parametrize("N", sorted(SPLIT_PRIME_PINS))
def test_split_primes_are_pinned(N):
    sps = [sp for sp, _ in zip(split_primes(N), range(4))]
    assert (tuple(sp.p for sp in sps), tuple(sp.omega for sp in sps)) == SPLIT_PRIME_PINS[N]


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


# plain list-of-ints versions of the F_p helpers: the oracle of the packed ones

def _matmul_ref(A, B, p):
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in A]


def _poly_at_matrix_ref(q, A, p):
    cs = q.coeffs
    B = [[cs[-1] * x % p for x in row] for row in A]
    for k, c in enumerate(reversed(cs[:-1])):
        if k:
            B = _matmul_ref(B, A, p)
        for i in range(len(B)):
            B[i][i] = (B[i][i] + c) % p
    return B


def _det_ref(A, p):
    a = [[x % p for x in row] for row in A]
    n, det = len(a), 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


# 7, 11, the split prime of the r = 4 quartic residue (the first one above
# 2**20 for N = 24) and 2**31 - 1
FP_PRIMES = (7, 11, next(split_primes(24)).p, 2 ** 31 - 1)


@st.composite
def fp_matrix(draw, p, rows, cols):
    """A rows x cols matrix of residues mod p: dense or sparse, sometimes
    with entries outside [0, p), a zero first column down to some row, or
    a row that combines two others (singular when square)."""
    # entries from one drawn seed: a Hypothesis choice per entry would make
    # a failing case of 3 x 625 entries very slow to shrink
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from((0.0, 0.15, 0.5, 1.0)))
    lo, hi = draw(st.sampled_from(((0, p), (-p, 2 * p))))
    A = [[rnd.randrange(lo, hi) if rnd.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    if draw(st.booleans()):
        for row in A[:draw(st.integers(1, rows))]:
            row[0] = 0
    if rows >= 3 and draw(st.booleans()):
        i, j, k = rnd.sample(range(rows), 3)
        c = rnd.randrange(p)
        A[k] = [(x + c * y) % p for x, y in zip(A[i], A[j])]
    return A


@st.composite
def fp_cases(draw):
    p = draw(st.sampled_from(FP_PRIMES))
    m, k, n = (draw(st.integers(1, 25)) for _ in range(3))
    q = IntPolynomial(draw(st.lists(st.integers(-p, p), min_size=1, max_size=5))
                      + [draw(st.integers(1, p - 1))])
    return (p, draw(fp_matrix(p, m, k)), draw(fp_matrix(p, k, n)), draw(fp_matrix(p, n, n)), q)


@settings(max_examples=80, deadline=None)
@given(fp_cases())
def test_packed_fp_kernel_matches_list_reference(case):
    p, A, B, S, q = case
    assert matmul_mod(A, B, p) == _matmul_ref(A, B, p)
    assert poly_at_matrix_mod(q, S, p) == _poly_at_matrix_ref(q, S, p)
    assert det_mod(S, p) == _det_ref(S, p)


# n = 30 terms either side of the one-word bound: 30 (p - 1)^2 is just
# below 2**64 for the first prime and just above it for the second
ONE_WORD_EDGE = (784150127, 784150187)


@pytest.mark.parametrize("p, words", [(ONE_WORD_EDGE[0], 1), (ONE_WORD_EDGE[1], 2),
                                      (2 ** 31 - 1, 2)])
def test_packed_fp_kernel_at_the_word_bound(p, words):
    # matmul_mod of 30 x 30, poly_at_matrix_mod at n = 30 and det_mod at
    # n = 29 each sum 30 products below (p - 1)^2 in a digit; matrices of
    # p - 1 fill every digit to its bound, random ones and ones outside
    # [0, p) check the reduction
    lo, hi = ONE_WORD_EDGE
    assert 30 * (lo - 1) ** 2 < 2 ** 64 <= 30 * (hi - 1) ** 2
    assert not any(map(_trial_division, range(lo + 1, hi)))
    assert _digit_words(30, p) == words
    rnd = random.Random(p)
    q = IntPolynomial((1, -3, 3, -3, 1))
    full = [[p - 1] * 30 for _ in range(30)]
    mixed = [[rnd.randrange(-p, 2 * p) for _ in range(30)] for _ in range(30)]
    for A, B in ((full, full), (mixed, full), (mixed, [row[::-1] for row in mixed])):
        assert matmul_mod(A, B, p) == _matmul_ref(A, B, p)
        assert poly_at_matrix_mod(q, B, p) == _poly_at_matrix_ref(q, B, p)
    for A in (full, mixed, [[p - 1 if i == j else rnd.randrange(p) for j in range(29)]
                            for i in range(29)]):
        A = [row[:29] for row in A[:29]]
        assert det_mod(A, p) == _det_ref(A, p)


def test_packed_fp_rows_are_little_endian_words():
    # digit i of a packed row is bits 64 k i .. 64 k (i + 1) - 1 of the int,
    # whatever the machine's byte order
    p = 2 ** 31 - 1
    assert _pack_mod([[1, 2, p + 3]], p, 1) == [1 + (2 << 64) + (3 << 128)]
    assert _pack_mod([[1, p - 1]], p, 2) == [1 + ((p - 1) << 128)]


def test_residue_matrix_reduces_each_distinct_vector_once(monkeypatch):
    # J~'s equal entries are one table entry, so the r = 4 matrix (n = 35)
    # needs one residue per distinct value, not one per entry
    from tljhecke.recoupling import TheoryParams
    from tljhecke.rep_genus2 import genus2_rep
    jt = genus2_rep(TheoryParams(4)).jtilde
    sp = next(split_primes(jt.order))
    reduced = []
    plain = SplitPrime.residues

    def counted(self, order, vecs, den):
        vecs = list(vecs)
        reduced.extend(vecs)
        return plain(self, order, vecs, den)
    monkeypatch.setattr(SplitPrime, "residues", counted)
    J = residue_matrix(jt, sp)
    distinct = {v for row in jt.vecs for v in row}
    assert reduced == list(jt.table) and len(reduced) == len(distinct) < jt.nrows ** 2
    monkeypatch.undo()
    assert J == [sp.residues(jt.order, row, jt.den) for row in jt.vecs]


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
    w = val.embed()
    assert abs(w.real - (5 - math.sqrt(5)) / 10) < 1e-7
    assert abs(w.imag) < 1e-7


def test_real_sign():
    z = CycNumber.zeta(20, 4)
    sqrt5 = 1 + 2 * (z + z.conj())
    assert sqrt5.real_sign() == 1
    assert (-sqrt5).real_sign() == -1
    assert CycNumber.zero(20).real_sign() == 0


# --------------------------------------------------------------------------
# the fixed-point evaluator, against mpmath at 60 digits

_ORDERS = st.integers(1, 64)


@st.composite
def _cyc_numbers(draw, big=2 ** 200):
    N = draw(_ORDERS)
    coeff = st.integers(-big, big) | st.integers(-9, 9)
    vec = draw(st.lists(coeff, min_size=euler_phi(N), max_size=euler_phi(N)))
    return CycNumber(N, vec, draw(st.integers(1, 2 ** 100) | st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(N=_ORDERS, bits=st.sampled_from([1, 16, 53, 64, 128, 150]))
def test_unit_root_table_is_within_one_unit(N, bits):
    import mpmath
    from tljhecke.exactnum import _unit_roots
    cos, sin = _unit_roots(N, bits)
    assert len(cos) == len(sin) == euler_phi(N)
    with mpmath.workdps(60):
        for j, (c, s) in enumerate(zip(cos, sin)):
            z = mpmath.expjpi(mpmath.mpf(2 * j) / N) * 2 ** bits
            assert abs(c - z.real) <= 1 and abs(s - z.imag) <= 1, (N, bits, j)


@settings(max_examples=80, deadline=None)
@given(x=_cyc_numbers(), bits=st.sampled_from([16, 64, 128, 150]))
def test_fixed_parts_are_within_their_bound(mp_embed, x, bits):
    import mpmath
    re, im, err = x.fixed_parts(bits)
    assert err == sum(map(abs, x.vec))
    with mpmath.workdps(60):
        z = mp_embed(x, 60) * x.den * 2 ** bits
        # mpmath's own error, 60 digits of the sum of |c| 2**bits, is far
        # below one unit of 2**-bits at these sizes, and is allowed for
        slack = err * 2 ** bits * mpmath.mpf(10) ** -58
        assert abs(re - z.real) <= err + slack
        assert abs(im - z.imag) <= err + slack


@pytest.mark.parametrize("N", [1, 2, 5, 12, 20])
def test_rational_fixed_parts_build_no_table(monkeypatch, N):
    # a rational value reads only the table's j = 0 entry, exactly
    # (2**bits, 0): the same (re, im, err) as the table path, without it
    from tljhecke import exactnum
    cases = [(CycNumber.from_rational(N, q), bits)
             for q in (0, Fraction(-7, 3), Fraction(2 ** 70 + 1, 5)) for bits in (1, 64, 150)]
    want = [(sum(map(operator.mul, x.vec, cos)), sum(map(operator.mul, x.vec, sin)),
             sum(map(abs, x.vec)))
            for x, bits in cases for cos, sin in [exactnum._unit_roots(N, bits)]]
    monkeypatch.setattr(exactnum, "_unit_roots", None)
    assert [x.fixed_parts(bits) for x, bits in cases] == want


@settings(max_examples=80, deadline=None)
@given(x=_cyc_numbers())
def test_embed_is_the_nearest_double(mp_embed, x):
    # a part can cancel far below 60 digits of the coefficients (the
    # imaginary part of c z^2 + d z^11 at N = 13 is (c - d) sin(4 pi / 13),
    # 10**-46 of c for c near 2**200 and c - d near 10**14), so the oracle
    # doubles its digits until two precisions give the same doubles.
    # A part that is exactly 0 (x = conj x or x = -conj x) is read from the
    # field, since the oracle leaves a rounding residue there
    c = x.conj()

    def nearest(dps):
        z = mp_embed(x, dps)
        return complex(0.0 if x == -c else float(z.real), 0.0 if x == c else float(z.imag))
    dps = 60
    while nearest(dps) != nearest(2 * dps):
        dps *= 2
    assert x.embed() == nearest(dps)


def test_embed_reads_rational_parts_exactly():
    # a part that is rational is not bracketed by any error interval: it is
    # read from the field, zero and a midpoint between two doubles included
    tie = Fraction(2 ** 53 + 1, 2 ** 53)
    i = CycNumber.zeta(4)
    for x, want in [(CycNumber.zero(5), 0j),
                    (CycNumber.from_rational(7, tie), complex(float(tie), 0.0)),
                    (i * tie + 3, complex(3.0, float(tie))),
                    (CycNumber.zeta(20, 3) + CycNumber.zeta(20, 17), None)]:
        z = x.embed()
        if want is not None:
            assert z == want and math.copysign(1, z.imag) == 1
        else:
            assert z.imag == 0.0 and abs(z.real - 2 * math.cos(3 * math.pi / 10)) < 1e-15


def _fib_residual(N, n):
    # F_{n+1} - F_n phi = (-1)^n phi^-n, with phi = 1 + zeta_5 + zeta_5^-1
    # lifted to Q(zeta_N): a real number about 0.62^n whose coefficients
    # are about phi^n
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    z = CycNumber.zeta(N, N // 5)
    return CycNumber.from_rational(N, b) - (1 + z + z.conj()) * a


@pytest.mark.parametrize("N, n", [(5, 120), (10, 151), (20, 200), (40, 333)])
def test_real_sign_escalates_on_near_zero_reals(monkeypatch, N, n):
    seen = []
    fixed_parts = CycNumber.fixed_parts
    monkeypatch.setattr(CycNumber, "fixed_parts",
                        lambda x, bits: seen.append(bits) or fixed_parts(x, bits))
    x = _fib_residual(N, n)
    assert x.real_sign() == (-1) ** n
    assert (-x).real_sign() == -(-1) ** n
    # an imaginary part does not change the sign of the real part
    if N % 4 == 0:
        assert (x + CycNumber.zeta(N, N // 4) * 10 ** 40).real_sign() == (-1) ** n
    # the value is below its error bound at the first bits, so they doubled
    assert seen[0] == FIRST_BITS and max(seen) > FIRST_BITS, seen
    assert abs(x.embed().real) < 0.62 ** n


def test_lift_preserves_value():
    x = CycNumber.zeta(10) + 3
    y = x.lift(20)
    assert y.order == 20
    assert abs(x.embed() - y.embed()) < 1e-12
    assert y == CycNumber.zeta(20, 2) + 3


@st.composite
def descent_cases(draw):
    """(x in Q(zeta_N), M) for an M that descent_step accepts, s = N / M."""
    N, M = draw(st.sampled_from([(8, 4), (16, 8), (24, 12), (20, 10), (40, 20), (36, 12),
                                 (14, 14), (10, 10)]))
    phi = euler_phi(N)
    vec = draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    return CycNumber(N, vec, draw(st.integers(1, 50))), M


@settings(max_examples=60, deadline=None)
@given(descent_cases())
def test_descend_inverts_lift_and_components_sum_back(case):
    x, M = case
    N = x.order
    parts = x.components(M)
    assert len(parts) == N // M and all(p.order == M for p in parts)
    total = CycNumber.zero(N)
    for c, p in enumerate(parts):
        total = total + p.lift(N).times_zeta(c)
    assert total == x
    assert parts[0].lift(N).descend(M) == parts[0]
    A = ExactMatrix(N, [[x, parts[0].lift(N)]])
    if any(parts[1:]):
        for call in (lambda: x.descend(M), lambda: A.descend(M)):
            with pytest.raises(ValueError, match=rf"does not lie in Q\(zeta_{M}\)"):
                call()
    else:
        assert x.descend(M) == parts[0]
        assert A.descend(M) == ExactMatrix(M, [[parts[0], parts[0]]])
    for t in (0, 3, -1):
        assert CycNumber(N, shift_vector(N, x.vec, t), x.den) == x.times_zeta(t)


def test_descent_step_needs_the_same_primes():
    # Phi_10(x) = Phi_5(-x), not Phi_5(x^2): Q(zeta_5) = Q(zeta_10) is not
    # the even slots of Q(zeta_10)'s power basis
    assert [descent_step(N, M) for N, M in ((32, 16), (24, 12), (24, 6), (14, 14))] == [2, 2, 4, 1]
    for N, M in ((10, 5), (12, 4), (16, 3), (16, 0)):
        with pytest.raises(ValueError, match="not spanned"):
            descent_step(N, M)
    assert [square_subfield_order(N) for N in (16, 24, 10, 14, 9)] == [8, 12, 10, 14, 9]


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
    assert cp.coeffs == tuple(CycNumber.from_rational(20, c) for c in (1, -2, 1))


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


@st.composite
def sandwich_cases(draw):
    # denominators up to 10**6 and diagonals with zero entries, so that the
    # packed widths and the content reduction between chained steps vary
    N = draw(st.sampled_from([5, 12, 16, 18, 24, 32]))
    phi = euler_phi(N)
    entry = st.builds(lambda v, d: CycNumber(N, v, d),
                      st.lists(st.integers(-9, 9), min_size=phi, max_size=phi),
                      st.integers(1, 10 ** 6))
    weight = st.one_of(entry, st.just(CycNumber.zero(N)))
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    A = ExactMatrix(N, [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    return A, [draw(weight) for _ in range(n)], [draw(weight) for _ in range(n)]


def _symmetric(N, n, upper):
    """The symmetric n x n ExactMatrix whose upper triangle is the one row
    upper, row by row, as ExactMatrix.fold_blocks gives alpha and beta
    (None when n = 0)."""
    it = iter(upper.rows[0] if upper is not None else ())
    entries = {(i, j): next(it) for i in range(n) for j in range(i, n)}
    return ExactMatrix(N, [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


def _unfolded(S, pi, x):
    """S diag(x) S read from the blocks of S folded over pi, entry by entry:
    S[r, c] = S[pi r, pi c] = alpha + beta and S[r, pi c] = S[pi r, c] =
    alpha - beta for r, c in reps, beta 0 unless both are in R."""
    *blocks, reps, m = S.fold_blocks(pi, x)
    N = S.order
    alpha, beta = (_symmetric(N, k, b) for k, b in zip((len(reps), m), blocks))
    rows = [[None] * len(pi) for _ in pi]
    for a, r in enumerate(reps):
        for b, c in enumerate(reps):
            al, be = alpha[a, b], beta[a, b] if a < m and b < m else 0
            rows[r][c] = rows[pi[r]][pi[c]] = al + be
            rows[r][pi[c]] = rows[pi[r]][c] = al - be
    return ExactMatrix(N, rows)


def _sandwich(A, pi, d, *later):
    """A diag(d) A from the blocks of A folded over pi, then S diag(x) S
    for each x of later, with S the previous result folded over the
    identity."""
    S = _unfolded(A, pi, d)
    for x in later:
        S = _unfolded(S, range(A.nrows), x)
    return S


@settings(max_examples=60, deadline=None)
@given(sandwich_cases())
def test_sandwich_matches_product(case):
    A, d, _ = case
    n = A.nrows
    S = _sandwich(A, range(n), d)
    assert S == A.scale_cols(d) @ A
    for i in range(n):
        for j in range(n):
            want = CycNumber.zero(A.order)
            for t in range(n):
                want = want + A[i, t] * d[t] * A[t, j]
            assert S[i, j] == want


@settings(max_examples=60, deadline=None)
@given(sandwich_cases())
def test_chained_sandwich_matches_products(case):
    A, d1, d2 = case
    S = A.scale_cols(d1) @ A
    assert _sandwich(A, range(A.nrows), d1, d2) == S.scale_cols(d2) @ S


@settings(max_examples=60, deadline=None)
@given(sandwich_cases())
def test_dots_with_diagonals_match_products(case):
    A, d1, d2 = case
    n = A.nrows
    pairs = [(i, j) for i in range(n) for j in range(n)]
    want = (A.scale_cols(d1).scale_cols(d2) @ A.transpose())
    d12 = [x * y for x, y in zip(d1, d2)]
    assert _as_cyc(A.dots(A, pairs, d12)) == [want[i, j] for i, j in pairs]
    assert _as_cyc(A.dots(A, pairs)) == [(A @ A.transpose())[i, j] for i, j in pairs]


def test_dots_cut_zero_columns_once_when_other_is_self(monkeypatch):
    # a column where the diagonal is 0 drops out of both operands; when
    # they are one matrix, that is one submatrix, not two
    z, one, zero = CycNumber.zeta(12), CycNumber.one(12), CycNumber.zero(12)
    A = ExactMatrix(12, [[z, one, z + 1], [one, z, one], [z + 1, one, z]])
    d = [z, zero, z - 1]
    pairs = [(i, j) for i in range(3) for j in range(3)]
    want = A.scale_cols(d) @ A.transpose()
    calls, submatrix = [0], ExactMatrix.submatrix

    def counting(self, *args):
        calls[0] += 1
        return submatrix(self, *args)
    monkeypatch.setattr(ExactMatrix, "submatrix", counting)
    assert _as_cyc(A.dots(A, pairs, d)) == [want[i, j] for i, j in pairs]
    assert calls == [1]
    copied = ExactMatrix(12, A.rows)
    assert A.dots(copied, pairs, d) == A.dots(A, pairs, d)
    assert calls == [4]


def _as_cyc(row):
    """The entries of a one-row result of dots as CycNumbers."""
    return list(row.rows[0])


@st.composite
def folded_cases(draw):
    # a symmetric A fixed by an involution pi with 0-3 swapped pairs and
    # 0-3 fixed points (so pi may be the identity), a diagonal that pi moves,
    # one that pi fixes, and a second step's diagonal
    N = draw(st.sampled_from([5, 12, 16, 24]))
    phi = euler_phi(N)
    entry = st.builds(lambda v, d: CycNumber(N, v, d),
                      st.lists(st.integers(-9, 9), min_size=phi, max_size=phi),
                      st.integers(1, 10 ** 6))
    weight = st.one_of(entry, st.just(CycNumber.zero(N)))
    pairs, fixed = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = max(2 * pairs + fixed, 1)
    order = draw(st.permutations(range(n)))
    pi = list(range(n))
    for a in range(pairs):
        i, j = order[2 * a], order[2 * a + 1]
        pi[i], pi[j] = j, i
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rows[i][j] is None:
                x = draw(entry)
                for a, b in ((i, j), (j, i), (pi[i], pi[j]), (pi[j], pi[i])):
                    rows[a][b] = x
    moved = [draw(weight) for _ in range(n)]
    fixed_by_pi = [moved[min(i, pi[i])] for i in range(n)]
    return ExactMatrix(N, rows), pi, moved, fixed_by_pi, [draw(weight) for _ in range(n)]


def _product(A, d):
    return A.scale_cols(d) @ A


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_folded_sandwich_matches_products(case):
    # over pi for the diagonal that pi fixes, and over the identity (which
    # fixes every diagonal) for both
    A, pi, moved, fixed_by_pi, d2 = case
    ident = range(A.nrows)
    for d in (moved, fixed_by_pi):
        S = _product(A, d)
        assert S == _sandwich(A, ident, d)
        assert _product(S, d2) == _sandwich(A, ident, d, d2)
    S = _product(A, fixed_by_pi)
    assert _sandwich(A, pi, fixed_by_pi) == S
    assert _sandwich(A, pi, fixed_by_pi, d2) == _product(S, d2)


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_fold_blocks_give_every_entry(case):
    # alpha and beta give every entry of A diag(x) A for a diagonal that pi
    # fixes (_unfolded); a diagonal that pi moves is a ValueError
    A, pi, moved, fixed_by_pi, _ = case
    _, beta, reps, m = A.fold_blocks(pi, fixed_by_pi)
    assert sorted(reps) == sorted(i for i in range(A.nrows) if i <= pi[i])
    assert all(i < pi[i] for i in reps[:m]) and all(i == pi[i] for i in reps[m:])
    assert (beta is None) == (m == 0)
    assert _unfolded(A, pi, fixed_by_pi) == _product(A, fixed_by_pi)
    if any(moved[k] != moved[pi[k]] for k in range(A.nrows)):
        with pytest.raises(ValueError, match="diagonal must be fixed by pi"):
            A.fold_blocks(pi, moved)


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_identity_folding_blocks_are_the_upper_triangle(case):
    # folded over the identity, alpha is the upper triangle of the
    # half-product, row by row, j from i to n - 1, and beta is None
    A, pi, moved, fixed_by_pi, y = case
    n = A.nrows
    for d in (moved, fixed_by_pi):
        S = _product(A, d)
        alpha, beta, reps, m = S.fold_blocks(range(n), y)
        assert (reps, m) == (list(range(n)), 0)
        Sy = _product(S, y)
        assert _as_cyc(alpha) == [Sy[i, j] for i in range(n) for j in range(i, n)]
        assert beta is None


@settings(max_examples=30, deadline=None)
@given(folded_cases())
def test_vector_results_match_cycnumber_references(case):
    # ExactMatrix holds coefficient vectors over one denominator; each result
    # read back entry by entry against CycNumber arithmetic on the entries
    A, pi, d, fixed, y = case
    N, n = A.order, A.nrows
    E = [[CycNumber(N, v, A.den) for v in row] for row in A.vecs]
    assert ExactMatrix(N, E) == A and [list(row) for row in A.rows] == E

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v)), CycNumber.zero(N))

    def scaled(rows, x):
        return [[e * x[t] for t, e in enumerate(row)] for row in rows]
    cols, Ey = [list(c) for c in zip(*E)], scaled(E, y)
    Eyd, Ef = scaled(Ey, d), scaled(E, fixed)
    B = A.scale_cols(y)
    assert [[B[i, j] for j in range(n)] for i in range(n)] == Ey
    assert A.scale_rows(y).rows == tuple(tuple(y[i] * x for x in row) for i, row in enumerate(E))
    assert A.transpose().rows == tuple(map(tuple, cols))
    assert (A + B).rows == tuple(tuple(a + b for a, b in zip(*rows)) for rows in zip(E, Ey))
    assert A + B - B == A
    assert A.first_difference(B) == next(((i, j) for i in range(n) for j in range(n)
                                          if E[i][j] != Ey[i][j]), None)
    # equal entries over different denominators are equal
    C = ExactMatrix(N, E[:-1] + [E[-1][:-1] + [E[-1][-1] + Fraction(1, 7)]])
    assert A.first_difference(C) == (n - 1, n - 1)
    dy = [a * b for a, b in zip(d, y)]
    assert _as_cyc(A.dots(A, [(i, j) for i in range(n) for j in range(n)], dy)) == [
        dot(E[i], Eyd[j]) for i in range(n) for j in range(n)]
    yc = [list(c) for c in zip(*Ey)]
    assert [[(A @ B)[i, j] for j in range(n)] for i in range(n)] == [
        [dot(E[i], yc[j]) for j in range(n)] for i in range(n)]
    S = _sandwich(A, pi, fixed)
    assert [list(row) for row in S.rows] == [
        [dot(Ef[i], cols[j]) for j in range(n)] for i in range(n)]
    sp = next(split_primes(N, A.den))
    assert residue_matrix(A, sp) == [[sp.residue(x) for x in row] for row in E]


def test_fold_rejects_what_pi_does_not_fix():
    z = CycNumber.zeta(12)
    one = CycNumber.one(12)
    A = ExactMatrix(12, [[z, one, z], [one, z, z], [z, z, one]])
    swap = [1, 0, 2]
    assert A.fold_blocks(swap, [z, z, one])[3] == 1
    assert _sandwich(A, swap, [z, z, one]) == _product(A, [z, z, one])
    with pytest.raises(ValueError, match="diagonal must be fixed by pi"):
        A.fold_blocks(swap, [z, one, z])
    B = ExactMatrix(12, [[z, one, z], [one, z, one], [z, one, one]])
    with pytest.raises(ValueError, match="symmetric matrix fixed by pi"):
        B.fold_blocks(swap, [z, z, one])
    assert _sandwich(B, range(3), [z] * 3) == _product(B, [z] * 3)
    for bad in ([1, 2, 0], [0, 1], [0, 0, 2]):
        with pytest.raises(ValueError, match="pi must be"):
            A.fold_blocks(bad, [z, z, one])


def test_sandwich_rejects_asymmetric_matrix():
    z = CycNumber.zeta(12)
    A = ExactMatrix(12, [[z, z + 1], [z - 1, z]])
    with pytest.raises(ValueError, match="symmetric"):
        A.fold_blocks(range(2), [z, z])


@pytest.mark.parametrize("length", [1, 3])
def test_diagonal_length_must_match(length):
    # a longer diagonal is not truncated and a shorter one is no IndexError:
    # both are a ValueError that names the two lengths
    z = CycNumber.zeta(12)
    A = ExactMatrix(12, [[z, z + 1], [z + 1, z]])
    d = [z] * length
    chained = _sandwich(A, range(2), [z, z])
    for call in (lambda: A.fold_blocks(range(2), d), lambda: chained.fold_blocks(range(2), d),
                 lambda: A.scale_cols(d), lambda: A.scale_rows(d),
                 lambda: A.dots(A, [(0, 0)], d)):
        with pytest.raises(ValueError, match=f"length {length} where 2 "):
            call()


def test_scale_rows_and_cols_check_their_own_length():
    z = CycNumber.zeta(12)
    wide = ExactMatrix(12, [[z, z, z], [z, z, z]])
    assert wide.scale_rows([z, z]) == wide.scale_cols([z, z, z])
    with pytest.raises(ValueError, match="length 2 where 3 "):
        wide.scale_cols([z, z])
    with pytest.raises(ValueError, match="length 3 where 2 "):
        wide.scale_rows([z, z, z])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9),
       st.integers(22, 64))
def test_pack_unpack_roundtrip(digits, width):
    packed = _pack_digits(digits, width)
    assert _unpack_digits(packed, width, len(digits)) == digits


# --------------------------------------------------------------------------
# the packed kernel: products reduced mod Phi_N(2**W)

# the root orders of r = 1..13, powers of two, and N = 105, whose Phi_N has
# a coefficient -2 and the largest g_N here
KERNEL_ORDERS = (6, 16, 10, 24, 14, 32, 18, 40, 22, 48, 26, 56, 30,
                 1, 2, 4, 8, 64, 105)


def test_fold_gain_is_one_plus_the_largest_column_sum():
    # x^t mod Phi_N by polynomial division, not the zeta-power table
    for N in KERNEL_ORDERS:
        phi = euler_phi(N)
        cols = [0] * phi
        for t in range(phi, 2 * phi - 1):
            rem = IntPolynomial([0] * t + [1]).divmod_monic(cyclotomic_poly(N))[1]
            for i, c in enumerate(rem.coeffs):
                cols[i] += abs(c)
        assert _fold_gain(N) == 1 + max(cols), N
    assert max(_fold_gain(N) for N in KERNEL_ORDERS[:13]) == 6
    assert min(_fold_gain(N) for N in KERNEL_ORDERS[:13]) == 2
    assert _fold_gain(105) == 28


def test_modulus_refuses_a_width_too_small_for_its_digits(monkeypatch):
    # no Phi_N in use fails the check at any width; a polynomial of large
    # height in its place does, with a real exception
    for N in KERNEL_ORDERS:
        for width in range(2, 12):
            assert _modulus.__wrapped__(N, width) == _pack_digits(cyclotomic_poly(N).coeffs, width)
    monkeypatch.setattr(matrix, "cyclotomic_poly", lambda N: IntPolynomial((-7, 1)))
    with pytest.raises(ArithmeticError, match="cannot hold"):
        _modulus.__wrapped__(1, 3)


@st.composite
def kernel_cases(draw):
    # heights from 1 to 2**61 - 1; the extreme draws put every coefficient
    # at +-height, so the unfolded digits reach the bound B of the width rule
    N = draw(st.sampled_from(KERNEL_ORDERS))
    phi = euler_phi(N)
    h = draw(st.sampled_from([1, 9, 2 ** 20 - 1, 2 ** 61 - 1]))
    extreme = draw(st.booleans())
    coeff = st.sampled_from([-h, h]) if extreme else st.integers(-h, h)
    vec = st.lists(coeff, min_size=phi, max_size=phi)
    length, na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    A = [[draw(vec) for _ in range(length)] for _ in range(na)]
    B = [[draw(vec) for _ in range(length)] for _ in range(nb)]
    den = draw(st.integers(1, 10 ** 6))
    w = [CycNumber(N, draw(vec), draw(st.integers(1, 10 ** 6))) for _ in range(length)]
    return N, A, B, den, w


def _table_form(rows):
    """Rows of coefficient lists as the kernel reads them: (table, index)."""
    return _tabulate([map(tuple, row) for row in rows])


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_dots_equal_field_products_and_sums(case):
    N, A, B, _, _ = case
    phi = euler_phi(N)
    pairs = [(i, j) for i in range(len(A)) for j in range(len(B))]
    table, got = _dots(N, phi, _table_form(A), _table_form(B), len(A[0]), pairs)
    assert len(set(table)) == len(table)
    height = [max(abs(c) for row in M for v in row for c in v) or 1 for M in (A, B)]
    width = _width(N, phi * len(A[0]) * height[0] * height[1])
    for (i, j), k in zip(pairs, got):
        vec = table[k]
        want = CycNumber.zero(N)
        for a, b in zip(A[i], B[j]):
            want = want + CycNumber(N, a, 1) * CycNumber(N, b, 1)
        assert CycNumber(N, vec, 1) == want
        assert all(abs(c) < 1 << (width - 2) for c in want.vec)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_scaling_and_products_equal_field_products(case):
    # the kernel cases widened by a column that repeats column 0 with its
    # factor (a repeated pair) and a column whose factor is 0; scale_rows
    # runs on the transpose, and _products on the tables themselves
    N, A, _, den, w = case
    A = [row + [row[0], row[0]] for row in A]
    w = w + [w[0], CycNumber.zero(N)]
    E = [[CycNumber(N, v, den) for v in row] for row in A]
    want = [[e * y for e, y in zip(row, w)] for row in E]
    M = ExactMatrix.from_vectors(N, A, den)
    B = M.scale_cols(w)
    assert [list(row) for row in B.rows] == want
    assert math.gcd(B.den, *(c for v in B.table for c in v)) == 1
    assert [list(row) for row in M.transpose().scale_rows(w).rows] == [list(c) for c in zip(*want)]
    t1, index = _table_form(A)
    t2 = [tuple(y.vec) for y in w]
    table, rows = _products(N, t1, t2, [[(a, k) for k, a in enumerate(row)] for row in index])
    assert len(set(table)) == len(table)
    assert [[CycNumber(N, table[k], 1) for k in row] for row in rows] == [
        [CycNumber(N, v, 1) * CycNumber(N, y.vec, 1) for v, y in zip(row, w)] for row in A]


# --------------------------------------------------------------------------
# large dot batches cut across forked workers: the output is that of one
# process, whatever the CPU count, the slices or the workers do


def _split_operands(seed, n=24, length=40, N=17):
    # 24 x 24 pairs of 40 terms at phi = 16: 368,640 of work, above
    # SPLIT_WORK; rows drawn from a small pool, so residues repeat
    rng = random.Random(seed)
    phi = euler_phi(N)
    pool = [[rng.randint(-2 ** 20, 2 ** 20) for _ in range(phi)] for _ in range(12)]
    A, B = ([[rng.choice(pool) for _ in range(length)] for _ in range(n)] for _ in "AB")
    return N, phi, _table_form(A), _table_form(B), length


@pytest.fixture
def forks(monkeypatch):
    """The count of os.fork calls; afterwards, this process has no child."""
    count, fork = [0], os.fork

    def counting_fork():
        count[0] += 1
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    yield count
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dots_on(monkeypatch, cpus, *args):
    monkeypatch.setattr(matrix, "_usable_cpus", lambda: cpus)
    return _dots(*args)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_dots_equal_one_process(monkeypatch, forks, cpus):
    N, phi, A, B, length = _split_operands(cpus)
    pairs = [(i, j) for i in range(24) for j in range(24)]
    want = _dots_on(monkeypatch, 1, N, phi, A, B, length, pairs)
    assert forks[0] == 0
    assert _dots_on(monkeypatch, cpus, N, phi, A, B, length, pairs) == want
    assert forks[0] == cpus - 1
    # pairs as an iterator with their count, as A @ B and J~ pass them
    assert _dots_on(monkeypatch, cpus, N, phi, A, B, length, iter(pairs), len(pairs)) == want
    assert forks[0] == 2 * (cpus - 1)


def test_split_matmul_equals_one_process(monkeypatch, forks):
    # A @ B passes _dots a product of ranges and its count
    N, _, A, B, _ = _split_operands(7)
    A, B = (ExactMatrix.from_vectors(N, [[t[k] for k in row] for row in index], 3)
            for t, index in (A, B))
    B = B.transpose()
    monkeypatch.setattr(matrix, "_usable_cpus", lambda: 1)
    want = A @ B
    monkeypatch.setattr(matrix, "_usable_cpus", lambda: 2)
    got = A @ B
    assert forks[0] == 1
    assert (got.table, got.index, got.den) == (want.table, want.index, want.den)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
def test_split_slices_of_odd_and_single_pairs(monkeypatch, forks, count):
    # SPLIT_WORK at 1 cuts even these into min(3, count) slices: 7 pairs
    # into 2 + 2 + 3, 3 pairs into one pair each
    N, phi, A, B, length = _split_operands(count)
    pairs = [((5 * p) % 24, (7 * p + 3) % 24) for p in range(count)]
    want = _dots_on(monkeypatch, 1, N, phi, A, B, length, pairs)
    monkeypatch.setattr(matrix, "SPLIT_WORK", 1)
    assert _dots_on(monkeypatch, 3, N, phi, A, B, length, pairs) == want
    assert forks[0] == min(3, count) - 1


def test_split_without_a_fork_is_computed_here(monkeypatch, forks):
    N, phi, A, B, length = _split_operands(11)
    pairs = [(i, j) for i in range(24) for j in range(24)]
    want = _dots_on(monkeypatch, 1, N, phi, A, B, length, pairs)

    def failing_fork():
        forks[0] += 1
        raise OSError("no fork")
    monkeypatch.setattr(os, "fork", failing_fork)
    assert _dots_on(monkeypatch, 3, N, phi, A, B, length, pairs) == want
    assert forks[0] == 1                # the first failure stops the forking
    monkeypatch.delattr(os, "fork")
    assert matrix._slices(len(pairs), length * phi) == 1


@pytest.mark.parametrize("bad", ["exit", "truncated", "short"])
@pytest.mark.parametrize("failing", [2, 3])
def test_split_recomputes_what_a_worker_did_not_send(monkeypatch, forks, bad, failing):
    # 7 pairs in slices of 2, 2 and 3: the worker of the slice of size
    # failing exits without writing, writes a truncated slice, or writes a
    # slice one residue short; the other worker's slice is used
    N, phi, A, B, length = _split_operands(13)
    pairs = [(p, 23 - 2 * p) for p in range(7)]
    want = _dots_on(monkeypatch, 1, N, phi, A, B, length, pairs)
    dumps = marshal.dumps

    def worker_dumps(part):
        if len(part) != failing:
            return dumps(part)
        if bad == "exit":
            os._exit(0)
        return dumps(part)[:-3] if bad == "truncated" else dumps(part[:-1])
    monkeypatch.setattr(marshal, "dumps", worker_dumps)
    monkeypatch.setattr(matrix, "SPLIT_WORK", 1)
    assert _dots_on(monkeypatch, 3, N, phi, A, B, length, pairs) == want
    assert forks[0] == 2


def test_split_needs_a_lone_thread(monkeypatch, forks):
    N, phi, A, B, length = _split_operands(17)
    pairs = [(i, j) for i in range(24) for j in range(24)]
    want = _dots_on(monkeypatch, 1, N, phi, A, B, length, pairs)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _dots_on(monkeypatch, 2, N, phi, A, B, length, pairs) == want
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks[0] == 0


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert matrix._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert matrix._usable_cpus() == (os.cpu_count() or 1)


# --------------------------------------------------------------------------
# the table form: each distinct value is one table entry, and equal matrices
# are one form


@st.composite
def aliased_cases(draw):
    # a symmetric matrix over a pool of two or three vector objects, the zero
    # vector among them, whose rows of one kind are equal, and a diagonal over
    # a pool of two values: rows, products and residues repeat
    N = draw(st.sampled_from([5, 8, 12]))
    phi = euler_phi(N)
    vec = st.lists(st.integers(-4, 4), min_size=phi, max_size=phi)
    pool = [[0] * phi] + draw(st.lists(vec, min_size=1, max_size=2))
    n = draw(st.integers(2, 5))
    kind = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    pick = {}
    for a in range(2):
        for b in range(a, 2):
            pick[a, b] = pick[b, a] = pool[draw(st.integers(0, len(pool) - 1))]
    rows = [[pick[kind[i], kind[j]] for j in range(n)] for i in range(n)]
    den = draw(st.integers(1, 12))
    values = [CycNumber(N, draw(vec), draw(st.integers(1, 6))), CycNumber.zero(N)]
    diag = [values[draw(st.integers(0, 1))] for _ in range(n)]
    return N, pool, rows, den, diag


@settings(max_examples=40, deadline=None)
@given(aliased_cases())
def test_aliased_vectors_give_cycnumber_results(case):
    N, pool, rows, den, d = case
    n = len(rows)
    before = copy.deepcopy(pool)
    A = ExactMatrix.from_vectors(N, rows, den)
    vecs = copy.deepcopy(A.vecs)
    E = [[CycNumber(N, v, den) for v in row] for row in rows]

    def dot(i, j, w):
        return sum((E[i][t] * w[t] * E[t][j] for t in range(n)), CycNumber.zero(N))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    one = [CycNumber.one(N)] * n
    for _ in range(2):                  # a second pass reads what the first left
        out = A.dots(A, pairs, d)
        assert _as_cyc(out) == [dot(i, j, d) for i, j in pairs]
        # equal outputs of one call are one table entry
        assert len(out.table) == len(set(out.vecs[0]))
        B = A.scale_cols(d)
        assert [[B[i, j] for j in range(n)] for i in range(n)] == [
            [E[i][j] * d[j] for j in range(n)] for i in range(n)]
        assert len(B.table) == len({v for row in B.vecs for v in row})
        S = _sandwich(A, range(n), d)
        assert [[S[i, j] for j in range(n)] for i in range(n)] == [
            [dot(i, j, d) for j in range(n)] for i in range(n)]
        assert A.dots(B, pairs) == A.dots(A, pairs, d)
        assert _sandwich(A, range(n), one) == A @ A
    assert pool == before and A.vecs == vecs


def test_lowest_terms_divides_a_shared_list_once():
    # a value that three entries share is one table entry, divided once
    v, u = (6, -12, 18, 3), (3, 0, 0, 9)
    out, den = _lowest_terms((v, u), 6)
    assert den == 2 and out == ((2, -4, 6, 1), (1, 0, 0, 3))
    assert _lowest_terms(out, den) == (out, den)
    M = ExactMatrix.from_vectors(8, [[v, v], [u, list(v)]], 6)
    assert M.den == 2 and M.table == out and M.index == ((0, 0), (1, 0))


def _unique_form(X):
    """X's table lists each value of its entries once, in row-major order of
    first appearance, over a denominator in lowest terms."""
    return (X.table == tuple(dict.fromkeys(v for row in X.vecs for v in row))
            and math.gcd(X.den, *(c for v in X.table for c in v)) == 1)


@st.composite
def pooled_cases(draw):
    # a symmetric n x n matrix and an n x m one over a pool of two or three
    # values, zero among them, and a diagonal over the same pool
    N = draw(st.sampled_from([5, 8, 12]))
    phi = euler_phi(N)
    value = st.builds(lambda v, d: CycNumber(N, v, d),
                      st.lists(st.integers(-4, 4), min_size=phi, max_size=phi),
                      st.integers(1, 6))
    pool = [CycNumber.zero(N)] + draw(st.lists(value, min_size=1, max_size=2))
    pick = st.sampled_from(pool)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    upper = {(i, j): draw(pick) for i in range(n) for j in range(i, n)}
    sym = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    wide = [[draw(pick) for _ in range(m)] for _ in range(n)]
    return N, sym, wide, [draw(pick) for _ in range(n)], draw(st.integers(1, 5))


@settings(max_examples=60, deadline=None)
@given(pooled_cases())
def test_equal_matrices_have_one_form(case):
    # equal matrices built by different paths are one form, so they compare
    # and hash equal; and no kernel output lists a value twice
    N, sym, wide, d, k = case
    for E in (sym, wide):
        A = ExactMatrix(N, E)
        den = math.lcm(*(e.den for row in E for e in row)) * k
        one_list = {e: [c * (den // e.den) for c in e.vec] for row in E for e in row}
        aliased = ExactMatrix.from_vectors(N, [[one_list[e] for e in row] for row in E], den)
        copied = ExactMatrix.from_vectors(N, [[list(one_list[e]) for e in row] for row in E], den)
        ident = ExactMatrix.identity(N, A.ncols)
        for B in (aliased, copied, A.transpose().transpose(), A @ ident):
            assert B == A and hash(B) == hash(A) and _unique_form(B)
        assert [list(row) for row in A.rows] == E
        x = d[:A.ncols] + d[:1] * (A.ncols - len(d))
        pairs = [(i, j) for i in range(A.nrows) for j in range(A.nrows)]
        for X in (A.dots(A, pairs, x), A.scale_cols(x), A.galois(N - 1), A + A.scale_cols(x),
                  A - A, A.transpose()):
            assert _unique_form(X)
    S = ExactMatrix(N, sym)
    assert _unique_form(S.fold_blocks(range(len(sym)), d)[0])


@settings(max_examples=40, deadline=None)
@given(pooled_cases())
def test_scaling_multiplies_each_distinct_pair_once(case):
    # a value repeated in a column, or a factor repeated along a row, is one
    # (entry, factor) pair: scale_cols and scale_rows pass _dots one pair
    # per distinct pair of values, each a dot of length 1
    N, sym, _, d, _ = case
    calls = []
    dots = matrix._dots

    def recording_dots(N, phi, A, B, length, pairs):
        pairs = list(pairs)
        calls.append((length, pairs))
        return dots(N, phi, A, B, length, pairs)
    A = ExactMatrix(N, sym)
    n = A.nrows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(matrix, "_dots", recording_dots)
        A.scale_cols(d)
        A.scale_rows(d)
    (one, cols), (length, rows) = calls
    assert one == length == 1
    assert len(cols) == len(set(cols)) == len({(sym[i][j], d[j]) for i in range(n) for j in range(n)})
    assert len(rows) == len(set(rows)) == len({(sym[i][j], d[i]) for i in range(n) for j in range(n)})


@pytest.mark.parametrize("call, shapes", [
    (lambda a, b: a + b, "2x2.*3x3"),
    (lambda a, b: a - b, "2x2.*3x3"),
    (lambda a, b: a.first_difference(b), "2x2.*3x3"),
    (lambda a, b: b.first_difference(a), "3x3.*2x2"),
    (lambda a, b: ExactMatrix(12, [[CycNumber.one(12)] * 3]).trace(), "1x3"),
    (lambda a, b: a @ b, "2x2.*3x3"),
], ids=["add", "sub", "first_difference", "first_difference_swapped", "trace", "matmul"])
def test_shape_mismatch_is_a_value_error(call, shapes):
    # entrywise operations must not zip rows and truncate, or the 2 x 2
    # identity would compare "equal" to the 3 x 3 one and their sum be 2 x 2
    with pytest.raises(ValueError, match=shapes):
        call(ExactMatrix.identity(12, 2), ExactMatrix.identity(12, 3))
