"""Tests for the exact arithmetic kernel."""
import copy
import math
import random
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
    Folding,
    char_poly,
    det_mod,
    matmul_mod,
    poly_at_matrix_mod,
    residue_matrix,
    _dots,
    _fold_gain,
    _lowest_terms,
    _modulus,
    _pack_digits,
    _scale_columns,
    _unfold,
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


def test_residue_matrix_reduces_each_distinct_vector_once(monkeypatch):
    # J~'s equal entries are one list, so the r = 4 matrix (n = 35) needs
    # one residue per distinct vector object, not one per entry
    from tljhecke.recoupling import TheoryParams
    from tljhecke.rep_genus2 import genus2_rep
    jt = genus2_rep(TheoryParams(4)).jtilde
    sp = next(split_primes(jt.order))
    reduced = []
    plain = SplitPrime.residues

    def counted(self, order, vecs, den):
        vecs = list(vecs)
        reduced.extend(map(id, vecs))
        return plain(self, order, vecs, den)
    monkeypatch.setattr(SplitPrime, "residues", counted)
    J = residue_matrix(jt, sp)
    distinct = {id(v) for row in jt.vecs for v in row}
    assert sorted(reduced) == sorted(distinct) and len(distinct) < jt.nrows ** 2
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


def _matrix(N, vecs, den):
    """Rows of coefficient vectors over one denominator as an ExactMatrix."""
    return ExactMatrix(N, [[CycNumber(N, v, den) for v in row] for row in vecs])


def _symmetric(N, n, upper, den):
    """The symmetric n x n ExactMatrix whose upper triangle is given row by
    row, as Folding.blocks gives alpha and beta."""
    it = iter(upper)
    entries = {(i, j): CycNumber(N, next(it), den) for i in range(n) for j in range(i, n)}
    return ExactMatrix(N, [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


def _sandwich(A, pi, d, *later):
    """A diag(d) A folded over pi, then S diag(x) S for each x of later,
    with S the previous result folded over the identity: the calls that
    rep_genus2._relations_hold chains."""
    N, n = A.order, A.nrows
    S = A.folding(pi).product(d)
    for x in later:
        S = Folding(N, *S, range(n)).product(x)
    return _matrix(N, *S)


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
    assert _as_cyc(A.order, *A.dots(A, pairs, d1, d2)) == [want[i, j] for i, j in pairs]
    assert _as_cyc(A.order, *A.dots(A, pairs)) == [(A @ A.transpose())[i, j] for i, j in pairs]


def _as_cyc(N, vecs, den):
    """dots results (coefficient vectors over one denominator) as CycNumbers."""
    return [CycNumber(N, v, den) for v in vecs]


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
    A, pi, moved, fixed_by_pi, d2 = case
    ident = range(A.nrows)
    for d in (moved, fixed_by_pi):
        S = _product(A, d)
        assert _sandwich(A, pi, d) == S == _sandwich(A, ident, d)
        assert _sandwich(A, pi, d, d2) == _product(S, d2) == _sandwich(A, ident, d, d2)


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_fold_blocks_give_every_entry(case):
    A, pi, moved, fixed_by_pi, _ = case
    N, zero = A.order, CycNumber.zero(A.order)
    f = A.folding(pi)
    reps, m = f.reps, f.pairs
    assert sorted(reps) == sorted(i for i in range(A.nrows) if i <= pi[i])
    assert all(i < pi[i] for i in reps[:m]) and all(i == pi[i] for i in reps[m:])
    for d in (moved, fixed_by_pi):
        S = _product(A, d)
        alpha, beta, gamma, (da, db, dg) = f.blocks(d)
        alpha, beta = _symmetric(N, len(reps), alpha, da), _symmetric(N, m, beta, db)
        if gamma is not None:
            gamma = _matrix(N, [gamma[a * m:(a + 1) * m] for a in range(len(reps))], dg)
        for a, r in enumerate(reps):
            for b, c in enumerate(reps):
                al = alpha[a, b]
                be = beta[a, b] if a < m and b < m else zero
                g = gamma[a, b] if gamma is not None and b < m else zero
                h = gamma[b, a] if gamma is not None and a < m else zero
                assert S[r, c] == al + be + g + h
                assert S[pi[r], pi[c]] == al + be - g - h
                assert S[r, pi[c]] == al - be - g + h
                assert S[pi[r], c] == al - be + g - h
    assert f.blocks(fixed_by_pi)[2] is None


@settings(max_examples=60, deadline=None)
@given(folded_cases())
def test_identity_folding_blocks_are_the_upper_triangle(case):
    # _relations_hold reads S4 = S2 E S2 as the alpha of S2 folded over the
    # identity, taken in order against the upper triangle of J~: row by row,
    # j from i to n - 1
    A, pi, moved, fixed_by_pi, y = case
    N, n = A.order, A.nrows
    for d in (moved, fixed_by_pi):
        f = Folding(N, *A.folding(pi).product(d), range(n))
        alpha, beta, gamma, (da, _, _) = f.blocks(y)
        S = _matrix(N, *f.product(y))
        assert [CycNumber(N, v, da) for v in alpha] == [S[i, j] for i in range(n)
                                                        for j in range(i, n)]
        assert beta == [] and gamma is None


@settings(max_examples=30, deadline=None)
@given(folded_cases())
def test_vector_results_match_cycnumber_references(case):
    # ExactMatrix holds coefficient vectors over one denominator; each result
    # read back entry by entry against CycNumber arithmetic on the entries
    A, pi, d, _, y = case
    N, n = A.order, A.nrows
    E = [[CycNumber(N, v, A.den) for v in row] for row in A.vecs]
    assert ExactMatrix(N, E) == A and [list(row) for row in A.rows] == E

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v)), CycNumber.zero(N))

    def scaled(rows, x):
        return [[e * x[t] for t, e in enumerate(row)] for row in rows]
    cols, Ey = [list(c) for c in zip(*E)], scaled(E, y)
    Eyd, Ed = scaled(Ey, d), scaled(E, d)
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
    assert _as_cyc(N, *A.dots(A, [(i, j) for i in range(n) for j in range(n)], d, y)) == [
        dot(E[i], Eyd[j]) for i in range(n) for j in range(n)]
    yc = [list(c) for c in zip(*Ey)]
    assert [[(A @ B)[i, j] for j in range(n)] for i in range(n)] == [
        [dot(E[i], yc[j]) for j in range(n)] for i in range(n)]
    vecs, den = A.folding(pi).product(d)
    assert [[CycNumber(N, v, den) for v in row] for row in vecs] == [
        [dot(Ed[i], cols[j]) for j in range(n)] for i in range(n)]
    sp = next(split_primes(N, A.den))
    assert residue_matrix(A, sp) == [[sp.residue(x) for x in row] for row in E]


def test_fold_rejects_what_pi_does_not_fix():
    z = CycNumber.zeta(12)
    one = CycNumber.one(12)
    A = ExactMatrix(12, [[z, one, z], [one, z, z], [z, z, one]])
    swap = [1, 0, 2]
    assert A.folding(swap).pairs == 1
    assert _sandwich(A, swap, [z, one, z]) == _product(A, [z, one, z])
    B = ExactMatrix(12, [[z, one, z], [one, z, one], [z, one, one]])
    with pytest.raises(ValueError, match="fixed by pi"):
        B.folding(swap)
    assert _sandwich(B, range(3), [z] * 3) == _product(B, [z] * 3)
    for bad in ([1, 2, 0], [0, 1], [0, 0, 2]):
        with pytest.raises(ValueError, match="pi must be"):
            A.folding(bad)


def test_sandwich_rejects_asymmetric_matrix():
    z = CycNumber.zeta(12)
    A = ExactMatrix(12, [[z, z + 1], [z - 1, z]])
    with pytest.raises(ValueError, match="symmetric"):
        A.folding(range(2))


@pytest.mark.parametrize("length", [1, 3])
def test_diagonal_length_must_match(length):
    # a longer diagonal is not truncated and a shorter one is no IndexError:
    # both are a ValueError that names the two lengths
    z = CycNumber.zeta(12)
    A = ExactMatrix(12, [[z, z + 1], [z + 1, z]])
    d = [z] * length
    f = A.folding(range(2))
    chained = Folding(12, *f.product([z, z]), range(2))
    for call in (lambda: f.product(d), lambda: chained.product(d),
                 lambda: f.blocks(d), lambda: chained.blocks(d),
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


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_dots_equal_field_products_and_sums(case):
    N, A, B, _, _ = case
    phi = euler_phi(N)
    pairs = [(i, j) for i in range(len(A)) for j in range(len(B))]
    got = list(_dots(N, phi, A, B, len(A[0]), pairs))
    height = [max(abs(c) for row in M for v in row for c in v) or 1 for M in (A, B)]
    width = _width(N, phi * len(A[0]) * height[0] * height[1])
    for (i, j), vec in zip(pairs, got):
        want = CycNumber.zero(N)
        for a, b in zip(A[i], B[j]):
            want = want + CycNumber(N, a, 1) * CycNumber(N, b, 1)
        assert CycNumber(N, vec, 1) == want
        assert all(abs(c) < 1 << (width - 2) for c in want.vec)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_scale_columns_equals_field_products(case):
    N, A, _, den, w = case
    x = ExactMatrix(N, [w])
    out, oden = _scale_columns(N, euler_phi(N), A, den, x.vecs[0], x.den)
    assert math.gcd(oden, *(c for row in out for v in row for c in v)) == 1
    for row, orow in zip(A, out):
        for v, x, o in zip(row, w, orow):
            assert CycNumber(N, o, oden) == CycNumber(N, v, den) * x


# --------------------------------------------------------------------------
# aliasing: the kernel's equal outputs are one list, and no vector is written


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
        out, oden = A.dots(A, pairs, d)
        assert [CycNumber(N, v, oden) for v in out] == [dot(i, j, d) for i, j in pairs]
        # equal outputs of one call are one list
        assert len({id(v) for v in out}) == len({tuple(v) for v in out})
        B = A.scale_cols(d)
        assert [[B[i, j] for j in range(n)] for i in range(n)] == [
            [E[i][j] * d[j] for j in range(n)] for i in range(n)]
        assert len({id(v) for row in B.vecs for v in row}) == len(
            {tuple(v) for row in B.vecs for v in row})
        S = ExactMatrix.from_vectors(N, *A.folding(range(n)).product(d))
        assert [[S[i, j] for j in range(n)] for i in range(n)] == [
            [dot(i, j, d) for j in range(n)] for i in range(n)]
        assert A.dots(B, pairs)[0] == A.dots(A, pairs, d)[0]
        assert ExactMatrix.from_vectors(N, *A.folding(range(n)).product(one)) == A @ A
    assert pool == before and A.vecs == vecs


def test_lowest_terms_divides_a_shared_list_once():
    v, u = [6, -12, 18, 3], [3, 0, 0, 9]
    rows = [[v, v], [u, v]]
    out, den = _lowest_terms(rows, 6)
    assert den == 2 and out == [[[2, -4, 6, 1]] * 2, [[1, 0, 0, 3], [2, -4, 6, 1]]]
    assert out[0][0] is out[0][1] is out[1][1]
    assert rows == [[v, v], [u, v]] and v == [6, -12, 18, 3] and u == [3, 0, 0, 9]
    assert _lowest_terms(out, den) == (out, den)


def test_unfold_rescales_a_shared_list_once():
    # pi swaps 0 and 1 and fixes 2 and 3: reps = [0, 2, 3], one pair.  alpha
    # is the upper triangle over reps, v and u each three times, and its
    # denominator 1 is brought up to beta's 2: each is doubled once, into one
    # new list, which the entries between fixed points are
    v, u, w = [1, 2, 0, 0], [0, 1, 0, 0], [1, 0, 0, 1]
    alpha, beta = [v, u, u, v, v, u], [w]
    S, den = _unfold([1, 0, 2, 3], [0, 2, 3], 1, alpha, beta, None, (1, 2, 1))
    v2, u2 = [2, 4, 0, 0], [0, 2, 0, 0]
    plus, minus = [3, 4, 0, 1], [1, 4, 0, -1]
    assert den == 2
    assert S == [[plus, minus, u2, u2], [minus, plus, u2, u2],
                 [u2, u2, v2, v2], [u2, u2, v2, u2]]
    assert S[2][2] is S[2][3] is S[3][2]
    assert alpha == [v, u, u, v, v, u] and alpha[0] is alpha[3] and v == [1, 2, 0, 0]
