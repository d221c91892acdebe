"""Exact arithmetic kernel: rationals, Laurent polynomials in the formal
variable A, their fraction field, and cyclotomic fields Q(zeta_N).

Everything here is exact.  Floats appear only in the embedding; real_sign
decides on Python ints, from a fixed-point table of cos and sin(2 pi j / N)
with a proven error bound (_unit_roots), so no result is decided by
rounding.  Square roots are never
taken: a quantity known only through its square (an entry of the unitary
genus-2 matrix, the global dimension D) is carried as its square and a sign.

Q(zeta_N) arithmetic has one reduction table, _zeta_powers(N) (x^t mod
Phi_N for t mod N).  One substitution loop over it, _power_sum, applies the
Galois action, shifts, lifts and specialization; descend, the inverse of a
lift, only reads slots (descent_step).  A product reads the table itself:
it multiplies only the nonzero coefficient pairs of its operands and folds
each product into its reduced slot as it is formed, so no unreduced
convolution is built.  The field inverse is the product of the other Galois
conjugates divided by the rational norm.

All values are immutable after construction and all operations are pure,
so the module is safe for unrestricted data-parallel use.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Rational numbers are the stdlib Fraction: reduced, positive denominator,
# arbitrary precision.
Rational = Fraction


class PoleAtRoot(ArithmeticError):
    """A Laurent fraction genuinely has a pole at the requested root of unity."""


class NonMonic(ValueError):
    """Operation requires a monic integer polynomial."""


# --------------------------------------------------------------------------
# integer polynomials (dense, constant term first)

def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def power(x, n: int, one):
    """x**n for n >= 0 by square-and-multiply; one is the identity of x's ring."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _trim(cs: list) -> list:
    """cs without its trailing zero coefficients, trimmed in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _convolve(a: Sequence, b: Sequence, zero) -> list:
    """The coefficients of the product of two dense polynomials, constant
    term first (schoolbook; a zero coefficient of a is skipped); [] when
    either is empty."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = out[i + j] + c * d
    return out


def _long_divide(num: Sequence, den: Sequence, over_lead, zero) -> tuple[list, list]:
    """Quotient and remainder coefficients (untrimmed) of num by den, whose
    last coefficient is nonzero (Knuth, TAOCP 4.6.1, Algorithm D).
    over_lead(c) is c divided by that leading coefficient."""
    r = list(num)
    dd = len(den) - 1
    q = [zero] * max(len(r) - dd, 0)
    for i in range(len(r) - dd - 1, -1, -1):
        c = r[i + dd]
        if c:
            c = q[i] = over_lead(c)
            for j, x in enumerate(den):
                r[i + j] = r[i + j] - c * x
    return q, r


class IntPolynomial:
    """Polynomial with integer coefficients, constant term first.

    Canonical form: no trailing zero coefficients (the zero polynomial has
    an empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in _trim(list(coeffs))))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_convolve(self.coeffs, other.coeffs, 0))

    def divmod_monic(self, d: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder by a monic divisor (stays in Z[x])."""
        if not d.is_monic():
            raise NonMonic("divisor must be monic")
        q, r = _long_divide(self.coeffs, d.coeffs, lambda c: c, 0)
        return IntPolynomial(q), IntPolynomial(r)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial([0])"
        return f"IntPolynomial({list(self.coeffs)})"


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> IntPolynomial:
    """The N-th cyclotomic polynomial Phi_N, monic of degree phi(N).

    Computed in closed form as the Moebius product
    prod_{k | rad N} (x^(N/k) - 1)^mu(k): one multiplication by each binomial
    with mu(k) = 1, then one exact division by each with mu(k) = -1, each
    linear in the degree.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    primes = _prime_factors(N)
    ups, downs = [], []
    for mask in range(1 << len(primes)):
        k = math.prod(q for i, q in enumerate(primes) if mask >> i & 1)
        (downs if mask.bit_count() % 2 else ups).append(N // k)
    cs = [1]
    for m in ups:                       # cs (x^m - 1)
        cs = [0] * m + cs
        for i in range(len(cs) - m):
            cs[i] -= cs[i + m]
    for m in downs:                     # cs / (x^m - 1): q_i = q_(i-m) - c_i
        q = cs[:len(cs) - m]
        for i in range(len(q)):
            q[i] = (q[i - m] if i >= m else 0) - q[i]
        cs = q
    return IntPolynomial(cs)


def cyclotomic_factor(p: IntPolynomial) -> int | None:
    """The smallest k with Phi_k dividing p, or None if there is none.

    Since phi(k) >= sqrt(k/2), every Phi_k of degree at most deg(p) has
    k <= 2 * deg(p)^2, so only that range is searched.
    """
    d = p.degree
    for k in range(1, 2 * d * d + 1):
        if euler_phi(k) <= d and p.divmod_monic(cyclotomic_poly(k))[1].is_zero():
            return k
    return None


def is_cyclotomic(p: IntPolynomial) -> bool:
    """True iff p equals Phi_n for some n (Phi_k divides Phi_n only for k = n)."""
    if not p.is_monic():
        raise NonMonic("is_cyclotomic expects a monic polynomial")
    if p.degree < 1:
        raise NonMonic("is_cyclotomic expects degree >= 1")
    k = cyclotomic_factor(p)
    return k is not None and cyclotomic_poly(k) == p


# --------------------------------------------------------------------------
# Laurent polynomials over Q

class LaurentPoly:
    """Laurent polynomial over Q in the variable A.

    ``coeffs[k]`` is the coefficient of A**(low + k).  Canonical form: the
    first and last stored coefficients are nonzero (zero polynomial stores
    an empty tuple with low = 0).
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: Iterable):
        cs = _trim([Fraction(c) for c in coeffs])
        start = next((i for i, c in enumerate(cs) if c), 0)
        object.__setattr__(self, "low", low + start if cs else 0)
        object.__setattr__(self, "coeffs", tuple(cs[start:]))

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors
    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    @staticmethod
    def monomial(e: int, c=1) -> "LaurentPoly":
        return LaurentPoly(e, (c,))

    @staticmethod
    def from_int_poly(p: IntPolynomial) -> "LaurentPoly":
        return LaurentPoly(0, p.coeffs)

    # -- structure
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return (isinstance(other, LaurentPoly)
                and self.low == other.low and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.low, self.coeffs))

    # -- arithmetic
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [Fraction(0)] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] += c
        return LaurentPoly(low, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.low + other.low, _convolve(self.coeffs, other.coeffs, Fraction(0)))

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(self.low, tuple(x * c for x in self.coeffs))

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by A**e."""
        return LaurentPoly(self.low + e, self.coeffs)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        return power(self, n, LaurentPoly.one())

    def substitute_inverse(self) -> "LaurentPoly":
        """The image under A -> A**-1."""
        return LaurentPoly(-self.high, tuple(reversed(self.coeffs)))

    def divmod(self, d: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Division as ordinary polynomials (after clearing the lows)."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = d.coeffs[-1]
        q, r = _long_divide(self.coeffs, d.coeffs, lambda c: c / lead, Fraction(0))
        return LaurentPoly(self.low - d.low, q), LaurentPoly(self.low, r)

    def exact_div(self, d: "LaurentPoly") -> "LaurentPoly":
        q, r = self.divmod(d)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def content(self) -> Fraction:
        """Positive rational content (gcd of numerators / lcm of denominators)."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(math.gcd(*(c.numerator for c in self.coeffs)),
                        math.lcm(*(c.denominator for c in self.coeffs)))

    def primitive_int_coeffs(self) -> tuple[int, ...]:
        c = self.content()
        return tuple(int(x / c) for x in self.coeffs)

    def evaluate_complex(self, z: complex) -> complex:
        v = 0j
        for c in reversed(self.coeffs):
            v = v * z + c.numerator / c.denominator
        return v * z ** self.low

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*A^{self.low + i}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


def _int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive-PRS gcd of two primitive integer polynomials (dense lists)."""

    def prim(p):
        g = 0
        for c in p:
            g = math.gcd(g, c)
        if g in (0, 1):
            return list(p)
        return [c // g for c in p]

    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        return prim(b)
    if not b:
        return prim(a)
    if len(a) < len(b):
        a, b = b, a
    a, b = prim(a), prim(b)
    while b:
        # pseudo-remainder of a by b
        r = list(a)
        lead = b[-1]
        db = len(b) - 1
        while len(r) - 1 >= db and r:
            if r[-1] == 0:
                r.pop()
                continue
            shift_e = len(r) - 1 - db
            c = r[-1]
            r = [x * lead for x in r]
            for j, bc in enumerate(b):
                r[shift_e + j] -= c * bc
            r = _trim(r)
        a, b = b, prim(r)
    g = prim(a)
    if g and g[-1] < 0:
        g = [-c for c in g]
    return g


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (the unit A**k is discarded)."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        g_int = _int_poly_gcd(a.primitive_int_coeffs(), b.primitive_int_coeffs())
        g = LaurentPoly(0, g_int)
    if g.is_zero():
        return g
    return g.shift(-g.low).scale(Fraction(1, 1) / g.coeffs[-1])


class LaurentFraction:
    """Ratio of two Laurent polynomials over Q.

    Canonical form: den is nonzero, monic, has lowest exponent 0, and shares
    no content or polynomial factor with num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("LaurentFraction with zero denominator")
        num, den = self._reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("LaurentFraction is immutable")

    @staticmethod
    def _reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        if num.is_zero():
            return LaurentPoly.zero(), LaurentPoly.one()
        num = num.shift(-den.low)
        den = den.shift(-den.low)
        g = laurent_gcd(num, den)
        if not g.is_zero() and len(g.coeffs) > 1:
            num = num.exact_div(g)
            den = den.exact_div(g)
            num = num.shift(-den.low)
            den = den.shift(-den.low)
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return num, den

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> "LaurentFraction":
        """Trusted constructor: caller guarantees the canonical invariants."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def zero() -> "LaurentFraction":
        return LaurentFraction._raw(LaurentPoly.zero(), LaurentPoly.one())

    @staticmethod
    def one() -> "LaurentFraction":
        return LaurentFraction._raw(LaurentPoly.one(), LaurentPoly.one())

    @staticmethod
    def constant(c) -> "LaurentFraction":
        return LaurentFraction(LaurentPoly.constant(c))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "LaurentFraction":
        return LaurentFraction._raw(p, LaurentPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == LaurentPoly.one()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentFraction.constant(other)
        elif isinstance(other, LaurentPoly):
            other = LaurentFraction.from_poly(other)
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "LaurentFraction") -> "LaurentFraction":
        return LaurentFraction(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    def __neg__(self) -> "LaurentFraction":
        return LaurentFraction._raw(-self.num, self.den)

    def __sub__(self, other: "LaurentFraction") -> "LaurentFraction":
        return self + (-other)

    def __mul__(self, other: "LaurentFraction") -> "LaurentFraction":
        return LaurentFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "LaurentFraction") -> "LaurentFraction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero LaurentFraction")
        return LaurentFraction(self.num * other.den, self.den * other.num)

    def bar(self) -> "LaurentFraction":
        """The image under A -> A**-1."""
        return LaurentFraction(self.num.substitute_inverse(),
                               self.den.substitute_inverse())

    def evaluate_complex(self, z: complex) -> complex:
        return self.num.evaluate_complex(z) / self.den.evaluate_complex(z)

    def __repr__(self):
        if self.is_poly():
            return f"LaurentFraction({self.num!r})"
        return f"LaurentFraction({self.num!r} / {self.den!r})"


# --------------------------------------------------------------------------
# cyclotomic numbers

@lru_cache(maxsize=None)
def _zeta_powers(N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^t mod Phi_N in the power basis, t = 0..N-1, as sparse rows: the
    (i, c) pairs with c != 0 the coefficient of x^i.

    Row t is zeta_N^t; since Phi_N divides x^N - 1, row t mod N is also the
    reduction of x^t for every t, which is how products fold.  Rows are
    sparse (for t >= phi, 6-50% nonzero at the orders used here, 1 in 16 at
    N = 32), so folding touches only their nonzero entries.
    """
    base = cyclotomic_poly(N).coeffs
    phi = len(base) - 1
    rows = [tuple(int(i == t) for i in range(phi)) for t in range(phi)]
    x_phi = [-c for c in base[:phi]]
    for _ in range(phi, N):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple(a + top * b for a, b in zip((0,) + prev[:-1], x_phi)))
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _power_sum(N: int, out: list[int], terms: Iterable[tuple[int, int]]) -> list[int]:
    """Add sum c * x^t mod Phi_N over the (c, t) terms into out (any integer t)."""
    powers = _zeta_powers(N)
    for c, t in terms:
        if c:
            for i, v in powers[t % N]:
                out[i] += c * v
    return out


def shift_vector(N: int, vec: Sequence[int], t: int) -> tuple[int, ...]:
    """The power-basis coefficients of zeta_N**t x, x given by its
    coefficients vec: a shift, no product."""
    if t % N == 0:
        return tuple(vec)
    return tuple(_power_sum(N, [0] * len(vec), zip(vec, range(t, t + len(vec)))))


@lru_cache(maxsize=None)
def descent_step(N: int, order: int) -> int:
    """s = N / order, when Phi_N(x) = Phi_order(x**s): order divides N and
    every prime factor of s divides order.  Then Q(zeta_order) is the span
    of the power-basis slots of Q(zeta_N) divisible by s, and zeta_N**c
    Q(zeta_order) (c < s) the slots congruent to c.  ValueError otherwise."""
    if order < 1 or N % order or euler_phi(N) != N // order * euler_phi(order):
        raise ValueError(f"Q(zeta_{order}) is not spanned by power-basis slots of Q(zeta_{N})")
    return N // order


def square_subfield_order(N: int) -> int:
    """The order M of Q(zeta_N**2) = Q(zeta_M) that descent_step accepts:
    N / 2 when 4 divides N, else N (Q(zeta_N**2) is then all of Q(zeta_N))."""
    return N // 2 if N % 4 == 0 else N


@lru_cache(maxsize=None)
def _zeta_logs(N: int) -> dict[tuple[int, ...], int]:
    """The power-basis vector of zeta_N^t -> t, for t = 0..N-1."""
    phi = euler_phi(N)
    return {tuple(_power_sum(N, [0] * phi, [(1, t)])): t for t in range(N)}


# --------------------------------------------------------------------------
# fixed-point embedding: cos and sin of 2 pi j / N on Python ints

def _atan_inv(x: int, w: int) -> tuple[int, int]:
    """atan(1/x) * 2**w for an integer x >= 2, and a bound on its error in
    units of 2**-w.  p is floor(2**w / x**(2k+1)) exactly (nested floors
    are one floor), so each of the k terms is within one unit, and the tail
    after the first zero p is below one unit."""
    x2, p, total, k = x * x, (1 << w) // x, 0, 0
    while p:
        t = p // (2 * k + 1)
        total += -t if k & 1 else t
        p //= x2
        k += 1
    return total, k + 1


def _expi(t: int, et: int, w: int) -> tuple[int, int, int]:
    """cos and sin of theta times 2**w, for 0 <= theta < 1 given as t within
    et units of theta * 2**w, and a bound on the error of each.  Term k of
    the series of exp(i theta) is theta**k / k! * 2**w within d units: d
    grows by the errors of the previous term and of t, and by one floor.
    The tail after the first zero term is at most that term, so below d."""
    one = 1 << w
    parts, term, d, err, k = [one, 0], one, 0, 0, 0
    while term:
        k += 1
        d = -(-(d * (t + et) + (term + d) * et) // (one * k)) + 1
        term = term * t // (one * k)
        parts[k & 1] += -term if k & 2 else term
        err += d
    return parts[0], parts[1], err + d


# the bits at which embed and real_sign first evaluate, doubled
# until they decide: one table per order serves both
FIRST_BITS = 128


@lru_cache(maxsize=None)
def _unit_roots(N: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """cos and sin of 2 pi j / N times 2**bits for j < phi(N), each within
    one unit of the exact value.

    The work is done at w = bits + g bits: pi by Machin's formula
    16 atan(1/5) - 4 atan(1/239), z = exp(2 pi i / (m N)) by its Taylor
    series (m = 7 when N < 7 keeps the angle below 1), and the powers
    z**(m j) by rotation, each adding the error of z and two floors to the
    modulus of the error.  The bounds are tracked as integers, and g grows
    until they are below 2**(g-1) units, so that rounding to bits leaves
    every entry within 1/2 + 1/2 unit.
    """
    m = 1 if N >= 7 else 7
    phi = euler_phi(N)
    g = 16 + N.bit_length() + bits.bit_length()
    while True:
        w = bits + g
        one = 1 << w
        a, ea = _atan_inv(5, w)
        b, eb = _atan_inv(239, w)
        t = 2 * (16 * a - 4 * b) // (m * N)
        et = 2 * (16 * ea + 4 * eb) // (m * N) + 2
        zr, zi, ez = _expi(t, et, w)
        ez *= 2                         # the modulus, from the two parts
        xr, xi, e = one, 0, 0
        roots = []
        for s in range(m * (phi - 1) + 1):
            if s % m == 0:
                roots.append((xr, xi))
            xr, xi = (xr * zr - xi * zi) >> w, (xr * zi + xi * zr) >> w
            e += -(-(one + e) * ez // one) + 2
        if e <= 1 << (g - 1):
            half = 1 << (g - 1)
            return (tuple((x + half) >> g for x, _ in roots),
                    tuple((y + half) >> g for _, y in roots))
        g += 16


class CycNumber:
    """Element of Q(zeta_N) as a rational vector in the power basis mod Phi_N.

    Internally stored as an integer vector over a single positive denominator
    with the content reduced; equality is therefore plain tuple equality.
    """

    __slots__ = ("order", "den", "vec")

    def __init__(self, order: int, coeffs: Iterable, den: int | None = None):
        phi = euler_phi(order)
        if den is None:
            fracs = [Fraction(c) for c in coeffs]
            if len(fracs) != phi:
                raise ValueError(f"need {phi} coefficients for Q(zeta_{order})")
            d = math.lcm(*(f.denominator for f in fracs))
            vec = [int(f * d) for f in fracs]
        else:
            vec = [int(c) for c in coeffs]
            if len(vec) != phi:
                raise ValueError(f"need {phi} coefficients for Q(zeta_{order})")
            d = int(den)
        vec, d = self._normalize(vec, d)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "vec", tuple(vec))

    def __setattr__(self, *a):
        raise AttributeError("CycNumber is immutable")

    @staticmethod
    def _normalize(vec: list[int], den: int) -> tuple[list[int], int]:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, vec = -den, [-c for c in vec]
        if not any(vec):
            return [0] * len(vec), 1
        g = math.gcd(den, *vec)
        if g > 1:
            vec = [c // g for c in vec]
            den //= g
        return vec, den

    @classmethod
    def _raw(cls, order: int, vec: list[int], den: int) -> "CycNumber":
        vec, den = cls._normalize(vec, den)
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "vec", tuple(vec))
        return self

    # -- constructors
    @staticmethod
    def zero(order: int) -> "CycNumber":
        return CycNumber._raw(order, [0] * euler_phi(order), 1)

    @staticmethod
    def one(order: int) -> "CycNumber":
        v = [0] * euler_phi(order)
        v[0] = 1
        return CycNumber._raw(order, v, 1)

    @staticmethod
    def from_rational(order: int, c) -> "CycNumber":
        c = Fraction(c)
        v = [0] * euler_phi(order)
        v[0] = c.numerator
        return CycNumber._raw(order, v, c.denominator)

    @staticmethod
    def zeta(order: int, e: int = 1) -> "CycNumber":
        """zeta_N ** e, reduced into the power basis."""
        return CycNumber._raw(order, _power_sum(order, [0] * euler_phi(order), [(1, e)]), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.vec)

    # -- predicates
    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.vec[0], self.den)

    def is_real(self) -> bool:
        return self == self.conj()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            if not self.is_rational():
                return False
            return Fraction(self.vec[0], self.den) == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("comparing CycNumbers of different orders")
        return self.den == other.den and self.vec == other.vec

    def __hash__(self):
        return hash((self.order, self.den, self.vec))

    # -- ring operations
    def _coerce(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise ValueError("mixing CycNumbers of different orders")
            return other
        return CycNumber.from_rational(self.order, other)

    def __add__(self, other) -> "CycNumber":
        other = self._coerce(other)
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        vec = [a * m1 + b * m2 for a, b in zip(self.vec, other.vec)]
        return CycNumber._raw(self.order, vec, d1 * m1)

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        return CycNumber._raw(self.order, [-c for c in self.vec], self.den)

    def __sub__(self, other) -> "CycNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CycNumber":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CycNumber":
        # only nonzero coefficient pairs are multiplied (about a quarter of
        # the coefficients are nonzero in the recoupling values), and each
        # product goes straight into its reduced slot: x^t for t >= phi is
        # row t mod N of the table (t reaches N for odd N)
        other = self._coerce(other)
        N, phi = self.order, len(self.vec)
        powers = _zeta_powers(N)
        out = [0] * phi
        bs = [(j, b) for j, b in enumerate(other.vec) if b]
        for i, a in enumerate(self.vec):
            if a:
                for j, b in bs:
                    t = i + j
                    if t < phi:
                        out[t] += a * b
                    else:
                        c = a * b
                        for k, v in powers[t % N]:
                            out[k] += c * v
        return CycNumber._raw(N, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Field inverse: the product of the other Galois conjugates divided by
        the norm, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero CycNumber")
        if self.is_rational():
            return CycNumber.from_rational(self.order, 1 / self.as_fraction())
        N = self.order
        others = CycNumber.one(N)
        for m in range(2, N):
            if math.gcd(m, N) == 1:
                others = others * self.galois(m)
        norm = self * others
        if not norm.is_rational():
            raise ArithmeticError(f"norm of {self!r} is not rational (bug)")
        return others / norm.as_fraction()

    def __truediv__(self, other) -> "CycNumber":
        other = self._coerce(other)
        if other.is_rational():
            f = other.as_fraction()
            return CycNumber._raw(self.order,
                                  [c * f.denominator for c in self.vec],
                                  self.den * f.numerator)
        return self * other.inverse()

    def __pow__(self, n: int) -> "CycNumber":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, CycNumber.one(self.order))

    # -- Galois action
    def galois(self, m: int) -> "CycNumber":
        """Apply the automorphism zeta -> zeta**m (m coprime to the order)."""
        N = self.order
        if math.gcd(m, N) != 1:
            raise ValueError(f"{m} is not coprime to {N}")
        out = _power_sum(N, [0] * len(self.vec),
                         ((c, j * m) for j, c in enumerate(self.vec)))
        return CycNumber._raw(N, out, self.den)

    def zeta_log(self) -> int | None:
        """The t in 0..N-1 with self = zeta_N**t, or None if there is none."""
        return _zeta_logs(self.order).get(self.vec) if self.den == 1 else None

    def times_zeta(self, t: int) -> "CycNumber":
        """self * zeta_N**t, by shifting the power basis: no product."""
        return CycNumber._raw(self.order, list(shift_vector(self.order, self.vec, t)), self.den)

    def conj(self) -> "CycNumber":
        """zeta -> zeta**-1; complex conjugation on the unit circle."""
        return self.galois(self.order - 1)

    def lift(self, order: int) -> "CycNumber":
        """Reinterpret in Q(zeta_order) for a multiple of the current order."""
        if order % self.order != 0:
            raise ValueError("target order must be a multiple")
        step = order // self.order
        out = _power_sum(order, [0] * euler_phi(order),
                         ((c, j * step) for j, c in enumerate(self.vec)))
        return CycNumber._raw(order, out, self.den)

    def components(self, order: int) -> tuple["CycNumber", ...]:
        """The x_c in Q(zeta_order), c < s = N / order, with self = sum over
        c of zeta_N**c x_c, for an order that descent_step accepts: slot
        c + s i of self is slot i of x_c."""
        s = descent_step(self.order, order)
        return tuple(CycNumber._raw(order, list(self.vec[c::s]), self.den) for c in range(s))

    def descend(self, order: int) -> "CycNumber":
        """The inverse of lift: self in Q(zeta_order), for an order that
        descent_step accepts; ValueError when a slot outside it is nonzero."""
        x, *rest = self.components(order)
        if any(rest):
            raise ValueError(f"{self!r} does not lie in Q(zeta_{order})")
        return x

    # -- embeddings
    def embed(self) -> complex:
        """The embedding with zeta_N = exp(2*pi*i/N), each part the double
        nearest to the exact one (an imaginary part is exactly 0.0 when
        is_real() holds).  More digits come from fixed_parts."""
        # fixed_parts at doubling bits until both ends of a part's error
        # interval round to one double, which is then the nearest; a part with
        # an exact rational value (0 included) is read from it, so the loop
        # ends: an irrational part is no midpoint between two doubles
        parts: list[float | None] = [None, None]
        bits = FIRST_BITS
        while True:
            *fixed, err = self.fixed_parts(bits)
            scale = self.den << bits
            for part, v in enumerate(fixed):
                if parts[part] is None:
                    lo = (v - err) / scale
                    if lo == (v + err) / scale:
                        parts[part] = lo
                    elif bits == FIRST_BITS:
                        exact = self._rational_part(part)
                        if exact is not None:
                            parts[part] = float(exact)
            if None not in parts:
                return complex(*parts)
            bits *= 2

    def fixed_parts(self, bits: int) -> tuple[int, int, int]:
        """(re, im, err): the real and imaginary parts of the embedding times
        den * 2**bits, each within err = sum |c_j| of the exact one, since
        every entry of the table _unit_roots(N, bits) is within one unit.
        A rational value reads only the table's j = 0 entry, which is
        exactly (2**bits, 0), so it builds no table."""
        if self.is_rational():
            return self.vec[0] << bits, 0, abs(self.vec[0])
        cos, sin = _unit_roots(self.order, bits)
        return (sum(map(operator.mul, self.vec, cos)), sum(map(operator.mul, self.vec, sin)),
                sum(map(abs, self.vec)))

    def _rational_part(self, part: int) -> Fraction | None:
        """The real (part 0) or imaginary (part 1) part as a Fraction when it
        is rational, else None: 2 Re x = x + conj(x), and 2 Im x =
        (conj(x) - x) i, which lies in the field when 4 | N (i = zeta^(N/4));
        otherwise a nonzero imaginary part is not rational."""
        c = self.conj()
        if part == 0:
            y = self + c
        elif c == self:
            return Fraction(0)
        elif self.order % 4 == 0:
            y = (c - self).times_zeta(self.order // 4)
        else:
            return None
        return y.as_fraction() / 2 if y.is_rational() else None

    def real_sign(self) -> int:
        """Exact sign of the real part of the embedding.

        The real part is x / 2 for the real field element x = self +
        conj(self).  A rational x is read exactly; otherwise x != 0 is
        evaluated by fixed_parts at FIRST_BITS, twice that, ... bits until
        the value exceeds its error bound, which it does since x is not 0.
        """
        if self.is_rational():
            return (self.vec[0] > 0) - (self.vec[0] < 0)
        x = self + self.conj()
        if x.is_rational():
            return (x.vec[0] > 0) - (x.vec[0] < 0)
        bits = FIRST_BITS
        while True:
            re, _, err = x.fixed_parts(bits)
            if abs(re) > err:
                return 1 if re > 0 else -1
            bits *= 2

    def __repr__(self):
        return f"CycNumber(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


# --------------------------------------------------------------------------
# reduction modulo a split prime

# split primes are searched from here up: large enough that a random
# nonzero residue is rarely 0, small enough for cheap Python-int products
SPLIT_PRIME_FLOOR = 2 ** 20


# Miller-Rabin to the prime bases 2..41 decides primality of every n below
# this bound (Sorenson and Webster 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _MILLER_RABIN_BOUND;
    ValueError above it, where these bases no longer decide."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin bound")
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, in increasing order, by trial
    division up to sqrt(n)."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


class SplitPrime:
    """A prime p = 1 (mod N) with a primitive N-th root of unity omega mod p.

    zeta_N -> omega is a ring homomorphism from Z[zeta_N][1/d] onto F_p for
    every d prime to p (Phi_N(omega) = 0 in F_p), so the residue of a sum,
    product or determinant is the sum, product or determinant of residues,
    and a nonzero residue proves the field element nonzero.
    """

    __slots__ = ("order", "p", "omega", "_powers")

    def __init__(self, order: int, p: int):
        if (p - 1) % order or not _is_prime(p):
            raise ValueError(f"{p} is not a prime = 1 (mod {order})")
        qs = _prime_factors(order)
        a = 2
        while True:
            w = pow(a, (p - 1) // order, p)
            if all(pow(w, order // q, p) != 1 for q in qs):
                break
            a += 1
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "_powers",
                           tuple(pow(w, i, p) for i in range(euler_phi(order))))

    def __setattr__(self, *a):
        raise AttributeError("SplitPrime is immutable")

    def residue(self, x: CycNumber) -> int:
        """The image of x in F_p: sum vec_i omega^i times den^-1."""
        return self.residues(x.order, [x.vec], x.den)[0]

    def residues(self, order: int, vecs: Iterable[Sequence[int]], den: int) -> list[int]:
        """The images in F_p of coefficient vectors over one denominator."""
        if order != self.order:
            raise ValueError("field order mismatch")
        if den % self.p == 0:
            raise ValueError(f"{self.p} divides the denominator {den}")
        dinv = pow(den, -1, self.p)
        return [sum(c * w for c, w in zip(v, self._powers)) * dinv % self.p for v in vecs]

    def __repr__(self):
        return f"SplitPrime(order={self.order}, p={self.p}, omega={self.omega})"


def split_primes(order: int, den: int = 1) -> Iterator[SplitPrime]:
    """The split primes of Q(zeta_order) above SPLIT_PRIME_FLOOR that do not
    divide den, in increasing order (an endless, deterministic iterator)."""
    if den < 1:
        raise ValueError("den must be a positive integer")
    p = (SPLIT_PRIME_FLOOR // order + 1) * order + 1
    while True:
        if den % p and _is_prime(p):
            yield SplitPrime(order, p)
        p += order


# --------------------------------------------------------------------------
# specialization A -> zeta_N^k

def _phi_multiplicity(p: LaurentPoly, N: int) -> tuple[int, list[Fraction]]:
    """Largest t with Phi_N**t dividing the polynomial part of p; returns
    (t, quotient coefficients)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    cur = IntPolynomial(int(c * den) for c in p.coeffs)
    phi_n = cyclotomic_poly(N)
    t = 0
    while cur.degree >= phi_n.degree:
        q, rem = cur.divmod_monic(phi_n)
        if not rem.is_zero():
            break
        cur, t = q, t + 1
    return t, [Fraction(c, den) for c in cur.coeffs]


def _eval_at_zeta(coeffs: Sequence[Fraction], N: int, k: int, shift: int) -> CycNumber:
    """Evaluate sum coeffs[t] * zeta^(k*(t+shift)) as a CycNumber."""
    den = math.lcm(*(c.denominator for c in coeffs))
    out = _power_sum(N, [0] * euler_phi(N),
                     ((int(c * den), k * (t + shift)) for t, c in enumerate(coeffs)))
    return CycNumber._raw(N, out, den)


def specialize(f: LaurentFraction, N: int, k: int) -> CycNumber:
    """Substitute A = zeta_N**k into a Laurent fraction.

    Contract: cancel the maximal common power of Phi_N dividing numerator and
    denominator (as ordinary polynomials, before any reduction), then reduce
    both modulo Phi_N and divide in the field.  Raises PoleAtRoot when the
    reduced denominator vanishes.
    """
    if math.gcd(k, N) != 1:
        raise ValueError(f"root exponent {k} not coprime to {N}")
    if f.is_zero():
        return CycNumber.zero(N)
    tn, num_c = _phi_multiplicity(f.num, N)
    td, den_c = _phi_multiplicity(f.den, N)
    if td > tn:
        raise PoleAtRoot(f"pole of order {td - tn} at zeta_{N}^{k}")
    if tn > td:
        # the cancelled fraction still carries Phi_N^(tn - td) in the numerator
        return CycNumber.zero(N)
    num_val = _eval_at_zeta(num_c, N, k, f.num.low)
    den_val = _eval_at_zeta(den_c, N, k, f.den.low)
    if den_val.is_zero():
        raise PoleAtRoot(f"denominator vanishes at zeta_{N}^{k}")
    return num_val / den_val


# --------------------------------------------------------------------------
# serialization

def cyc_to_json(x: CycNumber) -> dict:
    """{order, coeffs, approx}: each coefficient as [numerator, denominator]
    in lowest terms, and the nearest doubles of the embedding."""
    z, den = x.embed(), x.den
    return {
        "order": x.order,
        "coeffs": [[c // g, den // g] for c in x.vec for g in [math.gcd(c, den)]],
        "approx": [z.real, z.imag],
    }


def cyc_from_json(d: dict) -> CycNumber:
    return CycNumber(d["order"], [Fraction(n, m) for n, m in d["coeffs"]])

