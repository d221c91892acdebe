"""Temperley-Lieb-Jones recoupling coefficients at level r.

Each recoupling formula (quantum integer, theta net, tetrahedral net) is
written once, as a ratio of quantum factorials sign * A^a * prod [n]!^e
(_Factored, with [n]! = A^(n-n^2) {n}!), so a ratio is bookkeeping on the
n's: _qfact_ratio adds up the A-power and counts the factorials, and
_tet_terms, which both evaluators share, is one such ratio per term of the
state sum (Kauffman-Lins 1994).  Two evaluators consume the terms:

* the generic path (qint, qfact, theta_net, tet, sixj) expands each [n]!
  into Phi_m(A) exponents (_qfact_factored) and materializes the terms
  into the fraction field of Q[A, A^-1];
* the specialized path (qint_at, theta_at, tet_at, sixj_at and the values
  built on them) evaluates each term, or its inverse, at A = zeta_N^k with
  _factored_at, which decides zeros and poles at the root from the net
  count of vanishing factors, and never builds a Laurent fraction.

exactnum.specialize takes a generic value to the same field element; the
tests use it as the reference for the specialized path.  Specialized values
are memoized per TheoryParams, each distinct value once:

* at the root A^4t - 1 is the cyclotomic unit u_c = zeta^c - 1 for
  c = 4kt mod N (Washington, Introduction to Cyclotomic Fields, ch. 8), so
  a ratio is sign * zeta^s * q * prod u_c^e over at most floor(p/2) units,
  q rational.  _qfact_units holds {n}! in that form, one step from {n-1}!,
  and _unit_power holds u_c^e: each u_c is inverted once per root, as
  (1/o) sum_{j<o} j zeta^(cj), with no Galois norm.  A value costs one
  product per unit present; theta_at and theta_inv_at are computed once
  per sorted triple, and theta_inv_at and delta_inv_at read the inverse
  powers, so neither takes CycNumber.inverse, and neither does
  global_constants;
* _tet_orbit_at holds one Tet value per _tet_key: the sorted vertex
  half-sums, square half-sums and edge colors, the only data the state sum
  reads.  Its classes are the orbits of the tetrahedral symmetry group (145
  at r=6, 1,087 at r=10).  tet_at keeps a per-labeling memo in front of it
  and checks admissibility, which the key does not encode;
* _sixj_pair_at holds one 6j value per (_tet_key, weight key) pair, the
  weight key being k and the unordered pairs {i, m}, {j, l} that
  Delta_k / (Theta(i,m,k) Theta(j,l,k)) reads (_sixj_weight_key).  sixj_at
  checks admissibility through tet_at and keeps a per-labeling memo in
  front of it, for library callers; coupling_a_at reads the orbit and
  weight memos.  The coefficient tables (_tet_and_sixj_tables) read only
  the orbit memo and the Delta and 1/Theta values, and form the weights
  and 6j symbols in packed passes over distinct value pairs
  (matrix._products): at r=6, 295 distinct (Tet value, weight value) pairs
  for the 1,680 labelings.

The generic path memoizes per labeling, so it stays an independent
reference.  Caches are write-once per key and idempotent, so concurrent
fills are safe.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce

from .exactnum import (
    CycNumber,
    LaurentFraction,
    LaurentPoly,
    PoleAtRoot,
    _power_sum,
    cyclotomic_poly,
    euler_phi,
)
from .matrix import _over_lcm, _products, _tabulate

Color = int


class NotAdmissible(ValueError):
    """A colored vertex violates the parity/triangle/level constraints."""


class NotInteger(ArithmeticError):
    """An exact evaluation that must be integral failed to be (bug signal)."""


# --------------------------------------------------------------------------
# theory parameters

def unitary_root_exponent(r: int) -> int:
    """Exponent k with zeta_N^k = +-i * exp(+-i*pi/(2p)), a primitive N-th root.

    The sign pattern depends on p mod 4; every choice gives the same positive
    loop values, and the chosen one matches the golden matrices.
    """
    p = r + 2
    if r % 2 == 0:
        return p + 1  # zeta_{4p}^{p+1} = i*exp(i*pi/(2p))
    if p % 4 == 1:
        return (p + 1) // 2  # zeta_{2p}^{(p+1)/2} = i*exp(i*pi/(2p))
    return 2 * p - (p - 1) // 2  # zeta_{2p}^{-(p-1)/2} = -i*exp(i*pi/(2p))


@dataclass(frozen=True)
class TheoryParams:
    """Level r, the root order N, and the exponent selecting A = zeta_N^k.

    The acceptance suite exercises r = 1 (the one-color theory), so levels
    down to 1 are accepted.
    """

    level: int
    root_exponent: int = 0  # 0 means: use the unitary default; stored mod N

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        k = self.root_exponent or unitary_root_exponent(self.level)
        if math.gcd(k, self.root_order) != 1:
            raise ValueError(f"root exponent {k} not coprime to {self.root_order}")
        object.__setattr__(self, "root_exponent", k % self.root_order)
        # every *_at memo hashes its params on each lookup; the value is the
        # one the dataclass would compute, kept outside the fields
        object.__setattr__(self, "_hash", hash((self.level, self.root_exponent)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def p(self) -> int:
        return self.level + 2

    @property
    def root_order(self) -> int:
        return 4 * self.p if self.level % 2 == 0 else 2 * self.p

    @property
    def is_unitary_root(self) -> bool:
        return self.root_exponent == unitary_root_exponent(self.level)

    def with_root(self, k: int) -> "TheoryParams":
        """The same level at A = zeta_N^k; k must be a unit mod N (0 is not)."""
        if math.gcd(k, self.root_order) != 1:
            raise ValueError(f"root exponent {k} not coprime to {self.root_order}")
        return replace(self, root_exponent=k)

    def zeta(self, e: int = 1) -> CycNumber:
        return CycNumber.zeta(self.root_order, e)


def color_set(params_or_level) -> tuple[Color, ...]:
    """I_r = {0..r} for even r, {0, 2, .., r-1} for odd r, ascending."""
    r = params_or_level.level if isinstance(params_or_level, TheoryParams) else params_or_level
    if r % 2 == 0:
        return tuple(range(r + 1))
    return tuple(range(0, r, 2))


def admissible(r: int, a: Color, b: Color, c: Color) -> bool:
    """Parity, triangle, and level constraints for a trivalent vertex."""
    return ((a + b + c) % 2 == 0
            and abs(a - b) <= c <= a + b
            and a + b + c <= 2 * r)


def check_admissible(r: int, a: Color, b: Color, c: Color) -> None:
    if not admissible(r, a, b, c):
        raise NotAdmissible(f"vertex ({a},{b},{c}) is not admissible at level {r}")


# --------------------------------------------------------------------------
# recoupling formulas as factored terms
#
# [n] = A^(2-2n) (A^4n - 1)/(A^4 - 1), so [n]! is A^(n-n^2) times
# {n}! = prod_{t<=n} (A^4t - 1)/(A^4 - 1).  Every formula is written as
# sign * A^a * prod {n}!^e: a factorial ratio is bookkeeping on the n's,
# and no polynomial gcd is ever required on recoupling quantities.

@lru_cache(maxsize=None)
def _qint_phi_factors(n: int) -> tuple[int, ...]:
    """Orders m with [n] = A^(2-2n) * prod_m Phi_m(A)."""
    ms: list[int] = []
    for d in range(3, 2 * n + 1):
        if (2 * n) % d == 0:
            if d % 2 == 1:
                ms.extend((d, 2 * d))
            else:
                ms.append(2 * d)
    return tuple(sorted(ms))


@lru_cache(maxsize=None)
def _qfact_factored(n: int) -> dict:
    """{m: exponent} with {n}! = prod Phi_m(A)^exponent."""
    if n == 0:
        return {}
    phis = dict(_qfact_factored(n - 1))
    for m in _qint_phi_factors(n):
        phis[m] = phis.get(m, 0) + 1
    return phis


class _Factored:
    """sign * A^apow * prod_n {n}!^e over facts = {n: e}, the working form
    of every recoupling formula."""

    __slots__ = ("sign", "apow", "facts")

    def __init__(self, sign: int, apow: int, facts: dict):
        self.sign = sign
        self.apow = apow
        self.facts = facts


def _qint_factored(n: int) -> _Factored:
    """[n] = A^(2-2n) {n}! / {n-1}!, for n >= 1."""
    return _Factored(1, 2 - 2 * n, {n: 1, n - 1: -1})


def _qfact_ratio(sign: int, ups, downs) -> _Factored:
    """sign * prod_{n in ups} [n]! / prod_{n in downs} [n]!: the A-powers
    n - n^2 are added up and the factorials counted in one dict."""
    apow, facts = 0, {}
    for ns, sgn in ((ups, 1), (downs, -1)):
        for n in ns:
            apow += sgn * (n - n * n)
            facts[n] = facts.get(n, 0) + sgn
    return _Factored(sign, apow, {n: e for n, e in facts.items() if e})


def _theta_factored(a: Color, b: Color, c: Color) -> _Factored:
    x = (a + b - c) // 2
    y = (b + c - a) // 2
    z = (c + a - b) // 2
    return _qfact_ratio(-1 if (x + y + z) % 2 else 1,
                        (x + y + z + 1, x, y, z), (x + y, y + z, z + x))


def tet_vertices(A, B, E, C, D, F):
    return ((A, B, E), (B, C, F), (C, D, E), (A, D, F))


def _tet_key(A: Color, B: Color, E: Color, C: Color, D: Color, F: Color) -> tuple:
    """Everything the state sum of the tetrahedral net reads: the sorted vertex
    half-sums, the sorted square half-sums and the sorted edge colors.

    Vertices: (A,B,E), (B,C,F), (C,D,E), (A,D,F); opposite edge pairs
    (A,C), (B,D), (E,F).  The key is invariant under the 24 symmetries of the
    tetrahedron (Kauffman-Lins 1994), and its classes are the symmetry orbits
    of admissible labelings.
    """
    av = ((A + B + E) // 2, (B + C + F) // 2, (C + D + E) // 2, (A + D + F) // 2)
    bv = ((B + D + E + F) // 2, (A + C + E + F) // 2, (A + B + C + D) // 2)
    return tuple(sorted(av)), tuple(sorted(bv)), tuple(sorted((A, B, E, C, D, F)))


def _tet_terms(av: tuple, bv: tuple, edges: tuple) -> list[_Factored]:
    """The Kauffman-Lins state sum of the tetrahedral net, one term per s,
    from its _tet_key.  With vertex half-sums a_i and square half-sums b_j,

        Tet = prod_ij [b_j - a_i]! / prod_edges [x]!
              * sum_{max a <= s <= min b} (-1)^s [s+1]! / (prod_i [s - a_i]! prod_j [b_j - s]!)

    Each term is one _qfact_ratio of these factorials.
    """
    ups = [bj - ai for bj in bv for ai in av]
    return [_qfact_ratio(-1 if s % 2 else 1, ups + [s + 1],
                         list(edges) + [s - ai for ai in av] + [bj - s for bj in bv])
            for s in range(max(av), min(bv) + 1)]


# --------------------------------------------------------------------------
# generic-ring recoupling quantities: terms materialized into Q(A)

@lru_cache(maxsize=None)
def _phi_poly(m: int) -> LaurentPoly:
    return LaurentPoly.from_int_poly(cyclotomic_poly(m))


def _materialize(terms: list[_Factored]) -> LaurentFraction:
    """The sum of factored terms as a canonical LaurentFraction.

    Each term's factorials are expanded into Phi_m exponents
    (_qfact_factored), and the exponent-wise minimum over the terms is
    factored out, so every remaining term is a Laurent polynomial and the
    sum collapses into a single numerator.
    """
    phis = []
    for t in terms:
        ps: dict[int, int] = {}
        for n, e in t.facts.items():
            for m, x in _qfact_factored(n).items():
                ps[m] = ps.get(m, 0) + e * x
        phis.append(ps)
    low = min(t.apow for t in terms)
    common = {m: min(ps.get(m, 0) for ps in phis) for m in set().union(*phis)}
    num = LaurentPoly.zero()
    for t, ps in zip(terms, phis):
        poly = LaurentPoly.constant(t.sign).shift(t.apow - low)
        for m, e in common.items():
            if ps.get(m, 0) > e:
                poly = poly * _phi_poly(m) ** (ps.get(m, 0) - e)
        num = num + poly
    num = num.shift(low)
    den = LaurentPoly.one()
    den_ms: list[tuple[int, int]] = []
    for m, e in sorted(common.items()):
        if e > 0:
            num = num * _phi_poly(m) ** e
        else:
            den_ms.append((m, -e))
    # cancel known cyclotomic factors of the denominator against the numerator
    for m, e in den_ms:
        pm = _phi_poly(m)
        while e > 0:
            q, rem = num.divmod(pm)
            if not rem.is_zero():
                break
            num = q
            e -= 1
        if e:
            den = den * pm ** e
    # den is monic with nonzero constant term, and shares no factor with num
    return LaurentFraction._raw(num.shift(-den.low), den.shift(-den.low))


@lru_cache(maxsize=None)
def qint(n: int) -> LaurentFraction:
    """The quantum integer [n] = (A^2n - A^-2n)/(A^2 - A^-2)."""
    if n == 0:
        return LaurentFraction.zero()
    if n < 0:
        f = qint(-n)
        return LaurentFraction._raw(-f.num, f.den)
    return _materialize([_qint_factored(n)])


@lru_cache(maxsize=None)
def qfact(n: int) -> LaurentFraction:
    """The quantum factorial [n]! = [1][2]..[n]."""
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    return _materialize([_qfact_ratio(1, (n,), ())])


def delta(i: Color) -> LaurentFraction:
    """Loop value Delta_i = (-1)^i [i+1]."""
    f = qint(i + 1)
    return LaurentFraction._raw(-f.num, f.den) if i % 2 else f


def twist(i: Color) -> LaurentFraction:
    """Twist coefficient theta_i = (-1)^i A^(i(i+2)); the golden matrices
    pin the exponent i(i+2)."""
    sign = -1 if i % 2 else 1
    return LaurentFraction.from_poly(LaurentPoly.monomial(i * (i + 2), sign))


@lru_cache(maxsize=None)
def _theta_net_cached(a: Color, b: Color, c: Color) -> LaurentFraction:
    return _materialize([_theta_factored(a, b, c)])


def theta_net(r: int, a: Color, b: Color, c: Color) -> LaurentFraction:
    """Evaluation of the theta graph with edge colors a, b, c."""
    check_admissible(r, a, b, c)
    return _theta_net_cached(a, b, c)


@lru_cache(maxsize=None)
def _tet_cached(A, B, E, C, D, F) -> LaurentFraction:
    return _materialize(_tet_terms(*_tet_key(A, B, E, C, D, F)))


def tet(r: int, A: Color, B: Color, E: Color, C: Color, D: Color, F: Color) -> LaurentFraction:
    """Tetrahedral net with vertices (A,B,E), (B,C,F), (C,D,E), (A,D,F)."""
    for v in tet_vertices(A, B, E, C, D, F):
        check_admissible(r, *v)
    return _tet_cached(A, B, E, C, D, F)


def sixj(r: int, i: Color, j: Color, k: Color, l: Color, m: Color, n: Color) -> LaurentFraction:
    """The 6j symbol {i j k; l m n} in the Kauffman-Lins normalization.

    This is the F-move coefficient taking the tree with internal edge n and
    external legs (i, j, l, m) to the tree with internal edge k:

        {i j k; l m n} = Delta_k Tet(i,j,n,l,m,k) / (Theta(i,m,k) Theta(j,l,k))

    Its vertices (i,j,n), (l,m,n), (i,m,k), (j,l,k) are those of the Tet,
    which checks them.
    """
    num = tet(r, i, j, n, l, m, k) * delta(k)
    return num / (theta_net(r, i, m, k) * theta_net(r, j, l, k))


# --------------------------------------------------------------------------
# specialized values: terms evaluated at A = zeta_N^k (memoized per TheoryParams)

@lru_cache(maxsize=None)
def _qfact_units(params: TheoryParams, n: int) -> tuple:
    """{n}! at the root as (shift, q, units): zeta^shift * q * prod u_c^e
    over units = {c: e}, u_c = zeta_N^c - 1 with 0 < c <= N/2, q rational,
    its vanishing factors left out (_factored_at counts them).

    {n}! = {n-1}! (A^4n - 1)/(A^4 - 1), and A^4t - 1 is u_c for c = 4kt
    mod N, folded into 0 < c <= N/2 by u_c = -zeta^c u_(N-c), where
    -1 = zeta^(N/2).  A^4 has order p, so A^4t - 1 vanishes exactly when
    p | t; near the root it is then (t/p)(A^4p - 1), which leaves t/p in q.
    """
    if n <= 1:
        return 0, Fraction(1), {}
    shift, q, units = _qfact_units(params, n - 1)
    units = dict(units)
    N, k, p = params.root_order, params.root_exponent, params.p
    factors = ((n, 1), (1, -1))
    if n % p == 0:
        q, factors = q * Fraction(n, p), factors[1:]
    for t, e in factors:
        c = 4 * k * t % N
        if 2 * c > N:
            shift, c = (shift + e * (c + N // 2)) % N, N - c
        units[c] = units.get(c, 0) + e
        if not units[c]:
            del units[c]
    return shift, q, units


@lru_cache(maxsize=None)
def _unit_power(params: TheoryParams, c: int, e: int) -> CycNumber:
    """u_c^e = (zeta_N^c - 1)^e for e != 0, each power one or two products
    from the powers below it.  The inverse takes no Galois norm:
    with zeta^c of order o, 1/(zeta^c - 1) = (1/o) sum_{j<o} j zeta^(cj)."""
    if abs(e) > 1:
        s = 1 if e > 0 else -1
        half = _unit_power(params, c, s * (abs(e) // 2))
        v = half * half
        return v * _unit_power(params, c, s) if e % 2 else v
    N = params.root_order
    if e > 0:
        o, terms = 1, ((1, c), (-1, 0))
    else:
        o = N // math.gcd(N, c)
        if o == 1:
            raise ZeroDivisionError(f"inverse of u_{c} = 0 in Q(zeta_{N})")
        terms = ((j, c * j) for j in range(1, o))
    return CycNumber._raw(N, _power_sum(N, [0] * euler_phi(N), terms), o)


def _factored_at(params: TheoryParams, f: _Factored, s: int) -> CycNumber:
    """f^s at A = zeta_N^k, for s = 1 (the value) or s = -1 (its inverse).

    The net power of A^4p - 1 in f decides zeros and poles before any power
    is read: {n}! holds floor(n/p) factors that vanish at the root, and
    Phi_N divides A^4t - 1 exactly when p | t, and once, so this is also the
    net power of Phi_N.  A net negative power is a pole for either s; a net
    positive one makes the value zero and its inverse a ZeroDivisionError,
    as CycNumber.inverse raises.  Otherwise the unit exponents of the
    factorials (_qfact_units) are added up, one memoized power is read per
    unit present (_unit_power), with no Galois norm, and the sign
    (-1 = zeta^(N/2)) and the powers of zeta are one shift of their
    product, which q scales."""
    N, p = params.root_order, params.p
    net = sum(e * (n // p) for n, e in f.facts.items())
    if net < 0:
        raise PoleAtRoot(f"pole at zeta_{N}^{params.root_exponent}")
    if net > 0:
        if s < 0:
            raise ZeroDivisionError(f"inverse of zero at zeta_{N}^{params.root_exponent}")
        return CycNumber.zero(N)
    shift = params.root_exponent * f.apow + (N // 2 if f.sign < 0 else 0)
    q, units = 1, {}
    for n, e in f.facts.items():
        zn, qn, un = _qfact_units(params, n)
        shift += zn * e
        if qn != 1:
            q *= qn ** e
        for c, x in un.items():
            units[c] = units.get(c, 0) + e * x
    powers = [_unit_power(params, c, s * x) for c, x in units.items() if x]
    val = reduce(operator.mul, powers) if powers else CycNumber.one(N)
    val = val.times_zeta(s * shift)
    return val if q == 1 else val / q ** -s


@lru_cache(maxsize=None)
def qint_at(params: TheoryParams, n: int) -> CycNumber:
    """[n] at the root.  [n + p] = A^(2p) [n], and A^(2p) is 1 when N = 2p
    (odd r) and -1 when N = 4p (even r, k odd), so only 0 < n < p reads
    Phi_m values (m <= 4n), and [p] = 0."""
    if n < 0:
        return -qint_at(params, -n)
    p = params.p
    if n >= p:
        v = qint_at(params, n % p)
        return -v if (n // p) % 2 and params.level % 2 == 0 else v
    if n == 0:
        return CycNumber.zero(params.root_order)
    return _factored_at(params, _qint_factored(n), 1)


@lru_cache(maxsize=None)
def delta_at(params: TheoryParams, i: Color) -> CycNumber:
    v = qint_at(params, i + 1)
    return -v if i % 2 else v


@lru_cache(maxsize=None)
def delta_inv_at(params: TheoryParams, i: Color) -> CycNumber:
    """1 / Delta_i for a color i >= 0; [i + 1] vanishes at no root of a
    level with i <= r, as p = r + 2 divides no i + 1 <= r + 1."""
    if i < 0:
        raise ValueError(f"color {i} is negative")
    v = _factored_at(params, _qint_factored(i + 1), -1)
    return -v if i % 2 else v


def twist_log(params: TheoryParams, i: Color) -> int:
    """The t in 0..N-1 with theta_i = (-1)^i A^(i(i+2)) = zeta_N^t; N is even,
    so -1 = zeta_N^(N/2)."""
    N = params.root_order
    return (params.root_exponent * i * (i + 2) + N // 2 * (i % 2)) % N


@lru_cache(maxsize=None)
def twist_at(params: TheoryParams, i: Color) -> CycNumber:
    return params.zeta(twist_log(params, i))


@lru_cache(maxsize=None)
def theta_at(params: TheoryParams, a: Color, b: Color, c: Color) -> CycNumber:
    """Theta(a, b, c), symmetric in a, b, c: computed once per sorted triple."""
    if not a <= b <= c:
        return theta_at(params, *sorted((a, b, c)))
    check_admissible(params.level, a, b, c)
    return _factored_at(params, _theta_factored(a, b, c), 1)


@lru_cache(maxsize=None)
def theta_inv_at(params: TheoryParams, a: Color, b: Color, c: Color) -> CycNumber:
    """1 / Theta(a, b, c), symmetric in a, b, c: computed once per sorted triple."""
    if not a <= b <= c:
        return theta_inv_at(params, *sorted((a, b, c)))
    check_admissible(params.level, a, b, c)
    return _factored_at(params, _theta_factored(a, b, c), -1)


@lru_cache(maxsize=None)
def tet_at(params: TheoryParams, A, B, E, C, D, F) -> CycNumber:
    # the orbit key does not encode admissibility: check the labeling first
    for v in tet_vertices(A, B, E, C, D, F):
        check_admissible(params.level, *v)
    return _tet_orbit_at(params, *_tet_key(A, B, E, C, D, F))


@lru_cache(maxsize=None)
def _tet_orbit_at(params: TheoryParams, av: tuple, bv: tuple, edges: tuple) -> CycNumber:
    """The Tet value shared by every labeling with this _tet_key."""
    total = CycNumber.zero(params.root_order)
    for t in _tet_terms(av, bv, edges):
        total = total + _factored_at(params, t, 1)
    return total


def _sixj_weight_key(k, i, j, l, m) -> tuple:
    """k and the sorted unordered pairs {i, m}, {j, l}: all that the weight of
    the 6j symbol {i j k; l m n} reads, so it is shared across n and across
    both orders of each pair."""
    p, q = sorted(((min(i, m), max(i, m)), (min(j, l), max(j, l))))
    return (k, *p, *q)


@lru_cache(maxsize=None)
def sixj_at(params: TheoryParams, i, j, k, l, m, n) -> CycNumber:
    tet_at(params, i, j, n, l, m, k)  # checks the four vertices of the symbol
    return _sixj_pair_at(params, _tet_key(i, j, n, l, m, k),
                         _sixj_weight_key(k, i, j, l, m))


@lru_cache(maxsize=None)
def _sixj_pair_at(params: TheoryParams, tkey: tuple, wkey: tuple) -> CycNumber:
    """The 6j value shared by every labeling with this Tet orbit and weight."""
    return _tet_orbit_at(params, *tkey) * _sixj_weight_at(params, *wkey)


@lru_cache(maxsize=None)
def _sixj_weight_at(params: TheoryParams, k, a, b, c, d) -> CycNumber:
    """Delta_k / (Theta(a,b,k) Theta(c,d,k)), the weight of a 6j symbol."""
    return delta_at(params, k) * theta_inv_at(params, a, b, k) * theta_inv_at(params, c, d, k)


def _tet_and_sixj_tables(params: TheoryParams, labelings) -> tuple[dict, dict]:
    """The Tet table of labelings (A,B,E,C,D,F) whose four vertices the
    caller has checked, keyed "A,B,E,C,D,F", and the table of the 6j symbols
    {A B F; C D E}, whose Tet each one is, keyed "A,B,F,C,D,E" in sorted
    order: packed passes over distinct values, as J~ assembly is.

    One pass over the labelings numbers each one's Tet orbit and weight key,
    in the order first seen, and forms both keys from strings made once per
    color.  The weights Delta_k / (Theta(a,b,k) Theta(c,d,k)) are two
    matrix._products passes, over distinct (Delta, 1/Theta) and then
    (partial, 1/Theta) value pairs; the 6j table is one pass over distinct
    (Tet value, weight value) pairs, and each distinct 6j value becomes a
    CycNumber once.  No per-labeling memo entry is made."""
    N = params.root_order
    name = {i: str(i) for i in color_set(params.level)}
    tet_names, labels, orbits, weights = [], [], {}, {}
    for t in labelings:
        A, B, E, C, D, F = t
        a, b, e, c, d, f = map(name.__getitem__, t)
        o = orbits.setdefault(_tet_key(*t), len(orbits))
        tet_names.append((f"{a},{b},{e},{c},{d},{f}", o))
        labels.append(((A, B, F, C, D, E), f"{a},{b},{f},{c},{d},{e}", o,
                       weights.setdefault(_sixj_weight_key(F, A, B, C, D), len(weights))))
    tet_values = [_tet_orbit_at(params, *key) for key in orbits]
    t_cells, (t_index,) = _tabulate([tet_values])
    d_cells, (d_index,) = _tabulate([[delta_at(params, k) for k, *_ in weights]])
    th_cells, (th_ab, th_cd) = _tabulate([
        [theta_inv_at(params, a, b, k) for k, a, b, _, _ in weights],
        [theta_inv_at(params, c, d, k) for k, _, _, c, d in weights]])
    t_table, t_den = _over_lcm(t_cells)
    d_table, d_den = _over_lcm(d_cells)
    th_table, th_den = _over_lcm(th_cells)
    part, (p_index,) = _products(N, d_table, th_table, [zip(d_index, th_ab)])
    w_table, (w_index,) = _products(N, part, th_table, [zip(p_index, th_cd)])
    labels.sort()
    s_table, (s_index,) = _products(N, t_table, w_table,
                                    [[(t_index[o], w_index[w]) for *_, o, w in labels]])
    den = t_den * d_den * th_den * th_den
    s_cells = [CycNumber(N, v, den) for v in s_table]
    return ({key: tet_values[o] for key, o in tet_names},
            {key: s_cells[v] for (_, key, _, _), v in zip(labels, s_index)})


# --------------------------------------------------------------------------
# global constants

@dataclass(frozen=True)
class GlobalConstants:
    """P+, P-, D^2, 1/D^2 and kappa^2 = P+/P-.

    D enters only as D^2: D need not lie in Q(zeta_N), and every relation is
    stated so that no square root is taken (kappa = P+/D becomes P+ D^2).
    """

    params: TheoryParams
    p_plus: CycNumber
    p_minus: CycNumber
    d_squared: CycNumber
    d_squared_inv: CycNumber
    kappa_squared: CycNumber


@lru_cache(maxsize=None)
def global_constants(params: TheoryParams) -> GlobalConstants:
    """P+- = sum theta_i^{+-1} Delta_i^2 and D^2 = sum Delta_i^2, with no
    field inverse: 1/D^2 = -(A^2 - A^-2)^2 / (2p) at even r and
    -(A^2 - A^-2)^2 / p at odd r, and kappa^2 = P+/P- = P+^2 / D^2, as
    P+ P- = D^2.  Both identities are checked exactly on each call."""
    N = params.root_order
    p_plus = p_minus = d_squared = CycNumber.zero(N)
    for i in color_set(params.level):
        d = delta_at(params, i)
        d2 = d * d
        t = twist_log(params, i)     # a twist is a power of zeta: a shift
        p_plus = p_plus + d2.times_zeta(t)
        p_minus = p_minus + d2.times_zeta(-t)
        d_squared = d_squared + d2
    x = params.zeta(2 * params.root_exponent) - params.zeta(-2 * params.root_exponent)
    d_squared_inv = -(x * x) / (params.p if params.level % 2 else 2 * params.p)
    if d_squared * d_squared_inv != 1 or p_plus * p_minus != d_squared:
        raise ArithmeticError(f"1/D^2 or P+ P- = D^2 fails at zeta_{N}^"
                              f"{params.root_exponent} (bug)")
    return GlobalConstants(params, p_plus, p_minus, d_squared, d_squared_inv,
                           p_plus * p_plus * d_squared_inv)


# --------------------------------------------------------------------------
# dimensions of the TQFT spaces

@lru_cache(maxsize=None)
def verlinde_dim(r: int, g: int) -> int:
    """dim V_r(Sigma_g), evaluated exactly in Q(zeta_2p).

    Even r: (p/2)^(g-1) * sum_{j=1}^{p-1} (sin(pi j/p))^(2-2g);
    odd r:  (p/4)^(g-1) * sum_{j=1}^{(p-1)/2} (sin(2 pi j/p))^(2-2g).
    """
    if r < 1 or g < 1:
        raise ValueError("need level >= 1 and genus >= 1")
    p = r + 2
    N = 2 * p
    total = CycNumber.zero(N)
    if r % 2 == 0:
        js = [(j, j) for j in range(1, p)]          # sin(pi j / p) -> zeta_2p^j
        scale = Fraction(p, 2) ** (g - 1)
    else:
        js = [(j, 2 * j) for j in range(1, (p - 1) // 2 + 1)]  # sin(2 pi j / p)
        scale = Fraction(p, 4) ** (g - 1)
    for _, e in js:
        z = CycNumber.zeta(N, e)
        sin2 = -((z - z.conj()) ** 2) / 4
        total = total + (sin2.inverse() ** (g - 1) if g > 1 else CycNumber.one(N))
    total = total * CycNumber.from_rational(N, scale)
    if not total.is_rational():
        raise NotInteger(f"verlinde dimension not rational at r={r}, g={g}")
    f = total.as_fraction()
    if f.denominator != 1 or f < 0:
        raise NotInteger(f"verlinde dimension {f} not a nonnegative integer")
    return int(f)
