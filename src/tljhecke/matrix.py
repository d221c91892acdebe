"""Dense matrices over a cyclotomic field, with exact arithmetic.

An ExactMatrix is held in one form, the integer coefficient vectors of its
entries over one denominator; every operation reads and returns it, and an
entry becomes a CycNumber only when read (m[i, j], rows).  Products run on
one packed-integer kernel (Kronecker substitution): the vectors are encoded
into single big integers (signed digits in base 2**W), so one
entry-times-entry product is one bignum multiply.  A packed
vector is its polynomial evaluated at x = 2**W, so reducing mod Phi_N(x) is
reducing the packed integer mod M = Phi_N(2**W): every output entry is a
dot product of packed rows (_dots), taken mod M once, its balanced residue
unpacked into phi digits.

The genus-2 matrices have few distinct values (J~ at r = 6: 109 among its
7,056 entries), so the kernel does its per-entry work once per distinct
value.  Within one _dots or _scale_columns call the width and M are fixed,
so equal residues are equal vectors: each distinct residue is unpacked
once (_unpacker), and every output equal to it is that one list.  Each
distinct input vector object is packed once (_map_once, keyed by id while
the rows are alive), so the shared outputs of one call are packed once by
the next.  Outputs therefore alias, and no function here modifies a
vector: _lowest_terms and _unfold build new lists, dividing or rescaling
each distinct object once, so vectors shared before are shared after.

The width rule makes that residue exact.  With B the bound on the 2 phi - 1
unfolded digits of a dot product (phi * length * max|a| * max|b|) and g_N =
1 + the largest column L1 norm of x^t mod Phi_N over phi <= t <= 2 phi - 2
(_fold_gain: 2-6 at the orders of r <= 13, 28 at N = 105), every folded
digit is at most g_N B < 2**(W - 2) in absolute value for W = bits(g_N B) + 2.
So |F(2**W)| < M / 2 for the folded F, checked once per width (_modulus,
ArithmeticError if not), and the balanced residue is F(2**W) itself.  A
diagonal factor w is applied the same way (_scale_columns): entry times w
is one packed product mod M, with no CycNumber product.

ExactMatrix.dots(B, pairs, *diags) is the one entry point, returning vectors
over one denominator: A @ B pairs every row of A with every column of B.  J~
assembly (its half-terms are dots of rows of length 1), the trace of
J T J T^-1 and the genus-2 relation checks all run through it.

A.folding(pi) is the one way to form A diag(x) A.  It checks that A is
symmetric and fixed by the involution pi, and folds the rows of A, summed
and subtracted over the pairs i < pi i, once.  For each x, Folding.blocks
gives three products of |R| + |F| and |R| rows (R the pairs, F the fixed
points), upper triangles only, and Folding.product sums four of their
entries into each entry of A diag(x) A (_unfold), as coefficient vectors
over one denominator.  With pi the identity this is the plain half-product.
A product S is symmetric but in general not fixed by pi, so a chained step
folds it over the identity, unchecked: with f = A.folding(pi),
Folding(N, *f.product(x), range(n)).product(y) is S diag(y) S.  The genus-2
relation checks fold J~ over the swap of the theta basis this way.

Characteristic polynomials (Faddeev-LeVerrier) and CycPoly are the exact
route for questions about eigenvalues.  A question whose answer is "some
determinant is nonzero" is decided faster modulo a split prime: residue_matrix
maps a matrix into F_p (exactnum.SplitPrime, one inverse of its denominator,
one residue per distinct vector object), and matmul_mod, poly_at_matrix_mod
and det_mod compute there on Kronecker-packed rows, as the MeatAxe does: a
row of residues in [0, p) is one integer of nonnegative whole-byte digits,
wide enough for a sum of n products below (p - 1)^2.  A row of A B is
sum_k a_ik B_k, one small-times-big multiply per term, unpacked once; Horner's
rule packs A once for all its products; elimination adds multiples of the
reduced pivot row to the packed rows, whose digits stay below
(n + 1)(p - 1)^2, so no carry crosses a digit.  A nonzero residue is an
exact proof; a zero residue decides nothing.

A matrix whose entries are square roots of field elements (the unitary
genus-2 matrix) is a SignedSqrtMatrix of (square, sign) pairs; no root is
ever taken, and only its float embedding leaves the field.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .exactnum import (
    CycNumber,
    IntPolynomial,
    SplitPrime,
    _power_sum,
    _zeta_powers,
    cyclotomic_poly,
    euler_phi,
)


def _pack_digits(digits: Sequence[int], width: int) -> int:
    acc = 0
    for d in reversed(digits):
        acc = (acc << width) + d
    return acc


@lru_cache(maxsize=None)
def _digit_offset(width: int, count: int) -> int:
    return _pack_digits([1 << (width - 1)] * count, width)


def _unpack_digits(x: int, width: int, count: int) -> list[int]:
    """Inverse of _pack_digits for signed digits in (-2**(w-1), 2**(w-1)).

    Adding 2**(w-1) to every digit makes them all nonnegative, so each one
    is read off with a mask and a shift, without carries.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    x += _digit_offset(width, count)
    out = []
    for _ in range(count):
        out.append((x & mask) - half)
        x >>= width
    return out


def _check_length(diag: Sequence[CycNumber], n: int) -> None:
    if len(diag) != n:
        raise ValueError(f"diagonal of length {len(diag)} where {n} is needed")


def _distinct(rows: Iterable[Iterable[list[int]]]) -> dict[int, list[int]]:
    """The distinct vector objects of rows of vectors, by id."""
    return {id(v): v for row in rows for v in row}


def _max_abs(rows: Sequence[Sequence[list[int]]]) -> int:
    """The largest absolute coefficient, at least 1, read once per distinct
    vector."""
    return max(map(abs, chain.from_iterable(_distinct(rows).values())), default=0) or 1


def _map_once(f, rows: list[list[list[int]]]) -> list[list]:
    """rows with f applied to every vector, once per distinct vector object:
    vectors shared before share their image after."""
    done = {k: f(v) for k, v in _distinct(rows).items()}
    return [[done[id(v)] for v in row] for row in rows]


def _lowest_terms(rows: list[list[list[int]]], den: int) -> tuple[list[list[list[int]]], int]:
    """rows / den with their content divided out, as new rows and the new
    denominator; each distinct vector is divided once, into a new list."""
    g = math.gcd(den, *chain.from_iterable(_distinct(rows).values()))
    if g == 1:
        return rows, den
    return _map_once(lambda v: [c // g for c in v], rows), den // g


@lru_cache(maxsize=None)
def _fold_gain(N: int) -> int:
    """g_N = 1 + the largest column L1 norm of x^t mod Phi_N over
    phi <= t <= 2 phi - 2: reducing a product of two reduced vectors whose
    2 phi - 1 digits are at most B in absolute value gives digits at most
    g_N B."""
    phi = euler_phi(N)
    powers = _zeta_powers(N)
    cols = [0] * phi
    for t in range(phi, 2 * phi - 1):
        for i, c in powers[t % N]:
            cols[i] += abs(c)
    return 1 + max(cols)


def _width(N: int, bound: int) -> int:
    """W = bits(g_N bound) + 2 for unfolded digits at most bound."""
    return (_fold_gain(N) * bound).bit_length() + 2


@lru_cache(maxsize=None)
def _modulus(N: int, width: int) -> int:
    """M = Phi_N(2**width); ArithmeticError unless M exceeds twice every
    packed vector of phi digits below 2**(width - 2) in absolute value, so
    that the balanced residue mod M of such a vector is the vector."""
    M = _pack_digits(cyclotomic_poly(N).coeffs, width)
    top = ((1 << (width - 2)) - 1) * _pack_digits([1] * euler_phi(N), width)
    if 2 * top >= M:
        raise ArithmeticError(f"Phi_{N}(2**{width}) cannot hold the folded digits")
    return M


def _unpacker(M: int, width: int, phi: int):
    """x -> the phi digits of the balanced residue of x mod M = Phi_N(2**width),
    unpacked once per distinct residue: equal residues give the same list."""
    done = {}

    def unpack(x: int) -> list[int]:
        x %= M
        v = done.get(x)
        if v is None:
            v = done[x] = _unpack_digits(x - M if 2 * x > M else x, width, phi)
        return v
    return unpack


def _scale_columns(N: int, phi: int, rows: list[list[list[int]]], den: int,
                   ws: list[list[int]], wden: int) -> tuple[list[list[list[int]]], int]:
    """rows diag(w) as coefficient vectors over a common denominator, in
    lowest terms, for the diagonal w given as the vectors ws over wden.

    Entry (i, k) times w_k is one product of the packed vectors, reduced
    mod Phi_N(2**W).  The results are unpacked, once per distinct residue,
    which gives _dots their exact size.
    """
    width = _width(N, phi * _max_abs(rows) * _max_abs([ws]))
    unpack = _unpacker(_modulus(N, width), width, phi)
    wp = [_pack_digits(w, width) for w in ws]
    rp = _map_once(lambda v: _pack_digits(v, width), rows)
    return _lowest_terms([[unpack(v * w) for v, w in zip(row, wp)] for row in rp], den * wden)


def _dots(N: int, phi: int, A: list[list[list[int]]], B: list[list[list[int]]],
          length: int, pairs: Iterable[tuple[int, int]]) -> Iterator[list[int]]:
    """Row i of A dotted with row j of B (coefficient vectors, rows of the
    given length), for each (i, j) in pairs, as they are read: a dot product
    of packed rows, reduced mod Phi_N(2**W) once per pair and unpacked once
    per distinct residue (equal outputs are one list)."""
    width = _width(N, phi * max(length, 1) * _max_abs(A) * _max_abs(B))
    unpack = _unpacker(_modulus(N, width), width, phi)
    Ap, Bp = (_map_once(lambda v: _pack_digits(v, width), M) for M in (A, B))
    return (unpack(sum(map(operator.mul, Ap[i], Bp[j]))) for i, j in pairs)


def _add(u: list[int], v: list[int]) -> list[int]:
    return [x + y for x, y in zip(u, v)]


def _sub(u: list[int], v: list[int]) -> list[int]:
    return [x - y for x, y in zip(u, v)]


class Folding:
    """S diag(x) S for a symmetric S fixed by an involution pi, for any
    number of diagonals x, with the rows of S folded over pi once.
    S.folding(pi) checks S and builds one; a product S diag(x) S is
    symmetric by construction, so Folding(N, *f.product(x), range(n)) folds
    it over the identity, unchecked, for a chained step.  blocks(x) gives
    the folded blocks and product(x) the n x n result, both as coefficient
    vectors.

    R holds the pair representatives (i < pi i), F the fixed points, and
    reps = R + F.  Row r of P is p_r[k] = S[r][k] + S[r][pi k] on R and
    S[r][k] on F; row r of Q (r in R) is q_r[k] = S[r][k] - S[r][pi k] on R.
    Then p_{pi r} = p_r and q_{pi r} = -q_r, which is what blocks reads.
    """

    __slots__ = ("order", "phi", "pi", "rows", "den", "reps", "pairs", "P", "Q")

    def __init__(self, order: int, rows: list[list[list[int]]], den: int,
                 pi: Sequence[int]):
        n = len(rows)
        R = [i for i in range(n) if i < pi[i]]
        reps = R + [i for i in range(n) if i == pi[i]]
        m = len(R)
        self.order, self.phi, self.pi, self.rows, self.den = order, euler_phi(order), pi, rows, den
        self.reps, self.pairs = reps, m
        self.P = [[_add(row[k], row[pi[k]]) for k in R] + [row[k] for k in reps[m:]]
                  for row in map(rows.__getitem__, reps)]
        self.Q = [[_sub(row[k], row[pi[k]]) for k in R] for row in map(rows.__getitem__, R)]

    def blocks(self, diag: Sequence[CycNumber]) -> tuple:
        """The blocks of S diag(x) S as coefficient vectors: with
        w = (x_k + x_{pi k})/4, v = (x_k - x_{pi k})/4 on R and w = x_k on F,
            alpha = P diag(w) P^T   (reps x reps, upper triangle),
            beta  = Q diag(w) Q^T   (R x R, upper triangle),
            gamma = P diag(v) Q^T   (reps x R, row by row; None when v = 0)
        give every entry of S diag(x) S (_unfold).  They cost
        n+^3/2 + n-^3/2 + n+ n-^2 multiplications, n+ = |R| + |F| and
        n- = |R|, against n^3/2 unfolded; with pi the identity, alpha is
        the half-product.  Returns alpha, beta, gamma and their
        denominators.
        """
        _check_length(diag, len(self.rows))
        N, phi, pi, den = self.order, self.phi, self.pi, self.den
        reps, m, P, Q = self.reps, self.pairs, self.P, self.Q
        nr = len(reps)
        x = ExactMatrix(N, [diag])
        xs, wden = x.vecs[0], 4 * x.den
        w = [_add(xs[k], xs[pi[k]]) for k in reps[:m]]
        v = [_sub(xs[k], xs[pi[k]]) for k in reps[:m]]

        def products(A, B, weights, pairs):
            scaled, dens = _scale_columns(N, phi, B, den, weights, wden)
            return list(_dots(N, phi, A, scaled, len(weights), pairs)), den * dens

        alpha, da = products(P, P, w + [[4 * c for c in xs[k]] for k in reps[m:]], _upper(nr))
        beta, db, gamma, dg = [], 1, None, 1
        if m:
            beta, db = products(Q, Q, w, _upper(m))
            if any(map(any, v)):
                gamma, dg = products([row[:m] for row in P], Q, v,
                                     ((a, b) for a in range(nr) for b in range(m)))
        return alpha, beta, gamma, (da, db, dg)

    def product(self, diag: Sequence[CycNumber]) -> tuple[list[list[list[int]]], int]:
        """S diag(diag) S, n x n, as coefficient vectors in lowest terms."""
        return _unfold(self.pi, self.reps, self.pairs, *self.blocks(diag))


def _upper(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _unfold(pi: Sequence[int], reps: list[int], m: int, alpha: list[list[int]],
            beta: list[list[int]], gamma: list[list[int]] | None,
            dens: tuple[int, int, int]) -> tuple[list[list[list[int]]], int]:
    """The n x n coefficient vectors of S diag(x) S, in lowest terms, from
    the blocks of Folding.blocks: for r, c in reps, with a = alpha, b = beta,
    g = gamma[r, c] and h = gamma[c, r],
        S[r][c] = a + b + g + h,     S[pi r][pi c] = a + b - g - h,
        S[r][pi c] = a - b - g + h,  S[pi r][c] = a - b + g - h,
    where b and g (h) drop out when c (r) is a fixed point.  The blocks are
    not modified: each is brought over the common denominator as new lists,
    one per distinct vector."""
    den = math.lcm(*dens)

    def over_den(block, d):
        f = den // d
        return _map_once(lambda v: [c * f for c in v], [block])[0] if block and f > 1 else block

    alpha, beta, gamma = map(over_den, (alpha, beta, gamma), dens)
    n, nr = len(pi), len(reps)
    zero = [0] * len(alpha[0]) if alpha else []
    S = [[None] * n for _ in range(n)]

    def put(i, j, vec):
        S[i][j] = S[j][i] = vec

    ia, ib = iter(alpha), iter(beta)
    for a, r in enumerate(reps):
        pr = pi[r]
        for b in range(a, nr):
            c, A = reps[b], next(ia)
            if a >= m:                  # r and c are fixed
                put(r, c, A)
                continue
            H = gamma[b * m + a] if gamma else zero
            if b >= m:                  # c is fixed
                put(r, c, _add(A, H))
                put(pr, c, _sub(A, H))
                continue
            B, G, pc = next(ib), gamma[a * m + b] if gamma else zero, pi[c]
            u, d, g, h = _add(A, B), _sub(A, B), _add(G, H), _sub(G, H)
            put(r, c, _add(u, g))
            put(pr, pc, _sub(u, g))
            put(r, pc, _sub(d, h))
            put(pr, c, _add(d, h))
    return _lowest_terms(S, den)


class ExactMatrix:
    """Immutable dense matrix over Q(zeta_N): entry (i, j) is vecs[i][j] / den,
    integer vectors over one positive den in lowest terms, a unique form (so
    == compares vectors).  Vectors are shared, between matrices and between
    equal entries of one matrix (the kernel's outputs alias), and never
    modified, inside the kernel or out."""

    __slots__ = ("order", "vecs", "den")

    def __init__(self, order: int, rows: Iterable[Iterable[CycNumber]]):
        rs = [list(r) for r in rows]
        if any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        if any(e.order != order for r in rs for e in r):
            raise ValueError("entry order mismatch")
        # each entry is in lowest terms, so they are too over the lcm
        den = math.lcm(*(e.den for r in rs for e in r))
        self._set(order, [[[c * (den // e.den) for c in e.vec] for e in r] for r in rs], den)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors
    @classmethod
    def from_vectors(cls, order: int, vecs: Iterable, den: int) -> "ExactMatrix":
        """The matrix vecs / den, for rows of coefficient vectors over a
        positive den, brought to lowest terms without modifying a vector;
        vectors shared in vecs stay shared (_lowest_terms)."""
        self = object.__new__(cls)
        self._set(order, *_lowest_terms([list(row) for row in vecs], den))
        return self

    @staticmethod
    def identity(order: int, n: int) -> "ExactMatrix":
        return ExactMatrix.diagonal(order, [CycNumber.one(order)] * n)

    @staticmethod
    def diagonal(order: int, entries: Sequence[CycNumber]) -> "ExactMatrix":
        zero = CycNumber.zero(order)
        n = len(entries)
        return ExactMatrix(order, [[entries[i] if i == j else zero for j in range(n)]
                                   for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.vecs)

    @property
    def ncols(self) -> int:
        return len(self.vecs[0]) if self.vecs else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij) -> CycNumber:
        i, j = ij
        return CycNumber._raw(self.order, self.vecs[i][j], self.den)

    @property
    def rows(self) -> tuple[tuple[CycNumber, ...], ...]:
        """The entries as CycNumbers, built on each access."""
        N, den = self.order, self.den
        return tuple(tuple(CycNumber._raw(N, v, den) for v in row) for row in self.vecs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.order, self.den, self.vecs) == (other.order, other.den, other.vecs)

    def __hash__(self):
        return hash((self.order, self.den, tuple(tuple(map(tuple, r)) for r in self.vecs)))

    # -- entrywise operations
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.order != other.order:
            raise ValueError("field order mismatch")
        g = math.gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        return ExactMatrix.from_vectors(
            self.order, [[[x * a + y * b for x, y in zip(u, v)] for u, v in zip(r1, r2)]
                         for r1, r2 in zip(self.vecs, other.vecs)], self.den * a)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = c if isinstance(c, CycNumber) else CycNumber.from_rational(self.order, c)
        return self.scale_cols([c] * self.ncols)

    def scale_rows(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        return self.transpose().scale_cols(factors).transpose()

    def scale_cols(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        """self diag(factors), one packed product per entry (_scale_columns)."""
        _check_length(factors, self.ncols)
        N = self.order
        w = ExactMatrix(N, [factors])
        return ExactMatrix.from_vectors(
            N, *_scale_columns(N, euler_phi(N), self.vecs, self.den, w.vecs[0], w.den))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_vectors(self.order, zip(*self.vecs), self.den)

    def conj(self) -> "ExactMatrix":
        """Entrywise zeta -> zeta**-1."""
        return self.galois(self.order - 1)

    def galois(self, m: int) -> "ExactMatrix":
        N = self.order
        if math.gcd(m, N) != 1:
            raise ValueError(f"{m} is not coprime to {N}")
        return ExactMatrix.from_vectors(
            N, [[_power_sum(N, [0] * len(v), ((c, j * m) for j, c in enumerate(v)))
                 for v in row] for row in self.vecs], self.den)

    def trace(self) -> CycNumber:
        return sum((self[i, i] for i in range(self.nrows)), CycNumber.zero(self.order))

    def first_difference(self, other: "ExactMatrix") -> tuple[int, int] | None:
        a, b = other.den, self.den
        return next(((i, j) for i, (r1, r2) in enumerate(zip(self.vecs, other.vecs))
                     for j, (u, v) in enumerate(zip(r1, r2))
                     if any(x * a != y * b for x, y in zip(u, v))), None)

    # -- packed-integer products
    def dots(self, other: "ExactMatrix", pairs: Iterable[tuple[int, int]],
             *diags: Sequence[CycNumber]) -> tuple[list[list[int]], int]:
        """Row i of self dotted with row j of other diag(d1) diag(d2) ...,
        for each (i, j) in pairs, on the packed kernel (each diagonal by
        scale_cols), as coefficient vectors over one denominator in lowest
        terms."""
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if self.ncols != other.ncols:
            raise ValueError("row length mismatch")
        for d in diags:
            other = other.scale_cols(d)
        N = self.order
        out = list(_dots(N, euler_phi(N), self.vecs, other.vecs, self.ncols, pairs))
        (out,), den = _lowest_terms([out], self.den * other.den)
        return out, den

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        m, n = self.nrows, other.ncols
        vecs, den = self.dots(other.transpose(), ((i, j) for i in range(m) for j in range(n)))
        return ExactMatrix.from_vectors(self.order, [vecs[i * n:i * n + n] for i in range(m)], den)

    def _check_fold(self, pi: Sequence[int]) -> None:
        """ValueError unless pi is an involution of range(n) and self is
        symmetric and fixed by pi: self[i, j] = self[j, i] = self[pi i, pi j]."""
        n, rows = self.nrows, self.vecs
        if sorted(pi) != list(range(n)) or any(pi[pi[i]] != i for i in range(n)):
            raise ValueError("pi must be an involution of the rows")
        if not self.is_square() or any(rows[i][j] != rows[j][i] or rows[i][j] != rows[pi[i]][pi[j]]
                                       for i in range(n) for j in range(i, n)):
            raise ValueError("folding needs a symmetric matrix fixed by pi")

    def folding(self, pi: Sequence[int]) -> Folding:
        """self folded over the involution pi, for any number of products
        self diag(x) self (Folding), after checking that self is symmetric
        and fixed by pi (_check_fold)."""
        self._check_fold(pi)
        return Folding(self.order, self.vecs, self.den, pi)

    def __repr__(self):
        return f"ExactMatrix(order={self.order}, {self.nrows}x{self.ncols})"


# --------------------------------------------------------------------------
# polynomials with CycNumber coefficients (characteristic polynomials live here)

class CycPoly:
    """Dense polynomial over Q(zeta_N), constant term first."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[CycNumber]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("CycPoly is immutable")

    @staticmethod
    def from_int_poly(order: int, p: IntPolynomial) -> "CycPoly":
        return CycPoly(order, [CycNumber.from_rational(order, c) for c in p.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycPoly) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __mul__(self, other: "CycPoly") -> "CycPoly":
        if self.is_zero() or other.is_zero():
            return CycPoly(self.order, ())
        zero = CycNumber.zero(self.order)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                for j, d in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + c * d
        return CycPoly(self.order, out)

    def divmod(self, d: "CycPoly") -> tuple["CycPoly", "CycPoly"]:
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        zero = CycNumber.zero(self.order)
        r = list(self.coeffs)
        dd = d.degree
        lead_inv = d.coeffs[-1].inverse()
        q = [zero] * max(len(r) - dd, 0)
        for i in range(len(r) - dd - 1, -1, -1):
            c = r[i + dd]
            if not c.is_zero():
                c = c * lead_inv
                q[i] = c
                for j, x in enumerate(d.coeffs):
                    r[i + j] = r[i + j] - c * x
        return CycPoly(self.order, q), CycPoly(self.order, r)

    def monic(self) -> "CycPoly":
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return CycPoly(self.order, [c * inv for c in self.coeffs])

    def gcd(self, other: "CycPoly") -> "CycPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def evaluate(self, x: CycNumber) -> CycNumber:
        v = CycNumber.zero(self.order)
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def __repr__(self):
        return f"CycPoly(order={self.order}, degree={self.degree})"


def char_poly(M: ExactMatrix) -> CycPoly:
    """det(xI - M) via the Faddeev-LeVerrier recursion (divisions by integers only)."""
    if not M.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.nrows
    N = M.order
    one = CycNumber.one(N)
    ident = ExactMatrix.identity(N, n)
    coeffs = [one]  # leading coefficient of x^n
    Mk = None
    for k in range(1, n + 1):
        Mk = M if Mk is None else M @ (Mk + ident.scale(coeffs[-1]))
        ck = -(Mk.trace() / k)
        coeffs.append(ck)
    return CycPoly(N, list(reversed(coeffs)))


# --------------------------------------------------------------------------
# residues modulo a split prime: matrices over F_p, held as lists of int rows
# and computed on Kronecker-packed rows

def residue_matrix(M: ExactMatrix, sp: SplitPrime) -> list[list[int]]:
    """The entrywise image of M in F_p; sp.p must not divide M.den.  Each
    distinct vector object is reduced once (equal entries of J~ are one
    list)."""
    vecs = _distinct(M.vecs)
    res = dict(zip(vecs, sp.residues(M.order, vecs.values(), M.den)))
    return [[res[id(v)] for v in row] for row in M.vecs]


def _digit_bytes(terms: int, p: int) -> int:
    """Bytes per packed digit that hold any sum of `terms` products of two
    residues in [0, p).  The digits are nonnegative, so whole bytes make
    packing and unpacking one int.to_bytes / int.from_bytes each."""
    return (terms * (p - 1) ** 2).bit_length() // 8 + 1


def _pack_mod(rows: Iterable[Sequence[int]], p: int, nb: int) -> list[int]:
    return [int.from_bytes(b"".join([(x % p).to_bytes(nb, "little") for x in row]), "little")
            for row in rows]


def _unpack_mod(x: int, nb: int, n: int, p: int) -> list[int]:
    """The n digits of x, nb bytes each, reduced mod p."""
    b = x.to_bytes(nb * n, "little")
    return [int.from_bytes(b[i:i + nb], "little") % p for i in range(0, nb * n, nb)]


def _times_packed(A: Iterable[Sequence[int]], Bp: list[int], nb: int, n: int,
                  p: int) -> list[list[int]]:
    """A B mod p for B given as its packed rows Bp (n residues each): row i
    is sum_k a_ik B_k, one small-times-big multiply per (i, k), unpacked
    once."""
    return [_unpack_mod(sum(map(operator.mul, [a % p for a in row], Bp)), nb, n, p)
            for row in A]


def matmul_mod(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]],
               p: int) -> list[list[int]]:
    """A B mod p, each row of B packed once."""
    nb = _digit_bytes(len(B), p)
    return _times_packed(A, _pack_mod(B, p, nb), nb, len(B[0]) if B else 0, p)


def poly_at_matrix_mod(q: IntPolynomial, A: Sequence[Sequence[int]],
                       p: int) -> list[list[int]]:
    """q(A) mod p by Horner's rule, deg q - 1 products (deg q >= 1), with A
    packed once for all of them."""
    if q.degree < 1:
        raise ValueError("the polynomial must have degree >= 1")
    n, cs = len(A), q.coeffs
    nb = _digit_bytes(n, p)
    Ap = _pack_mod(A, p, nb)
    B = [[cs[-1] * x % p for x in row] for row in A]
    for k, c in enumerate(reversed(cs[:-1])):
        if k:
            B = _times_packed(B, Ap, nb, n, p)
        for i in range(n):
            B[i][i] = (B[i][i] + c) % p
    return B


def det_mod(A: Sequence[Sequence[int]], p: int) -> int:
    """The determinant in F_p (p prime), by Gaussian elimination on packed
    rows.

    Each row left is one integer of its digits from the current column on,
    that column lowest.  Eliminating adds (p - f) times the pivot row, which
    alone is unpacked, reduced to [0, p) and repacked, so every digit stays
    nonnegative and below (n + 1)(p - 1)^2: no carry crosses a digit, and a
    shift by one digit drops the column just cleared.
    """
    n = len(A)
    nb = _digit_bytes(n + 1, p)
    width, mask = 8 * nb, (1 << 8 * nb) - 1
    rest = _pack_mod(A, p, nb)
    det = 1
    for c in range(n, 0, -1):
        piv = next((i for i, row in enumerate(rest) if (row & mask) % p), None)
        if piv is None:
            return 0
        if piv:
            rest[0], rest[piv] = rest[piv], rest[0]
            det = -det
        pivot = _unpack_mod(rest[0], nb, c, p)
        det = det * pivot[0] % p
        inv = pow(pivot[0], -1, p)
        (prow,) = _pack_mod([pivot], p, nb)
        rest = [(row + -(row & mask) * inv % p * prow) >> width for row in rest[1:]]
    return det % p


# --------------------------------------------------------------------------
# matrices of exact square roots

class SignedSqrtMatrix:
    """Matrix whose entries are real square roots of field elements.

    Entry (i, j) is sign[i][j] * sqrt(square[i][j]) with the nonnegative real
    root; comparison and serialization work on the (square, sign) pairs, so
    no field extension is ever required, and embed is for printing only.
    """

    __slots__ = ("squares", "signs")

    def __init__(self, squares: ExactMatrix, signs: Sequence[Sequence[int]]):
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "signs", tuple(tuple(r) for r in signs))

    def __setattr__(self, *a):
        raise AttributeError("SignedSqrtMatrix is immutable")

    @property
    def nrows(self) -> int:
        return self.squares.nrows

    @property
    def ncols(self) -> int:
        return self.squares.ncols

    def embed(self, precision: int = 15):
        import numpy as np
        out = np.zeros((self.nrows, self.ncols), dtype=float)
        for i in range(self.nrows):
            for j in range(self.ncols):
                s = self.squares[i, j].embed(precision)
                out[i, j] = self.signs[i][j] * math.sqrt(abs(s.real))
        return out

    def __repr__(self):
        return f"SignedSqrtMatrix(order={self.squares.order}, {self.nrows}x{self.ncols})"
