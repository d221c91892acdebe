"""Dense matrices over a cyclotomic field, with exact arithmetic.

Matrix products run on a packed-integer kernel: the coefficient vectors of
all entries are scaled to a common integer denominator and encoded into
single big integers (signed digits in base 2**W, W chosen from an a-priori
bound), so one entry-times-entry product is one machine bignum multiply.
Every output entry is a dot product of packed rows (_row_products), unpacked
and folded once.  A @ B pairs every row of A with every column of B;
A.sandwich(d) = A diag(d) A, for symmetric A, pairs the rows of A with the
rows of A diag(d) over the upper triangle only, half a product.  The genus-2
relation checks are three sandwiches, exact throughout.

Characteristic polynomials (Faddeev-LeVerrier) and CycPoly are the exact
route for questions about eigenvalues.  A question whose answer is "some
determinant is nonzero" is decided faster modulo a split prime: residue_matrix
maps a matrix into F_p (exactnum.SplitPrime), and matmul_mod, poly_at_matrix_mod
and det_mod work on plain lists of ints there.  A nonzero residue is an exact
proof; a zero residue decides nothing.

A matrix whose entries are square roots of field elements (the unitary
genus-2 matrix) is a SignedSqrtMatrix of (square, sign) pairs; no root is
ever taken, and only its float embedding leaves the field.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactnum import (
    CycNumber,
    IntPolynomial,
    SplitPrime,
    _fold_int_vec,
    euler_phi,
)


def _pack_digits(digits: Sequence[int], width: int) -> int:
    acc = 0
    for d in reversed(digits):
        acc = (acc << width) + d
    return acc


def _unpack_digits(x: int, width: int, count: int) -> list[int]:
    """Inverse of _pack_digits for signed digits in (-2**(w-1), 2**(w-1))."""
    out = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    for _ in range(count):
        d = x & mask
        if d >= half:
            d -= 1 << width
        out.append(d)
        x = (x - d) >> width
    return out


class ExactMatrix:
    """Immutable dense matrix with CycNumber entries (all of one field order)."""

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: Iterable[Iterable[CycNumber]]):
        rs = tuple(tuple(r) for r in rows)
        if rs:
            w = len(rs[0])
            if any(len(r) != w for r in rs):
                raise ValueError("ragged rows")
        for r in rs:
            for e in r:
                if e.order != order:
                    raise ValueError("entry order mismatch")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors
    @staticmethod
    def identity(order: int, n: int) -> "ExactMatrix":
        one, zero = CycNumber.one(order), CycNumber.zero(order)
        return ExactMatrix(order, [[one if i == j else zero for j in range(n)]
                                   for i in range(n)])

    @staticmethod
    def diagonal(order: int, entries: Sequence[CycNumber]) -> "ExactMatrix":
        zero = CycNumber.zero(order)
        n = len(entries)
        return ExactMatrix(order, [[entries[i] if i == j else zero for j in range(n)]
                                   for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij) -> CycNumber:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __hash__(self):
        return hash((self.order, self.rows))

    # -- elementwise operations
    def map(self, fn: Callable[[CycNumber], CycNumber]) -> "ExactMatrix":
        return ExactMatrix(self.order, [[fn(e) for e in r] for r in self.rows])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(self.order, [[a + b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(self.order, [[a - b for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return self.map(lambda e: -e)

    def scale(self, c) -> "ExactMatrix":
        if not isinstance(c, CycNumber):
            c = CycNumber.from_rational(self.order, c)
        return self.map(lambda e: e * c)

    def scale_rows(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        return ExactMatrix(self.order, [[factors[i] * e for e in row]
                                        for i, row in enumerate(self.rows)])

    def scale_cols(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        return ExactMatrix(self.order, [[e * factors[j] for j, e in enumerate(row)]
                                        for row in self.rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.order, list(zip(*self.rows)))

    def conj(self) -> "ExactMatrix":
        """Entrywise zeta -> zeta**-1."""
        return self.map(lambda e: e.conj())

    def galois(self, m: int) -> "ExactMatrix":
        return self.map(lambda e: e.galois(m))

    def trace(self) -> CycNumber:
        t = CycNumber.zero(self.order)
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def scalar_multiple_of_identity(self) -> CycNumber | None:
        """The scalar c with self == c*I, if self is scalar; else None."""
        if not self.is_square() or self.nrows == 0:
            return None
        c = self.rows[0][0]
        zero = CycNumber.zero(self.order)
        for i in range(self.nrows):
            for j in range(self.ncols):
                want = c if i == j else zero
                if self.rows[i][j] != want:
                    return None
        return c

    def first_difference(self, other: "ExactMatrix") -> tuple[int, int] | None:
        for i in range(self.nrows):
            for j in range(self.ncols):
                if self.rows[i][j] != other.rows[i][j]:
                    return (i, j)
        return None

    # -- packed-integer products
    def _packed(self) -> tuple[list[list], int, int, int]:
        """(packed entries, common denominator, max abs digit, phi)."""
        phi = euler_phi(self.order)
        den = math.lcm(*(e.den for row in self.rows for e in row))
        scaled = [[[c * (den // e.den) for c in e.vec] for e in row] for row in self.rows]
        maxabs = max([1] + [max(map(abs, v)) for row in scaled for v in row])
        return scaled, den, maxabs, phi

    def _row_products(self, other: "ExactMatrix",
                      pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], CycNumber]:
        """The dot products of row i of self with row j of other, for each
        (i, j) in pairs, on the packed kernel."""
        A, dena, maxa, phi = self._packed()
        B, denb, maxb, _ = other._packed()
        width = (phi * self.ncols * maxa * maxb).bit_length() + 2
        Ap = [[_pack_digits(v, width) for v in row] for row in A]
        Bp = [[_pack_digits(v, width) for v in row] for row in B]
        N = self.order
        den = dena * denb
        out = {}
        for i, j in pairs:
            acc = sum(map(operator.mul, Ap[i], Bp[j]))
            digits = _unpack_digits(acc, width, 2 * phi - 1)
            out[i, j] = CycNumber._raw(N, _fold_int_vec(N, digits), den)
        return out

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        m, n = self.nrows, other.ncols
        prods = self._row_products(other.transpose(),
                                   ((i, j) for i in range(m) for j in range(n)))
        return ExactMatrix(self.order, [[prods[i, j] for j in range(n)] for i in range(m)])

    def sandwich(self, diag: Sequence[CycNumber]) -> "ExactMatrix":
        """self @ diag(diag) @ self for a symmetric self.

        The result is symmetric, so only its upper triangle is computed:
        entry (i, j) is row i of self dotted with row j of self scaled by
        diag, since column j of self is its row j.
        """
        if not self.is_square() or tuple(zip(*self.rows)) != self.rows:
            raise ValueError("sandwich needs a symmetric matrix")
        n = self.nrows
        prods = self._row_products(self.scale_cols(diag),
                                   ((i, j) for i in range(n) for j in range(i, n)))
        return ExactMatrix(self.order, [[prods[min(i, j), max(i, j)] for j in range(n)]
                                        for i in range(n)])

    # -- numerics
    def embed(self, precision: int = 15):
        import numpy as np
        return np.array([[e.embed(precision) for e in row] for row in self.rows],
                        dtype=complex)

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

    def rational_coeffs(self) -> list[Fraction] | None:
        out = []
        for c in self.coeffs:
            if not c.is_rational():
                return None
            out.append(c.as_fraction())
        return out

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
# residues modulo a split prime (matrices over F_p as lists of int rows)

def residue_matrix(M: ExactMatrix, sp: SplitPrime) -> list[list[int]]:
    """The entrywise image of M in F_p; sp.p must divide no denominator."""
    return [[sp.residue(e) for e in row] for row in M.rows]


def matmul_mod(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]],
               p: int) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in A]


def poly_at_matrix_mod(q: IntPolynomial, A: Sequence[Sequence[int]],
                       p: int) -> list[list[int]]:
    """q(A) mod p by Horner's rule, deg q - 1 products (deg q >= 1)."""
    if q.degree < 1:
        raise ValueError("the polynomial must have degree >= 1")
    cs = q.coeffs
    B = [[cs[-1] * x % p for x in row] for row in A]
    for k, c in enumerate(reversed(cs[:-1])):
        if k:
            B = matmul_mod(B, A, p)
        for i in range(len(B)):
            B[i][i] = (B[i][i] + c) % p
    return B


def det_mod(A: Sequence[Sequence[int]], p: int) -> int:
    """The determinant in F_p, by Gaussian elimination."""
    a = [list(row) for row in A]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        pc = a[c]
        det = det * pc[c] % p
        inv = pow(pc[c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = a[i][:c] + [(x - f * y) % p for x, y in zip(a[i][c:], pc[c:])]
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
    def order(self) -> int:
        return self.squares.order

    @property
    def nrows(self) -> int:
        return self.squares.nrows

    @property
    def ncols(self) -> int:
        return self.squares.ncols

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedSqrtMatrix):
            return NotImplemented
        return self.squares == other.squares and self.signs == other.signs

    def embed(self, precision: int = 15):
        import numpy as np
        out = np.zeros((self.nrows, self.ncols), dtype=float)
        for i in range(self.nrows):
            for j in range(self.ncols):
                s = self.squares[i, j].embed(precision)
                out[i, j] = self.signs[i][j] * math.sqrt(abs(s.real))
        return out

    def __repr__(self):
        return f"SignedSqrtMatrix(order={self.order}, {self.nrows}x{self.ncols})"
