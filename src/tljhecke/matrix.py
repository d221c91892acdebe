"""Dense matrices over a cyclotomic field, with exact arithmetic.

An ExactMatrix is held in one form: a table of the distinct integer
coefficient vectors of its entries, a matrix of indices into it, and one
denominator.  The table lists each value once, in the order it first
appears in row-major order, over a denominator in lowest terms, so the form
is unique: == and hash compare values, and equal entries are equal indices.
Table and index are tuples, so no step can write into a vector.  An entry
becomes a CycNumber only when read (m[i, j], rows).

Products run on one packed-integer kernel (Kronecker substitution): a
vector is packed into one big integer, its polynomial at x = 2**W (signed
digits in base 2**W), so reducing mod Phi_N(x) is reducing mod
M = Phi_N(2**W).  Every output entry is a dot product of packed rows
(_dots), taken mod M once, its balanced residue unpacked into phi digits.
An entrywise product of two tables (a diagonal factor, scale_cols and
scale_rows; hadamard_transpose; J~ assembly) is a dot of length 1 per
distinct pair of table entries (_products).  Each table entry is packed
once, and within one call the width and M are fixed, so equal residues
are equal vectors: each distinct residue is unpacked once, into the
output table (_unpacker).  Sums (ExactMatrix addition) are interned by
their coefficient tuples, and content is divided out over the table
(_lowest_terms).  The genus-2 matrices have few distinct values (J~
at r = 6: 109 among its 7,056 entries), so this work is done once per
value, not per entry.

The width rule makes that residue exact.  With B the bound on the 2 phi - 1
unfolded digits of a dot product (phi * length * max|a| * max|b|) and g_N =
1 + the largest column L1 norm of x^t mod Phi_N over phi <= t <= 2 phi - 2
(_fold_gain: 2-6 at the orders of r <= 13, 28 at N = 105), every folded
digit is at most g_N B < 2**(W - 2) in absolute value for W = bits(g_N B) + 2.
So |F(2**W)| < M / 2 for the folded F, checked once per width (_modulus,
ArithmeticError if not), and the balanced residue is F(2**W) itself.

A call of _dots whose work, pairs * length * phi, is above SPLIT_WORK is
cut into contiguous slices of its pairs, at most one per usable CPU.  Forked
workers compute every slice but the first and send back their residues mod
M (marshal, through a pipe); this process unpacks all of them in pair
order, as it unpacks its own, so the output table and index do not depend
on the split.  A slice whose worker fails is computed here.  With one
usable CPU, without os.fork, or with a second thread running, nothing
forks; no option selects the path.

ExactMatrix.dots(B, pairs, diag) is the one entry point for dot products
of rows, returning one row; A @ B slices _dots' output into rows, and J~
assembly, the trace of J T J T^-1 and the genus-2 relation checks run on
the same kernel.  A column where the diagonal is 0 drops out of its dots.
A.folding(pi) folds a symmetric A fixed by an involution pi, so that
A diag(x) A, for a diagonal x that pi fixes, is two half-products of
about half the size (Folding.blocks).
A.descend(M) moves a matrix into the subfield Q(zeta_M), where its products
run on phi(M) digits (exactnum.descent_step).

Characteristic polynomials (Faddeev-LeVerrier) and CycPoly are the exact
route for questions about eigenvalues.  A question whose answer is "some
determinant is nonzero" is decided faster modulo a split prime: residue_matrix
maps a matrix into F_p (exactnum.SplitPrime, one inverse of its denominator,
one residue per table entry), and matmul_mod, poly_at_matrix_mod
and det_mod compute there on Kronecker-packed rows, as the MeatAxe does: a
row of residues in [0, p) is one integer of nonnegative digits of whole
64-bit words, one word whenever a sum of n products below (p - 1)^2 fits in
it (every split prime the certificates use), more above that bound; a row
is packed and unpacked by one struct call.  A row of A B is
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

import marshal
import math
import operator
import os
import signal
import struct
import threading
from functools import lru_cache
from itertools import chain, islice, product, repeat
from typing import Iterable, Sequence

from .exactnum import (
    CycNumber,
    IntPolynomial,
    SplitPrime,
    _power_sum,
    _zeta_powers,
    cyclotomic_poly,
    descent_step,
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


def _max_abs(table: Sequence) -> int:
    """The largest absolute coefficient of a table, at least 1."""
    return max(map(abs, chain.from_iterable(table)), default=0) or 1


def _intern(table: Sequence, index: Iterable[Iterable[int]]) -> tuple[tuple, tuple]:
    """(table, index) in the unique form: equal values merged, numbered in
    the order they first appear in row-major order, unused ones dropped."""
    index = tuple(map(tuple, index))
    seen, new = {}, {}
    for k in dict.fromkeys(chain.from_iterable(index)):
        new[k] = seen.setdefault(tuple(table[k]), len(seen))
    if len(seen) == len(table) and list(new) == list(range(len(table))):
        return tuple(seen), index
    return tuple(seen), tuple(tuple(map(new.__getitem__, row)) for row in index)


def _tabulate(rows: Iterable[Iterable]) -> tuple[tuple, list[list[int]]]:
    """The distinct items of rows, in row-major order, and an index."""
    seen = {}
    index = [[seen.setdefault(x, len(seen)) for x in row] for row in rows]
    return tuple(seen), index


def _column(table: Sequence) -> tuple[Sequence, list[list[int]]]:
    """(table, index) of the column whose row k is table entry k."""
    return table, [[k] for k in range(len(table))]


def _over_lcm(cells: Sequence[CycNumber]) -> tuple[tuple, int]:
    """The coefficient vectors of cells over the lcm of their denominators,
    and that lcm; each cell is in lowest terms, so they are too."""
    den = math.lcm(*(e.den for e in cells))
    return tuple(tuple(c * (den // e.den) for c in e.vec) for e in cells), den


def _galois_table(N: int, table: Sequence, m: int) -> list[list[int]]:
    """zeta -> zeta**m applied to each coefficient vector of table."""
    return [_power_sum(N, [0] * len(v), ((c, j * m) for j, c in enumerate(v))) for v in table]


def _lowest_terms(table: Sequence, den: int) -> tuple[tuple, int]:
    """table / den with the content divided out: the new table and
    denominator.  Division is injective, so the entries stay distinct."""
    g = math.gcd(den, *chain.from_iterable(table))
    if g == 1:
        return tuple(table), den
    return tuple(tuple(c // g for c in v) for v in table), den // g


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
    """An output table, and x -> the index in it of the balanced residue of
    x mod M = Phi_N(2**width), unpacked into phi digits once per residue."""
    table, done = [], {}

    def unpack(x: int) -> int:
        x %= M
        k = done.get(x)
        if k is None:
            k = done[x] = len(table)
            table.append(tuple(_unpack_digits(x - M if 2 * x > M else x, width, phi)))
        return k
    return table, unpack


def _packed_rows(table: Sequence, index: Sequence, width: int) -> list[list[int]]:
    """The rows of index as packed integers, each table entry packed once."""
    packed = [_pack_digits(v, width) for v in table]
    return [list(map(packed.__getitem__, row)) for row in index]


def _number_pairs(grid: Iterable[Iterable[tuple]]) -> tuple[list, list[list[int]]]:
    """The distinct pairs of grid, in the order they first appear in
    row-major order, and the rows of grid as positions in that list."""
    pairs = {}
    rows = [[pairs.setdefault(ab, len(pairs)) for ab in row] for row in grid]
    return list(pairs), rows


# pairs x length x phi above which one call of _dots is cut across the usable
# CPUs: a fork costs about 2 ms at this process size, which the smaller calls
# do not win back (every call of the r = 6 relation check is above it, every
# call of the certificates and the r <= 5 and r = 7 checks below)
SPLIT_WORK = 150_000


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _slices(count: int, cost: int) -> int:
    """How many contiguous slices a call of _dots of count pairs, each of
    cost length * phi, is cut into: one per SPLIT_WORK of work begun, at
    most one per usable CPU and one per pair; one when the work is at most
    SPLIT_WORK, without os.fork, or once a thread is running, since a forked
    child of a threaded process may hang on a lock another thread held."""
    work = count * cost
    if work <= SPLIT_WORK or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), -(-work // SPLIT_WORK), count)


def _fork(residues, chunk) -> tuple[int, int] | None:
    """(pid, fd) of a forked worker that writes marshal.dumps(residues(chunk))
    to the pipe fd and leaves by os._exit, so it flushes none of the parent's
    buffers, runs no atexit handler and never returns into the caller's
    stack; None when the pipe or the fork fails."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        try:
            os.close(rfd)
            data = memoryview(marshal.dumps(residues(chunk)))
            while data:
                data = data[os.write(wfd, data):]
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, rfd


def _collect(fd: int, size: int) -> list[int] | None:
    """The residues a worker wrote to fd, or None unless it wrote all size."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        part = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError):
        return None
    return part if type(part) is list and len(part) == size else None


def _split(residues, unpack, pairs: Iterable, count: int, k: int) -> list[int]:
    """[unpack(x) for x in residues(pairs)] for count pairs, cut into k
    contiguous slices.  Forked workers compute slices 2..k, each from its
    own copy of the pairs iterator, while this process computes and unpacks
    slice 1; it then unpacks each worker's residues in pair order, or
    computes a slice itself when its worker failed, and kills and reaps
    every worker whatever happens.  The unpacked output is that of one
    process."""
    it = iter(pairs)
    cuts = [count * s // k for s in range(k + 1)]
    workers = []
    try:
        for s in range(1, k):
            worker = _fork(residues, islice(it, cuts[s], cuts[s + 1]))
            if worker is None:
                break
            workers.append(worker)
        values = list(map(unpack, residues(islice(it, cuts[1]))))
        done = cuts[1]
        for s in range(1, k):
            part = _collect(workers[s - 1][1], cuts[s + 1] - cuts[s]) if s <= len(workers) else None
            if part is None:
                part = residues(islice(it, cuts[s] - done, cuts[s + 1] - done))
                done = cuts[s + 1]
            values += map(unpack, part)
        return values
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)    # one that wrote its slice is exiting anyway
            os.waitpid(pid, 0)


def _dots(N: int, phi: int, A: tuple, B: tuple, length: int,
          pairs: Iterable[tuple[int, int]], count: int | None = None) -> tuple[list, list[int]]:
    """Row i of A dotted with row j of B, A and B given as (table, index),
    for each (i, j) in pairs: a dot product of packed rows reduced mod
    Phi_N(2**W) once, as an output table and one index per pair.  B given
    as the same object as A is packed once.  count is the number of pairs
    (len(pairs) when None).

    A call whose work, count * length * phi, is above SPLIT_WORK is cut into
    contiguous slices of pairs, one per usable CPU at most, of which forked
    workers compute all but the first (_split).  The residues come back to
    this process and are unpacked in pair order, as one process unpacks
    them, so the table and index are those of the unsplit call."""
    width = _width(N, phi * max(length, 1) * _max_abs(A[0]) * _max_abs(B[0]))
    M = _modulus(N, width)
    out, unpack = _unpacker(M, width, phi)
    Ap = _packed_rows(*A, width)
    Bp = Ap if B is A else _packed_rows(*B, width)
    count = len(pairs) if count is None else count
    k = _slices(count, max(length, 1) * phi)
    if k > 1:
        def residues(chunk):
            return [sum(map(operator.mul, Ap[i], Bp[j])) % M for i, j in chunk]
        return out, _split(residues, unpack, pairs, count, k)
    if length == 1:                     # one product a pair (_products): no sum to form
        return out, [unpack(Ap[i][0] * Bp[j][0]) for i, j in pairs]
    return out, [unpack(sum(map(operator.mul, Ap[i], Bp[j]))) for i, j in pairs]


def _products(N: int, t1: Sequence, t2: Sequence,
              grid: Iterable[Iterable[tuple[int, int]]]) -> tuple[list, list[tuple[int, ...]]]:
    """t1[a] t2[b] for each pair (a, b) of each row of grid: one packed
    product (a dot of length 1, _dots) per distinct pair, as an output
    table and rows of indices into it.  Each row of pair numbers is
    replaced in place by its row of indices, so no second index is held."""
    pairs, rows = _number_pairs(grid)
    A = _column(t1)
    out, values = _dots(N, euler_phi(N), A, A if t2 is t1 else _column(t2), 1, pairs)
    for i, row in enumerate(rows):
        rows[i] = tuple(map(values.__getitem__, row))
    return out, rows


class Folding:
    """S diag(x) S for a symmetric S fixed by an involution pi, for any
    number of diagonals x that pi fixes, with the rows of S folded over pi
    once.  S.folding(pi) checks S and builds one.  The genus-2 relation
    check folds J~ over the swap of the theta basis this way for
    S0 = J~ D J~.

    R holds the pair representatives (i < pi i), F the fixed points, and
    reps = R + F.  Row r of P is p_r[k] = S[r][k] + S[r][pi k] on reps (so
    2 S[r][k] on F); row r of Q (r in R) is q_r[k] = S[r][k] - S[r][pi k] on
    R.
    """

    __slots__ = ("pi", "reps", "pairs", "P", "Q")

    def __init__(self, S: "ExactMatrix", pi: Sequence[int]):
        n = S.nrows
        R = [i for i in range(n) if i < pi[i]]
        reps = R + [i for i in range(n) if i == pi[i]]
        images = [pi[k] for k in reps]
        m = len(R)
        self.pi, self.reps, self.pairs = pi, reps, m
        self.P = S.submatrix(reps, reps) + S.submatrix(reps, images)
        self.Q = S.submatrix(R, R) - S.submatrix(R, images[:m])

    def blocks(self, diag: Sequence[CycNumber]) -> tuple:
        """The blocks of S diag(x) S for a diagonal x that pi fixes, each
        one row of an ExactMatrix: with w = x_k/2 on R and x_k/4 on F,
            alpha = P diag(w) P^T   (reps x reps, upper triangle),
            beta  = Q diag(w) Q^T   (R x R, upper triangle; None when R is empty).
        For r, c in reps, S[r][c] = S[pi r][pi c] = alpha + beta and
        S[r][pi c] = S[pi r][c] = alpha - beta, where beta drops out when r
        or c is a fixed point.  They cost n+^3/2 + n-^3/2 multiplications,
        n+ = |R| + |F| and n- = |R|, against n^3/2 unfolded; with pi the
        identity, alpha is the half-product.  ValueError when pi moves x:
        S diag(x) S then has a third block, which alpha and beta do not give.
        """
        pi, reps, m, P = self.pi, self.reps, self.pairs, self.P
        _check_length(diag, len(pi))
        if any(diag[k] != diag[pi[k]] for k in reps[:m]):
            raise ValueError("the diagonal must be fixed by pi")
        w = [diag[k] / (2 if a < m else 4) for a, k in enumerate(reps)]
        alpha = P.dots(P, _upper(len(reps)), w)
        if not m:
            return alpha, None
        return alpha, self.Q.dots(self.Q, _upper(m), w[:m])


def _upper(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i <= j < n, row by row: an upper triangle."""
    return [(i, j) for i in range(n) for j in range(i, n)]


class ExactMatrix:
    """Immutable dense matrix over Q(zeta_N): entry (i, j) is
    table[index[i][j]] / den.  The table holds each distinct integer
    coefficient vector once, in the order it first appears in row-major
    order, over one positive den in lowest terms: a unique form, so ==
    and hash compare values, and equal entries have equal indices.  Table,
    vectors and index are tuples."""

    __slots__ = ("order", "table", "index", "den")

    def __init__(self, order: int, rows: Iterable[Iterable[CycNumber]]):
        rs = [list(r) for r in rows]
        if any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("ragged rows")
        if any(e.order != order for r in rs for e in r):
            raise ValueError("entry order mismatch")
        cells, index = _tabulate(rs)
        table, den = _over_lcm(cells)
        self._set(order, table, tuple(map(tuple, index)), den)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors
    @classmethod
    def _of(cls, order: int, table: Sequence, index: Iterable[Iterable[int]],
            den: int) -> "ExactMatrix":
        """The matrix table[index] / den over a positive den, brought to the
        unique form (_intern, _lowest_terms)."""
        self = object.__new__(cls)
        table, index = _intern(table, index)
        table, den = _lowest_terms(table, den)
        self._set(order, table, index, den)
        return self

    @classmethod
    def from_vectors(cls, order: int, vecs: Iterable, den: int) -> "ExactMatrix":
        """The matrix vecs / den, for rows of coefficient vectors over a
        positive den, in the unique form."""
        return cls._of(order, *_tabulate(map(tuple, row) for row in vecs), den)

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
        return len(self.index)

    @property
    def ncols(self) -> int:
        return len(self.index[0]) if self.index else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def vecs(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The coefficient vectors of the entries, row by row, over den: a
        read-only view of the table through the index."""
        return tuple(tuple(map(self.table.__getitem__, row)) for row in self.index)

    def __getitem__(self, ij) -> CycNumber:
        i, j = ij
        return CycNumber._raw(self.order, self.table[self.index[i][j]], self.den)

    @property
    def rows(self) -> tuple[tuple[CycNumber, ...], ...]:
        """The entries as CycNumbers, one per table entry, on each access."""
        N, den = self.order, self.den
        cells = [CycNumber._raw(N, v, den) for v in self.table]
        return tuple(tuple(map(cells.__getitem__, row)) for row in self.index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.order, self.den, self.table, self.index)
                == (other.order, other.den, other.table, other.index))

    def __hash__(self):
        return hash((self.order, self.den, self.table, self.index))

    # -- entrywise operations
    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other, one sum per distinct pair of table entries."""
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self!r} and {other!r}")
        pairs, index = _number_pairs(map(zip, self.index, other.index))
        g = math.gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        t1, t2 = self.table, other.table
        table = [tuple(x * a + y * b for x, y in zip(t1[i], t2[j])) for i, j in pairs]
        return ExactMatrix._of(self.order, table, index, self.den * (other.den // g))

    def hadamard_transpose(self) -> "ExactMatrix":
        """The entrywise product of a square self and its transpose, entry
        (s, m) self_sm self_ms: one packed product per distinct pair of
        table entries (_products), 80 for the 900 entries of J~ at r = 7.
        index[m][s] is read in place, so no index is built beside the
        output's."""
        if not self.is_square():
            raise ValueError(f"hadamard_transpose of a non-square {self!r}")
        N, idx = self.order, self.index
        grid = (((a, idx[m][s]) for m, a in enumerate(row)) for s, row in enumerate(idx))
        return ExactMatrix._of(N, *_products(N, self.table, self.table, grid),
                               self.den * self.den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def scale(self, c) -> "ExactMatrix":
        c = c if isinstance(c, CycNumber) else CycNumber.from_rational(self.order, c)
        return self.scale_cols([c] * self.ncols)

    def scale_rows(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        """diag(factors) self, one packed product per distinct (entry, factor)
        pair (_products)."""
        _check_length(factors, self.nrows)
        N, w = self.order, ExactMatrix(self.order, [factors])
        grid = map(zip, self.index, map(repeat, w.index[0]))
        return ExactMatrix._of(N, *_products(N, self.table, w.table, grid), self.den * w.den)

    def scale_cols(self, factors: Sequence[CycNumber]) -> "ExactMatrix":
        """self diag(factors) (_scaled_cols) in the unique form."""
        return ExactMatrix._of(self.order, *self._scaled_cols(factors))

    def _scaled_cols(self, factors: Sequence[CycNumber]) -> tuple[list, list, int]:
        """self diag(factors) as an output table, rows of indices and a
        denominator, one packed product per distinct (entry, factor) pair
        (_products); dots reads them as they are."""
        _check_length(factors, self.ncols)
        N, w = self.order, ExactMatrix(self.order, [factors])
        grid = map(zip, self.index, repeat(w.index[0]))
        return (*_products(N, self.table, w.table, grid), self.den * w.den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.order, self.table, zip(*self.index), self.den)

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "ExactMatrix":
        """The entries (i, j) for i in rows and j in cols, in that order."""
        cols = list(cols)
        return ExactMatrix._of(self.order, self.table,
                               [[self.index[i][j] for j in cols] for i in rows], self.den)

    def descend(self, order: int) -> "ExactMatrix":
        """Entrywise CycNumber.descend, once per table entry: self over
        Q(zeta_order), or ValueError when some entry is not in it."""
        s = descent_step(self.order, order)
        if s == 1:
            return self
        if any(any(v[c::s]) for v in self.table for c in range(1, s)):
            raise ValueError(f"{self!r} does not lie in Q(zeta_{order})")
        return ExactMatrix._of(order, [v[::s] for v in self.table], self.index, self.den)

    def conj(self) -> "ExactMatrix":
        """Entrywise zeta -> zeta**-1."""
        return self.galois(self.order - 1)

    def galois(self, m: int) -> "ExactMatrix":
        """Entrywise zeta -> zeta**m, once per table entry."""
        N = self.order
        if math.gcd(m, N) != 1:
            raise ValueError(f"{m} is not coprime to {N}")
        return ExactMatrix._of(N, _galois_table(N, self.table, m), self.index, self.den)

    def trace(self) -> CycNumber:
        if not self.is_square():
            raise ValueError(f"trace of a non-square {self!r}")
        return sum((self[i, i] for i in range(self.nrows)), CycNumber.zero(self.order))

    def first_difference(self, other: "ExactMatrix") -> tuple[int, int] | None:
        """The first entry, in row-major order, where self and other differ."""
        diff = self - other
        return next(((i, j) for i, row in enumerate(diff.index) for j, k in enumerate(row)
                     if any(diff.table[k])), None)

    # -- packed-integer products
    def dots(self, other: "ExactMatrix", pairs: Iterable[tuple[int, int]],
             diag: Sequence[CycNumber] | None = None) -> "ExactMatrix":
        """Row i of self dotted with row j of other diag(diag) (of other when
        diag is None), for each (i, j) in pairs, on the packed kernel (the
        diagonal by _scaled_cols), as one row.  A column where the diagonal
        is 0 drops out of every dot (one submatrix when other is self)."""
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if self.ncols != other.ncols:
            raise ValueError("row length mismatch")
        if diag is not None:
            _check_length(diag, self.ncols)
            keep = [k for k in range(self.ncols) if diag[k]]
            if len(keep) < self.ncols:
                cut = self.submatrix(range(self.nrows), keep)
                other = cut if other is self else other.submatrix(range(other.nrows), keep)
                self = cut
                diag = [diag[k] for k in keep]
            *B, den = other._scaled_cols(diag)
        else:
            B, den = (other.table, other.index), other.den
        N = self.order
        table, out = _dots(N, euler_phi(N), (self.table, self.index), B, self.ncols, pairs)
        return ExactMatrix._of(N, table, [out], self.den * den)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.order != other.order:
            raise ValueError("field order mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"inner dimension mismatch: {self!r} and {other!r}")
        N, m, n = self.order, self.nrows, other.ncols
        table, flat = _dots(N, euler_phi(N), (self.table, self.index),
                            (other.table, tuple(zip(*other.index))), self.ncols,
                            product(range(m), range(n)), m * n)
        return ExactMatrix._of(N, table, (flat[i * n:(i + 1) * n] for i in range(m)),
                               self.den * other.den)

    def _check_fold(self, pi: Sequence[int]) -> None:
        """ValueError unless pi is an involution of range(n) and self is
        symmetric and fixed by pi: self[i, j] = self[j, i] = self[pi i, pi j],
        compared as table indices."""
        n, idx = self.nrows, self.index
        if sorted(pi) != list(range(n)) or any(pi[pi[i]] != i for i in range(n)):
            raise ValueError("pi must be an involution of the rows")
        if not self.is_square() or any(idx[i][j] != idx[j][i] or idx[i][j] != idx[pi[i]][pi[j]]
                                       for i in range(n) for j in range(i, n)):
            raise ValueError("folding needs a symmetric matrix fixed by pi")

    def folding(self, pi: Sequence[int]) -> Folding:
        """self folded over the involution pi, for any number of products
        self diag(x) self with x fixed by pi (Folding), after checking that
        self is symmetric and fixed by pi (_check_fold)."""
        self._check_fold(pi)
        return Folding(self, pi)

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
    table entry is reduced once."""
    res = sp.residues(M.order, M.table, M.den)
    return [list(map(res.__getitem__, row)) for row in M.index]


def _digit_words(terms: int, p: int) -> int:
    """64-bit words per packed digit that hold any sum of `terms` products
    of two residues in [0, p): one whenever terms (p - 1)^2 < 2**64, which
    holds for every split prime above SPLIT_PRIME_FLOOR at the sizes the
    certificates reach."""
    return max(1, -(-(terms * (p - 1) ** 2).bit_length() // 64))


@lru_cache(maxsize=None)
def _words(count: int) -> struct.Struct:
    """count unsigned 64-bit words, little-endian whatever the machine's
    byte order, so that word i is bits 64 i .. 64 i + 63 of the int."""
    return struct.Struct(f"<{count}Q")


def _pack_mod(rows: Iterable[Sequence[int]], p: int, k: int) -> list[int]:
    """Each row reduced mod p as one integer of digits of k words."""
    out = []
    for row in rows:
        res = [x % p for x in row]
        if k > 1:
            res = [(r >> s) & 0xFFFFFFFFFFFFFFFF for r in res for s in range(0, 64 * k, 64)]
        out.append(int.from_bytes(_words(len(res)).pack(*res), "little"))
    return out


def _unpack_mod(x: int, k: int, n: int, p: int) -> list[int]:
    """The n digits of x, k words each, reduced mod p."""
    w = _words(n * k).unpack(x.to_bytes(8 * n * k, "little"))
    if k == 1:
        return [d % p for d in w]
    return [sum(d << 64 * j for j, d in enumerate(w[i:i + k])) % p for i in range(0, n * k, k)]


def _times_packed(A: Iterable[Sequence[int]], Bp: list[int], k: int, n: int,
                  p: int) -> list[list[int]]:
    """A B mod p for B given as its packed rows Bp (n residues each): row i
    is sum_j a_ij B_j, one small-times-big multiply per (i, j), unpacked
    once."""
    return [_unpack_mod(sum(map(operator.mul, [a % p for a in row], Bp)), k, n, p)
            for row in A]


def matmul_mod(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]],
               p: int) -> list[list[int]]:
    """A B mod p, each row of B packed once."""
    k = _digit_words(len(B), p)
    return _times_packed(A, _pack_mod(B, p, k), k, len(B[0]) if B else 0, p)


def poly_at_matrix_mod(q: IntPolynomial, A: Sequence[Sequence[int]],
                       p: int) -> list[list[int]]:
    """q(A) mod p by Horner's rule, deg q - 1 products (deg q >= 1), with A
    packed once for all of them."""
    if q.degree < 1:
        raise ValueError("the polynomial must have degree >= 1")
    n, cs = len(A), q.coeffs
    k = _digit_words(n, p)
    Ap = _pack_mod(A, p, k)
    B = [[cs[-1] * x % p for x in row] for row in A]
    for step, c in enumerate(reversed(cs[:-1])):
        if step:
            B = _times_packed(B, Ap, k, n, p)
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
    k = _digit_words(n + 1, p)
    width, mask = 64 * k, (1 << 64 * k) - 1
    rest = _pack_mod(A, p, k)
    det = 1
    for c in range(n, 0, -1):
        piv = next((i for i, row in enumerate(rest) if (row & mask) % p), None)
        if piv is None:
            return 0
        if piv:
            rest[0], rest[piv] = rest[piv], rest[0]
            det = -det
        pivot = _unpack_mod(rest[0], k, c, p)
        det = det * pivot[0] % p
        inv = pow(pivot[0], -1, p)
        (prow,) = _pack_mod([pivot], p, k)
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

    def embed(self) -> list[list[float]]:
        """The entries as rows of doubles: each the sign times the double
        root of the nearest double to its square, within a relative
        2**-52 of the exact entry."""
        return [[sign * math.sqrt(abs(s.embed().real)) for s, sign in zip(row, signs)]
                for row, signs in zip(self.squares.rows, self.signs)]

    def __repr__(self):
        return f"SignedSqrtMatrix(order={self.squares.order}, {self.nrows}x{self.ncols})"
