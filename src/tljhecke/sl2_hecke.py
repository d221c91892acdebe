"""Hecke groups as exact 2x2 matrix groups over real cyclotomic subfields,
Thurston's construction from a pair of binding multicurves, word evaluation,
presentation checks, and trace classification.

lambda = 2 cos(pi/q) lives exactly in Q(zeta_2q) as zeta + zeta^-1; all
group computations are exact.  Floats appear only in the Perron-Frobenius
certification of generic multicurve data.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .exactnum import CycNumber
from .report import ReportItem, VerifyReport


class NotPrimitive(ValueError):
    """The bipartite intersection graph is disconnected."""


def hecke_lambda(q: int) -> CycNumber:
    """2 cos(pi/q) = zeta_2q + zeta_2q^-1, exact in the real subfield."""
    z = CycNumber.zeta(2 * q)
    return z + z.conj()


@dataclass(frozen=True)
class SL2Matrix:
    """2x2 matrix with entries in one cyclotomic field; determinant 1."""

    a: CycNumber
    b: CycNumber
    c: CycNumber
    d: CycNumber

    def __post_init__(self):
        if self.det() != 1:
            raise ValueError("determinant must be exactly 1")

    @staticmethod
    def identity(order: int) -> "SL2Matrix":
        one, zero = CycNumber.one(order), CycNumber.zero(order)
        return SL2Matrix(one, zero, zero, one)

    @property
    def order(self) -> int:
        return self.a.order

    def det(self) -> CycNumber:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CycNumber:
        return self.a + self.d

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "SL2Matrix":
        # adjugate works since det = 1
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "SL2Matrix":
        if n < 0:
            return self.inverse() ** (-n)
        result = SL2Matrix.identity(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self == SL2Matrix.identity(self.order)

    def is_minus_identity(self) -> bool:
        return self == -SL2Matrix.identity(self.order)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def embed(self):
        return [[self.a.embed().real, self.b.embed().real],
                [self.c.embed().real, self.d.embed().real]]


@lru_cache(maxsize=None)
def hecke_generators(q: int) -> tuple[SL2Matrix, SL2Matrix, SL2Matrix]:
    """(A_q, B_q, J): translation by lambda, its transpose twist, and inversion."""
    if q < 3 or q % 2 == 0:
        raise ValueError("q must be an odd integer >= 3")
    lam = hecke_lambda(q)
    N = lam.order
    one, zero = CycNumber.one(N), CycNumber.zero(N)
    A = SL2Matrix(one, lam, zero, one)
    B = SL2Matrix(one, zero, -lam, one)
    J = SL2Matrix(zero, -one, one, zero)
    return A, B, J


_WORD_TOKEN = re.compile(r"([ABJ])(?:\^(-?\d+))?$")


def parse_word(word: str) -> list[tuple[str, int]]:
    """Parse "A B A^-1 J^2" into [(sym, exponent), ...]."""
    out = []
    for tok in word.split():
        m = _WORD_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}; use A, B, J with optional ^exp")
        out.append((m.group(1), int(m.group(2) or 1)))
    return out


def eval_word(word, q: int) -> SL2Matrix:
    """Exact product of generator powers; word is a string or (sym, exp) list."""
    if isinstance(word, str):
        word = parse_word(word)
    A, B, J = hecke_generators(q)
    gens = {"A": A, "B": B, "J": J}
    result = SL2Matrix.identity(A.order)
    for sym, e in word:
        result = result * gens[sym] ** e
    return result


def classify(M: SL2Matrix) -> str:
    """elliptic (|tr|<2), parabolic (|tr|=2), or hyperbolic (|tr|>2), exactly."""
    if M.det() != 1:
        raise ValueError("classification requires det = 1")
    t = M.trace()
    if not t.is_real():
        raise ValueError("trace is not real")
    disc = t * t - 4
    s = disc.real_sign()
    if s < 0:
        return "elliptic"
    if s == 0:
        return "parabolic"
    return "hyperbolic"


def verify_presentation(q: int) -> VerifyReport:
    """Exact word identities behind the amalgamated-product presentation:

    in PSL:  J = A^-1 (AB)^((q+1)/2) up to sign;
    in SL2:  J = (AB)^(q(q-1)/2) A^-1 (AB)^((q+1)/2);
    with s = J, t = A: s^4 = (ts)^(2q) = I, s^2 = (ts)^q;  (AB)^q = -I.
    """
    A, B, J = hecke_generators(q)
    AB = A * B
    items = []

    w = A.inverse() * AB ** ((q + 1) // 2)
    ok = w == J or w == -J
    items.append(ReportItem("J = A^-1 (AB)^((q+1)/2) in PSL(2)", ok))

    w = AB ** (q * (q - 1) // 2) * A.inverse() * AB ** ((q + 1) // 2)
    items.append(ReportItem("J = (AB)^(q(q-1)/2) A^-1 (AB)^((q+1)/2) in SL(2)", w == J))

    s, ts = J, A * J
    items.append(ReportItem("s^4 = I", (s ** 4).is_identity()))
    items.append(ReportItem("(ts)^(2q) = I", (ts ** (2 * q)).is_identity()))
    items.append(ReportItem("s^2 = (ts)^q", s * s == ts ** q))
    items.append(ReportItem("(AB)^q = -I", (AB ** q).is_minus_identity()))

    return VerifyReport(f"Hecke presentation checks at q={q}", tuple(items),
                        (f"lambda = 2 cos(pi/{q}) in Q(zeta_{2 * q})",))


def hyperelliptic_image_check(g: int) -> VerifyReport:
    """rho(T_A T_B)^(2g+1) = -I with mu = 2 cos(pi/(2g+1))."""
    q = 2 * g + 1
    A, B, _ = hecke_generators(q)
    w = (A * B) ** q
    item = ReportItem(f"(AB)^{q} = -I at lambda = 2cos(pi/{q})", w.is_minus_identity())
    return VerifyReport(f"hyperelliptic image relation at genus {g}", (item,))


# --------------------------------------------------------------------------
# Thurston's construction

@dataclass(frozen=True)
class MulticurveData:
    """Geometric intersection matrix of two multicurves plus multiplicities.

    intersections[i][j] = i(alpha_i, beta_j) >= 0; the bipartite graph of
    nonzero entries must be connected (binding condition).
    """

    intersections: tuple[tuple[int, ...], ...]
    p_mult: tuple[int, ...]
    q_mult: tuple[int, ...]

    def __post_init__(self):
        n = len(self.intersections)
        m = len(self.intersections[0]) if n else 0
        if any(len(row) != m for row in self.intersections):
            raise ValueError("ragged intersection matrix")
        if len(self.p_mult) != n or len(self.q_mult) != m:
            raise ValueError("multiplicity lengths do not match the matrix")
        if any(x < 0 for row in self.intersections for x in row):
            raise ValueError("intersection numbers must be nonnegative")
        if any(x < 1 for x in self.p_mult) or any(x < 1 for x in self.q_mult):
            raise ValueError("multiplicities must be positive")

    @staticmethod
    def path(n_vertices: int) -> "MulticurveData":
        """The type-A path a1 - b1 - a2 - b2 - ... with unit multiplicities."""
        n = (n_vertices + 1) // 2
        m = n_vertices // 2
        rows = [[0] * m for _ in range(n)]
        for i in range(n):
            if i < m:
                rows[i][i] = 1
            if i - 1 >= 0 and i - 1 < m:
                rows[i][i - 1] = 1
        return MulticurveData(tuple(tuple(r) for r in rows),
                              (1,) * n, (1,) * m)

    def is_connected(self) -> bool:
        n, m = len(self.intersections), len(self.q_mult)
        adj = {("a", i): set() for i in range(n)}
        adj.update({("b", j): set() for j in range(m)})
        for i in range(n):
            for j in range(m):
                if self.intersections[i][j]:
                    adj[("a", i)].add(("b", j))
                    adj[("b", j)].add(("a", i))
        if not adj:
            return False
        seen = set()
        stack = [next(iter(adj))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return len(seen) == n + m

    def is_unit_path(self) -> bool:
        """True for a type-A path with all intersections and multiplicities 1."""
        if any(x != 1 for x in self.p_mult) or any(x != 1 for x in self.q_mult):
            return False
        if any(x not in (0, 1) for row in self.intersections for x in row):
            return False
        if not self.is_connected():
            return False
        n, m = len(self.intersections), len(self.q_mult)
        edges = sum(x for row in self.intersections for x in row)
        if edges != n + m - 1:
            return False  # a tree is required
        degs = ([sum(row) for row in self.intersections]
                + [sum(self.intersections[i][j] for i in range(n)) for j in range(m)])
        return max(degs) <= 2


@dataclass(frozen=True)
class ThurstonRep:
    """mu and the parabolic images of the two multitwists.

    For type-A paths with unit multiplicities mu is exact (a real cyclotomic
    number); otherwise mu carries a certified float with the stated residual.
    """

    mu_exact: CycNumber | None
    mu_float: float
    residual: float
    ta_exact: SL2Matrix | None
    tb_exact: SL2Matrix | None
    ta_float: tuple[tuple[float, float], tuple[float, float]]
    tb_float: tuple[tuple[float, float], tuple[float, float]]


def thurston_rep(data: MulticurveData) -> ThurstonRep:
    """Perron-Frobenius data of [[0, PN], [QN^t, 0]] and the parabolic pair
    [[1, mu], [0, 1]], [[1, 0], [-mu, 1]]."""
    import numpy as np

    if not data.is_connected():
        raise NotPrimitive("bipartite intersection graph is disconnected")
    n, m = len(data.intersections), len(data.q_mult)
    N = np.array(data.intersections, dtype=float)
    P = np.diag(np.array(data.p_mult, dtype=float))
    Q = np.diag(np.array(data.q_mult, dtype=float))
    M = np.block([[np.zeros((n, n)), P @ N], [Q @ N.T, np.zeros((m, m))]])
    w, V = np.linalg.eig(M)
    idx = int(np.argmax(w.real))
    mu = float(w[idx].real)
    v = V[:, idx].real
    if v.sum() < 0:
        v = -v
    residual = float(np.abs(M @ v - mu * v).max() / max(np.abs(v).max(), 1e-30))

    mu_exact = ta = tb = None
    if data.is_unit_path():
        k = n + m + 1
        mu_exact = hecke_lambda(k)
        order = mu_exact.order
        one, zero = CycNumber.one(order), CycNumber.zero(order)
        ta = SL2Matrix(one, mu_exact, zero, one)
        tb = SL2Matrix(one, zero, -mu_exact, one)
        mu = mu_exact.embed().real
    ta_f = ((1.0, mu), (0.0, 1.0))
    tb_f = ((1.0, 0.0), (-mu, 1.0))
    return ThurstonRep(mu_exact, mu, residual, ta, tb, ta_f, tb_f)


def read_graph_file(text: str) -> MulticurveData:
    """Parse the thurston graph file: first line "n m", then the n x m
    integer matrix, then the two multiplicity lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m = (int(x) for x in lines[0].split())
    rows = tuple(tuple(int(x) for x in lines[1 + i].split()) for i in range(n))
    p = tuple(int(x) for x in lines[1 + n].split())
    q = tuple(int(x) for x in lines[2 + n].split())
    return MulticurveData(rows, p, q)
