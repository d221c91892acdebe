"""The genus-2 projective representation: basis, coupling coefficients,
the pairing matrix J~, its normalizations, relation verification, traces,
and the infinite-image certificates.

The theta-graph basis u_(i,j,k) is ordered lexicographically; the diagonal
generator acts by theta_i * theta_j.  The companion matrix of the order-4
generator is assembled from two tetrahedral nets glued along an internal
color l and a pair of double-twist coupling coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, product

from .exactnum import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    cyclotomic_factor,
    split_primes,
)
from .matrix import (
    CycPoly,
    ExactMatrix,
    SignedSqrtMatrix,
    char_poly,
    det_mod,
    matmul_mod,
    poly_at_matrix_mod,
    residue_matrix,
)
from .recoupling import (
    GlobalConstants,
    TheoryParams,
    admissible,
    color_set,
    delta,
    delta_at,
    delta_inv_at,
    global_constants,
    sixj,
    sixj_at,
    tet_at,
    theta_at,
    theta_inv_at,
    theta_net,
    twist,
    twist_at,
    verlinde_dim,
)
from .report import ReportItem, VerifyReport

# the non-cyclotomic quartic certifying an infinite-order element at level 3
INFINITE_ORDER_QUARTIC = IntPolynomial((1, -3, 3, -3, 1))


@dataclass(frozen=True)
class Genus2Basis:
    """Admissible color triples (i, j, k) of the theta graph, dictionary order."""

    level: int
    triples: tuple[tuple[int, int, int], ...]

    def __len__(self):
        return len(self.triples)


@lru_cache(maxsize=None)
def _enumerate_basis_cached(level: int) -> Genus2Basis:
    cs = color_set(level)
    triples = tuple(t for t in product(cs, repeat=3) if admissible(level, *t))
    return Genus2Basis(level, triples)


def enumerate_basis(params_or_level) -> Genus2Basis:
    """All (i,j,k) in I_r^3 admissible as a single vertex, dictionary order."""
    if isinstance(params_or_level, TheoryParams):
        return _enumerate_basis_cached(params_or_level.level)
    return _enumerate_basis_cached(params_or_level)


# --------------------------------------------------------------------------
# coupling coefficients of the double twist

def _coupling_support(r: int, i: int, j: int, l: int) -> bool:
    # channel l couples the doubled strands i and j: vertices (i,i,l), (j,j,l)
    return admissible(r, i, i, l) and admissible(r, j, j, l)


def coupling_a(params: TheoryParams, i: int, j: int, l: int) -> LaurentFraction:
    """Coefficient a^{i,j}_l of the double-twist recoupling, generic ring.

    a^{i,j}_l = sum over channels k of
        Delta_k theta_i theta_j theta_k^-1 Theta(i,j,k)^-1 {i j l; j i k};
    zero whenever the target channel l is not admissible for both doubled
    strands.
    """
    r = params.level
    total = LaurentFraction.zero()
    if not _coupling_support(r, i, j, l):
        return total
    for k in color_set(r):
        if not admissible(r, i, j, k):
            continue
        tw = twist(i) * twist(j) / twist(k)
        total = total + (delta(k) * tw / theta_net(r, i, j, k)
                         * sixj(r, i, j, l, j, i, k))
    return total


def coupling_a_bar(params: TheoryParams, i: int, j: int, l: int) -> LaurentFraction:
    """The image of a^{i,j}_l under A -> A^-1 (complex conjugate at unitary roots)."""
    return coupling_a(params, i, j, l).bar()


@lru_cache(maxsize=None)
def coupling_a_at(params: TheoryParams, i: int, j: int, l: int) -> CycNumber:
    r = params.level
    N = params.root_order
    total = CycNumber.zero(N)
    if not _coupling_support(r, i, j, l):
        return total
    for k in color_set(r):
        if not admissible(r, i, j, k):
            continue
        tw = twist_at(params, i) * twist_at(params, j) * twist_at(params, k).conj()
        total = total + (delta_at(params, k) * tw * theta_inv_at(params, i, j, k)
                         * sixj_at(params, i, j, l, j, i, k))
    return total


# --------------------------------------------------------------------------
# the representation matrices

@dataclass(frozen=True)
class Genus2Rep:
    """All genus-2 data at one root: J~, the representation matrix in the
    unnormalized basis (j_field), the unitary normalization as (square, sign)
    pairs when the form is positive definite, and the diagonal twist matrix."""

    params: TheoryParams
    basis: Genus2Basis
    jtilde: ExactMatrix
    j_field: ExactMatrix
    tdiag: ExactMatrix
    constants: GlobalConstants
    positive: bool

    @cached_property
    def junitary(self) -> SignedSqrtMatrix | None:
        """The unitary matrix, or None when the form is not positive definite.

        Signs come from J' (the basis rescaling is positive), squares from
        J'_{sm} J'_{ms}; built on first access, since relation checks and
        traces read only j_field.
        """
        if not self.positive:
            return None
        jf = self.j_field
        n = len(self.basis)
        squares = [[jf[s, m] * jf[m, s] for m in range(n)] for s in range(n)]
        signs = [[jf[s, m].real_sign() for m in range(n)] for s in range(n)]
        return SignedSqrtMatrix(ExactMatrix(self.params.root_order, squares), signs)


@lru_cache(maxsize=None)
def jtilde(params: TheoryParams) -> ExactMatrix:
    """The pairing matrix: J~_{sigma,mu} = sum over internal colors l of
    Delta_l^-1 a^{j1,i2}_l abar^{k2,i1}_l Tet(l,i2,i2;j2,k2,k2) Tet(l,j1,j1;k1,i1,i1).
    Inadmissible terms vanish silently."""
    r = params.level
    N = params.root_order
    basis = enumerate_basis(r)
    cs = color_set(r)
    zero = CycNumber.zero(N)

    # per-l tetrahedral tables; W2 absorbs Delta_l^-1
    tet1: dict[tuple, CycNumber] = {}
    tet2: dict[tuple, CycNumber] = {}
    for l in cs:
        dinv = None
        for (i, j, k) in basis.triples:
            if admissible(r, l, i, i) and admissible(r, l, k, k):
                tet1[(l, i, j, k)] = tet_at(params, l, i, i, j, k, k)
            if admissible(r, l, j, j) and admissible(r, l, i, i):
                if dinv is None:
                    dinv = delta_inv_at(params, l)
                tet2[(l, i, j, k)] = tet_at(params, l, j, j, k, i, i) * dinv

    a_tab: dict[tuple, CycNumber] = {}
    abar_tab: dict[tuple, CycNumber] = {}
    for x in cs:
        for y in cs:
            for l in cs:
                if _coupling_support(r, x, y, l):
                    v = coupling_a_at(params, x, y, l)
                    a_tab[(x, y, l)] = v
                    abar_tab[(x, y, l)] = v.conj()

    rows = []
    for (i1, j1, k1) in basis.triples:
        row = []
        for (i2, j2, k2) in basis.triples:
            acc = zero
            for l in cs:
                key1 = (l, i2, j2, k2)
                key2 = (l, i1, j1, k1)
                ka = (j1, i2, l)
                kb = (k2, i1, l)
                if key1 in tet1 and key2 in tet2 and ka in a_tab and kb in abar_tab:
                    term = a_tab[ka] * abar_tab[kb]
                    term = term * tet1[key1]
                    term = term * tet2[key2]
                    acc = acc + term
            row.append(acc)
        rows.append(row)
    return ExactMatrix(N, rows)


def t_genus2(params: TheoryParams) -> ExactMatrix:
    """Diagonal action on u_(i,j,k) by theta_i * theta_j."""
    basis = enumerate_basis(params.level)
    return ExactMatrix.diagonal(
        params.root_order,
        [twist_at(params, i) * twist_at(params, j) for (i, j, k) in basis.triples])


def _norms_positive(params: TheoryParams) -> bool:
    """Positive definiteness of the hermitian form in the theta-graph basis."""
    gc = global_constants(params)
    if gc.d_squared.real_sign() <= 0 or not gc.d_squared.is_real():
        return False
    for i in color_set(params.level):
        d = delta_at(params, i)
        if not d.is_real() or d.real_sign() <= 0:
            return False
    return True


@lru_cache(maxsize=None)
def genus2_rep(params: TheoryParams) -> Genus2Rep:
    r = params.level
    basis = enumerate_basis(r)
    jt = jtilde(params)
    gc = global_constants(params)
    d2_inv = gc.d_squared.inverse()

    # representation matrix in the unnormalized basis:
    # J'_{sigma,mu} = Delta_{i2} Delta_{j2} Delta_{k2} / (D^2 Theta_mu^2) J~_{sigma,mu}
    col = []
    for (i, j, k) in basis.triples:
        dprod = delta_at(params, i) * delta_at(params, j) * delta_at(params, k)
        th_inv = theta_inv_at(params, i, j, k)
        col.append(dprod * th_inv * th_inv * d2_inv)
    j_field = jt.scale_cols(col)

    return Genus2Rep(params, basis, jt, j_field, t_genus2(params), gc,
                     _norms_positive(params))


# --------------------------------------------------------------------------
# relation verification

def verify_genus2_relations(params: TheoryParams) -> VerifyReport:
    """Exact checks of the defining relations:

    (i)   J^2 = I;
    (ii)  (TJ)^5 = (P+/P-)^2 I;
    (iii) J J^dagger = I at the unitary root (conjugation is zeta -> zeta^-1);
    (iv)  J symmetric (as J~ = J~^T).
    """
    rep = genus2_rep(params)
    N = params.root_order
    n = len(rep.basis)
    gc = rep.constants
    ident = ExactMatrix.identity(N, n)
    items = []

    j2 = rep.j_field @ rep.j_field
    diff = j2.first_difference(ident)
    items.append(ReportItem("J^2 = I", diff is None, diff))

    tj = rep.j_field.scale_rows([rep.tdiag[i, i] for i in range(n)])
    tj2 = tj @ tj
    tj5 = (tj2 @ tj2) @ tj
    scalar = gc.kappa_squared * gc.kappa_squared
    diff = tj5.first_difference(ident.scale(scalar))
    items.append(ReportItem("(TJ)^5 = (P+/P-)^2 I", diff is None, diff))

    if params.is_unitary_root:
        # unitarity in the theta-scaled basis: F = Theta J' Theta^-1 has
        # F bar(F) = I exactly iff the unitary matrix satisfies U U^dag = I
        th = [theta_at(params, *t) for t in rep.basis.triples]
        th_inv = [theta_inv_at(params, *t) for t in rep.basis.triples]
        F = rep.j_field.scale_rows(th).scale_cols(th_inv)
        prod = F @ F.conj()
        diff = prod.first_difference(ident)
        items.append(ReportItem("J J^dagger = I (unitary root)", diff is None, diff))

    diff = rep.jtilde.first_difference(rep.jtilde.transpose())
    items.append(ReportItem("J symmetric (J~ = J~^T)", diff is None, diff))

    notes = (f"level={params.level}, dim={n}, root zeta_{N}^{params.root_exponent}",
             "twist exponent convention: i(i+2)",
             "normalization pinned by J_(000),(000) = 1/D^2")
    return VerifyReport(f"genus-2 relations at level {params.level}", tuple(items), notes)


# --------------------------------------------------------------------------
# traces and infinite-image certificates

def _jtjt_matrix(params: TheoryParams) -> ExactMatrix:
    rep = genus2_rep(params)
    n = len(rep.basis)
    tvals = [rep.tdiag[i, i] for i in range(n)]
    tinv = [t.conj() for t in tvals]  # each t is +-zeta^e
    return rep.j_field.scale_cols(tvals) @ rep.j_field.scale_cols(tinv)


@lru_cache(maxsize=None)
def trace_jtjt(params: TheoryParams) -> CycNumber:
    """tr(J T J T^-1) exactly, as the double sum over s, m of
    t_s t_m^-1 J'_{sm} J'_{ms} (the basis rescaling cancels in the trace);
    no n x n product is formed.  Tests diff it against _jtjt_matrix."""
    rep = genus2_rep(params)
    n = len(rep.basis)
    jf = rep.j_field
    tvals = [rep.tdiag[i, i] for i in range(n)]
    tinv = [t.conj() for t in tvals]  # each t is +-zeta^e

    total = CycNumber.zero(params.root_order)
    for s in range(n):
        for m in range(n):
            total = total + tvals[s] * tinv[m] * (jf[s, m] * jf[m, s])
    return total


def trace_params(r: int) -> TheoryParams:
    """The documented trace-table specialization A = e^(i pi/(r+2)) = zeta_2p."""
    if r % 2 == 0:
        raise ValueError("the trace table is defined for odd levels")
    return TheoryParams(r, root_exponent=1)


@dataclass(frozen=True)
class TraceEntry:
    level: int
    root_exponent: int
    value: CycNumber
    approx: complex
    dimension: int

    @property
    def exceeds_dimension(self) -> bool:
        """Exact: the real part of the trace is larger than dim V."""
        return (self.value - self.dimension).real_sign() > 0


def trace_table(levels=(3, 5, 7, 9, 11, 13)) -> list[TraceEntry]:
    out = []
    for r in levels:
        p = trace_params(r)
        v = trace_jtjt(p)
        z = complex(*_mp_embed(v, 40))
        out.append(TraceEntry(r, p.root_exponent, v, z, verlinde_dim(r, 2)))
    return out


def trace_galois_sweep(r: int) -> list[tuple[int, complex]]:
    """The trace at every Galois-conjugate root A = zeta^k, for the documented
    sweep.  Every entry of J' and T lies in Q(A), so the trace at zeta^k is
    sigma_k of the trace at zeta: one representation is built, not phi(N)."""
    p0 = trace_params(r)
    v = trace_jtjt(p0)
    N = p0.root_order
    return [(k, complex(*_mp_embed(v.galois(k), 40)))
            for k in range(1, N) if math.gcd(k, N) == 1]


def _mp_embed(x: CycNumber, dps: int) -> tuple[float, float]:
    z = x.embed_mp(dps)
    return (float(z.real), float(z.imag))


@dataclass(frozen=True)
class InfiniteImageReport:
    level: int
    verdict: str                      # "infinite" | "inconclusive"
    minpoly_fires: bool
    minpoly_details: str
    trace_fires: bool
    trace_details: str

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "verdict": self.verdict,
            "certificates": {
                "minimal_polynomial": {"fires": self.minpoly_fires,
                                       "details": self.minpoly_details},
                "trace": {"fires": self.trace_fires, "details": self.trace_details},
            },
        }


# Above this dimension the minimal-polynomial route reports "skipped" and
# defers to the trace certificate.  The residue test below would decide
# there too, but its four pure-Python O(n^3) products and one elimination
# take about 40 s at n = 455 (r = 13; 2-core x86-64 VM, Python 3.11), and
# lifting the budget changes the printed details at r = 6, 8 and 10..13;
# both belong to a change of their own.
MINPOLY_DIM_BUDGET = 60

# split primes tried before the route falls back to the exact characteristic
# polynomial: every one gives det Q(M) = 0 mod p when det Q(M) = 0 exactly
# (r = 3); at r = 2, 4, 5, 7 and 9 the first one already gives a nonzero residue
RESIDUE_PRIMES = 3


def _quartic_residue_nonzero(params: TheoryParams, quartic: IntPolynomial) -> bool:
    """True when det Q(M) is nonzero modulo one of the first RESIDUE_PRIMES
    split primes prime to the denominators of J', M = J T J T^-1.

    Reduction modulo a split prime is a ring homomorphism, so a nonzero
    residue proves det Q(M) != 0 exactly: Q has no root in common with the
    characteristic polynomial of M.  M is formed in F_p only.
    """
    rep = genus2_rep(params)
    jf = rep.j_field
    n = len(rep.basis)
    den = math.lcm(*(e.den for row in jf.rows for e in row))
    for sp in islice(split_primes(params.root_order, den), RESIDUE_PRIMES):
        p = sp.p
        J = residue_matrix(jf, sp)
        t = [sp.residue(rep.tdiag[i, i]) for i in range(n)]
        tinv = [pow(x, -1, p) for x in t]  # each t is +-omega^e
        JT = [[x * y % p for x, y in zip(row, t)] for row in J]
        JTinv = [[x * y % p for x, y in zip(row, tinv)] for row in J]
        M = matmul_mod(JT, JTinv, p)
        if det_mod(poly_at_matrix_mod(quartic, M, p), p):
            return True
    return False


def minpoly_certificate(params: TheoryParams,
                        quartic: IntPolynomial = INFINITE_ORDER_QUARTIC) -> tuple[bool, str]:
    """Certificate (a): J T J T^-1 has an eigenvalue of infinite
    multiplicative order, a root of the designated polynomial Q.

    The certificate fires exactly when gcd(P, Q) over Q(zeta_N) is
    nontrivial, P the characteristic polynomial of M = J T J T^-1: a common
    root is an eigenvalue that is not a root of unity.  It is decided in
    three steps:

    1. Precondition: Q has no cyclotomic factor Phi_k (phi(k) >= sqrt(k/2),
       so k <= 2 deg(Q)^2 covers every Phi_k of degree at most deg Q); a Q
       with such a factor never fires.  The route is skipped beyond
       MINPOLY_DIM_BUDGET.
    2. Residue "no": gcd(P, Q) is trivial exactly when det Q(M) != 0, and a
       nonzero det Q(M) modulo a split prime proves that
       (_quartic_residue_nonzero); no characteristic polynomial is built.
    3. Exact gcd: only when every residue is 0 (at r = 3, where the level-3
       quartic shares a factor with P), char_poly and CycPoly.gcd decide and
       give the degree of the common factor.
    """
    d = quartic.degree
    if d < 1:
        raise ValueError("the designated polynomial must have degree >= 1")
    k = cyclotomic_factor(quartic)
    if k is not None:
        return False, (f"designated polynomial has the cyclotomic factor Phi_{k}; "
                       "its roots include roots of unity")
    n = len(enumerate_basis(params.level))
    if n > MINPOLY_DIM_BUDGET:
        return False, (f"skipped: dimension {n} exceeds the exact charpoly "
                       f"budget ({MINPOLY_DIM_BUDGET}); the designated quartic "
                       "targets level 3")
    if _quartic_residue_nonzero(params, quartic):
        return False, "quartic shares no factor with the characteristic polynomial"
    P = char_poly(_jtjt_matrix(params))
    G = P.gcd(CycPoly.from_int_poly(params.root_order, quartic))
    if G.degree < 1:
        return False, "quartic shares no factor with the characteristic polynomial"
    terms = []
    for e, c in enumerate(quartic.coeffs):
        if c:
            mono = "1" if e == 0 else ("x" if e == 1 else f"x^{e}")
            co = "" if abs(c) == 1 and e > 0 else str(abs(c))
            terms.append(("- " if c < 0 else "+ " if terms else "") + co + ("" if e == 0 else mono))
    qstr = " ".join(terms)
    return True, (f"eigenvalue factor of degree {G.degree} found; minimal polynomial "
                  f"{qstr} is not cyclotomic")


def trace_certificate(params: TheoryParams) -> tuple[bool, str]:
    """Certificate (b): tr(J T J T^-1) is real and exceeds dim V, impossible
    for a finite image of the unitary family.

    Decided exactly: the trace equals its conjugate in Q(zeta_N) and
    real_sign(tr - dim) > 0.  The 40-digit embedding only prints the value.
    """
    v = trace_jtjt(params)
    d = verlinde_dim(params.level, 2)
    fires = v.is_real() and (v - d).real_sign() > 0
    re, im = _mp_embed(v, 40)
    return fires, (f"tr = {re:.4f}{im:+.1e}i vs dim = {d} at root "
                   f"zeta_{params.root_order}^{params.root_exponent}")


def infinite_image_certificate(params: TheoryParams) -> InfiniteImageReport:
    """Run both certificates; report "infinite" when either fires.

    Both run on one representation: at the documented trace specialization
    (k = 1) for odd levels and at the given root otherwise.  The
    minimal-polynomial verdict is the same at every root: Q is rational, so
    sigma_k gcd(P, Q) = gcd(sigma_k P, Q) has the same degree.
    """
    r = params.level
    if r % 2:
        params = trace_params(r)
    mp_fires, mp_details = minpoly_certificate(params)
    tr_fires, tr_details = trace_certificate(params)
    verdict = "infinite" if (mp_fires or tr_fires) else "inconclusive"
    return InfiniteImageReport(r, verdict, mp_fires, mp_details, tr_fires, tr_details)
