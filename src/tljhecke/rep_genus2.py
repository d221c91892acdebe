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
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product

from .exactnum import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    _power_sum,
    cyclotomic_factor,
    euler_phi,
    split_primes,
)
from .matrix import (
    CycPoly,
    ExactMatrix,
    Folding,
    SignedSqrtMatrix,
    _dots,
    _scale_columns,
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

    @cached_property
    def swap(self) -> tuple[int, ...]:
        """The involution (i, j, k) -> (i, k, j) of the basis, as indices.
        D is fixed by it (its entries are symmetric in j and k) and so is
        J~ (the tests pin it for r <= 6 at every root); T is not, as it acts
        by theta_i theta_j."""
        pos = {t: a for a, t in enumerate(self.triples)}
        return tuple(pos[i, k, j] for i, j, k in self.triples)


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
    """All genus-2 data at one root: J~ and the column factors D that make
    it the representation matrix J' = J~ D in the unnormalized basis
    (j_field), the twists T, the unitary normalization as (square, sign)
    pairs when the form is positive definite.  J~ is coefficient vectors
    over one denominator (ExactMatrix); D (jcols) and T (tdiag) are
    diagonals, tuples of CycNumbers, and so are E = D T and E' = D T^-1
    (e, e_inv).  The relation checks, the trace and the quartic residue
    read J~, E and E' as they are held."""

    params: TheoryParams
    basis: Genus2Basis
    jtilde: ExactMatrix
    jcols: tuple[CycNumber, ...]
    tdiag: tuple[CycNumber, ...]
    constants: GlobalConstants
    positive: bool

    @cached_property
    def e(self) -> tuple[CycNumber, ...]:
        """E = D T, built on first access."""
        return tuple(d * t for d, t in zip(self.jcols, self.tdiag))

    @cached_property
    def e_inv(self) -> tuple[CycNumber, ...]:
        """E' = D T^-1, as D conj(T): each t is +-zeta^b."""
        return tuple(d * t.conj() for d, t in zip(self.jcols, self.tdiag))

    @cached_property
    def j_field(self) -> ExactMatrix:
        """J' = J~ D, built on first access (one packed product per entry).

        The relation checks, the trace and the quartic residue read J~ and D
        (jcols) on the packed kernel and never build it.  Its readers are
        the `genus2-matrices` output (--raw, or a form that is not positive),
        junitary, the exact char-poly fallback of the minimal-polynomial
        certificate (_jtjt_matrix, reached at r = 3) and the report of a
        failing relation (_reference_differences).
        """
        return self.jtilde.scale_cols(self.jcols)

    @cached_property
    def junitary(self) -> SignedSqrtMatrix | None:
        """The unitary matrix, or None when the form is not positive definite.

        Signs come from J' (the basis rescaling is positive), squares from
        J'_{sm} J'_{ms}; built on first access, since relation checks and
        traces never read it.
        """
        if not self.positive:
            return None
        jf = self.j_field.rows
        n = len(self.basis)
        squares = [[jf[s][m] * jf[m][s] for m in range(n)] for s in range(n)]
        signs = [[jf[s][m].real_sign() for m in range(n)] for s in range(n)]
        return SignedSqrtMatrix(ExactMatrix(self.params.root_order, squares), signs)


@lru_cache(maxsize=None)
def jtilde(params: TheoryParams) -> ExactMatrix:
    """The pairing matrix: J~_{sigma,mu} = sum over internal colors l of
    Delta_l^-1 a^{j1,i2}_l abar^{k2,i1}_l Tet(l,i2,i2;j2,k2,k2) Tet(l,j1,j1;k1,i1,i1).
    Inadmissible terms vanish silently."""
    r = params.level
    N = params.root_order
    ts = enumerate_basis(r).triples
    cs = color_set(r)

    # the coupling coefficients a^{x,y}_l and the Tet values as rows of
    # length 1, so that each half-term is one packed product (dots):
    # left[j1, l, mu] = a^{j1,i2}_l Tet(l,i2,i2;j2,k2,k2) and
    # right[k2, l, sigma] = abar^{k2,i1}_l Delta_l^-1 Tet(l,j1,j1;k1,i1,i1)
    keys = [(x, y, l) for x in cs for y in cs for l in cs if _coupling_support(r, x, y, l)]
    row = {key: a for a, key in enumerate(keys)}
    a = ExactMatrix(N, [[coupling_a_at(params, *key)] for key in keys])
    abar = a.conj().scale_rows([delta_inv_at(params, l) for _, _, l in keys])
    tets, cells = [], ([], [])
    for l in cs:
        for t in ts:
            i, j, k = t
            for side, ends in enumerate(((i, j, k), (j, k, i))):
                if admissible(r, l, ends[0], ends[0]) and admissible(r, l, ends[2], ends[2]):
                    tets.append([tet_at(params, l, ends[0], ends[0], ends[1], ends[2], ends[2])])
                    cells[side].extend(((x, l, t), (row[x, i, l], len(tets) - 1))
                                       for x in cs if (x, i, l) in row)
    tets = ExactMatrix(N, tets)
    zero = [0] * euler_phi(N)

    def halves(m, side):
        vecs, den = m.dots(tets, [pair for _, pair in cells[side]])
        at = {cell: v for (cell, _), v in zip(cells[side], vecs)}
        return ExactMatrix.from_vectors(N, [[at.get((x, l, t), zero) for l in cs]
                                            for x in cs for t in ts], den)

    # J~_{sigma,mu} = sum over l of left[j1, l, mu] right[k2, l, sigma]: one
    # packed dot of the row (k2, sigma) of R with the row (j1, mu) of L
    pos = {x: i for i, x in enumerate(cs)}
    n = len(ts)
    vecs, den = halves(abar, 1).dots(halves(a, 0), (
        (pos[mu[2]] * n + b, pos[sigma[1]] * n + c)
        for b, sigma in enumerate(ts) for c, mu in enumerate(ts)))
    return ExactMatrix.from_vectors(N, [vecs[b * n:(b + 1) * n] for b in range(n)], den)


def t_genus2(params: TheoryParams) -> tuple[CycNumber, ...]:
    """The diagonal of T: it acts on u_(i,j,k) by theta_i * theta_j."""
    basis = enumerate_basis(params.level)
    return tuple(twist_at(params, i) * twist_at(params, j) for (i, j, k) in basis.triples)


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

    # column factors of the representation matrix in the unnormalized basis:
    # J'_{sigma,mu} = Delta_{i2} Delta_{j2} Delta_{k2} / (D^2 Theta_mu^2) J~_{sigma,mu}
    col = []
    for (i, j, k) in basis.triples:
        dprod = delta_at(params, i) * delta_at(params, j) * delta_at(params, k)
        th_inv = theta_inv_at(params, i, j, k)
        col.append(dprod * th_inv * th_inv * d2_inv)

    return Genus2Rep(params, basis, jt, tuple(col), t_genus2(params), gc,
                     _norms_positive(params))


# --------------------------------------------------------------------------
# relation verification

def verify_genus2_relations(params: TheoryParams) -> VerifyReport:
    """Exact checks of the defining relations:

    (i)   J^2 = I;
    (ii)  (TJ)^5 = (P+/P-)^2 I;
    (iii) J J^dagger = I at the unitary root (conjugation is zeta -> zeta^-1);
    (iv)  J symmetric (as J~ = J~^T).

    J' = J~ D with J~ symmetric and D, T diagonal, so the relations are
    decided from three symmetric half-products A diag(e) A, on J~ and D as
    given (_relations_hold); the two on J~ share one folding over the swap
    (i, j, k) -> (i, k, j) of the basis, which fixes J~ and D (at r = 6,
    84k and 142k multiplications against 300k each unfolded).  Only when
    that path cannot show that every relation holds (a J~ or D that the
    swap moves included) are J'^2, (TJ')^5 and F bar(F) formed in full
    (_reference_differences), and the report names the first offending
    entry of each, as the products give it.
    """
    rep = genus2_rep(params)
    names = ["J^2 = I", "(TJ)^5 = (P+/P-)^2 I"]
    if params.is_unitary_root:
        names.append("J J^dagger = I (unitary root)")
    names.append("J symmetric (J~ = J~^T)")
    diffs = [None] * len(names) if _relations_hold(rep) else _reference_differences(rep)
    items = tuple(ReportItem(name, diff is None, diff) for name, diff in zip(names, diffs))
    notes = (f"level={params.level}, dim={len(rep.basis)}, "
             f"root zeta_{params.root_order}^{params.root_exponent}",
             "twist exponent convention: i(i+2)",
             "normalization pinned by J_(000),(000) = 1/D^2")
    return VerifyReport(f"genus-2 relations at level {params.level}", items, notes)


def _relations_hold(rep: Genus2Rep) -> bool:
    """True only when all four relations hold; each step is exact.

    J~ is folded over the swap pi: (i, j, k) -> (i, k, j) once
    (Genus2Basis.swap, ExactMatrix.folding): one check that J~ is symmetric
    and fixed by pi and one set of folded rows serve S0 and S2, whose
    blocks live over the pairs R (j < k) and the fixed points F (j = k).
    When J~ or D is not fixed by pi, the reference chain decides.
    Everything below reads J~'s vectors over its one denominator.

    (iv)  J~ = J~^T: ExactMatrix.folding raises ValueError when it does not
          hold.
    (i)   J'^2 = (J~ D J~) D, so J'^2 = I iff S0 = J~ D J~ is D^-1
          (_s0_is_d_inverse).
    (ii)  With E = D T (rep.e), S2 = J~ E J~ and S4 = S2 E S2 (S2 from the
          blocks alpha, beta and gamma, since E is not fixed by pi; S4 the
          upper triangle alpha of S2 folded over the identity, a plain
          half-product), one has (TJ')^5 = T S4 E J~ D.  If J'^2 = I and
          S4 = kappa^4 T^-1 J~ T^-1, then (TJ')^5 = kappa^4 J~ D J~ D =
          kappa^4 I.  Both sides are symmetric, so the upper triangles are
          compared as integer vectors: S4 over its denominator against each
          J~_ij over J~'s, shifted by kappa^4 / (t_i t_j) in the power
          basis, by cross-multiplication.  At the levels in use kappa^4 and
          every t are powers of zeta (so is -zeta^b: N is even); any other
          value is left to the reference chain.
    (iii) F = Theta J' Theta^-1 has F^2 = I by (i), so F conj(F) = I iff
          conj(F) = F, which holds when J~, Theta and D are fixed by
          conjugation, a field automorphism.  J~'s equal entries are one
          list (the packed kernel's outputs alias), so each distinct vector
          is conjugated once: 109 of them at r = 6, against 7,056 entries.
    """
    params = rep.params
    N = params.root_order
    jt, d = rep.jtilde, rep.jcols
    n = jt.nrows
    pi = rep.basis.swap
    if any(d[i] != d[j] for i, j in enumerate(pi)):
        return False
    try:
        f = jt.folding(pi)
    except ValueError:
        return False
    if not _s0_is_d_inverse(f, d):
        return False

    kappa4 = rep.constants.kappa_squared * rep.constants.kappa_squared
    logs = [x.zeta_log() for x in (kappa4, *rep.tdiag)]
    if None in logs:
        return False
    k4, tlog = logs[0], logs[1:]
    # S2 from the folded rows of J~, which are then released
    f = Folding(N, *f.product(rep.e), range(n))
    s4, _, _, (d4, _, _) = f.blocks(rep.e)
    s4 = iter(s4)
    g = math.gcd(d4, jt.den)
    a, b = d4 // g, jt.den // g
    shifted = {}                        # J~'s equal entries are one list
    for i, row in enumerate(jt.vecs):
        for j in range(i, n):
            key = id(row[j]), (k4 - tlog[i] - tlog[j]) % N
            want = shifted.get(key)
            if want is None:
                want = shifted[key] = _power_sum(N, [0] * f.phi, (
                    (c * a, t) for t, c in enumerate(row[j], key[1])))
            if want != [c * b for c in next(s4)]:
                return False

    if params.is_unitary_root:
        th = [theta_at(params, *b) for b in rep.basis.triples]
        if not all(x.is_real() for x in th + list(d)):
            return False
        distinct = {id(v): v for row in jt.vecs for v in row}.values()
        if not all(_power_sum(N, [0] * f.phi, ((c, -t) for t, c in enumerate(v))) == v
                   for v in distinct):
            return False
    return True


def _s0_is_d_inverse(f: Folding, d: tuple[CycNumber, ...]) -> bool:
    """S0 = J~ D J~ = D^-1, decided on the blocks of the folding f of J~.

    D is fixed by pi, so S0 has only the blocks alpha and beta (gamma = 0):
    S0[r, v] = alpha + beta and S0[r, pi v] = alpha - beta for r, v in R,
    and S0[r, v] = alpha when r or v is fixed.  So S0 = D^-1 iff the
    off-diagonal vectors of alpha and beta are zero, with alpha_rr d_r = 1/2
    (r in R) or 1 (r in F) and beta_rr d_r = 1/2: the n diagonal vectors
    times d, one packed product each, against those values.
    """
    N, m, reps = f.order, f.pairs, f.reps
    alpha, beta, _, (da, db, _) = f.blocks(d)
    for blk, den, size in ((alpha, da, len(reps)), (beta, db, m)):
        it = iter(blk)
        diag = []
        for a in range(size):
            diag.append(next(it))
            if any(map(any, islice(it, size - a - 1))):
                return False
        want = ExactMatrix(N, [[CycNumber.from_rational(N, Fraction(1, 2) if a < m else 1)
                                for a in range(size)]])
        if ExactMatrix.from_vectors(N, [diag], den).scale_cols(
                [d[r] for r in reps[:size]]) != want:
            return False
    return True


def _reference_differences(rep: Genus2Rep) -> list[tuple[int, int] | None]:
    """The first offending entry of each relation, in verify_genus2_relations
    order, from J'^2, (TJ')^5 and F bar(F) formed in full."""
    params = rep.params
    N = params.root_order
    n = len(rep.basis)
    ident = ExactMatrix.identity(N, n)
    diffs = [(rep.j_field @ rep.j_field).first_difference(ident)]

    tj = rep.j_field.scale_rows(rep.tdiag)
    tj2 = tj @ tj
    tj5 = (tj2 @ tj2) @ tj
    kappa4 = rep.constants.kappa_squared * rep.constants.kappa_squared
    diffs.append(tj5.first_difference(ExactMatrix.diagonal(N, [kappa4] * n)))

    if params.is_unitary_root:
        # unitarity in the theta-scaled basis: F = Theta J' Theta^-1 has
        # F bar(F) = I exactly iff the unitary matrix satisfies U U^dag = I
        th = [theta_at(params, *t) for t in rep.basis.triples]
        cols = [c * theta_inv_at(params, *t) for c, t in zip(rep.jcols, rep.basis.triples)]
        F = rep.jtilde.scale_cols(cols).scale_rows(th)
        diffs.append((F @ F.conj()).first_difference(ident))

    diffs.append(rep.jtilde.first_difference(rep.jtilde.transpose()))
    return diffs


# --------------------------------------------------------------------------
# traces and infinite-image certificates

def _jtjt_matrix(params: TheoryParams) -> ExactMatrix:
    rep = genus2_rep(params)
    tinv = [t.conj() for t in rep.tdiag]  # each t is +-zeta^b
    return rep.j_field.scale_cols(rep.tdiag) @ rep.j_field.scale_cols(tinv)


# rows of J~ per block of the trace, which bounds the scaled copy of J~^T:
# `trace-table --levels 13` (n = 140) peaks at 26.4 MB, 30.7 MB in one block
TRACE_BLOCK = 16


@lru_cache(maxsize=None)
def trace_jtjt(params: TheoryParams) -> CycNumber:
    """tr(J T J T^-1) exactly, without J' or any n x n product.

    With J' = J~ D, e = D T and e' = D T^-1 (rep.e and rep.e_inv), tr =
    sum_s e_s sum_m e'_m J~_sm J~_ms (the basis rescaling cancels in the
    trace).  The n inner sums are packed dots of row s of J~ with row s of
    J~^T diag(e'), both read from J~'s vectors as held (J~^T is their raw
    transpose; J~'s symmetry is not assumed), in blocks of TRACE_BLOCK rows,
    and each block's outer sum is one more.  Tests diff it against
    _jtjt_matrix.
    """
    rep = genus2_rep(params)
    jt, N = rep.jtilde, params.root_order
    phi, n = euler_phi(N), jt.nrows
    diags = ExactMatrix(N, [rep.e_inv, rep.e])
    (e_inv, e), dden = diags.vecs, diags.den
    cols, total = list(zip(*jt.vecs)), CycNumber.zero(N)
    for a in range(0, n, TRACE_BLOCK):
        block, den = _scale_columns(N, phi, cols[a:a + TRACE_BLOCK], jt.den, e_inv, dden)
        inner = list(_dots(N, phi, jt.vecs[a:a + TRACE_BLOCK], block, n,
                           [(s, s) for s in range(len(block))]))
        (vec,) = _dots(N, phi, [e[a:a + TRACE_BLOCK]], [inner], len(inner), [(0, 0)])
        total = total + CycNumber._raw(N, vec, dden * jt.den * den)
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
        """Exact: the trace is real and larger than dim V."""
        return self.value.is_real() and (self.value - self.dimension).real_sign() > 0


def trace_entry(params: TheoryParams) -> TraceEntry:
    """tr(J T J T^-1) at one root, exactly and as a 40-digit embedding,
    beside dim V."""
    v = trace_jtjt(params)
    return TraceEntry(params.level, params.root_exponent, v,
                      complex(*_mp_embed(v, 40)), verlinde_dim(params.level, 2))


def trace_table(levels=(3, 5, 7, 9, 11, 13)) -> list[TraceEntry]:
    return [trace_entry(trace_params(r)) for r in levels]


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
# there too: at n = 455 (r = 12; 2-core x86-64 VM, Python 3.11) it takes
# 2.4 s on the packed F_p kernel (four products 1.7 s, the elimination
# 0.3 s; one list-based product took 5.3 s).  Lifting the budget changes
# the printed details at r = 6, 8 and 10..13, so it needs a change of its
# own.
MINPOLY_DIM_BUDGET = 60

# split primes tried before the route falls back to the exact characteristic
# polynomial: every one gives det Q(M) = 0 mod p when det Q(M) = 0 exactly
# (r = 3); at r = 2, 4, 5, 7 and 9 the first one already gives a nonzero residue
RESIDUE_PRIMES = 3


def _quartic_residue_nonzero(params: TheoryParams, quartic: IntPolynomial) -> bool:
    """True when det Q(M) is nonzero modulo one of the first RESIDUE_PRIMES
    split primes prime to the denominators of J~, E and E', M = J T J T^-1.

    Reduction modulo a split prime is a ring homomorphism, so a nonzero
    residue proves det Q(M) != 0 exactly: Q has no root in common with the
    characteristic polynomial of M = (J~ E)(J~ E').  J~, E = D T and
    E' = D T^-1 are reduced separately, and M is formed in F_p only.
    """
    rep = genus2_rep(params)
    jt = rep.jtilde
    den = math.lcm(jt.den, *(x.den for x in rep.e + rep.e_inv))
    for sp in islice(split_primes(params.root_order, den), RESIDUE_PRIMES):
        p = sp.p
        J = residue_matrix(jt, sp)
        e = [sp.residue(x) for x in rep.e]
        e_inv = [sp.residue(x) for x in rep.e_inv]
        JT = [[x * y % p for x, y in zip(row, e)] for row in J]
        JTinv = [[x * y % p for x, y in zip(row, e_inv)] for row in J]
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

    Decided exactly (TraceEntry.exceeds_dimension): the trace equals its
    conjugate in Q(zeta_N) and real_sign(tr - dim) > 0.  The 40-digit
    embedding only prints the value.
    """
    e = trace_entry(params)
    return e.exceeds_dimension, (f"tr = {e.approx.real:.4f}{e.approx.imag:+.1e}i "
                                 f"vs dim = {e.dimension} at root "
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
