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
    cyclotomic_factor,
    euler_phi,
    shift_vector,
    split_primes,
    square_subfield_order,
)
from .matrix import (
    CycPoly,
    ExactMatrix,
    Folding,
    SignedSqrtMatrix,
    _dots,
    _galois_table,
    _over_lcm,
    _products,
    _tabulate,
    _upper,
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
    _sixj_weight_at,
    _sixj_weight_key,
    _tet_key,
    _tet_orbit_at,
    sixj,
    tet_at,  # not called here; bench/selftest.py reads rep_genus2.tet_at
    theta_at,
    theta_inv_at,
    theta_net,
    twist,
    twist_log,
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
def _channel_at(params: TheoryParams, i: int, j: int, k: int) -> CycNumber:
    """Delta_k theta_k^-1 Theta(i,j,k)^-1: the factor of channel k of
    a^{i,j}_l that does not depend on l (theta_k^-1 is a shift)."""
    return (delta_at(params, k) * theta_inv_at(params, i, j, k)).times_zeta(
        -twist_log(params, k))


@lru_cache(maxsize=None)
def coupling_a_at(params: TheoryParams, i: int, j: int, l: int) -> CycNumber:
    """a^{i,j}_l at the root, as coupling_a with the factors hoisted: the 6j
    symbol {i j l; j i k} is Tet(i,j,k,j,i,l) times the weight
    Delta_l / (Theta(i,i,l) Theta(j,j,l)), which no channel k changes, and
    theta_i theta_j is one shift of the sum.  a^{i,j}_l = a^{j,i}_l, since
    the 6j symbol is unchanged when its first two columns swap and Theta and
    theta_i theta_j are symmetric, so each unordered pair is computed once."""
    if i > j:
        return coupling_a_at(params, j, i, l)
    r = params.level
    N = params.root_order
    total = CycNumber.zero(N)
    if not _coupling_support(r, i, j, l):
        return total
    for k in color_set(r):
        if admissible(r, i, j, k):
            total = total + _channel_at(params, i, j, k) * _tet_orbit_at(
                params, *_tet_key(i, j, k, j, i, l))
    weight = _sixj_weight_at(params, *_sixj_weight_key(l, i, j, j, i))
    return (total * weight).times_zeta(twist_log(params, i) + twist_log(params, j))


# --------------------------------------------------------------------------
# the representation matrices

@dataclass(frozen=True)
class Genus2Rep:
    """All genus-2 data at one root: J~ and the column factors D that make
    it the representation matrix J' = J~ D in the unnormalized basis
    (j_field), the twists T, the unitary normalization as (square, sign)
    pairs when the form is positive definite.  J~ is an ExactMatrix (a
    table of distinct values, an index, a denominator); D (jcols) and T
    (tdiag) are diagonals, tuples of CycNumbers, and so are E = D T and
    E' = D T^-1 (e, e_inv).  The relation checks, the trace and the
    quartic residue read J~, E and E' as they are held."""

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
        return tuple(_times_power(d, t, 1) for d, t in zip(self.jcols, self.tdiag))

    @cached_property
    def e_inv(self) -> tuple[CycNumber, ...]:
        """E' = D T^-1."""
        return tuple(_times_power(d, t, -1) for d, t in zip(self.jcols, self.tdiag))

    @cached_property
    def j_field(self) -> ExactMatrix:
        """J' = J~ D, built on first access.  The relation checks, the trace
        and the quartic residue read J~ and D (jcols) and never build it."""
        return self.jtilde.scale_cols(self.jcols)

    @cached_property
    def junitary(self) -> SignedSqrtMatrix | None:
        """The unitary matrix, or None when the form is not positive definite.

        Signs come from J' (the basis rescaling is positive), one per J'
        table entry, and squares from J'_{sm} J'_{ms}
        (ExactMatrix.hadamard_transpose, one product per distinct pair of
        table entries: 522 products and 139 signs at r = 6, against 7,056
        entries); built on first access, since relation checks and traces
        never read it.
        """
        if not self.positive:
            return None
        jf = self.j_field
        signs = [CycNumber(jf.order, v, jf.den).real_sign() for v in jf.table]
        return SignedSqrtMatrix(jf.hadamard_transpose(),
                                [[signs[k] for k in row] for row in jf.index])


@lru_cache(maxsize=None)
def jtilde(params: TheoryParams) -> ExactMatrix:
    """The pairing matrix: J~_{sigma,mu} = sum over internal colors l of
    Delta_l^-1 a^{j1,i2}_l abar^{k2,i1}_l Tet(l,i2,i2;j2,k2,k2) Tet(l,j1,j1;k1,i1,i1).
    Inadmissible terms vanish silently.

    Three packed passes over tables read from the recoupling memos: two of
    products, one per distinct pair of values (matrix._products), and one of
    dots (matrix._dots); only J~ is brought to the unique form."""
    r = params.level
    N = params.root_order
    phi = euler_phi(N)
    ts = enumerate_basis(r).triples
    cs = color_set(r)
    n, pos = len(ts), {x: c for c, x in enumerate(cs)}

    # 1. the coupling column a^{x,y}_l, and abar^{x,y}_l Delta_l^-1 from each
    # distinct a conjugated once: one product per distinct pair of values,
    # Delta_l^-1 read only for the channels l that some key carries
    keys = [(x, y, l) for x in cs for y in cs for l in cs if _coupling_support(r, x, y, l)]
    a_cells, (a_index,) = _tabulate([[coupling_a_at(params, *key) for key in keys]])
    d_cells, (d_index,) = _tabulate([[delta_inv_at(params, l) for _, _, l in keys]])
    a_table, a_den = _over_lcm(a_cells)
    d_table, d_den = _over_lcm(d_cells)
    abar_table, (abar_index,) = _products(N, _galois_table(N, a_table, N - 1), d_table,
                                          [zip(a_index, d_index)])
    row, index = {key: q for q, key in enumerate(keys)}, (a_index, abar_index)

    # 2. the half-terms left[j1, l, mu] = a^{j1,i2}_l Tet(l,i2,i2;j2,k2,k2) and
    # right[k2, l, sigma] = abar^{k2,i1}_l Delta_l^-1 Tet(l,j1,j1;k1,i1,i1),
    # one product per distinct pair of values, as rows (x, t) over the columns
    # l whose empty cells share one zero entry.  The vertices of each Tet are
    # checked here or are a basis triple, so its orbit memo is read directly.
    tet_row, pairs, cells = {}, ([], []), ([], [])
    for l in cs:
        for b, (i, j, k) in enumerate(ts):
            for side, (e0, e1, e2) in enumerate(((i, j, k), (j, k, i))):
                if admissible(r, l, e0, e0) and admissible(r, l, e2, e2):
                    tk = tet_row.setdefault(_tet_key(l, e0, e0, e1, e2, e2), len(tet_row))
                    for x in cs:
                        if (x, i, l) in row:
                            pairs[side].append((index[side][row[x, i, l]], tk))
                            cells[side].append((pos[x] * n + b, pos[l]))
    t_cells, (t_index,) = _tabulate([[_tet_orbit_at(params, *key) for key in tet_row]])
    t_table, t_den = _over_lcm(t_cells)

    def half(side, table, den):
        out, (values,) = _products(N, table, t_table, [[(a, t_index[t]) for a, t in pairs[side]]])
        rows = [[len(out)] * len(cs) for _ in range(len(cs) * n)]
        out.append((0,) * phi)
        for (u, c), v in zip(cells[side], values):
            rows[u][c] = v
        return (out, rows), den * t_den

    # 3. J~_{sigma,mu}: the dot over l of the row (k2, sigma) of right with
    # the row (j1, mu) of left, n dots to a row of J~
    left, left_den = half(0, a_table, a_den)
    right, right_den = half(1, abar_table, a_den * d_den)
    del pairs, cells                    # freed before the n^2 dots of pass 3
    table, flat = _dots(N, phi, right, left, len(cs), (
        (pos[mu[2]] * n + b, pos[sigma[1]] * n + c)
        for b, sigma in enumerate(ts) for c, mu in enumerate(ts)), n * n)
    return ExactMatrix._of(N, table, (flat[b * n:(b + 1) * n] for b in range(n)),
                           right_den * left_den)


def _times_power(d: CycNumber, t: CycNumber, sign: int) -> CycNumber:
    """d t^sign for a twist product t, which is a power of zeta (as built),
    so a shift; any other t is multiplied."""
    b = t.zeta_log()
    if b is None:
        return d * (t if sign > 0 else t.inverse())
    return d.times_zeta(sign * b)


def t_genus2(params: TheoryParams) -> tuple[CycNumber, ...]:
    """The diagonal of T: it acts on u_(i,j,k) by theta_i * theta_j, the
    power zeta^(t_i + t_j)."""
    return tuple(params.zeta(twist_log(params, i) + twist_log(params, j))
                 for (i, j, k) in enumerate_basis(params.level).triples)


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
    d2_inv = gc.d_squared_inv

    # column factors of the representation matrix in the unnormalized basis:
    # J'_{sigma,mu} = Delta_{i2} Delta_{j2} Delta_{k2} / (D^2 Theta_mu^2) J~_{sigma,mu}
    # (symmetric in i, j, k: one value per multiset)
    col = {}
    for key in map(tuple, map(sorted, basis.triples)):
        if key not in col:
            th_inv = theta_inv_at(params, *key)
            i, j, k = (delta_at(params, c) for c in key)
            col[key] = i * j * k * th_inv * th_inv * d2_inv
    jcols = tuple(col[tuple(sorted(t))] for t in basis.triples)

    return Genus2Rep(params, basis, jt, jcols, t_genus2(params), gc,
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
    decided from symmetric half-products A diag(e) A over K = Q(A^2), the
    subfield that holds J~ and D (_relations_hold): at even r its vectors
    have phi/2 coefficients.  S0 = J~ D J~ is folded over the swap
    (i, j, k) -> (i, k, j), which fixes J~ and D; S2 = J~ E J~ and
    S4 = S2 E S2 are two half-products each, one per twist parity (at
    r = 6: 84k, 300k and 300k multiplications, all on 8 coefficients,
    against 300k on 16 for each unfolded product).  Only when that path
    cannot show that every relation holds (a J~ or D that the swap moves,
    or one outside K, included) are J'^2, (TJ')^5 and F bar(F) formed in
    full (_reference_differences), and the report names the first
    offending entry of each, as the products give it.
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

    Every recoupling value lies in K = Q(A^2) = Q(zeta_M)
    (square_subfield_order): M = N/2 when 4 | N (even r), whose power basis
    is the even slots of Q(zeta_N)'s, as Phi_N(x) = Phi_M(x^2); M = N at
    odd r, where K is the whole field.  With s = N/M, Q(zeta_N) is the sum
    of the zeta^c K, c < s (CycNumber.components).  J~ and D are moved into
    K (descend) and every product below runs on vectors of phi(M) = phi/s
    coefficients.  When J~ or D is not in K or not fixed by the swap pi:
    (i, j, k) -> (i, k, j) (Genus2Basis.swap), a twist or kappa^4 is not a
    power of zeta, or S2 is not graded as below, the reference chain
    decides.

    (iv)  J~ = J~^T: ExactMatrix.folding, which folds J~ over pi for S0,
          raises ValueError when it does not hold, or when pi moves J~.
    (i)   J'^2 = (J~ D J~) D, so J'^2 = I iff S0 = J~ D J~ is D^-1
          (_s0_is_d_inverse, on the two blocks of the folding; ValueError
          when pi moves D).  The folding is dropped once S0 is decided.
    (ii)  With E = D T (rep.e) = sum_c zeta^c E_c, S2 = J~ E J~ is the sum
          of zeta^c J~ E_c J~, one half-product per c (its upper triangle,
          over the columns where E_c is nonzero), as S4's are below.  S2
          is graded by the middle label: S2_ab lies in zeta^(g_a + g_b) K,
          g = j mod s, which _regrade checks on those s upper triangles as
          it forms X = G^-1 S2 G^-1 over K, G = diag(zeta^g).  At odd r
          (s = 1) X is S2.  Then S4 = S2 E S2 = G (sum_c
          zeta^c X W_c X) G with W = G E G = sum_c zeta^c W_c, and X W_c X
          is a half-product over the columns where W_c is nonzero, the
          basis vectors of one twist parity.  (TJ')^5 = T S4 E J~ D, so if
          J'^2 = I and S4 = kappa^4 T^-1 J~ T^-1, then (TJ')^5 = kappa^4
          J~ D J~ D = kappa^4 I.  With kappa^4 = zeta^k and t_a =
          zeta^tau_a, that is sum_c zeta^c (X W_c X)_ab = zeta^u J~_ab for
          u = k - tau_a - tau_b - g_a - g_b: the upper triangle of X W_c X
          is J~ shifted by floor(u/s) in K where c = u mod s and 0 elsewhere,
          one ExactMatrix equality per c.  Each (J~ table index, shift)
          pair is shifted once.
    (iii) F = Theta J' Theta^-1 has F^2 = I by (i), so F conj(F) = I iff
          conj(F) = F, which holds when J~, Theta and D are fixed by
          conjugation, a field automorphism.  ExactMatrix.conj conjugates
          each table entry once: 109 of them at r = 6, against 7,056
          entries.
    """
    params = rep.params
    N = params.root_order
    M = square_subfield_order(N)
    s = N // M
    n = len(rep.basis)
    kappa4 = rep.constants.kappa_squared * rep.constants.kappa_squared
    logs = [x.zeta_log() for x in (kappa4, *rep.tdiag)]
    if None in logs:
        return False
    k4, tlog = logs[0], logs[1:]
    try:
        jt = rep.jtilde.descend(M)
        d = [x.descend(M) for x in rep.jcols]
        if not _s0_is_d_inverse(jt.folding(rep.basis.swap), d):
            return False
    except ValueError:
        return False

    grade = [j % s for _, j, _ in rep.basis.triples]
    upper = _upper(n)
    e_parts = zip(*(y.components(M) for y in rep.e))
    x = _regrade([jt.dots(jt, upper, ec) for ec in e_parts], upper, grade)
    if x is None:
        return False
    w_parts = zip(*(y.times_zeta(2 * g).components(M) for y, g in zip(rep.e, grade)))
    halves = [x.dots(x, upper, wc) for wc in w_parts]

    zero, shifted = (0,) * euler_phi(M), {}
    want = [[] for _ in range(s)]
    for a, b in upper:
        u = (k4 - tlog[a] - tlog[b] - grade[a] - grade[b]) % N
        key = jt.index[a][b], u // s
        v = shifted.get(key)
        if v is None:
            v = shifted[key] = shift_vector(M, jt.table[key[0]], key[1])
        for c in range(s):
            want[c].append(v if c == u % s else zero)
    if any(h != ExactMatrix.from_vectors(M, [t], jt.den) for h, t in zip(halves, want)):
        return False

    if params.is_unitary_root:
        th = [theta_at(params, *b) for b in rep.basis.triples]
        if not all(y.is_real() for y in th + d) or jt.conj() != jt:
            return False
    return True


def _regrade(parts: list[ExactMatrix], upper: list[tuple[int, int]],
             grade: list[int]) -> ExactMatrix | None:
    """X = G^-1 S G^-1 over K for the symmetric S = sum_c zeta^c S_c, given
    as the upper triangles of its s parts S_c over K = Q(zeta_M) (parts[c],
    one row, entry t at the position upper[t]), and G = diag(zeta^g), when
    S_ab lies in zeta^(g_a + g_b) K for every a, b; else None.  That holds
    iff S_c,ab = 0 for every c other than (g_a + g_b) mod s, and then X_ab
    is S_c,ab times zeta^(c - g_a - g_b), a power of zeta^s = zeta_M: one
    shift per distinct (c, table entry, shift).  With s = 1 (K the whole
    field, g = 0) X is S."""
    s, M, n = len(parts), parts[0].order, len(grade)
    den = math.lcm(*(p.den for p in parts))
    index = [p.index[0] for p in parts]
    nonzero = [{k for k, v in enumerate(p.table) if any(v)} for p in parts]
    shifted, rows = {}, [[None] * n for _ in range(n)]
    for t, (a, b) in enumerate(upper):
        ga, gb = grade[a], grade[b]
        c = (ga + gb) % s
        if any(ix[t] in nz for k, (ix, nz) in enumerate(zip(index, nonzero)) if k != c):
            return None
        key = c, index[c][t], (c - ga - gb) // s
        v = shifted.get(key)
        if v is None:
            f = den // parts[c].den
            v = shifted[key] = shift_vector(M, [y * f for y in parts[c].table[key[1]]], key[2])
        rows[a][b] = rows[b][a] = v
    return ExactMatrix.from_vectors(M, rows, den)


def _s0_is_d_inverse(f: Folding, d: list[CycNumber]) -> bool:
    """S0 = J~ D J~ = D^-1, decided on the blocks of the folding f of J~;
    ValueError (Folding.blocks) when pi moves D.

    S0[r, v] = alpha + beta and S0[r, pi v] = alpha - beta for r, v in R,
    and S0[r, v] = alpha when r or v is fixed.  So S0 = D^-1 iff the
    off-diagonal entries of alpha and beta are zero, with alpha_rr d_r = 1/2
    (r in R) or 1 (r in F) and beta_rr d_r = 1/2: the n diagonal entries
    times d against those values.
    """
    m, reps = f.pairs, f.reps
    half = Fraction(1, 2)
    for blk, size in zip(f.blocks(d), (len(reps), m)):
        at = 0                          # the position of (a, a) in the upper triangle
        for a in range(size):
            if (blk[0, at] * d[reps[a]] != (half if a < m else 1)
                    or any(any(blk.table[k]) for k in blk.index[0][at + 1:at + size - a])):
                return False
            at += size - a
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


@lru_cache(maxsize=None)
def trace_jtjt(params: TheoryParams) -> CycNumber:
    """tr(J T J T^-1) exactly, without J' or any n x n product (_trace)."""
    return _trace(genus2_rep(params))


def _trace(rep: Genus2Rep) -> CycNumber:
    """tr(J T J T^-1) of rep as one bilinear form.

    With J' = J~ D, e = D T and e' = D T^-1 (rep.e and rep.e_inv), tr =
    sum_sm e'_s P_sm e_m for P_sm = J~_sm J~_ms (the basis rescaling cancels
    in the trace).  P is one product per distinct pair (J~_sm, J~_ms) of
    table entries (ExactMatrix.hadamard_transpose: 80 at r = 7, 109 at
    r = 6, as J~ is symmetric, which is not assumed), u = P e is n packed
    dots and tr = e' . u one more.  Tests diff it against _jtjt_matrix.
    """
    jt, N = rep.jtilde, rep.params.root_order
    P = jt.hadamard_transpose()
    u = ExactMatrix(N, [rep.e]).dots(P, [(0, s) for s in range(P.nrows)])
    return ExactMatrix(N, [rep.e_inv]).dots(u, [(0, 0)])[0, 0]


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
    """tr(J T J T^-1) at one root, exactly and as the nearest doubles
    (CycNumber.embed), beside dim V, the size of the basis."""
    v = trace_jtjt(params)
    return TraceEntry(params.level, params.root_exponent, v, v.embed(),
                      len(enumerate_basis(params.level)))


def trace_table(levels=(3, 5, 7, 9, 11, 13)) -> list[TraceEntry]:
    return [trace_entry(trace_params(r)) for r in levels]


def trace_galois_sweep(r: int) -> list[tuple[int, complex]]:
    """The trace at every Galois-conjugate root A = zeta^k, for the documented
    sweep, as the nearest doubles.  Every entry of J' and T lies in Q(A), so
    the trace at zeta^k is sigma_k of the trace at zeta: one representation
    is built, not phi(N)."""
    p0 = trace_params(r)
    v = trace_jtjt(p0)
    N = p0.root_order
    return [(k, v.galois(k).embed()) for k in range(1, N) if math.gcd(k, N) == 1]


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
    conjugate in Q(zeta_N) and real_sign(tr - dim) > 0.  The nearest
    doubles only print the value.
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
