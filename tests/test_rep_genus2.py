"""Tests for the genus-2 representation: basis, couplings, the golden
matrices, relations, traces, and the infinite-image certificates."""
import copy
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from tljhecke.exactnum import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    shift_vector,
    split_primes,
    square_subfield_order,
)
from tljhecke.matrix import CycPoly, ExactMatrix, _upper, char_poly, residue_matrix
from tljhecke.recoupling import (
    NotAdmissible,
    TheoryParams,
    color_set,
    delta_at,
    delta_inv_at,
    tet_at,
    theta_at,
    verlinde_dim,
)
import tljhecke.matrix as matrix
import tljhecke.rep_genus2 as rep_genus2
from tljhecke.rep_genus2 import (
    INFINITE_ORDER_QUARTIC,
    coupling_a,
    coupling_a_at,
    coupling_a_bar,
    enumerate_basis,
    genus2_rep,
    infinite_image_certificate,
    jtilde,
    minpoly_certificate,
    t_genus2,
    trace_galois_sweep,
    trace_jtjt,
    trace_params,
    trace_table,
    TraceEntry,
    verify_genus2_relations,
    _jtjt_matrix,
    _quartic_residue_nonzero,
)


def sqrt5_in(N: int, e: int) -> CycNumber:
    z = CycNumber.zeta(N, e)
    return 1 + 2 * (z + z.conj())


# --------------------------------------------------------------------------
# basis enumeration

def test_basis_r3():
    b = enumerate_basis(3)
    assert b.triples == ((0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0), (2, 2, 2))


def test_basis_r2_order():
    b = enumerate_basis(2)
    assert len(b) == 10
    assert b.triples[:3] == ((0, 0, 0), (0, 1, 1), (0, 2, 2))


def test_basis_r1():
    assert enumerate_basis(1).triples == ((0, 0, 0),)


def test_basis_sizes_match_verlinde():
    for r in range(1, 13):
        assert len(enumerate_basis(r)) == verlinde_dim(r, 2), r


def test_basis_strictly_increasing():
    for r in (2, 3, 4, 5, 6):
        t = enumerate_basis(r).triples
        assert list(t) == sorted(t)


# --------------------------------------------------------------------------
# coupling coefficients

def test_coupling_identity():
    P = TheoryParams(2)
    assert coupling_a(P, 0, 0, 0) == LaurentFraction.one()
    assert coupling_a_at(P, 0, 0, 0) == CycNumber.one(P.root_order)


def test_coupling_zero_strand_pattern():
    # i = 0: only l = 0 survives
    for r in (2, 3, 4):
        P = TheoryParams(r)
        for j in color_set(r):
            for l in color_set(r):
                v = coupling_a_at(P, 0, j, l)
                if l != 0:
                    assert v.is_zero(), (r, j, l)
                else:
                    assert not v.is_zero(), (r, j)


def test_coupling_bar_is_involution():
    for r in (2, 3, 4):
        P = TheoryParams(r)
        cs = color_set(r)
        for i in cs:
            for j in cs:
                for l in cs:
                    a = coupling_a(P, i, j, l)
                    assert coupling_a_bar(P, i, j, l).bar() == a


def test_coupling_bar_is_conjugate_at_unitary_root():
    # jtilde takes abar at the root as the complex conjugate of a
    from tljhecke.exactnum import specialize
    P = TheoryParams(3)
    for (i, j, l) in ((2, 2, 0), (2, 2, 2), (0, 2, 0)):
        abar = specialize(coupling_a_bar(P, i, j, l), P.root_order, P.root_exponent)
        assert abar == coupling_a_at(P, i, j, l).conj()


def test_coupling_generic_specializes_to_fast_path():
    from tljhecke.exactnum import specialize
    P = TheoryParams(3)
    for (i, j, l) in ((2, 2, 0), (2, 2, 2)):
        gen = specialize(coupling_a(P, i, j, l), P.root_order, P.root_exponent)
        assert gen == coupling_a_at(P, i, j, l)


# --------------------------------------------------------------------------
# J~ structure

def test_jtilde_first_row_is_theta():
    for r in (2, 3, 4):
        P = TheoryParams(r)
        jt = jtilde(P)
        basis = enumerate_basis(r)
        for m, tri in enumerate(basis.triples):
            assert jt[0, m] == theta_at(P, *tri), (r, tri)


def test_jtilde_symmetric():
    for r in (2, 3, 4, 5, 6):
        jt = jtilde(TheoryParams(r))
        assert jt == jt.transpose(), r


def test_basis_swap_is_the_strand_involution():
    for r in (1, 2, 3, 4):
        ts = enumerate_basis(r).triples
        pi = enumerate_basis(r).swap
        assert [ts[p] for p in pi] == [(i, k, j) for i, j, k in ts]
        assert all(pi[p] == a for a, p in enumerate(pi))
    assert enumerate_basis(3).swap == (0, 1, 3, 2, 4)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_jtilde_and_d_are_fixed_by_the_swap_every_root(r):
    # the relation check dots J^ D^ J^ on the orbits of the swap
    # (i, j, k) -> (i, k, j) among its symmetries; a J~ or D that the swap
    # moves is still decided, on the other symmetries alone, and more
    # slowly, so the fact the swap's use rests on is pinned here
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        rep = genus2_rep(P.with_root(k))
        pi, jt, d = rep.basis.swap, rep.jtilde, rep.jcols
        n = len(pi)
        assert all(jt[pi[i], pi[j]] == jt[i, j] for i in range(n) for j in range(n)), (r, k)
        assert all(d[pi[i]] == d[i] for i in range(n)), (r, k)
        if r > 1:
            assert any(rep.tdiag[pi[i]] != rep.tdiag[i] for i in range(n)), (r, k)


def _jtilde_reference(P):
    """The docstring sum of jtilde, entry by entry: J~_{sigma,mu} = sum over l
    of Delta_l^-1 a^{j1,i2}_l abar^{k2,i1}_l Tet(l,i2,i2;j2,k2,k2)
    Tet(l,j1,j1;k1,i1,i1), an inadmissible Tet counting as 0."""
    N = P.root_order

    def tet(*labels):
        try:
            return tet_at(P, *labels)
        except NotAdmissible:
            return CycNumber.zero(N)
    triples = enumerate_basis(P.level).triples
    rows = []
    for i1, j1, k1 in triples:
        row = []
        for i2, j2, k2 in triples:
            acc = CycNumber.zero(N)
            for l in color_set(P.level):
                a = coupling_a_at(P, j1, i2, l)
                abar = coupling_a_at(P, k2, i1, l).conj()
                if a and abar:
                    acc = acc + (delta_inv_at(P, l) * a * abar
                                 * tet(l, i2, i2, j2, k2, k2) * tet(l, j1, j1, k1, i1, i1))
            row.append(acc)
        rows.append(row)
    return rows


def _entries(M):
    """The entries of an ExactMatrix, read one by one."""
    return [[M[i, j] for j in range(M.ncols)] for i in range(M.nrows)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_jtilde_matches_docstring_sum_every_root(r):
    # the packed dots of jtilde against the sum written out per entry
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        Pk = P.with_root(k)
        assert _entries(jtilde(Pk)) == _jtilde_reference(Pk), (r, k)


def _sum(terms, N):
    return sum(terms, CycNumber.zero(N))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_genus2_vectors_match_cycnumber_references(r):
    # J~ is held as coefficient vectors over one denominator; every result
    # read from them, entry by entry, against CycNumber arithmetic on J~'s
    # entries (the test above diffs those with the docstring sum).  The n^3
    # references run on every eighth row (all rows for n <= 14)
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        Pk = P.with_root(k)
        rep = genus2_rep(Pk)
        N, n = Pk.root_order, len(rep.basis)
        jt, d, t = rep.jtilde, rep.jcols, rep.tdiag
        J = _entries(jt)
        some = range(0, n, 1 if n <= 14 else 8)
        assert _entries(jt.transpose()) == [list(col) for col in zip(*J)], (r, k)
        assert _entries(rep.j_field) == [[x * d[j] for j, x in enumerate(row)]
                                         for row in J], (r, k)
        assert _entries(jt.scale_rows(t)) == [[t[i] * x for x in row]
                                              for i, row in enumerate(J)], (r, k)
        JD = jt @ rep.j_field
        pairs = [(i, j) for i in some for j in range(n)]
        S0 = dict(zip(pairs, jt.dots(jt.scale_cols(d), pairs).rows[0]))
        for i in some:
            Jd = [x * y for x, y in zip(J[i], d)]
            for j in range(n):
                assert JD[i, j] == _sum((J[i][m] * J[m][j] for m in range(n)), N) * d[j]
                assert S0[i, j] == _sum((Jd[m] * J[m][j] for m in range(n)), N), (r, k, i, j)
        e, e_inv = rep.e, rep.e_inv
        assert trace_jtjt(Pk) == _sum((e[s] * _sum((e_inv[m] * J[s][m] * J[m][s]
                                                    for m in range(n)), N)
                                       for s in range(n)), N), (r, k)
        for sp in islice(split_primes(N), 2):
            assert residue_matrix(jt, sp) == [[sp.residue(x) for x in row] for row in J]


def test_verify_makes_no_cycnumber_per_jtilde_entry(monkeypatch):
    # J~ stays coefficient vectors from its packed dots through the relation
    # check: a cold check (recoupling caches warm) builds fewer CycNumbers
    # than J~ has entries (2,711 at r = 4 when each entry was one, against
    # n^2 = 1,225)
    P = TheoryParams(4)
    assert verify_genus2_relations(P).all_pass
    jtilde.cache_clear()
    genus2_rep.cache_clear()
    calls = [0]
    raw = CycNumber._raw.__func__

    def counting(cls, *args):
        calls[0] += 1
        return raw(cls, *args)
    monkeypatch.setattr(CycNumber, "_raw", classmethod(counting))
    assert verify_genus2_relations(P).all_pass
    n = len(enumerate_basis(4))
    assert calls[0] < n * n, calls


def _counting(monkeypatch, name):
    """Count the calls of a packed-kernel function of tljhecke.matrix."""
    calls, f = [0], getattr(matrix, name)

    def counted(*args):
        calls[0] += 1
        return f(*args)
    monkeypatch.setattr(matrix, name, counted)
    return calls


def _counting_digits(monkeypatch):
    """Count the digits that matrix._pack_digits packs: a pack of a vector
    over Q(zeta_M) weighs phi(M)."""
    digits, f = [0], matrix._pack_digits

    def counted(vec, width):
        digits[0] += len(vec)
        return f(vec, width)
    monkeypatch.setattr(matrix, "_pack_digits", counted)
    return digits


def test_kernel_unpacks_each_distinct_residue_once(monkeypatch):
    # The packed kernel unpacks each distinct residue of a call once and
    # packs each table entry once.  Before it did, a cold jtilde at r = 6
    # (recoupling caches warm) unpacked 9,082 vectors, one per output and
    # more than its n^2 = 7,056 entries, and a cold r = 4 relation check,
    # jtilde included, packed 9,851; with one pack per vector object it
    # packed 4,826, and with one per value 1,486, all of phi = 8 digits
    # (11,888 digits).  J~ at r = 6 has 109 distinct values, so its final
    # dots unpack at most 109 of them, and S2 = J~ E J~ has 692, each one
    # table entry.  The relation check packs over K = Q(A^2), phi/2 = 4
    # digits a vector at r = 4: 7,900 digits in 1,837 packs.
    for r in (4, 6):
        assert verify_genus2_relations(TheoryParams(r)).all_pass
    rep = genus2_rep(TheoryParams(6))
    assert len((rep.jtilde.scale_cols(rep.e) @ rep.jtilde).table) == 692
    jtilde.cache_clear()
    genus2_rep.cache_clear()
    unpacked = _counting(monkeypatch, "_unpack_digits")
    jt = jtilde(TheoryParams(6))
    distinct = {tuple(v) for row in jt.vecs for v in row}
    assert len(distinct) == 109
    # equal entries are one table entry
    assert len(jt.table) == 109
    assert unpacked[0] < 700, unpacked
    packed = _counting_digits(monkeypatch)
    assert verify_genus2_relations(TheoryParams(4)).all_pass
    assert packed[0] < 8500, packed


@pytest.mark.parametrize("r", [4, 5, 6])
def test_shared_vectors_stay_unchanged(r):
    # J~'s equal entries are one table entry, so no step that reads them may
    # write into them (the table's vectors are tuples)
    P = TheoryParams(r)
    for k in (P.root_exponent, _unit_roots(P.root_order)[1]):
        rep = genus2_rep(P.with_root(k))
        # a CycNumber refuses deepcopy; its (vec, den) are a tuple and an int
        vecs, e = copy.deepcopy(rep.jtilde.vecs), [(x.vec, x.den) for x in rep.e]
        assert rep_genus2._relations_hold(rep), (r, k)
        trace_jtjt.__wrapped__(rep.params)
        _quartic_residue_nonzero(rep.params, INFINITE_ORDER_QUARTIC)
        assert rep.jtilde.vecs == vecs and [(x.vec, x.den) for x in rep.e] == e, (r, k)


def test_jtilde_real_at_unitary_root():
    for r in (2, 3, 4, 5):
        jt = jtilde(TheoryParams(r))
        assert jt == jt.conj(), r


# --------------------------------------------------------------------------
# golden matrices

def golden_j2(N=16):
    z = CycNumber.zeta(N)
    s = (z ** 2 + z ** -2) / 4      # sqrt(2)/4
    q = CycNumber.from_rational(N, Fraction(1, 4))
    h = CycNumber.from_rational(N, Fraction(1, 2))
    o = CycNumber.zero(N)
    return [
        [q, s, q, s, s, s, s, q, s, q],
        [s, h, s, o, o, o, o, -s, -h, -s],
        [q, s, q, -s, -s, -s, -s, q, s, q],
        [s, o, -s, o, h, -h, o, -s, o, s],
        [s, o, -s, h, o, o, -h, s, o, -s],
        [s, o, -s, -h, o, o, h, s, o, -s],
        [s, o, -s, o, -h, h, o, -s, o, s],
        [q, -s, q, -s, s, s, -s, q, -s, q],
        [s, -h, s, o, o, o, o, -s, h, -s],
        [q, -s, q, s, -s, -s, s, q, -s, q],
    ]


def test_golden_j2_exact():
    rep = genus2_rep(TheoryParams(2))
    assert rep.positive
    U = rep.junitary
    golden = golden_j2()
    for i in range(10):
        for j in range(10):
            g = golden[i][j]
            assert U.squares[i, j] == g * g, ("square", i, j)
            assert U.signs[i][j] == g.real_sign(), ("sign", i, j)


def test_golden_t2_exact():
    rep = genus2_rep(TheoryParams(2))
    e78 = CycNumber.zeta(16, 7)    # e^(7 pi i/8)
    e34 = CycNumber.zeta(16, 6)    # e^(3 pi i/4)
    one = CycNumber.one(16)
    golden = [one, e78, -one, e78, -e34, -e34, -e78, -one, -e78, one]
    for i in range(10):
        assert rep.tdiag[i] == golden[i], i


def test_golden_j3_exact():
    rep = genus2_rep(TheoryParams(3))
    s5 = sqrt5_in(10, 2)
    a = (5 - s5) / 10
    b = s5 / 5
    c = (5 + s5) / 10
    d = (5 - s5) / 5
    sq_p = (10 * (1 + s5)) / 100    # square of sqrt(10(1+sqrt5))/10
    sq_m = (10 * (s5 - 1)) / 100    # square of sqrt(10(sqrt5-1))/10
    golden_sq = [
        [a * a, b * b, b * b, b * b, sq_p],
        [b * b, c * c, a * a, a * a, sq_m],
        [b * b, a * a, a * a, c * c, sq_m],
        [b * b, a * a, c * c, a * a, sq_m],
        [sq_p, sq_m, sq_m, sq_m, d * d],
    ]
    golden_sign = [
        [1, 1, 1, 1, 1],
        [1, 1, -1, -1, -1],
        [1, -1, -1, 1, -1],
        [1, -1, 1, -1, -1],
        [1, -1, -1, -1, 1],
    ]
    U = rep.junitary
    for i in range(5):
        for j in range(5):
            assert U.squares[i, j] == golden_sq[i][j], ("square", i, j)
            assert U.signs[i][j] == golden_sign[i][j], ("sign", i, j)


def test_golden_t3_exact():
    rep = genus2_rep(TheoryParams(3))
    e45 = CycNumber.zeta(10, 4)     # e^(4 pi i/5)
    em25 = CycNumber.zeta(10, 8)    # e^(-2 pi i/5)
    one = CycNumber.one(10)
    golden = [one, e45, e45, em25, em25]
    for i in range(5):
        assert rep.tdiag[i] == golden[i], i


def test_t_genus2_identity_triple():
    for r in range(1, 8):
        assert t_genus2(TheoryParams(r))[0] == 1


def test_first_row_law():
    # J_(000),mu = sqrt(prod Delta_mu)/D^2; squares checked exactly
    for r in range(2, 9):
        P = TheoryParams(r)
        rep = genus2_rep(P)
        d4_inv = (rep.constants.d_squared ** 2).inverse()
        for m, (i, j, k) in enumerate(rep.basis.triples):
            dprod = delta_at(P, i) * delta_at(P, j) * delta_at(P, k)
            assert rep.junitary.squares[0, m] == dprod * d4_inv, (r, m)


def test_first_row_entry_sqrt5_over_5():
    # r=3, mu=(0,2,2): entry is sqrt5/5
    rep = genus2_rep(TheoryParams(3))
    assert rep.junitary.squares[0, 1] == Fraction(1, 5)
    assert rep.junitary.signs[0][1] == 1


# --------------------------------------------------------------------------
# relations

@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_relations_small_levels(r):
    rpt = verify_genus2_relations(TheoryParams(r))
    assert rpt.all_pass, f"r={r}\n{rpt}"


def test_relations_fail_with_conjugated_twist(monkeypatch):
    # negative control: T -> conj(T) breaks (TJ)^5 = (P+/P-)^2 I
    rep = genus2_rep(TheoryParams(2))
    monkeypatch.setattr(rep_genus2, "genus2_rep",
                        lambda params: replace(rep, tdiag=tuple(t.conj() for t in rep.tdiag)))
    rpt = verify_genus2_relations(TheoryParams(2))
    assert not rpt.all_pass


@pytest.mark.parametrize("r, k", [(1, 7), (4, 5), (7, 7)])
def test_relations_fail_with_jtilde_times_a_cube_root_of_unity(monkeypatch, r, k):
    # J~ -> omega J~, omega = zeta^(N/3), at a root that is not unitary:
    # J'^2 = omega^2 I, yet S4 still matches (omega^4 = omega), J~ and D
    # stay in K and fixed by the swap, and no conjugation check runs off
    # the unitary root, so only the diagonal values of S0 = J~ D J~ tell
    P = TheoryParams(r).with_root(k)
    N = P.root_order
    assert N % 3 == 0 and not P.is_unitary_root
    rep = genus2_rep(P)
    bad = replace(rep, jtilde=rep.jtilde.scale(CycNumber.zeta(N, N // 3)))
    monkeypatch.setattr(rep_genus2, "genus2_rep", lambda params: bad)
    rpt = _fast_vs_reference(monkeypatch, P)
    assert [it.passed for it in rpt.items] == [False, False, True]


def _reference_report(monkeypatch, P):
    """The report of the full product chain, with the fast path off."""
    with monkeypatch.context() as m:
        m.setattr(rep_genus2, "_relations_hold", lambda rep: False)
        return verify_genus2_relations(P)


def _fast_vs_reference(monkeypatch, P):
    rpt = verify_genus2_relations(P)
    assert rpt == _reference_report(monkeypatch, P), (P, str(rpt))
    return rpt


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_relations_fast_path_matches_reference_every_root(monkeypatch, r):
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        assert _fast_vs_reference(monkeypatch, P.with_root(k)).all_pass, (r, k)


def test_relations_fast_path_matches_reference_r6(monkeypatch):
    # the unitary root and one other; each root costs about 2 s of products
    P = TheoryParams(6)
    for Pk in (P, P.with_root(1)):
        assert _fast_vs_reference(monkeypatch, Pk).all_pass


def _regrade_matches_full_s2(rep):
    # over K = Q(zeta_M), as _relations_hold forms it: X regraded from the
    # half-products J~ E_c J~ against S2 = J~ E J~ formed in full over
    # Q(zeta_N), times G^-1 = diag(zeta^-g) on both sides
    N = rep.params.root_order
    M = square_subfield_order(N)
    jt, n = rep.jtilde.descend(M), len(rep.basis)
    upper = _upper(n)
    grade = [j % (N // M) for _, j, _ in rep.basis.triples]
    parts = [jt.dots(jt.scale_cols(e), upper) for e in zip(*(y.components(M) for y in rep.e))]
    x = rep_genus2._regrade(parts, upper, grade)
    g_inv = [CycNumber.zeta(N, -g) for g in grade]
    s2 = rep.jtilde.scale_cols(rep.e) @ rep.jtilde
    assert x == s2.scale_rows(g_inv).scale_cols(g_inv).descend(M), rep.params


def _folded_vs_half_product(monkeypatch, rep):
    # over K = Q(zeta_M): S0 = J^ D^ J^ as _relations_hold forms it, folded
    # on the pair orbits of the basis symmetries, against the half-product
    # J~ D J~ of plain dots in the unscaled basis, times Theta^-1 on both
    # sides; then X regraded from the parts of S2 against S2 formed in full
    M = square_subfield_order(rep.params.root_order)
    held, calls = _half_products(monkeypatch, rep)
    assert held and calls[0][2], rep.params
    jt, upper = rep.jtilde.descend(M), _upper(len(rep.basis))
    d = [x.descend(M) for x in rep.jcols]
    _, th_inv, _ = rep_genus2._theta_scaling(rep.params, rep.basis.triples, d, M)
    s0 = jt.dots(jt.scale_cols(d), upper).rows[0]
    assert calls[0][3].rows[0] == tuple(th_inv[a] * v * th_inv[b]
                                        for (a, b), v in zip(upper, s0)), rep.params
    _regrade_matches_full_s2(rep)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_folded_products_match_half_products_every_root(monkeypatch, r):
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        _folded_vs_half_product(monkeypatch, genus2_rep(P.with_root(k)))


def test_folded_products_match_half_products_r6(monkeypatch):
    # the unitary root and one other, as S2 formed in full costs about 2 s
    P = TheoryParams(6)
    for Pk in (P, P.with_root(1)):
        _folded_vs_half_product(monkeypatch, genus2_rep(Pk))


def _bump(M, cells):
    rows = [list(row) for row in M.rows]
    for i, j in cells:
        rows[i][j] = rows[i][j] + 1
    return ExactMatrix(M.order, rows)


def _moved(pi):
    return next(i for i in range(len(pi)) if i < pi[i])


def _swap_bump(rep, keep):
    # J~ + 1 at (a, b) and (b, a), a moved by the swap and b not in {a, pi a},
    # and with keep at (pi a, pi b) and (pi b, pi a) too: symmetric either
    # way, fixed by the swap only with keep
    pi = rep.basis.swap
    a = _moved(pi)
    b = next(j for j in range(len(pi)) if j not in (a, pi[a]))
    cells = [(a, b), (b, a)] + ([(pi[a], pi[b]), (pi[b], pi[a])] if keep else [])
    return _bump(rep.jtilde, cells)


def _d_moved(rep):
    d = list(rep.jcols)
    d[_moved(rep.basis.swap)] *= 2
    return tuple(d)


def _tscaled(rep, i):
    t = list(rep.tdiag)
    t[i] = t[i] * 2
    return tuple(t)


def _kappa_doubled(rep):
    gc = rep.constants
    return replace(rep, constants=replace(gc, kappa_squared=gc.kappa_squared * 2))


_PERTURBATIONS = {
    "symmetric": lambda rep: replace(rep, jtilde=_bump(rep.jtilde, [(0, 1), (1, 0)])),
    "asymmetric": lambda rep: replace(rep, jtilde=_bump(rep.jtilde, [(1, 2)])),
    "diagonal": lambda rep: replace(rep, jtilde=_bump(rep.jtilde, [(2, 2)])),
    "conj-T": lambda rep: replace(rep, tdiag=tuple(t.conj() for t in rep.tdiag)),
    "T-non-unit": lambda rep: replace(rep, tdiag=_tscaled(rep, 1)),
    "swap-fixed": lambda rep: replace(rep, jtilde=_swap_bump(rep, keep=True)),
    "swap-broken": lambda rep: replace(rep, jtilde=_swap_bump(rep, keep=False)),
    "D-swap-broken": lambda rep: replace(rep, jcols=_d_moved(rep)),
    "kappa-non-unit": _kappa_doubled,
    "jtilde-not-in-K": lambda rep: replace(
        rep, jtilde=rep.jtilde.scale(CycNumber.zeta(rep.params.root_order))),
    "D-not-in-K": lambda rep: replace(rep, jcols=tuple(c.times_zeta(1) for c in rep.jcols)),
}


def _flip_bump(rep, keep):
    # J~ doubled on the orbit of one entry under the swap and the first flip,
    # and with keep under every flip: symmetric and fixed by the swap
    # either way; J^ keeps its signed permutations only with keep
    pi, flips = rep.basis.swap, rep.basis.flips
    a = _flip_moved_orbit(rep)[0]
    return replace(rep, jtilde=_doubled_on_orbit(rep.jtilde, a, [pi, *(flips if keep else flips[:1])]))


# at even levels only: odd levels have no flips
_FLIP_PERTURBATIONS = {
    "flip-broken": lambda rep: _flip_bump(rep, keep=False),
    "flip-kept": lambda rep: _flip_bump(rep, keep=True),
}


@pytest.mark.parametrize("r, change", [
    *(pytest.param(r, f, id=f"{name}-{r}") for name, f in _PERTURBATIONS.items() for r in (2, 3)),
    *(pytest.param(2, f, id=f"{name}-2") for name, f in _FLIP_PERTURBATIONS.items())])
def test_relations_fast_path_on_perturbed_reps(monkeypatch, r, change):
    # a broken representation falls through to the product chain: the
    # report, every witness included, is the reference one, and it fails
    # (at r = 4, conj(T) still satisfies the relations, so r <= 3 here).
    # _relations_hold refuses kappa^4 or a twist that is not a power of
    # zeta before any product, and so, at even r, J~ or D times zeta, which
    # lies outside K = Q(A^2).  The flip cases keep J~ symmetric and fixed
    # by the swap, and break or keep the flips' signed permutations of J^
    # (test_flip_bumps_keep_or_break_the_flips)
    for P in (TheoryParams(r), TheoryParams(r).with_root(1)):
        bad = change(genus2_rep(P))
        with monkeypatch.context() as m:
            m.setattr(rep_genus2, "genus2_rep", lambda params: bad)
            assert not _fast_vs_reference(m, P).all_pass, (r, P.root_exponent)


@pytest.mark.parametrize("r", [2, 3])
def test_swap_bumps_take_their_own_paths(monkeypatch, r):
    # a bump that the swap keeps is rejected by S0 itself, before X is
    # regraded from the parts of S2 formed in the same call; a bump that
    # breaks the swap, and a D that the swap moves, lose the swap alone: S0
    # runs on the other symmetries and rejects them
    rep = genus2_rep(TheoryParams(r))
    pi = rep.basis.swap
    s = rep.params.root_order // square_subfield_order(rep.params.root_order)
    with monkeypatch.context() as m:
        m.setattr(rep_genus2, "_regrade", lambda *a: pytest.fail("S0 decides"))
        assert not rep_genus2._relations_hold(replace(rep, jtilde=_swap_bump(rep, keep=True)))
    broken = _swap_bump(rep, keep=False)
    assert broken == broken.transpose()
    for bad in (replace(rep, jtilde=broken), replace(rep, jcols=_d_moved(rep))):
        with monkeypatch.context() as m:
            m.setattr(rep_genus2, "_regrade", lambda *a: pytest.fail("S0 decides"))
            held, calls = _half_products(m, bad)
        assert not held and len(calls) == 1 + s
        assert pi not in [p for p, _, _ in calls[0][2]]


@pytest.mark.parametrize("r", [2, 3])
def test_asymmetric_jtilde_is_refused_before_any_product(monkeypatch, r):
    # J' -> L J' L^-1, L = 2 at one basis vector: J~ -> L J~ L^-1 keeps
    # J^2 = I, (TJ)^5 and unitarity but not J~ = J~^T, which one
    # comparison of indices refuses before any half-product; the report
    # is the reference one
    P = TheoryParams(r)
    rep = genus2_rep(P)
    lam = [CycNumber.from_rational(P.root_order, 2 if b == 0 else 1) for b in range(len(rep.basis))]
    bad = replace(rep, jtilde=rep.jtilde.scale_rows(lam).scale_cols([x.inverse() for x in lam]))
    with monkeypatch.context() as m:
        m.setattr(ExactMatrix, "half_products", lambda *a: pytest.fail("a product ran"))
        assert not rep_genus2._relations_hold(bad)
    monkeypatch.setattr(rep_genus2, "genus2_rep", lambda params: bad)
    rpt = _fast_vs_reference(monkeypatch, P)
    assert [it.passed for it in rpt.items] == [True, True, True, False]


def test_s0_check_reads_the_off_diagonal_entries():
    # J~ = [[4/5, 3/5], [3/5, 4/5]] with D = I:
    # S0 = J~^2 = [[1, 24/25], [24/25, 1]] has D^-1's diagonal, so only the
    # off-diagonal test of _s0_is_d_inverse can reject it
    q = lambda x: CycNumber(5, [x, 0, 0, 0])
    jt = ExactMatrix(5, [[q(Fraction(4, 5)), q(Fraction(3, 5))],
                         [q(Fraction(3, 5)), q(Fraction(4, 5))]])
    d = [q(1), q(1)]
    s0 = jt.scale_cols(d) @ jt
    assert [s0[i, i] for i in range(2)] == d
    assert s0[0, 1] == q(Fraction(24, 25))
    assert not rep_genus2._s0_is_d_inverse(jt.half_products([d])[0], d)


@pytest.mark.parametrize("r", [2, 3])
def test_relations_fast_path_on_phase_conjugated_rep(monkeypatch, r):
    # J' -> L J' L^-1 with L = diag(zeta^i) keeps J^2 = I and (TJ)^5 but
    # not unitarity: J~ -> L J~ L and D -> L^-2 D are no longer real
    P = TheoryParams(r)
    rep = genus2_rep(P)
    lam = [CycNumber.zeta(P.root_order, i) for i in range(len(rep.basis))]
    bad = replace(rep, jtilde=rep.jtilde.scale_rows(lam).scale_cols(lam),
                  jcols=tuple(c * x.conj() * x.conj() for c, x in zip(rep.jcols, lam)))
    monkeypatch.setattr(rep_genus2, "genus2_rep", lambda params: bad)
    rpt = _fast_vs_reference(monkeypatch, P)
    assert [it.passed for it in rpt.items] == [True, True, False, True]


@pytest.mark.parametrize("r", [2, 4])
def test_unitarity_reads_every_distinct_jtilde_vector(monkeypatch, r):
    # J' -> L J' L^-1 with L = i = zeta^(N/4) (r even) on one swap orbit and
    # 1 elsewhere keeps J^2 = I, (TJ)^5 and the swap, and D -> L^-2 D stays
    # real, so only the entries i J~_ab of J~ (a in the orbit, b not) break
    # unitarity
    P = TheoryParams(r)
    rep = genus2_rep(P)
    N, pi = P.root_order, rep.basis.swap
    a = _moved(pi)
    lam = [CycNumber.zeta(N, N // 4) if b in (a, pi[a]) else CycNumber.one(N)
           for b in range(len(pi))]
    bad = replace(rep, jtilde=rep.jtilde.scale_rows(lam).scale_cols(lam),
                  jcols=tuple(c * x.conj() * x.conj() for c, x in zip(rep.jcols, lam)))
    assert all(c.is_real() for c in bad.jcols)
    monkeypatch.setattr(rep_genus2, "genus2_rep", lambda params: bad)
    rpt = _fast_vs_reference(monkeypatch, P)
    assert [it.passed for it in rpt.items] == [True, True, False, True]


def _kappa_times_zeta(rep):
    gc = rep.constants
    return replace(rep, constants=replace(gc, kappa_squared=gc.kappa_squared.times_zeta(1)))


def _t_swapped(rep, rng):
    # None when T is scalar (r = 1)
    t = list(rep.tdiag)
    pairs = [(a, b) for a in range(len(t)) for b in range(a) if t[a] != t[b]]
    if pairs:
        a, b = rng.choice(pairs)
        t[a], t[b] = t[b], t[a]
        return replace(rep, tdiag=tuple(t))


def _table_entry_scaled(rep, rng):
    # every entry of J~ holding one value scaled by 2, -1 or zeta: J~ stays
    # symmetric and fixed by the swap
    jt = rep.jtilde
    k = rng.randrange(len(jt.table))
    f = rng.choice([lambda v: [2 * c for c in v], lambda v: [-c for c in v],
                    lambda v: shift_vector(jt.order, v, 1)])
    table = [f(v) if i == k else v for i, v in enumerate(jt.table)]
    return replace(rep, jtilde=ExactMatrix.from_vectors(
        jt.order, [[table[i] for i in row] for row in jt.index], jt.den))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_fast_path_holds_exactly_when_the_reference_finds_nothing(r):
    # at every unit root, on the representation and on three perturbed
    # copies, each chosen from a generator seeded by (r, k): kappa^2 times
    # zeta, two unequal T entries swapped, one J~ table entry scaled.
    # (kappa^2 -> -kappa^2 is no perturbation: kappa^4 does not change.)
    # A swap of T entries can keep the relations (r = 1, 3), so the test
    # asks only that some perturbed copy fails at each level
    P = TheoryParams(r)
    failed = set()
    for k in _unit_roots(P.root_order):
        rep = genus2_rep(P.with_root(k))
        rng = random.Random(f"{r}:{k}")
        for name, m in (("rep", rep), ("kappa", _kappa_times_zeta(rep)),
                        ("T", _t_swapped(rep, rng)), ("J~", _table_entry_scaled(rep, rng))):
            if m is None:
                continue
            nothing = all(d is None for d in rep_genus2._reference_differences(m))
            assert rep_genus2._relations_hold(m) == nothing, (r, k, name)
            if not nothing:
                failed.add(name)
    assert "rep" not in failed and failed, r


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8])
def test_fast_path_decides_at_every_root(monkeypatch, r):
    # J~ and D lie in K = Q(A^2), J~ and D are fixed by the swap and S2 is
    # graded by the middle label at every unit root for r <= 7 and at the
    # default root for r = 8, so verify never reaches the product chain
    # there; odd levels (K the whole field) run the same function
    P = TheoryParams(r)
    monkeypatch.setattr(rep_genus2, "_reference_differences",
                        lambda rep: pytest.fail("the product chain ran"))
    for k in _unit_roots(P.root_order) if r < 8 else [P.root_exponent]:
        assert verify_genus2_relations(P.with_root(k)).all_pass, (r, k)


@pytest.mark.parametrize("r", [2, 4])
def test_regrade_checks_the_grading(r):
    # X = G^-1 S2 G^-1 over K from the upper triangles of the two parts
    # J~ E_c J~ of S2 (_regrade_matches_full_s2 diffs it with S2), and None
    # once a part is nonzero where the grading by the middle label puts 0
    rep = genus2_rep(TheoryParams(r))
    N, n = rep.params.root_order, len(rep.basis)
    M = N // 2
    jt = rep.jtilde.descend(M)
    grade = [j % 2 for _, j, _ in rep.basis.triples]
    upper = [(a, b) for a in range(n) for b in range(a, n)]
    parts = [jt.dots(jt.scale_cols(e), upper) for e in zip(*(y.components(M) for y in rep.e))]
    assert rep_genus2._regrade(parts, upper, grade) is not None
    t = next(t for t, (a, b) in enumerate(upper) if a < b and grade[a] == grade[b])
    assert not parts[1][0, t]
    bumped = [parts[0], _bump(parts[1], [(0, t)])]
    assert rep_genus2._regrade(bumped, upper, grade) is None


def test_basis_flips_are_the_color_flips():
    # at even r, two colors c of each triple replaced by r - c, as indices:
    # three involutions that compose as a Klein four-group; odd levels
    # have none
    for r in (1, 3, 5):
        assert enumerate_basis(r).flips == ()
    for r in (2, 4, 6):
        ts = enumerate_basis(r).triples
        flips = enumerate_basis(r).flips
        for p, mask in zip(flips, ((0, 1, 1), (1, 0, 1), (1, 1, 0))):
            assert [ts[b] for b in p] == [tuple(r - c if f else c for c, f in zip(t, mask))
                                         for t in ts]
            assert all(p[b] == a for a, b in enumerate(p))
        f1, f2, f3 = flips
        assert tuple(f1[b] for b in f2) == f3


def _half_products(monkeypatch, rep):
    """The verdict of _relations_hold(rep) and each half-product it forms,
    as (m, w, symmetries, output), symmetries the (p, signs, chi) that
    ExactMatrix.half_products kept and whose orbits it was dotted on
    (ExactMatrix._orbit_product): S0, the parts of S2, then the halves of
    S4 (none of S4 when the check stops before them)."""
    calls, f = [], ExactMatrix._orbit_product

    def spy(m, w, symmetries):
        out = f(m, w, symmetries)
        calls.append((m, w, list(symmetries), out))
        return out
    with monkeypatch.context() as mp:
        mp.setattr(ExactMatrix, "_orbit_product", spy)
        return rep_genus2._relations_hold(rep), calls


def _signed_permutations_hold(m, w, symmetries, step):
    """Each (p, signs, chi) has w[pk] = chi_k w[k], and with step, also
    m[pa, pb] = c s_a s_b m[a, b] on every step-th row a, c read off
    m[p0, p0]."""
    n = m.nrows
    for p, s, chi in symmetries:
        if not all(w[p[k]] == chi[k] * w[k] for k in range(n)):
            return False
        c = 1 if m[p[0], p[0]] == m[0, 0] else -1
        if step and not all(m[p[a], p[b]] == c * s[a] * s[b] * m[a, b]
                            for a in range(0, n, step) for b in range(n)):
            return False
    return True


@pytest.mark.parametrize("r", [2, 4, 6])
def test_flips_are_signed_permutations_every_root(monkeypatch, r):
    # the orbit path rests on this: every symmetry of the basis (the swap,
    # the flips, the swap after each flip) permutes J^ = Theta^-1 J~
    # Theta^-1 up to signs and gives D^ a character +-1, and each flip
    # permutes X = G^-1 S2 G^-1 up to signs and multiplies each part of
    # E^ = Theta^2 D T and of W = G E^ G by a character +-1; a root where
    # it failed would still be decided, on fewer symmetries, more slowly.
    # J^ (read by S0) and X (by the first half of S4) are compared entry
    # by entry on every eighth row (all rows for n <= 14)
    P = TheoryParams(r)
    for k in _unit_roots(P.root_order):
        rep = genus2_rep(P.with_root(k))
        held, calls = _half_products(monkeypatch, rep)
        assert held and len(calls) == 5, (r, k)
        used = [[p for p, _, _ in syms] for _, _, syms, _ in calls]
        assert used == [list(rep.basis.symmetries)] + [list(rep.basis.flips)] * 4, (r, k)
        step = 1 if len(rep.basis) <= 14 else 8
        for t, (m, w, syms, _) in enumerate(calls):
            assert _signed_permutations_hold(m, w, syms, step if t in (0, 3) else 0), (r, k)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7])
def test_orbit_half_products_match_plain_dots_every_root(monkeypatch, r):
    # S0, each part of S2 and each half of S4 that the orbit path forms,
    # against the plain dots of the same Theta-basis matrices: on the swap
    # alone at odd r, where S0 keeps it and S2 and S4 keep nothing
    # (test_folded_products_match_half_products_* diffs S0 and X with
    # products in the unscaled basis)
    P = TheoryParams(r)
    s = P.root_order // square_subfield_order(P.root_order)
    for k in _unit_roots(P.root_order):
        rep = genus2_rep(P.with_root(k))
        held, calls = _half_products(monkeypatch, rep)
        assert held and len(calls) == 1 + 2 * s, (r, k)
        assert calls[0][2][0][0] == rep.basis.swap, (r, k)
        for m, w, _, out in calls:
            assert out == m.dots(m.scale_cols(w), _upper(m.nrows)), (r, k)


def _flip_moved_orbit(rep):
    # a swap orbit {a, pi a} that some flip moves elsewhere
    pi, flips = rep.basis.swap, rep.basis.flips
    a = next(a for a in range(len(pi)) if a < pi[a]
             and any(p[a] not in (a, pi[a]) for p in flips))
    return a, pi[a]


def _l_scaled(rep):
    # J' -> L J' L^-1, L = 2 on a swap orbit that a flip moves: J~ -> L J~ L
    # and D -> L^-2 D keep every relation, the swap and K, but that flip
    # no longer permutes J^ = Theta^-1 J~ Theta^-1 up to signs
    N, orbit = rep.params.root_order, _flip_moved_orbit(rep)
    lam = [CycNumber.from_rational(N, 2 if b in orbit else 1) for b in range(len(rep.basis))]
    return replace(rep, jtilde=rep.jtilde.scale_rows(lam).scale_cols(lam),
                   jcols=tuple(c / (x * x) for c, x in zip(rep.jcols, lam)))


def _doubled_on_orbit(m, a, perms):
    # m doubled on the orbit of the entry (a, b), b the first column outside
    # {a} and the images of a with m[a, b] != 0, under perms and the
    # transpose: symmetric, and each of perms that permuted m up to signs
    # still does
    b = next(b for b in range(m.ncols) if b != a and m[a, b]
             and all(b != p[a] for p in perms))
    orbit, todo = set(), [(a, b)]
    while todo:
        x, y = todo.pop()
        if (x, y) not in orbit:
            orbit.add((x, y))
            todo += [(y, x)] + [(p[x], p[y]) for p in perms]
    rows = [list(row) for row in m.rows]
    for x, y in orbit:
        rows[x][y] = 2 * rows[x][y]
    return ExactMatrix(m.order, rows)


def _t_shifted(rep, b):
    # T times zeta^s at the basis vector b (s = N/M): a twist of the same
    # parity, so the parts of E^ keep their support, but the flips that
    # move b give the part of E^ that holds b no character
    s = rep.params.root_order // square_subfield_order(rep.params.root_order)
    return replace(rep, tdiag=tuple(t.times_zeta(s) if c == b else t
                                    for c, t in enumerate(rep.tdiag)))


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("case", ["J-broken", "X-broken", "E-broken"])
def test_half_products_match_plain_dots_when_a_check_fails(monkeypatch, r, case):
    # J-broken: a J^ that a flip does not permute up to signs, while every
    # relation holds (_l_scaled); E-broken: a part of E^ without a
    # character (_t_shifted), where the relations fail; X-broken: X,
    # formed by the check, doubled on an orbit of the first flip only, so
    # the other two break.  The check refuses the flips, the plain
    # half-product runs, and the verdict is the reference chain's
    rep = genus2_rep(TheoryParams(r))
    flips, syms = rep.basis.flips, rep.basis.symmetries
    a = _flip_moved_orbit(rep)[0]
    if case == "X-broken":
        _, calls = _half_products(monkeypatch, rep)
        x, w, _, _ = calls[3]
        bad = _doubled_on_orbit(x, a, flips[:1])
        signs = matrix._perm_signs(bad, syms)
        assert bad == bad.transpose() and signs[1] is not None and None in signs[2:4]
        assert bad.half_products([w], syms) == [bad.dots(bad.scale_cols(w), _upper(len(w)))]
        return
    m = _l_scaled(rep) if case == "J-broken" else _t_shifted(rep, a)
    held, calls = _half_products(monkeypatch, m)
    assert held == all(d is None for d in rep_genus2._reference_differences(m))
    assert held == (case == "J-broken")
    for x, w, _, out in calls:
        assert out == x.dots(x.scale_cols(w), _upper(x.nrows))
    used = [[p for p, _, _ in syms] for _, _, syms, _ in calls]
    if case == "J-broken":
        # the flip that moves the scaled orbit is dropped, the swap kept
        assert used[0][0] == rep.basis.swap and len(used[0]) < len(syms)
    else:
        # S0 keeps every symmetry, and a part of E^ loses a flip
        assert used[0] == list(syms)
        assert any(len(u) < len(flips) for u in used[1:])


def _jhat(rep):
    """J^ = Theta^-1 J~ Theta^-1 over K, as _relations_hold forms it."""
    M = square_subfield_order(rep.params.root_order)
    d = [x.descend(M) for x in rep.jcols]
    _, th_inv, _ = rep_genus2._theta_scaling(rep.params, rep.basis.triples, d, M)
    return rep.jtilde.descend(M).scale_rows(th_inv).scale_cols(th_inv)


@pytest.mark.parametrize("r", [2, 4])
def test_flip_bumps_keep_or_break_the_flips(r):
    # the flip-broken and flip-kept cases of the perturbed reps: both keep
    # J^ symmetric and a signed permutation under the swap, so S0 decides
    # that they fail; only the kept one is still a signed permutation under
    # every flip
    rep = genus2_rep(TheoryParams(r))
    pi, flips = rep.basis.swap, rep.basis.flips
    assert None not in matrix._perm_signs(_jhat(rep), flips)
    for keep in (False, True):
        bad = _flip_bump(rep, keep)
        jhat = _jhat(bad)
        assert jhat == jhat.transpose() and matrix._perm_signs(jhat, [pi]) != [None]
        assert (None not in matrix._perm_signs(jhat, flips)) == keep
        assert not rep_genus2._relations_hold(bad)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_theta_basis_decides_as_the_jtilde_basis(monkeypatch, r):
    # with Theta = 1 in _theta_scaling, _relations_hold takes the same steps
    # on J~ and D themselves: the two decisions agree at every root, on the
    # representation and on three perturbed copies (as in
    # test_fast_path_holds_exactly_when_the_reference_finds_nothing)
    P = TheoryParams(r)
    one = CycNumber.one(P.root_order)           # K is the whole field at odd r

    def unscaled(params, triples, d, M):
        return [one] * len(d), [one] * len(d), list(d)
    decided = set()
    for k in _unit_roots(P.root_order):
        rep = genus2_rep(P.with_root(k))
        rng = random.Random(f"{r}:{k}")
        for name, m in (("rep", rep), ("kappa", _kappa_times_zeta(rep)),
                        ("T", _t_swapped(rep, rng)), ("J~", _table_entry_scaled(rep, rng))):
            held = rep_genus2._relations_hold(m)
            with monkeypatch.context() as mp:
                mp.setattr(rep_genus2, "_theta_scaling", unscaled)
                assert rep_genus2._relations_hold(m) == held, (r, k, name)
            decided.add(held)
    assert decided == {True, False}


def _slices_work(monkeypatch):
    """The phi-weighted multiplications of every call of the packed kernel
    (_dots, ExactMatrix._orbit_product): each cuts its pairs with _slices."""
    work, f = [0], matrix._slices

    def counted(count, cost):
        work[0] += count * cost
        return f(count, cost)
    monkeypatch.setattr(matrix, "_slices", counted)
    return work


@pytest.mark.parametrize("r, work", [(4, 64_384), (6, 1_603_728)])
def test_passing_relation_check_work_is_pinned(monkeypatch, r, work):
    # pairs x length x phi over the packed calls of one passing check, J~
    # and D built: 206,912 at r = 4 and 5,516,376 at r = 6 in the J~ basis
    # on every pair of the upper triangle.  Here S0 on the pair orbits of
    # every basis symmetry, the parts of S2 and the halves of S4 on the
    # flip orbits take 64,040 and 1,601,008, and J^ = Theta^-1 J~ Theta^-1
    # the rest, 344 and 2,720: one product per ordered pair of distinct
    # Theta^-1 values, then one per distinct (J~ entry, Theta^-1_a
    # Theta^-1_b) pair
    rep = genus2_rep(TheoryParams(r))
    counted = _slices_work(monkeypatch)
    assert rep_genus2._relations_hold(rep)
    assert counted[0] == work


@pytest.mark.parametrize("r, entries", [(4, 9_310), (6, 53_214)])
def test_passing_relation_check_interns_no_intermediate(monkeypatch, r, entries):
    # index entries that ExactMatrix._of brings to the unique form in one
    # passing check, J~ and D built: J~ moved into K, J^, X and conj(J^),
    # n x n each, and seven upper triangles, n(n + 1)/2 each: S0, the parts
    # of S2, the halves of S4 and their two targets.  The operands of the
    # half-products are read as they are, so an n x n matrix interned on
    # the way (a column-scaled or cut-down operand, J^ formed in two passes)
    # shows up here
    rep = genus2_rep(TheoryParams(r))
    n = len(rep.basis)
    count, of = [0], ExactMatrix._of.__func__

    def counted(cls, order, table, index, den):
        index = [tuple(row) for row in index]
        count[0] += sum(map(len, index))
        return of(cls, order, table, index, den)
    monkeypatch.setattr(ExactMatrix, "_of", classmethod(counted))
    assert rep_genus2._relations_hold(rep)
    assert count[0] == entries == 4 * n * n + 7 * n * (n + 1) // 2


def test_passing_relations_make_no_full_product(monkeypatch):
    # J~ and D are moved into K = Q(A^2) = Q(zeta_12) at r = 4 (N = 24)
    # and scaled to J^ = Theta^-1 J~ Theta^-1 and D^ = Theta^2 D.  S0 is one
    # half-product of J^ on the orbits of every symmetry of the basis (the
    # swap, the flips and the swap after each flip), and S2 and S4 are
    # half-products, one per part E_c and one per part W_c, over the
    # columns where that part is nonzero, each on the orbits of the flips.
    # Every packed call runs on phi(12) = 4 digits (its modulus is
    # Phi_12(2**W)), and the phi-weighted multiplications (_slices_work)
    # are at most 2 n^2 for the products that form J^ and one dot per
    # orbit over the kept columns of each half-product, with the products
    # that scale the columns of each right operand.  The
    # product chain runs only when some relation fails
    P = TheoryParams(4)
    rep = genus2_rep(P)
    calls = {"matmul": 0}
    orbits_of, orders = [], set()
    matmul, orbit_product, modulus = ExactMatrix.__matmul__, ExactMatrix._orbit_product, matrix._modulus

    def counting_matmul(self, other):
        calls["matmul"] += 1
        return matmul(self, other)

    def recording_orbit_product(self, w, symmetries):
        orbits_of.append(tuple(p for p, _, _ in symmetries))
        return orbit_product(self, w, symmetries)

    def recording_modulus(N, width):
        orders.add(N)
        return modulus(N, width)
    monkeypatch.setattr(ExactMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(ExactMatrix, "_orbit_product", recording_orbit_product)
    monkeypatch.setattr(matrix, "_modulus", recording_modulus)
    work = _slices_work(monkeypatch)
    assert verify_genus2_relations(P).all_pass
    assert calls == {"matmul": 0}

    basis = enumerate_basis(4)
    n = len(basis)
    assert orbits_of == [basis.symmetries] + [basis.flips] * 4
    assert orders == {12}
    orbits = [len(matrix._pair_orbits(n, perms)[0]) for perms in (basis.symmetries, basis.flips)]
    assert (n, orbits) == (35, [102, 174])
    grade = [j % 2 for _, j, _ in rep.basis.triples]
    e_parts = zip(*(y.components(12) for y in rep.e))
    w_parts = zip(*(y.times_zeta(2 * g).components(12) for y, g in zip(rep.e, grade)))
    kept = [sum(map(bool, part)) for part in (rep.jcols, *e_parts, *w_parts)]
    assert kept == [35, 19, 16, 19, 16]
    s0 = (orbits[0] + n) * kept[0]
    assert work[0] <= 4 * (s0 + 2 * n * n + (orbits[1] + n) * sum(kept[1:]))


def test_reference_chain_compares_with_kappa4_i_without_products(monkeypatch):
    # the (TJ)^5 target kappa^4 I is a diagonal of one value, not I scaled
    # entry by entry (n^2 products, nearly all 0 * kappa^4); the witnesses
    # are the ones the scaled identity gave
    rep = genus2_rep(TheoryParams(2))
    bad = replace(rep, tdiag=tuple(t.conj() for t in rep.tdiag))
    monkeypatch.setattr(ExactMatrix, "scale", lambda *a: pytest.fail("scaled"))
    assert rep_genus2._reference_differences(bad) == [None, (0, 0), None, None]


def test_passing_relations_make_few_field_products(monkeypatch):
    # with J~ and D built, a passing check multiplies field elements only
    # for S0_ii d_i, kappa^4, the theta nets and D^ = Theta^2 D (once per
    # distinct (sorted triple, D entry)): J^ and the half-products run on
    # packed integers, the parts of E^ = D^ T are zeta-shifts of D^ and the
    # S4 target is a zeta-shift of J^
    P = TheoryParams(6)
    rep = genus2_rep(P)
    n = len(rep.basis)
    calls = [0]
    mul = CycNumber.__mul__

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)
    monkeypatch.setattr(CycNumber, "__mul__", counting_mul)
    assert verify_genus2_relations(P).all_pass
    assert calls[0] <= 10 * n, calls


def test_reference_paths_read_no_e(monkeypatch):
    # _jtjt_matrix and _reference_differences build on j_field and tdiag
    # alone, so the tests that diff the fast paths against them do not
    # share E = D T or E' = D T^-1 with those paths
    P = TheoryParams(3)
    rep = replace(genus2_rep(P))
    monkeypatch.setattr(rep_genus2, "genus2_rep", lambda params: rep)
    _jtjt_matrix(P)
    rep_genus2._reference_differences(rep)
    assert "e" not in vars(rep) and "e_inv" not in vars(rep)
    assert rep.e == tuple(d * t for d, t in zip(rep.jcols, rep.tdiag))
    assert rep.e_inv == tuple(d / t for d, t in zip(rep.jcols, rep.tdiag))


def _j_field_built(P):
    return "j_field" in vars(genus2_rep(P))


def test_j_field_stays_unbuilt(capsys):
    # verify, the certificates and the sweep read J~ and D; J' = J~ D is
    # built only for genus2-matrices, junitary, the r=3 char-poly fallback
    # and the report of a failing relation
    from tljhecke.cli import main
    genus2_rep.cache_clear()
    trace_jtjt.cache_clear()
    for r in range(2, 8):
        assert main(["--format", "json", "verify", "--genus", "0", "--level", str(r)]) == 0
        assert not _j_field_built(TheoryParams(r)), ("verify", r)
    for r in (4, 5, 7):
        infinite_image_certificate(TheoryParams(r))
        P = trace_params(r) if r % 2 else TheoryParams(r)
        assert not _j_field_built(P), ("infinite-image", r)
    for r in (5, 7):
        trace_galois_sweep(r)
        assert not _j_field_built(trace_params(r)), ("sweep", r)
    capsys.readouterr()


def test_galois_equivariance_of_genus2_matrices():
    r = 3
    P = TheoryParams(r)
    m = 7
    assert math.gcd(m, P.root_order) == 1
    Pm = P.with_root(m * P.root_exponent)
    assert jtilde(Pm) == jtilde(P).galois(m)
    assert t_genus2(Pm) == tuple(t.galois(m) for t in t_genus2(P))
    rpt = verify_genus2_relations(Pm)
    assert rpt.all_pass


def test_j_unitary_falls_back_when_not_positive():
    # at a Galois-conjugate root the loop values are not all positive, so
    # there is no unitary normalization and only j_field is available
    P = TheoryParams(3)
    Pm = P.with_root(7 * P.root_exponent % P.root_order)
    rep = genus2_rep(Pm)
    assert not rep.positive
    assert rep.junitary is None
    assert isinstance(rep.j_field, ExactMatrix)
    assert isinstance(genus2_rep(P).junitary.squares, ExactMatrix)


# --------------------------------------------------------------------------
# traces

def test_trace_r3_value():
    # 2 + sqrt5 = 4.2361 at the k=1 root
    v = trace_jtjt(trace_params(3))
    z = v.embed()
    assert abs(z.imag) < 1e-12
    assert abs(z.real - 4.2361) < 5e-4


def test_trace_is_real_at_trace_root():
    for r in (3, 5, 7):
        v = trace_jtjt(trace_params(r))
        assert v.is_real(), r


def test_trace_r7_exceeds_dimension():
    v = trace_jtjt(trace_params(7))
    assert v.embed().real > verlinde_dim(7, 2)


def test_sweep_real_parts_match_40_digit_doubles(mp_embed):
    # the sweep's real parts are the doubles that a 40-digit mpmath
    # evaluation rounds to, and its imaginary parts are exactly 0: the trace
    # is real at k = 1, and so is every Galois conjugate of it
    for r in range(3, 14, 2):
        v = trace_jtjt(trace_params(r))
        assert v.is_real(), r
        for k, z in trace_galois_sweep(r):
            assert z == complex(float(mp_embed(v.galois(k), 40).real), 0.0), (r, k)


def _unit_roots(N):
    return [k for k in range(1, N) if math.gcd(k, N) == 1]


def test_trace_double_sum_equals_matrix_trace():
    # the double sum in trace_jtjt against the trace of the n x n product
    for r in range(1, 6):
        P = TheoryParams(r)
        for k in _unit_roots(P.root_order):
            Pk = P.with_root(k)
            assert trace_jtjt(Pk) == _jtjt_matrix(Pk).trace(), (r, k)


def test_trace_does_not_assume_a_symmetric_jtilde():
    # the bilinear form reads J~_sm J~_ms once per distinct pair of table
    # entries, not once per entry of J~: with one off-diagonal entry of J~
    # replaced, J~ is not symmetric, and the trace still equals the trace of
    # the full product J'T J'T^-1
    for r in (3, 4, 5):
        rep = genus2_rep(TheoryParams(r))
        rows = [list(row) for row in rep.jtilde.rows]
        rows[0][1] = rows[0][1] + CycNumber.zeta(rep.jtilde.order) / 3
        bent = replace(rep, jtilde=ExactMatrix(rep.jtilde.order, rows))
        assert bent.jtilde != bent.jtilde.transpose(), r
        tinv = [t.conj() for t in bent.tdiag]
        full = bent.j_field.scale_cols(bent.tdiag) @ bent.j_field.scale_cols(tinv)
        assert rep_genus2._trace(bent) == full.trace(), r
        assert rep_genus2._trace(bent) != rep_genus2._trace(rep), r


def test_trace_galois_conjugate_equals_direct_trace():
    # the sweep applies sigma_k to the k=1 trace; the direct trace at zeta^k
    # is the reference
    for r in (3, 5):
        p0 = trace_params(r)
        v = trace_jtjt(p0)
        for k in _unit_roots(p0.root_order):
            assert v.galois(k) == trace_jtjt(p0.with_root(k)), (r, k)


def test_trace_galois_sweep_builds_one_representation():
    trace_jtjt.cache_clear()
    genus2_rep.cache_clear()
    sweep = trace_galois_sweep(7)
    assert [k for k, _ in sweep] == _unit_roots(18)
    assert genus2_rep.cache_info().misses == 1


def _clear_tljhecke_caches():
    """Empty every memo of the package, as in a fresh process."""
    import sys
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "tljhecke":
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_cold_representation_takes_few_products_and_no_inverse(monkeypatch):
    # work counts are deterministic where timings are not: the recoupling
    # values are products of memoized unit powers and the global constants
    # take no field inverse (a cold r = 7 build made 655 products and 2
    # inverses with one power of each Phi_m(zeta) per value)
    _clear_tljhecke_caches()
    products, inverses = [], []
    mul, inverse = CycNumber.__mul__, CycNumber.inverse
    monkeypatch.setattr(CycNumber, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(CycNumber, "inverse", lambda a: inverses.append(1) or inverse(a))
    genus2_rep(trace_params(7))
    assert len(products) <= 330, len(products)
    assert not inverses


def test_cold_jtilde_forms_one_matrix_and_reads_the_tet_orbits(monkeypatch):
    # J~ is assembled from (table, index) pairs read from the recoupling
    # memos: only J~ itself is brought to the unique form, and its Tet values
    # come from the orbit memo, since jtilde has checked every vertex itself
    from tljhecke import recoupling
    _clear_tljhecke_caches()
    made = []
    of = ExactMatrix._of.__func__
    monkeypatch.setattr(ExactMatrix, "_of", classmethod(
        lambda cls, *args: made.append(args[0]) or of(cls, *args)))
    P = trace_params(7)
    jt = jtilde(P)
    assert made == [P.root_order]
    assert recoupling.tet_at.cache_info().currsize == 0
    assert recoupling._tet_orbit_at.cache_info().currsize > 0
    assert jt.nrows == len(enumerate_basis(7))


@pytest.mark.parametrize("r", [4, 7])
def test_cold_jtilde_multiplies_each_distinct_pair_of_values_once(monkeypatch, r):
    # passes 1 and 2 of jtilde are entrywise products (matrix._products), a
    # dot of length 1 per distinct pair of values: a Delta_l^-1 or Tet value
    # that two channels or two Tet keys share is one table entry, so no two
    # pairs multiply the same two vectors (at r = 4: 13 + 67 + 67 products
    # for 35 keys and 235 cells a side).  Pass 3's dots are longer
    _clear_tljhecke_caches()
    singles = []
    dots = matrix._dots

    def recording_dots(N, phi, A, B, length, pairs):
        pairs = list(pairs)
        if length == 1:
            singles.append({(tuple(A[0][A[1][a][0]]), tuple(B[0][B[1][b][0]])) for a, b in pairs})
            assert len(singles[-1]) == len(pairs)
        return dots(N, phi, A, B, length, pairs)
    monkeypatch.setattr(matrix, "_dots", recording_dots)
    P = trace_params(r) if r % 2 else TheoryParams(r)
    jt = jtilde(P)
    assert len(singles) == 3
    assert _entries(jt) == _jtilde_reference(P)


def test_exceeds_dimension_matches_float_comparison():
    for e in trace_table(range(3, 12, 2)):
        assert e.exceeds_dimension == (e.approx.real > e.dimension), e.level


def test_exceeds_dimension_needs_a_real_trace():
    # one decision serves trace-table and the trace certificate: a value
    # that is not real never exceeds dim V, however large its real part
    big = CycNumber.from_rational(12, 100)
    i = CycNumber.zeta(12, 3)
    assert TraceEntry(3, 1, big, complex(100, 0), 5).exceeds_dimension
    assert not TraceEntry(3, 1, big + i, complex(100, 1), 5).exceeds_dimension
    for r in (3, 5, 7):
        P = trace_params(r)
        fires, _ = rep_genus2.trace_certificate(P)
        assert fires == rep_genus2.trace_entry(P).exceeds_dimension, r


def test_trace_params_rejects_even_levels():
    with pytest.raises(ValueError):
        trace_params(4)


# --------------------------------------------------------------------------
# infinite-image certificates

def test_quartic_certificate_r3():
    P = TheoryParams(3)
    fires, details = minpoly_certificate(P)
    assert fires, details
    M = _jtjt_matrix(P)
    cp = char_poly(M)
    # the quartic's Q(zeta_10)-factor has degree 2
    G = cp.gcd(CycPoly.from_int_poly(P.root_order, INFINITE_ORDER_QUARTIC))
    assert G.degree == 2


def test_minpoly_certificate_rejects_cyclotomic_factor(monkeypatch):
    # at r=2, (JTJT^-1)^5 = I, so x^5 - 1 shares eigenvalues with the
    # characteristic polynomial; they are roots of unity and must not fire.
    # The precondition is decided before any characteristic polynomial.
    def no_char_poly(M):
        raise AssertionError("char_poly called before the precondition")
    monkeypatch.setattr(rep_genus2, "char_poly", no_char_poly)
    x5m1 = IntPolynomial((-1, 0, 0, 0, 0, 1))
    fires, details = minpoly_certificate(TheoryParams(2), x5m1)
    assert not fires
    assert "Phi_1" in details
    # (x^2 + 1) * quartic: a cyclotomic factor next to the certifying one
    mixed = IntPolynomial((1, 0, 1)) * INFINITE_ORDER_QUARTIC
    fires, details = minpoly_certificate(TheoryParams(3), mixed)
    assert not fires
    assert "Phi_4" in details


def test_minpoly_certificate_fires_on_quartic_multiple():
    # no cyclotomic factor: a nontrivial gcd alone certifies
    q = IntPolynomial((2, 0, 1)) * INFINITE_ORDER_QUARTIC
    fires, details = minpoly_certificate(TheoryParams(3), q)
    assert fires, details


def test_certificate_eigenvalue_satisfies_quartic():
    # lambda = (3 - sqrt5 + i sqrt(2(1+3 sqrt5)))/4 is a root of the quartic
    # and lies on the unit circle without being a root of unity
    s5 = math.sqrt(5)
    lam = complex(3 - s5, math.sqrt(2 * (1 + 3 * s5))) / 4
    q = INFINITE_ORDER_QUARTIC
    val = sum(c * lam ** e for e, c in enumerate(q.coeffs))
    assert abs(val) < 1e-12
    assert abs(abs(lam) - 1) < 1e-12


def test_infinite_image_r3():
    rep = infinite_image_certificate(TheoryParams(3))
    assert rep.verdict == "infinite"
    assert rep.minpoly_fires


def test_infinite_image_r7_via_trace():
    rep = infinite_image_certificate(TheoryParams(7))
    assert rep.verdict == "infinite"
    assert rep.trace_fires


@pytest.mark.parametrize("r", [3, 5])
def test_minpoly_certificate_is_the_same_at_every_root(r):
    # Q is rational, so sigma_k gcd(P, Q) = gcd(sigma_k P, Q): the verdict
    # and the degree of the common factor do not depend on the root
    P = TheoryParams(r)
    want = minpoly_certificate(P)
    for k in _unit_roots(P.root_order):
        assert minpoly_certificate(P.with_root(k)) == want, (r, k)


def _quartic_divides_char_poly(P):
    """The reference route: gcd(char_poly(M), Q) over Q(zeta_N) is nontrivial."""
    cp = char_poly(_jtjt_matrix(P))
    return cp.gcd(CycPoly.from_int_poly(P.root_order, INFINITE_ORDER_QUARTIC)).degree >= 1


@pytest.mark.parametrize("r, every_root", [(2, True), (3, True), (5, True), (4, False)])
def test_residue_verdict_matches_exact_gcd(r, every_root):
    # a nonzero residue of det Q(M) is an exact "no"; every residue is 0
    # exactly where the quartic shares a factor with the characteristic
    # polynomial (r = 3)
    P = TheoryParams(r)
    roots = _unit_roots(P.root_order) if every_root else [P.root_exponent]
    for k in roots:
        Pk = P.with_root(k)
        nonzero = _quartic_residue_nonzero(Pk, INFINITE_ORDER_QUARTIC)
        assert nonzero == (not _quartic_divides_char_poly(Pk)), (r, k)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7])
def test_residue_primes_divide_no_denominator(monkeypatch, r):
    chosen = []
    search = rep_genus2.split_primes

    def recording(order, den=1):
        for sp in search(order, den):
            chosen.append(sp)
            yield sp
    monkeypatch.setattr(rep_genus2, "split_primes", recording)
    P = trace_params(r) if r % 2 else TheoryParams(r)
    _quartic_residue_nonzero(P, INFINITE_ORDER_QUARTIC)
    assert 1 <= len(chosen) <= rep_genus2.RESIDUE_PRIMES
    rep = genus2_rep(P)
    dens = [e.den for row in rep.j_field.rows for e in row]
    dens += [e.den for row in rep.jtilde.rows for e in row]
    dens += [x.den for x in rep.jcols]
    for sp in chosen:
        assert (sp.p - 1) % P.root_order == 0
        assert all(d % sp.p for d in dens), (r, sp)


@pytest.mark.parametrize("r", [2, 4, 5, 7])
def test_quartic_no_builds_no_char_poly(monkeypatch, r):
    # the residue test answers "no" at these levels: no characteristic
    # polynomial and no exact J T J T^-1 product is built
    def forbidden(*args):
        raise AssertionError("exact route taken on the residue 'no' path")
    monkeypatch.setattr(rep_genus2, "char_poly", forbidden)
    monkeypatch.setattr(rep_genus2, "_jtjt_matrix", forbidden)
    rep = infinite_image_certificate(TheoryParams(r))
    assert not rep.minpoly_fires
    assert rep.minpoly_details == "quartic shares no factor with the characteristic polynomial"


def test_quartic_r3_reaches_char_poly(monkeypatch):
    class Reached(Exception):
        pass

    def sentinel(M):
        raise Reached
    monkeypatch.setattr(rep_genus2, "char_poly", sentinel)
    with pytest.raises(Reached):
        infinite_image_certificate(TheoryParams(3))


@pytest.mark.parametrize("r", [3, 5, 7])
def test_infinite_image_builds_one_representation(r):
    # both certificates run at the trace root, so an odd level builds one
    # genus-2 representation, not one per route
    genus2_rep.cache_clear()
    trace_jtjt.cache_clear()
    infinite_image_certificate(TheoryParams(r))
    assert genus2_rep.cache_info().misses == 1


def test_infinite_image_r2_inconclusive():
    rep = infinite_image_certificate(TheoryParams(2))
    assert rep.verdict == "inconclusive"
    assert not rep.minpoly_fires and not rep.trace_fires


def test_r2_generators_have_finite_projective_order():
    """Supporting oracle for the inconclusive verdict: the tested elements
    have finite projective order at r=2 (full group enumeration is far out
    of desk scale, > 3*10^5 elements without closure)."""
    P = TheoryParams(2)
    N = P.root_order
    M = _jtjt_matrix(P)
    n = M.nrows
    X = M @ M
    X = X @ X
    X = X @ M          # M^5
    assert X.first_difference(ExactMatrix.diagonal(N, [CycNumber.one(N)] * n)) is None
    rep = genus2_rep(P)
    TJ = ExactMatrix.diagonal(N, rep.tdiag) @ rep.j_field
    Y = TJ @ TJ
    Y = Y @ Y
    Y = Y @ TJ         # (TJ)^5
    assert Y.first_difference(ExactMatrix.diagonal(N, [Y[0, 0]] * n)) is None


def test_trace_galois_sweep_r3():
    sweep = trace_galois_sweep(3)
    ks = [k for k, _ in sweep]
    assert ks == [1, 3, 7, 9]
    vals = {k: z for k, z in sweep}
    assert abs(vals[1].real - 4.2361) < 1e-3
