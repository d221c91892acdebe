"""Tests for the genus-1 modular data and its exact relations."""
import math

from dataclasses import replace

import tljhecke.rep_genus1 as rep_genus1
from tljhecke.exactnum import CycNumber
from tljhecke.matrix import ExactMatrix
from tljhecke.recoupling import TheoryParams, color_set, global_constants
from tljhecke.rep_genus1 import (
    modular_data,
    s_matrix,
    t_matrix,
    verify_genus1_relations,
)


def test_s_matrix_one_dimensional_theory():
    # r=1 (p=3): single color, S = (1) after normalization
    P = TheoryParams(1)
    st = s_matrix(P)
    assert st.nrows == 1 and st[0, 0] == 1
    assert global_constants(P).d_squared == 1


def test_s_matrix_hopf_values_r2():
    # row i=0: (1, [2], [3]) -> (1, sqrt2, 1) at A = i e^(i pi/8)
    P = TheoryParams(2)
    st = s_matrix(P)
    row = [st[0, j].embed() for j in range(3)]
    assert abs(row[0] - 1) < 1e-12
    assert abs(row[1] - math.sqrt(2)) < 1e-12
    assert abs(row[2] - 1) < 1e-12


def test_s_matrix_first_row_is_loop_values():
    from tljhecke.recoupling import delta_at
    for r in (2, 3, 4, 5):
        P = TheoryParams(r)
        st = s_matrix(P)
        for j, c in enumerate(color_set(r)):
            assert st[0, j] == delta_at(P, c)


def test_t_matrix_entries():
    P2 = TheoryParams(2)
    t = t_matrix(P2)
    vals = [t[i].embed() for i in range(3)]
    assert abs(vals[0] - 1) < 1e-12
    assert abs(vals[1] - complex(math.cos(7 * math.pi / 8), math.sin(7 * math.pi / 8))) < 1e-12
    assert abs(vals[2] + 1) < 1e-12
    # r=3: diag(1, e^(4 pi i/5))
    P3 = TheoryParams(3)
    t3 = t_matrix(P3)
    assert t3[0] == 1
    assert t3[1] == CycNumber.zeta(10, 4)


def test_t_identity_color_always_one():
    for r in range(1, 8):
        assert t_matrix(TheoryParams(r))[0] == 1


def test_t_has_finite_order_dividing_2N():
    for r in (2, 3, 4, 5):
        P = TheoryParams(r)
        t = t_matrix(P)
        for i in range(len(t)):
            assert t[i] ** (2 * P.root_order) == 1, (r, i)


def test_relations_all_levels():
    for r in range(1, 11):
        rpt = verify_genus1_relations(TheoryParams(r))
        assert rpt.all_pass, f"r={r}\n{rpt}"


def test_s_squared_identity_at_every_primitive_root():
    # S^2 = I (as S~^2 = D^2 I) at every admissible primitive root, and the
    # whole genus-1 suite, (TS)^3 = kappa I included, passes there
    for r in range(1, 11):
        P = TheoryParams(r)
        N = P.root_order
        for k in range(1, N):
            if math.gcd(k, N) != 1:
                continue
            Pk = P.with_root(k)
            st = s_matrix(Pk)
            gc = global_constants(Pk)
            s2 = st @ st
            assert s2 == ExactMatrix.identity(N, st.nrows).scale(gc.d_squared), (r, k)
            rpt = verify_genus1_relations(Pk)
            assert rpt.all_pass, f"r={r}, k={k}\n{rpt}"


def test_relations_fail_with_conjugated_twist(monkeypatch):
    # negative control: T -> conj(T) breaks (TS)^3 = kappa I and nothing else
    P = TheoryParams(2)
    md = modular_data(P)
    monkeypatch.setattr(rep_genus1, "modular_data",
                        lambda params: replace(md, t=tuple(x.conj() for x in md.t)))
    rpt = verify_genus1_relations(P)
    assert not rpt.all_pass
    assert [it.passed for it in rpt.items] == [True, False, True]


def test_galois_conjugate_root_relations():
    # k -> 3k at r=5 (still coprime): relations pass identically
    P = TheoryParams(5)
    Pg = P.with_root(3 * P.root_exponent)
    assert Pg.root_exponent != P.root_exponent
    rpt = verify_genus1_relations(Pg)
    assert rpt.all_pass, str(rpt)


def test_galois_equivariance_of_matrices():
    # the matrices at root m*k are the entrywise Galois images of those at k
    r = 4
    P = TheoryParams(r)
    m = 5
    assert math.gcd(m, P.root_order) == 1
    Pm = P.with_root(m * P.root_exponent)
    assert s_matrix(Pm) == s_matrix(P).galois(m)
    assert t_matrix(Pm) == tuple(x.galois(m) for x in t_matrix(P))


def test_modular_data_bundle():
    md = modular_data(TheoryParams(2))
    assert md.s_tilde.nrows == 3
    assert len(md.t) == 3
    assert md.constants.d_squared == 4
