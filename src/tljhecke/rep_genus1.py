"""Genus-1 modular data: the S and T matrices and their exact relations.

S is the colored-Hopf-link matrix normalized by the global dimension D;
relations involving an odd power of D are checked in squared form so that
every computation stays inside Q(zeta_N).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .matrix import ExactMatrix, SignedSqrtMatrix
from .recoupling import (
    GlobalConstants,
    TheoryParams,
    color_set,
    global_constants,
    qint_at,
    twist_at,
)
from .report import ReportItem, VerifyReport


@dataclass(frozen=True)
class ModularData:
    """Unnormalized S matrix, diagonal T, and the global constants."""

    params: TheoryParams
    s_tilde: ExactMatrix
    t: ExactMatrix
    constants: GlobalConstants


@lru_cache(maxsize=None)
def s_matrix(params: TheoryParams) -> ExactMatrix:
    """Unnormalized S: entries (-1)^(i+j) [(i+1)(j+1)] (colored Hopf link).

    The unitary S divides every entry by D; since D need not lie in the
    field, downstream identities consume S_tilde and D^2 only.
    """
    cs = color_set(params.level)
    N = params.root_order
    rows = []
    for i in cs:
        row = []
        for j in cs:
            v = qint_at(params, (i + 1) * (j + 1))
            row.append(-v if (i + j) % 2 else v)
        rows.append(row)
    return ExactMatrix(N, rows)


@lru_cache(maxsize=None)
def t_matrix(params: TheoryParams) -> ExactMatrix:
    """Diagonal matrix of twist coefficients theta_i over the color set."""
    return ExactMatrix.diagonal(params.root_order,
                                [twist_at(params, i) for i in color_set(params.level)])


def s_unitary(params: TheoryParams) -> SignedSqrtMatrix:
    """S = S_tilde / D as (square, sign) pairs: squares are S_tilde^2/D^2."""
    st = s_matrix(params)
    d2_inv = global_constants(params).d_squared.inverse()
    squares = st.map(lambda e: e * e * d2_inv)
    signs = [[e.real_sign() for e in row] for row in st.rows]
    return SignedSqrtMatrix(squares, signs)


@lru_cache(maxsize=None)
def modular_data(params: TheoryParams) -> ModularData:
    return ModularData(params, s_matrix(params), t_matrix(params),
                       global_constants(params))


def verify_genus1_relations(params: TheoryParams) -> VerifyReport:
    """Exact genus-1 checks, in squared form where D is involved:

    (i)  S^2 = I, checked as S~^2 = D^2 I;
    (ii) ((TS)^3)^2 = (P+/P-) I, checked as (T S~)^6 = (P+/P-) (D^2)^3 I;
    (iii) S symmetric.
    """
    md = modular_data(params)
    st, t, gc = md.s_tilde, md.t, md.constants
    N = params.root_order
    n = st.nrows
    items = []

    s2 = st @ st
    want = ExactMatrix.identity(N, n).scale(gc.d_squared)
    diff = s2.first_difference(want)
    items.append(ReportItem("S^2 = I  (as S~^2 = D^2 I)", diff is None, diff))

    ts = t @ st
    ts6 = ts ** 6
    scalar = gc.kappa_squared * gc.d_squared ** 3
    want = ExactMatrix.identity(N, n).scale(scalar)
    diff = ts6.first_difference(want)
    items.append(ReportItem("((TS)^3)^2 = (P+/P-) I  (as (T S~)^6 = (P+/P-) D^6 I)",
                            diff is None, diff))

    if gc.d is not None and gc.kappa is not None:
        # D exists in the field, so the unsquared form is also checkable
        ts3 = (ts @ ts) @ ts
        want = ExactMatrix.identity(N, n).scale(gc.kappa * gc.d ** 3)
        diff = ts3.first_difference(want)
        items.append(ReportItem("(TS)^3 = kappa I  (unsquared; D in the field)",
                                diff is None, diff))

    diff = st.first_difference(st.transpose())
    items.append(ReportItem("S symmetric", diff is None, diff))

    notes = (f"level={params.level}, root zeta_{N}^{params.root_exponent}",
             f"twist exponent convention: {'i(i+2)' if params.twist_exponent == 'plus' else 'i(i-2)'}")
    return VerifyReport(f"genus-1 relations at level {params.level}", tuple(items), notes)
