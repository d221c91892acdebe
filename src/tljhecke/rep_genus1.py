"""Genus-1 modular data: the S and T matrices and their exact relations.

S is the colored-Hopf-link matrix normalized by the global dimension D.
D need not lie in Q(zeta_N), so the relations are checked on S~ = D S, where
D enters only as D^2 and no square root is ever taken.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactnum import CycNumber
from .matrix import ExactMatrix
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
    """Unnormalized S matrix, the twists (the diagonal of T, as a vector),
    and the global constants."""

    params: TheoryParams
    s_tilde: ExactMatrix
    t: tuple[CycNumber, ...]
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
def t_matrix(params: TheoryParams) -> tuple[CycNumber, ...]:
    """The diagonal of T: the twist coefficients theta_i over the color set."""
    return tuple(twist_at(params, i) for i in color_set(params.level))


@lru_cache(maxsize=None)
def modular_data(params: TheoryParams) -> ModularData:
    return ModularData(params, s_matrix(params), t_matrix(params),
                       global_constants(params))


def verify_genus1_relations(params: TheoryParams) -> VerifyReport:
    """Exact genus-1 checks, stated with S~ = D S so that no square root of
    D^2 is taken:

    (i)   S^2 = I, checked as S~^2 = D^2 I;
    (ii)  (TS)^3 = kappa I with kappa = P+/D, checked as (T S~)^3 = P+ D^2 I
          (either sign of D gives the same identity);
    (iii) S symmetric.

    Since P+ P- = D^2, (ii) implies ((TS)^3)^2 = (P+/P-) I.
    """
    md = modular_data(params)
    st, t, gc = md.s_tilde, md.t, md.constants
    N = params.root_order
    n = st.nrows
    ident = ExactMatrix.identity(N, n)
    items = []

    s2 = st @ st
    diff = s2.first_difference(ident.scale(gc.d_squared))
    items.append(ReportItem("S^2 = I  (as S~^2 = D^2 I)", diff is None, diff))

    ts = st.scale_rows(t)
    ts3 = (ts @ ts) @ ts
    diff = ts3.first_difference(ident.scale(gc.p_plus * gc.d_squared))
    items.append(ReportItem("(TS)^3 = kappa I  (as (T S~)^3 = P+ D^2 I)",
                            diff is None, diff))

    diff = st.first_difference(st.transpose())
    items.append(ReportItem("S symmetric", diff is None, diff))

    notes = (f"level={params.level}, root zeta_{N}^{params.root_exponent}",
             "twist exponent convention: i(i+2)")
    return VerifyReport(f"genus-1 relations at level {params.level}", tuple(items), notes)
