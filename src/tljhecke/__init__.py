"""Exact Temperley-Lieb-Jones recoupling data, modular data, and the
genus-1/genus-2 projective Hecke-group representations, with exact
cyclotomic arithmetic throughout.
"""

from .exactnum import (
    CycNumber,
    IntPolynomial,
    LaurentFraction,
    LaurentPoly,
    NonMonic,
    PoleAtRoot,
    Rational,
    cyclotomic_poly,
    is_cyclotomic,
    specialize,
)
from .matrix import CycPoly, ExactMatrix, SignedSqrtMatrix, char_poly
from .recoupling import (
    NotAdmissible,
    NotInteger,
    TheoryParams,
    admissible,
    color_set,
    delta,
    global_constants,
    qfact,
    qint,
    sixj,
    tet,
    theta_net,
    twist,
    verlinde_dim,
)
from .rep_genus1 import modular_data, s_matrix, t_matrix, verify_genus1_relations
from .rep_genus2 import (
    coupling_a,
    coupling_a_bar,
    enumerate_basis,
    genus2_rep,
    infinite_image_certificate,
    jtilde,
    t_genus2,
    trace_jtjt,
    trace_table,
    verify_genus2_relations,
)
from .sl2_hecke import (
    MulticurveData,
    NotPrimitive,
    SL2Matrix,
    classify,
    eval_word,
    hecke_generators,
    hyperelliptic_image_check,
    thurston_rep,
    verify_presentation,
)
from .spin import (
    NotApplicable,
    QuadraticForm,
    arf,
    flat_spin_parity,
    orbit_counts,
    reducibility_report,
    spin_dims,
)

__version__ = "0.1.0"
