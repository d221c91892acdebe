"""Exact Temperley-Lieb-Jones recoupling data, modular data, and the
genus-1/genus-2 projective Hecke-group representations, with exact
cyclotomic arithmetic throughout.

The names of `sl2_hecke` (Hecke-group words, presentation checks,
Thurston's construction) and `spin` (spin structures and the r = 4l+2
decomposition), and the two modules themselves, load on first use:
`tljhecke.thurston_rep` or `from tljhecke import spin_dims` imports the
module then, so that importing the package, or `tljhecke.cli`, does not
pay for them.
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

__version__ = "0.1.0"

# public name -> the submodule that defines it (or is it), imported on first use
_ON_DEMAND = {
    **dict.fromkeys(("sl2_hecke", "MulticurveData", "NotPrimitive", "SL2Matrix", "classify",
                     "eval_word", "hecke_generators", "hyperelliptic_image_check",
                     "thurston_rep", "verify_presentation"), "sl2_hecke"),
    **dict.fromkeys(("spin", "NotApplicable", "QuadraticForm", "arf", "flat_spin_parity",
                     "orbit_counts", "reducibility_report", "spin_dims"), "spin"),
}


def __getattr__(name):
    module = _ON_DEMAND.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_ON_DEMAND})
