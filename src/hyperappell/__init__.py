"""Exact hypercomplex Appell polynomial sequences over Cl(0,n).

The package builds Appell sequences of paravector-valued polynomials from
nilpotent creation matrices, transfers them to classical families
(Bernoulli, Euler, Frobenius-Euler, Hermite), and certifies monogenicity
and the derivative ladder symbolically, all in rational arithmetic.
"""

from .appell import (
    FAMILIES,
    AppellPoly,
    AppellSequence,
    CoeffSequence,
    build_family,
    build_phi,
    closed_form_coefficient,
    coefficient_sequence,
    eval_poly,
    exp_truncated,
    expand_multivariate,
    expand_sequence,
    family_terms,
    restrict_poly,
    vector_power_expansion,
)
from .clifford import Multivector, Paravector, blade_product, vector_power
from .operators import (
    DegreeCheck,
    VerifyReport,
    certify,
    check_appell,
    check_intertwining,
    check_monogenic,
    check_xi_derivation,
    cr,
    cr_bar,
    dirac,
    partial_x0,
)
from .polynomials import CliffordPoly
from .rationals import double_factorial, parse_rational, read_rational
from .trimatrix import (
    TRANSFER_FAMILIES,
    TriMatrix,
    appell_matrix,
    appell_rows,
    creation_matrix,
    derivation_matrix,
    egf_reciprocal,
    nilpotent_exp,
    pascal_matrix,
    transfer_matrix,
    transfer_column,
    tri_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AppellPoly",
    "AppellSequence",
    "CliffordPoly",
    "CoeffSequence",
    "DegreeCheck",
    "FAMILIES",
    "Multivector",
    "Paravector",
    "TRANSFER_FAMILIES",
    "TriMatrix",
    "VerifyReport",
    "appell_matrix",
    "appell_rows",
    "blade_product",
    "build_family",
    "build_phi",
    "certify",
    "check_appell",
    "check_intertwining",
    "check_monogenic",
    "check_xi_derivation",
    "closed_form_coefficient",
    "coefficient_sequence",
    "cr",
    "cr_bar",
    "creation_matrix",
    "derivation_matrix",
    "dirac",
    "double_factorial",
    "egf_reciprocal",
    "eval_poly",
    "exp_truncated",
    "expand_multivariate",
    "expand_sequence",
    "family_terms",
    "nilpotent_exp",
    "parse_rational",
    "partial_x0",
    "pascal_matrix",
    "read_rational",
    "restrict_poly",
    "transfer_column",
    "transfer_matrix",
    "tri_inverse",
    "vector_power",
    "vector_power_expansion",
]
