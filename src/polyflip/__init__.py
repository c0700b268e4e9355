"""Exact combinatorics of (m+2)-angulations of a polygon: the flip order,
its polynomial realization by binomial products, the leading-monomial
bijection with admissible vectors, quotient-basis verification, and the
generating series tying the counts together.
"""

from .bijection import phi, psi
from .dissections import (
    Dissection,
    apex_region,
    chords_cross,
    enumerate_dissections,
    flip_up,
    is_final,
    make_q0,
    reflect,
    regions,
    validate,
    vertex_label,
)
from .dyck import (
    check_m_vector,
    enumerate_compositions,
    enumerate_dyck,
    first_violation,
    is_dyck,
    is_m_composition,
    monomial_to_vector,
    vector_to_lattice_path,
    vector_to_monomial,
    weight,
)
from .errors import (
    ConstructionStuck,
    EmptyCrossing,
    MalformedDissection,
    NotAQ0Diagonal,
    NotDyck,
    NotFinal,
    PolyflipError,
    SizeGuardExceeded,
    StructureViolation,
    VerificationFailure,
)
from .polynomials import (
    BinomialFactor,
    FactoredPoly,
    Monomial,
    SparsePoly,
    Variable,
    binomial_for_diagonal,
    divides,
    exact_quotient,
    expand,
    involution_image,
    leading_monomial,
    poly_for_dissection,
)
from .poset import (
    FlipPoset,
    ForestPoset,
    Interval,
    build_poset,
    interval_structure,
    mobius,
    to_dot,
    to_json_dict,
)
from .qsym import fundamental_qsym, verify_basis_graded, word_of_composition
from .series import (
    TruncatedSeries,
    ZPoly,
    fuss_catalan,
    rank_polynomial,
    residual_F,
    residual_I,
    residual_T,
    residuals_vanish,
    series_F,
    series_G,
    series_I,
    series_T,
)
from .verify import SUITES, VerificationReport, run_suite

__version__ = "0.1.0"
