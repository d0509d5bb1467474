"""Exact quotient-covering signatures and field-of-definition descent checks
for algebraic curves with explicit automorphism data over cyclotomic fields."""

from .descent import (
    DescentVerdict,
    FamilyTriple,
    bielliptic_quartic,
    family_rational_descent,
    family_real_definability,
    weil_descent_order2,
)
from .exactnum import (
    CyclotomicElement,
    GaloisElement,
    common_order,
    conjugation,
    euler_phi,
)
from .matgroup import DEFAULT_BOUND, closure, element_order
from .plane import (
    PlaneCurve,
    ProjMap,
    conjugate_curve,
    is_automorphism,
    is_smooth,
    require_isomorphism,
)
from .polyring import SparsePoly, distinct_root_count
from .ramify import (
    Signature,
    fixed_point_count,
    is_odd_signature,
    odd_signature_verdict,
    plane_quartic_stratum_rows,
    signature,
)
from .serialize import InputDocument, parse_input, to_document
from .superell import (
    QGonalCurve,
    QGonalMap,
    exceptional_qgonal_rows,
    qgonal_real_descent,
    qgonal_signature,
)

__all__ = [
    "CyclotomicElement",
    "DEFAULT_BOUND",
    "DescentVerdict",
    "FamilyTriple",
    "GaloisElement",
    "InputDocument",
    "PlaneCurve",
    "ProjMap",
    "QGonalCurve",
    "QGonalMap",
    "Signature",
    "SparsePoly",
    "bielliptic_quartic",
    "closure",
    "common_order",
    "conjugate_curve",
    "conjugation",
    "distinct_root_count",
    "element_order",
    "euler_phi",
    "exceptional_qgonal_rows",
    "family_rational_descent",
    "family_real_definability",
    "fixed_point_count",
    "is_automorphism",
    "is_odd_signature",
    "is_smooth",
    "odd_signature_verdict",
    "parse_input",
    "plane_quartic_stratum_rows",
    "qgonal_real_descent",
    "qgonal_signature",
    "require_isomorphism",
    "signature",
    "to_document",
    "weil_descent_order2",
]

__version__ = "0.1.0"
