"""Exact arithmetic for the Ceresa cycle of bielliptic Picard curves.

Decides whether the Ceresa cycle of y^3 = x^4 + ax^2 + b is torsion via the
marked point on a sextic twist, produces machine-checkable infinite-order
certificates from finite-field data, enumerates the torsion locus on the
t-line, and computes canonical heights of the marked points.
"""

__version__ = "0.1.0"

from .arith import IntPolynomial, Rational
from .elliptic import (
    CurvePoint,
    Genus1Point,
    TorsionGroupQ,
    WeierstrassCurveFp,
    WeierstrassCurveQ,
    division_poly,
    divide_point,
    torsion_j0_Q,
)
from .heights import HeightValue, NorthcottRow, canonical_height, naive_height, northcott_scan
from .picard import (
    AssociatedCurves,
    CeresaVerdict,
    DegenerateCurve,
    PicardCurve,
    PicardInvariants,
    TorsionLocusEntry,
    associated_curves,
    canonical_model,
    decide_ceresa,
    decide_ceresa_t,
    enumerate_torsion_locus,
    invariants,
    is_isomorphic,
)
from .ffcert import (
    BadReduction,
    CountRecord,
    FactorizationFailure,
    FrobeniusDetResult,
    InfinitudeCertificate,
    InvalidHint,
    LPolyRecord,
    LiftSumResult,
    NoCertificateFound,
    certify_infinite,
    count_curve,
    frobenius_det,
    lift_sum,
    lpoly,
    parse_certificate,
    serialize_certificate,
    validate_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
