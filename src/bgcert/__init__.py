"""Exact-rational certification of a Bogomolov-Gieseker type inequality for
slope stable sheaves with minimal first Chern class on polarized Calabi-Yau
threefolds: Chern-vector calculus, Riemann-Roch, stability slopes, and a
certifier that replays the case analysis and emits machine-checkable
certificates. All arithmetic is exact; there is no floating point anywhere.
"""

from .certifier import (
    AffineFn,
    Candidate,
    CastelnuovoStatus,
    Certificate,
    HypothesisMode,
    Verdict,
    case1_check,
    case2_check,
    case3_bound,
    certificate_to_jsonable,
    certify_theorem,
    check_ineq_1_2,
    enumerate_candidates,
    ext1_cap,
    min_positive_ch2H,
)
from .chern import (
    ChernVector,
    ch_from_chern_classes,
    chern_classes_from_ch,
    dual_ch,
    euler_characteristic,
    extend_by_trivial,
    ideal_twist_curve_ch,
    ideal_twist_point_ch,
    is_integral,
    line_bundle_ch,
    quotient_by_trivial,
    triangle_ch,
)
from .errors import BgcertError, VirtualClassWarning
from .geometry import (
    CurveBound,
    PolarizedCY3,
    castelnuovo_range,
    default_chi_min,
    derive_dimH,
    from_preset,
)
from .rationals import INFINITY, ExtendedRational, format_rational, parse_rational, to_jsonable
from .stability import (
    SandwichReport,
    bg_discriminant,
    bg_ok,
    lemma1_slope_window,
    lemma2_slope_window,
    nu_zero_tsq,
    sandwich_check,
    slope_mu,
    tilt_slope_nu,
)

__version__ = "0.1.0"
