"""High-precision verification toolkit for the double-series identity for pi
and the Grothendieck-Krivine constant, including the complex-case elliptic
root equation, Haagerup's bound, the Khintchine product, and the related
integral identities.
"""

from .core import BigReal, PrecisionContext, const_KG, const_L, const_pi
from .errors import (
    DomainError,
    InvalidPrecision,
    KgconstError,
    NoConvergence,
    NonFiniteEvaluation,
)
from .identities import IdentityId, IdentityReport, verify, verify_all
from .quadrature import QuadratureResult, integrate_analytic, integrate_even_periodic
from .series import (
    SeriesResult,
    double_series,
    fourier_a,
    fourier_a_quadrature,
    legendre_chi2,
    limit_S,
    partial_sums,
)
from .elliptic import (
    RootResult,
    ellip_E,
    ellip_E_imag,
    ellip_K,
    ellip_K_imag,
    haagerup_bound,
    kc_upper,
    krivine_complex_f,
    solve_x0,
)
from .khintchine import khintchine_accelerated, khintchine_partial

__version__ = "0.1.0"

__all__ = [
    "BigReal",
    "PrecisionContext",
    "const_pi",
    "const_L",
    "const_KG",
    "KgconstError",
    "InvalidPrecision",
    "DomainError",
    "NoConvergence",
    "NonFiniteEvaluation",
    "SeriesResult",
    "partial_sums",
    "limit_S",
    "fourier_a",
    "fourier_a_quadrature",
    "double_series",
    "legendre_chi2",
    "QuadratureResult",
    "integrate_analytic",
    "integrate_even_periodic",
    "RootResult",
    "ellip_K",
    "ellip_E",
    "ellip_K_imag",
    "ellip_E_imag",
    "haagerup_bound",
    "krivine_complex_f",
    "solve_x0",
    "kc_upper",
    "khintchine_partial",
    "khintchine_accelerated",
    "IdentityId",
    "IdentityReport",
    "verify",
    "verify_all",
    "__version__",
]
