"""Coherent states over classical orthogonal polynomial families.

Exact ladder-operator algebra on the monomial basis, coherent-state
expansions with Bessel-type closed forms, quadratic-spectrum revival
dynamics, and a truncated-Gauss-sum divisor demonstration.
"""

from .cstates import (
    CSExpansion,
    Family,
    build_laguerre_cs,
    build_pt_cs,
    eval_laguerre_cs,
    eval_laguerre_cs_closed,
    eval_pt_cs,
    eval_pt_cs_closed,
    laguerre_series_sum,
    normalize,
    pt_series_sum,
    verify_annihilation,
    weights,
)
from .dynamics import (
    AutocorrTrace,
    RevivalReport,
    Spectrum,
    autocorr,
    detect_revivals,
    pt_spectrum,
    revival_time,
)
from .gaussfactor import GaussSumReport, factor_scan, gauss_sum
from .ladder import (
    DegenerateParameterError,
    LadderOp,
    MonoPoly,
    algebra_report,
    apply,
    commutator,
    hyp_from_operator,
    laguerre_from_operator,
    monomial,
)
from .specfun import bessel_j, gegenbauer, hyp_terminating, laguerre, ln_gamma, pochhammer

__version__ = "0.1.0"

__all__ = [
    "CSExpansion",
    "Family",
    "build_laguerre_cs",
    "build_pt_cs",
    "eval_laguerre_cs",
    "eval_laguerre_cs_closed",
    "eval_pt_cs",
    "eval_pt_cs_closed",
    "laguerre_series_sum",
    "normalize",
    "pt_series_sum",
    "verify_annihilation",
    "weights",
    "AutocorrTrace",
    "RevivalReport",
    "Spectrum",
    "autocorr",
    "detect_revivals",
    "pt_spectrum",
    "revival_time",
    "GaussSumReport",
    "factor_scan",
    "gauss_sum",
    "DegenerateParameterError",
    "LadderOp",
    "MonoPoly",
    "algebra_report",
    "apply",
    "commutator",
    "hyp_from_operator",
    "laguerre_from_operator",
    "monomial",
    "bessel_j",
    "gegenbauer",
    "hyp_terminating",
    "laguerre",
    "ln_gamma",
    "pochhammer",
    "__version__",
]
