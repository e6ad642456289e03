"""Coherent states over classical orthogonal polynomial families.

Exact ladder-operator algebra on the monomial basis, coherent-state
expansions with Bessel-type closed forms, quadratic-spectrum revival
dynamics, and a truncated-Gauss-sum divisor demonstration.

Each public name is imported from its home module on first access (PEP 562),
so ``import cohstates`` loads no layer, and a program pays only for the
layers it uses: ``ladder`` needs only the stdlib, ``specfun`` loads mpmath on
the first Bessel call, and the other layers load numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cstates": (
        "CSExpansion", "Family", "build_laguerre_cs", "build_pt_cs", "eval_laguerre_cs",
        "eval_laguerre_cs_closed", "eval_pt_cs", "eval_pt_cs_closed", "laguerre_series_sum",
        "normalize", "pt_series_sum", "verify_annihilation", "weights",
    ),
    "dynamics": (
        "AutocorrTrace", "RevivalReport", "Spectrum", "autocorr", "detect_revivals",
        "pt_spectrum", "revival_time",
    ),
    "gaussfactor": ("GaussSumReport", "factor_scan", "gauss_sum"),
    "ladder": (
        "DegenerateParameterError", "LadderOp", "MonoPoly", "algebra_report", "apply",
        "commutator", "hyp_from_operator", "laguerre_from_operator", "monomial",
    ),
    "specfun": ("bessel_j", "gegenbauer", "hyp_terminating", "laguerre", "ln_gamma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
