"""Coherent-state expansions over two polynomial families.

A state is a lowering-operator eigenstate expanded over a polynomial family:

* Laguerre class: sum_n c_n L_n^lam(x) with c_n = Gamma(lam+1) alpha^n /
  Gamma(lam+n+1); its unnormalized closed form is
  Gamma(lam+1) (x alpha)^(-lam/2) e^alpha J_lam(2 sqrt(x alpha)).
* Poschl-Teller class (Gegenbauer): sum_n d_n C_n^rho(y) with
  d_n = Gamma(2 rho) q^n / Gamma(2 rho + n); by the Gegenbauer generating
  function its unnormalized closed form at y = cos(theta) is
  Gamma(rho+1/2) e^(q cos theta) (q sin(theta)/2)^(1/2-rho)
  J_(rho-1/2)(q sin theta).

Normalization uses the natural orthogonality norms of each family
(weight x^lam e^-x on [0, inf) for Laguerre; (1-y^2)^(rho-1/2) on [-1, 1]
for Gegenbauer), which turn the expansion coefficients into level
populations.  Coefficients and norms are computed through log-Gamma
differences so that truncation orders up to the hard cap of 500 never
overflow.

``verify_annihilation`` rebuilds the truncated eigenstate on the monomial
basis one exact rational coefficient per degree and measures the residual
of the eigenvalue equation, which depends on the eigenvalue only through
|ev|^2; it is exactly the single truncation tail term, so it decays
factorially with the truncation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import specfun
from .ladder import LadderOp, _step, apply  # noqa: F401  (perfbench traces cstates.apply)

__all__ = [
    "Family",
    "CSExpansion",
    "build_laguerre_cs",
    "build_pt_cs",
    "normalize",
    "weights",
    "eval_laguerre_cs",
    "eval_pt_cs",
    "eval_laguerre_cs_closed",
    "eval_pt_cs_closed",
    "laguerre_series_sum",
    "pt_series_sum",
    "verify_annihilation",
    "ORDER_CAP",
]

ORDER_CAP = 500


class Family(Enum):
    LAGUERRE = "laguerre"
    POSCHL_TELLER = "poschl-teller"


@dataclass(frozen=True)
class CSExpansion:
    """A truncated coherent-state expansion.

    ``index`` is the family parameter (lam for the Laguerre class, rho for
    the Poschl-Teller class).  ``coeffs[n]`` multiplies the n-th family
    polynomial; ``norm`` is the weighted l2 norm of the truncated expansion.
    ``measure_hook``, when set, multiplies every evaluation by a
    caller-supplied ground-state factor of the spatial variable.
    """

    family: Family
    index: float
    eigenvalue: complex
    coeffs: np.ndarray
    norm: float
    measure_hook: Optional[Callable[[float], float]] = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _log_h(family: Family, index: float, n: int) -> float:
    """Log of the squared orthogonality norm h_n of the n-th polynomial."""
    if family is Family.LAGUERRE:
        # integral of (L_n^lam)^2 x^lam e^-x = Gamma(n+lam+1)/n!
        return specfun.ln_gamma(n + index + 1.0) - specfun.ln_gamma(n + 1.0)
    # integral of (C_n^rho)^2 (1-y^2)^(rho-1/2)
    #   = pi 2^(1-2 rho) Gamma(n+2 rho) / (n! (n+rho) Gamma(rho)^2)
    rho = index
    return (
        math.log(math.pi)
        + (1.0 - 2.0 * rho) * math.log(2.0)
        + specfun.ln_gamma(n + 2.0 * rho)
        - specfun.ln_gamma(n + 1.0)
        - math.log(n + rho)
        - 2.0 * specfun.ln_gamma(rho)
    )


def _gamma_shift(family: Family, index: float) -> float:
    """The s in coeffs[n] = Gamma(s) ev^n / Gamma(s+n)."""
    return index + 1.0 if family is Family.LAGUERRE else 2.0 * index


def _log_coeff_mag(family: Family, index: float, ev_abs: float, n: int) -> float:
    s = _gamma_shift(family, index)
    return specfun.ln_gamma(s) - specfun.ln_gamma(s + n) + n * math.log(ev_abs)


def _coeff_vector(family: Family, index: float, ev: complex, order: int) -> np.ndarray:
    if ev == 0:
        out = np.zeros(order + 1, dtype=complex)
        out[0] = 1.0
        return out
    mag = np.array(
        [_log_coeff_mag(family, index, abs(ev), n) for n in range(order + 1)]
    )
    phase = cmath.phase(complex(ev)) * np.arange(order + 1)
    return np.exp(mag + 1j * phase)


def _pick_order(family: Family, index: float, ev: complex, tail_tol: float) -> int:
    """Smallest order whose weighted tail is below tail_tol^2 of the head."""
    if ev == 0:
        return 0
    logw = np.array(
        [
            2.0 * _log_coeff_mag(family, index, abs(ev), n)
            + _log_h(family, index, n)
            for n in range(ORDER_CAP + 1)
        ]
    )
    w = np.exp(logw - logw.max())
    head = np.cumsum(w)
    total = head[-1]
    tol2 = tail_tol * tail_tol
    for n in range(ORDER_CAP + 1):
        if total - head[n] <= tol2 * head[n]:
            return n
    raise ValueError(
        f"tail tolerance {tail_tol!r} not reachable within order cap {ORDER_CAP}"
    )


def _build(
    family: Family,
    index: float,
    ev: complex,
    tail_tol: float,
    order: Optional[int],
    measure_hook,
) -> CSExpansion:
    if tail_tol is not None and not tail_tol > 0.0:
        raise ValueError(f"tail tolerance must be positive, got {tail_tol!r}")
    if order is None:
        order = _pick_order(family, index, ev, tail_tol)
    elif not 0 <= order <= ORDER_CAP:
        raise ValueError(f"truncation order must lie in [0, {ORDER_CAP}], got {order}")
    cs = CSExpansion(
        family=family,
        index=float(index),
        eigenvalue=complex(ev),
        coeffs=_coeff_vector(family, index, ev, order),
        norm=1.0,
        measure_hook=measure_hook,
    )
    return normalize(cs)


def build_laguerre_cs(
    lam: float,
    alpha: complex,
    tail_tol: float = 1e-12,
    order: Optional[int] = None,
    measure_hook=None,
) -> CSExpansion:
    """Build the Laguerre-class state with coefficients
    Gamma(lam+1) alpha^n / Gamma(lam+n+1), normalized.

    The truncation order is the smallest N whose weighted tail
    sum_{n>N} |c_n|^2 h_n is below tail_tol^2 times the head, unless an
    explicit ``order`` is given.
    """
    if not lam > -1.0:
        raise ValueError(f"Laguerre index must satisfy lam > -1, got {lam!r}")
    return _build(Family.LAGUERRE, lam, alpha, tail_tol, order, measure_hook)


def build_pt_cs(
    rho: float,
    q: complex,
    tail_tol: float = 1e-12,
    order: Optional[int] = None,
    measure_hook=None,
) -> CSExpansion:
    """Build the Poschl-Teller-class state with coefficients
    Gamma(2 rho) q^n / Gamma(2 rho + n), normalized."""
    if not rho > 0.0:
        raise ValueError(f"index must satisfy rho > 0, got {rho!r}")
    return _build(Family.POSCHL_TELLER, rho, q, tail_tol, order, measure_hook)


def _log_weight_terms(cs: CSExpansion) -> np.ndarray:
    """log(|coeffs[n]|^2 h_n) from the stored coefficient vector."""
    mags = np.abs(cs.coeffs)
    logs = np.full(len(mags), -np.inf)
    nz = mags > 0.0
    logh = np.array([_log_h(cs.family, cs.index, n) for n in range(len(mags))])
    logs[nz] = 2.0 * np.log(mags[nz]) + logh[nz]
    return logs


def normalize(cs: CSExpansion) -> CSExpansion:
    """Return a copy with norm = sqrt(sum_n |coeffs[n]|^2 h_n)."""
    logs = _log_weight_terms(cs)
    m = logs.max()
    norm = math.exp(0.5 * m) * math.sqrt(float(np.sum(np.exp(logs - m))))
    return replace(cs, norm=norm)


def weights(cs: CSExpansion) -> np.ndarray:
    """Level populations p_n = |coeffs[n]|^2 h_n / norm^2; they sum to 1."""
    if not cs.norm > 0.0:
        raise ValueError("state is not normalized")
    logs = _log_weight_terms(cs)
    return np.exp(logs - 2.0 * math.log(cs.norm))


def eval_laguerre_cs(cs: CSExpansion, x: float) -> complex:
    """Evaluate the normalized Laguerre-class state at x >= 0."""
    if cs.family is not Family.LAGUERRE:
        raise ValueError(f"expected a Laguerre-class state, got {cs.family}")
    if x < 0.0:
        raise ValueError(f"Laguerre-class argument must satisfy x >= 0, got {x!r}")
    acc = _series_eval(cs.coeffs, lambda n_max: _laguerre_values(n_max, cs.index, x))
    out = acc / cs.norm
    if cs.measure_hook is not None:
        out *= cs.measure_hook(x)
    return out


def eval_pt_cs(cs: CSExpansion, y: float) -> complex:
    """Evaluate the normalized Poschl-Teller-class state at y in [-1, 1]."""
    if cs.family is not Family.POSCHL_TELLER:
        raise ValueError(f"expected a Poschl-Teller-class state, got {cs.family}")
    if abs(y) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {y!r}")
    acc = _series_eval(cs.coeffs, lambda n_max: _gegenbauer_values(n_max, cs.index, y))
    out = acc / cs.norm
    if cs.measure_hook is not None:
        out *= cs.measure_hook(y)
    return out


def _laguerre_values(n_max: int, lam: float, x: float) -> np.ndarray:
    vals = np.empty(n_max + 1)
    vals[0] = 1.0
    if n_max >= 1:
        vals[1] = 1.0 + lam - x
    for k in range(1, n_max):
        vals[k + 1] = ((2.0 * k + 1.0 + lam - x) * vals[k] - (k + lam) * vals[k - 1]) / (k + 1.0)
    return vals


def _gegenbauer_values(n_max: int, rho: float, y: float) -> np.ndarray:
    vals = np.empty(n_max + 1)
    vals[0] = 1.0
    if n_max >= 1:
        vals[1] = 2.0 * rho * y
    for k in range(1, n_max):
        vals[k + 1] = (2.0 * (k + rho) * y * vals[k] - (k + 2.0 * rho - 1.0) * vals[k - 1]) / (k + 1.0)
    return vals


def _series_eval(coeffs: np.ndarray, poly_values) -> complex:
    vals = poly_values(len(coeffs) - 1)
    return complex(np.sum(coeffs * vals))


def laguerre_series_sum(lam: float, alpha: complex, x: float, n_terms: int) -> complex:
    """Unnormalized partial sum sum_{n<=n_terms} c_n L_n^lam(x)."""
    coeffs = _coeff_vector(Family.LAGUERRE, lam, alpha, n_terms)
    return _series_eval(coeffs, lambda n_max: _laguerre_values(n_max, lam, x))


def pt_series_sum(rho: float, q: complex, y: float, n_terms: int) -> complex:
    """Unnormalized partial sum sum_{n<=n_terms} d_n C_n^rho(y)."""
    coeffs = _coeff_vector(Family.POSCHL_TELLER, rho, q, n_terms)
    return _series_eval(coeffs, lambda n_max: _gegenbauer_values(n_max, rho, y))


def eval_laguerre_cs_closed(lam: float, alpha: float, x: float) -> float:
    """Unnormalized closed form of the Laguerre-class state,
    Gamma(lam+1) (x alpha)^(-lam/2) e^alpha J_lam(2 sqrt(x alpha)).

    Restricted to real alpha > 0 and x > 0 so the power prefactor needs no
    branch choice.
    """
    if not lam > -1.0:
        raise ValueError(f"Laguerre index must satisfy lam > -1, got {lam!r}")
    if not (alpha > 0.0 and x > 0.0):
        raise ValueError(f"closed form requires alpha > 0 and x > 0, got {alpha!r}, {x!r}")
    xa = x * alpha
    return (
        math.exp(specfun.ln_gamma(lam + 1.0) + alpha - 0.5 * lam * math.log(xa))
        * specfun.bessel_j(lam, 2.0 * math.sqrt(xa))
    )


def eval_pt_cs_closed(rho: float, q: float, theta: float) -> float:
    """Unnormalized closed form of the Poschl-Teller-class state at
    y = cos(theta),
    Gamma(rho+1/2) e^(q cos theta) (q sin(theta)/2)^(1/2-rho) J_(rho-1/2)(q sin theta).

    This is the Gegenbauer generating function
    sum_n t^n C_n^rho(cos theta) / (2 rho)_n; the Bessel order rho - 1/2 is
    forced by the theta -> 0 limit, where both sides reduce to e^q.
    Restricted to q > 0 and theta strictly inside (0, pi), where the power
    prefactor is finite and real.
    """
    if not rho > 0.0:
        raise ValueError(f"index must satisfy rho > 0, got {rho!r}")
    if not q > 0.0:
        raise ValueError(f"closed form requires q > 0, got {q!r}")
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie strictly inside (0, pi), got {theta!r}")
    s = q * math.sin(theta)
    return (
        math.exp(
            specfun.ln_gamma(rho + 0.5)
            + q * math.cos(theta)
            + (0.5 - rho) * math.log(0.5 * s)
        )
        * specfun.bessel_j(rho - 0.5, s)
    )


def _annihilation_ops(family: str, params) -> tuple[LadderOp, LadderOp]:
    if family == "laguerre":
        lam = Fraction(params)
        return LadderOp.k_minus(lam), LadderOp.k_tilde_plus(lam)
    if family == "hypergeometric":
        b, c = params
        return LadderOp.hyp_k_minus(Fraction(b), Fraction(c)), LadderOp.hyp_k_tilde_plus(Fraction(b), Fraction(c))
    raise ValueError(f"unknown family {family!r}; expected 'laguerre' or 'hypergeometric'")


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for positive integers of any size, to within one ulp.

    The quotient is scaled by a power of 4 to about 2^128 before
    ``math.isqrt``, so neither it nor its root leaves the double range until
    ``math.ldexp`` scales the root back.
    """
    shift = (q.bit_length() - p.bit_length()) // 2 + 64
    scaled = (p << 2 * shift) // q if shift >= 0 else p // (q << -2 * shift)
    return math.ldexp(math.isqrt(scaled), -shift)


def _abs2_sum(abs2: Fraction, coeffs: list) -> tuple[int, int]:
    """sum_k abs2^k coeffs[k]^2 as an unreduced (numerator, denominator),
    by Horner's rule in integers over one common denominator (no gcds)."""
    p, q = abs2.numerator, abs2.denominator
    den = math.lcm(*(c.denominator for c in coeffs))
    acc, p_k = 0, 1
    for c in coeffs:
        acc = acc * q + (c.numerator * (den // c.denominator)) ** 2 * p_k
        p_k *= p
    return acc, den * den * q ** (len(coeffs) - 1)


def verify_annihilation(family: str, params, eigenvalue, trunc_order: int) -> float:
    """Residual of the lowering-operator eigenvalue equation, computed exactly.

    The truncated state sum_{k<=N} ((-ev)^k / k!) Kt+^k x^0 has the
    coefficient (-ev)^k r_k on x^k, with r_0 = 1, r_k = r_(k-1) kt(k-1) / k
    and kt(j) the Kt+ factor on x^j.  Applying K- + ev term by term leaves
    (-ev)^j ev (r_j - km(j+1) r_(j+1)) on x^j for j < N and (-ev)^N ev r_N on
    x^N, so ||(K- + ev) state|| / ||state|| in the coefficient l2 norm
    depends on ev only through the exact rational |ev|^2.  Below the
    truncation edge the action cancels exactly, so the residual is the lone
    degree-N tail term and decreases factorially in N.  It is exactly 0 for
    eigenvalue 0 and correct to one ulp down to the smallest normal double.

    ``family`` is "laguerre" (params = lam) or "hypergeometric"
    (params = (b, c)); ``eigenvalue`` must be finite.
    """
    if trunc_order < 2:
        raise ValueError(f"truncation order must be >= 2, got {trunc_order}")
    k_minus, k_tilde_plus = _annihilation_ops(family, params)
    if isinstance(eigenvalue, (int, Fraction)):
        abs2 = Fraction(eigenvalue) ** 2
    else:
        z = complex(eigenvalue)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"eigenvalue must be finite, got {eigenvalue!r}")
        abs2 = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2

    # ev = 0 leaves x^0 alone, so Kt+ is applied at degree 0 only
    order = trunc_order if abs2 else 1
    r = [Fraction(1)]
    for k in range(1, order + 1):
        rk, _ = _step(k_tilde_plus, r[-1], k - 1)
        r.append(rk / k)
    residual = [r[j] - _step(k_minus, r[j + 1], j + 1)[0] for j in range(order)]
    residual.append(r[order])

    num, num_den = _abs2_sum(abs2, residual)
    den, den_den = _abs2_sum(abs2, r)
    # residual^2 = abs2 * (num / num_den) / (den / den_den)
    num *= abs2.numerator * den_den
    if not num:
        return 0.0
    return _sqrt_ratio(num, abs2.denominator * num_den * den)
