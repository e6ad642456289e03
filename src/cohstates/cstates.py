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
populations.  Each family is described once, as data in ``_SPECS``: the
shift s in c_n = Gamma(s) ev^n / Gamma(s+n), h_0 and the ratio h_{n+1}/h_n
of its squared norms, and its three-term recurrence (from ``specfun``).
|c_n| and h_n are built from their ratios, c_{n+1}/c_n = ev/(s+n), as
cumulative sums of logs, so truncation orders up to the hard cap of 500
never overflow.  The default truncation order is the smallest whose
weighted tail is at most tail_tol^2 of the head; a state that does not fit
under the cap is rejected.

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
from typing import Callable, NamedTuple, Optional

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


class _Spec(NamedTuple):
    """One polynomial family as data.  The index must exceed ``index_floor``;
    ``shift`` gives s in c_n = Gamma(s) ev^n / Gamma(s+n); ``log_h0`` and
    ``h_ratio`` give log h_0 and h_{n+1}/h_n of the squared norms; ``values``
    runs the three-term recurrence, (n_max, index, point) -> P_0..P_n_max."""

    index_floor: float
    index_rule: str
    shift: Callable[[float], float]
    log_h0: Callable[[float], float]
    h_ratio: Callable[[float, np.ndarray], np.ndarray]
    values: Callable[[int, float, float], list]


_SPECS = {
    # h_n = integral of (L_n^lam)^2 x^lam e^-x = Gamma(n+lam+1)/n!
    Family.LAGUERRE: _Spec(
        index_floor=-1.0,
        index_rule="Laguerre index must satisfy lam > -1",
        shift=lambda lam: lam + 1.0,
        log_h0=lambda lam: specfun.ln_gamma(lam + 1.0),
        h_ratio=lambda lam, n: (n + lam + 1.0) / (n + 1.0),
        values=specfun._laguerre_values,
    ),
    # h_n = integral of (C_n^rho)^2 (1-y^2)^(rho-1/2)
    #     = pi 2^(1-2 rho) Gamma(n+2 rho) / (n! (n+rho) Gamma(rho)^2)
    Family.POSCHL_TELLER: _Spec(
        index_floor=0.0,
        index_rule="index must satisfy rho > 0",
        shift=lambda rho: 2.0 * rho,
        log_h0=lambda rho: (
            math.log(math.pi)
            + (1.0 - 2.0 * rho) * math.log(2.0)
            + specfun.ln_gamma(2.0 * rho)
            - math.log(rho)
            - 2.0 * specfun.ln_gamma(rho)
        ),
        h_ratio=lambda rho, n: (n + 2.0 * rho) * (n + rho) / ((n + 1.0) * (n + 1.0 + rho)),
        values=specfun._gegenbauer_values,
    ),
}


def _check_index(family: Family, index: float) -> None:
    spec = _SPECS[family]
    if not index > spec.index_floor:
        raise ValueError(f"{spec.index_rule}, got {index!r}")


def _log_h(family: Family, index: float, n_max: int) -> np.ndarray:
    """log h_n for n = 0..n_max, from h_0 and the ratios h_{n+1}/h_n."""
    spec = _SPECS[family]
    steps = np.log(spec.h_ratio(index, np.arange(n_max)))
    return spec.log_h0(index) + np.concatenate(([0.0], np.cumsum(steps)))


def _log_coeff_mags(family: Family, index: float, ev_abs: float, n_max: int) -> np.ndarray:
    """log |c_n| for n = 0..n_max, from c_0 = 1 and c_{n+1}/c_n = ev/(s+n)."""
    steps = math.log(ev_abs) - np.log(_SPECS[family].shift(index) + np.arange(n_max))
    return np.concatenate(([0.0], np.cumsum(steps)))


def _coeff_vector(family: Family, index: float, ev: complex, order: int) -> np.ndarray:
    if ev == 0:
        out = np.zeros(order + 1, dtype=complex)
        out[0] = 1.0
        return out
    mag = _log_coeff_mags(family, index, abs(ev), order)
    phase = cmath.phase(complex(ev)) * np.arange(order + 1)
    return np.exp(mag + 1j * phase)


def _pick_order(family: Family, index: float, ev: complex, tail_tol: float) -> int:
    """Smallest order N whose weighted tail sum_{n>N} |c_n|^2 h_n is at most
    tail_tol^2 times the head sum_{n<=N} |c_n|^2 h_n.

    The tail is a reverse cumulative sum, so it stays resolved far below the
    rounding error of the head.  One weight past ORDER_CAP stands for the
    tail the cap cuts off, so a state that does not fit raises ValueError.
    """
    if ev == 0:
        return 0
    n_max = ORDER_CAP + 1
    logw = 2.0 * _log_coeff_mags(family, index, abs(ev), n_max) + _log_h(family, index, n_max)
    w = np.exp(logw - logw.max())
    head = np.cumsum(w)[:-1]
    tail = np.cumsum(w[::-1])[-2::-1]
    fits = np.flatnonzero(tail <= tail_tol * tail_tol * head)
    if not fits.size:
        raise ValueError(
            f"tail tolerance {tail_tol!r} not reachable within order cap {ORDER_CAP}"
        )
    return int(fits[0])


def _build(
    family: Family,
    index: float,
    ev: complex,
    tail_tol: float,
    order: Optional[int],
    measure_hook,
) -> CSExpansion:
    _check_index(family, index)
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
    sum_{n>N} |c_n|^2 h_n is at most tail_tol^2 times the head, unless an
    explicit ``order`` is given; a state that needs more than ORDER_CAP
    levels raises ValueError.
    """
    return _build(Family.LAGUERRE, lam, alpha, tail_tol, order, measure_hook)


def build_pt_cs(
    rho: float,
    q: complex,
    tail_tol: float = 1e-12,
    order: Optional[int] = None,
    measure_hook=None,
) -> CSExpansion:
    """Build the Poschl-Teller-class state with coefficients
    Gamma(2 rho) q^n / Gamma(2 rho + n), normalized, truncated as in
    ``build_laguerre_cs``."""
    return _build(Family.POSCHL_TELLER, rho, q, tail_tol, order, measure_hook)


def _log_weight_terms(cs: CSExpansion) -> np.ndarray:
    """log(|coeffs[n]|^2 h_n) from the stored coefficient vector."""
    mags = np.abs(cs.coeffs)
    logs = np.full(len(mags), -np.inf)
    nz = mags > 0.0
    logs[nz] = 2.0 * np.log(mags[nz]) + _log_h(cs.family, cs.index, cs.order)[nz]
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


def _evaluate(cs: CSExpansion, point: float) -> complex:
    """sum_n coeffs[n] P_n(point) / norm, times the measure hook if set."""
    values = _SPECS[cs.family].values(cs.order, cs.index, point)
    out = complex(np.sum(cs.coeffs * np.array(values))) / cs.norm
    if cs.measure_hook is not None:
        out *= cs.measure_hook(point)
    return out


def eval_laguerre_cs(cs: CSExpansion, x: float) -> complex:
    """Evaluate the normalized Laguerre-class state at x >= 0."""
    if cs.family is not Family.LAGUERRE:
        raise ValueError(f"expected a Laguerre-class state, got {cs.family}")
    if x < 0.0:
        raise ValueError(f"Laguerre-class argument must satisfy x >= 0, got {x!r}")
    return _evaluate(cs, x)


def eval_pt_cs(cs: CSExpansion, y: float) -> complex:
    """Evaluate the normalized Poschl-Teller-class state at y in [-1, 1]."""
    if cs.family is not Family.POSCHL_TELLER:
        raise ValueError(f"expected a Poschl-Teller-class state, got {cs.family}")
    if abs(y) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {y!r}")
    return _evaluate(cs, y)


def _series_sum(family: Family, index: float, ev: complex, point: float, n_terms: int) -> complex:
    _check_index(family, index)
    coeffs = _coeff_vector(family, index, ev, n_terms)
    return _evaluate(CSExpansion(family, index, complex(ev), coeffs, 1.0), point)


def laguerre_series_sum(lam: float, alpha: complex, x: float, n_terms: int) -> complex:
    """Unnormalized partial sum sum_{n<=n_terms} c_n L_n^lam(x)."""
    return _series_sum(Family.LAGUERRE, lam, alpha, x, n_terms)


def pt_series_sum(rho: float, q: complex, y: float, n_terms: int) -> complex:
    """Unnormalized partial sum sum_{n<=n_terms} d_n C_n^rho(y)."""
    return _series_sum(Family.POSCHL_TELLER, rho, q, y, n_terms)


def eval_laguerre_cs_closed(lam: float, alpha: float, x: float) -> float:
    """Unnormalized closed form of the Laguerre-class state,
    Gamma(lam+1) (x alpha)^(-lam/2) e^alpha J_lam(2 sqrt(x alpha)).

    Restricted to real alpha > 0 and x > 0 so the power prefactor needs no
    branch choice.
    """
    _check_index(Family.LAGUERRE, lam)
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
    _check_index(Family.POSCHL_TELLER, rho)
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
