"""Scalar special functions used throughout the package.

Provides log-Gamma, Bessel J of real order, and the three polynomial
families (generalized Laguerre, Gegenbauer, terminating Gauss
hypergeometric):

* ``ln_gamma`` is ``math.lgamma`` behind the package's domain checks.
* ``bessel_j`` is ``mpmath.besselj`` at double precision, with the package's
  contract at x = 0 (1, 0 or a signed infinity at the singular point).
* ``laguerre`` and ``gegenbauer`` use the standard upward three-term
  recurrences, which are stable on the orthogonality domains.  Each
  recurrence is written once, as a private function returning every degree
  0..n, which ``cstates`` sums its expansions with.
* ``hyp_terminating`` sums the finite series in exact rational arithmetic
  internally, so alternating-term cancellation never degrades the result
  beyond the final rounding to float.

All functions here are pure and deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

__all__ = [
    "ln_gamma",
    "laguerre",
    "gegenbauer",
    "hyp_terminating",
    "bessel_j",
]

# One shared double-precision context: cloning a context per call costs about
# ten times the Bessel evaluation itself.  Its precision is never changed.
_MP = mpmath.mp.clone()
_MP.prec = 53


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0, by ``math.lgamma``.

    Raises ValueError for x <= 0 or non-finite input.
    """
    if not math.isfinite(x):
        raise ValueError(f"ln_gamma requires a finite argument, got {x!r}")
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _laguerre_values(n: int, lam: float, x: float) -> list[float]:
    """L_k^lam(x) for k = 0..n by the upward recurrence
    (k+1) L_{k+1} = (2k+1+lam-x) L_k - (k+lam) L_{k-1}."""
    vals = [1.0, 1.0 + lam - x]
    for k in range(1, n):
        vals.append(((2.0 * k + 1.0 + lam - x) * vals[k] - (k + lam) * vals[k - 1]) / (k + 1.0))
    return vals[: n + 1]


def _gegenbauer_values(n: int, rho: float, y: float) -> list[float]:
    """C_k^rho(y) for k = 0..n by the upward recurrence
    (k+1) C_{k+1} = 2(k+rho) y C_k - (k+2rho-1) C_{k-1}."""
    vals = [1.0, 2.0 * rho * y]
    for k in range(1, n):
        vals.append((2.0 * (k + rho) * y * vals[k] - (k + 2.0 * rho - 1.0) * vals[k - 1]) / (k + 1.0))
    return vals[: n + 1]


def laguerre(n: int, lam: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^lam(x), lam > -1, by the upward
    three-term recurrence."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if not lam > -1.0:
        raise ValueError(f"Laguerre index must satisfy lam > -1, got {lam!r}")
    return _laguerre_values(n, lam, x)[-1]


def gegenbauer(n: int, rho: float, y: float) -> float:
    """Gegenbauer polynomial C_n^rho(y) for rho > 0 and |y| <= 1, by the
    upward three-term recurrence."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if not rho > 0.0:
        raise ValueError(f"Gegenbauer index must satisfy rho > 0, got {rho!r}")
    if abs(y) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {y!r}")
    return _gegenbauer_values(n, rho, y)[-1]


def hyp_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating hypergeometric sum F(-n, b; c; z).

    Returns sum_{k=0}^{n} (-n)_k (b)_k / ((c)_k k!) z^k.  The sum is carried
    out in exact rational arithmetic (every float argument is an exact binary
    rational), so the only rounding is the final conversion to float.  Raises
    ValueError when c is in {0, -1, ..., -(n-1)} and a denominator Pochhammer
    factor vanishes.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    cq = Fraction(c)
    for k in range(n):
        if cq + k == 0:
            raise ValueError(
                f"hypergeometric parameter c={c!r} makes (c)_{k + 1} vanish"
            )
    bq = Fraction(b)
    zq = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(n):
        term *= Fraction(k - n) * (bq + k) * zq
        term /= (cq + k) * (k + 1)
        total += term
    return float(total)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for real order nu and x >= 0.

    ``mpmath.besselj`` evaluated in a 53-bit context and rounded to float;
    mpmath raises its working precision internally where the series
    cancels.  Validated against 50-digit references for 0 < x <= 50.

    At x = 0 the result is 1 for nu = 0 and 0 for nu > 0 or integer nu.  For
    nu < 0 and non-integer the function is singular there; a signed infinity
    (the sign of 1/Gamma(nu+1)) is returned so that callers can detect the
    singular point.  Raises ValueError for non-finite arguments and x < 0.
    """
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError(f"bessel_j requires finite arguments, got nu={nu!r}, x={x!r}")
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x!r}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0 or nu == math.floor(nu):
            return 0.0
        return math.copysign(math.inf, _MP.rgamma(nu + 1.0))
    return float(_MP.besselj(nu, x))
