"""Independent oracles for the benchmark's jobs.

Nothing here calls into ``cohstates``: every reference value comes from the
mathematical definition, in 50-digit mpmath arithmetic, exact ``Fraction``
arithmetic or integer trial division, so a fast path in the package can
never agree with itself by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

MP = mpmath.mp.clone()
MP.dps = 50

# Relative rounding unit of a double.
UNIT_ROUNDOFF = 2.0**-53

# Weights this far below the largest are dropped from the reference sums,
# and partial sums stop once their terms fall _NEGLIGIBLE below the largest.
_CUTOFF = MP.mpf(10) ** -60
_NEGLIGIBLE = MP.mpf(10) ** -45

# Below this value the squared residual ratio that ``verify_annihilation``
# converts to float is no longer a normal double.
FLOAT_SQUARE_FLOOR = math.sqrt(2.2250738585072014e-308)


def _weights(first, ratio, order: int = 0) -> list:
    """w_0 = first, w_(n+1) = w_n ratio(n), for n = 0, 1, ... until the terms
    are negligible, and at least up to ``order``."""
    w = [first]
    while len(w) <= max(order, 8) or w[-1] > _CUTOFF * max(w):
        w.append(w[-1] * ratio(len(w) - 1))
    return w


def _pt_weights(rho, q, order: int = 0) -> list:
    """|d_n|^2 h_n of the Poschl-Teller class, d_n = Gamma(2 rho) q^n /
    Gamma(2 rho + n), h_n = pi 2^(1-2 rho) Gamma(n+2 rho) / (n! (n+rho)
    Gamma(rho)^2), through the ratio
    w_(n+1)/w_n = q^2 (n+rho) / ((n+2 rho) (n+1) (n+1+rho))."""
    first = MP.pi * MP.power(2, 1 - 2 * rho) * MP.gamma(2 * rho) / (rho * MP.gamma(rho) ** 2)
    return _weights(first, lambda n: q * q * (n + rho) / ((n + 2 * rho) * (n + 1) * (n + 1 + rho)), order)


def _laguerre_weights(lam, alpha, order: int = 0) -> list:
    """|c_n|^2 h_n of the Laguerre class, c_n = Gamma(lam+1) alpha^n /
    Gamma(lam+n+1), h_n = Gamma(n+lam+1) / n!, through the ratio
    w_(n+1)/w_n = alpha^2 / ((lam+n+1) (n+1))."""
    return _weights(MP.gamma(lam + 1), lambda n: alpha * alpha / ((lam + n + 1) * (n + 1)), order)


class PTAmplitude:
    """Survival amplitude A(t) = sum_n p_n exp(-i (n + rho)^2 t) of the
    normalized Poschl-Teller state with eigenvalue q, to 50 digits."""

    def __init__(self, rho: float, q: float):
        r = MP.mpf(rho)
        w = _pt_weights(r, MP.mpf(q))
        total = MP.fsum(w)
        self.p = [x / total for x in w]
        self.energy = [(n + r) ** 2 for n in range(len(w))]
        self.mean_energy = float(MP.fsum(p * e for p, e in zip(self.p, self.energy)))

    def __call__(self, t: float) -> complex:
        tm = MP.mpf(t)
        return complex(MP.fsum(p * MP.expj(-e * tm) for p, e in zip(self.p, self.energy)))

    def tolerance(self, t: float) -> float:
        """Error allowed at time t: 1e-10, plus what a relative error of 16
        rounding units in every phase E(n) t would cause, 16 u <E> |t|.
        The package's own errors reach about 1 u <E> |t|."""
        return 1e-10 + 16.0 * UNIT_ROUNDOFF * self.mean_energy * abs(t)


def pt_closed(rho: float, q: float, theta: float):
    """Unnormalized Poschl-Teller state at y = cos(theta) from the Gegenbauer
    generating function: Gamma(rho+1/2) e^(q cos th) (q sin th / 2)^(1/2-rho)
    J_(rho-1/2)(q sin th), with its limit e^(q cos th) where sin th = 0."""
    r, qm, th = MP.mpf(rho), MP.mpf(q), MP.mpf(theta)
    s = qm * MP.sin(th)
    if s == 0:
        return MP.exp(qm * MP.cos(th))
    return MP.gamma(r + 0.5) * MP.exp(qm * MP.cos(th)) * (s / 2) ** (0.5 - r) * MP.besselj(r - 0.5, s)


def laguerre_closed(lam: float, alpha: float, x: float):
    """Unnormalized Laguerre-class state Gamma(lam+1) (x alpha)^(-lam/2)
    e^alpha J_lam(2 sqrt(x alpha)), with its limit e^alpha at x = 0."""
    lm, am = MP.mpf(lam), MP.mpf(alpha)
    xa = MP.mpf(x) * am
    if xa == 0:
        return MP.exp(am)
    return MP.gamma(lm + 1) * xa ** (-lm / 2) * MP.exp(am) * MP.besselj(lm, 2 * MP.sqrt(xa))


class _Truncated:
    """A state truncated at ``order`` and normalized over its kept levels,
    as a function of the polynomial argument."""

    def __init__(self, w: list, partial_sum, order: int):
        head = MP.fsum(w[: order + 1])
        self.norm = MP.sqrt(head)
        self.tail_share = MP.fsum(w[order + 1:]) / head
        self.partial_sum = partial_sum
        self.order = order

    def __call__(self, arg: float):
        return self.partial_sum(arg, self.order) / self.norm


def pt_truncated(rho: float, q: float, order: int) -> _Truncated:
    return _Truncated(_pt_weights(MP.mpf(rho), MP.mpf(q), order),
                      lambda y, n: pt_partial_sum(rho, q, y, n), order)


def laguerre_truncated(lam: float, alpha: float, order: int) -> _Truncated:
    return _Truncated(_laguerre_weights(MP.mpf(lam), MP.mpf(alpha), order),
                      lambda x, n: laguerre_partial_sum(lam, alpha, x, n), order)


def _partial_sum(coeff_ratio, poly_next, p0, p1, n_terms: int):
    """sum_{n <= n_terms} a_n P_n with a_0 = 1, a_(n+1) = a_n coeff_ratio(n)
    and P_(n+1) = poly_next(n, P_n, P_(n-1)).  Once the coefficients decay,
    the sum stops after two terms in a row below 1e-45 of the largest."""
    total, top, small = p0, abs(p0), 0
    coeff, p_prev, p = MP.mpf(1), p0, p1
    for n in range(1, n_terms + 1):
        coeff *= coeff_ratio(n - 1)
        term = coeff * p
        total += term
        top = max(top, abs(term))
        small = small + 1 if abs(term) < _NEGLIGIBLE * top and abs(coeff_ratio(n)) < 0.5 else 0
        if small == 2:
            break
        p_prev, p = p, poly_next(n, p, p_prev)
    return total


def pt_partial_sum(rho: float, q: float, y: float, n_terms: int):
    """sum_{n <= n_terms} Gamma(2 rho) q^n / Gamma(2 rho + n) C_n^rho(y),
    with the recurrence (n+1) C_(n+1) = 2 (n+rho) y C_n - (n+2 rho-1) C_(n-1)."""
    r, qm, ym = MP.mpf(rho), MP.mpf(q), MP.mpf(y)
    return _partial_sum(
        lambda n: qm / (2 * r + n),
        lambda n, c, c_prev: (2 * (n + r) * ym * c - (n + 2 * r - 1) * c_prev) / (n + 1),
        MP.mpf(1), 2 * r * ym, n_terms,
    )


def laguerre_partial_sum(lam: float, alpha: float, x: float, n_terms: int):
    """sum_{n <= n_terms} Gamma(lam+1) alpha^n / Gamma(lam+n+1) L_n^lam(x),
    with the recurrence (n+1) L_(n+1) = (2n+1+lam-x) L_n - (n+lam) L_(n-1)."""
    lm, am, xm = MP.mpf(lam), MP.mpf(alpha), MP.mpf(x)
    return _partial_sum(
        lambda n: am / (lm + n + 1),
        lambda n, l, l_prev: ((2 * n + 1 + lm - xm) * l - (n + lm) * l_prev) / (n + 1),
        MP.mpf(1), 1 + lm - xm, n_terms,
    )


def revival_peaks(times, magsq, t_rev: float, full: float = 0.9, frac: float = 0.2, q_max: int = 8):
    """Strict interior local maxima of |A|^2 (plus a rising right edge),
    split into full peaks (time, magsq) and fractional peaks
    (time, magsq, "p/q") at the nearest p/q with q <= q_max."""
    inner = np.nonzero((magsq[1:-1] > magsq[:-2]) & (magsq[1:-1] > magsq[2:]))[0] + 1
    idx = list(inner) + ([len(magsq) - 1] if len(magsq) >= 2 and magsq[-1] > magsq[-2] else [])
    full_peaks, frac_peaks = [], []
    for k in idx:
        t, m = float(times[k]), float(magsq[k])
        if m >= full:
            full_peaks.append((t, m))
        elif m >= frac:
            f = Fraction(t / t_rev).limit_denominator(q_max)
            frac_peaks.append((t, m, f"{f.numerator}/{f.denominator}"))
    return full_peaks, frac_peaks


def divisors(n: int) -> list[int]:
    """Divisors d of n with 1 < d < n, by trial division."""
    small = [d for d in range(2, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def gauss_signal(n: int, ell: int, m_terms: int) -> float:
    """Re (1/M) sum_{m<M} exp(-2 pi i m^2 n / ell) in 50-digit arithmetic,
    grouping the terms by the residue m^2 n mod ell."""
    counts: dict[int, int] = {}
    for m in range(m_terms):
        r = m * m * n % ell
        counts[r] = counts.get(r, 0) + 1
    total = MP.fsum(c * MP.cospi(MP.mpf(2 * r) / ell) for r, c in counts.items())
    return float(total / m_terms)


def laguerre_coeffs(n: int, lam: Fraction) -> tuple:
    """Monomial coefficients of L_n^lam(x):
    (-1)^k (lam+k+1)_(n-k) / ((n-k)! k!) for k = 0..n."""
    out = []
    for k in range(n + 1):
        rising = Fraction(1)
        for j in range(n - k):
            rising *= lam + k + 1 + j
        out.append(Fraction((-1) ** k) * rising / (math.factorial(n - k) * math.factorial(k)))
    return tuple(out)


def hyp_coeffs(n: int, b: Fraction, c: Fraction) -> tuple:
    """Monomial coefficients of F(-n, b; c; z): (-n)_k (b)_k / ((c)_k k!)."""
    out = []
    term = Fraction(1)
    for k in range(n + 1):
        out.append(term)
        term = term * (k - n) * (b + k) / ((c + k) * (k + 1))
    return tuple(out)


def annihilation_residual(family: str, params, abs2_ev: Fraction, order: int):
    """Exact ||(K- + ev) s|| / ||s|| for the truncated eigenstate
    s = sum_{k<=N} (-ev)^k / k! Kt+^k x^0, as a 50-digit number.

    From [K-, Kt+] = 1 and K- x^0 = 0 the residual is ev times the lone
    degree-N term, and every term sits on its own monomial, so
    ratio^2 = |ev|^2 t_N^2 / sum_k t_k^2 with
    t_k^2 = |ev|^(2k) / k!^2 * prod_{j<k} a_j^2, where a_j is the Kt+ factor
    on x^j: 1/(j+1+lam) (Laguerre) or (j+b)/(j+c) (hypergeometric).
    """
    if family == "laguerre":
        lam = Fraction(params)
        factor = lambda j: 1 / (j + 1 + lam)  # noqa: E731
    else:
        b, c = (Fraction(v) for v in params)
        factor = lambda j: (j + b) / (j + c)  # noqa: E731
    term2 = Fraction(1)
    total = term2
    for k in range(1, order + 1):
        term2 = term2 * abs2_ev * factor(k - 1) ** 2 / (k * k)
        total += term2
    ratio2 = abs2_ev * term2 / total
    return MP.sqrt(MP.mpf(ratio2.numerator) / ratio2.denominator)
