"""Quadratic-spectrum time evolution and revival detection.

The survival amplitude of a state with level populations p_n under a
spectrum E(n) = a n^2 + b n + c is A(t) = sum_n p_n exp(-i E(n) t).  For
a > 0 the quadratic phase realigns at the revival time T_rev = 2 pi / a,
and at rational fractions (p/q) T_rev the packet splits into a small number
of copies (Gauss-sum interference), producing the fractional-revival peaks
between full revivals.

Each phase E(n) t is reduced modulo 2 pi from the exact E(n), so the error
of A(t) does not grow with t below the limit |E(n) t| < 2^40 turns (~6.9e12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "Spectrum",
    "pt_spectrum",
    "AutocorrTrace",
    "autocorr",
    "RevivalTimes",
    "revival_time",
    "FullPeak",
    "FractionalPeak",
    "RevivalReport",
    "detect_revivals",
]

# 2 pi to 4e-31 (Cody & Waite, 1980); 13-bit parts keep k * part exact for |k| <= 2^40
_TWO_PI_PARTS = (6.283203125, -1.7818063497543335e-05, 2.4306245904881507e-10, 2.1561211432632476e-14)
_PHASE_LIMIT = 2.0**40 * 2.0 * math.pi


@dataclass(frozen=True)
class Spectrum:
    """Quadratic energy model E(n) = a n^2 + b n + c (angular-frequency units)."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.a, self.b, self.c)):
            raise ValueError(f"spectrum coefficients must be finite, got {(self.a, self.b, self.c)!r}")
        if self.a < 0.0:
            raise ValueError(f"quadratic coefficient must satisfy a >= 0, got {self.a!r}")

    def energy(self, n: int) -> float:
        return self.a * n * n + self.b * n + self.c


def pt_spectrum(rho: float) -> Spectrum:
    """Spectrum E(n) = (n + rho)^2 of the trigonometric Poschl-Teller well
    (hbar = 2m = 1), i.e. a = 1, b = 2 rho, c = rho^2."""
    if not rho > 0.0:
        raise ValueError(f"well parameter must satisfy rho > 0, got {rho!r}")
    return Spectrum(1.0, 2.0 * rho, rho * rho)


@dataclass(frozen=True)
class AutocorrTrace:
    """Sampled survival amplitude A(t) with |A(t)|^2."""

    times: np.ndarray
    values: np.ndarray
    magsq: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def _reduced_phases(spectrum: Spectrum, levels: list[int], times: np.ndarray):
    """Yield E(n) t modulo 2 pi over ``times`` for each level n.  E(n) = hi + lo
    is exact in integers over the coefficients' common denominator; Dekker's
    product gives p = fl(hi t) and its error exactly (hi keeps 26 bits, the
    times drop 27); k = rint(p / 2 pi) turns come off p, then the errors go on."""
    ratios = [x.as_integer_ratio() for x in (spectrum.a, spectrum.b, spectrum.c)]
    den = max(d for _, d in ratios)
    a, b, c = (num * (den // d) for num, d in ratios)
    energies = [(a * n + b) * n + c for n in levels]
    reach = max(map(abs, energies)) / den * float(np.max(np.abs(times), initial=0.0))
    if not reach < _PHASE_LIMIT:
        raise ValueError(f"phases |E(n) t| reach {reach!r}, beyond 2^40 turns ({_PHASE_LIMIT!r})")
    t_hi = (times.view(np.int64) & -(1 << 27)).view(float)
    t_lo = times - t_hi
    for e in energies:
        hi = e / den
        num, d = hi.as_integer_ratio()
        lo = (e - num * (den // d)) / den
        m, x = math.frexp(hi)
        top = math.ldexp(round(m * 2**26), x - 26)
        phase = hi * times
        err = (top * t_hi - phase) + top * t_lo + (hi - top) * t_hi + ((hi - top) * t_lo + lo * times)
        k = np.rint(phase * (0.5 / math.pi))
        for part in _TWO_PI_PARTS:
            phase -= k * part
        yield phase + err


def autocorr(weights: np.ndarray, spectrum: Spectrum, times: np.ndarray) -> AutocorrTrace:
    """Survival amplitude A(t_k) = sum_n p_n exp(-i E(n) t_k).

    The weights must be non-negative and sum to 1 within 1e-10 (NaN is
    rejected); |A|^2 is checked against the square of their actual total.
    Every phase is within a few ulps of pi at any t below |E(n) t| = 2^40
    turns (ValueError beyond), and the sum is accumulated in ascending n, so
    identical inputs give identical traces.
    """
    weights = np.asarray(weights, dtype=float)
    times = np.asarray(times, dtype=float)
    if weights.size == 0:
        raise ValueError("weight vector is empty")
    if not np.all(weights >= 0.0):
        raise ValueError("weights must be non-negative")
    total = float(np.sum(weights))
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"weights must sum to 1 within 1e-10, got {total!r}")

    levels = np.flatnonzero(weights).tolist()
    values = np.zeros(times.shape, dtype=complex)
    for n, phase in zip(levels, _reduced_phases(spectrum, levels, times)):
        values.real += weights[n] * np.cos(phase)
        values.imag -= weights[n] * np.sin(phase)

    # |A| <= sum p_n, so the bound follows the weight total actually given
    magsq = np.abs(values) ** 2
    if np.any(magsq > total * total + 1e-12):
        raise ValueError(f"survival probability exceeded the squared weight total {total * total!r}")
    return AutocorrTrace(times=times, values=values, magsq=magsq)


@dataclass(frozen=True)
class RevivalTimes:
    """Quadratic-phase revival time, plus the exact full-recurrence period
    when b/a is rational (None when no rational structure is detected)."""

    t_rev: float
    t_full: Optional[float]


def revival_time(spectrum: Spectrum) -> RevivalTimes:
    """T_rev = 2 pi / a, and the minimal guaranteed full-recurrence time.

    For b/a = p/q (lowest terms) the phases (a n^2 + b n) t are all
    multiples of 2 pi at t = (2 pi / a) q / g, where
    g = gcd over n of (q n^2 + p n); |A| returns exactly to 1 there (the
    constant term c only contributes a global phase).  Integer b/a with b/a
    odd therefore recurs already at half of T_rev.
    """
    if spectrum.a <= 0.0:
        raise ValueError(f"revival time needs a > 0, got a = {spectrum.a!r}")
    t_rev = 2.0 * math.pi / spectrum.a
    ratio = spectrum.b / spectrum.a
    frac = Fraction(ratio).limit_denominator(10**6)
    t_full = None
    if abs(ratio - float(frac)) <= 1e-12 * max(1.0, abs(ratio)):
        p, q = frac.numerator, frac.denominator
        g = math.gcd(q + p, math.gcd(4 * q + 2 * p, 9 * q + 3 * p))
        t_full = t_rev * q / g if g else t_rev * q
    return RevivalTimes(t_rev=t_rev, t_full=t_full)


@dataclass(frozen=True)
class FullPeak:
    time: float
    magsq: float


@dataclass(frozen=True)
class FractionalPeak:
    time: float
    magsq: float
    numerator: int
    denominator: int
    ratio_error: float


@dataclass(frozen=True)
class RevivalReport:
    t_rev: float
    full_revivals: list[FullPeak] = field(default_factory=list)
    fractional_revivals: list[FractionalPeak] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "t_rev": self.t_rev,
            "full_revivals": [
                {"time": p.time, "magsq": p.magsq} for p in self.full_revivals
            ],
            "fractional_revivals": [
                {
                    "time": p.time,
                    "magsq": p.magsq,
                    "fraction": f"{p.numerator}/{p.denominator}",
                    "ratio_error": p.ratio_error,
                }
                for p in self.fractional_revivals
            ],
        }


def nearest_fraction(ratio: float, q_max: int) -> tuple[Fraction, float]:
    """Closest rational with denominator <= q_max, plus the approximation error."""
    frac = Fraction(ratio).limit_denominator(q_max)
    return frac, abs(ratio - float(frac))


def _local_maxima(magsq: np.ndarray) -> list[int]:
    """Strict local maxima; the right boundary counts one-sidedly, the left
    boundary (the trace's reference point, usually t = 0) never does."""
    idx = [
        k
        for k in range(1, len(magsq) - 1)
        if magsq[k] > magsq[k - 1] and magsq[k] > magsq[k + 1]
    ]
    if len(magsq) >= 2 and magsq[-1] > magsq[-2]:
        idx.append(len(magsq) - 1)
    return idx


def detect_revivals(
    trace: AutocorrTrace,
    t_rev: float,
    full_threshold: float = 0.9,
    frac_threshold: float = 0.2,
    q_max: int = 8,
) -> RevivalReport:
    """Classify strict local maxima of |A(t)|^2 into full and fractional
    revivals.

    Peaks at or above ``full_threshold`` are full revivals; peaks in
    [frac_threshold, full_threshold) are fractional and get annotated with
    the nearest rational p/q (q <= q_max) to t / t_rev together with the
    rational-approximation error.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if not (0.0 < frac_threshold < full_threshold <= 1.0):
        raise ValueError(
            f"thresholds must satisfy 0 < frac < full <= 1, got {frac_threshold!r}, {full_threshold!r}"
        )
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    if not t_rev > 0.0:
        raise ValueError(f"t_rev must be positive, got {t_rev!r}")

    full: list[FullPeak] = []
    fractional: list[FractionalPeak] = []
    for k in _local_maxima(trace.magsq):
        t = float(trace.times[k])
        m = float(trace.magsq[k])
        if m >= full_threshold:
            full.append(FullPeak(time=t, magsq=m))
        elif m >= frac_threshold:
            frac, err = nearest_fraction(t / t_rev, q_max)
            fractional.append(
                FractionalPeak(
                    time=t,
                    magsq=m,
                    numerator=frac.numerator,
                    denominator=frac.denominator,
                    ratio_error=err,
                )
            )
    return RevivalReport(t_rev=t_rev, full_revivals=full, fractional_revivals=fractional)
