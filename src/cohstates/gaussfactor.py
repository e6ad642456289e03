"""Divisor detection through truncated quadratic Gauss sums.

The normalized truncated Gauss sum

    s(N, l; M) = (1/M) sum_{m=0}^{M-1} exp(-2 pi i m^2 N / l)

has every phase equal to a multiple of 2 pi exactly when l divides N, so
|s| = 1 (and Re s = 1) on divisors, while for non-divisors the quadratic
phases interfere destructively.  This is the same interference that builds
fractional revivals of quadratic-spectrum wave packets.

The scan verdict uses the cosine signal Re s rather than |s|.  The complete
period-averaged sum for l = 4 and odd N has modulus exactly 1/sqrt(2), which
sits on the conventional acceptance threshold and makes a modulus verdict
flap on truncation parity; the cosine signal of the same sum is 1/2, leaving
a clean gap below the threshold.  An exhaustive sweep over N <= 10^4 with
the default truncation M = ceil(sqrt(N)) gives divisor signal exactly 1 and
non-divisor signals <= 0.6, reached at N = 17, l = 4; the threshold
1/sqrt(2) sits about 0.107 above that.

Evaluation folds each sum to one period.  m^2 mod l repeats with period l,
so

    s(N, l; M) = (1/M) sum_{m < min(l, M)} w_m exp(-2 pi i r_m / l),

with residues r_m = ((m^2 mod l)(N mod l)) mod l reduced in integer
arithmetic before any trigonometric call, so large N costs no precision
(int64 cannot overflow; inputs past its range use Python integers), and
exact integer multiplicities
w_m = floor(M/l) + [m < M mod l].  Consecutive trial divisors are summed
together as padded 2-D numpy blocks of at most 2^13 cells, whose padding has
weight 0, so transient memory stays fixed.  A full scan over 2 <= l <=
sqrt(N) touches about sum_l min(l, M) ~ N/2 cells, independent of M, and a
single sum costs O(min(l, M)) even for M = 10^12.  The cosine and sine parts
are summed and divided by M separately as real numbers; on a divisor every
term is exactly w_m, so the signal and the modulus come out exactly 1.0.
M is limited to 2^53, above which the weights and M stop being exact in
float64.  A scan is limited to 2^22 trial divisors (n < (2^22 + 2)^2, about
1.8e13): a report row and its JSON take about 0.55 kB, so 2^22 rows take
2.3 GB, and the scan's n/2 cells are days of work at that size already.
Every n >= 2^63 is past the limit; ``gauss_sum`` alone takes any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "gauss_sum",
    "GaussSumRow",
    "GaussSumReport",
    "factor_scan",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 1.0 / math.sqrt(2.0)


# Cells per padded block: bounds the kernel's transient memory for any n.
_BLOCK = 1 << 13
# Largest l with l * l < 2**63, so int64 residue products cannot overflow.
_INT64_SAFE_ELL = 3037000499
# Above 2**53 the integer weights, and M itself, stop being exact in float64.
_M_TERMS_MAX = 1 << 53
# Most trial divisors 2 <= l <= floor(sqrt(n)) one scan takes (see above).
_SCAN_MAX = 1 << 22


def _check_m_terms(m_terms: int) -> None:
    if not 1 <= m_terms <= _M_TERMS_MAX:
        raise ValueError(f"m_terms must lie in [1, 2**53], got {m_terms}")


def _folded_sums(n: int, ells, m_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """M Re s(n, l; M) and M Im s(n, l; M) for each l of the ascending ``ells``.

    Row l sums one period m < min(l, M) of m^2 n mod l, each term weighted by
    its exact multiplicity floor(M/l) + [m < M mod l].  Consecutive rows are
    padded to a common width in blocks of at most _BLOCK cells; padded cells
    have weight 0.  A row wider than _BLOCK is summed in column chunks.
    """
    top = max(ells[-1:], default=0)  # ells ascend
    dtype = np.int64 if n < 2**63 and top <= _INT64_SAFE_ELL else object
    ells = np.asarray(ells, dtype=dtype)
    n_mod = n % ells
    quot, rem = m_terms // ells, m_terms % ells
    widths = np.minimum(ells, m_terms).tolist()
    re = np.zeros(len(ells))
    im = np.zeros(len(ells))
    i = 0
    while i < len(ells):
        j = min(len(ells), i + max(1, _BLOCK // widths[i]))
        j = min(len(ells), i + max(1, _BLOCK // widths[j - 1]))
        ell, nm, q, r = (a[i:j, None] for a in (ells, n_mod, quot, rem))
        for start in range(0, widths[j - 1], _BLOCK):
            m = np.arange(start, min(start + _BLOCK, widths[j - 1]), dtype=dtype)
            weight = np.asarray(q * (m < ell) + (m < r), dtype=float)
            theta = (2.0 * np.pi) * np.asarray(m * m % ell * nm % ell / ell, dtype=float)
            re[i:j] += (weight * np.cos(theta)).sum(axis=1)
            im[i:j] -= (weight * np.sin(theta)).sum(axis=1)
        i = j
    return re, im


def gauss_sum(n: int, ell: int, m_terms: int) -> complex:
    """Normalized truncated Gauss sum (1/M) sum_m exp(-2 pi i m^2 n / ell)."""
    if n < 1 or ell < 1 or m_terms < 1:
        raise ValueError(
            f"gauss_sum requires positive integers, got n={n}, ell={ell}, m_terms={m_terms}"
        )
    _check_m_terms(m_terms)
    re, im = _folded_sums(n, [ell], m_terms)
    return complex(re[0] / m_terms, im[0] / m_terms)


@dataclass(frozen=True)
class GaussSumRow:
    """One trial divisor: the sum's modulus, its cosine signal, the verdict,
    and the integer cofactor when the verdict names a true divisor."""

    ell: int
    magnitude: float
    signal: float
    is_factor: bool
    cofactor: Optional[int]


@dataclass(frozen=True)
class GaussSumReport:
    n: int
    m_terms: int
    threshold: float
    rows: list[GaussSumRow]

    @property
    def factors(self) -> list[int]:
        """Accepted trial divisors together with their cofactors, sorted."""
        found = set()
        for row in self.rows:
            if row.is_factor:
                found.add(row.ell)
                if row.cofactor is not None:
                    found.add(row.cofactor)
        return sorted(found)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m_terms": self.m_terms,
            "threshold": self.threshold,
            "rows": [
                {
                    "ell": r.ell,
                    "magnitude": r.magnitude,
                    "signal": r.signal,
                    "is_factor": r.is_factor,
                    "cofactor": r.cofactor,
                }
                for r in self.rows
            ],
            "factors": self.factors,
        }


def default_m_terms(n: int) -> int:
    """Auto truncation length M = ceil(sqrt(n))."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def factor_scan(
    n: int,
    m_terms: Optional[int] = None,
    threshold: Optional[float] = None,
) -> GaussSumReport:
    """Scan trial divisors 2 <= l <= floor(sqrt(n)).

    A trial divisor is accepted when its cosine signal Re s reaches the
    threshold; accepted divisors are reported together with their cofactors
    n / l.  M defaults to ceil(sqrt(n)), and the threshold to
    ``DEFAULT_THRESHOLD``.  At most 2**22 trial divisors are scanned; a
    larger n raises ValueError before any work.
    """
    if n < 2:
        raise ValueError(f"factor_scan requires n >= 2, got {n}")
    if math.isqrt(n) - 1 > _SCAN_MAX:
        raise ValueError(
            f"factor_scan takes at most 2**22 trial divisors, n={n} needs {math.isqrt(n) - 1}"
        )
    if threshold is None:
        threshold = DEFAULT_THRESHOLD
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")
    if m_terms is None:
        m_terms = default_m_terms(n)
    _check_m_terms(m_terms)

    ells = range(2, math.isqrt(n) + 1)
    re, im = _folded_sums(n, ells, m_terms)
    signals = re / m_terms
    magnitudes = np.hypot(signals, im / m_terms)
    rows = []
    for ell, signal, magnitude in zip(ells, signals.tolist(), magnitudes.tolist()):
        accepted = signal >= threshold
        cofactor = n // ell if accepted and n % ell == 0 else None
        rows.append(
            GaussSumRow(
                ell=ell,
                magnitude=magnitude,
                signal=signal,
                is_factor=accepted,
                cofactor=cofactor,
            )
        )
    return GaussSumReport(n=n, m_terms=m_terms, threshold=threshold, rows=rows)
