"""Tests for quadratic-spectrum evolution and revival detection."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cohstates import cstates, dynamics
from cohstates.dynamics import (
    AutocorrTrace,
    Spectrum,
    autocorr,
    detect_revivals,
    nearest_fraction,
    pt_spectrum,
    revival_time,
)


# ------------------------------------------------------------------ spectrum

def test_pt_spectrum_values():
    s = pt_spectrum(2.0)
    assert s.energy(0) == 4.0
    assert s.energy(3) == 25.0


def test_pt_spectrum_constant_second_difference():
    for rho in (0.5, 2.0, 3.7):
        s = pt_spectrum(rho)
        for n in range(1, 20):
            assert s.energy(n + 1) - 2.0 * s.energy(n) + s.energy(n - 1) == pytest.approx(2.0)


def test_spectrum_rejects_negative_curvature():
    for coeffs in [(-1.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)]:
        with pytest.raises(ValueError):
            Spectrum(*coeffs)


# ------------------------------------------------------------------ autocorr

def test_single_level_has_unit_modulus():
    trace = autocorr(np.array([1.0]), Spectrum(1.0, 0.0, 5.0), np.linspace(0.0, 10.0, 101))
    assert np.allclose(np.abs(trace.values), 1.0, atol=1e-15)


def test_two_level_null_at_pi():
    # p = [1/2, 1/2], E(n) = n: A(pi) = (1 + e^{-i pi})/2 = 0
    trace = autocorr(np.array([0.5, 0.5]), Spectrum(0.0, 1.0, 0.0), np.array([0.0, math.pi]))
    assert abs(trace.values[1]) <= 1e-15


def test_integer_quadratic_spectrum_recurrence_at_2pi():
    p = np.array([0.25, 0.5, 0.25])
    trace = autocorr(p, Spectrum(1.0, 0.0, 0.0), np.array([2.0 * math.pi]))
    assert abs(trace.values[0] - 1.0) <= 1e-12


def test_autocorr_at_zero_and_bound():
    cs = cstates.build_pt_cs(2.0, 5.0)
    p = cstates.weights(cs)
    trace = autocorr(p, pt_spectrum(2.0), np.linspace(0.0, 4.0 * math.pi, 2049))
    assert abs(trace.magsq[0] - 1.0) <= 1e-12
    assert np.all(trace.magsq <= 1.0 + 1e-12)
    assert np.allclose(trace.magsq, np.abs(trace.values) ** 2, atol=1e-15)


def test_autocorr_hermitian_symmetry():
    p = np.array([0.4, 0.3, 0.3])
    times = np.linspace(-5.0, 5.0, 501)
    trace = autocorr(p, Spectrum(1.0, 2.0, 0.3), times)
    assert np.allclose(trace.values, np.conj(trace.values[::-1]), atol=1e-14)


def test_autocorr_weight_validation():
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        autocorr(np.array([0.5, 0.4]), Spectrum(1.0, 0.0, 0.0), times)
    with pytest.raises(ValueError):
        autocorr(np.array([1.5, -0.5]), Spectrum(1.0, 0.0, 0.0), times)
    with pytest.raises(ValueError):
        autocorr(np.array([]), Spectrum(1.0, 0.0, 0.0), times)


def test_autocorr_rejects_nan_weights():
    for p in ([math.nan, 1.0], [0.5, 0.5, math.nan]):
        with pytest.raises(ValueError, match="non-negative"):
            autocorr(p, pt_spectrum(2.0), [0.0, 1.0])


def test_autocorr_of_a_tiny_index_state_is_finite():
    # h_1/h_0 = 2 rho^2/(1 + rho) underflows at rho = 1e-300; its log must not
    cs = cstates.build_pt_cs(1e-300, 5.0)
    p = cstates.weights(cs)
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12
    trace = autocorr(p, pt_spectrum(1e-300), np.linspace(0.0, 10.0, 8))
    assert np.all(np.isfinite(trace.values))


def test_autocorr_weight_total_within_tolerance_sets_the_bound():
    # weights 5e-11 above 1 pass validation; |A(0)|^2 is their total squared,
    # above 1 + 1e-12, and must be returned rather than rejected
    p = np.array([0.5, 0.5 + 5e-11])
    trace = autocorr(p, pt_spectrum(2.0), np.array([0.0]))
    assert trace.magsq[0] > 1.0 + 1e-12
    assert trace.magsq[0] == pytest.approx((1.0 + 5e-11) ** 2, abs=1e-15)


def _reduced_phase(energy, t):
    """E t modulo 2 pi for E(1) = energy, from the library's phase path."""
    return next(dynamics._reduced_phases(Spectrum(0.0, energy, 0.0), [1], np.array([t])))[0]


def test_reduced_phase_against_frozen_oracle():
    # reference values from a 50-digit evaluation of E*t mod 2 pi, compared
    # modulo 2 pi
    for energy, t, frozen in [
        (1000000007.0, 123.456, 5.613772493210285552),
        (3200000000000.0, 0.725, 1.2388410396880974353),
    ]:
        assert math.remainder(_reduced_phase(energy, t) - frozen, 2.0 * math.pi) == pytest.approx(
            0.0, abs=5e-15
        )


@pytest.mark.parametrize("rho,q", [(2.0, 5.0), (3.7, 19.0), (0.6, 1.3)])
def test_autocorr_error_does_not_grow_with_t(rho, q):
    # oracle: 50-digit sum over the exact values of the spectrum's doubles;
    # the bound is a few ulps of pi per phase, the exp rounding and the
    # rounding of the sum of the ~60 terms
    p = cstates.weights(cstates.build_pt_cs(rho, q))
    spectrum = pt_spectrum(rho)
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    energies = [ctx.mpf(spectrum.a) * n * n + ctx.mpf(spectrum.b) * n + ctx.mpf(spectrum.c) for n in range(len(p))]
    for t0 in (1.0, 25.0, 1e3, 1e5, 1e7, 1e9):
        times = np.linspace(t0, t0 + 2.0 * math.pi, 16)
        for t, got in zip(times, autocorr(p, spectrum, times).values):
            tm = ctx.mpf(float(t))
            exact = ctx.fsum(ctx.mpf(w) * ctx.expj(-e * tm) for w, e in zip(p, energies))
            assert abs(got - complex(exact)) <= 1e-14, (t0, t)


def test_autocorr_rejects_phases_beyond_the_limit():
    # the limit is 2^40 turns, |E t| < 2 pi 2^40 ~ 6.9e12
    p = np.array([0.5, 0.5])
    spectrum = Spectrum(0.0, 1.0, 0.0)
    limit = 2.0**40 * 2.0 * math.pi
    autocorr(p, spectrum, np.array([0.0, 0.999 * limit]))
    for bad in (limit, -limit, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="beyond 2\\^40 turns"):
            autocorr(p, spectrum, np.array([0.0, bad]))


def test_autocorr_large_phase_reduction_end_to_end():
    # b = 3.2e12 makes E(1)*t cross the reduction threshold
    p = np.array([0.5, 0.5])
    t = 0.725
    trace = autocorr(p, Spectrum(0.0, 3.2e12, 0.0), np.array([t]))
    expected = 0.5 + 0.5 * cmath.exp(-1j * 1.2388410396880974353)
    assert trace.values[0] == pytest.approx(expected, abs=5e-13)


# --------------------------------------------------------------- revival_time

def test_revival_time_basic():
    rt = revival_time(Spectrum(1.0, 0.0, 0.0))
    assert rt.t_rev == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert rt.t_full == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_revival_time_even_b():
    rt = revival_time(pt_spectrum(2.0))
    assert rt.t_full == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_revival_time_odd_b_recurs_at_half_period():
    # b/a = 5 odd: n^2 + 5n is always even, so phases realign already at pi
    rt = revival_time(pt_spectrum(2.5))
    assert rt.t_full == pytest.approx(math.pi, rel=1e-15)


def test_full_recurrence_oracle_odd_b():
    # |A| = 1 at every multiple of t_full, 4 pi included
    cs = cstates.build_pt_cs(2.5, 5.0)
    p = cstates.weights(cs)
    s = pt_spectrum(2.5)
    for t in (math.pi, 2.0 * math.pi, 4.0 * math.pi):
        amp = sum(p[n] * cmath.exp(-1j * s.energy(n) * t) for n in range(len(p)))
        assert abs(amp) >= 1.0 - 1e-10


def test_full_recurrence_trace_invariant():
    for rho in (2.0, 2.5):
        cs = cstates.build_pt_cs(rho, 5.0)
        p = cstates.weights(cs)
        rt = revival_time(pt_spectrum(rho))
        trace = autocorr(p, pt_spectrum(rho), np.array([rt.t_full]))
        assert abs(trace.values[0]) >= 1.0 - 1e-10


def test_revival_time_needs_positive_curvature():
    with pytest.raises(ValueError):
        revival_time(Spectrum(0.0, 1.0, 0.0))


def test_revival_time_irrational_ratio():
    rt = revival_time(Spectrum(1.0, math.sqrt(2.0), 0.0))
    assert rt.t_full is None


# ------------------------------------------------------------ detect_revivals

def _example_trace(samples=4001, t_max=4.0 * math.pi):
    # E(n) = n^2 with weights chosen so the t = pi fractional revival is
    # a clear mid peak: A(pi) = 0.6 - 0.1 + 0.3 = 0.8, |A|^2 = 0.64
    p = np.array([0.6, 0.1, 0.3])
    times = np.linspace(0.0, t_max, samples)
    return autocorr(p, Spectrum(1.0, 0.0, 0.0), times), p


def test_detect_full_revivals_integer_spectrum():
    trace, _ = _example_trace()
    report = detect_revivals(trace, 2.0 * math.pi)
    full_times = [peak.time for peak in report.full_revivals]
    assert any(abs(t - 2.0 * math.pi) < 0.01 for t in full_times)
    assert any(abs(t - 4.0 * math.pi) < 0.01 for t in full_times)
    assert all(peak.magsq >= 0.999 for peak in report.full_revivals)


def test_detect_fractional_peak_at_half_period():
    trace, p = _example_trace()
    # oracle: A(pi) = sum p_n (-1)^n
    oracle = abs(sum(w * (-1.0) ** n for n, w in enumerate(p))) ** 2
    report = detect_revivals(trace, 2.0 * math.pi)
    halves = [
        peak
        for peak in report.fractional_revivals
        if (peak.numerator, peak.denominator) == (1, 2)
    ]
    assert halves
    peak = min(halves, key=lambda pk: abs(pk.time - math.pi))
    assert abs(peak.time - math.pi) < 0.01
    assert peak.magsq == pytest.approx(oracle, abs=1e-4)
    assert peak.ratio_error <= 0.01


def test_single_level_trace_has_no_peaks():
    trace = autocorr(np.array([1.0]), Spectrum(1.0, 0.0, 0.0), np.linspace(0.0, 10.0, 300))
    report = detect_revivals(trace, 2.0 * math.pi)
    assert not report.full_revivals and not report.fractional_revivals


def test_detect_empty_trace_raises():
    empty = AutocorrTrace(times=np.array([]), values=np.array([]), magsq=np.array([]))
    with pytest.raises(ValueError):
        detect_revivals(empty, 2.0 * math.pi)


def test_detect_threshold_validation():
    trace, _ = _example_trace(samples=101)
    with pytest.raises(ValueError):
        detect_revivals(trace, 2.0 * math.pi, full_threshold=0.5, frac_threshold=0.6)
    with pytest.raises(ValueError):
        detect_revivals(trace, -1.0)


def test_right_boundary_peak_reported_left_excluded():
    # trace ends exactly on the 2 pi revival; starts at the t = 0 maximum
    trace, _ = _example_trace(samples=2001, t_max=2.0 * math.pi)
    report = detect_revivals(trace, 2.0 * math.pi)
    assert any(abs(p.time - 2.0 * math.pi) < 1e-9 for p in report.full_revivals)
    assert all(p.time > 0.0 for p in report.full_revivals)


def test_nearest_fraction():
    frac, err = nearest_fraction(0.4878, 8)
    assert (frac.numerator, frac.denominator) == (1, 2)
    assert err == pytest.approx(0.0122, abs=1e-12)


# -------------------------------------------------- fractional-revival oracle

def _bruteforce_amp_exact_phase(p, num, den):
    """A(2 pi num/den) for E(n) = n^2 with exact rational phase reduction."""
    total = 0.0 + 0.0j
    for n in range(len(p)):
        frac = Fraction(n * n * num, den) % 1
        total += p[n] * cmath.exp(-2j * math.pi * float(frac))
    return total


@pytest.mark.parametrize("den", [1, 2, 3, 4, 5, 6])
def test_fractional_revival_gauss_mix_oracle(den):
    cs = cstates.build_pt_cs(2.0, 5.0)
    p = cstates.weights(cs)
    spectrum = Spectrum(1.0, 0.0, 0.0)
    for num in range(1, den + 1):
        t = 2.0 * math.pi * num / den
        got = autocorr(p, spectrum, np.array([t])).values[0]
        expected = _bruteforce_amp_exact_phase(p, num, den)
        assert abs(got - expected) <= 1e-10
