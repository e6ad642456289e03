"""Tests for coherent-state construction, evaluation and closed forms."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cohstates import cstates
from cohstates.cstates import (
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
from cohstates.ladder import DegenerateParameterError


# ------------------------------------------------------------------ builders

def test_laguerre_alpha_zero_is_ground_level():
    cs = build_laguerre_cs(2.0, 0.0)
    assert cs.order == 0
    assert cs.coeffs[0] == 1.0
    # norm = sqrt(h_0) = sqrt(Gamma(lam+1)) = sqrt(2)
    assert cs.norm == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_laguerre_coefficient_ratio():
    lam, alpha = 2.0, 3.0
    cs = build_laguerre_cs(lam, alpha)
    for n in range(cs.order):
        ratio = cs.coeffs[n + 1] / cs.coeffs[n]
        assert abs(ratio - alpha / (lam + n + 1.0)) <= 1e-13 * abs(ratio)


def test_pt_coefficient_ratio():
    rho, q = 2.0, 5.0
    cs = build_pt_cs(rho, q)
    for n in range(cs.order):
        ratio = cs.coeffs[n + 1] / cs.coeffs[n]
        assert abs(ratio - q / (2.0 * rho + n)) <= 1e-13 * abs(ratio)


def _laguerre_logw_oracle(lam, alpha, n):
    # |c_n|^2 h_n via the stdlib lgamma, independent of the package's ln_gamma
    return (
        2.0 * (math.lgamma(lam + 1.0) + n * math.log(alpha) - math.lgamma(lam + n + 1.0))
        + math.lgamma(n + lam + 1.0)
        - math.lgamma(n + 1.0)
    )


def _pt_logw_oracle(rho, q, n):
    return (
        2.0 * (math.lgamma(2.0 * rho) + n * math.log(q) - math.lgamma(2.0 * rho + n))
        + math.log(math.pi)
        + (1.0 - 2.0 * rho) * math.log(2.0)
        + math.lgamma(n + 2.0 * rho)
        - math.lgamma(n + 1.0)
        - math.log(n + rho)
        - 2.0 * math.lgamma(rho)
    )


def _truncation_oracle(logw_fn, tol, cap=500):
    # the documented rule: the smallest n whose tail sum_{m>n} w_m is at most
    # tol^2 times the head sum_{m<=n} w_m, both summed exactly rounded by fsum
    w = [math.exp(logw_fn(n)) for n in range(cap + 2)]
    for n in range(cap + 1):
        if math.fsum(w[n + 1:]) <= tol * tol * math.fsum(w[: n + 1]):
            return n
    raise AssertionError("oracle found no truncation order")


def test_laguerre_truncation_matches_bruteforce_oracle():
    lam, alpha, tol = 2.0, 3.0, 1e-12
    cs = build_laguerre_cs(lam, alpha, tail_tol=tol)
    assert cs.order == _truncation_oracle(lambda n: _laguerre_logw_oracle(lam, alpha, n), tol)
    for n in range(cs.order + 1):
        expected = math.exp(
            math.lgamma(lam + 1.0) + n * math.log(alpha) - math.lgamma(lam + n + 1.0)
        )
        assert cs.coeffs[n].real == pytest.approx(expected, rel=1e-13)
        assert cs.coeffs[n].imag == 0.0


def test_pt_truncation_matches_bruteforce_oracle():
    rho, q, tol = 2.0, 5.0, 1e-12
    cs = build_pt_cs(rho, q, tail_tol=tol)
    assert cs.order == _truncation_oracle(lambda n: _pt_logw_oracle(rho, q, n), tol)


@pytest.mark.parametrize("build", [build_laguerre_cs, build_pt_cs])
def test_states_beyond_order_cap_are_rejected(build):
    # at |ev| = 450 the populations still carry ~1e-4 at level 500
    with pytest.raises(ValueError, match="not reachable within order cap 500"):
        build(2.0, 450.0)
    cs = build(2.0, 350.0)
    p = weights(cs)
    assert cs.order <= cstates.ORDER_CAP
    assert abs(p.sum() - 1.0) <= 1e-12 and p[-1] <= 1e-24


def test_explicit_order_that_overflows_is_rejected():
    # q = 1000: log|c_n| passes log(DBL_MAX) ~ 709.8 near order 365 and the
    # norm passes it just below; order 355 still fits
    with pytest.raises(ValueError, match="coefficients up to order 500 would overflow"):
        build_pt_cs(2.0, 1000.0, order=500)
    with pytest.raises(ValueError, match="state norm would overflow"):
        build_pt_cs(2.0, 1000.0, order=360)
    cs = build_pt_cs(2.0, 1000.0, order=355)
    # c_n P_n(1) alone passes the double range here; dividing by the norm first keeps it finite
    assert math.isfinite(abs(eval_pt_cs(cs, 1.0)))


def test_explicit_order_override():
    cs = build_laguerre_cs(2.0, 3.0, order=80)
    assert cs.order == 80


def test_builder_domain_errors():
    with pytest.raises(ValueError):
        build_laguerre_cs(-1.5, 1.0)
    with pytest.raises(ValueError):
        build_pt_cs(0.0, 1.0)
    with pytest.raises(ValueError):
        build_laguerre_cs(2.0, 1.0, tail_tol=0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        build_pt_cs(2.0, 5.0, tail_tol=math.inf)


# -------------------------------------------------------- normalize & weights

STATES = [
    (build_pt_cs, _pt_logw_oracle, 2.0, 5.0),
    (build_pt_cs, _pt_logw_oracle, 0.5, 20.0),
    (build_pt_cs, _pt_logw_oracle, 4.0, 1.0),
    (build_laguerre_cs, _laguerre_logw_oracle, 2.0, 3.0),
    (build_laguerre_cs, _laguerre_logw_oracle, -0.9, 6.0),
]


def test_normalize_direct_sum_oracle():
    for build, logw_oracle, index, ev in STATES:
        cs = build(index, ev)
        norm2 = sum(math.exp(logw_oracle(index, ev, n)) for n in range(cs.order + 1))
        assert cs.norm == pytest.approx(math.sqrt(norm2), rel=1e-12), (index, ev)


def test_normalize_is_idempotent():
    cs = build_pt_cs(2.0, 5.0)
    again = normalize(cs)
    assert again.norm == pytest.approx(cs.norm, rel=1e-15)


def test_weights_sum_to_one():
    for cs in (build_laguerre_cs(2.0, 3.0), build_pt_cs(2.0, 5.0), build_pt_cs(3.5, 0.5)):
        p = weights(cs)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)


def test_weights_alpha_zero():
    p = weights(build_laguerre_cs(2.0, 0.0))
    assert p.shape == (1,)
    assert p[0] == pytest.approx(1.0, abs=1e-14)


def test_weights_direct_oracle_and_unimodality():
    for build, logw_oracle, index, ev in STATES:
        cs = build(index, ev)
        p = weights(cs)
        logw = np.array([logw_oracle(index, ev, n) for n in range(cs.order + 1)])
        expected = np.exp(logw)
        expected /= expected.sum()
        assert np.allclose(p, expected, rtol=1e-11, atol=0.0), (index, ev)
        rising = np.flatnonzero(np.diff(p) > 0)
        assert np.array_equal(rising, np.arange(rising.size)), (index, ev)  # ascent, then descent


# ----------------------------------------------------------------- evaluation

def test_eval_alpha_zero_constant():
    cs = build_laguerre_cs(1.0, 0.0)
    for x in [0.0, 0.3, 5.0]:
        assert eval_laguerre_cs(cs, x) == pytest.approx(1.0 / cs.norm, rel=1e-14)


def test_eval_at_origin_against_pochhammer_oracle():
    # L_n^lam(0) = (lam+1)_n / n!
    lam, alpha = 1.0, 2.0
    cs = build_laguerre_cs(lam, alpha)
    oracle = 0.0
    for n in range(cs.order + 1):
        c_n = math.exp(math.lgamma(lam + 1.0) + n * math.log(alpha) - math.lgamma(lam + n + 1.0))
        l_n0 = math.exp(math.lgamma(lam + 1.0 + n) - math.lgamma(lam + 1.0) - math.lgamma(n + 1.0))
        oracle += c_n * l_n0
    got = eval_laguerre_cs(cs, 0.0)
    assert got.real == pytest.approx(oracle / cs.norm, rel=1e-12)
    assert got.imag == 0.0


def test_eval_family_and_domain_checks():
    lag = build_laguerre_cs(1.0, 1.0)
    pt = build_pt_cs(1.0, 1.0)
    with pytest.raises(ValueError):
        eval_laguerre_cs(pt, 1.0)
    with pytest.raises(ValueError):
        eval_pt_cs(lag, 0.5)
    with pytest.raises(ValueError):
        eval_laguerre_cs(lag, -0.1)
    with pytest.raises(ValueError):
        eval_pt_cs(pt, 1.2)


def test_pt_series_at_y_one_is_exp_q():
    # C_n^rho(1) = (2 rho)_n / n!, so the unnormalized series telescopes to e^q
    rho, q = 2.0, 5.0
    total = pt_series_sum(rho, q, 1.0, 60)
    assert total.real == pytest.approx(math.exp(q), rel=1e-12)


def test_complex_eigenvalue_series():
    alpha = 1.0 + 1.0j
    cs = build_laguerre_cs(1.5, alpha)
    # coefficient phases follow alpha^n
    for n in range(1, min(6, cs.order)):
        expected_phase = n * cmath.phase(alpha)
        assert cmath.phase(cs.coeffs[n]) == pytest.approx(
            math.remainder(expected_phase, 2.0 * math.pi), abs=1e-12
        )
    value = eval_laguerre_cs(cs, 2.0)
    assert value.imag != 0.0


def test_grid_evaluation_matches_scalar_calls_and_keeps_shape():
    pt = build_pt_cs(2.0, 5.0)
    ys = np.cos(np.linspace(0.0, math.pi, 9))
    grid = eval_pt_cs(pt, ys)
    assert grid.shape == (9,)
    for y, value in zip(ys, grid):
        scalar = eval_pt_cs(pt, float(y))
        assert type(scalar) is complex and scalar == value
    ground = build_laguerre_cs(2.0, 0.0)  # order 0: one value per point all the same
    flat = eval_laguerre_cs(ground, np.linspace(0.0, 3.0, 4))
    assert flat.shape == (4,) and np.all(flat == 1.0 / ground.norm)


def test_grid_domain_error_names_the_first_offending_point():
    with pytest.raises(ValueError, match=r"x >= 0, got -0\.5$"):
        eval_laguerre_cs(build_laguerre_cs(1.0, 1.0), np.array([0.0, -0.5, -1.0]))
    with pytest.raises(ValueError, match=r"\[-1, 1\], got nan$"):
        eval_pt_cs(build_pt_cs(1.0, 1.0), np.array([0.5, math.nan, 2.0]))


def _mp_partial_sum(family, index, ev, point, n_terms):
    """50-digit sum_{n<=n_terms} c_n P_n(point) and sum |c_n P_n(point)|."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    index, ev, point = mp.mpf(index), mp.mpf(ev), mp.mpf(point)
    if family is Family.LAGUERRE:
        terms = [ev**n / mp.rf(index + 1, n) * mp.laguerre(n, index, point) for n in range(n_terms + 1)]
    else:
        terms = [ev**n / mp.rf(2 * index, n) * mp.gegenbauer(n, index, point) for n in range(n_terms + 1)]
    return complex(mp.fsum(terms)), float(mp.fsum(map(abs, terms)))


@pytest.mark.parametrize(
    "family,index,ev,grid,n_terms",
    [
        (Family.LAGUERRE, -0.5, 6.0, np.linspace(0.1, 30.0, 41), 80),
        (Family.POSCHL_TELLER, 2.0, 5.0, np.cos(np.linspace(0.3, 3.0, 41)), 200),
        (Family.POSCHL_TELLER, 2.0, 10.0, np.cos(np.linspace(0.3, 3.0, 41)), 200),
        (Family.POSCHL_TELLER, 0.6, 15.0, np.cos(np.linspace(0.3, 3.0, 41)), 200),
    ],
)
def test_grid_series_against_50_digit_partial_sums(family, index, ev, grid, n_terms):
    # one recurrence pass over the grid, summed degree by degree: the error at
    # every point stays within 64 u times the sum of the term magnitudes
    series_sum = laguerre_series_sum if family is Family.LAGUERRE else pt_series_sum
    got = series_sum(index, ev, grid, n_terms)
    for k in range(0, len(grid), 5):
        want, scale = _mp_partial_sum(family, index, ev, grid[k], n_terms)
        assert abs(got[k] - want) <= 64 * 2.0**-53 * scale, (grid[k], abs(got[k] - want) / scale)


def test_grid_evaluation_memory_is_linear_in_points():
    # stacking every degree would take 501 x 2^16 doubles (262 MB)
    cs = build_pt_cs(2.0, 5.0, order=cstates.ORDER_CAP)
    ys = np.cos(np.linspace(0.0, math.pi, 1 << 16))
    tracemalloc.start()
    try:
        eval_pt_cs(cs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


@pytest.mark.parametrize(
    "build,index,ev",
    [
        (build_pt_cs, math.inf, 5.0),
        (build_pt_cs, 2.0, math.inf),
        (build_pt_cs, 2.0, math.nan),
        (build_laguerre_cs, math.inf, 3.0),
        (build_laguerre_cs, 2.0, math.inf),
    ],
)
def test_non_finite_state_parameters_are_rejected(build, index, ev):
    with pytest.raises(ValueError, match="finite"):
        build(index, ev)


def test_huge_index_norm_ratios_do_not_overflow():
    # h_1/h_0 = 2 rho^2/(1+rho): the product of numerator factors passes the
    # double range at rho = 1e300, their quotients do not
    steps = np.diff(cstates._log_h(Family.POSCHL_TELLER, 1e300, 3))
    assert steps[0] == pytest.approx(math.log(2e300), rel=1e-15)
    assert np.all(np.isfinite(steps))


# ---------------------------------------------------------------- closed forms

LAGUERRE_GRID = [(lam, a, x) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 3.0, 5.0) for x in (0.1, 1.0, 5.0, 10.0)]


@pytest.mark.parametrize("lam,alpha,x", LAGUERRE_GRID)
def test_laguerre_closed_form_matches_series(lam, alpha, x):
    series = laguerre_series_sum(lam, alpha, x, 80)
    closed = eval_laguerre_cs_closed(lam, alpha, x)
    assert abs(series.real - closed) <= 1e-8 * abs(closed)
    assert series.imag == 0.0


PT_GRID = [(rho, q, th) for rho in (1.0, 2.0, 3.5) for q in (0.5, 2.0, 5.0) for th in (0.3, 1.0, math.pi / 2, 2.5)]


@pytest.mark.parametrize("rho,q,theta", PT_GRID)
def test_pt_closed_form_matches_series(rho, q, theta):
    series = pt_series_sum(rho, q, math.cos(theta), 200)
    closed = eval_pt_cs_closed(rho, q, theta)
    assert abs(series.real - closed) <= 1e-8 * abs(closed)


def test_laguerre_closed_form_small_alpha_limit():
    # alpha -> 0+: Gamma(lam+1) (x alpha)^(-lam/2) e^alpha J_lam(2 sqrt(x alpha)) -> 1
    assert eval_laguerre_cs_closed(0.0, 1e-12, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_pt_closed_form_small_q_limit():
    # q -> 0+: both sides reduce to the constant term 1
    for rho in (1.0, 2.0, 3.5):
        assert eval_pt_cs_closed(rho, 1e-9, 1.1) == pytest.approx(1.0, abs=1e-6)


def test_closed_form_prefactor_overflow_is_rejected():
    with pytest.raises(ValueError, match="closed-form prefactor would overflow"):
        eval_pt_cs_closed(2.0, 1000.0, 0.3)
    with pytest.raises(ValueError, match="closed-form prefactor would overflow"):
        eval_laguerre_cs_closed(2.0, 800.0, 0.1)


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        eval_laguerre_cs_closed(2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        eval_laguerre_cs_closed(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_pt_cs_closed(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_pt_cs_closed(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        eval_pt_cs_closed(2.0, 1.0, math.pi)


# ------------------------------------------------------- annihilation property

def test_annihilation_zero_eigenvalue_is_exact():
    assert verify_annihilation("laguerre", 2, 0.0, 10) == 0.0
    assert verify_annihilation("hypergeometric", (4, Fraction(5, 2)), 0.0, 10) == 0.0


def test_annihilation_residual_small_at_n40():
    assert verify_annihilation("laguerre", 2, 1.5, 40) <= 1e-12
    assert verify_annihilation("hypergeometric", (4, Fraction(5, 2)), 1.5, 40) <= 1e-12


def _laguerre_tail_oracle(lam, ev, n_trunc):
    # (K- + ev) state has the single coefficient ev (-ev)^N / (N! (lam+1)_N)
    # at degree N; the state coefficients are (-ev)^n / (n! (lam+1)_n).
    lam = Fraction(lam)
    ev = Fraction(ev)
    poch = Fraction(1)
    norm2 = Fraction(0)
    coeff = Fraction(1)
    for n in range(n_trunc + 1):
        if n > 0:
            poch *= lam + n
            coeff *= -ev / n / (lam + n)
        norm2 += coeff * coeff
    tail = ev * coeff
    return math.sqrt(float(tail * tail / norm2))


def test_annihilation_residual_equals_tail_term():
    for n_trunc in (10, 20, 40):
        got = verify_annihilation("laguerre", 2, Fraction(3, 2), n_trunc)
        expected = _laguerre_tail_oracle(2, Fraction(3, 2), n_trunc)
        assert got == pytest.approx(expected, rel=1e-13)


def test_annihilation_residual_decreases_factorially():
    for family, params in (("laguerre", 2), ("hypergeometric", (4, Fraction(5, 2)))):
        r = [verify_annihilation(family, params, 3.0, n) for n in (10, 20, 40)]
        assert r[0] > r[1] > r[2]
        assert r[0] / r[1] > 1e5
        # factorial decay accelerates: each doubling gains more decades
        assert r[1] / r[2] > r[0] / r[1]


def test_annihilation_complex_eigenvalue():
    res = verify_annihilation("laguerre", 2, 1.0 + 1.0j, 30)
    assert 0.0 < res <= 1e-12


def test_annihilation_degenerate_parameter_names_degree():
    # lam = -3 makes Kt+'s denominator n + 1 + lam vanish at degree 2
    with pytest.raises(DegenerateParameterError) as err:
        verify_annihilation("laguerre", -3, 1.0, 10)
    assert (err.value.op_name, err.value.degree) == ("Kt+", 2)
    # with ev = 0 the state is x^0 alone and Kt+ never reaches degree 2
    assert verify_annihilation("laguerre", -3, 0.0, 10) == 0.0
    # b = -2 zeroes the hypKt+ factor on x^2, so the state 1 + x/2 + x^2/12
    # stops at degree 2 and neither hypKt+ (c = -4 at degree 4) nor hypK-
    # (at degree 3) is applied past it; the residual is (1/12) / sqrt(181/144)
    res = verify_annihilation("hypergeometric", (-2, -4), 1.0, 10)
    assert res == pytest.approx(math.sqrt(1 / 181), rel=1e-15)


@pytest.mark.parametrize("ev", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0)])
def test_annihilation_rejects_non_finite_eigenvalue(ev):
    with pytest.raises(ValueError, match="eigenvalue") as err:
        verify_annihilation("laguerre", 2, ev, 10)
    assert not isinstance(err.value, DegenerateParameterError)


def test_annihilation_bad_family():
    with pytest.raises(ValueError):
        verify_annihilation("fourier", 1, 1.0, 10)
    with pytest.raises(ValueError):
        verify_annihilation("laguerre", 1, 1.0, 1)
