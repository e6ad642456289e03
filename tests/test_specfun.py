"""Unit tests for the scalar special functions."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cohstates import specfun


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_at_one_and_half():
    assert abs(specfun.ln_gamma(1.0)) < 1e-14      # Gamma(1) = 1
    assert abs(specfun.ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_ln_gamma_ten_and_a_half():
    # Gamma(10.5) = (product of odd numbers 1..19) / 2^10 * sqrt(pi),
    # by repeated Gamma(x+1) = x Gamma(x) starting from Gamma(1/2).
    odd_product = 1
    for k in range(10):
        odd_product *= 2 * k + 1
    assert odd_product == 654729075
    expected = math.log(odd_product) - 10.0 * math.log(2.0) + 0.5 * math.log(math.pi)
    assert abs(specfun.ln_gamma(10.5) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 60, 150])
def test_ln_gamma_integer_half_integer_oracle(m):
    # integers: lnGamma(m) = log((m-1)!) with exact integer factorial
    ref_int = math.log(math.factorial(m - 1)) if m > 1 else 0.0
    assert abs(specfun.ln_gamma(float(m)) - ref_int) <= 1e-13 * max(1.0, abs(ref_int))
    # half-integers: Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi)
    ref_half = (
        math.log(math.factorial(2 * m))
        - math.log(math.factorial(m))
        - m * math.log(4.0)
        + 0.5 * math.log(math.pi)
    )
    assert abs(specfun.ln_gamma(m + 0.5) - ref_half) <= 1e-13 * max(1.0, abs(ref_half))


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_ln_gamma_domain(bad):
    with pytest.raises(ValueError):
        specfun.ln_gamma(bad)


# ---------------------------------------------------------------- laguerre

def test_laguerre_degree_zero_and_one():
    assert specfun.laguerre(0, 0.7, 3.3) == 1.0
    assert specfun.laguerre(1, 2.0, 1.0) == 2.0  # 1 + lam - x


def test_laguerre_against_exact_operator_expansion():
    from cohstates.ladder import laguerre_from_operator

    poly = laguerre_from_operator(5, Fraction(1, 2))
    exact = float(poly.eval_exact(Fraction(16, 5)))  # x = 3.2
    got = specfun.laguerre(5, 0.5, 3.2)
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def _laguerre_ode_residual(n, lam, x, h):
    # five-point central differences for L'' and L'
    L = [specfun.laguerre(n, lam, x + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (L[0] - 8 * L[1] + 8 * L[3] - L[4]) / (12 * h)
    d2 = (-L[0] + 16 * L[1] - 30 * L[2] + 16 * L[3] - L[4]) / (12 * h * h)
    return x * d2 + (lam + 1 - x) * d1 + n * L[2]


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_laguerre_ode_residual(lam):
    xs = np.linspace(0.0, 20.0, 41)[1:]
    for n in [1, 4, 11, 23, 40]:
        scale = max(abs(specfun.laguerre(n, lam, float(x))) for x in xs)
        for x in xs:
            x = float(x)
            res = _laguerre_ode_residual(n, lam, x, 2e-4 * (1.0 + x))
            assert abs(res) <= 1e-6 * scale


# --------------------------------------------------------------- gegenbauer

def test_gegenbauer_degree_zero_and_one():
    assert specfun.gegenbauer(0, 1.3, 0.2) == 1.0
    rho, y = 1.3, 0.2
    assert abs(specfun.gegenbauer(1, rho, y) - 2.0 * rho * y) < 1e-15


def test_gegenbauer_hypergeometric_identity_spot():
    # F(-n, n+2 rho; rho+1/2; z) = n!/(2 rho)_n C_n^rho(1-2z) at n=6, rho=2, z=0.3
    n, rho, z = 6, 2.0, 0.3
    lhs = specfun.hyp_terminating(n, n + 2 * rho, rho + 0.5, z)
    scale = math.factorial(n) / math.prod(2 * rho + k for k in range(n))  # n!/(2 rho)_n
    rhs = scale * specfun.gegenbauer(n, rho, 1.0 - 2.0 * z)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_gegenbauer_domain():
    with pytest.raises(ValueError):
        specfun.gegenbauer(3, 1.0, 1.5)
    with pytest.raises(ValueError):
        specfun.gegenbauer(3, -0.5, 0.5)


@pytest.mark.parametrize("rho", [1e-3, 1e-9, 1e-300])
def test_gegenbauer_small_index_against_mpmath(rho):
    # C_k ~ (2 rho / k) cos(k theta) for small rho: every degree from 2 on
    # would carry an error of about eps/rho if 1 + 2 rho rounded first
    mp = mpmath.mp.clone()
    mp.dps = 50
    ys = (-0.9, -0.3, 0.1, 0.45, 0.8)
    values = [list(specfun._gegenbauer_values(30, rho, y)) for y in ys]
    refs = [[mp.gegenbauer(k, mp.mpf(rho), mp.mpf(y)) for k in range(31)] for y in ys]
    for k in range(31):
        scale = max(abs(ref[k]) for ref in refs)
        for vals, ref in zip(values, refs):
            assert abs(vals[k] - ref[k]) <= 1e-14 * scale, (k, vals[k])


# ------------------------------------------------------- hyp_terminating

def test_hyp_terminating_trivial():
    assert specfun.hyp_terminating(0, 4.0, 2.5, 0.7) == 1.0
    b, c, z = 4.0, 2.5, 0.7
    assert abs(specfun.hyp_terminating(1, b, c, z) - (1.0 - b / c * z)) < 1e-15


def _hyp_bruteforce(n, b, c, z):
    # independent route: explicit Pochhammer products, exact rationals
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    total = Fraction(0)
    for k in range(n + 1):
        num = Fraction(1)
        den = Fraction(math.factorial(k))
        for j in range(k):
            num *= Fraction(-n + j) * (b + j)
            den *= c + j
        total += num / den * z**k
    return total


def test_hyp_terminating_vs_bruteforce():
    expected = float(_hyp_bruteforce(6, 10.0, 2.5, 0.3))
    got = specfun.hyp_terminating(6, 10.0, 2.5, 0.3)
    assert got == pytest.approx(expected, rel=1e-15, abs=1e-300)


def test_hyp_terminating_large_degree_alternating():
    # n=20 at z=1 loses ~11 digits in naive double summation; the exact
    # internal arithmetic must keep full precision.
    n, rho = 20, 3.5
    got = specfun.hyp_terminating(n, n + 2 * rho, rho + 0.5, 1.0)
    expected = float(_hyp_bruteforce(n, n + 2 * rho, rho + 0.5, 1.0))
    assert got == pytest.approx(expected, rel=1e-14)


def test_hyp_terminating_denominator_error():
    with pytest.raises(ValueError):
        specfun.hyp_terminating(4, 1.0, -2.0, 0.5)


# ----------------------------------------------------------------- bessel_j

def test_bessel_trivial_at_zero():
    assert specfun.bessel_j(0.0, 0.0) == 1.0
    assert specfun.bessel_j(1.0, 0.0) == 0.0
    assert specfun.bessel_j(3.0, 0.0) == 0.0


def _bessel_series_reference(nu, x, terms=60):
    # independent double-precision series; safe for small arguments only
    total = 0.0
    for k in range(terms):
        t = nu + k + 1.0
        if t <= 0 and t == math.floor(t):
            continue
        total += (-1.0) ** k * (x / 2.0) ** (nu + 2 * k) / (
            math.factorial(k) * math.gamma(t)
        )
    return total


@pytest.mark.parametrize("nu", [-3.5, -2.5, -0.5, 0.0, 0.5, 1.5, 2.0, 3.7, 10.0, 19.5])
def test_bessel_against_50_digit_hypergeometric(nu):
    # J_nu(x) = (x/2)^nu / Gamma(nu+1) 0F1(; nu+1; -x^2/4), at 50 digits
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    for x in [0.01, 0.3] + [float(x) for x in np.linspace(0.0, 50.0, 51)[1:]]:
        half = ctx.mpf(x) / 2
        ref = half**nu * ctx.rgamma(nu + 1) * ctx.hyp0f1(nu + 1, -half * half)
        got = specfun.bessel_j(nu, x)
        assert abs(got - ref) <= 2.2e-16 * abs(ref), (nu, x)


def test_bessel_first_zero_located_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _bessel_series_reference(0.0, lo) * _bessel_series_reference(0.0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert abs(zero - 2.40482555769577) < 1e-10
    assert abs(specfun.bessel_j(0.0, 2.40482555769577)) <= 1e-10


def test_bessel_against_reference_series_small_x():
    for nu in [-2.5, -0.5, 0.0, 0.5, 2.0, 3.7]:
        for x in [0.3, 1.0, 2.7, 4.0]:
            ref = _bessel_series_reference(nu, x)
            assert specfun.bessel_j(nu, x) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_bessel_recurrence_self_consistency():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
    for nu in np.linspace(-3.0, 5.0, 17):
        for x in np.linspace(0.1, 30.0, 31):
            nu_, x_ = float(nu), float(x)
            a = specfun.bessel_j(nu_ - 1.0, x_)
            b = specfun.bessel_j(nu_ + 1.0, x_)
            rhs = 2.0 * nu_ / x_ * specfun.bessel_j(nu_, x_)
            scale = max(abs(a), abs(b), abs(rhs))
            assert abs(a + b - rhs) <= 1e-9 * scale


def test_bessel_negative_integer_order_symmetry():
    # J_{-m}(x) = (-1)^m J_m(x)
    for m in [1, 2, 3]:
        for x in [0.5, 2.0, 7.7]:
            assert specfun.bessel_j(-float(m), x) == pytest.approx(
                (-1.0) ** m * specfun.bessel_j(float(m), x), rel=1e-13, abs=1e-16
            )


def test_bessel_singular_point_flags():
    plus = specfun.bessel_j(-0.5, 0.0)
    minus = specfun.bessel_j(-1.5, 0.0)
    assert math.isinf(plus) and plus > 0
    assert math.isinf(minus) and minus < 0


def test_bessel_domain():
    with pytest.raises(ValueError):
        specfun.bessel_j(0.0, -1.0)
