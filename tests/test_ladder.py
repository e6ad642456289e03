"""Exact-arithmetic tests for the monomial-basis ladder operators."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstates.ladder import (
    DegenerateParameterError,
    LadderOp,
    MonoPoly,
    algebra_report,
    apply,
    commutator,
    hyp_from_operator,
    laguerre_from_operator,
    monomial,
)

LAM_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)]
HYP_GRID = [(Fraction(4), Fraction(5, 2)), (Fraction(12), Fraction(5, 2)), (Fraction(7), Fraction(3))]


# ------------------------------------------------------------------ actions

def test_k_minus_action():
    lam = Fraction(5, 2)
    out = apply(LadderOp.k_minus(lam), monomial(2))
    assert out == monomial(1, 2 * (2 + lam))


def test_k_minus_annihilates_constant():
    assert apply(LadderOp.k_minus(Fraction(3)), monomial(0)).is_zero()


def test_k_tilde_plus_on_constant():
    lam = Fraction(3, 2)
    out = apply(LadderOp.k_tilde_plus(lam), monomial(0))
    assert out == monomial(1, Fraction(1) / (1 + lam))


def test_hyp_actions():
    b, c = Fraction(4), Fraction(5, 2)
    out = apply(LadderOp.hyp_k_minus(b, c), monomial(3))
    assert out == monomial(2, Fraction(3) * (3 - 1 + c) / (3 - 1 + b))
    out = apply(LadderOp.hyp_k_tilde_plus(b, c), monomial(3))
    assert out == monomial(4, (3 + b) / (3 + c))


def test_degenerate_parameter_error_names_degree():
    op = LadderOp.k_tilde_plus(Fraction(-3))
    with pytest.raises(DegenerateParameterError) as err:
        apply(op, monomial(2))
    assert err.value.degree == 2


# -------------------------------------------------------------- commutators

@pytest.mark.parametrize("lam", LAM_GRID)
def test_su11_closure_exact(lam):
    kp, km, k3 = LadderOp.k_plus(lam), LadderOp.k_minus(lam), LadderOp.k3(lam)
    for n in range(31):
        p = monomial(n)
        assert commutator(kp, km, p) == apply(k3, p).scale(-2)
        assert commutator(k3, kp, p) == apply(kp, p)
        assert commutator(k3, km, p) == -apply(km, p)
        # [K+, K-] x^n = -(2n + lam + 1) x^n explicitly
        assert commutator(kp, km, p) == monomial(n, -(2 * n + lam + 1))


@pytest.mark.parametrize("lam", LAM_GRID)
def test_canonical_pair_laguerre(lam):
    km, ktp = LadderOp.k_minus(lam), LadderOp.k_tilde_plus(lam)
    for n in range(31):
        p = monomial(n)
        assert commutator(km, ktp, p) == p


@pytest.mark.parametrize("b,c", HYP_GRID)
def test_canonical_pair_hypergeometric(b, c):
    km, ktp = LadderOp.hyp_k_minus(b, c), LadderOp.hyp_k_tilde_plus(b, c)
    for n in range(31):
        p = monomial(n)
        assert commutator(km, ktp, p) == p


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=7),
)
small_polys = st.lists(small_fractions, min_size=1, max_size=6).map(MonoPoly.from_coeffs)
operators = st.sampled_from(
    [
        LadderOp.k_plus(Fraction(1, 2)),
        LadderOp.k_minus(Fraction(1, 2)),
        LadderOp.k3(Fraction(1, 2)),
        LadderOp.k_tilde_plus(Fraction(1, 2)),
        LadderOp.hyp_k_minus(Fraction(4), Fraction(5, 2)),
        LadderOp.hyp_k_tilde_plus(Fraction(4), Fraction(5, 2)),
    ]
)


@given(operators, small_polys, small_polys, small_fractions, small_fractions)
@settings(max_examples=150)
def test_apply_is_linear(op, p, q, a, b):
    lhs = apply(op, p.scale(a) + q.scale(b))
    rhs = apply(op, p).scale(a) + apply(op, q).scale(b)
    assert lhs == rhs


# --------------------------------------------- operator-exponential solutions

def test_laguerre_from_operator_trivial():
    assert laguerre_from_operator(0, Fraction(7, 3)) == monomial(0, 1)


def test_laguerre_from_operator_degree_one():
    # one-term expansion by hand: L_1^2 = 3 - x
    assert laguerre_from_operator(1, Fraction(2)) == MonoPoly.from_coeffs([3, -1])


def _laguerre_recurrence_exact(n, lam, x):
    lam, x = Fraction(lam), Fraction(x)
    l0, l1 = Fraction(1), 1 + lam - x
    if n == 0:
        return l0
    for k in range(1, n):
        l0, l1 = l1, ((2 * k + 1 + lam - x) * l1 - (k + lam) * l0) / (k + 1)
    return l1


# ten rational sample points, drawn once from a seeded generator
EXACT_POINTS = [
    Fraction(p, q)
    for p, q in [(1, 10), (3, 7), (2, 1), (19, 4), (12, 1), (-5, 3), (7, 2), (1, 97), (22, 5), (8, 1)]
]


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(5, 2)])
def test_laguerre_operator_matches_exact_recurrence(lam):
    for n in range(13):
        poly = laguerre_from_operator(n, lam)
        for x in EXACT_POINTS:
            assert poly.eval_exact(x) == _laguerre_recurrence_exact(n, lam, x)


def test_laguerre_operator_matches_float_recurrence_high_degree():
    from cohstates.specfun import laguerre

    for lam in [Fraction(1, 2), Fraction(2)]:
        for n in range(41):
            poly = laguerre_from_operator(n, lam)
            for x in [Fraction(1, 100), Fraction(19, 10), Fraction(5), Fraction(12)]:
                exact = float(poly.eval_exact(x))
                got = laguerre(n, float(lam), float(x))
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def _laguerre_coeffs_exact(n, lam):
    # L_n^lam = sum_k (-1)^k binom(n + lam, n - k) x^k / k!
    out = []
    for k in range(n + 1):
        binom = Fraction(1)
        for i in range(1, n - k + 1):
            binom *= (lam + k + i) / i
        out.append((-1) ** k * binom / math.factorial(k))
    return tuple(out)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(-1, 2), Fraction(7, 3), Fraction(-13, 4)])
def test_laguerre_from_operator_matches_coefficient_formula(lam):
    for n in range(61):
        assert laguerre_from_operator(n, lam).coeffs == _laguerre_coeffs_exact(n, lam)


def test_laguerre_from_operator_degenerate_lambda():
    with pytest.raises(DegenerateParameterError):
        laguerre_from_operator(4, Fraction(-2))


def test_hyp_from_operator_trivial():
    assert hyp_from_operator(0, Fraction(4), Fraction(5, 2)) == monomial(0, 1)


def test_hyp_from_operator_degree_one():
    b, c = Fraction(4), Fraction(5, 2)
    assert hyp_from_operator(1, b, c) == MonoPoly.from_coeffs([1, -b / c])


def _hyp_series_coeffs_exact(n, b, c):
    # (-n)_k (b)_k / ((c)_k k!) via explicit products
    out = []
    for k in range(n + 1):
        num, den = Fraction(1), Fraction(math.factorial(k))
        for j in range(k):
            num *= Fraction(-n + j) * (b + j)
            den *= c + j
        out.append(num / den)
    return tuple(out)


@pytest.mark.parametrize("b,c", HYP_GRID)
def test_hyp_from_operator_matches_series_coefficients(b, c):
    for n in range(61):
        assert hyp_from_operator(n, b, c).coeffs == _hyp_series_coeffs_exact(n, b, c)


def test_hyp_from_operator_n5_spot():
    poly = hyp_from_operator(5, Fraction(12), Fraction(5, 2))
    assert poly.coeffs == _hyp_series_coeffs_exact(5, Fraction(12), Fraction(5, 2))


def test_hyp_from_operator_degenerate():
    with pytest.raises(DegenerateParameterError):
        hyp_from_operator(4, Fraction(-2), Fraction(5, 2))
    with pytest.raises(DegenerateParameterError):
        hyp_from_operator(4, Fraction(4), Fraction(-1))


# ------------------------------------------------------------ infrastructure

def test_monopoly_trims_trailing_zeros():
    assert MonoPoly.from_coeffs([1, 2, 0, 0]) == MonoPoly.from_coeffs([1, 2])
    assert MonoPoly.from_coeffs([0]).is_zero()


def test_algebra_report_passes_and_tamper_fails():
    rep = algebra_report(Fraction(3, 2), Fraction(4), Fraction(5, 2), 15)
    assert rep["all_passed"]
    bad = algebra_report(Fraction(3, 2), Fraction(4), Fraction(5, 2), 15, _tamper=True)
    assert not bad["all_passed"]
    failing = [e["identity"] for e in bad["identities"] if not e["passed"]]
    assert "[K+, K-] = -2 K3" in failing


def _reference_report(lam, b, c, max_degree, tamper):
    # algebra_report's verdicts through the public polynomial path:
    # (passed, first_failure_degree) per identity, or the degenerate operator
    kp, km, ktp = LadderOp.k_plus(lam), LadderOp.k_minus(lam), LadderOp.k_tilde_plus(lam)
    k3 = LadderOp.k3(lam + 1 if tamper else lam)
    hkm, hktp = LadderOp.hyp_k_minus(b, c), LadderOp.hyp_k_tilde_plus(b, c)
    checks = [
        (lambda p: commutator(kp, km, p), lambda p: apply(k3, p).scale(-2)),
        (lambda p: commutator(k3, kp, p), lambda p: apply(kp, p)),
        (lambda p: commutator(k3, km, p), lambda p: -apply(km, p)),
        (lambda p: commutator(km, ktp, p), lambda p: p),
        (lambda p: commutator(hkm, hktp, p), lambda p: p),
    ]
    out = []
    try:
        for lhs, rhs in checks:
            failures = [n for n in range(max_degree + 1) if lhs(monomial(n)) != rhs(monomial(n))]
            out.append((not failures, failures[0] if failures else None))
    except DegenerateParameterError as err:
        return (err.op_name, err.degree)
    return out


def test_algebra_report_matches_polynomial_path():
    # seeded rationals, negative integers included so that some draws are
    # degenerate and must stop at the same operator and degree
    rng = random.Random(20240611)
    draw = lambda: Fraction(rng.randint(-12, 12), rng.choice([2, 3, 5, 7]))  # noqa: E731
    # lam = 0 and c = 1 put a vanishing denominator at degree -1, just past
    # K- x^0 = 0, where a chain must already have stopped
    cases = [(Fraction(0), Fraction(4), Fraction(1), 10)]
    cases += [(draw(), draw(), draw(), rng.randint(1, 30)) for _ in range(30)]
    degenerate = 0
    for lam, b, c, max_degree in cases:
        for tamper in (False, True):
            want = _reference_report(lam, b, c, max_degree, tamper)
            try:
                rep = algebra_report(lam, b, c, max_degree, _tamper=tamper)
            except DegenerateParameterError as err:
                got = (err.op_name, err.degree)
                degenerate += 1
            else:
                got = [(e["passed"], e.get("first_failure_degree")) for e in rep["identities"]]
            assert got == want, (lam, b, c, max_degree, tamper)
    assert 0 < degenerate < 60
