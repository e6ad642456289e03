"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure) and enforces both the stated tolerance and the stated runtime
budget.  Run with::

    pytest tests/test_acceptance.py -s
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cohstates import cstates, dynamics, gaussfactor, ladder, specfun

LAM_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)]
HYP_GRID = [(Fraction(4), Fraction(5, 2)), (Fraction(12), Fraction(5, 2)), (Fraction(7), Fraction(3))]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s exceeds {self.seconds}s budget"
            print(f"[{self.name}] PASS ({elapsed:.2f}s < {self.seconds:.0f}s)")
        return False


def test_criterion_1_exact_algebra_suite():
    with _Budget("criterion 1: exact su(1,1) algebra + canonical pairs", 5.0):
        for lam in LAM_GRID:
            kp = ladder.LadderOp.k_plus(lam)
            km = ladder.LadderOp.k_minus(lam)
            k3 = ladder.LadderOp.k3(lam)
            ktp = ladder.LadderOp.k_tilde_plus(lam)
            for n in range(31):
                p = ladder.monomial(n)
                assert ladder.commutator(kp, km, p) == ladder.apply(k3, p).scale(-2)
                assert ladder.commutator(k3, kp, p) == ladder.apply(kp, p)
                assert ladder.commutator(k3, km, p) == -ladder.apply(km, p)
                assert ladder.commutator(km, ktp, p) == p
        for b, c in HYP_GRID:
            hkm = ladder.LadderOp.hyp_k_minus(b, c)
            hktp = ladder.LadderOp.hyp_k_tilde_plus(b, c)
            for n in range(31):
                p = ladder.monomial(n)
                assert ladder.commutator(hkm, hktp, p) == p


def _laguerre_recurrence_exact(n, lam, x):
    l0, l1 = Fraction(1), 1 + lam - x
    if n == 0:
        return l0
    for k in range(1, n):
        l0, l1 = l1, ((2 * k + 1 + lam - x) * l1 - (k + lam) * l0) / (k + 1)
    return l1


def _hyp_series_coeff_exact(n, b, c, k):
    num, den = Fraction(1), Fraction(math.factorial(k))
    for j in range(k):
        num *= Fraction(-n + j) * (b + j)
        den *= c + j
    return num / den


def test_criterion_2_operator_form_regeneration():
    with _Budget("criterion 2: operator-exponential regeneration", 5.0):
        points = [Fraction(1, 100), Fraction(19, 10), Fraction(5), Fraction(12)]
        exact_points = points + [Fraction(p, q) for p, q in
                                 [(3, 7), (-5, 3), (7, 2), (1, 97), (22, 5), (8, 1)]]
        for lam in (Fraction(1, 2), Fraction(2)):
            # exact rational agreement with the recurrence, n <= 12
            for n in range(13):
                poly = ladder.laguerre_from_operator(n, lam)
                for x in exact_points:
                    assert poly.eval_exact(x) == _laguerre_recurrence_exact(n, lam, x)
            # floating agreement with the production evaluator, n <= 40
            for n in range(41):
                poly = ladder.laguerre_from_operator(n, lam)
                for x in points:
                    exact = float(poly.eval_exact(x))
                    got = specfun.laguerre(n, float(lam), float(x))
                    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))
        b, c = Fraction(12), Fraction(5, 2)
        for n in range(13):
            poly = ladder.hyp_from_operator(n, b, c)
            assert poly.coeffs == tuple(_hyp_series_coeff_exact(n, b, c, k) for k in range(n + 1))
        for n in range(41):
            poly = ladder.hyp_from_operator(n, b, c)
            for z in (0.1, 1.0 / 3.0, 0.9):
                exact = float(poly.eval_exact(Fraction(z)))
                got = specfun.hyp_terminating(n, float(b), float(c), z)
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_criterion_3_closed_form_identities():
    with _Budget("criterion 3: Bessel closed forms vs series", 10.0):
        for lam in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 3.0, 5.0):
                for x in (0.1, 1.0, 5.0, 10.0):
                    series = cstates.laguerre_series_sum(lam, alpha, x, 80).real
                    closed = cstates.eval_laguerre_cs_closed(lam, alpha, x)
                    assert abs(series - closed) <= 1e-8 * abs(closed)
        for rho in (1.0, 2.0, 3.5):
            for q in (0.5, 2.0, 5.0):
                for theta in (0.3, 1.0, math.pi / 2, 2.5):
                    series = cstates.pt_series_sum(rho, q, math.cos(theta), 200).real
                    closed = cstates.eval_pt_cs_closed(rho, q, theta)
                    assert abs(series - closed) <= 1e-8 * abs(closed)


def test_criterion_4_annihilation_property():
    with _Budget("criterion 4: annihilation residuals", 5.0):
        eigenvalues = [Fraction(3, 2), Fraction(3), complex(2.0, 2.0)]  # |ev| <= 3
        for family, params in (("laguerre", 2), ("hypergeometric", (4, Fraction(5, 2)))):
            for ev in eigenvalues:
                residuals = [
                    cstates.verify_annihilation(family, params, ev, n) for n in (10, 20, 40)
                ]
                assert residuals[-1] <= 1e-12
                assert residuals[0] > residuals[1] > residuals[2]


def _tail_ratio_squared(kt_factor, abs2, n_trunc):
    # ||(K- + ev) s||^2 / ||s||^2 from the closed form: the residual is ev
    # times the lone degree-N term t_N, and
    # t_k^2 = |ev|^(2k) / k!^2 * prod_{j<k} kt_factor(j)^2
    term2 = Fraction(1)
    total = term2
    for k in range(1, n_trunc + 1):
        term2 *= abs2 * kt_factor(k - 1) ** 2 / (k * k)
        total += term2
    return abs2 * term2 / total


def test_annihilation_residual_below_double_square_range():
    # The squared ratio leaves the double range below about 1.5e-154, long
    # before the residual itself does.  Laguerre stops at N = 100: at N = 120
    # the true residual (about 5e-380) is below the smallest double.
    cases = [
        ("laguerre", 2, lambda j: Fraction(1) / (j + 3), (60, 80, 100)),
        ("hypergeometric", (4, Fraction(5, 2)), lambda j: (j + 4) / (j + Fraction(5, 2)), (60, 80, 100, 120)),
    ]
    with mpmath.workdps(50):
        for family, params, kt_factor, orders in cases:
            for ev, abs2 in ((Fraction(3, 2), Fraction(9, 4)), (complex(2.0, 2.0), Fraction(8))):
                residuals = [cstates.verify_annihilation(family, params, ev, n) for n in orders]
                for n, got in zip(orders, residuals):
                    ratio2 = _tail_ratio_squared(kt_factor, abs2, n)
                    want = mpmath.sqrt(mpmath.mpf(ratio2.numerator) / ratio2.denominator)
                    assert abs(got - want) <= 1e-15 * want, (family, ev, n, got, want)
                assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_criterion_5_gegenbauer_hypergeometric_identity():
    with _Budget("criterion 5: Gegenbauer-hypergeometric identity", 2.0):
        for n in range(21):
            for rho in (1.0, 2.0, 3.5):
                for z in (0.0, 0.25, 0.5, 0.75, 1.0):
                    lhs = specfun.hyp_terminating(n, n + 2.0 * rho, rho + 0.5, z)
                    scale = math.exp(
                        specfun.ln_gamma(n + 1.0)
                        + specfun.ln_gamma(2.0 * rho)
                        - specfun.ln_gamma(2.0 * rho + n)
                    )
                    rhs = scale * specfun.gegenbauer(n, rho, 1.0 - 2.0 * z)
                    bound = max(abs(lhs), abs(rhs))
                    if bound == 0.0:
                        continue  # both sides exactly zero (odd n at z = 1/2)
                    assert abs(lhs - rhs) <= 1e-10 * bound


def _figure_trace(samples=4097):
    state = cstates.build_pt_cs(2.0, 5.0)
    p = cstates.weights(state)
    spectrum = dynamics.pt_spectrum(2.0)
    t_rev = dynamics.revival_time(spectrum).t_rev
    times = np.linspace(0.0, 2.0 * t_rev, samples)
    return dynamics.autocorr(p, spectrum, times), t_rev


def test_criterion_6_figure_structure():
    with _Budget("criterion 6: revival/fractional-revival structure", 10.0):
        trace, t_rev = _figure_trace()
        assert abs(trace.magsq[0] - 1.0) <= 1e-10

        report = dynamics.detect_revivals(trace, t_rev, full_threshold=0.9,
                                          frac_threshold=0.2, q_max=8)
        # full revivals at T_rev and 2 T_rev with |A|^2 >= 0.99
        dt = trace.times[1] - trace.times[0]
        for target in (t_rev, 2.0 * t_rev):
            peak = min(report.full_revivals, key=lambda pk: abs(pk.time - target))
            assert abs(peak.time - target) <= 2.0 * dt
            assert peak.magsq >= 0.99

        # at least two mid peaks strictly inside each inter-revival window
        for lo, hi in ((0.0, t_rev), (t_rev, 2.0 * t_rev)):
            mid = [
                pk for pk in report.fractional_revivals
                if lo < pk.time < hi and 0.2 <= pk.magsq < 0.9
            ]
            assert len(mid) >= 2

        # the strict local maximum nearest T_rev/2 annotates as 1/2
        magsq = trace.magsq
        maxima = [
            k for k in range(1, len(magsq) - 1)
            if magsq[k] > magsq[k - 1] and magsq[k] > magsq[k + 1]
        ]
        nearest = min(maxima, key=lambda k: abs(trace.times[k] - 0.5 * t_rev))
        frac, _err = dynamics.nearest_fraction(trace.times[nearest] / t_rev, 8)
        assert frac == Fraction(1, 2)


def test_criterion_7_fractional_revival_oracle_equivalence():
    with _Budget("criterion 7: Gauss-mix oracle equivalence", 5.0):
        state = cstates.build_pt_cs(2.0, 5.0)
        p = cstates.weights(state)
        spectrum = dynamics.Spectrum(1.0, 0.0, 0.0)  # E(n) = n^2
        for den in range(1, 7):
            for num in range(1, den + 1):
                t = 2.0 * math.pi * num / den
                got = dynamics.autocorr(p, spectrum, np.array([t])).values[0]
                expected = 0.0 + 0.0j
                for n in range(len(p)):
                    phase = Fraction(n * n * num, den) % 1
                    expected += p[n] * complex(
                        math.cos(2.0 * math.pi * float(phase)),
                        -math.sin(2.0 * math.pi * float(phase)),
                    )
                assert abs(got - expected) <= 1e-10


def test_criterion_8_gauss_sum_factorization():
    with _Budget("criterion 8: Gauss-sum divisor agreement, n <= 1000", 10.0):
        for n in range(2, 1001):
            accepted = {row.ell for row in gaussfactor.factor_scan(n).rows if row.is_factor}
            true_divisors = {d for d in range(2, math.isqrt(n) + 1) if n % d == 0}
            assert accepted == true_divisors, f"divisor mismatch at n={n}"
        assert gaussfactor.factor_scan(15).factors == [3, 5]
        assert gaussfactor.factor_scan(21).factors == [3, 7]
        assert gaussfactor.factor_scan(13).factors == []


_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH (``src``) no
    # longer resolves; put the checkout's absolute src first instead.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cohstates.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    with _Budget("criterion 9: byte-identical CLI reruns", 30.0):
        cases = [
            (["verify-algebra", "--max-degree", "20", "--lambda", "1/2",
              "--b", "4", "--c", "5/2"], "algebra.json"),
            (["cs-eval", "--family", "laguerre", "--lam", "2", "--alpha", "3",
              "--grid-min", "0", "--grid-max", "20", "--samples", "200",
              "--n-terms", "80"], "profile.csv"),
            (["autocorr", "--rho", "2", "--q", "5", "--samples", "1025",
              "--revs", "2"], "trace.csv"),
            (["factor", "--n", "561"], "factor.json"),
        ]
        outputs = {}
        for args, name in cases:
            a = tmp_path / f"first-{name}"
            b = tmp_path / f"second-{name}"
            _run_cli(args + ["-o", str(a)], tmp_path)
            _run_cli(args + ["-o", str(b)], tmp_path)
            assert a.read_bytes() == b.read_bytes(), f"{name} not deterministic"
            outputs[name] = a
        # revivals consumes the trace emitted above, same determinism contract
        for tag in ("first", "second"):
            _run_cli(
                ["revivals", "--trace", str(outputs["trace.csv"]),
                 "--t-rev", repr(2.0 * math.pi), "-o", str(tmp_path / f"{tag}-rev.json")],
                tmp_path,
            )
        assert (tmp_path / "first-rev.json").read_bytes() == (tmp_path / "second-rev.json").read_bytes()
        report = json.loads((tmp_path / "first-rev.json").read_text())
        assert len(report["full_revivals"]) == 2
