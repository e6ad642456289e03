"""Tests for the truncated-Gauss-sum divisor scan."""

import cmath
import math
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstates import cli, gaussfactor
from cohstates.gaussfactor import DEFAULT_THRESHOLD, default_m_terms, factor_scan, gauss_sum


def loop_gauss_sum(n, ell, m_terms):
    """Independent oracle: the direct per-term sum, one cmath.exp per m."""
    total = 0j
    for m in range(m_terms):
        total += cmath.exp(-2j * math.pi * ((m * m * n) % ell) / ell)
    return total / m_terms


def mp_period_sum(n, ell, k):
    """50-digit sum of exp(-2 pi i m^2 n / ell) over m < k, term by term."""
    with mpmath.workdps(50):
        return mpmath.fsum(mpmath.expjpi(mpmath.mpf(-2 * ((m * m * n) % ell)) / ell) for m in range(k))


def test_divisor_gives_unit_sum_exactly():
    for n, ell in [(15, 3), (15, 5), (100, 10), (4, 2), (999, 37)]:
        for m in (1, 4, 9, 31):
            s = gauss_sum(n, ell, m)
            assert abs(s - 1.0) <= 1e-12


def test_hand_phase_table_n15_ell2():
    # m^2 * 15 is odd for odd m: phases alternate 1, -1, 1, -1
    s = gauss_sum(15, 2, 4)
    assert abs(s) <= 1e-15


def test_hand_phase_table_n15_ell4():
    # independent phase-table oracle with exact residues
    expected = sum(cmath.exp(-2j * math.pi * ((m * m * 15) % 4) / 4) for m in range(4)) / 4
    s = gauss_sum(15, 4, 4)
    assert s == pytest.approx(expected, abs=1e-15)
    assert abs(s) < 1.0


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=1_000_000),
)
@settings(max_examples=300)
def test_magnitude_never_exceeds_one(n, ell, m):
    assert abs(gauss_sum(n, ell, m)) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "n, ell, m_terms",
    [
        (15, 7, 3),  # M < l
        (99991, 97, 40),  # M < l
        (15, 7, 7),  # M = l
        (2305, 97, 97),  # M = l
        (17, 4, 5),  # M = k l + r
        (561, 13, 3 * 13 + 5),
        (99991, 64, 10 * 64 + 63),
        (10**30 + 7, 13, 4 * 13 + 2),  # n beyond int64
        (5, 10**20, 3),  # l beyond int64
    ],
)
def test_gauss_sum_matches_direct_loop(n, ell, m_terms):
    assert gauss_sum(n, ell, m_terms) == pytest.approx(loop_gauss_sum(n, ell, m_terms), abs=1e-13)


def test_gauss_sum_wide_row_matches_direct_loop():
    # min(l, M) above the kernel's block width: the row is summed in chunks
    n, ell, m_terms = 123457, 20011, 45000
    assert gauss_sum(n, ell, m_terms) == pytest.approx(loop_gauss_sum(n, ell, m_terms), abs=1e-12)


def test_gauss_sum_huge_truncation_against_mpmath():
    # M = 10^12 = q l + r: q complete periods plus a prefix of r terms
    n, ell, m_terms = 123456789, 97, 10**12
    q, r = divmod(m_terms, ell)
    start = time.perf_counter()
    s = gauss_sum(n, ell, m_terms)
    elapsed = time.perf_counter() - start
    expected = (q * mp_period_sum(n, ell, ell) + mp_period_sum(n, ell, r)) / m_terms
    assert abs(mpmath.mpc(s) - expected) <= 1e-15
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "n, ells, m_terms",
    [
        (4_000_037, range(2, 2001), 2001),  # a whole scan: many narrow rows
        (5, [10**6 + 3], 10**6),  # one row a hundred blocks wide
    ],
)
def test_kernel_transient_memory_is_bounded(n, ells, m_terms):
    # one unblocked 2000 x 2000 or 1 x 10^6 float array alone would take 8 MB
    tracemalloc.start()
    try:
        gaussfactor._folded_sums(n, ells, m_terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_divisor_sums_are_exactly_one():
    # dividing a complex total by an int in numpy multiplies by a reciprocal,
    # which would give 0.9999999999999999 for n=2305, l=5
    for m_terms in (1, 49, 2305, 10**12, 2**53):
        s = gauss_sum(2305, 5, m_terms)
        assert s.real == 1.0 and abs(s) == 1.0
    row = next(r for r in factor_scan(2305).rows if r.ell == 5)
    assert row.signal == 1.0 and row.magnitude == 1.0


def test_m_terms_bounded_by_float_exactness():
    q, r = divmod(2**53, 3)
    expected = (q * mp_period_sum(7, 3, 3) + mp_period_sum(7, 3, r)) / 2**53
    assert abs(mpmath.mpc(gauss_sum(7, 3, 2**53)) - expected) <= 1e-15
    with pytest.raises(ValueError):
        gauss_sum(7, 3, 2**53 + 1)
    with pytest.raises(ValueError):
        factor_scan(15, m_terms=2**63)


def test_cli_rejects_m_terms_beyond_float_exactness(capsys):
    assert cli.main(["factor", "--n", "15", "--m-terms", str(2**63)]) == 2
    assert "m_terms" in capsys.readouterr().err


def _no_kernel(*args):
    raise AssertionError("the scan reached the kernel")


def test_factor_scan_trial_divisor_cap_is_checked_first(monkeypatch):
    cap = gaussfactor._SCAN_MAX
    monkeypatch.setattr(gaussfactor, "_folded_sums", _no_kernel)
    for n in ((cap + 2) ** 2, 2**63, 9223372036854775809):
        with pytest.raises(ValueError, match="trial divisors"):
            factor_scan(n, m_terms=3)
    # floor(sqrt(n)) - 1 = cap trial divisors is still accepted
    with pytest.raises(AssertionError, match="kernel"):
        factor_scan((cap + 1) ** 2 + 2 * cap, m_terms=3)


def test_cli_rejects_scan_beyond_the_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gaussfactor, "_folded_sums", _no_kernel)
    out = tmp_path / "never.json"
    for n in ((gaussfactor._SCAN_MAX + 2) ** 2, 9223372036854775809):
        assert cli.main(["factor", "--n", str(n), "--m-terms", "3", "-o", str(out)]) == 2
        assert "trial divisors" in capsys.readouterr().err
    assert not out.exists()


def test_default_m_terms():
    assert default_m_terms(15) == 4
    assert default_m_terms(16) == 4
    assert default_m_terms(17) == 5


def test_factor_scan_composite():
    report = factor_scan(15, m_terms=4, threshold=0.7)
    assert report.factors == [3, 5]


def test_factor_scan_prime():
    assert factor_scan(13).factors == []


def test_factor_scan_square():
    report = factor_scan(4)
    (row,) = report.rows
    assert row.ell == 2 and row.is_factor
    assert row.magnitude == pytest.approx(1.0, abs=1e-12)
    assert row.cofactor == 2


def test_ell4_saturation_rejected():
    # complete l=4 sums of odd n have modulus exactly 1/sqrt(2), right on the
    # conventional threshold; the cosine verdict must keep rejecting them
    report = factor_scan(17)
    row4 = next(r for r in report.rows if r.ell == 4)
    assert row4.magnitude == pytest.approx(math.sqrt(13.0) / 5.0, abs=1e-12)  # above 1/sqrt(2)
    assert row4.signal == pytest.approx(0.6, abs=1e-12)
    assert not row4.is_factor


def test_agreement_with_trial_division_up_to_300():
    for n in range(2, 301):
        accepted = {row.ell for row in factor_scan(n).rows if row.is_factor}
        true_divisors = {d for d in range(2, math.isqrt(n) + 1) if n % d == 0}
        assert accepted == true_divisors, f"mismatch at n={n}"


def test_exhaustive_sweep_up_to_3000():
    worst = 0.0
    for n in range(2, 3001):
        for row in factor_scan(n).rows:
            if n % row.ell == 0:
                assert row.signal == 1.0 and row.magnitude == 1.0 and row.is_factor, (n, row)
            else:
                assert not row.is_factor, (n, row)
                worst = max(worst, row.signal)
    assert worst <= 0.6 + 1e-12


def test_report_serialization_shape():
    d = factor_scan(21).to_dict()
    assert d["n"] == 21 and d["m_terms"] == 5
    assert d["threshold"] == pytest.approx(DEFAULT_THRESHOLD)
    assert d["factors"] == [3, 7]
    assert {"ell", "magnitude", "signal", "is_factor", "cofactor"} <= set(d["rows"][0])


def test_parameter_validation():
    with pytest.raises(ValueError):
        gauss_sum(0, 2, 2)
    with pytest.raises(ValueError):
        gauss_sum(5, 0, 2)
    with pytest.raises(ValueError):
        factor_scan(1)
    with pytest.raises(ValueError):
        factor_scan(20, threshold=1.0)
    with pytest.raises(ValueError):
        factor_scan(20, m_terms=0)
