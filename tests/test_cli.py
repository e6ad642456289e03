"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstates import cli, dynamics


def run(argv):
    return cli.main(argv)


# -------------------------------------------------------------- verify-algebra

def test_verify_algebra_passes(tmp_path, capsys):
    out = tmp_path / "algebra.json"
    code = run(
        ["verify-algebra", "--max-degree", "30", "--lambda", "3/2",
         "--b", "4", "--c", "5/2", "-o", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["lambda"] == "3/2"
    assert len(report["identities"]) == 5
    assert "all identities hold" in capsys.readouterr().out


def test_verify_algebra_zero_degree_is_usage_error(capsys):
    assert run(["verify-algebra", "--max-degree", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_algebra_tamper_hook_fails(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = run(["verify-algebra", "--max-degree", "10", "--tamper", "-o", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failed = [e["identity"] for e in report["identities"] if not e["passed"]]
    assert "[K+, K-] = -2 K3" in failed
    assert "[K+, K-] = -2 K3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--lambda", "-3"], "Kt+ is degenerate at degree 2"),
        (["--b", "0"], "hypK- is degenerate at degree 1"),
        (["--c", "-1"], "hypKt+ is degenerate at degree 1"),
        (["--b", "-2", "--c", "-2"], "hypKt+ is degenerate at degree 2"),
    ],
)
def test_verify_algebra_degenerate_parameters(flags, message, capsys):
    # the first vanishing denominator met by the identity suite is reported
    assert run(["verify-algebra", "--max-degree", "5", *flags]) == 2
    assert f"error: {message}:" in capsys.readouterr().err


# --------------------------------------------------------------------- cs-eval

def test_cs_eval_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["cs-eval", "--family", "laguerre", "--lam", "2", "--alpha", "3",
            "--grid-min", "0", "--grid-max", "20", "--samples", "400",
            "--n-terms", "80"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "x,re,im,abs2"
    assert len(lines) == 401


def test_cs_eval_alpha_zero_constant_column(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["cs-eval", "--family", "laguerre", "--lam", "2", "--alpha", "0",
                "--samples", "5", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    res = {row[1] for row in rows}
    assert len(res) == 1  # same re everywhere


def test_cs_eval_pt_family_theta_header(tmp_path):
    out = tmp_path / "pt.csv"
    assert run(["cs-eval", "--family", "pt", "--rho", "2", "--q", "5",
                "--samples", "10", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "theta,re,im,abs2"


def test_cs_eval_bad_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = run(["cs-eval", "--family", "laguerre", "--grid-min", "5",
                "--grid-max", "1", "-o", str(out)])
    assert code == 2
    assert not out.exists()  # no partial output
    capsys.readouterr()


def test_cs_eval_state_beyond_order_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = run(["cs-eval", "--family", "pt", "--rho", "2", "--q", "1000", "-o", str(out)])
    assert code == 2
    assert not out.exists()
    assert "not reachable within order cap 500" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cs-eval", "--family", "pt", "--rho", "2", "--q", "1000", "--n-terms", "500", "--samples", "4"],
        ["closed-form-check", "--family", "pt", "--rho", "2", "--q", "1000", "--samples", "3"],
        ["closed-form-check", "--family", "laguerre", "--alpha", "800", "--n-terms", "400"],
    ],
)
def test_overflowing_parameters_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "never.out"
    assert run(argv + ["-o", str(out)]) == 2
    assert not out.exists()
    assert "would overflow a double" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        # series values that overflow: L_n^lam(x) at huge x, C_n^rho(y) at huge rho
        (["cs-eval", "--family", "laguerre", "--grid-max", "1e308"], "is not finite"),
        (["closed-form-check", "--family", "laguerre", "--grid-max", "1e200", "--tol", "1e-8"], "is not finite"),
        (["closed-form-check", "--family", "laguerre", "--grid-max", "1e300"], "is not finite"),
        (["closed-form-check", "--family", "pt", "--rho", "1e300"], "is not finite"),
        # a closed form that underflows to 0 leaves no relative error
        (["closed-form-check", "--family", "laguerre", "--lam", "4", "--grid-max", "1e200", "--n-terms", "1"],
         "closed form is 0 at x = 5e+199"),
        (["closed-form-check", "--family", "laguerre", "--n-terms", "-1"], "series length"),
        # non-finite state parameters
        (["cs-eval", "--family", "pt", "--rho", "inf"], "must be finite"),
        (["cs-eval", "--family", "pt", "--q", "inf"], "must be finite"),
        (["cs-eval", "--family", "pt", "--q", "nan"], "must be finite"),
        (["cs-eval", "--family", "laguerre", "--alpha", "inf"], "must be finite"),
        (["autocorr", "--q", "inf"], "must be finite"),
        (["cs-eval", "--family", "laguerre", "--tail-tol", "inf"], "positive and finite"),
        # non-finite grid bounds
        (["cs-eval", "--family", "pt", "--grid-max", "inf"], "grid bounds"),
        (["closed-form-check", "--family", "laguerre", "--grid-max", "inf"], "grid bounds"),
        (["cs-eval", "--family", "pt", "--grid-min=-1e308", "--grid-max", "1e308"], "grid bounds"),
        (["autocorr", "--t-max", "inf"], "grid bounds"),
        (["autocorr", "--revs", "inf"], "grid bounds"),
    ],
)
def test_non_finite_input_or_values_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "never.out"
    assert run([*argv, "--samples", "3", "-o", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


_SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan)


def _option(lo, hi):
    """A typical value in [lo, hi] or one of the special floats."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(_SPECIAL))


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["cs-eval", "closed-form-check"]),
    family=st.sampled_from(["laguerre", "pt"]),
    options=st.fixed_dictionaries({
        "--lam": _option(-0.9, 4.0),
        "--alpha": _option(0.5, 6.0),
        "--rho": _option(0.5, 4.0),
        "--q": _option(1.0, 20.0),
        "--tail-tol": _option(1e-14, 1e-6),
    }, optional={
        "--grid-min": _option(0.0, 1.0),
        "--grid-max": _option(1.0, 20.0),
        "--tol": _option(1e-12, 1e-6),
    }),
    samples=st.integers(2, 16),
)
def test_grid_commands_exit_cleanly(command, family, options, samples):
    if command == "cs-eval":
        options.pop("--tol", None)
    argv = [command, "--family", family, "--samples", str(samples)]
    argv += [f"{name}={value!r}" for name, value in options.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([*argv, "-o", path])
        assert code in (0, 1, 2)
        if code == 2:
            assert not os.path.exists(path)
            assert "error:" in stderr.getvalue()
        if code == 0:
            with open(path) as handle:
                text = handle.read()
            if command == "cs-eval":
                assert all(math.isfinite(float(v)) for line in text.splitlines()[1:] for v in line.split(","))
            else:
                json.loads(text, parse_constant=_reject_constant)
                summary = re.search(r"max relative error = (\S+) over", stdout.getvalue())
                assert math.isfinite(float(summary.group(1)))


# ---------------------------------------------------------- closed-form-check

def test_closed_form_check_laguerre(tmp_path, capsys):
    out = tmp_path / "check.json"
    code = run(["closed-form-check", "--family", "laguerre", "--lam", "2",
                "--alpha", "3", "--samples", "20", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["max_rel_err"] <= 1e-8
    assert "max relative error" in capsys.readouterr().out


def test_closed_form_check_pt_with_tolerance_gate(capsys):
    code = run(["closed-form-check", "--family", "pt", "--rho", "2", "--q", "5",
                "--samples", "12", "--tol", "1e-8"])
    assert code == 0
    capsys.readouterr()


# -------------------------------------------------------------------- autocorr

def test_autocorr_full_revival_at_trace_end(tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["autocorr", "--rho", "2", "--q", "5", "--samples", "513",
                "--revs", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re,im,abs2"
    final_abs2 = float(lines[-1].split(",")[3])
    assert final_abs2 >= 0.999


def test_autocorr_q_zero_flat(tmp_path):
    out = tmp_path / "flat.csv"
    assert run(["autocorr", "--rho", "2", "--q", "0", "--samples", "33",
                "--revs", "1", "-o", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


def test_autocorr_symmetric_grid_hermitian(tmp_path):
    out = tmp_path / "sym.csv"
    assert run(["autocorr", "--rho", "2", "--q", "5", "--samples", "201",
                "--t-min", "-6.0", "--t-max", "6.0", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    values = [complex(float(r[1]), float(r[2])) for r in rows]
    for v, w in zip(values, reversed(values)):  # A(-t) = conj(A(t))
        assert v == pytest.approx(w.conjugate(), abs=1e-13)


def test_autocorr_status_line_gives_the_real_window(tmp_path, capsys):
    out = tmp_path / "window.csv"
    assert run(["autocorr", "--samples", "5", "--t-min", "5", "--t-max", "6", "-o", str(out)]) == 0
    assert "t in [5, 6]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--spec-a", "inf", "--t-max", "1"],
        ["--spec-a", "1", "--spec-b", "nan", "--t-max", "1"],
        ["--spec-a", "1e308", "--t-max", "1"],  # E(n) leaves the double range
        ["--t-max", "1e300"],  # phases beyond 2^40 turns
    ],
)
def test_autocorr_out_of_range_input_exits_2(flags, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run(["autocorr", "--samples", "3", *flags, "-o", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_autocorr_deterministic(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    argv = ["autocorr", "--rho", "2", "--q", "5", "--samples", "257", "--revs", "2"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_grid_sample_cap_is_checked_before_allocation(monkeypatch, tmp_path, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "never.csv"
    for argv in (
        ["autocorr", "--samples", str(cli.MAX_SAMPLES + 1)],
        ["autocorr", "--samples", "100000000000"],
        ["cs-eval", "--family", "pt", "--samples", str(cli.MAX_SAMPLES + 1)],
        ["closed-form-check", "--family", "laguerre", "--samples", str(cli.MAX_SAMPLES + 1)],
    ):
        assert run([*argv, "-o", str(out)]) == 2
        assert "sample count" in capsys.readouterr().err
    assert not out.exists()


def test_autocorr_nan_eigenvalue_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert run(["autocorr", "--q", "nan", "--samples", "3", "-o", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_autocorr_tiny_index_gives_finite_rows(tmp_path):
    # h_1/h_0 underflows at rho = 1e-300; a RuntimeWarning fails this test
    out = tmp_path / "tiny.csv"
    assert run(["autocorr", "--rho", "1e-300", "--samples", "8", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


# -------------------------------------------------------------------- revivals

def test_revivals_round_trip_matches_in_process(tmp_path):
    trace_path = tmp_path / "trace.csv"
    assert run(["autocorr", "--rho", "2", "--q", "5", "--samples", "2049",
                "--revs", "2", "-o", str(trace_path)]) == 0
    report_path = tmp_path / "revivals.json"
    t_rev = 2.0 * math.pi
    assert run(["revivals", "--trace", str(trace_path), "--t-rev", repr(t_rev),
                "-o", str(report_path)]) == 0
    from_cli = json.loads(report_path.read_text())

    trace = cli._load_trace(str(trace_path))
    expected = dynamics.detect_revivals(trace, t_rev).to_dict()
    assert from_cli == json.loads(json.dumps(expected))


def test_revivals_finds_structure(tmp_path):
    trace_path = tmp_path / "trace.csv"
    assert run(["autocorr", "--rho", "2", "--q", "5", "--samples", "4097",
                "--revs", "2", "-o", str(trace_path)]) == 0
    out = tmp_path / "rep.json"
    assert run(["revivals", "--trace", str(trace_path), "--t-rev",
                repr(2.0 * math.pi), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["full_revivals"]) == 2
    fractions = {p["fraction"] for p in rep["fractional_revivals"]}
    assert {"1/4", "3/4"} <= fractions


def test_revivals_malformed_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,1\n")
    assert run(["revivals", "--trace", str(bad), "--t-rev", "6.28"]) == 2
    assert "malformed" in capsys.readouterr().err


def test_revivals_missing_trace_exits_2(tmp_path, capsys):
    assert run(["revivals", "--trace", str(tmp_path / "nope.csv"), "--t-rev", "6.28"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------- factor

def test_factor_command(tmp_path):
    out = tmp_path / "factor.json"
    assert run(["factor", "--n", "15", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["factors"] == [3, 5]
    assert report["m_terms"] == 4


def test_factor_prime(tmp_path):
    out = tmp_path / "p.json"
    assert run(["factor", "--n", "13", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["factors"] == []


def test_factor_bad_n_exits_2(capsys):
    assert run(["factor", "--n", "1"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- plumbing

def test_stdout_mode(capsys):
    assert run(["factor", "--n", "21"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["factors"] == [3, 7]


def test_no_partial_file_on_failure(tmp_path):
    out = tmp_path / "out.json"
    assert run(["verify-algebra", "--max-degree", "-3", "-o", str(out)]) == 2
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
