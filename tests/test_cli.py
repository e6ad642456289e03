"""End-to-end tests of the command-line interface."""

import json
import math
import os

import pytest

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


def test_autocorr_deterministic(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    argv = ["autocorr", "--rho", "2", "--q", "5", "--samples", "257", "--revs", "2"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
