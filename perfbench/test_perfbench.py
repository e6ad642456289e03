"""Tests of the benchmark itself: deterministic jobs, oracles that catch
planted errors, and a result line that carries every declared metric."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cohstates import cli, cstates, ladder  # noqa: E402


def _cli(job, work):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([a.replace("{work}", str(work)) for a in job.args])
    return rc, out.getvalue(), workloads.read_outputs(job, str(work))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.digest(workload, 7, 3) == workloads.digest(workload, 7, 3)
    assert workloads.digest(workload, 7, 3) != workloads.digest(workload, 8, 3)
    assert workloads.digest(workload, 7, 1) != workloads.digest(workload, 7, 3)
    warm = next(workloads.decks(workload, 7, "warmup"))
    assert [j.key() for j in warm] != [j.key() for j in next(workloads.decks(workload, 7))]


def test_carmichael_numbers_satisfy_korselt():
    for n in workloads.CARMICHAEL:
        primes = [p for p in range(2, math.isqrt(n) + 1) if n % p == 0 and oracles.is_prime(p)]
        cofactor = n
        for p in primes:
            cofactor //= p
        assert cofactor == 1 or oracles.is_prime(cofactor)
        primes += [cofactor] if cofactor > 1 else []
        assert math.prod(primes) == n and len(primes) >= 3
        assert all((n - 1) % (p - 1) == 0 for p in primes)


def _autocorr_job():
    return workloads.Job(
        "autocorr",
        ("autocorr", "--rho", "2.5", "--q", "7", "--samples", "257", "--revs", "1", "-o", "{work}/t.csv"),
        {"rho": "2.5", "q": "7", "t_min": "0", "t_max": None, "revs": "1", "points": 8, "seed": 3},
    )


def test_trace_oracle_flags_value_off_by_1e6(tmp_path):
    job = _autocorr_job()
    rc, out, files = _cli(job, tmp_path)
    assert workloads.check_autocorr(job, rc, out, files).ok
    lines = files["{work}/t.csv"].splitlines()
    k = workloads._subset(3, 257, 8)[-1]
    t, re_, im, _ = (float(v) for v in lines[k + 1].split(","))
    re_ += 1e-6
    lines[k + 1] = ",".join(format(v, ".17g") for v in (t, re_, im, re_ * re_ + im * im))
    files["{work}/t.csv"] = "\n".join(lines) + "\n"
    assert not workloads.check_autocorr(job, rc, out, files).ok


def test_factor_oracle_flags_wrong_divisor(tmp_path):
    job = workloads.Job("factor", ("factor", "--n", "561"), {"seed": 1})
    rc, out, files = _cli(job, tmp_path)
    assert workloads.check_factor(job, rc, out, files).ok
    report = json.loads(out)
    report["factors"] = sorted(report["factors"] + [7])
    assert not workloads.check_factor(job, rc, json.dumps(report), files).ok
    report = json.loads(out)
    report["rows"][5]["is_factor"] = not report["rows"][5]["is_factor"]
    assert not workloads.check_factor(job, rc, json.dumps(report), files).ok


def test_profile_and_closed_form_oracles(tmp_path):
    deck = next(workloads.decks("state-pipeline", 2))
    for name, check in (("cs-eval", workloads.check_cs_eval), ("closed-form-check", workloads.check_closed_form)):
        job = next(j for j in deck if j.name == name)
        rc, out, files = _cli(job, tmp_path)
        assert check(job, rc, out, files).ok
        path = job.args[-1]
        if name == "cs-eval":
            lines = files[path].splitlines()
            x, re_, im, _ = (float(v) for v in lines[1].split(","))
            re_ *= 1 + 1e-6
            lines[1] = ",".join(format(v, ".17g") for v in (x, re_, im, re_ * re_ + im * im))
            files[path] = "\n".join(lines) + "\n"
        else:
            report = json.loads(files[path])
            report["points"][0]["closed"] *= 1 + 1e-6
            files[path] = json.dumps(report)
        assert not check(job, rc, out, files).ok


def test_revivals_oracle_flags_missing_peak(tmp_path):
    job = _autocorr_job()
    _cli(job, tmp_path)
    rev = workloads.Job("revivals", ("revivals", "--trace", "{work}/t.csv", "--t-rev", workloads.TWO_PI,
                                     "-o", "{work}/r.json"))
    rc, out, files = _cli(rev, tmp_path)
    assert workloads.check_revivals(rev, rc, out, files).ok
    report = json.loads(files["{work}/r.json"])
    report["fractional_revivals"].pop()
    files["{work}/r.json"] = json.dumps(report)
    assert not workloads.check_revivals(rev, rc, out, files).ok


def test_polynomial_oracles_flag_wrong_coefficient():
    for job in (workloads.Job("laguerre_from_operator", (9, "3/2")),
                workloads.Job("hyp_from_operator", (9, "4", "5/2"))):
        fn = getattr(ladder, job.name)
        poly = fn(*workloads.api_args(job))
        assert workloads.check_polynomial(job, poly).ok
        coeffs = list(poly.coeffs)
        coeffs[4] += Fraction(1, 10**9)
        assert not workloads.check_polynomial(job, SimpleNamespace(coeffs=tuple(coeffs))).ok


@pytest.mark.parametrize("ev", [["rational", "5/2"], ["float", "1.7"], ["complex", "1.5", "-2"]])
def test_annihilation_oracle(ev):
    for family, params in (("laguerre", "7/3"), ("hypergeometric", ["4", "5/2"])):
        for order in (20, 45, 110):
            job = workloads.Job("verify_annihilation", (family, params, ev, order), {"pair": 0})
            value = cstates.verify_annihilation(*workloads.api_args(job))
            assert workloads.check_annihilation(job, value).ok
            if value > oracles.FLOAT_SQUARE_FLOOR:
                assert not workloads.check_annihilation(job, value * (1 + 1e-6)).ok
    job = workloads.Job("verify_annihilation", ("laguerre", "7/3", ev, 20), {"pair": 0})
    low = workloads.Job("verify_annihilation", ("laguerre", "7/3", ev, 10), {"pair": 0})
    assert workloads.check_pairs([low, job], [1e-10, 1e-20]) == set()
    assert workloads.check_pairs([low, job], [1e-20, 1e-10]) == {1}


def test_tamper_control(tmp_path):
    base = ("verify-algebra", "--max-degree", "12", "--lambda", "3/2", "--b", "4", "--c", "5/2")
    honest, tamper = workloads.Job("verify-algebra", base), workloads.Job("verify-algebra", base + ("--tamper",))
    rc, out, files = _cli(tamper, tmp_path)
    assert rc == 1 and workloads.check_verify_algebra(tamper, rc, out, files).ok
    assert not workloads.check_verify_algebra(honest, rc, out, files).ok
    rc, out, files = _cli(honest, tmp_path)
    assert workloads.check_verify_algebra(honest, rc, out, files).ok


def test_declared_metrics_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_every_metric_with_its_unit(trace, units):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact-algebra", "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *comments, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"# {name} = ") and f" {unit}" in line for line in comments)
