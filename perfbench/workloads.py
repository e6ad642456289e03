"""Seeded job generators and per-job output checks for the four workloads.

A workload is an endless stream of *decks*.  A deck is a short batch of
jobs whose parameters are Latin-hypercube stratified over the workload's
ranges, so every deck, whatever the seed, covers the same spread of job
sizes; the seed only moves each job within its stratum.  That keeps the
latency quantiles of a run steady across seeds while still drawing fresh
inputs for every seed.

Each job is a ``Job``: a CLI argv (``{work}`` stands for the run's scratch
directory) or an API call, plus the parameters its oracle needs.  The
``check_*`` functions compare a finished job's output with the oracles in
``oracles.py`` and return a ``Check``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracles

WORKLOADS = ("state-pipeline", "late-window", "factor-scan", "exact-algebra")

TWO_PI = repr(2.0 * math.pi)

# Every Carmichael number below 2e6 (Korselt's criterion; checked in the tests).
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461, 530881, 552721, 656601, 658801, 670033, 748657, 825265,
    838201, 852841, 997633, 1024651, 1033669, 1050985, 1082809, 1152271,
    1193221, 1461241, 1569457, 1615681, 1773289, 1857241, 1909001,
)


@dataclass
class Job:
    name: str
    args: tuple
    check: dict = field(default_factory=dict)

    def key(self) -> list:
        return [self.name, list(self.args), self.check]


@dataclass
class Check:
    ok: bool
    errors: list = field(default_factory=list)  # |program - oracle|, for max_abs_err
    note: str = ""
    observed: dict = field(default_factory=dict)  # reported, not judged


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# Multipliers of the design lattice, one per parameter; each is coprime to
# the deck sizes it is used with.
_LATTICE = (1, 7, 4, 11, 13, 2)
# Share of its stratum within which the seed moves a design point.
_JITTER = 0.2


def _design(rng: random.Random, k: int, dims: int) -> list[list[float]]:
    """k points of a fixed lattice design in [0, 1)^dims.

    Point i lies in stratum (m_j i) mod k of parameter j, so every deck
    pairs the same strata of all parameters, whatever the seed; the seed
    moves each point within the middle _JITTER share of its stratum.
    Decks of every seed then hold the same spread of job sizes, which keeps
    latency quantiles steady across seeds.
    """
    return [
        [((m * i) % k + 0.5 + _JITTER * (rng.random() - 0.5)) / k for m in _LATTICE[:dims]]
        for i in range(k)
    ]


def _rational(rng: random.Random) -> str:
    return f"{rng.randint(1, 24)}/{rng.randint(1, 8)}"


# --------------------------------------------------------------------------
# generators


def _state_pipeline_deck(rng: random.Random) -> list[Job]:
    """Five Poschl-Teller chains (cs-eval, closed-form-check, autocorr,
    revivals) and three Laguerre chains (cs-eval, closed-form-check)."""
    chains = []
    for i, (u_rho, u_q, u_cs, u_cf, u_revs, u_samples) in enumerate(_design(rng, 5, 6)):
        rho = _fmt(0.5 + 3.5 * u_rho)
        q = _fmt(1.0 + 19.0 * u_q)
        # closed-form-check keeps q inside [1, 5], the range criterion 3
        # validates: for q >~ 10 the float series misses 1e-8 on the default
        # theta grid and the command rightly exits 1.
        q_cf = _fmt(1.0 + 4.0 * u_q)
        cs_samples = str(400 + round(1600 * u_cs))
        cf_samples = str(16 + round(48 * u_cf))
        revs = _fmt(1.0 + 3.0 * u_revs)
        samples = str(round(1000 * 16**u_samples))
        trace = f"{{work}}/trace-{i}.csv"
        seed = rng.getrandbits(32)
        chains.append([
            Job("cs-eval", ("cs-eval", "--family", "pt", "--rho", rho, "--q", q, "--samples", cs_samples,
                            "-o", f"{{work}}/profile-{i}.csv"),
                {"family": "pt", "index": rho, "ev": q, "seed": seed}),
            Job("closed-form-check", ("closed-form-check", "--family", "pt", "--rho", rho, "--q", q_cf,
                                      "--samples", cf_samples, "--tol", "1e-8", "-o", f"{{work}}/cfc-{i}.json"),
                {"family": "pt", "index": rho, "ev": q_cf, "seed": seed}),
            Job("autocorr", ("autocorr", "--rho", rho, "--q", q, "--samples", samples, "--revs", revs,
                             "-o", trace),
                {"rho": rho, "q": q, "t_min": "0", "t_max": None, "revs": revs, "points": 8, "seed": seed}),
            Job("revivals", ("revivals", "--trace", trace, "--t-rev", TWO_PI, "-o", f"{{work}}/rev-{i}.json"),
                {}),
        ])
    for i, (u_lam, u_alpha, u_cs, u_cf) in enumerate(_design(rng, 3, 4)):
        lam = _fmt(-1.0 + 5.0 * u_lam)
        alpha = _fmt(0.5 + 5.5 * u_alpha)
        cs_samples = str(400 + round(1600 * u_cs))
        cf_samples = str(16 + round(48 * u_cf))
        seed = rng.getrandbits(32)
        chains.append([
            Job("cs-eval", ("cs-eval", "--family", "laguerre", "--lam", lam, "--alpha", alpha,
                            "--samples", cs_samples, "-o", f"{{work}}/profile-l{i}.csv"),
                {"family": "laguerre", "index": lam, "ev": alpha, "seed": seed}),
            Job("closed-form-check", ("closed-form-check", "--family", "laguerre", "--lam", lam,
                                      "--alpha", alpha, "--samples", cf_samples, "--tol", "1e-8",
                                      "-o", f"{{work}}/cfl-{i}.json"),
                {"family": "laguerre", "index": lam, "ev": alpha, "seed": seed}),
        ])
    rng.shuffle(chains)
    return [job for chain in chains for job in chain]


def _late_window_deck(rng: random.Random) -> list[Job]:
    """Fifteen short autocorr windows starting at log-uniform t in [1e3, 1e7]."""
    jobs = []
    for u_t, u_samples, u_q, u_rho, u_span in _design(rng, 15, 5):
        rho = _fmt(0.5 + 3.5 * u_rho)
        q = _fmt(1.0 + 19.0 * u_q)
        samples = str(8 + round(56 * u_samples))
        t_min = f"{10 ** (3.0 + 4.0 * u_t):.10g}"
        t_max = f"{float(t_min) + 2.0 * math.pi * (0.25 + 0.75 * u_span):.10g}"
        jobs.append(Job("autocorr", ("autocorr", "--rho", rho, "--q", q, "--samples", samples,
                                     "--t-min", t_min, "--t-max", t_max),
                        {"rho": rho, "q": q, "t_min": t_min, "t_max": t_max, "points": 16,
                         "seed": rng.getrandbits(32)}))
    rng.shuffle(jobs)
    return jobs


def _next_prime(n: int) -> int:
    while not oracles.is_prime(n):
        n += 1
    return n


def _prev_prime(n: int) -> int:
    while not oracles.is_prime(n):
        n -= 1
    return n


def _factor_target(kind: str, target: int) -> int:
    if kind == "prime":
        return _next_prime(target)
    if kind == "semiprime":
        p = _prev_prime(math.isqrt(target))
        return p * _next_prime(-(-target // p))
    if kind == "prime-square":
        return _next_prime(math.isqrt(target)) ** 2
    if kind == "odd":
        return target | 1
    if kind == "carmichael":
        return min(CARMICHAEL, key=lambda c: abs(math.log(c / target)))
    smooth = [1]  # the largest 7-smooth number not above the target
    for p in (2, 3, 5, 7):
        grown = []
        for m in smooth:
            while m <= target:
                grown.append(m)
                m *= p
        smooth = grown
    return max(smooth)


FACTOR_KINDS = ("prime", "semiprime", "prime-square", "odd", "carmichael", "smooth")


def _factor_scan_deck(rng: random.Random) -> list[Job]:
    """Every number class at each of five sizes, with N log-uniform over
    the middle half of each of five strata of [1e2, 2e6].  Jobs of one size
    cost about the same, so the latency quantiles fall inside such a
    cluster rather than in the gap between two sizes."""
    top = math.log10(2e6)
    jobs = []
    for stratum in range(5):
        for kind in FACTOR_KINDS:
            u = (stratum + 0.25 + 0.5 * rng.random()) / 5
            n = _factor_target(kind, round(10 ** (2.0 + (top - 2.0) * u)))
            jobs.append(Job("factor", ("factor", "--n", str(n)), {"kind": kind, "seed": rng.getrandbits(32)}))
    rng.shuffle(jobs)
    return jobs


def _eigenvalue(kind: str, rng: random.Random) -> list:
    if kind == "rational":
        den = rng.randint(1, 8)
        return [kind, f"{rng.randint(1, 3 * den)}/{den}"]
    if kind == "float":
        return [kind, _fmt(rng.uniform(0.5, 2.9))]
    r, phi = rng.uniform(0.5, 2.9), rng.uniform(0.0, 2.0 * math.pi)
    return [kind, _fmt(r * math.cos(phi)), _fmt(r * math.sin(phi))]


def _exact_algebra_deck(rng: random.Random) -> list[Job]:
    """verify-algebra (and its --tamper control), annihilation residual
    pairs for both families and three eigenvalue kinds, and the two
    operator-exponential polynomials."""
    jobs = []
    for (u,) in _design(rng, 2, 1):
        jobs.append(Job("verify-algebra", ("verify-algebra", "--max-degree", str(20 + round(100 * u)),
                                           "--lambda", _rational(rng), "--b", _rational(rng),
                                           "--c", _rational(rng))))
    ((u,),) = _design(rng, 1, 1)
    jobs.append(Job("verify-algebra", ("verify-algebra", "--max-degree", str(20 + round(40 * u)),
                                       "--lambda", _rational(rng), "--b", _rational(rng),
                                       "--c", _rational(rng), "--tamper")))
    pairs = [(fam, kind) for fam in ("laguerre", "hypergeometric") for kind in ("rational", "float", "complex")]
    for pair, ((family, kind), (u, v)) in enumerate(zip(pairs, _design(rng, len(pairs), 2))):
        params = _rational(rng) if family == "laguerre" else [_rational(rng), _rational(rng)]
        ev = _eigenvalue(kind, rng)
        low = 20 + round(50 * u)
        for order in (low, low + 10 + round(40 * v)):
            jobs.append(Job("verify_annihilation", (family, params, ev, order), {"pair": pair}))
    for name, n_params in (("laguerre_from_operator", 1), ("hyp_from_operator", 2)):
        for (u,) in _design(rng, 2, 1):
            jobs.append(Job(name, (10 + round(50 * u), *(_rational(rng) for _ in range(n_params)))))
    rng.shuffle(jobs)
    return jobs


_DECKS = {
    "state-pipeline": _state_pipeline_deck,
    "late-window": _late_window_deck,
    "factor-scan": _factor_scan_deck,
    "exact-algebra": _exact_algebra_deck,
}


def decks(workload: str, seed: int, stream: str = "run"):
    """Endless deck stream of one workload; ``stream`` separates the warm-up
    jobs from the measured ones."""
    rng = random.Random(f"{workload}/{seed}/{stream}")
    make = _DECKS[workload]
    while True:
        yield make(rng)


def digest(workload: str, seed: int, n_decks: int) -> str:
    """sha256 of the first n_decks decks of the measured stream."""
    stream = decks(workload, seed)
    keys = [[job.key() for job in next(stream)] for _ in range(n_decks)]
    return hashlib.sha256(json.dumps(keys, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# checks


def _subset(seed: int, n: int, k: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


def _read_csv(text: str, header: list[str]) -> np.ndarray:
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise ValueError(f"bad CSV header {first!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _grid_ok(col, lo: float, hi: float, samples: int) -> bool:
    return _close(col, np.linspace(lo, hi, samples), 1e-12)


def check_cs_eval(job: Job, rc: int, out: str, files: dict) -> Check:
    """The profile must equal the normalized series truncated at the order
    the command reports; the weighted tail that truncation leaves is
    reported as an observation."""
    c = job.check
    index, ev = float(c["index"]), float(c["ev"])
    samples = int(job.args[job.args.index("--samples") + 1])
    order = re.fullmatch(r"cs-eval: wrote \d+ rows \(truncation order (\d+)\)\n", out)
    if c["family"] == "pt":
        data = _read_csv(files[job.args[-1]], ["theta", "re", "im", "abs2"])
        lo, hi = 0.0, math.pi
        profile = oracles.pt_truncated(index, ev, int(order.group(1))) if order else None
        point = math.cos
    else:
        data = _read_csv(files[job.args[-1]], ["x", "re", "im", "abs2"])
        lo, hi = 0.0, 20.0
        profile = oracles.laguerre_truncated(index, ev, int(order.group(1))) if order else None
        point = float
    if rc != 0 or profile is None or len(data) != samples or not _grid_ok(data[:, 0], lo, hi, samples):
        return Check(False, note="exit code, status line, row count or grid")
    if not _close(data[:, 3], data[:, 1] ** 2 + data[:, 2] ** 2, 1e-12):
        return Check(False, note="abs2 inconsistent with re/im")
    peak = int(np.argmax(data[:, 3]))
    idx = sorted(set(_subset(c["seed"], samples, 5)) | {peak})
    want = {k: float(profile(point(data[k, 0]))) for k in idx}
    scale = abs(want[peak])
    err = max(abs(complex(data[k, 1], data[k, 2]) - want[k]) / scale for k in idx)
    return Check(err <= 1e-10, note=f"profile error {err:.2e}",
                 observed={"cs-eval weighted tail share": float(profile.tail_share)})


def check_closed_form(job: Job, rc: int, out: str, files: dict) -> Check:
    c = job.check
    index, ev = float(c["index"]), float(c["ev"])
    samples = int(job.args[job.args.index("--samples") + 1])
    report = json.loads(files[job.args[-1]])
    if c["family"] == "pt":
        var, lo, hi, n_terms = "theta", 0.3, 2.5, 200
        series = lambda x: oracles.pt_partial_sum(index, ev, math.cos(x), n_terms)  # noqa: E731
        closed = lambda x: oracles.pt_closed(index, ev, x)  # noqa: E731
    else:
        var, lo, hi, n_terms = "x", 0.1, 10.0, 80
        series = lambda x: oracles.laguerre_partial_sum(index, ev, x, n_terms)  # noqa: E731
        closed = lambda x: oracles.laguerre_closed(index, ev, x)  # noqa: E731
    points = report["points"]
    if rc != 0 or report["n_terms"] != n_terms or len(points) != samples:
        return Check(False, note="exit code, n_terms or point count")
    xs = [p[var] for p in points]
    rel = [abs(p["series"] - p["closed"]) / abs(p["closed"]) for p in points]
    if not (_grid_ok(xs, lo, hi, samples) and _close([p["rel_err"] for p in points], rel, 1e-12)):
        return Check(False, note="grid or rel_err column")
    if report["max_rel_err"] != max(rel) or max(rel) > 1e-8 or format(max(rel), ".17g") not in out:
        return Check(False, note="max_rel_err or summary line")
    peak = max(range(samples), key=lambda k: abs(points[k]["closed"]))
    idx = sorted(set(_subset(c["seed"], samples, 3)) | {peak})
    want = {k: (float(series(xs[k])), float(closed(xs[k]))) for k in idx}
    err = max(
        max(abs(points[k]["series"] - want[k][0]), abs(points[k]["closed"] - want[k][1])) for k in idx
    ) / abs(want[peak][1])
    return Check(err <= 1e-9, note=f"series/closed error {err:.2e}")


def check_autocorr(job: Job, rc: int, out: str, files: dict) -> Check:
    c = job.check
    text = files[job.args[-1]] if "-o" in job.args else out
    data = _read_csv(text, ["t", "re", "im", "abs2"])
    samples = int(job.args[job.args.index("--samples") + 1])
    t_max = float(c["revs"]) * (2.0 * math.pi) if c["t_max"] is None else float(c["t_max"])
    if rc != 0 or len(data) != samples or not _grid_ok(data[:, 0], float(c["t_min"]), t_max, samples):
        return Check(False, note="exit code, row count or time grid")
    if not _close(data[:, 3], data[:, 1] ** 2 + data[:, 2] ** 2, 1e-12) or data[:, 3].max() > 1.0 + 1e-12:
        return Check(False, note="abs2 column")
    amp = oracles.PTAmplitude(float(c["rho"]), float(c["q"]))
    ok, errors = True, []
    for k in _subset(c["seed"], samples, c["points"]):
        t = data[k, 0]
        err = abs(complex(data[k, 1], data[k, 2]) - amp(t))
        errors.append(err)
        ok &= err <= amp.tolerance(t)
    return Check(ok, errors, note=f"max trace error {max(errors):.2e}")


def check_revivals(job: Job, rc: int, out: str, files: dict) -> Check:
    trace = _read_csv(files[job.args[2]], ["t", "re", "im", "abs2"])
    report = json.loads(files[job.args[-1]])
    t_rev = float(job.args[4])
    full, frac = oracles.revival_peaks(trace[:, 0], trace[:, 3], t_rev)
    got_full = [(p["time"], p["magsq"]) for p in report["full_revivals"]]
    got_frac = [(p["time"], p["magsq"], p["fraction"]) for p in report["fractional_revivals"]]
    ratio_ok = all(
        abs(p["ratio_error"] - abs(p["time"] / t_rev - float(Fraction(p["fraction"])))) <= 1e-12
        for p in report["fractional_revivals"]
    )
    ok = rc == 0 and report["t_rev"] == t_rev and got_full == full and got_frac == frac and ratio_ok
    return Check(ok, note=f"{len(full)} full, {len(frac)} fractional")


def check_factor(job: Job, rc: int, out: str, files: dict) -> Check:
    n = int(job.args[2])
    report = json.loads(out)
    m = math.isqrt(n - 1) + 1
    rows = report["rows"]
    if rc != 0 or report["n"] != n or report["m_terms"] != m or [r["ell"] for r in rows] != list(range(2, math.isqrt(n) + 1)):
        return Check(False, note="exit code, n, m_terms or rows")
    verdicts = all(r["is_factor"] == (n % r["ell"] == 0) for r in rows)
    cofactors = all(r["cofactor"] == (n // r["ell"] if n % r["ell"] == 0 else None) for r in rows)
    if not (verdicts and cofactors and report["factors"] == oracles.divisors(n)):
        return Check(False, note="divisors disagree with trial division")
    errors = [abs(rows[k]["signal"] - oracles.gauss_signal(n, rows[k]["ell"], m))
              for k in _subset(job.check["seed"], len(rows), 3)]
    return Check(all(e <= 1e-12 for e in errors), errors, note=f"{len(report['factors'])} factors")


def check_verify_algebra(job: Job, rc: int, out: str, files: dict) -> Check:
    report = json.loads(out)
    args = job.args
    degree = int(args[2])
    names = ["[K+, K-] = -2 K3", "[K3, K+] = K+", "[K3, K-] = -K-", "[K-, Kt+] = 1", "[hypK-, hypKt+] = 1"]
    entries = report["identities"]
    header = (
        report["max_degree"] == degree
        and [report["lambda"], report["b"], report["c"]] == [str(Fraction(a)) for a in args[4:9:2]]
        and [e["identity"] for e in entries] == names
        and all(e["degrees"] == f"0..{degree}" for e in entries)
    )
    if "--tamper" in args:
        # the tampered K3 is shifted by 1/2, which breaks [K+, K-] = -2 K3 at
        # every degree and leaves the other four identities intact
        passed = [False, True, True, True, True]
        ok = rc == 1 and entries[0].get("first_failure_degree") == 0
    else:
        passed = [True] * 5
        ok = rc == 0
    ok = ok and header and [e["passed"] for e in entries] == passed and report["all_passed"] == all(passed)
    return Check(ok)


def api_args(job: Job) -> tuple:
    """Python arguments of an API job."""
    if job.name == "verify_annihilation":
        family, params, ev, order = job.args
        params = Fraction(params) if family == "laguerre" else tuple(Fraction(p) for p in params)
        if ev[0] == "rational":
            value = Fraction(ev[1])
        elif ev[0] == "float":
            value = float(ev[1])
        else:
            value = complex(float(ev[1]), float(ev[2]))
        return family, params, value, order
    n, *params = job.args
    return (n, *(Fraction(p) for p in params))


def check_annihilation(job: Job, result: float) -> Check:
    family, params, value, order = api_args(job)
    z = complex(value)
    abs2 = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 if not isinstance(value, Fraction) else value * value
    exact = oracles.annihilation_residual(family, params, abs2, order)
    # criterion 4: below 1e-12 from order 40 on, for |ev| <= 3
    bound = not (order >= 40 and abs2 <= 9) or result <= 1e-12
    if exact >= oracles.FLOAT_SQUARE_FLOOR:
        err = abs(result - exact) / exact
        return Check(bound and err <= 1e-12, [float(err)], note=f"residual {result:.3e}")
    # the squared ratio underflows a double: only ask for a value this small
    return Check(bound and 0.0 <= result <= oracles.FLOAT_SQUARE_FLOOR,
                 observed={"annihilation residual below float-square floor": 1.0})


def check_pairs(jobs: list[Job], results: list) -> set[int]:
    """Criterion 4's monotonicity: within each residual pair the higher
    order must give the smaller residual (equal only once both have
    underflowed to the float floor).  Returns indices of failing jobs."""
    pairs: dict[int, list] = {}
    for i, (job, result) in enumerate(zip(jobs, results)):
        if job.name == "verify_annihilation" and result is not None:
            pairs.setdefault(job.check["pair"], []).append((job.args[3], result, i))
    bad = set()
    for members in pairs.values():
        if len(members) != 2:
            continue
        (_, low, _), (_, high, i) = sorted(members)
        if not (high < low or high == low <= oracles.FLOAT_SQUARE_FLOOR):
            bad.add(i)
    return bad


def check_polynomial(job: Job, result) -> Check:
    n, *params = api_args(job)
    if job.name == "laguerre_from_operator":
        want = oracles.laguerre_coeffs(n, *params)
    else:
        want = oracles.hyp_coeffs(n, *params)
    return Check(tuple(result.coeffs) == want)


CLI_CHECKS = {
    "cs-eval": check_cs_eval,
    "closed-form-check": check_closed_form,
    "autocorr": check_autocorr,
    "revivals": check_revivals,
    "factor": check_factor,
    "verify-algebra": check_verify_algebra,
}

API_CHECKS = {
    "verify_annihilation": check_annihilation,
    "laguerre_from_operator": check_polynomial,
    "hyp_from_operator": check_polynomial,
}


def read_outputs(job: Job, work: str) -> dict:
    """Contents of every file the job names under {work}, keyed by the
    placeholder path as it appears in the job."""
    out = {}
    for arg in job.args:
        if isinstance(arg, str) and arg.startswith("{work}/"):
            path = arg.replace("{work}", work)
            if os.path.exists(path):
                with open(path, newline="") as handle:
                    out[arg] = handle.read()
    return out
