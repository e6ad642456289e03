"""Seeded end-to-end benchmark of cohstates, run as batches of user jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload: a closed loop with a single client that
calls ``cli.main(argv)`` (or, for the exact checks that exist only in the
API, the function itself) in-process, one job after another.  Each job's
output is checked against an independent oracle (``oracles.py``) outside
the timed region; a failed check is counted, never fatal.

``--trace 0`` reports the end-to-end metrics: jobs verified per second of
job time, median and p90 job latency, digits of agreement with the oracle,
peak resident set, and ``setup_s``, the median wall time of a fresh
interpreter importing ``cohstates.cli`` (the in-process loop never pays
it).  ``--trace 1`` runs a fixed set of decks twice, untraced and then
with every layer's public functions wrapped (``tracing.py``), and reports
calls, time, self time and input-derived work counts per layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
start with ``#`` and carry the same numbers for people, with the job-list
digest and the environment.  Spans of a traced run are written to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from cohstates import cli, cstates, dynamics, gaussfactor, ladder, specfun  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cstates.self_s": "s",
    "cstates.build.calls": "count",
    "cstates.build.self_s": "s",
    "cstates.order_sum": "count",
    "cstates.eval.points": "count",
    "cstates.eval.self_s": "s",
    "cstates.series.self_s": "s",
    "cstates.verify_annihilation.self_s": "s",
    "specfun.self_s": "s",
    "specfun.ln_gamma.calls": "count",
    "specfun.ln_gamma.s": "s",
    "specfun.bessel_j.calls": "count",
    "specfun.bessel_j.s": "s",
    "dynamics.self_s": "s",
    "dynamics.autocorr.calls": "count",
    "dynamics.autocorr.self_s": "s",
    "dynamics.phases": "count",
    "dynamics.reduced_phases": "count",
    "dynamics.reduced_share": "share",
    "dynamics.detect_revivals.self_s": "s",
    "gaussfactor.self_s": "s",
    "gaussfactor.factor_scan.self_s": "s",
    "gaussfactor.gauss_sum.calls": "count",
    "gaussfactor.terms": "count",
    "ladder.self_s": "s",
    "ladder.apply.calls": "count",
    "ladder.apply.s": "s",
    "ladder.algebra_report.self_s": "s",
    "ladder.monomials_checked": "count",
    "trace.jobs": "count",
    "trace.overhead_ratio": "ratio",
}

# A run keeps going until ten jobs lie beyond its p90 latency.
MIN_JOBS = 100
# Seconds of job time per deck on a 2-core Xeon; sizes the traced run.
DECK_SECONDS = {"state-pipeline": 1.5, "late-window": 3.0, "factor-scan": 1.8, "exact-algebra": 0.9}
# Decks whose digest is printed, so a seed's job list can be compared.
DIGEST_DECKS = 8
SETUP_REPEATS = 5
# The phase size above which dynamics reduces E t modulo 2 pi in extended
# precision today; dynamics.reduced_phases counts the phases beyond it.
REDUCE_THRESHOLD = 1e8
# Errors below this are reported as this, so accuracy_digits stays finite.
ERROR_FLOOR = 1e-20

MODULES = {"cli": cli, "cstates": cstates, "specfun": specfun, "dynamics": dynamics,
           "gaussfactor": gaussfactor, "ladder": ladder}
# Looked up at call time, so that the traced run calls the wrappers.
API = {
    "verify_annihilation": lambda: cstates.verify_annihilation,
    "laguerre_from_operator": lambda: ladder.laguerre_from_operator,
    "hyp_from_operator": lambda: ladder.hyp_from_operator,
}


@dataclass
class Result:
    name: str
    latency: float = math.nan
    ok: bool = False
    errors: list = field(default_factory=list)
    value: object = None
    out_bytes: int = 0
    note: str = ""
    observed: dict = field(default_factory=dict)

    def record(self, check: workloads.Check) -> None:
        self.ok, self.errors, self.note, self.observed = check.ok, check.errors, check.note, check.observed


class Runner:
    """Runs one job at a time in a scratch directory and checks it."""

    def __init__(self, work: str, tracer: tracing.Tracer | None = None):
        self.work = work
        self.tracer = tracer
        self.counts: Counter = Counter()

    def run(self, job: workloads.Job) -> Result:
        result = Result(job.name)
        try:
            if job.name in API:
                self._run_api(job, result)
            else:
                self._run_cli(job, result)
        except Exception:  # a job or check that raises is a failed job, not a failed run
            result.ok = False
            result.note = traceback.format_exc(limit=2)
        if self.tracer is not None:
            self.counts.update(work_counts(self.tracer.take_calls()))
            self.counts["cli.out_bytes"] += result.out_bytes
        return result

    def _run_api(self, job: workloads.Job, result: Result) -> None:
        fn = API[job.name]()
        args = workloads.api_args(job)
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            result.latency = time.perf_counter() - t0
        if isinstance(value, float):
            result.value = value
        result.record(workloads.API_CHECKS[job.name](job, value))

    def _run_cli(self, job: workloads.Job, result: Result) -> None:
        argv = [a.replace("{work}", self.work) for a in job.args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                rc = exc.code
            finally:
                result.latency = time.perf_counter() - t0
        text = out.getvalue()
        result.out_bytes = len(text.encode())
        if "-o" in argv:
            result.out_bytes += os.path.getsize(argv[argv.index("-o") + 1])
        result.record(workloads.CLI_CHECKS[job.name](job, rc, text, workloads.read_outputs(job, self.work)))
        if not result.ok:
            result.note += f"; stderr: {err.getvalue().strip()}"


def work_counts(calls) -> Counter:
    """Work counts derived from the arguments and results of traced calls."""
    c: Counter = Counter()
    for label, args, kwargs, result in calls:
        if label.startswith("cstates.build"):
            c["cstates.order_sum"] += result.order
        elif label == "dynamics.autocorr":
            weights, spectrum, times = args
            n = np.nonzero(np.asarray(weights))[0]
            t = np.asarray(times, dtype=float)
            energy = spectrum.a * n * n + spectrum.b * n + spectrum.c
            c["dynamics.phases"] += n.size * t.size
            c["dynamics.reduced_phases"] += int(np.count_nonzero(np.abs(np.outer(energy, t)) > REDUCE_THRESHOLD))
        elif label == "gaussfactor.factor_scan":
            n = args[0]
            m = kwargs.get("m_terms") or math.isqrt(n - 1) + 1
            c["gaussfactor.terms"] += (math.isqrt(n) - 1) * m
        elif label == "ladder.algebra_report":
            c["ladder.monomials_checked"] += 5 * (args[3] + 1)
    return c


def run_decks(runner: Runner, decks, seconds: float | None = None) -> list[Result]:
    """Run whole decks; with ``seconds``, stop after the first deck that
    brings job time to ``seconds`` and the job count to MIN_JOBS."""
    results: list[Result] = []
    busy = 0.0
    for deck in decks:
        done = [runner.run(job) for job in deck]
        for i in workloads.check_pairs(deck, [r.value for r in done]):
            done[i].ok = False
            done[i].note = "residual not decreasing in the order"
        results.extend(done)
        busy += sum(r.latency for r in done if not math.isnan(r.latency))
        gc.collect()
        if seconds is not None and busy >= seconds and len(results) >= MIN_JOBS:
            break
    return results


def warmup_jobs(deck: list) -> list:
    """The shortest prefix of ``deck`` that runs every job kind once."""
    kinds = {job.name for job in deck}
    for i, job in enumerate(deck):
        kinds.discard(job.name)
        if not kinds:
            return deck[: i + 1]


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing cohstates.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cohstates.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "cohstates").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def latency_stats(results: list[Result]) -> tuple[float, float]:
    lat = np.array([r.latency for r in results if not math.isnan(r.latency)])
    return float(np.percentile(lat, 50)) * 1e3, float(np.percentile(lat, 90)) * 1e3


def end_to_end(results: list[Result], setup_s: float) -> tuple[dict, dict]:
    p50, p90 = latency_stats(results)
    busy = sum(r.latency for r in results if not math.isnan(r.latency))
    errors = [e for r in results for e in r.errors]
    max_err = max(errors, default=0.0)
    return {
        "jobs_per_s": sum(r.ok for r in results) / busy,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "accuracy_digits": -math.log10(max(max_err, ERROR_FLOOR)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }, {"max_abs_err": max_err, "checked_values": len(errors)}


def per_layer(summary: dict, counts: Counter, n_jobs: int, overhead: float) -> dict:
    def total(key, *labels):
        return sum(summary[label][key] for label in labels if label in summary)

    builds = ("cstates.build_pt_cs", "cstates.build_laguerre_cs")
    evals = ("cstates.eval_pt_cs", "cstates.eval_laguerre_cs")
    series = ("cstates.pt_series_sum", "cstates.laguerre_series_sum")
    closed = ("cstates.eval_pt_cs_closed", "cstates.eval_laguerre_cs_closed")
    phases = counts["dynamics.phases"]
    return {
        "cli.self_s": summary["cli"]["self_s"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "cstates.self_s": summary["cstates"]["self_s"],
        "cstates.build.calls": total("calls", *builds),
        "cstates.build.self_s": total("self_s", *builds),
        "cstates.order_sum": counts["cstates.order_sum"],
        "cstates.eval.points": total("calls", *evals, *series),
        "cstates.eval.self_s": total("self_s", *evals, *closed),
        "cstates.series.self_s": total("self_s", *series),
        "cstates.verify_annihilation.self_s": total("self_s", "cstates.verify_annihilation"),
        "specfun.self_s": summary["specfun"]["self_s"],
        "specfun.ln_gamma.calls": total("calls", "specfun.ln_gamma"),
        "specfun.ln_gamma.s": total("self_s", "specfun.ln_gamma"),
        "specfun.bessel_j.calls": total("calls", "specfun.bessel_j"),
        "specfun.bessel_j.s": total("self_s", "specfun.bessel_j"),
        "dynamics.self_s": summary["dynamics"]["self_s"],
        "dynamics.autocorr.calls": total("calls", "dynamics.autocorr"),
        "dynamics.autocorr.self_s": total("self_s", "dynamics.autocorr"),
        "dynamics.phases": phases,
        "dynamics.reduced_phases": counts["dynamics.reduced_phases"],
        "dynamics.reduced_share": counts["dynamics.reduced_phases"] / phases if phases else 0.0,
        "dynamics.detect_revivals.self_s": total("self_s", "dynamics.detect_revivals"),
        "gaussfactor.self_s": summary["gaussfactor"]["self_s"],
        "gaussfactor.factor_scan.self_s": total("self_s", "gaussfactor.factor_scan"),
        "gaussfactor.gauss_sum.calls": total("calls", "gaussfactor.gauss_sum"),
        "gaussfactor.terms": counts["gaussfactor.terms"],
        "ladder.self_s": summary["ladder"]["self_s"],
        "ladder.apply.calls": total("calls", "ladder.apply"),
        "ladder.apply.s": total("self_s", "ladder.apply"),
        "ladder.algebra_report.self_s": total("self_s", "ladder.algebra_report"),
        "ladder.monomials_checked": counts["ladder.monomials_checked"],
        "trace.jobs": n_jobs,
        "trace.overhead_ratio": overhead,
    }


def traced_run(work: str, decks: list, runner: Runner) -> tuple[list[Result], dict]:
    """Run ``decks`` untraced, then again with spans; per-layer metrics of
    the traced pass, plus the spans under "spans"."""
    reference = run_decks(runner, decks)
    tracer = tracing.Tracer()
    traced_runner = Runner(work, tracer)
    tracer.install(MODULES)
    try:
        results = run_decks(traced_runner, decks)
    finally:
        tracer.uninstall()
    overhead = latency_stats(results)[0] / latency_stats(reference)[0]
    metrics = per_layer(tracer.summary(), traced_runner.counts, len(results), overhead)
    metrics["spans"] = tracer.spans()
    return reference + results, metrics


def kind_lines(results: list[Result]) -> list[str]:
    lines = []
    for name in sorted({r.name for r in results}):
        mine = [r for r in results if r.name == name]
        lat = [r.latency * 1e3 for r in mine if not math.isnan(r.latency)] or [math.nan]
        lines.append(f"# job {name}: n={len(mine)} p50={np.percentile(lat, 50):.3f} ms "
                     f"max={max(lat):.3f} ms failed={sum(not r.ok for r in mine)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(cli.__file__).resolve().parent != SRC / "cohstates":
        print(f"error: cohstates imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"# env {json.dumps(environment(), sort_keys=True)}",
        f"# jobs digest={workloads.digest(args.workload, args.seed, DIGEST_DECKS)} (first {DIGEST_DECKS} decks)",
    ]
    try:
        runner = Runner(work)
        run_decks(runner, [warmup_jobs(next(workloads.decks(args.workload, args.seed, "warmup")))])
        stream = workloads.decks(args.workload, args.seed)
        if args.trace:
            n_decks = max(2, round(0.4 * args.seconds / DECK_SECONDS[args.workload]))
            results, metrics = traced_run(work, [next(stream) for _ in range(n_decks)], runner)
            np.savez(scratch / f"spans-{args.workload}-seed{args.seed}.npz", **metrics.pop("spans"))
            units = PER_LAYER
        else:
            results = run_decks(runner, stream, args.seconds)
            metrics, extra = end_to_end(results, measure_setup())
            lines.append(f"# max_abs_err = {extra['max_abs_err']:.3e} over {extra['checked_values']} checked values")
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if not r.ok]
    lines.append(f"# ran {len(results)} jobs; failed_share = {len(failed) / len(results):.6g} "
                 f"({len(failed)} of {len(results)})")
    lines += kind_lines(results)
    for r in failed[:5]:
        lines.append(f"# failed {r.name}: {r.note}".replace("\n", " | "))
    for key in sorted({k for r in results for k in r.observed}):
        seen = [r.observed[key] for r in results if key in r.observed]
        lines.append(f"# observed {key}: max {max(seen):.3g} in {len(seen)} of {len(results)} jobs")
    for name, unit in units.items():
        suffix = f" (n={len(results)} jobs)" if name.startswith("latency") else ""
        lines.append(f"# {name} = {metrics[name]:.6g} {unit}{suffix}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
