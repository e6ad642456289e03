"""Command-line front end.

Subcommands:

* ``verify-algebra``  exact operator-identity suite (JSON report)
* ``cs-eval``         coherent-state profile on a grid (CSV)
* ``closed-form-check`` series vs closed-form comparison (summary + JSON)
* ``autocorr``        survival-probability trace (CSV)
* ``revivals``        revival classification of a trace (JSON)
* ``factor``          truncated-Gauss-sum divisor scan (JSON)

Output is deterministic: CSV uses '.' decimals, ',' separators, LF line
endings and 17 significant digits; JSON is emitted with sorted keys.  Files
are written via write-then-rename so a failed run never leaves partial
output.  Exit status is 0 on success, 1 when a verification fails, 2 on
parameter or input errors, which include grid bounds, parameters and series
values that are not finite.  Grids hold at most 2**20 samples.

Only the stdlib and ``ladder`` load with this module; each subcommand
imports the layers it calls, so ``verify-algebra`` and ``--help`` never load
numpy, and only ``closed-form-check`` loads mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Callable, NamedTuple

from . import ladder

__all__ = ["main"]

# Largest grid a subcommand accepts: checked before anything is allocated.
MAX_SAMPLES = 1 << 20


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, path: str | None) -> None:
    """Print to stdout, or atomically replace the target file."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cohstates-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _grid(lo: float, hi: float, samples: int):
    if not 2 <= samples <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in [2, {MAX_SAMPLES}], got {samples}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid bounds and their span must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise ValueError(f"grid bounds must be strictly increasing, got [{lo!r}, {hi!r}]")
    import numpy as np
    return np.linspace(lo, hi, samples)


def _cmd_verify_algebra(args) -> int:
    report = ladder.algebra_report(
        args.lam, args.b, args.c, args.max_degree, _tamper=args.tamper
    )
    _emit(_json_text(report), args.output)
    if args.output is not None:
        status = "all identities hold" if report["all_passed"] else "FAILED"
        print(f"verify-algebra: {status} (degrees 0..{args.max_degree})")
    if not report["all_passed"]:
        failed = [e["identity"] for e in report["identities"] if not e["passed"]]
        print(f"failed identities: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cos(theta):
    import numpy as np
    return np.cos(theta)


class _Family(NamedTuple):
    """One family as ``cs-eval`` and ``closed-form-check`` see it; its
    cstates functions are named after the ``--family`` value."""

    params: Callable  # options -> {report key: value} of (index, eigenvalue)
    var: str  # grid variable
    eval_grid: tuple  # default cs-eval grid bounds
    check_grid: tuple  # default closed-form-check grid bounds
    n_terms: int  # default closed-form-check series length
    point: Callable  # grid -> polynomial arguments


_FAMILIES = {
    "laguerre": _Family(lambda a: {"lambda": a.lam, "alpha": a.alpha},
                        "x", (0.0, 20.0), (0.1, 10.0), 80, lambda x: x),
    "pt": _Family(lambda a: {"rho": a.rho, "q": a.q},
                  "theta", (0.0, math.pi), (0.3, 2.5), 200, _cos),
}


def _family_grid(args, bounds):
    lo, hi = bounds
    return _grid(lo if args.grid_min is None else args.grid_min,
                 hi if args.grid_max is None else args.grid_max, args.samples)


def _cmd_cs_eval(args) -> int:
    from . import cstates
    fam = _FAMILIES[args.family]
    index, ev = fam.params(args).values()
    state = getattr(cstates, f"build_{args.family}_cs")(index, ev, tail_tol=args.tail_tol, order=args.n_terms)
    grid = _family_grid(args, fam.eval_grid)
    values = getattr(cstates, f"eval_{args.family}_cs")(state, fam.point(grid))
    rows = list(zip(grid.tolist(), values.real.tolist(), values.imag.tolist(), (abs(values) ** 2).tolist()))
    _emit(_csv_text([fam.var, "re", "im", "abs2"], rows), args.output)
    if args.output is not None:
        print(f"cs-eval: wrote {len(rows)} rows (truncation order {state.order})")
    return 0


def _cmd_closed_form_check(args) -> int:
    import numpy as np
    from . import cstates
    fam = _FAMILIES[args.family]
    params = fam.params(args)
    index, ev = params.values()
    n_terms = fam.n_terms if args.n_terms is None else args.n_terms
    grid = _family_grid(args, fam.check_grid)
    series = getattr(cstates, f"{args.family}_series_sum")(index, ev, fam.point(grid), n_terms).real
    closed_form = getattr(cstates, f"eval_{args.family}_cs_closed")
    closed = np.array([closed_form(index, ev, x) for x in grid.tolist()])
    if not closed.all():
        x = float(grid[np.flatnonzero(closed == 0.0)[0]])
        raise ValueError(f"closed form is 0 at {fam.var} = {x!r}, so the relative error is undefined")
    rel = np.abs(series - closed) / np.abs(closed)
    max_rel = float(rel.max())
    rows = [
        {fam.var: x, "series": s, "closed": c, "rel_err": r}
        for x, s, c, r in zip(grid.tolist(), series.tolist(), closed.tolist(), rel.tolist())
    ]
    report = {
        "family": args.family,
        "params": params,
        "n_terms": n_terms,
        "max_rel_err": max_rel,
        "points": rows,
    }
    if args.output is not None:
        _emit(_json_text(report), args.output)
    print(f"closed-form-check: max relative error = {_fmt(max_rel)} over {len(rows)} points")
    if args.tol is not None and max_rel > args.tol:
        print(f"exceeds tolerance {args.tol!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_autocorr(args) -> int:
    from . import cstates, dynamics
    state = cstates.build_pt_cs(args.rho, args.q, tail_tol=args.tail_tol)
    p = cstates.weights(state)
    if args.spec_a is not None:
        spectrum = dynamics.Spectrum(args.spec_a, args.spec_b, args.spec_c)
    else:
        spectrum = dynamics.pt_spectrum(args.rho)
    if args.t_max is not None:
        t_max = args.t_max
    else:
        t_max = args.revs * dynamics.revival_time(spectrum).t_rev
    if not t_max > args.t_min:
        raise ValueError(f"need t_min < t_max, got [{args.t_min!r}, {t_max!r}]")
    times = _grid(args.t_min, t_max, args.samples)
    trace = dynamics.autocorr(p, spectrum, times)
    rows = [
        (float(t), v.real, v.imag, float(m))
        for t, v, m in zip(trace.times, trace.values, trace.magsq)
    ]
    _emit(_csv_text(["t", "re", "im", "abs2"], rows), args.output)
    if args.output is not None:
        print(f"autocorr: wrote {len(rows)} rows, t in [{_fmt(args.t_min)}, {_fmt(t_max)}]")
    return 0


def _load_trace(path: str):
    import numpy as np
    from . import dynamics
    try:
        with open(path, newline="") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read trace file: {exc}") from exc
    if not lines or lines[0].split(",") != ["t", "re", "im", "abs2"]:
        raise ValueError(f"malformed trace file {path!r}: expected header t,re,im,abs2")
    times, values, magsq = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed trace file {path!r}: line {lineno} has {len(parts)} fields")
        try:
            t, re, im, m2 = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"malformed trace file {path!r}: line {lineno}: {exc}") from exc
        v = complex(re, im)
        if abs(abs(v) ** 2 - m2) > 1e-12:
            raise ValueError(
                f"malformed trace file {path!r}: line {lineno}: abs2 inconsistent with re/im"
            )
        times.append(t)
        values.append(v)
        magsq.append(m2)
    if len(times) >= 2 and not all(a < b for a, b in zip(times, times[1:])):
        raise ValueError(f"malformed trace file {path!r}: times must be strictly increasing")
    return dynamics.AutocorrTrace(
        times=np.array(times), values=np.array(values), magsq=np.array(magsq)
    )


def _cmd_revivals(args) -> int:
    from . import dynamics
    trace = _load_trace(args.trace)
    report = dynamics.detect_revivals(
        trace,
        args.t_rev,
        full_threshold=args.full_threshold,
        frac_threshold=args.frac_threshold,
        q_max=args.q_max,
    )
    _emit(_json_text(report.to_dict()), args.output)
    if args.output is not None:
        print(
            f"revivals: {len(report.full_revivals)} full, "
            f"{len(report.fractional_revivals)} fractional"
        )
    return 0


def _cmd_factor(args) -> int:
    from . import gaussfactor
    report = gaussfactor.factor_scan(args.n, m_terms=args.m_terms, threshold=args.threshold)
    _emit(_json_text(report.to_dict()), args.output)
    if args.output is not None:
        factors = report.factors
        print(f"factor: n={args.n} -> {factors if factors else 'no factors found'}")
    return 0


def _add_output(parser) -> None:
    parser.add_argument("-o", "--output", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohstates",
        description="Coherent-state toolkit: exact ladder algebra, closed-form checks, "
        "revival dynamics and Gauss-sum divisor scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="run the exact operator-identity suite")
    p.add_argument("--max-degree", type=int, required=True, help="highest monomial degree tested (>= 1)")
    p.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(3, 2),
                   help="Laguerre-class parameter (rational, e.g. 3/2)")
    p.add_argument("--b", type=_rational, default=Fraction(4), help="hypergeometric parameter b")
    p.add_argument("--c", type=_rational, default=Fraction(5, 2), help="hypergeometric parameter c")
    p.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    _add_output(p)
    p.set_defaults(handler=_cmd_verify_algebra)

    for name, handler in (("cs-eval", _cmd_cs_eval), ("closed-form-check", _cmd_closed_form_check)):
        p = sub.add_parser(
            name,
            help="evaluate a state on a grid" if name == "cs-eval" else "compare series against the closed form",
        )
        p.add_argument("--family", choices=["laguerre", "pt"], required=True)
        p.add_argument("--lam", type=float, default=2.0, help="Laguerre index (> -1)")
        p.add_argument("--alpha", type=float, default=3.0, help="Laguerre-class eigenvalue")
        p.add_argument("--rho", type=float, default=2.0, help="Poschl-Teller index (> 0)")
        p.add_argument("--q", type=float, default=5.0, help="Poschl-Teller-class eigenvalue")
        p.add_argument("--grid-min", type=float, default=None)
        p.add_argument("--grid-max", type=float, default=None)
        p.add_argument("--samples", type=int, default=400)
        p.add_argument("--n-terms", type=int, default=None, help="explicit truncation order")
        p.add_argument("--tail-tol", type=float, default=1e-12)
        if name == "closed-form-check":
            p.add_argument("--tol", type=float, default=None,
                           help="exit 1 when the max relative error exceeds this")
        _add_output(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("autocorr", help="emit a survival-probability trace")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--q", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=4097)
    p.add_argument("--revs", type=float, default=2.0, help="trace length in revival periods")
    p.add_argument("--t-min", type=float, default=0.0, help="trace start (negative allowed for symmetric grids)")
    p.add_argument("--t-max", type=float, default=None, help="trace end in time units (overrides --revs)")
    p.add_argument("--tail-tol", type=float, default=1e-12)
    p.add_argument("--spec-a", type=float, default=None, help="override spectrum: quadratic coefficient")
    p.add_argument("--spec-b", type=float, default=0.0)
    p.add_argument("--spec-c", type=float, default=0.0)
    _add_output(p)
    p.set_defaults(handler=_cmd_autocorr)

    p = sub.add_parser("revivals", help="classify revivals in a trace CSV")
    p.add_argument("--trace", required=True, help="CSV produced by the autocorr command")
    p.add_argument("--t-rev", type=float, required=True, help="revival period 2 pi / a")
    p.add_argument("--full-threshold", type=float, default=0.9)
    p.add_argument("--frac-threshold", type=float, default=0.2)
    p.add_argument("--q-max", type=int, default=8)
    _add_output(p)
    p.set_defaults(handler=_cmd_revivals)

    p = sub.add_parser("factor", help="truncated-Gauss-sum divisor scan")
    p.add_argument("--n", type=int, required=True, help="integer to scan (>= 2)")
    p.add_argument("--m-terms", type=int, default=None, help="truncation length (default ceil(sqrt(n)))")
    p.add_argument("--threshold", type=float, default=None, help="acceptance threshold (default 1/sqrt(2))")
    _add_output(p)
    p.set_defaults(handler=_cmd_factor)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
