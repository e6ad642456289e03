"""Layer spans for the traced run.

``Tracer.install`` replaces each traced function with a wrapper at every
name its callers look it up under (module attributes, and the names other
modules imported), so no library file changes.  Each call records a span:
name, parent span, start and end.  Spans stay in memory, in flat arrays,
until the run ends; ``summary`` then derives calls and self time (span time
minus the time its child spans cover) per function and per layer.

Work counts are derived from the arguments and results the wrappers saw.
The wrappers only keep references; ``take_calls`` hands them over after the
job, outside the timed region.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

LAYERS = ("cli", "cstates", "specfun", "dynamics", "gaussfactor", "ladder")

# (module, attribute) pairs to wrap, with the span name each records.
# ``cstates.apply`` is ``ladder.apply`` imported by name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cstates", "build_pt_cs", "cstates.build_pt_cs"),
    ("cstates", "build_laguerre_cs", "cstates.build_laguerre_cs"),
    ("cstates", "weights", "cstates.weights"),
    ("cstates", "eval_pt_cs", "cstates.eval_pt_cs"),
    ("cstates", "eval_laguerre_cs", "cstates.eval_laguerre_cs"),
    ("cstates", "eval_pt_cs_closed", "cstates.eval_pt_cs_closed"),
    ("cstates", "eval_laguerre_cs_closed", "cstates.eval_laguerre_cs_closed"),
    ("cstates", "pt_series_sum", "cstates.pt_series_sum"),
    ("cstates", "laguerre_series_sum", "cstates.laguerre_series_sum"),
    ("cstates", "verify_annihilation", "cstates.verify_annihilation"),
    ("cstates", "apply", "ladder.apply"),
    ("specfun", "ln_gamma", "specfun.ln_gamma"),
    ("specfun", "bessel_j", "specfun.bessel_j"),
    ("dynamics", "autocorr", "dynamics.autocorr"),
    ("dynamics", "detect_revivals", "dynamics.detect_revivals"),
    ("dynamics", "revival_time", "dynamics.revival_time"),
    ("dynamics", "pt_spectrum", "dynamics.pt_spectrum"),
    ("gaussfactor", "factor_scan", "gaussfactor.factor_scan"),
    ("gaussfactor", "gauss_sum", "gaussfactor.gauss_sum"),
    ("ladder", "apply", "ladder.apply"),
    ("ladder", "algebra_report", "ladder.algebra_report"),
    ("ladder", "laguerre_from_operator", "ladder.laguerre_from_operator"),
    ("ladder", "hyp_from_operator", "ladder.hyp_from_operator"),
)

# Calls whose arguments and result feed a work count.
OBSERVED = frozenset({
    "cstates.build_pt_cs", "cstates.build_laguerre_cs", "dynamics.autocorr",
    "gaussfactor.factor_scan", "ladder.algebra_report",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._calls: list[tuple] = []
        self._patched: list[tuple] = []

    def _wrap(self, label: str, fn):
        if label not in self.names:
            self.names.append(label)
        name_id = self.names.index(label)
        observe = label in OBSERVED
        stack, names, parents, starts, ends = self._stack, self.name, self.parent, self.start, self.end
        calls = self._calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe:
                calls.append((label, args, kwargs, result))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for module, attr, label in TARGETS:
            mod = modules[module]
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap(label, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def take_calls(self) -> list[tuple]:
        calls, self._calls[:] = list(self._calls), []
        return calls

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls and self time; per layer: self time."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for i, label in enumerate(self.names):
            sel = s["name"] == i
            out[label] = {"calls": int(sel.sum()), "self_s": float(own[sel].sum())}
        for layer in LAYERS:
            out[layer] = {
                "self_s": sum(v["self_s"] for k, v in out.items() if k.split(".")[0] == layer and "." in k)
            }
        return out
