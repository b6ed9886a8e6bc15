"""In-memory tracing of the calls into the package's layers, installed from the
benchmark's own files by wrapping public functions and methods.

Span wrappers record (name, start, end, parent, op id) for every call made
while tracing is on.  Count wrappers only bump counters: they sit on
functions called up to millions of times per op, where a span per call would
cost more than the call.  Spans stay in memory until ``summary`` reduces them
at the end of the run.  A function or method that a later version of the
package no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, metric name).  Reflected operator aliases such as
# __rmul__ = __mul__ are wrapped under the same metric name as the operator.
SPANS = [
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
    ("superspace", "descend_check", "superspace.descend_check"),
    ("sections", "apply_Q", "sections.apply_Q"),
    ("linearization", "expand_linearized_action", "linearization.expand_linearized_action"),
    ("manifolds", "load_manifold", "manifolds.load_manifold"),
    ("manifolds", "CohomologyModel.validate", "manifolds.CohomologyModel.validate"),
    ("manifolds", "l_genus", "manifolds.l_genus"),
    ("manifolds", "pushforward", "manifolds.pushforward"),
    ("series", "l_class_in_ph", "series.l_class_in_ph"),
    ("series", "l_polynomials", "series.l_polynomials"),
    ("series", "pontryagin_to_powersums", "series.pontryagin_to_powersums"),
    ("series", "GradedPolynomial.__mul__", "series.GradedPolynomial.mul"),
    ("series", "GradedPolynomial.__rmul__", "series.GradedPolynomial.mul"),
    ("series", "GradedPolynomial.exp", "series.GradedPolynomial.exp"),
    ("series", "GradedPolynomial.substitute", "series.GradedPolynomial.substitute"),
    ("zeta", "sdet_report", "zeta.sdet_report"),
    ("zeta", "sdet_formal", "zeta.sdet_formal"),
    ("zeta", "sdet_concrete", "zeta.sdet_concrete"),
    ("zeta", "fredholm_log_det", "zeta.fredholm_log_det"),
    ("zeta", "CurvatureMatrix.matrix_power_trace", "zeta.CurvatureMatrix.matrix_power_trace"),
    ("zeta", "curvature_to_ph", "zeta.curvature_to_ph"),
    ("zeta", "substitute_ph", "zeta.substitute_ph"),
]

COUNTS = [
    ("superspace", "multiply_r12", "superspace.multiply_r12"),
    ("manifolds", "CohomologyModel.multiply", "manifolds.CohomologyModel.multiply"),
    ("series", "GradedPolynomial.weight_of", "series.GradedPolynomial.weight_of"),
    ("grassmann", "GrassmannElement.__mul__", "grassmann.GrassmannElement.mul"),
    ("grassmann", "GrassmannElement.__rmul__", "grassmann.GrassmannElement.mul"),
    ("grassmann", "GrassmannElement.__add__", "grassmann.GrassmannElement.add"),
    ("grassmann", "GrassmannElement.__radd__", "grassmann.GrassmannElement.add"),
    ("gaussian", "GaussianRational.__mul__", "gaussian.GaussianRational.mul"),
    ("gaussian", "GaussianRational.__rmul__", "gaussian.GaussianRational.mul"),
    ("gaussian", "GaussianRational.__add__", "gaussian.GaussianRational.add"),
    ("gaussian", "GaussianRational.__radd__", "gaussian.GaussianRational.add"),
    ("gaussian", "GaussianRational.__init__", "gaussian.GaussianRational.init"),
]


def _size(x, attr: str) -> int:
    return len(getattr(x, attr, None) or ())


def _peak(attr: str):
    """Largest result seen, per layer."""
    def hook(counters: Counter, peaks: Dict[str, int], name: str, args, result) -> None:
        layer = name.rsplit(".", 1)[0] + ".peak_terms"
        peaks[layer] = max(peaks.get(layer, 0), _size(result, attr))
    return hook


def _pairs(attr: str):
    """Term pairs a product visits, and the largest result seen."""
    peak = _peak(attr)

    def hook(counters: Counter, peaks: Dict[str, int], name: str, args, result) -> None:
        a, b = args[0], args[1]
        counters[name + ".term_pairs"] += _size(a, attr) * (
            _size(b, attr) if type(b) is type(a) else 1)
        peak(counters, peaks, name, args, result)
    return hook


def _order_sum(counters: Counter, peaks, name: str, args, result) -> None:
    counters[name + ".order_sum"] += args[1]


HOOKS = {
    "series.GradedPolynomial.mul": _pairs("coeffs"),
    "series.GradedPolynomial.exp": _peak("coeffs"),
    "series.GradedPolynomial.substitute": _peak("coeffs"),
    "grassmann.GrassmannElement.mul": _pairs("terms"),
    "grassmann.GrassmannElement.add": _peak("terms"),
    "zeta.CurvatureMatrix.matrix_power_trace": _order_sum,
}

Span = Tuple[str, float, float, int, Optional[int]]


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.op_id: Optional[int] = None
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.peaks: Dict[str, int] = {}

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer, hook = self, HOOKS.get(name)
        per_suite = name == "verify.run_suite"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = f"{name}.{args[0]}" if per_suite else name
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (label, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer.counters, tracer.peaks, name, args, result)
            return result
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        tracer, hook, calls = self, HOOKS.get(name), name + ".calls"
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            counters[calls] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counters, tracer.peaks, name, args, result)
            return result
        return wrapper

    def _check(self, fn: Callable) -> Callable:
        tracer, counters = self, self.counters

        def wrapper():
            if not tracer.on:
                return fn()
            counters["verify.checks.calls"] += 1
            try:
                return fn()
            except BaseException:
                counters["verify.checks.failed"] += 1
                raise
        return wrapper

    def install(self) -> None:
        """Wrap every listed function of the package modules already
        imported, everywhere a module holds it by name."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "supersdet" or name.startswith("supersdet.")}
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                mod = modules.get(f"supersdet.{module}")
                if mod is None:
                    continue
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = vars(owner).get(member) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    setattr(owner, member, staticmethod(make(name, raw.__func__)))
                    continue
                wrapped = make(name, raw)
                setattr(owner, member, wrapped)
                if not owner_name:
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                setattr(other, key, wrapped)
        verify = modules.get("supersdet.verify")
        for checks in getattr(verify, "SUITES", {}).values():
            checks[:] = [(label, self._check(fn)) for label, fn in checks]

    # -- reduction ------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per name: call count, time summed over the outermost call of each
        nest of same-name spans, and self time (span minus its child spans)."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = dict(self.counters)
        out.update(self.peaks)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            label, start, end, parent, _op = span
            out[label + ".calls"] = out.get(label + ".calls", 0) + 1
            out[label + ".self_s"] = out.get(label + ".self_s", 0.0) + (end - start) - child_time[index]
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == label:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                out[label + ".s"] = out.get(label + ".s", 0.0) + end - start
        return out


def merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    """Add one summary into another: peaks take the maximum, the rest add."""
    for key, value in part.items():
        if key.endswith("peak_terms"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
