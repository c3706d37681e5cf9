"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions of the ``illposed`` layers at the
module attribute the calling layer looks up (a layer that did
``from .schemes import regularize`` is patched in its own namespace), so
``src/`` stays untouched.  Spans (name, start, end, parent) are kept in
memory; ``layer_metrics`` derives each layer's self time (span time minus
the time of its child spans) and the exact call counts.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, span name): timed spans
SPANS = [
    ("illposed.harness", "build_operator", "operators.build"),
    ("illposed.operators", "estimate_postype_constant", "operators.kappa"),
    ("illposed.harness", "make_mixed_smooth_element", "operator_log.source"),
    ("illposed.harness", "regularize", "schemes.regularize"),
    ("illposed.parameter_choice", "regularize", "schemes.regularize"),
    ("illposed.schemes", "regularize", "schemes.regularize"),
    ("illposed.harness", "discrepancy_alpha", "parameter_choice.search"),
    ("illposed.harness", "add_noise", "harness.noise"),
    ("illposed.harness", "write_report", "harness.report"),
    ("illposed.cli", "check_axioms", "harness.axioms"),
    ("illposed.cli", "verify_membership", "loworder.verify"),
]
# (module, attribute, counter name): calls counted, not timed, because they
# are many and short
COUNTERS = [
    ("illposed.operator_log", "fractional_power_exact", "fractional.power_calls"),
    ("illposed.schemes", "fractional_power_exact", "fractional.power_calls"),
    ("illposed.schemes", "shifted_solve", "schemes.shifted_solve_calls"),
]

IMPORT_METRICS = {
    "cli.import_s": "illposed.cli",
    "cli.import_scipy_linalg_s": "scipy.linalg",
    "cli.import_scipy_integrate_s": "scipy.integrate",
}
SELF_TIME_METRICS = {
    "operators.build_s": "operators.build",
    "operators.kappa_s": "operators.kappa",
    "operator_log.source_s": "operator_log.source",
    "schemes.regularize_s": "schemes.regularize",
    "parameter_choice.search_s": "parameter_choice.search",
    "harness.noise_s": "harness.noise",
    "harness.report_s": "harness.report",
    "harness.axioms_s": "harness.axioms",
    "loworder.verify_s": "loworder.verify",
}
COUNT_METRICS = [
    "fractional.power_calls",
    "schemes.regularize_calls",
    "schemes.shifted_solve_calls",
    "parameter_choice.evals",
]
LAYER_METRICS = {
    **{k: "s" for k in IMPORT_METRICS},
    **{k: "s" for k in SELF_TIME_METRICS},
    **{k: "count" for k in COUNT_METRICS},
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for mod_name, attr, name in table:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, make(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], {}, []

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer and exact counts for the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_time: dict[str, float] = {}
        for s, child in zip(self.spans, child_time):
            self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start - child)
        out = {k: self_time.get(name, 0.0) for k, name in SELF_TIME_METRICS.items()}
        out["fractional.power_calls"] = self.counts.get("fractional.power_calls", 0)
        out["schemes.shifted_solve_calls"] = self.counts.get("schemes.shifted_solve_calls", 0)
        out["schemes.regularize_calls"] = sum(s.name == "schemes.regularize" for s in self.spans)
        out["parameter_choice.evals"] = sum(
            s.name == "schemes.regularize"
            and s.parent is not None
            and self.spans[s.parent].name == "parameter_choice.search"
            for s in self.spans
        )
        return out

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the modules in IMPORT_METRICS from ``-X importtime``.

    A module absent from the output (never imported) counts as 0.
    """
    cumulative = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(4) not in cumulative:
            cumulative[m.group(4)] = int(m.group(2)) * 1e-6
    return {k: cumulative.get(mod, 0.0) for k, mod in IMPORT_METRICS.items()}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
