"""Experiment orchestration: problem assembly, exact-norm noise, rate runs.

Configs are JSON documents (schema below, versioned).  All randomness flows
through the Philox 4x64 counter-based generator keyed by explicit seeds, so
identical configs produce byte-identical CSV output.

Config schema (schema_version 1)::

    {
      "schema_version": 1,
      "seed": 123,
      "operator": {"kind": "diagonal", "modes": 50, "sigma_rule": "exp_decay",
                   "norm": "l2_scaled"}
                  | {"kind": "diagonal", "sigma": [...], "norm": ...}
                  | {"kind": "integration", "n": 512, "norm": "sup"}
                  | {"kind": "abel", "order": 0.5, "n": 256, "norm": "sup"},
                  each optionally with "rescale_to_half_norm": true
                  (preprocess to ||A|| = 1/2, making the unshifted source
                  form reachable via lambda_offset = -omega),
      "source":   {"p": 0.0, "nu": 1, "lambda_offset": 1.0,
                   "w": {"kind": "random", "seed": 7, "normalize": true}
                      | {"kind": "unit", "index": 3}   # 0 <= index < dim
                      | {"kind": "function", "name": "ones" | "ramp" |
                         "parabola" | "sinpi"}
                      | {"kind": "zero"}},
      "scheme":   {"name": "lavrentiev", "m": 2}
                  | {"name": "cauchy"},
      "rule":     {"name": "apriori", "c0": 1.0}
                  | {"name": "discrepancy", "b0": 6.0, "b1": 8.0,
                     "c0": optional sharp companion bound},
      "delta_ladder": [1e-2, ...],   # strictly decreasing, all < delta0
      "delta0": 0.1,
      "spread_tolerance": 3.0
    }

Outputs: ``report.csv`` (header ``delta,alpha,error,residual,bound,ratio``,
floats with 17 significant digits, alpha = inf serialized as "inf"),
``plot.csv`` (the same columns in log10), ``summary.json``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .grid import GridFunction, NORM_KINDS, grid_norms
from .operator_log import SourceCondition, make_mixed_smooth_element
from .operators import (
    DiscreteOperator,
    _postype_ratios,
    abel_operator,
    apply,
    diagonal_operator,
    exp_decay_diagonal,
    integration_operator,
    default_kappa_grid,
    operator_map,
)
from .parameter_choice import (
    DiscrepancyConfig,
    apriori_alpha,
    discrepancy_alpha,  # bench/tracing.py times calls through harness.<name>
    discrepancy_alphas,
)
from .schemes import (
    RegularizerConfig,
    companion_apply,
    qualification_checks,
    regularize,
    regularizer,
)

SCHEMA_VERSION = 1
#: exp(-745) is the last sigma_k = exp(-k) that does not underflow to 0
MAX_EXP_DECAY_MODES = 746
GENERATOR_NAME = "philox4x64"  # numpy Philox, 64-bit counter-based


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required field")
    return d[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and abs(value) <= sys.float_info.max


def _require_number(d: dict, key: str, path: str) -> float:
    value = _require(d, key, path)
    if not _is_finite(value):
        raise ConfigError(f"{path}.{key}: must be a finite number, got {value!r}")
    return float(value)


def _require_int(d: dict, key: str, path: str, lo: int, hi: float = math.inf) -> None:
    value = _require(d, key, path)
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        span = f">= {lo}" if math.isinf(hi) else f"in [{lo}, {hi}]"
        raise ConfigError(f"{path}.{key}: must be an integer {span}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @property
    def seed(self) -> int:
        return int(self.raw.get("seed", 0))

    @property
    def delta_ladder(self) -> list[float]:
        return [float(d) for d in self.raw["delta_ladder"]]

    @property
    def spread_tolerance(self) -> float:
        return float(self.raw.get("spread_tolerance", 3.0))


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; errors carry the offending field path."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    version = _require(doc, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    if "seed" in doc:
        # Philox keys lie below 2^128; row k draws its noise with seed + k
        _require_int(doc, "seed", "config", 0, 2**127)
    op = _require(doc, "operator", "config")
    kind = _require(op, "kind", "config.operator")
    if kind not in ("diagonal", "integration", "abel"):
        raise ConfigError(f"config.operator.kind: unknown kind {kind!r}")
    if kind == "abel":
        order = _require(op, "order", "config.operator")
        if not _is_number(order) or not 0.0 < order <= 1.0:
            raise ConfigError(f"config.operator.order: must be a number in (0, 1], got {order!r}")
    if kind in ("integration", "abel"):
        _require_int(op, "n", "config.operator", 2)
    if kind == "diagonal" and "sigma" in op:
        s = op["sigma"]
        ok = isinstance(s, list) and len(s) >= 2
        ok = ok and all(_is_finite(v) and v > 0 for v in s)
        if not ok or any(b > a for a, b in zip(s, s[1:])):
            raise ConfigError(
                "config.operator.sigma: must be a list of at least 2 finite, positive, "
                "nonincreasing numbers"
            )
    elif kind == "diagonal":
        if "modes" not in op:
            raise ConfigError("config.operator: diagonal kind needs 'sigma' or 'modes'")
        _require_int(op, "modes", "config.operator", 2, MAX_EXP_DECAY_MODES)
    if "norm" in op and op["norm"] not in NORM_KINDS:
        raise ConfigError(f"config.operator.norm: must be one of {NORM_KINDS}, got {op['norm']!r}")
    src = _require(doc, "source", "config")
    p = _require_number(src, "p", "config.source")
    _require_int(src, "nu", "config.source", 1)
    if _require_number(src, "lambda_offset", "config.source") <= 0:
        raise ConfigError("config.source.lambda_offset: must be positive")
    wspec = _require(src, "w", "config.source")
    wkind = _require(wspec, "kind", "config.source.w")
    if wkind not in ("random", "unit", "function", "zero"):
        raise ConfigError(f"config.source.w.kind: unknown kind {wkind!r}")
    if wkind == "unit":
        if kind != "diagonal":
            dim = op["n"] + 1
        else:
            dim = len(op["sigma"]) if "sigma" in op else op["modes"]
        _require_int(wspec, "index", "config.source.w", 0, dim - 1)
    elif wkind == "random":
        _require_int(wspec, "seed", "config.source.w", 0, 2**127)
        if not isinstance(wspec.get("normalize", True), bool):
            raise ConfigError(
                f"config.source.w.normalize: must be true or false, got {wspec['normalize']!r}"
            )
    elif wkind == "function" and _require(wspec, "name", "config.source.w") not in _W_FUNCTIONS:
        raise ConfigError(
            f"config.source.w.name: must be one of {sorted(_W_FUNCTIONS)}, got {wspec['name']!r}"
        )
    scheme = _require(doc, "scheme", "config")
    name = _require(scheme, "name", "config.scheme")
    if name not in ("lavrentiev", "cauchy"):
        raise ConfigError(f"config.scheme.name: unknown scheme {name!r}")
    if name == "lavrentiev" and "m" in scheme:
        _require_int(scheme, "m", "config.scheme", 1)
    rule = _require(doc, "rule", "config")
    rname = _require(rule, "name", "config.rule")
    if rname not in ("apriori", "discrepancy"):
        raise ConfigError(f"config.rule.name: unknown rule {rname!r}")
    if "c0" in rule and _require_number(rule, "c0", "config.rule") <= 0:
        raise ConfigError("config.rule.c0: must be positive")
    if rname == "discrepancy":
        _require_number(rule, "b0", "config.rule")
        _require_number(rule, "b1", "config.rule")
    ladder = _require(doc, "delta_ladder", "config")
    if not isinstance(ladder, list) or not all(_is_finite(d) for d in ladder):
        raise ConfigError("config.delta_ladder: must be a list of finite numbers")
    deltas = [float(d) for d in ladder]
    delta0 = _require_number(doc, "delta0", "config") if "delta0" in doc else 0.1
    if not 0.0 < delta0 < 1.0:
        raise ConfigError("config.delta0: must lie in (0, 1)")
    if any(d <= 0 or d > delta0 for d in deltas):
        raise ConfigError("config.delta_ladder: entries must lie in (0, delta0]")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError("config.delta_ladder: must be strictly decreasing")
    cfg = ExperimentConfig(raw=doc)
    # saturation interplay is checked here so failures carry a field path
    p0 = float(scheme.get("m", 1)) if name == "lavrentiev" else math.inf
    if not p < p0:
        raise ConfigError("config.source.p: must stay below the scheme saturation")
    if rname == "discrepancy":
        if not p0 > 1:
            raise ConfigError("config.rule: discrepancy needs saturation > 1 (lavrentiev m >= 2)")
        if not p < p0 - 1:
            raise ConfigError("config.source.p: discrepancy rule needs p < saturation - 1")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def build_operator(spec: dict) -> DiscreteOperator:
    kind = spec["kind"]
    if kind == "integration":
        op = integration_operator(int(spec["n"]), spec.get("norm", "sup"))
    elif kind == "abel":
        op = abel_operator(float(spec["order"]), int(spec["n"]), spec.get("norm", "sup"))
    else:
        norm = spec.get("norm", "l2_scaled")
        if "sigma" in spec:
            op = diagonal_operator(np.asarray(spec["sigma"], dtype=float), norm)
        else:
            rule = spec.get("sigma_rule", "exp_decay")
            if rule != "exp_decay":
                raise ConfigError(f"config.operator.sigma_rule: unknown rule {rule!r}")
            op = exp_decay_diagonal(int(spec["modes"]), norm)
    if spec.get("rescale_to_half_norm", False):
        # optional preprocessing: scale to ||A|| = 1/2 so omega < 0 and the
        # unshifted source form becomes available (lambda_offset = -omega)
        op = op.scaled(0.5 / op.op_norm)
    return op


def operator_spec(op: DiscreteOperator) -> dict:
    """Serializable config record of an operator.

    Describes the canonical construction; a diagonal record captures any
    rescaling through its explicit sigma list, Volterra records do not.
    """
    if op.kind == "diagonal":
        return {"kind": "diagonal", "sigma": [float(s) for s in op.weights], "norm": op.norm_kind}
    spec = {"kind": op.kind, "n": op.n, "norm": op.norm_kind}
    if op.kind == "abel":
        spec["order"] = op.order
    return spec


_W_FUNCTIONS = {
    "ones": lambda x: np.ones_like(x),
    "ramp": lambda x: x,
    "parabola": lambda x: x * (1.0 - x),
    "sinpi": lambda x: np.sin(np.pi * x),
}


def build_source_element(op: DiscreteOperator, wspec: dict) -> GridFunction:
    kind = wspec["kind"]
    if kind == "zero":
        return op.zeros()
    if kind == "unit":
        return op.unit(int(wspec["index"]))
    if kind == "random":
        rng = np.random.Generator(np.random.Philox(key=int(wspec["seed"])))
        vals = rng.standard_normal(op.dim)
        w = op.grid_function(vals)
        if wspec.get("normalize", True):
            nrm = w.norm()
            if nrm == 0.0:
                return build_source_element(op, {**wspec, "seed": int(wspec["seed"]) + 1})
            w = (1.0 / nrm) * w
        return w
    if kind == "function":
        fn = _W_FUNCTIONS.get(wspec["name"])
        if fn is None:
            raise ConfigError(f"config.source.w.name: unknown function {wspec['name']!r}")
        x = np.linspace(0.0, 1.0, op.dim)
        return op.grid_function(fn(x))
    raise ConfigError(f"config.source.w.kind: unknown kind {kind!r}")


def build_scheme(spec: dict) -> RegularizerConfig:
    if spec["name"] == "lavrentiev":
        return RegularizerConfig(scheme="lavrentiev", m=int(spec.get("m", 1)))
    return RegularizerConfig(scheme="cauchy")


@dataclass(frozen=True)
class Problem:
    op: DiscreteOperator
    sc: SourceCondition
    u_star: GridFunction
    ubar: GridFunction
    f_star: GridFunction
    scheme: RegularizerConfig


def build_problem(config: ExperimentConfig) -> Problem:
    """Assemble operator, ground truth and exact data from a config.

    The initial guess is zero and u_star = ubar - A^p (lam - log A)^{-nu} w,
    so the initial error satisfies the mixed source condition exactly at the
    grid level; f_star = A u_star.
    """
    op = build_operator(config.raw["operator"])
    src = config.raw["source"]
    scheme = build_scheme(config.raw["scheme"])
    w = build_source_element(op, src["w"])
    sc = SourceCondition(
        p=float(src["p"]),
        nu=int(src["nu"]),
        lam=op.omega + float(src["lambda_offset"]),
        w=w,
    )
    sc.validate_against(op, p0=scheme.p0)
    mixed = make_mixed_smooth_element(op, sc)
    ubar = op.zeros()
    u_star = ubar - mixed
    f_star = apply(op, u_star)
    return Problem(op=op, sc=sc, u_star=u_star, ubar=ubar, f_star=f_star, scheme=scheme)


def add_noise(f: GridFunction, delta: float, seed: int) -> GridFunction:
    """f + delta * z/||z|| with z drawn from Philox(seed): exact noise norm."""
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if delta == 0.0:
        return f
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    z = f.with_values(rng.standard_normal(f.dim))
    nz = z.norm()
    if nz == 0.0:  # unreachable in practice; deterministic redraw anyway
        return add_noise(f, delta, seed + 1)
    return f + (delta / nz) * z


@dataclass(frozen=True)
class RateRow:
    delta: float
    alpha: float
    error: float
    residual: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: list[RateRow]
    summary: dict
    config: dict = field(default_factory=dict)


def error_bound(delta: float, p: float, nu: int, d_w: float) -> float:
    """D_w * delta^{p/(p+1)} * log^{-nu/(p+1)}(1/delta)."""
    ell = math.log(1.0 / delta)
    return d_w * delta ** (p / (p + 1.0)) * ell ** (-nu / (p + 1.0))


def _median(values: np.ndarray) -> float:
    """np.median's value, (a + b) / 2 at even length.

    np.median's NaN check imports numpy.ma, which the CLI otherwise never loads.
    """
    s = np.sort(values)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2.0)


def fit_rate(rows: list[RateRow], p: float, nu: int, spread_tolerance: float = 3.0) -> dict:
    """Ratio statistics plus the apparent exponent after removing the log factor.

    ``ratio_spread`` (max/median) drives the pass verdict; ``ratio_range``
    (max/min) is reported as the sharper drift diagnostic: a single stray
    log factor drifts too slowly to move max/median beyond 2 on any ladder,
    but it does move max/min.
    """
    if len(rows) < 3:
        raise DomainError("rate fitting needs at least three rows")
    ratios = np.array([r.ratio for r in rows])
    if np.any(ratios <= 0):
        raise DomainError("ratios must be positive")
    max_ratio = float(np.max(ratios))
    median_ratio = _median(ratios)
    spread = max_ratio / median_ratio
    rng = max_ratio / float(np.min(ratios))
    deltas = np.array([r.delta for r in rows])
    errors = np.array([r.error for r in rows])
    logfac = np.log(1.0 / deltas) ** (-nu / (p + 1.0))
    mask = errors > 0
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(np.log(deltas[mask]), np.log(errors[mask] / logfac[mask]), 1)[0]
    else:
        slope = math.nan
    return {
        "max_ratio": max_ratio,
        "median_ratio": median_ratio,
        "ratio_spread": spread,
        "ratio_range": rng,
        "holder_exponent": float(slope),
        "pass": bool(spread <= spread_tolerance),
    }


def run_rate_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run the configured (scheme x rule) over the delta ladder.

    Row k uses noise seed ``seed + k``.  Rows are written in ladder order;
    everything is deterministic for a fixed config.
    """
    problem = build_problem(config)
    op, scheme = problem.op, problem.scheme
    src = config.raw["source"]
    p, nu = float(src["p"]), int(src["nu"])
    d_w = max(problem.sc.w.norm(), 1.0)
    rule = config.raw["rule"]
    deltas = config.delta_ladder
    data = [add_noise(problem.f_star, delta, config.seed + k) for k, delta in enumerate(deltas)]
    if rule["name"] == "apriori":
        c0 = float(rule.get("c0", 1.0))
        chosen = []
        for f_delta, delta in zip(data, deltas):
            alpha = apriori_alpha(delta, p, nu, c0)
            u = regularize(op, scheme, alpha, f_delta, problem.ubar)
            chosen.append((alpha, u, (apply(op, u) - f_delta).norm()))
    else:
        dcfg = DiscrepancyConfig(
            b0=float(rule["b0"]),
            b1=float(rule["b1"]),
            alpha_max=float(rule.get("alpha_max", op.op_norm)),
            ratio=float(rule.get("ratio", 0.5)),
            bisect_tol=float(rule.get("bisect_tol", 1e-3)),
            c0=rule.get("c0"),
        )
        results = discrepancy_alphas(op, scheme, dcfg, data, deltas, problem.ubar)
        chosen = [(res.alpha, res.u, res.residual) for res in results]
    rows: list[RateRow] = []
    alpha_lower_ratios: list[float] = []
    for delta, (alpha, u, residual) in zip(deltas, chosen):
        error = (u - problem.u_star).norm()
        bound = error_bound(delta, p, nu, d_w)
        rows.append(
            RateRow(
                delta=delta,
                alpha=alpha,
                error=error,
                residual=residual,
                bound=bound,
                ratio=error / bound,
            )
        )
        if math.isfinite(alpha):
            ell = math.log(1.0 / delta)
            alpha_lower_ratios.append(
                alpha / (delta ** (1.0 / (p + 1.0)) * ell ** (nu / (p + 1.0)))
            )
    summary = fit_rate(rows, p, nu, config.spread_tolerance) if len(rows) >= 3 else {}
    summary["rule"] = rule["name"]
    summary["generator"] = GENERATOR_NAME
    if rule["name"] == "discrepancy":
        summary["alpha_lower_ratios"] = alpha_lower_ratios
        if alpha_lower_ratios:
            summary["alpha_lower_ratio_min"] = min(alpha_lower_ratios)
            summary["alpha_lower_ratio_stability"] = (
                max(alpha_lower_ratios) / min(alpha_lower_ratios)
            )
    report = ExperimentReport(rows=rows, summary=summary, config=config.raw)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


CSV_HEADER = "delta,alpha,error,residual,bound,ratio"


def report_csv(report: ExperimentReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(_fmt(v) for v in (r.delta, r.alpha, r.error, r.residual, r.bound, r.ratio))
        )
    return "\n".join(lines) + "\n"


def plot_csv(report: ExperimentReport) -> str:
    cols = CSV_HEADER.split(",")
    lines = [",".join("log10_" + c for c in cols)]
    for r in report.rows:
        vals = (r.delta, r.alpha, r.error, r.residual, r.bound, r.ratio)
        lines.append(",".join(_fmt(math.log10(v)) if v > 0 else "nan" for v in vals))
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(report), encoding="utf-8", newline="\n")
    (out / "plot.csv").write_text(plot_csv(report), encoding="utf-8", newline="\n")
    (out / "summary.json").write_text(
        json.dumps(report.summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def check_axioms(config: ExperimentConfig) -> dict:
    """Run the scheme-axiom suites for the configured operator and scheme.

    Covers the positive-type bound, regularizer growth, commutation with A,
    decay ratios at several orders, and continuity of S_alpha in alpha.  The
    axioms do not depend on the source condition, so no ground truth is built.
    Each alpha builds its filter once and applies R_alpha to the probes and
    their images under A as one stacked block.
    """
    op = build_operator(config.raw["operator"])
    scheme = build_scheme(config.raw["scheme"])
    alphas = default_kappa_grid(op.op_norm, 20)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    probes = rng.standard_normal((3, op.dim))

    postype = float(np.max(_postype_ratios(op, alphas)))
    nrm = grid_norms(probes, op.norm_kind)
    forward = operator_map(op)
    au = forward(probes)
    au_nrm = np.maximum(grid_norms(au, op.norm_kind), 1e-300)
    stacked = np.concatenate([probes, au])
    k = probes.shape[0]
    growth_sup = 0.0
    commutation = 0.0
    for a in alphas:
        both = regularizer(op, scheme, float(a)).apply(stacked)
        ra = both[:k]
        growth_sup = max(growth_sup, float(np.max(float(a) * grid_norms(ra, op.norm_kind) / nrm)))
        gap = grid_norms(both[k:] - forward(ra), op.norm_kind)
        commutation = max(commutation, float(np.max(gap / au_nrm)))
    ps = [0.0, 1.0] if scheme.scheme == "cauchy" else [float(j) for j in range(scheme.m + 1)]
    reports = qualification_checks(op, scheme, ps, np.logspace(-6, 0, 13) * op.op_norm)
    quals = [
        {
            "p": rep.p,
            "sup_ratio": rep.sup_ratio,
            "certified_bound": rep.certified_bound,
            "passed": rep.passed,
        }
        for rep in reports
    ]
    a0 = 0.1 * op.op_norm
    u = op.grid_function(probes[0])
    s0 = companion_apply(op, scheme, a0, u)
    s1 = companion_apply(op, scheme, a0 * (1.0 + 1e-6), u)
    continuity = (s1 - s0).norm() / max(s0.norm(), 1e-300)
    return {
        "schema_version": SCHEMA_VERSION,
        "operator": operator_spec(op),
        "scheme": {"name": scheme.scheme, "m": scheme.m, "p0": "inf" if math.isinf(scheme.p0) else scheme.p0},
        "kappa_star": op.kappa_star,
        "op_norm": op.op_norm,
        "omega": op.omega,
        "postype_grid_max": postype,
        "postype_ok": bool(postype <= op.kappa_star * (1.0 + 1e-9)),
        "growth_sup": growth_sup,
        "growth_certified": scheme.growth_constant(op.kappa_star),
        "commutation_defect": commutation,
        "qualification": quals,
        "continuity_relative_change": continuity,
        "sectorial_certified": scheme.sectorial_certified(op),
    }
