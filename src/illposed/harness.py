"""Experiment orchestration: problem assembly, exact-norm noise, rate runs.

Configs are JSON documents, versioned by ``schema_version`` (1).  ``FIELDS``
is the schema: one row per field with its type, bounds, default and the
operator kind, source element, scheme or rule it applies to.
``parse_config`` rejects a key that names no row, checks the document
against the table row by row, rejects a key none of whose rows applies,
then checks the rules that tie fields together (sigma order, the unit
index below the operator's dimension, a ladder of at least three deltas,
below ``delta0`` and strictly decreasing, ``p`` below the scheme's
saturation, ``b1`` at least ``b0``), and returns a normalized copy that
holds every field that applies, defaults filled in.  The builders read only
that copy.  Every error is a ``ConfigError`` that names the field.  The
residual-band rule takes only its band, ``rule.b0`` and ``rule.b1`` (its
walk constants live in ``parameter_choice``), and a random ``source.w`` is
always scaled to unit norm.

All randomness flows through the Philox 4x64 counter-based generator keyed
by explicit seeds, so identical configs produce byte-identical CSV output.

Results are plain data.  ``run_rate_experiment`` returns
``{"rows", "summary"}``: one dict per ladder entry keyed by ``CSV_COLUMNS``,
and the summary document.  A row's u is R_alpha f_delta and its residual
||A u - f_delta|| is ||S_alpha f_delta||, both from the row's one filter.
``check_axioms`` returns the document that ``check-axioms`` writes.
Outputs: ``report.csv`` (header ``delta,alpha,error,residual,bound,ratio``,
floats with 17 significant digits, alpha = inf serialized as "inf"),
``plot.csv`` (the same columns in log10), ``summary.json``.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .operator_log import make_mixed_smooth_element
from .operators import (
    _W_FUNCTIONS,
    MAX_GRID_CELLS,
    NORM_KINDS,
    DiscreteOperator,
    GridFunction,
    _one_row,
    abel_operator,
    apply,
    default_kappa_grid,
    diagonal_operator,
    estimate_postype_constant,
    exp_decay_diagonal,
    grid_norms,
)
from .parameter_choice import (
    DiscrepancyConfig,
    apriori_alpha,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    discrepancy_alpha,
    discrepancy_alphas,
)
from .schemes import (
    RegularizerConfig,
    companion_difference,
    qualification_checks,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    regularize,
    regularizer,
)

SCHEMA_VERSION = 1
#: exp(-745) is the last sigma_k = exp(-k) that does not underflow to 0
MAX_EXP_DECAY_MODES = 746
#: check-axioms checks the m + 1 qualification orders 0..m, each a map of O(log m) products
MAX_LAVRENTIEV_STEPS = 64
#: the pass verdict's bound on ratio_spread = max/median, which is never below 1
SPREAD_TOLERANCE = 3.0
GENERATOR_NAME = "philox4x64"  # numpy Philox, 64-bit counter-based
#: the keys of a rate row, in report.csv's column order; plot.csv holds their log10
CSV_COLUMNS = ("delta", "alpha", "error", "residual", "bound", "ratio")

_REQUIRED = object()
_POSITIVE = (0, math.inf, "()")
_VOLTERRA = ("operator.kind", ("integration", "abel"))
_DIAGONAL = ("operator.kind", ("diagonal",))
_EXP_DECAY = (_DIAGONAL, ("operator.sigma", (None,)))
_DISCREPANCY = (("rule.name", ("discrepancy",)),)
#: (path, type, bounds, default, when), checked in order.  Bounds are
#: (lo, hi, brackets) for "int", "number" and the entries of "numbers", or
#: the admitted values of "choice".  A row applies when the field at each
#: (path, values) pair of ``when`` holds one of the values.  A field that
#: applies and is left out takes the default, or is an error when it is
#: _REQUIRED; a field whose default is None may also be null.
FIELDS = (
    ("schema_version", "choice", (SCHEMA_VERSION,), _REQUIRED, ()),
    # Philox keys lie below 2^128; row k draws its noise with seed + k
    ("seed", "int", (0, 2**127, "[]"), 0, ()),
    ("operator", "object", None, _REQUIRED, ()),
    ("operator.kind", "choice", ("diagonal", "integration", "abel"), _REQUIRED, ()),
    ("operator.order", "number", (0, 1, "(]"), _REQUIRED, (("operator.kind", ("abel",)),)),
    ("operator.n", "int", (2, MAX_GRID_CELLS, "[]"), _REQUIRED, (_VOLTERRA,)),
    ("operator.norm", "choice", NORM_KINDS, "sup", (_VOLTERRA,)),
    ("operator.norm", "choice", NORM_KINDS, "l2_scaled", (_DIAGONAL,)),
    ("operator.sigma", "numbers", _POSITIVE, None, (_DIAGONAL,)),
    ("operator.modes", "int", (2, MAX_EXP_DECAY_MODES, "[]"), _REQUIRED, _EXP_DECAY),
    ("operator.sigma_rule", "choice", ("exp_decay",), "exp_decay", _EXP_DECAY),
    ("operator.rescale_to_half_norm", "bool", None, False, ()),
    ("source", "object", None, _REQUIRED, ()),
    ("source.p", "number", (0, math.inf, "[)"), _REQUIRED, ()),
    ("source.nu", "int", (1, math.inf, "[)"), _REQUIRED, ()),
    ("source.lambda_offset", "number", _POSITIVE, _REQUIRED, ()),
    ("source.w", "object", None, _REQUIRED, ()),
    ("source.w.kind", "choice", ("random", "unit", "function"), _REQUIRED, ()),
    ("source.w.index", "int", (0, math.inf, "[)"), _REQUIRED, (("source.w.kind", ("unit",)),)),
    ("source.w.seed", "int", (0, 2**127, "[]"), _REQUIRED, (("source.w.kind", ("random",)),)),
    ("source.w.name", "choice", tuple(_W_FUNCTIONS), _REQUIRED,
     (("source.w.kind", ("function",)),)),
    ("scheme", "object", None, _REQUIRED, ()),
    ("scheme.name", "choice", ("lavrentiev", "cauchy"), _REQUIRED, ()),
    ("scheme.m", "int", (1, MAX_LAVRENTIEV_STEPS, "[]"), RegularizerConfig.m,
     (("scheme.name", ("lavrentiev",)),)),
    ("rule", "object", None, _REQUIRED, ()),
    ("rule.name", "choice", ("apriori", "discrepancy"), _REQUIRED, ()),
    ("rule.c0", "number", _POSITIVE, 1.0, (("rule.name", ("apriori",)),)),
    ("rule.b0", "number", _POSITIVE, _REQUIRED, _DISCREPANCY),
    ("rule.b1", "number", _POSITIVE, _REQUIRED, _DISCREPANCY),
    ("delta_ladder", "numbers", _POSITIVE, _REQUIRED, ()),
    ("delta0", "number", (0, 1, "()"), 0.1, ()),
    ("spread_tolerance", "number", (1, math.inf, "[)"), SPREAD_TOLERANCE, ()),
)

_PATHS = {row[0] for row in FIELDS}
_OBJECTS = {row[0] for row in FIELDS if row[1] == "object"}


def _key_paths(doc: dict, prefix: str = ""):
    """Every key path of ``doc``, descending only into the values at "object" rows."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        yield path
        if path in _OBJECTS and isinstance(value, dict):
            yield from _key_paths(value, path + ".")


def _at(doc: dict, path: str):
    """The field at a dotted path, None where it is missing."""
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def _complaint(kind: str, bounds, value) -> str | None:
    """What is wrong with ``value`` for a field of this type and bounds, or None."""
    if kind == "choice":
        return None if value in bounds else f"must be one of {list(bounds)}, got {value!r}"
    if kind in ("object", "bool"):
        if isinstance(value, dict if kind == "object" else bool):
            return None
        return f"must be {'a JSON object' if kind == 'object' else 'true or false'}, got {value!r}"
    lo, hi, brackets = bounds
    number = int if kind == "int" else (int, float)

    def fits(v) -> bool:
        if isinstance(v, bool) or not isinstance(v, number) or not abs(v) <= sys.float_info.max:
            return False
        above = lo < v or (brackets[0] == "[" and v == lo)
        return above and (v < hi or (brackets[1] == "]" and v == hi))

    span = f" in {brackets[0]}{lo}, {hi}{brackets[1]}"
    if kind == "numbers":
        if isinstance(value, list) and all(map(fits, value)):
            return None
        return f"must be a list of finite numbers{span}"
    if fits(value):
        return None
    return f"must be {'an integer' if kind == 'int' else 'a finite number'}{span}, got {value!r}"


def parse_config(doc: dict) -> dict:
    """Check a config document against ``FIELDS`` and the cross-field rules.

    Errors carry the offending field path.  The document is not changed: the
    result is a normalized copy, every field that applies with the defaults
    filled in.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    doc = copy.deepcopy(doc)
    applied = set()
    for path, kind, bounds, default, when in FIELDS:
        if not all(_at(doc, cond) in values for cond, values in when):
            continue
        applied.add(path)
        parent, _, key = path.rpartition(".")
        node = _at(doc, parent) if parent else doc
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"config.{path}: missing required field")
            node[key] = default
        elif default is not None or node[key] is not None:
            complaint = _complaint(kind, bounds, node[key])
            if complaint:
                raise ConfigError(f"config.{path}: {complaint}")
    idle = [path for path in _key_paths(doc) if path not in applied]
    if idle and idle[0] not in _PATHS:
        raise ConfigError(f"config.{idle[0]}: unknown field")
    if idle:
        when = next(row[4] for row in FIELDS if row[0] == idle[0])
        need = " and ".join(f"{cond} is one of {list(values)}" for cond, values in when)
        raise ConfigError(f"config.{idle[0]}: applies only where {need}")
    op, src, scheme, rule = doc["operator"], doc["source"], doc["scheme"], doc["rule"]
    sigma = op["sigma"] if op["kind"] == "diagonal" else None
    if sigma is not None and (len(sigma) < 2 or any(b > a for a, b in zip(sigma, sigma[1:]))):
        raise ConfigError(
            "config.operator.sigma: must be a list of at least 2 finite, positive, "
            "nonincreasing numbers"
        )
    if src["w"]["kind"] == "unit":
        if op["kind"] != "diagonal":
            dim = op["n"] + 1
        else:
            dim = op["modes"] if sigma is None else len(sigma)
        if not src["w"]["index"] < dim:
            raise ConfigError(
                f"config.source.w.index: must be an integer in [0, {dim - 1}], "
                f"got {src['w']['index']!r}"
            )
    deltas = doc["delta_ladder"]
    if len(deltas) < 3:  # the rate fit needs three rows
        raise ConfigError("config.delta_ladder: must hold at least three deltas")
    if any(d > doc["delta0"] for d in deltas):
        raise ConfigError("config.delta_ladder: entries must lie in (0, delta0]")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError("config.delta_ladder: must be strictly decreasing")
    # saturation interplay is checked here so failures carry a field path
    p0 = build_scheme(scheme).p0
    if not src["p"] < p0:
        raise ConfigError("config.source.p: must stay below the scheme saturation")
    if rule["name"] == "discrepancy":
        if rule["b1"] < rule["b0"]:
            raise ConfigError("config.rule.b1: must be at least rule.b0")
        if not p0 > 1:
            raise ConfigError("config.rule: discrepancy needs saturation > 1 (lavrentiev m >= 2)")
        if not src["p"] < p0 - 1:
            raise ConfigError("config.source.p: discrepancy rule needs p < saturation - 1")
    return doc


def load_config(path, seed: int | None = None, grid_n: int | None = None) -> dict:
    """The config file at ``path``, with the overrides applied before one validation.

    ``grid_n`` sets ``operator.n``, or the mode count of a diagonal operator,
    which then takes the ``exp_decay`` rule in place of any sigma list.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: not a UTF-8 JSON document: {exc}") from None
    if not isinstance(doc, dict):
        return parse_config(doc)
    if seed is not None:
        doc["seed"] = seed
    op = doc.get("operator")
    if grid_n is not None and isinstance(op, dict):
        if op.get("kind") == "diagonal":
            op.pop("sigma", None)
            op["modes"] = grid_n
        else:
            op["n"] = grid_n
    return parse_config(doc)


def build_operator(spec: dict) -> DiscreteOperator:
    """The operator of a normalized ``operator`` record (see ``parse_config``)."""
    kind, norm = spec["kind"], spec["norm"]
    if kind != "diagonal":  # integration is Abel order 1, whose record holds no order
        op = abel_operator(float(spec.get("order", 1.0)), int(spec["n"]), norm)
    elif spec["sigma"] is not None:
        op = diagonal_operator(np.asarray(spec["sigma"], dtype=float), norm)
    else:
        op = exp_decay_diagonal(int(spec["modes"]), norm)
    if spec["rescale_to_half_norm"]:
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


def build_source_element(op: DiscreteOperator, wspec: dict) -> GridFunction:
    """The element w of a normalized ``source.w`` record."""
    kind = wspec["kind"]
    if kind == "unit":
        return op.unit(int(wspec["index"]))
    if kind == "random":
        rng = np.random.Generator(np.random.Philox(key=int(wspec["seed"])))
        w = op.grid_function(rng.standard_normal(op.dim))
        nrm = w.norm()
        if nrm == 0.0:
            return build_source_element(op, {**wspec, "seed": int(wspec["seed"]) + 1})
        return (1.0 / nrm) * w
    x = np.linspace(0.0, 1.0, op.dim)
    return op.grid_function(_W_FUNCTIONS[wspec["name"]](x))


def build_scheme(spec: dict) -> RegularizerConfig:
    if spec["name"] == "lavrentiev":
        return RegularizerConfig(scheme="lavrentiev", m=int(spec["m"]))
    return RegularizerConfig(scheme="cauchy")


@dataclass(frozen=True)
class Problem:
    op: DiscreteOperator
    w: GridFunction
    lam: float
    u_star: GridFunction
    f_star: GridFunction
    scheme: RegularizerConfig


def build_problem(config: dict) -> Problem:
    """Assemble operator, ground truth and exact data from a config.

    u_star = -A^p (lam - log A)^{-nu} w, lam = omega + lambda_offset, meets the
    mixed source condition exactly at the grid level; f_star = A u_star.  A
    u_star whose norm underflows below the least normal float is a
    ``ConfigError`` on ``config.source``: each row would measure the noise
    alone.
    """
    op = build_operator(config["operator"])
    src = config["source"]
    scheme = build_scheme(config["scheme"])
    w = build_source_element(op, src["w"])
    lam = op.omega + float(src["lambda_offset"])
    mixed = make_mixed_smooth_element(op, float(src["p"]), int(src["nu"]), lam, w)
    if not mixed.norm() >= sys.float_info.min:
        raise ConfigError("config.source: ground truth A^p (lambda - log A)^{-nu} w underflows to 0")
    u_star = op.zeros() - mixed
    f_star = apply(op, u_star)
    return Problem(op=op, w=w, lam=lam, u_star=u_star, f_star=f_star, scheme=scheme)


def add_noise(f: GridFunction, delta: float, seed: int) -> GridFunction:
    """f + delta * z/||z|| with z drawn from Philox(seed): exact noise norm."""
    if not 0.0 <= delta < math.inf:
        raise DomainError("delta must be nonnegative and finite")
    if delta == 0.0:
        return f
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    z = f.with_values(rng.standard_normal(f.dim))
    nz = z.norm()
    if nz == 0.0:  # unreachable in practice; deterministic redraw anyway
        return add_noise(f, delta, seed + 1)
    return f + (delta / nz) * z


def error_bound(delta: float, p: float, nu: int, d_w: float) -> float:
    """D_w * delta^{p/(p+1)} * log^{-nu/(p+1)}(1/delta), a positive normal float."""
    ell = math.log(1.0 / delta)
    try:
        bound = d_w * delta ** (p / (p + 1.0)) * ell ** (-nu / (p + 1.0))
    except OverflowError:
        bound = math.inf
    if not sys.float_info.min <= bound < math.inf:
        flow = "overflows" if bound == math.inf else "underflows"
        raise DomainError(f"rate bound at delta = {delta} {flow} (p = {p}, nu = {nu})")
    return bound


def _median(values: np.ndarray) -> float:
    """np.median's value, (a + b) / 2 at even length.

    np.median's NaN check imports numpy.ma, which the CLI otherwise never loads.
    """
    s = np.sort(values)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2.0)


def fit_rate(
    rows: list[dict], p: float, nu: int, spread_tolerance: float = SPREAD_TOLERANCE
) -> dict:
    """Ratio statistics plus the apparent exponent after removing the log factor.

    ``ratio_spread`` (max/median) drives the pass verdict; ``ratio_range``
    (max/min) is reported as the sharper drift diagnostic: a single stray
    log factor drifts too slowly to move max/median beyond 2 on any ladder,
    but it does move max/min.
    """
    if len(rows) < 3:
        raise DomainError("rate fitting needs at least three rows")
    ratios = np.array([r["ratio"] for r in rows])
    if np.any(ratios <= 0):
        raise DomainError("ratios must be positive")
    max_ratio = float(np.max(ratios))
    median_ratio = _median(ratios)
    spread = max_ratio / median_ratio
    rng = max_ratio / float(np.min(ratios))
    deltas = np.array([r["delta"] for r in rows])
    errors = np.array([r["error"] for r in rows])
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


def run_rate_experiment(config: dict, out_dir=None) -> dict:
    """Run the configured (scheme x rule) over the delta ladder.

    Returns ``{"rows", "summary"}``: one dict per ladder entry, keyed by
    ``CSV_COLUMNS``, and the ``summary.json`` document.  Row k uses noise
    seed ``seed + k``.  An a priori row builds one filter at its alpha and
    takes u = R_alpha f_delta and the residual ||S_alpha f_delta|| from it.
    Rows are written in ladder order; everything is deterministic for a
    fixed config.
    """
    problem = build_problem(config)
    op, scheme = problem.op, problem.scheme
    src = config["source"]
    p, nu = float(src["p"]), int(src["nu"])
    d_w = max(problem.w.norm(), 1.0)
    rule = config["rule"]
    deltas = [float(d) for d in config["delta_ladder"]]
    seed = config["seed"]
    data = [add_noise(problem.f_star, delta, seed + k) for k, delta in enumerate(deltas)]
    if rule["name"] == "apriori":
        c0 = float(rule["c0"])
        chosen = []
        for f_delta, delta in zip(data, deltas):
            alpha = apriori_alpha(delta, p, nu, c0)
            reg = regularizer(op, scheme, alpha)
            residual = _one_row(op, reg.companion, f_delta).norm()
            chosen.append((alpha, _one_row(op, reg.apply, f_delta), residual))
    else:
        dcfg = DiscrepancyConfig(b0=float(rule["b0"]), b1=float(rule["b1"]))
        chosen = discrepancy_alphas(op, scheme, dcfg, data, deltas)
    rows = []
    alpha_lower_ratios: list[float] = []
    for delta, (alpha, u, residual) in zip(deltas, chosen):
        error = (u - problem.u_star).norm()
        bound = error_bound(delta, p, nu, d_w)
        rows.append(dict(zip(CSV_COLUMNS, (delta, alpha, error, residual, bound, error / bound))))
        if math.isfinite(alpha):
            alpha_lower_ratios.append(alpha / apriori_alpha(delta, p, nu))
    summary = fit_rate(rows, p, nu, float(config["spread_tolerance"]))
    summary["rule"] = rule["name"]
    summary["generator"] = GENERATOR_NAME
    if rule["name"] == "discrepancy":
        summary["alpha_lower_ratios"] = alpha_lower_ratios
        if alpha_lower_ratios:
            summary["alpha_lower_ratio_min"] = min(alpha_lower_ratios)
            summary["alpha_lower_ratio_stability"] = (
                max(alpha_lower_ratios) / min(alpha_lower_ratios)
            )
    report = {"rows": rows, "summary": summary}
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def report_csv(report: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in report["rows"]:
        lines.append(",".join(f"{r[c]:.17g}" for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def plot_csv(report: dict) -> str:
    lines = [",".join("log10_" + c for c in CSV_COLUMNS)]
    for r in report["rows"]:
        vals = (r[c] for c in CSV_COLUMNS)
        lines.append(",".join(f"{math.log10(v):.17g}" if v > 0 else "nan" for v in vals))
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(report), encoding="utf-8", newline="\n")
    (out / "plot.csv").write_text(plot_csv(report), encoding="utf-8", newline="\n")
    (out / "summary.json").write_text(
        json.dumps(report["summary"], indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def check_axioms(config: dict) -> dict:
    """Run the scheme-axiom suites for the configured operator and scheme.

    Covers the positive-type bound (20 alphas, checked against the certified
    kappa*), regularizer growth, decay ratios at several orders, and
    continuity of S_alpha in alpha (``companion_difference``, no subtraction
    of two nearly equal vectors).  The axioms do not depend on the source
    condition, so no ground truth is built.  Each alpha builds its filter
    once and applies R_alpha to the probe block.  R_alpha commutes with A by
    construction, both being functions of one symbol, so no commutation
    defect is reported.
    """
    op = build_operator(config["operator"])
    scheme = build_scheme(config["scheme"])
    alphas = default_kappa_grid(op.op_norm, 20)
    rng = np.random.Generator(np.random.Philox(key=config["seed"]))
    probes = rng.standard_normal((3, op.dim))

    postype = estimate_postype_constant(op, alphas)
    nrm = grid_norms(probes, op.norm_kind)
    growth_sup = 0.0
    for a in alphas:
        ra = regularizer(op, scheme, float(a)).apply(probes)
        growth_sup = max(growth_sup, float(np.max(float(a) * grid_norms(ra, op.norm_kind) / nrm)))
    ps = [0.0, 1.0] if scheme.scheme == "cauchy" else [float(j) for j in range(scheme.m + 1)]
    a0 = 0.1 * op.op_norm
    u = op.grid_function(probes[0])
    s0 = _one_row(op, regularizer(op, scheme, a0).companion, u)
    step = _one_row(op, companion_difference(op, scheme, a0, a0 * (1.0 + 1e-6)), u)
    continuity = step.norm() / max(s0.norm(), 1e-300)
    return {
        "schema_version": SCHEMA_VERSION,
        "operator": operator_spec(op),
        "scheme": {"name": scheme.scheme, "m": scheme.m, "p0": "inf" if math.isinf(scheme.p0) else scheme.p0},
        "kappa_star": op.kappa_star,
        "op_norm": op.op_norm,
        "omega": op.omega,
        "postype_grid_max": postype,
        "postype_ok": bool(postype <= op.kappa_star),
        "growth_sup": growth_sup,
        "growth_certified": scheme.growth_constant(op.kappa_star),
        "qualification": qualification_checks(op, scheme, ps, np.logspace(-6, 0, 13) * op.op_norm),
        "continuity_relative_change": continuity,
        "sectorial_certified": scheme.sectorial_certified(op),
    }
