"""Correctness checks on the outputs of one workload pass.

Every command is checked at any seed for:

* exit status 0;
* ``run``: one ``report.csv`` row per ladder entry, in ladder order, with
  finite, positive alpha and error, and for the residual-band rule a
  residual inside ``[b0 delta, b1 delta]``;
* ``check-axioms``: ``postype_ok`` and every qualification verdict true;
* ``loworder-verify``: the expected verdict.

At the default seed the ``report.csv`` values are also compared with the
reference stored in ``reference/``, recorded on the commit that added the
benchmark.  Tolerances follow each method's own accuracy:

* Lavrentiev rows: direct solves, accurate to rounding.  The diagonal kind
  divides entry by entry, a few ulps at any alpha.  The Volterra kinds solve
  triangular systems with alpha >= 5e-4 ||A|| on these ladders, so u is
  accurate to about cond * eps <= 4e3 * 2 * 1e-16 ~ 1e-12 relative.  The
  error column is a difference that loses up to a further ~1e3 (errors
  reach about 1e-3 of ||u*||), hence ``rtol = 1e-9``.
* Cauchy rows: the evolution integrator stops once successive Richardson
  answers agree to 1e-6 relative to ||u|| <= 1.5, so u is known to about
  1.5e-6 absolute; error and residual (||A|| <= 1.13 in the sup norm) inherit
  that, and ``atol = rtol = 1e-5`` leaves a margin of about five.
* delta, bound and a priori alpha are closed forms: ``rtol = 1e-12``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import BENCH_DIR, CONFIG_DIR, WORKLOADS, Command

REFERENCE_DIR = BENCH_DIR / "reference"
CSV_HEADER = "delta,alpha,error,residual,bound,ratio"
CLOSED_FORM_RTOL = 1e-12
#: (rtol, atol) for the error and residual columns, by scheme
SCHEME_TOLERANCE = {"lavrentiev": (1e-9, 0.0), "cauchy": (1e-5, 1e-5)}


def load_config(cmd: Command) -> dict:
    return json.loads((CONFIG_DIR / f"{cmd.config}.json").read_text(encoding="utf-8"))


def parse_report(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("report.csv: unexpected header")
    cols = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(cols):
            raise ValueError(f"report.csv: malformed row {line!r}")
        rows.append(dict(zip(cols, (float(v) for v in vals))))
    return rows


def row_invariant_errors(rows: list[dict], cfg: dict) -> list[str]:
    """Seed-independent checks on the rows of one rate run."""
    ladder = [float(d) for d in cfg["delta_ladder"]]
    if [r["delta"] for r in rows] != ladder:
        return [f"expected one row per ladder entry {ladder}, got {[r['delta'] for r in rows]}"]
    errors = []
    rule = cfg["rule"]
    for r in rows:
        for col in ("alpha", "error"):
            if not (math.isfinite(r[col]) and r[col] > 0):
                errors.append(f"delta={r['delta']:g}: {col} = {r[col]} is not finite and positive")
        if rule["name"] == "discrepancy":
            lo, hi = float(rule["b0"]) * r["delta"], float(rule["b1"]) * r["delta"]
            if not lo <= r["residual"] <= hi:
                errors.append(
                    f"delta={r['delta']:g}: residual {r['residual']} outside [{lo}, {hi}]"
                )
    return errors


def _close(x: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref) + atol


def reference_errors(rows: list[dict], ref_rows: list[dict], cfg: dict) -> list[str]:
    """Compare a default-seed report with the stored reference."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    rtol, atol = SCHEME_TOLERANCE[cfg["scheme"]["name"]]
    searched_alpha = cfg["rule"]["name"] == "discrepancy"
    errors = []
    for r, ref in zip(rows, ref_rows):
        tol = {
            "delta": (CLOSED_FORM_RTOL, 0.0),
            "alpha": (rtol, 0.0) if searched_alpha else (CLOSED_FORM_RTOL, 0.0),
            "error": (rtol, atol),
            "residual": (rtol, atol),
            "bound": (CLOSED_FORM_RTOL, 0.0),
            "ratio": (rtol, atol / ref["bound"]),
        }
        for col, (rt, at) in tol.items():
            if not _close(r[col], ref[col], rt, at):
                errors.append(
                    f"delta={ref['delta']:g}: {col} = {r[col]!r}, reference {ref[col]!r} "
                    f"(rtol {rt:g}, atol {at:g})"
                )
    return errors


def reference_rows(cmd: Command) -> list[dict]:
    return parse_report((REFERENCE_DIR / f"{cmd.name}.csv").read_text(encoding="utf-8"))


def command_errors(cmd: Command, exit_code: int, out_dir: Path, compare_reference: bool) -> list[str]:
    """Reasons the command failed; empty when its outputs pass every check."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    out = out_dir / cmd.out
    try:
        if cmd.kind == "run":
            cfg = load_config(cmd)
            rows = parse_report((out / "report.csv").read_text(encoding="utf-8"))
            errors = row_invariant_errors(rows, cfg)
            if compare_reference:
                errors += reference_errors(rows, reference_rows(cmd), cfg)
            return errors
        doc = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    if cmd.kind == "check-axioms":
        errors = [] if doc.get("postype_ok") is True else ["postype_ok is not true"]
        quals = doc.get("qualification") or []
        errors += [f"qualification p={q.get('p')} not passed" for q in quals if q.get("passed") is not True]
        return errors if quals else errors + ["no qualification verdicts"]
    verdict = doc.get("verdict")
    return [] if verdict == cmd.verdict else [f"verdict {verdict!r}, expected {cmd.verdict!r}"]


def self_test(work_dir: Path, e2e_names: list[str], layer_names: list[str]) -> list[str]:
    """Checks that the checker rejects what it must, and names match BENCHMARK.json."""
    problems = []
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in spec["end_to_end"]] != e2e_names:
        problems.append("end-to-end metric names differ from BENCHMARK.json")
    if [m["name"] for m in spec["per_layer"]] != layer_names:
        problems.append("per-layer metric names differ from BENCHMARK.json")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    run_cmds = {c.name: c for cmds in WORKLOADS.values() for c in cmds if c.kind == "run"}
    for name in ("run_diagonal_discrepancy", "run_abel_cauchy"):
        cmd = run_cmds[name]
        (work_dir / cmd.out).mkdir(parents=True, exist_ok=True)
        ref_text = (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")
        (work_dir / cmd.out / "report.csv").write_text(ref_text, encoding="utf-8")
        if command_errors(cmd, 0, work_dir, compare_reference=True):
            problems.append(f"{name}: the reference fails its own check")
        if not command_errors(cmd, 1, work_dir, compare_reference=True):
            problems.append(f"{name}: a nonzero exit was accepted")
        # push the last row's error ten tolerances away from the reference
        rtol, atol = SCHEME_TOLERANCE[load_config(cmd)["scheme"]["name"]]
        lines = ref_text.splitlines()
        vals = lines[-1].split(",")
        err = float(vals[2])
        vals[2] = repr(err + 10.0 * (rtol * abs(err) + atol))
        lines[-1] = ",".join(vals)
        (work_dir / cmd.out / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if not command_errors(cmd, 0, work_dir, compare_reference=True):
            problems.append(f"{name}: an error value perturbed beyond tolerance was accepted")
    return problems
