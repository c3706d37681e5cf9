"""Command line interface.

Subcommands:

* ``run --config <path> --out <dir>`` -- run a rate experiment, writing
  report.csv, plot.csv and summary.json into the output directory;
* ``loworder-verify --c <v> --kappa <v>`` -- run the membership diagnostics
  for the low-order candidate and emit the report as JSON;
* ``check-axioms --config <path>`` -- run the scheme-axiom suites and emit
  the results as JSON.

``--seed`` and ``--grid-n`` override the corresponding config fields.  A
package error (bad config field, domain or quadrature failure) prints one
line ``illposed: <message>`` on stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import IllposedError
from .harness import check_axioms, parse_config, run_rate_experiment
from .loworder import LogExampleParams, verify_membership


def _load_with_overrides(path: str, seed: int | None, grid_n: int | None):
    """The config at ``path`` with the overrides applied, validated once after them."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        return parse_config(doc)
    if seed is not None:
        doc["seed"] = seed
    if grid_n is not None and isinstance(doc.get("operator"), dict):
        op = doc["operator"]
        if op.get("kind") == "diagonal":
            op.pop("sigma", None)
            op["modes"] = grid_n
            op.setdefault("sigma_rule", "exp_decay")
        else:
            op["n"] = grid_n
    return parse_config(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Regularization experiments for linear ill-posed problems "
        "under logarithmic and mixed source conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a rate experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--grid-n", type=int, default=None, help="override the grid size")

    low_p = sub.add_parser("loworder-verify", help="verify the low-order candidate")
    low_p.add_argument("--c", type=float, required=True)
    low_p.add_argument("--kappa", type=float, required=True)
    low_p.add_argument("--grid-n", type=int, default=512)
    low_p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    ax_p = sub.add_parser("check-axioms", help="run the scheme-axiom suites")
    ax_p.add_argument("--config", required=True)
    ax_p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    ax_p.add_argument("--seed", type=int, default=None)
    ax_p.add_argument("--grid-n", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except IllposedError as exc:
        print(f"illposed: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "run":
        cfg = _load_with_overrides(args.config, args.seed, args.grid_n)
        report = run_rate_experiment(cfg, out_dir=args.out)
        summary = dict(report.summary)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "loworder-verify":
        params = LogExampleParams(c=args.c, kappa=args.kappa)
        report = verify_membership(params, n=args.grid_n)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0

    # check-axioms
    cfg = _load_with_overrides(args.config, args.seed, args.grid_n)
    result = check_axioms(cfg)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
