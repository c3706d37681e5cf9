"""Command line interface.

Subcommands:

* ``run --config <path> --out <dir>`` -- run a rate experiment, writing
  report.csv, plot.csv and summary.json into the output directory and
  printing the summary;
* ``loworder-verify --c <v> --kappa <v>`` -- run the membership diagnostics
  for the low-order candidate and emit the dict ``verify_membership``
  returns as JSON;
* ``check-axioms --config <path>`` -- run the scheme-axiom suites and emit
  the dict ``check_axioms`` returns as JSON.

``--seed`` and ``--grid-n`` override the corresponding config fields.  A
package error (bad config field, domain or quadrature failure) or a file
error on reading the config or writing the outputs prints one line
``illposed: <message>`` on stderr and exits with status 2.

Each command loads only its own layer: ``harness`` for ``run`` and
``check-axioms``, ``loworder`` for ``loworder-verify``.  The five names the
commands call are module attributes resolved on first use (PEP 562).

``main(argv)`` is the in-process API and leaves the cyclic garbage collector
as it finds it.  ``script()`` is the entry of a process that runs one command,
``python -m illposed.cli`` and the installed ``illposed`` script alike: it
turns the collector off for the command and freezes what is left before the
interpreter exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .errors import IllposedError


def __getattr__(name):
    # an import statement, not importlib, so `python -X importtime` lists the layer
    if name in ("check_axioms", "load_config", "run_rate_experiment"):
        from . import harness as layer
    elif name in ("LogExampleParams", "verify_membership"):
        from . import loworder as layer
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(layer, name)


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
    except (IllposedError, OSError) as exc:
        print(f"illposed: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    # calls go through the module object, so a wrapper set on illposed.cli.<name>
    # sees them; under `python -m` this module is __main__, not illposed.cli
    cli = sys.modules[__name__]
    if args.command == "run":
        cfg = cli.load_config(args.config, args.seed, args.grid_n)
        report = cli.run_rate_experiment(cfg, out_dir=args.out)
        print(json.dumps(report["summary"], indent=2, sort_keys=True))
        return 0

    if args.command == "loworder-verify":
        params = cli.LogExampleParams(c=args.c, kappa=args.kappa)
        result = cli.verify_membership(params, n=args.grid_n)
    else:  # check-axioms
        result = cli.check_axioms(cli.load_config(args.config, args.seed, args.grid_n))
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def script():
    """Run one command from ``sys.argv`` and exit with its status.

    A command leaves a few hundred cyclic objects, the argument parser most
    of them, whatever the grid size; the collector's passes while numpy and
    the layer import, and its full collections at exit, took 15-20% of a
    bundled command's wall time and freed almost nothing.  So the collector
    is off for the command, and ``gc.freeze`` moves what is left out of the
    exit-time collections.  Only for a process that ends with the command:
    ``main`` leaves the collector alone.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    script()
