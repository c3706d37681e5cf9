#!/usr/bin/env python3
"""Rewrite ``reference/<command>.csv``: each rate run's report at the default seed.

Run from the repository root with ``python3 bench/record_reference.py``, only
on a commit whose outputs are known to be right; the benchmark compares
every later run against these files.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR
from workloads import DEFAULT_SEED, WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from illposed.cli import main as cli_main

    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cmds in WORKLOADS.values():
            for cmd in cmds:
                if cmd.kind != "run":
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    cli_main(cmd.argv(DEFAULT_SEED, Path(tmp)))
                shutil.copyfile(Path(tmp) / cmd.out / "report.csv", REFERENCE_DIR / f"{cmd.name}.csv")
                print(f"wrote {REFERENCE_DIR / cmd.name}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
