#!/usr/bin/env python3
"""Run the scheme-axiom suites for the bundled configs and print the reports."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from illposed.harness import check_axioms, load_config  # noqa: E402


def main() -> int:
    for rel in ("configs/diagonal_apriori.json", "configs/integration_apriori.json"):
        cfg = load_config(ROOT / rel)
        result = check_axioms(cfg)
        print(f"== {Path(rel).stem} ==")
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
