#!/usr/bin/env python3
"""Print the low-order membership reports for a passing and a failing candidate."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from illposed.loworder import LogExampleParams, verify_membership  # noqa: E402


def main() -> int:
    for c, kappa in ((0.5, 2.0), (0.5, 0.5)):
        report = verify_membership(LogExampleParams(c=c, kappa=kappa))
        print(f"== c = {c}, kappa = {kappa} ==")
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
