#!/usr/bin/env python3
"""Run the bundled rate experiments and print their summaries.

Outputs land under out/<config-name>/ as report.csv, plot.csv, summary.json.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from illposed.harness import load_config, run_rate_experiment  # noqa: E402

CONFIGS = [
    "configs/diagonal_apriori.json",
    "configs/diagonal_discrepancy.json",
    "configs/integration_apriori.json",
]


def main() -> int:
    for rel in CONFIGS:
        cfg_path = ROOT / rel
        out_dir = ROOT / "out" / cfg_path.stem
        report = run_rate_experiment(load_config(cfg_path), out_dir=out_dir)
        print(f"== {cfg_path.stem} ==")
        print(f"   rows: {len(report.rows)}   wrote {out_dir}/")
        keys = ("max_ratio", "median_ratio", "ratio_spread", "holder_exponent", "pass")
        print("   " + json.dumps({k: report.summary.get(k) for k in keys}))
        for row in report.rows:
            print(
                f"   delta={row.delta:8.1e}  alpha={row.alpha:10.3e}  "
                f"error={row.error:10.4e}  error/bound={row.ratio:6.3f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
