"""The benchmark's workloads: fixed sequences of `illposed` CLI commands.

A workload is a list of commands run one after another by a single client
(closed loop).  The seed reaches the program only through the CLI's
``--seed`` flag; ``loworder-verify`` takes no seed and is deterministic.
Why each workload exists is recorded in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"

#: the bundled configs' own seed; the stored reference outputs use it
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    ``kind`` is ``run``, ``check-axioms`` or ``loworder-verify``; ``config``
    names the JSON config for the first two; ``verdict`` is the expected
    ``loworder-verify`` verdict.  ``out`` is relative to the pass directory.
    """

    name: str
    kind: str
    config: str | None = None
    c: float | None = None
    kappa: float | None = None
    verdict: str | None = None

    @property
    def out(self) -> str:
        return self.name if self.kind == "run" else self.name + ".json"

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        """Arguments for ``illposed.cli.main`` (and ``python -m illposed.cli``)."""
        out = str(out_dir / self.out)
        if self.kind == "loworder-verify":
            return [self.kind, "--c", repr(self.c), "--kappa", repr(self.kappa), "--out", out]
        cfg = str(CONFIG_DIR / f"{self.config}.json")
        return [self.kind, "--config", cfg, "--out", out, "--seed", str(seed)]


WORKLOADS: dict[str, list[Command]] = {
    # exactly the commands the repo's scripts/ run on the bundled configs
    "cli_bundled": [
        Command("run_diagonal_apriori", "run", config="diagonal_apriori"),
        Command("run_diagonal_discrepancy", "run", config="diagonal_discrepancy"),
        Command("run_integration_apriori", "run", config="integration_apriori"),
        Command("axioms_diagonal_apriori", "check-axioms", config="diagonal_apriori"),
        Command("axioms_integration_apriori", "check-axioms", config="integration_apriori"),
        Command("loworder_c0.5_kappa2", "loworder-verify", c=0.5, kappa=2.0, verdict="pass"),
        Command("loworder_c0.5_kappa0.5", "loworder-verify", c=0.5, kappa=0.5, verdict="fail"),
    ],
    "abel_l2_discrepancy": [
        Command("run_abel_l2_discrepancy", "run", config="abel_l2_discrepancy"),
    ],
    "abel_cauchy": [
        Command("run_abel_cauchy", "run", config="abel_cauchy"),
    ],
}
