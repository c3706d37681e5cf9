#!/usr/bin/env python3
"""Benchmark of the `illposed` CLI: end-to-end wall time and per-layer split.

Usage (from the repository root)::

    python3 bench/run.py --workload cli_bundled --seed 1 --seconds 30 --trace 0

One client runs the workload's commands one after another (closed loop).
With ``--trace 0`` each repetition runs the sequence three ways:

* ``wall_s``: one fresh ``python -m illposed.cli`` process per command, so
  interpreter start and imports count; ``peak_rss_mb`` is the largest
  per-command peak RSS from ``os.wait4``;
* ``work_s``: the same commands through ``illposed.cli.main`` in this warm
  interpreter;
* ``setup_s``: fresh interpreters that only ``import illposed.cli``.

With ``--trace 1`` the per-layer metrics come from a separate traced run
(see ``tracing.py``) and ``python -X importtime``.  Before timing, every run
checks the checker itself (``check.self_test``) and runs the workload once
at the default seed against the stored reference; every timed pass is
checked too.  The last stdout line is the JSON result; the line before it
holds the machine facts.  Outputs go to ``.bench_work/`` under the root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import command_errors, self_test
from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, median_metrics, parse_importtime
from workloads import DEFAULT_SEED, WORKLOADS, Command

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
E2E_METRICS = {"wall_s": "s", "work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: a command running longer than this counts as failed
COMMAND_TIMEOUT_S = 60
#: every command is stopped by this many seconds after the start, so a run
#: ends within 180 s
HARD_LIMIT_S = 170


class Runner:
    """Runs commands for one benchmark invocation and counts outcomes."""

    def __init__(self, cli, work_dir: Path, env: dict, hard_deadline: float):
        self.cli = cli
        self.work_dir = work_dir
        self.env = env
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _timeout(self) -> float:
        return max(0.1, min(COMMAND_TIMEOUT_S, self.hard_deadline - time.perf_counter()))

    def _record(self, cmd: Command, exit_code: int, out_dir: Path, reference: bool) -> None:
        self.attempted += 1
        errors = command_errors(cmd, exit_code, out_dir, compare_reference=reference)
        if errors:
            self.failed += 1
            self.errors += [f"{cmd.name}: {e}" for e in errors]

    def _spawn(self, args: list[str], stderr) -> tuple[float, int, float]:
        """(seconds, exit code, peak RSS in MB) of one fresh interpreter."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr
        )
        timer = threading.Timer(self._timeout(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0

    def fresh_pass(self, cmds: list[Command], seed: int) -> tuple[float, float]:
        """Whole sequence in fresh processes: (seconds, largest peak RSS in MB)."""
        out_dir = self.work_dir / "fresh"
        total, peak = 0.0, 0.0
        for cmd in cmds:
            with open(self.work_dir / "stderr.txt", "w", encoding="utf-8") as err:
                elapsed, code, rss = self._spawn(["-m", "illposed.cli", *cmd.argv(seed, out_dir)], err)
            total += elapsed
            peak = max(peak, rss)
            self._record(cmd, code, out_dir, reference=seed == DEFAULT_SEED)
            if code != 0:
                sys.stderr.write((self.work_dir / "stderr.txt").read_text(encoding="utf-8")[-2000:])
        return total, peak

    def warm_pass(self, cmds: list[Command], seed: int, tracer: Tracer | None = None) -> float:
        """Whole sequence through ``illposed.cli.main`` in this interpreter."""
        out_dir = self.work_dir / ("reference" if seed == DEFAULT_SEED else "warm")
        main = self.cli.main if tracer is None else tracer.span("cli.command", self.cli.main)
        total = 0.0
        for cmd in cmds:
            argv = cmd.argv(seed, out_dir)
            signal.setitimer(signal.ITIMER_REAL, self._timeout())
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except Exception as exc:  # a crashing command is a failed command
                print(f"{cmd.name}: {exc!r}", file=sys.stderr)
                code = 1
            finally:
                total += time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._record(cmd, code, out_dir, reference=seed == DEFAULT_SEED)
        return total

    def setup_sample(self) -> float:
        elapsed, code, _ = self._spawn(["-c", "import illposed.cli"], subprocess.DEVNULL)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"import illposed.cli: exit status {code}")
        return elapsed

    def import_times(self) -> dict[str, float]:
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import illposed.cli"],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess([], "timeout", "", "")
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"import illposed.cli: exit status {proc.returncode}")
        return parse_importtime(proc.stderr)


def fill(deadline: float, tasks: list) -> None:
    """Run ``tasks`` round-robin, skipping any whose last duration (plus 10%)
    would pass the deadline, until none fits; each runs at least once."""
    cost: dict[int, float] = {}
    while True:
        ran = False
        for i, task in enumerate(tasks):
            t0 = time.perf_counter()
            if i in cost and t0 + 1.1 * cost[i] > deadline:
                continue
            task()
            cost[i] = time.perf_counter() - t0
            ran = True
        if not ran:
            return


def _raise_timeout(signum, frame):
    raise TimeoutError("command timed out")


def machine_facts(nproc: int) -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "machine": platform.machine(),
    }


def timed_run(runner: Runner, cmds: list[Command], seed: int, deadline: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {k: [] for k in E2E_METRICS}

    def fresh():
        wall, peak = runner.fresh_pass(cmds, seed)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak)

    def warm():
        samples["work_s"].append(runner.warm_pass(cmds, seed))

    def setup():
        samples["setup_s"].append(runner.setup_sample())

    fill(deadline, [fresh, warm, setup, setup])
    return {k: statistics.median(v) for k, v in samples.items()}, {"samples": samples}


def traced_run(runner: Runner, cmds: list[Command], seed: int, deadline: float) -> tuple[dict, dict]:
    tracer = Tracer()
    imports, layers, overhead = [], [], []
    spans: list[dict] = []

    def import_times():
        imports.append(runner.import_times())

    def plain_then_traced():
        nonlocal spans
        plain = runner.warm_pass(cmds, seed)
        tracer.reset()
        tracer.install()
        try:
            traced = runner.warm_pass(cmds, seed, tracer)
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        overhead.append(traced - plain)
        spans = tracer.dump()

    fill(deadline, [import_times, plain_then_traced])
    counts = {tuple(layer[k] for k in COUNT_METRICS) for layer in layers}
    if len(counts) != 1:
        runner.errors.append(f"counts differ between traced passes at one seed: {sorted(counts)}")
    metrics = {**median_metrics(imports), **median_metrics(layers), "trace.overhead_s": statistics.median(overhead)}
    metrics.update({k: layers[0][k] for k in COUNT_METRICS})
    return {k: metrics[k] for k in LAYER_METRICS}, {"spans": spans, "traced_passes": len(layers)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    nproc = len(os.sched_getaffinity(0))
    # BLAS threads capped at nproc, here and in every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    sys.path.insert(0, str(SRC))
    try:
        import illposed
        import illposed.cli as cli
    except ImportError as exc:
        print(f"cannot import illposed from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(illposed.__file__).resolve().parent.parent != SRC:
        print(f"illposed was imported from {illposed.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _raise_timeout)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    runner = Runner(cli, work_dir, env, start + HARD_LIMIT_S)
    cmds = WORKLOADS[args.workload]
    try:
        problems = self_test(work_dir / "selftest", list(E2E_METRICS), list(LAYER_METRICS))
        runner.errors += [f"self-test: {p}" for p in problems]
        runner.warm_pass(cmds, DEFAULT_SEED)
        deadline = start + args.seconds
        if args.trace:
            metrics, extra = traced_run(runner, cmds, args.seed, deadline)
            units = LAYER_METRICS
        else:
            metrics, extra = timed_run(runner, cmds, args.seed, deadline)
            units = E2E_METRICS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    fail_rate = runner.failed / runner.attempted
    correct = not runner.errors  # every failed command also adds an error
    for e in runner.errors:
        print(f"error: {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:<20} {name:<30} {value:>14.6g} {units[name]}")
    print(
        f"{args.workload:<20} {'fail_rate':<30} {fail_rate:>14.6g} "
        f"failed/attempted ({runner.failed}/{runner.attempted})"
    )
    facts = machine_facts(nproc)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": facts, **extra}
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
