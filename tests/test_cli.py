"""The CLI's process entry ``script()``: the cyclic collector around one command.

``script()`` runs a command with the collector off and freezes what is left
before the interpreter exits; that is safe only while a command leaves a
small number of cyclic objects, whatever its size.  ``main(argv)`` is the
in-process API and must leave the collector as it found it.
"""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from illposed import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "integration_apriori.json"
#: cyclic objects one command may leave; measured 225 for run and 192 for
#: check-axioms and loworder-verify (Python 3.11), at every grid size
CYCLIC_GARBAGE_BOUND = 500


def _argv(kind, tmp_path, grid_n):
    if kind == "run":
        out = tmp_path / f"run{grid_n}"
        return ["run", "--config", str(CONFIG), "--out", str(out), "--grid-n", str(grid_n)]
    if kind == "check-axioms":
        out = tmp_path / f"ax{grid_n}.json"
        return ["check-axioms", "--config", str(CONFIG), "--out", str(out), "--grid-n", str(grid_n)]
    if kind == "loworder-verify":
        out = tmp_path / f"low{grid_n}.json"
        return ["loworder-verify", "--c", "0.5", "--kappa", "2", "--grid-n", str(grid_n), "--out", str(out)]
    # a file error: exit status 2 and one line on stderr
    return ["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]


@contextlib.contextmanager
def _collector(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("kind", ["run", "check-axioms", "loworder-verify", "error"])
def test_main_leaves_the_collector_as_it_found_it(kind, enabled, tmp_path, capsys):
    with _collector(enabled):
        frozen = gc.get_freeze_count()
        assert cli.main(_argv(kind, tmp_path, 64)) == (2 if kind == "error" else 0)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


@pytest.mark.parametrize("kind", ["run", "check-axioms", "loworder-verify"])
def test_a_command_leaves_the_same_few_cycles_at_every_size(kind, tmp_path):
    # with the collector off for the whole command, garbage in cycles is
    # never freed: a command that made cycles per grid element would hold
    # memory in proportion to n
    counts = []
    with _collector(False), contextlib.redirect_stdout(io.StringIO()):
        # the first command of a kind imports its layer and fills caches
        for grid_n in (64, 256, 2048):
            gc.collect()
            assert cli.main(_argv(kind, tmp_path, grid_n)) == 0
            counts.append(gc.collect())
    assert counts[1] == counts[2] < CYCLIC_GARBAGE_BOUND


def test_script_runs_main_with_the_collector_off_and_freezes_before_exit():
    code = """
import gc
from illposed import cli
seen = []
cli.main = lambda: seen.append(gc.isenabled()) or 3
try:
    cli.script()
except SystemExit as exc:
    print(seen, exc.code, gc.isenabled(), gc.get_freeze_count() > 0)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[False] 3 False True\n", "")


def test_both_launchers_enter_through_script():
    # `python -m illposed.cli` calls script() in its __main__ block; the
    # installed console script must name the same entry (3.10 has no tomllib)
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts is not None
    assert re.findall(r'^illposed\s*=\s*"([^"]*)"', scripts.group(1), re.M) == ["illposed.cli:script"]
    source = (ROOT / "src" / "illposed" / "cli.py").read_text(encoding="utf-8")
    assert source.split('if __name__ == "__main__":')[1:] == ["\n    script()\n"]
