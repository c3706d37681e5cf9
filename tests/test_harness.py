import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from illposed.cli import main as cli_main
from illposed.errors import ConfigError
from illposed.harness import (
    FIELDS,
    add_noise,
    build_problem,
    check_axioms,
    error_bound,
    fit_rate,
    load_config,
    parse_config,
    plot_csv,
    report_csv,
    run_rate_experiment,
)
from illposed.loworder import LogExampleParams, verify_membership
from illposed.operators import lavrentiev_maps

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

BASE_DOC = {
    "schema_version": 1,
    "seed": 20260808,
    "operator": {"kind": "diagonal", "modes": 40, "sigma_rule": "exp_decay", "norm": "l2_scaled"},
    "source": {"p": 0.0, "nu": 1, "lambda_offset": 1.0, "w": {"kind": "random", "seed": 7}},
    "scheme": {"name": "lavrentiev", "m": 2},
    "rule": {"name": "apriori", "c0": 5.0},
    "delta_ladder": [1e-2, 1e-3, 1e-4, 1e-5],
}


def make_doc(**overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(overrides)
    return doc


def test_config_round_trip():
    cfg = parse_config(make_doc())
    again = parse_config(json.loads(json.dumps(cfg)))
    assert again == cfg


def test_config_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="config.operator.kind"):
        parse_config(make_doc(operator={"kind": "fourier"}))
    with pytest.raises(ConfigError, match="config.delta_ladder"):
        parse_config(make_doc(delta_ladder=[1e-3, 1e-2, 1e-4]))
    with pytest.raises(ConfigError, match="config.source.p"):
        doc = make_doc()
        doc["source"] = dict(doc["source"], p=5.0)
        parse_config(doc)
    with pytest.raises(ConfigError, match="discrepancy"):
        doc = make_doc(rule={"name": "discrepancy", "b0": 6.0, "b1": 8.0})
        doc["scheme"] = {"name": "lavrentiev", "m": 1}
        parse_config(doc)
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(make_doc(schema_version=99))
    # a known key whose rows do not apply would be kept and never read
    for overrides, path in (
        ({"rule": {"name": "apriori", "b0": 6.0}}, "rule.b0"),
        ({"operator": {"kind": "integration", "order": 0.3, "n": 64}}, "operator.order"),
        ({"scheme": {"name": "cauchy", "m": 2}}, "scheme.m"),
    ):
        with pytest.raises(ConfigError, match=rf"config\.{path}: applies only where "):
            parse_config(make_doc(**overrides))
    # operator fields fail here, not deep in the build
    for operator, field in (
        ({"kind": "integration", "n": "x"}, "n"),
        ({"kind": "integration", "n": 2.7}, "n"),
        ({"kind": "integration", "n": 1}, "n"),
        ({"kind": "abel", "order": 0.5, "n": True}, "n"),
        ({"kind": "abel", "order": 1.5, "n": 64}, "order"),
        ({"kind": "abel", "order": "0.5", "n": 64}, "order"),
        ({"kind": "diagonal", "modes": 0}, "modes"),
        ({"kind": "diagonal", "modes": 1}, "modes"),
        ({"kind": "diagonal", "modes": 747}, "modes"),
        ({"kind": "diagonal", "modes": 40, "norm": "l1"}, "norm"),
        ({"kind": "integration", "n": 64, "norm": "l1"}, "norm"),
        ({"kind": "diagonal", "sigma": [0.5]}, "sigma"),
        ({"kind": "diagonal", "sigma": "abc"}, "sigma"),
        ({"kind": "diagonal", "sigma": 0.5}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, math.nan]}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, math.inf]}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, 10**400]}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, -0.5]}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, 0]}, "sigma"),
        ({"kind": "diagonal", "sigma": [0.5, 1]}, "sigma"),
        ({"kind": "diagonal", "sigma": [True, True]}, "sigma"),
        ({"kind": "diagonal", "sigma": [1, "0.5"]}, "sigma"),
    ):
        with pytest.raises(ConfigError, match=rf"config\.operator\.{field}:"):
            parse_config(make_doc(operator=operator))
    # numeric fields outside the operator: a string, nan or a wrong type is
    # a ConfigError naming the field, not a ValueError from float()
    for section, key, value in (
        ("source", "p", "0.5"),
        ("source", "p", math.nan),
        ("source", "lambda_offset", "1"),
        ("source", "lambda_offset", math.inf),
        ("source", "nu", "1"),
        ("source", "nu", 1.5),
        ("scheme", "m", "2"),
        ("scheme", "m", 2.5),
        ("scheme", "m", 0),
        ("rule", "c0", "5"),
        ("rule", "c0", None),
        ("rule", "c0", -1.0),
    ):
        doc = make_doc()
        doc[section] = dict(doc[section], **{key: value})
        with pytest.raises(ConfigError, match=rf"config\.{section}\.{key}:"):
            parse_config(doc)
    # source.w fields: a known kind, an index below the operator's dimension,
    # a Philox key, a known function name
    for operator, w, field in (
        (None, {"kind": "zero"}, "kind"),
        (None, {"kind": "unit", "index": -1}, "index"),
        (None, {"kind": "unit", "index": 40}, "index"),
        (None, {"kind": "unit", "index": 1.0}, "index"),
        (None, {"kind": "unit", "index": True}, "index"),
        (None, {"kind": "unit"}, "index"),
        ({"kind": "integration", "n": 64}, {"kind": "unit", "index": 65}, "index"),
        ({"kind": "diagonal", "sigma": [1, 0.5]}, {"kind": "unit", "index": 2}, "index"),
        (None, {"kind": "random", "seed": "x"}, "seed"),
        (None, {"kind": "random", "seed": -1}, "seed"),
        (None, {"kind": "random", "seed": 2**127 + 1}, "seed"),
        (None, {"kind": "random"}, "seed"),
        (None, {"kind": "function"}, "name"),
        (None, {"kind": "function", "name": "cube"}, "name"),
    ):
        doc = make_doc(**({"operator": operator} if operator else {}))
        doc["source"]["w"] = w
        with pytest.raises(ConfigError, match=rf"config\.source\.w\.{field}:"):
            parse_config(doc)
    for operator, w in (
        (None, {"kind": "unit", "index": 39}),
        ({"kind": "integration", "n": 64}, {"kind": "unit", "index": 64}),
        ({"kind": "diagonal", "sigma": [1, 0.5]}, {"kind": "unit", "index": 1}),
        (None, {"kind": "random", "seed": 2**127}),
        (None, {"kind": "function", "name": "sinpi"}),
    ):
        doc = make_doc(**({"operator": operator} if operator else {}))
        doc["source"]["w"] = w
        parse_config(doc)
    for key in ("b0", "b1"):
        for value in (None, "8"):
            rule = {"name": "discrepancy", "b0": 6.0, "b1": 8.0, key: value}
            if value is None:
                del rule[key]
            with pytest.raises(ConfigError, match=rf"config\.rule\.{key}:"):
                parse_config(make_doc(rule=rule))
    for key, value in (
        ("seed", "7"),
        ("seed", -1),
        ("seed", 2**128),
        ("delta0", "0.1"),
        ("delta0", True),
        ("delta_ladder", ["1e-2", 1e-3]),
        ("delta_ladder", [1e-2, math.nan]),
        ("delta_ladder", "abc"),
    ):
        with pytest.raises(ConfigError, match=rf"config\.{key}:"):
            parse_config(make_doc(**{key: value}))


DISCREPANCY_RULE = {"name": "discrepancy", "b0": 6.0, "b1": 8.0}


@pytest.mark.parametrize(
    "path, value",
    [
        ("spread_tolerance", "x"),
        ("spread_tolerance", -1),  # the spread max/median is never below 1
        ("rule.alpha_max", "x"),
        ("rule.ratio", "x"),
        ("rule.ratio", 1.5),
        ("rule.bisect_tol", -1),
        ("operator.rescale_to_half_norm", "false"),
        ("operator.n", 10**9),  # 8 GB per array before anything fails
        ("scheme.m", 10**6),  # check-axioms would build m + 1 qualification orders
    ],
)
def test_config_fields_checked_before_the_numerics(path, value):
    doc = make_doc(
        operator={"kind": "integration", "n": 64, "norm": "sup"}, rule=dict(DISCREPANCY_RULE)
    )
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[key] = value
    with pytest.raises(ConfigError, match=rf"config\.{path}: "):
        parse_config(doc)


def test_readme_schema_table_lists_exactly_the_fields():
    # README's schema table is written by hand: a field added to or dropped
    # from FIELDS on one side only would leave the other stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| field | type and bounds | default | applies to |\n"
    assert readme.count(header) == 1
    table = readme.split(header)[1].split("\n\n")[0].splitlines()[1:]  # past the |---| row
    listed = [path for line in table for path in re.findall(r"`([^`]+)`", line.split("|")[1])]
    leaves = {row[0] for row in FIELDS if row[1] != "object"}
    assert len(listed) == len(set(listed)) and set(listed) == leaves


def test_config_defaults_filled_from_the_table():
    doc = make_doc(rule=dict(DISCREPANCY_RULE))
    raw = parse_config(doc)
    assert "spread_tolerance" not in doc  # the caller's document is left as it was
    assert raw["spread_tolerance"] == 3.0 and raw["delta0"] == 0.1 and raw["seed"] == 20260808
    assert raw["operator"]["rescale_to_half_norm"] is False and raw["operator"]["sigma"] is None
    assert raw["rule"] == DISCREPANCY_RULE  # the band is the rule's only setting
    assert parse_config(raw) == raw
    doc = make_doc(
        operator={"kind": "abel", "order": 0.5, "n": 64},
        scheme={"name": "lavrentiev"},
        rule={"name": "apriori"},
    )
    raw = parse_config(doc)
    assert raw["operator"]["norm"] == "sup" and raw["scheme"]["m"] == 1 and raw["rule"]["c0"] == 1.0


def test_cli_reports_bad_field_in_one_line(tmp_path):
    # a ValueError or numpy's allocation error, traceback and exit 1, before the bound
    doc = make_doc(spread_tolerance="x")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv, message in (
        (
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            "config.spread_tolerance: must be a finite number in [1, inf), got 'x'",
        ),
        (
            ["loworder-verify", "--c", "0.5", "--kappa", "2", "--grid-n", "10000000000000"],
            "need at most 65536 grid cells, got 10000000000000",
        ),
        # a kappa that is not finite, or whose candidate overflows at x = 1
        (
            ["loworder-verify", "--c", "0.5", "--kappa", "nan"],
            "kappa must be a finite positive number, got nan",
        ),
        (
            ["loworder-verify", "--c", "0.5", "--kappa", "inf"],
            "kappa must be a finite positive number, got inf",
        ),
        (
            ["loworder-verify", "--c", "0.5", "--kappa", "1e308"],
            "(-log(c x))^-kappa overflows at c = 0.5, kappa = 1e+308",
        ),
        # the remainder of w overflows at x = 1/2 before the head does: the
        # grid's samples are checked first, and no numpy warning escapes
        (
            ["loworder-verify", "--c", "0.99", "--kappa", "2000"],
            "(-log(c x))^-kappa overflows at c = 0.99, kappa = 2000.0",
        ),
        (
            ["loworder-verify", "--c", "0.99", "--kappa", "3000"],
            "(-log(c x))^-kappa overflows at c = 0.99, kappa = 3000.0",
        ),
    ):
        out = subprocess.run(
            [sys.executable, "-m", "illposed.cli", *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == f"illposed: {message}\n"


def test_run_rejects_a_ground_truth_that_underflows_to_zero(tmp_path):
    # every row would measure the noise alone, and the ratio spread passes:
    # A^400 of the Cauchy scheme (no saturation) on sup abel, and e_745
    # damped by sigma_745 = e^-745 on 746 modes; at n = 128 the abel ground
    # truth is not all 0 but subnormal, ||u_star|| = 3.7e-316
    abel = json.loads((CONFIG_DIR / "abel_cauchy_rate.json").read_text(encoding="utf-8"))
    abel["source"]["p"] = 400.0
    subnormal = json.loads(json.dumps(abel))
    subnormal["operator"]["n"] = 128
    diagonal = json.loads((CONFIG_DIR / "diagonal_apriori.json").read_text(encoding="utf-8"))
    diagonal["operator"]["modes"] = 746
    diagonal["source"].update(p=1.0, w={"kind": "unit", "index": 745})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for name, doc in (("abel", abel), ("subnormal", subnormal), ("diagonal", diagonal)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / name)]
        out = subprocess.run(
            [sys.executable, "-m", "illposed.cli", *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("illposed: config.source: ")
        assert out.stderr.count("\n") == 1
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize(
    "c, kappa",
    [
        pytest.param("0.5", "1933", id="1933"),
        pytest.param("0.5", "1936", id="1936"),
        # c x underflows to 0 on the grid; L = -log c - log x does not
        pytest.param("1e-320", "2", id="c1e-320"),
    ],
)
def test_loworder_verify_runs_quietly_near_the_overflow(c, kappa, tmp_path):
    # samples near the float maximum at x = 1 lie past the identity points:
    # no diagnostic sums them, so no overflow warning reaches stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["loworder-verify", "--c", c, "--kappa", kappa, "--out", str(tmp_path / "low.json")]
    out = subprocess.run(
        [sys.executable, "-m", "illposed.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
    assert json.loads((tmp_path / "low.json").read_text())["verdict"] == "fail"


def _bundled_doc(name, path, value):
    """A bundled config with the field at a dotted ``path`` set to ``value``."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[key] = value
    return doc


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("diagonal_discrepancy", "rule.b0", -1, "must be a finite number in (0, inf), got -1"),
        ("diagonal_discrepancy", "rule.b1", 5.0, "must be at least rule.b0"),
        ("integration_apriori", "source.p", -0.5, "must be a finite number in [0, inf), got -0.5"),
        # a misspelt key would otherwise leave its field at the default
        ("integration_apriori", "rule.c_0", 50, "unknown field"),
        ("integration_apriori", "operator.norn", "l2_scaled", "unknown field"),
        # a known key that the apriori rule never reads
        ("integration_apriori", "rule.b0", 6.0,
         "applies only where rule.name is one of ['discrepancy']"),
        # a ladder of fewer than three deltas has no rate fit and no verdict
        ("integration_apriori", "delta_ladder", [], "must hold at least three deltas"),
        ("integration_apriori", "delta_ladder", [1e-2, 1e-3], "must hold at least three deltas"),
        # the residual-band rule takes only its band, and a random w is always normalized
        ("diagonal_discrepancy", "rule.ratio", 0.25, "unknown field"),
        ("diagonal_discrepancy", "rule.c0", 1.0,
         "applies only where rule.name is one of ['apriori']"),
        ("diagonal_apriori", "source.w.normalize", False, "unknown field"),
    ],
    ids=["b0", "b1", "p", "misspelt_rule_key", "misspelt_operator_key", "idle_rule_key",
         "empty_ladder", "two_entry_ladder", "band_ratio", "band_c0", "w_normalize"],
)
def test_cli_config_error_names_its_field(name, path, value, message, tmp_path, capsys):
    # each field is checked at parse time, so both commands name it; the
    # numerics' own checks ("need b1 >= b0 > 0, both finite", "p must be nonnegative")
    # name none, and check-axioms never builds the source
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_bundled_doc(name, path, value)), encoding="utf-8")
    for argv in (["run", "--out", str(tmp_path / "out")], ["check-axioms"]):
        assert cli_main([*argv, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"illposed: config.{path}: {message}\n"


def test_cli_file_errors_are_one_line(tmp_path, capsys):
    # an OSError on reading the config or writing the outputs, or a config
    # file that does not decode, is one line and exit 2, like a package
    # error, not a traceback
    config = str(CONFIG_DIR / "integration_apriori.json")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    bad, latin1 = tmp_path / "bad.json", tmp_path / "latin1.json"
    bad.write_text("{bad", encoding="utf-8")
    latin1.write_bytes(b'{"seed": "\xe9"}')
    not_json = "config: not a UTF-8 JSON document: "
    for argv, start in (
        (["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")],
         "[Errno 2] "),
        (["run", "--config", config, "--out", str(taken)], "[Errno 17] "),
        (["check-axioms", "--config", config, "--out", str(taken / "such.json")],
         "[Errno 17] "),
        (["run", "--config", str(bad), "--out", str(tmp_path / "o")],
         not_json + "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["check-axioms", "--config", str(latin1)],
         not_json + "'utf-8' codec can't decode byte 0xe9 in position 10"),
    ):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"illposed: {start}")
        assert captured.err.count("\n") == 1


def _gamma(k):
    """gamma_k = k u / (1 - k u), u = eps/2: the relative rounding bound of k operations."""
    unit = np.finfo(float).eps / 2.0
    return k * unit / (1.0 - k * unit)


@pytest.mark.parametrize("m, n", [(16, 256), (64, 64)])
def test_check_axioms_qualification_at_most_one_within_rounding(m, n):
    # S_alpha A^p / alpha^p is read as T^{m-p} G^p, with no division by
    # alpha^p.  The exact sups are at most 1 at every order (60-digit mpmath
    # runs): 1 at order 0 (node 0 of T^m) and at the top order, far below 1
    # between.  At the top order the map is G^m; on the integration kind G's
    # lag series is nonnegative (a_0 b_0, then -alpha b_k with b_k <= 0,
    # Kaluza) and sums to 1 - alpha sum b <= 1.  ``series_power`` forms G^m
    # with d <= 2 log2(m) products of nonnegative n-term series and the map
    # applies once, so the computed ratio is within gamma_K of the exact one,
    # K = (d + 2) n with one level for the reciprocal series b (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1).  It
    # reads 1 + 2.2e-15 (m = 16, n = 256) and 1 + 3.6e-15 (m = 64, n = 64).
    doc = _bundled_doc("integration_apriori", "scheme.m", m)
    doc["operator"]["n"] = n
    reports = check_axioms(parse_config(doc))["qualification"]
    assert [q["p"] for q in reports] == list(range(m + 1))
    allowance = _gamma((2 * int(math.log2(m)) + 2) * n)
    assert all(q["passed"] and 0.0 < q["sup_ratio"] <= 1.0 + allowance for q in reports)


def test_check_axioms_high_order_qualification_matches_high_precision():
    # integration at n = 128, m = 64: the sup over the 13 alphas and the four
    # probes at orders 32, 62 and 64, against 120-digit mpmath values of the
    # same products from the closed-form series b_0 = 1/(h + alpha),
    # b_k = -h alpha^{k-1} / (h + alpha)^{k+1}.  Order 32 is 7.9e-13, a sum of
    # far larger terms, and reads 7.893652e-13 to 7.893665e-13 under the
    # SkylakeX, Haswell, Sandybridge, Nehalem and Prescott kernels: five
    # digits.  Order 62 holds six, and order 64, exactly 1, the allowance of
    # ``test_check_axioms_qualification_at_most_one_within_rounding``.
    doc = _bundled_doc("integration_apriori", "scheme.m", 64)
    doc["operator"]["n"] = 128
    sups = {q["p"]: q["sup_ratio"] for q in check_axioms(parse_config(doc))["qualification"]}
    assert math.isclose(sups[32.0], 7.893652265892245e-13, rel_tol=1e-5)
    assert math.isclose(sups[62.0], 2.3615178769507717e-3, rel_tol=1e-6)
    assert abs(sups[64.0] - 1.0) <= _gamma((2 * 6 + 2) * 128)


def test_tracer_names_resolve(monkeypatch):
    # bench/tracing.py patches these module attributes; one that is gone makes
    # Tracer.install raise AttributeError and fails every --trace 1 run
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_tracing", tracing)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS and tracing.COUNTERS
    for mod_name, attr, _ in tracing.SPANS + tracing.COUNTERS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_every_src_definition_is_loaded_in_src(monkeypatch):
    # src holds what a command runs: each top-level function or class is
    # loaded, as a Name or an Attribute, somewhere in src outside its own
    # definition; an import alias is no load.  And no file of src or tests
    # imports a name it never loads.  The names bench/tracing.py patches are
    # exempt, resolved by getattr: a definition by the function the name
    # resolves to, an import by the module attribute it binds.  So are
    # dunders such as cli.__getattr__, which the interpreter calls (PEP 562)
    import ast
    import importlib
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    path = root / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_tracing", tracing)
    spec.loader.exec_module(tracing)
    pinned = set()
    patched = set()
    for mod_name, attr, _ in tracing.SPANS + tracing.COUNTERS:
        fn = getattr(importlib.import_module(mod_name), attr)
        pinned.add((fn.__module__, fn.__name__))
        patched.add((mod_name, attr))

    trees = {
        f"illposed.{path.stem}": ast.parse(path.read_text(encoding="utf-8"))
        for path in (root / "src" / "illposed").glob("*.py")
    }
    test_trees = {
        f"tests.{path.stem}": ast.parse(path.read_text(encoding="utf-8"))
        for path in (root / "tests").glob("*.py")
    }

    def loads_outside(skip):
        names = set()
        stack = list(trees.values())
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        return names

    unloaded = sorted(
        f"{mod_name}.{node.name}"
        for mod_name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and (mod_name, node.name) not in pinned
        and node.name not in loads_outside(node)
    )
    assert unloaded == []

    unused_imports = []
    for mod_name, tree in {**trees, **test_trees}.items():
        names = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names and (mod_name, bound) not in patched:
                        unused_imports.append(f"{mod_name}: {alias.name}")
    assert unused_imports == []


def test_cli_calls_go_through_module_attributes(tmp_path, monkeypatch):
    # bench/tracing.py times check-axioms and loworder-verify by wrapping
    # illposed.cli.<name>; a command that bypassed the module attribute would
    # leave both spans at 0
    import illposed.cli as cli

    calls = []

    def recording(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("verify_membership", "check_axioms"):
        monkeypatch.setattr(cli, name, recording(name))
    config = str(CONFIG_DIR / "integration_apriori.json")
    low = ["loworder-verify", "--c", "0.5", "--kappa", "2", "--out", str(tmp_path / "low.json")]
    assert cli_main(low) == 0
    assert calls == ["verify_membership"]
    assert cli_main(["check-axioms", "--config", config, "--out", str(tmp_path / "ax.json")]) == 0
    assert calls == ["verify_membership", "check_axioms"]


def test_each_cli_command_loads_only_its_layer(tmp_path):
    # one fresh interpreter per case: the package root loads no submodule,
    # the CLI module loads no numpy, and a command imports only its own layer;
    # loworder-verify draws no random numbers, so it loads no numpy.random
    src = str(Path(__file__).resolve().parents[1] / "src")
    config = str(CONFIG_DIR / "integration_apriori.json")
    low = ["loworder-verify", "--c", "0.5", "--kappa", "2", "--out", str(tmp_path / "low.json")]
    run = ["run", "--config", config, "--out", str(tmp_path / "run")]
    axioms = ["check-axioms", "--config", config, "--out", str(tmp_path / "ax.json")]
    command = "from illposed.cli import main\nassert main({!r}) == 0\n"
    cases = [
        ("import illposed\n", "illposed", ("illposed.", "numpy")),
        ("import illposed.cli\n", "illposed.cli", ("numpy",)),
        (command.format(low), "illposed.loworder",
         ("illposed.harness", "illposed.schemes", "illposed.parameter_choice", "numpy.random")),
        (command.format(run), "illposed.harness", ("illposed.loworder",)),
        (command.format(axioms), "illposed.harness", ("illposed.loworder",)),
    ]
    env = {**os.environ, "PYTHONPATH": src}
    for code, present, absent in cases:
        code += "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stdout.splitlines()[-1])
        assert present in loaded, code
        assert [m for m in loaded if m.startswith(absent)] == [], code


@pytest.mark.parametrize("modes", [2, 746])
def test_diagonal_modes_edges_run(modes):
    # 746 modes reach sigma = exp(-745), the last power of e above 0 in doubles
    report = run_rate_experiment(
        parse_config(make_doc(operator={"kind": "diagonal", "modes": modes, "norm": "l2_scaled"}))
    )
    assert all(math.isfinite(r["error"]) for r in report["rows"])


def test_grid_n_past_modes_edges_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_doc()), encoding="utf-8")
    for grid_n in ("1", "747"):
        argv = ["check-axioms", "--config", str(cfg_path), "--grid-n", grid_n]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("illposed: config.operator.modes:")


def test_unit_index_follows_grid_n(tmp_path):
    # parse_config runs after --grid-n, so the index is checked against the new size
    doc = make_doc()
    doc["source"]["w"] = {"kind": "unit", "index": 45}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_config(cfg_path, grid_n=46)["operator"]["modes"] == 46
    with pytest.raises(ConfigError, match=r"config\.source\.w\.index: .* \[0, 44\]"):
        load_config(cfg_path, grid_n=45)


def test_grid_n_replaces_a_sigma_list_by_exp_decay_modes(tmp_path):
    # --grid-n drops a diagonal sigma list; FIELDS then fills the exp_decay rule
    doc = make_doc(operator={"kind": "diagonal", "sigma": [1.0, 0.5, 0.25], "norm": "sup"})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_config(cfg_path, None, 7)
    assert config == parse_config(make_doc(operator={"kind": "diagonal", "modes": 7, "norm": "sup"}))
    assert config["operator"] == {
        "kind": "diagonal", "modes": 7, "norm": "sup", "sigma": None,
        "sigma_rule": "exp_decay", "rescale_to_half_norm": False,
    }


def abel_cauchy_doc(**source):
    """The abel-1/2 sup-norm evolution-method config, with source overrides."""
    doc = make_doc(
        operator={"kind": "abel", "order": 0.5, "n": 128, "norm": "sup"},
        scheme={"name": "cauchy"},
        rule={"name": "apriori", "c0": 1.0},
        delta_ladder=[1e-1, 1e-2, 1e-3],
        delta0=0.2,
    )
    sinpi = {"kind": "function", "name": "sinpi"}
    doc["source"] = {"p": 0.5, "nu": 1, "lambda_offset": 1.0, "w": sinpi, **source}
    return doc


def config_doc(name, **sections):
    """A bundled config with some of its sections updated."""
    doc = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    for key, value in sections.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def test_cli_package_error_is_one_line(tmp_path):
    # no traceback and no output directory: one line on stderr, exit status 2
    unit_w = make_doc()
    unit_w["source"]["w"] = {"kind": "unit", "index": 999}
    cases = [
        (
            make_doc(operator={"kind": "diagonal", "modes": 1, "norm": "l2_scaled"}),
            "config.operator.modes: must be an integer in [2, 746], got 1",
        ),
        (
            make_doc(operator={"kind": "diagonal", "sigma": [0.5], "norm": "l2_scaled"}),
            "config.operator.sigma: must be a list of at least 2 finite, positive, "
            "nonincreasing numbers",
        ),
        (unit_w, "config.source.w.index: must be an integer in [0, 39], got 999"),
        # (lambda - log A)^{-nu} underflows on abel before the a priori
        # alpha overflows; on two modes with sigma_0 = e^0 it cannot vanish
        (
            abel_cauchy_doc(nu=10**6),
            "config.source: ground truth A^p (lambda - log A)^{-nu} w underflows to 0",
        ),
        (
            make_doc(
                operator={"kind": "diagonal", "modes": 2, "sigma_rule": "exp_decay", "norm": "l2_scaled"},
                source=dict(BASE_DOC["source"], nu=500),
            ),
            "a priori alpha at delta = 0.01 is not a positive finite number (p = 0.0, nu = 500)",
        ),
        (
            abel_cauchy_doc(p=1000000.5),
            "series power at p = 1000000.5 is not finite (a_0^p or the series overflows)",
        ),
        # (lambda - log sigma)^{-nu} underflows to 0 in the ground truth, with no numpy warning
        (
            config_doc("diagonal_apriori.json", operator={"modes": 40}, source={"nu": 10**6}),
            "a priori alpha at delta = 0.01 is not a positive finite number (p = 0.0, nu = 1000000)",
        ),
        # lambda - log sigma_0 = 0.5, so (lambda - log A)^{-nu} overflows in the ground truth
        (
            config_doc("diagonal_apriori.json", source={"nu": 2000, "lambda_offset": 0.5}),
            "(lambda - log A)^{-nu} at nu = 2000 is not finite",
        ),
        # the rate bound log(1/delta)^{-nu/(p+1)} underflows, or overflows
        # where delta > 1/e; the a priori alpha at 1e-300 is a finite 1e34
        (
            config_doc("diagonal_discrepancy.json", source={"nu": 500}),
            "rate bound at delta = 0.0001 underflows (p = 0.0, nu = 500)",
        ),
        (
            config_doc(
                "integration_apriori.json",
                source={"p": 1.0, "nu": 130},
                delta_ladder=[1e-300, 1e-301, 1e-302],
            ),
            "rate bound at delta = 1e-300 underflows (p = 1.0, nu = 130)",
        ),
        (
            config_doc(
                "diagonal_discrepancy.json",
                source={"nu": 1000},
                delta0=0.95,
                delta_ladder=[0.9, 0.8, 0.7],
            ),
            "rate bound at delta = 0.9 overflows (p = 0.0, nu = 1000)",
        ),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for doc, message in cases:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        out = subprocess.run(
            [sys.executable, "-m", "illposed.cli", *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == f"illposed: {message}\n"
        assert not (tmp_path / "out").exists()
    for grid_n in ("0", "-3"):
        argv = ["loworder-verify", "--c", "0.5", "--kappa", "2", "--grid-n", grid_n]
        out = subprocess.run(
            [sys.executable, "-m", "illposed.cli", *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "illposed: need at least two grid cells\n"


def test_explicit_sigma_runs():
    doc = make_doc(operator={"kind": "diagonal", "sigma": [1, 0.5, 0.5, 1e-3], "norm": "sup"})
    report = run_rate_experiment(parse_config(doc))
    assert all(math.isfinite(r["error"]) for r in report["rows"])


def test_cli_commands_import_neither_scipy_nor_numpy_ma(tmp_path):
    # start-up is most of a bundled command's time: scipy is a test-only
    # dependency, np.median and np.unique would import numpy.ma, and every
    # series product goes through np.convolve, so none needs numpy.fft
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = [
        [cmd, "--config", str(path), "--out", str(tmp_path / f"{cmd}-{path.stem}")]
        for path in sorted(CONFIG_DIR.glob("*.json"))
        for cmd in ("run", "check-axioms")
    ]
    commands += [
        ["loworder-verify", "--c", "0.5", "--kappa", k, "--out", str(tmp_path / f"low{k}.json")]
        for k in ("2", "0.5")
    ]
    code = (
        "import io, sys, contextlib\n"
        "from illposed.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "parts = [m.split('.') for m in sys.modules]\n"
        "print(sorted(p for p in parts if p[0] == 'scipy' or p[:2] in (['numpy', 'ma'], ['numpy', 'fft'])))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("norm", ["sup", "l2_scaled"])
def test_abel_order_one_is_the_integration_operator(norm):
    # one operator, so one power route, one certificate and one axioms document
    from illposed.operators import abel_operator, integration_operator, power_map, series_power
    from illposed.schemes import RegularizerConfig

    abel, integ = abel_operator(1.0, 64, norm), integration_operator(64, norm)
    assert (abel.kind, abel.order, abel.op_norm) == (integ.kind, integ.order, integ.op_norm)
    np.testing.assert_array_equal(abel.weights, integ.weights)
    np.testing.assert_array_equal(power_map(abel, 0.5).symbol, power_map(integ, 0.5).symbol)
    # the closed-form power keeps the scale of a rescaled operator: (a A)^p = a^p A^p
    half = abel.scaled(0.5)
    np.testing.assert_allclose(
        power_map(half, 0.5).symbol, series_power(half.weights, 0.5), rtol=1e-13
    )
    assert not RegularizerConfig("cauchy").sectorial_certified(abel)
    abel_doc, integ_doc = (
        check_axioms(parse_config(make_doc(
            operator={**spec, "n": 64, "norm": norm}, scheme={"name": "cauchy"}
        )))
        for spec in ({"kind": "abel", "order": 1}, {"kind": "integration"})
    )
    assert abel_doc == integ_doc


def test_operator_config_record_round_trip():
    from illposed.harness import build_operator, operator_spec

    def normalized(spec):  # build_operator reads the record parse_config fills in
        return parse_config(make_doc(operator=spec))["operator"]

    for spec in (
        {"kind": "integration", "n": 64, "norm": "sup"},
        {"kind": "abel", "order": 0.5, "n": 64, "norm": "sup"},
        {"kind": "diagonal", "modes": 12, "sigma_rule": "exp_decay", "norm": "l2_scaled"},
    ):
        op = build_operator(normalized(spec))
        again = build_operator(normalized(operator_spec(op)))
        assert again.kind == op.kind and again.norm_kind == op.norm_kind
        np.testing.assert_allclose(again.weights, op.weights, rtol=1e-15)


def test_operator_rescale_preprocessing():
    from illposed.harness import build_operator

    op = build_operator({"kind": "integration", "n": 64, "norm": "sup", "rescale_to_half_norm": True})
    assert math.isclose(op.op_norm, 0.5, rel_tol=1e-12)
    assert op.omega < 0.0
    # the unshifted source form is reachable: lambda = omega + (-omega) = 0
    doc = make_doc()
    doc["operator"] = {"kind": "integration", "n": 64, "norm": "sup", "rescale_to_half_norm": True}
    doc["source"] = dict(doc["source"], lambda_offset=-op.omega, w={"kind": "function", "name": "parabola"})
    problem = build_problem(parse_config(doc))
    lam = problem.lam
    assert abs(lam) <= 1e-12 and lam > problem.op.omega


def test_build_problem_unit_coordinate_closed_form():
    doc = make_doc()
    doc["source"] = dict(doc["source"], w={"kind": "unit", "index": 3})
    problem = build_problem(parse_config(doc))
    lam = problem.op.omega + 1.0
    expected = np.zeros(problem.op.dim)
    expected[3] = -1.0 / (lam + 3.0)  # u_star = -e_3/(lam + 3)
    np.testing.assert_allclose(problem.u_star.values, expected, rtol=1e-13)


def test_build_problem_initial_error_is_mixed_smooth():
    config = parse_config(make_doc())
    problem = build_problem(config)
    from illposed.operator_log import make_mixed_smooth_element

    src = config["source"]
    mixed = make_mixed_smooth_element(problem.op, src["p"], src["nu"], problem.lam, problem.w)
    assert ((problem.op.zeros() - problem.u_star) - mixed).norm() <= 1e-14


def test_add_noise_zero_delta_is_identity():
    problem = build_problem(parse_config(make_doc()))
    assert add_noise(problem.f_star, 0.0, 1) is problem.f_star


def test_add_noise_exact_norm_reference_level():
    problem = build_problem(parse_config(make_doc()))
    delta = 1e-4
    for seed in (0, 1, 2**31):
        noisy = add_noise(problem.f_star, delta, seed)
        assert abs((noisy - problem.f_star).norm() - delta) <= 1e-12 * delta


@given(expo=st.floats(1.0, 8.0), seed=st.integers(0, 2**31 - 1))
def test_add_noise_exact_norm(expo, seed):
    # recovering the perturbation by subtraction cancels against ||f||, so
    # the achievable accuracy is 1e-12 delta plus a few ulps of the data
    problem = build_problem(parse_config(make_doc()))
    delta = 10.0**-expo
    noisy = add_noise(problem.f_star, delta, seed)
    slack = 1e-12 * delta + 8e-16 * problem.f_star.norm()
    assert abs((noisy - problem.f_star).norm() - delta) <= slack


def test_add_noise_deterministic_per_seed():
    problem = build_problem(parse_config(make_doc()))
    a = add_noise(problem.f_star, 1e-3, 99)
    b = add_noise(problem.f_star, 1e-3, 99)
    c = add_noise(problem.f_star, 1e-3, 100)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_run_exact_data_errors_shrink():
    # exact data: only the regularization error remains, decreasing with delta
    doc = make_doc(delta_ladder=[1e-2, 1e-4, 1e-6, 1e-8])
    cfg = parse_config(doc)
    problem = build_problem(cfg)
    from illposed.parameter_choice import apriori_alpha
    from illposed.schemes import regularize

    errs = []
    for d in cfg["delta_ladder"]:
        alpha = apriori_alpha(d, 0.0, 1, 5.0)
        u = regularize(problem.op, problem.scheme, alpha, problem.f_star)
        errs.append((u - problem.u_star).norm())
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_fit_rate_identity_and_scaling():
    rows = [
        dict(delta=d, alpha=1.0, error=error_bound(d, 0.0, 1, 1.0), residual=0.0,
             bound=error_bound(d, 0.0, 1, 1.0), ratio=1.0)
        for d in (1e-2, 1e-3, 1e-4)
    ]
    s = fit_rate(rows, 0.0, 1)
    assert s["max_ratio"] == s["median_ratio"] == 1.0
    assert s["ratio_spread"] == 1.0 and s["pass"]
    rows2 = [dict(r, error=2 * r["bound"], ratio=2.0) for r in rows]
    s2 = fit_rate(rows2, 0.0, 1)
    assert s2["max_ratio"] == 2.0 and s2["ratio_spread"] == 1.0 and s2["pass"]


def test_fit_rate_flags_wrong_log_order():
    # inject error = bound * log(1/delta), i.e. the log order is off by one:
    # the max/min range blows past 3 over five decades even though the
    # median-normalized spread moves slowly
    deltas = [10.0 ** -k for k in range(2, 8)]
    rows = [
        dict(delta=d, alpha=1.0, error=error_bound(d, 0.0, 1, 1.0) * math.log(1.0 / d),
             residual=0.0, bound=error_bound(d, 0.0, 1, 1.0), ratio=math.log(1.0 / d))
        for d in deltas
    ]
    s = fit_rate(rows, 0.0, 1)
    assert s["ratio_range"] > 3.0
    assert s["ratio_spread"] <= 2.0  # max/median alone cannot see slow drift


def test_fit_rate_needs_three_rows():
    rows = [dict(delta=1e-2, alpha=1.0, error=1.0, residual=0.0, bound=1.0, ratio=1.0)]
    with pytest.raises(Exception):
        fit_rate(rows * 2, 0.0, 1)


def test_run_rate_experiment_apriori_summary():
    report = run_rate_experiment(parse_config(make_doc()))
    assert report["summary"]["pass"]
    assert report["summary"]["ratio_spread"] <= 3.0
    assert len(report["rows"]) == 4
    assert all(r["ratio"] > 0 for r in report["rows"])


def test_run_rate_experiment_discrepancy_rows_in_band_or_inf():
    doc = make_doc(
        rule={"name": "discrepancy", "b0": 6.0, "b1": 8.0},
        delta_ladder=[1e-3, 1e-4, 1e-5],
    )
    report = run_rate_experiment(parse_config(doc))
    for row in report["rows"]:
        if math.isinf(row["alpha"]):
            assert row["residual"] <= 8.0 * row["delta"]
        else:
            assert 6.0 * row["delta"] <= row["residual"] <= 8.0 * row["delta"]
    assert report["summary"]["alpha_lower_ratio_min"] > 0


def test_csv_determinism(tmp_path):
    cfg = parse_config(make_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_rate_experiment(cfg, out_dir=out1)
    run_rate_experiment(cfg, out_dir=out2)
    for name in ("report.csv", "plot.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _csv_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_bundled_config_golden_values(name, tmp_path):
    # each bundled config at its own seed against its stored report.csv
    report = run_rate_experiment(load_config(CONFIG_DIR / f"{name}.json"), out_dir=tmp_path)
    assert json.loads(json.dumps(report)) == report  # plain JSON data, rows and summary
    header, got = _csv_table(tmp_path / "report.csv")
    golden_header, golden = _csv_table(GOLDEN_DIR / f"{name}.csv")
    assert header == golden_header
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, rtol=1e-12, atol=0.0)


def _axioms_mismatches(got, want, path):
    """Every (path, got, want) where ``got`` differs from the golden ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [(path, got, want)]
        return [m for key in want for m in _axioms_mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [(path, got, want)]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _axioms_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        close = math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    else:
        close = type(got) is type(want) and got == want
    return [] if close else [(path, got, want)]


def _assert_axioms_match(got, want, path="axioms"):
    # numbers at rtol 1e-12, verdicts and every other field exactly; every
    # mismatching path is reported, not only the first
    mismatches = _axioms_mismatches(got, want, path)
    assert not mismatches, "\n".join(f"{p}: got {g!r}, golden {w!r}" for p, g, w in mismatches)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_bundled_check_axioms_golden(name):
    result = check_axioms(load_config(CONFIG_DIR / f"{name}.json"))
    got = json.loads(json.dumps(result))
    assert got == result  # plain JSON data
    want = json.loads((GOLDEN_DIR / f"axioms_{name}.json").read_text(encoding="utf-8"))
    _assert_axioms_match(got, want)


@pytest.mark.parametrize("kappa", ["2", "0.5"])
def test_loworder_verify_golden(kappa, tmp_path):
    out = tmp_path / "low.json"
    assert cli_main(["loworder-verify", "--c", "0.5", "--kappa", kappa, "--out", str(out)]) == 0
    want = json.loads((GOLDEN_DIR / f"loworder_c0.5_kappa{kappa}.json").read_text(encoding="utf-8"))
    got = json.loads(out.read_text(encoding="utf-8"))
    _assert_axioms_match(got, want, "loworder")
    # the CLI writes verify_membership's plain JSON data as it is
    result = verify_membership(LogExampleParams(c=0.5, kappa=float(kappa)))
    assert json.loads(json.dumps(result)) == result == got


def test_check_axioms_builds_no_ground_truth(monkeypatch):
    # the axioms do not read the source condition: no mixed element is built
    import illposed.harness as harness

    calls = []
    build = harness.make_mixed_smooth_element

    def counting(op, p, nu, lam, w):
        calls.append(op.kind)
        return build(op, p, nu, lam, w)

    monkeypatch.setattr(harness, "make_mixed_smooth_element", counting)
    config = load_config(CONFIG_DIR / "integration_apriori.json")
    check_axioms(config)
    assert calls == []
    run_rate_experiment(config)
    assert calls == ["integration"]


def test_check_axioms_one_filter_per_alpha(monkeypatch):
    # growth: one filter and one probe-block apply per alpha of the 20;
    # continuity builds one more filter, at 0.1 ||A||, and one difference map
    # from there to the alpha next to it
    import illposed.harness as harness
    from illposed.schemes import Regularizer

    calls = {"build": 0, "apply": 0, "difference": 0}
    build, difference = harness.regularizer, harness.companion_difference

    def counting_build(op, cfg, alpha):
        calls["build"] += 1
        reg = build(op, cfg, alpha)

        def counting_apply(g):
            calls["apply"] += 1
            return reg.apply(g)

        return Regularizer(counting_apply, reg.companion)

    def counting_difference(op, cfg, a0, a1):
        calls["difference"] += 1
        return difference(op, cfg, a0, a1)

    monkeypatch.setattr(harness, "regularizer", counting_build)
    monkeypatch.setattr(harness, "companion_difference", counting_difference)
    check_axioms(load_config(CONFIG_DIR / "integration_apriori.json"))
    assert calls == {"build": 21, "apply": 20, "difference": 1}


def test_check_axioms_ignores_source(tmp_path):
    # a source whose A^p overflows no longer stops the axiom suites
    outs = []
    for p in (0.5, 1000000.5):
        cfg_path = tmp_path / f"cfg{p}.json"
        cfg_path.write_text(json.dumps(abel_cauchy_doc(p=p)), encoding="utf-8")
        out = tmp_path / f"axioms{p}.json"
        assert cli_main(["check-axioms", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_text(encoding="utf-8"))
    assert outs[0] == outs[1]


def test_csv_schema():
    report = run_rate_experiment(parse_config(make_doc()))
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "delta,alpha,error,residual,bound,ratio"
    assert len(lines) == 1 + len(report["rows"])
    # 17 significant digits survive a round trip
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == report["rows"][0]["delta"]
    assert first[2] == report["rows"][0]["error"]
    ptext = plot_csv(report)
    assert ptext.startswith("log10_delta,log10_alpha,")


def test_csv_serializes_degenerate_alpha_as_inf():
    doc = make_doc(
        rule={"name": "discrepancy", "b0": 6.0, "b1": 8.0},
        delta_ladder=[0.09, 0.05, 0.02],
    )
    doc["source"] = dict(doc["source"], w={"kind": "unit", "index": 30})  # tiny data norm
    report = run_rate_experiment(parse_config(doc))
    assert any(math.isinf(r["alpha"]) for r in report["rows"])
    text = report_csv(report)
    assert ",inf," in text


def test_check_axioms_report():
    result = check_axioms(parse_config(make_doc()))
    assert result["postype_ok"]
    assert abs(result["kappa_star"] - 1.0) <= 1e-10
    assert result["growth_sup"] <= result["growth_certified"] * (1.0 + 1e-9)
    assert all(q["passed"] for q in result["qualification"] if q["passed"] is not None)
    assert result["continuity_relative_change"] <= 1e-4
    assert result["sectorial_certified"]
    json.dumps(result)  # must be serializable


def test_cli_run_and_check_axioms(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_doc()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "summary.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"]
    ax_path = tmp_path / "axioms.json"
    assert cli_main(["check-axioms", "--config", str(cfg_path), "--out", str(ax_path)]) == 0
    assert json.loads(ax_path.read_text())["postype_ok"]
    capsys.readouterr()


def test_cli_json_commands_create_their_out_directory(tmp_path):
    # like `run`, check-axioms and loworder-verify write into a directory
    # that does not exist yet
    config = str(CONFIG_DIR / "integration_apriori.json")
    ax, low = tmp_path / "new" / "ax.json", tmp_path / "newer" / "deep" / "low.json"
    assert cli_main(["check-axioms", "--config", config, "--out", str(ax)]) == 0
    assert json.loads(ax.read_text())["postype_ok"]
    argv = ["loworder-verify", "--c", "0.5", "--kappa", "2", "--grid-n", "64", "--out", str(low)]
    assert cli_main(argv) == 0
    assert json.loads(low.read_text())["verdict"] in ("pass", "fail")


def test_cli_loworder_verify(tmp_path):
    out = tmp_path / "low.json"
    code = cli_main(
        ["loworder-verify", "--c", "0.5", "--kappa", "2.0", "--grid-n", "128", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"


def test_cli_grid_n_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_doc()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert (
        cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir), "--grid-n", "25"]) == 0
    )
    assert (out_dir / "report.csv").exists()


def test_discrepancy_residual_matches_diagonal_closed_form():
    # A u_alpha - f_delta = -S_alpha f_delta: for iterated Lavrentiev on a
    # diagonal operator the reported residual is
    # sqrt(h sum_k (alpha / (sigma_k + alpha))^{2m} f_k^2)
    cfg = load_config(CONFIG_DIR / "diagonal_discrepancy.json")
    problem = build_problem(cfg)
    op, m = problem.op, problem.scheme.m
    report = run_rate_experiment(cfg)
    h = 1.0 / (op.dim - 1)
    for k, row in enumerate(report["rows"]):
        f_delta = add_noise(problem.f_star, row["delta"], cfg["seed"] + k)
        factor = (row["alpha"] / (op.weights + row["alpha"])) ** (2 * m)
        closed = math.sqrt(h * float(np.sum(factor * f_delta.values**2)))
        assert math.isclose(row["residual"], closed, rel_tol=1e-14)


def test_apriori_residual_matches_exact_rational_evaluation():
    # integration_apriori at delta = 1e-5: the reported residual
    # ||A u_alpha - f_delta|| = ||(alpha (A + alpha I)^{-1})^2 f_delta|| in the
    # sup norm, evaluated in exact rational arithmetic from the float data.
    # Forming A u_alpha - f_delta in floats cancels: it is 5.7e-12 off.
    cfg = load_config(CONFIG_DIR / "integration_apriori.json")
    problem = build_problem(cfg)
    op, m = problem.op, problem.scheme.m
    k = cfg["delta_ladder"].index(1e-5)
    row = run_rate_experiment(cfg)["rows"][k]
    f_delta = add_noise(problem.f_star, row["delta"], cfg["seed"] + k).values
    # the rectangle rule: every lag is h, so row i of (A + alpha I) x = alpha y
    # on nodes 1..n reads (h + alpha) x_i + h sum_{j < i} x_j = alpha y_i
    h = Fraction(1, op.n)
    assert np.all(op.weights == float(h))
    alpha = Fraction(row["alpha"])
    y = [Fraction(float(v)) for v in f_delta[1:]]
    for _ in range(m):
        x, total = [], Fraction(0)
        for v in y:
            x.append((alpha * v - h * total) / (h + alpha))
            total += x[-1]
        y = x
    # node 0, where A vanishes, keeps f_delta's own value
    exact = max([abs(Fraction(float(f_delta[0])))] + [abs(v) for v in y])
    # The library applies the symbol of S_alpha = T^2 to f_delta: n-term dot
    # products, each within gamma_n (|S| * |f_delta|) of its exact value
    # (Higham 2002, sec. 3.1).  The computed symbol itself is within
    # gamma_n ||S||_1 in l1 (measured: below 0.06 of that on this ladder), which
    # adds gamma_n ||S||_1 ||f_delta||.  S_alpha f_delta cancels, so the bound
    # is 4.9e-10 relative here, against gaps of 1.8e-14 to 1.7e-13 under the
    # SkylakeX, Haswell, Nehalem and Prescott kernels.
    s_map = lavrentiev_maps(op, m, row["alpha"])[0]
    magnitude = replace(s_map, symbol=np.abs(s_map.symbol))(np.abs(f_delta)[None])
    bound = _gamma(op.n) * (magnitude.max() + np.abs(s_map.symbol).sum() * np.abs(f_delta).max())
    assert abs(row["residual"] - float(exact)) <= bound
