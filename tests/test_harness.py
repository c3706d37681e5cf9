import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from illposed import (
    ConfigError,
    add_noise,
    apply,
    build_problem,
    check_axioms,
    error_bound,
    fit_rate,
    parse_config,
    run_rate_experiment,
)
from illposed.cli import _load_with_overrides, main as cli_main
from illposed.harness import RateRow, load_config, plot_csv, report_csv

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
    again = parse_config(json.loads(json.dumps(cfg.raw)))
    assert again.raw == cfg.raw


def test_config_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="config.operator.kind"):
        parse_config(make_doc(operator={"kind": "fourier"}))
    with pytest.raises(ConfigError, match="config.delta_ladder"):
        parse_config(make_doc(delta_ladder=[1e-3, 1e-2]))
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
    # source.w fields: an index below the operator's dimension, a Philox key,
    # a known function name, a boolean normalize
    for operator, w, field in (
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
        (None, {"kind": "random", "seed": 7, "normalize": 1}, "normalize"),
        (None, {"kind": "random", "seed": 7, "normalize": "false"}, "normalize"),
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
        (None, {"kind": "random", "seed": 2**127, "normalize": False}),
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


@pytest.mark.parametrize("modes", [2, 746])
def test_diagonal_modes_edges_run(modes):
    # 746 modes reach sigma = exp(-745), the last power of e above 0 in doubles
    report = run_rate_experiment(
        parse_config(make_doc(operator={"kind": "diagonal", "modes": modes, "norm": "l2_scaled"}))
    )
    assert all(math.isfinite(r.error) for r in report.rows)


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
    assert _load_with_overrides(str(cfg_path), None, 46).raw["operator"]["modes"] == 46
    with pytest.raises(ConfigError, match=r"config\.source\.w\.index: .* \[0, 44\]"):
        _load_with_overrides(str(cfg_path), None, 45)


def test_cli_package_error_is_one_line(tmp_path):
    # no traceback: one line on stderr, exit status 2
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
    assert all(math.isfinite(r.error) for r in report.rows)


def test_cli_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.median and np.unique import numpy.ma; the CLI uses neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [
        ["run", "--config", str(path), "--out", str(tmp_path / path.stem)]
        for path in sorted(CONFIG_DIR.glob("*.json"))
    ]
    low = [
        ["loworder-verify", "--c", "0.5", "--kappa", k, "--out", str(tmp_path / f"low{k}.json")]
        for k in ("2", "0.5")
    ]
    code = (
        "import io, sys, contextlib\n"
        "from illposed.cli import main\n"
        f"for argv in {runs + low!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_operator_config_record_round_trip():
    from illposed.harness import build_operator, operator_spec

    for spec in (
        {"kind": "integration", "n": 64, "norm": "sup"},
        {"kind": "abel", "order": 0.5, "n": 64, "norm": "sup"},
        {"kind": "diagonal", "modes": 12, "sigma_rule": "exp_decay", "norm": "l2_scaled"},
    ):
        op = build_operator(spec)
        again = build_operator(operator_spec(op))
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
    lam = problem.sc.lam
    assert abs(lam) <= 1e-12 and lam > problem.op.omega


def test_build_problem_zero_source():
    doc = make_doc()
    doc["source"] = dict(doc["source"], w={"kind": "zero"})
    problem = build_problem(parse_config(doc))
    assert (problem.u_star - problem.ubar).norm() == 0.0
    assert (problem.f_star - apply(problem.op, problem.ubar)).norm() == 0.0


def test_build_problem_unit_coordinate_closed_form():
    doc = make_doc()
    doc["source"] = dict(doc["source"], w={"kind": "unit", "index": 3})
    problem = build_problem(parse_config(doc))
    lam = problem.op.omega + 1.0
    expected = np.zeros(problem.op.dim)
    expected[3] = -1.0 / (lam + 3.0)  # u_star = ubar - e_3/(lam + 3)
    np.testing.assert_allclose(problem.u_star.values, expected, rtol=1e-13)


def test_build_problem_initial_error_is_mixed_smooth():
    problem = build_problem(parse_config(make_doc()))
    from illposed import make_mixed_smooth_element

    mixed = make_mixed_smooth_element(problem.op, problem.sc)
    assert ((problem.ubar - problem.u_star) - mixed).norm() <= 1e-14


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
    from illposed import apriori_alpha, regularize

    errs = []
    for d in cfg.delta_ladder:
        alpha = apriori_alpha(d, 0.0, 1, 5.0)
        u = regularize(problem.op, problem.scheme, alpha, problem.f_star, problem.ubar)
        errs.append((u - problem.u_star).norm())
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_fit_rate_identity_and_scaling():
    rows = [
        RateRow(delta=d, alpha=1.0, error=error_bound(d, 0.0, 1, 1.0), residual=0.0,
                bound=error_bound(d, 0.0, 1, 1.0), ratio=1.0)
        for d in (1e-2, 1e-3, 1e-4)
    ]
    s = fit_rate(rows, 0.0, 1)
    assert s["max_ratio"] == s["median_ratio"] == 1.0
    assert s["ratio_spread"] == 1.0 and s["pass"]
    rows2 = [
        RateRow(delta=r.delta, alpha=r.alpha, error=2 * r.bound, residual=0.0,
                bound=r.bound, ratio=2.0)
        for r in rows
    ]
    s2 = fit_rate(rows2, 0.0, 1)
    assert s2["max_ratio"] == 2.0 and s2["ratio_spread"] == 1.0 and s2["pass"]


def test_fit_rate_flags_wrong_log_order():
    # inject error = bound * log(1/delta), i.e. the log order is off by one:
    # the max/min range blows past 3 over five decades even though the
    # median-normalized spread moves slowly
    deltas = [10.0 ** -k for k in range(2, 8)]
    rows = [
        RateRow(delta=d, alpha=1.0, error=error_bound(d, 0.0, 1, 1.0) * math.log(1.0 / d),
                residual=0.0, bound=error_bound(d, 0.0, 1, 1.0),
                ratio=math.log(1.0 / d))
        for d in deltas
    ]
    s = fit_rate(rows, 0.0, 1)
    assert s["ratio_range"] > 3.0
    assert s["ratio_spread"] <= 2.0  # max/median alone cannot see slow drift


def test_fit_rate_needs_three_rows():
    rows = [RateRow(delta=1e-2, alpha=1.0, error=1.0, residual=0.0, bound=1.0, ratio=1.0)]
    with pytest.raises(Exception):
        fit_rate(rows * 2, 0.0, 1)


def test_run_rate_experiment_apriori_summary():
    report = run_rate_experiment(parse_config(make_doc()))
    assert report.summary["pass"]
    assert report.summary["ratio_spread"] <= 3.0
    assert len(report.rows) == 4
    assert all(r.ratio > 0 for r in report.rows)


def test_run_rate_experiment_discrepancy_rows_in_band_or_inf():
    doc = make_doc(
        rule={"name": "discrepancy", "b0": 6.0, "b1": 8.0},
        delta_ladder=[1e-3, 1e-4, 1e-5],
    )
    report = run_rate_experiment(parse_config(doc))
    for row in report.rows:
        if math.isinf(row.alpha):
            assert row.residual <= 8.0 * row.delta
        else:
            assert 6.0 * row.delta <= row.residual <= 8.0 * row.delta
    assert report.summary["alpha_lower_ratio_min"] > 0


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
    run_rate_experiment(load_config(CONFIG_DIR / f"{name}.json"), out_dir=tmp_path)
    header, got = _csv_table(tmp_path / "report.csv")
    golden_header, golden = _csv_table(GOLDEN_DIR / f"{name}.csv")
    assert header == golden_header
    assert got.shape == golden.shape
    np.testing.assert_allclose(got, golden, rtol=1e-12, atol=0.0)


def _assert_axioms_match(got, want, path="axioms"):
    # numbers at rtol 1e-12, verdicts and every other field exactly
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_axioms_match(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_axioms_match(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_bundled_check_axioms_golden(name):
    got = json.loads(json.dumps(check_axioms(load_config(CONFIG_DIR / f"{name}.json"))))
    want = json.loads((GOLDEN_DIR / f"axioms_{name}.json").read_text(encoding="utf-8"))
    _assert_axioms_match(got, want)


def test_csv_schema():
    report = run_rate_experiment(parse_config(make_doc()))
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "delta,alpha,error,residual,bound,ratio"
    assert len(lines) == 1 + len(report.rows)
    # 17 significant digits survive a round trip
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == report.rows[0].delta
    assert first[2] == report.rows[0].error
    ptext = plot_csv(report)
    assert ptext.startswith("log10_delta,log10_alpha,")


def test_csv_serializes_degenerate_alpha_as_inf():
    doc = make_doc(
        rule={"name": "discrepancy", "b0": 6.0, "b1": 8.0},
        delta_ladder=[0.09, 0.05, 0.02],
    )
    doc["source"] = dict(doc["source"], w={"kind": "unit", "index": 30})  # tiny data norm
    report = run_rate_experiment(parse_config(doc))
    assert any(math.isinf(r.alpha) for r in report.rows)
    text = report_csv(report)
    assert ",inf," in text


def test_check_axioms_report():
    result = check_axioms(parse_config(make_doc()))
    assert result["postype_ok"]
    assert abs(result["kappa_star"] - 1.0) <= 1e-10
    assert result["commutation_defect"] <= 1e-10
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
