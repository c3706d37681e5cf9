"""Acceptance suite.

One test per verification criterion, each printing a PASS/FAIL line with its
headline numbers (run with ``pytest -s`` to see them).  Every tolerance is
pinned here; nothing is deferred to later calibration.
"""

import math

import numpy as np

from illposed.harness import add_noise, build_problem, parse_config, run_rate_experiment
from illposed.loworder import (
    LogExampleParams,
    abel_order_derivative_identity_gap,
    log_kernel_apply_at,
    log_kernel_derivative,
    sample_u_log,
    verify_membership,
)
from illposed.operator_log import make_mixed_smooth_element
from illposed.operators import (
    _one_row,
    _postype_ratios,
    abel_operator,
    apply,
    default_kappa_grid,
    exp_decay_diagonal,
    fractional_power_exact,
    integration_operator,
)
from illposed.schemes import RegularizerConfig, regularizer

from oracles import (
    BalakrishnanQuadrature,
    ChiParams,
    alpha_sweep_oracle,
    check_interpolation_inequality,
    chi,
    chi_inverse,
    fractional_power_balakrishnan,
    graded_w,
    product_integration_map,
)

LAV2 = RegularizerConfig("lavrentiev", m=2)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _flat_unit_w(op):
    w = op.ones()
    return (1.0 / w.norm()) * w


def test_criterion_01_positive_type_bound():
    details = []
    ok = True
    for op in (integration_operator(256), abel_operator(0.5, 256), exp_decay_diagonal(50)):
        grid = default_kappa_grid(op.op_norm, 60)
        worst = float(np.max(_postype_ratios(op, grid)))
        good = worst <= op.kappa_star * (1.0 + 1e-9)
        ok &= good
        details.append(f"{op.kind}: grid max {worst:.4f} <= kappa {op.kappa_star:.4f}")
    diag = exp_decay_diagonal(50)
    diag_exact = abs(diag.kappa_star - 1.0) <= 1e-10
    ok &= diag_exact
    details.append(f"diagonal kappa = {diag.kappa_star:.12f} (want 1 +- 1e-10)")
    _line("criterion 01: positive-type bound", ok, "; ".join(details))
    assert ok


def test_criterion_02a_balakrishnan_agreement():
    worst = 0.0
    for op in (integration_operator(256), abel_operator(0.5, 256), exp_decay_diagonal(30)):
        for p in (0.25, 0.5, 0.75, 1.5):
            b = fractional_power_balakrishnan(op, p, op.ones())
            e = fractional_power_exact(op, p, op.ones())
            worst = max(worst, (b - e).norm() / e.norm())
    ok_default = worst <= 1e-3
    worst_tight = 0.0
    for op in (integration_operator(256), exp_decay_diagonal(30)):
        quad = BalakrishnanQuadrature.default(op, nodes=8000, s_min_factor=1e-24, s_max_factor=1e24)
        for p in (0.25, 0.5, 0.75, 1.5):
            b = fractional_power_balakrishnan(op, p, op.ones(), quad)
            e = fractional_power_exact(op, p, op.ones())
            worst_tight = max(worst_tight, (b - e).norm() / e.norm())
    ok_tight = worst_tight <= 1e-5
    _line(
        "criterion 02a: resolvent-integral powers",
        ok_default and ok_tight,
        f"default-quadrature worst rel {worst:.2e} (<= 1e-3), "
        f"8000-node worst rel {worst_tight:.2e} (<= 1e-5)",
    )
    assert ok_default and ok_tight


def test_criterion_02b_semigroup_defect_refinement():
    defects = []
    for n in (128, 256, 512):
        op = integration_operator(n)
        x = np.linspace(0.0, 1.0, n + 1)
        u = op.grid_function(x * (1.0 - x))
        half = _one_row(op, product_integration_map(op, 0.4), u)
        lhs = _one_row(op, product_integration_map(op, 0.3), half)
        rhs = _one_row(op, product_integration_map(op, 0.7), u)
        defects.append((lhs - rhs).norm())
    ratios = [defects[i] / defects[i + 1] for i in range(2)]
    ok = all(r >= 1.3 for r in ratios)
    _line(
        "criterion 02b: semigroup defect under refinement",
        ok,
        f"defects {['%.3e' % d for d in defects]}, shrink factors "
        f"{['%.2f' % r for r in ratios]} (>= 1.3 per doubling)",
    )
    assert ok


def test_criterion_03_interpolation_inequality():
    rng = np.random.Generator(np.random.Philox(key=303))
    violations = 0
    for op in (integration_operator(256), exp_decay_diagonal(50)):
        for _ in range(100):
            u = op.grid_function(rng.standard_normal(op.dim))
            rep = check_interpolation_inequality(op, 0.5, 1.0, u)
            violations += 0 if rep["holds"] else 1
    ok = violations == 0
    _line(
        "criterion 03: moment inequality with c = 2(kappa+1)",
        ok,
        f"{violations} violations over 200 random vectors on two kinds",
    )
    assert ok


def test_criterion_04_qualification_orders():
    # scalar brute-force oracle on the Hilbert case, then the implementation
    svals = np.logspace(-12, 2, 3001)
    worst = 0.0
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            for alpha in np.logspace(-8, 2, 21):
                worst = max(
                    worst, ((alpha / (svals + alpha)) ** m * svals**p * alpha ** (-p)).max()
                )
    oracle_ok = worst <= 1.0 + 1e-9
    op = exp_decay_diagonal(40)
    impl_worst = 0.0
    for p in (0.0, 1.0, 2.0):
        g = fractional_power_exact(op, p, op.ones())
        for alpha in np.logspace(-6, 0, 13):
            impl_worst = max(
                impl_worst,
                _one_row(op, regularizer(op, LAV2, float(alpha)).companion, g).norm()
                / (float(alpha) ** p * op.ones().norm()),
            )
    impl_ok = impl_worst <= 1.0 + 1e-9
    p_over = 2.5
    g = fractional_power_exact(op, p_over, op.ones())

    def ratio(alpha):
        s = _one_row(op, regularizer(op, LAV2, alpha).companion, g)
        return s.norm() / (alpha**p_over * op.ones().norm())

    divergence = ratio(1e-6) / ratio(1e-2)
    div_ok = divergence > 50.0
    ok = oracle_ok and impl_ok and div_ok
    _line(
        "criterion 04: decay orders up to saturation",
        ok,
        f"scalar oracle sup {worst:.6f} <= 1, implementation sup {impl_worst:.6f} <= 1, "
        f"beyond-saturation growth factor {divergence:.0f} (> 50)",
    )
    assert ok


def test_criterion_05_log_decay_bound():
    op = exp_decay_diagonal(50)
    lam = op.omega + 1.0
    w = _flat_unit_w(op)
    alphas = [10.0**-j for j in range(1, 9)]
    details = []
    ok = True
    for p, nu in ((0.0, 1), (0.0, 2), (0.5, 1)):
        u = make_mixed_smooth_element(op, p, nu, lam, w)
        decayed = [_one_row(op, regularizer(op, LAV2, a).companion, u).norm() for a in alphas]
        ratios = np.array([d / (a**p * math.log(1.0 / a) ** -nu) for d, a in zip(decayed, alphas)])
        spread = ratios.max() / np.median(ratios)
        ok &= spread <= 3.0
        details.append(f"(p={p}, nu={nu}): sup/median {spread:.2f}")
    _line("criterion 05: companion decay under mixed smoothness", ok, "; ".join(details))
    assert ok


def _rate_doc(rule, ladder):
    return {
        "schema_version": 1,
        "seed": 20260808,
        "operator": {
            "kind": "diagonal",
            "modes": 50,
            "sigma_rule": "exp_decay",
            "norm": "l2_scaled",
        },
        "source": {"p": 0.0, "nu": 1, "lambda_offset": 1.0, "w": {"kind": "random", "seed": 7}},
        "scheme": {"name": "lavrentiev", "m": 2},
        "rule": rule,
        "delta_ladder": ladder,
    }


def test_criterion_06_apriori_rate():
    cfg = parse_config(
        _rate_doc({"name": "apriori", "c0": 5.0}, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    )
    report = run_rate_experiment(cfg)
    spread_ok = report["summary"]["ratio_spread"] <= 3.0
    problem = build_problem(cfg)
    sweep_alphas = np.logspace(-9, 0, 90)
    factors = []
    for k, row in enumerate(report["rows"]):
        f_delta = add_noise(problem.f_star, row["delta"], cfg["seed"] + k)
        _, best = alpha_sweep_oracle(problem, f_delta, sweep_alphas)
        factors.append(row["error"] / best)
    sweep_ok = max(factors) <= 2.0
    ok = spread_ok and sweep_ok
    _line(
        "criterion 06: a priori rule rate",
        ok,
        f"ratio spread {report['summary']['ratio_spread']:.2f} (<= 3), "
        f"worst rule/sweep error factor {max(factors):.2f} (<= 2)",
    )
    assert ok


def test_criterion_07_mixed_interpolation_bound():
    op = exp_decay_diagonal(50)
    lam = op.omega + 1.0
    p, nu = 0.0, 1
    rng = np.random.Generator(np.random.Philox(key=707))
    ratios = []
    for i in range(50):
        depth = 5 + (i % 25)
        vals = np.zeros(op.dim)
        vals[depth:] = rng.standard_normal(op.dim - depth)
        w = op.grid_function(vals)
        w = (1.0 / w.norm()) * w  # unit source element: D_w = 1
        u = make_mixed_smooth_element(op, p, nu, lam, w)
        a_norm = apply(op, u).norm()
        assert a_norm <= 1e-2
        ratios.append(u.norm() / (a_norm ** (p / (p + 1.0)) * math.log(1.0 / a_norm) ** (-nu / (p + 1.0))))
    ratios = np.array(ratios)
    spread = ratios.max() / np.median(ratios)
    ok = spread <= 5.0
    _line(
        "criterion 07: interpolation bound for mixed smoothness",
        ok,
        f"50 unit-source elements, ||Au|| <= 1e-2, max/median ratio {spread:.2f} (<= 5)",
    )
    assert ok


def test_criterion_08_discrepancy_rate():
    cfg = parse_config(
        _rate_doc({"name": "discrepancy", "b0": 6.0, "b1": 8.0}, [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    )
    report = run_rate_experiment(cfg)
    problem = build_problem(cfg)
    band_ok = True
    for k, row in enumerate(report["rows"]):
        f_delta = add_noise(problem.f_star, row["delta"], cfg["seed"] + k)
        degenerate = f_delta.norm() <= 8.0 * row["delta"]
        if math.isinf(row["alpha"]):
            band_ok &= degenerate
        else:
            band_ok &= not degenerate
            band_ok &= 6.0 * row["delta"] <= row["residual"] <= 8.0 * row["delta"]
    lower_ok = (
        report["summary"]["alpha_lower_ratio_min"] > 0
        and report["summary"]["alpha_lower_ratio_stability"] <= 3.0
    )
    spread_ok = report["summary"]["ratio_spread"] <= 3.0
    # degenerate branch fires exactly when ||f_delta|| is small
    tiny = parse_config(
        _rate_doc({"name": "discrepancy", "b0": 6.0, "b1": 8.0}, [0.09, 0.05, 0.02])
    )
    tiny["source"]["w"] = {"kind": "unit", "index": 45}
    degen_report = run_rate_experiment(parse_config(tiny))
    degen_ok = all(math.isinf(r["alpha"]) for r in degen_report["rows"])
    ok = band_ok and lower_ok and spread_ok and degen_ok
    _line(
        "criterion 08: residual-band a posteriori rule",
        ok,
        f"residuals in [6d, 8d] per row: {band_ok}; alpha lower-bound ratio min "
        f"{report['summary']['alpha_lower_ratio_min']:.1f}, stability "
        f"{report['summary']['alpha_lower_ratio_stability']:.2f} (<= 3); "
        f"error spread {report['summary']['ratio_spread']:.2f} (<= 3); degenerate branch: {degen_ok}",
    )
    assert ok


def test_criterion_09_chi_toolkit():
    roundtrip_ok = True
    for q in (1.0, 2.0):
        for mu in (1.0, 2.0):
            for s in (1e-2, 1e-4, 1e-6, 1e-8):
                t = chi_inverse(q, mu, s)
                roundtrip_ok &= abs(chi(ChiParams(q, mu, "-"), t) - s) <= 1e-10 * s

    def asym(q, mu, s):
        return q ** (-mu / q) * s ** (1.0 / q) * math.log(1.0 / s) ** (mu / q)

    asym_gaps = [
        abs(chi_inverse(q, mu, 1e-12) / asym(q, mu, 1e-12) - 1.0)
        for q, mu in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0))
    ]
    asym_ok = max(asym_gaps) <= 0.25
    t, kap = 1e-10, 2.0
    scale_gaps = [
        abs(chi(ChiParams(q, mu, sign), kap * t) / (kap**q * chi(ChiParams(q, mu, sign), t)) - 1.0)
        for q, mu in ((1.0, 1.0), (2.0, 2.0))
        for sign in ("-", "+")
    ]
    scale_ok = max(scale_gaps) <= 0.10
    ok = roundtrip_ok and asym_ok and scale_ok
    _line(
        "criterion 09: rate-function toolkit",
        ok,
        f"round-trip 1e-10: {roundtrip_ok}; asymptotic gap at 1e-12 "
        f"{max(asym_gaps):.3f} (<= 0.25); scaling gap at 1e-10 {max(scale_gaps):.3f} (<= 0.10)",
    )
    assert ok


PARAMS_GOOD = LogExampleParams(c=0.5, kappa=2.0)


def test_criterion_10a_w_decay_monotone():
    xs = [2.0**-k for k in range(4, 21)]
    w = np.abs(log_kernel_derivative(PARAMS_GOOD, xs))
    ok = bool(np.all(np.diff(w) < 0.0))
    _line(
        "criterion 10a: derivative decay is monotone",
        ok,
        f"|w| falls from {w[0]:.4f} at x=2^-4 to {w[-1]:.4f} at x=2^-20",
    )
    assert ok


def test_criterion_10b_w_decay_threshold():
    """w decays to 0 at the proven logarithmic rate and crosses 1e-2 where forced.

    Write L = log(1/(c x)) and split log(x - xi) = log(x) + log(1 - xi/x).
    Both parts are <= 0 on (0, x) and u' > 0, so

        |w(x)| = log(1/x) u(x) + int_0^1 -log(1 - s) x u'(x s) ds.

    Lower bound: the integral is >= 0, so |w(x)| >= log(1/x) L^{-kappa} = B_lo.
    Upper bound: x u'(x s) = kappa (L + log(1/s))^{-kappa-1} / s
    <= kappa L^{-kappa-1} / s and int_0^1 -log(1 - s)/s ds = pi^2/6, so
    |w(x)| <= B_lo + kappa (pi^2/6) L^{-kappa-1} = B_hi.

    At c = 1/2, kappa = 2 the decay is logarithmic, |w| ~ (log(1/x))^{1-kappa}:
    at x = 2^-20 the bracket is [0.0654, 0.0665], so |w| < 1e-2 cannot hold
    there.  The bounds force |w| below 1e-2 first at x = 2^-143, since
    B_lo(2^-142) > 1e-2 > B_hi(2^-143).  Both quadrature routes must sit in
    the bracket on x = 2^-4 .. 2^-20 (the range verify_membership samples)
    and at 2^-142, 2^-143, and cross 1e-2 at that index; the only slack is
    their rel_tol.
    """
    rel_tol = 1e-6
    threshold = 1e-2
    c, kap = PARAMS_GOOD.c, PARAMS_GOOD.kappa

    def bracket(k):
        x = 2.0**-k
        ell = math.log(1.0 / (c * x))
        lo = math.log(1.0 / x) * ell**-kap
        return lo, lo + kap * (math.pi**2 / 6.0) * ell ** (-kap - 1.0)

    ks = list(range(4, 21)) + [142, 143]
    xs = [2.0**-k for k in ks]
    assert bracket(142)[0] > threshold > bracket(143)[1]
    details = []
    ok = True
    for method, rule in (("adaptive", log_kernel_derivative), ("graded", graded_w)):
        w = np.abs(rule(PARAMS_GOOD, xs, rel_tol=rel_tol))
        inside = all(
            (1.0 - rel_tol) * lo <= v <= (1.0 + rel_tol) * hi
            for v, (lo, hi) in zip(w, map(bracket, ks))
        )
        crossed = w[-2] > threshold > w[-1]
        ok = ok and inside and crossed
        details.append(
            f"{method}: |w(2^-20)| = {w[-3]:.6f}, "
            f"|w(2^-142)| = {w[-2]:.7f}, |w(2^-143)| = {w[-1]:.7f}"
        )
    lo20, hi20 = bracket(20)
    _line(
        "criterion 10b: w in the proven decay bracket, below 1e-2 first at 2^-143",
        ok,
        f"bracket at 2^-20 [{lo20:.6f}, {hi20:.6f}]; " + "; ".join(details),
    )
    assert ok


def test_criterion_10c_derivative_finite_difference():
    u = sample_u_log(PARAMS_GOOD, 512)
    h = 1e-4
    minus, plus = log_kernel_apply_at(u, [0.5 - h, 0.5 + h])
    fd = (plus - minus) / (2.0 * h)
    w = float(log_kernel_derivative(PARAMS_GOOD, [0.5])[0])
    rel = abs(fd - w) / abs(w)
    ok = rel <= 1e-3
    _line(
        "criterion 10c: transform derivative matches w",
        ok,
        f"relative gap {rel:.2e} at x = 0.5 (<= 1e-3)",
    )
    assert ok


def test_criterion_10d_order_derivative_identity():
    u = sample_u_log(PARAMS_GOOD, 4096)
    gap = abel_order_derivative_identity_gap(u, (0.3, 0.4, 0.5, 0.6, 0.7))
    ok = gap <= 1e-3
    _line(
        "criterion 10d: order-derivative identity",
        ok,
        f"worst relative gap {gap:.2e} at five interior points (<= 1e-3)",
    )
    assert ok


def test_criterion_10e_membership_verdicts():
    good = verify_membership(PARAMS_GOOD, n=256, identity_n=2048)
    bad = verify_membership(LogExampleParams(c=0.5, kappa=0.5), n=256, identity_n=1024)
    ok = good["verdict"] == "pass" and bad["verdict"] == "fail"
    _line(
        "criterion 10e: membership verdicts",
        ok,
        f"kappa=2 verdict {good['verdict']}, kappa=0.5 verdict {bad['verdict']} (want pass/fail)",
    )
    assert ok


def test_criterion_11_determinism(tmp_path):
    cfg = parse_config(
        _rate_doc({"name": "apriori", "c0": 5.0}, [1e-2, 1e-3, 1e-4, 1e-5])
    )
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_rate_experiment(cfg, out_dir=out1)
    run_rate_experiment(cfg, out_dir=out2)
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.csv", "plot.csv", "summary.json")
    )
    _line("criterion 11: determinism", same, "two runs produced byte-identical outputs")
    assert same
