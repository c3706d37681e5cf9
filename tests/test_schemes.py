import math

import numpy as np
import pytest

from illposed.errors import DomainError
from illposed.operators import (
    _one_row,
    abel_operator,
    apply,
    diagonal_operator,
    exp_decay_diagonal,
    fractional_power_exact,
    integration_operator,
    shifted_solve,
)
from illposed.schemes import RegularizerConfig, qualification_checks, regularize, regularizer

from oracles import expm_evolve

LAV1 = RegularizerConfig("lavrentiev", m=1)
LAV2 = RegularizerConfig("lavrentiev", m=2)
CAUCHY = RegularizerConfig("cauchy")


def scalar_op(s):
    return diagonal_operator([s, s], "sup")


def test_lavrentiev_classical_scalar():
    s, alpha = 0.6, 0.1
    op = scalar_op(s)
    u = regularize(op, LAV1, alpha, op.grid_function([s, s]), op.zeros())
    np.testing.assert_allclose(u.values, s / (s + alpha), rtol=1e-14)


def test_lavrentiev_consistent_data_is_fixed_point():
    op = exp_decay_diagonal(15)
    ubar = op.grid_function(np.linspace(1.0, 0.2, op.dim))
    f = apply(op, ubar)
    for m in (1, 2, 4):
        for alpha in (1e-4, 0.3, 10.0):
            u = regularize(op, RegularizerConfig("lavrentiev", m=m), alpha, f, ubar)
            assert (u - ubar).norm() <= 1e-11 * ubar.norm()


def test_lavrentiev_matches_explicit_resolvent_sum():
    # oracle: u = ubar - R_alpha(A ubar - f) with
    # R_alpha = alpha^{-1} sum_{j=1}^m alpha^j (A + alpha I)^{-j}
    n, m, alpha = 128, 2, 0.05
    op = integration_operator(n)
    rng = np.random.Generator(np.random.Philox(key=17))
    f = op.grid_function(rng.standard_normal(op.dim))
    ubar = op.grid_function(rng.standard_normal(op.dim))
    got = regularize(op, RegularizerConfig("lavrentiev", m=m), alpha, f, ubar)
    g = apply(op, ubar) - f
    r_g = op.zeros()
    term = g
    for _ in range(m):
        term = alpha * shifted_solve(op, alpha, term)
        r_g = r_g + term
    expected = ubar - (1.0 / alpha) * r_g
    assert (got - expected).norm() <= 1e-10 * max(expected.norm(), 1.0)


@pytest.mark.parametrize(
    "make", [lambda: integration_operator(64), lambda: exp_decay_diagonal(20)]
)
def test_iterated_steps_equal_repeated_shifted_solves(make):
    # one inverted shift serves all m steps, bit for bit what m solves give
    op, m, alpha = make(), 3, 0.05
    rng = np.random.Generator(np.random.Philox(key=19))
    f = op.grid_function(rng.standard_normal(op.dim))
    ubar = op.grid_function(rng.standard_normal(op.dim))
    v, s = ubar, f
    for _ in range(m):
        v = shifted_solve(op, alpha, f + alpha * v)
        s = alpha * shifted_solve(op, alpha, s)
    cfg = RegularizerConfig("lavrentiev", m=m)
    assert np.array_equal(regularize(op, cfg, alpha, f, ubar).values, v.values)
    assert np.array_equal(_one_row(op, regularizer(op, cfg, alpha).companion, f).values, s.values)


@pytest.mark.parametrize("norm", ["sup", "l2_scaled"])
@pytest.mark.parametrize("kind", ["diagonal", "integration", "abel"])
def test_regularizer_block_rows_equal_single_calls(kind, norm):
    # a filter built once per alpha and applied to a block gives, row for
    # row, the bits of the one-element calls
    if kind == "diagonal":
        op = exp_decay_diagonal(24, norm)
    elif kind == "integration":
        op = integration_operator(48, norm)
    else:
        op = abel_operator(0.5, 48, norm)
    rng = np.random.Generator(np.random.Philox(key=37))
    f, ubar = rng.standard_normal((2, 4, op.dim))
    cfgs = [RegularizerConfig("lavrentiev", m=m) for m in (1, 2, 3)] + [CAUCHY]
    for cfg in cfgs:
        for ratio in (1e-6, 1e-2, 1.0):
            alpha = ratio * op.op_norm
            reg = regularizer(op, cfg, alpha)
            element, r_f, s_u = reg.element(f, ubar), reg.apply(f), reg.companion(ubar)
            for i in range(f.shape[0]):
                fi, ui = op.grid_function(f[i]), op.grid_function(ubar[i])
                assert np.array_equal(element[i], regularize(op, cfg, alpha, fi, ui).values)
                assert np.array_equal(r_f[i], _one_row(op, reg.apply, fi).values)
                assert np.array_equal(s_u[i], _one_row(op, reg.companion, ui).values)


def test_regularizer_rejects_nonfinite_blocks():
    op = integration_operator(16)
    block = np.ones((2, op.dim))
    block[1, 3] = np.inf
    reg = regularizer(op, LAV2, 0.1)
    for result in (lambda: reg.apply(block), lambda: reg.companion(block)):
        with pytest.raises(ValueError, match="finite"):
            result()


def test_lavrentiev_rejects_nonpositive_alpha():
    op = scalar_op(1.0)
    with pytest.raises(DomainError):
        regularize(op, LAV1, 0.0, op.ones(), op.zeros())


def test_cauchy_scalar_closed_form_integrator():
    op = integration_operator(32)
    u = regularize(op, CAUCHY, 1.0, op.ones(), op.zeros())
    expected = expm_evolve(op, 1.0, op.ones(), op.zeros())
    assert (u - expected).norm() <= 1e-12 * expected.norm()


def test_cauchy_exact_diagonal_path():
    s = 0.7
    op = scalar_op(s)
    u = regularize(op, CAUCHY, 0.5, op.ones(), op.zeros())
    np.testing.assert_allclose(u.values, (1.0 - math.exp(-2.0 * s)) / s, rtol=1e-13)


def test_cauchy_initial_condition():
    op = integration_operator(64)
    ubar = op.grid_function(np.linspace(0.5, 1.0, op.dim))
    f = op.ones()
    u = regularize(op, CAUCHY, 1e6, f, ubar)
    tol = 1e-5 * (f.norm() + apply(op, ubar).norm())
    assert (u - ubar).norm() <= tol


def test_cauchy_stationary_solution():
    op = exp_decay_diagonal(10)
    ubar = op.grid_function(np.linspace(1.0, 0.1, op.dim))
    f = apply(op, ubar)
    for alpha in (1e-3, 1.0):
        u = regularize(op, CAUCHY, alpha, f, ubar)
        assert (u - ubar).norm() <= 1e-11 * ubar.norm()


def test_companion_lavrentiev_scalar():
    s, alpha = 0.4, 0.25
    op = scalar_op(s)
    for m in (1, 2, 3):
        cfg = RegularizerConfig("lavrentiev", m=m)
        v = _one_row(op, regularizer(op, cfg, alpha).companion, op.ones())
        np.testing.assert_allclose(v.values, (alpha / (s + alpha)) ** m, rtol=1e-13)


def test_companion_cauchy_scalar_exponential():
    s = 0.8
    op = scalar_op(s)
    v = _one_row(op, regularizer(op, CAUCHY, 1.0).companion, op.ones())
    np.testing.assert_allclose(v.values, math.exp(-s), rtol=1e-13)
    op = integration_operator(32)
    vi = _one_row(op, regularizer(op, CAUCHY, 1.0).companion, op.ones())
    expected = expm_evolve(op, 1.0, op.zeros(), op.ones())
    assert (vi - expected).norm() <= 1e-12 * expected.norm()


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("norm", ["sup", "l2_scaled"])
@pytest.mark.parametrize("kind", ["integration", "abel"])
def test_cauchy_matches_expm_oracle(kind, norm, n):
    # e^{-tA} is bounded and underflows at large t, so the companion error is
    # measured against the larger of the result and the input
    op = integration_operator(n, norm) if kind == "integration" else abel_operator(0.5, n, norm)
    x = np.linspace(0.0, 1.0, op.dim)
    u = op.grid_function(np.sin(np.pi * x) + x)
    f = op.grid_function(np.cos(3.0 * x))
    for ratio in (1e6, 1.0, 1e-2, 1e-4, 1e-8):
        alpha = ratio * op.op_norm
        s = _one_row(op, regularizer(op, CAUCHY, alpha).companion, u)
        s_ref = expm_evolve(op, 1.0 / alpha, op.zeros(), u)
        assert np.all(np.isfinite(s.values))
        assert (s - s_ref).norm() <= 1e-12 * max(s_ref.norm(), u.norm())
        v = regularize(op, CAUCHY, alpha, f, op.zeros())
        v_ref = expm_evolve(op, 1.0 / alpha, f, op.zeros())
        assert np.all(np.isfinite(v.values))
        assert (v - v_ref).norm() <= 1e-12 * v_ref.norm()


def test_companion_large_alpha_approaches_identity():
    op = integration_operator(64)
    u = op.grid_function(np.linspace(0.0, 1.0, op.dim))
    alpha = 1e6 * op.op_norm
    v = _one_row(op, regularizer(op, LAV2, alpha).companion, u)
    assert (v - u).norm() <= 1e-4 * u.norm()


def test_regularize_exact_data_exact_guess():
    op = exp_decay_diagonal(12)
    u_true = op.grid_function(np.linspace(1.0, 0.1, op.dim))
    f = apply(op, u_true)
    for cfg in (LAV1, LAV2, CAUCHY):
        u = regularize(op, cfg, 0.3, f, u_true)
        assert (u - u_true).norm() <= 1e-11 * u_true.norm()


def test_regularize_scalar_arithmetic():
    # sigma = 1, u_true = 1, ubar = 0, noisy datum 1.01, alpha = 0.1
    op = scalar_op(1.0)
    u = regularize(op, LAV1, 0.1, op.grid_function([1.01, 1.01]), op.zeros())
    np.testing.assert_allclose(u.values, 1.01 / 1.1, rtol=1e-14)


def test_regularize_error_decomposition():
    # u_alpha - u_true = S_alpha (ubar - u_true) - R_alpha (A u_true - f_delta)
    op = exp_decay_diagonal(20)
    rng = np.random.Generator(np.random.Philox(key=23))
    u_true = op.grid_function(rng.standard_normal(op.dim))
    ubar = op.grid_function(rng.standard_normal(op.dim))
    f_delta = apply(op, u_true) + 0.01 * op.grid_function(rng.standard_normal(op.dim))
    for cfg in (LAV2, CAUCHY):
        alpha = 0.05
        lhs = regularize(op, cfg, alpha, f_delta, ubar) - u_true
        reg = regularizer(op, cfg, alpha)
        rhs = _one_row(op, reg.companion, ubar - u_true) - _one_row(
            op, reg.apply, apply(op, u_true) - f_delta
        )
        assert (lhs - rhs).norm() <= 1e-11 * max(lhs.norm(), 1.0)


def test_regularize_alpha_ladder_monotone_on_exact_data():
    op = exp_decay_diagonal(25)
    u_true = op.grid_function(np.linspace(1.0, 0.5, op.dim))
    f = apply(op, u_true)
    errs = []
    for alpha in (1.0, 0.1, 0.01, 1e-3, 1e-4):
        u = regularize(op, LAV2, alpha, f, op.zeros())
        errs.append((u - u_true).norm())
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_qualification_scalar_oracle_integer_orders():
    # brute-force maximization of (alpha/(s+alpha))^m s^p alpha^{-p} over s
    svals = np.logspace(-12, 2, 3001)
    for m in (1, 2, 3):
        for p in range(0, m + 1):
            worst = 0.0
            for alpha in np.logspace(-8, 2, 21):
                ratios = (alpha / (svals + alpha)) ** m * svals**p * alpha ** (-p)
                worst = max(worst, ratios.max())
            assert worst <= 1.0 + 1e-9


def test_qualification_check_diagonal():
    op = exp_decay_diagonal(30)
    grid = np.logspace(-6, 0, 13)
    for rep in qualification_checks(op, LAV2, [0.0, 1.0, 2.0], grid):
        assert rep["passed"]
        assert rep["sup_ratio"] <= 1.0 + 1e-9  # Hilbert case: the sharp bound is 1
        assert rep["certified_bound"] == (op.kappa_star + 1.0) ** 2


def test_qualification_check_non_integer_constant():
    op = exp_decay_diagonal(20)
    rep = qualification_checks(op, LAV2, [0.5], np.logspace(-4, 0, 9))[0]
    assert rep["certified_bound"] == 2.0 * (op.kappa_star + 1.0) ** 1.5
    assert rep["passed"]


def test_qualification_beyond_saturation_raises():
    op = exp_decay_diagonal(10)
    with pytest.raises(DomainError, match="saturation"):
        qualification_checks(op, LAV2, [2.5], [0.1])


def test_divergence_beyond_saturation_detected():
    # p slightly above m: the decay ratio grows like alpha^{m-p} as alpha -> 0
    op = exp_decay_diagonal(40)
    p = 2.5
    g = fractional_power_exact(op, p, op.ones())

    def ratio(alpha):
        s = _one_row(op, regularizer(op, LAV2, alpha).companion, g)
        return s.norm() / (alpha**p * op.ones().norm())

    assert ratio(1e-6) / ratio(1e-2) > 50.0


def test_cauchy_qualification_reported_without_verdict():
    op = exp_decay_diagonal(20)
    rep = qualification_checks(op, CAUCHY, [3.0], np.logspace(-4, 0, 9))[0]
    assert rep["certified_bound"] is None and rep["passed"] is None
    assert rep["sup_ratio"] < 10.0


def test_commutation_invariant():
    rng = np.random.Generator(np.random.Philox(key=29))
    ops = (integration_operator(96), exp_decay_diagonal(20))
    for op in ops:
        u = op.grid_function(rng.standard_normal(op.dim))
        au = apply(op, u)
        for cfg in (LAV2, CAUCHY):
            for alpha in (0.01, 0.5):
                reg = regularizer(op, cfg, alpha)
                gap = (_one_row(op, reg.apply, au) - apply(op, _one_row(op, reg.apply, u))).norm()
                assert gap <= 1e-10 * max(au.norm(), 1.0)


def test_growth_invariant():
    rng = np.random.Generator(np.random.Philox(key=31))
    for op in (integration_operator(96), exp_decay_diagonal(25)):
        f = op.grid_function(rng.standard_normal(op.dim))
        for cfg in (LAV1, LAV2):
            bound = cfg.growth_constant(op.kappa_star)
            for alpha in np.logspace(-6, 1, 8):
                r_f = _one_row(op, regularizer(op, cfg, float(alpha)).apply, f)
                val = float(alpha) * r_f.norm()
                assert val <= bound * f.norm() * (1.0 + 1e-9)
    # evolution method on the diagonal kind: alpha ||R_alpha|| <= kappa = 1
    op = exp_decay_diagonal(25)
    f = op.grid_function(rng.standard_normal(op.dim))
    for alpha in np.logspace(-6, 1, 8):
        r_f = _one_row(op, regularizer(op, CAUCHY, float(alpha)).apply, f)
        val = float(alpha) * r_f.norm()
        assert val <= op.kappa_star * f.norm() * (1.0 + 1e-9)


def test_continuity_in_alpha():
    op = exp_decay_diagonal(25)
    u = op.grid_function(np.linspace(1.0, 0.2, op.dim))
    for cfg in (LAV2, CAUCHY):
        for alpha in (1e-3, 0.1):
            s0 = _one_row(op, regularizer(op, cfg, alpha).companion, u)
            s1 = _one_row(op, regularizer(op, cfg, alpha * (1.0 + 1e-6)).companion, u)
            assert (s1 - s0).norm() <= 1e-4 * max(s0.norm(), 1e-300)


def test_range_chain_decay_ordering():
    # stronger power-type smoothness decays at least as fast, pointwise in alpha
    op = exp_decay_diagonal(40)
    v = op.ones()
    p1, p2 = 0.3, 0.9
    u1 = fractional_power_exact(op, p1, v)
    u2 = fractional_power_exact(op, p2, v)
    for alpha in np.logspace(-6, -1, 6):
        reg = regularizer(op, LAV2, float(alpha))
        d1 = _one_row(op, reg.companion, u1).norm() / u1.norm()
        d2 = _one_row(op, reg.companion, u2).norm() / u2.norm()
        assert d2 <= d1 * (1.0 + 1e-9)


def test_config_validation():
    with pytest.raises(DomainError):
        RegularizerConfig("tikhonov")
    with pytest.raises(DomainError):
        RegularizerConfig("lavrentiev", m=0)
    assert RegularizerConfig("cauchy").p0 == math.inf
    assert RegularizerConfig("lavrentiev", m=3).p0 == 3.0


@pytest.mark.parametrize(
    "op",
    [integration_operator(64, "sup"), exp_decay_diagonal(30, "l2_scaled")],
    ids=["integration_sup", "diagonal30"],
)
def test_qualification_stacked_orders_equal_single_orders(op):
    # the orders share one stacked block per alpha; each keeps its own bits
    grid = np.logspace(-6, 0, 13) * op.op_norm
    stacked = qualification_checks(op, LAV2, [0, 1, 2], grid)
    assert stacked == [qualification_checks(op, LAV2, [p], grid)[0] for p in (0, 1, 2)]


def test_cauchy_inverse_lags_built_once_per_operator(monkeypatch):
    # A^{-1}'s lag series does not depend on alpha: five filters, one build
    import illposed.operators as operators

    op = abel_operator(0.5, 64, "sup")
    calls = []
    reciprocal = operators.series_reciprocal

    def counting(coeffs):
        if np.array_equal(coeffs, op.weights):
            calls.append(1)
        return reciprocal(coeffs)

    monkeypatch.setattr(operators, "series_reciprocal", counting)
    for ratio in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        regularizer(op, CAUCHY, ratio * op.op_norm)
    assert len(calls) == 1
    assert np.array_equal(op.inverse_lags, reciprocal(op.weights))
