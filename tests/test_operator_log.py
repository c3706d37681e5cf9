import math

import numpy as np
import pytest

from illposed.errors import DimensionMismatchError, DomainError
from illposed.loworder import LogExampleParams, sample_u_log
from illposed.operator_log import make_mixed_smooth_element
from illposed.operators import (
    SymbolMap,
    _one_row,
    abel_operator,
    diagonal_operator,
    exp_decay_diagonal,
    integration_operator,
    log_resolvent_power_map,
    power_map,
    series_log,
)

from oracles import LaplaceQuadrature, diagonal_log_values, laplace_log_resolvent_power, log_apply


def test_log_apply_scalar():
    op = diagonal_operator([0.3, 0.3], "sup")
    lg, cauchy, _ = log_apply(op, op.ones())
    assert cauchy
    np.testing.assert_allclose(lg.values, math.log(0.3), rtol=1e-7)


def test_log_apply_constant_on_integration_is_not_cauchy():
    # (log J) 1 would behave like log x + gamma, which leaves the space of
    # functions vanishing at 0; the quotient at node 0 blows up like 1/p
    op = integration_operator(256)
    _, cauchy, dists = log_apply(op, op.ones())
    assert not cauchy
    assert dists[-1] > dists[-2] > dists[-3]


def test_log_apply_low_order_candidate_is_cauchy():
    op = integration_operator(256)
    u = sample_u_log(LogExampleParams(0.5, 2.0), 256)
    _, cauchy, _ = log_apply(op, u)
    assert cauchy


@pytest.mark.parametrize("n", [256, 4096])
def test_log_apply_matches_the_exact_log(n):
    # the quotient oracle against log A's own lag series, log h, 1, 1/2, 1/3, ...
    # on the low-order candidate, whose u(0) = 0 keeps node 0 finite; the
    # Richardson step leaves an extrapolation error near 1.4e-7 at n = 4096
    op = integration_operator(n)
    u = sample_u_log(LogExampleParams(0.5, 2.0), n)
    extrapolated, cauchy, _ = log_apply(op, u)
    exact = _one_row(op, SymbolMap(series_log(op.weights), volterra=True), u)
    assert cauchy
    assert np.max(np.abs(extrapolated.values - exact.values)) <= 2e-7


def test_resolvent_power_scalar_closed_form():
    s = 0.3
    op = diagonal_operator([s, s], "sup")
    lam = op.omega + 1.0
    v = _one_row(op, log_resolvent_power_map(op, lam, 1), op.ones())
    np.testing.assert_allclose(v.values, 1.0 / (lam - math.log(s)), rtol=1e-14)
    vq = laplace_log_resolvent_power(op, lam, 1, op.ones())
    np.testing.assert_allclose(vq.values, v.values, rtol=1e-10)


def test_resolvent_power_nu2_composition_scalar():
    s = 0.3
    op = diagonal_operator([s, s], "sup")
    lam = op.omega + 1.0
    twice = laplace_log_resolvent_power(
        op, lam, 1, laplace_log_resolvent_power(op, lam, 1, op.ones())
    )
    direct = laplace_log_resolvent_power(op, lam, 2, op.ones())
    assert (twice - direct).norm() <= 1e-8 * direct.norm()
    np.testing.assert_allclose(direct.values, 1.0 / (lam - math.log(s)) ** 2, rtol=1e-9)


def test_resolvent_power_integration_composition():
    op = integration_operator(256)
    lam = op.omega + 1.0
    w = op.ones()
    once = log_resolvent_power_map(op, lam, 1)
    twice = _one_row(op, once, _one_row(op, once, w))
    direct = _one_row(op, log_resolvent_power_map(op, lam, 2), w)
    assert (twice - direct).norm() <= 1e-6 * direct.norm()


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("norm", ["sup", "l2_scaled"])
@pytest.mark.parametrize("kind", ["integration", "abel"])
def test_resolvent_power_series_matches_laplace_oracle(kind, norm, nu):
    n = 128
    op = integration_operator(n, norm) if kind == "integration" else abel_operator(0.5, n, norm)
    lam = op.omega + 1.0
    w = op.grid_function(np.sin(np.pi * np.linspace(0.0, 1.0, op.dim)))
    got = _one_row(op, log_resolvent_power_map(op, lam, nu), w)
    expected = laplace_log_resolvent_power(op, lam, nu, w)
    assert got.values[0] == 0.0
    assert (got - expected).norm() <= 1e-12 * expected.norm()


def test_resolvent_power_rejects_shift_below_spectral_bound():
    op = integration_operator(64)
    with pytest.raises(DomainError, match="spectral bound"):
        _one_row(op, log_resolvent_power_map(op, op.omega, 1), op.ones())


def test_laplace_quadrature_validation():
    with pytest.raises(DomainError):
        LaplaceQuadrature(q_max=0.0)
    with pytest.raises(DomainError):
        LaplaceQuadrature(q_max=10.0, nodes=50)


def test_make_mixed_zero_w():
    op = exp_decay_diagonal(10)
    u = make_mixed_smooth_element(op, 0.5, 1, op.omega + 1.0, op.zeros())
    assert u.norm() == 0.0


def test_make_mixed_unit_coordinate_closed_form():
    op = exp_decay_diagonal(12)
    lam = op.omega + 1.0  # omega = 0, log sigma_k = -k
    k = 3
    u = make_mixed_smooth_element(op, 0.0, 1, lam, op.unit(k))
    expected = np.zeros(12)
    expected[k] = 1.0 / (lam + k)
    np.testing.assert_allclose(u.values, expected, rtol=1e-13)


def test_make_mixed_integration_diagnostics():
    from scipy.linalg import solve_triangular

    op = integration_operator(256)
    u = make_mixed_smooth_element(op, 0.5, 1, op.omega + 1.0, op.ones())
    # ||A^{-1/2} u|| is finite: solve the exact half-power system
    half = np.zeros((op.dim, op.dim))
    lags = power_map(op, 0.5).symbol
    for j in range(1, op.dim):
        half[j, 1 : j + 1] = lags[:j][::-1]
    half[0, 0] = 1.0
    back = solve_triangular(half[1:, 1:], u.values[1:], lower=True)
    assert np.all(np.isfinite(back))
    _, cauchy, _ = log_apply(op, u)
    assert cauchy


def test_inverse_consistency_scalar_closed_form():
    s = 0.4
    op = diagonal_operator([s, s], "sup")
    lam = op.omega + 1.0
    w = op.grid_function([0.7, 0.7])
    v = _one_row(op, log_resolvent_power_map(op, lam, 1), w)
    recovered = lam * v - v.with_values(diagonal_log_values(op) * v.values)
    assert (recovered - w).norm() <= 1e-6 * w.norm()


def test_inverse_consistency_via_log_apply():
    op = exp_decay_diagonal(40)
    lam = op.omega + 1.0
    rng = np.random.Generator(np.random.Philox(key=3))
    w = op.grid_function(rng.standard_normal(op.dim))
    w = (1.0 / w.norm()) * w
    v = _one_row(op, log_resolvent_power_map(op, lam, 1), w)
    logv, cauchy, _ = log_apply(op, v)
    assert cauchy
    recovered = lam * v - logv
    assert (recovered - w).norm() <= 1e-3 * w.norm()


def test_rescaling_covariance_on_diagonal():
    # log(aA) = log(a) I + log(A): building the mixed element for the scaled
    # operator with the shifted lambda reproduces the unscaled element
    op = exp_decay_diagonal(15)
    a = 0.5 / op.op_norm
    scaled = op.scaled(a)
    np.testing.assert_allclose(
        diagonal_log_values(scaled), math.log(a) + diagonal_log_values(op), atol=1e-10
    )
    lam = op.omega + 1.0
    w = op.grid_function(np.linspace(1.0, 0.1, op.dim))
    u0 = _one_row(op, log_resolvent_power_map(op, lam, 2), w)
    u1 = _one_row(scaled, log_resolvent_power_map(scaled, lam + math.log(a), 2), w)
    np.testing.assert_allclose(u1.values, u0.values, rtol=1e-10)


def test_source_condition_validation():
    op = exp_decay_diagonal(10)
    with pytest.raises(DomainError):
        make_mixed_smooth_element(op, -0.1, 1, 1.0, op.ones())
    with pytest.raises(DomainError):
        make_mixed_smooth_element(op, 0.0, 0, 1.0, op.ones())
    with pytest.raises(DomainError):
        make_mixed_smooth_element(op, 0.0, 1, op.omega - 0.5, op.ones())
    with pytest.raises(DimensionMismatchError):
        make_mixed_smooth_element(op, 0.0, 1, op.omega + 1.0, exp_decay_diagonal(11).ones())
