import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular, toeplitz

from illposed.errors import DimensionMismatchError, DomainError
from illposed.operators import (
    NORM_KINDS,
    GridFunction,
    _mul,
    _postype_ratios,
    _power_iteration_norm,
    a_log_a_map,
    abel_operator,
    apply,
    default_kappa_grid,
    diagonal_operator,
    estimate_postype_constant,
    exp_decay_diagonal,
    grid_norms,
    integration_operator,
    power_map,
    product_integration_weights,
    series_log,
    shifted_solve,
    shifted_solver,
)
from oracles import dense_matrix, integration_postype_ratios, integration_resolvent_lags

#: alphas per positive-type measurement in these tests
GRID_POINTS = 60

VOLTERRA_KINDS = {
    "integration": lambda n, norm: integration_operator(n, norm),
    "abel": lambda n, norm: abel_operator(0.5, n, norm),
}


def test_apply_integration_exact_on_constants():
    op = integration_operator(128)
    au = apply(op, op.ones())
    np.testing.assert_allclose(au.values, np.linspace(0.0, 1.0, 129), rtol=0, atol=1e-14)


def test_apply_diagonal():
    op = diagonal_operator([1.0, 0.5, 0.25], "sup")
    au = apply(op, op.ones())
    np.testing.assert_allclose(au.values, [1.0, 0.5, 0.25])


def test_apply_integration_linear_matches_brute_force():
    # oracle: per-entry weight sums computed by an explicit python loop
    n = 64
    op = integration_operator(n)
    x = np.linspace(0.0, 1.0, n + 1)
    u = op.grid_function(x)
    w = product_integration_weights(1.0, n)
    expected = np.zeros(n + 1)
    for j in range(1, n + 1):
        expected[j] = sum(w[j - i] * x[i] for i in range(1, j + 1))
    got = apply(op, u)
    np.testing.assert_allclose(got.values, expected, rtol=1e-13)
    # and the discrete value is within O(1/n) of x^2/2 in the sup norm
    assert np.max(np.abs(got.values - x**2 / 2.0)) <= 1.0 / n


def test_apply_dimension_mismatch():
    op = integration_operator(32)
    with pytest.raises(DimensionMismatchError):
        apply(op, GridFunction(np.ones(12), "sup"))
    with pytest.raises(DimensionMismatchError):
        apply(op, GridFunction(np.ones(33), "l2_scaled"))


def test_shifted_solve_scalar():
    op = diagonal_operator([1.0, 1.0], "sup")
    v = shifted_solve(op, 1.0, op.grid_function([2.0, 2.0]))
    np.testing.assert_allclose(v.values, [1.0, 1.0])


@pytest.mark.parametrize("make", [lambda: integration_operator(64), lambda: abel_operator(0.5, 64)])
def test_shifted_solve_large_alpha_neumann(make):
    op = make()
    f = op.grid_function(np.sin(np.pi * np.linspace(0, 1, op.dim)))
    alpha = 1e6 * op.op_norm
    v = shifted_solve(op, alpha, f)
    dev = (v - (1.0 / alpha) * f).norm() / ((1.0 / alpha) * f).norm()
    assert dev <= 1e-5


def test_shifted_solve_matches_dense_lu():
    # the reciprocal-series solve against LU on the dense matrix, over twelve
    # decades of the shift
    for kind, norm, n in itertools.product(VOLTERRA_KINDS, ("sup", "l2_scaled"), (64, 256)):
        op = VOLTERRA_KINDS[kind](n, norm)
        f = op.grid_function(np.linspace(0.0, 1.0, n + 1) + 0.25)
        for ratio in (1e4, 1.0, 1e-4, 1e-8):
            alpha = ratio * op.op_norm
            v = shifted_solve(op, alpha, f)
            dense = np.linalg.solve(dense_matrix(op) + alpha * np.eye(n + 1), f.values)
            assert np.max(np.abs(v.values - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_shifted_solve_rejects_nonpositive_alpha():
    op = diagonal_operator([1.0, 0.5], "sup")
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            shifted_solve(op, bad, op.ones())


def test_postype_constant_diagonal_is_one():
    for sigma in ([1.0, 0.5, 0.25], np.exp(-np.arange(40.0)), [3.0, 3.0]):
        op = diagonal_operator(sigma, "l2_scaled")
        assert abs(op.kappa_star - 1.0) <= 1e-10


def test_postype_constant_singleton_grid():
    op = diagonal_operator([1.0, 1.0], "sup")
    # raw grid value at alpha = 1 is 1 * ||(sigma + 1)^{-1}|| = 1/2 <= 1;
    # the estimate tops it up with the alpha -> infinity limit
    assert abs(_postype_ratios(op, np.array([1.0]))[0] - 0.5) <= 1e-14
    assert estimate_postype_constant(op, [1.0]) == 1.0


def test_postype_constant_integration_stable_under_refinement():
    vals = {}
    for n in (256, 512):
        op = integration_operator(n)
        vals[n] = estimate_postype_constant(op, default_kappa_grid(op.op_norm, GRID_POINTS))
    assert abs(vals[512] - vals[256]) <= 0.05 * vals[256]


def test_postype_vector_bound_on_grid():
    rng = np.random.Generator(np.random.Philox(key=5))
    for op in (integration_operator(128), abel_operator(0.5, 128), exp_decay_diagonal(30)):
        f = op.grid_function(rng.standard_normal(op.dim))
        for alpha in default_kappa_grid(op.op_norm, 20):
            v = shifted_solve(op, float(alpha), f)
            assert float(alpha) * v.norm() <= op.kappa_star * f.norm() * (1.0 + 1e-9)


@pytest.mark.parametrize("kind", sorted(VOLTERRA_KINDS))
def test_sup_postype_ratio_matches_dense_inverse(kind):
    # the Newton reciprocals against the max row sum of the dense inverse,
    # node 0 included; their maximum stays below the certificate
    op = VOLTERRA_KINDS[kind](128, "sup")
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    dense = []
    for alpha, ratio in zip(grid, _postype_ratios(op, grid)):
        inv = np.linalg.inv(dense_matrix(op) + alpha * np.eye(op.dim))
        dense.append(alpha * np.abs(inv).sum(axis=1).max())
        assert math.isclose(ratio, dense[-1], rel_tol=1e-12)
    assert max(dense) < op.kappa_star == 2.0


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the rounding bound of a k-term dot product
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


@pytest.mark.parametrize("n", [256, 4096, 16384])
def test_shifted_solver_integration_closed_form(n):
    # Newton's doubling corrects the rounding of every step but the last,
    # whose two products are dot products of at most n terms, so gamma_n of
    # the l1 norm is the tolerance; the closed form is within a few ulp.
    # Largest gap seen: 0.031 of the bound (n = 4096, alpha = 1e-4).
    op = integration_operator(n)
    for alpha in (1e-8, 1e-4, 1e-2, 1.0):
        want = integration_resolvent_lags(n, alpha)
        gap = np.abs(shifted_solver(op, alpha).symbol - want).sum()
        assert gap <= _gamma(n) * np.abs(want).sum(), alpha


@pytest.mark.parametrize("n", [256, 4096, 16384])
def test_sup_postype_ratio_integration_closed_form(n):
    # alpha sum |b_k| moves by at most alpha ||b^ - b||_1, within gamma_n of
    # the l1 norm as above, plus the rounding of its n-term sum, so the ratio
    # is within 2 gamma_n relative.  Largest gap seen: 0.012 of the bound.
    op = integration_operator(n)
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    want = integration_postype_ratios(n, grid)
    np.testing.assert_allclose(_postype_ratios(op, grid), want, rtol=2 * _gamma(n), atol=0.0)


@pytest.mark.parametrize("order", [0.25, 0.5, 1.0])
def test_sup_postype_ratio_matches_dense_triangular_solve(order):
    # oracle: the first column of the dense shifted lower-Toeplitz matrix,
    # by one LAPACK triangular solve per alpha at n = 1024
    op = abel_operator(order, 1024)
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    lower = toeplitz(op.weights, np.zeros(op.n))
    e0 = np.eye(1, op.n)[0]
    dense = [
        max(1.0, alpha * np.abs(solve_triangular(lower + alpha * np.eye(op.n), e0, lower=True)).sum())
        for alpha in grid
    ]
    np.testing.assert_allclose(_postype_ratios(op, grid), dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("order", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [512, 4096])
def test_sup_reciprocals_keep_kaluza_signs(order, n):
    # log-convex lags: every reciprocal coefficient past b_0 is <= 0 (Kaluza,
    # Math. Z. 28, 1928), so alpha sum |b| = alpha (2 b_0 - sum b) < 2
    op = abel_operator(order, n)
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    b = np.array([shifted_solver(op, alpha).symbol for alpha in grid])
    assert b.shape == (grid.size, n)
    assert np.all(b[:, 1:] <= 1e-14 * np.abs(b).max(axis=1, keepdims=True))
    assert np.all(grid * np.abs(b).sum(axis=1) < 2.0)
    assert op.kappa_star == 2.0


def test_sup_postype_constant_memory_stays_below_one_megabyte():
    # one reciprocal series of n floats per alpha, O(n), not one n x 60
    # array (3.9 MB here)
    op = integration_operator(4096)
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    tracemalloc.start()
    try:
        kappa = estimate_postype_constant(op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa < op.kappa_star
    assert peak < 1_000_000


CERTIFIED_KINDS = {
    "integration": lambda n, norm: integration_operator(n, norm),
    "abel-0.1": lambda n, norm: abel_operator(0.1, n, norm),
    "abel-0.5": lambda n, norm: abel_operator(0.5, n, norm),
    "abel-0.9": lambda n, norm: abel_operator(0.9, n, norm),
    "diagonal": lambda n, norm: diagonal_operator(1.0 / np.arange(1.0, n + 1.0), norm),
}


@pytest.mark.parametrize("kind", sorted(CERTIFIED_KINDS))
@pytest.mark.parametrize("norm", NORM_KINDS)
@pytest.mark.parametrize("n", [256, 4096])
def test_measured_postype_constant_stays_below_certificate(kind, norm, n):
    op = CERTIFIED_KINDS[kind](n, norm)
    measured = estimate_postype_constant(op, default_kappa_grid(op.op_norm, GRID_POINTS))
    assert measured <= op.kappa_star == (2.0 if op.is_volterra and norm == "sup" else 1.0)
    assert op.scaled(0.37).kappa_star == op.kappa_star


@pytest.mark.parametrize("order", [0.1, 0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", [64, 256, 4096])
def test_lags_are_positive_and_log_convex(order, n):
    # the hypothesis of kappa*'s sup-norm certificate (Kaluza)
    a = abel_operator(order, n).weights
    assert np.all(a > 0.0)
    assert np.all(a[1:-1] ** 2 <= a[:-2] * a[2:])


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_a_log_a_closed_form_matches_series_log(n, scale):
    op = integration_operator(n).scaled(scale)
    lags = a_log_a_map(op).symbol
    series = _mul(op.weights, series_log(op.weights), n)
    assert np.max(np.abs(lags - series)) <= 1e-14 * np.max(np.abs(lags))


def test_a_log_a_is_the_order_derivative_of_the_power():
    # the centered difference of A^p at p = 1 errs by O(eps^2): halving eps
    # quarters the gap
    op = integration_operator(4096)
    lags = a_log_a_map(op).symbol
    gaps = []
    for eps in (1e-3, 5e-4):
        centered = (power_map(op, 1.0 + eps).symbol - power_map(op, 1.0 - eps).symbol) / (2 * eps)
        gaps.append(np.max(np.abs(centered - lags)) / np.max(np.abs(lags)))
    assert gaps[0] <= 20 * 1e-3**2
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_a_log_a_has_its_closed_form_on_integration_only():
    for op in (abel_operator(0.5, 64), exp_decay_diagonal(10)):
        with pytest.raises(DomainError, match="integration kind"):
            a_log_a_map(op)


@pytest.mark.parametrize("order", [0.1, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [64, 128])
def test_l2_postype_certificate_holds_on_dense(order, n):
    # Fejer: positive, nonincreasing, convex lags make T + T^T positive
    # semidefinite, so alpha ||(T + alpha I)^{-1}||_2 <= 1; order 1 is the
    # integration operator
    op = integration_operator(n, "l2_scaled") if order == 1.0 else abel_operator(order, n, "l2_scaled")
    block = dense_matrix(op)[1:, 1:]
    assert np.linalg.eigvalsh(block + block.T).min() >= 0.0
    grid = default_kappa_grid(op.op_norm, GRID_POINTS)
    for alpha, ratio in zip(grid, _postype_ratios(op, grid)):
        inv = np.linalg.inv(block + alpha * np.eye(n))
        assert alpha * np.linalg.norm(inv, 2) <= 1.0 + 1e-12
        assert ratio == 1.0
    assert op.kappa_star == 1.0


@pytest.mark.parametrize("kind", sorted(VOLTERRA_KINDS))
@pytest.mark.parametrize("n", [64, 256])
def test_l2_op_norm_matches_dense(kind, n):
    op = VOLTERRA_KINDS[kind](n, "l2_scaled")
    assert math.isclose(op.op_norm, np.linalg.norm(dense_matrix(op), 2), rel_tol=1e-7)


def test_power_iteration_raises_at_maxit():
    op = integration_operator(64, "l2_scaled")
    assert math.isclose(_power_iteration_norm(op.weights), op.op_norm, rel_tol=1e-15)
    with pytest.raises(DomainError, match="did not converge"):
        _power_iteration_norm(op.weights, maxit=1)


def test_postype_estimator_rejects_bad_grids():
    # max(1.0, nan) is 1.0: a non-finite alpha must be refused before it
    # can read as kappa = 1
    for op in (diagonal_operator([1.0, 0.5], "sup"), integration_operator(16)):
        for bad in ([], [1.0, -2.0], [math.nan], [1.0, math.nan], [math.inf]):
            with pytest.raises(DomainError):
                estimate_postype_constant(op, bad)
        with pytest.raises(DomainError):
            shifted_solver(op, math.nan)


def test_solve_then_apply_roundtrip():
    rng = np.random.Generator(np.random.Philox(key=11))
    for op in (integration_operator(96), abel_operator(0.7, 96), exp_decay_diagonal(25)):
        f = op.grid_function(rng.standard_normal(op.dim))
        for alpha in (1e-4, 0.3, 50.0):
            v = shifted_solve(op, alpha, f)
            back = apply(op, v) + alpha * v
            assert (back - f).norm() <= 1e-10 * f.norm()


@given(
    a=st.floats(-3.0, 3.0, allow_nan=False),
    b=st.floats(-3.0, 3.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_is_linear(a, b, seed):
    op = integration_operator(48)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = op.grid_function(rng.standard_normal(op.dim))
    v = op.grid_function(rng.standard_normal(op.dim))
    lhs = apply(op, a * u + b * v)
    rhs = a * apply(op, u) + b * apply(op, v)
    scale = max(lhs.norm(), 1.0)
    assert (lhs - rhs).norm() <= 1e-12 * scale


def test_exp_decay_condition_number():
    op = exp_decay_diagonal(12)
    for k in (2, 5, 12):
        cond = op.weights[0] / op.weights[k - 1]
        assert math.isclose(cond, math.exp(k - 1), rel_tol=1e-12)


def test_abel_row_sums_exact_on_constants():
    n, order = 200, 0.4
    op = abel_operator(order, n)
    x = np.linspace(0.0, 1.0, n + 1)
    rows = dense_matrix(op).sum(axis=1)
    np.testing.assert_allclose(rows, x**order / math.gamma(order + 1.0), rtol=1e-12, atol=1e-15)


def test_omega_is_log_norm():
    for op in (integration_operator(64), abel_operator(0.5, 64), exp_decay_diagonal(10)):
        assert math.isclose(op.omega, math.log(op.op_norm), rel_tol=1e-12)


def test_diagonal_validation():
    with pytest.raises(DomainError):
        diagonal_operator([1.0, -0.5])
    with pytest.raises(DomainError):
        diagonal_operator([0.5, 1.0])  # increasing
    # one singular value: no grid function has one sample, and l2_scaled's
    # spacing 1/(dim - 1) would divide by zero
    for sigma in ([], [0.5]):
        with pytest.raises(DomainError, match="at least 2 singular values"):
            diagonal_operator(sigma)


def test_grid_function_norms():
    u = GridFunction([0.0, -3.0, 2.0], "sup")
    assert u.norm() == 3.0
    v = GridFunction([1.0, 1.0, 1.0], "l2_scaled")
    assert math.isclose(v.norm(), math.sqrt(1.5), rel_tol=1e-14)
    z = GridFunction([0.0, 0.0], "sup")
    assert z.norm() == 0.0
    with pytest.raises(ValueError):
        GridFunction([1.0], "sup")
    with pytest.raises(ValueError):
        GridFunction([1.0, math.inf], "sup")


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_grid_norms_rows_equal_grid_norm(kind):
    # one reduction per block keeps each row's bits of a single np.dot (a
    # one-row block is GridFunction.norm); the scope is one machine, numpy
    # and BLAS build
    rng = np.random.Generator(np.random.Philox(key=11))
    for n in range(2, 1101):
        for rows in (1, 3, 4, 12, 51):
            block = rng.standard_normal((rows, n))
            if kind == "sup":
                want = np.array([np.max(np.abs(row)) for row in block])
            else:
                want = np.array([np.sqrt(1.0 / (n - 1) * np.dot(row, row)) for row in block])
            assert np.array_equal(grid_norms(block, kind), want), (n, rows)


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e170, 1e300])
def test_l2_grid_norm_neither_underflows_nor_overflows(scale):
    # the squares of these rows leave the float range; the norm does not
    block = np.full((2, 10), scale)
    block[1, ::2] = 0.0
    want = scale * np.sqrt(np.array([10.0, 5.0]) / 9.0)
    np.testing.assert_allclose(grid_norms(block, "l2_scaled"), want, rtol=1e-15, atol=0.0)


def test_operator_rescaling():
    op = integration_operator(64)
    sc = op.scaled(0.5)
    assert math.isclose(sc.op_norm, 0.5 * op.op_norm, rel_tol=1e-12)
    assert math.isclose(sc.omega, op.omega + math.log(0.5), rel_tol=1e-12)
    u = op.grid_function(np.linspace(0, 1, op.dim))
    np.testing.assert_allclose(apply(sc, u).values, 0.5 * apply(op, u).values, rtol=1e-13)


def test_only_operators_builds_functions_of_a():
    # every function of A is a SymbolMap built in operators.py from its series
    # algebra; other modules call the built maps and never the algebra itself
    pattern = re.compile(r"SymbolMap\(|_mul\(|series_(exp|log|power|reciprocal)\(|_binomial_lags")
    package = Path(__file__).resolve().parents[1] / "src" / "illposed"
    offending = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "operators.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offending == []
