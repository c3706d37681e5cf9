import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import illposed.operators as operators_module
from illposed.errors import DomainError
from illposed.operators import (
    SymbolMap,
    _binomial_lags,
    _one_row,
    abel_operator,
    apply,
    diagonal_operator,
    exp_decay_diagonal,
    fractional_power_exact,
    integration_operator,
    log_resolvent_power_map,
    operator_map,
    power_map,
    product_integration_weights,
    series_exp,
    series_log,
    series_power,
    shifted_solve,
    shifted_solver,
)
from illposed.schemes import RegularizerConfig, regularizer

from oracles import (
    BalakrishnanQuadrature,
    QuadratureBoundsWarning,
    check_interpolation_inequality,
    fractional_power_balakrishnan,
    product_integration_map,
    series_exp_reversed_view,
    series_log_recurrence,
    series_power_recurrence,
)

# positive, nonincreasing lag vectors: a_0 times a running product of ratios
lag_vectors = st.builds(
    lambda a0, ratios: a0 * np.cumprod([1.0] + ratios),
    st.floats(1e-3, 10.0),
    st.lists(st.floats(0.05, 1.0), max_size=40),
)


def _operator(kind, norm, n, order):
    if kind == "diagonal":
        return exp_decay_diagonal(n, norm)
    if kind == "integration":
        return integration_operator(n, norm)
    return abel_operator(order, n, norm)


# every kind in both norms: diagonal with sigma_k = e^{-k}, integration, and
# abel of any order in (0, 1], on up to 48 cells or modes
operators = st.builds(
    _operator,
    st.sampled_from(["diagonal", "integration", "abel"]),
    st.sampled_from(["sup", "l2_scaled"]),
    st.integers(2, 48),
    st.floats(0.1, 1.0),
)


def _random_element(op, key):
    return op.grid_function(np.random.Generator(np.random.Philox(key=key)).standard_normal(op.dim))


def test_power_zero_is_identity():
    op = integration_operator(64)
    u = op.grid_function(np.sin(np.linspace(0, 3, op.dim)))
    assert np.array_equal(fractional_power_exact(op, 0.0, u).values, u.values)
    assert np.array_equal(_one_row(op, product_integration_map(op, 0.0), u).values, u.values)


def test_power_diagonal_sqrt():
    op = diagonal_operator([4.0, 4.0], "sup")
    v = fractional_power_exact(op, 0.5, op.ones())
    np.testing.assert_allclose(v.values, [2.0, 2.0], rtol=1e-14)


def test_product_integration_family_exact_on_constants():
    # oracle: J_a(1) = x^a / Gamma(1+a), met exactly by construction
    op = integration_operator(256)
    x = np.linspace(0.0, 1.0, 257)
    v = _one_row(op, product_integration_map(op, 0.5), op.ones())
    np.testing.assert_allclose(v.values, np.sqrt(x) / math.gamma(1.5), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [128, 256, 512])
def test_exact_half_power_monomial_oracle(n):
    # oracle: J_a(xi^b) = Gamma(b+1)/Gamma(b+1+a) x^{b+a}; sup error <= C/sqrt(n)
    op = integration_operator(n)
    x = np.linspace(0.0, 1.0, n + 1)
    got = fractional_power_exact(op, 0.5, op.ones())
    want = np.sqrt(x) / math.gamma(1.5)  # equals 2 sqrt(x/pi)
    assert np.max(np.abs(got.values - want)) <= 0.5 / math.sqrt(n)


def test_exact_half_power_error_shrinks_with_n():
    errs = []
    for n in (128, 256, 512):
        op = integration_operator(n)
        x = np.linspace(0.0, 1.0, n + 1)
        got = fractional_power_exact(op, 0.5, op.ones())
        errs.append(np.max(np.abs(got.values - np.sqrt(x) / math.gamma(1.5))))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_balakrishnan_scalar():
    op = diagonal_operator([1.0, 1.0], "sup")
    v = fractional_power_balakrishnan(op, 0.5, op.ones())
    np.testing.assert_allclose(v.values, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.5])
def test_balakrishnan_matches_exact_on_integration(p):
    op = integration_operator(256)
    u = op.ones()
    b = fractional_power_balakrishnan(op, p, u)
    e = fractional_power_exact(op, p, u)
    assert (b - e).norm() <= 1e-3 * e.norm()


def test_balakrishnan_matches_exact_on_diagonal():
    op = exp_decay_diagonal(30)
    u = op.ones()
    for p in (0.25, 0.5, 0.75, 1.5):
        b = fractional_power_balakrishnan(op, p, u)
        e = fractional_power_exact(op, p, u)
        assert (b - e).norm() <= 1e-3 * e.norm()


def test_balakrishnan_tight_quadrature():
    # 8000 nodes over a wider window: relative error at most 1e-5
    for op in (integration_operator(256), exp_decay_diagonal(30)):
        quad = BalakrishnanQuadrature.default(op, nodes=8000, s_min_factor=1e-24, s_max_factor=1e24)
        for p in (0.25, 0.75):
            b = fractional_power_balakrishnan(op, p, op.ones(), quad)
            e = fractional_power_exact(op, p, op.ones())
            assert (b - e).norm() <= 1e-5 * e.norm()


def test_balakrishnan_composition_contract():
    op = integration_operator(128)
    u = op.grid_function(np.linspace(0.0, 1.0, op.dim))
    direct = fractional_power_balakrishnan(op, 1.5, u)
    composed = apply(op, fractional_power_balakrishnan(op, 0.5, u))
    assert (direct - composed).norm() <= 1e-10 * max(direct.norm(), 1e-300)


def test_balakrishnan_rejects_nonpositive_p():
    op = diagonal_operator([1.0, 0.5], "sup")
    with pytest.raises(DomainError):
        fractional_power_balakrishnan(op, 0.0, op.ones())


def test_balakrishnan_warns_on_narrow_bounds():
    op = diagonal_operator([1.0, 0.5], "sup")
    quad = BalakrishnanQuadrature(tau_min=math.log(1e-3), tau_max=math.log(10.0), nodes=64)
    with pytest.warns(QuadratureBoundsWarning):
        fractional_power_balakrishnan(op, 0.5, op.ones(), quad)


def test_quadrature_validation():
    with pytest.raises(DomainError):
        BalakrishnanQuadrature(tau_min=1.0, tau_max=0.0)
    with pytest.raises(DomainError):
        BalakrishnanQuadrature(tau_min=0.0, tau_max=1.0, nodes=4)


def _builder_maps(op):
    """Every SymbolMap builder of the library and of the oracles, at one or two parameters each."""
    alpha = 1e-2 * op.op_norm
    cauchy = regularizer(op, RegularizerConfig("cauchy"), alpha)
    return {
        "A": operator_map(op),
        "shifted": shifted_solver(op, alpha),
        "power 0": power_map(op, 0.0),
        "power 0.5": power_map(op, 0.5),
        "power 2": power_map(op, 2.0),
        "product integration 0.5": product_integration_map(op, 0.5),
        "log resolvent nu=2": log_resolvent_power_map(op, op.omega + 1.0, 2),
        "e^{-tA}": cauchy._companion,
        "phi_t(A)": cauchy._apply,
    }


def test_quotient_maps_divide():
    # the shifted inverse and the diagonal log-resolvent power divide by the
    # shifted symbol, as a direct solve rounds; a reciprocal times f differs
    # in the last bit
    op = exp_decay_diagonal(40)
    f = _random_element(op, 5)
    block = np.random.Generator(np.random.Philox(key=6)).standard_normal((40, 33))
    volterra = integration_operator(32)
    for alpha in (1e-9, 1e-3, 0.7):
        got = shifted_solve(op, alpha, f).values
        assert np.array_equal(got, f.values / (op.weights + alpha))
        # node 0 of a Volterra kind, where A vanishes: f_0 / alpha
        assert np.array_equal(shifted_solver(volterra, alpha)(block)[:, 0], block[:, 0] / alpha)
    lam = op.omega + 1.0
    for nu in (1, 2, 3):
        got = _one_row(op, log_resolvent_power_map(op, lam, nu), f).values
        assert np.array_equal(got, f.values / (lam - np.log(op.weights)) ** nu)


@pytest.mark.parametrize(
    "op",
    [exp_decay_diagonal(33), integration_operator(32), abel_operator(0.5, 32)],
    ids=["diagonal", "integration", "abel-1/2"],
)
def test_builder_block_rows_equal_single_calls(op):
    rng = np.random.Generator(np.random.Philox(key=11))
    block = rng.standard_normal((3, op.dim))
    for name, fmap in _builder_maps(op).items():
        assert isinstance(fmap, SymbolMap), name
        mapped = fmap(block)
        for row, values in zip(mapped, block):
            assert np.array_equal(row, _one_row(op, fmap, op.grid_function(values)).values), name


def test_semigroup_exact_family_is_exact():
    # the matrix-power family composes exactly (up to roundoff) at fixed n
    for op in (integration_operator(256), abel_operator(0.5, 128)):
        u = op.grid_function(np.linspace(0.0, 1.0, op.dim) ** 2)
        lhs = fractional_power_exact(op, 0.3, fractional_power_exact(op, 0.4, u))
        rhs = fractional_power_exact(op, 0.7, u)
        assert (lhs - rhs).norm() <= 1e-11 * max(rhs.norm(), 1e-300)


def test_semigroup_product_integration_defect_shrinks():
    # the continuum-reference family is a semigroup only in the limit:
    # its composition defect must drop by at least 25% per grid doubling
    defects = []
    for n in (128, 256, 512):
        op = integration_operator(n)
        x = np.linspace(0.0, 1.0, n + 1)
        u = op.grid_function(x * (1.0 - x))
        half = _one_row(op, product_integration_map(op, 0.4), u)
        lhs = _one_row(op, product_integration_map(op, 0.3), half)
        rhs = _one_row(op, product_integration_map(op, 0.7), u)
        defects.append((lhs - rhs).norm())
    assert defects[1] <= 0.75 * defects[0]
    assert defects[2] <= 0.75 * defects[1]


def test_strong_continuity_toward_identity():
    ps = [0.2, 0.1, 0.05, 0.025]
    op = exp_decay_diagonal(20)
    u = op.grid_function(np.linspace(1.0, 0.3, op.dim))
    errs = [(fractional_power_exact(op, p, u) - u).norm() for p in ps]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    opj = integration_operator(256)
    x = np.linspace(0.0, 1.0, opj.dim)
    uj = opj.grid_function(x * (1.0 - x))
    errs_j = [(fractional_power_exact(opj, p, uj) - uj).norm() for p in ps]
    assert all(a > b for a, b in zip(errs_j, errs_j[1:]))


def test_interpolation_inequality_scalar_equality():
    op = diagonal_operator([0.7, 0.7], "sup")
    rep = check_interpolation_inequality(op, 0.3, 0.8, op.ones())
    assert math.isclose(rep["ratio"], 1.0, rel_tol=1e-12)
    assert rep["holds"] is None  # certified constant exists only for q = 1


def test_interpolation_inequality_certified_q1():
    rng = np.random.Generator(np.random.Philox(key=42))
    for op in (integration_operator(128), exp_decay_diagonal(25)):
        c = 2.0 * (op.kappa_star + 1.0)
        for _ in range(100):
            u = op.grid_function(rng.standard_normal(op.dim))
            rep = check_interpolation_inequality(op, 0.5, 1.0, u)
            assert rep["holds"]
            assert rep["constant_used"] == c


def test_interpolation_inequality_zero_vector():
    op = diagonal_operator([1.0, 0.5], "sup")
    rep = check_interpolation_inequality(op, 0.5, 1.0, op.zeros())
    assert rep["lhs"] == rep["rhs"] == 0.0
    assert rep["holds"]


def test_interpolation_inequality_rejects_bad_orders():
    op = diagonal_operator([1.0, 0.5], "sup")
    with pytest.raises(DomainError):
        check_interpolation_inequality(op, 1.0, 0.5, op.ones())
    with pytest.raises(DomainError):
        check_interpolation_inequality(op, 0.0, 1.0, op.ones())


@given(lag_vectors)
def test_series_exp_inverts_series_log(a):
    np.testing.assert_allclose(series_exp(series_log(a)), a, rtol=0, atol=1e-12 * a[0])


@pytest.mark.parametrize("n", [2, 3, 17, 128, 512, 1100])
def test_series_exp_reversed_buffer_keeps_bits(n):
    # each step hands ddot the operands that a reversed view of b gave it
    lags = product_integration_weights(0.5, n)
    rng = np.random.Generator(np.random.Philox(key=n))
    for g in [-t * lags for t in (1e-3, 1.0, 10.0, 1000.0)] + [rng.standard_normal(n)]:
        assert np.array_equal(series_exp(g), series_exp_reversed_view(g))


@given(lag_vectors, st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_series_exp_semigroup(a, s, t):
    # e^{-sA} e^{-tA} = e^{-(s+t)A} in the Toeplitz algebra
    lhs = np.convolve(series_exp(-s * a), series_exp(-t * a))[: a.size]
    rhs = series_exp(-(s + t) * a)
    assert np.all(np.isfinite(rhs))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * max(1.0, np.abs(rhs).max()))


@given(lag_vectors, st.floats(-2.0, 2.0))
def test_series_power_is_exp_of_scaled_log(a, p):
    expected = series_exp(p * series_log(a))
    np.testing.assert_allclose(
        series_power(a, p), expected, rtol=0, atol=1e-12 * np.abs(expected).max()
    )


def _shifted_log(a):
    """lam - log a(z) with lam = log(sum a) + 1, the symbol of lam I - log A in sup."""
    out = -series_log_recurrence(a)
    out[0] += math.log(a.sum()) + 1.0
    return out


SERIES_FAMILIES = {
    "integration": lambda n: np.full(n, 1.0 / n),
    "abel-0.25": lambda n: product_integration_weights(0.25, n),
    "abel-0.5": lambda n: product_integration_weights(0.5, n),
    "abel-1": lambda n: product_integration_weights(1.0, n),
    "lam - log abel-0.5": lambda n: _shifted_log(product_integration_weights(0.5, n)),
}


def _assert_normwise_close(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2, 3, 128, 512, 4096])
@pytest.mark.parametrize("family", SERIES_FAMILIES)
def test_series_log_and_power_match_recurrences(family, n):
    # the reciprocal-series log, square-and-multiply and exp-of-log against
    # the logarithmic-derivative recurrences
    a = SERIES_FAMILIES[family](n)
    _assert_normwise_close(series_log(a), series_log_recurrence(a), 1e-12)
    for p in (-3, -2, -1, 0, 1, 2, 3, 0.01, 0.5, 1.5):
        _assert_normwise_close(series_power(a, p), series_power_recurrence(a, p), 1e-12)


def test_huge_integer_power_is_square_and_multiply(monkeypatch):
    # p = 2^40 takes 40 squarings, not 2^40 products
    p = 2**40
    a = np.concatenate(([1.0], 1e-14 * 0.5 ** np.arange(63)))
    products = []
    mul = operators_module._mul

    def counting_mul(x, y, k):
        products.append(k)
        return mul(x, y, k)

    monkeypatch.setattr(operators_module, "_mul", counting_mul)
    got = series_power(a, p)
    assert len(products) == 40
    monkeypatch.undo()
    np.testing.assert_allclose(got, series_exp(p * series_log(a)), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q", [0.25, 0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 1.5, 3.0])
def test_binomial_lags_match_series_power(q):
    # h^q (1 - z)^{-q} is the q-th power of the integration lags h / (1 - z);
    # series_power reaches it by square-and-multiply at integer q and as
    # h^q exp(q log(1 / (1 - z))) otherwise
    n = 512
    h = 1.0 / n
    np.testing.assert_allclose(
        _binomial_lags(h, q, n), series_power(np.full(n, h), q), rtol=1e-12, atol=0.0
    )


@given(operators, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_shifted_solve_inverts_shift(op, key, log_rel_alpha):
    # (A + alpha I)^{-1} (A + alpha I) u = u, up to the condition number
    u = _random_element(op, key)
    alpha = 10.0**log_rel_alpha * op.op_norm
    v = shifted_solve(op, alpha, apply(op, u) + alpha * u)
    assert (v - u).norm() <= 1e-12 * (1.0 + op.op_norm / alpha) * u.norm()


@given(
    operators,
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 3.0),
    st.sampled_from(
        [RegularizerConfig("lavrentiev", m) for m in (1, 2, 3)] + [RegularizerConfig("cauchy")]
    ),
)
def test_regularizer_commutes_with_operator(op, key, log_rel_alpha, cfg):
    # R_alpha A u = A R_alpha u, measured against ||A|| ||u|| / alpha
    u = _random_element(op, key)
    alpha = 10.0**log_rel_alpha * op.op_norm
    lhs = _one_row(op, regularizer(op, cfg, alpha).apply, apply(op, u))
    rhs = apply(op, _one_row(op, regularizer(op, cfg, alpha).apply, u))
    assert (lhs - rhs).norm() <= 1e-12 * op.op_norm * u.norm() / alpha


@given(operators, st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_fractional_powers_add(op, key, p, q):
    # A^p A^q u = A^{p+q} u, measured against ||A||^{p+q} ||u||
    u = _random_element(op, key)
    lhs = fractional_power_exact(op, p, fractional_power_exact(op, q, u))
    rhs = fractional_power_exact(op, p + q, u)
    assert (lhs - rhs).norm() <= 1e-12 * op.op_norm ** (p + q) * u.norm()
