import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from illposed.errors import DomainError
from illposed.harness import add_noise
from illposed.operators import (
    _one_row,
    abel_operator,
    apply,
    compose,
    diagonal_operator,
    exp_decay_diagonal,
    fractional_power_exact,
    integration_operator,
    log_resolvent_power_map,
    map_power,
    power_map,
    resolvent_pair,
    shifted_solve,
)
from illposed.parameter_choice import DiscrepancyConfig
from illposed.schemes import (
    RegularizerConfig,
    companion_difference,
    qualification_checks,
    regularize,
    regularizer,
)

from oracles import expm_evolve, repeated_shifted_solves

LAV1 = RegularizerConfig("lavrentiev", m=1)
LAV2 = RegularizerConfig("lavrentiev", m=2)
LAV3 = RegularizerConfig("lavrentiev", m=3)
CAUCHY = RegularizerConfig("cauchy")


def scalar_op(s):
    return diagonal_operator([s, s], "sup")


def test_lavrentiev_classical_scalar():
    s, alpha = 0.6, 0.1
    op = scalar_op(s)
    u = regularize(op, LAV1, alpha, op.grid_function([s, s]))
    np.testing.assert_allclose(u.values, s / (s + alpha), rtol=1e-14)


def test_lavrentiev_matches_explicit_resolvent_sum():
    # oracle: u = R_alpha f with
    # R_alpha = alpha^{-1} sum_{j=1}^m alpha^j (A + alpha I)^{-j}
    n, m, alpha = 128, 2, 0.05
    op = integration_operator(n)
    rng = np.random.Generator(np.random.Philox(key=17))
    f = op.grid_function(rng.standard_normal(op.dim))
    got = regularize(op, RegularizerConfig("lavrentiev", m=m), alpha, f)
    r_f = op.zeros()
    term = f
    for _ in range(m):
        term = alpha * shifted_solve(op, alpha, term)
        r_f = r_f + term
    expected = (1.0 / alpha) * r_f
    assert (got - expected).norm() <= 1e-10 * max(expected.norm(), 1.0)


@pytest.mark.parametrize("m", [1, 2, 3, 16])
@pytest.mark.parametrize(
    "make",
    [
        lambda: integration_operator(64),
        lambda: integration_operator(4096),
        lambda: abel_operator(0.5, 256),
        lambda: exp_decay_diagonal(20),
    ],
    ids=["integration64", "integration4096", "abel256", "diagonal20"],
)
def test_lavrentiev_maps_match_repeated_shifted_solves(make, m):
    # The filter's products of T = alpha (A + alpha I)^{-1} against m solves
    # with the same (A + alpha I)^{-1}: in exact arithmetic both give
    # R_alpha g = (1/alpha) sum_{k=1..m} T^k g and S_alpha g = T^m g.  Each route
    # is at most m + 1 products of lower Toeplitz maps, dot products of at most
    # N terms (N = 1 on the diagonal kind), with a scalar product and a sum per
    # step, so each is within gamma_K, K = (m + 1) (N + 2), of that value
    # relative to the same products taken on |T| and |g| (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, sec. 3.5).  Largest gaps seen:
    # 5.3e-15 of the result's largest entry, and 0.23 of the bound.
    op = make()
    rng = np.random.Generator(np.random.Philox(key=19))
    g = rng.standard_normal((2, op.dim))
    k = (m + 1) * ((op.n if op.is_volterra else 1) + 2)
    gamma = k * (np.finfo(float).eps / 2) / (1 - k * np.finfo(float).eps / 2)
    for ratio in (1e-6, 1e-2, 1.0):
        alpha = ratio * op.op_norm
        reg = regularizer(op, RegularizerConfig("lavrentiev", m=m), alpha)
        reach, decay = repeated_shifted_solves(op, m, alpha, g)
        step = resolvent_pair(op, alpha)[0]
        magnitude, magnitudes = np.abs(g), np.zeros_like(g)
        for _ in range(m):
            magnitude = replace(step, symbol=np.abs(step.symbol))(magnitude)
            magnitudes += magnitude
        assert np.all(np.abs(reg.apply(g) - reach) <= 2.0 * gamma * magnitudes / alpha)
        assert np.all(np.abs(reg.companion(g) - decay) <= 2.0 * gamma * magnitude)


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
    f, u = rng.standard_normal((2, 4, op.dim))
    cfgs = [RegularizerConfig("lavrentiev", m=m) for m in (1, 2, 3)] + [CAUCHY]
    for cfg in cfgs:
        for ratio in (1e-6, 1e-2, 1.0):
            alpha = ratio * op.op_norm
            reg = regularizer(op, cfg, alpha)
            r_f, s_u = reg.apply(f), reg.companion(u)
            for i in range(f.shape[0]):
                fi, ui = op.grid_function(f[i]), op.grid_function(u[i])
                assert np.array_equal(r_f[i], regularize(op, cfg, alpha, fi).values)
                assert np.array_equal(s_u[i], _one_row(op, reg.companion, ui).values)


def test_regularizer_rejects_nonfinite_blocks():
    op = integration_operator(16)
    block = np.ones((2, op.dim))
    block[1, 3] = np.inf
    reg = regularizer(op, LAV2, 0.1)
    for result in (lambda: reg.apply(block), lambda: reg.companion(block)):
        with pytest.raises(ValueError, match="finite"):
            result()


@pytest.mark.parametrize("op", [abel_operator(0.5, 16), exp_decay_diagonal(16)], ids=["abel", "diagonal"])
def test_maps_that_are_not_filters_reject_nonfinite_blocks(op):
    # A^p, the log-resolvent power and the qualification map T G of m = 2 at
    # p = 1 refuse a non-finite result as the filters do
    block = np.ones((2, op.dim))
    block[1, 3] = np.nan
    step, gap = resolvent_pair(op, 0.1 * op.op_norm)
    maps = [
        power_map(op, 0.5),
        log_resolvent_power_map(op, op.omega + 1.0, 2),
        compose(map_power(step, 1.0), map_power(gap, 1.0)),
    ]
    for f in maps:
        with pytest.raises(ValueError, match="finite"):
            f(block)


def test_lavrentiev_rejects_nonpositive_alpha():
    op = scalar_op(1.0)
    with pytest.raises(DomainError):
        regularize(op, LAV1, 0.0, op.ones())


@pytest.mark.parametrize(
    "call",
    [
        lambda: regularizer(integration_operator(16), CAUCHY, math.nan),
        lambda: regularizer(exp_decay_diagonal(5), CAUCHY, math.inf),
        lambda: companion_difference(integration_operator(16), CAUCHY, 1.0, math.inf),
        lambda: companion_difference(exp_decay_diagonal(5), CAUCHY, math.nan, 1.0),
        lambda: qualification_checks(integration_operator(16), CAUCHY, [0.0], [math.inf]),
        lambda: qualification_checks(integration_operator(16), CAUCHY, [0.0], [math.nan]),
        lambda: add_noise(exp_decay_diagonal(5).ones(), math.nan, 1),
        lambda: add_noise(exp_decay_diagonal(5).ones(), math.inf, 1),
        lambda: DiscrepancyConfig(math.nan, math.nan),
        lambda: DiscrepancyConfig(1.0, math.inf),
        lambda: integration_operator(8).scaled(math.nan),
        lambda: exp_decay_diagonal(4).scaled(math.inf),
    ],
    ids=[
        "regularizer-nan",
        "regularizer-inf",
        "companion-difference-inf",
        "companion-difference-nan",
        "qualification-inf",
        "qualification-nan",
        "noise-nan",
        "noise-inf",
        "band-nan",
        "band-inf",
        "scaled-nan",
        "scaled-inf",
    ],
)
def test_nonfinite_parameters_raise_domain_error(call):
    # alpha, a band edge, a grid entry or a scale factor that is not finite
    # would build NaN or zero maps, or a sup of 1, instead of failing at the call
    with pytest.raises(DomainError):
        call()


def test_cauchy_scalar_closed_form_integrator():
    op = integration_operator(32)
    u = regularize(op, CAUCHY, 1.0, op.ones())
    expected = expm_evolve(op, 1.0, op.ones(), op.zeros())
    assert (u - expected).norm() <= 1e-12 * expected.norm()


def test_cauchy_exact_diagonal_path():
    s = 0.7
    op = scalar_op(s)
    u = regularize(op, CAUCHY, 0.5, op.ones())
    np.testing.assert_allclose(u.values, (1.0 - math.exp(-2.0 * s)) / s, rtol=1e-13)


def test_cauchy_initial_condition():
    # u(0) = 0: at t = 1/alpha = 1e-6, u(t) = phi_t(A) f is about t f
    op = integration_operator(64)
    f = op.ones()
    u = regularize(op, CAUCHY, 1e6, f)
    assert u.norm() <= 1e-5 * f.norm()


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
        v = regularize(op, CAUCHY, alpha, f)
        v_ref = expm_evolve(op, 1.0 / alpha, f, op.zeros())
        assert np.all(np.isfinite(v.values))
        assert (v - v_ref).norm() <= 1e-12 * v_ref.norm()


def test_companion_large_alpha_approaches_identity():
    op = integration_operator(64)
    u = op.grid_function(np.linspace(0.0, 1.0, op.dim))
    alpha = 1e6 * op.op_norm
    v = _one_row(op, regularizer(op, LAV2, alpha).companion, u)
    assert (v - u).norm() <= 1e-4 * u.norm()


def test_regularize_scalar_arithmetic():
    # sigma = 1, u_true = 1, noisy datum 1.01, alpha = 0.1
    op = scalar_op(1.0)
    u = regularize(op, LAV1, 0.1, op.grid_function([1.01, 1.01]))
    np.testing.assert_allclose(u.values, 1.01 / 1.1, rtol=1e-14)


def test_regularize_error_decomposition():
    # u_alpha - u_true = -S_alpha u_true - R_alpha (A u_true - f_delta)
    op = exp_decay_diagonal(20)
    rng = np.random.Generator(np.random.Philox(key=23))
    u_true = op.grid_function(rng.standard_normal(op.dim))
    f_delta = apply(op, u_true) + 0.01 * op.grid_function(rng.standard_normal(op.dim))
    for cfg in (LAV2, CAUCHY):
        alpha = 0.05
        lhs = regularize(op, cfg, alpha, f_delta) - u_true
        reg = regularizer(op, cfg, alpha)
        rhs = -1.0 * _one_row(op, reg.companion, u_true) - _one_row(
            op, reg.apply, apply(op, u_true) - f_delta
        )
        assert (lhs - rhs).norm() <= 1e-11 * max(lhs.norm(), 1.0)


def test_regularize_alpha_ladder_monotone_on_exact_data():
    op = exp_decay_diagonal(25)
    u_true = op.grid_function(np.linspace(1.0, 0.5, op.dim))
    f = apply(op, u_true)
    errs = []
    for alpha in (1.0, 0.1, 0.01, 1e-3, 1e-4):
        u = regularize(op, LAV2, alpha, f)
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


def test_qualification_builds_no_map_of_the_identity(monkeypatch):
    # T^{m-p} G^p is built from its factors of nonzero power only: T^m at
    # p = 0 and G^m at p = m, with no power 0 and no product by the identity
    import illposed.schemes as schemes

    exponents, power = [], schemes.map_power

    def recording(f, p):
        exponents.append(p)
        return power(f, p)

    monkeypatch.setattr(schemes, "map_power", recording)
    qualification_checks(integration_operator(64), LAV2, [0.0, 0.5, 1.0, 2.0], [0.01, 0.1])
    assert sorted(exponents) == sorted([2.0, 1.5, 0.5, 1.0, 1.0, 2.0] * 2)


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
    # R_alpha and A are functions of one symbol, so R_alpha A u = A R_alpha u
    # exactly; the computed gap is rounding: each side is a chain of
    # dim-term products of entries of size about max(||R_alpha A u||, ||u||)
    rng = np.random.Generator(np.random.Philox(key=29))
    for norm in ("sup", "l2_scaled"):
        ops = (
            exp_decay_diagonal(20, norm),
            integration_operator(96, norm),
            abel_operator(0.5, 96, norm),
        )
        for op in ops:
            u = op.grid_function(rng.standard_normal(op.dim))
            au = apply(op, u)
            for cfg in (LAV2, CAUCHY):
                for ratio in (1e-6, 1e-2, 0.5):
                    reg = regularizer(op, cfg, ratio * op.op_norm)
                    rau = _one_row(op, reg.apply, au)
                    gap = (rau - apply(op, _one_row(op, reg.apply, u))).norm()
                    rounding = np.finfo(float).eps * op.dim * max(rau.norm(), u.norm())
                    assert rounding <= 1e-10 * max(au.norm(), 1.0)
                    assert gap <= rounding, (op.kind, norm, cfg.scheme, ratio)


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


@pytest.mark.parametrize("cfg", [LAV1, LAV2, LAV3, CAUCHY], ids=["lav1", "lav2", "lav3", "cauchy"])
def test_companion_difference_matches_decimal_arithmetic_on_the_diagonal(cfg):
    # S_{a1} - S_{a0} at relative step 1e-6, where subtracting the two
    # companions loses six digits, against 50-digit decimal arithmetic on each
    # singular value: (a1/(s + a1))^m - (a0/(s + a0))^m, or
    # e^{-t1 s} - e^{-t0 s} at the float t = 1.0/a that the evolution method
    # uses, within a few eps times the condition number: m, or 1 + t s, since
    # exp(-t s) carries the rounding of the product t s
    op = exp_decay_diagonal(25)
    u = np.linspace(1.0, 0.2, op.dim)
    for a0 in (1e-3, 0.1):
        a1 = a0 * (1.0 + 1e-6)
        got = companion_difference(op, cfg, a0, a1)(u[None])[0]
        with localcontext() as ctx:
            ctx.prec = 50
            d0, d1 = Decimal(a0), Decimal(a1)
            t0, t1 = Decimal(1.0 / a0), Decimal(1.0 / a1)
            want = []
            for s, v in zip(map(Decimal, op.weights.tolist()), map(Decimal, u.tolist())):
                if cfg.scheme == "cauchy":
                    diff = (-t1 * s).exp() - (-t0 * s).exp()
                else:
                    diff = (d1 / (s + d1)) ** cfg.m - (d0 / (s + d0)) ** cfg.m
                want.append(float(diff * v))
        cond = 1.0 + op.weights / a0 if cfg.scheme == "cauchy" else float(cfg.m)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - want) <= 8.0 * eps * cond * np.abs(want))


@pytest.mark.parametrize("cfg", [LAV1, LAV2, LAV3, CAUCHY], ids=["lav1", "lav2", "lav3", "cauchy"])
def test_companion_difference_is_the_difference_of_companions(cfg):
    # on every kind, with a0 < a1 and a0 > a1; a subtraction of the two
    # companions keeps about 16 + log10(step) digits of their difference
    rng = np.random.Generator(np.random.Philox(key=5))
    for op in (exp_decay_diagonal(25), integration_operator(64), abel_operator(0.5, 64)):
        u = op.grid_function(rng.standard_normal(op.dim))
        a0 = 0.1 * op.op_norm
        for step, rtol in ((1.0, 1e-12), (-0.5, 1e-12), (1e-6, 1e-8)):
            a1 = a0 * (1.0 + step)
            s0 = _one_row(op, regularizer(op, cfg, a0).companion, u)
            s1 = _one_row(op, regularizer(op, cfg, a1).companion, u)
            got = _one_row(op, companion_difference(op, cfg, a0, a1), u)
            assert (got - (s1 - s0)).norm() <= rtol * got.norm()


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
