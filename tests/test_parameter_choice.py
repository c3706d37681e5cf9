import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import illposed.parameter_choice as parameter_choice
from illposed.errors import DomainError
from illposed.harness import add_noise, load_config, run_rate_experiment
from illposed.operators import _one_row, abel_operator, apply, diagonal_operator, exp_decay_diagonal
from illposed.parameter_choice import (
    ChiParams,
    DiscrepancyConfig,
    apriori_alpha,
    chi,
    chi_inverse,
    discrepancy_alpha,
    discrepancy_alphas,
)
from illposed.schemes import Regularizer, RegularizerConfig, regularizer

LAV2 = RegularizerConfig("lavrentiev", m=2)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_chi_at_inverse_e():
    for q in (0.5, 1.0, 2.0):
        assert math.isclose(chi(ChiParams(q, 1.0, "-"), math.exp(-1.0)), math.exp(-q), rel_tol=1e-14)


def test_chi_direct_value():
    # 0.1 / log(10), frozen from independent arithmetic
    assert math.isclose(chi(ChiParams(1.0, 1.0, "-"), 0.1), 0.04342944819032518, rel_tol=1e-14)


def test_chi_plus_sign():
    t = 0.2
    assert math.isclose(
        chi(ChiParams(1.0, 2.0, "+"), t), t * math.log(1.0 / t) ** 2, rel_tol=1e-14
    )


def test_chi_monotone_increasing_for_minus_sign():
    ts = np.linspace(1e-6, 1.0 - 1e-6, 4000)
    for q, mu in ((0.5, 1.0), (1.0, 1.0), (2.0, 3.0)):
        vals = [chi(ChiParams(q, mu, "-"), float(t)) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_chi_domain():
    with pytest.raises(DomainError):
        chi(ChiParams(1.0, 1.0, "-"), 0.0)
    with pytest.raises(DomainError):
        chi(ChiParams(1.0, 1.0, "-"), 1.0)
    with pytest.raises(DomainError):
        ChiParams(-1.0, 1.0, "-")
    with pytest.raises(DomainError):
        ChiParams(1.0, 1.0, "*")


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("mu", [1.0, 2.0])
@pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
def test_chi_inverse_round_trip(q, mu, s):
    t = chi_inverse(q, mu, s)
    assert 0.0 < t < 1.0
    assert abs(chi(ChiParams(q, mu, "-"), t) - s) <= 1e-10 * s


@given(
    q=st.floats(0.5, 3.0),
    mu=st.floats(0.5, 3.0),
    expo=st.floats(0.5, 8.0),
)
def test_chi_inverse_round_trip_property(q, mu, expo):
    # keep s inside the range of the monotone branch t <= exp(-mu/q)
    s_cap = math.exp(-mu) * (mu / q) ** -mu
    s = s_cap * 10.0**-expo
    t = chi_inverse(q, mu, s)
    assert abs(chi(ChiParams(q, mu, "-"), t) - s) <= 1e-10 * s


def test_chi_inverse_asymptotic():
    # chi_inverse(q, mu, s) ~ q^{-mu/q} s^{1/q} log^{mu/q}(1/s); the pairs
    # below are within 25% of the limit at s = 1e-12, and the approach is
    # monotone in s for every pair
    def asym(q, mu, s):
        return q ** (-mu / q) * s ** (1.0 / q) * math.log(1.0 / s) ** (mu / q)

    for q, mu in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
        r = chi_inverse(q, mu, 1e-12) / asym(q, mu, 1e-12)
        assert abs(r - 1.0) <= 0.25
    for q, mu in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
        gaps = [abs(chi_inverse(q, mu, s) / asym(q, mu, s) - 1.0) for s in (1e-6, 1e-9, 1e-12)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_chi_scaling_limit():
    # chi_{q,+-mu}(kappa t) / (kappa^q chi_{q,+-mu}(t)) -> 1 as t -> 0
    t, kap = 1e-10, 2.0
    for q, mu in ((1.0, 1.0), (2.0, 2.0)):
        for sign in ("-", "+"):
            params = ChiParams(q, mu, sign)
            r = chi(params, kap * t) / (kap**q * chi(params, t))
            assert abs(r - 1.0) <= 0.10


def test_chi_inverse_domain():
    with pytest.raises(DomainError):
        chi_inverse(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        chi_inverse(1.0, 1.0, 10.0)  # beyond the branch range


def test_apriori_values():
    # p = 0, nu = 1, c0 = 1, delta = e^{-10}: alpha = 10 e^{-10}
    assert math.isclose(apriori_alpha(math.exp(-10.0), 0.0, 1), 10.0 * math.exp(-10.0), rel_tol=1e-14)
    # p = 1, nu = 2, delta = e^{-4}: alpha = 4 e^{-2}, frozen independently
    assert math.isclose(apriori_alpha(math.exp(-4.0), 1.0, 2), 0.5413411329464508, rel_tol=1e-13)


def test_apriori_monotone_in_delta():
    deltas = [10.0**-k for k in range(3, 10)]
    for p, nu in ((0.0, 1), (1.0, 2)):
        alphas = [apriori_alpha(d, p, nu) for d in deltas]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_apriori_domain():
    with pytest.raises(DomainError):
        apriori_alpha(0.0, 0.0, 1)
    with pytest.raises(DomainError):
        apriori_alpha(1.5, 0.0, 1)


def test_apriori_consistent_with_chi_inverse():
    # alpha(delta) and chi_inverse(p+1, nu, delta) agree within a factor 2
    for p, nu in ((0.0, 1), (1.0, 1)):
        for d in (1e-6, 1e-8, 1e-10):
            ratio = apriori_alpha(d, p, nu) / chi_inverse(p + 1.0, float(nu), d)
            assert 0.5 <= ratio <= 2.0


def test_discrepancy_degenerate_branch():
    # ||f_delta|| <= b1 delta: u = 0 already fits the data, alpha = infinity
    op = exp_decay_diagonal(15)
    u_true = op.grid_function(np.linspace(1.0, 0.2, op.dim))
    f = apply(op, u_true)
    dcfg = DiscrepancyConfig(b0=6.0, b1=8.0)
    alpha, u, residual = discrepancy_alpha(op, LAV2, dcfg, f, f.norm() / 8.0)
    assert math.isinf(alpha)
    assert u.norm() == 0.0
    assert residual == f.norm()


def test_discrepancy_scalar_bruteforce():
    # sigma = 1, u_true = 1, f_delta = 1 + delta: the residual is
    # r(alpha) = (alpha/(1+alpha))^2 (1 + delta), solvable in closed form
    # (the walk starts at ||A|| = 1; b0 = 6 clears the certified bound (kappa+1)^2 = 4)
    delta, b0, b1 = 1e-3, 6.0, 8.0
    op = diagonal_operator([1.0, 1.0], "sup")
    f_delta = op.grid_function([1.0 + delta, 1.0 + delta])
    dcfg = DiscrepancyConfig(b0=b0, b1=b1)
    alpha, _, residual = discrepancy_alpha(op, LAV2, dcfg, f_delta, delta)
    assert b0 * delta <= residual <= b1 * delta
    lo = math.sqrt(b0 * delta / (1.0 + delta))
    hi = math.sqrt(b1 * delta / (1.0 + delta))
    assert lo / (1.0 - lo) <= alpha <= hi / (1.0 - hi)
    # brute-force scan confirms the analytic bracket
    alphas = np.logspace(-4, 0, 4000)
    resid = (alphas / (1.0 + alphas)) ** 2 * (1.0 + delta)
    in_band = alphas[(resid >= b0 * delta) & (resid <= b1 * delta)]
    assert in_band.min() <= alpha <= in_band.max()


def test_discrepancy_residual_in_band_on_random_instances():
    rng = np.random.Generator(np.random.Philox(key=37))
    for trial in range(20):
        k = 10 + int(rng.integers(0, 30))
        op = exp_decay_diagonal(k)
        u_true = op.grid_function(rng.standard_normal(op.dim))
        delta = 10.0 ** float(-rng.uniform(2.0, 5.0))
        f_delta = add_noise(apply(op, u_true), delta, seed=1000 + trial)
        dcfg = DiscrepancyConfig(b0=6.0, b1=8.0)
        alpha, _, residual = discrepancy_alpha(op, LAV2, dcfg, f_delta, delta)
        if math.isinf(alpha):
            assert residual <= 8.0 * delta
        else:
            assert 6.0 * delta <= residual <= 8.0 * delta


def test_discrepancy_requires_saturation_above_one():
    op = exp_decay_diagonal(10)
    dcfg = DiscrepancyConfig(b0=3.0, b1=4.0)
    with pytest.raises(DomainError, match="saturation"):
        discrepancy_alpha(op, RegularizerConfig("lavrentiev", m=1), dcfg, apply(op, op.ones()), 1e-3)


def test_discrepancy_band_constants_checked_against_companion_bound():
    op = exp_decay_diagonal(10)
    dcfg = DiscrepancyConfig(b0=1.5, b1=2.0)  # the certified bound is (kappa+1)^2 = 4
    with pytest.raises(DomainError, match="companion bound"):
        discrepancy_alpha(op, LAV2, dcfg, apply(op, op.ones()), 1e-3)


def test_residual_bracket_inequality():
    # | ||r_alpha|| - ||S_alpha A u_true|| | <= c0 delta on the walk grid
    op = exp_decay_diagonal(30)
    rng = np.random.Generator(np.random.Philox(key=41))
    u_true = op.grid_function(rng.standard_normal(op.dim))
    delta = 1e-3
    f_delta = add_noise(apply(op, u_true), delta, seed=7)
    c0 = 1.0  # sharp companion bound in the Hilbert case
    from illposed.schemes import regularize

    for alpha in np.logspace(-6, 0, 13):
        u = regularize(op, LAV2, float(alpha), f_delta)
        r = (apply(op, u) - f_delta).norm()
        s = _one_row(op, regularizer(op, LAV2, float(alpha)).companion, apply(op, u_true))
        assert abs(r - s.norm()) <= c0 * delta * (1.0 + 1e-9)


@pytest.mark.parametrize(
    "residual, exit",
    [
        (lambda a: 10.0, "above it down to alpha_min"),
        (lambda a: 10.0 if a > 0.3 else 0.1, "a step across it narrower than bisect_tol"),
        (lambda a: 0.1, "below it after 200 upward steps"),
    ],
    ids=["above_to_alpha_min", "unresolved_step", "below_after_march"],
)
def test_band_search_unreachable_exits(residual, exit):
    # synthetic residuals against the band [1, 2]: each live exit names its cause
    with pytest.raises(DomainError, match=f"discrepancy band unreachable: {exit}"):
        parameter_choice._band_search(residual, 1.0, 1.0, 2.0)


def test_discrepancy_config_validation():
    with pytest.raises(DomainError):
        DiscrepancyConfig(b0=2.0, b1=1.0)
    with pytest.raises(DomainError):
        DiscrepancyConfig(b0=0.0, b1=1.0)


LADDER = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def _ladder_problem(kind: str):
    """Operator and noisy data of each LADDER row."""
    if kind == "abel":
        op = abel_operator(0.5, 64, "l2_scaled")
        x = np.linspace(0.0, 1.0, op.dim)
        u_true = op.grid_function(np.sin(np.pi * x))
    else:
        op = exp_decay_diagonal(30)
        rng = np.random.Generator(np.random.Philox(key=43))
        u_true = op.grid_function(rng.standard_normal(op.dim))
    f = apply(op, u_true)
    data = [add_noise(f, d, seed=500 + k) for k, d in enumerate(LADDER)]
    return op, data


LADDER_CASES = [
    (kind, cfg)
    for kind in ("abel", "diagonal")
    for cfg in (LAV2, RegularizerConfig("cauchy"))
]


@pytest.mark.parametrize("kind, cfg", LADDER_CASES)
def test_discrepancy_ladder_rows_equal_one_row_calls(kind, cfg):
    op, data = _ladder_problem(kind)
    dcfg = DiscrepancyConfig(b0=6.0, b1=8.0)
    rows = discrepancy_alphas(op, cfg, dcfg, data, LADDER)
    assert any(math.isfinite(alpha) for alpha, _, _ in rows)
    for (alpha, u, residual), f_delta, delta in zip(rows, data, LADDER):
        one_alpha, one_u, one_residual = discrepancy_alpha(op, cfg, dcfg, f_delta, delta)
        assert alpha == one_alpha
        assert np.array_equal(u.values, one_u.values)
        assert residual == one_residual


@pytest.fixture
def filter_counts(monkeypatch):
    """The alphas of the filters the walk builds and of the trials it makes."""
    built, trials = [], []

    def counting(op, cfg, alpha):
        built.append(alpha)
        reg = regularizer(op, cfg, alpha)

        def companion(u):
            trials.append(alpha)
            return reg.companion(u)

        return Regularizer(reg.apply, companion)

    monkeypatch.setattr(parameter_choice, "regularizer", counting)
    return built, trials


@pytest.mark.parametrize("kind, cfg", LADDER_CASES)
def test_discrepancy_ladder_builds_one_filter_per_distinct_trial(kind, cfg, filter_counts):
    built, trials = filter_counts
    op, data = _ladder_problem(kind)
    dcfg = DiscrepancyConfig(b0=6.0, b1=8.0)
    discrepancy_alphas(op, cfg, dcfg, data, LADDER)
    assert len(built) == len(set(built)) == len(set(trials))
    assert len(trials) > len(built)  # rows share the grid ||A|| * RATIO^j


def test_bundled_discrepancy_ladder_counts(filter_counts):
    # 62 trials on the bundled ladder, 22 distinct alphas, one filter for each
    built, trials = filter_counts
    run_rate_experiment(load_config(CONFIG_DIR / "diagonal_discrepancy.json"))
    assert (len(trials), len(set(trials)), len(built)) == (62, 22, 22)
