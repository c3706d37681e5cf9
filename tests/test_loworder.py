import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import illposed
import illposed.loworder as loworder
from illposed.errors import DomainError, QuadratureError
from illposed.grid import GridFunction
from illposed.loworder import (
    EULER_GAMMA,
    LogExampleParams,
    abel_order_derivative_identity_gap,
    log_kernel_apply_at,
    log_kernel_derivative,
    sample_u_log,
    verify_membership,
)
from illposed.operators import a_log_a_map, integration_operator
from oracles import graded_w, log_kernel_apply, quadpack_w

PARAMS = LogExampleParams(c=0.5, kappa=2.0)


def test_params_validation():
    with pytest.raises(DomainError):
        LogExampleParams(c=1.0, kappa=2.0)
    with pytest.raises(DomainError):
        LogExampleParams(c=0.5, kappa=0.0)
    LogExampleParams(c=0.5, kappa=0.5)  # sub-threshold candidates are expressible


def test_u_log_values():
    u = sample_u_log(PARAMS, 64)
    assert u.values[0] == 0.0
    # u(1) = (log 2)^{-2}, frozen from independent arithmetic
    assert math.isclose(u.values[-1], 2.0813689810056077, rel_tol=1e-13)


def test_u_log_monotone_increasing():
    u = sample_u_log(PARAMS, 256)
    assert np.all(np.diff(u.values) > 0.0)


def test_log_kernel_constant_oracle():
    # int_0^x log(x - xi) dxi = x (log x - 1); the rule integrates the
    # piecewise-linear interpolant exactly, and a constant is linear
    n = 128
    ones = GridFunction(np.ones(n + 1), "sup")
    # bypass the u(0) = 0 gate by evaluating pointwise
    for x in (0.25, 0.5, 1.0):
        got = log_kernel_apply_at(ones, x)
        assert math.isclose(got, x * (math.log(x) - 1.0), rel_tol=1e-12)
    assert math.isclose(log_kernel_apply_at(ones, 1.0), -1.0, rel_tol=1e-12)


def test_log_kernel_zero():
    u = GridFunction(np.zeros(65), "sup")
    out = log_kernel_apply(u)
    assert out.norm() == 0.0
    assert out.values[0] == 0.0


def test_log_kernel_requires_vanishing_origin():
    with pytest.raises(DomainError):
        log_kernel_apply(GridFunction(np.ones(65), "sup"))


def test_log_kernel_refinement_for_smooth_input():
    # sup distance between successive refinements drops by at least 1.8x
    def s_on_grid(n):
        x = np.linspace(0.0, 1.0, n + 1)
        u = GridFunction(x * (1.0 - x), "sup")
        return log_kernel_apply(u)

    gaps = []
    for n in (64, 128, 256):
        coarse = s_on_grid(n)
        fine = s_on_grid(2 * n)
        gaps.append(np.max(np.abs(fine.values[::2] - coarse.values)))
    assert gaps[1] <= gaps[0] / 1.8
    assert gaps[2] <= gaps[1] / 1.8


def test_w_decay_curve_strictly_decreasing():
    xs = [2.0**-k for k in range(4, 21)]
    w = log_kernel_derivative(PARAMS, xs)
    mags = np.abs(w)
    assert np.all(np.diff(mags) < 0.0)
    assert np.all(w < 0.0)  # log(x - xi) < 0 and u' > 0 on (0, 1)


def test_w_no_decay_below_threshold_kappa():
    # kappa = 0.5 < 1: |w| grows like log(1/x)^{1/2} instead of decaying
    bad = LogExampleParams(c=0.5, kappa=0.5)
    xs = [2.0**-k for k in (4, 10, 16)]
    mags = np.abs(log_kernel_derivative(bad, xs))
    assert mags[0] < mags[1] < mags[2]


def test_w_finite_difference_cross_check():
    u = sample_u_log(PARAMS, 512)
    h = 1e-4
    fd = (log_kernel_apply_at(u, 0.5 + h) - log_kernel_apply_at(u, 0.5 - h)) / (2.0 * h)
    w = float(log_kernel_derivative(PARAMS, [0.5])[0])
    assert abs(fd - w) <= 1e-3 * abs(w)


def test_w_matches_transform_derivative_at_ten_points():
    u = sample_u_log(PARAMS, 512)
    h = 1e-4
    xs = np.linspace(0.15, 0.9, 10)
    w = log_kernel_derivative(PARAMS, xs)
    for x, wx in zip(xs, w):
        fd = (log_kernel_apply_at(u, x + h) - log_kernel_apply_at(u, x - h)) / (2.0 * h)
        assert abs(fd - wx) <= 1e-3 * abs(wx)


def test_log_kernel_transform_bounded():
    # ||S u|| <= M ||u||: the empirical bound is stable under refinement
    norms = []
    for n in (128, 256, 512):
        u = sample_u_log(PARAMS, n)
        norms.append(log_kernel_apply(u).norm() / u.norm())
    assert abs(norms[2] - norms[1]) <= 0.02 * norms[1]
    assert abs(norms[1] - norms[0]) <= 0.02 * norms[0]


def test_w_dual_quadrature_agreement():
    xs = [1.0, 0.5, 0.125]
    adaptive = log_kernel_derivative(PARAMS, xs)
    graded = graded_w(PARAMS, xs)
    assert np.max(np.abs(adaptive - graded)) <= 1e-5 * np.max(np.abs(adaptive))


def test_w_graded_enforces_rel_tol():
    # the graded rule agrees with its half-resolution rerun to ~1e-8, not 1e-14
    with pytest.raises(QuadratureError):
        graded_w(PARAMS, [2.0**-10], rel_tol=1e-14)


@pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9, 0.99])
def test_w_adaptive_matches_quadpack(c, kappa):
    # within the epsrel = 1e-10 that QUADPACK itself is asked for
    params = LogExampleParams(c=c, kappa=kappa)
    xs = [1.0, 2.0**-1, 2.0**-10, 2.0**-20, 2.0**-143, 2.0**-400]
    got = log_kernel_derivative(params, xs)
    ref = np.array([quadpack_w(params, x) for x in xs])
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


MEMBERSHIP_XS = [2.0**-k for k in range(4, 21)] + [0.5, 2.0**-143, 2.0**-400]


@pytest.mark.parametrize("kappa", [0.5, 2.0])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
def test_w_all_points_equal_one_point_calls(c, kappa):
    # one pass over all points stops each where it would stop alone: same
    # bits, and at rel_tol = 1e-16, which some points miss at every (c,
    # kappa), the same first failing point and message
    params = LogExampleParams(c=c, kappa=kappa)
    together = log_kernel_derivative(params, MEMBERSHIP_XS)
    alone = [log_kernel_derivative(params, [x])[0] for x in MEMBERSHIP_XS]
    assert np.array_equal(together, alone)
    messages = []
    for x in MEMBERSHIP_XS:
        try:
            log_kernel_derivative(params, [x], rel_tol=1e-16)
        except QuadratureError as exc:
            messages.append(str(exc))
    assert messages
    with pytest.raises(QuadratureError) as info:
        log_kernel_derivative(params, MEMBERSHIP_XS, rel_tol=1e-16)
    assert str(info.value) == messages[0]
    frozen = {
        (0.1, 0.5): "w(0.0625) quadrature error 6.80e-16 exceeds tolerance 1.00e-16 * |-1.291460e+00|",
        (0.1, 2.0): "w(0.0625) quadrature error 1.14e-15 exceeds tolerance 1.00e-16 * |-1.261124e-01|",
        (0.5, 0.5): "w(0.0625) quadrature error 3.00e-15 exceeds tolerance 1.00e-16 * |-1.590732e+00|",
        (0.5, 2.0): "w(0.0625) quadrature error 3.68e-16 exceeds tolerance 1.00e-16 * |-2.833333e-01|",
        (0.9, 0.5): "w(0.0625) quadrature error 1.53e-15 exceeds tolerance 1.00e-16 * |-1.763819e+00|",
        (0.9, 2.0): "w(0.03125) quadrature error 1.37e-15 exceeds tolerance 1.00e-16 * |-3.201685e-01|",
    }
    assert messages[0] == frozen[(c, kappa)]


def test_w_adaptive_enforces_rel_tol():
    # at x = 2^-4 the last halving moves the sum by 3.68e-16, 1.3e-15 of |w|
    with pytest.raises(QuadratureError) as info:
        log_kernel_derivative(PARAMS, [2.0**-4], rel_tol=1e-16)
    assert str(info.value) == (
        "w(0.0625) quadrature error 3.68e-16 exceeds tolerance 1.00e-16 * |-2.833333e-01|"
    )


@pytest.mark.parametrize("kappa", [0.5, 1.01, 2.0])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.99])
def test_w_within_remainder_bound_far_below_the_decay_window(c, kappa):
    # w = log(x) L^{-kappa} + R(L) with |R(L)| <= kappa (pi^2/6) L^{-kappa-1},
    # L = log(1/(c x)), down to the least subnormal; pytest turns a numpy
    # warning into an error
    params = LogExampleParams(c=c, kappa=kappa)
    xs = [2.0**-143, 2.0**-400, 2.0**-1000, 2.0**-1074]
    w = log_kernel_derivative(params, xs)
    assert np.all(np.isfinite(w))
    for x, wx in zip(xs, w):
        ell = -math.log(c) - math.log(x)
        assert abs(wx - math.log(x) * ell**-kappa) <= kappa * (math.pi**2 / 6.0) * ell ** (-kappa - 1.0)


def test_w_non_finite_sum_raises_naming_the_point():
    # at c = 0.99, kappa = 2000 the head 0.703^-2000 at x = 1/2 is finite,
    # but R(L) ~ kappa L^{-kappa-1} overflows
    params = LogExampleParams(c=0.99, kappa=2000.0)
    with pytest.raises(QuadratureError, match=r"^w\(0\.5\) quadrature error "):
        log_kernel_derivative(params, [0.5])


def test_w_head_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows at c = 0.99, kappa = 3000.0"):
        log_kernel_derivative(LogExampleParams(c=0.99, kappa=3000.0), [0.5])


def test_cli_runs_with_scipy_blocked(tmp_path):
    # the runtime is numpy alone: with every scipy import refused, the
    # low-order verifier and a bundled rate run still exit 0
    src = str(Path(illposed.__file__).resolve().parents[1])
    config = Path(__file__).resolve().parents[1] / "configs" / "integration_apriori.json"
    code = textwrap.dedent(
        f"""
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"{{name}} is blocked")
                return None

        sys.meta_path.insert(0, BlockScipy())
        try:
            import scipy
        except ImportError:
            pass
        else:
            raise SystemExit("the scipy block did not take")
        from illposed.cli import main

        low = ["loworder-verify", "--c", "0.5", "--kappa", "2", "--out", {str(tmp_path / "low.json")!r}]
        run = ["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "run")!r}]
        raise SystemExit(main(low) or main(run))
        """
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "low.json").exists()
    assert (tmp_path / "run" / "report.csv").exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # every route is numpy alone, so no scipy module loads; the CLI module
    # imports its layers on first use, so the test imports them itself
    src = str(Path(illposed.__file__).resolve().parents[1])
    code = (
        "import sys, illposed.cli, illposed.harness, illposed.loworder\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_w_domain_checks():
    for x in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError):
            log_kernel_derivative(PARAMS, [0.5, x])


def test_abel_order_derivative_identity():
    u = sample_u_log(PARAMS, 4096)
    gap = abel_order_derivative_identity_gap(u, (0.3, 0.4, 0.5, 0.6, 0.7))
    assert gap <= 1e-3


@pytest.mark.parametrize("kappa", [2.0, 0.5])
def test_abel_order_derivative_identity_gap_reads_full_convolution(kappa):
    # the gap's pairwise sums are the entries of the lag convolution J log J u,
    # here summed exactly by math.fsum over the same products; the bundled
    # (c, kappa) pairs at identity_n = 4096.  numpy sums blocks of up to 128
    # terms with eight accumulators and halves longer arrays, so a sum of j
    # terms passes through at most 16 + 3 + ceil(log2(j / 128)) roundings and
    # errs by at most that many eps times sum |terms| (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 4.2); the gap divides that
    # error by |target|.
    n = 4096
    u = sample_u_log(LogExampleParams(c=0.5, kappa=kappa), n)
    points = (0.3, 0.4, 0.5, 0.6, 0.7)
    h = 1.0 / n
    lag = a_log_a_map(integration_operator(n)).symbol
    idx = np.round(np.array(points) * n).astype(int)
    products = [lag[:j] * u.values[j:0:-1] for j in idx]
    deriv = np.array([math.fsum(t) for t in products])
    target = np.array([log_kernel_apply_at(u, j * h) for j in idx])
    target += EULER_GAMMA * h * np.cumsum(u.values[1:])[idx - 1]
    scale = np.maximum(np.abs(target), 1e-12)
    full = float(np.max(np.abs(deriv - target) / scale))
    rounding = max(
        (19 + math.ceil(math.log2(j / 128))) * np.finfo(float).eps * math.fsum(np.abs(t)) / s
        for j, t, s in zip(idx, products, scale)
    )
    assert abs(abel_order_derivative_identity_gap(u, points) - full) <= rounding


def test_abel_order_derivative_identity_monomial():
    # closed form for u = xi: d/dp (J_p u)|_{p=1} = x^2 log(x)/2 - x^2 (3 - 2 gamma)/4
    n = 2048
    x = np.linspace(0.0, 1.0, n + 1)
    u = GridFunction(x, "sup")
    lag = a_log_a_map(integration_operator(n)).symbol
    deriv = np.zeros(n + 1)
    deriv[1:] = np.convolve(lag, u.values[1:])[:n]
    closed = 0.5 * x[1:] ** 2 * np.log(x[1:]) - x[1:] ** 2 * (3.0 - 2.0 * EULER_GAMMA) / 4.0
    idx = np.array([n // 4, n // 2, 3 * n // 4, n])
    assert np.max(np.abs(deriv[idx] - closed[idx - 1])) <= 2e-3


def test_verify_membership_passes_for_good_parameters():
    report = verify_membership(PARAMS, n=256, identity_n=2048)
    assert report["verdict"] == "pass"
    assert report["w_decreasing"]
    assert report["derivative_match_ok"]
    assert report["abel_identity_ok"]
    assert "log_quotients_cauchy" not in report
    assert len(report["w_decay_curve"]["x"]) == len(report["w_decay_curve"]["w"])


def test_verify_membership_fails_below_threshold():
    report = verify_membership(LogExampleParams(c=0.5, kappa=0.5), n=256, identity_n=1024)
    assert not report["w_decreasing"]
    assert report["verdict"] == "fail"


def test_verify_membership_identity_gap_alone_fails_verdict(monkeypatch):
    # a passing candidate whose order-derivative identity misses fails on that
    # diagnostic alone
    monkeypatch.setattr(loworder, "abel_order_derivative_identity_gap", lambda u, points: 2e-3)
    report = verify_membership(PARAMS, n=256, identity_n=2048)
    assert report["w_decreasing"] and report["derivative_match_ok"]
    assert not report["abel_identity_ok"]
    assert report["verdict"] == "fail"
