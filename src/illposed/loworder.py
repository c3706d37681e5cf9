"""End-to-end study of a low-order smooth candidate for the integration operator.

The candidate is u(xi) = (-log(c xi))^{-kappa}, u(0) = 0.  Membership of u in
the domain of log(J) is equivalent to two checkable statements about the
log-kernel transform (S u)(x) = int_0^x log(x - xi) u(xi) dxi: it must be
continuously differentiable with (S u)'(0) = 0.  The derivative has the
convolution representation

    w(x) = int_0^x log(x - xi) u'(xi) dxi,
    u'(xi) = kappa (-log(c xi))^{-kappa-1} / xi,

which depends on x only through L = log(1/(c x)): this module evaluates
w = log(x) L^{-kappa} + R(L) by one tanh-sinh rule for R(L) in numpy alone
(the proof-device approximants with cutting functions are not needed
computationally).  Sufficiency asks kappa > 1: then w(x) -> 0 like
(log(1/x))^{1-kappa}, a decay that is logarithmic and therefore *slow*.

A further consistency check uses the derivative of the fractional-power
family at order one,

    d/dp (J_p u)|_{p=1} = J log J u = S u - Gamma'(1) J u = S u + gamma J u,

with gamma the Euler-Mascheroni constant (Gamma'(1) = -gamma).  On the grid
the left side is the exact A log A of the discrete integration operator,
``operators.a_log_a_map``.

``verify_membership`` runs the three diagnostics and returns the JSON
document that ``loworder-verify`` writes: the decay curve of w, each
diagnostic's value and flag, and the verdict "pass" or "fail".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .operators import MAX_GRID_CELLS, GridFunction, a_log_a_map, integration_operator

EULER_GAMMA = 0.5772156649015329  # gamma = -Gamma'(1), 16 digits
#: verify_membership's diagnostic points: w at x = 2^-k for these k, the
#: centered difference of S u at FD_X with step FD_H, and the identity points
DECAY_POWERS = range(4, 21)
FD_X, FD_H = 0.5, 1e-4
IDENTITY_POINTS = (0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class LogExampleParams:
    """Candidate parameters.

    kappa > 1 is the sufficiency condition for membership; any kappa > 0
    still defines a continuous candidate with u(0) = 0, and the verifier is
    expected to *fail* such candidates, so only a finite kappa > 0 is
    enforced here.
    """

    c: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise DomainError("c must lie strictly inside (0, 1)")
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"kappa must be a finite positive number, got {self.kappa!r}")


def _overflow_error(params: LogExampleParams) -> DomainError:
    return DomainError(f"(-log(c x))^-kappa overflows at c = {params.c}, kappa = {params.kappa!r}")


def sample_u_log(params: LogExampleParams, n: int) -> GridFunction:
    """Samples of the candidate on the uniform grid; u(0) = 0 by the second branch."""
    x = np.linspace(0.0, 1.0, n + 1)
    vals = np.zeros(n + 1)
    # L = -log c - log x, as in log_kernel_derivative: c x underflows for small c
    arg = -math.log(params.c) - np.log(x[1:])
    assert np.all(arg > 0.0), "c < 1 and x <= 1 guarantee L > 0"
    with np.errstate(over="ignore"):
        vals[1:] = arg**-params.kappa
    if not np.all(np.isfinite(vals)):
        raise _overflow_error(params)
    return GridFunction(vals, "sup")


def _log_moments(t1, t2):
    """(int log t dt, int t log t dt) over [t1, t2], exact antiderivatives."""

    def f0(t):
        return np.where(t > 0.0, t * (np.log(np.where(t > 0.0, t, 1.0)) - 1.0), 0.0)

    def f1(t):
        return np.where(t > 0.0, 0.5 * t * t * np.log(np.where(t > 0.0, t, 1.0)) - 0.25 * t * t, 0.0)

    return f0(t2) - f0(t1), f1(t2) - f1(t1)


def log_kernel_apply_at(u: GridFunction, x_points) -> np.ndarray:
    """(S u_h)(x) at each point, u_h the piecewise-linear interpolant, 0 <= x <= 1.

    Each point is one sum over the cells [x_i, x_{i+1}] with x_i < x, each
    over t = x - xi from max(x - x_{i+1}, 0) to x - x_i, so the cell that
    holds x is clipped at t = 0 like the rest.  Per cell the kernel moments
    are integrated analytically, so the rule is exact for piecewise-linear
    integrands; the weak log singularity at the upper endpoint never meets
    the quadrature.  The points are summed one at a time over their own
    cells, so a point's value does not depend on the others, and the
    temporaries stay one point's cells long.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise DomainError("x must lie in [0, 1]")
    h = 1.0 / u.n
    nodes, vals = u.nodes(), u.values
    js = np.searchsorted(nodes, xs).tolist()  # cells 0..j-1 start below x
    # only the cells the points reach: samples past them may be near overflow
    slopes = np.diff(vals[: max(js) + 1]) / h
    out = np.empty(xs.size)
    for i, (x, j) in enumerate(zip(xs.tolist(), js)):
        t2 = x - nodes[:j]
        m0, m1 = _log_moments(np.maximum(x - nodes[1 : j + 1], 0.0), t2)
        out[i] = np.sum((vals[:j] + slopes[:j] * t2) * m0 - slopes[:j] * m1)
    return out


def log_kernel_derivative(params: LogExampleParams, x_points, rel_tol: float = 1e-6) -> np.ndarray:
    """w(x) = int_0^x log(x - xi) u'(xi) dxi at the requested points.

    w = log(x) L^{-kappa} + R(L), R(L) = kappa int_0^1 log(1 - s)/s
    (L - log s)^{-kappa-1} ds, with L = -log c - log x (c x, which underflows
    for subnormal x, is never formed).  R takes the tanh-sinh map
    s = 1 / (1 + e^{-pi sinh tau}) (Takahasi & Mori, Publ. RIMS 9, 1974), all
    points in one pass: the trapezoid rule on tau in [-4, 4] halves h from 1
    down to 2^-7, and a point stops once a halving changes its sum by at most
    1e-13 relative, after at least three halvings; that change is its error
    estimate.  A point whose sum is not finite or whose estimate exceeds
    ``rel_tol * |w|`` raises QuadratureError (the first such point is
    named); a head L^{-kappa} that overflows raises DomainError.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if not np.all((xs > 0) & (xs <= 1)):
        raise DomainError("evaluation points must lie in (0, 1]")
    kap = params.kappa
    # L and the head log(x) L^{-kappa} through libm's scalar log and pow:
    # numpy's vectorized loops may round them an ulp apart
    log_x = np.array(list(map(math.log, xs.tolist())))
    ell = -math.log(params.c) - log_x

    def rule_sums(tau: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sum of the mapped integrand over the nodes tau, one row per point.

        The map gives s and 1 - s each without cancellation: log s is
        log1p(-(1 - s)) where s > 1/2, and log(1 - s) is log1p(-s) elsewhere.
        """
        phi = 0.5 * math.pi * np.sinh(tau)
        s, sc = 1.0 / (1.0 + np.exp(-2.0 * phi)), 1.0 / (1.0 + np.exp(2.0 * phi))
        upper = s > 0.5
        log_s = np.where(upper, np.log1p(-sc), np.log(s))
        ds = 0.5 * math.pi * np.cosh(tau) / (1.0 + np.cosh(2.0 * phi))
        weight = np.where(upper, np.log(sc), np.log1p(-s)) / s * ds
        return kap * np.sum(weight * (ell[rows, None] - log_s) ** (-kap - 1.0), axis=1)

    with np.errstate(all="ignore"):
        try:
            head = log_x * np.array([math.pow(v, -kap) for v in ell.tolist()])
        except OverflowError:
            raise _overflow_error(params) from None
        h = 1.0
        rule = rule_sums(np.arange(-4.0, 4.5), np.arange(xs.size))
        err = np.empty(xs.size)
        active = np.ones(xs.size, dtype=bool)
        for halving in range(1, 8):
            h /= 2.0
            rows = np.flatnonzero(active)
            refined = 0.5 * rule[rows] + h * rule_sums(np.arange(-4.0 + h, 4.0, 2.0 * h), rows)
            err[rows], rule[rows] = np.abs(refined - rule[rows]), refined
            if halving >= 3:
                active[rows] = ~(err[rows] <= 1e-13 * np.abs(refined))
                if not active.any():
                    break
        total = head + rule
        ok = np.isfinite(total) & (err <= rel_tol * np.maximum(np.abs(total), 1e-12))
        failed = np.flatnonzero(~ok)
    if failed.size:
        i = failed[0]
        raise QuadratureError(
            f"w({float(xs[i])}) quadrature error {float(err[i]):.2e} exceeds tolerance "
            f"{rel_tol:.2e} * |{float(total[i]):.6e}|"
        )
    return total


def abel_order_derivative_identity_gap(u: GridFunction, x_points) -> float:
    """Max relative gap between d/dp (J^p u)|_{p=1} and S u + gamma J u at the points.

    The derivative is J log J u, a convolution with the lags of
    ``a_log_a_map`` evaluated only at the requested nodes.  Each point is
    numpy's pairwise sum of its products, not a BLAS dot, so its bits do not
    depend on the BLAS kernel; J u is summed only up to the last point.
    """
    n = u.n
    h = 1.0 / n
    lag = a_log_a_map(integration_operator(n)).symbol
    # sorted distinct nodes; np.unique would import numpy.ma
    idx = np.array(sorted(set(np.clip(np.round(np.asarray(x_points) * n).astype(int), 1, n))))
    ju = h * np.cumsum(u.values[1 : idx[-1] + 1])  # ju[j - 1] = (J u)(x_j)
    deriv = np.array([np.sum(lag[:j] * u.values[j:0:-1]) for j in idx])
    target = log_kernel_apply_at(u, idx * h) + EULER_GAMMA * ju[idx - 1]
    gaps = np.abs(deriv - target)
    scale = np.maximum(np.abs(target), 1e-12)
    return float(np.max(gaps / scale))


def verify_membership(params: LogExampleParams, n: int = 512, identity_n: int = 4096) -> dict:
    """Run the three membership diagnostics and aggregate a verdict.

    (i) w(2^-k), k = 4..20, decreasing in magnitude toward zero; (ii) the
    centered difference of S u at x = 1/2 (step 1e-4) matches w there;
    (iii) the order-derivative identity holds at x = 0.3 .. 0.7.  Returns the
    JSON document that ``loworder-verify`` writes, with ``verdict`` "pass" or
    "fail".  Raises DomainError, naming kappa, where the samples overflow.
    """
    if n < 2:
        raise DomainError("need at least two grid cells")
    if n > MAX_GRID_CELLS:
        raise DomainError(f"need at most {MAX_GRID_CELLS} grid cells, got {n}")
    # a candidate that overflows on the grid fails here, before any diagnostic
    u = sample_u_log(params, n)
    xs = np.array([2.0**-k for k in DECAY_POWERS])
    # the decay points and FD_X in one pass; each point stops as it would alone
    w_all = log_kernel_derivative(params, np.append(xs, FD_X))
    w_vals, w_at = w_all[:-1], float(w_all[-1])
    w_decreasing = bool(np.all(np.diff(np.abs(w_vals)) < 0.0))

    su_minus, su_plus = log_kernel_apply_at(u, [FD_X - FD_H, FD_X + FD_H]).tolist()
    fd = (su_plus - su_minus) / (2.0 * FD_H)
    derivative_match_rel = abs(fd - w_at) / max(abs(w_at), 1e-12)

    abel_rel = abel_order_derivative_identity_gap(sample_u_log(params, identity_n), IDENTITY_POINTS)

    match_ok, abel_ok = derivative_match_rel <= 1e-3, abel_rel <= 1e-3
    verdict = w_decreasing and match_ok and abel_ok
    return {
        "c": params.c,
        "kappa": params.kappa,
        "w_decay_curve": {"x": xs.tolist(), "w": w_vals.tolist()},
        "w_decreasing": w_decreasing,
        "derivative_match_rel": derivative_match_rel,
        "derivative_match_ok": match_ok,
        "abel_identity_rel": abel_rel,
        "abel_identity_ok": abel_ok,
        "verdict": "pass" if verdict else "fail",
    }
