"""End-to-end study of a low-order smooth candidate for the integration operator.

The candidate is u(xi) = (-log(c xi))^{-kappa}, u(0) = 0.  Membership of u in
the domain of log(J) is equivalent to two checkable statements about the
log-kernel transform (S u)(x) = int_0^x log(x - xi) u(xi) dxi: it must be
continuously differentiable with (S u)'(0) = 0.  The derivative has the
convolution representation

    w(x) = int_0^x log(x - xi) u'(xi) dxi,
    u'(xi) = kappa (-log(c xi))^{-kappa-1} / xi,

which this module evaluates directly by singularity-aware quadrature in
numpy alone (the proof-device approximants with cutting functions are not
needed computationally).  Sufficiency asks kappa > 1: then w(x) -> 0 like
(log(1/x))^{1-kappa}, a decay that is logarithmic and therefore *slow*.

A further consistency check uses the derivative of the fractional-power
family at order one,

    d/dp (J_p u)|_{p=1} = S u - Gamma'(1) J u = S u + gamma J u,

with gamma the Euler-Mascheroni constant (Gamma'(1) = -gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .grid import GridFunction
from .operator_log import log_apply
from .operators import integration_operator

EULER_GAMMA = 0.5772156649015329  # gamma = -Gamma'(1), 16 digits


@dataclass(frozen=True)
class LogExampleParams:
    """Candidate parameters.

    kappa > 1 is the sufficiency condition for membership; any kappa > 0
    still defines a continuous candidate with u(0) = 0, and the verifier is
    expected to *fail* such candidates, so only kappa > 0 is enforced here.
    """

    c: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise DomainError("c must lie strictly inside (0, 1)")
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")


def sample_u_log(params: LogExampleParams, n: int) -> GridFunction:
    """Samples of the candidate on the uniform grid; u(0) = 0 by the second branch."""
    x = np.linspace(0.0, 1.0, n + 1)
    vals = np.zeros(n + 1)
    arg = -np.log(params.c * x[1:])
    assert np.all(arg > 0.0), "c < 1 and x <= 1 guarantee c*x < 1"
    vals[1:] = arg**-params.kappa
    return GridFunction(vals, "sup")


def u_log_derivative(params: LogExampleParams, xi: np.ndarray) -> np.ndarray:
    """u'(xi) = kappa (-log(c xi))^{-kappa-1} / xi on (0, 1]."""
    arg = -np.log(params.c * xi)
    return params.kappa * arg ** (-params.kappa - 1.0) / xi


def _log_moments(t1, t2):
    """(int log t dt, int t log t dt) over [t1, t2], exact antiderivatives."""

    def f0(t):
        return np.where(t > 0.0, t * (np.log(np.where(t > 0.0, t, 1.0)) - 1.0), 0.0)

    def f1(t):
        return np.where(t > 0.0, 0.5 * t * t * np.log(np.where(t > 0.0, t, 1.0)) - 0.25 * t * t, 0.0)

    return f0(t2) - f0(t1), f1(t2) - f1(t1)


def log_kernel_apply_at(u: GridFunction, x: float) -> float:
    """(S u_h)(x) for the piecewise-linear interpolant u_h, any 0 <= x <= 1.

    Per cell the kernel moments are integrated analytically, so the rule is
    exact for piecewise-linear integrands; the weak log singularity at the
    upper endpoint never meets the quadrature.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    n = u.n
    h = 1.0 / n
    nodes = u.nodes()
    vals = u.values
    j_full = min(int(math.floor(x / h + 1e-12)), n)
    xi_lo = nodes[:j_full]
    t2 = x - xi_lo
    t1 = x - nodes[1 : j_full + 1]
    slopes = (vals[1 : j_full + 1] - vals[:j_full]) / h
    m0, m1 = _log_moments(t1, t2)
    total = float(np.sum((vals[:j_full] + slopes * t2) * m0 - slopes * m1))
    # trailing partial cell [x_j, x)
    if j_full < n and x > nodes[j_full] + 1e-15:
        s = (vals[j_full + 1] - vals[j_full]) / h
        t2p = x - nodes[j_full]
        m0p, m1p = _log_moments(np.array(0.0), np.array(t2p))
        total += float((vals[j_full] + s * t2p) * m0p - s * m1p)
    return total


def log_kernel_derivative(
    params: LogExampleParams,
    x_points,
    rel_tol: float = 1e-6,
    method: str = "adaptive",
) -> np.ndarray:
    """w(x) = int_0^x log(x - xi) u'(xi) dxi at the requested points.

    Both endpoint singularities are handled: the 1/xi-type (integrable)
    singularity at xi -> 0 by the substitution ell = log(1/(c xi)), the log
    kernel at xi -> x by a double-exponential rule with the log x part
    split off exactly ("adaptive") or a graded composite rule with an
    analytic first cell ("graded", the independent cross-check).
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if np.any(xs <= 0) or np.any(xs > 1):
        raise DomainError("evaluation points must lie in (0, 1]")
    if method == "adaptive":
        evaluate = _w_adaptive
    elif method == "graded":
        evaluate = _w_graded
    else:
        raise DomainError(f"unknown quadrature method {method!r}")
    return np.array([evaluate(params, float(x), rel_tol) for x in xs])


def _w_adaptive(params: LogExampleParams, x: float, rel_tol: float) -> float:
    """Double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974).

    Left piece, xi in (0, x/2]: with ell = log(1/(c xi)) = ell0 + r,
    log(x - xi) = log x + log1p(-e^{-r}/2).  The log x part integrates to
    log(x) ell0^{-kappa} exactly; the rest decays like e^{-r} and takes the
    exp-sinh map r = exp(pi/2 sinh tau).  Right piece, t = x - xi in
    [0, x/2]: the tanh-sinh map t = (x/2) / (1 + e^{-pi sinh tau}), free of
    cancellation near the log singularity t = 0.  The trapezoid rule on
    tau in [-4, 4] halves h from 1 down to 2^-7 and stops once a halving
    changes the sum by at most 1e-13 relative, after at least three
    halvings; that last change is the error estimate.
    """
    c, kap = params.c, params.kappa
    ell0 = math.log(2.0 / (c * x))

    def integrand(tau: np.ndarray) -> np.ndarray:
        phi = 0.5 * math.pi * np.sinh(tau)
        dphi = 0.5 * math.pi * np.cosh(tau)
        r = np.exp(phi)
        left = np.log1p(-0.5 * np.exp(-r)) * kap * (ell0 + r) ** (-kap - 1.0) * r * dphi
        t = 0.5 * x / (1.0 + np.exp(-2.0 * phi))
        dt = 0.5 * x * dphi / (1.0 + np.cosh(2.0 * phi))
        return left + np.log(t) * u_log_derivative(params, x - t) * dt

    h = 1.0
    rule = float(np.sum(integrand(np.arange(-4.0, 4.5))))
    for halving in range(1, 8):
        h /= 2.0
        refined = 0.5 * rule + h * float(np.sum(integrand(np.arange(-4.0 + h, 4.0, 2.0 * h))))
        err, rule = abs(refined - rule), refined
        if halving >= 3 and err <= 1e-13 * abs(rule):
            break
    total = math.log(x) * ell0**-kap + rule
    if err > rel_tol * max(abs(total), 1e-12):
        raise QuadratureError(
            f"w({x}) quadrature error {err:.2e} exceeds tolerance "
            f"{rel_tol:.2e} * |{total:.6e}|"
        )
    return total


def _gl_panels(edges: np.ndarray, npts: int = 10):
    xi, wi = np.polynomial.legendre.leggauss(npts)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    wts = (half[:, None] * wi[None, :]).ravel()
    return pts, wts


def _w_graded(params: LogExampleParams, x: float, rel_tol: float) -> float:
    """Independent evaluation: geometric panels in ell on the left, grading
    exponent 2 toward the log singularity on the right, analytic first cell.

    The rule is rerun at half resolution; a gap above rel_tol * |w| raises.
    """
    total = _w_graded_rule(params, x, left_edges=160, right_panels=80)
    coarse = _w_graded_rule(params, x, left_edges=80, right_panels=40)
    if abs(total - coarse) > rel_tol * abs(total):
        raise QuadratureError(
            f"w({x}) graded rule changes by {abs(total - coarse):.2e} at half "
            f"resolution, above {rel_tol:.2e} * |{total:.6e}|"
        )
    return total


def _w_graded_rule(
    params: LogExampleParams, x: float, left_edges: int, right_panels: int
) -> float:
    c, kap = params.c, params.kappa
    ell0 = math.log(2.0 / (c * x))
    # left part in ell: tail beyond ell_max contributes ~ |log x| * ell_max^{-kap}
    ell_max = max((abs(math.log(x)) + 10.0) / 1e-10, 1e4) ** (1.0 / kap)
    ell_max = max(ell_max, 4.0 * ell0)
    edges = np.geomspace(ell0, ell_max, left_edges)
    pts, wts = _gl_panels(edges)
    left = float(np.sum(wts * np.log(x - np.exp(-pts) / c) * kap * pts ** (-kap - 1.0)))
    # right part in t = x - xi on [0, x/2], graded toward t = 0
    grid = (np.arange(right_panels + 1) / right_panels) ** 2 * (x / 2.0)
    t1 = grid[1]
    # analytic first cell: u'(x - t) ~ linear, log t integrated exactly
    g0 = float(u_log_derivative(params, np.array([x]))[0])
    g1 = float(u_log_derivative(params, np.array([x - t1]))[0])
    slope = (g1 - g0) / t1
    m0 = t1 * (math.log(t1) - 1.0)
    m1 = 0.5 * t1 * t1 * math.log(t1) - 0.25 * t1 * t1
    right = g0 * m0 + slope * m1
    pts_t, wts_t = _gl_panels(grid[1:])
    right += float(
        np.sum(wts_t * np.log(pts_t) * u_log_derivative(params, x - pts_t))
    )
    return left + right


@dataclass(frozen=True)
class MembershipReport:
    """Aggregate evidence that the candidate lies in the domain of log(J)."""

    params: LogExampleParams
    w_xs: np.ndarray
    w_values: np.ndarray
    w_decreasing: bool
    derivative_match_rel: float
    derivative_match_ok: bool
    abel_identity_rel: float
    abel_identity_ok: bool
    log_quotients_cauchy: bool
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "c": self.params.c,
            "kappa": self.params.kappa,
            "w_decay_curve": {
                "x": [float(v) for v in self.w_xs],
                "w": [float(v) for v in self.w_values],
            },
            "w_decreasing": self.w_decreasing,
            "derivative_match_rel": self.derivative_match_rel,
            "derivative_match_ok": self.derivative_match_ok,
            "abel_identity_rel": self.abel_identity_rel,
            "abel_identity_ok": self.abel_identity_ok,
            "log_quotients_cauchy": self.log_quotients_cauchy,
            "verdict": "pass" if self.verdict else "fail",
        }


def abel_order_derivative_identity_gap(u: GridFunction, x_points, eps: float = 1e-3) -> float:
    """Max relative gap between d/dp (J^p u)|_{p=1} and S u + gamma J u at the points.

    The derivative is a centered difference of the exact fractional powers
    of the discrete integration operator, a convolution with their lag
    weights evaluated only at the requested nodes.
    """
    from .fractional import _binomial_lags  # integration-kind symbol powers

    n = u.n
    h = 1.0 / n
    lag = (_binomial_lags(h, 1.0 + eps, n) - _binomial_lags(h, 1.0 - eps, n)) / (2.0 * eps)
    ju = np.zeros(n + 1)
    ju[1:] = h * np.cumsum(u.values[1:])
    # sorted distinct nodes; np.unique would import numpy.ma
    idx = np.array(sorted(set(np.clip(np.round(np.asarray(x_points) * n).astype(int), 1, n))))
    deriv = np.array([np.dot(lag[:j], u.values[j:0:-1]) for j in idx])
    target = np.array([log_kernel_apply_at(u, j * h) for j in idx])
    target += EULER_GAMMA * ju[idx]
    gaps = np.abs(deriv - target)
    scale = np.maximum(np.abs(target), 1e-12)
    return float(np.max(gaps / scale))


def verify_membership(
    params: LogExampleParams,
    n: int = 512,
    k_range=range(4, 21),
    fd_x: float = 0.5,
    fd_h: float = 1e-4,
    identity_points=(0.3, 0.4, 0.5, 0.6, 0.7),
    identity_n: int = 4096,
    u_values: np.ndarray | None = None,
) -> MembershipReport:
    """Run the four membership diagnostics and aggregate a verdict.

    (i) w(2^-k) decreasing in magnitude toward zero; (ii) the finite
    difference of S u matches w at ``fd_x``; (iii) the log difference
    quotients of the sampled candidate are Cauchy; (iv) the order-derivative
    identity holds at interior points.  ``u_values`` substitutes a different
    candidate into diagnostic (iii) only (probe hook).
    """
    if n < 2:
        raise DomainError("need at least two grid cells")
    xs = np.array([2.0**-k for k in k_range])
    w_vals = log_kernel_derivative(params, xs)
    mags = np.abs(w_vals)
    w_decreasing = bool(np.all(np.diff(mags) < 0.0))

    u = sample_u_log(params, n)
    su_plus = log_kernel_apply_at(u, fd_x + fd_h)
    su_minus = log_kernel_apply_at(u, fd_x - fd_h)
    fd = (su_plus - su_minus) / (2.0 * fd_h)
    w_at = float(log_kernel_derivative(params, [fd_x])[0])
    derivative_match_rel = abs(fd - w_at) / max(abs(w_at), 1e-12)
    derivative_match_ok = derivative_match_rel <= 1e-3

    op = integration_operator(n)
    probe = u if u_values is None else GridFunction(u_values, "sup")
    _, report = log_apply(op, probe)

    u_fine = sample_u_log(params, identity_n)
    abel_rel = abel_order_derivative_identity_gap(u_fine, identity_points)
    abel_ok = abel_rel <= 1e-3

    verdict = bool(w_decreasing and derivative_match_ok and report.cauchy and abel_ok)
    return MembershipReport(
        params=params,
        w_xs=xs,
        w_values=w_vals,
        w_decreasing=w_decreasing,
        derivative_match_rel=derivative_match_rel,
        derivative_match_ok=derivative_match_ok,
        abel_identity_rel=abel_rel,
        abel_identity_ok=abel_ok,
        log_quotients_cauchy=report.cauchy,
        verdict=verdict,
    )
