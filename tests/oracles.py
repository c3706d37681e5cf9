"""Independent reference implementations for the symbol calculus and parameter choice.

The library computes A u, A^p, (A + alpha I)^{-1} f, e^{-tA} and
(lambda I - log A)^{-nu} exactly, as functions of the operator's symbol,
without forming a matrix.  The routes here share none of that code path:

* ``dense_matrix``, the dense matrix itself;
* ``expm_evolve``, a dense matrix exponential;
* ``laplace_log_resolvent_power``, the Laplace representation of the shifted
  log resolvent integrated node by node with exact powers A^q;
* ``fractional_power_balakrishnan`` (with ``BalakrishnanQuadrature`` and
  ``QuadratureBoundsWarning``), the resolvent integral for A^p by a
  trapezoid rule in tau = log s;
* ``product_integration_map``, the product-integration rule of the order
  p * base_order fractional integral, which is exact on constants and
  agrees with the exact power only up to discretization error;
* ``check_interpolation_inequality``, the moment inequality
  ||A^p u|| <= c ||A^q u||^{p/q} ||u||^{1-p/q} on one element;
* ``series_power_recurrence`` and ``series_log_recurrence``, the
  logarithmic-derivative recurrences for a^p and log a of a power series,
  one dot product per coefficient;
* ``series_exp_reversed_view``, ``series_exp`` with its recurrence run on a
  reversed view of the coefficients, which the library's reversed buffer
  must match bit for bit;
* ``diagonal_log_values``, the closed form log sigma_k;
* ``log_apply``, log(A) u as the Richardson-extrapolated limit of the
  difference quotients (A^p u - u)/p along ``P_SCHEDULE``;
* ``log_kernel_apply``, the log-kernel transform at every node, one
  ``log_kernel_apply_at`` call per node;
* ``ChiParams``, ``chi`` and ``chi_inverse``, the rate functions
  chi_{q, +-mu}(t) = t^q (log(1/t))^{+-mu} and a Newton inverse of
  chi_{q,-mu}, against which the closed form of ``apriori_alpha`` is read;
* ``alpha_sweep_oracle``, the best alpha of a dense grid by the true error;
* ``unskipped_discrepancy_alphas``, the residual-band walk with a trial at
  every grid alpha from ||A|| down and a filter built per trial, which the
  library's walk, which steps over alphas its certified floor rules out,
  must match bit for bit;
* ``u_log_derivative``, the low-order candidate's u'(xi) on (0, 1];
* ``quadpack_w``, QUADPACK (Piessens et al., 1983) for the low-order
  candidate's w in xi, split at x/2, which checks the library's tanh-sinh
  rule in L = log(1/(c x));
* ``graded_w``, the same w by graded composite Gauss-Legendre panels with an
  analytic first cell, one point at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, toeplitz

from illposed.errors import DomainError, QuadratureError
from illposed.grid import GridFunction, grid_norms
from illposed.harness import Problem
from illposed.loworder import LogExampleParams, log_kernel_apply_at
from illposed.operators import (
    DiscreteOperator,
    SymbolMap,
    _one_row,
    apply,
    fractional_power_exact,
    power_map,
    product_integration_weights,
    shifted_solve,
)
from illposed.parameter_choice import ALPHA_MIN, BISECT_TOL, RATIO, DiscrepancyConfig
from illposed.schemes import RegularizerConfig, regularize, regularizer


def dense_matrix(op: DiscreteOperator) -> np.ndarray:
    """The dense (n+1) x (n+1) matrix of a Volterra operator, the diagonal matrix otherwise.

    Node 0 maps to 0 and contributes nothing: row 0 and column 0 vanish.
    """
    if not op.is_volterra:
        return np.diag(op.weights)
    mat = np.zeros((op.dim, op.dim))
    mat[1:, 1:] = toeplitz(op.weights, np.zeros(op.n))
    return mat


def expm_evolve(
    op: DiscreteOperator, t: float, f: GridFunction, u0: GridFunction
) -> GridFunction:
    """e^{-tA} u0 + int_0^t e^{-sA} f ds from one dense matrix exponential.

    The exponential of [[-tA, f], [0, 0]] carries e^{-tA} in its leading
    block and (1/t) int_0^t e^{-sA} f ds in its last column (Van Loan's
    block trick).  With t on the f column instead, that column grows like
    t and sets the scale of expm's rounding: 1e-8 relative at t = 1e8.
    """
    mat = dense_matrix(op)
    dim = op.dim
    block = np.zeros((dim + 1, dim + 1))
    block[:dim, :dim] = -t * mat
    block[:dim, dim] = f.values
    full = expm(block)
    return u0.with_values(full[:dim, :dim] @ u0.values + t * full[:dim, dim])


@dataclass(frozen=True)
class LaplaceQuadrature:
    """Composite Gauss-Legendre rule on [0, q_max] for the Laplace representation."""

    q_max: float
    nodes: int = 400
    points_per_panel: int = 10

    def __post_init__(self):
        if self.q_max <= 0 or self.nodes < 200:
            raise DomainError("need q_max > 0 and at least 200 nodes")

    @classmethod
    def default(cls, lam: float, omega: float) -> "LaplaceQuadrature":
        # panels of width 1/(lam - omega) up to 40/(lam - omega): the
        # neglected tail of the scalar model is below e^{-40} ~ 4e-18
        gap = lam - omega
        if gap <= 0:
            raise DomainError("shift below spectral bound")
        return cls(q_max=40.0 / gap, nodes=400, points_per_panel=10)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        panels = max(1, self.nodes // self.points_per_panel)
        xi, wi = np.polynomial.legendre.leggauss(self.points_per_panel)
        edges = np.linspace(0.0, self.q_max, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        qs = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
        ws = (half[:, None] * wi[None, :]).ravel()
        return qs, ws


def laplace_log_resolvent_power(
    op: DiscreteOperator,
    lam: float,
    nu: int,
    w: GridFunction,
    quad: LaplaceQuadrature | None = None,
) -> GridFunction:
    """(lambda I - log A)^{-nu} w by the Laplace representation

        (1/(nu-1)!) * int_0^infty q^{nu-1} e^{-lambda q} A^q w dq,

    each node one exact power A^q w.
    """
    if quad is None:
        quad = LaplaceQuadrature.default(lam, op.omega)
    if quad.q_max < 10.0 / (lam - op.omega):
        raise DomainError("q_max too small for the shift gap")
    qs, ws = quad.points()
    fac = math.factorial(nu - 1)
    acc = np.zeros(w.dim)
    for q, wt in zip(qs, ws):
        aq = fractional_power_exact(op, float(q), w)
        acc += wt * q ** (nu - 1) * math.exp(-lam * q) / fac * aq.values
    return w.with_values(acc)


def u_log_derivative(params: LogExampleParams, xi: np.ndarray) -> np.ndarray:
    """u'(xi) = kappa (-log(c xi))^{-kappa-1} / xi on (0, 1]."""
    arg = -np.log(params.c * xi)
    return params.kappa * arg ** (-params.kappa - 1.0) / xi


def quadpack_w(params: LogExampleParams, x: float) -> float:
    """w(x) = int_0^x log(x - xi) u'(xi) dxi by QUADPACK at epsrel = 1e-10.

    Left half in ell = log(1/(c xi)) on [ell0, inf), right half in
    t = x - xi with the log t factor taken by the algebraic-logarithmic
    weight (QAWS).
    """
    c, kap = params.c, params.kappa
    # xi in (0, x/2]: substitute ell = log(1/(c xi)), removing the 1/xi factor
    ell0 = math.log(2.0 / (c * x))

    def left_integrand(ell):
        return math.log(x - math.exp(-ell) / c) * kap * ell ** (-kap - 1.0)

    i1, e1 = quad(left_integrand, ell0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    # xi in [x/2, x]: t = x - xi, log factor handled by the weighted rule
    i2, e2 = quad(
        lambda t: float(u_log_derivative(params, np.array([x - t]))[0]),
        0.0,
        x / 2.0,
        weight="alg-loga",
        wvar=(0.0, 0.0),
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return i1 + i2


def graded_w(params: LogExampleParams, x_points, rel_tol: float = 1e-6) -> np.ndarray:
    """w(x) = int_0^x log(x - xi) u'(xi) dxi by a graded composite rule.

    Geometric panels in ell on the left, grading exponent 2 toward the log
    singularity on the right, analytic first cell.  The rule is rerun at
    half resolution; a gap above rel_tol * |w| raises QuadratureError.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if np.any(xs <= 0) or np.any(xs > 1):
        raise DomainError("evaluation points must lie in (0, 1]")
    values = []
    for x in xs.tolist():
        total = _graded_rule(params, x, left_edges=160, right_panels=80)
        coarse = _graded_rule(params, x, left_edges=80, right_panels=40)
        if abs(total - coarse) > rel_tol * abs(total):
            raise QuadratureError(
                f"w({x}) graded rule changes by {abs(total - coarse):.2e} at half "
                f"resolution, above {rel_tol:.2e} * |{total:.6e}|"
            )
        values.append(total)
    return np.array(values)


def _gl_panels(edges: np.ndarray, npts: int = 10):
    xi, wi = np.polynomial.legendre.leggauss(npts)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    wts = (half[:, None] * wi[None, :]).ravel()
    return pts, wts


def _graded_rule(params: LogExampleParams, x: float, left_edges: int, right_panels: int) -> float:
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
    right += float(np.sum(wts_t * np.log(pts_t) * u_log_derivative(params, x - pts_t)))
    return left + right


class QuadratureBoundsWarning(UserWarning):
    """Quadrature bounds do not bracket the recommended spectral window."""


@dataclass(frozen=True)
class BalakrishnanQuadrature:
    """Composite trapezoid rule in tau for the substitution s = e^tau.

    The integrand decays like e^{q tau} on the left and e^{(q-1) tau} on the
    right, so the truncation error is governed by the bounds alone; the
    trapezoid rule itself is spectrally accurate here.  The default window
    [1e-16 ||A||, 1e16 ||A||] keeps both tails below 1e-4 relative for
    q in [0.25, 0.75].
    """

    tau_min: float
    tau_max: float
    nodes: int = 2000

    def __post_init__(self):
        if not self.tau_min < self.tau_max:
            raise DomainError("need tau_min < tau_max")
        if self.nodes < 16:
            raise DomainError("need at least 16 quadrature nodes")

    @classmethod
    def default(
        cls,
        op: DiscreteOperator,
        nodes: int = 2000,
        s_min_factor: float = 1e-16,
        s_max_factor: float = 1e16,
    ) -> "BalakrishnanQuadrature":
        return cls(
            tau_min=math.log(s_min_factor * op.op_norm),
            tau_max=math.log(s_max_factor * op.op_norm),
            nodes=nodes,
        )


def fractional_power_balakrishnan(
    op: DiscreteOperator,
    p: float,
    u: GridFunction,
    quad: BalakrishnanQuadrature | None = None,
) -> GridFunction:
    """A^p u by the resolvent integral, composed with whole powers of A.

    Each node costs one shifted solve; A u is formed once outside the loop.
    Summation order is fixed, so results are deterministic for a given node
    count.
    """
    if p <= 0:
        raise DomainError("the resolvent integral requires p > 0")
    if quad is None:
        quad = BalakrishnanQuadrature.default(op)
    if quad.tau_min > math.log(1e-6 * op.op_norm) or quad.tau_max < math.log(1e2 * op.op_norm):
        warnings.warn(
            "quadrature bounds do not bracket [1e-6 ||A||, 1e2 ||A||]",
            QuadratureBoundsWarning,
            stacklevel=2,
        )
    whole = int(math.floor(p))
    q = p - whole
    result = u
    if q > 0.0:
        taus = np.linspace(quad.tau_min, quad.tau_max, quad.nodes)
        dtau = taus[1] - taus[0]
        au = apply(op, u)
        acc = np.zeros(u.dim)
        for i, tau in enumerate(taus):
            s = math.exp(tau)
            v = shifted_solve(op, s, au)
            wt = dtau if 0 < i < quad.nodes - 1 else 0.5 * dtau
            acc += wt * math.exp(q * tau) * v.values
        result = u.with_values(math.sin(math.pi * q) / math.pi * acc)
    for _ in range(whole):
        result = apply(op, result)
    return result


def product_integration_map(op: DiscreteOperator, p: float) -> SymbolMap:
    """The product-integration rule of the order p * base_order integral.

    Exact on constants; the continuum-consistent reference family.  For the
    diagonal kind this coincides with the exact power.
    """
    if not op.is_volterra or p <= 0:
        return power_map(op, p)
    return SymbolMap(product_integration_weights(op.order * p, op.n), volterra=True)


def check_interpolation_inequality(
    op: DiscreteOperator, p: float, q: float, u: GridFunction
) -> dict:
    """Check ||A^p u|| <= c ||A^q u||^{p/q} ||u||^{1-p/q} on a single element.

    Returns a dict of ``lhs``, ``rhs``, ``constant_used``, ``ratio`` =
    lhs / rhs and ``holds``.  For q = 1 the certified constant
    2 (kappa_star + 1) is used and ``holds`` is a verdict; for other q only
    the empirical ratio is reported.
    """
    if not 0.0 < p < q:
        raise DomainError("need 0 < p < q")
    lhs = fractional_power_exact(op, p, u).norm()
    aq = fractional_power_exact(op, q, u).norm()
    rhs = aq ** (p / q) * u.norm() ** (1.0 - p / q)
    if q == 1.0:
        c = 2.0 * (op.kappa_star + 1.0)
        holds = lhs <= c * rhs + 1e-14
    else:
        c = None
        holds = None
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    return {"lhs": lhs, "rhs": rhs, "constant_used": c, "ratio": ratio, "holds": holds}


def series_power_recurrence(coeffs: np.ndarray, p: float) -> np.ndarray:
    """Coefficients of (sum_m a_m z^m)^p mod z^n, a_0 > 0.

    Uses the classical logarithmic-derivative recurrence
    m a_0 b_m = sum_{k=1..m} ((p+1) k - m) a_k b_{m-k}, run on the
    normalized series a / a_0 for scale safety.
    """
    a = np.asarray(coeffs, dtype=float)
    if a[0] <= 0:
        raise DomainError("series power needs a positive leading coefficient")
    n = a.size
    ah = a / a[0]
    b = np.zeros(n)
    b[0] = 1.0
    ks = np.arange(n, dtype=float)
    for m in range(1, n):
        coeff = (p + 1.0) * ks[1 : m + 1] - m
        b[m] = np.dot(coeff * ah[1 : m + 1], b[m - 1 :: -1][:m]) / m
    return a[0] ** p * b


def series_exp_reversed_view(g: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_m g_m z^m) mod z^n, the scaled recurrence of
    ``series_exp`` with b_{m-1}..b_0 read through a negative-stride view."""
    g = np.asarray(g, dtype=float)
    n = g.size
    size = float(np.abs(g).sum())
    s = math.ceil(math.log2(size)) if size > 1.0 else 0
    gs = g / 2.0**s
    b = np.zeros(n)
    b[0] = math.exp(gs[0])
    kgs = np.arange(n, dtype=float) * gs
    for m in range(1, n):
        b[m] = np.dot(kgs[1 : m + 1], b[m - 1 :: -1][:m]) / m
    for _ in range(s):
        b = np.convolve(b, b)[:n]
    return b


def series_log_recurrence(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of log(sum_m a_m z^m) mod z^n, a_0 > 0.

    From the logarithmic derivative a L' = a':
    m L_m = m a_m - sum_{k=1..m-1} k L_k a_{m-k}, run on a / a_0.
    """
    a = np.asarray(coeffs, dtype=float)
    if a[0] <= 0:
        raise DomainError("series logarithm needs a positive leading coefficient")
    n = a.size
    ah = a / a[0]
    out = np.zeros(n)
    ks = np.arange(n, dtype=float)
    for m in range(1, n):
        out[m] = ah[m] - np.dot(ks[1:m] * out[1:m], ah[m - 1 : 0 : -1]) / m
    out[0] = math.log(a[0])
    return out


def diagonal_log_values(op: DiscreteOperator) -> np.ndarray:
    """log sigma_k for the diagonal kind (the spectral closed form)."""
    if op.kind != "diagonal":
        raise DomainError("closed-form logarithm exists only for the diagonal kind")
    return np.log(op.weights)


#: the schedule p -> 0 of ``log_apply``'s difference quotients: 2^-3 .. 2^-12
P_SCHEDULE = tuple(2.0**-k for k in range(3, 13))


def log_apply(op: DiscreteOperator, u: GridFunction) -> tuple[GridFunction, bool, np.ndarray]:
    """log(A) u as the limit of the difference quotients (A^p u - u)/p, p -> 0.

    Haase (2006), sec. 3.5: (A^p - I)/p -> log A.  Returns
    ``(extrapolation, cauchy, distances)``: the Richardson extrapolation over
    the two smallest schedule entries, whether the distances
    ||d_{k+1} - d_k|| of successive quotients keep shrinking by at least a
    factor 1.5 over the tail of the schedule, and those distances.  On a
    grid log A is bounded, so the quotients converge wherever A^p u does not
    vanish; at node 0 of a Volterra kind the quotient is -u(0)/p.
    """
    quotients = [(fractional_power_exact(op, p, u) - u) * (1.0 / p) for p in P_SCHEDULE]
    dists = grid_norms(np.diff([q.values for q in quotients], axis=0), u.norm_kind)
    floor = 1e-13 * max(1.0, u.norm())
    if dists[-1] <= floor:
        cauchy = True
    else:
        tail = dists[-3:]
        cauchy = bool(tail[0] >= 1.5 * tail[1] and tail[1] >= 1.5 * tail[2])
    r = P_SCHEDULE[-2] / P_SCHEDULE[-1]
    extrap = (r * quotients[-1] - quotients[-2]) * (1.0 / (r - 1.0))
    return extrap, cauchy, dists


def log_kernel_apply(u: GridFunction) -> GridFunction:
    """(S u)(x_j) at every node; (S u)(0) = 0 and u(0) = 0 is required."""
    if abs(u.values[0]) > 1e-12:
        raise DomainError("the log-kernel transform expects u(0) = 0")
    n = u.n
    out = np.zeros(n + 1)
    for j in range(1, n + 1):
        out[j] = log_kernel_apply_at(u, j / n)
    return u.with_values(out)


@dataclass(frozen=True)
class ChiParams:
    """Parameters of chi_{q, sign*mu}(t) = t^q (log(1/t))^{sign*mu}."""

    q: float
    mu: float
    sign: str = "-"

    def __post_init__(self):
        if self.q < 0:
            raise DomainError("q must be nonnegative")
        if self.mu <= 0:
            raise DomainError("mu must be positive")
        if self.sign not in ("+", "-"):
            raise DomainError("sign must be '+' or '-'")


def chi(params: ChiParams, t: float) -> float:
    if not 0.0 < t < 1.0:
        raise DomainError("chi is defined on 0 < t < 1")
    ell = math.log(1.0 / t)
    expo = params.mu if params.sign == "+" else -params.mu
    return t**params.q * ell**expo


def chi_inverse(q: float, mu: float, s: float) -> float:
    """Invert chi_{q,-mu} on its branch t <= exp(-mu/q).

    In ell = log(1/t) the equation reads q ell + mu log ell = log(1/s),
    solved by a safeguarded Newton iteration started from the known
    asymptotic inverse; the result satisfies |chi(t) - s| <= 1e-10 s.
    """
    if q <= 0 or mu <= 0:
        raise DomainError("need q > 0 and mu > 0")
    if s <= 0:
        raise DomainError("need s > 0")
    ell_cap = mu / q  # t_cap = exp(-mu/q)
    s_cap = math.exp(-mu) * ell_cap**-mu  # chi_{q,-mu}(t_cap)
    if s > s_cap * (1.0 + 1e-12):
        raise DomainError("s outside the range of the monotone branch")
    target = math.log(1.0 / s)

    def phi(ell: float) -> float:
        return q * ell + mu * math.log(ell) - target

    ls = math.log(1.0 / s)
    ell = max(ell_cap, (ls - mu * math.log(max(ls / q, 1.5))) / q, 1e-12)
    for _ in range(200):
        f = phi(ell)
        df = q + mu / ell
        step = f / df
        new = ell - step
        if new < ell_cap:
            new = 0.5 * (ell + ell_cap)
        ell = new
        t = math.exp(-ell)
        if 0.0 < t < 1.0 and abs(chi(ChiParams(q, mu, "-"), t) - s) <= 1e-11 * s:
            return t
    t = math.exp(-ell)
    if abs(chi(ChiParams(q, mu, "-"), t) - s) <= 1e-10 * s:
        return t
    raise DomainError("chi inverse iteration failed to converge")


def alpha_sweep_oracle(
    problem: Problem, f_delta: GridFunction, alphas
) -> tuple[float, float]:
    """Brute-force oracle: (best alpha, smallest true error) over a dense grid."""
    best_a, best_e = math.nan, math.inf
    for a in alphas:
        u = regularize(problem.op, problem.scheme, float(a), f_delta)
        e = (u - problem.u_star).norm()
        if e < best_e:
            best_a, best_e = float(a), e
    return best_a, best_e


def unskipped_discrepancy_alphas(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    dcfg: DiscrepancyConfig,
    data: list[GridFunction],
    deltas: list[float],
) -> list[tuple[float, GridFunction, float]]:
    """The residual-band rule, one ``(alpha, u, residual)`` per row, trying every alpha.

    Each row walks ``||A|| * RATIO^j`` down from its first grid point, with an
    upward march if that point is below the band, until the residual drops
    to b1 delta, then bisects the bracketing pair in log alpha.  The same
    errors as the library end a row that cannot reach the band.
    """
    results = []
    for f_delta, delta in zip(data, deltas):
        lo_t, hi_t = dcfg.b0 * delta, dcfg.b1 * delta
        if f_delta.norm() <= hi_t:
            results.append((math.inf, op.zeros(), f_delta.norm()))
            continue

        def residual(a):
            return _one_row(op, regularizer(op, cfg, a).companion, f_delta).norm()

        alpha = op.op_norm
        r = residual(alpha)
        steps_up = 0
        while r < lo_t:
            alpha /= RATIO
            r = residual(alpha)
            steps_up += 1
            if steps_up > 200:
                raise DomainError("discrepancy band unreachable: below it after 200 upward steps")
        above = None
        while r > hi_t:
            above = alpha
            alpha *= RATIO
            if alpha < ALPHA_MIN:
                raise DomainError("discrepancy band unreachable: above it down to alpha_min")
            r = residual(alpha)
        lo_a, hi_a = alpha, above
        while not lo_t <= r <= hi_t:
            if math.log(hi_a / lo_a) <= BISECT_TOL:
                raise DomainError(
                    "discrepancy band unreachable: a step across it narrower than bisect_tol"
                )
            alpha = math.sqrt(lo_a * hi_a)
            r = residual(alpha)
            if r > hi_t:
                hi_a = alpha
            else:
                lo_a = alpha
        results.append((alpha, regularize(op, cfg, alpha, f_delta), r))
    return results
