"""Fractional powers A^p of the discrete operators.

Three mutually cross-checking routes are implemented:

* ``fractional_power_exact`` -- the exact matrix power of the discrete
  operator.  For the Volterra kinds this is computed in the algebra of
  lower-triangular Toeplitz matrices (power series in the shift), so the
  family is an exact semigroup in p and coincides with the limit of the
  resolvent integral below.  For the diagonal kind it is sigma_k^p.
* ``fractional_power_product_integration`` -- the product-integration
  discretization of the continuum fractional integral of order
  p * base_order.  Exact on constants; this is the continuum-consistent
  reference family used in grid-refinement checks.  It agrees with the
  matrix power only up to discretization error.
* ``fractional_power_balakrishnan`` -- the resolvent integral
  (sin(pi q)/pi) * int_0^infty s^{q-1} (A + sI)^{-1} A u ds, evaluated with
  the substitution s = e^tau and a composite trapezoid rule.  Generic and
  kind-agnostic; used as an independent cross-check of the exact route.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureBoundsWarning
from .grid import GridFunction
from .operators import (
    DiscreteOperator,
    _convolve_lags,
    _convolve_rows,
    apply,
    product_integration_weights,
    shifted_solve,
)


def series_power(coeffs: np.ndarray, p: float) -> np.ndarray:
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


def series_log(coeffs: np.ndarray) -> np.ndarray:
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


def series_exp(g: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_m g_m z^m) mod z^n.

    From b' = g' b: m b_m = sum_{k=1..m} k g_k b_{m-k}, run on g / 2^s with
    sum |g_m| / 2^s <= 1 and squared s times (scaling and squaring; Higham,
    Functions of Matrices, ch. 10).  The scaling bounds every term of the
    recurrence by e, so its cancellation error stays near rounding whatever
    the size of g.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    size = float(np.abs(g).sum())
    s = math.ceil(math.log2(size)) if size > 1.0 else 0
    gs = g / 2.0**s
    b = np.zeros(n)
    b[0] = math.exp(gs[0])
    ks = np.arange(n, dtype=float)
    for m in range(1, n):
        b[m] = np.dot(ks[1 : m + 1] * gs[1 : m + 1], b[m - 1 :: -1][:m]) / m
    for _ in range(s):
        b = np.convolve(b, b)[:n]
    return b


def _binomial_lags(h_pow: float, q: float, n: int) -> np.ndarray:
    """Coefficients of h_pow^q * (1 - z)^{-q} mod z^n (integration-kind powers)."""
    w = np.empty(n)
    w[0] = h_pow**q
    for m in range(1, n):
        w[m] = w[m - 1] * (q + m - 1.0) / m
    return w


def matrix_power_lags(op: DiscreteOperator, p: float) -> np.ndarray:
    """Toeplitz lag weights of A^p for a Volterra kind."""
    n = op.n
    if op.kind == "integration":
        return _binomial_lags(1.0 / n, p, n)
    return series_power(op.weights, p)


def fractional_power_rows(op: DiscreteOperator, p: float, block: np.ndarray) -> np.ndarray:
    """A^p applied to each row of a (k, dim) value block, the power built once."""
    if p < 0:
        raise DomainError("fractional power requires p >= 0")
    if p == 0:
        return block
    if op.kind == "diagonal":
        return op.weights**p * block
    return _convolve_rows(matrix_power_lags(op, p), block)


def fractional_power_exact(op: DiscreteOperator, p: float, u: GridFunction) -> GridFunction:
    """A^p u by the exact power of the discrete operator (semigroup in p)."""
    if p == 0:
        return u
    return u.with_values(fractional_power_rows(op, p, u.values[None])[0])


def fractional_power_product_integration(
    op: DiscreteOperator, p: float, u: GridFunction
) -> GridFunction:
    """Product-integration discretization of the order p * base_order integral.

    Exact on constants; the continuum-consistent reference family.  For the
    diagonal kind this coincides with the exact power.
    """
    if p < 0:
        raise DomainError("fractional power requires p >= 0")
    if p == 0:
        return u
    if op.kind == "diagonal":
        return u.with_values(op.weights**p * u.values)
    return _convolve_lags(product_integration_weights(op.order * p, op.n), u)


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


@dataclass(frozen=True)
class InterpolationReport:
    """Outcome of one moment-inequality check ||A^p u|| <= c ||A^q u||^{p/q} ||u||^{1-p/q}."""

    lhs: float
    rhs: float
    constant_used: float | None
    ratio: float
    holds: bool | None


def check_interpolation_inequality(
    op: DiscreteOperator, p: float, q: float, u: GridFunction
) -> InterpolationReport:
    """Check the moment inequality for fractional powers on a single element.

    For q = 1 the certified constant 2 (kappa_star + 1) is used and ``holds``
    is a verdict; for other q only the empirical ratio is reported.
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
    return InterpolationReport(lhs=lhs, rhs=rhs, constant_used=c, ratio=ratio, holds=holds)
