"""Fractional powers A^p of the discrete operators.

Two library routes are implemented, each a ``SymbolMap`` builder:

* ``power_map`` -- the exact matrix power of the discrete operator, with
  ``fractional_power_exact`` its one-element call.  For the Volterra kinds
  this is computed in the algebra of lower-triangular Toeplitz matrices
  (power series in the shift), so the family is an exact semigroup in p and
  coincides with the limit of the Balakrishnan resolvent integral.  For the
  diagonal kind it is sigma_k^p.
* ``product_integration_map`` -- the product-integration discretization of
  the continuum fractional integral of order p * base_order.  Exact on
  constants; this is the continuum-consistent reference family used in
  grid-refinement checks.  It agrees with the matrix power only up to
  discretization error.

The tests cross-check the exact route against a third, the resolvent
integral (sin(pi q)/pi) * int_0^infty s^{q-1} (A + sI)^{-1} A u ds by a
trapezoid rule in tau = log s, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grid import GridFunction
from .operators import (
    DiscreteOperator,
    SymbolMap,
    _mul,
    _one_row,
    product_integration_weights,
    series_reciprocal,
)


def series_power(coeffs: np.ndarray, p: float) -> np.ndarray:
    """Coefficients of (sum_m a_m z^m)^p mod z^n, a_0 > 0.

    Integer p: square-and-multiply on a, or on its reciprocal series when
    p < 0, so |p| costs O(log |p|) products.  Other p: a_0^p times
    exp(p log(a / a_0)).
    """
    a = np.asarray(coeffs, dtype=float)
    if a[0] <= 0:
        raise DomainError("series power needs a positive leading coefficient")
    n = a.size
    if not float(p).is_integer():
        with np.errstate(over="ignore", invalid="ignore"):
            out = a[0] ** p * series_exp(p * series_log(a / a[0]))
        if not np.all(np.isfinite(out)):
            raise DomainError(
                f"series power at p = {p} is not finite (a_0^p or the series overflows)"
            )
        return out
    if p == 0:
        return np.eye(1, n)[0]
    base = series_reciprocal(a) if p < 0 else a.copy()
    e = int(abs(p))
    out = None
    while True:
        if e & 1:
            out = base if out is None else _mul(out, base, n)
        e >>= 1
        if not e:
            return out
        base = _mul(base, base, n)


def series_log(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of log(sum_m a_m z^m) mod z^n, a_0 > 0.

    log a = log a_0 + int a'/a: with a^ = a / a_0, coefficient m of the
    product (k a^_k) * (1 / a^) is m L_m, so one reciprocal series and one
    product give every L_m.
    """
    a = np.asarray(coeffs, dtype=float)
    if a[0] <= 0:
        raise DomainError("series logarithm needs a positive leading coefficient")
    n = a.size
    ah = a / a[0]
    ks = np.arange(n, dtype=float)
    out = np.empty(n)
    out[0] = math.log(a[0])
    out[1:] = _mul(ks * ah, series_reciprocal(ah), n)[1:] / ks[1:]
    return out


def series_exp(g: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_m g_m z^m) mod z^n.

    From b' = g' b: m b_m = sum_{k=1..m} k g_k b_{m-k}, run on g / 2^s with
    sum |g_m| / 2^s <= 1 and squared s times (scaling and squaring; Higham,
    Functions of Matrices, ch. 10).  The scaling bounds every term of the
    recurrence by e, so its cancellation error stays near rounding whatever
    the size of g.  This is the one loop over coefficients left in the series
    arithmetic: a Newton or FFT core moves the last bits, which the
    finite-difference goldens magnify far past their tolerance.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    size = float(np.abs(g).sum())
    s = math.ceil(math.log2(size)) if size > 1.0 else 0
    gs = g / 2.0**s
    # rev[n-1-j] = b_j, so b_{m-1}..b_0 is the contiguous tail rev[n-m:]: the
    # same ddot operands as a reversed view of b, without the copy np.dot makes
    rev = np.zeros(n)
    rev[n - 1] = math.exp(gs[0])
    kgs = np.arange(n, dtype=float) * gs
    for m in range(1, n):
        rev[n - 1 - m] = np.dot(kgs[1 : m + 1], rev[n - m :]) / m
    b = rev[::-1].copy()
    for _ in range(s):
        b = _mul(b, b, n)
    return b


def _binomial_lags(h_pow: float, q: float, n: int) -> np.ndarray:
    """Coefficients of h_pow^q * (1 - z)^{-q} mod z^n (integration-kind powers)."""
    m = np.arange(1.0, n)
    return np.cumprod(np.concatenate(([h_pow**q], (q + m - 1.0) / m)))


def power_map(op: DiscreteOperator, p: float) -> SymbolMap:
    """A^p, the exact power of the discrete operator (a semigroup in p).

    A^0 = I acts entrywise on every kind.
    """
    if p < 0:
        raise DomainError("fractional power requires p >= 0")
    if p == 0:
        return SymbolMap(np.ones(op.dim), volterra=False)
    if op.kind == "diagonal":
        return SymbolMap(op.weights**p, volterra=False)
    if op.kind == "integration":
        # lag 0 is h on the unscaled operator, a*h after scaled(a)
        return SymbolMap(_binomial_lags(op.weights[0], p, op.n), volterra=True)
    return SymbolMap(series_power(op.weights, p), volterra=True)


def fractional_power_exact(op: DiscreteOperator, p: float, u: GridFunction) -> GridFunction:
    """A^p u by the exact power of the discrete operator (semigroup in p)."""
    return _one_row(op, power_map(op, p), u)


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
