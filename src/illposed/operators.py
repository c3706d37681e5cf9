"""Discretized positive-type operators.

Three kinds are provided:

* ``integration`` -- the Volterra integration operator on [0, 1], discretized
  by piecewise-constant product integration (rectangle rule);
* ``abel`` -- the fractional integration operator of order ``0 < alpha < 1``,
  discretized by product integration with exactly integrated kernel moments;
  order 1 is the ``integration`` operator and carries that kind;
* ``diagonal`` -- a multiplication operator on a coefficient sequence, the
  Hilbert-space model (sigma_k = exp(-k) gives the exponentially ill-posed
  benchmark).

The Volterra kinds use right-endpoint attribution of the cell weights: cell
[x_{i-1}, x_i] multiplies u(x_i).  This keeps the lag-weight values of the
product rule (exact on constants) while making the shifted resolvent solve
unconditionally stable in alpha; attributing to the left endpoint produces a
strictly lower-triangular matrix whose resolvent blows up once alpha falls
below the grid spacing.

Every function f(A) the package uses is a ``SymbolMap`` built here, f at
the operator's symbol: (A + alpha I)^{-1}, A^p (A itself is p = 1), A log A,
(lambda I - log A)^{-nu}, e^{-tA}, phi_t(A), and the iterated Lavrentiev
filter as products of alpha (A + alpha I)^{-1} (``compose``).  On the
diagonal kind it is f at each singular value, applied by multiplication.  On
the Volterra kinds it is a truncated power series of the lag symbol, from
this module's series algebra (``_mul`` and the ``series_*`` functions), or
its closed form on the integration kind.

``power_map`` is the one route to fractional powers: the exact matrix power
(a semigroup in p) in the lower-triangular Toeplitz algebra, or sigma_k^p.
The tests check it against the Balakrishnan resolvent integral and the
product-integration rule of the continuum fractional integral, which agrees
with it only up to discretization error (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .grid import GridFunction, NORM_KINDS, check_finite

#: largest grid of a config or of ``loworder-verify``: four times the largest
#: size-ladder grid (16384); every array is O(n), the series products O(n^2)
MAX_GRID_CELLS = 2**16
#: alpha window of a positive-type measurement, relative to ||A||
KAPPA_GRID_WINDOW = (1e-8, 1e4)


def product_integration_weights(order: float, n: int) -> np.ndarray:
    """Lag weights of piecewise-constant product integration of order > 0.

    w_m = h^order * ((m+1)^order - m^order) / Gamma(order+1).  The resulting
    convolution is exact on constants: row j of the weight matrix sums to
    x_j^order / Gamma(order+1).
    """
    if order <= 0:
        raise DomainError("product integration requires a positive order")
    h = 1.0 / n
    m = np.arange(n, dtype=float)
    return h**order / math.gamma(order + 1.0) * ((m + 1.0) ** order - m**order)


def _mul(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Coefficients 0..k-1 of the product of two power series.

    Every series product of the package goes through here, the reciprocals
    of the sup positive-type measurement included, so each keeps the bits
    (and the BLAS ``ddot`` kernel) of this one ``np.convolve`` call.
    """
    return np.convolve(a[:k], b[:k])[:k]


def series_reciprocal(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of 1 / (sum_m a_m z^m) mod z^n, a_0 != 0.

    Newton doubling b <- b (2 - a b) on the truncation length (Brent & Kung,
    J. ACM 25, 1978): each step doubles the number of correct coefficients,
    so the log2(n) steps of ``_mul`` cost O(n^2) in all.
    """
    a = np.asarray(coeffs, dtype=float)
    b = np.array([1.0 / a[0]])
    while b.size < a.size:
        k = min(2 * b.size, a.size)
        c = -_mul(a, b, k)
        c[0] += 2.0
        b = _mul(b, c, k)
    return b


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
    arithmetic.
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


@dataclass(frozen=True)
class SymbolMap:
    """A function f(A) of one operator, built once and applied to value blocks.

    ``symbol`` holds the values f(sigma_k), applied entrywise (diagonal kind),
    or the lag series of f(a(z)) for the lag symbol a(z), applied as the
    lower-triangular Toeplitz matrix on nodes 1..n (Volterra kinds,
    ``volterra`` true).  Node 0, where the Volterra operators vanish, is
    scaled by ``node0`` = f(0).

    Calling the map maps each row of a (k, dim) block; each Volterra row is
    its own ``_mul``, so a row's bits do not depend on the other rows.  A
    result with a sample that is not finite raises ValueError.
    """

    symbol: np.ndarray
    volterra: bool
    node0: float = 0.0

    def __call__(self, block: np.ndarray) -> np.ndarray:
        if not self.volterra:
            return check_finite(self.symbol * block)
        out = np.empty(block.shape)
        out[:, 0] = self.node0 * block[:, 0]
        for row, values in zip(out, block):
            row[1:] = _mul(self.symbol, values[1:], self.symbol.size)
        return check_finite(out)


def compose(first: SymbolMap, second: SymbolMap) -> SymbolMap:
    """f(A) g(A) for two maps of one operator: the products of the symbols and of f(0) g(0)."""
    if not first.volterra:
        return SymbolMap(first.symbol * second.symbol, volterra=False)
    product = _mul(first.symbol, second.symbol, first.symbol.size)
    return SymbolMap(product, volterra=True, node0=first.node0 * second.node0)


def map_power(f: SymbolMap, p: float) -> SymbolMap:
    """f(A)^p, p >= 0, for a symbol with a positive leading value (``series_power``)."""
    if not f.volterra:
        return SymbolMap(f.symbol**p, volterra=False)
    return SymbolMap(series_power(f.symbol, p), volterra=True, node0=f.node0**p)


def _one_row(op: DiscreteOperator, block_map, u: GridFunction) -> GridFunction:
    """A block map of ``op`` applied to one element as a one-row block.

    The element must match the operator's dimension and norm kind; the
    result has the bits of the same row in a larger block.
    """
    if u.dim != op.dim or u.norm_kind != op.norm_kind:
        raise DimensionMismatchError(
            f"operator ({op.dim}, {op.norm_kind!r}) applied to grid function "
            f"({u.dim}, {u.norm_kind!r})"
        )
    return u.with_values(block_map(u.values[None])[0])


def _power_iteration_norm(lags: np.ndarray, tol: float = 1e-8, maxit: int = 2000) -> float:
    """Largest singular value of the Volterra matrix by power iteration on T^T T.

    A Toeplitz matrix is persymmetric, T^T = J T J with J the reversal, so
    both products are convolutions with the lags.  The start is the unit
    vector of ones on all n+1 nodes; node 0 meets a zero column, so it only
    enters the first normalization.  Raises DomainError after ``maxit``
    iterations without convergence.
    """
    n = lags.size
    x = np.full(n, 1.0 / math.sqrt(n + 1))
    est = 0.0
    for _ in range(maxit):
        y = _mul(lags, x, n)
        z = _mul(lags, y[::-1], n)[::-1]
        new = float(np.linalg.norm(y))  # ||T x|| with ||x|| = 1
        x = z / np.linalg.norm(z)
        if abs(new - est) <= tol * max(new, 1e-300):
            return new
        est = new
    raise DomainError(f"power iteration for ||A|| did not converge in {maxit} iterations")


@dataclass(frozen=True)
class DiscreteOperator:
    """Immutable realization of a positive-type operator.

    Fields mirror the construction: ``weights`` holds the Toeplitz lag
    weights (Volterra kinds) or the singular values (diagonal kind); every
    Volterra operation is a convolution with a series built from the lags,
    so no matrix is stored and memory is O(n).  ``kappa_star`` is the
    positive-type constant from its certificate, ``inverse_lags`` the lag
    series of A^{-1}, computed on first read, and ``omega`` is log ||A||.
    """

    kind: str
    norm_kind: str
    order: float
    weights: np.ndarray
    op_norm: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def kappa_star(self) -> float:
        """The certified bound on sup_alpha alpha ||(A + alpha I)^{-1}||.

        2 on the sup-norm Volterra kinds (Kaluza), 1 on ``l2_scaled`` (Fejer)
        and on the diagonal kind; ``_postype_ratios`` gives the arguments.
        """
        return 2.0 if self.is_volterra and self.norm_kind == "sup" else 1.0

    @property
    def norm_bound(self) -> float:
        """An upper bound on ||A||: sigma_max, or the lag sum on the Volterra kinds.

        The lag sum is ||A|| in sup and the Schur bound sqrt(||T||_1 ||T||_inf)
        in l2_scaled, where ``op_norm`` comes from power iteration, from below.
        """
        return self.op_norm if self.kind == "diagonal" else float(np.sum(self.weights))

    @property
    def omega(self) -> float:
        """log ||A||, the spectral bound of log A."""
        return math.log(self.op_norm)

    @functools.cached_property
    def inverse_lags(self) -> np.ndarray:
        """The lag series of A^{-1} on nodes 1..n, ``series_reciprocal(weights)``, cached.

        Volterra kinds only; it does not depend on any shift, so every alpha
        of the evolution method shares it.
        """
        return series_reciprocal(self.weights)

    @property
    def is_volterra(self) -> bool:
        return self.kind in ("integration", "abel")

    @property
    def dim(self) -> int:
        """Length of admissible value vectors."""
        if self.is_volterra:
            return self.weights.size + 1
        return self.weights.size

    @property
    def n(self) -> int:
        """Grid cells for Volterra kinds, mode count for the diagonal kind."""
        return self.weights.size

    def grid_function(self, values) -> GridFunction:
        return GridFunction(values, self.norm_kind)

    def ones(self) -> GridFunction:
        return self.grid_function(np.ones(self.dim))

    def zeros(self) -> GridFunction:
        return self.grid_function(np.zeros(self.dim))

    def unit(self, k: int) -> GridFunction:
        v = np.zeros(self.dim)
        v[k] = 1.0
        return self.grid_function(v)

    def scaled(self, a: float) -> "DiscreteOperator":
        """The operator a*A.

        The positive-type constant is scale invariant (scaling keeps the lags
        log-convex) and the norm scales by a.
        """
        if not 0.0 < a < math.inf:
            raise DomainError("scale factor must be positive and finite")
        return replace(self, weights=self.weights * a, op_norm=self.op_norm * a)


def apply(op: DiscreteOperator, u: GridFunction) -> GridFunction:
    """Forward application A u, the power A^1."""
    return _one_row(op, power_map(op, 1.0), u)


def shifted_solver(op: DiscreteOperator, alpha: float) -> SymbolMap:
    """(A + alpha I)^{-1}, the shifted symbol inverted once.

    Volterra kinds: the reciprocal series of the shifted lags (the inverse of
    a lower-triangular Toeplitz matrix is again lower Toeplitz); node 0 gets
    1/alpha.  Diagonal kind: 1/(sigma_k + alpha).
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError("shift alpha must be positive and finite")
    if op.is_volterra:
        shifted = op.weights.copy()
        shifted[0] += alpha
        return SymbolMap(series_reciprocal(shifted), volterra=True, node0=1.0 / alpha)
    return SymbolMap(1.0 / (op.weights + alpha), volterra=False)


def shifted_solve(op: DiscreteOperator, alpha: float, f: GridFunction) -> GridFunction:
    """Solve (A + alpha I) v = f; see ``shifted_solver``."""
    return _one_row(op, shifted_solver(op, alpha), f)


def resolvent_pair(op: DiscreteOperator, alpha: float) -> tuple[SymbolMap, SymbolMap]:
    """T = alpha (A + alpha I)^{-1} and G = A (A + alpha I)^{-1} = I - T, with no subtraction.

    With b = ``shifted_solver(op, alpha).symbol``, T has the lags alpha b and G
    has a_0 b_0, then -alpha b_k; node 0 gets 1 and 0.
    """
    b, volterra = shifted_solver(op, alpha).symbol, op.is_volterra
    gap = -alpha * b if volterra else op.weights * b
    gap[0] = op.weights[0] * b[0]  # a_0 b_0 = 1 - alpha b_0; the same value on the diagonal kind
    return SymbolMap(alpha * b, volterra=volterra, node0=1.0), SymbolMap(gap, volterra=volterra)


def lavrentiev_maps(op: DiscreteOperator, m: int, alpha: float) -> tuple[SymbolMap, SymbolMap]:
    """(S_alpha, R_alpha) of m-times iterated Lavrentiev: T^m and (1/alpha) sum_{k=1..m} T^k.

    One loop of m - 1 products of ``resolvent_pair``'s T; node 0 gets 1 and
    m/alpha.  R_alpha is not (I - S_alpha) A^{-1}, which cancels where A is small.
    """
    step = power = resolvent_pair(op, alpha)[0]
    total = step.symbol
    for _ in range(m - 1):
        power = compose(power, step)
        total = total + power.symbol
    return power, SymbolMap(total / alpha, volterra=step.volterra, node0=m / alpha)


def lavrentiev_difference(op: DiscreteOperator, m: int, a0: float, a1: float) -> SymbolMap:
    """X^m - Y^m = (X - Y) sum_j X^j Y^{m-1-j}, X and Y the T of a1 and a0, with no subtraction.

    X - Y = (a1 - a0) A (A + a1 I)^{-1} (A + a0 I)^{-1} = ((a1 - a0)/a0) G_1 Y; node 0 gets 0.
    """
    (x, gap), y = resolvent_pair(op, a1), resolvent_pair(op, a0)[0]
    power = total = compose(replace(gap, symbol=(a1 - a0) / a0 * gap.symbol), y)
    for _ in range(m - 1):
        power, total = compose(power, y), compose(total, x)
        total = replace(total, symbol=total.symbol + power.symbol)
    return total


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


def a_log_a_map(op: DiscreteOperator) -> SymbolMap:
    """A log A = d/dp A^p at p = 1 (Haase 2006, sec. 3.5), on the integration kind.

    The symbol w0 / (1 - z) has the logarithm log w0 - log(1 - z), so the
    product has the lags w0 (log w0 + H_k), H_k the k-th harmonic number.
    Lag 0 gives w0, as ``power_map`` reads it; node 0 maps to 0.
    """
    if op.kind != "integration":
        raise DomainError(f"A log A has a closed form on the integration kind, not {op.kind!r}")
    w0 = float(op.weights[0])
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, op.n))))
    return SymbolMap(w0 * (math.log(w0) + harmonic), volterra=True)


def log_resolvent_power_map(op: DiscreteOperator, lam: float, nu: int) -> SymbolMap:
    """(lambda I - log A)^{-nu}.

    Diagonal kind: (lambda - log sigma_k)^{-nu}, which may underflow to 0 but
    raises DomainError where it is not finite.  Volterra kinds: the power
    series (lambda - log a(z))^{-nu} of the lag symbol a(z); node 0, where A
    vanishes, maps to 0.  The tests check both against the Laplace
    representation (1/(nu-1)!) * int_0^infty q^{nu-1} e^{-lambda q} A^q w dq.
    """
    if nu < 1 or int(nu) != nu:
        raise DomainError("nu must be a positive integer")
    if lam <= op.omega:
        raise DomainError("shift below spectral bound")
    if op.kind == "diagonal":
        with np.errstate(over="ignore"):
            values = (lam - np.log(op.weights)) ** -float(nu)
        if not np.all(np.isfinite(values)):
            raise DomainError(f"(lambda - log A)^{{-nu}} at nu = {nu} is not finite")
        return SymbolMap(values, volterra=False)
    shifted = -series_log(op.weights)
    shifted[0] += lam
    return SymbolMap(series_power(shifted, -float(nu)), volterra=True)


def decay_maps(op: DiscreteOperator, t: float) -> tuple[SymbolMap, SymbolMap]:
    """(e^{-tA}, I - e^{-tA}): entrywise on the singular values, or lag series.

    The gap's coefficient 0 comes from expm1; node 0 (where A vanishes) gets
    1 and 0.
    """
    if op.kind == "diagonal":
        s = op.weights
        return SymbolMap(np.exp(-s * t), volterra=False), SymbolMap(-np.expm1(-s * t), volterra=False)
    series = series_exp(-t * op.weights)
    gap = -series
    gap[0] = -math.expm1(-t * op.weights[0])  # 1 - e^{-t a_0} without cancellation
    return SymbolMap(series, volterra=True, node0=1.0), SymbolMap(gap, volterra=True)


def evolution_maps(op: DiscreteOperator, t: float) -> tuple[SymbolMap, SymbolMap]:
    """(e^{-tA}, phi_t(A)), phi_t(z) = (1 - e^{-tz})/z the gap of ``decay_maps`` over z.

    Volterra kinds: the gap times the lag series of A^{-1}; node 0 gets t.
    """
    decay, gap = decay_maps(op, t)
    if op.kind == "diagonal":
        return decay, SymbolMap(gap.symbol / op.weights, volterra=False)
    return decay, SymbolMap(_mul(gap.symbol, op.inverse_lags, op.n), volterra=True, node0=t)


def _postype_ratios(op: DiscreteOperator, alphas: np.ndarray) -> np.ndarray:
    """alpha * ||(A + alpha I)^{-1}|| for each alpha, in the operator's norm.

    These are the measured side of ``kappa_star``, whose certificates follow.
    Sup norm: the inverse is lower Toeplitz, so its largest absolute row sum
    is the l1 norm of its first column, the reciprocal series b of the shifted
    lags, which ``shifted_solver`` builds as for every Lavrentiev filter
    (O(n^2) time and O(n) memory per alpha), and node 0 contributes exactly
    alpha * (1/alpha) = 1.  The lags of ``product_integration_weights``, the
    constant h and (m+1)^a - m^a for 0 < a < 1, are positive and log-convex,
    and a shift of lag 0 keeps them so; then b_m <= 0 for m >= 1 (Kaluza,
    Math. Z. 28, 1928), and as the lag sums diverge, the partial sums of b
    stay nonnegative, sum |b_m| <= 2 b_0 and the ratio stays below 2: the
    certificate 2.  Scaled l2 norm: positive, nonincreasing, convex lags make
    T + T^T positive semidefinite (Fejer; Zygmund, Trigonometric Series I,
    ch. V), so A is accretive and the ratio is at most 1, with equality at
    node 0: the certificate 1.  Diagonal kind: alpha / (sigma_min + alpha),
    below its alpha -> infinity limit 1.
    """
    if op.kind == "diagonal":
        return alphas / (float(np.min(op.weights)) + alphas)
    if op.norm_kind == "l2_scaled":
        return np.ones_like(alphas)
    sums = np.array([np.abs(shifted_solver(op, a).symbol).sum() for a in alphas])
    return np.maximum(1.0, alphas * sums)


def estimate_postype_constant(op: DiscreteOperator, alpha_grid) -> float:
    """Positive-type constant measured over an alpha grid, at most ``op.kappa_star``.

    Returns the maximum of alpha * ||(A + alpha I)^{-1}|| over the grid,
    together with the alpha -> infinity limit of that quantity, which equals
    1 for every bounded operator and is therefore always part of the
    supremum being measured.
    """
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size == 0:
        raise DomainError("alpha grid must be nonempty")
    if not np.all((grid > 0) & (grid < math.inf)):
        raise DomainError("alpha grid entries must be positive and finite")
    return max(1.0, float(np.max(_postype_ratios(op, grid))))


def default_kappa_grid(op_norm: float, points: int) -> np.ndarray:
    """``points`` alphas, log-spaced over ``KAPPA_GRID_WINDOW`` times ||A||."""
    lo, hi = KAPPA_GRID_WINDOW
    return np.logspace(np.log10(lo * op_norm), np.log10(hi * op_norm), points)


def _finish(kind, norm_kind, order, weights) -> DiscreteOperator:
    if kind == "diagonal":
        op_norm = float(np.max(weights))
    elif norm_kind == "sup":
        op_norm = float(np.sum(weights))  # the last row carries every (positive) lag
    else:
        op_norm = _power_iteration_norm(weights)
    return DiscreteOperator(kind=kind, norm_kind=norm_kind, order=order, weights=weights, op_norm=op_norm)


def integration_operator(n: int, norm_kind: str = "sup") -> DiscreteOperator:
    """The discrete integration operator (Ju)(x) = int_0^x u on n cells: Abel order 1."""
    return abel_operator(1.0, n, norm_kind)


def abel_operator(order: float, n: int, norm_kind: str = "sup") -> DiscreteOperator:
    """The discrete fractional integration operator of order 0 < order <= 1.

    Order 1 has the lags h of the rectangle rule and is the ``integration``
    kind, so its powers, certificates and config record are that kind's.
    """
    if not 0.0 < order <= 1.0:
        raise DomainError("abel order must lie in (0, 1]")
    if n < 2:
        raise DomainError("need at least two grid cells")
    if norm_kind not in NORM_KINDS:
        raise DomainError(f"unknown norm kind {norm_kind!r}")
    w = product_integration_weights(order, n)
    return _finish("integration" if order == 1.0 else "abel", norm_kind, order, w)


def diagonal_operator(sigma, norm_kind: str = "l2_scaled") -> DiscreteOperator:
    """A diagonal operator with positive, nonincreasing singular values."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise DomainError("sigma must be a nonempty vector")
    if np.any(s <= 0):
        raise DomainError("all singular values must be positive")
    if np.any(np.diff(s) > 0):
        raise DomainError("singular values must be nonincreasing")
    if norm_kind not in NORM_KINDS:
        raise DomainError(f"unknown norm kind {norm_kind!r}")
    return _finish("diagonal", norm_kind, math.nan, s)


def exp_decay_diagonal(modes: int, norm_kind: str = "l2_scaled") -> DiscreteOperator:
    """sigma_k = exp(-k), k = 0..modes-1: the exponentially ill-posed model."""
    return diagonal_operator(np.exp(-np.arange(modes, dtype=float)), norm_kind)
