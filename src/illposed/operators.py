"""Discretized positive-type operators.

Three kinds are provided:

* ``integration`` -- the Volterra integration operator on [0, 1], discretized
  by piecewise-constant product integration (rectangle rule);
* ``abel`` -- the fractional integration operator of order ``0 < alpha <= 1``,
  discretized by product integration with exactly integrated kernel moments;
* ``diagonal`` -- a multiplication operator on a coefficient sequence, the
  Hilbert-space model (sigma_k = exp(-k) gives the exponentially ill-posed
  benchmark).

The Volterra kinds use right-endpoint attribution of the cell weights: cell
[x_{i-1}, x_i] multiplies u(x_i).  This keeps the lag-weight values of the
product rule (exact on constants) while making the shifted resolvent solve
unconditionally stable in alpha; attributing to the left endpoint produces a
strictly lower-triangular matrix whose resolvent blows up once alpha falls
below the grid spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .grid import GridFunction, NORM_KINDS

DEFAULT_KAPPA_GRID_POINTS = 60
#: default estimation window for the positive-type constant, relative to ||A||
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

    Every series product of the package goes through here, so each keeps the
    bits of this one ``np.convolve`` call.
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


@dataclass(frozen=True)
class SymbolMap:
    """A function f(A) of one operator, built once and applied to value blocks.

    ``symbol`` holds the values f(sigma_k), applied entrywise (diagonal kind),
    or the lag series of f(a(z)) for the lag symbol a(z), applied as the
    lower-triangular Toeplitz matrix on nodes 1..n (Volterra kinds,
    ``volterra`` true).  Node 0, where the Volterra operators vanish, is
    scaled by ``node0`` = f(0).  With ``quotient`` the entrywise values and
    ``node0`` hold 1/f and divide, so a shifted solve rounds as a division;
    the lag series is always f's own.

    Calling the map maps each row of a (k, dim) block; each Volterra row is
    its own ``_mul``, so a row's bits do not depend on the other rows.
    ``on(u)`` maps one grid function.
    """

    symbol: np.ndarray
    volterra: bool
    node0: float = 0.0
    quotient: bool = False

    def __call__(self, block: np.ndarray) -> np.ndarray:
        if not self.volterra:
            return block / self.symbol if self.quotient else self.symbol * block
        out = np.empty(block.shape)
        out[:, 0] = block[:, 0] / self.node0 if self.quotient else self.node0 * block[:, 0]
        for row, values in zip(out, block):
            row[1:] = _mul(self.symbol, values[1:], self.symbol.size)
        return out

    def on(self, u: GridFunction) -> GridFunction:
        return u.with_values(self(u.values[None])[0])


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
    so no matrix is stored and memory is O(n).  ``kappa_star`` is the positive-type constant,
    computed once at construction; ``omega`` is log ||A||.
    """

    kind: str
    norm_kind: str
    order: float
    weights: np.ndarray
    op_norm: float
    omega: float
    kappa_star: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

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

        The positive-type constant is scale invariant, the norm scales by a
        and omega shifts by log(a).
        """
        if a <= 0:
            raise DomainError("scale factor must be positive")
        return replace(
            self,
            weights=self.weights * a,
            op_norm=self.op_norm * a,
            omega=self.omega + math.log(a),
        )


def _check_dims(op: DiscreteOperator, u: GridFunction) -> None:
    if u.dim != op.dim:
        raise DimensionMismatchError(
            f"operator of dimension {op.dim} applied to grid function of dimension {u.dim}"
        )
    if u.norm_kind != op.norm_kind:
        raise DimensionMismatchError(
            f"operator norm kind {op.norm_kind!r} does not match grid function {u.norm_kind!r}"
        )


def operator_map(op: DiscreteOperator) -> SymbolMap:
    """A itself: the lags, or the singular values entrywise."""
    return SymbolMap(op.weights, volterra=op.is_volterra)


def apply(op: DiscreteOperator, u: GridFunction) -> GridFunction:
    """Forward application A u."""
    _check_dims(op, u)
    return operator_map(op).on(u)


def shifted_solver(op: DiscreteOperator, alpha: float) -> SymbolMap:
    """(A + alpha I)^{-1}, the shifted symbol inverted once.

    Volterra kinds: the reciprocal series of the shifted lags (the inverse of
    a lower-triangular Toeplitz matrix is again lower Toeplitz); node 0 gets
    f_0 / alpha.  Diagonal kind: division by sigma_k + alpha.  Schemes that
    solve m times with one alpha build this once.
    """
    if alpha <= 0:
        raise DomainError("shift alpha must be positive")
    if op.is_volterra:
        shifted = op.weights.copy()
        shifted[0] += alpha
        return SymbolMap(series_reciprocal(shifted), volterra=True, node0=alpha, quotient=True)
    return SymbolMap(op.weights + alpha, volterra=False, quotient=True)


def shifted_solve(op: DiscreteOperator, alpha: float, f: GridFunction) -> GridFunction:
    """Solve (A + alpha I) v = f; see ``shifted_solver``."""
    _check_dims(op, f)
    return shifted_solver(op, alpha).on(f)


#: cap in floats on each work array of ``_shifted_reciprocals`` (unless n > 2^14)
_RATIO_BLOCK_FLOATS = 2**15


def _shifted_reciprocals(lags: np.ndarray, alphas: np.ndarray):
    """Yield the reciprocal series 1 / (lags + alpha e_0), one row per alpha.

    The rows come in blocks of max(1, 2^15 // 2n) alphas, so no series block
    or spectrum exceeds 2^15 floats.  Each block is built by Newton doubling
    b <- b + b (1 - a b) (Brent & Kung, J. ACM 25, 1978) with FFT products
    (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).  Once b
    is right mod z^h, 1 - a b vanishes below z^h, so the step to length
    k <= 2h takes two cyclic products of length k: coefficients h..k-1 of
    lags * b, which the shift alpha e_0 does not reach (one transform of the
    lags serves every alpha), then b times them.
    """
    n = lags.size
    steps = []
    h = 1
    while h < n:
        k = min(2 * h, n)
        steps.append((h, k, np.fft.rfft(lags[:k])))
        h = k
    rows = max(1, _RATIO_BLOCK_FLOATS // (2 * n))
    for start in range(0, alphas.size, rows):
        b = np.empty((min(rows, alphas.size - start), n))
        b[:, 0] = 1.0 / (lags[0] + alphas[start : start + rows])
        for h, k, lags_hat in steps:
            b_hat = np.fft.rfft(b[:, :h], k)
            b_hat *= np.fft.rfft(np.fft.irfft(lags_hat * b_hat, k)[:, h:], k)
            b[:, h:k] = -np.fft.irfft(b_hat, k)[:, : k - h]
        yield b


def _postype_ratios(op: DiscreteOperator, alphas: np.ndarray) -> np.ndarray:
    """alpha * ||(A + alpha I)^{-1}|| for each alpha, in the operator's norm.

    Sup norm: the inverse is lower Toeplitz, so its largest absolute row sum
    is the l1 norm of its first column, the reciprocal series b of the
    shifted lags (``_shifted_reciprocals``), and node 0 contributes exactly
    alpha * (1/alpha) = 1.  Both bundled lag families are log-convex, so
    b_m <= 0 for m >= 1 (Kaluza, Math. Z. 28, 1928); their sums diverge, so
    the partial sums of b stay nonnegative, sum |b_m| <= 2 b_0 and the ratio
    stays below 2.  Scaled l2 norm: positive, nonincreasing, convex lags make
    T + T^T positive semidefinite (Fejer; Zygmund, Trigonometric Series I,
    ch. V), so A is accretive and the ratio is at most 1, with equality at
    node 0.  Both bundled lag families, the constant h and (m+1)^a - m^a for
    0 < a <= 1, satisfy this.
    """
    if op.kind == "diagonal":
        return alphas / (float(np.min(op.weights)) + alphas)
    if op.norm_kind == "l2_scaled":
        return np.ones_like(alphas)
    sums = [np.abs(b).sum(axis=1) for b in _shifted_reciprocals(op.weights, alphas)]
    return np.maximum(1.0, alphas * np.concatenate(sums))


def postype_ratio(op: DiscreteOperator, alpha: float) -> float:
    """alpha * ||(A + alpha I)^{-1}|| in the operator's induced norm.

    Exact max-row-sum for the sup norm, the Fejer certificate 1 for the
    scaled l2 norm on the Volterra kinds, exact on the diagonal kind.
    """
    if alpha <= 0:
        raise DomainError("shift alpha must be positive")
    return float(_postype_ratios(op, np.array([float(alpha)]))[0])


def estimate_postype_constant(op: DiscreteOperator, alpha_grid) -> float:
    """Positive-type constant over an alpha grid.

    Returns the maximum of alpha * ||(A + alpha I)^{-1}|| over the grid,
    together with the alpha -> infinity limit of that quantity, which equals
    1 for every bounded operator and is therefore always part of the
    supremum being estimated.
    """
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size == 0:
        raise DomainError("alpha grid must be nonempty")
    if np.any(grid <= 0):
        raise DomainError("alpha grid entries must be positive")
    return max(1.0, float(np.max(_postype_ratios(op, grid))))


def default_kappa_grid(op_norm: float, points: int = DEFAULT_KAPPA_GRID_POINTS) -> np.ndarray:
    lo, hi = KAPPA_GRID_WINDOW
    return np.logspace(np.log10(lo * op_norm), np.log10(hi * op_norm), points)


def _finish(kind, norm_kind, order, weights) -> DiscreteOperator:
    if kind == "diagonal":
        op_norm = float(np.max(weights))
    elif norm_kind == "sup":
        op_norm = float(np.sum(weights))  # the last row carries every (positive) lag
    else:
        op_norm = _power_iteration_norm(weights)
    op = DiscreteOperator(
        kind=kind,
        norm_kind=norm_kind,
        order=order,
        weights=weights,
        op_norm=op_norm,
        omega=math.log(op_norm),
        kappa_star=math.nan,
    )
    kappa = estimate_postype_constant(op, default_kappa_grid(op_norm))
    return replace(op, kappa_star=kappa)


def integration_operator(n: int, norm_kind: str = "sup") -> DiscreteOperator:
    """The discrete integration operator (Ju)(x) = int_0^x u on n cells."""
    if n < 2:
        raise DomainError("need at least two grid cells")
    if norm_kind not in NORM_KINDS:
        raise DomainError(f"unknown norm kind {norm_kind!r}")
    w = product_integration_weights(1.0, n)
    return _finish("integration", norm_kind, 1.0, w)


def abel_operator(order: float, n: int, norm_kind: str = "sup") -> DiscreteOperator:
    """The discrete fractional integration operator of order 0 < order <= 1."""
    if not 0.0 < order <= 1.0:
        raise DomainError("abel order must lie in (0, 1]")
    if n < 2:
        raise DomainError("need at least two grid cells")
    if norm_kind not in NORM_KINDS:
        raise DomainError(f"unknown norm kind {norm_kind!r}")
    w = product_integration_weights(order, n)
    return _finish("abel", norm_kind, order, w)


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
