"""Rate functions, the a priori rule, and the residual-band a posteriori rule.

The functions chi_{q, +-mu}(t) = t^q (log(1/t))^{+-mu} on (0, 1) calibrate
every convergence statement in this package; their inverses and scaling
behaviour are what turns noise levels into regularization parameters.

The a posteriori rule is a residual band: pick alpha with
b0 delta <= ||S_alpha f_delta|| <= b1 delta, the norm of the residual
A u_alpha - f_delta = -S_alpha f_delta, where b0 exceeds the
scheme's certified bound on ||S_alpha|| (Engl, Hanke & Neubauer 1996,
ch. 4).  The band is its only setting: the walk starts at ||A||, steps by
``RATIO``, bisects to ``BISECT_TOL`` and gives up below ``ALPHA_MIN``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .grid import GridFunction
from .operators import DiscreteOperator, _one_row
from .schemes import (
    Regularizer,
    RegularizerConfig,
    # never called here: kept only for test_tracer_names_resolve until ROADMAP item 1, step B
    regularize,
    regularizer,
)

#: each step of the residual-band walk multiplies alpha by this factor (or its inverse)
RATIO = 0.5
#: the walk bisects a bracketing pair until log(hi/lo) falls to this
BISECT_TOL = 1e-3
#: the residual-band walk gives up once alpha falls below this
ALPHA_MIN = 1e-14


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


def apriori_alpha(delta: float, p: float, nu: int, c0: float = 1.0) -> float:
    """alpha = c0 * delta^{1/(p+1)} * log^{nu/(p+1)}(1/delta)."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if p < 0 or nu < 1 or c0 <= 0:
        raise DomainError("need p >= 0, nu >= 1 and c0 > 0")
    ell = math.log(1.0 / delta)
    try:
        alpha = c0 * delta ** (1.0 / (p + 1.0)) * ell ** (nu / (p + 1.0))
    except OverflowError:
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        raise DomainError(
            f"a priori alpha at delta = {delta} is not a positive finite number "
            f"(p = {p}, nu = {nu})"
        )
    return alpha


@dataclass(frozen=True)
class DiscrepancyConfig:
    """The residual band [b0 delta, b1 delta] of the a posteriori rule.

    ``b0`` must exceed the scheme's certified bound on ||S_alpha||, where
    one is known (iterated Lavrentiev); ``discrepancy_alphas`` checks it.
    """

    b0: float
    b1: float

    def __post_init__(self):
        if self.b1 < self.b0 or self.b0 <= 0:
            raise DomainError("need b1 >= b0 > 0")


def _band_search(
    residual, alpha_max: float, lo_t: float, hi_t: float
) -> tuple[float, float]:
    """The first (alpha, residual(alpha)) of the walk that lands in [lo_t, hi_t].

    Walk alpha down the grid ``alpha_max * RATIO^j`` until the residual
    drops to ``hi_t``, then bisect the bracketing pair in log alpha.
    """
    alpha = alpha_max
    r = residual(alpha)
    # If the residual starts below the band, march alpha upward first: the
    # residual tends to ||f_delta|| > b1 delta as alpha -> infinity.
    guard = 0
    while r < lo_t:
        alpha /= RATIO
        r = residual(alpha)
        guard += 1
        if guard > 200:
            raise DomainError("discrepancy band unreachable: below it after 200 upward steps")
    # here r >= lo_t, so the first pass below returns or sets ``above``
    while True:
        if r <= hi_t:
            if r >= lo_t:
                return alpha, r
            break  # fell through the band; bisect against the last point above
        above = alpha
        alpha *= RATIO
        if alpha < ALPHA_MIN:
            raise DomainError("discrepancy band unreachable: above it down to alpha_min")
        r = residual(alpha)
    lo_a, hi_a = alpha, above
    for _ in range(200):
        if math.log(hi_a / lo_a) <= BISECT_TOL:
            break
        mid = math.sqrt(lo_a * hi_a)
        r_mid = residual(mid)
        if lo_t <= r_mid <= hi_t:
            return mid, r_mid
        if r_mid > hi_t:
            hi_a = mid
        else:
            lo_a = mid
    raise DomainError("discrepancy band unreachable: a step across it narrower than bisect_tol")


def discrepancy_alphas(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    dcfg: DiscrepancyConfig,
    data: list[GridFunction],
    deltas: list[float],
) -> list[tuple[float, GridFunction, float]]:
    """Residual-band a posteriori choice for each row (f_delta, delta) of a ladder.

    Each row's answer is ``(alpha, u, residual)``.  Degenerate branch: if
    ||f_delta|| <= b1 delta the answer is alpha = infinity and u = 0.
    Otherwise walk alpha down a geometric grid until the residual drops to
    b1 delta, then bisect the bracketing pair in log alpha until the
    residual lands in [b0 delta, b1 delta].

    The residual of a trial is ||S_alpha f_delta||, since
    A u_alpha - f_delta = -S_alpha f_delta (Engl, Hanke & Neubauer 1996,
    ch. 4): no u_alpha and no A apply per trial.  The grid
    ||A|| * RATIO^j repeats bit for bit across rows, so each filter is
    built once per distinct trial alpha and serves every row that tries it;
    u is built once per row, at the accepted alpha.
    """
    if len(data) != len(deltas):
        raise DomainError("need one delta per data element")
    if any(delta <= 0 for delta in deltas):
        raise DomainError("delta must be positive")
    if not cfg.p0 > 1:
        raise DomainError("the residual-band rule needs saturation above 1 (Lavrentiev m >= 2)")
    c0 = cfg.qualification_constant(0.0, op.kappa_star)
    if c0 is not None and not dcfg.b0 > c0:
        raise DomainError(f"b0 = {dcfg.b0} must strictly exceed the companion bound c0 = {c0}")

    filters: dict[float, Regularizer] = {}

    def filter_at(a: float) -> Regularizer:
        if a not in filters:
            filters[a] = regularizer(op, cfg, a)
        return filters[a]

    results = []
    for f_delta, delta in zip(data, deltas):
        r_inf = f_delta.norm()
        if r_inf <= dcfg.b1 * delta:
            results.append((math.inf, op.zeros(), r_inf))
            continue
        alpha, r = _band_search(
            lambda a: _one_row(op, filter_at(a).companion, f_delta).norm(),
            op.op_norm,
            dcfg.b0 * delta,
            dcfg.b1 * delta,
        )
        u = _one_row(op, filter_at(alpha).apply, f_delta)
        results.append((alpha, u, r))
    return results


def discrepancy_alpha(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    dcfg: DiscrepancyConfig,
    f_delta: GridFunction,
    delta: float,
) -> tuple[float, GridFunction, float]:
    """Residual-band a posteriori choice of the regularization parameter.

    The one-row call of ``discrepancy_alphas``: ``(alpha, u, residual)``.
    """
    return discrepancy_alphas(op, cfg, dcfg, [f_delta], [delta])[0]
