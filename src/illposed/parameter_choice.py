"""The a priori rule and the residual-band a posteriori rule.

The a posteriori rule is a residual band: pick alpha with
b0 delta <= ||S_alpha f_delta|| <= b1 delta, the norm of the residual
A u_alpha - f_delta = -S_alpha f_delta, where b0 exceeds the
scheme's certified bound on ||S_alpha|| (Engl, Hanke & Neubauer 1996,
ch. 4).  The band is its only setting: the walk descends the grid
||A|| * ``RATIO``^j, skips without a trial every alpha where the scheme's
certified floor on the residual clears b1 delta by ``FLOOR_MARGIN``, marches
up from ||A|| if the first trial is below the band, bisects the bracket to
``BISECT_TOL`` and gives up below ``ALPHA_MIN``.  It tries no alpha twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError
from .operators import DiscreteOperator, GridFunction, _one_row
from .schemes import (
    RegularizerConfig,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    regularize,
    regularizer,
)

#: each step of the residual-band walk multiplies alpha by this factor (or its inverse)
RATIO = 0.5
#: the walk bisects a bracketing pair until log(hi/lo) falls to this
BISECT_TOL = 1e-3
#: the residual-band walk gives up once alpha falls below this
ALPHA_MIN = 1e-14
#: the walk skips alpha only where the certified floor exceeds b1 delta by this
#: relative margin, far above the rounding of the computed floor and residual
FLOOR_MARGIN = 1e-6


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
        if not 0.0 < self.b0 <= self.b1 < math.inf:
            raise DomainError("need b1 >= b0 > 0, both finite")


def _band_search(
    residual, alpha_max: float, lo_t: float, hi_t: float, floor
) -> tuple[float, float]:
    """The first (alpha, residual(alpha)) of the walk that lands in [lo_t, hi_t].

    Descend the grid ``alpha_max * RATIO^j`` to the first trial at most
    ``hi_t``, stepping over without a trial every point where
    ``floor(alpha)``, a lower bound on the residual, exceeds ``hi_t`` by
    ``FLOOR_MARGIN``.  Below the band, that trial and the last point above
    bracket it; if no point was above, alpha marches up by ``1/RATIO`` until
    one is, as the residual tends to ||f_delta|| > b1 delta with alpha.  The
    bracket is bisected in log alpha.  No alpha is tried twice.
    """
    alpha, above, steps_up = alpha_max, None, 0
    # the floor never decreases as alpha grows, so no point after a trial is skipped
    while floor(alpha) > hi_t * (1.0 + FLOOR_MARGIN) or (r := residual(alpha)) > hi_t:
        above = alpha
        alpha *= RATIO
        if alpha < ALPHA_MIN:
            raise DomainError("discrepancy band unreachable: above it down to alpha_min")
    while not lo_t <= r <= hi_t:
        if r > hi_t:
            above = alpha
        else:
            below = alpha
        if above is None:
            if steps_up == 200:
                raise DomainError("discrepancy band unreachable: below it after 200 upward steps")
            steps_up += 1
            alpha = below / RATIO
        elif math.log(above / below) > BISECT_TOL:
            alpha = math.sqrt(below * above)
        else:
            raise DomainError("discrepancy band unreachable: a step across it narrower than bisect_tol")
        r = residual(alpha)
    return alpha, r


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
    Otherwise ``_band_search`` walks the grid ||A|| * RATIO^j until the
    residual lands in [b0 delta, b1 delta] or a pair brackets the band, which
    it then bisects in log alpha.

    The residual of a trial is ||S_alpha f_delta||, since
    A u_alpha - f_delta = -S_alpha f_delta (Engl, Hanke & Neubauer 1996,
    ch. 4): no u_alpha and no A apply per trial.  A trial is made only once
    the certified floor ``cfg.residual_floor(alpha, op.norm_bound)`` times
    ||f_delta|| no longer clears b1 delta; every alpha above that has a
    residual above the band.  The grid ||A|| * RATIO^j repeats bit for bit
    across rows, so each filter is built once per distinct trial alpha and
    serves every row that tries it; u is built once per row, at the accepted
    alpha.
    """
    if len(data) != len(deltas):
        raise DomainError("need one delta per data element")
    if any(delta <= 0 for delta in deltas):
        raise DomainError("delta must be positive")
    if not cfg.p0 > 1:
        raise DomainError("the residual-band rule needs saturation above 1 (Lavrentiev m >= 2)")
    if cfg.scheme == "lavrentiev":  # the evolution method has no bound, so no kappa* to read
        c0 = cfg.qualification_constant(0.0, op.kappa_star)
        if not dcfg.b0 > c0:
            raise DomainError(f"b0 = {dcfg.b0} must strictly exceed the companion bound c0 = {c0}")

    filter_at = functools.cache(functools.partial(regularizer, op, cfg))
    norm_bound = op.norm_bound
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
            lambda a: cfg.residual_floor(a, norm_bound) * r_inf,
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
