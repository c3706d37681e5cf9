"""Parametric regularization schemes and their companion operators.

Two schemes are provided:

* iterated Lavrentiev: the m steps (A + alpha I) v_k = alpha v_{k-1} + f from
  v_0 = 0, R_alpha = (1/alpha) sum_{k=1..m} T^k with T = alpha (A + alpha I)^{-1},
  companion S_alpha = T^m and saturation p0 = m;
* the evolution-equation method: u(t) for u' + A u = f, u(0) = 0, at
  t = 1/alpha, exactly as phi_t(A) f = A^{-1} (I - e^{-tA}) f (power series
  of the lag symbol on the Volterra kinds), with companion S_alpha = e^{-tA}
  and unlimited saturation.

The regularized element is u_alpha = R_alpha f_delta: there is no initial
guess, and the residual is A u_alpha - f_delta = -S_alpha f_delta.
``regularizer(op, cfg, alpha)`` builds a scheme's filter, the two symbol maps
R_alpha and S_alpha, once for one alpha and applies them to blocks of
elements, one per row; ``regularize`` is the one-element call
(``operators._one_row``) of R_alpha.

The evolution method is exposed for every kind, but is only certified for
operators with a strong sectorial resolvent condition; fractional
integration of order < 1 qualifies, the plain integration operator (Abel
order 1) does not, and reports carry a flag for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .grid import _W_FUNCTIONS, GridFunction, grid_norms
from .operators import (
    DiscreteOperator,
    SymbolMap,
    _one_row,
    compose,
    decay_maps,
    evolution_maps,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    fractional_power_exact,
    lavrentiev_difference,
    lavrentiev_maps,
    map_power,
    power_map,
    resolvent_pair,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    shifted_solve,
)


@dataclass(frozen=True)
class RegularizerConfig:
    """Scheme selection plus the constants entering the scheme axioms."""

    scheme: str  # "lavrentiev" | "cauchy"
    m: int = 1

    def __post_init__(self):
        if self.scheme not in ("lavrentiev", "cauchy"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "lavrentiev" and self.m < 1:
            raise DomainError("iterated Lavrentiev needs m >= 1")

    @property
    def p0(self) -> float:
        """Saturation: m for iterated Lavrentiev, infinite for the evolution method."""
        return float(self.m) if self.scheme == "lavrentiev" else math.inf

    def qualification_constant(self, p: float, kappa_star: float) -> float | None:
        """Certified bound on ||S_alpha A^p|| / alpha^p, where one is known.

        Iterated Lavrentiev: (kappa+1)^m for integer 0 <= p <= m and
        2 (kappa+1)^{p+1} for non-integer 0 < p < m.  The evolution method
        has no certified constant here.
        """
        if self.scheme != "lavrentiev":
            return None
        if p < 0 or p > self.m:
            return None
        if float(p).is_integer():
            return (kappa_star + 1.0) ** self.m
        return 2.0 * (kappa_star + 1.0) ** (p + 1.0)

    def residual_floor(self, alpha: float, norm_bound: float) -> float:
        """Certified phi(alpha) with ||S_alpha g|| >= phi(alpha) ||g|| when ||A|| <= norm_bound.

        ||g|| <= ||S_alpha^{-1}|| ||S_alpha g||, and S_alpha^{-1} is
        (I + A/alpha)^m for iterated Lavrentiev and e^{A/alpha} for the
        evolution method: phi = (alpha / (alpha + N))^m or exp(-N / alpha).
        """
        if self.scheme == "lavrentiev":
            return (alpha / (alpha + norm_bound)) ** self.m
        return math.exp(-norm_bound / alpha)

    def growth_constant(self, kappa_star: float) -> float | None:
        """Certified bound on alpha ||R_alpha||: m kappa (kappa+1)^{m-1} for Lavrentiev."""
        if self.scheme != "lavrentiev":
            return None
        return self.m * kappa_star * (kappa_star + 1.0) ** (self.m - 1)

    def sectorial_certified(self, op: DiscreteOperator) -> bool:
        """Whether the scheme is covered by theory for this operator.

        Lavrentiev always is.  The evolution method is for the diagonal kind
        and Abel order < 1, not for Abel order 1, the ``integration`` kind.
        """
        return self.scheme != "cauchy" or op.kind in ("diagonal", "abel")


class Regularizer(NamedTuple):
    """The two maps of one scheme at one alpha, each a ``SymbolMap`` built once.

    On value blocks of shape (k, dim), one element per row, ``apply(g)`` is
    R_alpha g and ``companion(u)`` is S_alpha u = u - R_alpha A u.
    """

    apply: SymbolMap
    companion: SymbolMap


def regularizer(op: DiscreteOperator, cfg: RegularizerConfig, alpha: float) -> Regularizer:
    """R_alpha and S_alpha of the configured scheme, built once for this alpha.

    ``lavrentiev_maps``, or e^{-tA} and phi_t(A) at t = 1/alpha (``evolution_maps``).
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    if cfg.scheme == "lavrentiev":
        decay, reach = lavrentiev_maps(op, cfg.m, alpha)
    else:
        decay, reach = evolution_maps(op, 1.0 / alpha)
    return Regularizer(reach, decay)


def companion_difference(op: DiscreteOperator, cfg: RegularizerConfig, a0: float, a1: float):
    """S_{a1} - S_{a0} as one ``SymbolMap`` that subtracts no two companions.

    Iterated Lavrentiev: ``lavrentiev_difference``.  Evolution method, at the
    t = 1/a of ``regularizer``: e^{-t1 A} (I - e^{-(t0 - t1) A}), where
    t0 - t1 is exact for a1 near a0.
    """
    if not (0.0 < a0 < math.inf and 0.0 < a1 < math.inf):
        raise DomainError("alphas must be positive and finite")
    if cfg.scheme == "cauchy":
        return compose(decay_maps(op, 1.0 / a1)[0], decay_maps(op, 1.0 / a0 - 1.0 / a1)[1])
    return lavrentiev_difference(op, cfg.m, a0, a1)


def regularize(
    op: DiscreteOperator, cfg: RegularizerConfig, alpha: float, f_delta: GridFunction
) -> GridFunction:
    """The regularized element R_alpha f_delta."""
    return _one_row(op, regularizer(op, cfg, alpha).apply, f_delta)


def qualification_checks(op: DiscreteOperator, cfg: RegularizerConfig, ps, alpha_grid):
    """Sup over alpha and the probes of the decay ratio, at each order in ``ps``.

    One dict per order: ``p``, ``sup_ratio`` (the sup of
    ||S_alpha A^p u|| / (alpha^p ||u||)), ``certified_bound`` and ``passed``.
    Raises beyond the saturation of the scheme; ``passed`` is a verdict only
    where a certified constant exists, otherwise the ratio is reported bare.
    Each ratio is read through one map per alpha and order, with no division
    by alpha^p: S_alpha A^p / alpha^p is T^{m-p} G^p for iterated Lavrentiev
    (``resolvent_pair``; a factor of power 0 is left out, so no identity is
    composed), and t^p A^p e^{-tA}, e^{-tA} built once per alpha at t = 1/alpha,
    for the evolution method.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if p < 0:
            raise DomainError("p must be nonnegative")
        if p > cfg.p0:
            raise DomainError("beyond saturation")
        if cfg.scheme == "cauchy" and math.isinf(p):
            raise DomainError("finite p required")
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size == 0 or not np.all((grid > 0) & (grid < math.inf)):
        raise DomainError("alpha grid must be nonempty, positive and finite")
    # probes: the unit vectors and ones (diagonal kind), or the four _W_FUNCTIONS
    if op.kind == "diagonal":
        block = np.vstack([np.eye(op.dim), np.ones(op.dim)])
    else:
        x = np.linspace(0.0, 1.0, op.dim)
        block = np.stack([f(x) for f in _W_FUNCTIONS.values()])
    norms = grid_norms(block, op.norm_kind)
    block, norms = block[norms != 0.0], norms[norms != 0.0]
    sups = np.zeros(len(ps))
    for a in grid.tolist():
        if cfg.scheme == "lavrentiev":
            step, gap = resolvent_pair(op, a)
            factors = [[map_power(f, q) for f, q in ((step, cfg.m - p), (gap, p)) if q] for p in ps]
            maps = [reduce(compose, fs) for fs in factors]
        else:
            decay = decay_maps(op, 1.0 / a)[0]
            maps = [compose(decay, power_map(op.scaled(1.0 / a), p)) if p else decay for p in ps]
        sups = np.maximum(sups, [np.max(grid_norms(f(block), op.norm_kind) / norms) for f in maps])
    reports = []
    for p, sup in zip(ps, sups):
        bound = cfg.qualification_constant(p, op.kappa_star)
        passed = None if bound is None else bool(sup <= bound * (1.0 + 1e-9))
        reports.append({"p": p, "sup_ratio": float(sup), "certified_bound": bound, "passed": passed})
    return reports
