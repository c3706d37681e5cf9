"""Parametric regularization schemes and their companion operators.

Two schemes are provided:

* iterated Lavrentiev: m repeated shifted solves
  (A + alpha I) v_k = alpha v_{k-1} + f from v_0 = 0, with companion
  S_alpha = alpha^m (A + alpha I)^{-m} and saturation p0 = m;
* the evolution-equation method: u(t) for u' + A u = f, u(0) = 0, at
  t = 1/alpha, exactly as phi_t(A) f = A^{-1} (I - e^{-tA}) f (power series
  of the lag symbol on the Volterra kinds), with companion S_alpha = e^{-tA}
  and unlimited saturation.

The regularized element is u_alpha = R_alpha f_delta: there is no initial
guess, and the residual is A u_alpha - f_delta = -S_alpha f_delta.
``regularizer(op, cfg, alpha)`` builds a scheme's filter, the two maps
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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import _W_FUNCTIONS, GridFunction, check_finite, grid_norms
from .operators import (
    DiscreteOperator,
    _one_row,
    evolution_maps,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    fractional_power_exact,
    power_map,
    # never called here: bench/tracing.py patches this name, and --trace 1 fails without it
    shifted_solve,
    shifted_solver,
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


@dataclass(frozen=True)
class Regularizer:
    """The two maps of one scheme at one alpha, with the filter built once.

    Each map takes value blocks of shape (k, dim), one element per row, and
    returns a new block whose row i depends on row i alone: ``apply(g)`` is
    R_alpha g and ``companion(u)`` is S_alpha u = u - R_alpha A u.  A block
    with a sample that is not finite raises ValueError.
    """

    _apply: Callable[[np.ndarray], np.ndarray]
    _companion: Callable[[np.ndarray], np.ndarray]

    def apply(self, g: np.ndarray) -> np.ndarray:
        return check_finite(self._apply(g))

    def companion(self, u: np.ndarray) -> np.ndarray:
        return check_finite(self._companion(u))


def _lavrentiev(op: DiscreteOperator, m: int, alpha: float) -> Regularizer:
    """R_alpha g: m steps v <- (A + alpha I)^{-1} (g + alpha v) from v = 0.

    S_alpha = (alpha (A + alpha I)^{-1})^m.
    """
    solve = shifted_solver(op, alpha)

    def apply(g):
        v = np.zeros_like(g)
        for _ in range(m):
            v = solve(g + alpha * v)
        return v

    def companion(u):
        v = u
        for _ in range(m):
            v = alpha * solve(v)
        return v

    return Regularizer(apply, companion)


def _evolution(op: DiscreteOperator, t: float) -> Regularizer:
    """u' + A u = f, u(0) = 0, to time t: R_alpha = phi_t(A), S_alpha = e^{-tA}."""
    decay, reach = evolution_maps(op, t)
    return Regularizer(reach, decay)


def regularizer(op: DiscreteOperator, cfg: RegularizerConfig, alpha: float) -> Regularizer:
    """R_alpha and S_alpha of the configured scheme, built once for this alpha.

    Iterated Lavrentiev inverts the shifted symbol once and applies it m
    times; the evolution method builds e^{-tA} and phi_t(A) at t = 1/alpha.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if cfg.scheme == "lavrentiev":
        return _lavrentiev(op, cfg.m, alpha)
    return _evolution(op, 1.0 / alpha)


def regularize(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    alpha: float,
    f_delta: GridFunction,
) -> GridFunction:
    """The regularized element R_alpha f_delta."""
    return _one_row(op, regularizer(op, cfg, alpha).apply, f_delta)


def qualification_checks(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    ps,
    alpha_grid,
) -> list[dict]:
    """Sup over alpha and the probes of the decay ratio, at each order in ``ps``.

    One dict per order: ``p``, ``sup_ratio`` (the sup of
    ||S_alpha A^p u|| / (alpha^p ||u||)), ``certified_bound`` and ``passed``.
    Raises beyond the saturation of the scheme; ``passed`` is a verdict only
    where a certified constant exists, otherwise the ratio is reported bare.
    A^p of the probe block is built once per order, and the blocks of every
    order are stacked into one; S_alpha is built once per alpha and applied
    to that stacked block in one call.

    A ratio enters the sup only where alpha^p ||u|| exceeds eps ||A^p u||,
    the rounding of the computed A^p u.  That rounding is not in the range
    of A^p, so S_alpha does not shrink it by alpha^p: below that floor the
    ratio measures rounding (3e13 at m = 16 where the exact value is 1), and
    alpha^p may underflow to 0.
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
    if grid.size == 0 or np.any(grid <= 0):
        raise DomainError("alpha grid must be nonempty and positive")
    # probes: the unit vectors and ones (diagonal kind), or the four _W_FUNCTIONS
    if op.kind == "diagonal":
        block = np.vstack([np.eye(op.dim), np.ones(op.dim)])
    else:
        x = np.linspace(0.0, 1.0, op.dim)
        block = np.stack([f(x) for f in _W_FUNCTIONS.values()])
    norms = grid_norms(block, op.norm_kind)
    block, norms = block[norms != 0.0], norms[norms != 0.0]
    powered = np.concatenate([power_map(op, p)(block) for p in ps])
    floors = np.finfo(float).eps * grid_norms(powered, op.norm_kind)
    sups = np.zeros(len(ps))
    for a in grid:
        decayed = grid_norms(regularizer(op, cfg, float(a)).companion(powered), op.norm_kind)
        scales = np.concatenate([float(a) ** p * norms for p in ps])
        ratios = np.divide(decayed, scales, out=np.zeros_like(decayed), where=scales > floors)
        sups = np.maximum(sups, ratios.reshape(len(ps), -1).max(axis=1))
    reports = []
    for p, sup in zip(ps, sups):
        bound = cfg.qualification_constant(p, op.kappa_star)
        passed = None if bound is None else bool(sup <= bound * (1.0 + 1e-9))
        reports.append({"p": p, "sup_ratio": float(sup), "certified_bound": bound, "passed": passed})
    return reports
