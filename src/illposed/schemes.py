"""Parametric regularization schemes and their companion operators.

Two schemes are provided:

* iterated Lavrentiev: m repeated shifted solves
  (A + alpha I) v_k = alpha v_{k-1} + f, with companion
  S_alpha = alpha^m (A + alpha I)^{-m} and saturation p0 = m;
* the evolution-equation method: u(t) for u' + A u = f at t = 1/alpha,
  exactly as e^{-tA} u(0) + A^{-1} (I - e^{-tA}) f (power series of the lag
  symbol on the Volterra kinds), with companion S_alpha = e^{-tA} and
  unlimited saturation.

The evolution method is exposed for every kind, but is only certified for
operators with a strong sectorial resolvent condition; fractional
integration of order < 1 qualifies, the plain integration operator does
not, and reports carry a flag for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fractional import fractional_power_exact, series_exp
from .grid import GridFunction
from .operators import (
    DiscreteOperator,
    _convolve_lags,
    apply,
    series_reciprocal,
    shifted_solve,  # bench/tracing.py counts calls through schemes.shifted_solve
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

    def growth_constant(self, kappa_star: float) -> float | None:
        """Certified bound on alpha ||R_alpha||: m kappa (kappa+1)^{m-1} for Lavrentiev."""
        if self.scheme != "lavrentiev":
            return None
        return self.m * kappa_star * (kappa_star + 1.0) ** (self.m - 1)

    def sectorial_certified(self, op: DiscreteOperator) -> bool:
        """Whether the evolution method is covered by theory for this operator."""
        if self.scheme != "cauchy":
            return True
        return op.kind in ("diagonal", "abel")


def lavrentiev_iterated(
    op: DiscreteOperator, m: int, alpha: float, f: GridFunction, ubar: GridFunction
) -> GridFunction:
    """m-step iterated Lavrentiev approximation with initial guess ubar."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if m < 1:
        raise DomainError("need m >= 1")
    solve = shifted_solver(op, alpha)
    v = ubar
    for _ in range(m):
        v = solve(f + alpha * v)
    return v


def _evolve(op: DiscreteOperator, t: float, f: GridFunction, u0: GridFunction) -> GridFunction:
    """u(t) = e^{-tA} u0 + phi_t(A) f for u' + A u = f, u(0) = u0.

    phi_t(z) = (1 - e^{-tz})/z.  Diagonal kind: both functions entrywise on
    the singular values.  Volterra kinds: both as truncated power series of
    the lag symbol, phi_t as (1 - e^{-tA}) A^{-1}; node 0 (where A
    vanishes) gets u0 + t f.
    """
    if t == 0.0:
        return u0
    if op.kind == "diagonal":
        s = op.weights
        decay = np.exp(-s * t)
        reach = -np.expm1(-s * t) / s  # (1 - e^{-st})/s, stable for small st
        return u0.with_values(decay * u0.values + reach * f.values)
    lags = op.weights
    decay = series_exp(-t * lags)
    gap = -decay
    gap[0] = -math.expm1(-t * lags[0])  # 1 - e^{-t a_0} without cancellation
    reach = np.convolve(gap, series_reciprocal(lags))[: lags.size]
    out = _convolve_lags(decay, u0).values + _convolve_lags(reach, f).values
    out[0] = u0.values[0] + t * f.values[0]
    return u0.with_values(out)


def cauchy_method(
    op: DiscreteOperator, alpha: float, f: GridFunction, ubar: GridFunction
) -> GridFunction:
    """Evolution-equation regularization: u(1/alpha) for u' + A u = f, u(0) = ubar."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return _evolve(op, 1.0 / alpha, f, ubar)


def companion_apply(
    op: DiscreteOperator, cfg: RegularizerConfig, alpha: float, u: GridFunction
) -> GridFunction:
    """S_alpha u = u - R_alpha A u for the configured scheme."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if cfg.scheme == "lavrentiev":
        solve = shifted_solver(op, alpha)
        v = u
        for _ in range(cfg.m):
            v = alpha * solve(v)
        return v
    return _evolve(op, 1.0 / alpha, u.with_values(np.zeros(u.dim)), u)


def regularize(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    alpha: float,
    f_delta: GridFunction,
    ubar: GridFunction,
) -> GridFunction:
    """The regularized element ubar - R_alpha (A ubar - f_delta)."""
    if cfg.scheme == "lavrentiev":
        return lavrentiev_iterated(op, cfg.m, alpha, f_delta, ubar)
    return cauchy_method(op, alpha, f_delta, ubar)


def regularizer_apply(
    op: DiscreteOperator, cfg: RegularizerConfig, alpha: float, g: GridFunction
) -> GridFunction:
    """R_alpha g, realized as the regularized element with zero initial guess."""
    return regularize(op, cfg, alpha, g, g.with_values(np.zeros(g.dim)))


@dataclass(frozen=True)
class QualificationReport:
    """Empirical decay check of ||S_alpha A^p u|| / (alpha^p ||u||)."""

    p: float
    sup_ratio: float
    certified_bound: float | None
    passed: bool | None
    sectorial_certified: bool


def _default_probes(op: DiscreteOperator) -> list[GridFunction]:
    if op.kind == "diagonal":
        probes = [op.unit(k) for k in range(op.dim)]
        probes.append(op.ones())
        return probes
    x = np.linspace(0.0, 1.0, op.dim)
    return [
        op.grid_function(np.ones_like(x)),
        op.grid_function(x),
        op.grid_function(x * (1.0 - x)),
        op.grid_function(np.sin(np.pi * x)),
    ]


def qualification_check(
    op: DiscreteOperator,
    cfg: RegularizerConfig,
    p: float,
    alpha_grid,
    probes: list[GridFunction] | None = None,
) -> QualificationReport:
    """Estimate sup over alpha and probe elements of the decay ratio at order p.

    Raises beyond the saturation of the scheme; ``passed`` is a verdict only
    where a certified constant exists, otherwise the ratio is reported bare.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p > cfg.p0:
        raise DomainError("beyond saturation")
    if cfg.scheme == "cauchy" and math.isinf(p):
        raise DomainError("finite p required")
    grid = np.asarray(list(alpha_grid), dtype=float)
    if grid.size == 0 or np.any(grid <= 0):
        raise DomainError("alpha grid must be nonempty and positive")
    if probes is None:
        probes = _default_probes(op)
    sup = 0.0
    for u in probes:
        nu = u.norm()
        if nu == 0.0:
            continue
        g = fractional_power_exact(op, p, u)
        for a in grid:
            val = companion_apply(op, cfg, float(a), g).norm() / (float(a) ** p * nu)
            sup = max(sup, val)
    bound = cfg.qualification_constant(p, op.kappa_star)
    passed = None if bound is None else bool(sup <= bound * (1.0 + 1e-9))
    return QualificationReport(
        p=p,
        sup_ratio=sup,
        certified_bound=bound,
        passed=passed,
        sectorial_certified=cfg.sectorial_certified(op),
    )
