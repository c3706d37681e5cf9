"""The operator logarithm and elements of prescribed mixed smoothness.

``log_apply`` realizes log(A) u as the limit of the difference quotients
(A^p u - u)/p along a schedule p -> 0 with one Richardson step; whether the
quotients form a Cauchy sequence is grid-level *evidence* of membership in
the domain of log(A), reported as a flag and never as proof.

``log_resolvent_power_map`` realizes (lambda I - log A)^{-nu}, for every
shift lambda above omega = log ||A||, as a function of the symbol: the
scalar form (lambda - log sigma_k)^{-nu} on the diagonal kind, and the power
series (lambda - log a(z))^{-nu} of the lag symbol a(z) on the Volterra
kinds.  The tests check both against the Laplace representation
(1/(nu-1)!) * int_0^infty q^{nu-1} e^{-lambda q} A^q w dq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fractional import fractional_power_exact, series_log, series_power
from .grid import GridFunction, grid_norms
from .operators import DiscreteOperator, SymbolMap, _one_row


#: the schedule p -> 0 of the difference quotients: 2^-3 .. 2^-12
P_SCHEDULE = tuple(2.0**-k for k in range(3, 13))


def log_apply(op: DiscreteOperator, u: GridFunction) -> tuple[GridFunction, bool, np.ndarray]:
    """Difference-quotient realization of log(A) u.

    Returns ``(extrapolation, cauchy, distances)``: the Richardson
    extrapolation over the two smallest schedule entries, the membership
    flag, and the distances ||d_{k+1} - d_k|| of successive quotients.
    ``cauchy`` is True when those distances keep shrinking by at least a
    factor 1.5 over the tail of the schedule (membership evidence), False
    otherwise; non-membership is never an error.
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


def log_resolvent_power_map(op: DiscreteOperator, lam: float, nu: int) -> SymbolMap:
    """(lambda I - log A)^{-nu}.

    Diagonal kind: division by (lambda - log sigma_k)^nu.  Volterra kinds:
    the power series (lambda - log a(z))^{-nu} of the lag symbol a(z); node
    0, where A vanishes, maps to 0.
    """
    if nu < 1 or int(nu) != nu:
        raise DomainError("nu must be a positive integer")
    if lam <= op.omega:
        raise DomainError("shift below spectral bound")
    if op.kind == "diagonal":
        return SymbolMap((lam - np.log(op.weights)) ** nu, volterra=False, quotient=True)
    shifted = -series_log(op.weights)
    shifted[0] += lam
    return SymbolMap(series_power(shifted, -float(nu)), volterra=True)


@dataclass(frozen=True)
class SourceCondition:
    """Mixed-smoothness descriptor: u = A^p (lambda I - log A)^{-nu} w."""

    p: float
    nu: int
    lam: float
    w: GridFunction

    def __post_init__(self):
        if self.p < 0:
            raise DomainError("p must be nonnegative")
        if self.nu < 1 or int(self.nu) != self.nu:
            raise DomainError("nu must be a positive integer")

    def validate_against(self, op: DiscreteOperator, p0: float = math.inf) -> None:
        if self.lam <= op.omega:
            raise DomainError(
                f"shift lambda = {self.lam} must exceed omega = log ||A|| = {op.omega}"
            )
        if not self.p < p0:
            raise DomainError(f"smoothness p = {self.p} must stay below the saturation {p0}")
        if self.w.dim != op.dim or self.w.norm_kind != op.norm_kind:
            raise DomainError("source element w does not match the operator")


def make_mixed_smooth_element(op: DiscreteOperator, sc: SourceCondition) -> GridFunction:
    """u = A^p (lambda I - log A)^{-nu} w, the ground-truth generator for rate runs."""
    sc.validate_against(op)
    v = _one_row(op, log_resolvent_power_map(op, sc.lam, sc.nu), sc.w)
    return fractional_power_exact(op, sc.p, v)
