"""Elements of prescribed mixed smoothness.

``make_mixed_smooth_element`` builds u = A^p (lambda I - log A)^{-nu} w from
two functions of the symbol, ``operators.log_resolvent_power_map`` and
``operators.fractional_power_exact``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .grid import GridFunction
from .operators import (
    DiscreteOperator,
    _one_row,
    fractional_power_exact,  # bench/tracing.py counts calls through operator_log.<name>
    log_resolvent_power_map,
)


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

    def validate_against(self, op: DiscreteOperator) -> None:
        if self.lam <= op.omega:
            raise DomainError(
                f"shift lambda = {self.lam} must exceed omega = log ||A|| = {op.omega}"
            )
        if self.w.dim != op.dim or self.w.norm_kind != op.norm_kind:
            raise DomainError("source element w does not match the operator")


def make_mixed_smooth_element(op: DiscreteOperator, sc: SourceCondition) -> GridFunction:
    """u = A^p (lambda I - log A)^{-nu} w, the ground-truth generator for rate runs."""
    sc.validate_against(op)
    v = _one_row(op, log_resolvent_power_map(op, sc.lam, sc.nu), sc.w)
    return fractional_power_exact(op, sc.p, v)
