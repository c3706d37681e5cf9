"""Elements of prescribed mixed smoothness.

``make_mixed_smooth_element`` builds u = A^p (lambda I - log A)^{-nu} w from
two functions of the symbol, ``operators.log_resolvent_power_map`` and
``operators.fractional_power_exact``.  The maps check the domain: ``nu`` a
positive integer and lambda above omega = log ||A|| in the first, p >= 0 in
the second, and w of the operator's dimension and norm kind in ``_one_row``.
"""

from __future__ import annotations

from .operators import (
    DiscreteOperator,
    GridFunction,
    _one_row,
    fractional_power_exact,  # bench/tracing.py counts calls through operator_log.<name>
    log_resolvent_power_map,
)


def make_mixed_smooth_element(
    op: DiscreteOperator, p: float, nu: int, lam: float, w: GridFunction
) -> GridFunction:
    """u = A^p (lambda I - log A)^{-nu} w, the ground-truth generator for rate runs."""
    v = _one_row(op, log_resolvent_power_map(op, lam, nu), w)
    return fractional_power_exact(op, p, v)
