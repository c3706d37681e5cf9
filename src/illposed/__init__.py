"""Regularization of linear ill-posed problems under logarithmic and mixed
source conditions: discrete positive-type operators, fractional powers and
the operator logarithm, parametric regularization schemes, parameter choice
rules, and a reproducible rate-experiment harness.

Each public name is imported from the module that defines it, for example
``from illposed.operators import integration_operator``."""

__version__ = "0.1.0"
