"""Independent reference implementations for the symbol calculus.

The library computes A u, (A + alpha I)^{-1} f, e^{-tA} and
(lambda I - log A)^{-nu} exactly, as functions of the operator's symbol,
without forming a matrix.  The routes here share none of that code path:
the dense matrix itself, a dense matrix exponential, and the Laplace
representation of the shifted log resolvent integrated node by node with
exact powers A^q.  QUADPACK (Piessens et al., 1983) checks the
double-exponential rule for the low-order candidate's w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, toeplitz

from illposed import DomainError, GridFunction, fractional_power_exact
from illposed.loworder import LogExampleParams, u_log_derivative
from illposed.operators import DiscreteOperator


def dense_matrix(op: DiscreteOperator) -> np.ndarray:
    """The dense (n+1) x (n+1) matrix of a Volterra operator, the diagonal matrix otherwise.

    Node 0 maps to 0 and contributes nothing: row 0 and column 0 vanish.
    """
    if not op.is_volterra:
        return np.diag(op.weights)
    mat = np.zeros((op.dim, op.dim))
    mat[1:, 1:] = toeplitz(op.weights, np.zeros(op.n))
    return mat


def expm_evolve(
    op: DiscreteOperator, t: float, f: GridFunction, u0: GridFunction
) -> GridFunction:
    """e^{-tA} u0 + int_0^t e^{-sA} f ds from one dense matrix exponential.

    The exponential of [[-tA, f], [0, 0]] carries e^{-tA} in its leading
    block and (1/t) int_0^t e^{-sA} f ds in its last column (Van Loan's
    block trick).  With t on the f column instead, that column grows like
    t and sets the scale of expm's rounding: 1e-8 relative at t = 1e8.
    """
    mat = dense_matrix(op)
    dim = op.dim
    block = np.zeros((dim + 1, dim + 1))
    block[:dim, :dim] = -t * mat
    block[:dim, dim] = f.values
    full = expm(block)
    return u0.with_values(full[:dim, :dim] @ u0.values + t * full[:dim, dim])


@dataclass(frozen=True)
class LaplaceQuadrature:
    """Composite Gauss-Legendre rule on [0, q_max] for the Laplace representation."""

    q_max: float
    nodes: int = 400
    points_per_panel: int = 10

    def __post_init__(self):
        if self.q_max <= 0 or self.nodes < 200:
            raise DomainError("need q_max > 0 and at least 200 nodes")

    @classmethod
    def default(cls, lam: float, omega: float) -> "LaplaceQuadrature":
        # panels of width 1/(lam - omega) up to 40/(lam - omega): the
        # neglected tail of the scalar model is below e^{-40} ~ 4e-18
        gap = lam - omega
        if gap <= 0:
            raise DomainError("shift below spectral bound")
        return cls(q_max=40.0 / gap, nodes=400, points_per_panel=10)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        panels = max(1, self.nodes // self.points_per_panel)
        xi, wi = np.polynomial.legendre.leggauss(self.points_per_panel)
        edges = np.linspace(0.0, self.q_max, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        qs = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
        ws = (half[:, None] * wi[None, :]).ravel()
        return qs, ws


def laplace_log_resolvent_power(
    op: DiscreteOperator,
    lam: float,
    nu: int,
    w: GridFunction,
    quad: LaplaceQuadrature | None = None,
) -> GridFunction:
    """(lambda I - log A)^{-nu} w by the Laplace representation

        (1/(nu-1)!) * int_0^infty q^{nu-1} e^{-lambda q} A^q w dq,

    each node one exact power A^q w.
    """
    if quad is None:
        quad = LaplaceQuadrature.default(lam, op.omega)
    if quad.q_max < 10.0 / (lam - op.omega):
        raise DomainError("q_max too small for the shift gap")
    qs, ws = quad.points()
    fac = math.factorial(nu - 1)
    acc = np.zeros(w.dim)
    for q, wt in zip(qs, ws):
        aq = fractional_power_exact(op, float(q), w)
        acc += wt * q ** (nu - 1) * math.exp(-lam * q) / fac * aq.values
    return w.with_values(acc)


def quadpack_w(params: LogExampleParams, x: float) -> float:
    """w(x) = int_0^x log(x - xi) u'(xi) dxi by QUADPACK at epsrel = 1e-10.

    Left half in ell = log(1/(c xi)) on [ell0, inf), right half in
    t = x - xi with the log t factor taken by the algebraic-logarithmic
    weight (QAWS).
    """
    c, kap = params.c, params.kappa
    # xi in (0, x/2]: substitute ell = log(1/(c xi)), removing the 1/xi factor
    ell0 = math.log(2.0 / (c * x))

    def left_integrand(ell):
        return math.log(x - math.exp(-ell) / c) * kap * ell ** (-kap - 1.0)

    i1, e1 = quad(left_integrand, ell0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    # xi in [x/2, x]: t = x - xi, log factor handled by the weighted rule
    i2, e2 = quad(
        lambda t: float(u_log_derivative(params, np.array([x - t]))[0]),
        0.0,
        x / 2.0,
        weight="alg-loga",
        wvar=(0.0, 0.0),
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return i1 + i2
