"""Grid functions on [0, 1] and the discrete norms used throughout.

The same container holds abstract coefficient sequences for diagonal
operators; only ``l2_scaled`` cares about the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_KINDS = ("sup", "l2_scaled")


def grid_norm(values: np.ndarray, kind: str) -> float:
    v = np.asarray(values, dtype=float)
    if kind == "sup":
        return float(np.max(np.abs(v)))
    if kind == "l2_scaled":
        h = 1.0 / (v.size - 1)
        return float(np.sqrt(h * np.dot(v, v)))
    raise ValueError(f"unknown norm kind {kind!r}")


def grid_norms(block: np.ndarray, kind: str) -> np.ndarray:
    """``grid_norm`` of each row of a (k, dim) value block."""
    return np.array([grid_norm(row, kind) for row in block])


def check_finite(values: np.ndarray) -> np.ndarray:
    """Return ``values`` unchanged, or raise ValueError if a sample is not finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("grid function samples must all be finite")
    return values


@dataclass(frozen=True)
class GridFunction:
    """Real samples on the uniform nodes x_j = j/n of [0, 1].

    ``norm_kind`` selects the discrete norm: ``sup`` (max absolute value,
    the C[0,1] setting) or ``l2_scaled`` (sqrt(h)-weighted Euclidean norm,
    the Hilbert-space cross-check).
    """

    values: np.ndarray
    norm_kind: str = "sup"

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a grid function needs at least two samples")
        check_finite(v)
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        """Number of grid cells (one less than the sample count)."""
        return self.values.size - 1

    @property
    def dim(self) -> int:
        return self.values.size

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    def norm(self) -> float:
        return grid_norm(self.values, self.norm_kind)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(values, self.norm_kind)

    def _check_compatible(self, other: "GridFunction") -> None:
        if self.dim != other.dim or self.norm_kind != other.norm_kind:
            raise ValueError("grid functions are not compatible")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, a: float) -> "GridFunction":
        return self.with_values(float(a) * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return self.with_values(-self.values)
