"""Fourier weight functions, one of them of direction-dependent order.

Weights act on frequency coordinates and model the multipliers of weighted
Sobolev norms:

* ``IsoWeight(s)``: ``<xi>^s`` with ``<xi> = (1 + |xi|^2)^(1/2)``.
* ``SplitWeight(d, m, a)``: ``<xi>^m <xi''>^a`` where ``xi''`` collects the
  last ``dim - d`` coordinates.
* ``ConeWeight(dim, base, peak, inner, outer)``: ``<xi>^(m(xi))`` with a
  variable Sobolev order m: ``peak`` on a cone of angle ``inner`` about +e0,
  ``base`` outside angle ``outer``, and a C-infinity step between the two.
* ``SumWeight([...])``: pointwise sum of weights.

Each ``__call__`` takes ``dim`` coordinate arrays that broadcast against each
other: a stacked array, which is the sequence of its rows, or per-axis arrays
such as a sparse ``np.meshgrid``, so a lattice of points ``s - x`` costs
``dim`` 1-D arrays ``s_k - axis`` instead of a ``(dim, N^dim)`` stack.  The
squares are added once, first axis first (``_norm2``).  That is the order
``np.sum(axis=0)`` uses on a stacked array, whose pairwise summation regroups
only eight or more coordinates of a single point, so below that both inputs,
and the in-order sum, give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


def smooth_step(t: np.ndarray | float) -> np.ndarray | float:
    """C-infinity transition, 1 for t <= 0 and 0 for t >= 1.

    Built from exp(-1/t); all derivatives vanish at both ends.
    """
    t = np.asarray(t, dtype=float)
    lo = np.clip(1.0 - t, 1e-300, None)
    hi = np.clip(t, 1e-300, None)
    with np.errstate(over="ignore"):
        a = np.where(t < 1.0, np.exp(-1.0 / lo), 0.0)
        b = np.where(t > 0.0, np.exp(-1.0 / hi), 0.0)
    out = a / (a + b)
    out = np.where(t <= 0.0, 1.0, out)
    out = np.where(t >= 1.0, 0.0, out)
    return out


def bracket(xi) -> np.ndarray:
    """Japanese bracket <xi>, the isotropic weight of order 1."""
    return IsoWeight(len(xi), 1.0)(xi)


def _coords(xi, dim: int) -> list[np.ndarray]:
    """The dim coordinate arrays of xi: the rows of a stacked (dim, ...)
    array, or a sequence of dim broadcastable per-axis arrays."""
    x = [np.asarray(q, dtype=float) for q in xi]
    if len(x) != dim:
        raise DimensionError(f"expected {dim} frequency coordinate arrays, got {len(x)}")
    return x


def _norm2(x) -> np.ndarray:
    """|x|^2 over coordinate arrays x, the squares added first axis first."""
    total = x[0] ** 2
    for q in x[1:]:
        total = total + q**2
    return total


class WeightFunction:
    """Base of the weights; each class defines its own ``__call__`` on
    frequency coordinates, where perfbench's tracer finds it."""

    dim: int


@dataclass(frozen=True)
class IsoWeight(WeightFunction):
    dim: int
    s: float

    def __call__(self, xi) -> np.ndarray:
        return np.sqrt(1.0 + _norm2(_coords(xi, self.dim))) ** self.s


@dataclass(frozen=True)
class SplitWeight(WeightFunction):
    """<xi>^m <xi''>^a with xi'' the last dim - d coordinates."""

    dim: int
    d: int
    m: float
    a: float

    def __post_init__(self) -> None:
        if not 0 < self.d < self.dim:
            raise DimensionError(
                f"split weight needs 0 < d < dim, got d={self.d}, dim={self.dim}"
            )

    def __call__(self, xi) -> np.ndarray:
        x = _coords(xi, self.dim)
        iso = np.sqrt(1.0 + _norm2(x)) ** self.m
        return iso * np.sqrt(1.0 + _norm2(x[self.d :])) ** self.a


@dataclass(frozen=True)
class ConeWeight(WeightFunction):
    """<xi>^(m(xi)) with the order m equal to `peak` inside angle `inner` of
    +e0, `base` outside angle `outer`, and a smooth step in between."""

    dim: int
    base: float
    peak: float
    inner: float
    outer: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.inner < self.outer <= np.pi:
            raise ValueError("need 0 <= inner < outer <= pi")

    def order(self, xi) -> np.ndarray:
        """The exponent m on frequency coordinates; the zero vector gets `base`."""
        x = _coords(xi, self.dim)
        return self._order(x[0], _norm2(x))

    def _order(self, x0: np.ndarray, norm2: np.ndarray) -> np.ndarray:
        norms = np.sqrt(norm2)
        cos = np.clip(x0 / np.where(norms == 0.0, 1.0, norms), -1.0, 1.0)
        t = (np.arccos(cos) - self.inner) / (self.outer - self.inner)
        out = self.base + (self.peak - self.base) * smooth_step(t)
        return np.where(norms == 0.0, self.base, out)

    def __call__(self, xi) -> np.ndarray:
        x = _coords(xi, self.dim)
        norm2 = _norm2(x)
        return np.sqrt(1.0 + norm2) ** self._order(x[0], norm2)


@dataclass(frozen=True)
class SumWeight(WeightFunction):
    parts: tuple[WeightFunction, ...]

    def __post_init__(self) -> None:
        dims = sorted({p.dim for p in self.parts})
        if len(dims) != 1:  # no parts, or parts of mixed dimensions
            raise DimensionError(f"sum weight needs parts of one dimension, got {dims}")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def __call__(self, xi) -> np.ndarray:
        out = self.parts[0](xi)
        for p in self.parts[1:]:
            out = out + p(xi)
        return out
