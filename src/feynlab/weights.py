"""Fourier weight functions, one of them of direction-dependent order.

Weights act on stacked frequency arrays of shape ``(dim, ...)`` and model the
multipliers of weighted Sobolev norms:

* ``IsoWeight(s)``: ``<xi>^s`` with ``<xi> = (1 + |xi|^2)^(1/2)``.
* ``SplitWeight(d, m, a)``: ``<xi>^m <xi''>^a`` where ``xi''`` collects the
  last ``dim - d`` coordinates.
* ``ConeWeight(dim, base, peak, inner, outer)``: ``<xi>^(m(xi))`` with a
  variable Sobolev order m: ``peak`` on a cone of angle ``inner`` about +e0,
  ``base`` outside angle ``outer``, and a C-infinity step between the two.
* ``SumWeight([...])``: pointwise sum of weights.

``IsoWeight`` and ``SplitWeight`` read their argument only through squared
coordinates, so each also takes them directly: ``of_squares(sq)`` accepts the
per-axis squares as a sequence of ``dim`` broadcastable arrays.  A lattice of
points ``s - x`` then costs ``dim`` 1-D arrays ``(s_k - axis)**2`` instead of a
``(dim, N^dim)`` difference array.  The squares are added first axis first,
the order ``np.sum(axis=0)`` uses on a stacked array (its pairwise summation
regroups only eight or more coordinates of a single point), so both routes
give the same bits; ``__call__`` and ``bracket`` go through the same method.
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


def bracket(xi: np.ndarray) -> np.ndarray:
    """Japanese bracket <xi> over a stacked array of shape (dim, ...).

    It is the isotropic weight of order 1; numpy's power 1.0 is an exact copy.
    """
    xi = np.asarray(xi, dtype=float)
    return IsoWeight(len(xi), 1.0).of_squares(xi**2)


def _check_stacked(xi: np.ndarray, dim: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim < 1 or xi.shape[0] != dim:
        raise DimensionError(
            f"expected stacked frequencies of shape ({dim}, ...), got {xi.shape}"
        )
    return xi


class WeightFunction:
    """Base interface: callable on stacked frequencies."""

    dim: int

    def __call__(self, xi: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class IsoWeight(WeightFunction):
    dim: int
    s: float

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.of_squares(_check_stacked(xi, self.dim) ** 2)

    def of_squares(self, sq) -> np.ndarray:
        """<xi>^s from the squared coordinates xi_k^2, k < dim."""
        total = sq[0]
        for q in sq[1:]:
            total = total + q
        return np.sqrt(1.0 + total) ** self.s


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

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.of_squares(_check_stacked(xi, self.dim) ** 2)

    def of_squares(self, sq) -> np.ndarray:
        """<xi>^m <xi''>^a from the squared coordinates xi_k^2, k < dim."""
        iso = IsoWeight(self.dim, self.m).of_squares(sq)
        return iso * IsoWeight(self.dim - self.d, self.a).of_squares(sq[self.d :])


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

    def order(self, xi: np.ndarray) -> np.ndarray:
        """The exponent m on stacked frequencies; the zero vector gets `base`."""
        xi = _check_stacked(xi, self.dim)
        norms = np.sqrt(np.sum(xi**2, axis=0))
        cos = np.clip(xi[0] / np.where(norms == 0.0, 1.0, norms), -1.0, 1.0)
        t = (np.arccos(cos) - self.inner) / (self.outer - self.inner)
        out = self.base + (self.peak - self.base) * smooth_step(t)
        return np.where(norms == 0.0, self.base, out)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        xi = _check_stacked(xi, self.dim)
        return bracket(xi) ** self.order(xi)


@dataclass(frozen=True)
class SumWeight(WeightFunction):
    parts: tuple[WeightFunction, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("sum weight needs at least one part")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise DimensionError(f"mixed dimensions in sum weight: {dims}")

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        out = self.parts[0](xi)
        for p in self.parts[1:]:
            out = out + p(xi)
        return out
