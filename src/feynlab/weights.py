"""Fourier weight functions and direction-dependent order functions.

Weights act on stacked frequency arrays of shape ``(dim, ...)`` and model the
multipliers of weighted Sobolev norms:

* ``IsoWeight(s)``: ``<xi>^s`` with ``<xi> = (1 + |xi|^2)^(1/2)``.
* ``SplitWeight(d, m, a)``: ``<xi>^m <xi''>^a`` where ``xi''`` collects the
  last ``dim - d`` coordinates.
* ``VariableWeight(order)``: ``<xi>^(s(xi/|xi|))`` with a direction-dependent
  exponent given by an :class:`OrderFunction`.
* ``SumWeight([...])``: pointwise sum of weights.

An :class:`OrderFunction` is a smooth function on the sphere of directions,
written as a constant plus finitely many smooth conical bumps.  The same class
serves as a variable Sobolev exponent on frequency directions and as an order
function on rescaled fiber directions near the radial sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .radial import RadialSet


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
    """Japanese bracket <xi> over a stacked array of shape (dim, ...)."""
    return np.sqrt(1.0 + np.sum(np.asarray(xi, dtype=float) ** 2, axis=0))


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
        xi = _check_stacked(xi, self.dim)
        return bracket(xi) ** self.s


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
        xi = _check_stacked(xi, self.dim)
        return bracket(xi) ** self.m * bracket(xi[self.d :]) ** self.a


@dataclass(frozen=True)
class Cone:
    """A smooth conical bump: adds `delta` inside angle `inner` of `axis`,
    fading to 0 at angle `outer`."""

    axis: tuple[float, ...]
    delta: float
    inner: float
    outer: float

    def __post_init__(self) -> None:
        ax = np.asarray(self.axis, dtype=float)
        n = float(np.linalg.norm(ax))
        if n == 0.0:
            raise ValueError("cone axis must be nonzero")
        if not 0.0 <= self.inner < self.outer <= np.pi:
            raise ValueError("need 0 <= inner < outer <= pi")
        object.__setattr__(self, "axis", tuple(ax / n))

    def profile(self, angles: np.ndarray) -> np.ndarray:
        return smooth_step((angles - self.inner) / (self.outer - self.inner))


@dataclass(frozen=True)
class OrderFunction:
    """Direction-dependent order m(xi/|xi|) = base + sum of conical bumps.

    `radial_values` carries the symbolic values attached to the four radial-set
    labels; for order functions realized purely in the fiber these are the
    intended values used by the admissibility calculus, which may be finer than
    what a function of the direction alone can distinguish.
    """

    dim: int
    base: float
    cones: tuple[Cone, ...] = ()
    radial_values: dict[RadialSet, float] | None = None
    convex_sublevels: bool = False
    min_components: tuple[RadialSet, ...] = ()

    @classmethod
    def constant(cls, dim: int, value: float) -> "OrderFunction":
        rv = {r: float(value) for r in RadialSet}
        return cls(dim=dim, base=float(value), radial_values=rv)

    @property
    def is_constant(self) -> bool:
        return not self.cones

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        """Evaluate on stacked direction vectors of shape (dim, ...).

        Vectors need not be normalized; the zero vector gets the base value.
        """
        dirs = _check_stacked(dirs, self.dim)
        norms = np.sqrt(np.sum(dirs**2, axis=0))
        out = np.full(norms.shape, self.base, dtype=float)
        if not self.cones:
            return out
        safe = np.where(norms == 0.0, 1.0, norms)
        unit = dirs / safe
        for cone in self.cones:
            ax = np.asarray(cone.axis, dtype=float)
            cosang = np.clip(np.einsum("i,i...->...", ax, unit), -1.0, 1.0)
            ang = np.arccos(cosang)
            out = out + cone.delta * cone.profile(ang)
        return np.where(norms == 0.0, self.base, out)

    def value_at(self, component: RadialSet) -> float:
        if self.radial_values is not None and component in self.radial_values:
            return float(self.radial_values[component])
        return float(self.base)

    def bounds(self) -> tuple[float, float]:
        lo = self.base + sum(min(c.delta, 0.0) for c in self.cones)
        hi = self.base + sum(max(c.delta, 0.0) for c in self.cones)
        return lo, hi

    def check_convex_sublevels(
        self, seed: int = 0, samples: int = 2000, tol: float = 1e-9
    ) -> bool:
        """Sample pairs inside a sublevel set and test spherical midpoints.

        A nontrivial sublevel set {m <= s} is checked to be a convex cone by
        drawing pairs of directions inside it and verifying the normalized
        midpoint stays inside (up to `tol`).
        """
        rng = np.random.default_rng(seed)
        lo, hi = self.bounds()
        if hi - lo < 1e-14:
            return True
        levels = lo + np.array([0.25, 0.5, 0.75]) * (hi - lo)
        pts = rng.standard_normal((self.dim, samples))
        pts /= np.linalg.norm(pts, axis=0, keepdims=True)
        vals = self(pts)
        for s in levels:
            inside = pts[:, vals <= s]
            k = inside.shape[1]
            if k < 2:
                continue
            i = rng.integers(0, k, size=4 * k)
            j = rng.integers(0, k, size=4 * k)
            mids = inside[:, i] + inside[:, j]
            nrm = np.linalg.norm(mids, axis=0)
            ok = nrm > 1e-9  # antipodal pairs have no defined midpoint
            mvals = self(mids[:, ok] / nrm[ok])
            if np.any(mvals > s + tol):
                return False
        return True


@dataclass(frozen=True)
class VariableWeight(WeightFunction):
    """<xi>^(m(xi/|xi|)) for an OrderFunction m."""

    order: OrderFunction

    @property
    def dim(self) -> int:
        return self.order.dim

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


@dataclass(frozen=True)
class Sector:
    """A cone of directions represented by its center axis."""

    label: str
    axis: tuple[float, ...] = field(default=())


def sector_partition(dim: int, refine: int = 1) -> list[Sector]:
    """Axis-aligned cone partition of the direction sphere.

    refine=1 gives the 2*dim signed-axis cones; refine=2 adds the two-axis
    diagonal cones.  Directions are assigned to the sector whose axis has the
    largest inner product, ties going to the lowest index, and the zero mode
    by convention to the first sector.
    """
    if dim < 1:
        raise DimensionError("dimension must be >= 1")
    if refine not in (1, 2):
        raise ValueError("refine must be 1 or 2")
    sectors: list[Sector] = []
    for j in range(dim):
        for sg in (+1, -1):
            ax = np.zeros(dim)
            ax[j] = sg
            sectors.append(Sector(f"{'+' if sg > 0 else '-'}e{j + 1}", tuple(ax)))
    if refine == 2:
        for j in range(dim):
            for k in range(j + 1, dim):
                for sj in (+1, -1):
                    for sk in (+1, -1):
                        ax = np.zeros(dim)
                        ax[j] = sj / np.sqrt(2.0)
                        ax[k] = sk / np.sqrt(2.0)
                        lbl = (
                            f"{'+' if sj > 0 else '-'}e{j + 1}"
                            f"{'+' if sk > 0 else '-'}e{k + 1}"
                        )
                        sectors.append(Sector(lbl, tuple(ax)))
    return sectors


def assign_sectors(xi: np.ndarray, sectors: list[Sector]) -> np.ndarray:
    """Index of the owning sector for each stacked frequency vector."""
    dim = len(sectors[0].axis)
    xi = _check_stacked(xi, dim)
    axes = np.array([s.axis for s in sectors])  # (nsec, dim)
    dots = np.einsum("sd,d...->s...", axes, xi)
    idx = np.argmax(dots, axis=0)
    zero = np.sum(xi**2, axis=0) == 0.0
    return np.where(zero, 0, idx)
