"""Periodic grids, spectral fields and seeded sources.

Conventions, used consistently across the package:

* Grid axes are centered: ``z_j`` runs over ``-L_j/2 + k*L_j/N_j``.
* The frequency lattice on axis ``j`` is ``(2*pi/L_j) * {-N_j/2, ..., N_j/2-1}``
  in numpy FFT order; the last axis is the time axis for the wave operator.
* Synthesis uses ``e^{+i xi.z}`` (numpy ``ifftn``); spectral coefficients are
  Parseval-normalized so that ``sum |c|^2`` equals the discrete ``L^2`` norm
  squared ``sum |u|^2 * cell_volume``.
* Inner products conjugate the second argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .weights import bracket

__all__ = [
    "GridSpec",
    "SpectralField",
    "random_band_limited",
    "gaussian_source",
]


@dataclass(frozen=True)
class GridSpec:
    """A rectangular periodic grid: box extents and point counts per axis."""

    extent: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        ext = tuple(float(L) for L in self.extent)
        pts = tuple(int(N) for N in self.points)
        if len(ext) != len(pts) or not ext:
            raise DimensionError("extent and points must be equal, nonzero length")
        if any(L <= 0 for L in ext):
            raise ValueError("extents must be positive")
        if any(N < 4 or N % 2 for N in pts):
            raise ValueError("point counts must be even and >= 4")
        # (2 pi N / L)^2, four squared Nyquist frequencies, bounds the symbol's
        # squares and (as N >= 4) default_epsilon's 10 (2 pi / L)^2
        twice_nyquist = [2.0 * math.pi * N / L for L, N in zip(ext, pts)]
        if not math.isfinite(sum(h * h for h in twice_nyquist)):
            raise ValueError("extents too small: the squared frequencies overflow")
        object.__setattr__(self, "extent", ext)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.extent, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.deltas))

    @property
    def total_points(self) -> int:
        return int(np.prod(self.points))

    @property
    def parseval(self) -> float:
        """The factor from ``fftn`` coefficients to Parseval coefficients."""
        return np.sqrt(self.cell_volume / self.total_points)

    def axes(self) -> list[np.ndarray]:
        return [
            -L / 2.0 + (L / N) * np.arange(N) for L, N in zip(self.extent, self.points)
        ]

    def freq_axes(self) -> list[np.ndarray]:
        return [
            2.0 * np.pi * np.fft.fftfreq(N, d=L / N)
            for L, N in zip(self.extent, self.points)
        ]

    def mesh(self) -> np.ndarray:
        """Stacked coordinates, shape (dim, *points)."""
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"))

    def freq_mesh(self) -> np.ndarray:
        """Stacked frequency lattice, shape (dim, *points)."""
        return np.stack(np.meshgrid(*self.freq_axes(), indexing="ij"))

    def to_dict(self) -> dict:
        return {"extent": list(self.extent), "points": list(self.points)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(tuple(d["extent"]), tuple(d["points"]))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """An immutable complex field on a grid with a cached FFT.

    `meta` carries provenance only (seeds, regularization parameters,
    whether propagate projected the zero mode, warnings); no computation
    reads it back.
    """

    grid: GridSpec
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the caller keeps its array: the field holds a copy
        self._hold(np.array(self.values, dtype=np.complex128, order="C"))

    def _hold(self, vals: np.ndarray) -> None:
        if vals.shape != self.grid.points:
            raise DimensionError(
                f"values shape {vals.shape} does not match grid {self.grid.points}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _own(cls, grid: GridSpec, vals: np.ndarray, meta: dict | None = None) -> "SpectralField":
        """A field on vals without a copy: vals is a fresh array that no one else
        holds, or another field's values (read-only, so safe to share)."""
        new = object.__new__(cls)
        object.__setattr__(new, "grid", grid)
        object.__setattr__(new, "meta", meta or {})
        new._hold(np.asarray(vals, dtype=np.complex128))
        return new

    @property
    def coeffs(self) -> np.ndarray:
        """Parseval-normalized spectral coefficients (read-only, cached)."""
        cached = getattr(self, "_coeffs")
        if cached is None:
            cached = np.fft.fftn(self.values)
            cached *= self.grid.parseval
            cached.flags.writeable = False
            object.__setattr__(self, "_coeffs", cached)
        return cached

    @classmethod
    def from_coeffs(
        cls, grid: GridSpec, coeffs: np.ndarray, meta: dict | None = None
    ) -> "SpectralField":
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.points:
            raise DimensionError("coefficient shape does not match grid")
        vals = coeffs / grid.parseval
        np.fft.ifftn(vals, out=vals)
        return cls._own(grid, vals, meta)

    def norm(self) -> float:
        """Discrete L^2 norm, sqrt(sum |u|^2 * cell_volume)."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)
        )

    def inner(self, other: "SpectralField") -> complex:
        if other.grid != self.grid:
            raise DimensionError("fields on different grids")
        return complex(
            np.sum(self.values * np.conj(other.values)) * self.grid.cell_volume
        )

    def with_meta(self, **extra) -> "SpectralField":
        meta = dict(self.meta)
        meta.update(extra)
        return SpectralField._own(self.grid, self.values, meta)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise DimensionError("fields on different grids")
        return SpectralField._own(self.grid, self.values + other.values)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise DimensionError("fields on different grids")
        return SpectralField._own(self.grid, self.values - other.values)

    def __mul__(self, c: complex) -> "SpectralField":
        return SpectralField._own(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._own(self.grid, -self.values)


def random_band_limited(
    grid: GridSpec,
    seed: int,
    band: float = 0.5,
    decay: float = 2.0,
) -> SpectralField:
    """Seeded zero-mean random field with spectrum confined to |xi| <= band * xi_nyq.

    Coefficients are complex Gaussian damped by <xi>^-decay.  The seed is
    recorded in the field metadata.
    """
    rng = np.random.default_rng(seed)
    xi = np.meshgrid(*grid.freq_axes(), indexing="ij", sparse=True)
    absxi = np.sqrt(sum(x**2 for x in xi))
    nyq = min(np.pi * N / L for N, L in zip(grid.points, grid.extent))
    mask = absxi <= band * nyq
    c = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    c = c * mask / bracket(xi) ** decay
    c[(0,) * grid.dim] = 0.0
    return SpectralField.from_coeffs(
        grid, c, {"seed": int(seed), "band": float(band), "decay": float(decay)}
    )


def gaussian_source(
    grid: GridSpec,
    width: float = 1.0,
    center: tuple[float, ...] | None = None,
    amplitude: float = 1.0,
) -> SpectralField:
    """Gaussian bump of full width ~ 4 sigma (width = 4 * sigma), centred at
    the origin by default.  Its defaults are the config's (``cli`` passes a
    source spec's keys through), as ``random_band_limited``'s are."""
    n = grid.dim
    if center is None:
        center = tuple(0.0 for _ in range(n))
    # A short centre still ends in IndexError: perfbench's failure-accounting
    # test uses it as its uncaught exception (ROADMAP item 4).
    if len(center) > n:
        raise DimensionError("center dimension does not match grid")
    sigma = width / 4.0
    z = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    r2 = sum((z[j] - center[j]) ** 2 for j in range(n))
    vals = amplitude * np.exp(-r2 / (2.0 * sigma**2)).astype(np.complex128)
    return SpectralField._own(grid, vals, {"width": float(width)})
