"""Geometric and raster primitives shared by the whole pipeline.

Conventions used everywhere:

* arrays are indexed ``[i, j]`` = ``[row, col]``; the x axis runs along
  columns (``x = j``) and the y axis along rows (``y = i``);
* drop heights ``z`` are in pixel units, measured from the glass plate at
  ``z = 0`` toward the scene (positive z); the camera sits on the negative-z
  side of the plate;
* physical plate coordinates of a pixel are taken relative to the principal
  point: ``x = j - cx``, ``y = i - cy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import DomainError

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


class Vec3(NamedTuple):
    """3D point or direction in scene units (pixel-pitch-scaled)."""

    x: float
    y: float
    z: float

    def __add__(self, other):
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def unit(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)

    def is_unit(self, tol: float = 1e-6) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RasterGray:
    """Grayscale raster with intensities clamped to [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise DomainError("raster must be a non-empty 2D array")
        if not np.isfinite(p).all():
            raise DomainError("raster intensities must be finite")
        object.__setattr__(self, "pixels", _frozen(np.clip(p, 0.0, 1.0)))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class DropMask:
    """Adhesion region of one drop: a single 4-connected pixel component."""

    membership: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.membership, dtype=bool))
        if m.ndim != 2 or m.size == 0:
            raise DomainError("mask must be a non-empty 2D boolean array")
        _, n = ndimage.label(m, structure=_FOUR_CONNECTED)
        if n > 1:
            raise DomainError(f"mask must be a single 4-connected component, found {n}")
        object.__setattr__(self, "membership", _frozen(m))

    @property
    def area(self) -> int:
        """Pixel count of the region (the B of the volume relation)."""
        return int(self.membership.sum())

    @property
    def height(self) -> int:
        return self.membership.shape[0]

    @property
    def width(self) -> int:
        return self.membership.shape[1]

    def boundary(self) -> np.ndarray:
        """Member pixels with at least one 4-neighbor outside the region."""
        er = ndimage.binary_erosion(self.membership, structure=_FOUR_CONNECTED, border_value=0)
        return self.membership & ~er

    def interior(self) -> np.ndarray:
        return self.membership & ~self.boundary()

    def bbox(self) -> tuple[int, int, int, int]:
        """(i0, i1, j0, j1) half-open bounds of the member pixels."""
        if self.area == 0:
            raise DomainError("empty mask has no bounding box")
        ii, jj = np.nonzero(self.membership)
        return int(ii.min()), int(ii.max()) + 1, int(jj.min()), int(jj.max()) + 1


@dataclass(frozen=True)
class HeightField:
    """Drop surface: non-negative height per mask pixel, zero elsewhere."""

    mask: DropMask
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.shape != self.mask.membership.shape:
            raise DomainError("height grid shape must match the mask grid")
        if not np.isfinite(z).all():
            raise DomainError("heights must be finite")
        z = np.where(self.mask.membership, z, 0.0)
        if z.min() < -1e-9:
            raise DomainError("heights must be non-negative")
        object.__setattr__(self, "z", _frozen(np.maximum(z, 0.0)))


@dataclass(frozen=True)
class OpticalConfig:
    """Physical constants, camera placement, and solver weights.

    ``camera_z`` is the perpendicular distance from the camera to the glass
    plate in pixels (``math.inf`` selects the orthographic camera-at-infinity
    mode).  ``tension_weight`` and ``gravity_weight`` are the dimensionless
    solver weights standing in for the physical sigma/rho-g constants, which
    are not dimensionally meaningful at pixel scale.  ``pixel_pitch`` (meters
    per pixel) is carried as metadata only.
    """

    n_air: float = 1.0
    n_water: float = 4.0 / 3.0
    camera_z: float = 5.0e4
    gravity_cosines: tuple[float, float, float] = (0.0, 0.0, 1.0)
    tension_weight: float = 1.0
    gravity_weight: float = 1.0e-4
    pixel_pitch: float = 6.0e-6
    principal_point: tuple[float, float] | None = None
    band_halfwidth: float = 0.02 * math.pi

    def __post_init__(self):
        if not (self.n_water > self.n_air > 0.0):
            raise DomainError("refractive indices must satisfy n_water > n_air > 0")
        if not self.camera_z > 0.0:
            raise DomainError("camera_z must be positive")
        g = np.asarray(self.gravity_cosines, dtype=float)
        if abs(np.linalg.norm(g) - 1.0) > 1e-6:
            raise DomainError("gravity direction cosines must have unit norm")
        if self.band_halfwidth <= 0.0:
            raise DomainError("band_halfwidth must be positive")

    @property
    def eta(self) -> float:
        """n_water / n_air."""
        return self.n_water / self.n_air

    def resolve_principal_point(self, shape: tuple[int, int]) -> tuple[float, float]:
        """Principal point (cx, cy); defaults to the grid center."""
        if self.principal_point is not None:
            return (float(self.principal_point[0]), float(self.principal_point[1]))
        h, w = shape
        return ((w - 1) / 2.0, (h - 1) / 2.0)


# ---------------------------------------------------------------------------
# Discrete differential operators on masked grids.
#
# Central differences where both 4-neighbors are members, one-sided at the
# mask boundary, zero where the pixel is isolated along an axis.  Values
# outside the mask are never read.
# ---------------------------------------------------------------------------


def _shifted(a: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Array whose [i, j] holds a[i + di, j + dj], zero outside the grid."""
    out = np.zeros_like(a)
    h, w = a.shape
    src_i = slice(max(di, 0), h + min(di, 0))
    src_j = slice(max(dj, 0), w + min(dj, 0))
    dst_i = slice(max(-di, 0), h + min(-di, 0))
    dst_j = slice(max(-dj, 0), w + min(-dj, 0))
    out[dst_i, dst_j] = a[src_i, src_j]
    return out


class MaskStencil:
    """Precomputed neighbor availability for repeated masked differencing."""

    def __init__(self, mask: np.ndarray):
        m = np.asarray(mask, dtype=bool)
        self.mask = m
        self.has_xm = _shifted(m, 0, -1) & m  # member with member at j-1
        self.has_xp = _shifted(m, 0, 1) & m
        self.has_ym = _shifted(m, -1, 0) & m  # member with member at i-1
        self.has_yp = _shifted(m, 1, 0) & m

    def diff_x(self, a: np.ndarray) -> np.ndarray:
        ap = _shifted(a, 0, 1)
        am = _shifted(a, 0, -1)
        both = self.has_xm & self.has_xp
        d = np.where(both, 0.5 * (ap - am),
                     np.where(self.has_xp, ap - a,
                              np.where(self.has_xm, a - am, 0.0)))
        return np.where(self.mask, d, 0.0)

    def diff_y(self, a: np.ndarray) -> np.ndarray:
        ap = _shifted(a, 1, 0)
        am = _shifted(a, -1, 0)
        both = self.has_ym & self.has_yp
        d = np.where(both, 0.5 * (ap - am),
                     np.where(self.has_yp, ap - a,
                              np.where(self.has_ym, a - am, 0.0)))
        return np.where(self.mask, d, 0.0)


def gradient(hf: HeightField, stencil: MaskStencil | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (dz/dx, dz/dy) on the mask; zero outside."""
    st = stencil or MaskStencil(hf.mask.membership)
    return st.diff_x(hf.z), st.diff_y(hf.z)


def divergence(fx: np.ndarray, fy: np.ndarray, mask: DropMask | np.ndarray,
               stencil: MaskStencil | None = None) -> np.ndarray:
    """Per-pixel divergence of a vector field defined on the mask."""
    m = mask.membership if isinstance(mask, DropMask) else np.asarray(mask, dtype=bool)
    st = stencil or MaskStencil(m)
    return st.diff_x(fx) + st.diff_y(fy)


def normal_field(hf: HeightField, stencil: MaskStencil | None = None) -> np.ndarray:
    """Unit surface normals, (H, W, 3), oriented into the +z hemisphere.

    The tangential sign is chosen so a convex drop has normals tilting
    outward: N' = (-dz/dx, -dz/dy, 1).  N_z is unaffected by that choice.
    Entries outside the mask are zero.
    """
    gx, gy = gradient(hf, stencil)
    norm = np.sqrt(1.0 + gx * gx + gy * gy)
    n = np.stack([-gx / norm, -gy / norm, 1.0 / norm], axis=-1)
    return np.where(hf.mask.membership[..., None], n, 0.0)


def surface_normal(hf: HeightField, i: int, j: int) -> Vec3:
    """Unit outward normal at mask pixel (i, j)."""
    if not (0 <= i < hf.mask.height and 0 <= j < hf.mask.width and hf.mask.membership[i, j]):
        raise DomainError(f"pixel ({i}, {j}) is outside the drop mask")
    n = normal_field(hf)[i, j]
    return Vec3.from_array(n)


def mask_centroid(hf: HeightField) -> tuple[float, float]:
    """Height-weighted centroid (x_g, y_g) = (sum z*j, sum z*i) / B.

    Implemented verbatim with the area B as the normalizer (not the volume),
    so the result scales with the mean height.
    """
    return _centroid(hf.z, hf.mask.membership)


def _centroid(z: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """``mask_centroid`` on a height array and its boolean mask."""
    ii, jj = np.nonzero(mask)
    b = ii.size
    if b == 0:
        raise DomainError("centroid of an empty mask is undefined")
    zz = z[ii, jj]
    return float((zz * jj).sum() / b), float((zz * ii).sum() / b)


def plate_coords(shape: tuple[int, int], config: OpticalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel plate coordinates (x, y) relative to the principal point."""
    cx, cy = config.resolve_principal_point(shape)
    ii, jj = np.mgrid[0 : shape[0], 0 : shape[1]]
    return jj.astype(float) - cx, ii.astype(float) - cy


def splat_bilinear(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Forward-splat samples at fractional (row, col) positions onto a grid.

    Each sample spreads over its four neighbor cells (clipped to the grid)
    with bilinear weights.  Returns the weight-normalized raster, zero where
    no weight landed, and the mask of cells that received weight.
    """
    h, w = shape
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    fr = rows - r0
    fc = cols - c0
    corners = ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
               (1, 0, fr * (1 - fc)), (1, 1, fr * fc))
    cell = np.concatenate([np.clip(r0 + dr, 0, h - 1) * w + np.clip(c0 + dc, 0, w - 1)
                           for dr, dc, _ in corners])
    weight = np.concatenate([wq for _, _, wq in corners])
    acc = np.bincount(cell, weights=weight * np.tile(vals, 4), minlength=h * w).reshape(h, w)
    wgt = np.bincount(cell, weights=weight, minlength=h * w).reshape(h, w)
    valid = wgt > 1e-9
    return np.where(valid, acc / np.where(valid, wgt, 1.0), 0.0), valid
