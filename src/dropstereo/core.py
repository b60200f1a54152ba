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
    are not dimensionally meaningful at pixel scale.
    """

    n_air: float = 1.0
    n_water: float = 4.0 / 3.0
    camera_z: float = 5.0e4
    gravity_cosines: tuple[float, float, float] = (0.0, 0.0, 1.0)
    tension_weight: float = 1.0
    gravity_weight: float = 1.0e-4
    principal_point: tuple[float, float] | None = None
    band_halfwidth: float = 0.02 * math.pi

    def __post_init__(self):
        if not (self.n_water > self.n_air > 0.0):
            raise DomainError("refractive indices must satisfy n_water > n_air > 0")
        if not self.camera_z > 0.0:
            raise DomainError("camera_z must be positive")
        g = np.asarray(self.gravity_cosines, dtype=float)
        if g.shape != (3,):
            raise DomainError("gravity direction cosines must have three components")
        if not np.isfinite(g).all() or abs(np.linalg.norm(g) - 1.0) > 1e-6:
            raise DomainError("gravity direction cosines must be finite with unit norm")
        if self.principal_point is not None:
            pp = np.asarray(self.principal_point, dtype=float)
            if pp.shape != (2,) or not np.isfinite(pp).all():
                raise DomainError("principal_point must be two finite values (cx, cy)")
        if not self.band_halfwidth > 0.0:
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


@dataclass(frozen=True)
class DropBox:
    """The per-drop crop: the bounding box of a mask plus a one-pixel margin,
    clamped to the grid.

    Every per-pixel step of a drop reads only its mask pixels and their
    4-neighbors, so the solver, the trace and the band fields run on this
    box.  ``i0:i1, j0:j1`` are its raster rows and columns and ``shape`` is
    the raster's; an empty mask has an empty box at the origin.
    """

    i0: int
    i1: int
    j0: int
    j1: int
    shape: tuple[int, int]

    @staticmethod
    def of(mask: DropMask) -> "DropBox":
        h, w = mask.membership.shape
        if mask.area == 0:
            return DropBox(0, 0, 0, 0, (h, w))
        i0, i1, j0, j1 = mask.bbox()
        return DropBox(max(i0 - 1, 0), min(i1 + 1, h), max(j0 - 1, 0), min(j1 + 1, w), (h, w))

    def crop(self, a: np.ndarray) -> np.ndarray:
        """The box of a raster-sized array (a view)."""
        return a[self.i0 : self.i1, self.j0 : self.j1]

    def paste(self, a: np.ndarray, fill=0) -> np.ndarray:
        """A box-sized array on the raster, ``fill`` outside the box."""
        out = np.full(self.shape + a.shape[2:], fill, dtype=a.dtype)
        out[self.i0 : self.i1, self.j0 : self.j1] = a
        return out


# ---------------------------------------------------------------------------
# Discrete differential operators on masked grids.
#
# A field on the mask is the vector of its member pixels in row-major order
# (``a[mask]``).  Along each axis a pixel takes the central difference where
# both 4-neighbors are members, the one-sided difference where only one is,
# and zero where it is isolated along that axis.  Values outside the mask are
# never read.
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


# difference weight by the number of member neighbors along the axis
_DIFF_WEIGHT = np.array([0.0, 1.0, 0.5])


class MaskStencil:
    """Neighbor indices of the member pixels, for repeated masked differencing.

    Fields on the mask are pixel vectors (``gather``); ``rows``/``cols`` hold
    the members' coordinates.  Per axis (0 = y along rows, 1 = x along
    columns) the stencil keeps each pixel's forward and backward neighbor as
    a position in the pixel vector, pointing at the pixel itself where that
    neighbor is missing, and a weight of 0.5 (both present), 1 (one) or 0
    (none), so every case of ``diff`` is ``wt * (v[ip] - v[im])``.
    """

    def __init__(self, mask: np.ndarray):
        m = np.asarray(mask, dtype=bool)
        self.mask = m
        idx = np.flatnonzero(m)  # row-major, the order of ``m[m]``
        self.rows, self.cols = np.divmod(idx, m.shape[1])
        pos = np.zeros(m.size, dtype=np.intp)
        pos[idx] = np.arange(idx.size)
        self._axes = []
        for di, dj in ((1, 0), (0, 1)):
            # member neighbors only: no wrap across rows, nothing off the grid
            has_p = self.gather(_shifted(m, di, dj) & m)
            has_m = self.gather(_shifted(m, -di, -dj) & m)
            step = di * m.shape[1] + dj
            ip = pos[np.where(has_p, idx + step, idx)]
            im = pos[np.where(has_m, idx - step, idx)]
            self._axes.append((ip, im, _DIFF_WEIGHT[has_p.astype(np.intp) + has_m]))

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The member pixels of a grid, as a vector."""
        return a[self.mask]

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """A pixel vector on the grid, zero outside the mask."""
        out = np.zeros(self.mask.shape)
        out[self.mask] = v
        return out

    def diff(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Masked difference of the pixel vector ``v`` along ``axis``."""
        ip, im, wt = self._axes[axis]
        return wt * (v[ip] - v[im])


def normal_field(hf: HeightField, box: DropBox | None = None) -> np.ndarray:
    """Unit surface normals, (H, W, 3), oriented into the +z hemisphere; on
    ``box``, the same values box-sized.

    The tangential sign is chosen so a convex drop has normals tilting
    outward: N' = (-dz/dx, -dz/dy, 1).  N_z is unaffected by that choice.
    Entries outside the mask are zero.
    """
    mask, z = hf.mask.membership, hf.z
    if box is not None:
        mask, z = box.crop(mask), box.crop(z)
    st = MaskStencil(mask)
    v = st.gather(z)
    gx, gy = st.diff(v, 1), st.diff(v, 0)
    norm = np.sqrt(1.0 + gx * gx + gy * gy)
    n = np.zeros(mask.shape + (3,))
    n[mask] = np.stack([-gx / norm, -gy / norm, 1.0 / norm], axis=-1)
    return n


def mask_centroid(hf: HeightField) -> tuple[float, float]:
    """Height-weighted centroid (x_g, y_g) = (sum z*j, sum z*i) / B.

    Implemented verbatim with the area B as the normalizer (not the volume),
    so the result scales with the mean height.
    """
    ii, jj = np.nonzero(hf.mask.membership)
    return _centroid(hf.z[ii, jj], ii, jj)


def _centroid(z: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> tuple[float, float]:
    """``mask_centroid`` on the heights ``z`` of the pixels (ii, jj)."""
    b = ii.size
    if b == 0:
        raise DomainError("centroid of an empty mask is undefined")
    return float((z * jj).sum() / b), float((z * ii).sum() / b)


def plate_coords(shape: tuple[int, int], config: OpticalConfig,
                 box: DropBox | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel plate coordinates (x, y) relative to the principal point of
    the grid of ``shape``; on ``box``, the same values box-sized."""
    cx, cy = config.resolve_principal_point(shape)
    box = box or DropBox(0, shape[0], 0, shape[1], shape)
    ii, jj = np.mgrid[box.i0 : box.i1, box.j0 : box.j1]
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
