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
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import DomainError

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# refractive index of the air side of every interface
N_AIR = 1.0


def _largest_component(m: np.ndarray, structure: np.ndarray = _FOUR_CONNECTED) -> np.ndarray:
    """The largest connected piece of the boolean ``m`` (the first labelled
    on a tie); ``m`` itself when it has at most one piece."""
    labels, n = ndimage.label(m, structure=structure)
    if n < 2:
        return m
    return labels == 1 + int(np.argmax(ndimage.sum_labels(m, labels, np.arange(1, n + 1))))


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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, init=False, eq=False)
class DropMask:
    """Adhesion region of one drop: a single 4-connected pixel component,
    held on the drop's box.

    ``box`` is the bounding box of the members plus a one-pixel margin,
    clamped to the raster (an empty mask has an empty box at the origin);
    ``inside`` is the membership on it.  Every per-pixel step of a drop reads
    only its members and their 4-neighbors, so the solver, the trace and the
    band fields run on the box.  ``DropMask(membership)`` takes the
    membership on the whole raster; ``DropMask(window, at=box)`` takes it on
    the window ``box`` of the raster, which must hold every member.
    """

    box: DropBox
    inside: np.ndarray

    def __init__(self, membership: np.ndarray, at: DropBox | None = None):
        m = np.asarray(membership, dtype=bool)
        if m.ndim != 2 or m.size == 0:
            raise DomainError("mask must be a non-empty 2D boolean array")
        at = at or DropBox(0, m.shape[0], 0, m.shape[1], m.shape)
        if m.shape != (at.i1 - at.i0, at.j1 - at.j0):
            raise DomainError(f"mask window {m.shape} does not fit its box {at}")
        rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        (h, w), p = at.shape, np.pad(m, 1)
        if rows.size == 0:
            box, inside = DropBox(0, 0, 0, 0, (h, w)), np.zeros((0, 0), dtype=bool)
        else:
            # the members' bounds plus a one-pixel margin, clamped to the raster;
            # the padding holds the margin where it leaves the window
            i0, i1 = max(at.i0 + int(rows[0]) - 1, 0), min(at.i0 + int(rows[-1]) + 2, h)
            j0, j1 = max(at.j0 + int(cols[0]) - 1, 0), min(at.j0 + int(cols[-1]) + 2, w)
            box = DropBox(i0, i1, j0, j1, (h, w))
            inside = p[i0 - at.i0 + 1 : i1 - at.i0 + 1, j0 - at.j0 + 1 : j1 - at.j0 + 1].copy()
        _, n = ndimage.label(inside, structure=_FOUR_CONNECTED)
        if n > 1:
            raise DomainError(f"mask must be a single 4-connected component, found {n}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "inside", _frozen(inside))

    @property
    def membership(self) -> np.ndarray:
        """The membership on the whole raster, built on every read, for the
        file writers and callers outside the package; no stage of a drop
        reads it."""
        return _frozen(self.box.paste(self.inside))

    @property
    def area(self) -> int:
        """Pixel count of the region (the B of the volume relation)."""
        return int(np.count_nonzero(self.inside))

    @property
    def height(self) -> int:
        return self.box.shape[0]

    @property
    def width(self) -> int:
        return self.box.shape[1]

    @cached_property
    def stencil(self) -> MaskStencil:
        """The buffer layout of the drop's box, built on the first read."""
        return MaskStencil(self.inside)

    def boundary(self) -> np.ndarray:
        """Member pixels with at least one 4-neighbor outside the region, on
        the drop's box (the contact ring), read-only."""
        return self.stencil.ring

    def bbox(self) -> tuple[int, int, int, int]:
        """(i0, i1, j0, j1) half-open bounds of the member pixels."""
        ii, jj = np.nonzero(self.inside)
        if ii.size == 0:
            raise DomainError("empty mask has no bounding box")
        i, j = self.box.i0, self.box.j0
        return i + int(ii.min()), i + int(ii.max()) + 1, j + int(jj.min()), j + int(jj.max()) + 1


@dataclass(frozen=True, eq=False)
class HeightField:
    """Drop surface: non-negative height per mask pixel, zero elsewhere,
    held on the mask's box.  ``heights`` may be given on the raster or on
    the box."""

    mask: DropMask
    heights: np.ndarray

    def __post_init__(self):
        z, m = np.asarray(self.heights, dtype=float), self.mask
        if z.shape not in (m.box.shape, m.inside.shape):
            raise DomainError(f"height grid shape {z.shape} must match the mask grid "
                              f"{m.box.shape} or its box {m.inside.shape}")
        if not np.isfinite(z).all():
            raise DomainError("heights must be finite")
        z = np.where(m.inside, m.box.crop(z) if z.shape == m.box.shape else z, 0.0)
        if z.min(initial=0.0) < -1e-9:
            raise DomainError("heights must be non-negative")
        object.__setattr__(self, "heights", _frozen(np.maximum(z, 0.0)))

    @property
    def z(self) -> np.ndarray:
        """The heights on the whole raster, built on every read, for the
        file writers and callers outside the package; no stage of a drop
        reads it."""
        return _frozen(self.mask.box.paste(self.heights))


@dataclass(frozen=True)
class OpticalConfig:
    """Physical constants and camera placement.

    ``camera_z`` is the perpendicular distance from the pinhole camera to the
    glass plate in pixels, finite and positive.  ``gravity_weight`` is the
    dimensionless gravity-to-tension energy ratio (tension has weight 1; only
    the ratio moves the minimum), standing in for rho*g/sigma, which is not
    dimensionally meaningful at pixel scale.
    """

    n_water: float = 4.0 / 3.0
    camera_z: float = 5.0e4
    gravity_cosines: tuple[float, float, float] = (0.0, 0.0, 1.0)
    gravity_weight: float = 1.0e-4
    principal_point: tuple[float, float] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.n_water) and self.n_water > N_AIR):
            raise DomainError(f"n_water must be finite and greater than the air index {N_AIR}")
        if not (math.isfinite(self.camera_z) and self.camera_z > 0.0):
            raise DomainError("camera_z must be finite and positive")
        g = np.asarray(self.gravity_cosines, dtype=float)
        if g.shape != (3,):
            raise DomainError("gravity direction cosines must have three components")
        if not np.isfinite(g).all() or abs(np.linalg.norm(g) - 1.0) > 1e-6:
            raise DomainError("gravity direction cosines must be finite with unit norm")
        if self.principal_point is not None:
            pp = np.asarray(self.principal_point, dtype=float)
            if pp.shape != (2,) or not np.isfinite(pp).all():
                raise DomainError("principal_point must be two finite values (cx, cy)")
        if not (math.isfinite(self.gravity_weight) and self.gravity_weight >= 0.0):
            raise DomainError("gravity_weight must be finite and non-negative")

    @property
    def eta(self) -> float:
        """n_water / N_AIR."""
        return self.n_water / N_AIR

    def resolve_principal_point(self, shape: tuple[int, int]) -> tuple[float, float]:
        """Principal point (cx, cy); defaults to the grid center."""
        if self.principal_point is not None:
            return (float(self.principal_point[0]), float(self.principal_point[1]))
        h, w = shape
        return ((w - 1) / 2.0, (h - 1) / 2.0)


@dataclass(frozen=True)
class DropBox:
    """A window of the raster: rows ``i0:i1`` and columns ``j0:j1`` of a
    grid of ``shape``.  A drop's own window is ``DropMask.box``."""

    i0: int
    i1: int
    j0: int
    j1: int
    shape: tuple[int, int]

    def crop(self, a: np.ndarray) -> np.ndarray:
        """The box of a raster-sized array (a view)."""
        return a[self.i0 : self.i1, self.j0 : self.j1]

    def paste(self, a: np.ndarray, fill=0) -> np.ndarray:
        """A box-sized array on the raster, ``fill`` outside the box."""
        out = np.full(self.shape + a.shape[2:], fill, dtype=a.dtype)
        out[self.i0 : self.i1, self.j0 : self.j1] = a
        return out

    def restate(self, a: np.ndarray, box: DropBox) -> np.ndarray:
        """A box-sized array on the window ``box`` of the same raster, zero
        where that window leaves this box; ``box.crop(self.paste(a))``
        without the raster."""
        top, left = max(self.i0 - box.i0, 0), max(self.j0 - box.j0, 0)
        a = np.pad(a, ((top, max(box.i1 - self.i1, 0)), (left, max(box.j1 - self.j1, 0))))
        i, j = box.i0 - self.i0 + top, box.j0 - self.j0 + left
        return a[i : i + box.i1 - box.i0, j : j + box.j1 - box.j0]

    def require_grid(self, shape: tuple[int, int], what: str) -> None:
        """Raise a DomainError naming ``what`` unless the box's raster is
        the image grid ``shape``."""
        if self.shape != shape:
            raise DomainError(f"{what} lies on a {self.shape} grid, the image on {shape}")


# ---------------------------------------------------------------------------
# The layout of a drop's box.
#
# Along each axis a member takes the central difference where both
# 4-neighbors are members, the one-sided difference where only one is, and
# zero where it is isolated along that axis.  No member's difference reads a
# value outside the mask.
# ---------------------------------------------------------------------------


class MaskStencil:
    """The buffer layout of one mask grid, built once per mask as
    ``DropMask.stencil``: the solve's buffers, the masked gradient and the
    contact ring all read it.

    A buffer holds the grid's rows, ``stride`` cells apart, between a zero
    row above and below, with a spare cell at each end: pixel [i, j] sits at
    ``origin + i * stride + j`` of ``size`` cells, so its x-neighbors sit at
    +-1 and its y-neighbors at +-stride.  The stride is the grid's width,
    plus one zero cell after each row where members lie in both the first
    and the last column, so that no member's neighbor is read across a row
    end.  ``cells`` is the grid's (h, w) view of a buffer and ``pad`` puts a
    pixel vector in a new buffer.  ``inside`` is the membership,
    ``members`` the cells of the member pixels in row-major order (the
    order of ``a[inside]``) and ``ones`` the buffer holding 1 on them.
    ``one_sided[axis]`` (0 is y) holds the cells of the members with
    exactly one member neighbor along the axis and each one's side: -2
    where that neighbor is ahead, +2 where it is behind.  ``ring`` marks the
    members with a 4-neighbor off the mask.
    """

    def __init__(self, inside: np.ndarray):
        m = self.inside = np.asarray(inside, dtype=bool)
        h, w = self.shape = m.shape
        s = self.stride = w + bool(w and m[:, 0].any() and m[:, -1].any())
        self.origin, self.size = s + 1, (h + 2) * s + 2
        ii, jj = np.nonzero(m)
        self.members = self.origin + ii * s + jj
        self.ones = self.pad(np.ones(ii.size))
        p = np.pad(m, 1)
        self.ring = _frozen(m & ~(p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]))
        self.one_sided = []
        for k in (s, 1):
            ahead, behind = self.ones[self.members + k] > 0.0, self.ones[self.members - k] > 0.0
            one = ahead ^ behind
            self.one_sided.append((self.members[one], np.where(ahead[one], -2.0, 2.0)))

    def cells(self, buf: np.ndarray) -> np.ndarray:
        """The (h, w) grid of a buffer, as a view."""
        h, w = self.shape
        return buf[self.origin : self.size - self.origin].reshape(h, -1)[:, :w]

    def pad(self, v: np.ndarray) -> np.ndarray:
        """A pixel vector in a new buffer, zero off the mask."""
        buf = np.zeros(self.size)
        buf[self.members] = v
        return buf

    def differences(self, z: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> None:
        """Twice the masked differences of the buffer ``z`` along x and y, in
        the buffers ``dx`` and ``dy``, where each one-sided member's own
        height is zero: the unhalved central differences, doubled on the
        members with one neighbor along the axis, since their one-sided
        difference is then twice the central one."""
        o, n, s = self.origin, self.size - 2 * self.origin, self.stride
        np.subtract(z[o + 1 : o + 1 + n], z[o - 1 : o - 1 + n], out=dx[o : o + n])
        np.subtract(z[o + s : o + s + n], z[o - s : o - s + n], out=dy[o : o + n])
        (rows, _), (cols, _) = self.one_sided
        dy[rows] *= 2.0
        dx[cols] *= 2.0

    def gradient(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dz/dx, dz/dy) of the grid ``z``, read on the members only, as
        grids that are zero off the mask: the doubled differences, plus
        -2z on the members whose one neighbor is ahead and +2z on those
        whose one neighbor is behind, halved."""
        buf, dx, dy = np.zeros(self.size), np.empty(self.size), np.empty(self.size)
        np.copyto(self.cells(buf), z, where=self.inside)
        self.differences(buf, dx, dy)
        out = np.zeros(self.shape), np.zeros(self.shape)
        for d, g, (one, side) in zip((dx, dy), out, self.one_sided[::-1]):
            d[one] += side * buf[one]
            np.multiply(self.cells(d), 0.5, out=g, where=self.inside)
        return out


def normal_field(hf: HeightField) -> np.ndarray:
    """Unit surface normals on the drop's box, (h, w, 3), oriented into the
    +z hemisphere.

    The tangential sign is chosen so a convex drop has normals tilting
    outward: N' = (-dz/dx, -dz/dy, 1).  N_z is unaffected by that choice.
    Entries outside the mask are zero.
    """
    mask = hf.mask.inside
    gx, gy = hf.mask.stencil.gradient(hf.heights)
    norm = np.sqrt(1.0 + gx * gx + gy * gy)
    n = np.stack([-gx / norm, -gy / norm, 1.0 / norm], axis=-1)
    n[~mask] = 0.0
    return n


def plate_coords(box: DropBox, config: OpticalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Plate coordinates (x, y) of every pixel of ``box``, box-sized, relative
    to the principal point of the box's raster."""
    cx, cy = config.resolve_principal_point(box.shape)
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
