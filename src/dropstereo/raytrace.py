"""Inverse raytracing through reconstructed drops, angular dewarping, and the
forward synthetic renderer used as ground truth.

Inverse rays run from the equivalent camera (below the plate at z = -C'_z)
up to a surface point, bend once at the curved water-air interface with
the tangential ratio n_w/n_a, and continue toward the scene at positive z.
Pixels whose refraction totally reflects form the dark band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .core import (N_AIR, DropBox, DropMask, HeightField, OpticalConfig, RasterGray, Vec3,
                   normal_field, plate_coords, splat_bilinear)
from .errors import DomainError, EmptyOutput
from .optics import fresnel_transmittance_arrays, incidence_directions, refract_arrays

_MIN_FORWARD_Z = 1e-9
# pixels per row block of the background render (at least one row a block)
_BLOCK_PIXELS = 1 << 15


class Ray(NamedTuple):
    """Origin plus unit direction."""

    origin: Vec3
    direction: Vec3


@dataclass(frozen=True, eq=False)
class ScenePlane:
    """Fronto-parallel textured plane z = depth.

    ``scale`` is scene pixels per texture pixel, with the texture centred
    on the optical axis.  ``x_min``/``x_max`` restrict the plane to a slab
    of scene X, letting a scene stack planes at different depths.
    """

    depth: float
    texture: np.ndarray
    scale: float = 1.0
    x_min: float | None = None
    x_max: float | None = None

    def __post_init__(self):
        tex = np.asarray(self.texture, dtype=float)
        if tex.ndim != 2 or tex.size == 0 or not np.isfinite(tex).all():
            raise DomainError("plane texture must be a non-empty finite 2D array")
        for name, value in (("depth", self.depth), ("scale", self.scale)):
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"plane {name} must be finite and positive")
        if not all(x is None or math.isfinite(x) for x in (self.x_min, self.x_max)):
            raise DomainError("plane x_min and x_max must be finite or null")
        object.__setattr__(self, "texture", np.clip(tex, 0.0, 1.0))

    def covers(self, x: np.ndarray) -> np.ndarray:
        ok = np.ones(np.shape(x), dtype=bool)
        if self.x_min is not None:
            ok &= x >= self.x_min
        if self.x_max is not None:
            ok &= x < self.x_max
        return ok

    def sample(self, x: np.ndarray, y: np.ndarray, border: float | None) -> np.ndarray:
        """Bilinear texture lookup at scene coordinates; ``border`` of None
        tiles the texture, otherwise out-of-texture hits take that value."""
        th, tw = self.texture.shape
        tx = x / self.scale + (tw - 1) / 2.0
        ty = y / self.scale + (th - 1) / 2.0
        if border is None:
            return _bilinear_wrap(self.texture, ty, tx)
        inside = (tx >= 0) & (tx <= tw - 1) & (ty >= 0) & (ty <= th - 1)
        val = _bilinear_wrap(self.texture, np.clip(ty, 0, th - 1), np.clip(tx, 0, tw - 1))
        return np.where(inside, val, border)


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene: image size, textured planes, background defocus blur,
    and the small ambient leak that keeps dark bands from being pure black."""

    width: int
    height: int
    planes: tuple[ScenePlane, ...]
    blur_radius: float = 6.0
    ambient_leak: float = 0.02

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError("scene raster must be non-empty")
        if not self.planes:
            raise DomainError("scene needs at least one plane")
        if not (math.isfinite(self.blur_radius) and self.blur_radius >= 0):
            raise DomainError("blur_radius must be finite and non-negative")
        if not 0.0 <= self.ambient_leak <= 1.0:
            raise DomainError("ambient_leak must be in [0, 1]")
        object.__setattr__(self, "planes", tuple(self.planes))


def _bilinear_wrap(tex: np.ndarray, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    th, tw = tex.shape
    i0 = np.floor(fi).astype(int)
    j0 = np.floor(fj).astype(int)
    di = fi - i0
    dj = fj - j0
    i0m, i1m = i0 % th, (i0 + 1) % th
    j0m, j1m = j0 % tw, (j0 + 1) % tw
    return ((1 - di) * (1 - dj) * tex[i0m, j0m] + (1 - di) * dj * tex[i0m, j1m]
            + di * (1 - dj) * tex[i1m, j0m] + di * dj * tex[i1m, j1m])


# ---------------------------------------------------------------------------
# Inverse raytracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TraceField:
    """Vectorized trace of every mask pixel, on the drop's box.

    The arrays cover ``box`` (h × w): raster pixel (i, j) is entry
    (i - box.i0, j - box.j0), and ``box.paste`` puts an array back on the
    raster.  ``valid`` marks pixels with a transmitted, forward-going ray;
    the rest of the mask is in the dark band (or exits backward at grazing
    angles).
    """

    origins: np.ndarray       # (h, w, 3) surface points
    directions: np.ndarray    # (h, w, 3) outbound unit directions
    valid: np.ndarray         # (h, w) bool
    tir: np.ndarray           # (h, w) bool
    cos_theta_w: np.ndarray   # (h, w) water-side incidence cosine at the dome
    theta_flat_air: np.ndarray  # (h, w) air-side angle at the flat plate
    box: DropBox


def trace_field(hf: HeightField, config: OpticalConfig) -> TraceField:
    """Trace every pixel of the drop's box (``hf.mask.box``)."""
    box, mask = hf.mask.box, hf.mask.inside
    x, y = plate_coords(box, config)
    r_i = incidence_directions(hf, config)
    normals = normal_field(hf)
    r_o, tir = refract_arrays(r_i, np.where(mask[..., None], normals, [0.0, 0.0, 1.0]),
                              config.eta)
    tir &= mask
    cos_w = np.abs(np.sum(r_i * normals, axis=-1))
    valid = mask & ~tir & (r_o[..., 2] > _MIN_FORWARD_Z)
    origins = np.stack([x, y, hf.heights], axis=-1)
    theta_flat = np.arctan(np.hypot(x, y) / config.camera_z)
    return TraceField(origins, r_o, valid, tir, np.clip(cos_w, 0.0, 1.0), theta_flat, box)


def transmittance(tf: TraceField, config: OpticalConfig, radiance=1.0) -> np.ndarray:
    """Two-interface Fresnel transmittance of each traced pixel (curved dome,
    then flat plate), applied to ``radiance`` (a scalar or a box-sized array)."""
    _, _, t_flat = fresnel_transmittance_arrays(tf.theta_flat_air, N_AIR, config.n_water)
    return radiance * _transmittance_from_cos_w(tf.cos_theta_w, config) * t_flat


def uv_field(tf: TraceField, turn: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel angular coordinates (u, v) plus validity of a traced drop,
    box-sized like the trace.

    ``turn`` (radians) rolls the (u, v) frame about the view axis, so that
    u runs along (cos turn, sin turn) of the plate's (x, y).  A roll
    keeps dz, so turned coordinates are still an angular image.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = tf.directions[..., 0] / tf.directions[..., 2]
        v = tf.directions[..., 1] / tf.directions[..., 2]
    u = np.where(tf.valid, u, 0.0)
    v = np.where(tf.valid, v, 0.0)
    c, s = math.cos(turn), math.sin(turn)
    return c * u + s * v, c * v - s * u, tf.valid


# ---------------------------------------------------------------------------
# Angular dewarping
# ---------------------------------------------------------------------------


def shared_uv_bounds(traces: list[TraceField], turn: float
                     ) -> tuple[float, float, float, float]:
    """Robust angular window (u_min, u_max, v_min, v_max) covering every
    drop's forward map: the 2nd/98th percentiles of each drop's (u, v), so
    near-band grazing directions do not dominate the grid.  The window is
    taken in the frame turned by ``turn`` (see ``uv_field``)."""
    u_lo, u_hi, v_lo, v_hi = [], [], [], []
    for k, tf in enumerate(traces):
        u, v, valid = uv_field(tf, turn)
        if not valid.any():
            raise DomainError(f"drop {k} has no valid transmitted pixels")
        lo, hi = np.percentile(u[valid], [2.0, 98.0])
        u_lo.append(lo)
        u_hi.append(hi)
        lo, hi = np.percentile(v[valid], [2.0, 98.0])
        v_lo.append(lo)
        v_hi.append(hi)
    return float(min(u_lo)), float(max(u_hi)), float(min(v_lo)), float(max(v_hi))


@dataclass(frozen=True, eq=False)
class DewarpedImage:
    """Drop imagery resampled on a regular angular grid.

    ``source_ij`` maps each output cell back to the warped input pixel whose
    angular coordinates landed nearest to the cell center, or the nearest
    such cell's pixel, on every ``valid`` cell, and -1 on every other cell;
    it realizes the inverse of the one-to-one angular map.  The grid lies in the (u, v) frame turned by ``turn`` (see
    ``uv_field``); ``u0``, ``v0``, ``du`` and ``dv`` are in that frame.
    """

    raster: RasterGray
    valid: np.ndarray
    u0: float
    v0: float
    du: float
    dv: float
    source_ij: np.ndarray  # (R, R, 2) int
    turn: float = 0.0

    def uv_of(self, pu: float, pv: float) -> tuple[float, float]:
        """Unturned angular coordinates of (column, row) positions on the
        grid."""
        u, v = self.u0 + pu * self.du, self.v0 + pv * self.dv
        c, s = math.cos(self.turn), math.sin(self.turn)
        return c * u - s * v, s * u + c * v


def dewarp_image(image: RasterGray, tf: TraceField, out_resolution: int,
                 uv_bounds: tuple[float, float, float, float], turn: float) -> DewarpedImage:
    """Resample the pixels of a traced drop onto a regular
    ``out_resolution`` × ``out_resolution`` (u, v) grid, in the frame turned
    by ``turn`` (see ``uv_field``), by bilinear splatting.

    ``uv_bounds`` (u_min, u_max, v_min, v_max, in the turned frame) and
    ``turn`` must be shared by all drops that will be matched against each
    other (see ``shared_uv_bounds``).
    """
    tf.box.require_grid(image.pixels.shape, "the traced drop")
    if out_resolution < 8:
        raise DomainError("output resolution must be at least 8")
    u, v, valid = uv_field(tf, turn)
    ii, jj = np.nonzero(valid)
    if ii.size == 0:
        raise EmptyOutput("no valid (non-dark, forward-going) drop pixels to dewarp")
    uu, vv = u[ii, jj], v[ii, jj]
    u_min, u_max, v_min, v_max = uv_bounds
    if not (u_max > u_min and v_max > v_min):
        raise EmptyOutput("degenerate angular extent")

    r = out_resolution
    du = (u_max - u_min) / (r - 1)
    dv = (v_max - v_min) / (r - 1)
    pu = (uu - u_min) / du
    pv = (vv - v_min) / dv
    inside = (pu >= 0) & (pu <= r - 1) & (pv >= 0) & (pv <= r - 1)
    pu, pv = pu[inside], pv[inside]
    src_i, src_j = ii[inside] + tf.box.i0, jj[inside] + tf.box.j0
    vals = image.pixels[src_i, src_j]
    if pu.size == 0:
        raise EmptyOutput("no drop pixels fall inside the angular window")

    raster, valid_out = splat_bilinear(pv, pu, vals, (r, r))

    # nearest-contributor table for mapping matches back to warped pixels
    cell_r = np.clip(np.rint(pv).astype(int), 0, r - 1)
    cell_c = np.clip(np.rint(pu).astype(int), 0, r - 1)
    cell = cell_r * r + cell_c
    dist = (pv - cell_r) ** 2 + (pu - cell_c) ** 2
    order = np.lexsort((dist, cell))
    cells, first = np.unique(cell[order], return_index=True)
    sel = order[first]
    source = np.full((r * r, 2), -1, dtype=int)
    source[cells, 0] = src_i[sel]
    source[cells, 1] = src_j[sel]
    source = source.reshape(r, r, 2)
    # spread to splat-covered cells lacking a direct contributor; some cell
    # always has one, since the window holds at least one pixel
    has = source[..., 0] >= 0
    if (valid_out & ~has).any():
        idx = ndimage.distance_transform_edt(~has, return_distances=False, return_indices=True)
        source = source[idx[0], idx[1]]
        source[~valid_out] = -1

    return DewarpedImage(RasterGray(raster), valid_out, float(u_min), float(v_min),
                         float(du), float(dv), source, float(turn))


# ---------------------------------------------------------------------------
# Forward synthetic renderer
# ---------------------------------------------------------------------------


def _background(scene: SceneSpec, config: OpticalConfig) -> np.ndarray:
    """The unblurred scene as the pinhole sees it through the bare plate: each
    pixel reads the first plane whose x-range holds its hit.

    Rows are rendered in blocks of about ``_BLOCK_PIXELS`` pixels, so the
    coordinates and hits of a block are the only temporaries next to the one
    output raster.  Every step is per pixel, so the blocks leave no seam.
    """
    h, w = scene.height, scene.width
    out = np.zeros((h, w))
    rows = max(1, _BLOCK_PIXELS // w)
    for i0 in range(0, h, rows):
        i1 = min(i0 + rows, h)
        # the box keeps the raster's shape, so x and y are the raster's own
        x, y = plate_coords(DropBox(i0, i1, 0, w, (h, w)), config)
        block = out[i0:i1]
        todo = np.ones(block.shape, dtype=bool)
        for plane in scene.planes:
            m = 1.0 + plane.depth / config.camera_z
            hx, hy = x * m, y * m
            sel = todo & plane.covers(hx)
            if sel.any():
                block[sel] = plane.sample(hx[sel], hy[sel], None)
                todo &= ~sel
    return out


def _plane_hits(origins: np.ndarray, directions: np.ndarray,
                depth: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ray parameter t, hit x, hit y) of (..., 3) rays on the plane z = ``depth``."""
    t = (depth - origins[..., 2]) / directions[..., 2]
    return t, origins[..., 0] + t * directions[..., 0], origins[..., 1] + t * directions[..., 1]


def _scene_hits(scene: SceneSpec, tf: TraceField) -> tuple[np.ndarray, np.ndarray]:
    """Intersect traced rays with the scene: (value, depth); a ray that
    misses every plane reads value 0 and depth NaN."""
    val = np.zeros(tf.valid.shape)
    dep = np.full(tf.valid.shape, np.nan)
    todo = tf.valid.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for plane in scene.planes:
            t, px, py = _plane_hits(tf.origins, tf.directions, plane.depth)
            sel = todo & (t > 0) & plane.covers(px)
            if sel.any():
                val[sel] = plane.sample(px[sel], py[sel], None)
                dep[sel] = plane.depth
                todo &= ~sel
    return val, dep


def render_synthetic(scene: SceneSpec, drops: list[tuple[DropMask, HeightField]],
                     config: OpticalConfig) -> RasterGray:
    """Render the scene through the given drops.

    Non-drop pixels show the defocus-blurred background; transmitted drop
    pixels carry the scene radiance times the Fresnel transmittance of both
    interfaces; dark-band pixels carry only the ambient leak.

    At any raster size the render holds about two rasters at its peak: the
    background and its blur, then the blurred raster and the clipped one
    that ``RasterGray`` keeps.  Each drop adds only arrays of its box.
    """
    out = _background(scene, config)
    if scene.blur_radius > 0:
        out = ndimage.gaussian_filter(out, scene.blur_radius, mode="nearest")
    for k, (_, hf) in enumerate(drops):
        hf.mask.box.require_grid((scene.height, scene.width), f"drop {k}")
        if float(hf.heights.max(initial=0.0)) >= min(p.depth for p in scene.planes):
            raise DomainError("scene planes must lie behind every drop")
        tf = trace_field(hf, config)
        val = _scene_hits(scene, tf)[0]  # 0.0 where a ray misses every plane
        # zero water thickness carries no drop optics; only wetted pixels
        # leave the background path
        wet = hf.mask.inside & (hf.heights > 0.0)
        lit = tf.valid & wet
        drop = tf.box.crop(out)
        drop[wet & ~lit] = scene.ambient_leak
        drop[lit] = transmittance(tf, config, val)[lit]
    return RasterGray(out)


def render_depth_truth(scene: SceneSpec, hf: HeightField,
                       config: OpticalConfig) -> np.ndarray:
    """Ground-truth scene depth per transmitted drop pixel (NaN elsewhere),
    on the drop's box."""
    return _scene_hits(scene, trace_field(hf, config))[1]


def _transmittance_from_cos_w(cos_w: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """Curved-interface transmittance from the water-side incidence cosine."""
    sin_w = np.sqrt(np.clip(1.0 - cos_w**2, 0.0, 1.0))
    sin_a = config.eta * sin_w
    transmitted = sin_a < 1.0
    theta_a = np.arcsin(np.clip(sin_a, 0.0, 1.0 - 1e-12))
    _, _, t = fresnel_transmittance_arrays(theta_a, N_AIR, config.n_water)
    return np.where(transmitted, t, 0.0)
