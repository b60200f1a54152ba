"""Perspective rectification of drop imagery and Fresnel illuminance
compensation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HeightField, OpticalConfig, RasterGray, splat_bilinear
from .errors import DomainError, EmptyOutput
from .raytrace import _plane_hits, trace_field, transmittance
from .stereo import DepthResult

_MAX_OUTPUT = 1024


@dataclass(frozen=True)
class RectifiedView:
    """Perspective-correct view through one drop.

    ``origin`` locates the output raster on the rectified pixel plane; the
    validity mask marks covered output pixels.  The view is generally not
    rectangular.
    """

    raster: RasterGray
    valid: np.ndarray
    plane_depth: float
    origin: tuple[float, float]
    scale: float


def _resolve_depth(depth) -> float:
    if isinstance(depth, DepthResult):
        valid = depth.depths[depth.valid]
        if valid.size == 0:
            raise DomainError("depth result has no valid points")
        d = float(np.median(valid))
    else:
        d = float(depth)
    if not (math.isfinite(d) and d > 0):
        raise DomainError(f"rectification depth must be finite and positive, got {d}")
    return d


def rectify_drop(image: RasterGray, hf: HeightField, config: OpticalConfig,
                 depth) -> RectifiedView:
    """Reproject drop pixels onto the plane at the given depth.

    ``depth`` is a scalar plane depth or a DepthResult (its median valid
    depth is used).  Each transmitted pixel's outbound ray is intersected
    with the plane and the hit reprojected through the pinhole onto the
    plate, where the rectified raster lives.
    """
    if image.pixels.shape != hf.mask.box.shape:
        raise DomainError("image and height field must share the pixel grid")
    d = _resolve_depth(depth)
    tf = trace_field(hf, config)
    sel = tf.valid
    if not sel.any():
        raise EmptyOutput("no transmitted drop pixels to rectify")
    _, hits_x, hits_y = _plane_hits(tf.origins[sel], tf.directions[sel], d)
    s = config.camera_z / (config.camera_z + d)
    px, py = hits_x * s, hits_y * s
    vals = tf.box.crop(image.pixels)[sel]

    # robust window: grazing near-band rays land arbitrarily far out and
    # would stretch a strict bounding box to the size cap
    def robust_bounds(vals):
        q1, q25, q50, q75, q99 = np.percentile(vals, [1.0, 25.0, 50.0, 75.0, 99.0])
        spread = 2.0 * max(q75 - q25, 1.0)
        return float(max(q1, q50 - spread)), float(min(q99, q50 + spread))

    x0, x1 = robust_bounds(px)
    y0, y1 = robust_bounds(py)
    keep = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
    px, py, vals = px[keep], py[keep], vals[keep]
    span = max(x1 - x0, y1 - y0)
    if span <= 0 or px.size == 0:
        raise EmptyOutput("rectified hits collapse to a point")
    # output pitch follows the data density (about one hit per cell) so the
    # splat stays dense; never upsample, and honor the size cap
    cells = int(np.clip(math.ceil(1.3 * math.sqrt(px.size)), 64, _MAX_OUTPUT))
    scale = min(1.0, (cells - 1) / span)
    w = int(math.floor((x1 - x0) * scale)) + 1
    h = int(math.floor((y1 - y0) * scale)) + 1

    raster, valid = splat_bilinear((py - y0) * scale, (px - x0) * scale, vals, (h, w))
    return RectifiedView(RasterGray(raster), valid, d, (x0, y0), scale)


def compensate_illuminance(image: RasterGray, hf: HeightField,
                           config: OpticalConfig) -> tuple[RasterGray, np.ndarray]:
    """Divide each transmitted drop pixel by its two-interface transmittance.

    Returns (compensated raster, validity mask); dark-band pixels are invalid
    and keep their original intensity rather than being amplified.  Non-drop
    pixels are untouched.
    """
    if image.pixels.shape != hf.mask.box.shape:
        raise DomainError("image and height field must share the pixel grid")
    tf = trace_field(hf, config)
    total = transmittance(tf, config)
    ok = tf.valid & (total > 1e-3)
    out = np.array(image.pixels)
    drop = tf.box.crop(out)
    drop[ok] = np.clip(drop[ok] / total[ok], 0.0, 1.0)
    return RasterGray(out), tf.box.paste(ok)
