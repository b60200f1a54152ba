"""Drop detection: in-focus drops stand out as strong edge clusters against
the defocus-blurred background."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .core import _FOUR_CONNECTED, DropBox, DropMask, RasterGray, _largest_component
from .errors import DomainError
from .masks import disk_mask

_EIGHT = np.ones((3, 3), dtype=bool)
# radius of the disk that closes edge gaps into candidate regions
_CLOSING_RADIUS = 5
# drops are convex: a candidate below this pixel-to-hull area ratio is rejected
_SOLIDITY_MIN = 0.85


@dataclass(frozen=True)
class DetectParams:
    """Edge-based drop detection knobs."""

    low_percentile: float = 70.0
    high_percentile: float = 90.0
    min_diameter: float = 300.0

    def __post_init__(self):
        if not 0 < self.low_percentile < self.high_percentile < 100:
            raise DomainError("percentiles must satisfy 0 < low < high < 100")
        if not (math.isfinite(self.min_diameter) and self.min_diameter > 0):
            raise DomainError("min_diameter must be finite and positive")


def _solidity(component: np.ndarray) -> float:
    """Pixel area over convex hull area (hull of the pixel squares)."""
    ii, jj = np.nonzero(component)
    area = ii.size
    if area < 9:
        return 0.0
    corners = np.concatenate([
        np.stack([ii - 0.5, jj - 0.5], axis=1), np.stack([ii - 0.5, jj + 0.5], axis=1),
        np.stack([ii + 0.5, jj - 0.5], axis=1), np.stack([ii + 0.5, jj + 0.5], axis=1)])
    try:
        hull_area = ConvexHull(corners).volume
    except QhullError:
        return 0.0
    return float(area / hull_area) if hull_area > 0 else 0.0


def _diameter(region: np.ndarray) -> float:
    """Diameter of the disk with the region's pixel area."""
    return 2.0 * float(np.sqrt(region.sum() / np.pi))


def _dark_band_region(pixels: np.ndarray, comp: np.ndarray, background: float) -> np.ndarray:
    """The part of an edge candidate enclosed by its dark total-reflection band.

    Total reflection near a drop's rim leaves a dark band just inside the
    contact line, while texture edges that the closing attached to the
    candidate lie outside it.  The band is the candidate's pixels within a
    quarter of the way from its 1st-percentile level up to the background
    median (so the cut scales with image gain); its largest 8-connected piece,
    hole-filled, is the drop.  A candidate whose dark pixels enclose no hole,
    or less than half of its area, shows no closed band (a flat drop below the
    critical slope) and keeps its edge-based region.
    """
    floor = float(np.percentile(pixels[comp], 1.0))
    if background <= floor:
        return comp
    dark = comp & (pixels <= floor + 0.25 * (background - floor))
    ring = _largest_component(dark, _EIGHT)
    region = ndimage.binary_fill_holes(ring)
    area = int(region.sum())
    if area == int(ring.sum()) or 2 * area < int(comp.sum()):
        return comp
    # pieces of an 8-connected ring may touch only at corners
    return _largest_component(region)


def detect_drops(image: RasterGray, params: DetectParams | None = None) -> list[DropMask]:
    """Locate drop regions; returns an empty list when nothing qualifies.

    Gradient-magnitude edges are kept by percentile hysteresis, closed and
    hole-filled into candidate regions.  Each candidate is cut back to the
    region its dark total-reflection band encloses, so the mask ends at the
    contact line (see ``_dark_band_region``; a candidate without a closed band
    keeps its edge-based region), then filtered by equivalent diameter and
    solidity (drops are convex).
    """
    p = params or DetectParams()
    img = image.pixels
    gx = ndimage.sobel(img, axis=1)
    gy = ndimage.sobel(img, axis=0)
    mag = np.hypot(gx, gy)
    lo = np.percentile(mag, p.low_percentile)
    hi = np.percentile(mag, p.high_percentile)
    if hi <= 0:
        return []
    # hysteresis: the weak edges 8-connected to a strong one
    edges = ndimage.binary_propagation(mag >= hi, structure=_EIGHT, mask=mag >= lo)

    disk = disk_mask(_CLOSING_RADIUS, (2 * _CLOSING_RADIUS + 1,) * 2).membership
    edges = ndimage.binary_closing(edges, structure=disk, iterations=1)
    filled = ndimage.binary_fill_holes(edges)

    comp_labels, _ = ndimage.label(filled, structure=_FOUR_CONNECTED)
    outside = img[~filled]
    background = float(np.median(outside if outside.size else img))
    out: list[DropMask] = []
    for k, box in enumerate(ndimage.find_objects(comp_labels), start=1):
        comp = comp_labels[box] == k
        # the dark-band cut only shrinks a candidate, so size-reject first
        if _diameter(comp) < p.min_diameter:
            continue
        comp = _dark_band_region(img[box], comp, background)
        if _diameter(comp) < p.min_diameter or _solidity(comp) < _SOLIDITY_MIN:
            continue
        out.append(DropMask(comp, at=DropBox(box[0].start, box[0].stop, box[1].start,
                                             box[1].stop, img.shape)))
    # stable reading order: left-to-right, then top-to-bottom
    out.sort(key=lambda m: (m.bbox()[2], m.bbox()[0]))
    return out
