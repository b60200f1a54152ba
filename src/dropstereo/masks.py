"""Synthetic drop-region generators for tests and the synth command."""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .core import DropBox, DropMask, _largest_component
from .errors import DomainError


def _span(c: float, bound: float, n: int) -> tuple[int, int]:
    """The half-open range of indices within ``bound`` of ``c`` plus one on
    each side, clamped to [0, n) and at least one index long."""
    lo = min(max(math.floor(c - bound) - 1, 0), n - 1)
    return lo, max(min(math.ceil(c + bound) + 2, n), lo + 1)


def disk_mask(radius: int, shape: tuple[int, int] | None = None,
              center: tuple[float, float] | None = None) -> DropMask:
    """Circular region of the given radius (the round blob); grid defaults to
    a snug square."""
    return blob_mask(radius, shape or (2 * radius + 5,) * 2, center, 0.0)


def blob_mask(radius: int, shape: tuple[int, int] | None = None,
              center: tuple[float, float] | None = None,
              irregularity: float = 0.15, seed: int = 0) -> DropMask:
    """Irregular star-shaped region: a circle with low-order radial ripple.

    Only a window of the grid is rasterised: the blob's bound
    ``radius * (1 + sum |a_k|)`` about the centre plus a one-pixel margin of
    background, so the hole fill sees the same outside as on the whole grid,
    clamped to the grid and at least one pixel wide."""
    if radius < 1:
        raise DomainError("radius must be at least 1")
    if not 0.0 <= irregularity < 0.5:
        raise DomainError("irregularity must be in [0, 0.5)")
    shape = shape or (int(2 * radius * (1 + irregularity)) + 7,) * 2
    ci, cj = ((shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0) if center is None else center
    rng = np.random.default_rng(seed)
    orders = np.arange(2, 6)
    amp = rng.uniform(-1.0, 1.0, size=orders.size) * irregularity / np.sqrt(orders.size)
    phase = rng.uniform(0.0, 2 * np.pi, size=orders.size)

    bound = radius * (1.0 + float(np.abs(amp).sum()))
    (i0, i1), (j0, j1) = _span(ci, bound, shape[0]), _span(cj, bound, shape[1])
    ii, jj = np.mgrid[i0:i1, j0:j1]
    phi = np.arctan2(ii - ci, jj - cj)
    rim = radius * (1.0 + sum(a * np.cos(k * phi + p) for a, k, p in zip(amp, orders, phase)))
    m = (ii - ci) ** 2 + (jj - cj) ** 2 <= rim**2
    # star-shaped rasterization can pinch off slivers; keep the main component
    return DropMask(_largest_component(ndimage.binary_fill_holes(m)),
                    at=DropBox(i0, i1, j0, j1, tuple(shape)))
