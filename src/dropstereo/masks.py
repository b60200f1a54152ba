"""Synthetic drop-region generators for tests and the synth command."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .core import DropMask, _largest_component
from .errors import DomainError


def disk_mask(radius: int, shape: tuple[int, int] | None = None,
              center: tuple[float, float] | None = None) -> DropMask:
    """Circular region of the given radius; grid defaults to a snug square."""
    if radius < 1:
        raise DomainError("radius must be at least 1")
    if shape is None:
        n = 2 * radius + 5
        shape = (n, n)
    if center is None:
        center = ((shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0)
    ci, cj = center
    ii, jj = np.mgrid[0 : shape[0], 0 : shape[1]]
    return DropMask((ii - ci) ** 2 + (jj - cj) ** 2 <= radius * radius)


def blob_mask(radius: int, shape: tuple[int, int] | None = None,
              center: tuple[float, float] | None = None,
              irregularity: float = 0.15, seed: int = 0) -> DropMask:
    """Irregular star-shaped region: a circle with low-order radial ripple."""
    if radius < 1:
        raise DomainError("radius must be at least 1")
    if not 0.0 <= irregularity < 0.5:
        raise DomainError("irregularity must be in [0, 0.5)")
    if shape is None:
        n = int(2 * radius * (1 + irregularity)) + 7
        shape = (n, n)
    if center is None:
        center = ((shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0)
    rng = np.random.default_rng(seed)
    orders = np.arange(2, 6)
    amp = rng.uniform(-1.0, 1.0, size=orders.size) * irregularity / np.sqrt(orders.size)
    phase = rng.uniform(0.0, 2 * np.pi, size=orders.size)

    ci, cj = center
    ii, jj = np.mgrid[0 : shape[0], 0 : shape[1]]
    phi = np.arctan2(ii - ci, jj - cj)
    rim = radius * (1.0 + sum(a * np.cos(k * phi + p) for a, k, p in zip(amp, orders, phase)))
    m = (ii - ci) ** 2 + (jj - cj) ** 2 <= rim**2
    # star-shaped rasterization can pinch off slivers; keep the main component
    return DropMask(_largest_component(ndimage.binary_fill_holes(m)))
