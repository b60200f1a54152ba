"""Varying-volume outer loop: alternate fixed-volume solves with dark-band
brightness sampling until the drop volume settles.

The band near the critical normal is half dark, half dimly transmitting, so
its mean brightness falls when the estimated volume is too small (the
sampling ring slides outward into truly dark pixels) and rises when it is
too large.  Each update scales the volume by the relative brightness miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DropMask, HeightField, OpticalConfig, RasterGray
from .errors import DomainError, RingTooSmall
from .optics import critical_normal_z_field, normal_z_field
from .solver import SolveReport, SolverParams, init_mesh, solve_fixed_volume


# range of the volume coefficient alpha = V / B^(3/2) that the loop explores
ALPHA_MIN = 0.05
ALPHA_MAX = 0.60
# relaxation of each volume update, and the relative volume step that ends the loop
_TAU_R = 0.5
_REL_VOLUME_TOL = 1e-3


@dataclass(frozen=True)
class VolumeLoopParams:
    """Knobs of the varying-volume outer loop."""

    max_outer_updates: int = 10
    alpha_init: float = 0.30
    min_ring_pixels: int = 8

    def __post_init__(self):
        for name in ("max_outer_updates", "alpha_init", "min_ring_pixels"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not ALPHA_MIN <= self.alpha_init <= ALPHA_MAX:
            raise DomainError(f"alpha_init {self.alpha_init} outside [{ALPHA_MIN}, {ALPHA_MAX}]")


def band_ring(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Pixels whose normal-z lies within the band half-width of the critical
    value (computed per pixel from the equivalent camera)."""
    n_z = normal_z_field(hf)
    n_crit = critical_normal_z_field(hf, config)
    return hf.mask.membership & (np.abs(n_z - n_crit) <= config.band_halfwidth)


def sample_band_brightness(image: RasterGray, hf: HeightField, config: OpticalConfig,
                           min_pixels: int = 8) -> float:
    """Mean image intensity over the estimated band ring."""
    if image.pixels.shape != hf.mask.membership.shape:
        raise DomainError("image and height field must share the pixel grid")
    ring = band_ring(hf, config)
    n = int(ring.sum())
    if n < min_pixels:
        raise RingTooSmall(f"band ring has {n} pixels (need {min_pixels}); "
                           "volume estimate far off or drop too small")
    return float(image.pixels[ring].mean())


def target_brightness(image: RasterGray, drop_masks: list[DropMask]) -> float:
    """Expected band brightness 0.241 * I_b, where I_b is the mean intensity
    of the non-drop background."""
    outside = np.ones(image.pixels.shape, dtype=bool)
    for m in drop_masks:
        if m.membership.shape != image.pixels.shape:
            raise DomainError("drop masks must share the image grid")
        outside &= ~m.membership
    if not outside.any():
        raise DomainError("no background pixels outside the drop masks")
    return 0.241 * float(image.pixels[outside].mean())


def volume_update(volume: float, sampled: float, target: float, tau_r: float,
                  v_min: float | None = None, v_max: float | None = None) -> float:
    """One multiplicative volume correction V * (1 + tau_r * (1 - I_t/I_r)),
    optionally clamped to [v_min, v_max]."""
    if target <= 0.0:
        raise DomainError("target brightness must be positive")
    if volume <= 0.0:
        raise DomainError("volume must be positive")
    v = volume + tau_r * volume * (1.0 - sampled / target)
    if v_min is not None:
        v = max(v, v_min)
    if v_max is not None:
        v = min(v, v_max)
    return float(v)


@dataclass(frozen=True)
class VolumeLoopReport:
    alpha_est: float
    outer_updates: int
    volume_history: tuple[float, ...]
    sampled_history: tuple[float, ...]
    target: float
    solve: SolveReport


def estimate_shape(image: RasterGray, mask: DropMask, config: OpticalConfig,
                   solver_params: SolverParams | None = None,
                   loop_params: VolumeLoopParams | None = None,
                   ) -> tuple[HeightField, float, VolumeLoopReport]:
    """Reconstruct one drop, estimating its volume from the dark band.

    Returns (surface, alpha_est, report); the surface carries exactly the
    final volume.  A drop of known volume coefficient needs no loop: solve it
    directly with ``solve_fixed_volume`` at ``initial_volume(mask, alpha)``.
    """
    sp = solver_params or SolverParams()
    lp = loop_params or VolumeLoopParams()
    b = mask.area
    if b == 0:
        raise DomainError("cannot reconstruct on an empty mask")
    scale = b**1.5

    target = target_brightness(image, [mask])
    v = lp.alpha_init * scale
    hf, _ = solve_fixed_volume(mask, v, sp, config, init=init_mesh(mask, lp.alpha_init))
    volumes = [v]
    samples: list[float] = []
    best: tuple[float, float] | None = None  # (|I_t - I_r|, volume)
    updates = 0
    for k in range(lp.max_outer_updates):
        if k > 0:
            hf, _ = solve_fixed_volume(mask, v, sp, config, init=hf)
        try:
            sampled = sample_band_brightness(image, hf, config, lp.min_ring_pixels)
        except RingTooSmall:
            # an empty ring means the estimated surface is too flat to reach
            # the critical slope anywhere; treat it as a fully dark sample so
            # the volume grows back into the observable range
            sampled = 0.0
        samples.append(sampled)
        if best is None or abs(sampled - target) < best[0]:
            best = (abs(sampled - target), v)
        v_new = volume_update(v, sampled, target, _TAU_R,
                              v_min=ALPHA_MIN * scale, v_max=ALPHA_MAX * scale)
        updates += 1
        volumes.append(v_new)
        done = abs(v_new - v) / v < _REL_VOLUME_TOL
        v = v_new
        if done:
            best = (0.0, v)
            break

    # the multiplicative update can orbit its fixed point rather than settle;
    # the volume whose sampled brightness came closest to the target is the
    # best-supported estimate among the visited iterates
    v = best[1]
    hf, rep = solve_fixed_volume(mask, v, sp, config, init=hf)
    # surface must expose a ring at the end; otherwise the estimate is moot
    sample_band_brightness(image, hf, config, lp.min_ring_pixels)
    alpha_est = v / scale
    return hf, alpha_est, VolumeLoopReport(alpha_est, updates, tuple(volumes),
                                           tuple(samples), target, rep)
