"""Varying-volume outer loop: alternate fixed-volume solves with dark-band
brightness sampling until the drop volume settles.

The band near the critical normal is half dark, half dimly transmitting, so
its mean brightness falls when the estimated volume is too small (the
sampling ring slides outward into truly dark pixels) and rises when it is
too large.  Each update scales the volume by the relative brightness miss.

The update can orbit its fixed point rather than settle, so the loop keeps
one record per probe: its volume, its sampled brightness, its solved surface
(on the drop's box), its solve report and the ``RingTooSmall`` its sample
raised, if any.  Only the first solve starts from the cylinder
``init_mesh(mask, alpha_init)``.  Each later solve at volume v starts from a
predictor along the family of solved surfaces z(V) (Allgower & Georg 1990):
the Lagrange polynomial in volume through the up to three stored surfaces
whose volumes are nearest v, where the zero surface at V = 0 counts as one,
clamped at zero; the solve's volume restore absorbs what the clamp removes.
With one stored probe the nodes are 0 and v1, so the start is that surface
scaled by v / v1, exact in the small-slope limit, where the surface is
proportional to its volume; with more, the quadratic also follows the
surface's curvature in V, and on the ``volume`` benchmark the loops take
25-33 % fewer sweeps than from the scaled nearest surface (D4 in
``docs/DECISIONS.md``).  A re-probe of a stored volume starts from that
surface itself.  The answer is the probe whose sample came closest to the
target; if that probe showed no ring, the loop raises the ``RingTooSmall``
its sample raised.
"""

from __future__ import annotations

import math
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
# fewest band-ring pixels that make a brightness sample
_MIN_RING_PIXELS = 8
# normal-z half-width of the sampled band ring about the critical value
_BAND_HALFWIDTH = 0.02 * np.pi


@dataclass(frozen=True)
class VolumeLoopParams:
    """Knobs of the varying-volume outer loop."""

    max_outer_updates: int = 10
    alpha_init: float = 0.30

    def __post_init__(self):
        for name in ("max_outer_updates", "alpha_init"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not ALPHA_MIN <= self.alpha_init <= ALPHA_MAX:
            raise DomainError(f"alpha_init {self.alpha_init} outside [{ALPHA_MIN}, {ALPHA_MAX}]")


def band_ring(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Pixels of the drop's box whose normal-z lies within the band half-width
    of the critical value (computed per pixel from the equivalent camera)."""
    n_z = normal_z_field(hf)
    n_crit = critical_normal_z_field(hf, config)
    return hf.mask.inside & (np.abs(n_z - n_crit) <= _BAND_HALFWIDTH)


def sample_band_brightness(image: RasterGray, hf: HeightField, config: OpticalConfig) -> float:
    """Mean image intensity over the estimated band ring."""
    hf.mask.box.require_grid(image.pixels.shape, "the drop")
    ring = band_ring(hf, config)
    n = int(ring.sum())
    if n < _MIN_RING_PIXELS:
        raise RingTooSmall(f"band ring has {n} pixels (need {_MIN_RING_PIXELS}); "
                           "volume estimate far off or drop too small")
    return float(hf.mask.box.crop(image.pixels)[ring].mean())


def target_brightness(image: RasterGray, drop_masks: list[DropMask]) -> float:
    """Expected band brightness 0.241 * I_b, where I_b is the mean intensity
    of the non-drop background."""
    outside = np.ones(image.pixels.shape, dtype=bool)
    for k, m in enumerate(drop_masks):
        m.box.require_grid(image.pixels.shape, f"drop mask {k}")
        m.box.crop(outside)[m.inside] = False
    if not outside.any():
        raise DomainError("no background pixels outside the drop masks")
    background = float(image.pixels[outside].mean())
    if background == 0.0:
        raise DomainError("background outside the drop masks is black; "
                          "the band has no target brightness")
    return 0.241 * background


def volume_update(volume: float, sampled: float, target: float,
                  v_min: float, v_max: float) -> float:
    """One multiplicative volume correction V * (1 + _TAU_R * (1 - sampled/target)),
    clamped to [v_min, v_max]."""
    if target <= 0.0:
        raise DomainError("target brightness must be positive")
    if volume <= 0.0:
        raise DomainError("volume must be positive")
    v = volume + _TAU_R * volume * (1.0 - sampled / target)
    return float(min(max(v, v_min), v_max))


def _predicted_start(mask: DropMask, v: float,
                     surfaces: list[tuple[float, HeightField]]) -> HeightField:
    """The start of a probe at volume ``v``: the Lagrange polynomial in volume
    through the three nodes of distinct volume nearest ``v`` (or fewer, where
    fewer exist), clamped at zero.  The nodes are the zero surface at volume
    0, then the solved ``(volume, surface)`` pairs in probe order; a volume
    that repeats keeps its earliest surface, and the earlier node wins a
    distance tie.  The terms are summed nearest first."""
    nodes: dict[float, np.ndarray | None] = {0.0: None}
    for volume, hf in surfaces:
        nodes.setdefault(volume, hf.heights)
    # sorted is stable and the dict keeps insertion order
    near = sorted(nodes, key=lambda u: abs(u - v))[:3]
    start = np.zeros(mask.inside.shape)
    for a in near:
        if nodes[a] is not None:  # the zero surface adds nothing
            start += math.prod((v - b) / (a - b) for b in near if b != a) * nodes[a]
    return HeightField(mask, np.maximum(start, 0.0, out=start))


@dataclass(frozen=True)
class VolumeLoopReport:
    outer_updates: int
    # one entry per probe, in order
    volume_history: tuple[float, ...]
    sampled_history: tuple[float, ...]
    target: float
    # the chosen probe's own solve
    solve: SolveReport
    # iterations_run of every probe's solve
    solve_sweeps: tuple[int, ...]


def estimate_shape(image: RasterGray, mask: DropMask, config: OpticalConfig,
                   solver_params: SolverParams | None = None,
                   loop_params: VolumeLoopParams | None = None,
                   ) -> tuple[HeightField, float, VolumeLoopReport]:
    """Reconstruct one drop, estimating its volume from the dark band.

    Returns (surface, alpha_est, report): the surface and solve report of
    the probe whose sampled brightness came closest to the target (the
    earliest on a tie); the surface carries exactly that probe's volume.  A
    drop of known volume coefficient needs no loop: solve it directly with
    ``solve_fixed_volume`` at ``initial_volume(mask, alpha)``.

    The loop stops when a volume update moves less than ``_REL_VOLUME_TOL``
    of the volume, or after ``max_outer_updates`` probes.
    """
    sp = solver_params or SolverParams()
    lp = loop_params or VolumeLoopParams()
    b = mask.area
    if b == 0:
        raise DomainError("cannot reconstruct on an empty mask")
    scale = b**1.5
    target = target_brightness(image, [mask])
    # (volume, sampled brightness, solved surface, solve report, ring failure)
    probes: list[tuple[float, float, HeightField, SolveReport, RingTooSmall | None]] = []
    v = lp.alpha_init * scale
    for _ in range(lp.max_outer_updates):
        if probes:
            init = _predicted_start(mask, v, [(p[0], p[2]) for p in probes])
        else:
            init = init_mesh(mask, lp.alpha_init)
        hf, rep = solve_fixed_volume(mask, v, sp, config, init=init)
        try:
            sampled, no_ring = sample_band_brightness(image, hf, config), None
        except RingTooSmall as e:
            # an empty ring means the estimated surface is too flat to reach
            # the critical slope anywhere; treat it as a fully dark sample so
            # the volume grows back into the observable range
            sampled, no_ring = 0.0, e
        probes.append((v, sampled, hf, rep, no_ring))
        v_new = volume_update(v, sampled, target, ALPHA_MIN * scale, ALPHA_MAX * scale)
        if abs(v_new - v) / v < _REL_VOLUME_TOL:
            break
        v = v_new

    v, _, hf, rep, no_ring = min(probes, key=lambda p: abs(p[1] - target))
    # surface must expose a ring at the end; otherwise the estimate is moot
    if no_ring is not None:
        raise no_ring
    volumes, samples, _, reports, _ = zip(*probes)
    return hf, v / scale, VolumeLoopReport(len(probes), volumes, samples, target, rep,
                                           tuple(r.iterations_run for r in reports))
