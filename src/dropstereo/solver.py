"""Fixed-volume minimum-energy surface solver.

A drop surface minimizes tension energy plus gravitational potential energy
at constant volume.  Each sweep runs three updates in order: a curvature-flow
tension step with the contact line (the mask boundary ring) pinned to zero, a
planar gravity tilt about the height-weighted centroid, and a uniform shift
restoring the target volume exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DropMask, HeightField, MaskStencil, OpticalConfig, _centroid
from .errors import DomainError, SolverDiverged


@dataclass(frozen=True)
class SolverParams:
    tau: float = 0.5
    max_iters: int = 4000
    convergence_rel: float = 1e-6

    def __post_init__(self):
        if self.tau <= 0.0:
            raise DomainError("tau must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if self.convergence_rel <= 0.0:
            raise DomainError("convergence_rel must be positive")


@dataclass(frozen=True)
class SolveReport:
    iterations_run: int
    tension_energy: float
    gravity_energy: float
    final_energy: float
    last_delta: float
    converged: bool
    energy_history: tuple[tuple[int, float], ...] = ()


def initial_volume(mask: DropMask, alpha: float) -> float:
    """Scale-invariant volume guess alpha * B^(3/2)."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    b = mask.area
    if b == 0:
        raise DomainError("cannot size a drop on an empty mask")
    return alpha * b**1.5


def init_mesh(mask: DropMask, alpha: float) -> HeightField:
    """Constant-height cylinder z = alpha * B^(1/2); its volume is exactly
    alpha * B^(3/2)."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    b = mask.area
    if b == 0:
        raise DomainError("cannot initialize on an empty mask")
    return HeightField(mask, np.where(mask.membership, alpha * math.sqrt(b), 0.0))


def volume_of(hf: HeightField) -> float:
    """Sum of heights over the mask (unit pixel area)."""
    return float(hf.z.sum())


def energy_of(hf: HeightField, config: OpticalConfig) -> tuple[float, float, float]:
    """(E_T, E_G, E): tension energy, gravitational potential energy, total.

    E_T sums the area elements sqrt(1 + |grad z|^2); E_G integrates the
    gravity potential through each column, which closes to
    z*(x cos_x + y cos_y) + z^2/2 * cos_z per pixel.  Pixel coordinates are
    taken relative to the principal point.
    """
    st = MaskStencil(hf.mask.membership)
    gx = st.diff_x(hf.z)
    gy = st.diff_y(hf.z)
    m = hf.mask.membership
    e_t = config.tension_weight * float(np.sqrt(1.0 + gx * gx + gy * gy)[m].sum())

    cx, cy = config.resolve_principal_point(m.shape)
    ii, jj = np.nonzero(m)
    z = hf.z[ii, jj]
    gcx, gcy, gcz = config.gravity_cosines
    col = z * ((jj - cx) * gcx + (ii - cy) * gcy) + 0.5 * z * z * gcz
    e_g = config.gravity_weight * float(col.sum())
    return e_t, e_g, e_t + e_g


def _checked(z: np.ndarray) -> np.ndarray:
    if not np.isfinite(z).all():
        raise SolverDiverged("surface update produced non-finite heights; reduce tau")
    return np.maximum(z, 0.0)


def tension_step(z: np.ndarray, stencil: MaskStencil, ring: np.ndarray | None,
                 params: SolverParams, config: OpticalConfig) -> np.ndarray:
    """One explicit curvature-flow step descending the tension energy.

    ``z`` holds heights on the stencil's mask grid.  ``ring``, the mask
    boundary from ``DropMask.boundary()``, is held at zero (the fixed contact
    line) and only the pixels inside it move; with ``ring=None`` (free
    boundary) every mask pixel moves and a minimal surface stays unchanged.
    Heights outside the mask stay put.
    """
    if ring is None:
        movable = stencil.mask
    else:
        movable = stencil.mask & ~ring
        z = np.where(ring, 0.0, z)
    gx = stencil.diff_x(z)
    gy = stencil.diff_y(z)
    denom = np.sqrt(1.0 + gx * gx + gy * gy)
    flow = stencil.diff_x(gx / denom) + stencil.diff_y(gy / denom)
    return _checked(np.where(movable, z + params.tau * config.tension_weight * flow, z))


def gravity_step(z: np.ndarray, mask: np.ndarray, params: SolverParams,
                 config: OpticalConfig) -> np.ndarray:
    """Planar tilt of the heights on ``mask`` about their height-weighted
    centroid, driven by the in-plane gravity components; gravity along +z
    leaves the heights unchanged."""
    gcx, gcy, _ = config.gravity_cosines
    if gcx == 0.0 and gcy == 0.0:
        return z
    x_g, y_g = _centroid(z, mask)
    ii, jj = np.nonzero(mask)
    delta = params.tau * config.gravity_weight * ((y_g - ii) * gcy + (x_g - jj) * gcx)
    z = np.array(z)
    z[ii, jj] -= delta
    return _checked(z)


def volume_step(z: np.ndarray, mask: np.ndarray, target_volume: float) -> np.ndarray:
    """Uniform shift of the heights on ``mask`` restoring the target volume
    exactly.

    Heights pushed negative are clamped to zero and the deficit redistributed
    once; a multiplicative rescale guards the rare case where that still
    leaves negatives.
    """
    b = np.count_nonzero(mask)
    if b == 0:
        raise DomainError("cannot adjust volume on an empty mask")
    z = np.array(z)
    z[mask] += (target_volume - z[mask].sum()) / b
    if z[mask].min() < 0.0:
        z[mask] = np.maximum(z[mask], 0.0)
        z[mask] += (target_volume - z[mask].sum()) / b
        if z[mask].min() < 0.0:
            z[mask] = np.maximum(z[mask], 0.0)
            total = z[mask].sum()
            if total > 0.0:
                z[mask] *= target_volume / total
    return _checked(z)


def solve_fixed_volume(mask: DropMask, target_volume: float, params: SolverParams,
                       config: OpticalConfig, init: HeightField | None = None,
                       energy_every: int = 50) -> tuple[HeightField, SolveReport]:
    """Iterate tension/gravity/volume sweeps until the per-sweep absolute
    height change drops below convergence_rel * V or max_iters is reached."""
    if target_volume <= 0.0:
        raise DomainError("target volume must be positive")
    if mask.area == 0:
        raise DomainError("cannot solve on an empty mask")

    # the sweeps only touch the mask; crop to its bounding box for speed
    i0, i1, j0, j1 = mask.bbox()
    i0, j0 = max(i0 - 1, 0), max(j0 - 1, 0)
    i1, j1 = min(i1 + 1, mask.height), min(j1 + 1, mask.width)
    sub_mask = DropMask(mask.membership[i0:i1, j0:j1])
    if init is None:
        z = init_mesh(sub_mask, target_volume / mask.area**1.5).z
    else:
        z = HeightField(sub_mask, init.z[i0:i1, j0:j1]).z
    cx, cy = config.resolve_principal_point(mask.membership.shape)
    sub_config = replace(config, principal_point=(cx - j0, cy - i0))

    st = MaskStencil(sub_mask.membership)
    ring = sub_mask.boundary()
    threshold = params.convergence_rel * target_volume
    history: list[tuple[int, float]] = []
    converged = False
    delta = math.inf
    iterations = 0
    for t in range(params.max_iters):
        prev = z
        z = tension_step(z, st, ring, params, sub_config)
        z = gravity_step(z, st.mask, params, sub_config)
        z = volume_step(z, st.mask, target_volume)
        iterations = t + 1
        delta = float(np.abs(z - prev).sum())
        if energy_every and (t % energy_every == 0):
            history.append((iterations, energy_of(HeightField(sub_mask, z), sub_config)[2]))
        if delta < threshold:
            converged = True
            break

    e_t, e_g, e = energy_of(HeightField(sub_mask, z), sub_config)
    history.append((iterations, e))
    full = np.zeros(mask.membership.shape)
    full[i0:i1, j0:j1] = z
    report = SolveReport(iterations, e_t, e_g, e, delta, converged, tuple(history))
    return HeightField(mask, full), report
