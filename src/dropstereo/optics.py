"""Refraction, total internal reflection, Fresnel transmittance, and the
dark-band geometry of a reconstructed drop.

Light reaching the camera crosses two interfaces: the curved water-air
surface of the drop and the flat plate.  The flat interface is folded into an
equivalent camera position on the optical axis, so a single refraction event
per ray remains.  Angles named ``theta_a`` are measured on the air side of an
interface, ``theta_w`` on the water side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import N_AIR, HeightField, OpticalConfig, plate_coords
from .errors import DomainError


@dataclass(frozen=True)
class FresnelResult:
    """Transmittance fractions for the two polarizations and their mean."""

    T_s: float
    T_p: float
    T: float


def refract_arrays(directions: np.ndarray, normals: np.ndarray,
                   eta_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Bend (..., 3) stacks of unit directions across an interface, scaling
    the tangential component by ``eta_ratio = n_from / n_to``: (out
    directions, TIR mask), the mask set where that component exceeds unit
    norm.  The transmitted ray keeps the incoming ray's sense whatever the
    sign of the normal."""
    cos_i = np.sum(directions * normals, axis=-1, keepdims=True)
    tang = directions - cos_i * normals
    t_out = eta_ratio * tang
    t2 = np.sum(t_out * t_out, axis=-1, keepdims=True)
    tir = t2[..., 0] > 1.0
    sign = np.where(cos_i >= 0.0, 1.0, -1.0)
    out = t_out + sign * np.sqrt(np.clip(1.0 - t2, 0.0, None)) * normals
    n = np.linalg.norm(out, axis=-1, keepdims=True)
    out = out / np.where(n > 0, n, 1.0)
    return out, tir


def fresnel_transmittance(theta_a: float, n_a: float, n_w: float) -> FresnelResult:
    """Unpolarized Fresnel transmittance of the air-water interface at the
    air-side incidence angle ``theta_a``."""
    t = fresnel_transmittance_arrays(np.asarray(theta_a, dtype=float), n_a, n_w)
    return FresnelResult(float(t[0]), float(t[1]), float(t[2]))


def fresnel_transmittance_arrays(theta_a: np.ndarray, n_a: float,
                                 n_w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T_s, T_p, T) for an array of air-side incidence angles."""
    _check_indices(n_a, n_w)
    ta = np.asarray(theta_a, dtype=float)
    if np.any(ta < 0.0) or np.any(ta >= math.pi / 2):
        raise DomainError("theta_a must lie in [0, pi/2)")
    tw = np.arcsin(np.clip((n_a / n_w) * np.sin(ta), -1.0, 1.0))
    small = ta < 1e-9
    # near normal incidence the ratios below are 0/0; those entries take the
    # closed-form limit after the block
    with np.errstate(divide="ignore", invalid="ignore"):
        t_s = 1.0 - (np.sin(tw - ta) / np.sin(tw + ta)) ** 2
        tan_sum = np.tan(tw + ta)
        ratio_p = np.where(np.isfinite(tan_sum) & (np.abs(tan_sum) > 0),
                           np.tan(tw - ta) / tan_sum, 0.0)
        t_p = 1.0 - ratio_p**2
    # normal incidence: both polarizations share the closed-form limit
    t0 = 4.0 * n_a * n_w / (n_w + n_a) ** 2
    t_s = np.where(small, t0, t_s)
    t_p = np.where(small, t0, t_p)
    t_s = np.clip(t_s, 0.0, 1.0)
    t_p = np.clip(t_p, 0.0, 1.0)
    return t_s, t_p, 0.5 * (t_s + t_p)


def _check_indices(n_a: float, n_w: float) -> None:
    """Air-to-water convention: both indices finite and positive, n_w > n_a."""
    if not 0.0 < n_a < n_w < math.inf:
        raise DomainError(f"indices n_a and n_w must be finite and positive with "
                          f"n_w > n_a, got n_a={n_a!r}, n_w={n_w!r}")


def band_transmittance_linear(n_z: float, n_crit: float) -> float:
    """Linearized band transmittance 7.68 * (N_z - N_crit), clamped to [0, 1].

    Pixels below the critical value are inside the dark band and return 0.
    The 7.68 slope is the source model's given constant, kept as-is.
    """
    if n_z < n_crit:
        return 0.0
    return float(np.clip(7.68 * (n_z - n_crit), 0.0, 1.0))


def critical_normal_z(theta_cprime: float, n_a: float, n_w: float) -> float:
    """Normal-z threshold below which a pixel totally reflects, for a ray
    tilted ``theta_cprime`` from the optical axis."""
    if not 0.0 <= theta_cprime < math.pi / 2:
        raise DomainError("theta_cprime must lie in [0, pi/2)")
    _check_indices(n_a, n_w)
    return float(_critical_normal_z(theta_cprime, n_a, n_w))


def _critical_normal_z(theta_cprime: np.ndarray, n_a: float, n_w: float) -> np.ndarray:
    """cos(asin(n_a / n_w) + theta_cprime), or 0 where that angle reaches pi/2."""
    arg = math.asin(n_a / n_w) + theta_cprime
    return np.where(arg < math.pi / 2, np.cos(arg), 0.0)


def equivalent_camera_depth(rho2: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """Vectorized equivalent-camera distance for squared plate radii."""
    z_c = config.camera_z
    k = (config.n_water**2 - N_AIR**2) / config.n_water**2
    return config.eta * z_c * np.sqrt(1.0 + k * np.asarray(rho2, dtype=float) / z_c**2)


def incidence_directions(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Unit in-water ray directions from the equivalent camera to every
    surface point of the drop's box, box-sized (h, w, 3); the camera sits at
    z = -C'_z below the plate so directions point toward the scene
    (positive z)."""
    x, y = plate_coords(hf.mask.box, config)
    cz = equivalent_camera_depth(x * x + y * y, config)
    d = np.stack([x, y, hf.heights + cz], axis=-1)
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def theta_cprime_field(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Per-pixel angle between the incident in-water ray and the z axis, on
    the drop's box."""
    d = incidence_directions(hf, config)
    return np.arccos(np.clip(d[..., 2], -1.0, 1.0))


def critical_normal_z_field(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Per-pixel critical normal-z threshold from the equivalent camera, on
    the drop's box."""
    return _critical_normal_z(theta_cprime_field(hf, config), N_AIR, config.n_water)


def dark_band_mask(hf: HeightField, config: OpticalConfig) -> np.ndarray:
    """Pixels of the drop's box predicted totally dark: N_z at or below the
    per-pixel critical value.  A band may be empty or fragmented, so the
    single-component region invariant does not apply to it."""
    return hf.mask.inside & (normal_z_field(hf) <= critical_normal_z_field(hf, config))


def normal_z_field(hf: HeightField) -> np.ndarray:
    """N_z per pixel of the drop's box, zero off the mask: the z component
    of ``normal_field``, 1 / sqrt(1 + gx² + gy²), without the other two."""
    gx, gy = hf.mask.stencil.gradient(hf.heights)
    return np.where(hf.mask.inside, 1.0 / np.sqrt(1.0 + gx * gx + gy * gy), 0.0)
