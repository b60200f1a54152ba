import math

import numpy as np
import pytest

from dropstereo import (DomainError, HeightField, OpticalConfig, SolverParams,
                        band_transmittance_linear, critical_normal_z, dark_band_mask,
                        disk_mask, fresnel_transmittance, initial_volume, solve_fixed_volume)
from dropstereo.optics import equivalent_camera_depth, refract_arrays

N_A, N_W = 1.0, 4.0 / 3.0


# --- refract ------------------------------------------------------------------


def _refract(d, n, eta):
    """refract_arrays on one direction: (out direction, TIR flag)."""
    out, tir = refract_arrays(np.asarray(d, dtype=float), np.asarray(n, dtype=float), eta)
    return out, bool(tir)


def test_refract_normal_incidence_unchanged():
    out, tir = _refract((0, 0, 1), (0, 0, -1), 0.75)
    assert not tir
    assert out == pytest.approx((0, 0, 1), abs=1e-12)


def test_refract_grazing_at_exact_critical():
    theta_w = math.asin(N_A / N_W)
    d = (math.sin(theta_w), 0.0, math.cos(theta_w))
    out, tir = _refract(d, (0, 0, 1), N_W / N_A)
    assert not tir
    assert abs(out[2]) <= 1e-6  # grazing exit
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


def test_refract_total_reflection_beyond_critical():
    theta_w = math.radians(60.0)  # > 48.59 deg
    d = (math.sin(theta_w), 0.0, math.cos(theta_w))
    assert _refract(d, (0, 0, 1), N_W / N_A)[1]


def test_refract_round_trip_many_directions():
    rng = np.random.default_rng(4)
    eta = N_W / N_A
    v = rng.normal(size=(200, 3))
    v[:, 2] = np.abs(v[:, 2]) + 0.1
    d = v / np.linalg.norm(v, axis=1, keepdims=True)
    n = np.broadcast_to([0.0, 0.0, 1.0], d.shape)
    out, tir = refract_arrays(d, n, eta)
    assert tir.any() and not tir.all()
    back, back_tir = refract_arrays(out[~tir], n[~tir], 1.0 / eta)
    assert not back_tir.any()
    assert np.abs(back - d[~tir]).max() <= 1e-9


# --- Fresnel ------------------------------------------------------------------


def test_fresnel_normal_incidence_limit():
    r = fresnel_transmittance(0.0, N_A, N_W)
    assert r.T == pytest.approx(4 * N_A * N_W / (N_A + N_W) ** 2, abs=1e-12)
    assert abs(r.T - 0.980) <= 1e-3
    assert r.T == pytest.approx(0.5 * (r.T_s + r.T_p))


def test_fresnel_brewster_fully_transmits_p():
    brewster = math.atan(N_W / N_A)
    r = fresnel_transmittance(brewster, N_A, N_W)
    assert r.T_p == pytest.approx(1.0, abs=1e-9)
    assert r.T_s < 1.0


def test_fresnel_bounds_and_continuity():
    thetas = np.linspace(0.0, math.pi / 2 - 1e-6, 2000)
    ts = np.array([fresnel_transmittance(t, N_A, N_W).T for t in thetas])
    assert (ts >= 0).all() and (ts <= 1).all()
    assert np.abs(np.diff(ts)).max() < 5e-3  # no jumps on a fine grid


def test_fresnel_rejects_out_of_range():
    with pytest.raises(DomainError):
        fresnel_transmittance(math.pi / 2, N_A, N_W)


def test_fresnel_grazing_vs_paper_linearization():
    # the source model's grazing form T ~= 2.76*(pi/2 - theta); its stated
    # coefficient substitutes n_a/n_w = 3/4 into 2*sqrt(1-(na/nw)^2)*(na/nw+nw/na)
    coeff = 2 * math.sqrt(1 - (N_A / N_W) ** 2) * (N_A / N_W + N_W / N_A)
    assert coeff == pytest.approx(2.76, abs=5e-3)


# --- band transmittance ---------------------------------------------------------


def test_band_linear_zero_at_critical():
    assert band_transmittance_linear(0.661, 0.661) == 0.0


def test_band_linear_at_one_halfwidth():
    val = band_transmittance_linear(0.661 + 0.02 * math.pi, 0.661)
    assert val == pytest.approx(7.68 * 0.02 * math.pi, rel=1e-12)
    assert val == pytest.approx(0.4825, abs=1e-3)
    # the ring-average constant the volume loop targets
    assert 3.84 * 0.02 * math.pi == pytest.approx(0.241, abs=1e-3)


def test_band_linear_clamps_and_zeroes():
    assert band_transmittance_linear(1.0, 0.661) == 1.0
    assert band_transmittance_linear(0.5, 0.661) == 0.0


# --- critical normal ------------------------------------------------------------


def test_critical_normal_axial_value():
    assert critical_normal_z(0.0, N_A, N_W) == pytest.approx(0.661, abs=1e-3)


def test_critical_normal_equal_indices_vanishes():
    assert critical_normal_z(0.0, 1.0, 1.0 + 1e-15) == pytest.approx(0.0, abs=1e-6)


def test_critical_normal_tilted_ray():
    expected = math.cos(math.asin(0.75) + math.radians(10.0))
    got = critical_normal_z(math.radians(10.0), N_A, N_W)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.522, abs=2e-3)


def test_critical_normal_strictly_decreasing():
    vals = [critical_normal_z(t, N_A, N_W) for t in np.linspace(0, 0.7, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_critical_normal_saturates_to_zero():
    assert critical_normal_z(1.2, N_A, N_W) == 0.0


# --- equivalent camera -----------------------------------------------------------


def _camera_depth(rho2, z_c):
    return float(equivalent_camera_depth(rho2, OpticalConfig(n_water=N_W, camera_z=z_c)))


def test_equivalent_camera_paraxial():
    # the small-angle limit (n_w / n_a) * z_c, approached quadratically in rho
    for rho in (1e-3, 1e-2, 1.0):
        c = _camera_depth(rho * rho, 300.0)
        assert c - 400.0 == pytest.approx(400.0 * (7.0 / 32.0) * rho**2 / 300.0**2, rel=1e-3)


def test_equivalent_camera_exact_on_axis_matches_paraxial():
    assert _camera_depth(0.0, 300.0) == pytest.approx(400.0, rel=1e-12)


def test_equivalent_camera_exact_exceeds_paraxial_off_axis():
    assert _camera_depth(40.0**2 + 25.0**2, 300.0) > 400.0


def test_equivalent_camera_closed_form_value():
    # x = y = z_c/10: the radial factor is sqrt(1 + (7/16)*0.02)
    zc = 300.0
    c = _camera_depth(2 * (zc / 10) ** 2, zc)
    expected = (N_W / N_A) * zc * math.sqrt(1 + (7.0 / 16.0) * 0.02)
    assert c == pytest.approx(expected, rel=1e-12)
    assert c == pytest.approx(401.75, abs=0.01)


def test_equivalent_camera_rejects_nonpositive_height():
    # the camera height reaches equivalent_camera_depth through the config
    for z_c in (0.0, -1.0):
        with pytest.raises(DomainError):
            OpticalConfig(camera_z=z_c)
    assert np.isinf(equivalent_camera_depth(np.zeros(2), OpticalConfig(camera_z=math.inf))).all()


# --- dark band --------------------------------------------------------------------


def test_dark_band_empty_for_flat_field(config):
    m = disk_mask(20)
    hf = HeightField(m, np.zeros(m.membership.shape))
    assert dark_band_mask(hf, config).sum() == 0


def test_dark_band_annulus_matches_cap_slope_threshold(cap50):
    # camera at infinity: the band starts where the cap normal passes the
    # critical angle, at radius 0.75 * R_sphere of the matching cap
    from conftest import cap_height

    mask, hf, _ = cap50
    cfg = OpticalConfig(camera_z=math.inf)
    band = dark_band_mask(hf, cfg)
    assert band.any()
    rb = math.sqrt(mask.area / math.pi)
    h = cap_height(rb, initial_volume(mask, 0.30))
    r_sphere = (rb * rb + h * h) / (2 * h)
    ii, jj = np.nonzero(band)
    c = (mask.height - 1) / 2.0
    inner = np.sqrt(((ii - c) ** 2 + (jj - c) ** 2)).min()
    assert abs(inner - 0.75 * r_sphere) <= 1.0


def test_dark_band_grows_with_volume(config):
    m = disk_mask(40)
    counts = []
    for alpha in (0.10, 0.35):
        hf, _ = solve_fixed_volume(m, initial_volume(m, alpha),
                                   SolverParams(max_iters=2500), config)
        counts.append(int(dark_band_mask(hf, config).sum()))
    assert counts[1] > counts[0]
