import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dropstereo import (DomainError, EmptyOutput, HeightField, OpticalConfig, RasterGray,
                        SolverParams, dark_band_mask, dewarp_image, disk_mask,
                        initial_volume, render_synthetic, solve_fixed_volume)
from dropstereo.core import DropBox, normal_field, plate_coords
from dropstereo.optics import (critical_normal_z_field, equivalent_camera_depth,
                               fresnel_transmittance_arrays, normal_z_field, refract_arrays)
from dropstereo.raytrace import (_BLOCK_PIXELS, ScenePlane, SceneSpec, TraceField, _background,
                                 _transmittance_from_cos_w, trace_field, transmittance, uv_field)
from dropstereo.volume_loop import _BAND_HALFWIDTH, band_ring
from dropstereo.scenes import make_texture

from conftest import cap_field, edge_deviation, embed_scene


# --- independent two-interface oracle ----------------------------------------
#
# Trace the physical ray camera -> flat plate -> water -> curved surface ->
# scene without the equivalent-camera shortcut: bisection finds the plate
# crossing whose in-water ray passes through the surface point, and the
# curved refraction uses the standard vector form of Snell's law.


def _snell_vector(d, n, eta):
    """Textbook refraction: eta = n_from/n_to, d and n unit, d.n < 0."""
    cos_i = -np.dot(d, n)
    sin2_t = eta * eta * (1.0 - cos_i * cos_i)
    if sin2_t > 1.0:
        return None
    return eta * d + (eta * cos_i - math.sqrt(1.0 - sin2_t)) * n


def two_interface_trace(point, z_c, n_a, n_w):
    """Exact outbound direction for the surface point (x, y, z, with normal
    packed alongside) seen from the camera at (0, 0, -z_c)."""
    x, y, z, nx, ny, nz = point
    rho_p = math.hypot(x, y)
    if rho_p < 1e-12:
        d_w = np.array([0.0, 0.0, 1.0])
    else:
        ux, uy = x / rho_p, y / rho_p

        def miss(q):
            # in-water ray from plate radius q; where is it at height z?
            d_air = np.array([q * ux, q * uy, z_c])
            d_air /= np.linalg.norm(d_air)
            d_wat = _snell_vector(d_air, np.array([0.0, 0.0, -1.0]), n_a / n_w)
            t = z / d_wat[2]
            return (q + t * math.hypot(d_wat[0], d_wat[1])) - rho_p

        lo, hi = 0.0, rho_p
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if miss(mid) > 0:
                hi = mid
            else:
                lo = mid
        q = 0.5 * (lo + hi)
        d_air = np.array([q * ux, q * uy, z_c])
        d_air /= np.linalg.norm(d_air)
        d_w = _snell_vector(d_air, np.array([0.0, 0.0, -1.0]), n_a / n_w)
    # curved interface: water -> air across the outward normal
    n = np.array([nx, ny, nz])
    out = _snell_vector(d_w, -n, n_w / n_a)
    return None if out is None else out / np.linalg.norm(out)


def _cap_field(radius, r_sphere, shape=None, center=None):
    mask = disk_mask(radius, shape, center)
    ci = cj = (mask.height - 1) / 2.0 if center is None else None
    if center is not None:
        ci, cj = center
    ii, jj = np.mgrid[0 : mask.height, 0 : mask.width]
    r2 = (ii - ci) ** 2 + (jj - cj) ** 2
    h = math.sqrt(r_sphere**2 - radius**2)
    z = np.where(mask.membership, np.sqrt(np.maximum(r_sphere**2 - r2, 0.0)) - h, 0.0)
    return mask, HeightField(mask, np.maximum(z, 0.0))


def _traced_pixel(tf, i, j):
    """The trace's (valid, tir, direction) at raster pixel (i, j)."""
    bi, bj = i - tf.box.i0, j - tf.box.j0
    return bool(tf.valid[bi, bj]), bool(tf.tir[bi, bj]), tf.directions[bi, bj]


def test_trace_matches_two_interface_oracle_far_camera():
    # a far camera keeps the equivalent-camera model within the oracle's
    # tolerance; the oracle independently exercises both refractions
    radius, r_sphere = 40, 80.0
    mask, hf = _cap_field(radius, r_sphere)
    cfg = OpticalConfig(camera_z=3000.0)
    c = (mask.height - 1) / 2.0
    tf = trace_field(hf, cfg)
    nf = mask.box.paste(normal_field(hf))
    worst = 0.0
    for (di, dj) in [(0, 20), (14, -14), (-20, 0), (10, 17), (-8, -12)]:
        i, j = int(c) + di, int(c) + dj
        valid, _, direction = _traced_pixel(tf, i, j)
        assert valid
        n = nf[i, j]
        oracle = two_interface_trace(
            (j - c, i - c, hf.z[i, j], n[0], n[1], n[2]), 3000.0, 1.0, cfg.n_water)
        worst = max(worst, float(np.abs(direction - oracle).max()))
    assert worst <= 1e-6


def test_trace_consistent_with_oracle_near_camera():
    # at close range the on-axis equivalent-camera model is an approximation;
    # agreement stays at the milliradian level
    radius, r_sphere = 40, 80.0
    mask, hf = _cap_field(radius, r_sphere)
    cfg = OpticalConfig(camera_z=300.0)
    c = (mask.height - 1) / 2.0
    i, j = int(c) + 7, int(c) + 17
    valid, _, direction = _traced_pixel(trace_field(hf, cfg), i, j)
    assert valid
    n = mask.box.paste(normal_field(hf))[i, j]
    oracle = two_interface_trace((j - c, i - c, hf.z[i, j], n[0], n[1], n[2]), 300.0,
                                 1.0, cfg.n_water)
    assert np.abs(direction - oracle).max() <= 1e-3


def test_trace_flat_region_goes_straight_up():
    m = disk_mask(10)
    hf = HeightField(m, np.zeros(m.membership.shape))
    cfg = OpticalConfig(camera_z=1e9)
    tf = trace_field(hf, cfg)
    c = (m.height - 1) // 2
    valid, tir, direction = _traced_pixel(tf, c, c)
    assert valid and not tir
    assert direction == pytest.approx((0, 0, 1), abs=1e-12)
    u, v, _ = uv_field(tf)
    assert (u[c - tf.box.i0, c - tf.box.j0], v[c - tf.box.i0, c - tf.box.j0]) == \
        pytest.approx((0.0, 0.0), abs=1e-12)


def test_trace_dark_band_pixel_totally_reflects(cap50, config):
    mask, hf, _ = cap50
    band = mask.box.paste(dark_band_mask(hf, config))
    ii, jj = np.nonzero(band)
    tf = trace_field(hf, config)
    valid, tir, _ = _traced_pixel(tf, ii[0], jj[0])
    assert tir and not valid


def test_trace_outside_mask_rejected(config):
    # off-mask pixels of the box carry no ray: neither transmitted nor dark
    m = disk_mask(5)
    hf = HeightField(m, np.zeros(m.membership.shape))
    tf = trace_field(hf, config)
    off = ~tf.box.crop(m.membership)
    assert off.any()
    assert not (tf.valid | tf.tir)[off].any()
    assert tf.valid[~off].all()


def test_trace_is_continuous_under_subpixel_perturbation(cap50, config):
    # adjacent pixels away from the band differ by O(curvature), no jumps
    mask, hf, _ = cap50
    tf = trace_field(hf, config)
    c = int((mask.height - 1) / 2)
    inner = tf.box.paste(tf.directions)[c, c - 20 : c + 20]
    steps = np.linalg.norm(np.diff(inner, axis=0), axis=1)
    assert steps.max() < 0.05


# --- the boxed trace against a full-raster reference ------------------------------
#
# The trace and the band fields run on the drop's box.  The reference below
# is the full-raster version of the same per-pixel formulas: every pixel of
# the grid, plate coordinates taken from the whole raster.  Box results must
# equal it bit for bit on the box, and it must find no transmitted or dark
# pixel off the box.

_BOX_MASKS = {
    # name: (grid shape, disk center, radius); steep caps so a dark band exists
    "interior": ((64, 640), (30, 520), 20),
    "top": ((64, 96), (4, 48), 20),
    "bottom": ((64, 96), (59, 48), 20),
    "left": ((64, 96), (32, 3), 20),
    "right": ((64, 96), (32, 92), 20),
    "all_edges": ((30, 34), (15, 16), 20),
}
_BOX_CONFIGS = {
    "default": OpticalConfig(),
    "pp_333.3_121.7": OpticalConfig(principal_point=(333.3, 121.7)),
    "pp_0.1_299.9": OpticalConfig(principal_point=(0.1, 299.9)),
    # a box origin right of this principal point rounds (cx - j0) inexactly
    # for the "interior" mask, so shifting the principal point by the box
    # origin would not reproduce the raster's plate coordinates there
    "pp_0.333_12.34": OpticalConfig(principal_point=(0.333, 12.34)),
    # the orthographic limit: every ray of these grids leaves a camera this
    # far within 1e-6 rad of the optical axis
    "orthographic": OpticalConfig(camera_z=1e9),
}


def _box_case(mask_name):
    shape, center, radius = _BOX_MASKS[mask_name]
    return _cap_field(radius, radius + 2.0, shape, center)[1]


def _full_raster_trace(hf, config):
    mask = hf.mask.membership
    cx, cy = config.resolve_principal_point(mask.shape)
    ii, jj = np.mgrid[0 : mask.shape[0], 0 : mask.shape[1]]
    x, y = jj.astype(float) - cx, ii.astype(float) - cy
    d = np.stack([x, y, hf.z + equivalent_camera_depth(x * x + y * y, config)], axis=-1)
    r_i = d / np.linalg.norm(d, axis=-1, keepdims=True)
    theta_flat = np.arctan(np.hypot(x, y) / config.camera_z)
    gx, gy = (hf.mask.box.paste(g) for g in hf.mask.stencil.gradient(hf.heights))
    norm = np.sqrt(1.0 + gx * gx + gy * gy)
    normals = np.where(mask[..., None], np.stack([-gx / norm, -gy / norm, 1.0 / norm], axis=-1),
                       0.0)
    r_o, tir = refract_arrays(r_i, np.where(mask[..., None], normals, [0.0, 0.0, 1.0]),
                              config.eta)
    tir &= mask
    arg = math.asin(1.0 / config.n_water) + np.arccos(np.clip(r_i[..., 2], -1.0, 1.0))
    return {
        "origins": np.stack([x, y, hf.z], axis=-1),
        "directions": r_o,
        "valid": mask & ~tir & (r_o[..., 2] > 1e-9),
        "tir": tir,
        "cos_theta_w": np.clip(np.abs(np.sum(r_i * normals, axis=-1)), 0.0, 1.0),
        "theta_flat_air": theta_flat,
        "n_z": 1.0 / norm,
        "n_crit": np.where(arg < math.pi / 2, np.cos(arg), 0.0),
    }


@pytest.mark.parametrize("config_name", _BOX_CONFIGS)
@pytest.mark.parametrize("mask_name", _BOX_MASKS)
def test_boxed_trace_equals_full_raster_trace(mask_name, config_name):
    hf, config = _box_case(mask_name), _BOX_CONFIGS[config_name]
    tf = trace_field(hf, config)
    ref = _full_raster_trace(hf, config)
    box = tf.box
    i0, i1, j0, j1 = hf.mask.bbox()
    assert (box.i0, box.i1, box.j0, box.j1) == (max(i0 - 1, 0), min(i1 + 1, hf.mask.height),
                                                max(j0 - 1, 0), min(j1 + 1, hf.mask.width))
    for name in ("origins", "directions", "valid", "tir", "cos_theta_w", "theta_flat_air"):
        got = getattr(tf, name)
        want = box.crop(ref[name])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    off_box = ~box.paste(np.ones(tf.valid.shape, dtype=bool))
    assert not (ref["valid"] | ref["tir"])[off_box].any()
    assert tf.valid.any() and tf.tir.any()


@pytest.mark.parametrize("config_name", _BOX_CONFIGS)
@pytest.mark.parametrize("mask_name", _BOX_MASKS)
def test_band_fields_equal_full_raster_reference(mask_name, config_name):
    hf, config = _box_case(mask_name), _BOX_CONFIGS[config_name]
    ref = _full_raster_trace(hf, config)
    mask, box = hf.mask.membership, hf.mask.box
    n_z = np.where(mask, ref["n_z"], 0.0)
    assert box.paste(normal_z_field(hf)).tobytes() == n_z.tobytes()
    assert (box.paste(critical_normal_z_field(hf, config))[mask].tobytes()
            == ref["n_crit"][mask].tobytes())
    dark = box.paste(dark_band_mask(hf, config))
    assert np.array_equal(dark, mask & (ref["n_z"] <= ref["n_crit"]))
    ring = box.paste(band_ring(hf, config))
    assert np.array_equal(ring, mask & (np.abs(n_z - ref["n_crit"]) <= _BAND_HALFWIDTH))
    assert dark.any() and ring.any()


def test_per_drop_fields_answer_on_the_mask_box(config):
    # one frame per drop: the box is computed once per mask, and every
    # per-drop field is box-sized however large the raster
    m = disk_mask(8, shape=(300, 400), center=(40.0, 350.0))
    assert m.box is m.box
    hf = HeightField(m, cap_field(m, initial_volume(m, 0.3)))
    frame = (m.box.i1 - m.box.i0, m.box.j1 - m.box.j0)
    assert frame == (19, 19)
    for field in (m.boundary(), normal_z_field(hf), critical_normal_z_field(hf, config),
                  dark_band_mask(hf, config), band_ring(hf, config), trace_field(hf, config).valid):
        assert field.shape == frame
    assert normal_field(hf).shape == frame + (3,)


def test_transmittance_is_the_two_interface_product(config):
    hf = _box_case("interior")
    tf = trace_field(hf, config)
    t_curved = _transmittance_from_cos_w(tf.cos_theta_w, config)
    t_flat = fresnel_transmittance_arrays(tf.theta_flat_air, 1.0, config.n_water)[2]
    radiance = np.linspace(0.0, 1.0, tf.valid.size).reshape(tf.valid.shape)
    assert transmittance(tf, config).tobytes() == (t_curved * t_flat).tobytes()
    lit = transmittance(tf, config, radiance)
    assert lit.tobytes() == (radiance * t_curved * t_flat).tobytes()


# --- angular projection -------------------------------------------------------


def _row_trace(directions, valid=None):
    """A hand-built one-row trace with the given directions."""
    d = np.array(directions, dtype=float).reshape(1, -1, 3)
    n = d.shape[1]
    ok = np.ones((1, n), dtype=bool) if valid is None else np.array([valid])
    zeros = np.zeros((1, n))
    return TraceField(np.zeros_like(d), d, ok, ~ok, zeros, zeros, DropBox(0, 1, 0, n, (1, n)))


def _uv(directions, valid=None):
    """uv_field of a hand-built one-row trace with the given directions."""
    u, v, valid_out = uv_field(_row_trace(directions, valid))
    return u[0], v[0], valid_out[0]


def test_dewarp_names_a_drop_with_no_transmitted_pixels():
    lit = _row_trace([(0, 0, 1)] * 3)
    dark = _row_trace([(0, 0, 1)] * 3, [False] * 3)
    with pytest.raises(EmptyOutput, match="drop 1 has no valid transmitted pixels"):
        dewarp_image(RasterGray(np.zeros((1, 3))), [lit, dark], 8, 0.0)


def test_angular_project_axis():
    u, v, _ = _uv([(0, 0, 1)])
    assert (u[0], v[0]) == (0.0, 0.0)


def test_angular_project_diagonal():
    u, v, _ = _uv([np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)])
    assert (u[0], v[0]) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_angular_project_division():
    u, v, _ = _uv([np.array([0.2, -0.1, 0.5]) / np.sqrt(0.3)])
    assert (u[0], v[0]) == pytest.approx((0.4, -0.2), abs=1e-12)


def test_angular_project_behind_camera_rejected(cap50, config):
    # the trace marks rays that do not proceed toward the scene invalid, and
    # uv_field gives invalid pixels (0, 0), also where z is 0 or negative
    tf = trace_field(cap50[1], config)
    assert (tf.directions[tf.valid][:, 2] > 0.0).all()
    u, v, valid = _uv([(0.6, 0, 0.8), (0, 0, -1), (1, 0, 0)], [True, False, False])
    assert u == pytest.approx([0.75, 0.0, 0.0], abs=1e-12) and not v.any()
    assert valid.tolist() == [True, False, False]


# --- dewarp --------------------------------------------------------------------


def test_dewarp_straightens_edge(single_drop_render, config):
    # a vertical brightness edge through the drop: the warped trace bends it;
    # the angular dewarp must reduce the bend at least five-fold
    scene, mask, hf, _ = single_drop_render
    tex = np.zeros((64, 64))
    tex[:, 32:] = 1.0
    edge_scene = SceneSpec(width=scene.width, height=scene.height,
                           planes=(ScenePlane(depth=2000.0, texture=tex, scale=40.0),),
                           blur_radius=scene.blur_radius)
    img = render_synthetic(edge_scene, [(mask, hf)], config)

    i0, i1, j0, j1 = mask.bbox()
    warped_dev = edge_deviation(img.pixels[i0:i1, j0:j1],
                                mask.membership[i0:i1, j0:j1] & (hf.z[i0:i1, j0:j1] > 1.0))
    tf = trace_field(hf, config)
    dw = dewarp_image(img, [tf], 128, 0.0)[0]
    dewarp_dev = edge_deviation(dw.raster.pixels, dw.valid)
    assert np.isfinite(warped_dev) and np.isfinite(dewarp_dev)
    assert dewarp_dev <= warped_dev / 5.0


def test_dewarp_flat_drop_map_is_affine(config):
    # no refraction: the angular map is a pure perspective scaling of the
    # plate coordinates
    m = disk_mask(30)
    hf = HeightField(m, np.zeros(m.membership.shape))
    u, v, valid = uv_field(trace_field(hf, config))
    ii, jj = np.nonzero(valid)
    c = (m.height - 1) / 2.0
    fit = np.polyfit(jj - c, u[ii, jj], 1)
    resid = np.abs(u[ii, jj] - np.polyval(fit, jj - c)).max()
    assert resid <= 1e-6
    assert fit[0] > 0


def test_dewarp_jacobian_sign_constant(cap50, config):
    # one-to-one angular map: du/dx keeps one sign over the transmitted area
    # (negative: the drop inverts its imagery like a ball lens)
    mask, hf, _ = cap50
    u, v, valid = uv_field(trace_field(hf, config))
    inner = valid & np.roll(valid, 1, axis=1) & np.roll(valid, -1, axis=1)
    du = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / 2.0
    assert (du[inner] < 0).all()


@pytest.mark.parametrize("turn", [0.0, 0.7, -math.pi / 2])
def test_dewarp_turned_grid_answers_unturned_uv(cap50, config, turn):
    # a turned grid cell maps back to the pixel of its nearest sample, and
    # uv_of answers that pixel's own unturned (u, v) to within a cell diagonal
    mask, hf, _ = cap50
    tf = trace_field(hf, config)
    img = RasterGray(np.zeros(mask.membership.shape))
    dw = dewarp_image(img, [tf], 64, turn)[0]
    assert dw.turn == turn
    u, v, _ = uv_field(tf)
    rows, cols = np.nonzero(dw.valid)
    assert rows.size > 1000
    src = dw.pixel_of(rows, cols) - (tf.box.i0, tf.box.j0)
    got = np.array([dw.uv_of(c, r) for r, c in zip(rows, cols)])
    err = np.hypot(got[:, 0] - u[src[:, 0], src[:, 1]], got[:, 1] - v[src[:, 0], src[:, 1]])
    assert np.median(err) <= 0.5 * math.hypot(dw.du, dw.dv)
    assert np.percentile(err, 99) <= 2.0 * math.hypot(dw.du, dw.dv)


@pytest.mark.parametrize("turn", [0.0, 0.7])
def test_dewarp_samples_lie_on_valid_cells(cap50, config, turn):
    # every sample splats weight onto the cell it rounds to, so it lies on a
    # valid cell; every sample, and so every pixel that pixel_of answers, is
    # a transmitted pixel of the trace
    mask, hf, _ = cap50
    tf = trace_field(hf, config)
    img = RasterGray(np.zeros(mask.membership.shape))
    dw = dewarp_image(img, [tf], 64, turn)[0]
    assert dw.valid.sum() > 1000 and not dw.valid.all()
    cell = np.rint(dw.sample_rc).astype(int)
    assert dw.valid[cell[:, 0], cell[:, 1]].all()
    offset = (tf.box.i0, tf.box.j0)
    src = dw.sample_ij - offset
    assert tf.valid[src[:, 0], src[:, 1]].all()
    rows, cols = np.nonzero(dw.valid)
    src = dw.pixel_of(rows, cols) - offset
    assert tf.valid[src[:, 0], src[:, 1]].all()


@pytest.mark.parametrize("turn", [0.0, 0.7, -math.pi / 2])
def test_dewarp_pixel_of_is_the_nearest_sample(two_drop_scene, config, turn):
    # pixel_of against a brute-force argmin over each view's samples, on
    # every fourth valid cell and on random positions over the grid
    _, (m1, hf1), (_, hf2), image = two_drop_scene
    traces = [trace_field(hf1, config), trace_field(hf2, config)]
    views = dewarp_image(image, traces, round(math.sqrt(m1.area)), turn)
    rng = np.random.default_rng(0)
    for view in views:
        r = view.valid.shape[0]
        pos = np.concatenate([np.argwhere(view.valid)[::4], rng.uniform(-1.0, r, (500, 2))])
        nearest = np.concatenate([
            ((chunk[:, None] - view.sample_rc) ** 2).sum(axis=-1).argmin(axis=1)
            for chunk in np.array_split(pos, len(pos) // 256 + 1)])
        assert len(pos) > 2000
        assert np.array_equal(view.pixel_of(pos[:, 0], pos[:, 1]), view.sample_ij[nearest])


def test_dewarp_empty_drop_rejected(config):
    m = disk_mask(12)
    # all-dark surrogate: a plane so steep every pixel totally reflects
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    hf = HeightField(m, np.where(m.membership, 3.0 * (ii + jj) + 1.0, 0.0))
    img = RasterGray(np.full(m.membership.shape, 0.5))
    tf = trace_field(hf, config)
    assert not tf.valid.any()
    with pytest.raises(EmptyOutput):
        dewarp_image(img, [tf], 64, 0.0)
    with pytest.raises(DomainError, match="at least one traced drop"):
        dewarp_image(img, [], 64, 0.0)


def test_dewarp_two_pixel_drop_has_an_empty_view():
    # neither of two pixels lies between their own 2nd and 98th percentiles,
    # so the drop's view has no valid cell; a pair with it finds no matches
    # instead of stopping the whole stereo call
    tiny = _row_trace([(0, 0, 1), (0.1, 0.2, 1)])
    (view,) = dewarp_image(RasterGray(np.full((1, 2), 0.5)), [tiny], 8, 0.0)
    assert not view.valid.any() and view.sample_ij.shape == (0, 2)
    assert view.pixel_of(np.empty(0), np.empty(0)).shape == (0, 2)


# --- renderer --------------------------------------------------------------------


def test_render_zero_height_drop_is_pure_background(config):
    m = disk_mask(20, shape=(80, 80), center=(40, 40))
    hf = HeightField(m, np.zeros(m.membership.shape))
    tex = make_texture("checker", 64, 8)
    scene = SceneSpec(width=80, height=80,
                      planes=(ScenePlane(depth=500.0, texture=tex, scale=5.0),))
    with_drop = render_synthetic(scene, [(m, hf)], config)
    without = render_synthetic(scene, [], config)
    assert np.array_equal(with_drop.pixels, without.pixels)


def test_render_background_samples_plate_magnified_by_depth():
    # the pinhole sees a plane at depth d at plate coordinates times
    # 1 + d / camera_z; the first plane covering a pixel's hit x wins
    cfg = OpticalConfig(principal_point=(20.5, 13.0))
    near = ScenePlane(depth=800.0, texture=make_texture("noise", 32, 4, seed=2), scale=1.5,
                      x_max=-3.0)
    far = ScenePlane(depth=3000.0, texture=make_texture("checker", 16, 4), scale=2.5)
    scene = SceneSpec(width=48, height=30, planes=(near, far), blur_radius=0.0)
    img = render_synthetic(scene, [], cfg)
    x, y = plate_coords(DropBox(0, 30, 0, 48, (30, 48)), cfg)
    m_near, m_far = (1.0 + p.depth / cfg.camera_z for p in (near, far))
    expected = np.where(near.covers(x * m_near), near.sample(x * m_near, y * m_near, None),
                        far.sample(x * m_far, y * m_far, None))
    assert img.pixels.tobytes() == expected.tobytes()


def test_render_constant_scene_equals_texture_times_transmittance(config):
    mask, hf = _cap_field(30, 60.0)
    tex = np.full((16, 16), 0.75)
    scene = SceneSpec(width=mask.width, height=mask.height,
                      planes=(ScenePlane(depth=1500.0, texture=tex, scale=10.0),),
                      blur_radius=0.0)
    img = render_synthetic(scene, [(mask, hf)], config)
    tf = trace_field(hf, config)
    t = tf.box.paste(_transmittance_from_cos_w(tf.cos_theta_w, config)
                     * fresnel_transmittance_arrays(tf.theta_flat_air, 1.0, config.n_water)[2])
    lit = tf.box.paste(tf.valid) & (hf.z > 0)
    assert np.abs(img.pixels[lit] - 0.75 * t[lit]).max() <= 1e-3
    # compensation recovers the texture value
    from dropstereo import compensate_illuminance

    comp, ok = compensate_illuminance(img, hf, config)
    assert np.abs(comp.pixels[ok & lit] - 0.75).max() <= 1e-3


def test_render_dark_annulus_agrees_with_band_mask(single_drop_render, config):
    scene, mask, hf, img = single_drop_render
    tf = trace_field(hf, config)
    rendered_dark = mask.membership & (hf.z > 0) & ~tf.box.paste(tf.valid)
    predicted = mask.box.paste(dark_band_mask(hf, config))
    wet = mask.membership & (hf.z > 0)
    agree = (rendered_dark == (predicted & wet)) & wet
    assert agree.sum() / wet.sum() >= 0.95
    assert rendered_dark.any()


def test_render_dark_annulus_grows_with_volume(config):
    m = disk_mask(45, shape=(200, 200), center=(100, 100))
    tex = make_texture("checker", 64, 8)
    scene = SceneSpec(width=200, height=200,
                      planes=(ScenePlane(depth=1500.0, texture=tex, scale=10.0),))
    counts = []
    for alpha in (0.17, 0.34):
        hf, _ = solve_fixed_volume(m, initial_volume(m, alpha),
                                   SolverParams(max_iters=2500), config)
        tf = trace_field(hf, config)
        counts.append(int((m.membership & (hf.z > 0) & ~tf.box.paste(tf.valid)).sum()))
    assert counts[1] > counts[0]


def test_render_rejects_plane_in_front_of_drop(config):
    mask, hf = _cap_field(20, 40.0)
    scene = SceneSpec(width=mask.width, height=mask.height,
                      planes=(ScenePlane(depth=5.0, texture=np.ones((4, 4))),))
    with pytest.raises(DomainError):
        render_synthetic(scene, [(mask, hf)], config)


def test_plane_texture_is_read_only():
    # the plane keeps its own clipped copy of the texture, frozen like the
    # arrays of every other record; the caller's array stays its own
    tex = np.full((4, 4), 0.5)
    plane = ScenePlane(depth=2000.0, texture=tex)
    with pytest.raises(ValueError, match="read-only"):
        plane.texture[0, 0] = 1.0
    tex[0, 0] = 2.0
    assert plane.texture[0, 0] == 0.5 and tex.flags.writeable


def _whole_raster_background(scene, config):
    """The background as one whole-raster pass: the reference for the row
    blocks of ``_background``."""
    h, w = scene.height, scene.width
    x, y = plate_coords(DropBox(0, h, 0, w, (h, w)), config)
    out = np.zeros((h, w))
    todo = np.ones_like(out, dtype=bool)
    for plane in scene.planes:
        m = 1.0 + plane.depth / config.camera_z
        hx, hy = x * m, y * m
        sel = todo & plane.covers(hx)
        if sel.any():
            out[sel] = plane.sample(hx[sel], hy[sel], None)
            todo &= ~sel
    return out


@pytest.mark.parametrize("size", ["split", "wider_than_a_block", "one_row"])
def test_background_blocks_leave_no_seam(two_plane_scene, config, size):
    scene = two_plane_scene[0]
    if size == "split":
        # the last block is shorter than the others
        assert scene.height % (_BLOCK_PIXELS // scene.width) != 0
    elif size == "wider_than_a_block":
        scene = replace(scene, width=_BLOCK_PIXELS + 3, height=3)
    else:
        scene = replace(scene, height=1)
    got = _background(scene, config)
    assert np.array_equal(got, _whole_raster_background(scene, config))


def test_render_on_a_photo_sized_raster_peaks_at_two_rasters(two_drop_scene, config):
    # the two-drop scene moved onto a 12 MP raster (3000 x 4000): the drop
    # boxes and the small raster's area away from its blurred edge are the
    # small render's bytes, and the render holds at most 2.5 rasters at once
    # (the background and its blur, then the blurred and the clipped raster)
    scene, (_, hf1), (_, hf2), image = two_drop_scene
    di, dj = 1234, 2345
    drops, big_config = embed_scene(image, [hf1, hf2], config, (di, dj))[1:]
    big_scene = replace(scene, height=3000, width=4000)
    tracemalloc.start()
    try:
        big = render_synthetic(big_scene, [(hf.mask, hf) for hf in drops], big_config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raster_bytes = big.pixels.nbytes
    assert peak <= 2.5 * raster_bytes, peak / raster_bytes
    for hf, small in zip(drops, (hf1, hf2)):
        assert np.array_equal(hf.mask.box.crop(big.pixels), small.mask.box.crop(image.pixels))
    # scipy's Gaussian reaches int(4 sigma + 0.5) pixels; the small raster's
    # 'nearest' edge differs from the big raster's scene within that reach
    g = int(4.0 * scene.blur_radius + 0.5) + 1
    h, w = image.pixels.shape
    assert np.array_equal(big.pixels[di + g : di + h - g, dj + g : dj + w - g],
                          image.pixels[g : h - g, g : w - g])
