import copy
import re

import numpy as np
import pytest

from dropstereo import (DepthResult, DomainError, DropMask, HeightField, OpticalConfig,
                        RasterGray, ScenePlane, SceneSpec, SolverParams, Vec3, VolumeLoopParams,
                        compensate_illuminance, dark_band_mask, depth_from_drops, detect_drops,
                        dewarp_image, estimate_shape, init_mesh, initial_volume, rectify_drop,
                        render_synthetic, sample_band_brightness, solve_fixed_volume,
                        target_brightness)
from dropstereo.core import DropBox, MaskedGradient, normal_field
from dropstereo.masks import disk_mask
from dropstereo.optics import critical_normal_z_field, incidence_directions, theta_cprime_field
from dropstereo.raytrace import trace_field
from dropstereo.volume_loop import band_ring

from conftest import cap_field


def square_mask(n=10, pad=2):
    m = np.zeros((n + 2 * pad, n + 2 * pad), dtype=bool)
    m[pad : pad + n, pad : pad + n] = True
    return DropMask(m)


def coords(mask):
    return np.nonzero(mask.membership)


# --- rasters and masks ------------------------------------------------------


def test_raster_clamps_to_unit_interval():
    r = RasterGray(np.array([[-0.5, 0.25], [2.0, 1.0]]))
    assert r.pixels.min() == 0.0 and r.pixels.max() == 1.0
    assert r.width == 2 and r.height == 2


def test_splat_bilinear_matches_add_at_reference():
    # oracle: the four corner passes accumulated with np.add.at, in order
    from dropstereo.core import splat_bilinear

    rng = np.random.default_rng(5)
    h, w = 12, 9
    rows = rng.uniform(-0.5, 7.5, 400)  # rows 9..11 get no weight
    cols = rng.uniform(-0.5, w - 0.5, 400)  # some samples clip at the edges
    vals = rng.uniform(0.0, 1.0, 400)
    acc, wgt = np.zeros((h, w)), np.zeros((h, w))
    r0, c0 = np.floor(rows).astype(int), np.floor(cols).astype(int)
    fr, fc = rows - r0, cols - c0
    for dr, dc, wq in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                       (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr, cc = np.clip(r0 + dr, 0, h - 1), np.clip(c0 + dc, 0, w - 1)
        np.add.at(acc, (rr, cc), wq * vals)
        np.add.at(wgt, (rr, cc), wq)
    raster, valid = splat_bilinear(rows, cols, vals, (h, w))
    assert np.array_equal(valid, wgt > 1e-9) and not valid.all()
    assert np.array_equal(raster, np.where(valid, acc / np.where(valid, wgt, 1.0), 0.0))


def test_mask_area_counts_members():
    m = square_mask(10)
    assert m.area == 100


def _bbox_masks():
    """Single-component masks touching each grid edge, alone and all four;
    single pixels, corners included; runs on 1 x N and N x 1 grids."""
    h, w = 12, 15
    for i0, i1, j0, j1 in ((0, 4, 5, 9), (8, h, 5, 9), (3, 6, 0, 2), (3, 6, 11, w),
                           (0, h, 0, w), (0, h, 7, 8), (5, 6, 0, w)):
        m = np.zeros((h, w), dtype=bool)
        m[i0:i1, j0:j1] = True
        yield m
    for i, j in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (4, 9)):
        m = np.zeros((h, w), dtype=bool)
        m[i, j] = True
        yield m
    for n, (a, b) in ((1, (0, 1)), (9, (0, 9)), (9, (3, 6)), (9, (8, 9)), (9, (4, 5))):
        line = np.zeros(n, dtype=bool)
        line[a:b] = True
        yield line[None, :]
        yield line[:, None]
    yield disk_mask(5).membership


def test_mask_bbox_and_area_equal_the_nonzero_form():
    for grid in _bbox_masks():
        m = DropMask(grid)
        ii, jj = np.nonzero(grid)
        assert m.bbox() == (ii.min(), ii.max() + 1, jj.min(), jj.max() + 1)
        assert all(type(v) is int for v in m.bbox())
        assert m.area == ii.size and type(m.area) is int
    for shape in ((4, 5), (1, 6), (6, 1), (1, 1)):
        empty = DropMask(np.zeros(shape, dtype=bool))
        assert empty.area == 0
        with pytest.raises(DomainError, match="empty"):
            empty.bbox()
        assert empty.box == DropBox(0, 0, 0, 0, shape)


def test_mask_rejects_disconnected_components():
    grid = np.zeros((9, 9), dtype=bool)
    grid[1, 1] = True
    grid[7, 7] = True
    with pytest.raises(DomainError):
        DropMask(grid)


def test_mask_rejects_diagonal_only_connectivity():
    grid = np.zeros((5, 5), dtype=bool)
    grid[1, 1] = True
    grid[2, 2] = True
    with pytest.raises(DomainError):
        DropMask(grid)


def test_mask_boundary_plus_interior_partition():
    from scipy import ndimage

    m = disk_mask(8)
    b = m.box.paste(m.boundary())
    i = m.membership & ~b
    assert not (b & ~m.membership).any()
    # the interior is what a 4-connected erosion of the mask keeps
    four = ndimage.generate_binary_structure(2, 1)
    assert (i == ndimage.binary_erosion(m.membership, structure=four)).all()
    assert b.any() and i.any()


def test_height_field_zeroes_non_members_and_rejects_negatives():
    m = square_mask(4)
    z = np.ones(m.membership.shape)
    hf = HeightField(m, z)
    assert (hf.z[~m.membership] == 0).all()
    z2 = np.where(m.membership, -1.0, 0.0)
    with pytest.raises(DomainError):
        HeightField(m, z2)


def test_height_field_takes_raster_or_box_heights_and_names_a_wrong_shape():
    # heights given on the raster or on the mask's box make the same record;
    # any other grid is refused, naming its shape and the two accepted ones
    m = disk_mask(4, shape=(20, 30), center=(8, 12))
    z = np.where(m.membership, np.arange(600.0).reshape(20, 30), 7.0)
    on_raster = HeightField(m, z)
    on_box = HeightField(m, m.box.crop(z))
    assert on_raster.heights.shape == on_box.heights.shape == (11, 11)
    assert on_raster.heights.tobytes() == on_box.heights.tobytes()
    assert on_raster.z.tobytes() == np.where(m.membership, z, 0.0).tobytes()
    for shape in ((20, 29), (11, 12)):
        with pytest.raises(DomainError, match=re.escape(
                f"height grid shape {shape} must match the mask grid (20, 30) "
                "or its box (11, 11)")):
            HeightField(m, np.zeros(shape))


def test_optical_config_invariants():
    # water must be denser than air; an infinite index gave eta = inf
    nan, inf = float("nan"), float("inf")
    for bad in (1.0, 0.75, nan, inf):
        with pytest.raises(DomainError, match="n_water"):
            OpticalConfig(n_water=bad)
    with pytest.raises(DomainError):
        OpticalConfig(camera_z=-1.0)
    with pytest.raises(DomainError):
        OpticalConfig(gravity_cosines=(1.0, 1.0, 1.0))
    # NaN fails no plain comparison, so each field must reject it explicitly
    for g in ((nan, 0.0, 1.0), (0.0, 0.0, nan), (0.0, 0.0, float("inf"))):
        with pytest.raises(DomainError, match="gravity"):
            OpticalConfig(gravity_cosines=g)
    for pp in ((1.0,), (1.0, 2.0, 3.0), (nan, 2.0), (1.0, float("inf"))):
        with pytest.raises(DomainError, match="principal_point"):
            OpticalConfig(principal_point=pp)
    cfg = OpticalConfig(principal_point=(1.5, 2.0))
    assert cfg.resolve_principal_point((9, 9)) == (1.5, 2.0)


def test_optical_config_rejects_bad_solver_weights():
    # an infinite weight makes every energy infinite, and NaN used to fail
    # only inside the sweep
    nan, inf = float("nan"), float("inf")
    for bad in (-1e-4, nan, inf):
        with pytest.raises(DomainError, match="gravity_weight"):
            OpticalConfig(gravity_weight=bad)
    assert OpticalConfig(gravity_weight=0.0).gravity_weight == 0.0


# --- a drop is its box -------------------------------------------------------


def test_drop_arrays_are_box_sized_on_a_photo_sized_raster(config):
    # an r=60 drop on a 12 MP raster (3000 x 4000, a phone photo): the mask,
    # a solve's heights, its trace and its band fields all live on the
    # drop's box; only the read-only raster views span the raster
    raster = (3000, 4000)
    m = disk_mask(60, raster, (1234.0, 2345.0))
    box = m.box
    frame = (box.i1 - box.i0, box.j1 - box.j0)
    assert box.shape == raster and frame == (123, 123) and m.inside.shape == frame
    hf, _ = solve_fixed_volume(m, initial_volume(m, 0.3), SolverParams(max_iters=5), config)
    tf = trace_field(hf, config)
    fields = (hf.heights, normal_field(hf), incidence_directions(hf, config),
              theta_cprime_field(hf, config), critical_normal_z_field(hf, config),
              dark_band_mask(hf, config), band_ring(hf, config), tf.origins, tf.directions,
              tf.valid, tf.tir, tf.cos_theta_w, tf.theta_flat_air)
    for k, a in enumerate(fields):
        assert a.shape[:2] == frame, k
    for record, name, on_box in ((m, "membership", m.inside), (hf, "z", hf.heights)):
        view = getattr(record, name)
        assert view.shape == raster and not view.flags.writeable, name
        with pytest.raises(AttributeError):
            setattr(record, name, view)
        # the box pasted onto the raster: the box's values, zero elsewhere
        assert np.array_equal(box.crop(view), on_box), name
        assert np.count_nonzero(view) == np.count_nonzero(on_box), name
        del view


def test_drop_stages_read_no_raster_view(monkeypatch, two_drop_scene, config):
    # the raster views serve the file writers and readers outside the
    # package; the stages of a drop read only its box, so a photo-sized
    # raster costs no raster-sized array per drop or per volume-loop probe
    scene, (m1, hf1), (m2, hf2), image = two_drop_scene
    reads = []
    for cls, name in ((DropMask, "membership"), (HeightField, "z")):
        view = getattr(cls, name).fget
        monkeypatch.setattr(cls, name, property(
            lambda self, view=view, name=name: reads.append(name) or view(self)))
    render_synthetic(scene, [(m1, hf1), (m2, hf2)], config)
    depth_from_drops(image, [hf1, hf2], config)
    rectify_drop(image, hf1, config, 2000.0)
    estimate_shape(image, m1, config, SolverParams(max_iters=50),
                   VolumeLoopParams(max_outer_updates=2))
    detect_drops(image)
    # a start on a shifted box of the same raster, reaching past m1's box on
    # two sides and leaving part of it uncovered
    shifted = init_mesh(disk_mask(50, shape=m1.box.shape, center=(170.0, 185.0)), 0.3)
    b, s = m1.box, shifted.mask.box
    assert s.i0 > b.i0 and s.i1 > b.i1 and s.j0 > b.j0 and s.j1 > b.j1
    v, sp = initial_volume(m1, 0.3), SolverParams(max_iters=60)
    moved, report = solve_fixed_volume(m1, v, sp, config, init=shifted)
    assert reads == []
    # the count sees a read; the raster route restates the start by reading
    # its raster view, to the same bytes
    restated = HeightField(m1, shifted.z)
    assert m1.membership.any()
    assert reads == ["z", "membership"]
    want, report_want = solve_fixed_volume(m1, v, sp, config, init=restated)
    assert moved.heights.tobytes() == want.heights.tobytes() and report == report_want


# --- records and the image grid ---------------------------------------------


def test_restate_is_the_raster_route_without_the_raster():
    # windows of one 20 x 30 raster that overlap, nest, touch the raster's
    # edges or lie apart: the box-to-box copy equals pasting on the raster
    # and cropping, byte for byte
    rng = np.random.default_rng(4)

    def window():
        i0, j0 = int(rng.integers(0, 20)), int(rng.integers(0, 30))
        return DropBox(i0, int(rng.integers(i0 + 1, 21)), j0, int(rng.integers(j0 + 1, 31)),
                       (20, 30))

    for _ in range(300):
        src, dst = window(), window()
        a = rng.uniform(0.5, 2.0, (src.i1 - src.i0, src.j1 - src.j0))
        assert src.restate(a, dst).tobytes() == dst.crop(src.paste(a)).tobytes()


def _cap(shape, center, config):
    m = disk_mask(8, shape=shape, center=center)
    hf = HeightField(m, cap_field(m, initial_volume(m, 0.3)))
    return m, hf, trace_field(hf, config)


def test_array_records_compare_by_identity_and_hash(config):
    # a record that holds arrays is equal only to itself: comparing it with
    # an equal copy must not ask an array for its truth value
    m, hf, tf = _cap((30, 40), (15.0, 20.0), config)
    image = RasterGray(np.full((30, 40), 0.5))
    plane = ScenePlane(depth=2000.0, texture=np.full((4, 4), 0.5))
    records = (image, m, hf, plane, tf,
               dewarp_image(image, [tf], 8, 0.0)[0],
               DepthResult((Vec3(0.0, 0.0, 1.0),), np.zeros(1), np.ones(1, dtype=bool),
                           (np.zeros((2, 2)),), ()),
               rectify_drop(image, hf, config, 2000.0))
    for record in records:
        name = type(record).__name__
        assert record == record, name
        assert (record == copy.deepcopy(record)) is False, name
        assert hash(record) == hash(record), name
    # a scene compares its planes without raising
    scene = SceneSpec(width=4, height=4, planes=(plane,))
    assert scene == SceneSpec(width=4, height=4, planes=(plane,))
    assert scene != SceneSpec(width=4, height=4, planes=(copy.deepcopy(plane),))


@pytest.mark.parametrize("entry", ["sample_band_brightness", "target_brightness",
                                   "rectify_drop", "compensate_illuminance", "dewarp_image",
                                   "render_synthetic", "depth_from_drops"])
def test_drop_off_the_image_grid_is_named_with_both_shapes(config, entry):
    # a drop on a (30, 40) grid, an image on (30, 50): every entry point
    # that reads a drop on the image names the drop and both grids.  Where
    # a call takes several drops, the first lies on the image and the
    # second is named.
    m, hf, tf = _cap((30, 40), (15.0, 20.0), config)
    on_m, on_hf, on_tf = _cap((30, 50), (15.0, 20.0), config)
    image = RasterGray(np.full((30, 50), 0.5))
    scene = SceneSpec(width=50, height=30,
                      planes=(ScenePlane(depth=2000.0, texture=np.full((4, 4), 0.5)),))
    call, what = {
        "sample_band_brightness": (lambda: sample_band_brightness(image, hf, config),
                                   "the drop"),
        "target_brightness": (lambda: target_brightness(image, [on_m, m]), "drop mask 1"),
        "rectify_drop": (lambda: rectify_drop(image, hf, config, 2000.0), "the drop"),
        "compensate_illuminance": (lambda: compensate_illuminance(image, hf, config),
                                   "the drop"),
        "dewarp_image": (lambda: dewarp_image(image, [on_tf, tf], 8, 0.0), "drop 1"),
        "render_synthetic": (lambda: render_synthetic(scene, [(on_m, on_hf), (m, hf)], config),
                             "drop 1"),
        "depth_from_drops": (lambda: depth_from_drops(image, [on_hf, hf], config), "drop 1"),
    }[entry]
    with pytest.raises(DomainError, match=re.escape(
            f"{what} lies on a (30, 40) grid, the image on (30, 50)")):
        call()


# --- surface normals --------------------------------------------------------


def test_normal_flat_field_points_up():
    m = square_mask(8)
    hf = HeightField(m, np.where(m.membership, 3.0, 0.0))
    ii, jj = coords(m)
    n = m.box.paste(normal_field(hf))[int(ii[len(ii) // 2]), int(jj[len(jj) // 2])]
    assert n == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_normal_unit_slope_plane():
    m = square_mask(10)
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    hf = HeightField(m, np.where(m.membership, jj.astype(float), 0.0))
    n = m.box.paste(normal_field(hf))[7, 7]
    assert n[2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_normal_hemisphere_matches_analytic():
    # oracle: exact sphere normal N_z = sqrt(1 - r^2/R^2)
    radius = 60
    m = disk_mask(radius)
    c = (m.height - 1) / 2.0
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    r2 = (ii - c) ** 2 + (jj - c) ** 2
    z = np.where(m.membership, np.sqrt(np.maximum(radius**2 - r2, 0.0)), 0.0)
    hf = HeightField(m, z)
    nf = m.box.paste(normal_field(hf))
    probe = m.membership & (r2 <= (0.8 * radius) ** 2)
    expected = np.sqrt(1.0 - r2[probe] / radius**2)
    assert np.abs(nf[probe][:, 2] - expected).max() <= 2e-2


def test_normal_outside_mask_rejected():
    # pixels off the mask get no normal: the zero vector, on the raster and
    # on the box
    rng = np.random.default_rng(2)
    m = disk_mask(5)
    hf = HeightField(m, np.where(m.membership, rng.uniform(0, 3, m.membership.shape), 0.0))
    box = m.box
    for nf, mask in ((box.paste(normal_field(hf)), m.membership),
                     (normal_field(hf), box.crop(m.membership))):
        assert not nf[~mask].any()
        assert np.abs(np.linalg.norm(nf[mask], axis=1) - 1.0).max() <= 1e-12


def test_normal_norms_are_unit_for_random_fields():
    rng = np.random.default_rng(7)
    m = disk_mask(9)
    z = np.where(m.membership, rng.uniform(0, 5, m.membership.shape), 0.0)
    nf = m.box.paste(normal_field(HeightField(m, z)))
    norms = np.linalg.norm(nf[m.membership], axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_convex_dome_normals_tilt_outward():
    m = disk_mask(10)
    c = (m.height - 1) / 2.0
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    z = np.where(m.membership, np.maximum(100.0 - ((ii - c) ** 2 + (jj - c) ** 2), 0.0) / 20.0, 0.0)
    nf = m.box.paste(normal_field(HeightField(m, z)))
    i, j = int(c), int(c + 6)  # +x side of the dome
    assert nf[i, j][0] > 0  # outward = +x here
    assert nf[i, j][2] > 0


# --- masked differences ------------------------------------------------------


def _diff(m, a, axis):
    """The masked difference of a grid along ``axis`` (1 is x), zero off the
    mask."""
    return MaskedGradient(m)(a)[1 - axis]


def test_gradient_of_constant_is_zero():
    m = square_mask(8).membership
    z = np.where(m, 2.5, 0.0)
    gx, gy = _diff(m, z, 1), _diff(m, z, 0)
    assert np.abs(gx).max() == 0.0 and np.abs(gy).max() == 0.0
    assert np.abs(_diff(m, gx, 1) + _diff(m, gy, 0)).max() == 0.0


def test_gradient_of_plane_is_unit_x():
    m = square_mask(10).membership
    ii, jj = np.mgrid[0 : m.shape[0], 0 : m.shape[1]]
    z = np.where(m, jj.astype(float), 0.0)
    assert np.abs(_diff(m, z, 1)[m] - 1.0).max() <= 1e-12
    assert np.abs(_diff(m, z, 0)[m]).max() <= 1e-12


def test_laplacian_of_quadratic_bowl():
    # oracle: div(grad((x^2+y^2)/2)) = 2 exactly
    m = square_mask(16).membership
    ii, jj = np.mgrid[0 : m.shape[0], 0 : m.shape[1]]
    grad = MaskedGradient(m)
    gx, gy = grad(((ii - 10.0) ** 2 + (jj - 10.0) ** 2) / 2.0)
    lap = grad(gx)[0] + grad(gy)[1]
    # interior: two pixels clear of the mask rim so every stencil is central
    from scipy import ndimage

    interior = ndimage.binary_erosion(m, iterations=2)
    assert np.abs(lap[interior] - 2.0).max() <= 1e-6


def test_operators_are_linear():
    # div(grad(.)) applied to a*z1 + b*z2 equals the same combination of the
    # individual results; raw stencils allow sign-indefinite combinations
    rng = np.random.default_rng(3)
    m = disk_mask(8)
    grad = MaskedGradient(m.membership)
    z1 = rng.uniform(0, 4, m.membership.shape)
    z2 = rng.uniform(0, 4, m.membership.shape)
    a, b = 2.25, -1.5

    def lap_raw(v):
        gx, gy = grad(v)
        return grad(gx)[0] + grad(gy)[1]

    combined = lap_raw(a * z1 + b * z2)
    separate = a * lap_raw(z1) + b * lap_raw(z2)
    assert np.abs(combined - separate).max() <= 1e-9


def _shifted_oracle(a, di, dj):
    out = np.zeros_like(a)
    h, w = a.shape
    out[max(-di, 0) : h + min(-di, 0), max(-dj, 0) : w + min(-dj, 0)] = \
        a[max(di, 0) : h + min(di, 0), max(dj, 0) : w + min(dj, 0)]
    return out


def _diff_oracle(m, a, di, dj):
    """The grid-shift differencing the pixel-vector stencil replaced: central
    where both neighbors are members, one-sided at the rim, else zero."""
    has_p = _shifted_oracle(m, di, dj) & m
    has_m = _shifted_oracle(m, -di, -dj) & m
    ap = _shifted_oracle(a, di, dj)
    am = _shifted_oracle(a, -di, -dj)
    return np.where(has_p & has_m, 0.5 * (ap - am),
                    np.where(has_p, ap - a, np.where(has_m, a - am, 0.0)))


def _oracle_masks():
    # touches all four edges, with one-pixel rows and columns and isolated
    # pixels along either axis and both
    rows = ["1100000011",
            "1000110001",
            "1011111101",
            "0010110100",
            "1000100001",
            "0100000010",
            "1110001011"]
    yield np.array([[c == "1" for c in r] for r in rows])
    rng = np.random.default_rng(5)
    for p in (0.3, 0.6, 0.9):
        yield rng.random((9, 13)) < p
    yield np.ones((5, 6), dtype=bool)
    yield np.array([[1, 1, 0, 1, 0, 1, 1, 1]], dtype=bool)
    yield np.array([[1], [0], [1], [1], [1], [0], [1]], dtype=bool)


def test_stencil_matches_grid_shift_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    for m in _oracle_masks():
        a = rng.choice([0.0, -0.0, 1.5, -2.25], size=m.shape) + np.where(
            rng.random(m.shape) < 0.5, rng.normal(size=m.shape), 0.0)
        a = np.where(m, a, np.nan)  # never read
        assert _diff(m, a, 1).tobytes() == _diff_oracle(m, a, 0, 1).tobytes()
        assert _diff(m, a, 0).tobytes() == _diff_oracle(m, a, 1, 0).tobytes()


def test_normal_field_matches_grid_shift_oracle_bit_for_bit():
    # the grid form of the normals: differences on the whole grid, the
    # normal stacked everywhere, then zeroed off the mask
    from dropstereo.masks import blob_mask

    rng = np.random.default_rng(9)
    masks = [disk_mask(r, (2 * r + 5, 2 * r + 9), (r + 1, r + 3)) for r in (3, 7, 12)]
    masks.append(disk_mask(10, (18, 30), (3.0, 27.0)))  # clipped by two grid edges
    masks += [blob_mask(14, seed=seed) for seed in (1, 2, 3)]
    for m in masks:
        z = np.where(m.membership, rng.uniform(0, 6, m.membership.shape), 0.0)
        hf = HeightField(m, z)
        box = m.box
        for got, mask, zz in ((box.paste(normal_field(hf)), m.membership, hf.z),
                              (normal_field(hf), box.crop(m.membership), box.crop(hf.z))):
            gx, gy = _diff_oracle(mask, zz, 0, 1), _diff_oracle(mask, zz, 1, 0)
            norm = np.sqrt(1.0 + gx * gx + gy * gy)
            want = np.where(mask[..., None],
                            np.stack([-gx / norm, -gy / norm, 1.0 / norm], axis=-1), 0.0)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
