import numpy as np
import pytest

from dropstereo import (DepthResult, DomainError, EmptyOutput, HeightField, OpticalConfig,
                        RasterGray, Vec3, compensate_illuminance, disk_mask, initial_volume,
                        render_synthetic, rectify_drop)
from dropstereo.raytrace import ScenePlane, SceneSpec, trace_field
from dropstereo.scenes import make_texture

from conftest import cap_field, edge_deviation, rectified_truth, zncc

DEPTH = 2000.0


@pytest.fixture(scope="module")
def checker_render(config, cap50):
    mask, hf, _ = cap50
    tex = make_texture("checker", 256, 8, low=0.1, high=0.9)
    scene = SceneSpec(width=mask.width, height=mask.height,
                      planes=(ScenePlane(depth=DEPTH, texture=tex, scale=24.0),))
    image = render_synthetic(scene, [(mask, hf)], config)
    return scene, mask, hf, image


def test_rectified_checkerboard_matches_truth(checker_render, config):
    scene, mask, hf, image = checker_render
    view = rectify_drop(image, hf, config, DEPTH)
    truth = rectified_truth(view, scene, config)
    v = view.valid
    assert v.sum() > 200
    assert zncc(view.raster.pixels[v], truth[v]) >= 0.9


def test_rectification_depth_consistency(checker_render, config):
    # the true plane depth scores at least as well as +-20% perturbations
    scene, mask, hf, image = checker_render
    scores = {}
    for d in (0.8 * DEPTH, DEPTH, 1.2 * DEPTH):
        view = rectify_drop(image, hf, config, d)
        truth = rectified_truth(view, scene, config)
        scores[d] = zncc(view.raster.pixels[view.valid], truth[view.valid])
    assert scores[DEPTH] >= scores[0.8 * DEPTH]
    assert scores[DEPTH] >= scores[1.2 * DEPTH]


def test_flat_drop_rectifies_to_input_crop(config):
    # z == 0: rays pass straight through, so rectification is the identity
    # resampling of the input (up to the perspective scale)
    m = disk_mask(25, shape=(120, 120), center=(60, 60))
    hf = HeightField(m, np.zeros(m.membership.shape))
    rng = np.random.default_rng(3)
    img = RasterGray(np.kron(rng.uniform(0, 1, (30, 30)), np.ones((4, 4))))
    view = rectify_drop(img, hf, config, DEPTH)
    h, w = view.raster.pixels.shape
    rr, cc = np.mgrid[0:h, 0:w]
    px = view.origin[0] + cc / view.scale + 59.5  # principal point of the 120 grid
    py = view.origin[1] + rr / view.scale + 59.5
    ii = np.clip(np.rint(py).astype(int), 0, 119)
    jj = np.clip(np.rint(px).astype(int), 0, 119)
    v = view.valid
    assert zncc(view.raster.pixels[v], img.pixels[ii, jj][v]) >= 0.98


def test_rectified_lines_straighter_than_warped(config, cap50):
    mask, hf, _ = cap50
    tex = np.zeros((64, 64))
    tex[:, 32:] = 1.0  # one vertical edge
    scene = SceneSpec(width=mask.width, height=mask.height,
                      planes=(ScenePlane(depth=DEPTH, texture=tex, scale=60.0),),
                      blur_radius=0.0)
    image = render_synthetic(scene, [(mask, hf)], config)

    i0, i1, j0, j1 = mask.bbox()
    wet = mask.membership & (hf.z > 1.0)
    warped = edge_deviation(image.pixels[i0:i1, j0:j1], wet[i0:i1, j0:j1])
    view = rectify_drop(image, hf, config, DEPTH)
    rectified = edge_deviation(view.raster.pixels, view.valid)
    # each residual is in its own raster's pixels (the rectified grid is
    # coarser than the scene; straightness is relative to the grid pitch)
    assert warped >= 8.0
    assert rectified <= 1.5


def test_rectify_empty_field_rejected(config):
    m = disk_mask(10)
    # a plane so steep every pixel totally reflects
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    hf = HeightField(m, np.where(m.membership, 3.0 * (ii + jj) + 1.0, 0.0))
    img = RasterGray(np.full(m.membership.shape, 0.5))
    assert not trace_field(hf, config).valid.any()
    with pytest.raises(EmptyOutput):
        rectify_drop(img, hf, config, DEPTH)


def test_rectify_rejects_non_finite_depth(config):
    # a NaN or infinite plane depth is the caller's error, not the drop's
    m = disk_mask(20)
    hf = HeightField(m, cap_field(m, initial_volume(m, 0.30)))
    img = RasterGray(np.full(m.membership.shape, 0.5))
    for depth in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="depth"):
            rectify_drop(img, hf, config, depth)


@pytest.mark.parametrize("z", [-500.0, 0.0])
def test_rectify_rejects_non_positive_depth_result(config, z):
    # a depth result's median depth passes the same check as a scalar depth
    m = disk_mask(20)
    hf = HeightField(m, cap_field(m, initial_volume(m, 0.30)))
    img = RasterGray(np.full(m.membership.shape, 0.5))
    result = DepthResult(points=(Vec3(0.0, 0.0, z),) * 3, residuals=np.zeros(3),
                         valid=np.ones(3, dtype=bool), depth_maps=(), correspondences=())
    for depth in (z, result):
        with pytest.raises(DomainError, match="depth"):
            rectify_drop(img, hf, config, depth)


# --- illuminance compensation ----------------------------------------------------


def test_compensation_flattens_constant_radiance(config, cap50):
    mask, hf, _ = cap50
    tex = np.full((8, 8), 0.8)
    scene = SceneSpec(width=mask.width, height=mask.height,
                      planes=(ScenePlane(depth=DEPTH, texture=tex, scale=10.0),))
    image = render_synthetic(scene, [(mask, hf)], config)
    comp, ok = compensate_illuminance(image, hf, config)
    inner = ok & (hf.z > 0)
    cv = comp.pixels[inner].std() / comp.pixels[inner].mean()
    assert cv <= 0.03


def test_compensation_normal_incidence_divides_by_squared_limit(config):
    m = disk_mask(15)
    hf = HeightField(m, np.zeros(m.membership.shape))
    img = RasterGray(np.full(m.membership.shape, 0.5))
    comp, ok = compensate_illuminance(img, hf, config)
    c = m.membership.shape[0] // 2
    assert ok[c, c]
    t0 = 4 * 1.0 * config.n_water / (1.0 + config.n_water) ** 2
    assert comp.pixels[c, c] == pytest.approx(min(0.5 / t0**2, 1.0), abs=2e-3)


def test_compensation_leaves_dark_and_background_alone(config, cap50):
    mask, hf, _ = cap50
    rng = np.random.default_rng(8)
    img = RasterGray(rng.uniform(0, 1, mask.membership.shape))
    comp, ok = compensate_illuminance(img, hf, config)
    assert comp.pixels.max() <= 1.0
    tf = trace_field(hf, config)
    dark = mask.membership & ~tf.box.paste(tf.valid)
    assert not ok[dark].any()
    assert np.array_equal(comp.pixels[dark], img.pixels[dark])
    assert np.array_equal(comp.pixels[~mask.membership], img.pixels[~mask.membership])