import numpy as np
import pytest

from dropstereo import (DomainError, DropMask, OpticalConfig, RasterGray, RingTooSmall,
                        SolverParams, disk_mask, initial_volume, render_synthetic,
                        sample_band_brightness, solve_fixed_volume, target_brightness,
                        volume_update, estimate_shape)
from dropstereo.formats import VolumeLoopParams
from dropstereo.raytrace import ScenePlane, SceneSpec
from dropstereo.scenes import make_texture

BAND_DEFECT = ("the source model's ring-brightness constant 0.241 descends from its "
               "misderived grazing Fresnel slope; an exact-Fresnel render puts the "
               "true-volume ring mean near 0.39*I_b, biasing the loop low "
               "(see decisions ledger)")


# --- target brightness ---------------------------------------------------------


def test_target_brightness_scales_background_mean():
    img = RasterGray(np.full((20, 20), 200.0 / 255.0))
    m = DropMask(np.zeros((20, 20), dtype=bool) | (np.arange(20)[:, None] < 4))
    assert target_brightness(img, [m]) == pytest.approx(0.241 * 200.0 / 255.0, rel=1e-12)
    assert target_brightness(img, [m]) == pytest.approx(48.2 / 255.0, abs=1e-9)


def test_target_brightness_black_background_is_zero():
    img = RasterGray(np.zeros((10, 10)))
    m = DropMask(np.zeros((10, 10), dtype=bool))
    assert target_brightness(img, [m]) == 0.0


def test_target_brightness_mixed_background():
    px = np.zeros((10, 10))
    px[:, 5:] = 1.0
    img = RasterGray(px)
    m = DropMask(np.zeros((10, 10), dtype=bool))
    assert target_brightness(img, [m]) == pytest.approx(0.1205, rel=1e-12)


def test_target_brightness_needs_background():
    img = RasterGray(np.ones((4, 4)))
    m = DropMask(np.ones((4, 4), dtype=bool))
    with pytest.raises(DomainError):
        target_brightness(img, [m])


# --- volume update ---------------------------------------------------------------


def test_volume_update_fixed_point():
    assert volume_update(100.0, 0.2, 0.2, 0.5) == pytest.approx(100.0)


def test_volume_update_grows_when_band_too_dark():
    assert volume_update(100.0, 0.1, 0.2, 0.5) == pytest.approx(125.0)


def test_volume_update_shrinks_when_band_too_bright():
    assert volume_update(100.0, 0.4, 0.2, 0.5) == pytest.approx(50.0)


def test_volume_update_clamped():
    assert volume_update(100.0, 0.0, 0.2, 0.5, v_max=120.0) == 120.0
    assert volume_update(100.0, 1.0, 0.2, 0.5, v_min=90.0) == 90.0


def test_volume_update_rejects_bad_targets():
    with pytest.raises(DomainError):
        volume_update(100.0, 0.1, 0.0, 0.5)
    with pytest.raises(DomainError):
        volume_update(-1.0, 0.1, 0.2, 0.5)


# --- band sampling ---------------------------------------------------------------


def test_sample_band_uniform_white_image(cap50, config):
    mask, hf, _ = cap50
    img = RasterGray(np.ones(mask.membership.shape))
    assert sample_band_brightness(img, hf, config) == 1.0


def test_sample_band_too_small_ring_rejected(config):
    m = disk_mask(10)
    hf, _ = solve_fixed_volume(m, initial_volume(m, 0.08), SolverParams(max_iters=800), config)
    img = RasterGray(np.ones(m.membership.shape))
    with pytest.raises(RingTooSmall):
        sample_band_brightness(img, hf, config)


def test_sampled_brightness_monotone_in_estimated_volume(single_drop_render, config):
    # the under/over-estimation narrative: a flatter estimate samples the
    # truly dark rim (darker), a steeper estimate samples lit interior
    scene, mask, hf_true, image = single_drop_render
    samples = {}
    for alpha in (0.21, 0.30, 0.39):
        hf, _ = solve_fixed_volume(mask, initial_volume(mask, alpha),
                                   SolverParams(max_iters=2500), config, init=hf_true)
        samples[alpha] = sample_band_brightness(image, hf, config)
    assert samples[0.21] < samples[0.30] < samples[0.39]
    target = target_brightness(image, [mask])
    assert samples[0.21] < target  # 30% underestimate reads darker than target


@pytest.mark.xfail(strict=True, reason=BAND_DEFECT)
def test_sample_band_at_true_volume_near_target(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    sampled = sample_band_brightness(image, hf_true, config)
    target = target_brightness(image, [mask])
    assert abs(sampled - target) / target <= 0.15


# --- shape estimation ---------------------------------------------------------------


def test_estimate_shape_update_direction_matches_formula(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    lp = VolumeLoopParams(max_outer_updates=1, alpha_init=0.20)
    _, _, rep = estimate_shape(image, mask, config, loop_params=lp)
    sampled = rep.sampled_history[0]
    target = rep.target
    assert (rep.volume_history[1] > rep.volume_history[0]) == (sampled < target)


def test_estimate_shape_recovers_alpha_from_below(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    lp = VolumeLoopParams(alpha_init=0.20)
    _, alpha_est, _ = estimate_shape(image, mask, config, loop_params=lp)
    assert 0.25 <= alpha_est <= 0.35


@pytest.mark.xfail(strict=True, reason=BAND_DEFECT)
def test_estimate_shape_fixed_point_at_truth(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    lp = VolumeLoopParams(alpha_init=0.30)
    _, alpha_est, _ = estimate_shape(image, mask, config, loop_params=lp)
    assert abs(alpha_est - 0.30) / 0.30 <= 0.05


def test_estimate_shape_contracts_from_both_sides(single_drop_render, config):
    # end-to-end contraction: the final estimate is closer to the truth than
    # a start 0.10 away on either side
    scene, mask, hf_true, image = single_drop_render
    for start in (0.20, 0.40):
        lp = VolumeLoopParams(alpha_init=start)
        _, alpha_est, _ = estimate_shape(image, mask, config, loop_params=lp)
        assert abs(alpha_est - 0.30) < abs(start - 0.30)


def test_estimate_shape_deterministic(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    lp = VolumeLoopParams(alpha_init=0.25, max_outer_updates=3)
    _, a1, _ = estimate_shape(image, mask, config, loop_params=lp)
    _, a2, _ = estimate_shape(image, mask, config, loop_params=lp)
    assert a1 == a2


def test_estimate_shape_final_volume_exact(single_drop_render, config):
    scene, mask, hf_true, image = single_drop_render
    lp = VolumeLoopParams(alpha_init=0.25, max_outer_updates=2)
    hf, alpha_est, _ = estimate_shape(image, mask, config, loop_params=lp)
    from dropstereo import volume_of

    assert volume_of(hf) == pytest.approx(alpha_est * mask.area**1.5, rel=1e-9)
