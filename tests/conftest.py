"""Shared fixtures: converged reference solves, rendered scenes, and the
end-to-end CLI pipeline are expensive, so the heavyweight artifacts are
session-scoped."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dropstereo import (DropMask, HeightField, OpticalConfig, RasterGray, SolverParams,
                        disk_mask, initial_volume, render_synthetic, solve_fixed_volume)
from dropstereo.core import DropBox
from dropstereo.cli import main as cli_main
from dropstereo.raytrace import ScenePlane, SceneSpec
from dropstereo.scenes import make_texture


def cap_height(base_radius: float, volume: float) -> float:
    """Height of the spherical cap with the given base radius and volume."""
    roots = np.roots([np.pi / 6.0, 0.0, np.pi * base_radius**2 / 2.0, -volume])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    return float(min(real))


def cap_field(mask, volume: float) -> np.ndarray:
    """Analytic spherical cap with the mask's equivalent base radius and the
    given volume, sampled on the mask grid."""
    m = mask.membership
    rb = np.sqrt(mask.area / np.pi)
    h = cap_height(rb, volume)
    rs = (rb * rb + h * h) / (2.0 * h)
    ii, jj = np.nonzero(m)
    ci, cj = ii.mean(), jj.mean()
    r2 = (ii - ci) ** 2 + (jj - cj) ** 2
    z = np.zeros(m.shape)
    z[ii, jj] = np.maximum(np.sqrt(np.maximum(rs * rs - r2, 0.0)) - (rs - h), 0.0)
    return z


def embed_scene(image, drops, config, offset, shape=(3000, 4000)):
    """A scene moved onto a photo-sized raster: ``image`` pasted at
    ``offset`` (rows, columns) on a zero raster of ``shape``, each drop of
    ``drops`` (height fields) on its box shifted by the offset, and
    ``config`` with its principal point moved by the same offset, so that
    every drop pixel traces the ray it traces on the small raster.  Returns
    (image, drops, config)."""
    di, dj = offset
    h, w = image.pixels.shape
    pixels = np.zeros(shape)
    pixels[di : di + h, dj : dj + w] = image.pixels
    moved = []
    for hf in drops:
        b = hf.mask.box
        at = DropBox(b.i0 + di, b.i1 + di, b.j0 + dj, b.j1 + dj, shape)
        moved.append(HeightField(DropMask(hf.mask.inside, at=at), hf.heights))
    cx, cy = config.resolve_principal_point((h, w))
    return RasterGray(pixels), moved, replace(config, principal_point=(cx + dj, cy + di))


def zncc(a: np.ndarray, b: np.ndarray) -> float:
    x = a - a.mean()
    y = b - b.mean()
    denom = np.sqrt((x * x).sum() * (y * y).sum())
    return float((x * y).sum() / denom) if denom > 0 else 0.0


def edge_deviation(raster: np.ndarray, valid: np.ndarray) -> float:
    """Max deviation of a per-row 0.5-crossing from its best-fit line."""
    cols = []
    for r in range(raster.shape[0]):
        row, ok = raster[r], valid[r]
        cross = np.nonzero((row[:-1] <= 0.5) & (row[1:] > 0.5) & ok[:-1] & ok[1:])[0]
        if cross.size == 1:
            c = cross[0]
            cols.append(c + (0.5 - row[c]) / (row[c + 1] - row[c]))
        else:
            cols.append(np.nan)
    cols = np.array(cols, dtype=float)
    good = np.isfinite(cols)
    rr = np.nonzero(good)[0]
    if rr.size < 12:
        return float("nan")
    fit = np.polyfit(rr, cols[good], 1)
    return float(np.abs(cols[good] - np.polyval(fit, rr)).max())


def rectified_truth(view, scene, config, supersample: int = 3) -> np.ndarray:
    """Pinhole ground truth averaged over each rectified cell's footprint."""
    h, w = view.raster.pixels.shape
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    acc = np.zeros((h, w))
    s = (config.camera_z + view.plane_depth) / config.camera_z
    rr, cc = np.mgrid[0:h, 0:w]
    for oi in offs:
        for oj in offs:
            px = view.origin[0] + (cc + oj) / view.scale
            py = view.origin[1] + (rr + oi) / view.scale
            acc += scene.planes[0].sample(px * s, py * s, None)
    return acc / supersample**2


@pytest.fixture(scope="session")
def config():
    return OpticalConfig()


@pytest.fixture(scope="session")
def cap50(config):
    """Converged zero-gravity solve on a radius-50 circular mask, alpha 0.30."""
    mask = disk_mask(50)
    hf, report = solve_fixed_volume(mask, initial_volume(mask, 0.30), SolverParams(), config)
    return mask, hf, report


@pytest.fixture(scope="session")
def two_drop_scene(config):
    """Two converged drops over a fine noise plane at depth 2000, rendered."""
    h, w = 300, 700
    m1 = disk_mask(60, shape=(h, w), center=(150, 150))
    m2 = disk_mask(60, shape=(h, w), center=(150, 550))
    sp = SolverParams()
    hf1, _ = solve_fixed_volume(m1, initial_volume(m1, 0.30), sp, config)
    hf2, _ = solve_fixed_volume(m2, initial_volume(m2, 0.30), sp, config)
    tex = make_texture("noise", 1024, 2, seed=3, low=0.05, high=0.95)
    scene = SceneSpec(width=w, height=h,
                      planes=(ScenePlane(depth=2000.0, texture=tex, scale=16.0),))
    image = render_synthetic(scene, [(m1, hf1), (m2, hf2)], config)
    return scene, (m1, hf1), (m2, hf2), image


@pytest.fixture(scope="session")
def two_plane_scene(config):
    """Two drops over a split-field scene: depth 1500 left, 3000 right."""
    h, w = 300, 700
    m1 = disk_mask(60, shape=(h, w), center=(150, 150))
    m2 = disk_mask(60, shape=(h, w), center=(150, 550))
    sp = SolverParams()
    hf1, _ = solve_fixed_volume(m1, initial_volume(m1, 0.30), sp, config)
    hf2, _ = solve_fixed_volume(m2, initial_volume(m2, 0.30), sp, config)
    tex1 = make_texture("noise", 1024, 2, seed=11, low=0.05, high=0.95)
    tex2 = make_texture("noise", 1024, 2, seed=12, low=0.05, high=0.95)
    scene = SceneSpec(width=w, height=h, planes=(
        ScenePlane(depth=1500.0, texture=tex1, scale=16.0, x_max=0.0),
        ScenePlane(depth=3000.0, texture=tex2, scale=16.0, x_min=0.0),
    ))
    image = render_synthetic(scene, [(m1, hf1), (m2, hf2)], config)
    return scene, (m1, hf1), (m2, hf2), image


@pytest.fixture(scope="session")
def single_drop_render(config):
    """One converged drop (alpha 0.30, radius 60) over a noise plane."""
    h = w = 300
    mask = disk_mask(60, shape=(h, w), center=(150, 150))
    hf, _ = solve_fixed_volume(mask, initial_volume(mask, 0.30), SolverParams(), config)
    tex = make_texture("noise", 1024, 2, seed=5, low=0.05, high=0.95)
    scene = SceneSpec(width=w, height=h,
                      planes=(ScenePlane(depth=2000.0, texture=tex, scale=16.0),))
    image = render_synthetic(scene, [(mask, hf)], config)
    return scene, mask, hf, image


# --- end-to-end CLI pipeline --------------------------------------------------


def _write_scene(path: Path) -> None:
    scene = {
        "width": 640, "height": 300,
        "blur_radius": 6.0, "ambient_leak": 0.02,
        "planes": [{"depth": 2000.0,
                    "texture": {"kind": "noise", "size": 1024, "period": 2, "seed": 3,
                                "low": 0.05, "high": 0.95},
                    "scale": 16.0}],
        "drops": [
            {"center": [150, 160], "radius": 58, "alpha": 0.30, "irregularity": 0.06, "seed": 1},
            {"center": [150, 480], "radius": 58, "alpha": 0.30, "irregularity": 0.06, "seed": 2},
        ],
    }
    path.write_text(json.dumps(scene))


def _write_config(path: Path) -> None:
    cfg = {
        "optics": {"n_water": 4.0 / 3.0, "camera_z": 5.0e4},
        "detect": {"min_diameter": 80.0, "low_percentile": 85.0, "high_percentile": 95.0},
    }
    path.write_text(json.dumps(cfg))


def run_pipeline(root: Path) -> dict:
    """synth -> detect -> reconstruct (both drops) -> stereo -> rectify -> eval
    (both drops)."""
    scene = root / "scene.json"
    cfg = root / "cfg.json"
    _write_scene(scene)
    _write_config(cfg)
    synth = root / "synth"
    assert cli_main(["synth", "--scene", str(scene), "--config", str(cfg),
                     "--out", str(synth)]) == 0
    image = synth / "image.pgm"

    det = root / "masks"
    assert cli_main(["detect", "--image", str(image), "--config", str(cfg),
                     "--out", str(det)]) == 0
    masks = sorted(det.glob("mask_*.pgm"))
    assert len(masks) == 2

    drops = []
    for k, mask in enumerate(masks):
        out = root / f"drop_{k}.pfm"
        assert cli_main(["reconstruct", "--image", str(image), "--mask", str(mask),
                         "--config", str(cfg), "--out", str(out), "--alpha", "0.30"]) == 0
        assert out.with_suffix(".json").is_file()
        drops.append(out)

    stereo = root / "depth"
    assert cli_main(["stereo", "--image", str(image), "--drops", ",".join(map(str, drops)),
                     "--config", str(cfg), "--out", str(stereo)]) == 0

    rect = root / "rect.pgm"
    assert cli_main(["rectify", "--image", str(image), "--drop", str(drops[0]),
                     "--config", str(cfg), "--depth", str(stereo / "depth_0.pfm"),
                     "--out", str(rect)]) == 0

    reports = []
    for k, drop in enumerate(drops):
        report = root / f"eval_{k}.json"
        assert cli_main(["eval", "--pred", str(drop), "--truth", str(synth / f"height_{k}.pfm"),
                         "--out", str(report)]) == 0
        reports.append(report)
    return {"synth": synth, "masks": det, "drops": drops, "stereo": stereo,
            "rect": rect, "eval": reports, "image": image}


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """The full pipeline executed twice with identical inputs and seed."""
    a = run_pipeline(tmp_path_factory.mktemp("run_a"))
    b = run_pipeline(tmp_path_factory.mktemp("run_b"))
    return a, b
