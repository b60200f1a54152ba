"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on that pass's outputs.

Each workload puts most of its work in a different layer:

* ``pipeline`` -- the README's command-line chain (detect, reconstruct,
  stereo, rectify, eval) through ``dropstereo.cli.main`` on files; about
  80 % solver, and the only workload that runs detect, formats and cli.
* ``volume`` -- ``estimate_shape``'s dark-band loop on two drops, one started
  below and one above its true volume; the outer loop multiplies solver
  calls, so volume-loop changes show here and nowhere else.
* ``stereo`` -- analytic spherical caps, so the solver takes no part;
  dewarp, ZNCC matching, triangulation and rectification do all the work.

A workload is three functions: `setup(seed, work)` makes the inputs,
`run(inputs)` is the timed pass and returns its raw outputs, and
`check(inputs, outputs)` (untimed) turns them into a `PassResult`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dropstereo import (HeightField, OpticalConfig, SolverParams, blob_mask, disk_mask,
                        depth_from_drops, estimate_shape, initial_volume, rectify_drop,
                        render_synthetic, solve_fixed_volume)
from dropstereo import formats
from dropstereo.cli import main as cli_main
from dropstereo.formats import VolumeLoopParams
from dropstereo.raytrace import ScenePlane, SceneSpec
from dropstereo.scenes import make_texture, read_scene
from dropstereo.stereo import BlockMatchParams

# float32 PFM storage rounds each height to 24 bits; the volume check on
# files allows for that, the in-memory check demands the solver's own 1e-9
FILE_VOLUME_TOL = 1e-5
MEMORY_VOLUME_TOL = 1e-9
MIN_MATCHES = BlockMatchParams().min_matches


@dataclass
class PassResult:
    """Operations attempted, failures (name and reason), a digest of every
    output array, and the accuracy metrics (absent where not measured)."""

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    digest: str = ""
    accuracy: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append((name, why))
        return ok


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _zncc(a: np.ndarray, b: np.ndarray) -> float:
    x = a - a.mean()
    y = b - b.mean()
    denom = math.sqrt(float((x * x).sum() * (y * y).sum()))
    return float((x * y).sum() / denom) if denom > 0 else 0.0


def rectified_truth(shape, origin, scale, plane: ScenePlane, config: OpticalConfig,
                    supersample: int = 3) -> np.ndarray:
    """Pinhole view of ``plane`` at its true depth, averaged over each
    rectified cell's footprint (the reference of acceptance criterion 8)."""
    h, w = shape
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    s = (config.camera_z + plane.depth) / config.camera_z
    rr, cc = np.mgrid[0:h, 0:w]
    acc = np.zeros((h, w))
    for oi in offs:
        for oj in offs:
            px = origin[0] + (cc + oj) / scale
            py = origin[1] + (rr + oi) / scale
            acc += plane.sample(px * s, py * s, None)
    return acc / supersample**2


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def _noise(seed: int) -> np.ndarray:
    return make_texture("noise", 1024, 2, seed=seed, low=0.05, high=0.95)


# --- pipeline -----------------------------------------------------------------

PIPELINE_ALPHA = 0.30
PIPELINE_DEPTH = 2000.0


# The acceptance tests' pipeline scene.  The seed does not vary it: on 11 of
# 14 scenes drawn with other texture or drop-shape seeds, detect_drops misses
# one of the two drops (see bench/README.md), and a failed detection stops the
# chain, so a seed-drawn scene would measure failures instead of the pipeline.
PIPELINE_SEEDS = {"texture": 3, "drop_a": 1, "drop_b": 2}


def pipeline_setup(seed: int, work: Path) -> dict:
    """Scene and config files, then ``dropstereo synth`` (truth solves and
    rendering): a 640x300 raster, two irregular r=58 drops over noise."""
    s_tex, s_a, s_b = PIPELINE_SEEDS.values()
    work.mkdir(parents=True, exist_ok=True)
    scene = {
        "width": 640, "height": 300, "blur_radius": 6.0, "ambient_leak": 0.02,
        "planes": [{"depth": PIPELINE_DEPTH,
                    "texture": {"kind": "noise", "size": 1024, "period": 2, "seed": s_tex,
                                "low": 0.05, "high": 0.95},
                    "scale": 16.0}],
        "drops": [
            {"center": [150, 160], "radius": 58, "alpha": PIPELINE_ALPHA,
             "irregularity": 0.06, "seed": s_a},
            {"center": [150, 480], "radius": 58, "alpha": PIPELINE_ALPHA,
             "irregularity": 0.06, "seed": s_b},
        ],
    }
    cfg = {"optics": {"n_water": 4.0 / 3.0, "camera_z": 5.0e4},
           "detect": {"min_diameter": 80.0, "low_percentile": 85.0, "high_percentile": 95.0}}
    (work / "scene.json").write_text(json.dumps(scene))
    (work / "cfg.json").write_text(json.dumps(cfg))
    synth = work / "synth"
    rc, err = _cli(["synth", "--scene", str(work / "scene.json"),
                    "--config", str(work / "cfg.json"), "--out", str(synth)])
    if rc != 0:
        raise RuntimeError(f"synth failed: {err}")
    return {"work": work, "synth": synth, "n": len(scene["drops"]),
            "truth_masks": [formats.read_mask(synth / f"mask_{k}.pgm").membership
                            for k in range(len(scene["drops"]))]}


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, err.getvalue().strip()


def pipeline_run(inputs: dict):
    """detect -> reconstruct --alpha 0.30 (each drop) -> stereo -> rectify
    (drop 0) -> eval (each drop), all through the CLI on files."""
    work, synth = inputs["work"], inputs["synth"]
    out = work / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    image, cfg = str(synth / "image.pgm"), str(work / "cfg.json")
    steps = {}
    steps["detect"] = _cli(["detect", "--image", image, "--config", cfg,
                            "--out", str(out / "masks")])
    masks = sorted((out / "masks").glob("mask_*.pgm"))
    drops = [out / f"drop_{k}.pfm" for k in range(len(masks))]
    for k, (mask, drop) in enumerate(zip(masks, drops)):
        steps[f"reconstruct_{k}"] = _cli(["reconstruct", "--image", image, "--mask", str(mask),
                                          "--config", cfg, "--out", str(drop),
                                          "--alpha", str(PIPELINE_ALPHA)])
    if drops:
        steps["stereo"] = _cli(["stereo", "--image", image, "--drops", ",".join(map(str, drops)),
                                "--config", cfg, "--out", str(out / "depth")])
        steps["rectify"] = _cli(["rectify", "--image", image, "--drop", str(drops[0]),
                                 "--config", cfg, "--depth", str(out / "depth" / "depth_0.pfm"),
                                 "--out", str(out / "rect.pgm")])
    for k, drop in enumerate(drops[: inputs["n"]]):
        steps[f"eval_{k}"] = _cli(["eval", "--pred", str(drop),
                                   "--truth", str(synth / f"height_{k}.pfm"),
                                   "--out", str(out / f"eval_{k}.json")])
    return out, masks, drops, steps


def pipeline_check(inputs: dict, outputs) -> PassResult:
    out, masks, drops, steps = outputs
    res = PassResult()
    for name, (rc, err) in steps.items():
        res.check(name, rc == 0, err)
    n = inputs["n"]
    res.check("detect.count", len(masks) == n, f"found {len(masks)} drops, expected {n}")
    if res.failures:  # later checks read the failed steps' files
        return res
    ious, alpha_errs, rms = [], [], []
    for k in range(n):
        det = formats.read_mask(masks[k]).membership
        truth = inputs["truth_masks"][k]
        ious.append((det & truth).sum() / (det | truth).sum())
        z = formats.read_pfm(drops[k]).astype(float)
        ok = np.isfinite(z[det]).all() and (z[det] >= 0).all()
        vol, target = float(np.nansum(z)), PIPELINE_ALPHA * det.sum() ** 1.5
        res.check(f"reconstruct_{k}.volume", ok and abs(vol - target) <= FILE_VOLUME_TOL * target,
                  f"volume {vol} against target {target}")
        # the volume coefficient the reconstruction implies over the true
        # contact area: exposes a detected mask that is larger than the drop
        alpha_eff = vol / truth.sum() ** 1.5
        alpha_errs.append(100.0 * abs(alpha_eff - PIPELINE_ALPHA) / PIPELINE_ALPHA)
        report = json.loads((out / f"eval_{k}.json").read_text())
        res.check(f"eval_{k}", math.isfinite(report["rms_pct"]), "non-finite rms")
        rms.append(report["rms_pct"])
    stats = json.loads((out / "depth" / "residuals.json").read_text())
    med = stats["median_depth"]
    res.check("stereo.matches", stats["valid_points"] >= MIN_MATCHES and med is not None
              and math.isfinite(med), f"{stats['valid_points']} valid points, median {med}")
    rect = formats.read_pnm(out / "rect.pgm")
    side = json.loads((out / "rect.json").read_text())
    valid = rect > 0  # the 8-bit raster keeps 0 only for cells no pixel reached
    res.check("rectify.output", valid.any() and np.isfinite(rect).all(), "empty rectified view")
    scene, _ = read_scene(inputs["work"] / "scene.json")
    optics = formats.read_config(inputs["work"] / "cfg.json").optics
    truth = rectified_truth(rect.shape, side["origin"], side["scale"], scene.planes[0], optics)
    res.accuracy = {"height_rms_pct": max(rms), "alpha_err_pct": max(alpha_errs),
                    "rect_zncc": _zncc(rect[valid], truth[valid])}
    if med is not None:
        res.accuracy["depth_err_pct"] = 100.0 * abs(med - PIPELINE_DEPTH) / PIPELINE_DEPTH
    res.extra["detect.iou_min"] = float(min(ious))
    files = sorted(p for p in out.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(out)).encode() + p.read_bytes())
    res.digest = h.hexdigest()
    return res


# --- volume ---------------------------------------------------------------------

# (true alpha, starting alpha): one start below the truth, one above
VOLUME_DROPS = ((0.30, 0.20), (0.25, 0.35))
VOLUME_RADIUS = 40
VOLUME_SIZE = 200


def volume_setup(seed: int, work: Path) -> dict:
    """Two irregular r=40 drops, each solved at its true volume and rendered
    alone over noise on a 200x200 raster."""
    config = OpticalConfig()
    seeds = _seeds(seed, 2 * len(VOLUME_DROPS))
    drops = []
    for k, (alpha, start) in enumerate(VOLUME_DROPS):
        c = (VOLUME_SIZE // 2, VOLUME_SIZE // 2)
        mask = blob_mask(VOLUME_RADIUS, shape=(VOLUME_SIZE, VOLUME_SIZE), center=c,
                         irregularity=0.10, seed=seeds[2 * k])
        truth, _ = solve_fixed_volume(mask, initial_volume(mask, alpha), SolverParams(), config)
        scene = SceneSpec(width=VOLUME_SIZE, height=VOLUME_SIZE, planes=(
            ScenePlane(depth=2000.0, texture=_noise(seeds[2 * k + 1]), scale=16.0),))
        image = render_synthetic(scene, [(mask, truth)], config)
        drops.append({"mask": mask, "truth": truth, "alpha": alpha, "image": image,
                      "params": VolumeLoopParams(alpha_init=start)})
    return {"config": config, "drops": drops}


def volume_run(inputs: dict) -> list:
    """``estimate_shape`` (the dark-band volume loop) on every drop."""
    config = inputs["config"]
    outs = []
    for d in inputs["drops"]:
        try:
            outs.append(estimate_shape(d["image"], d["mask"], config, loop_params=d["params"]))
        except Exception as exc:  # a failed operation is counted, not fatal
            outs.append(exc)
    return outs


def volume_check(inputs: dict, outs: list) -> PassResult:
    res = PassResult()
    arrays, alpha_errs, rms = [], [], []
    for k, (d, out) in enumerate(zip(inputs["drops"], outs)):
        if not res.check(f"estimate_shape_{k}", not isinstance(out, Exception), repr(out)):
            continue
        hf, alpha, _ = out
        mask = d["mask"]
        target = alpha * mask.area ** 1.5
        vol = float(hf.z.sum())
        res.check(f"estimate_shape_{k}.volume",
                  math.isfinite(alpha) and abs(vol - target) <= MEMORY_VOLUME_TOL * target,
                  f"volume {vol} against target {target}")
        diameter = 2.0 * math.sqrt(mask.area / math.pi)
        err = (hf.z - d["truth"].z)[mask.membership]
        rms.append(100.0 * math.sqrt(float((err**2).mean())) / diameter)
        alpha_errs.append(100.0 * abs(alpha - d["alpha"]) / d["alpha"])
        arrays += [hf.z, np.array([alpha])]
    if rms:
        res.accuracy = {"height_rms_pct": max(rms), "alpha_err_pct": max(alpha_errs)}
    res.digest = _digest(arrays)
    return res


# --- stereo ---------------------------------------------------------------------

STEREO_RADIUS = 60
STEREO_ALPHA = 0.30


def cap_surface(mask, volume: float) -> HeightField:
    """Analytic spherical cap with the mask's equivalent base radius and the
    given volume."""
    rb = math.sqrt(mask.area / math.pi)
    roots = np.roots([math.pi / 6.0, 0.0, math.pi * rb * rb / 2.0, -volume])
    h = min(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    rs = (rb * rb + h * h) / (2.0 * h)
    ii, jj = np.nonzero(mask.membership)
    r2 = (ii - ii.mean()) ** 2 + (jj - jj.mean()) ** 2
    z = np.zeros(mask.membership.shape)
    z[ii, jj] = np.maximum(np.sqrt(np.maximum(rs * rs - r2, 0.0)) - (rs - h), 0.0)
    return HeightField(mask, z)


def stereo_setup(seed: int, work: Path) -> dict:
    """Scene (a): three r=60 caps across a 300x1000 raster over one plane at
    depth 2000.  Scene (b): two caps over a split 1500/3000 two-plane scene."""
    config = OpticalConfig()
    s_a, s_near, s_far = _seeds(seed, 3)

    def caps(shape, cols):
        out = []
        for c in cols:
            mask = disk_mask(STEREO_RADIUS, shape=shape, center=(150, c))
            out.append((mask, cap_surface(mask, initial_volume(mask, STEREO_ALPHA))))
        return out

    plane_a = ScenePlane(depth=2000.0, texture=_noise(s_a), scale=16.0)
    drops_a = caps((300, 1000), (150, 500, 850))
    image_a = render_synthetic(SceneSpec(width=1000, height=300, planes=(plane_a,)),
                               drops_a, config)
    drops_b = caps((300, 700), (150, 550))
    scene_b = SceneSpec(width=700, height=300, planes=(
        ScenePlane(depth=1500.0, texture=_noise(s_near), scale=16.0, x_max=0.0),
        ScenePlane(depth=3000.0, texture=_noise(s_far), scale=16.0, x_min=0.0)))
    image_b = render_synthetic(scene_b, drops_b, config)
    return {"config": config, "plane_a": plane_a, "image_a": image_a,
            "fields_a": [hf for _, hf in drops_a], "image_b": image_b,
            "fields_b": [hf for _, hf in drops_b]}


def stereo_run(inputs: dict) -> dict:
    """``depth_from_drops`` on both scenes, then ``rectify_drop`` of every
    scene (a) drop onto the plane at scene (a)'s estimated depth."""
    config = inputs["config"]
    out = {}
    for name, call in (
            ("depth_a", lambda: depth_from_drops(inputs["image_a"], inputs["fields_a"], config)),
            ("depth_b", lambda: depth_from_drops(inputs["image_b"], inputs["fields_b"], config))):
        try:
            out[name] = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            out[name] = exc
    for k, hf in enumerate(inputs["fields_a"]):
        try:
            if isinstance(out["depth_a"], Exception):
                raise out["depth_a"]
            out[f"rectify_{k}"] = rectify_drop(inputs["image_a"], hf, config, out["depth_a"])
        except Exception as exc:  # a failed operation is counted, not fatal
            out[f"rectify_{k}"] = exc
    return out


def stereo_check(inputs: dict, out: dict) -> PassResult:
    res = PassResult()
    errs, zncc, arrays = [], [], []
    for name in ("depth_a", "depth_b"):
        r = out[name]
        if not res.check(name, not isinstance(r, Exception), repr(r)):
            continue
        depths = r.depths
        res.check(f"{name}.matches", len(r.correspondences) >= MIN_MATCHES
                  and r.valid.any() and np.isfinite(depths).all(),
                  f"{len(r.correspondences)} correspondences, {int(r.valid.sum())} valid")
        arrays += [depths, r.residuals, r.valid]
        if not r.valid.any():
            continue
        if name == "depth_a":
            errs.append(abs(np.median(depths[r.valid]) - 2000.0) / 2000.0)
        else:
            xs = np.array([p.x for p in r.points])
            for sel, true in ((xs < -60.0, 1500.0), (xs > 60.0, 3000.0)):
                d = depths[r.valid & sel]
                if res.check(f"{name}.plane_{true:.0f}", d.size > 0, "no valid point"):
                    errs.append(abs(np.median(d) - true) / true)
    for k in range(len(inputs["fields_a"])):
        v = out[f"rectify_{k}"]
        if not res.check(f"rectify_{k}", not isinstance(v, Exception), repr(v)):
            continue
        res.check(f"rectify_{k}.output", v.valid.any(), "empty rectified view")
        truth = rectified_truth(v.raster.pixels.shape, v.origin, v.scale, inputs["plane_a"],
                                inputs["config"])
        zncc.append(_zncc(v.raster.pixels[v.valid], truth[v.valid]))
        arrays += [v.raster.pixels, v.valid]
    if errs:
        res.accuracy["depth_err_pct"] = 100.0 * max(errs)
    if zncc:
        res.accuracy["rect_zncc"] = min(zncc)
    res.digest = _digest(arrays)
    return res


WORKLOADS = {
    "pipeline": (pipeline_setup, pipeline_run, pipeline_check),
    "volume": (volume_setup, volume_run, volume_check),
    "stereo": (stereo_setup, stereo_run, stereo_check),
}
