"""Command-line pipeline: synth, detect, reconstruct, stereo, rectify, eval."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import formats
from .core import RasterGray
from .detect import detect_drops
from .errors import DomainError
from .raytrace import render_depth_truth, render_synthetic
from .rectify import rectify_drop
from .scenes import read_scene
from .solver import initial_volume, solve_fixed_volume
from .stereo import depth_from_drops
from .volume_loop import ALPHA_MAX, ALPHA_MIN, estimate_shape

log = logging.getLogger("dropstereo")


def _setup_logging() -> None:
    level = os.environ.get("DROPSTEREO_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_gray(path: str) -> RasterGray:
    img = formats.read_pnm(path)
    if img.ndim == 3:
        img = img.mean(axis=2)
    return RasterGray(img)


def _solve_drop(mask, alpha, cfg):
    return solve_fixed_volume(mask, initial_volume(mask, alpha), cfg.solver, cfg.optics)


def cmd_synth(args) -> int:
    cfg = formats.read_config(args.config)
    scene, drop_specs = read_scene(args.scene)
    drops = []
    for k, spec in enumerate(drop_specs):
        mask = spec.build_mask((scene.height, scene.width))
        if mask.area == 0:
            raise DomainError(f"{args.scene}: drops[{k}]: center {list(spec.center)} puts "
                              f"the drop off the {scene.width}x{scene.height} raster")
        hf, rep = _solve_drop(mask, spec.alpha, cfg)
        log.info("drop solved: alpha=%.2f iters=%d converged=%s", spec.alpha,
                 rep.iterations_run, rep.converged)
        drops.append((mask, hf))
    image = render_synthetic(scene, drops, cfg.optics)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_pnm(out / "image.pgm", image.pixels)
    for k, (mask, hf) in enumerate(drops):
        formats.write_mask(out / f"mask_{k}.pgm", mask)
        formats.write_height_field(out / f"height_{k}.pfm", hf)
        formats.write_pfm(out / f"depth_truth_{k}.pfm",
                          hf.mask.box.paste(render_depth_truth(scene, hf, cfg.optics), np.nan))
    print(f"synth: wrote image and {len(drops)} drop(s) to {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = formats.read_config(args.config)
    image = _load_gray(args.image)
    masks = detect_drops(image, cfg.detect)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, mask in enumerate(masks):
        formats.write_mask(out / f"mask_{k}.pgm", mask)
    print(f"detect: {len(masks)} drop(s) -> {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = formats.read_config(args.config)
    image = _load_gray(args.image)
    mask = formats.read_mask(args.mask)
    if mask.area == 0:
        raise DomainError(f"{args.mask}: cannot reconstruct on an empty mask")
    if args.estimate_volume:
        hf, alpha_est, loop = estimate_shape(image, mask, cfg.optics, cfg.solver,
                                             cfg.volume_loop)
        rep = loop.solve
        extras = {k: v for k, v in asdict(loop).items() if k != "solve"}
        work = f"sweeps={sum(loop.solve_sweeps)} in {len(loop.solve_sweeps)} solves"
    else:
        alpha_est = args.alpha
        if not ALPHA_MIN <= alpha_est <= ALPHA_MAX:
            raise DomainError(f"alpha {alpha_est} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
        hf, rep = _solve_drop(mask, alpha_est, cfg)
        extras = {}
        work = f"iters={rep.iterations_run} converged={rep.converged}"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_height_field(out, hf)
    report = {
        "alpha_est": alpha_est,
        "iterations": rep.iterations_run,
        "converged": rep.converged,
        "tension_energy": rep.tension_energy,
        "gravity_energy": rep.gravity_energy,
        "final_energy": rep.final_energy,
        **extras,
    }
    out.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"reconstruct: alpha={alpha_est:.4f} {work} -> {out}")
    return 0


def cmd_stereo(args) -> int:
    cfg = formats.read_config(args.config)
    image = _load_gray(args.image)
    fields = [formats.read_height_field(path) for path in args.drops.split(",")]
    corr = None
    if args.correspondences:
        corr = formats.read_correspondences(args.correspondences)
        if not corr:
            raise DomainError(f"{args.correspondences}: no correspondences")
    result = depth_from_drops(image, fields, cfg.optics, correspondences=corr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, (hf, dm) in enumerate(zip(fields, result.depth_maps)):
        formats.write_pfm(out / f"depth_{k}.pfm", hf.mask.box.paste(dm, np.nan))
    formats.write_correspondences(out / "correspondences.csv", result.correspondences)
    with open(out / "points.csv", "w") as f:
        f.write("x,y,z,residual,valid\n")
        for p, r, ok in zip(result.points, result.residuals.tolist(), result.valid.tolist()):
            f.write(f"{p.x!r},{p.y!r},{p.z!r},{r!r},{int(ok)}\n")
    valid_depths = result.depths[result.valid]
    stats = {
        "points": int(len(result.points)),
        "valid_points": int(result.valid.sum()),
        "median_depth": float(np.median(valid_depths)) if valid_depths.size else None,
        "median_residual": float(np.median(result.residuals)),
    }
    (out / "residuals.json").write_text(json.dumps(stats, indent=2) + "\n")
    print(f"stereo: {stats['valid_points']}/{stats['points']} valid points -> {out}")
    return 0


def cmd_rectify(args) -> int:
    cfg = formats.read_config(args.config)
    image = _load_gray(args.image)
    hf = formats.read_height_field(args.drop)
    if args.depth:
        depth_map = formats.read_pfm(args.depth)
        depths = depth_map[np.isfinite(depth_map)]
        if depths.size == 0:
            raise DomainError(f"{args.depth}: depth map has no valid values")
        depth = float(np.median(depths))
    else:
        depth = args.plane_depth
    view = rectify_drop(image, hf, cfg.optics, depth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_pnm(out, view.raster.pixels)
    sidecar = {
        "plane_depth": view.plane_depth,
        "valid_fraction": float(view.valid.mean()),
        "origin": list(view.origin),
        "scale": view.scale,
    }
    out.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"rectify: depth={view.plane_depth:.1f} -> {out}")
    return 0


def cmd_eval(args) -> int:
    pred = formats.read_pfm(args.pred)
    truth = formats.read_pfm(args.truth)
    if pred.shape != truth.shape:
        raise DomainError("prediction and truth grids differ")
    both = np.isfinite(pred) & np.isfinite(truth)
    if not both.any():
        raise DomainError("no overlapping valid pixels to compare")
    err = pred[both] - truth[both]
    rms = float(np.sqrt((err**2).mean()))
    median_abs = float(np.median(np.abs(err)))
    if args.normalize == "diameter":
        normalizer = 2.0 * float(np.sqrt(np.isfinite(truth).sum() / np.pi))
    else:
        normalizer = float(np.median(truth[np.isfinite(truth)]))
        if not normalizer > 0.0:
            raise DomainError(f"{args.truth}: median truth depth {normalizer} must be "
                              "positive to normalize by depth")
    report = {
        "rms": rms,
        "median_abs": median_abs,
        "normalizer": normalizer,
        "normalize_by": args.normalize,
        "rms_pct": 100.0 * rms / normalizer,
        "median_pct": 100.0 * median_abs / normalizer,
        "n_valid": int(both.sum()),
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"eval: rms={rms:.4f} ({report['rms_pct']:.2f}% of {args.normalize}) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dropstereo",
                                     description="Depth and rectification from adherent "
                                                 "water drops")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene with ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="find drop masks in an image")
    p.add_argument("--image", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("reconstruct", help="solve one drop surface")
    p.add_argument("--image", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=float, default=None,
                   help="fixed volume coefficient")
    g.add_argument("--estimate-volume", action="store_true",
                   help="estimate the volume from the dark band")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stereo", help="triangulate depth from two or more drops")
    p.add_argument("--image", required=True)
    p.add_argument("--drops", required=True, help="comma-separated height-field PFMs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--correspondences", default=None)
    p.set_defaults(func=cmd_stereo)

    p = sub.add_parser("rectify", help="unwarp one drop view onto a depth plane")
    p.add_argument("--image", required=True)
    p.add_argument("--drop", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--depth", default=None, help="depth PFM (median of valid values)")
    g.add_argument("--plane-depth", type=float, default=None)
    p.set_defaults(func=cmd_rectify)

    p = sub.add_parser("eval", help="compare a prediction PFM against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", choices=("diameter", "depth"), default="diameter")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean one-line failure
        log.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
