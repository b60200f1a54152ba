import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from dropstereo import (DropMask, HeightField, InsufficientMatches, RasterGray, depth_from_drops,
                        disk_mask, formats, initial_volume, volume_of)
from dropstereo.cli import main

from conftest import _write_config, cap_field


def test_full_pipeline_emits_all_artifacts(pipeline_runs):
    run, _ = pipeline_runs
    assert (run["synth"] / "image.pgm").is_file()
    for k in range(2):
        assert (run["synth"] / f"height_{k}.pfm").is_file()
        assert (run["synth"] / f"mask_{k}.pgm").is_file()
        assert (run["synth"] / f"depth_truth_{k}.pfm").is_file()
        assert (run["stereo"] / f"depth_{k}.pfm").is_file()
    assert (run["stereo"] / "points.csv").is_file()
    assert (run["stereo"] / "correspondences.csv").is_file()
    assert (run["stereo"] / "residuals.json").is_file()
    assert run["rect"].is_file() and run["rect"].with_suffix(".json").is_file()


def test_pipeline_stereo_depth_sane(pipeline_runs):
    run, _ = pipeline_runs
    stats = json.loads((run["stereo"] / "residuals.json").read_text())
    assert stats["valid_points"] >= 8
    assert abs(stats["median_depth"] - 2000.0) / 2000.0 <= 0.05


def test_pipeline_eval_report(pipeline_runs):
    run, _ = pipeline_runs
    assert len(run["eval"]) == 2
    for path in run["eval"]:
        report = json.loads(path.read_text())
        assert report["normalize_by"] == "diameter"
        assert report["n_valid"] > 5000
        # reconstruction at the true volume on a detected mask stays tight
        assert report["rms_pct"] <= 3.0, path.name


def test_pipeline_reconstructions_converged(pipeline_runs):
    run, _ = pipeline_runs
    for drop in run["drops"]:
        report = json.loads(drop.with_suffix(".json").read_text())
        assert report["converged"] is True, drop.name


def test_pipeline_rectified_sidecar(pipeline_runs):
    run, _ = pipeline_runs
    sidecar = json.loads(run["rect"].with_suffix(".json").read_text())
    assert sidecar["valid_fraction"] > 0.3
    assert abs(sidecar["plane_depth"] - 2000.0) / 2000.0 <= 0.05


def test_pipeline_outputs_byte_identical(pipeline_runs):
    a, b = pipeline_runs
    pairs = [(a["image"], b["image"])]
    for pa, pb in zip(sorted(a["stereo"].glob("*")), sorted(b["stereo"].glob("*"))):
        pairs.append((pa, pb))
    for k in range(2):
        pairs.append((a["synth"] / f"height_{k}.pfm", b["synth"] / f"height_{k}.pfm"))
        pairs.append((a["drops"][k], b["drops"][k]))
    for pa, pb in pairs:
        assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between runs"


def test_missing_input_file_fails_with_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    rc = main(["detect", "--image", str(tmp_path / "nope.pgm"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc != 0
    assert "nope.pgm" in capsys.readouterr().err


def test_synth_bad_drop_names_scene_file(tmp_path, capsys):
    cfg, scene = tmp_path / "cfg.json", tmp_path / "scene.json"
    _write_config(cfg)
    scene.write_text(json.dumps({"width": 64, "height": 48,
                                 "planes": [{"depth": 2000.0, "texture": {"kind": "checker"}}],
                                 "drops": [{"center": [20, 30], "radius": 0}]}))
    assert main(["synth", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(tmp_path / "synth")]) == 1
    err = capsys.readouterr().err
    assert "scene.json" in err and "drops[0]" in err and "radius" in err, err


def test_synth_drop_off_the_raster_names_scene_file_and_drop(tmp_path, capsys):
    # a drop wholly off the raster has an empty mask and cannot be sized
    cfg, scene = tmp_path / "cfg.json", tmp_path / "scene.json"
    _write_config(cfg)
    scene.write_text(json.dumps({"width": 64, "height": 48,
                                 "planes": [{"depth": 2000.0, "texture": {"kind": "checker"}}],
                                 "drops": [{"center": [20, 30], "radius": 8},
                                           {"center": [-200, 40], "radius": 8}]}))
    out = tmp_path / "synth"
    assert main(["synth", "--scene", str(scene), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "scene.json" in err and "drops[1]" in err and "off the 64x48 raster" in err, err
    assert not out.exists()


def test_synth_missing_texture_names_scene_and_plane(tmp_path, capsys):
    cfg, scene = tmp_path / "cfg.json", tmp_path / "scene.json"
    _write_config(cfg)
    scene.write_text(json.dumps({"width": 64, "height": 48,
                                 "planes": [{"depth": 2000.0, "texture": "nope.pgm"}],
                                 "drops": [{"center": [20, 30], "radius": 8}]}))
    assert main(["synth", "--scene", str(scene), "--config", str(cfg),
                 "--out", str(tmp_path / "synth")]) == 1
    err = capsys.readouterr().err
    assert "scene.json" in err and "planes[0]" in err and "nope.pgm" in err, err


def test_alpha_and_estimate_volume_conflict(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--image", "x.pgm", "--mask", "m.pgm", "--config", "c.json",
              "--out", "o.pfm", "--alpha", "0.3", "--estimate-volume"])
    assert exc.value.code == 2


def test_reconstruct_needs_alpha_or_estimate_volume(capsys):
    # no silent default volume: the caller chooses a route
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--image", "x.pgm", "--mask", "m.pgm", "--config", "c.json",
              "--out", "o.pfm"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_reconstruct_fixed_alpha_mirror_mode(tmp_path, capsys):
    # no dark band available: --alpha solves at the given volume directly
    # (0.40 is the mirror-dataset setting)
    m = disk_mask(30)
    cfg, image, mask = tmp_path / "cfg.json", tmp_path / "image.pgm", tmp_path / "mask.pgm"
    _write_config(cfg)
    formats.write_pnm(image, np.full(m.membership.shape, 0.5))
    formats.write_mask(mask, m)
    args = ["reconstruct", "--image", str(image), "--mask", str(mask), "--config", str(cfg)]
    out = tmp_path / "drop.pfm"
    assert main(args + ["--out", str(out), "--alpha", "0.40"]) == 0
    hf = formats.read_height_field(out)
    assert np.array_equal(hf.mask.membership, m.membership)
    assert volume_of(hf) == pytest.approx(initial_volume(m, 0.40), rel=1e-6)
    assert json.loads(out.with_suffix(".json").read_text())["alpha_est"] == 0.40
    capsys.readouterr()
    for alpha in ("0.9", "0.01"):
        assert main(args + ["--out", str(tmp_path / "bad.pfm"), "--alpha", alpha]) == 1
        assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("route", [["--alpha", "0.30"], ["--estimate-volume"]],
                         ids=["alpha", "estimate-volume"])
def test_reconstruct_empty_mask_names_the_mask_file(tmp_path, capsys, route):
    cfg, image, mask = tmp_path / "cfg.json", tmp_path / "image.pgm", tmp_path / "empty.pgm"
    _write_config(cfg)
    formats.write_pnm(image, np.full((20, 20), 0.5))
    formats.write_pnm(mask, np.zeros((20, 20)))
    assert main(["reconstruct", "--image", str(image), "--mask", str(mask), "--config", str(cfg),
                 "--out", str(tmp_path / "drop.pfm")] + route) == 1
    err = capsys.readouterr().err
    assert "empty.pgm" in err and "empty mask" in err, err


def test_stereo_drop_with_no_transmitted_pixels_names_the_drop(tmp_path, capsys):
    # the second drop is one steep two-pixel step: both pixels totally reflect
    m = disk_mask(20, shape=(60, 100), center=(30.0, 30.0))
    steep = np.zeros((60, 100), dtype=bool)
    steep[30, 70:72] = True
    z = np.zeros((60, 100))
    z[30, 71] = 50.0
    cfg, image = tmp_path / "cfg.json", tmp_path / "image.pgm"
    lit, dark = tmp_path / "lit.pfm", tmp_path / "dark.pfm"
    _write_config(cfg)
    formats.write_pnm(image, np.full((60, 100), 0.5))
    formats.write_height_field(lit, HeightField(m, cap_field(m, initial_volume(m, 0.30))))
    formats.write_height_field(dark, HeightField(DropMask(steep), z))
    assert main(["stereo", "--image", str(image), "--drops", f"{lit},{dark}",
                 "--config", str(cfg), "--out", str(tmp_path / "stereo")]) == 1
    err = capsys.readouterr().err
    assert "drop 1 has no valid transmitted pixels" in err, err


def _stereo_inputs(run, tmp_path):
    """The pipeline run's image and drops as the stereo command reads them,
    with its config and the command line that runs on them."""
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    image = RasterGray(formats.read_pnm(run["image"]))
    fields = [formats.read_height_field(path) for path in run["drops"]]
    argv = ["stereo", "--image", str(run["image"]), "--drops", ",".join(map(str, run["drops"])),
            "--config", str(cfg)]
    return image, fields, formats.read_config(cfg).optics, argv


def test_stereo_correspondence_file_route(pipeline_runs, tmp_path):
    # the kept correspondences of an in-process run, written to a file: the
    # command triangulates the rows it reads back into the in-process result
    run, _ = pipeline_runs
    image, fields, optics, argv = _stereo_inputs(run, tmp_path)
    matched = depth_from_drops(image, fields, optics)
    corr = tmp_path / "corr.csv"
    formats.write_correspondences(corr, matched.correspondences)
    assert formats.read_correspondences(corr) == list(matched.correspondences)
    out = tmp_path / "stereo"
    assert main(argv + ["--out", str(out), "--correspondences", str(corr)]) == 0
    assert (out / "correspondences.csv").read_bytes() == corr.read_bytes()
    with open(out / "points.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["x", "y", "z", "residual", "valid"]
    got = np.array([[float(v) for v in r[:4]] + [int(r[4])] for r in rows])
    assert got[:, :3].tobytes() == np.array(matched.points).tobytes()
    assert got[:, 3].tobytes() == matched.residuals.tobytes()
    assert got[:, 4].tobytes() == matched.valid.astype(float).tobytes()
    stats = json.loads((out / "residuals.json").read_text())
    assert stats["median_residual"] == float(np.median(matched.residuals))
    assert stats["valid_points"] == int(matched.valid.sum())
    for k, (hf, dm) in enumerate(zip(fields, matched.depth_maps)):
        got = formats.read_pfm(out / f"depth_{k}.pfm")
        assert np.isfinite(got).sum() >= 10
        assert got.tobytes() == hf.mask.box.paste(dm, np.nan).astype(np.float32).tobytes()


def test_stereo_replays_its_correspondences_exactly(pipeline_runs, tmp_path):
    # the pipeline's stereo run wrote the matches it triangulated; replaying
    # that file writes every output again, byte for byte
    run, _ = pipeline_runs
    *_, argv = _stereo_inputs(run, tmp_path)
    replay = tmp_path / "replay"
    assert main(argv + ["--out", str(replay), "--correspondences",
                        str(run["stereo"] / "correspondences.csv")]) == 0
    names = ["correspondences.csv", "points.csv", "residuals.json"]
    names += [f"depth_{k}.pfm" for k in range(len(run["drops"]))]
    assert sorted(p.name for p in replay.iterdir()) == sorted(names)
    for name in names:
        assert (replay / name).read_bytes() == (run["stereo"] / name).read_bytes(), name


def test_stereo_empty_correspondence_file_names_the_file(pipeline_runs, tmp_path, capsys):
    run, _ = pipeline_runs
    image, fields, optics, argv = _stereo_inputs(run, tmp_path)
    corr = tmp_path / "none.csv"
    formats.write_correspondences(corr, [])
    assert main(argv + ["--out", str(tmp_path / "stereo"), "--correspondences", str(corr)]) == 1
    err = capsys.readouterr().err
    assert f"{corr}: no correspondences" in err, err
    # in-process, an empty list is too few matches
    with pytest.raises(InsufficientMatches, match="no correspondences"):
        depth_from_drops(image, fields, optics, correspondences=[])


def test_stereo_correspondence_naming_an_unknown_drop_names_the_file(pipeline_runs, tmp_path,
                                                                     capsys):
    # a replayed row that names a drop ``--drops`` does not list fails with
    # the file's name, as the reader's own errors do
    run, _ = pipeline_runs
    image, fields, optics, argv = _stereo_inputs(run, tmp_path)
    row = depth_from_drops(image, fields, optics).correspondences[0]
    corr = tmp_path / "corr.csv"
    formats.write_correspondences(corr, [replace(row, drop_b=5)])
    assert main(argv + ["--out", str(tmp_path / "stereo"), "--correspondences", str(corr)]) == 1
    err = capsys.readouterr().err
    assert f"{corr}: correspondence names unknown drop 5" in err, err


def test_rectify_rejects_non_finite_plane_depth(tmp_path, capsys):
    m = disk_mask(20)
    cfg, image, drop = tmp_path / "cfg.json", tmp_path / "image.pgm", tmp_path / "drop.pfm"
    _write_config(cfg)
    formats.write_pnm(image, np.full(m.membership.shape, 0.5))
    formats.write_height_field(drop, HeightField(m, cap_field(m, initial_volume(m, 0.30))))
    for depth in ("nan", "inf"):
        assert main(["rectify", "--image", str(image), "--drop", str(drop), "--config", str(cfg),
                     "--plane-depth", depth, "--out", str(tmp_path / "rect.pgm")]) == 1
        assert "depth" in capsys.readouterr().err


def test_eval_normalize_by_depth(tmp_path):
    truth = np.full((20, 20), 1000.0, dtype=np.float32)
    pred = truth + 10.0
    formats.write_pfm(tmp_path / "t.pfm", truth)
    formats.write_pfm(tmp_path / "p.pfm", pred)
    out = tmp_path / "r.json"
    assert main(["eval", "--pred", str(tmp_path / "p.pfm"), "--truth", str(tmp_path / "t.pfm"),
                 "--out", str(out), "--normalize", "depth"]) == 0
    report = json.loads(out.read_text())
    assert report["rms_pct"] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("median", [0.0, -1000.0], ids=["zero", "negative"])
def test_eval_normalize_by_depth_rejects_non_positive_median(tmp_path, capsys, median):
    truth = np.full((20, 20), median, dtype=np.float32)
    formats.write_pfm(tmp_path / "t.pfm", truth)
    formats.write_pfm(tmp_path / "p.pfm", truth + 10.0)
    assert main(["eval", "--pred", str(tmp_path / "p.pfm"), "--truth", str(tmp_path / "t.pfm"),
                 "--out", str(tmp_path / "r.json"), "--normalize", "depth"]) == 1
    err = capsys.readouterr().err
    assert "t.pfm" in err and "depth" in err, err
    assert not (tmp_path / "r.json").exists()


def test_pipeline_estimate_volume_route(pipeline_runs, tmp_path, capsys):
    # the paper's route: the volume of each detected drop comes from its dark
    # band, not from a given alpha
    run, _ = pipeline_runs
    image = run["image"]
    cfg = tmp_path / "cfg.json"
    _write_config(cfg)
    drops = []
    for k, mask in enumerate(sorted(run["masks"].glob("mask_*.pgm"))):
        out = tmp_path / f"drop_{k}.pfm"
        assert main(["reconstruct", "--image", str(image), "--mask", str(mask),
                     "--config", str(cfg), "--out", str(out), "--estimate-volume"]) == 0
        report = json.loads(out.with_suffix(".json").read_text())
        n = report["outer_updates"]
        assert len(report["solve_sweeps"]) == len(report["sampled_history"]) \
            == len(report["volume_history"]) == n
        assert report["target"] > 0.0
        # the top-level solve fields are the chosen probe's own
        sampled = report["sampled_history"]
        chosen = min(range(n), key=lambda j: abs(sampled[j] - report["target"]))
        assert report["iterations"] == report["solve_sweeps"][chosen]
        area = formats.read_mask(mask).area
        assert report["alpha_est"] * area**1.5 == pytest.approx(report["volume_history"][chosen],
                                                                rel=1e-12)
        assert f"sweeps={sum(report['solve_sweeps'])} in" in capsys.readouterr().out
        drops.append((out, report["alpha_est"]))

    stereo = tmp_path / "depth"
    assert main(["stereo", "--image", str(image), "--drops", ",".join(str(d) for d, _ in drops),
                 "--config", str(cfg), "--out", str(stereo)]) == 0
    stats = json.loads((stereo / "residuals.json").read_text())
    assert stats["valid_points"] >= 8
    assert abs(stats["median_depth"] - 2000.0) / 2000.0 <= 0.05

    for k, (drop, alpha) in enumerate(drops):
        out = tmp_path / f"eval_{k}.json"
        assert main(["eval", "--pred", str(drop), "--truth",
                     str(run["synth"] / f"height_{k}.pfm"), "--out", str(out)]) == 0
        rms_pct = json.loads(out.read_text())["rms_pct"]
        with capsys.disabled():
            print(f"\n    drop {k}: alpha {alpha:.4f} (error {100 * abs(alpha - 0.30) / 0.30:.1f}% "
                  f"of the true 0.30), height rms {rms_pct:.2f}% of diameter")
        assert rms_pct <= 3.0
