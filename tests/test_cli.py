import json

import numpy as np
import pytest

from dropstereo import disk_mask, formats, initial_volume, volume_of
from dropstereo.cli import main

from conftest import _write_config


def test_full_pipeline_emits_all_artifacts(pipeline_runs):
    run, _ = pipeline_runs
    assert (run["synth"] / "image.pgm").is_file()
    for k in range(2):
        assert (run["synth"] / f"height_{k}.pfm").is_file()
        assert (run["synth"] / f"mask_{k}.pgm").is_file()
        assert (run["synth"] / f"depth_truth_{k}.pfm").is_file()
        assert (run["stereo"] / f"depth_{k}.pfm").is_file()
    assert (run["stereo"] / "points.csv").is_file()
    assert (run["stereo"] / "residuals.json").is_file()
    assert run["rect"].is_file() and run["rect"].with_suffix(".json").is_file()


def test_pipeline_stereo_depth_sane(pipeline_runs):
    run, _ = pipeline_runs
    stats = json.loads((run["stereo"] / "residuals.json").read_text())
    assert stats["valid_points"] >= 8
    assert abs(stats["median_depth"] - 2000.0) / 2000.0 <= 0.05


def test_pipeline_eval_report(pipeline_runs):
    run, _ = pipeline_runs
    report = json.loads(run["eval"].read_text())
    assert report["normalize_by"] == "diameter"
    assert report["n_valid"] > 5000
    # reconstruction at the true volume on a detected mask stays tight
    assert report["rms_pct"] <= 3.0


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


def test_alpha_and_estimate_volume_conflict(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--image", "x.pgm", "--mask", "m.pgm", "--config", "c.json",
              "--out", "o.pfm", "--alpha", "0.3", "--estimate-volume"])
    assert exc.value.code == 2


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
