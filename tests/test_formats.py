import json
import tracemalloc

import numpy as np
import pytest

from dropstereo import Correspondence, DomainError, DropMask, HeightField, disk_mask
from dropstereo.formats import (DetectParams, PipelineConfig, VolumeLoopParams,
                                read_config, read_correspondences, read_height_field, read_mask,
                                read_pfm, read_pnm, write_config, write_correspondences,
                                write_height_field, write_mask, write_pfm, write_pnm)


# --- PGM / PPM ---------------------------------------------------------------


def test_pgm_known_bytes_round_trip(tmp_path):
    img = np.array([[0, 85], [170, 255]]) / 255.0
    p = tmp_path / "t.pgm"
    write_pnm(p, img)
    assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
    assert np.array_equal(read_pnm(p), img)


def test_ppm_color_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.round(rng.uniform(0, 1, (5, 7, 3)) * 255) / 255.0
    p = tmp_path / "t.ppm"
    write_pnm(p, img)
    again = read_pnm(p)
    assert again.shape == (5, 7, 3)
    assert np.array_equal(again, img)
    # byte-exact determinism
    write_pnm(tmp_path / "t2.ppm", again)
    assert (tmp_path / "t2.ppm").read_bytes() == p.read_bytes()


def test_mask_pgm_round_trip(tmp_path):
    m = np.zeros((6, 6), dtype=bool)
    m[2:5, 2:5] = True
    p = tmp_path / "m.pgm"
    write_mask(p, DropMask(m))
    assert np.array_equal(read_mask(p).membership, m)


def test_pnm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DomainError, match="maxval"):
        read_pnm(p)


def test_pnm_rejects_unknown_magic(tmp_path):
    p = tmp_path / "bad.pnm"
    p.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(DomainError, match="magic"):
        read_pnm(p)


def test_pnm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DomainError, match="payload"):
        read_pnm(p)


def test_pnm_rejects_nonpositive_size(tmp_path):
    p = tmp_path / "neg.pgm"
    for header in (b"P5\n-3 2\n255\n", b"P5\n0 2\n255\n", b"P5\n3 0\n255\n"):
        p.write_bytes(header + bytes(6))
        with pytest.raises(DomainError, match="size"):
            read_pnm(p)


def test_pnm_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
    img = read_pnm(p)
    assert img.shape == (1, 2)


# --- PFM ----------------------------------------------------------------------


def test_pfm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(9, 5)).astype(np.float32)
    p = tmp_path / "f.pfm"
    write_pfm(p, arr)
    again = read_pfm(p)
    assert again.dtype == np.float32
    assert np.array_equal(again, arr)


def test_pfm_preserves_nan(tmp_path):
    arr = np.array([[1.0, np.nan], [np.nan, 4.0]], dtype=np.float32)
    p = tmp_path / "n.pfm"
    write_pfm(p, arr)
    again = read_pfm(p)
    assert np.isnan(again[0, 1]) and np.isnan(again[1, 0])
    assert again[0, 0] == 1.0 and again[1, 1] == 4.0


def test_pfm_rejects_big_endian(tmp_path):
    p = tmp_path / "be.pfm"
    p.write_bytes(b"Pf\n2 1\n1.0\n" + bytes(8))
    with pytest.raises(DomainError, match="big-endian"):
        read_pfm(p)


def test_pfm_rejects_color(tmp_path):
    p = tmp_path / "col.pfm"
    p.write_bytes(b"PF\n1 1\n-1.0\n" + bytes(12))
    with pytest.raises(DomainError, match="grayscale"):
        read_pfm(p)


def test_pfm_rejects_nonpositive_size(tmp_path):
    p = tmp_path / "neg.pfm"
    for header in (b"Pf\n-1 2\n-1.0\n", b"Pf\n0 2\n-1.0\n", b"Pf\n3 -2\n-1.0\n"):
        p.write_bytes(header + np.zeros(6, dtype="<f4").tobytes())
        with pytest.raises(DomainError, match="size"):
            read_pfm(p)


def test_height_field_pfm_round_trip(tmp_path):
    m = np.zeros((8, 8), dtype=bool)
    m[2:6, 2:7] = True
    rng = np.random.default_rng(2)
    z = np.where(m, rng.uniform(0.5, 4.0, (8, 8)).astype(np.float32), 0.0)
    hf = HeightField(DropMask(m), z)
    p = tmp_path / "h.pfm"
    write_height_field(p, hf)
    again = read_height_field(p)
    assert np.array_equal(again.mask.membership, m)
    assert np.abs(again.z - hf.z).max() <= 1e-6


def test_height_field_pfm_rejects_infinite_heights(tmp_path):
    # NaN marks a non-member pixel; an infinite height is a corrupt file, not
    # a hole in the drop
    p = tmp_path / "h.pfm"
    for hole in (np.s_[3, 4], np.s_[2, :]):
        for sign in (1.0, -1.0):
            z = np.full((8, 8), np.nan, dtype=np.float32)
            z[2:6, 2:6] = 1.5
            z[hole] = sign * np.inf
            write_pfm(p, z)
            with pytest.raises(DomainError, match="h.pfm"):
                read_height_field(p)


def test_mask_reader_names_the_file(tmp_path):
    grid = np.zeros((9, 9))
    grid[1, 1] = grid[7, 7] = 1.0
    p = tmp_path / "two.pgm"
    write_pnm(p, grid)
    with pytest.raises(DomainError, match=r"two\.pgm: mask must be a single 4-connected "
                                          r"component, found 2"):
        read_mask(p)


def test_height_field_reader_names_the_file(tmp_path):
    p = tmp_path / "h.pfm"
    z = np.full((8, 8), np.nan, dtype=np.float32)
    z[2:6, 2:6] = 1.5
    z[3, 3] = -2.0
    write_pfm(p, z)
    with pytest.raises(DomainError, match=r"h\.pfm: heights must be non-negative"):
        read_height_field(p)
    z[3, 3] = 1.5
    z[3, :] = np.nan  # two pieces
    write_pfm(p, z)
    with pytest.raises(DomainError, match=r"h\.pfm: mask must be a single 4-connected"):
        read_height_field(p)


def test_drop_writers_on_a_large_raster_peak_below_their_old_copies(tmp_path):
    # one r=58 drop on a 1500 x 2000 raster: the mask PGM scales, rounds and
    # clips in one float buffer (at most 2.2 float rasters, 2.125 measured),
    # and the height PFM pastes a float32 payload built on the box and
    # writes it with no further copy (at most 0.6, 0.503 measured); the
    # bytes are those of the format written from the raster views
    shape = (1500, 2000)
    m = disk_mask(58, shape=shape, center=(600.0, 1200.0))
    hf = HeightField(m, np.where(m.inside, np.linspace(0.5, 9.0, m.inside.size).reshape(
        m.inside.shape), 0.0))
    raster_bytes = 8 * shape[0] * shape[1]
    for write, record, name in ((write_mask, m, "m.pgm"), (write_height_field, hf, "h.pfm")):
        tracemalloc.start()
        try:
            write(tmp_path / name, record)
            peak = tracemalloc.get_traced_memory()[1] / raster_bytes
        finally:
            tracemalloc.stop()
        assert peak <= (2.2 if name == "m.pgm" else 0.6), (name, peak)
    header = b"P5\n%d %d\n255\n" % (shape[1], shape[0])
    assert (tmp_path / "m.pgm").read_bytes() == \
        header + (m.membership * 255).astype(np.uint8).tobytes()
    payload = np.where(m.membership, hf.z, np.nan).astype("<f4")
    assert (tmp_path / "h.pfm").read_bytes() == \
        b"Pf\n%d %d\n-1.0\n" % (shape[1], shape[0]) + np.flipud(payload).tobytes()


# --- config -------------------------------------------------------------------


def test_config_defaults_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    write_config(p, PipelineConfig())
    cfg = read_config(p)
    assert cfg == PipelineConfig()


def test_config_missing_n_water_names_field(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"optics": {"camera_z": 300.0}}))
    with pytest.raises(DomainError, match="n_water"):
        read_config(p)


def test_config_missing_or_non_object_section_names_file_and_section(tmp_path):
    p = tmp_path / "cfg.json"
    optics = {"n_water": 1.33, "camera_z": 300.0}
    for doc, section in (({"solver": {}}, "optics"),
                         ({"optics": optics, "solver": [1]}, "solver"),
                         ({"optics": optics, "detect": None}, "detect"),
                         ({"optics": 3}, "optics")):
        p.write_text(json.dumps(doc))
        with pytest.raises(DomainError) as exc:
            read_config(p)
        msg = str(exc.value)
        assert f"'{section}'" in msg and "cfg.json" in msg, msg


def test_config_unknown_keys_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    for section, key, value in [("optics", "bogus", 1),
                                # algorithm constants, not settable
                                ("optics", "pixel_pitch", 6.0e-6),
                                ("optics", "n_air", 1.0),
                                ("optics", "tension_weight", 1.0),
                                ("optics", "band_halfwidth", 0.06),
                                ("solver", "tau", 0.5),
                                ("volume_loop", "min_ring_pixels", 8),
                                ("volume_loop", "tau_r", 0.5),
                                ("volume_loop", "rel_volume_tol", 1e-3),
                                ("volume_loop", "alpha_min", 0.05),
                                ("volume_loop", "alpha_max", 0.60),
                                ("detect", "closing_radius", 5),
                                ("detect", "solidity_min", 0.85)]:
        doc = {"optics": {"n_water": 1.33, "camera_z": 300.0}}
        doc.setdefault(section, {})[key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(DomainError, match=key):
            read_config(p)
    p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300.0}, "extra": {}}))
    with pytest.raises(DomainError, match="extra"):
        read_config(p)


def test_config_wrong_value_types_name_section_field_and_file(tmp_path):
    p = tmp_path / "cfg.json"
    for section, key, value in [("optics", "gravity_weight", "0.1"),
                                ("optics", "camera_z", "300"),
                                ("detect", "min_diameter", "80"),
                                ("optics", "principal_point", ["a", 2]),
                                ("solver", "max_iters", 10.5),
                                ("volume_loop", "max_outer_updates", True)]:
        doc = {"optics": {"n_water": 1.33, "camera_z": 300.0}}
        doc.setdefault(section, {})[key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(DomainError) as exc:
            read_config(p)
        msg = str(exc.value)
        assert section in msg and key in msg and "cfg.json" in msg, msg
    # integers are numbers, lists become tuples, and an optional field takes null
    p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300,
                                        "principal_point": [3, 4.5]},
                             "detect": {"min_diameter": 80}}))
    cfg = read_config(p)
    assert cfg.optics.camera_z == 300 and cfg.optics.principal_point == (3, 4.5)
    assert cfg.detect.min_diameter == 80


def test_config_alpha_out_of_range_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300.0},
                             "volume_loop": {"alpha_init": 0.7}}))
    with pytest.raises(DomainError, match="alpha"):
        read_config(p)
    with pytest.raises(DomainError):
        VolumeLoopParams(alpha_init=0.01)


def test_config_gravity_cosines_need_three_components(tmp_path):
    # [0, 1] has unit norm, but the solver unpacks three cosines
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300.0,
                                        "gravity_cosines": [0, 1]}}))
    with pytest.raises(DomainError, match="three"):
        read_config(p)


def test_config_principal_point_and_nan_values_rejected(tmp_path):
    # [1.0] later failed with an IndexError and a third value was dropped;
    # NaN fails no plain comparison, so a NaN gravity passed
    p = tmp_path / "cfg.json"
    nan = float("nan")
    for optics, field in (({"principal_point": [1.0]}, "principal_point"),
                          ({"principal_point": [1.0, 2.0, 3.0]}, "principal_point"),
                          ({"principal_point": [nan, 2.0]}, "principal_point"),
                          ({"gravity_cosines": [nan, 0.0, 1.0]}, "gravity")):
        p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300.0, **optics}}))
        with pytest.raises(DomainError, match=field):
            read_config(p)


def test_config_bad_solver_weights_name_section_and_field(tmp_path):
    p = tmp_path / "cfg.json"
    for key, value in (("gravity_weight", -1.0), ("gravity_weight", 1e400),
                       ("gravity_weight", 10**400)):
        p.write_text(json.dumps({"optics": {"n_water": 1.33, "camera_z": 300.0, key: value}}))
        with pytest.raises(DomainError) as exc:
            read_config(p)
        msg = str(exc.value)
        assert "'optics'" in msg and key in msg and "cfg.json" in msg, msg


def test_config_non_finite_values_name_section_and_field(tmp_path):
    # Python's json reads the NaN and Infinity literals; the camera is a
    # pinhole at a finite distance, so camera_z is finite too
    p = tmp_path / "cfg.json"
    for section, key in (("optics", "n_water"), ("optics", "camera_z"),
                         ("solver", "convergence_rel"), ("detect", "min_diameter")):
        for value in (float("nan"), float("inf")):
            doc = {"optics": {"n_water": 1.33, "camera_z": 300.0}}
            doc.setdefault(section, {})[key] = value
            p.write_text(json.dumps(doc))
            with pytest.raises(DomainError) as exc:
                read_config(p)
            msg = str(exc.value)
            assert f"'{section}'" in msg and key in msg and "cfg.json" in msg, msg


def test_detect_params_validation():
    with pytest.raises(DomainError):
        DetectParams(low_percentile=95.0, high_percentile=90.0)


# --- correspondences -----------------------------------------------------------


_HEADER = "drop_a,i_a,j_a,u_a,v_a,drop_b,i_b,j_b,u_b,v_b,score"


def test_correspondence_round_trip(tmp_path):
    records = [Correspondence(0, 1, (1.5, 2.25), (3.0, 4.125), 0.875, (0.1, -0.2), (0.3, 0.4)),
               Correspondence(0, 1, (10.0, 20.0), (11.5, 21.5), 1.0, (1 / 3, 2e-17), (-0.7, 0.0)),
               Correspondence(1, 2, (5.0, 6.0), (7.0, 8.0), 0.0, (0.0, 0.0), (0.125, 0.5))]
    p = tmp_path / "c.csv"
    write_correspondences(p, records)
    assert p.read_text().splitlines()[0] == _HEADER
    assert read_correspondences(p) == records
    # a record has no default angles
    with pytest.raises(TypeError):
        Correspondence(0, 1, (1.0, 2.0), (3.0, 4.0), 0.9)


def test_correspondence_malformed_row_reports_line(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(f"{_HEADER}\n0,1,2,0.1,0.2,1,3,4,0.3\n")
    with pytest.raises(DomainError, match="c.csv:2: expected 11 fields, got 9"):
        read_correspondences(p)


@pytest.mark.parametrize("column", ["i_a", "j_a", "u_a", "v_a", "i_b", "j_b", "u_b", "v_b"])
def test_correspondence_non_finite_pixel_or_angle_reports_line(tmp_path, column):
    good = "0,1,2,0.1,0.2,1,3,4,0.3,0.4,0.9"
    p = tmp_path / "c.csv"
    for value in ("nan", "inf", "-inf"):
        row = good.split(",")
        row[_HEADER.split(",").index(column)] = value
        p.write_text(f"{_HEADER}\n{good}\n{','.join(row)}\n")
        with pytest.raises(DomainError, match="c.csv:3: pixels and angles must be finite"):
            read_correspondences(p)


def test_correspondence_score_range_enforced(tmp_path):
    p = tmp_path / "c.csv"
    for score in ("1.5", "-0.25", "nan"):
        p.write_text(f"{_HEADER}\n0,1,2,0.1,0.2,1,3,4,0.3,0.4,{score}\n")
        with pytest.raises(DomainError, match=f"c.csv:2: score {score} outside"):
            read_correspondences(p)


def test_correspondence_bad_header_rejected(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\n")
    with pytest.raises(DomainError, match="header"):
        read_correspondences(p)
    # the seven-column layout without angles is not read
    p.write_text("drop_a,i_a,j_a,drop_b,i_b,j_b,score\n0,1,2,1,3,4,0.5\n")
    with pytest.raises(DomainError, match="c.csv: bad header"):
        read_correspondences(p)
