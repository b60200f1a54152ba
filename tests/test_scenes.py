import json
from dataclasses import MISSING, fields

import numpy as np
import pytest

from dropstereo import DomainError
from dropstereo.masks import blob_mask, disk_mask
from dropstereo.raytrace import ScenePlane, SceneSpec
from dropstereo.scenes import DropSpec, make_texture, read_scene

NAN, INF = float("nan"), float("inf")


def _doc():
    return {
        "width": 64, "height": 48, "blur_radius": 2.0,
        "planes": [{"depth": 2000.0, "scale": 4.0, "x_min": None,
                    "texture": {"kind": "checker", "size": 16, "period": 4}}],
        "drops": [{"center": [20, 30.5], "radius": 8, "alpha": 0.30, "seed": 1}],
    }


def _write(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def _doc_with(where, value):
    """``_doc()`` with ``value`` put at the key path ``where``."""
    doc = _doc()
    obj = doc
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    return doc


def _error(tmp_path, doc) -> str:
    with pytest.raises(DomainError) as exc:
        read_scene(_write(tmp_path, doc))
    return str(exc.value)


def test_read_scene_loads_typed_values(tmp_path):
    scene, drops = read_scene(_write(tmp_path, _doc()))
    assert (scene.width, scene.height, scene.blur_radius) == (64, 48, 2.0)
    (plane,) = scene.planes
    assert plane.depth == 2000.0 and plane.scale == 4.0 and plane.x_min is None
    assert plane.texture.shape == (16, 16)
    (drop,) = drops
    assert drop.center == (20, 30.5) and drop.radius == 8 and drop.seed == 1


@pytest.mark.parametrize("where, value, field", [
    (("width",), 64.7, "width"),
    (("planes",), {"depth": 2000.0}, "planes"),
    (("drops",), {"center": [20, 30], "radius": 8}, "drops"),
    (("planes", 0, "depth"), "2000", "depth"),
    (("planes", 0, "x_max"), "right", "x_max"),
    (("planes", 0, "texture", "size"), "16", "size"),
    (("drops", 0, "radius"), 8.9, "radius"),
    (("drops", 0, "center"), [20], "center"),
    (("drops", 0, "center"), "ab", "center"),
    (("drops", 0, "alpha"), True, "alpha"),
], ids=["width_float", "planes_object", "drops_object", "depth_string", "x_max_string",
        "texture_size_string", "radius_float", "center_one", "center_string", "alpha_bool"])
def test_read_scene_wrong_type_names_file_and_field(tmp_path, where, value, field):
    msg = _error(tmp_path, _doc_with(where, value))
    assert "scene.json" in msg and f"'{field}'" in msg, msg


@pytest.mark.parametrize("where, value, field", [
    (("planes", 0, "depth"), NAN, "depth"),
    (("planes", 0, "depth"), 10**400, "depth"),
    (("planes", 0, "scale"), INF, "scale"),
    (("planes", 0, "x_min"), NAN, "x_min"),
    (("planes", 0, "texture", "low"), NAN, "texture"),
    (("blur_radius",), NAN, "blur_radius"),
    (("drops", 0, "center"), [20, INF], "center"),
    (("drops", 0, "radius"), 0, "radius"),
    (("drops", 0, "alpha"), NAN, "alpha"),
    (("drops", 0, "alpha"), INF, "alpha"),
    (("drops", 0, "irregularity"), NAN, "irregularity"),
    (("planes", 0, "texture"), {"kind": "noise", "seed": -1}, "seed"),
    (("drops", 0, "seed"), -1, "seed"),
], ids=["depth_nan", "depth_huge_int", "scale_inf", "x_min_nan", "texture_low_nan",
        "blur_radius_nan", "center_inf", "radius_zero", "alpha_nan", "alpha_inf",
        "irregularity_nan", "texture_seed_negative", "drop_seed_negative"])
def test_read_scene_bad_value_names_file_and_field(tmp_path, where, value, field):
    # the record's own check rejects the value; the reader adds the file
    msg = _error(tmp_path, _doc_with(where, value))
    assert "scene.json" in msg and field in msg, msg


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def test_read_scene_omitted_values_take_the_class_defaults(tmp_path):
    doc = {"width": 64, "height": 48,
           "planes": [{"depth": 2000.0, "texture": {"kind": "checker"}}],
           "drops": [{"center": [20, 30], "radius": 8}]}
    scene, (drop,) = read_scene(_write(tmp_path, doc))
    (plane,) = scene.planes
    for record, cls in ((scene, SceneSpec), (plane, ScenePlane), (drop, DropSpec)):
        defaults = _defaults(cls)
        assert defaults
        for name, default in defaults.items():
            assert getattr(record, name) == default, (cls.__name__, name)
    assert np.array_equal(plane.texture, make_texture("checker"))


@pytest.mark.parametrize("where, value, field", [
    (("bogus",), 1, "bogus"),
    (("planes", 0, "bogus"), 1, "bogus"),
    (("planes", 0, "texture", "bogus"), 1, "bogus"),
    (("drops", 0, "bogus"), 1, "bogus"),
    (("border",), 0.5, "border"),
    (("planes", 0, "offset"), [1.0, -2.0], "offset"),
    (("planes",), [], "plane"),
    (("planes", 0), {"depth": 2000.0}, "texture"),
    (("planes", 0, "texture"), {"size": 16}, "kind"),
    (("drops", 0), {"center": [20, 30]}, "radius"),
], ids=["top_unknown", "plane_unknown", "texture_unknown", "drop_unknown", "border_unknown",
        "offset_unknown", "planes_empty", "plane_no_texture", "texture_no_kind",
        "drop_no_radius"])
def test_read_scene_unknown_or_missing_key_names_file(tmp_path, where, value, field):
    msg = _error(tmp_path, _doc_with(where, value))
    assert "scene.json" in msg and field in msg, msg


def test_read_scene_missing_texture_names_file_and_plane(tmp_path):
    doc = _doc()
    doc["planes"].append({"depth": 3000.0, "texture": "nope.pgm"})
    msg = _error(tmp_path, doc)
    assert "scene.json" in msg and "planes[1]" in msg, msg
    assert str(tmp_path / "nope.pgm") in msg, msg


@pytest.mark.parametrize("shape", [(48, 64), (130, 130), (61, 200)])
def test_round_blob_is_the_disk_bit_for_bit(shape):
    # DropSpec.build_mask draws every drop as a blob; at irregularity 0 the
    # blob must be the disk of the same radius, whatever the seed
    h, w = shape
    centres = [(h // 2, w // 2), (h / 2 - 0.37, w / 2 + 0.21), (1.5, w - 2.25)]
    for r in range(1, 61):
        for centre in centres:
            blob = blob_mask(r, shape, centre, 0.0, seed=r)
            disk = disk_mask(r, shape, centre)
            assert np.array_equal(blob.membership, disk.membership), (r, centre)


@pytest.mark.parametrize("size, period", [(64, 1), (64, 2), (64, 16), (100, 16), (7, 2)])
def test_noise_texture_equals_the_kronecker_upsampling(size, period):
    # each coarse cell fills a period x period block, cut to size where the
    # period does not divide it
    tex = make_texture("noise", size, period, seed=4, low=0.05, high=0.95)
    rng = np.random.default_rng(4)
    cells = -(-size // period)
    coarse = rng.uniform(0.05, 0.95, size=(cells, cells))
    want = np.kron(coarse, np.ones((period, period)))[:size, :size]
    assert tex.shape == (size, size)
    assert tex.tobytes() == want.tobytes()
