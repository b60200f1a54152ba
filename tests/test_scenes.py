import json

import pytest

from dropstereo import DomainError
from dropstereo.scenes import read_scene


def _doc():
    return {
        "width": 64, "height": 48, "blur_radius": 2.0, "border": 0.5,
        "planes": [{"depth": 2000.0, "scale": 4.0, "offset": [1.0, -2.0], "x_min": None,
                    "texture": {"kind": "checker", "size": 16, "period": 4}}],
        "drops": [{"center": [20, 30.5], "radius": 8, "alpha": 0.30, "seed": 1}],
    }


def _write(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def test_read_scene_loads_typed_values(tmp_path):
    scene, drops = read_scene(_write(tmp_path, _doc()))
    assert (scene.width, scene.height, scene.blur_radius, scene.border) == (64, 48, 2.0, 0.5)
    (plane,) = scene.planes
    assert plane.depth == 2000.0 and plane.offset == (1.0, -2.0) and plane.x_min is None
    assert plane.texture.shape == (16, 16)
    (drop,) = drops
    assert drop.center == (20, 30.5) and drop.radius == 8 and drop.seed == 1


@pytest.mark.parametrize("where, value, field", [
    (("width",), 64.7, "width"),
    (("border",), "x", "border"),
    (("planes",), {"depth": 2000.0}, "planes"),
    (("drops",), {"center": [20, 30], "radius": 8}, "drops"),
    (("planes", 0, "depth"), "2000", "depth"),
    (("planes", 0, "offset"), [1.0, 2.0, 3.0], "offset"),
    (("planes", 0, "x_max"), "right", "x_max"),
    (("planes", 0, "texture", "size"), "16", "size"),
    (("drops", 0, "radius"), 8.9, "radius"),
    (("drops", 0, "center"), [20], "center"),
    (("drops", 0, "center"), "ab", "center"),
    (("drops", 0, "alpha"), True, "alpha"),
], ids=["width_float", "border_string", "planes_object", "drops_object", "depth_string",
        "offset_three", "x_max_string", "texture_size_string", "radius_float",
        "center_one", "center_string", "alpha_bool"])
def test_read_scene_wrong_type_names_file_and_field(tmp_path, where, value, field):
    doc = _doc()
    obj = doc
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    with pytest.raises(DomainError) as exc:
        read_scene(_write(tmp_path, doc))
    msg = str(exc.value)
    assert "scene.json" in msg and f"'{field}'" in msg, msg
