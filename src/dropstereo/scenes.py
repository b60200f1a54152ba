"""Scene descriptions for the synthetic renderer: JSON loading, procedural
textures, and drop placement specs."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np

from .core import DropMask
from .errors import DomainError
from .formats import _typed, read_pnm
from .masks import blob_mask, disk_mask
from .raytrace import ScenePlane, SceneSpec


def make_texture(kind: str, size: int = 256, period: int = 16, seed: int = 0,
                 low: float = 0.1, high: float = 0.9) -> np.ndarray:
    """Procedural grayscale texture: 'checker', 'noise', or 'stripes'."""
    if size < 2 or period < 1:
        raise DomainError("texture size and period must be positive")
    if kind == "checker":
        ii, jj = np.mgrid[0:size, 0:size]
        cells = ((ii // period) + (jj // period)) % 2
        return np.where(cells == 0, low, high)
    if kind == "stripes":
        jj = np.arange(size)
        col = np.where((jj // period) % 2 == 0, low, high)
        return np.tile(col, (size, 1))
    if kind == "noise":
        rng = np.random.default_rng(seed)
        cells = -(-size // period)  # ceil
        coarse = rng.uniform(low, high, size=(cells, cells))
        return np.kron(coarse, np.ones((period, period)))[:size, :size]
    raise DomainError(f"unknown texture kind '{kind}'")


@dataclass(frozen=True)
class DropSpec:
    """Placement and volume of one synthetic drop."""

    center: tuple[float, float]  # (i, j)
    radius: int
    alpha: float = 0.30
    irregularity: float = 0.0
    seed: int = 0

    def build_mask(self, shape: tuple[int, int]) -> DropMask:
        if self.irregularity > 0:
            return blob_mask(self.radius, shape, self.center, self.irregularity, self.seed)
        return disk_mask(self.radius, shape, self.center)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DomainError(f"{where}: unknown keys {unknown}")


def _field(obj: dict, key: str, hint, where: str, default=None):
    """``obj[key]`` checked as a field of type ``hint``, or ``default`` when
    the key is absent."""
    if key not in obj:
        return default
    return _typed(obj[key], hint, f"{where}: field '{key}'")


def _pair(obj: dict, key: str, where: str, default=None):
    """``obj[key]`` as a tuple of exactly two numbers."""
    value = _field(obj, key, tuple, where, default)
    if value is not None and len(value) != 2:
        raise DomainError(f"{where}: field '{key}' must hold two numbers, got {list(value)!r}")
    return value


def _objects(doc: dict, key: str, where: str) -> list[dict]:
    """The list of JSON objects under ``key``; empty when the key is absent."""
    items = doc.get(key, [])
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise DomainError(f"{where}: field '{key}' must be a list of objects")
    return items


def _load_texture(spec: Any, base_dir: Path, where: str) -> np.ndarray:
    if isinstance(spec, str):
        tex = read_pnm(base_dir / spec)
        return tex if tex.ndim == 2 else tex.mean(axis=2)
    if isinstance(spec, dict):
        hints = get_type_hints(make_texture)
        _check_keys(spec, set(hints) - {"return"}, where)
        if "kind" not in spec:
            raise DomainError(f"{where}: missing required field 'kind'")
        return make_texture(**{key: _field(spec, key, hints[key], where) for key in spec})
    raise DomainError(f"{where}: plane texture must be a file path or a generator object")


def read_scene(path: str | Path) -> tuple[SceneSpec, list[DropSpec]]:
    """Load a scene JSON: raster size, planes, and optional synthetic drops.
    Each value must have its field's type, as in ``read_config``."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: scene must be a JSON object")
    where = str(path)
    _check_keys(doc, {"width", "height", "planes", "blur_radius", "ambient_leak",
                      "border", "drops"}, where)
    for key in ("width", "height", "planes"):
        if key not in doc:
            raise DomainError(f"{path}: missing required field '{key}'")
    planes = []
    for k, pd in enumerate(_objects(doc, "planes", where)):
        at = f"{path}: planes[{k}]"
        _check_keys(pd, {"depth", "texture", "scale", "offset", "x_min", "x_max"}, at)
        if "depth" not in pd or "texture" not in pd:
            raise DomainError(f"{at} needs 'depth' and 'texture'")
        planes.append(ScenePlane(
            depth=float(_field(pd, "depth", float, at)),
            texture=_load_texture(pd["texture"], path.parent, f"{at}: texture"),
            scale=float(_field(pd, "scale", float, at, 1.0)),
            offset=_pair(pd, "offset", at, (0.0, 0.0)),
            x_min=_field(pd, "x_min", float | None, at),
            x_max=_field(pd, "x_max", float | None, at),
        ))
    scene = SceneSpec(
        width=_field(doc, "width", int, where), height=_field(doc, "height", int, where),
        planes=tuple(planes),
        blur_radius=float(_field(doc, "blur_radius", float, where, 6.0)),
        ambient_leak=float(_field(doc, "ambient_leak", float, where, 0.02)),
        border=_field(doc, "border", float | None, where),
    )
    drops = []
    for k, dd in enumerate(_objects(doc, "drops", where)):
        at = f"{path}: drops[{k}]"
        _check_keys(dd, {"center", "radius", "alpha", "irregularity", "seed"}, at)
        if "center" not in dd or "radius" not in dd:
            raise DomainError(f"{at} needs 'center' and 'radius'")
        drops.append(DropSpec(
            center=_pair(dd, "center", at), radius=_field(dd, "radius", int, at),
            alpha=float(_field(dd, "alpha", float, at, 0.30)),
            irregularity=float(_field(dd, "irregularity", float, at, 0.0)),
            seed=_field(dd, "seed", int, at, 0),
        ))
    return scene, drops
