"""Scene descriptions for the synthetic renderer: JSON loading, procedural
textures, and drop placement specs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .core import DropMask
from .errors import DomainError
from .formats import _build, _read_json_object, read_pnm
from .masks import blob_mask
from .raytrace import ScenePlane, SceneSpec


def make_texture(kind: str, size: int = 256, period: int = 16, seed: int = 0,
                 low: float = 0.1, high: float = 0.9) -> np.ndarray:
    """Procedural grayscale texture: 'checker', 'noise', or 'stripes'."""
    if size < 2 or period < 1:
        raise DomainError("texture size and period must be positive")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
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

    def __post_init__(self):
        if len(self.center) != 2 or not np.isfinite(self.center).all():
            raise DomainError(f"field 'center' must hold two finite numbers, "
                              f"got {list(self.center)!r}")
        if self.radius < 1:
            raise DomainError("radius must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError("alpha must be finite and positive")
        if not 0.0 <= self.irregularity < 0.5:
            raise DomainError("irregularity must be in [0, 0.5)")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")

    def build_mask(self, shape: tuple[int, int]) -> DropMask:
        # at irregularity 0 the blob is the disk of the same radius, bit for bit
        return blob_mask(self.radius, shape, self.center, self.irregularity, self.seed)


def _objects(items: Any, where: str) -> list[dict]:
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise DomainError(f"{where} must be a list of objects")
    return items


def _load_texture(spec: Any, base_dir: Path, where: str) -> np.ndarray:
    if isinstance(spec, str):
        file = base_dir / spec
        if not file.is_file():
            raise DomainError(f"{where}: file not found: {file}")
        tex = read_pnm(file)
        return tex if tex.ndim == 2 else tex.mean(axis=2)
    if isinstance(spec, dict):
        return _build(make_texture, spec, where)
    raise DomainError(f"{where}: plane texture must be a file path or a generator object")


def read_scene(path: str | Path) -> tuple[SceneSpec, list[DropSpec]]:
    """Load a scene JSON: raster size, planes, and optional synthetic drops.
    Each object's keys, defaults and types are those of the record it builds
    (``SceneSpec``, ``ScenePlane``, ``make_texture``, ``DropSpec``), read as
    ``read_config`` reads a section."""
    path = Path(path)
    doc = _read_json_object(path, "scene")
    drops = _objects(doc.pop("drops", []), f"{path}: field 'drops'")

    def plane(k: int, obj: dict) -> ScenePlane:
        at = f"{path}: planes[{k}]"
        return _build(ScenePlane, obj, at, texture=lambda spec: _load_texture(
            spec, path.parent, f"{at}: texture"))

    scene = _build(SceneSpec, doc, str(path), planes=lambda items: tuple(
        plane(k, obj) for k, obj in enumerate(_objects(items, f"{path}: field 'planes'"))))
    return scene, [_build(DropSpec, obj, f"{path}: drops[{k}]") for k, obj in enumerate(drops)]
