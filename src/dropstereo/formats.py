"""Bit-exact file I/O: PPM/PGM rasters, PFM float maps, JSON configs,
correspondence CSVs, and scene descriptions."""

from __future__ import annotations

import csv
import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .core import DropMask, HeightField, OpticalConfig
from .detect import DetectParams
from .errors import DomainError
from .solver import SolverParams
from .stereo import Correspondence
from .volume_loop import VolumeLoopParams


@contextmanager
def _prefixed(where: str | Path):
    """Prefix ``where`` to a ``DomainError`` raised in the block."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# PPM / PGM (binary P5 / P6, 8-bit, maxval 255)
# ---------------------------------------------------------------------------


def _read_pnm_header(data: bytes, path: str) -> tuple[bytes, int, int, int, int]:
    """Parse magic, width, height, maxval; returns payload offset too."""
    pos = 0
    tokens: list[bytes] = []
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DomainError(f"{path}: truncated PNM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    magic = tokens[0]
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed PNM header") from exc
    if width <= 0 or height <= 0:
        raise DomainError(f"{path}: PNM size {width}x{height} must be positive")
    return magic, width, height, maxval, pos


def read_pnm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) into floats in [0, 1].

    Returns (H, W) for P5 and (H, W, 3) for P6.  Only maxval 255 is
    supported.
    """
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _read_pnm_header(data, str(path))
    if magic not in (b"P5", b"P6"):
        raise DomainError(f"{path}: unsupported PNM magic {magic!r} (need P5 or P6)")
    if maxval != 255:
        raise DomainError(f"{path}: unsupported maxval {maxval} (need 255)")
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    if len(data) - offset < count:
        raise DomainError(f"{path}: payload has {len(data) - offset} bytes, expected {count}")
    raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)
    img = raw.astype(float) / 255.0
    return img.reshape(height, width) if channels == 1 else img.reshape(height, width, 3)


def write_pnm(path: str | Path, image: np.ndarray) -> None:
    """Write floats in [0, 1] as binary P5 (2D input) or P6 (H, W, 3)."""
    img = np.asarray(image, dtype=float)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise DomainError("image must be (H, W) or (H, W, 3)")
    if not np.isfinite(img).all():
        raise DomainError("image must be finite")
    # scale, round and clip in one buffer rather than three
    data = img * 255.0
    np.clip(np.rint(data, out=data), 0, 255, out=data)
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(data.astype(np.uint8))


def write_mask(path: str | Path, mask: DropMask) -> None:
    """Mask as a 0/255 PGM."""
    write_pnm(path, mask.membership.astype(float))


def read_mask(path: str | Path) -> DropMask:
    img = read_pnm(path)
    if img.ndim != 2:
        raise DomainError(f"{path}: mask must be grayscale (P5)")
    with _prefixed(path):
        return DropMask(img > 0.5)


# ---------------------------------------------------------------------------
# PFM (grayscale, little-endian, bottom-to-top rows)
# ---------------------------------------------------------------------------


def read_pfm(path: str | Path) -> np.ndarray:
    """Read a grayscale little-endian PFM as float32 (NaN passes through)."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise DomainError(f"{path}: truncated PFM header")
    magic, dims, scale_s, payload = parts
    if magic.strip() == b"PF":
        raise DomainError(f"{path}: color PFM is unsupported (grayscale Pf only)")
    if magic.strip() != b"Pf":
        raise DomainError(f"{path}: not a PFM file")
    try:
        width, height = (int(t) for t in dims.split())
        scale = float(scale_s)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed PFM header") from exc
    if width <= 0 or height <= 0:
        raise DomainError(f"{path}: PFM size {width}x{height} must be positive")
    if scale >= 0:
        raise DomainError(f"{path}: big-endian PFM (scale {scale}) is unsupported")
    if len(payload) < 4 * width * height:
        raise DomainError(f"{path}: payload has {len(payload) // 4} floats, "
                          f"expected {width * height}")
    arr = np.frombuffer(payload, dtype="<f4", count=width * height)
    return np.flipud(arr.reshape(height, width)).copy()


def write_pfm(path: str | Path, values: np.ndarray) -> None:
    """Write a 2D float array as grayscale little-endian PFM (scale -1.0)."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 2:
        raise DomainError("PFM payload must be 2D")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        # row by row, bottom row first, so the payload is never copied
        f.writelines(np.flipud(arr.astype("<f4", copy=False)))


def write_height_field(path: str | Path, hf: HeightField) -> None:
    """Height field as PFM with NaN marking non-member pixels."""
    payload = np.where(hf.mask.inside, hf.heights, np.nan).astype(np.float32)
    write_pfm(path, hf.mask.box.paste(payload, fill=np.nan))


def read_height_field(path: str | Path) -> HeightField:
    arr = read_pfm(path).astype(float)
    if np.isinf(arr).any():
        raise DomainError(f"{path}: height field has infinite heights "
                          "(NaN marks non-member pixels)")
    with _prefixed(path):
        return HeightField(DropMask(np.isfinite(arr)), np.nan_to_num(arr, nan=0.0))


# ---------------------------------------------------------------------------
# Pipeline configuration (JSON)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """The config file: one section per field, each a JSON object of that
    field's parameters; ``optics`` is required, the others default."""

    optics: OpticalConfig = field(default_factory=OpticalConfig)
    solver: SolverParams = field(default_factory=SolverParams)
    volume_loop: VolumeLoopParams = field(default_factory=VolumeLoopParams)
    detect: DetectParams = field(default_factory=DetectParams)


_REQUIRED = {"optics": ("n_water", "camera_z")}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_KINDS = {int: "an integer", float: "a number", str: "a string", tuple: "a list of numbers"}


def _typed(value, hint, what: str):
    """``value`` as a field of type ``hint`` takes it: an int field takes a
    JSON integer, a float field any JSON number (as a float), a str field a
    JSON string, a tuple field a list of numbers (as a tuple); a boolean is
    none of these."""
    if type(None) in get_args(hint):  # ``X | None``
        if value is None:
            return None
        (hint,) = set(get_args(hint)) - {type(None)}
    kind = get_origin(hint) or hint
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = _is_number(value)
        if ok:
            try:
                value = float(value)
            except OverflowError:  # an integer past the float range reads as 1e400 does
                value = math.inf if value > 0 else -math.inf
    elif kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        value = tuple(value) if ok else value
    if not ok:
        raise DomainError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _build(cls, payload: dict[str, Any], where: str, required=(), **convert):
    """``cls`` called with the JSON object ``payload``: its keys are the
    parameters of ``cls`` and its types their hints, and a parameter without
    a default is required, as is each of ``required``.  A key in ``convert``
    takes its value from that function instead of ``_typed``.  Every error,
    also one that ``cls`` raises, is prefixed with ``where``."""
    params = inspect.signature(cls).parameters
    unknown = sorted(set(payload) - set(params))
    if unknown:
        raise DomainError(f"{where}: unknown keys {unknown}")
    for key in [k for k, p in params.items() if p.default is p.empty] + list(required):
        if key not in payload:
            raise DomainError(f"{where}: missing required field '{key}'")
    hints = get_type_hints(cls)
    kwargs = {key: convert[key](value) if key in convert
              else _typed(value, hints[key], f"{where}: field '{key}'")
              for key, value in payload.items()}
    with _prefixed(where):
        return cls(**kwargs)


def _read_json_object(path: str | Path, what: str) -> dict[str, Any]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: {what} must be a JSON object")
    return doc


def _section(path: str | Path, name: str, cls):
    """The converter of config section ``name``: a JSON object built as ``cls``."""
    where = f"{path}: config section '{name}'"

    def convert(payload):
        if not isinstance(payload, dict):
            raise DomainError(f"{where} must be a JSON object")
        return _build(cls, payload, where, _REQUIRED.get(name, ()))
    return convert


def read_config(path: str | Path) -> PipelineConfig:
    doc = _read_json_object(path, "config")
    sections = {name: _section(path, name, cls)
                for name, cls in get_type_hints(PipelineConfig).items()}
    return _build(PipelineConfig, doc, str(path), ("optics",), **sections)


def write_config(path: str | Path, config: PipelineConfig) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Correspondences (CSV)
# ---------------------------------------------------------------------------

CORRESPONDENCE_HEADER = ["drop_a", "i_a", "j_a", "u_a", "v_a",
                         "drop_b", "i_b", "j_b", "u_b", "v_b", "score"]


def write_correspondences(path: str | Path, correspondences: Iterable[Correspondence]) -> None:
    """One row per record, each float as its repr, so a read gives the
    records back exactly."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CORRESPONDENCE_HEADER)
        for c in correspondences:
            side_a = [repr(float(x)) for x in (*c.pixel_a, *c.uv_a)]
            side_b = [repr(float(x)) for x in (*c.pixel_b, *c.uv_b)]
            writer.writerow([int(c.drop_a), *side_a, int(c.drop_b), *side_b, repr(float(c.score))])


def read_correspondences(path: str | Path) -> list[Correspondence]:
    """The records of a correspondence file; pixels and angles must be finite."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty correspondence file") from None
        if [h.strip() for h in header] != CORRESPONDENCE_HEADER:
            raise DomainError(f"{path}: bad header {header!r}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CORRESPONDENCE_HEADER):
                raise DomainError(f"{path}:{lineno}: expected {len(CORRESPONDENCE_HEADER)} "
                                  f"fields, got {len(row)}")
            try:
                da, db = int(row[0]), int(row[5])
                ia, ja, ua, va, ib, jb, ub, vb, score = map(float, row[1:5] + row[6:])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, (ia, ja, ua, va, ib, jb, ub, vb))):
                raise DomainError(f"{path}:{lineno}: pixels and angles must be finite")
            if not 0.0 <= score <= 1.0:
                raise DomainError(f"{path}:{lineno}: score {score} outside [0, 1]")
            records.append(Correspondence(da, db, (ia, ja), (ib, jb), score, (ua, va), (ub, vb)))
    return records
