"""Multi-view depth from drops: correspondence search on angular-dewarped
imagery, least-squares ray triangulation, and depth-map assembly."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import HeightField, OpticalConfig, RasterGray, Vec3
from .errors import DegenerateGeometry, DomainError, InsufficientMatches
from .raytrace import (DewarpedImage, Ray, dewarp_image, shared_uv_bounds, trace_field)

_COND_LIMIT = 1e8
# residuals above this multiple of the median mark a point invalid
_OUTLIER_FACTOR = 3.0
# a match needs at least this ZNCC score
_ZNCC_MIN = 0.7
# left-right check: the backward match may land this many pixels (plus the
# rounding of the forward match) from where the forward search started
_LR_TOL = 1.0
# the search band's half-height in rows: views turned so that the baseline
# runs along u put a match on its template's row plus the prior, give or take
# the spread of ray origins over each drop
_BAND_ROWS = 2


@dataclass(frozen=True)
class BlockMatchParams:
    window: int = 11
    search_radius: int = 24
    stride: int = 3
    min_matches: int = 8

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise DomainError("window must be odd and at least 3")
        if self.search_radius < 1 or self.stride < 1:
            raise DomainError("search_radius and stride must be positive")


@dataclass(frozen=True)
class Correspondence:
    """A matched point pair, one ray on each of two drops.

    ``pixel_a``/``pixel_b`` are (i, j) raster pixels on the image grid: the
    traced surface point at each starts its ray, and each valid point's depth
    lands there.  ``uv_a``/``uv_b`` are the matched angular coordinates,
    which give the ray directions exactly: (u, v, 1) scaled to unit length.
    ``score`` is the match's ZNCC score in [0, 1].
    """

    drop_a: int
    drop_b: int
    pixel_a: tuple[float, float]
    pixel_b: tuple[float, float]
    score: float
    uv_a: tuple[float, float]
    uv_b: tuple[float, float]


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Triangulated scene points, one per kept correspondence.

    ``points``, ``residuals`` (sum of squared ray distances), ``valid`` (the
    outlier test) and ``correspondences`` are in match order;
    ``depth_maps[k]`` lies on ``drops[k].mask.box``, holding each valid
    point's depth at its pixel on drop k and NaN elsewhere (``box.paste``
    puts it on the raster).
    """

    points: tuple[Vec3, ...]
    residuals: np.ndarray
    valid: np.ndarray
    depth_maps: tuple[np.ndarray, ...]
    correspondences: tuple[Correspondence, ...]

    @property
    def depths(self) -> np.ndarray:
        return np.array([p.z for p in self.points])


# ---------------------------------------------------------------------------
# ZNCC block matching
# ---------------------------------------------------------------------------


class _Windows(NamedTuple):
    """One image's ZNCC windows with the statistics every template shares
    (Lewis 1995): a template's scores then need only its cross term.

    The image is zero-padded by ``pad`` = (rows, columns) on each side so
    every search band lies inside it; windows touching padding or an
    unusable pixel are not ``full``, and those, or windows with no variance,
    are not ``usable``.  ``windows`` is a strided view, built once per
    image: it gives the image's templates (one contiguous gather per call of
    ``_match_row``) and, as the searched image, one window-major copy of the
    search band's rows over the union of the call's columns.
    """

    pad: tuple[int, int]
    windows: np.ndarray  # (H', W', w, w) view of the padded image
    norm: np.ndarray     # root of each window's centred sum of squares
    full: np.ndarray     # (H', W') bool
    usable: np.ndarray   # (H', W') bool


def _window_sums(a: np.ndarray, w: int) -> np.ndarray:
    """Sum of every w x w window of ``a``: each row is summed over w columns,
    then w row sums are added in order, which is the accumulation order of
    ``sliding_window_view(a, (w, w)).sum(axis=(2, 3))`` bit for bit."""
    rows = np.lib.stride_tricks.sliding_window_view(a, w, axis=1).sum(-1)
    h = a.shape[0] - w + 1
    acc = rows[0:h].copy()
    for k in range(1, w):
        acc += rows[k : k + h]
    return acc


def _window_stats(img: np.ndarray, ok: np.ndarray, w: int, pad: tuple[int, int]) -> _Windows:
    view = np.lib.stride_tricks.sliding_window_view
    widths = [(pad[0], pad[0]), (pad[1], pad[1])]
    padded = np.pad(img, widths)
    sums = _window_sums(padded, w)
    var = _window_sums(padded * padded, w) - sums * sums / (w * w)
    # a window is fully valid when it counts w * w valid pixels, an integer
    # box count read off the summed-area table of the padded mask
    sat = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.intp)
    np.cumsum(np.pad(ok, widths), axis=1, out=sat[1:, 1:])
    np.cumsum(sat[1:], axis=0, out=sat[1:])
    full = sat[w:, w:] - sat[:-w, w:] - sat[w:, :-w] + sat[:-w, :-w] == w * w
    return _Windows(pad, view(padded, (w, w)), np.sqrt(np.maximum(var, 0.0)), full,
                    full & (var > 1e-12))


def _subpixel(score: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Parabolic refinement of the maximum at flat index ``idx[t]`` of each
    score grid ``score[t]``, where a border of -inf stands for the edge of
    the search region: the (row, column) vertex offset of the parabola
    through the maximum and its two neighbours on each axis, clipped to
    [-0.5, 0.5], or 0 beside a -inf score or where the parabola does not
    open downward."""
    m, n = score.shape[1:]
    at = (np.arange(len(idx)) * (m * n) + idx)[:, None]
    flat = score.ravel()
    a, b, c = flat[at - (n, 1)], flat[at], flat[at + (n, 1)]
    with np.errstate(invalid="ignore", divide="ignore"):
        den = a - 2 * b + c
        x = np.minimum(np.maximum(0.5 * (a - c) / den, -0.5), 0.5)
    return np.where(np.isfinite(a) & np.isfinite(c) & (den < -1e-12), x, 0.0)


def _global_shift(img_a: np.ndarray, ok_a: np.ndarray, img_b: np.ndarray,
                  ok_b: np.ndarray) -> tuple[int, int]:
    """Coarse whole-image alignment prior (row, col shift of a relative to b)
    via FFT cross-correlation of the mean-subtracted, validity-masked images.

    Drop views share scene content at an angular offset that can exceed the
    local search radius; centering the local search on this prior keeps the
    radius small.
    """
    a = np.where(ok_a, img_a - (img_a[ok_a].mean() if ok_a.any() else 0.0), 0.0)
    b = np.where(ok_b, img_b - (img_b[ok_b].mean() if ok_b.any() else 0.0), 0.0)
    if a.std() < 1e-9 or b.std() < 1e-9:
        return 0, 0
    fa = np.fft.rfft2(a)
    fb = np.fft.rfft2(b)
    cross = np.fft.irfft2(np.conj(fa) * fb, s=a.shape)
    overlap = np.fft.irfft2(np.conj(np.fft.rfft2(ok_a.astype(float)))
                            * np.fft.rfft2(ok_b.astype(float)), s=a.shape)
    min_overlap = 0.05 * max(ok_a.sum(), ok_b.sum())
    score = np.where(overlap >= max(min_overlap, 1.0), cross / np.maximum(overlap, 1.0),
                     -np.inf)
    peak = np.unravel_index(int(np.argmax(score)), score.shape)
    dr, dc = int(peak[0]), int(peak[1])
    if dr > a.shape[0] // 2:
        dr -= a.shape[0]
    if dc > a.shape[1] // 2:
        dc -= a.shape[1]
    return dr, dc


def _match_row(a: _Windows, b: _Windows, ra: int, ca: np.ndarray, params: BlockMatchParams,
               prior: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best sub-pixel position in b for the template of a centred at
    (ra, ca[k]), searched in a band around (ra, ca[k]) + prior, for each k:
    ``_BAND_ROWS`` rows above and below, ``search_radius`` columns left and
    right.  A template is a window of a with no unusable pixel and some
    variance; it matches at the first maximum of its ZNCC scores if that
    reaches ``_ZNCC_MIN``.  Returns (k, rb, cb, score): the increasing
    indices into ``ca`` of the templates that matched, their positions in
    b and their scores.

    The templates of one call are scored together.  One contiguous gather
    of their windows gives their validity, mean, centred patch and norm.
    Their search regions cover the same rows of b, so the windows over the
    union of their columns are copied once into a window-major band, where
    each region (m = 2 * _BAND_ROWS + 1 rows by n = 2 * search_radius + 1
    columns of windows) is a contiguous (n * m, window * window) slice.
    Each run of templates whose regions start a constant number of columns
    apart is scored by one batched matrix-vector product over a strided
    view of their slices; normalisation, the usable mask, the argmax and
    the sub-pixel step then run over the stack of (m, n) score grids.

    Each template keeps its own matrix-vector product on a contiguous slice
    and takes its statistics from a contiguous copy of its window, which
    sum in the order that scoring one template at a time on its own region
    does; a product over the whole band, or reductions over the strided
    view, would sum in another order.
    """
    w = params.window
    hw, rad = w // 2, params.search_radius
    n = 2 * rad + 1
    m = 2 * _BAND_ROWS + 1
    ti, tj = ra - hw + a.pad[0], ca - hw + a.pad[1]
    k = np.flatnonzero(a.full[ti, tj])
    patch = a.windows[ti, tj[k]]
    pz = patch - patch.mean(axis=(1, 2))[:, None, None]
    pn = np.sqrt((pz * pz).sum(axis=(1, 2)))
    live = pn >= 1e-12
    k, pz, pn = k[live], pz[live].reshape(-1, w * w, 1), pn[live]
    if not k.size:
        return k, *np.empty((3, 0))
    # padded-image windows whose centres lie within _BAND_ROWS rows and rad
    # columns of (rc, cc) start at (r0, c0)
    rc, cc = ra + prior[0], ca[k] + prior[1]
    r0 = rc + b.pad[0] - _BAND_ROWS - hw
    c0 = cc + b.pad[1] - rad - hw
    lo = int(c0.min())
    band = np.ascontiguousarray(b.windows[r0 : r0 + m, lo : c0.max() + n].transpose(1, 0, 2, 3))
    band = band.reshape(-1, w * w)
    # band row (c - lo) * m + r holds the window at (r0 + r, c); a run's
    # regions start a constant number of band rows apart, which may be zero
    # or negative in a backward row, whose columns can repeat or go back
    starts = ((c0 - lo) * m).tolist()
    cross = np.empty((k.size, n * m, 1))
    i = 0
    while i < k.size:
        j = i + 1
        step = starts[j] - starts[i] if j < k.size else 0
        while j < k.size and starts[j] - starts[j - 1] == step:
            j += 1
        run = np.lib.stride_tricks.as_strided(band[starts[i]:], (j - i, n * m, w * w),
                                              (step * band.strides[0], *band.strides))
        np.matmul(run, pz[i:j], out=cross[i:j])
        i = j
    # the (column, row) cross terms divided into (row, column) grids with a
    # border of -inf, which leaves the first maximum of each grid in place;
    # ``at`` holds the flat indices of each region's windows in b's maps
    width = b.norm.shape[1]
    at = (r0 * width + c0)[:, None, None] + np.arange(m)[:, None] * width + np.arange(n)
    score = np.full((k.size, m + 2, n + 2), -np.inf)
    np.divide(cross.reshape(-1, n, m).transpose(0, 2, 1), pn[:, None, None] * b.norm.take(at),
              out=score[:, 1:-1, 1:-1], where=b.usable.take(at))
    flat = score.reshape(k.size, -1)
    idx = flat.argmax(axis=1)
    s = flat[np.arange(k.size), idx]
    hit = np.isfinite(s) & (s >= _ZNCC_MIN)
    d = _subpixel(score[hit], idx[hit])
    r, c = np.divmod(idx[hit], n + 2)
    return (k[hit], rc - _BAND_ROWS - 1 + r + d[:, 0], cc[hit] - rad - 1 + c + d[:, 1],
            s[hit])


def match_grids(img_a: np.ndarray, ok_a: np.ndarray, img_b: np.ndarray, ok_b: np.ndarray,
                params: BlockMatchParams) -> np.ndarray:
    """Grid-sampled ZNCC matches, an (n, 5) array of rows (ra, ca, rb, cb,
    score), with left-right consistency filtering.  The local search is a
    band along the rows, centered on a coarse global alignment prior: the
    views are expected to be turned so that the baseline runs along the rows
    (see ``depth_from_drops``), which puts every true match within a row or
    two of its template row plus the prior.

    Each image's windows and their statistics are built once, and serve as
    the templates of one search direction and the searched windows of the
    other.  The forward search scores one grid row of templates per call of
    ``_match_row``; the backward search runs once the forward pass ends,
    one row of b at a time over the forward matches whose rounded position
    lands on it.  Matches come out in forward raster order.
    """
    hw = params.window // 2
    prior = _global_shift(img_a, ok_a, img_b, ok_b)
    rprior = (-prior[0], -prior[1])
    # enough padding that every search band lies inside the padded images
    pad = (_BAND_ROWS + hw + abs(prior[0]), params.search_radius + hw + abs(prior[1]))
    wins_a = _window_stats(img_a, ok_a, params.window, pad)
    wins_b = _window_stats(img_b, ok_b, params.window, pad)
    cols = np.arange(hw, img_a.shape[1] - hw, params.stride)
    rows = [np.empty((0, 5))]
    for ra in range(hw, img_a.shape[0] - hw, params.stride):
        k, rb, cb, score = _match_row(wins_a, wins_b, ra, cols, params, prior)
        rows.append(np.column_stack([np.full(k.size, ra), cols[k], rb, cb, score]))
    fwd = np.concatenate(rows)
    # the forward match rounded to a pixel of b, whose window must fit in b
    ij = np.rint(fwd[:, 2:4]).astype(int)
    fits = ((hw <= ij) & (ij < np.subtract(img_b.shape, hw))).all(axis=1)
    fwd, ij = fwd[fits], ij[fits]
    # the backward match of each forward one, NaN where none was found
    back = np.full((len(fwd), 2), np.nan)
    for rbi in np.unique(ij[:, 0]).tolist():
        on = np.flatnonzero(ij[:, 0] == rbi)
        k, rb, cb, _ = _match_row(wins_b, wins_a, rbi, ij[on, 1], params, rprior)
        back[on[k]] = np.column_stack([rb, cb])
    agree = np.abs(back - fwd[:, :2]) <= _LR_TOL + np.abs(fwd[:, 2:4] - ij)
    return fwd[agree.all(axis=1)]


def block_match(dewarped_a: DewarpedImage, dewarped_b: DewarpedImage,
                params: BlockMatchParams | None = None, drop_a: int = 0,
                drop_b: int = 1) -> list[Correspondence]:
    """Correspondences between two drop views: matches run on the angular
    grids and map back to warped pixels through the forward-map table."""
    p = params or BlockMatchParams()
    ra, ca, rb, cb, score = match_grids(dewarped_a.raster.pixels, dewarped_a.valid,
                                        dewarped_b.raster.pixels, dewarped_b.valid, p).T
    # a match lands on a valid cell, and every valid cell has a source pixel
    ij_a = dewarped_a.source_ij[np.rint(ra).astype(int), np.rint(ca).astype(int)]
    ij_b = dewarped_b.source_ij[np.rint(rb).astype(int), np.rint(cb).astype(int)]
    uv_a = np.stack(dewarped_a.uv_of(ca, ra), axis=-1)
    uv_b = np.stack(dewarped_b.uv_of(cb, rb), axis=-1)
    matches = [Correspondence(drop_a, drop_b, tuple(pa), tuple(pb), s, tuple(ua), tuple(ub))
               for pa, pb, s, ua, ub in zip(ij_a.astype(float).tolist(),
                                            ij_b.astype(float).tolist(),
                                            np.minimum(score, 1.0).tolist(),
                                            uv_a.tolist(), uv_b.tolist())]
    if len(matches) < p.min_matches:
        raise InsufficientMatches(f"{len(matches)} matches survive "
                                  f"(need {p.min_matches})")
    return matches


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------


def _triangulate(origins: np.ndarray, directions: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares ray intersection (Hartley & Sturm 1997) of each row of
    the (N, k, 3) stacks of ray origins and unit directions.

    Row n's point solves [sum (I - d d^T)] p = sum (I - d d^T) x over its k
    rays, and its residual is the sum of squared distances from the point to
    the rays.  Rows whose normal matrix has a condition number above
    ``_COND_LIMIT`` are not ``ok``; their point and residual are NaN.  Every
    product is a ``np.matmul`` and the square of d.v a ``float_power``, so a
    row computes what one ray at a time in scalar numpy computes, bit for bit.
    Returns (points (N, 3), residuals (N,), ok (N,)).
    """
    n, k, _ = directions.shape
    norms = np.sqrt((directions[..., None, :] @ directions[..., None])[..., 0, 0])
    if (np.abs(norms - 1.0) > 1e-6).any():
        raise DomainError("ray directions must be unit vectors")
    m = np.eye(3) - directions[..., None] * directions[..., None, :]
    mx = m @ origins[..., None]
    a = np.zeros((n, 3, 3))
    b = np.zeros((n, 3, 1))
    for r in range(k):
        a += m[:, r]
        b += mx[:, r]
    ok = ~(np.linalg.cond(a) > _COND_LIMIT)
    points = np.full((n, 3), np.nan)
    points[ok] = np.linalg.solve(a[ok], b[ok])[..., 0]
    v = points[:, None] - origins
    dist2 = ((v[..., None, :] @ v[..., None])
             - np.float_power(directions[..., None, :] @ v[..., None], 2.0))[..., 0, 0]
    residuals = np.zeros(n)
    for r in range(k):
        residuals += dist2[:, r]
    return points, np.maximum(residuals, 0.0), ok


def triangulate(rays: list[Ray]) -> tuple[Vec3, float]:
    """Point minimizing the sum of squared distances to the rays, and that
    sum (``_triangulate`` on one row)."""
    if len(rays) < 2:
        raise DomainError("triangulation needs at least two rays")
    origins = np.array([[r.origin for r in rays]], dtype=float)
    directions = np.array([[r.direction for r in rays]], dtype=float)
    points, residuals, ok = _triangulate(origins, directions)
    if not ok[0]:
        raise DegenerateGeometry("rays are (near-)parallel; normal matrix ill-conditioned")
    return Vec3(*points[0].tolist()), float(residuals[0])


# ---------------------------------------------------------------------------
# Depth assembly
# ---------------------------------------------------------------------------


def depth_from_drops(image: RasterGray, drops: list[HeightField], config: OpticalConfig,
                     correspondences: list[Correspondence] | None = None) -> DepthResult:
    """Triangulate scene points seen through two or more drops.

    Every drop must lie on the image's pixel grid; each is traced once.
    Without precomputed correspondences, each drop pair is block-matched on
    views rectified for that pair: the (u, v) frame is turned about the view
    axis so that the baseline between the drops' mean ray origins runs along
    u (a camera roll, exact because it keeps dz; Fusiello, Trucco & Verri
    2000), and both drops are angular-dewarped in that frame on the window
    that covers every drop.
    A scene point's offset between the views then lies along the grid rows,
    which the band search of ``match_grids`` relies on.  The dewarp
    resolution is the pixel density of the largest drop (about one input
    pixel per angular cell) so the matching windows stay free of splat
    holes.  A match's rays start at the traced surface points of its pixels
    and run along its matched angles, and all matches are triangulated at
    once; a match whose pixel has no ray (off its drop's box or in the dark
    band) or whose rays are near-parallel is dropped.  Points whose residual
    exceeds ``_OUTLIER_FACTOR`` (3) times the median are flagged invalid.  An
    empty list of correspondences raises ``InsufficientMatches``.
    """
    if len(drops) < 2:
        raise DomainError("stereo needs at least two reconstructed drops")
    for k, hf in enumerate(drops):
        hf.mask.box.require_grid(image.pixels.shape, f"drop {k}")
    if correspondences is not None and not correspondences:
        raise InsufficientMatches("no correspondences to triangulate")
    traces = [trace_field(hf, config) for hf in drops]

    if correspondences is None:
        centres = []
        for k, tf in enumerate(traces):
            if not tf.valid.any():
                raise DomainError(f"drop {k} has no valid transmitted pixels")
            centres.append(tf.origins[tf.valid, :2].mean(axis=0))
        densest = max(int(hf.mask.area) for hf in drops)
        resolution = int(np.clip(round(math.sqrt(densest)), 48, 256))
        correspondences = []
        for a, b in itertools.combinations(range(len(drops)), 2):
            dx, dy = centres[b] - centres[a]
            turn = math.atan2(dy, dx)
            bounds = shared_uv_bounds(traces, turn)
            view_a, view_b = (dewarp_image(image, traces[k], resolution, bounds, turn)
                              for k in (a, b))
            try:
                correspondences.extend(block_match(view_a, view_b, drop_a=a, drop_b=b))
            except InsufficientMatches:
                continue
        if len(correspondences) < BlockMatchParams().min_matches:
            raise InsufficientMatches(
                f"only {len(correspondences)} correspondences across all drop pairs")

    # (match, side) rows of (drop, i, j, u, v), side 0 = a, side 1 = b
    table = np.array([((c.drop_a, *c.pixel_a, *c.uv_a), (c.drop_b, *c.pixel_b, *c.uv_b))
                      for c in correspondences], dtype=float)
    n = len(table)
    ids = table[..., 0].astype(int)
    unknown = ids[(ids < 0) | (ids >= len(drops))]
    if unknown.size:
        raise DomainError(f"correspondence names unknown drop {unknown[0]}")
    if not np.isfinite(table[..., 1:]).all():
        raise DomainError("correspondence pixels and angles must be finite")
    ij = np.rint(table[..., 1:3]).astype(int)
    origins = np.zeros((n, 2, 3))
    has_ray = np.zeros((n, 2), dtype=bool)
    for drop_id, tf in enumerate(traces):
        rows, side = np.nonzero(ids == drop_id)
        # raster pixel -> the trace's box; a pixel off the box has no ray
        i, j = (ij[rows, side] - (tf.box.i0, tf.box.j0)).T
        on = (0 <= i) & (i < tf.valid.shape[0]) & (0 <= j) & (j < tf.valid.shape[1])
        on[on] = tf.valid[i[on], j[on]]
        rows, side, i, j = rows[on], side[on], i[on], j[on]
        has_ray[rows, side] = True
        origins[rows, side] = tf.origins[i, j]
    u, v = table[..., 3], table[..., 4]
    inv = 1.0 / np.sqrt(u * u + v * v + 1.0)
    directions = np.stack([u * inv, v * inv, inv], axis=-1)

    kept = np.flatnonzero(has_ray.all(axis=1))
    points, res, ok = _triangulate(origins[kept], directions[kept])
    kept, points, res = kept[ok], points[ok], res[ok]
    if not kept.size:
        raise DegenerateGeometry("no correspondence produced a well-conditioned triangulation")

    med = float(np.median(res))
    valid = res <= _OUTLIER_FACTOR * med if med > 0 else np.ones(res.size, dtype=bool)

    # each valid point's depth at its two pixels, on each drop's box, in
    # match order: a later match overwrites an earlier one on the same
    # pixel.  A kept pixel has a ray, so it lies on its drop's box.
    at = ij[kept[valid]].reshape(-1, 2)
    on_drop = ids[kept[valid]].ravel()
    z = np.repeat(points[valid, 2], 2)
    depth_maps = []
    for drop_id, tf in enumerate(traces):
        sel = on_drop == drop_id
        dm = np.full(tf.valid.shape, np.nan)
        dm[at[sel, 0] - tf.box.i0, at[sel, 1] - tf.box.j0] = z[sel]
        depth_maps.append(dm)

    return DepthResult(tuple(Vec3(*p) for p in points.tolist()), res, valid,
                       tuple(depth_maps), tuple(correspondences[k] for k in kept))
