import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from dropstereo import (DegenerateGeometry, DomainError, HeightField, InsufficientMatches,
                        RasterGray, SolverParams, Vec3, block_match, depth_from_drops,
                        disk_mask, initial_volume, render_synthetic, solve_fixed_volume,
                        triangulate)
from dropstereo.raytrace import DewarpedImage, Ray, ScenePlane, SceneSpec, trace_field
from dropstereo.rectify import rectify_drop
from dropstereo.stereo import (_BAND_ROWS, _LR_TOL, _ZNCC_MIN, BlockMatchParams, Correspondence,
                               _global_shift, _subpixel, _window_stats, _window_sums,
                               match_grids)
from dropstereo.scenes import make_texture

from conftest import cap_field, embed_scene


def _noise_image(shape, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, (shape[0] // 4 + 2, shape[1] // 4 + 2))
    img = np.kron(base, np.ones((4, 4)))[: shape[0], : shape[1]]
    return RasterGray(img)


# --- block matching ------------------------------------------------------------


def _view(img):
    """A raster as a dewarped view whose angular grid is its pixel grid:
    (u, v) = (column, row), and every cell maps back to itself."""
    h, w = img.pixels.shape
    ii, jj = np.mgrid[0:h, 0:w]
    return DewarpedImage(img, np.ones((h, w), dtype=bool), 0.0, 0.0, 1.0, 1.0,
                         np.stack([ii, jj], axis=-1))


def test_block_match_identity():
    view = _view(_noise_image((96, 96), seed=1))
    matches = block_match(view, view, BlockMatchParams(stride=7))
    assert len(matches) >= 8
    for m in matches:
        assert m.pixel_a == m.pixel_b
        assert m.uv_a == pytest.approx(m.uv_b, abs=0.5)
        assert m.uv_a == (m.pixel_a[1], m.pixel_a[0])
        assert m.score >= 0.99


def test_block_match_recovers_constant_shift():
    img = _noise_image((96, 96), seed=2)
    shifted = RasterGray(np.roll(img.pixels, 5, axis=1))
    matches = block_match(_view(img), _view(shifted), BlockMatchParams(stride=7))
    assert len(matches) >= 8
    du = np.array([m.uv_b[0] - m.uv_a[0] for m in matches])
    dv = np.array([m.uv_b[1] - m.uv_a[1] for m in matches])
    assert np.abs(du - 5.0).max() <= 0.5
    assert np.abs(dv).max() <= 0.5
    dj = np.array([m.pixel_b[1] - m.pixel_a[1] for m in matches])
    assert np.abs(dj - 5.0).max() <= 1.0


def test_block_match_textureless_rejected():
    flat = _view(RasterGray(np.full((64, 64), 0.5)))
    with pytest.raises(InsufficientMatches):
        block_match(flat, flat)


def _oracle_zncc_scores(patch, region, region_ok):
    # every window of the region reduced on its own
    w = patch.shape[0]
    pz = patch - patch.mean()
    pn = np.sqrt((pz * pz).sum())
    wins = np.lib.stride_tricks.sliding_window_view(region, (w, w))
    ok = np.lib.stride_tricks.sliding_window_view(region_ok, (w, w)).all(axis=(2, 3))
    if pn < 1e-12:
        return np.full(wins.shape[:2], -np.inf)
    sums = wins.sum(axis=(2, 3))
    sumsq = (wins * wins).sum(axis=(2, 3))
    cross = np.tensordot(wins, pz, axes=([2, 3], [0, 1]))
    var = sumsq - sums * sums / (w * w)
    with np.errstate(invalid="ignore", divide="ignore"):
        score = cross / (pn * np.sqrt(np.maximum(var, 0.0)))
    return np.where((var > 1e-12) & ok, score, -np.inf)


def _oracle_subpixel(score, r, c):
    # parabolic refinement of one argmax, one axis at a time in scalars
    def vertex(a, b, cc):
        den = a - 2 * b + cc
        if math.isfinite(a) and math.isfinite(cc) and den < -1e-12:
            return min(max(float(0.5 * (a - cc) / den), -0.5), 0.5)
        return 0.0

    dr = vertex(*score[r - 1 : r + 2, c]) if 0 < r < score.shape[0] - 1 else 0.0
    dc = vertex(*score[r, c - 1 : c + 2]) if 0 < c < score.shape[1] - 1 else 0.0
    return dr, dc


def _oracle_best_match(img_a, ok_a, img_b, ok_b, ra, ca, params, prior):
    # the search region, _BAND_ROWS rows by search_radius columns either side
    # of the prior, is copied out of b, zero-padded where it leaves b
    hw, rad = params.window // 2, params.search_radius
    h, w = img_b.shape
    if not ok_a[ra - hw : ra + hw + 1, ca - hw : ca + hw + 1].all():
        return None
    patch = img_a[ra - hw : ra + hw + 1, ca - hw : ca + hw + 1]
    rc, cc = ra + prior[0], ca + prior[1]
    r0, r1 = rc - _BAND_ROWS - hw, rc + _BAND_ROWS + hw + 1
    c0, c1 = cc - rad - hw, cc + rad + hw + 1
    region = np.zeros((r1 - r0, c1 - c0))
    region_ok = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    (rr0, rr1), (cc0, cc1) = np.clip([r0, r1], 0, h), np.clip([c0, c1], 0, w)
    region[rr0 - r0 : rr1 - r0, cc0 - c0 : cc1 - c0] = img_b[rr0:rr1, cc0:cc1]
    region_ok[rr0 - r0 : rr1 - r0, cc0 - c0 : cc1 - c0] = ok_b[rr0:rr1, cc0:cc1]
    score = _oracle_zncc_scores(patch, region, region_ok)
    best = np.unravel_index(int(np.argmax(score)), score.shape)
    s = score[best]
    if not np.isfinite(s) or s < _ZNCC_MIN:
        return None
    dr, dc = _oracle_subpixel(score, *best)
    return rc - _BAND_ROWS + best[0] + dr, cc - rad + best[1] + dc, float(s)


def _oracle_match_grids(img_a, ok_a, img_b, ok_b, params):
    hw = params.window // 2
    prior = _global_shift(img_a, ok_a, img_b, ok_b)
    out = []
    for ra in range(hw, img_a.shape[0] - hw, params.stride):
        for ca in range(hw, img_a.shape[1] - hw, params.stride):
            fwd = _oracle_best_match(img_a, ok_a, img_b, ok_b, ra, ca, params, prior)
            if fwd is None:
                continue
            rb, cb, score = fwd
            rbi, cbi = int(round(rb)), int(round(cb))
            if not (hw <= rbi < img_b.shape[0] - hw and hw <= cbi < img_b.shape[1] - hw):
                continue
            back = _oracle_best_match(img_b, ok_b, img_a, ok_a, rbi, cbi, params,
                                      (-prior[0], -prior[1]))
            if back is None:
                continue
            if abs(back[0] - ra) > _LR_TOL + abs(rb - rbi) or \
               abs(back[1] - ca) > _LR_TOL + abs(cb - cbi):
                continue
            out.append((float(ra), float(ca), rb, cb, score))
    return out


@pytest.mark.parametrize("shift, params, blank, half_row", [
    pytest.param((4, 20), BlockMatchParams(stride=5), None, False, id="shift0"),
    pytest.param((9, 37), BlockMatchParams(stride=5), None, False, id="shift1"),
    pytest.param((4, 20), BlockMatchParams(), None, False, id="stride3"),
    pytest.param((9, 37), BlockMatchParams(window=7, search_radius=10), None, False,
                 id="w7-r10"),
    pytest.param((4, 20), BlockMatchParams(window=15, search_radius=32, stride=2), None, False,
                 id="w15-r32-s2"),
    pytest.param((4, 20), BlockMatchParams(stride=5), (slice(20, 61), None), False,
                 id="blank-rows"),
    pytest.param((4, 20), BlockMatchParams(stride=5), (slice(20, 61), slice(75, 86)), False,
                 id="lone-template"),
    pytest.param((4, 20), BlockMatchParams(window=7, search_radius=10, stride=1), None, True,
                 id="shared-back-rows"),
    pytest.param((4, 20), BlockMatchParams(window=7, search_radius=10, stride=1),
                 (slice(20, 40), slice(20, 27)), True, id="repeated-back-columns"),
])
def test_match_grids_equals_region_copy_oracle_across_edges(shift, params, blank, half_row):
    # searches centred on the global prior run off the image edges, where
    # the windows read padding; at (9, 37) some search regions lie wholly
    # outside the image
    base = _noise_image((110, 150), seed=3).pixels
    h, w = (50, 70) if half_row else (90, 110)
    img_a = base[:h, :w]
    img_b = base[shift[0] : shift[0] + h, shift[1] : shift[1] + w]
    if half_row:
        # b sits half a row lower, so at stride 1 the forward matches of
        # neighbouring rows round to the same row of b
        img_b = 0.5 * (img_b + base[shift[0] + 1 : shift[0] + 1 + h, shift[1] : shift[1] + w])
    ok_a = np.ones(img_a.shape, dtype=bool)
    ok_a[30:45, 50:58] = False
    lone_rows = []
    if blank is not None:
        # whole grid rows without a template, or with the one template that
        # fits in a strip of kept columns
        rows, kept = blank
        ok_a[rows] = False
        if kept is not None:
            ok_a[rows, kept] = True
            win, s = params.window, params.stride
            full = np.lib.stride_tricks.sliding_window_view(ok_a, (win, win)).all(axis=(2, 3))
            per_row = full[::s, ::s].sum(axis=1)
            lone_rows = [win // 2 + s * i for i in np.flatnonzero(per_row == 1)]
            assert lone_rows
    ok_b = np.ones(img_b.shape, dtype=bool)
    ok_b[60:70, 10:30] = False
    assert _global_shift(img_a, ok_a, img_b, ok_b) == (-shift[0], -shift[1])
    got = match_grids(img_a, ok_a, img_b, ok_b, params)
    want = _oracle_match_grids(img_a, ok_a, img_b, ok_b, params)
    assert len(want) >= 20
    if lone_rows:
        # a lone template is matched
        assert any(ra in lone_rows for ra, *_ in want)
    if half_row:
        # some row of b takes the matches of two forward rows, so its
        # backward search runs over columns that go backwards (the later
        # forward row) and repeat (a column of b that both rows land on)
        rows_of, cols_of = {}, {}
        for ra, _, rb, cb, _ in want:
            rows_of.setdefault(int(round(rb)), set()).add(ra)
            cols_of.setdefault(int(round(rb)), []).append(int(round(cb)))
        assert max(len(r) for r in rows_of.values()) >= 2
        steps = [c1 - c0 for cols in cols_of.values() for c0, c1 in zip(cols, cols[1:])]
        assert min(steps) < 0
        assert any(len(set(cols)) < len(cols) for cols in cols_of.values())
        if lone_rows:
            # lone templates of neighbouring rows land on one column of b
            # one after the other
            assert 0 in steps
    assert [tuple(row) for row in got.tolist()] == want


def test_subpixel_equals_scalar_parabola():
    # hand-built (m, n) score grids around a peak at (r, c): on every edge
    # and corner and inside, beside a -inf score, on a flat peak, and with
    # neighbours that put the vertex beyond half a cell
    m, n = 2 * _BAND_ROWS + 1, 9
    rng = np.random.default_rng(8)
    grids, peaks = [], []

    def case(r, c, column=None, row=None):
        grid = rng.uniform(-1.0, 0.8, (m, n))
        grid[r, c] = 0.95
        if column is not None:
            grid[r - 1 : r + 2, c] = column
        if row is not None:
            grid[r, c - 1 : c + 2] = row
        grids.append(grid)
        peaks.append((r, c))

    for r in (0, 2, m - 1):
        for c in (0, 4, n - 1):
            case(r, c)
    case(2, 4, column=(-np.inf, 0.95, 0.5), row=(0.5, 0.95, -np.inf))
    case(2, 4, column=(0.9, 0.9 + 1e-13, 0.9), row=(0.9 + 1e-13,) * 3)
    case(2, 4, column=(0.9, 0.5, -0.5), row=(-0.5, 0.5, 0.9))
    want = np.array([_oracle_subpixel(g, r, c) for g, (r, c) in zip(grids, peaks)])
    score = np.pad(np.array(grids), ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    idx = np.array([(r + 1) * (n + 2) + c + 1 for r, c in peaks])
    assert _subpixel(score, idx).tobytes() == want.tobytes()
    # each case takes the branch it was built for
    for (r, c), (want_r, want_c) in zip(peaks[:9], want[:9]):
        assert (want_r == 0.0) == (r in (0, m - 1))
        assert (want_c == 0.0) == (c in (0, n - 1))
    assert (want[9:11] == 0.0).all()
    assert want[11].tolist() == [-0.5, 0.5]


@pytest.mark.parametrize("rows_off", [0, 6, -9])
def test_match_grids_keeps_matches_in_the_band(rows_off):
    # b is a shifted by (4, 20), except for a block of columns shifted by a
    # further rows_off rows: a square search finds that block off the band
    base = _noise_image((130, 150), seed=4).pixels
    img_a = base[12:102, :110]
    img_b = base[16:106, 20:130].copy()
    img_b[:, 40:80] = base[16 + rows_off : 106 + rows_off, 60:100]
    ok_a = np.ones(img_a.shape, dtype=bool)
    ok_b = np.ones(img_b.shape, dtype=bool)
    prior = _global_shift(img_a, ok_a, img_b, ok_b)
    assert prior == (-4, -20)
    matches = match_grids(img_a, ok_a, img_b, ok_b, BlockMatchParams(stride=5))
    assert len(matches) >= 20
    for ra, _, rb, _, _ in matches:
        assert abs(rb - (ra + prior[0])) <= _BAND_ROWS + 0.5


def test_window_sums_equal_the_4d_reduction():
    rng = np.random.default_rng(5)
    view = np.lib.stride_tricks.sliding_window_view

    def check_usable(img, ok, w, pad):
        # the usable-window mask from window counts is the 4-D reduction
        want = view(np.pad(ok, pad), (w, w)).all(axis=(2, 3))
        counts = _window_sums(np.pad(ok, pad).astype(float), w)
        assert np.array_equal(counts == w * w, want)
        # every fully valid window of these images has variance
        assert np.array_equal(_window_stats(img, ok, w, (pad, pad)).usable, want)
        rows = pad // 2
        if rows < pad and img.shape[0] + 2 * rows >= w:
            # fewer padding rows than columns, as the band search pads
            want = view(np.pad(ok, [(rows, rows), (pad, pad)]), (w, w)).all(axis=(2, 3))
            assert np.array_equal(_window_stats(img, ok, w, (rows, pad)).usable, want)

    for w in (3, 7, 11):
        for pad in (0, 4, 17):
            img = rng.uniform(-3.0, 40.0, (29, 23))
            for a in (np.pad(img, pad), np.pad(img * img, pad)):
                want = view(a, (w, w)).sum(axis=(2, 3))
                assert _window_sums(a, w).tobytes() == want.tobytes()
            for ok in (rng.uniform(size=img.shape) > 0.05, np.ones(img.shape, dtype=bool),
                       np.zeros(img.shape, dtype=bool)):
                check_usable(img, ok, w, pad)
        # a padded image exactly one window tall
        img = rng.uniform(0.0, 1.0, (3, 31))
        a = np.pad(img, (w - 3) // 2)
        assert a.shape[0] == w
        want = view(a, (w, w)).sum(axis=(2, 3))
        assert _window_sums(a, w).tobytes() == want.tobytes()
        for ok in (np.ones(img.shape, dtype=bool), np.zeros(img.shape, dtype=bool)):
            check_usable(img, ok, w, (w - 3) // 2)
        # an image exactly one window tall, without padding
        img = rng.uniform(0.0, 1.0, (w, 31))
        ok = np.ones(img.shape, dtype=bool)
        ok[:, 9] = False
        check_usable(img, ok, w, 0)


def test_window_full_equals_the_float_count():
    # the all-valid mask from the integer box count is the float window count
    # of the padded validity mask compared with w * w
    rng = np.random.default_rng(11)

    def want(ok, w, pad):
        widths = [(pad[0], pad[0]), (pad[1], pad[1])]
        return _window_sums(np.pad(ok, widths).astype(float), w) == w * w

    for w in (3, 7, 11):
        for p in (0, 4, 17):
            for pad in ((p, p), (p // 2, p)):
                for shape in ((29, 23), (w + 5, 40)):
                    img = rng.uniform(0.0, 1.0, shape)
                    for frac in (0.0, 0.01, 0.05, 0.3, 1.0):
                        ok = rng.uniform(size=shape) >= frac
                        got = _window_stats(img, ok, w, pad).full
                        assert np.array_equal(got, want(ok, w, pad)), (w, pad, shape, frac)
        # a padded image exactly w rows tall: one row of windows
        for rows in range(0, w // 2 + 1):
            img = rng.uniform(0.0, 1.0, (w - 2 * rows, 31))
            for ok in (rng.uniform(size=img.shape) > 0.05, np.ones(img.shape, dtype=bool)):
                got = _window_stats(img, ok, w, (rows, 4)).full
                assert got.shape[0] == 1
                assert np.array_equal(got, want(ok, w, (rows, 4)))


# --- triangulation ---------------------------------------------------------------


def _ray_through(point, direction):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    origin = np.asarray(point, dtype=float) - 3.7 * d
    return Ray(Vec3.from_array(origin), Vec3.from_array(d))


def test_triangulate_exact_recovery_two_rays():
    q = np.array([1.0, -2.0, 5.0])
    rays = [_ray_through(q, (1, 0, 1)), _ray_through(q, (0, 1, 1))]
    p, residual = triangulate(rays)
    assert np.abs(p.as_array() - q).max() <= 1e-9
    assert residual <= 1e-12


def test_triangulate_exact_recovery_random_configurations():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(-100, 100, 3)
        k = int(rng.integers(2, 6))
        rays = []
        for _ in range(k):
            d = rng.normal(size=3)
            rays.append(_ray_through(q, d))
        try:
            p, _ = triangulate(rays)
        except DegenerateGeometry:
            continue  # rare near-parallel draws are excluded by contract
        worst = max(worst, float(np.abs(p.as_array() - q).max()))
    assert worst <= 1e-9


def test_triangulate_skew_rays_match_numerical_minimizer():
    # oracle: direct numerical minimization of the sum of squared distances
    rays = [Ray(Vec3(0, 0, 0), Vec3(1, 0, 0)), Ray(Vec3(0, 0, 1), Vec3(0, 1, 0))]
    p, residual = triangulate(rays)
    assert p.as_array() == pytest.approx([0.0, 0.0, 0.5], abs=1e-9)

    def cost(q):
        total = 0.0
        for r in rays:
            v = q - r.origin.as_array()
            d = r.direction.as_array()
            total += v @ v - (d @ v) ** 2
        return total

    res = optimize.minimize(cost, np.array([1.0, 1.0, 1.0]), method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 5000})
    assert np.abs(p.as_array() - res.x).max() <= 1e-6
    assert residual == pytest.approx(res.fun, abs=1e-9)


def test_triangulate_random_skew_matches_minimizer():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rays = []
        for _ in range(3):
            d = rng.normal(size=3)
            rays.append(Ray(Vec3.from_array(rng.uniform(-5, 5, 3)),
                            Vec3.from_array(d / np.linalg.norm(d))))
        try:
            p, residual = triangulate(rays)
        except DegenerateGeometry:
            continue

        def cost(q, rays=rays):
            total = 0.0
            for r in rays:
                v = q - r.origin.as_array()
                d = r.direction.as_array()
                total += v @ v - (d @ v) ** 2
            return total

        res = optimize.minimize(cost, p.as_array() + 0.5, method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 8000})
        assert np.abs(p.as_array() - res.x).max() <= 1e-6


def test_triangulate_parallel_rays_degenerate():
    rays = [Ray(Vec3(0, 0, 0), Vec3(0, 0, 1)), Ray(Vec3(1, 0, 0), Vec3(0, 0, 1))]
    with pytest.raises(DegenerateGeometry):
        triangulate(rays)


def test_triangulate_needs_two_rays():
    with pytest.raises(DomainError):
        triangulate([Ray(Vec3(0, 0, 0), Vec3(0, 0, 1))])


def test_triangulate_translation_equivariance():
    rng = np.random.default_rng(5)
    q = np.array([3.0, 1.0, -2.0])
    rays = [_ray_through(q, rng.normal(size=3)) for _ in range(3)]
    t = np.array([10.0, -4.0, 2.5])
    moved = [Ray(Vec3.from_array(r.origin.as_array() + t), r.direction) for r in rays]
    p0, _ = triangulate(rays)
    p1, _ = triangulate(moved)
    assert np.abs(p1.as_array() - (p0.as_array() + t)).max() <= 1e-9


def test_triangulate_residual_not_increased_by_ray_through_point():
    rays = [Ray(Vec3(0, 0, 0), Vec3(1, 0, 0)), Ray(Vec3(0, 0, 1), Vec3(0, 1, 0))]
    p, r0 = triangulate(rays)
    extra = Ray(Vec3.from_array(p.as_array() - np.array([0, 0, 2.0])), Vec3(0, 0, 1))
    p2, r1 = triangulate(rays + [extra])
    assert r1 <= r0 + 1e-12


# --- depth assembly ---------------------------------------------------------------


def test_depth_single_drop_rejected(two_drop_scene, config):
    _, (m1, hf1), _, image = two_drop_scene
    with pytest.raises(DomainError, match="two"):
        depth_from_drops(image, [hf1], config)


def _cap_on(shape, center):
    m = disk_mask(20, shape=shape, center=center)
    return HeightField(m, cap_field(m, initial_volume(m, 0.30)))


@pytest.mark.parametrize("image_shape, drop_shapes, named", [
    ((60, 120), [(60, 60), (60, 120)], "drop 0"),
    ((60, 60), [(60, 60), (60, 120)], "drop 1"),
    ((60, 60), [(60, 120), (60, 120)], "drop 0"),
])
def test_depth_drop_off_the_image_grid_rejected(config, image_shape, drop_shapes, named):
    # every drop must share the image's grid, on the matching route and on
    # the file route alike; the error names the first drop that does not
    drops = [_cap_on(shape, (30, 30 + 60 * k)) for k, shape in enumerate(drop_shapes)]
    image = RasterGray(np.full(image_shape, 0.5))
    corr = [Correspondence(0, 1, (30.0, 30.0), (30.0, 90.0), 1.0, (0.0, 0.0), (0.0, 0.0))]
    for correspondences in (None, corr):
        with pytest.raises(DomainError, match=named):
            depth_from_drops(image, drops, config, correspondences=correspondences)


def test_depth_fronto_parallel_plane(two_drop_scene, config):
    _, (m1, hf1), (m2, hf2), image = two_drop_scene
    result = depth_from_drops(image, [hf1, hf2], config)
    depths = result.depths[result.valid]
    assert depths.size >= 20
    median = float(np.median(depths))
    assert abs(median - 2000.0) / 2000.0 <= 0.02
    # scene sits behind the glass: beyond every drop's height
    assert (depths > max(hf1.z.max(), hf2.z.max())).all()
    # depth maps carry the triangulated z at valid matched pixels
    dm = result.depth_maps[0]
    assert np.isfinite(dm).sum() >= 10
    assert np.nanmedian(dm) == pytest.approx(median, rel=0.05)


def test_depth_two_plane_scene_bimodal(config):
    h, w = 300, 700
    m1 = disk_mask(60, shape=(h, w), center=(150, 150))
    m2 = disk_mask(60, shape=(h, w), center=(150, 550))
    sp = SolverParams()
    hf1, _ = solve_fixed_volume(m1, initial_volume(m1, 0.30), sp, config)
    hf2, _ = solve_fixed_volume(m2, initial_volume(m2, 0.30), sp, config)
    tex1 = make_texture("noise", 1024, 2, seed=11, low=0.05, high=0.95)
    tex2 = make_texture("noise", 1024, 2, seed=12, low=0.05, high=0.95)
    scene = SceneSpec(width=w, height=h, planes=(
        ScenePlane(depth=1500.0, texture=tex1, scale=16.0, x_max=0.0),
        ScenePlane(depth=3000.0, texture=tex2, scale=16.0, x_min=0.0),
    ))
    image = render_synthetic(scene, [(m1, hf1), (m2, hf2)], config)
    result = depth_from_drops(image, [hf1, hf2], config)
    pts = [p for p, ok in zip(result.points, result.valid) if ok]
    near = np.array([p.z for p in pts if p.x < -60.0])
    far = np.array([p.z for p in pts if p.x > 60.0])
    assert near.size >= 5 and far.size >= 5
    assert abs(np.median(near) - 1500.0) / 1500.0 <= 0.03
    assert abs(np.median(far) - 3000.0) / 3000.0 <= 0.03


def _depth_of_rendered_pair(shape, centres, planes, config):
    """Two solved r=60 drops at ``centres`` over ``planes``, rendered and
    triangulated."""
    drops = []
    for centre in centres:
        mask = disk_mask(60, shape=shape, center=centre)
        hf, _ = solve_fixed_volume(mask, initial_volume(mask, 0.30), SolverParams(), config)
        drops.append(hf)
    scene = SceneSpec(width=shape[1], height=shape[0], planes=planes)
    image = render_synthetic(scene, [(hf.mask, hf) for hf in drops], config)
    return depth_from_drops(image, drops, config), drops


def test_depth_two_plane_scene_vertical_pair(config):
    # the drops are stacked along the columns, so the baseline runs along v
    # until the views are turned
    tex1 = make_texture("noise", 1024, 2, seed=11, low=0.05, high=0.95)
    tex2 = make_texture("noise", 1024, 2, seed=12, low=0.05, high=0.95)
    result, _ = _depth_of_rendered_pair((700, 300), [(150, 150), (550, 150)], (
        ScenePlane(depth=1500.0, texture=tex1, scale=16.0, x_max=0.0),
        ScenePlane(depth=3000.0, texture=tex2, scale=16.0, x_min=0.0),
    ), config)
    pts = [p for p, ok in zip(result.points, result.valid) if ok]
    near = np.array([p.z for p in pts if p.x < -60.0])
    far = np.array([p.z for p in pts if p.x > 60.0])
    assert near.size >= 5 and far.size >= 5
    assert abs(np.median(near) - 1500.0) / 1500.0 <= 0.03
    assert abs(np.median(far) - 3000.0) / 3000.0 <= 0.03


def test_depth_fronto_parallel_plane_diagonal_pair(config):
    tex = make_texture("noise", 1024, 2, seed=3, low=0.05, high=0.95)
    result, (hf1, hf2) = _depth_of_rendered_pair(
        (460, 460), [(90, 90), (370, 370)],
        (ScenePlane(depth=2000.0, texture=tex, scale=16.0),), config)
    depths = result.depths[result.valid]
    assert depths.size >= 20
    median = float(np.median(depths))
    assert abs(median - 2000.0) / 2000.0 <= 0.02
    assert (depths > max(hf1.z.max(), hf2.z.max())).all()
    dm = result.depth_maps[0]
    assert np.isfinite(dm).sum() >= 10
    assert np.nanmedian(dm) == pytest.approx(median, rel=0.05)


def test_depth_on_a_photo_sized_raster_equals_the_small_scene(two_drop_scene, config):
    # the two-drop scene at an offset on a 12 MP raster (3000 x 4000, a
    # phone photo) with the principal point moved along: every ray, match
    # and point is the small scene's, each depth map lies on its drop's box,
    # and the call allocates no raster-sized array per drop.  The test holds
    # about 200 MB at once: the float raster and the clipped copy that
    # RasterGray keeps.
    _, (_, hf1), (_, hf2), image = two_drop_scene
    small = depth_from_drops(image, [hf1, hf2], config)
    di, dj = 1234, 2345
    big_image, drops, big_config = embed_scene(image, [hf1, hf2], config, (di, dj))
    tracemalloc.start()
    try:
        big = depth_from_drops(big_image, drops, big_config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, peak
    assert big.points == small.points
    assert big.residuals.tobytes() == small.residuals.tobytes()
    assert np.array_equal(big.valid, small.valid)
    for hf, got, want in zip(drops, big.depth_maps, small.depth_maps):
        assert got.shape == hf.mask.inside.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the same matches, on pixels moved by the offset
    assert [replace(c, pixel_a=(c.pixel_a[0] - di, c.pixel_a[1] - dj),
                    pixel_b=(c.pixel_b[0] - di, c.pixel_b[1] - dj))
            for c in big.correspondences] == list(small.correspondences)
    for big_depth, small_depth in ((2000.0, 2000.0), (big, small)):
        got = rectify_drop(big_image, drops[0], big_config, big_depth)
        want = rectify_drop(image, hf1, config, small_depth)
        assert got.raster.pixels.tobytes() == want.raster.pixels.tobytes()
        assert np.array_equal(got.valid, want.valid)
        assert (got.origin, got.scale) == (want.origin, want.scale)


def test_depth_file_correspondences_off_the_drop_box(two_drop_scene, config):
    # correspondences read from a file may name raster pixels off a drop's
    # box: one row or column past each side, or raster index 0, whose
    # box-relative index would be negative.  Such pixels have no ray; the
    # result must be the one the good correspondences give alone.
    _, (m1, hf1), (m2, hf2), image = two_drop_scene
    drops = [hf1, hf2]
    matched = depth_from_drops(image, drops, config)
    good = list(matched.correspondences[:40])
    bad = []
    for drop_id, m in enumerate((m1, m2)):
        i0, i1, j0, j1 = m.bbox()
        # the box is the bounding box plus one pixel; step one more outside
        ci, cj = (i0 + i1) // 2, (j0 + j1) // 2
        off = [(i0 - 2, cj), (i1 + 1, cj), (ci, j0 - 2), (ci, j1 + 1), (0, cj), (ci, 0), (0, 0)]
        for c, pixel in zip(good, off):
            if drop_id == c.drop_a:
                bad.append(replace(c, pixel_a=pixel))
            else:
                bad.append(replace(c, pixel_b=pixel))
    assert len(bad) == 14
    result = depth_from_drops(image, drops, config, correspondences=bad + good)
    expected = depth_from_drops(image, drops, config, correspondences=good)
    assert result.correspondences == expected.correspondences
    assert result.points == expected.points
    assert result.residuals.tobytes() == expected.residuals.tobytes()
    assert np.array_equal(result.valid, expected.valid)
    for got, want in zip(result.depth_maps, expected.depth_maps):
        assert got.tobytes() == want.tobytes()


def _scalar_triangulate(rays):
    # one ray at a time in scalar numpy: the arithmetic the batched kernel
    # must reproduce bit for bit
    a = np.zeros((3, 3))
    b = np.zeros(3)
    for origin, d in rays:
        if abs(np.linalg.norm(d) - 1.0) > 1e-6:
            raise DomainError("ray directions must be unit vectors")
        m = np.eye(3) - np.outer(d, d)
        a += m
        b += m @ origin
    if np.linalg.cond(a) > 1e8:
        raise DegenerateGeometry("rays are (near-)parallel")
    p = np.linalg.solve(a, b)
    residual = 0.0
    for origin, d in rays:
        v = p - origin
        residual += float(v @ v - (d @ v) ** 2)
    return Vec3.from_array(p), max(residual, 0.0)


def _loop_depth(drops, config, correspondences):
    """Depth assembly one correspondence at a time, each ray from its pixel's
    traced surface point along its matched angles: a match whose pixel is
    off its drop's box or not transmitted, or whose rays are near-parallel,
    is skipped."""
    traces = [trace_field(hf, config) for hf in drops]
    points, residuals, kept = [], [], []
    for corr in correspondences:
        rays = []
        for drop_id, (pi, pj), uv in ((corr.drop_a, corr.pixel_a, corr.uv_a),
                                      (corr.drop_b, corr.pixel_b, corr.uv_b)):
            tf = traces[drop_id]
            i, j = int(round(pi)) - tf.box.i0, int(round(pj)) - tf.box.j0
            if not (0 <= i < tf.valid.shape[0] and 0 <= j < tf.valid.shape[1]) \
                    or not tf.valid[i, j]:
                rays = []
                break
            # (u, v, 1) scaled to unit length in Python floats
            n = math.sqrt(uv[0] * uv[0] + uv[1] * uv[1] + 1.0 * 1.0)
            d = np.array([uv[0] * (1.0 / n), uv[1] * (1.0 / n), 1.0 * (1.0 / n)])
            rays.append((tf.origins[i, j], d))
        if not rays:
            continue
        try:
            p, res = _scalar_triangulate(rays)
        except DegenerateGeometry:
            continue
        points.append(p)
        residuals.append(res)
        kept.append(corr)
    res = np.array(residuals)
    med = float(np.median(res))
    valid = res <= 3.0 * med if med > 0 else np.ones(res.size, dtype=bool)
    # on each drop's box
    depth_maps = [np.full(tf.valid.shape, np.nan) for tf in traces]
    for corr, p, ok in zip(kept, points, valid):
        if ok:
            for drop_id, (pi, pj) in ((corr.drop_a, corr.pixel_a), (corr.drop_b, corr.pixel_b)):
                box = traces[drop_id].box
                depth_maps[drop_id][int(round(pi)) - box.i0, int(round(pj)) - box.j0] = p.z
    return tuple(points), res, valid, depth_maps, tuple(kept)


def _assert_same_depth(result, want):
    points, res, valid, depth_maps, kept = want
    assert result.points == points
    assert result.residuals.tobytes() == res.tobytes()
    assert result.valid.tobytes() == valid.tobytes()
    assert len(result.depth_maps) == len(depth_maps)
    for got, exp in zip(result.depth_maps, depth_maps):
        assert got.tobytes() == exp.tobytes()
    assert result.correspondences == kept


def test_depth_equals_scalar_loop_on_matched_correspondences(two_drop_scene, config):
    _, (_, hf1), (_, hf2), image = two_drop_scene
    drops = [hf1, hf2]
    matched = depth_from_drops(image, drops, config)
    assert len(matched.correspondences) >= 100
    _assert_same_depth(matched, _loop_depth(drops, config, matched.correspondences))
    # a pair whose directions differ by 1e-7 in u: the rays are near-parallel
    c = matched.correspondences[3]
    parallel = replace(c, uv_b=(c.uv_a[0] + 1e-7, c.uv_a[1]))
    corr = list(matched.correspondences[:60]) + [parallel] + list(matched.correspondences[60:])
    want = _loop_depth(drops, config, corr)
    assert parallel not in want[4] and len(want[4]) == len(matched.correspondences)
    _assert_same_depth(depth_from_drops(image, drops, config, correspondences=corr), want)


def test_depth_equals_scalar_loop_on_file_correspondences(two_drop_scene, config):
    # correspondences read from a file may name pixels without a ray: off the
    # drop's box or in the dark band
    _, (m1, hf1), (_, hf2), image = two_drop_scene
    drops = [hf1, hf2]
    matched = depth_from_drops(image, drops, config)
    good = list(matched.correspondences[:50])
    tf = trace_field(hf1, config)
    di, dj = np.argwhere(tf.tir)[0] + (tf.box.i0, tf.box.j0)
    assert m1.membership[di, dj]
    i0, _, j0, _ = m1.bbox()
    c = good[7]
    # on drop 0: off its box, in its dark band, and one pixel paired with
    # itself (two identical rays)
    off_box = replace(c, pixel_a=(float(i0 - 2), c.pixel_a[1]))
    dark = replace(c, pixel_a=(float(di), float(dj)))
    self_pair = replace(c, drop_b=c.drop_a, pixel_b=c.pixel_a, uv_b=c.uv_a)
    assert c.drop_a == 0
    corr = good[:10] + [off_box] + good[10:20] + [dark] + good[20:30] + [self_pair] + good[30:]
    want = _loop_depth(drops, config, corr)
    assert want[4] == tuple(good)
    _assert_same_depth(depth_from_drops(image, drops, config, correspondences=corr), want)


def test_depth_bad_correspondence_rejected(two_drop_scene, config):
    _, (m1, hf1), (_, hf2), image = two_drop_scene
    matched = depth_from_drops(image, [hf1, hf2], config)
    c = matched.correspondences[0]
    # side a has no ray, so a bad side b must still be named
    off_box = replace(c, pixel_a=(0.0, 0.0))
    for bad, what in ((replace(c, drop_a=2), "unknown drop"),
                      (replace(c, drop_b=-1), "unknown drop"),
                      (replace(off_box, drop_b=5), "unknown drop"),
                      (replace(c, pixel_b=(float("nan"), 3.0)), "pixels and angles"),
                      (replace(c, uv_a=(0.1, float("inf"))), "pixels and angles"),
                      (replace(off_box, uv_b=(float("nan"), 0.1)), "pixels and angles")):
        with pytest.raises(DomainError, match=what):
            depth_from_drops(image, [hf1, hf2], config,
                             correspondences=list(matched.correspondences) + [bad])
