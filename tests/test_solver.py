import re

import numpy as np
import pytest
from scipy import integrate, ndimage

from dropstereo import (DomainError, DropMask, HeightField, OpticalConfig, SolveReport,
                        SolverParams, disk_mask, energy_of, init_mesh, initial_volume,
                        solve_fixed_volume, volume_of)
from dropstereo.core import MaskStencil
from dropstereo.masks import blob_mask
from dropstereo.solver import _MOMENTUM, _TAU, _restore_volume, _tension, _tilt

from conftest import cap_field
from test_core import _oracle_masks, _shifted_oracle


def square_mask(n, pad=2):
    m = np.zeros((n + 2 * pad, n + 2 * pad), dtype=bool)
    m[pad : pad + n, pad : pad + n] = True
    return DropMask(m)


def params(**kw):
    return SolverParams(**kw)


def _rim(mask):
    """The contact ring of ``mask`` on its raster."""
    return mask.box.paste(mask.boundary())


# The solve's kernels work in place on a stencil buffer (``MaskStencil``);
# these run one of them on a grid and return the grid.


def _buffer(st, grid):
    """The member pixels of a grid in a new buffer of ``st``, zero elsewhere."""
    return st.pad(grid[st.inside])


def _grid(st, v):
    """The pixel vector ``v`` on the grid of ``st``, zero off the mask."""
    return st.cells(st.pad(v))


def _tension_once(st, z, interior):
    """The grid ``z`` after one ``_tension`` step, which moves the cells where
    the buffer ``interior`` is 1 (all off the contact ring)."""
    out = np.empty(st.size)
    _tension(_buffer(st, z), out, st, interior, interior * (0.5 * _TAU), np.zeros((4, st.size)))
    return st.cells(out)


def _volume_restored(st, zm, target):
    """The grid of the pixel vector ``zm`` after ``_restore_volume``."""
    buf = st.pad(zm)
    _restore_volume(buf, zm, target, st)
    return st.cells(buf)


# --- initialization ---------------------------------------------------------


def test_initial_volume_substitution():
    assert initial_volume(square_mask(10, pad=0), 0.30) == pytest.approx(300.0)


def test_initial_volume_cubic_in_scale():
    assert initial_volume(square_mask(20, pad=0), 0.30) == pytest.approx(2400.0)


def test_initial_volume_empty_mask_rejected():
    with pytest.raises(DomainError):
        initial_volume(DropMask(np.zeros((3, 3), dtype=bool)), 0.30)


def test_initial_volume_non_finite_alpha_rejected():
    m = square_mask(10, pad=0)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="alpha"):
            initial_volume(m, alpha)
        with pytest.raises(DomainError, match="alpha"):
            init_mesh(m, alpha)


def test_init_mesh_height_and_volume_consistency():
    m = square_mask(10, pad=0)
    hf = init_mesh(m, 0.30)
    assert hf.z[m.membership] == pytest.approx(3.0)
    assert volume_of(hf) == pytest.approx(initial_volume(m, 0.30), rel=1e-12)


def test_init_mesh_linear_in_alpha():
    m = square_mask(10, pad=0)
    assert init_mesh(m, 0.10).z[m.membership][0] == pytest.approx(1.0)
    assert init_mesh(m, 0.35).z[m.membership][0] == pytest.approx(3.5)


def test_init_scale_covariance():
    # doubling the linear size doubles the init height and scales volume by 8
    small, big = disk_mask(20), disk_mask(40)
    h_small = init_mesh(small, 0.25).z.max()
    h_big = init_mesh(big, 0.25).z.max()
    ratio = np.sqrt(big.area / small.area)
    assert h_big / h_small == pytest.approx(ratio, rel=1e-12)
    assert initial_volume(big, 0.25) / initial_volume(small, 0.25) == pytest.approx(
        ratio**3, rel=1e-12)


def test_volume_of_sums_heights():
    m = square_mask(10, pad=0)
    assert volume_of(HeightField(m, np.where(m.membership, 3.0, 0.0))) == pytest.approx(300.0)
    empty = DropMask(np.zeros((4, 4), dtype=bool))
    assert volume_of(HeightField(empty, np.zeros((4, 4)))) == 0.0
    rng = np.random.default_rng(0)
    z = np.where(m.membership, rng.uniform(0, 2, m.membership.shape), 0.0)
    # oracle: independent python-loop summation
    total = sum(z[i, j] for i in range(m.height) for j in range(m.width) if m.membership[i, j])
    assert volume_of(HeightField(m, z)) == pytest.approx(total, rel=1e-12)


# --- tension step -----------------------------------------------------------


def _tension_oracle(z, mask, tau):
    """Independent one-step curvature flow: explicit loops, central/one-sided
    differences, rim pinned to zero."""
    m = mask.membership
    h, w = m.shape
    zp = z.copy()
    rim = _rim(mask)
    zp[rim] = 0.0

    def diff(arr, i, j, di, dj):
        fwd = 0 <= i + di < h and 0 <= j + dj < w and m[i + di, j + dj]
        bwd = 0 <= i - di < h and 0 <= j - dj < w and m[i - di, j - dj]
        if fwd and bwd:
            return (arr[i + di, j + dj] - arr[i - di, j - dj]) / 2.0
        if fwd:
            return arr[i + di, j + dj] - arr[i, j]
        if bwd:
            return arr[i, j] - arr[i - di, j - dj]
        return 0.0

    gx = np.zeros_like(zp)
    gy = np.zeros_like(zp)
    for i in range(h):
        for j in range(w):
            if m[i, j]:
                gx[i, j] = diff(zp, i, j, 0, 1)
                gy[i, j] = diff(zp, i, j, 1, 0)
    den = np.sqrt(1 + gx**2 + gy**2)
    fx, fy = gx / den, gy / den
    out = zp.copy()
    interior = mask.membership & ~rim
    for i in range(h):
        for j in range(w):
            if interior[i, j]:
                out[i, j] = zp[i, j] + tau * (diff(fx, i, j, 0, 1) + diff(fy, i, j, 1, 0))
    return np.maximum(out, 0.0)


def test_tension_step_matches_independent_stencil_and_pulls_rim_down():
    m = disk_mask(7)
    inner = m.membership & ~_rim(m)
    z = np.where(inner, 2.0, 0.0)  # flat interior, pinned zero rim
    hf = HeightField(m, z)
    st = MaskStencil(m.membership)
    stepped = _tension_once(st, hf.z, _buffer(st, inner))
    expected = _tension_oracle(z, m, _TAU)
    assert np.abs(stepped - expected).max() <= 1e-12
    ring = inner & _rim(DropMask(inner))
    assert (stepped[ring] < 2.0).all()  # curvature flow pulls the rim down
    center = m.membership.shape[0] // 2
    assert stepped[center, center] == pytest.approx(2.0)


def test_planar_patch_normalised_gradient_has_zero_divergence():
    # a plane is a fixed point of the curvature flow with a free boundary:
    # the divergence of its normalised gradient vanishes at every member,
    # rim included, where the differences are one-sided
    m = square_mask(9)
    box, grad = m.box, m.stencil.gradient
    ii, jj = np.mgrid[box.i0 : box.i1, box.j0 : box.j1]
    for plane in (1.0 + 0.3 * jj, 2.0 - 0.7 * ii + 0.2 * jj):
        gx, gy = grad(plane)
        den = np.sqrt(1.0 + gx * gx + gy * gy)
        div = grad(gx / den)[0] + grad(gy / den)[1]
        assert np.abs(div).max() <= 1e-12


def test_tension_descends_energy_from_pinned_cylinder():
    # the raw flat cylinder minimizes the in-mask area energy by itself, so
    # descent is measured across the step after pinning establishes the
    # contact line
    m = disk_mask(12)
    cfg = OpticalConfig()
    st = MaskStencil(m.membership)
    hf0 = init_mesh(m, 0.30)
    interior = _buffer(st, m.membership & ~_rim(m))
    # the first step pins the rim
    hf1 = HeightField(m, _tension_once(st, hf0.z, interior))
    hf2 = HeightField(m, _tension_once(st, hf1.z, interior))
    e1 = energy_of(hf1, cfg)[0]
    e2 = energy_of(hf2, cfg)[0]
    assert e2 < e1


# --- gravity step ------------------------------------------------------------


def test_gravity_along_axis_is_identity():
    # plumb gravity has no in-plane part, so its tilt plane is zero
    m = disk_mask(6)
    assert (_tilt(MaskStencil(m.membership), OpticalConfig()) == 0.0).all()


def test_gravity_antisymmetric_about_centroid():
    # the plane passes through zero at the mask's pixel mean, here the
    # square's centre
    m = square_mask(11, pad=0)
    cfg = OpticalConfig(gravity_cosines=(1.0, 0.0, 0.0), gravity_weight=1e-3)
    st = MaskStencil(m.membership)
    delta = _grid(st, _tilt(st, cfg))
    xg = 5.0
    cols = np.arange(11)
    gained = delta[5, cols > xg]
    lost = delta[5, cols < xg]
    assert (gained > 0).all() and (lost < 0).all()
    assert np.abs(delta[5, :] + delta[5, ::-1]).max() <= 1e-15


def test_gravity_step_matches_manual_five_by_five():
    m = square_mask(5, pad=0)
    tau, g_w = _TAU, 1e-2
    cfg = OpticalConfig(gravity_cosines=(0.6, 0.8, 0.0), gravity_weight=g_w)
    st = MaskStencil(m.membership)
    out = _grid(st, _tilt(st, cfg))
    # oracle: evaluate the plane by hand about the centre (2, 2)
    for i in range(5):
        for j in range(5):
            expect = tau * g_w * ((i - 2) * 0.8 + (j - 2) * 0.6)
            assert out[i, j] == pytest.approx(expect, abs=1e-15)


def test_gravity_tilts_symmetric_dome_downhill():
    m = disk_mask(10)
    c = (m.height - 1) / 2.0
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    dome = np.where(m.membership, np.maximum(100.0 - (ii - c) ** 2 - (jj - c) ** 2, 0.0) / 25.0, 0.0)
    hf = HeightField(m, dome)
    cfg = OpticalConfig(gravity_cosines=(0.5, 0.0, np.sqrt(0.75)), gravity_weight=1e-3)
    st = MaskStencil(m.membership)
    out = HeightField(m, _volume_restored(st, hf.z[m.membership] + _tilt(st, cfg), volume_of(hf)))

    def mass_centroid_x(f):
        iis, jjs = np.nonzero(f.mask.membership)
        return float((f.z[iis, jjs] * jjs).sum() / f.z.sum())

    assert mass_centroid_x(out) > mass_centroid_x(hf)  # downhill is +x here


# --- volume step --------------------------------------------------------------


def test_volume_step_uniform_shift():
    m = square_mask(10, pad=0)
    hf = HeightField(m, np.where(m.membership, 2.5, 0.0))  # sum 250
    out = _volume_restored(MaskStencil(m.membership), hf.z[m.membership], 300.0)
    assert out[m.membership] == pytest.approx(3.0)


def test_volume_step_noop_at_target():
    m = square_mask(10, pad=0)
    hf = HeightField(m, np.where(m.membership, 3.0, 0.0))
    out = _volume_restored(MaskStencil(m.membership), hf.z[m.membership], 300.0)
    assert np.abs(out - hf.z).max() == 0.0


def test_volume_step_restores_after_tension_and_gravity():
    m = disk_mask(9)
    cfg = OpticalConfig(gravity_cosines=(0.3, 0.0, np.sqrt(0.91)), gravity_weight=1e-3)
    target = initial_volume(m, 0.3)
    hf = init_mesh(m, 0.3)
    st = MaskStencil(m.membership)
    z = _tension_once(st, hf.z, _buffer(st, m.membership & ~_rim(m)))[m.membership]
    out = HeightField(m, _volume_restored(st, z + _tilt(st, cfg), target))
    assert volume_of(out) == pytest.approx(target, rel=1e-9)


def test_volume_step_clamps_negative_heights():
    m = square_mask(4, pad=0)
    z = np.where(m.membership, 0.05, 0.0)
    z[0, 0] = 3.0
    hf = HeightField(m, z)
    # the shift is strongly negative
    out = _volume_restored(MaskStencil(m.membership), hf.z[m.membership], 1.0)
    assert out.min() >= 0.0
    assert volume_of(HeightField(m, out)) == pytest.approx(1.0, rel=1e-9)


# --- energies -----------------------------------------------------------------


def test_energy_flat_zero_field_counts_area():
    m = square_mask(10, pad=0)
    hf = HeightField(m, np.zeros(m.membership.shape))
    e_t, e_g, e = energy_of(hf, OpticalConfig())
    assert e_t == pytest.approx(float(m.area))
    assert e_g == 0.0 and e == e_t


def test_energy_plane_contributes_sqrt_two_per_element():
    m = square_mask(12)
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    hf = HeightField(m, np.where(m.membership, jj.astype(float), 0.0))
    e_t, _, _ = energy_of(hf, OpticalConfig())
    assert e_t == pytest.approx(np.sqrt(2.0) * m.area, rel=1e-12)


def test_energy_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    m = square_mask(6, pad=0)
    z = np.where(m.membership, rng.uniform(0, 3, m.membership.shape), 0.0)
    hf = HeightField(m, z)
    cfg = OpticalConfig(gravity_cosines=(0.48, 0.6, 0.64), gravity_weight=0.37,
                        principal_point=(0.0, 0.0))
    e_t, e_g, e = energy_of(hf, cfg)
    # oracle: per-pixel numeric quadrature of the column potential plus an
    # independent area-element sum
    gx, gy = m.stencil.gradient(hf.heights)
    e_t_oracle = sum(
        np.sqrt(1 + gx[i, j] ** 2 + gy[i, j] ** 2)
        for i in range(m.height) for j in range(m.width) if m.membership[i, j])
    e_g_oracle = 0.0
    for i in range(m.height):
        for j in range(m.width):
            if not m.membership[i, j]:
                continue
            integrand = lambda w, x=float(j), y=float(i): (x * 0.48 + y * 0.6 + w * 0.64)
            val, _ = integrate.quad(integrand, 0.0, hf.z[i, j])
            e_g_oracle += cfg.gravity_weight * val
    assert e_t == pytest.approx(e_t_oracle, abs=1e-10)
    assert e_g == pytest.approx(e_g_oracle, abs=1e-10)
    assert e == pytest.approx(e_t_oracle + e_g_oracle, abs=1e-10)


# --- fixed-volume solve -------------------------------------------------------


_TILTED = (0.3, 0.4, np.sqrt(0.75))


def test_solve_matches_spherical_cap(cap50, config):
    mask, hf, report = cap50
    target = initial_volume(mask, 0.30)
    oracle = cap_field(mask, target)
    assert volume_of(hf) == pytest.approx(target, rel=1e-9)
    rms = float(np.sqrt(((hf.z - oracle)[mask.membership] ** 2).mean()))
    assert rms <= 0.02 * oracle.max()


def test_solve_energy_not_above_initial_cylinder(cap50, config):
    # the descent starts from the cylinder with its contact line pinned; the
    # raw cylinder is flat and by itself already minimizes the in-mask area
    # integral, so the comparison is against the pinned starting state
    mask, hf, report = cap50
    z0 = np.array(init_mesh(mask, 0.30).z)
    z0[_rim(mask)] = 0.0
    e_init = energy_of(HeightField(mask, z0), config)[2]
    assert report.final_energy <= e_init


def test_solve_windowed_energy_descent(cap50):
    _, _, report = cap50
    energies = np.array([e for _, e in report.energy_history])
    rises = np.diff(energies) / energies[:-1]
    assert rises.max() <= 1e-6


def test_solve_converged_state_is_fixed_point(cap50, config):
    mask, hf, report = cap50
    assert report.converged
    target = initial_volume(mask, 0.30)
    again, rep2 = solve_fixed_volume(mask, target, params(max_iters=1), config, init=hf)
    assert rep2.last_delta < params().convergence_rel * target


@pytest.mark.parametrize("mask, gravity, alpha", [
    (blob_mask(58, shape=(140, 140), center=(70.0, 70.0), irregularity=0.06, seed=1),
     (0.0, 0.0, 1.0), 0.30),
    (disk_mask(40), _TILTED, 0.30),
    (disk_mask(60), (0.0, 0.0, 1.0), 0.40),
], ids=["pipeline_blob_plumb", "disk_tilted", "steep_disk_plumb"])
def test_solve_converges_within_default_cap(mask, gravity, alpha):
    # a pipeline-sized drop, and a steep one started cold, converge under the
    # default sweep cap, and a plain sweep from the result moves it by less
    # than the threshold
    cfg = OpticalConfig(gravity_cosines=gravity, gravity_weight=1e-3)
    target = initial_volume(mask, alpha)
    hf, report = solve_fixed_volume(mask, target, params(), cfg)
    assert report.converged
    _, probe = solve_fixed_volume(mask, target, params(max_iters=1), cfg, init=hf)
    assert probe.last_delta < params().convergence_rel * target


def test_solve_extrapolation_keeps_the_fixed_point():
    # the jumps move the iterates, not the limit: a tight solve ends where a
    # plain sweep leaves it in place to within the tight threshold
    m = blob_mask(14, shape=(40, 40), center=(20.0, 20.0), irregularity=0.1, seed=1)
    cfg = OpticalConfig(gravity_cosines=_TILTED, gravity_weight=1e-3)
    target = initial_volume(m, 0.3)
    hf, report = solve_fixed_volume(m, target, params(max_iters=20000, convergence_rel=1e-10),
                                    cfg)
    assert report.converged
    _, probe = solve_fixed_volume(m, target, params(max_iters=1), cfg, init=hf)
    assert probe.last_delta < 1e-10 * target


@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "cols"])
def test_solve_mirrored_gravity_gives_mirrored_surface(axis):
    # a centred disk under in-plane gravity and under its mirror image must
    # give mirror-image surfaces: the sweep treats both directions alike
    m = disk_mask(40, shape=(101, 101))
    target = initial_volume(m, 0.30)
    surfaces = []
    for sign in (1.0, -1.0):
        cos = [0.0, 0.0, 0.8]
        cos[1 - axis] = 0.6 * sign  # gravity_cosines are (x, y, z); axis 0 is y
        cfg = OpticalConfig(gravity_cosines=tuple(cos), gravity_weight=1e-3)
        surfaces.append(solve_fixed_volume(m, target, params(), cfg)[0].z)
    up, down = surfaces
    assert np.abs(up - np.flip(down, axis=axis)).max() <= 1e-9 * up.max()


def test_solve_volume_exact_after_each_sweep(config):
    m = disk_mask(15)
    target = initial_volume(m, 0.3)
    hf = None
    for _ in range(5):
        hf, _ = solve_fixed_volume(m, target, params(max_iters=1), config, init=hf)
        assert volume_of(hf) == pytest.approx(target, rel=1e-9)


def test_solve_symmetric_mask_gives_symmetric_surface(config):
    m = disk_mask(16)
    hf, _ = solve_fixed_volume(m, initial_volume(m, 0.25), params(max_iters=1500), config)
    assert np.abs(hf.z - hf.z[:, ::-1]).max() <= 1e-6
    assert np.abs(hf.z - hf.z[::-1, :]).max() <= 1e-6


def _spiked_init(m):
    # low heights with a tall centre: the first volume restore shifts the low
    # pixels below zero, so it runs both clamp branches
    z = np.where(m.membership, 0.05, 0.0)
    c = m.height // 2
    z[c - 1 : c + 2, c - 1 : c + 2] = 400.0
    return HeightField(m, z)


class _GatherStencil:
    """The pixel-vector stencil of the sweep before the buffer layout: per
    axis, each member's neighbors as positions in the pixel vector (its own
    where one is missing) and a weight of 0.5, 1 or 0."""

    def __init__(self, m):
        idx = np.flatnonzero(m)
        self.rows, self.cols = np.divmod(idx, m.shape[1])
        pos = np.zeros(m.size, dtype=np.intp)
        pos[idx] = np.arange(idx.size)
        self.axes = []
        for di, dj in ((1, 0), (0, 1)):
            has_p = (_shifted_oracle(m, di, dj) & m)[m]
            has_m = (_shifted_oracle(m, -di, -dj) & m)[m]
            step = di * m.shape[1] + dj
            self.axes.append((pos[np.where(has_p, idx + step, idx)],
                              pos[np.where(has_m, idx - step, idx)],
                              np.array([0.0, 1.0, 0.5])[has_p.astype(int) + has_m]))

    def diff(self, v, axis):
        ip, im, wt = self.axes[axis]
        return wt * (v[ip] - v[im])


def _restore_oracle(z, target):
    """The volume restore on a pixel vector, with both clamp branches; also
    returns whether the plain shift went negative."""
    b = z.size
    z = z + (target - z.sum()) / b
    clamped = bool(z.min() < 0.0)
    if clamped:
        z = np.maximum(z, 0.0)
        z += (target - z.sum()) / b
        if z.min() < 0.0:
            z = np.maximum(z, 0.0)
            if z.sum() > 0.0:
                z *= target / z.sum()
    return z, clamped


def _rre_oracle(xs):
    """The reduced-rank extrapolation of the pixel vectors ``xs``: weights
    summing to 1 on all but the newest, the last one eliminated, fitted by
    least squares to cancel the weighted sum of successive changes; None
    where that fails or is not finite."""
    d = [b - a for a, b in zip(xs, xs[1:])]
    lhs = np.stack([dj - d[-1] for dj in d[:-1]], axis=1)
    try:
        w = np.linalg.lstsq(lhs, -d[-1], rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    base = xs[-2]
    out = base + w @ np.stack([x - base for x in xs[:-2]])
    return out if np.isfinite(out).all() else None


def _oracle_solve(mask, target, n, cfg, init=None):
    """``solve_fixed_volume`` as the pixel-vector sweep ran it, independent of
    the solver's kernel: on the vector of the box's member pixels, the
    tension step, the heavy-ball term and the tilt plane added with no clamp,
    then the volume restore, the one clamp; the change is summed over the
    box grid.  Every 50 sweeps the heights jump to the extrapolation of the
    last 7 iterates, restored to the volume, with the heavy ball at rest, and
    the next 25 sweeps may not stop.  Also returns, per sweep, whether the
    plain volume shift went negative (the clamp branches ran)."""
    box = mask.box
    m = box.crop(mask.membership)
    st = _GatherStencil(m)
    z0 = init.z if init is not None else init_mesh(mask, target / mask.area**1.5).z
    z = box.crop(z0)[m]
    ring = DropMask(m).boundary()[m]
    ii, jj = st.rows, st.cols
    b = z.size
    gcx, gcy, gcz = cfg.gravity_cosines
    cx, cy = cfg.resolve_principal_point(mask.membership.shape)
    x, y = jj + box.j0 - cx, ii + box.i0 - cy
    # the tilt: a plane about the mask's pixel mean, zero on the ring
    plane = np.where(ring, 0.0, _TAU * cfg.gravity_weight
                     * ((ii - ii.mean()) * gcy + (jj - jj.mean()) * gcx))

    def energy(v):
        gx, gy = st.diff(v, 1), st.diff(v, 0)
        e_t = float(np.sqrt(1.0 + gx * gx + gy * gy).sum())
        e_g = cfg.gravity_weight * float((v * (x * gcx + y * gcy) + 0.5 * v * v * gcz).sum())
        return e_t, e_g, e_t + e_g

    threshold = SolverParams().convergence_rel * target
    change = np.zeros(m.shape)
    history, clamped, converged, t = [], [], False, 0
    last = np.zeros(b)  # the previous sweep's change; none before the first
    iterates, hold = [], 0
    for t in range(1, n + 1):
        if t % 50 == 1 and t > 1:
            jumped = _rre_oracle(iterates[-7:])
            if jumped is not None:
                z, _ = _restore_oracle(jumped, target)
                last, hold = np.zeros(b), t + 25
        prev = z
        # tension, with the contact ring pinned at zero
        z = np.where(ring, 0.0, z)
        gx, gy = st.diff(z, 1), st.diff(z, 0)
        denom = np.sqrt(1.0 + gx * gx + gy * gy)
        flow = st.diff(gx / denom, 1) + st.diff(gy / denom, 0)
        z = np.where(ring, z, z + _TAU * flow)
        # heavy ball, the previous sweep's change again, and the tilt, off
        # the ring
        z = np.where(ring, z, z + (_MOMENTUM * last + plane))
        z, clamp = _restore_oracle(z, target)
        clamped.append(clamp)
        last = z - prev
        iterates.append(z)
        change[m] = np.abs(last)
        delta = float(change.sum())
        if (t - 1) % 50 == 0:
            history.append((t, energy(z)[2]))
        if delta < threshold and t >= hold:
            converged = True
            break
    e = energy(z)
    history.append((t, e[2]))
    grid = np.zeros(m.shape)
    grid[m] = z
    return (HeightField(mask, box.paste(grid)),
            SolveReport(t, *e, delta, converged, tuple(history)), clamped)


def _largest_component(m):
    labels, n = ndimage.label(m)
    sizes = np.bincount(labels.ravel())[1:]
    return DropMask(labels == 1 + int(np.argmax(sizes)))


def _assert_solve_matches_oracle(m, cfg, init=None, n=64):
    target = initial_volume(m, 0.3)
    hf, report = solve_fixed_volume(m, target, params(max_iters=n), cfg, init=init)
    hf_o, report_o, clamped = _oracle_solve(m, target, n, cfg, init)
    assert hf.z.tobytes() == hf_o.z.tobytes()
    assert report == report_o
    return clamped


@pytest.mark.parametrize("gravity", [(0.0, 0.0, 1.0), _TILTED], ids=["plumb", "tilted"])
def test_solve_matches_pixel_vector_oracle_on_clamped_blob(gravity):
    # cut by the top and right raster edges: the box is clamped on both
    m = blob_mask(14, shape=(30, 40), center=(3.0, 36.0), seed=1)
    box = m.box
    assert box.i0 == 0 and box.j1 == 40 and m.membership[0].any() and m.membership[:, -1].any()
    cfg = OpticalConfig(gravity_cosines=gravity, gravity_weight=1e-3)
    assert not _assert_solve_matches_oracle(m, cfg)[0]
    _assert_solve_matches_oracle(m, cfg, init=_spiked_init(m))
    if gravity == _TILTED:
        # a disk touching all four grid edges: its box is the whole grid
        edge = DropMask(disk_mask(12).membership[2:-2, 2:-2])
        mm = edge.membership
        assert mm[0].any() and mm[-1].any() and mm[:, 0].any() and mm[:, -1].any()
        assert not _assert_solve_matches_oracle(edge, cfg)[0]


def test_solve_matches_pixel_vector_oracle_on_one_pixel_arms():
    # the largest component of each oracle mask; together they hold pixels
    # with one member neighbor and with none along an axis
    masks = [_largest_component(m) for m in _oracle_masks()]
    lone = 0
    for m in masks:
        for di, dj in ((1, 0), (0, 1)):
            mm = m.membership
            lone += int((mm & ~_shifted_oracle(mm, di, dj) & ~_shifted_oracle(mm, -di, -dj)).sum())
    assert lone > 0
    for m in masks:
        for gravity in ((0.0, 0.0, 1.0), _TILTED):
            _assert_solve_matches_oracle(m, OpticalConfig(gravity_cosines=gravity,
                                                          gravity_weight=1e-3))


def test_solve_matches_pixel_vector_oracle_from_spiked_start():
    # the first volume restore runs both clamp branches
    m = disk_mask(12)
    for gravity in ((0.0, 0.0, 1.0), _TILTED):
        cfg = OpticalConfig(gravity_cosines=gravity, gravity_weight=1e-3)
        clamped = _assert_solve_matches_oracle(m, cfg, init=_spiked_init(m), n=80)
        assert clamped[0]


def test_solve_matches_pixel_vector_oracle_across_two_jumps():
    # unconverged through sweep 120, so it extrapolates after sweeps 50 and 100
    m = blob_mask(14, shape=(40, 40), center=(20.0, 20.0), irregularity=0.1, seed=2)
    cfg = OpticalConfig(gravity_cosines=_TILTED, gravity_weight=1e-3)
    assert len(_assert_solve_matches_oracle(m, cfg, n=120)) == 120


def test_solve_aliases_nothing(config):
    # the sweep updates its buffers in place; none of them is the caller's
    m = disk_mask(10)
    target = initial_volume(m, 0.3)
    init = _spiked_init(m)
    before = init.z.tobytes()
    a, _ = solve_fixed_volume(m, target, params(max_iters=20), config, init=init)
    b, _ = solve_fixed_volume(m, target, params(max_iters=20), config, init=init)
    assert init.z.tobytes() == before
    assert not a.z.flags.writeable and not b.z.flags.writeable
    assert not np.shares_memory(a.z, b.z)
    assert not np.shares_memory(a.z, init.z) and not np.shares_memory(b.z, init.z)
    assert a.z.tobytes() == b.z.tobytes()


@pytest.mark.parametrize("principal_point", [None, (-50.3, -20.7)], ids=["centre", "off_grid"])
def test_solve_reports_energy_of_its_result_on_offset_box(principal_point):
    # the sweeps run on the drop's box, which starts away from the grid
    # origin; the reported energy takes plate coordinates from raster
    # indices, as energy_of does on the whole grid
    m = disk_mask(10, shape=(48, 60), center=(30.0, 37.0))
    box = m.box
    assert box.i0 > 0 and box.j0 > 0
    cfg = OpticalConfig(gravity_cosines=_TILTED, gravity_weight=1e-3,
                        principal_point=principal_point)
    hf, report = solve_fixed_volume(m, initial_volume(m, 0.3), params(max_iters=30), cfg)
    assert report.final_energy == energy_of(hf, cfg)[2]


def test_solve_rejects_init_from_another_grid(config):
    # the solve reads the init on the mask's box, so an init on another grid
    # is refused, naming both grids, whether or not the box fits inside it
    m = disk_mask(15, shape=(40, 40))
    for shape in ((60, 80), (30, 30)):
        init = init_mesh(disk_mask(12, shape=shape), 0.3)
        with pytest.raises(DomainError, match=re.escape(
                f"init lies on a {shape} grid, the mask on (40, 40)")):
            solve_fixed_volume(m, initial_volume(m, 0.3), params(), config, init=init)


def test_solve_reads_an_init_from_another_mask_on_its_own_box(config):
    # an init solved on another mask of the same grid has another box; the
    # solve reads it on its own mask's box, exactly as it reads the same
    # heights restated on its own mask
    m = disk_mask(10, shape=(48, 60), center=(24.0, 30.0))
    other = disk_mask(12, shape=(48, 60), center=(26.0, 33.0))
    assert other.box != m.box
    init, _ = solve_fixed_volume(other, initial_volume(other, 0.3), params(max_iters=40), config)
    restated = HeightField(m, init.z)
    assert restated.mask.box == m.box
    v = initial_volume(m, 0.25)
    got, rep = solve_fixed_volume(m, v, params(max_iters=60), config, init=init)
    want, rep_want = solve_fixed_volume(m, v, params(max_iters=60), config, init=restated)
    assert got.heights.shape == (m.box.i1 - m.box.i0, m.box.j1 - m.box.j0)
    assert got.heights.tobytes() == want.heights.tobytes()
    assert rep == rep_want


def test_solve_rejects_bad_inputs(config):
    m = disk_mask(5)
    with pytest.raises(DomainError):
        solve_fixed_volume(m, -1.0, params(), config)
    with pytest.raises(DomainError):
        solve_fixed_volume(DropMask(np.zeros((3, 3), dtype=bool)), 1.0, params(), config)
    for target in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="finite"):
            solve_fixed_volume(m, target, params(), config, init=init_mesh(m, 0.3))
