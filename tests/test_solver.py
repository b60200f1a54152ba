import numpy as np
import pytest
from scipy import integrate

from dropstereo import (DomainError, DropMask, HeightField, OpticalConfig, SolveReport,
                        SolverParams, disk_mask, energy_of, gravity_step, init_mesh,
                        initial_volume, solve_fixed_volume, tension_step, volume_of,
                        volume_step)
from dropstereo.core import MaskStencil

from conftest import cap_field


def square_mask(n, pad=2):
    m = np.zeros((n + 2 * pad, n + 2 * pad), dtype=bool)
    m[pad : pad + n, pad : pad + n] = True
    return DropMask(m)


def params(**kw):
    return SolverParams(**kw)


# --- initialization ---------------------------------------------------------


def test_initial_volume_substitution():
    assert initial_volume(square_mask(10, pad=0), 0.30) == pytest.approx(300.0)


def test_initial_volume_cubic_in_scale():
    assert initial_volume(square_mask(20, pad=0), 0.30) == pytest.approx(2400.0)


def test_initial_volume_empty_mask_rejected():
    with pytest.raises(DomainError):
        initial_volume(DropMask(np.zeros((3, 3), dtype=bool)), 0.30)


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


def _tension_oracle(z, mask, tau, sigma):
    """Independent one-step curvature flow: explicit loops, central/one-sided
    differences, rim pinned to zero."""
    m = mask.membership
    h, w = m.shape
    zp = z.copy()
    rim = mask.boundary()
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
    interior = mask.interior()
    for i in range(h):
        for j in range(w):
            if interior[i, j]:
                out[i, j] = zp[i, j] + tau * sigma * (diff(fx, i, j, 0, 1) + diff(fy, i, j, 1, 0))
    return np.maximum(out, 0.0)


def test_tension_step_matches_independent_stencil_and_pulls_rim_down():
    m = disk_mask(7)
    cfg = OpticalConfig()
    z = np.where(m.interior(), 2.0, 0.0)  # flat interior, pinned zero rim
    hf = HeightField(m, z)
    st = MaskStencil(m.membership)
    stepped = st.scatter(tension_step(st.gather(hf.z), st, st.gather(m.boundary()), params(), cfg))
    expected = _tension_oracle(z, m, 0.5, 1.0)
    assert np.abs(stepped - expected).max() <= 1e-12
    ring = m.interior() & ~DropMask(m.interior()).interior()
    assert (stepped[ring] < 2.0).all()  # curvature flow pulls the rim down
    center = m.membership.shape[0] // 2
    assert stepped[center, center] == pytest.approx(2.0)


def test_tension_step_planar_patch_free_boundary_fixed_point():
    m = square_mask(9)
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    hf = HeightField(m, np.where(m.membership, 1.0 + 0.3 * jj, 0.0))
    st = MaskStencil(m.membership)
    stepped = st.scatter(tension_step(st.gather(hf.z), st, None, params(), OpticalConfig()))
    assert np.abs(stepped - hf.z).max() <= 1e-9


def test_tension_descends_energy_from_pinned_cylinder():
    # the raw flat cylinder minimizes the in-mask area energy by itself, so
    # descent is measured across the step after pinning establishes the
    # contact line
    m = disk_mask(12)
    cfg = OpticalConfig()
    st = MaskStencil(m.membership)
    hf0 = init_mesh(m, 0.30)
    ring = st.gather(m.boundary())
    # the first step pins the rim
    hf1 = HeightField(m, st.scatter(tension_step(st.gather(hf0.z), st, ring, params(), cfg)))
    hf2 = HeightField(m, st.scatter(tension_step(st.gather(hf1.z), st, ring, params(), cfg)))
    e1 = energy_of(hf1, cfg)[0]
    e2 = energy_of(hf2, cfg)[0]
    assert e2 < e1


# --- gravity step ------------------------------------------------------------


def test_gravity_along_axis_is_identity():
    m = disk_mask(6)
    hf = init_mesh(m, 0.2)
    st = MaskStencil(m.membership)
    out = st.scatter(gravity_step(st.gather(hf.z), st, params(), OpticalConfig()))
    assert (out == hf.z).all()


def test_gravity_antisymmetric_about_centroid():
    m = square_mask(11, pad=0)
    # unit height keeps the height-weighted centroid at the geometric center
    hf = HeightField(m, np.ones(m.membership.shape))
    cfg = OpticalConfig(gravity_cosines=(1.0, 0.0, 0.0), gravity_weight=1e-3)
    st = MaskStencil(m.membership)
    out = st.scatter(gravity_step(st.gather(hf.z), st, params(), cfg))
    delta = out - hf.z
    xg = 5.0
    cols = np.arange(11)
    gained = delta[5, cols > xg]
    lost = delta[5, cols < xg]
    assert (gained > 0).all() and (lost < 0).all()
    assert np.abs(delta[5, :] + delta[5, ::-1]).max() <= 1e-15


def test_gravity_step_matches_manual_five_by_five():
    m = square_mask(5, pad=0)
    z = np.arange(25, dtype=float).reshape(5, 5) / 10.0
    hf = HeightField(m, z)
    tau, g_w = 0.5, 1e-2
    cfg = OpticalConfig(gravity_cosines=(0.6, 0.8, 0.0), gravity_weight=g_w)
    st = MaskStencil(m.membership)
    out = st.scatter(gravity_step(st.gather(hf.z), st, params(tau=tau), cfg))
    # oracle: evaluate the update by hand, term by term
    b = 25
    x_g = sum(z[i, j] * j for i in range(5) for j in range(5)) / b
    y_g = sum(z[i, j] * i for i in range(5) for j in range(5)) / b
    for i in range(5):
        for j in range(5):
            expect = max(z[i, j] - tau * g_w * ((y_g - i) * 0.8 + (x_g - j) * 0.6), 0.0)
            assert out[i, j] == pytest.approx(expect, abs=1e-15)


def test_gravity_tilts_symmetric_dome_downhill():
    m = disk_mask(10)
    c = (m.height - 1) / 2.0
    ii, jj = np.mgrid[0 : m.height, 0 : m.width]
    dome = np.where(m.membership, np.maximum(100.0 - (ii - c) ** 2 - (jj - c) ** 2, 0.0) / 25.0, 0.0)
    hf = HeightField(m, dome)
    cfg = OpticalConfig(gravity_cosines=(0.5, 0.0, np.sqrt(0.75)), gravity_weight=1e-3)
    st = MaskStencil(m.membership)
    out = HeightField(m, st.scatter(volume_step(gravity_step(st.gather(hf.z), st, params(), cfg),
                                                volume_of(hf))))

    def mass_centroid_x(f):
        iis, jjs = np.nonzero(f.mask.membership)
        return float((f.z[iis, jjs] * jjs).sum() / f.z.sum())

    assert mass_centroid_x(out) > mass_centroid_x(hf)  # downhill is +x here


# --- volume step --------------------------------------------------------------


def test_volume_step_uniform_shift():
    m = square_mask(10, pad=0)
    hf = HeightField(m, np.where(m.membership, 2.5, 0.0))  # sum 250
    out = MaskStencil(m.membership).scatter(volume_step(hf.z[m.membership], 300.0))
    assert out[m.membership] == pytest.approx(3.0)


def test_volume_step_noop_at_target():
    m = square_mask(10, pad=0)
    hf = HeightField(m, np.where(m.membership, 3.0, 0.0))
    out = MaskStencil(m.membership).scatter(volume_step(hf.z[m.membership], 300.0))
    assert np.abs(out - hf.z).max() == 0.0


def test_volume_step_restores_after_tension_and_gravity():
    m = disk_mask(9)
    cfg = OpticalConfig(gravity_cosines=(0.3, 0.0, np.sqrt(0.91)), gravity_weight=1e-3)
    target = initial_volume(m, 0.3)
    hf = init_mesh(m, 0.3)
    st = MaskStencil(m.membership)
    z = tension_step(st.gather(hf.z), st, st.gather(m.boundary()), params(), cfg)
    z = gravity_step(z, st, params(), cfg)
    out = HeightField(m, st.scatter(volume_step(z, target)))
    assert volume_of(out) == pytest.approx(target, rel=1e-9)


def test_volume_step_clamps_negative_heights():
    m = square_mask(4, pad=0)
    z = np.where(m.membership, 0.05, 0.0)
    z[0, 0] = 3.0
    hf = HeightField(m, z)
    # the shift is strongly negative
    out = MaskStencil(m.membership).scatter(volume_step(hf.z[m.membership], 1.0))
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
                        tension_weight=2.0, principal_point=(0.0, 0.0))
    e_t, e_g, e = energy_of(hf, cfg)
    # oracle: per-pixel numeric quadrature of the column potential plus an
    # independent area-element sum
    st = MaskStencil(m.membership)
    v = st.gather(hf.z)
    gx, gy = st.scatter(st.diff(v, 1)), st.scatter(st.diff(v, 0))
    e_t_oracle = cfg.tension_weight * sum(
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
    z0[mask.boundary()] = 0.0
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


_TILTED = (0.3, 0.4, np.sqrt(0.75))


# a one-pixel margin, or a mask touching the grid edge where the crop is
# clamped, makes the solver's bounding-box crop the whole grid, so the manual
# sweeps see the same pixel coordinates and sum the change over the same grid
@pytest.mark.parametrize("trim, gravity, spiked", [
    (1, (0.0, 0.0, 1.0), False),
    (1, _TILTED, False),
    (2, _TILTED, False),
    (1, (0.0, 0.0, 1.0), True),
], ids=["default", "in_plane", "edge", "clamped"])
def test_solve_equals_manual_sweeps(trim, gravity, spiked):
    m = DropMask(disk_mask(12).membership[trim:-trim, trim:-trim])
    cfg = OpticalConfig(gravity_cosines=gravity, gravity_weight=1e-3)
    target = initial_volume(m, 0.3)
    n = 26
    init = _spiked_init(m) if spiked else None
    hf, report = solve_fixed_volume(m, target, params(max_iters=n), cfg, init=init)

    st = MaskStencil(m.membership)
    ring = st.gather(m.boundary())
    z = st.gather(init.z if spiked else init_mesh(m, target / m.area**1.5).z)
    history = []
    for t in range(n):
        prev = z
        z = tension_step(z, st, ring, params(), cfg)
        z = gravity_step(z, st, params(), cfg)
        if t == 0:
            # the clamp branches run exactly when the plain shift goes negative
            assert ((z + (target - z.sum()) / z.size).min() < 0.0) == spiked
        z = volume_step(z, target)
        delta = float(np.abs(st.scatter(z) - st.scatter(prev)).sum())
        if t % 50 == 0:
            history.append((t + 1, energy_of(HeightField(m, st.scatter(z)), cfg)[2]))
    e_t, e_g, e = energy_of(HeightField(m, st.scatter(z)), cfg)
    history.append((n, e))
    expected = SolveReport(n, e_t, e_g, e, delta, False, tuple(history))
    assert hf.z.tobytes() == st.scatter(z).tobytes()
    assert report == expected
    if trim == 2:
        assert m.membership[0].any() and m.membership[-1].any()
        assert m.membership[:, 0].any() and m.membership[:, -1].any()


def test_solve_rejects_bad_inputs(config):
    m = disk_mask(5)
    with pytest.raises(DomainError):
        solve_fixed_volume(m, -1.0, params(), config)
    with pytest.raises(DomainError):
        solve_fixed_volume(DropMask(np.zeros((3, 3), dtype=bool)), 1.0, params(), config)
