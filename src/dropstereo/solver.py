"""Fixed-volume minimum-energy surface solver.

A drop surface minimizes tension energy plus gravitational potential energy
at constant volume.  Each sweep is one step and one projection.  The step
adds, with no clamp in between, a curvature-flow tension step with the
contact line (the mask boundary ring) pinned to zero, a heavy-ball term
(Polyak 1964) of ``_MOMENTUM`` times the previous sweep's change on the
cells off the ring, and the gravity tilt: a plane fixed per solve, driven by
the in-plane gravity components, zero on the ring.  The projection is a
uniform shift restoring the target volume exactly, the one place that keeps
heights non-negative.  A solve starts with zero momentum, so its first sweep
is the plain one; the term vanishes where the surface stops moving, so the
fixed point is that of the plain sweep, reached in far fewer sweeps.

The sweeps' slow tail is a few modes, chiefly the odd/even checkerboard that
central differences leave loose, and shrinks by about 2 % per 50 sweeps.
Every ``_CYCLE`` sweeps the heights therefore jump to the reduced-rank
extrapolation (RRE) of the cycle's last ``_DEPTH + 2`` iterates, the volume
restore projects the jump, and the momentum restarts at zero.  A limit of
the sweeps is a limit of the jumps, so the fixed point stays the same.  The
first sweeps after a jump run with little momentum and change less than a
running sweep would, so the delta test waits half a cycle after each jump.

A solve keeps its heights in two buffers of the mask's one layout,
``DropMask.stencil`` (the box grid with a zero row above and below), and
each sweep writes the new heights over the older of the two.  The sweep's
gradient is the stencil's doubled difference, the energy samples read the
stencil's gradient and the pin reads its ring through
``DropMask.boundary``; the stencil is built once per mask, so every solve
on a mask, its energy samples and the normals of its surfaces share it.  The
work buffers and the members' plate coordinates are found once per solve.
Sums that set the result's bytes keep their grouping: the volume restore
and the energies sum the pixel vector (``z[mask]``), the per-sweep change
sums the box grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DropMask, HeightField, MaskStencil, OpticalConfig, plate_coords
from .errors import DomainError

# sweeps between the energy samples of a solve's history
_ENERGY_EVERY = 50
# step size of the tension and gravity updates
_TAU = 0.5
# heavy-ball factor on the previous sweep's change; at 0.9 the 50-sweep
# energy samples of an r=58 blob rise by 1.5e-6, at 0.95 an r=50 disk's by 3e-3
_MOMENTUM = 0.8
# sweeps per extrapolation cycle; at 100 the 50-sweep energy samples of an
# r=50 disk rise by 3e-3
_CYCLE = 50
# unknowns of each reduced-rank extrapolation, which reads the cycle's last
# _DEPTH + 2 iterates; at depth 3 the 50-sweep energy samples of an r=50 disk
# rise by 1.3e-6
_DEPTH = 5


@dataclass(frozen=True)
class SolverParams:
    max_iters: int = 4000
    convergence_rel: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not (math.isfinite(self.convergence_rel) and self.convergence_rel > 0.0):
            raise DomainError("convergence_rel must be finite and positive")


@dataclass(frozen=True)
class SolveReport:
    iterations_run: int
    tension_energy: float
    gravity_energy: float
    final_energy: float
    last_delta: float
    converged: bool
    energy_history: tuple[tuple[int, float], ...] = ()


def initial_volume(mask: DropMask, alpha: float) -> float:
    """Scale-invariant volume guess alpha * B^(3/2)."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("alpha must be finite and positive")
    b = mask.area
    if b == 0:
        raise DomainError("cannot size a drop on an empty mask")
    return alpha * b**1.5


def init_mesh(mask: DropMask, alpha: float) -> HeightField:
    """Constant-height cylinder z = alpha * B^(1/2); its volume is exactly
    alpha * B^(3/2)."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("alpha must be finite and positive")
    b = mask.area
    if b == 0:
        raise DomainError("cannot initialize on an empty mask")
    return HeightField(mask, np.where(mask.inside, alpha * math.sqrt(b), 0.0))


def volume_of(hf: HeightField) -> float:
    """Sum of heights over the mask (unit pixel area)."""
    return float(hf.heights.sum())


def energy_of(hf: HeightField, config: OpticalConfig) -> tuple[float, float, float]:
    """(E_T, E_G, E): tension energy, gravitational potential energy, total.

    E_T sums the area elements sqrt(1 + |grad z|^2); E_G integrates the
    gravity potential through each column, which closes to
    z*(x cos_x + y cos_y) + z^2/2 * cos_z per pixel.  Pixel coordinates are
    taken relative to the principal point.
    """
    return _energy(hf.mask, config)(hf.heights)


def _energy(mask: DropMask, config: OpticalConfig):
    """``energy_of`` as a function of a grid of heights on the box of
    ``mask``, with the gradient and the members' plate coordinates built
    once.  The sums run over the pixel vectors (``a[mask]``)."""
    inside, gradient = mask.inside, mask.stencil.gradient
    gcx, gcy, gcz = config.gravity_cosines
    x, y = plate_coords(mask.box, config)
    lever = (x * gcx + y * gcy)[inside]

    def energy(z: np.ndarray) -> tuple[float, float, float]:
        gx, gy = (g[inside] for g in gradient(z))
        e_t = float(np.sqrt(1.0 + gx * gx + gy * gy).sum())
        z = z[inside]
        e_g = config.gravity_weight * float((z * lever + 0.5 * z * z * gcz).sum())
        return e_t, e_g, e_t + e_g

    return energy


def _tension(src: np.ndarray, z: np.ndarray, stencil: MaskStencil, interior: np.ndarray,
             moves: np.ndarray, work: np.ndarray) -> None:
    """One explicit curvature-flow step descending the tension energy, from
    the buffer ``src`` into the buffer ``z``: the cells where ``interior`` is
    1 move and every other cell ends at zero, so the ring left out of
    ``interior`` is the pinned contact line.  ``interior`` must leave out
    that whole ring: the divergence is the plain central one, which is right
    at every cell off the ring (all its 4-neighbours are members) and is
    discarded on the ring.  ``moves`` is ``interior * (0.5 * _TAU)``, the
    central difference's halving and the step size in one factor; ``work``
    holds four zeroed buffers, which keep their padding at zero.

    The gradient is the stencil's ``differences``, taken at twice its size:
    the members with one neighbour along an axis all lie on the ring, whose
    heights are zero here, so D and E are twice the masked gradient.
    sqrt(4 + D^2 + E^2) is then exactly twice the area element, so D and E
    over it are the bytes of the halved gradient over the area element."""
    d, e, den, flow = work
    np.multiply(src, interior, out=z)
    stencil.differences(z, d, e)
    np.multiply(d, d, out=den)
    den += 4.0
    np.multiply(e, e, out=flow)
    den += flow
    np.sqrt(den, out=den)
    d /= den
    e /= den
    o, n, s = stencil.origin, stencil.size - 2 * stencil.origin, stencil.stride
    cells = flow[o : o + n]
    np.subtract(d[o + 1 : o + 1 + n], d[o - 1 : o - 1 + n], out=cells)
    cells += np.subtract(e[o + s : o + s + n], e[o - s : o - s + n], out=den[o : o + n])
    flow *= moves
    z += flow


def _tilt(stencil: MaskStencil, config: OpticalConfig) -> np.ndarray:
    """The gravity tilt of one sweep as a pixel vector: a plane through zero
    at the mask's pixel mean, rising along the in-plane gravity components,
    so that it moves mass downhill (along +cosines)."""
    gcx, gcy, _ = config.gravity_cosines
    ii, jj = np.nonzero(stencil.inside)
    return _TAU * config.gravity_weight * ((ii - ii.mean()) * gcy + (jj - jj.mean()) * gcx)


def _restore_volume(z: np.ndarray, zm: np.ndarray, target_volume: float,
                    stencil: MaskStencil) -> None:
    """Uniform shift restoring the target volume exactly, in place on the
    buffer ``z``, whose member values are the pixel vector ``zm``; the cells
    off the mask stay at zero.

    This is the one place that keeps heights non-negative: heights pushed
    negative are clamped to zero and the deficit redistributed once; a
    multiplicative rescale guards the rare case where that still leaves
    negatives.
    """
    b = zm.size
    shift = (target_volume - zm.sum()) / b
    # rounding is monotone, so this is the smallest of zm + shift
    if zm.min() + shift >= 0.0:
        z += shift
        z *= stencil.ones
        return
    zm = np.maximum(zm + shift, 0.0)
    zm += (target_volume - zm.sum()) / b
    if zm.min() < 0.0:
        zm = np.maximum(zm, 0.0)
        total = zm.sum()
        if total > 0.0:
            zm *= target_volume / total
    z[stencil.members] = zm


def _extrapolate(iterates: np.ndarray) -> np.ndarray | None:
    """The reduced-rank extrapolation (Eddy 1979; Sidi, Ford & Smith 1986)
    of the iterates in the rows of ``iterates``: the combination
    s = sum_j g_j x_j of all but the newest, with sum_j g_j = 1, that
    minimizes |sum_j g_j (x_{j+1} - x_j)|.  None where the least-squares
    solve fails or the limit is not finite."""
    u = iterates[1:] - iterates[:-1]
    # the last weight is 1 minus the others
    try:
        g = np.linalg.lstsq((u[:-1] - u[-1]).T, -u[-1], rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    x = iterates[-2]
    limit = x + g @ (iterates[:-2] - x)
    return limit if np.isfinite(limit).all() else None


def solve_fixed_volume(mask: DropMask, target_volume: float, params: SolverParams,
                       config: OpticalConfig, init: HeightField | None = None
                       ) -> tuple[HeightField, SolveReport]:
    """Iterate sweeps until the per-sweep absolute height change drops below
    convergence_rel * V or max_iters is reached.  A sweep adds the tension
    step, then ``_MOMENTUM`` times the previous sweep's change (zero on the
    first sweep of every solve) plus the fixed tilt plane, both on the cells
    off the contact ring, and projects with the volume restore.

    Before each sweep that starts a new ``_CYCLE``, the heights jump to the
    extrapolation of the last ``_DEPTH + 2`` iterates, projected by the
    volume restore, and the previous change is zeroed; a jump that fails or
    is not finite is skipped.  The delta test does not stop the solve in the
    ``_CYCLE // 2`` sweeps after a jump.

    The result's contact ring is not zero: it holds the uniform shift of
    the last volume restore, which the tension step pins back to zero at
    the next sweep.  Zeroing it would break the exact volume."""
    if not (math.isfinite(target_volume) and target_volume > 0.0):
        raise DomainError("target volume must be finite and positive")
    b = mask.area
    if b == 0:
        raise DomainError("cannot solve on an empty mask")
    box = mask.box
    if init is not None and init.mask.box.shape != box.shape:
        raise DomainError(f"init lies on a {init.mask.box.shape} grid, "
                          f"the mask on {box.shape}")

    # the sweeps only touch the mask; run them on the drop's box, where the
    # state and every work array are buffers of the mask's stencil,
    # allocated once per solve; the start is the init's heights, copied from
    # the init's box to this mask's box, or the cylinder of ``init_mesh``
    st = mask.stencil
    if init is None:
        z = st.pad(np.full(b, target_volume / b**1.5 * math.sqrt(b)))
    else:
        z = st.pad(init.mask.box.restate(init.heights, box)[mask.inside])
    interior = st.pad(~mask.boundary()[mask.inside])
    energy = _energy(mask, config)
    moves = interior * (0.5 * _TAU)
    keep = interior * _MOMENTUM
    prev = np.empty(st.size)  # the heights before the sweep
    change = np.empty(st.shape)  # |step| on the box grid
    step = np.zeros(st.size)  # the previous sweep's change
    work = np.zeros((4, st.size))
    tilt = st.pad(_tilt(st, config))
    tilt *= interior
    iterates = np.empty((_DEPTH + 2, st.members.size))  # the cycle's last ones
    threshold = params.convergence_rel * target_volume
    history: list[tuple[int, float]] = []
    converged = False
    delta = math.inf
    iterations = 0
    settled = 0  # the first sweep the delta test may stop
    for t in range(params.max_iters):
        if t and t % _CYCLE == 0:
            limit = _extrapolate(iterates)
            if limit is not None:
                z[st.members] = limit
                _restore_volume(z, limit, target_volume, st)
                step.fill(0.0)
                settled = t + _CYCLE // 2
        z, prev = prev, z
        _tension(prev, z, st, interior, moves, work)
        step *= keep
        step += tilt
        z += step
        # no finiteness check: each restore leaves heights >= 0 summing to
        # the finite V, and a step from such heights stays finite
        _restore_volume(z, z.take(st.members), target_volume, st)
        iterations = t + 1
        np.subtract(z, prev, out=step)
        # summed over a contiguous box grid, zeros off the mask included:
        # the pixel vector's own sum, or one over a strided view of the
        # buffer, groups the additions differently
        delta = float(np.abs(st.cells(step), out=change).sum())
        slot = t % _CYCLE - _CYCLE + len(iterates)
        if slot >= 0:
            z.take(st.members, out=iterates[slot])
        if t % _ENERGY_EVERY == 0:
            history.append((iterations, energy(st.cells(z))[2]))
        if delta < threshold and t >= settled:
            converged = True
            break

    e_t, e_g, e = energy(st.cells(z))
    history.append((iterations, e))
    report = SolveReport(iterations, e_t, e_g, e, delta, converged, tuple(history))
    return HeightField(mask, st.cells(z)), report
