"""Spans around the public entry points of each dropstereo layer.

A `Tracer` rebinds every entry point listed in `ENTRY_POINTS`, in each
loaded module that holds it, to a wrapper that records one span per
call: name, start, end, parent span and a few work counts taken from the
arguments and the result.  Nothing under `src/` changes; the rebinding lives
only in the benchmark process and `Tracer.uninstall` undoes it.  Spans stay
in memory; `layer_metrics` reduces a slice of them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

# layer -> (defining module, entry points); "Class.method" names a method
ENTRY_POINTS = {
    "solver": ("dropstereo.solver", ["solve_fixed_volume"]),
    "volume_loop": ("dropstereo.volume_loop", ["estimate_shape"]),
    "raytrace": ("dropstereo.raytrace", ["trace_field", "dewarp_image", "render_synthetic"]),
    "stereo": ("dropstereo.stereo", ["depth_from_drops", "block_match", "match_grids",
                                     "triangulate"]),
    "rectify": ("dropstereo.rectify", ["rectify_drop"]),
    "detect": ("dropstereo.detect", ["detect_drops"]),
    "optics": ("dropstereo.optics", ["refract_arrays", "fresnel_transmittance_arrays",
                                     "equivalent_camera_depth", "incidence_directions",
                                     "theta_cprime_field", "critical_normal_z_field",
                                     "dark_band_mask", "normal_z_field"]),
    "formats": ("dropstereo.formats", ["read_pnm", "write_pnm", "read_mask", "write_mask",
                                       "read_pfm", "write_pfm", "read_height_field",
                                       "write_height_field", "read_config", "write_config",
                                       "read_correspondences", "write_correspondences"]),
    "cli": ("dropstereo.cli", ["cmd_synth", "cmd_detect", "cmd_reconstruct", "cmd_stereo",
                               "cmd_rectify", "cmd_eval"]),
    "core": ("dropstereo.core", ["DropMask.boundary", "HeightField.__post_init__"]),
}

_FORMAT_READERS = {"read_pnm", "read_mask", "read_pfm", "read_height_field", "read_config",
                   "read_correspondences"}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _probe(layer: str, name: str, fn):
    """Work counts of one call, read from its arguments and result after the
    span has ended (so the probe's own cost is outside the span)."""
    bind = _bound(fn)
    if name == "solve_fixed_volume":
        def probe(args, kwargs, result):
            a = bind(args, kwargs)
            rep = result[1]
            threshold = a["params"].convergence_rel * a["target_volume"]
            return (rep.iterations_run, rep.iterations_run * a["mask"].area,
                    bool(rep.converged), rep.last_delta / threshold)
    elif name == "estimate_shape":
        from dropstereo.formats import VolumeLoopParams

        def probe(args, kwargs, result):
            lp = bind(args, kwargs)["loop_params"] or VolumeLoopParams()
            updates = result[2].outer_updates
            return updates, updates >= lp.max_outer_updates
    elif name == "trace_field":
        def probe(args, kwargs, result):
            return int(result.valid.size)
    elif name == "match_grids":
        def probe(args, kwargs, result):
            a = bind(args, kwargs)
            w, s = a["params"].window, a["params"].stride
            win = np.lib.stride_tricks.sliding_window_view(a["ok_a"], (w, w))
            return int(win[::s, ::s].all(axis=(2, 3)).sum())
    elif name in ("block_match", "detect_drops"):
        def probe(args, kwargs, result):
            return len(result)
    elif name == "depth_from_drops":
        def probe(args, kwargs, result):
            return int(result.valid.sum())
    elif name == "rectify_drop":
        def probe(args, kwargs, result):
            return float(result.valid.mean())
    elif layer == "formats":
        def probe(args, kwargs, result):
            path = bind(args, kwargs)["path"]
            return os.path.getsize(path) if os.path.isfile(path) else 0
    else:
        return None
    return probe


class Tracer:
    """In-memory span recorder.  Each span is a list
    ``[name, start, end, parent_index, work]``; parents are per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stack()
            span = [name, clock(), 0.0, st[-1] if st else -1, None]
            st.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                st.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every entry point in each loaded module that holds it,
        the benchmark's own modules included."""
        import sys

        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer, (modname, names) in ENTRY_POINTS.items():
            home = importlib.import_module(modname)
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrap(f"{layer}.{qual}", original, None))
                    continue
                original = getattr(home, qual)
                wrapped = self._wrap(f"{layer}.{qual}", original, _probe(layer, qual, original))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of spans[lo:hi] (one timed pass).

    A layer's busy time sums its outermost spans, so a layer entry point
    called from inside the same layer is not counted twice.  Self time is a
    span's duration minus the durations of its direct children.
    """
    layer = [s[0].split(".", 1)[0] for s in spans]
    children: dict[int, list[int]] = {}
    for i in range(lo, hi):
        children.setdefault(spans[i][3], []).append(i)

    def outermost(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if layer[p] == layer[i]:
                return False
            p = spans[p][3]
        return True

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def of(name: str) -> list[int]:
        return [i for i in range(lo, hi) if spans[i][0] == name]

    def busy(lay: str) -> float:
        return sum(dur(i) for i in range(lo, hi) if layer[i] == lay and outermost(i))

    def calls(lay: str) -> int:
        return sum(1 for i in range(lo, hi) if layer[i] == lay)

    def total(*names: str) -> float:
        """Time in the named entry points, not counting one inside another."""
        return sum(dur(i) for i in range(lo, hi)
                   if spans[i][0] in names and not _inside(spans, i, names))

    m: dict[str, float] = {}
    solves = of("solver.solve_fixed_volume")
    work = [spans[i][4] for i in solves]
    pixel_sweeps = sum(w[1] for w in work)
    m["solver.calls"] = len(solves)
    m["solver.busy_s"] = busy("solver")
    m["solver.sweeps"] = sum(w[0] for w in work)
    m["solver.pixel_sweeps"] = pixel_sweeps
    m["solver.ns_per_pixel_sweep"] = 1e9 * m["solver.busy_s"] / pixel_sweeps if pixel_sweeps else 0.0
    m["solver.converged_frac"] = sum(w[2] for w in work) / len(work) if work else 0.0
    m["solver.delta_ratio_max"] = max((w[3] for w in work), default=0.0)

    m["core.boundary_calls"] = len(of("core.DropMask.boundary"))
    m["core.boundary_s"] = total("core.DropMask.boundary")
    m["core.heightfield_builds"] = len(of("core.HeightField.__post_init__"))

    loops = of("volume_loop.estimate_shape")
    m["volume_loop.calls"] = len(loops)
    m["volume_loop.self_s"] = sum(dur(i) - sum(dur(c) for c in children.get(i, []))
                                  for i in loops)
    m["volume_loop.outer_updates"] = sum(spans[i][4][0] for i in loops)
    inner = sum(1 for i in solves if _inside(spans, i, ("volume_loop.estimate_shape",)))
    m["volume_loop.solves"] = inner / len(loops) if loops else 0.0
    m["volume_loop.cap_hit_frac"] = sum(spans[i][4][1] for i in loops) / len(loops) if loops else 0.0

    m["optics.calls"] = calls("optics")
    m["optics.busy_s"] = busy("optics")

    traces = of("raytrace.trace_field")
    m["raytrace.trace_calls"] = len(traces)
    m["raytrace.traced_px"] = sum(spans[i][4] for i in traces)
    m["raytrace.trace_s"] = total("raytrace.trace_field")
    m["raytrace.dewarp_s"] = total("raytrace.dewarp_image")
    m["raytrace.render_s"] = total("raytrace.render_synthetic")

    grids = sum(spans[i][4] for i in of("stereo.match_grids"))
    valid = sum(spans[i][4] for i in of("stereo.depth_from_drops"))
    m["stereo.busy_s"] = busy("stereo")
    m["stereo.match_s"] = total("stereo.block_match", "stereo.match_grids")
    m["stereo.triangulate_calls"] = len(of("stereo.triangulate"))
    m["stereo.triangulate_s"] = total("stereo.triangulate")
    m["stereo.grid_points"] = grids
    m["stereo.matches"] = sum(spans[i][4] for i in of("stereo.block_match"))
    m["stereo.valid_points"] = valid
    m["stereo.match_yield"] = valid / grids if grids else 0.0

    rects = of("rectify.rectify_drop")
    m["rectify.calls"] = len(rects)
    m["rectify.busy_s"] = busy("rectify")
    m["rectify.valid_frac"] = sum(spans[i][4] for i in rects) / len(rects) if rects else 0.0

    m["detect.busy_s"] = busy("detect")
    m["detect.drops_found"] = sum(spans[i][4] for i in of("detect.detect_drops"))

    io = [i for i in range(lo, hi) if layer[i] == "formats" and outermost(i)]
    m["formats.busy_s"] = busy("formats")
    m["formats.bytes_read"] = sum(spans[i][4] for i in io
                                  if spans[i][0].split(".")[1] in _FORMAT_READERS)
    m["formats.bytes_written"] = sum(spans[i][4] for i in io
                                     if spans[i][0].split(".")[1] not in _FORMAT_READERS)
    for cmd in ("detect", "reconstruct", "stereo", "rectify", "eval"):
        m[f"cli.{cmd}_s"] = total(f"cli.cmd_{cmd}")
    return m


def _inside(spans: list[list], i: int, names) -> bool:
    """Whether span i runs inside a span with one of the given names."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False
