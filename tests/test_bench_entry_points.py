"""What the benchmark uses of the program.  Its tracer (``bench/tracing.py``)
rebinds every name in its ``ENTRY_POINTS`` when it installs, so each one must
still exist in its module; a removed or renamed entry point breaks every
traced benchmark run.  Its workloads (``bench/workloads.py``) import names
from the package, read named fields off the results and compare raster-sized
arrays."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

from dropstereo import (DropMask, OpticalConfig, SolverParams, disk_mask, initial_volume,
                        solve_fixed_volume)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _entry_points():
    # executed from its source, so nothing is written next to it
    namespace = {"__name__": "_bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["ENTRY_POINTS"]


def test_every_traced_entry_point_resolves():
    entry_points = _entry_points()
    assert entry_points
    for layer, (modname, names) in entry_points.items():
        home = importlib.import_module(modname)
        for qual in names:
            if "." in qual:
                # a method: the tracer takes it from the class's own namespace
                cls_name, attr = qual.split(".")
                assert attr in vars(getattr(home, cls_name, object)), f"{layer}: {modname}.{qual}"
            else:
                assert callable(getattr(home, qual, None)), f"{layer}: {modname}.{qual}"


def test_every_name_the_workloads_import_resolves():
    # a public name removed from the package fails here, not only inside a
    # benchmark run; a name that is no attribute must be a submodule
    imported = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dropstereo":
            home = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(home, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                imported.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dropstereo":
                    importlib.import_module(alias.name)
                    imported.append(alias.name)
    assert "dropstereo.render_synthetic" in imported


# arguments that the tracer's probes (``_probe`` in bench/tracing.py) read by
# name from a call's bound arguments; a renamed one fails only inside a
# traced run
PROBED_ARGUMENTS = {
    ("dropstereo.solver", "solve_fixed_volume"): ("mask", "target_volume", "params"),
    ("dropstereo.volume_loop", "estimate_shape"): ("loop_params",),
    ("dropstereo.stereo", "match_grids"): ("params", "ok_a"),
}


def test_probed_arguments_keep_their_names():
    probed = dict(PROBED_ARGUMENTS)
    # every reader and writer of the formats layer is probed for its file size
    modname, names = _entry_points()["formats"]
    probed.update({(modname, name): ("path",) for name in names})
    for (modname, name), args in probed.items():
        params = inspect.signature(getattr(importlib.import_module(modname), name)).parameters
        for arg in args:
            assert arg in params, f"{modname}.{name} has no argument '{arg}'"


# fields that the probes read from an argument or a result; a renamed one,
# too, fails only inside a traced run
PROBED_FIELDS = {
    ("dropstereo.solver", "SolverParams"): ("convergence_rel",),
    ("dropstereo.solver", "SolveReport"): ("iterations_run", "converged", "last_delta"),
    ("dropstereo.formats", "VolumeLoopParams"): ("max_outer_updates",),
    ("dropstereo.volume_loop", "VolumeLoopReport"): ("outer_updates",),
    ("dropstereo.stereo", "BlockMatchParams"): ("window", "stride"),
    ("dropstereo.raytrace", "TraceField"): ("valid",),
    ("dropstereo.stereo", "DepthResult"): ("valid",),
    ("dropstereo.rectify", "RectifiedView"): ("valid",),
}


def test_probed_fields_keep_their_names():
    for (modname, cls_name), names in PROBED_FIELDS.items():
        cls = getattr(importlib.import_module(modname), cls_name)
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name in fields, f"{modname}.{cls_name} has no field '{name}'"


# what ``bench/workloads.py`` reads off the program's results by name; a
# removed one fails only inside a benchmark run
WORKLOAD_READS = {
    ("dropstereo.stereo", "DepthResult"): ("depths", "points", "correspondences", "residuals",
                                           "valid"),
    ("dropstereo.rectify", "RectifiedView"): ("raster", "valid", "origin", "scale"),
    ("dropstereo.core", "DropMask"): ("membership", "area"),
    ("dropstereo.core", "HeightField"): ("z",),
}


def test_workload_reads_exist():
    for (modname, cls_name), names in WORKLOAD_READS.items():
        cls = getattr(importlib.import_module(modname), cls_name)
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert name in fields or isinstance(vars(cls).get(name), property), \
                f"{modname}.{cls_name} has no field or property '{name}'"
    # the workloads read each point's x and count the correspondences
    from dropstereo.stereo import DepthResult

    hints = typing.get_type_hints(DepthResult)
    point, = (a for a in typing.get_args(hints["points"]) if a is not Ellipsis)
    assert "x" in point._fields
    assert typing.get_origin(hints["correspondences"]) is tuple


def test_workload_masks_and_heights_are_raster_sized():
    # the workloads compare masks and heights of different drops pixel by
    # pixel on the raster (IoU, height error, the digest).  A drop holds
    # only its box; these reads are its read-only raster views, built on
    # every read, so the workloads run unchanged.
    m = disk_mask(6, shape=(40, 60), center=(12.0, 45.0))
    hf, _ = solve_fixed_volume(m, initial_volume(m, 0.3), SolverParams(max_iters=5),
                               OpticalConfig())
    assert m.membership.shape == hf.z.shape == (40, 60)


def test_the_solve_reads_its_ring_through_boundary(monkeypatch):
    # the benchmark's self-test expects core.boundary_calls > 0 on pipeline
    # and volume, counted on DropMask.boundary; a solve that read the ring
    # straight off the mask's stencil would fail only there
    calls = []
    boundary = DropMask.boundary
    monkeypatch.setattr(DropMask, "boundary", lambda self: calls.append(self) or boundary(self))
    m = disk_mask(6)
    solve_fixed_volume(m, initial_volume(m, 0.3), SolverParams(max_iters=5), OpticalConfig())
    assert calls and all(c is m for c in calls)
