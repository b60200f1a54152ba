"""Self-test of the benchmark (not part of the repository's test suite).

    python3 -m pytest bench/selftest.py

Runs every workload of BENCHMARK.json twice on one seed, each time with its
traced pass, and checks that every named metric is reported, that no
operation fails, and that the output digests and the exact work counts repeat.
Takes four to six minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_program()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = ("solver.sweeps", "solver.pixel_sweeps", "raytrace.traced_px", "core.boundary_calls",
         "stereo.grid_points", "volume_loop.solves")
SEED = 3


def _measure(workload: str, tag: str) -> dict:
    work = run.ROOT / ".bench_work" / f"selftest-{workload}-{tag}"
    try:
        return run.measure(workload, SEED, 0.0, True, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_present_and_runs_repeat(workload):
    first, second = _measure(workload, "a"), _measure(workload, "b")
    for m in (first, second):
        untraced = run.summarize(m, trace=False)
        traced = run.summarize(m, trace=True)
        assert untraced["correct"] and traced["correct"], m["results"][0].failures
        assert untraced["failed"] == 0
        assert set(untraced["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
        assert set(traced["metrics"]) == {p["name"] for p in SPEC["per_layer"]}
        assert all(v["value"] > 0 for v in untraced["metrics"].values())

    assert {r.digest for r in first["results"]} == {r.digest for r in second["results"]}
    for name in EXACT:
        assert first["per_layer"][name] == second["per_layer"][name], name

    layers = first["per_layer"]
    if workload == "stereo":
        assert layers["solver.calls"] == 0 and layers["volume_loop.calls"] == 0
    else:
        assert layers["solver.calls"] > 0 and layers["core.boundary_calls"] > 0
    if workload == "pipeline":
        # the pass is mostly solver time; the traced pass is the one timed
        pass_s = sum(layers[f"cli.{c}_s"] for c in ("detect", "reconstruct", "stereo",
                                                     "rectify", "eval"))
        assert layers["solver.busy_s"] > 0.5 * pass_s
