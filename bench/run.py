#!/usr/bin/env python3
"""dropstereo benchmark.

    python3 bench/run.py --workload {pipeline,volume,stereo} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout and nothing is installed.  The seed makes the
inputs; the set-up is repeated a few times and timed, then timed passes over
the inputs repeat until ``--seconds`` have passed (at least one).  Times are
scaled to a fixed host speed with a reference kernel.  Every pass is checked
and digested.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds one traced set-up and one traced pass after the untraced
ones and reports the per-layer metrics instead (see bench/README.md).
"""

from __future__ import annotations

import os
import sys

# one process; BLAS/OpenMP pools no larger than the CPUs this process may use
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= _NPROC):
        os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-ups per run; setup_s is their median
SETUP_REPEATS = {"pipeline": 2, "volume": 2, "stereo": 3}
# reference-kernel time that defines a calibrated second: about the kernel's
# median on the 2-CPU Xeon host of the readings in bench/README.md
REF_NOMINAL_S = 0.45

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ACCURACY_METRICS = ("depth_err_pct", "height_rms_pct", "alpha_err_pct", "rect_zncc")


def _import_program():
    """Import dropstereo from this checkout's src/, never from elsewhere."""
    if not (SRC / "dropstereo" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'dropstereo'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dropstereo

    if not Path(dropstereo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported dropstereo from {dropstereo.__file__}, not {SRC}")


def git_sha(root: Path = ROOT) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": _NPROC, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(), "seed": seed}


def reference_kernel() -> float:
    """Seconds for a fixed numpy workload shaped like the program's hot
    loops: masked stencil sweeps (solver) and windowed products (matcher)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((160, 160))
    m = a > 0.1
    v = rng.random(121)
    t0 = time.perf_counter()
    for _ in range(1500):
        ap = np.zeros_like(a)
        ap[:, :-1] = a[:, 1:]
        d = np.where(m, ap - a, 0.0)
        a = a + 1e-3 * np.sqrt(1.0 + d * d)
        a -= a.mean()
    for _ in range(40):
        wins = np.lib.stride_tricks.sliding_window_view(a, (11, 11))
        wins.reshape(-1, 121) @ v
    return time.perf_counter() - t0


class Clock:
    """Times sections and scales them to the reference speed.

    The host's speed drifts by tens of percent between runs.  The reference
    kernel runs before the first section and after every section; every
    time in the run is multiplied by REF_NOMINAL_S over the median kernel
    time of the run, which no single burst of load can move far.
    """

    def __init__(self):
        self.refs = [reference_kernel()]

    def time(self, fn, *args):
        """(fn's result, raw seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        self.refs.append(reference_kernel())
        return out, raw

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.refs)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run timed passes, check them; with ``trace`` also run one
    traced set-up and pass.  Returns every number the run produced."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup, run, check = WORKLOADS[workload]
    clock = Clock()
    setup_raw = []
    for _ in range(SETUP_REPEATS[workload]):
        inputs, raw = clock.time(setup, seed, work)
        setup_raw.append(raw)

    pass_raw, results = [], []
    start = time.perf_counter()
    while not pass_raw or time.perf_counter() - start < seconds:
        outputs, raw = clock.time(run, inputs)
        pass_raw.append(raw)
        results.append(check(inputs, outputs))

    scale = clock.scale()
    out = {"workload": workload, "env": environment(seed), "results": results,
           "setup_s": [t * scale for t in setup_raw], "setup_raw": setup_raw,
           "pass_s": [t * scale for t in pass_raw], "pass_raw": pass_raw, "ref_s": clock.refs}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            inputs = setup(seed, work)
            mark = len(tracer.spans)
            outputs, traced_raw = clock.time(run, inputs)
            end = len(tracer.spans)
        finally:
            tracer.uninstall()
        results.append(check(inputs, outputs))
        layers = layer_metrics(tracer.spans, mark, end)
        # render and the truth solves run only in set-up
        setup_layers = layer_metrics(tracer.spans, 0, mark)
        layers["raytrace.render_s"] = setup_layers["raytrace.render_s"]
        layers["solver.setup_s"] = setup_layers["solver.busy_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced_raw / statistics.median(pass_raw) - 1.0)
        out["per_layer"] = layers
    return out


def summarize(m: dict, trace: bool) -> dict:
    """The result line: correct/attempted/failed and, in BENCHMARK.json's
    order and units, its end-to-end or (traced) per-layer metrics.  An
    accuracy metric a workload does not measure reads 0."""
    results = m["results"]
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    if trace:
        values = {**m["per_layer"], "detect.iou_min": 0.0, **results[0].extra,
                  "failed_frac": failed / attempted}
        values.update({k: results[0].accuracy.get(k, 0.0) for k in ACCURACY_METRICS})
        spec = SPEC["per_layer"]
    else:
        values = {"wall_s": statistics.median(m["pass_s"]),
                  "setup_s": statistics.median(m["setup_s"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        spec = SPEC["end_to_end"]
    metrics = {e["name"]: {"value": float(values[e["name"]]), "unit": e["unit"]} for e in spec}
    return {"correct": failed == 0 and len({r.digest for r in results}) == 1,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def report(m: dict, line: dict) -> None:
    """Human-readable lines ahead of the result line."""
    results = m["results"]
    print(f"workload {m['workload']}: " + " ".join(f"{k}={v}" for k, v in m["env"].items()))
    for name in ("setup", "pass"):
        print(f"{name} seconds, calibrated (raw): " + ", ".join(
            f"{c:.4f} ({r:.4f})" for c, r in zip(m[f"{name}_s"], m[f"{name}_raw"])))
    print(f"{len(m['pass_s'])} passes: too few for a tail percentile")
    print("reference kernel seconds: " + ", ".join(f"{t:.4f}" for t in m["ref_s"]))
    print(f"digests: {sorted({r.digest[:16] for r in results})}")
    for name in ACCURACY_METRICS:
        v = results[0].accuracy.get(name)
        print(f"accuracy {name}: {'not measured' if v is None else f'{v:.6g}'}")
    print(f"failed_frac: {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']}/{line['attempted']} operations)")
    for r in results:
        for name, why in r.failures:
            print(f"FAILED {name}: {why}")
    for name, v in line["metrics"].items():
        print(f"{name}: {v['value']:.6g} {v['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    line = summarize(m, bool(args.trace))
    report(m, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
