"""rtfbeam benchmark: one workload per process, BLAS pinned to one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-static --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of every rtfbeam layer in spans and prints the per-layer metrics
instead. Human-readable lines come first; the last line of standard output
is one JSON object. A full report (machine block, every metric, checks and,
when traced, the spans) is written to ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = 1
# must precede the first numpy import: BLAS reads these once, at load time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
IMPORT_REPEATS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_ms.p50": "ms",
    "cell_ms.p90": "ms",
    "render_s.p50": "s",
    "peak_rss_mb": "MB",
}
QUALITY = {  # printed and written to the report; they vary by scene, not by run
    "fail_frac": "frac",
    "si_sdr_gain_db": "dB",
    "rtf_mse_db": "dB",
    "doa_err_deg": "deg",
}
PER_LAYER = {  # name -> unit; suffix says how it is computed, see README.md
    "simulator.render_moving_source.ms": "ms",
    "simulator.render_babble.ms": "ms",
    "simulator.synthesize_babbler_signals.ms": "ms",
    "simulator.mix_at_snr.ms": "ms",
    "simulator.self_share": "frac",
    "stft.analyze.ms": "ms",
    "stft.synthesize.ms": "ms",
    "stft.analyze.calls_per_cell": "1/cell",
    "covariance.hermitian_evd.ms": "ms",
    "covariance.hermitian_evd.calls_per_cell": "1/cell",
    "covariance.estimate_mixture_covariance.calls_per_cell": "1/cell",
    "covariance.sqrt_pair.ms": "ms",
    "covariance.whiten.ms": "ms",
    "covariance.whitened_mixture_covariance.ms": "ms",
    "covariance.self_share": "frac",
    "rtf.track_rtf_past.ms": "ms",
    "rtf.track_rtf_past.calls_per_cell": "1/cell",
    "rtf.cw_trajectory.ms": "ms",
    "rtf.rtf_mse.ms": "ms",
    "rtf.invalid_frac": "frac",
    "rtf.self_share": "frac",
    "beamformer.mvdr_weights.ms": "ms",
    "beamformer.mvdr_weights.calls_per_cell": "1/cell",
    "beamformer.apply.ms": "ms",
    "beamformer.narrowband_beampattern.ms": "ms",
    "beamformer.dead_bins": "1/cell",
    "beamformer.self_share": "frac",
    "metrics.si_sdr.ms": "ms",
    "metrics.doa_error.ms": "ms",
    "metrics.self_share": "frac",
    "pipeline.simulate.ms": "ms",
    "pipeline.noise_stats.ms": "ms",
    "pipeline.estimate_trajectory.ms": "ms",
    "pipeline.beamform_side.ms": "ms",
    "pipeline.evaluate_bundle.self_ms": "ms",
    "cli.load_bundle.ms": "ms",
    "cli.write_bundle.ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "frac",
}
# call counts broken down by cell kind, e.g. hermitian_evd per "beamform:past"
COUNTED = (
    "stft.analyze", "covariance.hermitian_evd",
    "covariance.estimate_mixture_covariance", "rtf.track_rtf_past",
    "beamformer.mvdr_weights",
)
DEAD_BINS = re.compile(r"(\d+) bins have no valid RTF")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_rtfbeam():
    """Import rtfbeam from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rtfbeam
    except ImportError as exc:
        fail(f"cannot import rtfbeam from {SRC}: {exc}")
    if Path(rtfbeam.__file__).resolve().parent.parent != SRC:
        fail(f"rtfbeam imported from {rtfbeam.__file__}, not from {SRC}")


def blas_threads() -> int | None:
    """Read the thread count back from numpy's loaded OpenBLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_read_back": blas_threads(),
    }


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing rtfbeam."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rtfbeam"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def mean_quality(cells, key: str) -> float:
    values = [c.quality[key] for c in cells if key in c.quality]
    return float(statistics.fmean(values)) if values else float("nan")


def end_to_end(run, setup_s: float) -> dict:
    seconds = [c.seconds for c in run.cells]
    return {
        "setup_s": setup_s,
        "cells_per_s": len(run.cells) / run.busy_s,
        "cell_ms.p50": 1e3 * float(np.percentile(seconds, 50)),
        "cell_ms.p90": 1e3 * float(np.percentile(seconds, 90)),
        "render_s.p50": float(np.percentile(run.render_s, 50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, loop: int, span_cost: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and call counts per cell kind."""
    inside = set(summary.subtree(loop))
    loop_s = summary.duration[loop]
    cells = [i for i in inside if summary.spans[i][0] == "bench.cell"]

    def loop_or_all(name):
        """Spans of ``name`` in the timed loop, else anywhere (set-up, probe)."""
        spans = summary.named(name)
        return [i for i in spans if i in inside] or spans

    def attr_sum(names, key):
        spans = [i for n in names for i in loop_or_all(n)]
        return sum((summary.spans[i][4] or {}).get(key, 0) for i in spans)

    out = {}
    for metric in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "ms":
            spans = loop_or_all(stem)
            out[metric] = 1e3 * statistics.median(summary.duration[i] for i in spans)
        elif kind == "self_ms":
            layer = summary.layer(stem)
            spans = loop_or_all(stem)
            out[metric] = 1e3 * statistics.median(
                summary.layer_self_time(i, layer) for i in spans)
        elif kind == "calls_per_cell":
            out[metric] = sum(summary.spans[i][0] == stem for i in inside) / len(cells)
        elif kind == "self_share":
            out[metric] = sum(summary.self_time[i] for i in inside
                              if summary.layer(summary.spans[i][0]) == stem) / loop_s
    names = ("rtf.cw_trajectory", "rtf.track_rtf_past")
    out["rtf.invalid_frac"] = attr_sum(names, "invalid") / attr_sum(names, "entries")
    dead = sum((summary.spans[i][4] or {}).get("dead_bins", 0) for i in inside
               if summary.spans[i][0] == "beamformer.mvdr_weights")
    out["beamformer.dead_bins"] = dead / len(cells)
    library = sum(summary.layer(summary.spans[i][0]) in tracing.LAYERS for i in inside)
    out["trace.overhead_frac"] = library * span_cost / loop_s

    by_kind = {}
    for c in cells:
        kind = summary.spans[c][4]["kind"]
        counts = by_kind.setdefault(kind, dict.fromkeys(COUNTED, 0) | {"cells": 0})
        counts["cells"] += 1
        for i in summary.subtree(c):
            if summary.spans[i][0] in counts:
                counts[summary.spans[i][0]] += 1
    calls = {kind: {n: counts[n] / counts["cells"] for n in COUNTED}
             for kind, counts in sorted(by_kind.items())}
    return out, calls


def main(argv=None) -> int:
    import_rtfbeam()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = machine_block()
    if machine["blas_threads_read_back"] not in (None, BLAS_THREADS):
        fail(f"BLAS runs {machine['blas_threads_read_back']} threads, "
             f"pinned {BLAS_THREADS}")

    tracer = span_cost = None
    if args.trace:
        tracer = tracing.Tracer()
        span_cost = tracing.span_cost_s()

        def trajectory_validity(traj):
            return {"invalid": int(np.sum(~traj.valid)), "entries": int(traj.valid.size)}

        observers = {name: trajectory_validity
                     for name in ("rtf.cw_trajectory", "rtf.track_rtf_past")}
        tracing.instrument(tracer, observers)

        def record_warning(message, *rest, **kwargs):
            match = DEAD_BINS.search(str(message))
            if match:
                tracer.add(tracer.current(), "dead_bins", int(match.group(1)))

        warnings.simplefilter("always")
        warnings.showwarning = record_warning

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    workload = workloads.WORKLOADS[args.workload]()
    run = workloads.Run(args.seed, workdir, tracer)
    try:
        setup_t0 = time.perf_counter()
        with run.span("bench.setup"):
            workload.setup(run)
        setup_s = time.perf_counter() - setup_t0

        run.busy_s = 0.0  # set-up renders are set-up time, not loop time
        loop_t0 = time.perf_counter()
        units = 0
        with run.span("bench.loop"):
            while units < workload.quality_units or time.perf_counter() - loop_t0 < args.seconds:
                workload.unit(run, units)
                units += 1
                if units == workload.quality_units:
                    quality_cells = list(run.cells)
        loop_s = time.perf_counter() - loop_t0
        workload.recheck(run)
        if args.trace:
            with run.span("bench.probe"):
                workload.probe(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(c.error is not None for c in run.cells)
    quality = {
        "fail_frac": failed / len(run.cells),
        "si_sdr_gain_db": mean_quality(quality_cells, "si_sdr_gain_db"),
        "rtf_mse_db": mean_quality(quality_cells, "rtf_mse_db"),
        "doa_err_deg": mean_quality(quality_cells, "doa_err_deg"),
    }
    correct = failed == 0 and not run.violations
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "units": units, "cells": len(run.cells),
        "renders": len(run.render_s), "loop_s": loop_s, "busy_s": run.busy_s,
        "correct": correct, "violations": run.violations,
        "errors": [c.error for c in run.cells if c.error],
        "quality": {k: {"value": v, "unit": QUALITY[k]} for k, v in quality.items()},
    }
    if args.trace:
        summary = tracing.Summary(tracer.spans)
        loop = summary.named("bench.loop")[0]
        values, calls = per_layer(summary, loop, span_cost)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        report.update(span_cost_s=span_cost, calls_per_cell_by_kind=calls,
                      spans=tracer.spans)
    else:
        values = end_to_end(run, setup_s + import_seconds())
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        report["samples"] = {"cell_ms": len(run.cells), "render_s": len(run.render_s)}
        kinds = sorted({c.kind for c in run.cells})
        report["cell_ms_p50_by_kind"] = {
            k: 1e3 * statistics.median(c.seconds for c in run.cells if c.kind == k)
            for k in kinds}
    report["metrics"] = metrics

    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1))

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {units} units, {len(run.cells)} cells, "
          f"{len(run.render_s)} renders, loop {loop_s:.2f} s, busy {run.busy_s:.2f} s")
    for name, m in list(metrics.items()) + list(report["quality"].items()):
        print(f"  {name:<55} {m['value']:>12.6g} {m['unit']}")
    if args.trace:
        for kind, counts in calls.items():
            print(f"  calls per cell, {kind}: "
                  + ", ".join(f"{n.split('.')[-1]} {v:g}" for n, v in counts.items()))
    for v in run.violations:
        print(f"  CHECK FAILED: {v}")
    print(f"report: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(run.cells), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
