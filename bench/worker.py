"""Benchmark worker: set up one workload, then run its timed phases.

Started by ``bench/run.py`` with ``src`` on PYTHONPATH; prints one JSON
object on stdout.  Plans:

    setup               set up (inputs and warm-up) and stop
    run:S               set up, then one untraced closed-loop phase of S s
    trace:S1:S2:S3      set up, an untraced phase of S1 s, a traced phase of
                        S2 s, and (cli only) S3 s of in-process cli.main calls

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import triadops`` and
building the untimed inputs.  After it the worker starts its calibration
process, measures ``setup_scale`` (calibrate.py) and, unless the plan is
``setup``, runs WARMUP_S of untimed items.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time

import calibrate
import spans as sp
import workloads

CHUNK_S = 1.0  # items between two calibration slices
SLICE_S = 0.15  # length of one calibration slice (at least one kernel)
WARMUP_S = 1.0  # untimed items after set-up, before the first timed item


def _phase(wl, tracer, cal, seconds: float, first: int) -> dict:
    """Closed loop, one caller: the next item starts when the previous ends.

    Items run in chunks of CHUNK_S, with a calibration slice before the
    first chunk and after every chunk; a chunk's scale is the mean of the
    two slices around it (see calibrate.py).  The phase ends at the first
    chunk end past ``seconds``, slices included.
    """
    latencies: list[float] = []
    scales: list[float] = []
    outcomes = {"ok": 0, "declined": 0, "failed": 0, "wrong": 0}
    details: list[str] = []
    elapsed = scaled_elapsed = 0.0
    i = first
    start = time.perf_counter()
    before = cal.scale(wl.calibration, SLICE_S)
    while True:
        chunk_start = time.perf_counter()
        chunk_first = i
        while True:
            with tracer.item(i):
                latency, outcome, detail = wl.run(i, tracer)
            latencies.append(latency)
            outcomes[outcome] += 1
            if outcome != "ok" and len(details) < 20:
                details.append(f"[{outcome}] item {i}: {detail}")
            i += 1
            if time.perf_counter() - chunk_start >= CHUNK_S:
                break
        chunk = time.perf_counter() - chunk_start
        after = cal.scale(wl.calibration, SLICE_S)
        scale = 0.5 * (before + after)
        before = after
        scales.extend([scale] * (i - chunk_first))
        elapsed += chunk
        scaled_elapsed += chunk * scale
        if time.perf_counter() - start >= seconds:
            break
    return {
        "elapsed": elapsed,
        "scaled_elapsed": scaled_elapsed,
        "attempted": i - first,
        "outcomes": outcomes,
        "latencies": latencies,
        "scales": scales,
        "details": details,
    }


def _environment() -> dict:
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_version,
    }


def _per_layer(wl, tracer) -> dict:
    spans = tracer.spans
    program = sp.program_spans(spans)
    program_time = sum(spans[i][3] - spans[i][2] for i in program)
    out = {f"generators.random_{c}.ms_p50": sp.ms_p50(spans, "generators", f"random_{c}") for c in workloads.SURVEY_CLASSES}
    out["generators.busy_share"] = sp.busy_seconds(spans, "generators") / program_time if program_time else 0.0
    for layer, fn in (
        ("tensor_core", "hermitian_eig"),
        ("contractions", "all24"),
        ("criteria", "classify"),
        ("criteria", "bounds"),
        ("schmidt_maps", "schmidt"),
    ):
        out[f"{layer}.{fn}.ms_p50"] = sp.ms_p50(spans, layer, fn)
    for mode in ("general", "symmetric", "conjugate", "left"):
        out[f"filters.{mode}.ms_p50"] = sp.ms_p50(spans, "filters", mode)
    stats = wl.stats
    out["filters.iterations"] = sum(wl.first_iterations.values())
    iterations = stats["filter_iterations"]
    out["filters.ms_per_iteration"] = sp.busy_seconds(spans, "filters") * 1e3 / iterations if iterations else 0.0
    calls = stats["filter_calls"]
    out["filters.converged_ratio"] = stats["filter_converged"] / calls if calls else 0.0
    for fn in ("decompose", "extract", "certificates"):
        out[f"reducibility.{fn}.ms_p50"] = sp.ms_p50(spans, "reducibility", fn)
    out["reducibility.tree_nodes"] = sum(wl.first_nodes.values())
    calls = stats["extract_calls"]
    out["reducibility.extract_ok_ratio"] = stats["extract_ok"] / calls if calls else 0.0
    out["cli.main_ms_p50"] = sp.ms_p50(spans, "cli", "main")
    if wl.name == "cli":
        scope = [i for i in program if spans[i][1] == "main"]
    else:
        scope = program
    out.update(sp.linalg_summary(spans, scope))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    null = sp.NullTracer()
    with tempfile.TemporaryDirectory(dir=args.out) as workdir, contextlib.ExitStack() as stack:
        wl = workloads.make(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        cal = stack.enter_context(calibrate.Calibrator())
        result = {"setup_s": setup_s, "setup_scale": cal.scale("spawn", 4 * SLICE_S), "pool": len(wl), "phases": {}}
        plan = args.plan.split(":")
        if plan[0] != "setup":
            wl.warmup(null, WARMUP_S)
        if plan[0] == "run":
            result["phases"]["untraced"] = _phase(wl, null, cal, float(plan[1]), 0)
        elif plan[0] == "trace":
            untraced = _phase(wl, null, cal, float(plan[1]), 0)
            wl.stats.clear()
            tracer = sp.Tracer()
            with tracer.linalg_counting():
                traced = _phase(wl, tracer, cal, float(plan[2]), untraced["attempted"])
                result["phases"] = {"untraced": untraced, "traced": traced}
                if wl.name == "cli":
                    first = untraced["attempted"] + traced["attempted"]
                    result["phases"]["cli_main"] = wl.main_pass(tracer, float(plan[3]), first)
            result["per_layer"] = _per_layer(wl, tracer)
            path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.jsonl")
            tracer.write(path, {"workload": args.workload, "seed": args.seed, "fields": ["layer", "function", "start", "end", "parent", "item"]})
            result["spans_file"] = path
        elif plan[0] != "setup":
            raise SystemExit(f"unknown plan {args.plan!r}")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_kb, children_kb) / 1024.0
    result["input_digest"] = wl.digest
    result["coverage"] = {"filters.iterations": len(wl.first_iterations), "reducibility.tree_nodes": len(wl.first_nodes)}
    result["env"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
