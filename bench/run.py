"""triadops benchmark: four closed-loop workloads, checked outputs, per-layer trace.

Usage, from the repository root (no install needed; ``src`` is put on
PYTHONPATH for the worker processes):

    python3 bench/run.py --workload survey --seed 1 --seconds 25 --trace 0

Workloads: survey, normal-form, split-extract, cli (see bench/workloads.py
for what each exercises and why).  Each run is one caller in a closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off:

    items_per_s   items completed per second over the timed phase
    item_ms_p50   median per-item latency (calls into triadops only)
    item_ms_p90   90th-percentile per-item latency
    ok_ratio      items whose result passed every check / items attempted
                  (1 - fail_ratio; fail_ratio itself is 0 on most workloads,
                  and a gated metric must never be 0)
    setup_s       median over three worker processes of the wall time from
                  process start to the workload's inputs being built
    peak_rss_mb   peak resident set of the timed worker and its children

The four times are wall times scaled to a reference host speed: each stretch
of about a second is multiplied by the rate of a fixed calibration kernel
measured next to it, over the kernel's reference rate (calibrate.py), so
that the shared host's drifting speed cancels out.  Item times follow a
compute kernel, or for cli a kernel that starts an interpreter; set-up times
follow the latter.  The unscaled figures are printed and recorded as well.

``--trace 1`` runs the workload again with spans around every call into a
triadops module and with numpy.linalg / scipy.linalg wrapped, and reports
the per-layer metrics (listed in BENCHMARK.json), plus a single-threaded
BLAS pass and ``python -X importtime`` probes.  Layers a workload never
enters report 0.  Span times are unscaled; items_per_s figures (the
single-threaded pass, the trace overhead) are scaled.

The BLAS thread variables are inherited, never set, except in the
single-threaded reference pass.  Every result records the environment and
a digest of the workload's inputs.  The last stdout line is the JSON
result; the full record goes to ``.bench_out/``.  Exit status is non-zero,
with no result line, when the package or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from calibrate import SINGLE_THREAD

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("survey", "normal-form", "split-extract", "cli")
SETUPS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _worker(workload: str, seed: int, plan: str, deadline: float, extra_env: dict | None = None) -> dict:
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--plan", plan,
        "--out", OUT,
    ]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("run deadline reached before a worker could start")
    # A session of its own, so a timeout also ends the cli subprocess a worker may be waiting on.
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        env=_env(extra_env),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {plan} did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {plan} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _import_times(deadline: float, probes: int = 3) -> dict:
    """Median cumulative import times from ``python -X importtime -c 'import triadops'``."""
    runs = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import triadops"],
            env=_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr[-2000:]}")
        runs.append(_parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _parse_importtime(text: str) -> dict:
    """Cumulative ms of the triadops and numpy packages and of every outermost scipy import.

    numpy submodules that scipy pulls in are counted in scipy's time.
    """
    entries = []  # (depth, name, cumulative_us) in print order (children first)
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    totals = {"triadops": 0, "numpy": 0, "scipy": 0}
    for idx, (depth, name, cum) in enumerate(entries):
        if name in ("triadops", "numpy"):
            totals[name] += cum
        elif name.split(".")[0] == "scipy":
            # a line's parent is the next line printed at a smaller depth
            parent = next((n for d, n, _ in entries[idx + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                totals["scipy"] += cum
    return {f"import.{k}_ms": v / 1e3 for k, v in totals.items()}


def _phase_metrics(phase: dict) -> dict:
    """End-to-end metrics of one phase, its times scaled to the reference host speed."""
    lat_ms = [x * s * 1e3 for x, s in zip(phase["latencies"], phase["scales"])]
    return {
        "items_per_s": phase["attempted"] / phase["scaled_elapsed"],
        "item_ms_p50": _percentile(lat_ms, 50),
        "item_ms_p90": _percentile(lat_ms, 90),
        "ok_ratio": phase["outcomes"]["ok"] / phase["attempted"],
    }


def _raw_metrics(phase: dict) -> dict:
    """The same timings as measured, unscaled (recorded, not gated)."""
    lat_ms = [x * 1e3 for x in phase["latencies"]]
    return {
        "items_per_s": phase["attempted"] / phase["elapsed"],
        "item_ms_p50": _percentile(lat_ms, 50),
        "item_ms_p90": _percentile(lat_ms, 90),
        "mean_scale": phase["scaled_elapsed"] / phase["elapsed"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        main = _worker(workload, seed, f"run:{seconds}", deadline)
        setups = [main] + [_worker(workload, seed, "setup", deadline) for _ in range(SETUPS - 1)]
        phase = main["phases"]["untraced"]
        values = _phase_metrics(phase)
        values["setup_s"] = statistics.median(w["setup_s"] * w["setup_scale"] for w in setups)
        values["peak_rss_mb"] = main["peak_rss_mb"]
        record["setup_s_samples"] = [w["setup_s"] for w in setups]
        record["setup_scales"] = [w["setup_scale"] for w in setups]
        record["raw"] = _raw_metrics(phase)
        workers = [main]
    else:
        main = _worker(workload, seed, f"trace:{seconds / 4}:{seconds / 2}:{seconds / 8}", deadline)
        single = _worker(workload, seed, f"run:{seconds / 4}", deadline, SINGLE_THREAD)
        phase = main["phases"]["traced"]
        values = dict(main["per_layer"])
        values.update(_import_times(deadline))
        values["blas.single_thread_items_per_s"] = _phase_metrics(single["phases"]["untraced"])["items_per_s"]
        untraced = _phase_metrics(main["phases"]["untraced"])["items_per_s"]
        values["trace.overhead_ratio"] = untraced / _phase_metrics(phase)["items_per_s"]
        record["spans_file"] = os.path.relpath(main["spans_file"], ROOT)
        workers = [main, single]

    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite: {m['value']}")
    phases = {}
    for prefix, w in zip(("", "single_thread."), workers):
        for name, ph in w["phases"].items():
            phases[prefix + name] = {k: v for k, v in ph.items() if k not in ("latencies", "scales")}
    wrong = sum(ph["outcomes"]["wrong"] for ph in phases.values())
    record.update(
        env=dict(main["env"], seed=seed),
        input_digest=main["input_digest"],
        pool=main["pool"],
        coverage=main["coverage"],
        phases=phases,
    )
    result = {
        "correct": wrong == 0,
        "attempted": phase["attempted"],
        "failed": phase["outcomes"]["failed"] + phase["outcomes"]["wrong"],
        "metrics": metrics,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "triadops", "__init__.py")):
        print(f"error: no triadops package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)  # the metric names and units to report
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["result"] = result
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment: {json.dumps(record['env'])}")
    print(f"input digest: {record['input_digest']} over a pool of {record['pool']} inputs")
    for name, ph in record["phases"].items():
        print(f"phase {name}: {ph['attempted']} items in {ph['elapsed']:.2f} s, outcomes {ph['outcomes']}")
        for line in ph["details"][:5]:
            print(f"  {line}")
    for name, m in result["metrics"].items():
        print(f"[{args.workload}] {name} = {m['value']:.6g} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"[{args.workload}] unscaled {name} = {value:.6g}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
