"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A minimal-length run (``--seconds 1``) of every workload, untraced and
   traced: the last stdout line has exactly the keys correct / attempted /
   failed / metrics, and every metric named in BENCHMARK.json is present
   with its declared unit and a finite value.  Both runs of a workload must
   record the same input digest for the same seed.
2. The oracle catches a deliberately corrupted output on every workload:
   with one triadops function patched to return a damaged result (or, for
   the cli workload, a damaged expected result), the item's outcome is
   ``wrong``; unpatched, the same item is ``ok``.  A forced
   ExtractionFailure is ``declined``.
3. In a directory holding only BENCHMARK.json and the benchmark files, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(os.path.relpath(BENCH, ROOT), "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        digests = set()
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, (w["name"], trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in declared}, set(metrics) ^ {m["name"] for m in declared}
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
            with open(os.path.join(OUT, f"{w['name']}-seed7-trace{trace}.json"), encoding="utf-8") as fh:
                digests.add(json.load(fh)["input_digest"].split(":")[0])
        if w["name"] != "survey":  # survey hashes its first full pass, longer than 1 s
            assert len(digests) == 1, (w["name"], digests)
        print(f"[PASS] {w['name']}: every metric present with unit and finite value")


def check_oracle() -> None:
    sys.path.insert(0, BENCH)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import triadops as T
    import spans
    import workloads

    null = spans.NullTracer()

    def patched(module, name, damage):
        original = getattr(module, name)

        def fn(*args, **kwargs):
            return damage(original(*args, **kwargs))

        return original, fn

    def expect_wrong(wl, index, module, name, damage):
        assert wl.run(index, null)[1] == "ok", (wl.name, "clean item not ok")
        original, fn = patched(module, name, damage)
        setattr(module, name, fn)
        try:
            _, outcome, detail = wl.run(index, null)
        finally:
            setattr(module, name, original)
        assert outcome == "wrong", (wl.name, name, outcome, detail)
        print(f"[PASS] {wl.name}: corrupted {name} caught ({detail})")

    expect_wrong(workloads.Survey(7), 3, T, "classify", lambda c: dataclasses.replace(c, spc=not c.spc))
    expect_wrong(
        workloads.Survey(7), 3, T, "schmidt",
        lambda sd: dataclasses.replace(sd, coefficients=np.asarray(sd.coefficients) * 1.001),
    )
    expect_wrong(
        workloads.NormalForm(7), 0, T, "sinkhorn_filter",
        lambda fr: dataclasses.replace(
            fr, normal_form=T.BipartiteOperator(fr.normal_form.mat * (1 + 1e-6), fr.normal_form.dim_a, fr.normal_form.dim_b)
        ),
    )
    wl = workloads.SplitExtract(7)
    index = next(i for i in range(len(wl)) if wl.run(i, null)[1] == "ok")
    expect_wrong(
        wl, index, T, "minimal_rank_extract",
        lambda x: dataclasses.replace(x, terms=[(w * 1.01, a, b) for w, a, b in x.terms]),
    )
    original, fn = patched(T, "minimal_rank_extract", lambda x: T.ExtractionFailure("split", "forced", {}))
    T.minimal_rank_extract = fn
    try:
        outcome = wl.run(index, null)[1]
    finally:
        T.minimal_rank_extract = original
    assert outcome == "declined", outcome
    print("[PASS] split-extract: an ExtractionFailure is a declined item, not a failed operation")

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
        wl = workloads.Cli(7, workdir)
        index = next(i for i, spec in enumerate(wl.inputs) if spec[0] == "classify")
        assert wl.run(index, null)[1] == "ok"
        sub, k, argv, code, fields = wl.inputs[index]
        flags = list(fields["flags"])
        flags[2] = not flags[2]
        wl.inputs[index] = (sub, k, argv, code, dict(fields, flags=flags))
        _, outcome, detail = wl.run(index, null)
        assert outcome == "wrong", (outcome, detail)
        print(f"[PASS] cli: a CLI result differing from the in-process one is caught ({detail})")


def check_refuses_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("[PASS] without the package the benchmark exits non-zero and prints no result")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_refuses_without_package()
    check_oracle()
    check_runs(spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
