"""Machine-speed calibration for the benchmark's timed phases.

The host this benchmark runs on is shared, and its speed drifts by tens of
per cent over seconds to minutes.  A worker therefore interleaves its timed
phase with short slices of a fixed reference kernel, run in a process of
its own that never imports triadops and runs BLAS on one thread, so that
nothing a change to the package does (its imports, its BLAS threading)
alters the kernel.  The kernel's rate next to a stretch of items gives that
stretch's scale, ``rate / REF_RATES[kernel]``; a time multiplied by its
scale is the time the same work would take on a host that runs the kernel
at its reference rate.

Two kernels, because the host's drift does not slow every kind of work
alike:

    compute  what a triadops call does at k <= 6: a complex Hermitian
             ``eigh`` and a product at each matrix side 4..36, and a small
             Python loop (in-process workloads)
    spawn    start a Python interpreter that imports numpy and exits (the
             cli workload and every worker's set-up, which are interpreter
             start and imports)

Run as a script it serves slices over stdin/stdout: each line ``K S`` asks
for S seconds of kernel K and is answered with ``count elapsed``.
"""

from __future__ import annotations

import os
import subprocess
import sys

# Kernels per second on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread), typical readings
# there.  They only fix the unit of the scaled times.
REF_RATES = {"compute": 1000.0, "spawn": 5.0}

SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _serve() -> None:
    import time

    import numpy as np

    rng = np.random.default_rng(0)
    mats = []
    for n in (4, 9, 16, 25, 36):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(z + z.conj().T)

    def compute() -> float:
        acc = 0.0
        for m in mats:
            _, v = np.linalg.eigh(m)
            acc += float((v @ m).real.sum())
            counts: dict[int, int] = {}
            for i in range(200):
                counts[i % 17] = counts.get(i % 17, 0) + i
        return acc

    def spawn() -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)

    kernels = {"compute": compute, "spawn": spawn}
    compute()
    for line in sys.stdin:
        name, seconds = line.split()
        kernel, seconds = kernels[name], float(seconds)
        count = 0
        start = time.perf_counter()
        while True:
            kernel()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        sys.stdout.write(f"{count} {elapsed!r}\n")
        sys.stdout.flush()


class Calibrator:
    """Client of one calibration process; use it as a context manager."""

    def __init__(self):
        env = dict(os.environ, **SINGLE_THREAD)
        env.pop("PYTHONPATH", None)  # the kernel needs numpy only, never triadops
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def scale(self, kernel: str, seconds: float) -> float:
        """The kernel's rate over a slice of about ``seconds``, over its reference rate."""
        self._proc.stdin.write(f"{kernel} {seconds!r}\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError(f"calibration process exited with {self._proc.poll()}")
        return int(reply[0]) / float(reply[1]) / REF_RATES[kernel]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
