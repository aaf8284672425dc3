"""In-memory spans recorded by the benchmark around its calls into triadops.

Spans live only in the benchmark's own files: every span wraps one public
call the benchmark makes into a ``triadops`` module (or one CLI subprocess),
and, in the traced run only, every LAPACK-backed ``numpy.linalg`` /
``scipy.linalg`` call the package makes while a span is open.  Nothing in
``src/`` is edited or instrumented.

A span is the tuple ``(layer, function, start, end, parent, item)`` where
``parent`` is the index of the enclosing span (-1 for a root) and ``item``
is the workload item the span belongs to.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time

_NULL = contextlib.nullcontext()

# LAPACK-backed entry points counted in the traced run; norm and the other
# BLAS-1 or pure-numpy helpers in numpy.linalg are left unwrapped.
COUNTED = ("eigh", "eigvalsh", "svd")
OTHER_LAPACK = ("eig", "eigvals", "inv", "solve", "qr", "cholesky", "det", "slogdet", "lstsq", "pinv")


class NullTracer:
    """Tracer used by untraced runs: no records, no clock reads."""

    def span(self, layer: str, function: str):
        return _NULL

    def item(self, item_id: int):
        return _NULL


class Tracer:
    """Records spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item = -1

    @contextlib.contextmanager
    def item(self, item_id: int):
        self._item = item_id
        with self.span("item", "item"):
            yield

    @contextlib.contextmanager
    def span(self, layer: str, function: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        rec = [layer, function, time.perf_counter(), 0.0, parent, self._item]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            # Calls made by the benchmark's own checks (directly under an
            # item root) are not the program's and are not counted.
            if not stack or spans[stack[-1]][0] == "item":
                return fn(*args, **kwargs)
            with self.span("linalg", name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def linalg_counting(self):
        """Wrap numpy.linalg (and scipy.linalg.eig when loaded) for the block."""
        import numpy as np

        targets = [(np.linalg, name) for name in COUNTED + OTHER_LAPACK if hasattr(np.linalg, name)]
        scipy_linalg = sys.modules.get("scipy.linalg")
        if scipy_linalg is not None:
            targets.append((scipy_linalg, "eig"))
        saved = [(mod, name, getattr(mod, name)) for mod, name in targets]
        try:
            for mod, name, fn in saved:
                setattr(mod, name, self._wrap(fn, name))
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for layer, function, start, end, parent, item in self.spans:
                fh.write(json.dumps([layer, function, round(start, 9), round(end, 9), parent, item]) + "\n")


def program_spans(spans: list[list]) -> list[int]:
    """Indices of the spans directly under an item root: the calls into triadops."""
    return [i for i, s in enumerate(spans) if s[4] >= 0 and spans[s[4]][0] == "item"]


def ms_p50(spans: list[list], layer: str, function: str) -> float:
    """Median duration in ms of the matching spans; 0.0 when the layer was not entered."""
    durations = [(s[3] - s[2]) * 1e3 for s in spans if s[0] == layer and s[1] == function]
    return statistics.median(durations) if durations else 0.0


def busy_seconds(spans: list[list], layer: str) -> float:
    return sum(s[3] - s[2] for s in spans if s[0] == layer)


def linalg_summary(spans: list[list], scope: list[int]) -> dict:
    """LAPACK calls per item and their share of the time of the scope spans."""
    scope_set = set(scope)
    items = {spans[i][5] for i in scope}
    scope_time = sum(spans[i][3] - spans[i][2] for i in scope)
    counts = dict.fromkeys(COUNTED, 0)
    other = 0
    busy = 0.0
    for s in spans:
        if s[0] == "linalg" and s[4] in scope_set:
            busy += s[3] - s[2]
            if s[1] in counts:
                counts[s[1]] += 1
            else:
                other += 1
    n = max(len(items), 1)
    out = {f"linalg.{name}_calls": counts[name] / n for name in COUNTED}
    out["linalg.other_calls"] = other / n
    out["linalg.busy_share"] = busy / scope_time if scope_time > 0 else 0.0
    return out
