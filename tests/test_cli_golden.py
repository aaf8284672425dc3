"""CLI ``--json`` output compared against stored goldens.

Every case runs ``triadops.cli.main`` in-process on a generated input and
compares stdout and the exit code with ``goldens/cli.json``.  The text must
match byte for byte, except inside ``certify``'s ``extraction`` block.  Its
numbers come out of a chain of eigensolves (the marginals' supports, then
one per split), whose last bits depend on the LAPACK build, so they are
compared to 1e-12 relative to max(1, |golden value|).

To rewrite the goldens after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``; it prints the names of
the cases whose stored output changed, each with the largest entry-wise
change of its numbers, the integer counts that changed and the keys whose
shape changed (such as a shorter ``iteration_log``).
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from triadops.cli import main

from conftest import rewrite_goldens

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "cli.json"
INPUTS = [
    (cls, k, seed)
    for cls, seed in (
        ("density", 5),
        ("ppt", 5),
        ("spc", 5),
        ("invariant", 5),
        ("canonical:classical_diag", None),
    )
    for k in (2, 3)
]
COMMANDS = [
    ["classify"],
    ["bounds"],
    ["schmidt"],
    *(["filter", "--mode", mode] for mode in ("general", "symmetric", "conjugate", "left")),
    ["decompose"],
    ["certify"],
]


def _input_name(cls, k, seed):
    return f"{cls}-k{k}" + ("" if seed is None else f"-s{seed}")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _collect(tmp_dir):
    """Run every case; yields (case name, {"exit", "stdout"})."""
    for cls, k, seed in INPUTS:
        name = _input_name(cls, k, seed)
        argv = ["generate", "--class", cls, "--k", str(k)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        gen = _run(argv)
        yield f"{name} generate", gen
        path = tmp_dir / f"{name}.json"
        path.write_text(gen["stdout"])
        for cmd in COMMANDS:
            yield f"{name} {' '.join(cmd)}", _run([*cmd, str(path), "--json"])


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        # _format_json prints an integral float such as 1.0 as "1"
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _assert_matches(name, got, want):
    assert got["exit"] == want["exit"], name
    if not (name.endswith(" certify") and want["stdout"]):
        assert got["stdout"] == want["stdout"], name
        return
    # the extraction block is the report's last key; the text before it is byte-identical
    head = got["stdout"].split('"extraction":')[0]
    assert head == want["stdout"].split('"extraction":')[0], name
    got_block = json.loads(got["stdout"])["extraction"]
    _assert_close(got_block, json.loads(want["stdout"])["extraction"], f"{name} extraction")


def _differing_leaves(old, new, key=""):
    """Yields (key, old, new) wherever two JSON values differ.  Dicts with the
    same keys and lists of the same length are compared entry by entry, under
    their dotted key; any other difference is one leaf."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        for name in old:
            yield from _differing_leaves(old[name], new[name], f"{key}.{name}".lstrip("."))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for old_item, new_item in zip(old, new):
            yield from _differing_leaves(old_item, new_item, key)
    elif old != new:
        yield key, old, new


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def change_summary(old, new):
    """How a changed case moved: the largest entry-wise change of its numbers
    (with its key), the integers that changed (such as ``iterations``), and
    the keys whose shape or non-numeric value changed."""
    parts = [] if old["exit"] == new["exit"] else [f"exit {old['exit']} -> {new['exit']}"]
    try:
        leaves = list(_differing_leaves(json.loads(old["stdout"]), json.loads(new["stdout"])))
    except json.JSONDecodeError:
        return "; ".join(parts + ["stdout is not JSON on both sides"])
    counts = [(key, o, n) for key, o, n in leaves if type(o) is int and type(n) is int]
    numbers = [
        (abs(n - o), key)
        for key, o, n in leaves
        if _number(o) and _number(n) and (key, o, n) not in counts
    ]
    reshaped = sorted({key for key, o, n in leaves if not (_number(o) and _number(n))})
    if numbers:
        parts.append("largest entry-wise change {:.2g} at {}".format(*max(numbers)))
    parts += [f"{key} {o} -> {n}" for key, o, n in counts]
    if reshaped:
        parts.append("shape changed: " + ", ".join(reshaped))
    return "; ".join(parts) or "text changed, values equal"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


def test_cli_json_matches_goldens(tmp_path, goldens):
    seen = []
    for name, got in _collect(tmp_path):
        assert name in goldens, f"no golden for {name}"
        _assert_matches(name, got, goldens[name])
        seen.append(name)
    assert seen == list(goldens)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rewrite_goldens(GOLDEN, dict(_collect(pathlib.Path(tmp))), change_summary)
