import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import triadops.criteria as criteria
import triadops.reducibility as reducibility
from triadops import DEFAULT, BipartiteOperator, canonical, random_density, random_spc, selftest
from triadops.cli import _tols_from_args, build_parser, main
from triadops.errors import PreconditionNotMet


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "triadops.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def test_generate_classify_pipeline():
    gen = run_cli(["generate", "--class", "canonical:classical_diag", "--k", "2"])
    assert gen.returncode == 0
    cls = run_cli(["classify", "-", "--json"], stdin_text=gen.stdout)
    assert cls.returncode == 0
    report = json.loads(cls.stdout)
    assert report["ppt"] and report["spc"] and report["invariant"]


def test_classify_bell_fixture():
    gen = run_cli(["generate", "--class", "canonical:bell", "--k", "2"])
    cls = run_cli(["classify", "-", "--json"], stdin_text=gen.stdout)
    report = json.loads(cls.stdout)
    assert report["ppt"] is False
    assert abs(report["ccnr_value"] - 2.0) <= 1e-9


def test_generate_round_trip_lossless(tmp_path):
    gen = run_cli(["generate", "--class", "density", "--k", "3", "--seed", "11"])
    data = json.loads(gen.stdout)
    op = BipartiteOperator.from_json(data)
    rewritten = json.loads(run_cli_format(op))
    back = BipartiteOperator.from_json(rewritten)
    assert np.max(np.abs(back.mat - op.mat)) <= 1e-15


def run_cli_format(op):
    from triadops.cli import _format_json

    return _format_json(op.to_json())


def test_json_prints_17_significant_digits():
    from triadops.cli import _format_json

    out = _format_json({"x": 1.0 / 3.0})
    match = re.search(r"0\.(\d+)", out)
    assert match and len(match.group(1)) == 17


@pytest.mark.parametrize("value", [-0.0, 0.0, 1.0, -1.5e-300])
def test_json_float_text_reads_back_to_the_same_text(value):
    from triadops.cli import _format_json

    text = _format_json([value])
    assert _format_json(json.loads(text)) == text
    assert np.array_equal(np.signbit(json.loads(text)), [np.signbit(value)])


def test_json_prints_numpy_scalars_as_python_numbers():
    from triadops.cli import _format_json

    values = [np.int64(-3), np.uint8(7), np.float32(0.5), np.float64(1 / 3), np.float16(-0.0)]
    assert _format_json(values) == _format_json([-3, 7, 0.5, 1 / 3, -0.0])
    assert _format_json([True, None, 2]) == "[true,null,2]"
    with pytest.raises(TypeError):
        _format_json(np.bool_(True))


def test_every_subcommand_parses_generated_matrix(tmp_path):
    gen = run_cli(["generate", "--class", "spc", "--k", "2", "--seed", "3"])
    path = tmp_path / "state.json"
    path.write_text(gen.stdout)
    for args in (
        ["classify", str(path), "--json"],
        ["bounds", str(path), "--json"],
        ["schmidt", str(path), "--json"],
        ["filter", str(path), "--mode", "symmetric", "--json"],
        ["decompose", str(path), "--json"],
        ["certify", str(path), "--json"],
    ):
        proc = run_cli(args)
        assert proc.returncode in (0, 2), (args, proc.stderr)
        json.loads(proc.stdout)  # valid JSON whenever --json is passed


def test_usage_errors_exit_1(tmp_path):
    assert run_cli(["classify", "/does/not/exist.json"]).returncode == 1
    assert run_cli(["frobnicate"]).returncode == 1
    nope = run_cli(["generate", "--class", "nope", "--k", "2"])
    assert nope.returncode == 1
    assert nope.stdout == "" and "unknown --class 'nope'" in nope.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["classify", str(bad)]).returncode == 1


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"re": [[1.0]], "dim_a": 1, "dim_b": 1}',
        '{"re": [[1.0]], "im": [[0.0]], "dim_a": 1}',
        '{"re": [[1.0]], "im": [[0.0]], "dim_a": null, "dim_b": 1}',
        "[1, 2]",
        '"state"',
        "5",
        '{"re": [[1.0]], "im": [[0.0]], "dim_a": 1.5, "dim_b": 1}',
        '{"re": [[1.0]], "im": [[0.0]], "dim_a": 1, "dim_b": "1"}',
        '{"re": [[1.0]], "im": [[0.0]], "dim_a": true, "dim_b": 1}',
        '{"re": [["1"]], "im": [[0.0]], "dim_a": 1, "dim_b": 1}',
        '{"re": [[true]], "im": [[false]], "dim_a": 1, "dim_b": 1}',
        '{"re": [[0.5, 0.0], [0.0, true]], "im": [[0.0, 0.0], [0.0, 0.0]], "dim_a": 1, "dim_b": 2}',
    ],
    ids=[
        "empty", "no-im", "no-dim_b", "null-dim", "list", "string", "number",
        "float-dim", "string-dim", "bool-dim", "string-entries", "bool-entries",
        "bool-among-numbers",
    ],
)
def test_json_that_is_no_matrix_record_exits_1(text, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: not a matrix record:")


@pytest.mark.parametrize("cls", ["density", "separable", "spc", "invariant", "ppt", "canonical:bell"])
def test_generate_rejects_k_below_one(cls):
    proc = run_cli(["generate", "--class", cls, "--k", "0"])
    assert proc.returncode == 1
    assert "--k: must be a positive integer" in proc.stderr


def _exit_code(argv):
    """main's exit code, including argparse's SystemExit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("mode", ["general", "symmetric", "conjugate", "left"])
def test_filter_on_the_zero_matrix_exits_2(mode, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(BipartiteOperator(np.zeros((4, 4)), 2, 2)))
    assert _exit_code(["filter", str(path), "--mode", mode]) == 2
    assert "ZeroMatrix" in capsys.readouterr().err


@pytest.mark.parametrize("flag, cls", [("--terms", "separable"), ("--rank", "density")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_generate_rejects_nonpositive_counts(flag, cls, value, capsys):
    assert _exit_code(["generate", "--class", cls, "--k", "2", flag, value]) == 1
    assert f"{flag}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_filter_rejects_max_iter_below_one(value, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(canonical("classical_diag", 2)))
    assert _exit_code(["filter", str(path), "--max-iter", value]) == 1
    assert "--max-iter: must be a positive integer" in capsys.readouterr().err


def test_decompose_has_no_depth_flag(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(canonical("classical_diag", 2)))
    assert _exit_code(["decompose", str(path), "--max-depth", "3"]) == 1
    assert "unrecognized arguments: --max-depth 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--class", "density", "--rank", "99", "--k", "2"], "BadRank"),
        (["--class", "canonical:werner(2)", "--k", "2"], "UnknownName"),
    ],
)
def test_generator_argument_errors_exit_1(argv, error, capsys):
    assert main(["generate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {error}:" in captured.err


def test_numerical_failures_exit_2(tmp_path):
    gen = run_cli(["generate", "--class", "canonical:bell", "--k", "2"])
    path = tmp_path / "bell.json"
    path.write_text(gen.stdout)
    # symmetric mode on a non-SPC state is a numerical (class) failure
    proc = run_cli(["filter", str(path), "--mode", "symmetric"])
    assert proc.returncode == 2


@pytest.mark.parametrize("bound", ["gamma_pt", "realign_sq", "triad"])
def test_bounds_exits_2_when_one_bound_fails(bound, tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(canonical("classical_diag", 2)))
    real = getattr(criteria, f"bound_{bound}")
    failing = lambda *args: dataclasses.replace(real(*args), bound_holds=False)  # noqa: E731
    monkeypatch.setattr(criteria, f"bound_{bound}", failing)
    assert main(["bounds", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)  # the report still prints
    assert {name: rep["bound_holds"] for name, rep in report.items()} == {
        name: name != bound for name in ("gamma_pt", "realign_sq", "triad")
    }


def test_certify_exit_code_follows_the_extraction(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(canonical("classical_diag", 2)))
    failure = reducibility.ExtractionFailure("whiten", "forced", {"residual": 0.5})
    monkeypatch.setattr(reducibility, "minimal_rank_extract", lambda *args: failure)
    assert main(["certify", str(path), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["extraction"] == failure.to_json()

    def refuse(*args):
        raise PreconditionNotMet("rank is not minimal")

    monkeypatch.setattr(reducibility, "minimal_rank_extract", refuse)
    assert main(["certify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extraction"] == {"skipped": "rank is not minimal"}
    assert list(report) == ["classification", "equal_schmidt", "rank_bound", "extraction"]


def test_tolerance_flags_override_their_fields():
    flags = {
        "--tol-herm": "herm",
        "--tol-psd": "psd",
        "--tol-rank": "rank",
        "--tol-inv": "invariance",
        "--tol-ccnr": "ccnr",
        "--tol-filter": "filter",
        "--tol-ds": "doubly_stochastic",
        "--tol-eq": "equal_coeff",
    }
    parser = build_parser()
    assert _tols_from_args(parser.parse_args(["classify", "state.json"])) == DEFAULT
    for flag, field in flags.items():
        args = parser.parse_args(["classify", "state.json", flag, "3e-7"])
        assert _tols_from_args(args) == DEFAULT.but(**{field: 3e-7}), flag


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_negative_or_non_finite_tolerance_exits_1(value, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(random_spc(2, 3)))
    for command in ("classify", "bounds", "filter"):
        assert main([command, str(path), "--tol-herm", value]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerance herm must be finite and non-negative")


def test_tol_filter_flag_sets_the_filter_tolerance(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(run_cli_format(random_density(3, 9, 5)))
    iterations = []
    for extra in ([], ["--tol-filter", "1e-3"]):
        assert main(["filter", str(path), "--json", *extra]) == 0
        iterations.append(json.loads(capsys.readouterr().out)["iterations"])
    assert iterations[1] < iterations[0]
    with pytest.raises(SystemExit) as exc:  # --tol is no flag of its own
        main(["filter", str(path), "--tol", "1e-3"])
    assert exc.value.code == 1


def test_triad_seed_env(tmp_path, monkeypatch):
    # The subprocesses inherit the caller's environment (PYTHONPATH included);
    # only TRIAD_SEED is controlled, so an ambient value cannot leak into the baseline.
    args = ["generate", "--class", "density", "--k", "2"]
    monkeypatch.delenv("TRIAD_SEED", raising=False)
    a = run_cli(args)
    monkeypatch.setenv("TRIAD_SEED", "99")
    proc = run_cli(args)
    assert proc.returncode == 0
    assert proc.stdout != a.stdout  # seed override changes the draw
    monkeypatch.delenv("TRIAD_SEED")
    assert proc.stdout == run_cli([*args, "--seed", "99"]).stdout  # same draw as --seed 99


def test_werner_parse():
    proc = run_cli(["generate", "--class", "canonical:werner(0.5)", "--k", "2"])
    assert proc.returncode == 0
    op = BipartiteOperator.from_json(json.loads(proc.stdout))
    expected = canonical("werner", 2, alpha=0.5)
    assert np.allclose(op.mat, expected.mat)


def test_selftest_quick():
    proc = run_cli(["selftest", "--quick"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suites passed" in proc.stdout


def test_selftest_runs_every_suite_and_offsets_its_seeds():
    results = selftest.run_selftest(quick=True)
    assert [res.name for res in results] == list(selftest.SUITES)
    shifted = selftest.run_suite("realignment-identities", quick=True, seed=5)
    assert results[0].name == shifted.name and results[0].detail != shifted.detail


def test_main_callable_directly(capsys):
    code = main(["generate", "--class", "canonical:bell", "--k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    BipartiteOperator.from_json(json.loads(out))


def test_import_does_not_load_scipy():
    # the subprocess inherits the caller's environment, as run_cli does
    code = (
        "import triadops, triadops.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_selftest_unloaded():
    # only the selftest subcommand imports the suites, and importing the
    # shell loads no layer; the subprocess inherits the caller's environment,
    # as run_cli does
    code = (
        "import triadops.cli, sys; "
        "print(*sorted(m for m in sys.modules if m.startswith('triadops')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["triadops", "triadops.cli", "triadops.errors", "triadops.tolerances"]


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["filter", "--help"], 0), (["classify"], 1), (["filter", "x", "--mode", "bogus"], 1)],
    ids=["help", "filter-help", "missing-file", "bad-mode"],
)
def test_help_and_usage_errors_import_no_numpy(argv, code):
    # the shell formats numpy scalars through ``numbers``, so a call that
    # runs no subcommand never imports numpy
    script = (
        "import runpy, sys\n"
        f"sys.argv[1:] = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('triadops.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].split() == [str(code), "False"]


# the layers each subcommand leaves unloaded; none loads the selftest suites
_UNLOADED = {
    "classify": {"filters", "reducibility", "generators"},
    "bounds": {"filters", "reducibility", "generators"},
    "schmidt": {"filters", "reducibility", "generators"},
    "generate": {"criteria", "filters", "reducibility"},
    "filter": {"reducibility", "generators"},
    "decompose": {"filters", "generators"},
    "certify": {"filters", "generators"},
}


@pytest.mark.parametrize("sub", list(_UNLOADED))
def test_subcommand_loads_only_its_layers(sub, tmp_path):
    gen_argv = ["generate", "--class", "ppt", "--k", "3"]
    path = tmp_path / "state.json"
    path.write_text(run_cli(gen_argv).stdout)
    argv = gen_argv if sub == "generate" else [sub, str(path), "--json"]
    # as `python -m triadops.cli ...`, then the loaded modules on stderr's last line
    code = (
        "import runpy, sys\n"
        f"sys.argv[1:] = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('triadops.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    unloaded = {f"triadops.{name}" for name in _UNLOADED[sub] | {"selftest"}}
    assert "triadops.tensor_core" in loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_file_input_closes_its_handle(tmp_path):
    # -X dev reports an unclosed file as a ResourceWarning on stderr; the
    # subprocess inherits the caller's environment, as run_cli does
    gen = run_cli(["generate", "--class", "canonical:classical_diag", "--k", "2"])
    path = tmp_path / "state.json"
    path.write_text(gen.stdout)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "triadops.cli", "classify", str(path), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr
