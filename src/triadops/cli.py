"""Command-line shell: JSON matrices in, JSON or text reports out.

Subcommands: classify, bounds, schmidt, filter, decompose, certify,
generate, selftest.  ``-`` reads the matrix from stdin.  Exit codes:
0 success, 1 usage error, 2 numerical failure (reports are still printed).
The environment variable TRIAD_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .criteria import (
    bound_gamma_pt,
    bound_realign_sq,
    bound_triad,
    classify,
)
from .errors import BadRank, PreconditionNotMet, ToolkitError, UnknownName
from .filters import MAX_ITER, MODES, sinkhorn_filter
from .generators import (
    canonical,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
)
from .reducibility import (
    ExtractionFailure,
    decompose,
    equal_schmidt_certificate,
    minimal_rank_extract,
    rank_bound_check,
)
from .schmidt_maps import schmidt
from .tensor_core import BipartiteOperator
from .tolerances import DEFAULT, Tolerances


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _format_json(value, digits: int = 17) -> str:
    """JSON text with every float printed to ``digits`` significant digits.

    Negative zero prints as ``-0.0``: ``-0`` would read back as the integer 0.
    """
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        text = format(value, f".{digits}g")
        return "-0.0" if text == "-0" else text
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return _format_json(float(value), digits)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_format_json(v, digits)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_format_json(v, digits) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(_format_json(report))
    else:
        _print_tree(report, indent=0)


def _print_tree(value, indent: int, label: str | None = None) -> None:
    pad = "  " * indent
    head = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        if label is not None:
            print(f"{pad}{label}:")
        for k, v in value.items():
            _print_tree(v, indent + (label is not None), str(k))
    elif isinstance(value, list):
        if len(value) > 8 or any(isinstance(v, (dict, list)) for v in value):
            if label is not None:
                print(f"{pad}{label}: [{len(value)} entries]")
            for i, v in enumerate(value[:8]):
                _print_tree(v, indent + 1, f"[{i}]")
            if len(value) > 8:
                print(f"{pad}  ...")
        else:
            print(head + "[" + ", ".join(_scalar(v) for v in value) + "]")
    else:
        print(head + _scalar(value))


def _scalar(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _load_operator(path: str) -> BipartiteOperator:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return BipartiteOperator.from_json(json.loads(text))
    except (KeyError, TypeError) as exc:
        # JSON that parses but is no {"re", "im", "dim_a", "dim_b"} record
        raise ValueError(f"not a matrix record: {type(exc).__name__}: {exc}") from None


# each tolerance flag and the Tolerances field it overrides
_TOL_FLAGS = {
    "--tol-herm": "herm",
    "--tol-psd": "psd",
    "--tol-rank": "rank",
    "--tol-inv": "invariance",
    "--tol-ccnr": "ccnr",
    "--tol-filter": "filter",
    "--tol-ds": "doubly_stochastic",
    "--tol-eq": "equal_coeff",
}


def _tols_from_args(args) -> Tolerances:
    overrides = {
        field: value
        for field in _TOL_FLAGS.values()
        if (value := getattr(args, f"tol_{field}", None)) is not None
    }
    return DEFAULT.but(**overrides) if overrides else DEFAULT


def _common_flags(parser: argparse.ArgumentParser, with_file: bool = True) -> None:
    if with_file:
        parser.add_argument("file", help="JSON matrix file, or - for stdin")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    for flag, field in _TOL_FLAGS.items():
        parser.add_argument(flag, dest=f"tol_{field}", type=float, default=None, help=argparse.SUPPRESS)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _default_seed() -> int:
    return int(os.environ.get("TRIAD_SEED", "0"))


def _cmd_classify(args) -> int:
    tols = _tols_from_args(args)
    report = classify(_load_operator(args.file), tols).to_json()
    _emit(report, args.json)
    return 0


def _cmd_bounds(args) -> int:
    tols = _tols_from_args(args)
    gamma = _load_operator(args.file)
    cls = classify(gamma, tols)
    report = {
        "gamma_pt": bound_gamma_pt(gamma, tols).to_json(),
        "realign_sq": bound_realign_sq(gamma, tols).to_json(),
        "triad": bound_triad(gamma, cls, tols).to_json() if cls.any_flag else None,
    }
    _emit(report, args.json)
    ok = report["gamma_pt"]["bound_holds"] and report["realign_sq"]["bound_holds"]
    if report["triad"] is not None:
        ok = ok and report["triad"]["bound_holds"]
    return 0 if ok else 2


def _cmd_schmidt(args) -> int:
    tols = _tols_from_args(args)
    _emit(schmidt(_load_operator(args.file), tols).to_json(), args.json)
    return 0


def _cmd_filter(args) -> int:
    tols = _tols_from_args(args)
    result = sinkhorn_filter(
        _load_operator(args.file), mode=args.mode, max_iter=args.max_iter, tols=tols
    )
    _emit(result.to_json(), args.json)
    return 0 if result.converged else 2


def _cmd_decompose(args) -> int:
    tols = _tols_from_args(args)
    tree = decompose(_load_operator(args.file), max_depth=args.max_depth, tols=tols)
    _emit(tree.to_json(), args.json)
    return 0


def _cmd_certify(args) -> int:
    tols = _tols_from_args(args)
    gamma = _load_operator(args.file)
    cls = classify(gamma, tols)
    report: dict = {"classification": cls.to_json()}
    report["equal_schmidt"] = equal_schmidt_certificate(gamma, cls, tols).to_json()
    report["rank_bound"] = rank_bound_check(gamma, cls, tols).to_json()
    exit_code = 0
    try:
        extraction = minimal_rank_extract(gamma, cls, tols)
        report["extraction"] = extraction.to_json()
        if isinstance(extraction, ExtractionFailure):
            exit_code = 2
    except PreconditionNotMet as exc:
        report["extraction"] = {"skipped": str(exc)}
    _emit(report, args.json)
    return exit_code


def _cmd_generate(args) -> int:
    try:
        op = _generate(args)
    except (BadRank, UnknownName) as exc:
        # out-of-range generator arguments are usage errors, like a bad --k
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if op is None:
        print(f"unknown --class {args.cls!r}", file=sys.stderr)
        return 1
    print(_format_json(op.to_json()))
    return 0


def _generate(args) -> BipartiteOperator | None:
    """The state ``generate`` asks for, or None for an unknown --class."""
    seed = args.seed if args.seed is not None else _default_seed()
    choice = args.cls
    if choice == "density":
        return random_density(args.k, args.rank or args.k * args.k, seed)
    if choice == "separable":
        return random_separable(args.k, args.terms, seed)[0]
    if choice == "spc":
        return random_spc(args.k, seed)
    if choice == "invariant":
        return random_invariant(args.k, seed)
    if choice == "ppt":
        return random_ppt(args.k, seed)
    if choice.startswith("canonical:"):
        name = choice.split(":", 1)[1]
        match = re.fullmatch(r"werner\(([-+0-9.eE]+)\)", name)
        if match:
            return canonical("werner", args.k, alpha=float(match.group(1)))
        return canonical(name, args.k)
    return None


def _cmd_selftest(args) -> int:
    from . import selftest  # only this subcommand needs the suites

    results = selftest.run_selftest(quick=args.quick, seed=_default_seed())
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name:28s} {res.detail} ({res.seconds:.2f}s)")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triadops", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="triad class flags and CCNR value")
    _common_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("bounds", help="operator-norm bound reports")
    _common_flags(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("schmidt", help="operator Schmidt decomposition")
    _common_flags(p)
    p.set_defaults(fn=_cmd_schmidt)

    p = sub.add_parser("filter", help="filter normal form")
    _common_flags(p)
    p.add_argument("--mode", choices=MODES, default="general")
    p.add_argument("--max-iter", type=_positive_int, default=MAX_ITER)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("decompose", help="complete-reducibility decomposition tree")
    _common_flags(p)
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("certify", help="separability reports (equal coefficients, ranks, extraction)")
    _common_flags(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("generate", help="emit a state as a JSON matrix")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        help="density | separable | spc | invariant | ppt | canonical:NAME "
        "(NAME: classical_diag, bell, identity_plus_u, werner(a))",
    )
    p.add_argument("--k", type=_positive_int, required=True, help="local dimension")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: TRIAD_SEED or 0)")
    p.add_argument("--rank", type=_positive_int, default=None, help="rank for --class density")
    p.add_argument("--terms", type=_positive_int, default=4, help="mixture terms for --class separable")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--quick", action="store_true", help="the first fifth of each sweep")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
