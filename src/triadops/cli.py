"""Command-line shell: JSON matrices in, JSON or text reports out.

Subcommands: classify, bounds, schmidt, filter, decompose, certify,
generate, selftest.  The six that read a matrix are one table, ``_REPORTS``:
``main`` builds their tolerances and loads the matrix, each row's
``run(gamma, tols, args)`` returns the report and the exit code, and ``main``
prints the report.  ``-`` reads the matrix from stdin.  Exit codes:
0 success, 1 usage error, 2 numerical failure (reports are still printed).
The environment variable TRIAD_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys
from typing import TYPE_CHECKING

from .errors import BadRank, PreconditionNotMet, ToolkitError, UnknownName
from .tolerances import DEFAULT, MAX_ITER, MODES, Tolerances

if TYPE_CHECKING:
    from .tensor_core import BipartiteOperator

# Each subcommand imports the layers it runs, so that a call loads no other
# layer (the package itself loads its layers on first attribute access).


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _format_json(value) -> str:
    """JSON text with every float printed to 17 significant digits.

    Negative zero prints as ``-0.0``: ``-0`` would read back as the integer 0.
    numpy's integer and floating scalars are ``numbers.Integral`` and
    ``numbers.Real``, so the shell reads them without importing numpy.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        text = "%.17g" % value
        return "-0.0" if text == "-0" else text
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_format_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_format_json, value)) + "]"
    # the abstract-class checks are the slow ones, so containers skip them
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return _format_json(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


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
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _load_operator(path: str) -> BipartiteOperator:
    from .tensor_core import BipartiteOperator

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
    overrides = {f: v for f in _TOL_FLAGS.values() if (v := getattr(args, f"tol_{f}")) is not None}
    return DEFAULT.but(**overrides) if overrides else DEFAULT


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _classify(gamma, tols, args):
    from .criteria import classify

    return classify(gamma, tols).to_json(), 0


def _bounds(gamma, tols, args):
    from .criteria import bound_gamma_pt, bound_realign_sq, bound_triad, classify

    cls = classify(gamma, tols)
    report = {
        "gamma_pt": bound_gamma_pt(gamma, tols).to_json(),
        "realign_sq": bound_realign_sq(gamma, tols).to_json(),
        "triad": bound_triad(gamma, cls, tols).to_json() if cls.any_flag else None,
    }
    ok = all(bound["bound_holds"] for bound in report.values() if bound is not None)
    return report, 0 if ok else 2


def _schmidt(gamma, tols, args):
    from .schmidt_maps import schmidt

    return schmidt(gamma, tols).to_json(), 0


def _filter(gamma, tols, args):
    from .filters import sinkhorn_filter

    result = sinkhorn_filter(gamma, mode=args.mode, max_iter=args.max_iter, tols=tols)
    return result.to_json(), 0 if result.converged else 2


def _decompose(gamma, tols, args):
    from .reducibility import decompose

    return decompose(gamma, tols).to_json(), 0


def _certify(gamma, tols, args):
    from .criteria import classify
    from .reducibility import (
        ExtractionFailure, equal_schmidt_certificate, minimal_rank_extract, rank_bound_check
    )

    cls = classify(gamma, tols)
    report = {
        "classification": cls.to_json(),
        "equal_schmidt": equal_schmidt_certificate(gamma, cls, tols).to_json(),
        "rank_bound": rank_bound_check(gamma, cls, tols).to_json(),
    }
    try:
        extraction = minimal_rank_extract(gamma, cls, tols)
    except PreconditionNotMet as exc:
        return {**report, "extraction": {"skipped": str(exc)}}, 0
    report["extraction"] = extraction.to_json()
    return report, 2 if isinstance(extraction, ExtractionFailure) else 0


# the subcommands that read a matrix: name -> (help text, run function)
_REPORTS = {
    "classify": ("triad class flags and CCNR value", _classify),
    "bounds": ("operator-norm bound reports", _bounds),
    "schmidt": ("operator Schmidt decomposition", _schmidt),
    "filter": ("filter normal form", _filter),
    "decompose": ("complete-reducibility decomposition tree", _decompose),
    "certify": ("separability reports (equal coefficients, ranks, extraction)", _certify),
}


def _generate(args) -> int:
    from .generators import (
        canonical, random_density, random_invariant, random_ppt, random_separable, random_spc
    )

    k, seed = args.k, args.seed if args.seed is not None else int(os.environ.get("TRIAD_SEED", "0"))
    name = args.cls.removeprefix("canonical:")
    werner = re.fullmatch(r"werner\(([-+0-9.eE]+)\)", name)
    make = {
        "density": lambda: random_density(k, args.rank or k * k, seed),
        "separable": lambda: random_separable(k, args.terms, seed)[0],
        "spc": lambda: random_spc(k, seed),
        "invariant": lambda: random_invariant(k, seed),
        "ppt": lambda: random_ppt(k, seed),
        # the key is --class itself only when it starts with "canonical:"
        f"canonical:{name}": lambda: (
            canonical("werner", k, alpha=float(werner[1])) if werner else canonical(name, k)
        ),
    }.get(args.cls)
    if make is None:
        print(f"unknown --class {args.cls!r}", file=sys.stderr)
        return 1
    try:
        op = make()
    except (BadRank, UnknownName) as exc:
        # out-of-range generator arguments are usage errors, like a bad --k
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(_format_json(op.to_json()))
    return 0


def _selftest(args) -> int:
    from . import selftest  # only this subcommand needs the suites

    results = selftest.run_selftest(quick=args.quick, seed=int(os.environ.get("TRIAD_SEED", "0")))
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name:28s} {res.detail} ({res.seconds:.2f}s)")
    failed = sum(not res.passed for res in results)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triadops", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _REPORTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON matrix file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, field in _TOL_FLAGS.items():
            p.add_argument(flag, dest=f"tol_{field}", type=float, default=None, help=argparse.SUPPRESS)
        if name == "filter":
            p.add_argument("--mode", choices=MODES, default="general")
            p.add_argument("--max-iter", type=_positive_int, default=MAX_ITER)

    p = sub.add_parser("generate", help="emit a state as a JSON matrix")
    p.add_argument("--class", dest="cls", required=True, help="density | separable | spc | invariant | "
                   "ppt | canonical:NAME (NAME: classical_diag, bell, identity_plus_u, werner(a))")
    p.add_argument("--k", type=_positive_int, required=True, help="local dimension")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: TRIAD_SEED or 0)")
    p.add_argument("--rank", type=_positive_int, default=None, help="rank for --class density")
    p.add_argument("--terms", type=_positive_int, default=4, help="mixture terms for --class separable")
    p.set_defaults(fn=_generate)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--quick", action="store_true", help="the first fifth of each sweep")
    p.set_defaults(fn=_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command not in _REPORTS:
            return args.fn(args)
        tols = _tols_from_args(args)
        report, exit_code = _REPORTS[args.command][1](_load_operator(args.file), tols, args)
        if args.json:
            print(_format_json(report))
        else:
            _print_tree(report, indent=0)
        return exit_code
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
