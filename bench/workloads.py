"""The four benchmark workloads, their inputs and their output checks.

Every input is derived from ``(workload, seed)`` alone.  An item is one unit
of a workload's work; ``run(i, tracer)`` executes item ``i`` (cycling over
the workload's input pool) and returns ``(latency_s, outcome, detail)``.
The latency covers only the calls into triadops, not the checks.

Outcomes:
    ok        the program returned a result and every check passed
    declined  the program returned its documented failure report (an
              ExtractionFailure, an unconverged filter, a CLI exit code 2
              equal to the library's verdict); it counts against ok_ratio
              but is not a failed operation
    failed    the program raised a ToolkitError or a LinAlgError
    wrong     a check rejected a result the program presented as valid, or
              the program raised something other than a ToolkitError

Why these workloads:
    survey         the acceptance/selftest sweep: generators, contractions,
                   criteria and schmidt_maps per call; never enters filters
                   or reducibility, so it is the bypass workload for them
    normal-form    filter iterations in all four modes, then the dense
                   cluster scan of decompose on weakly irreducible inputs
    split-extract  minimal-rank states: the filter from a rank-k input,
                   decompose along splits, and extraction's determinant
                   pencil; its ExtractionFailures are declined items,
                   counted at their true rate in ok_ratio
    cli            one serial `python -m triadops.cli` subprocess per item,
                   dominated by interpreter start, import and JSON I/O
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import triadops as T
from triadops.errors import PreconditionNotMet, ToolkitError

TOLS = T.DEFAULT

# All 24 slot permutations in one-line notation.
PERMS = [
    (a, b, c, d)
    for a in range(1, 5)
    for b in range(1, 5)
    for c in range(1, 5)
    for d in range(1, 5)
    if len({a, b, c, d}) == 4
]


class CheckFailed(Exception):
    """A result the program presented as valid failed its check."""


class Declined(Exception):
    """The program returned its documented failure report instead of a result."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _fail(exc_type, what: str):
    raise exc_type(what)


def _key(*parts) -> int:
    """Stable 63-bit integer derived from the parts (used as a Philox key)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _rng(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(*parts)))


def _haar(rng: np.random.Generator, k: int) -> np.ndarray:
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _pd_filter(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random positive-definite local filter G G* + 0.3 Id."""
    g = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
    return g @ g.conj().T + 0.3 * np.eye(k)


def _congruence(op, s: np.ndarray, t: np.ndarray):
    """(s (x) t) op (s (x) t)^*, Hermitian and trace-normalized."""
    big = np.kron(s, t)
    out = big @ op.mat @ big.conj().T
    out = 0.5 * (out + out.conj().T)
    return T.BipartiteOperator(out / np.trace(out).real, op.dim_a, op.dim_b)


class _Item:
    """Accumulates the time spent in program calls during one item."""

    def __init__(self):
        self.elapsed = 0.0

    @contextlib.contextmanager
    def timed(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t


class Workload:
    name = ""
    warmup_items = 0  # least number of untimed items before the first timed one
    calibration = "compute"  # the calibrate.py kernel whose drift this workload follows

    def __init__(self):
        self.inputs: list = []
        self.digest = ""
        self.stats: collections.Counter = collections.Counter()
        # Per pool index, the filter iterations and tree nodes of its first
        # run: their sums over the pool are exact counts for the seed.
        self.first_iterations: dict[int, int] = {}
        self.first_nodes: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.inputs)

    def warmup(self, tracer, seconds: float) -> None:
        """Untimed items: at least ``warmup_items``, and at least ``seconds``."""
        start = time.perf_counter()
        i = 0
        while i < self.warmup_items or time.perf_counter() - start < seconds:
            self.run(i, tracer)
            i += 1

    def run(self, i: int, tracer):
        item = _Item()
        outcome, detail = "ok", ""
        try:
            self._item(self.inputs[i % len(self.inputs)], i, item, tracer)
        except CheckFailed as exc:
            outcome, detail = "wrong", str(exc)
        except Declined as exc:
            outcome, detail = "declined", str(exc)
        except (ToolkitError, np.linalg.LinAlgError) as exc:
            outcome, detail = "failed", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # any other exception from the program is a wrong result
            outcome, detail = "wrong", f"{type(exc).__name__}: {exc}"
        return item.elapsed, outcome, detail

    def _item(self, spec, i, item, tracer):
        raise NotImplementedError

    def _note_tree(self, i: int, tree) -> None:
        def count(node):
            return 1 + sum(count(child) for child in node.children)

        self.first_nodes.setdefault(i % len(self), 0 if tree is None else count(tree))


def _hash_op(op) -> bytes:
    return hashlib.sha256(op.mat.tobytes()).digest()


def _digest_ops(pairs) -> str:
    h = hashlib.sha256()
    for label, op in pairs:
        h.update(repr(label).encode())
        h.update(op.mat.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

SURVEY_CLASSES = ("density", "separable", "ppt", "spc", "invariant")
SURVEY_GENERATORS = {
    "density": lambda k, s: T.random_density(k, k * k, s),
    "separable": lambda k, s: T.random_separable(k, 2 * k, s)[0],
    "ppt": lambda k, s: T.random_ppt(k, s),
    "spc": lambda k, s: T.random_spc(k, s),
    "invariant": lambda k, s: T.random_invariant(k, s),
}
SURVEY_CYCLES = 20


class Survey(Workload):
    """Generate one state per item, cycling class x k = 2..6, and sweep it.

    The input digest covers the generated matrices of the first pass over
    the pool; later passes check that each regenerated matrix is bitwise
    identical to its first-pass counterpart.
    """

    name = "survey"
    warmup_items = 5 * len(SURVEY_CLASSES)

    def __init__(self, seed: int):
        super().__init__()
        self.inputs = [
            (cls, k, _key("survey", seed, cycle, k, cls))
            for cycle in range(SURVEY_CYCLES)
            for k in range(2, 7)
            for cls in SURVEY_CLASSES
        ]
        self._first_pass: dict[int, bytes] = {}
        self._hasher = hashlib.sha256()
        self._hashed = 0
        self.digest = "incomplete"

    def warmup(self, tracer, seconds: float) -> None:
        super().warmup(tracer, seconds)
        self._first_pass.clear()
        self._hasher = hashlib.sha256()
        self._hashed = 0

    def _record(self, index: int, op) -> None:
        h = _hash_op(op)
        seen = self._first_pass.get(index)
        if seen is None:
            self._first_pass[index] = h
            if self._hashed == index:
                self._hasher.update(h)
                self._hashed += 1
                self.digest = self._hasher.hexdigest() if self._hashed == len(self) else (
                    f"incomplete:{self._hashed}"
                )
        else:
            _check(seen == h, f"generator output for item {index} is not bitwise reproducible")

    def _item(self, spec, i, item, tr):
        cls, k, gen_seed = spec
        with item.timed():
            with tr.span("generators", f"random_{cls}"):
                g = SURVEY_GENERATORS[cls](k, gen_seed)
            with tr.span("tensor_core", "hermitian_eig"):
                spectral = T.hermitian_eig(g)
            with tr.span("contractions", "all24"):
                images = [T.contraction_by_permutation(p, g) for p in PERMS]
                star = T.star_product(g, g)
            with tr.span("criteria", "classify"):
                c = T.classify(g)
            with tr.span("criteria", "bounds"):
                bounds = [T.bound_gamma_pt(g), T.bound_realign_sq(g)]
                if c.any_flag:
                    bounds.append(T.bound_triad(g, c))
            with tr.span("schmidt_maps", "schmidt"):
                sd = T.schmidt(g)

        self._record(i % len(self), g)
        flag = {
            "density": c.is_state,
            "separable": c.is_state and c.ppt,
            "ppt": c.ppt,
            "spc": c.spc,
            "invariant": c.invariant,
        }[cls]
        _check(flag, f"{cls} k={k}: generator class flag not set")
        w = spectral.eigenvalues
        _check(abs(float(np.sum(w)) - 1.0) <= 1e-9, "eigenvalues do not sum to the trace")
        _check(float(w[-1]) >= -TOLS.psd * max(1.0, float(w[0])), "state has a negative eigenvalue")
        fro = float(np.linalg.norm(g.mat))
        _check(np.array_equal(images[0].mat, g.mat), "identity permutation changed the state")
        _check(
            all(abs(float(np.linalg.norm(im.mat)) - fro) <= 1e-12 * fro for im in images),
            "a slot permutation changed the Frobenius norm",
        )
        sm = star.mat
        _check(
            float(np.linalg.norm(sm - sm.conj().T)) <= 1e-12 * max(float(np.linalg.norm(sm)), 1e-300),
            "star product of Hermitian operators is not Hermitian",
        )
        _check(all(b.bound_holds for b in bounds), f"{cls} k={k}: a spectral bound failed")
        if cls == "separable":
            _check(c.ccnr_value <= 1.0 + TOLS.ccnr, "CCNR exceeds 1 on a separable state")
        coeffs = np.asarray(sd.coefficients)
        _check(
            abs(float(np.sum(coeffs**2)) - fro**2) <= 1e-10 * fro**2,
            "Schmidt coefficients do not carry the Frobenius norm",
        )


# ---------------------------------------------------------------------------
# normal-form
# ---------------------------------------------------------------------------

NORMAL_FORM_CLASSES = (
    ("spc", "symmetric", lambda k, s: T.random_spc(k, s)),
    ("invariant", "conjugate", lambda k, s: T.random_invariant(k, s)),
    ("ppt", "general", lambda k, s: T.random_ppt(k, s)),
    ("density", "left", lambda k, s: T.random_density(k, k * k, s)),
)
NORMAL_FORM_CYCLES = 12


class NormalForm(Workload):
    """Filter a locally scaled full-rank state in its class's mode, then decompose.

    The scaling keeps the class: V (x) V for SPC, V (x) conj(V) for invariant
    states, V (x) W for PPT and density states.
    """

    name = "normal-form"
    warmup_items = 4 * len(NORMAL_FORM_CLASSES)

    def __init__(self, seed: int):
        super().__init__()
        for cycle in range(NORMAL_FORM_CYCLES):
            for k in range(3, 7):
                for cls, mode, gen in NORMAL_FORM_CLASSES:
                    rng = _rng("normal-form", seed, cycle, k, cls)
                    base = gen(k, _key("normal-form-state", seed, cycle, k, cls))
                    v = _pd_filter(rng, k)
                    w = {"spc": v, "invariant": v.conj()}.get(cls)
                    g = _congruence(base, v, _pd_filter(rng, k) if w is None else w)
                    flagged = T.classify(g).any_flag
                    self.inputs.append((cls, mode, k, g, flagged))
        self.digest = _digest_ops(((cls, mode, k), g) for cls, mode, k, g, _ in self.inputs)

    def _item(self, spec, i, item, tr):
        cls, mode, k, g, flagged = spec
        tree = None
        with item.timed():
            with tr.span("filters", mode):
                fr = T.sinkhorn_filter(g, mode)
            try:
                with tr.span("reducibility", "decompose"):
                    tree = T.decompose(fr.normal_form)
            except PreconditionNotMet:
                pass
        self.stats["filter_calls"] += 1
        self.stats["filter_converged"] += fr.converged
        self.stats["filter_iterations"] += fr.iterations
        self.first_iterations.setdefault(i % len(self), fr.iterations)
        self._note_tree(i, tree)

        if not fr.converged:
            _fail(Declined, f"{mode} filter did not converge in {fr.iterations} iterations")
        _check(
            max(fr.marginal_residual_a, fr.marginal_residual_b) <= TOLS.filter,
            f"{mode} k={k}: converged filter left marginal residual above tolerance",
        )
        if mode in ("symmetric", "conjugate"):
            _check(fr.class_residual <= TOLS.invariance, f"{mode} k={k}: class residual {fr.class_residual:.2e}")
        if mode == "left":
            _check(fr.class_residual <= TOLS.invariance, f"left k={k}: identity defect {fr.class_residual:.2e}")
        nf = fr.normal_form.mat
        fb = np.eye(k) if fr.filter_b is None else fr.filter_b.mat
        big = np.kron(fr.filter_a.mat, fb)
        expect = big @ g.mat @ big.conj().T
        expect = expect / np.trace(expect).real
        _check(
            float(np.linalg.norm(nf - expect)) <= 1e-8 * float(np.linalg.norm(expect)),
            f"{mode} k={k}: normal form differs from the filters applied to the input",
        )
        if flagged:
            if tree is None:
                _fail(PreconditionNotMet, f"decompose refused a flagged {cls} normal form")
            _check(
                float(np.linalg.norm(tree.reconstruct() - nf)) <= TOLS.split * float(np.linalg.norm(nf)),
                f"{cls} k={k}: decomposition tree does not reconstruct its input",
            )
        else:
            _check(tree is None, f"decompose accepted an unflagged {cls} input")


# ---------------------------------------------------------------------------
# split-extract
# ---------------------------------------------------------------------------

SPLIT_KINDS = ("unitary_spc", "unitary_inv", "unitary_ppt", "filter_spc", "filter_inv", "filter_ppt")
SPLIT_CYCLES = 40


class SplitExtract(Workload):
    """Minimal-rank classical_diag states under local unitaries or PD filters.

    ``*_spc`` kinds apply V (x) V, ``*_inv`` kinds V (x) conj(V) and
    ``*_ppt`` kinds V (x) W, so every extraction filter mode appears.
    """

    name = "split-extract"
    warmup_items = 5 * len(SPLIT_KINDS)

    def __init__(self, seed: int):
        super().__init__()
        for cycle in range(SPLIT_CYCLES):
            for k in range(2, 7):
                fixture = T.canonical("classical_diag", k)
                for kind in SPLIT_KINDS:
                    rng = _rng("split-extract", seed, cycle, k, kind)
                    draw = _haar if kind.startswith("unitary") else _pd_filter
                    v = draw(rng, k)
                    w = {"spc": v, "inv": v.conj()}.get(kind.rsplit("_", 1)[1])
                    g = _congruence(fixture, v, draw(rng, k) if w is None else w)
                    self.inputs.append((kind, k, g))
        self.digest = _digest_ops(((kind, k), g) for kind, k, g in self.inputs)

    def _item(self, spec, i, item, tr):
        kind, k, g = spec
        with item.timed():
            with tr.span("criteria", "classify"):
                c = T.classify(g)
            with tr.span("reducibility", "certificates"):
                T.equal_schmidt_certificate(g, c)
                rb = T.rank_bound_check(g, c)
            with tr.span("reducibility", "extract"):
                x = T.minimal_rank_extract(g, c)
            with tr.span("reducibility", "decompose"):
                tree = T.decompose(g)
        self.stats["extract_calls"] += 1
        self.stats["extract_ok"] += isinstance(x, T.SeparableDecomposition)
        self._note_tree(i, tree)

        _check(rb.bound_holds, f"{kind} k={k}: rank bound violated on a triad state")
        gm = 0.5 * (g.mat + g.mat.conj().T)
        _check(
            float(np.linalg.norm(tree.reconstruct() - gm)) <= TOLS.split * float(np.linalg.norm(gm)),
            f"{kind} k={k}: decomposition tree does not reconstruct its input",
        )
        if isinstance(x, T.ExtractionFailure):
            _fail(Declined, f"{kind} k={k}: extraction failed at step {x.step}")
        _check(len(x.terms) == k, f"{kind} k={k}: {len(x.terms)} product terms, expected {k}")
        total = np.zeros_like(gm)
        for weight, a, b in x.terms:
            _check(weight > 0, "non-positive mixture weight")
            for f in (a.mat, b.mat):
                _check(abs(np.trace(f).real - 1.0) <= 1e-9, "product factor is not trace-normalized")
                _check(float(np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0]) >= -1e-9, "product factor is not PSD")
            total += weight * np.kron(a.mat, b.mat)
        gn = gm / np.trace(gm).real
        _check(
            float(np.linalg.norm(total - gn)) <= TOLS.separable * max(1.0, float(np.linalg.norm(gn))),
            f"{kind} k={k}: separable decomposition does not reconstruct the state",
        )


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Input class and filter mode per local dimension; together they reach all
# four filter modes and, through the minimal-rank state, extraction.
CLI_STATES = {
    2: ("ppt", "left"),
    3: ("minimal", "symmetric"),
    4: ("invariant", "conjugate"),
    5: ("ppt", "general"),
    6: ("spc", "symmetric"),
}
CLI_SUBCOMMANDS = ("generate", "classify", "bounds", "filter", "decompose", "certify")


def _cli_state(cls: str, k: int, gen_seed: int):
    if cls == "minimal":
        u = _haar(_rng("cli-minimal", gen_seed), k)
        return _congruence(T.canonical("classical_diag", k), u, u)
    return {"ppt": T.random_ppt, "invariant": T.random_invariant, "spc": T.random_spc}[cls](k, gen_seed)


def _cli_reference(sub: str, g, mode: str, generated) -> tuple[int, dict]:
    """Expected exit code and key fields, from the library API in-process."""
    if sub == "generate":
        return 0, {"re": generated.mat.real.tolist(), "im": generated.mat.imag.tolist()}
    c = T.classify(g)
    if sub == "classify":
        return 0, {"flags": [c.is_state, c.ppt, c.spc, c.invariant], "ccnr": c.ccnr_value}
    if sub == "bounds":
        holds = [T.bound_gamma_pt(g).bound_holds, T.bound_realign_sq(g).bound_holds]
        holds.append(T.bound_triad(g, c).bound_holds if c.any_flag else None)
        return (0 if all(h is not False for h in holds) else 2), {"holds": holds}
    if sub == "filter":
        fr = T.sinkhorn_filter(g, mode)
        return (0 if fr.converged else 2), {"converged": fr.converged, "iterations": fr.iterations}
    if sub == "decompose":
        try:
            tree = T.decompose(g)
        except ToolkitError:
            return 2, None
        return 0, {"leaves": sorted(str(leaf.leaf_status) for leaf in tree.leaves())}
    eq = T.equal_schmidt_certificate(g, c)
    rb = T.rank_bound_check(g, c)
    try:
        x = T.minimal_rank_extract(g, c)
    except PreconditionNotMet:
        extraction, code = "skipped", 0
    else:
        failed = isinstance(x, T.ExtractionFailure)
        extraction, code = (f"step:{x.step}", 2) if failed else (f"terms:{len(x.terms)}", 0)
    fields = {"applies": eq.applies, "rank": [rb.rank, list(rb.reduced_ranks)], "extraction": extraction}
    return code, fields


def _cli_fields(sub: str, out: dict) -> dict:
    """The same key fields, read from the CLI's JSON output."""
    if sub == "generate":
        return {"re": out["re"], "im": out["im"]}
    if sub == "classify":
        return {"flags": [out["is_state"], out["ppt"], out["spc"], out["invariant"]], "ccnr": out["ccnr_value"]}
    if sub == "bounds":
        triad = out["triad"]
        holds = [out["gamma_pt"]["bound_holds"], out["realign_sq"]["bound_holds"]]
        return {"holds": holds + [None if triad is None else triad["bound_holds"]]}
    if sub == "filter":
        return {"converged": out["converged"], "iterations": out["iterations"]}
    if sub == "decompose":

        def leaves(node):
            return [node] if not node["children"] else [x for ch in node["children"] for x in leaves(ch)]

        return {"leaves": sorted(str(leaf["leaf_status"]) for leaf in leaves(out))}
    ext = out["extraction"]
    if "skipped" in ext:
        extraction = "skipped"
    elif "step" in ext:
        extraction = f"step:{ext['step']}"
    else:
        extraction = f"terms:{len(ext['terms'])}"
    rank = [out["rank_bound"]["rank"], list(out["rank_bound"]["reduced_ranks"])]
    return {"applies": out["equal_schmidt"]["applies"], "rank": rank, "extraction": extraction}


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= 1e-9 * max(1.0, abs(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[x], b[x]) for x in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class Cli(Workload):
    """One serial CLI subprocess per item over JSON files written at set-up.

    The subprocess inherits this process's PYTHONPATH, which names ``src``,
    so no install is needed.  Each item's exit code and key fields must
    equal the library's in-process result.
    """

    name = "cli"
    warmup_items = 1
    calibration = "spawn"

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        digest = hashlib.sha256()
        for k, (cls, mode) in CLI_STATES.items():
            gen_seed = _key("cli", seed, k) % 1_000_000
            g0 = _cli_state(cls, k, gen_seed)
            path = os.path.join(workdir, f"k{k}.json")
            text = json.dumps(g0.to_json())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            digest.update(text.encode())
            g = T.BipartiteOperator.from_json(json.loads(text))
            gen_class = "canonical:classical_diag" if cls == "minimal" else cls
            generated = T.canonical("classical_diag", k) if cls == "minimal" else g0
            for sub in CLI_SUBCOMMANDS:
                if sub == "generate":
                    argv = ["generate", "--class", gen_class, "--k", str(k), "--seed", str(gen_seed)]
                else:
                    argv = [sub, path, "--json"] + (["--mode", mode] if sub == "filter" else [])
                code, fields = _cli_reference(sub, g, mode, generated)
                self.inputs.append((sub, k, argv, code, fields))
        self.digest = digest.hexdigest()

    def main_pass(self, tracer, seconds: float, first_id: int) -> dict:
        """In-process ``cli.main(argv)`` over every item's argv, stdout captured."""
        from triadops import cli

        outcomes = {"ok": 0, "declined": 0, "failed": 0, "wrong": 0}
        details = []
        calls = 0
        start = time.perf_counter()
        while calls == 0 or time.perf_counter() - start < seconds:
            for sub, k, argv, code, fields in self.inputs:
                sink = io.StringIO()
                with tracer.item(first_id + calls), tracer.span("cli", "main"):
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        got = cli.main(list(argv))
                calls += 1
                if got != code:
                    outcomes["wrong"] += 1
                    details.append(f"[wrong] in-process cli {sub} k={k} exited {got}, expected {code}")
                else:
                    outcomes["ok"] += 1
        return {"elapsed": time.perf_counter() - start, "attempted": calls, "outcomes": outcomes, "details": details[:20]}

    def _item(self, spec, i, item, tr):
        sub, k, argv, code, fields = spec
        with item.timed():
            with tr.span("cli", "subprocess"):
                proc = subprocess.run(
                    [sys.executable, "-m", "triadops.cli", *argv],
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
        _check(proc.returncode == code, f"cli {sub} k={k} exited {proc.returncode}, expected {code}: {proc.stderr[-300:]}")
        if fields is None:
            _fail(Declined, f"cli {sub} k={k} refused its input, as the library does")
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            _fail(CheckFailed, f"cli {sub} k={k}: stdout is not JSON")
        got = _cli_fields(sub, out)
        # generated matrices must match bit for bit; other floats to 1e-9
        _check(got == fields if sub == "generate" else _same(got, fields), f"cli {sub} k={k}: output differs from the in-process result")
        if code != 0:
            _fail(Declined, f"cli {sub} k={k} reported a numerical failure (exit {code})")


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "survey":
        return Survey(seed)
    if name == "normal-form":
        return NormalForm(seed)
    if name == "split-extract":
        return SplitExtract(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("survey", "normal-form", "split-extract", "cli")
