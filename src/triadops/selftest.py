"""Built-in invariant sweeps behind the ``triadops selftest`` subcommand.

Each suite exercises one family of identities or class properties on seeded
random inputs and returns its worst residual.  The quick profile trims the
trial counts; the full profile mirrors the package's acceptance thresholds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .contractions import (
    contraction_by_permutation,
    flip,
    partial_transpose,
    realign,
    star_product,
)
from .criteria import bound_gamma_pt, bound_realign_sq, bound_triad, classify
from .filters import doubly_stochastic_check, sinkhorn_filter
from .generators import (
    canonical,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    rng_from_seed,
)
from .reducibility import minimal_rank_extract, rank_bound_check, SeparableDecomposition
from .tensor_core import BipartiteOperator, _kron, norms


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_operator(rng: np.random.Generator, k: int) -> BipartiteOperator:
    n = k * k
    mat = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return BipartiteOperator(mat, k, k)


def _suite_realignment_identities(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for k in (2, 3):
        f = flip(k).mat
        rng = rng_from_seed(seed + k)
        for _ in range(trials):
            g = _random_operator(rng, k)
            d = _random_operator(rng, k)
            rg, rd = realign(g).mat, realign(d).mat
            gm = g.mat
            v, w = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k), (
                rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
            )
            locals_ = [
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                for _ in range(4)
            ]
            lv, lw, lm, ln = locals_
            sandwich = _kron(lv, lw) @ gm @ _kron(lm, ln)
            checks = [
                realign(BipartiteOperator(np.outer(v, w), k, k)).mat
                - _kron(v.reshape(k, k), w.reshape(k, k)),
                realign(realign(g)).mat - gm,
                realign(BipartiteOperator(sandwich, k, k)).mat
                - _kron(lv, lm.T) @ rg @ _kron(lw.T, ln),
                realign(BipartiteOperator(gm @ f, k, k)).mat @ f - partial_transpose(g).mat,
                realign(partial_transpose(g)).mat - rg @ f,
                realign(BipartiteOperator(gm @ f, k, k)).mat
                - partial_transpose(realign(g)).mat,
                partial_transpose(realign(partial_transpose(g))).mat - gm @ f,
                realign(star_product(g, d)).mat - rg @ rd,
                realign(BipartiteOperator(f @ gm.conj() @ f, k, k)).mat - rg.conj().T,
            ]
            worst = max(worst, max(float(np.linalg.norm(c)) for c in checks))
    return worst <= 1e-11, f"max identity residual {worst:.2e}"


def _suite_isometry_contraction(trials: int, seed: int) -> tuple[bool, str]:
    worst_iso = 0.0
    worst_exceed = -np.inf
    for k in (2, 3):
        rng = rng_from_seed(seed + 10 * k)
        for _ in range(trials):
            g = _random_operator(rng, k)
            fro = norms(g).frobenius_norm
            for sigma in ((1, 2, 4, 3), (2, 1, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2)):
                worst_iso = max(
                    worst_iso,
                    abs(norms(contraction_by_permutation(sigma, g)).frobenius_norm - fro),
                )
        for s in range(trials):
            sep, _ = random_separable(k, k + 2, seed + s)
            tn = norms(sep).trace_norm
            for sigma in ((1, 2, 4, 3), (2, 1, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2)):
                out = norms(contraction_by_permutation(sigma, sep)).trace_norm
                worst_exceed = max(worst_exceed, out - tn)
    ok = worst_iso <= 1e-12 and worst_exceed <= 1e-9
    return ok, f"isometry defect {worst_iso:.2e}, contraction exceedance {worst_exceed:.2e}"


def _suite_spectral_bounds(trials: int, seed: int) -> tuple[bool, str]:
    worst = np.inf
    for k in (2, 3):
        for s in range(trials):
            g = random_density(k, k * k, seed + 100 * k + s)
            worst = min(worst, bound_gamma_pt(g).margin, bound_realign_sq(g).margin)
        gens = (
            lambda s2: random_ppt(k, s2),
            lambda s2: random_spc(k, s2),
            lambda s2: random_invariant(k, s2),
        )
        for gen in gens:
            for s in range(max(trials // 2, 5)):
                g = gen(seed + 1000 + s)
                worst = min(worst, bound_triad(g, classify(g)).margin)
    return worst >= -1e-9, f"smallest bound margin {worst:.2e}"


def _suite_generator_soundness(trials: int, seed: int) -> tuple[bool, str]:
    bad = 0
    checked = 0
    for k in (2, 3):
        for s in range(trials):
            checked += 3
            if not classify(random_ppt(k, seed + s)).ppt:
                bad += 1
            if not classify(random_spc(k, seed + s)).spc:
                bad += 1
            if not classify(random_invariant(k, seed + s)).invariant:
                bad += 1
            sep, _ = random_separable(k, k + 1, seed + s)
            checked += 1
            if classify(sep).ccnr_value > 1 + 1e-9:
                bad += 1
    return bad == 0, f"{bad} of {checked} class checks failed"


def _suite_filters(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for k in (2, 3):
        for s in range(trials):
            rng = rng_from_seed(seed + 17 * s + k)
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            scale = a @ a.conj().T + 0.3 * np.eye(k)
            spc = random_spc(k, seed + s)
            big = _kron(scale, scale)
            m = big @ spc.mat @ big.conj().T
            fr = sinkhorn_filter(BipartiteOperator(m / np.trace(m).real, k, k), "symmetric")
            if not fr.converged:
                return False, f"symmetric filter failed to converge (k={k}, seed={seed + s})"
            worst = max(worst, fr.marginal_residual_a, fr.marginal_residual_b, fr.class_residual)
            if not doubly_stochastic_check(fr.normal_form).doubly_stochastic:
                return False, "converged normal form is not doubly stochastic"

            inv = random_invariant(k, seed + s)
            big = _kron(scale, scale.conj())
            m = big @ inv.mat @ big.conj().T
            fr = sinkhorn_filter(BipartiteOperator(m / np.trace(m).real, k, k), "conjugate")
            if not fr.converged:
                return False, f"conjugate filter failed to converge (k={k}, seed={seed + s})"
            worst = max(worst, fr.class_residual)
    return worst <= 1e-8, f"worst residual {worst:.2e}"


def _suite_reducibility(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for k in (2, 3):
        cd = canonical("classical_diag", k)
        for s in range(trials):
            rng = rng_from_seed(seed + 7 * s + k)
            z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            big = _kron(q, q)
            m = big @ cd.mat @ big.conj().T
            g = BipartiteOperator(m, k, k)
            cls = classify(g)
            rb = rank_bound_check(g, cls)
            if not rb.bound_holds:
                return False, f"rank bound failed (k={k}, seed={seed + s})"
            out = minimal_rank_extract(g, cls)
            if not isinstance(out, SeparableDecomposition):
                return False, f"extraction failed at step {out.step} (k={k}, seed={seed + s})"
            worst = max(worst, out.reconstruction_residual)
    return worst <= 1e-7, f"worst reconstruction residual {worst:.2e}"


_SUITES = (
    ("realignment-identities", _suite_realignment_identities),
    ("isometry-contraction", _suite_isometry_contraction),
    ("spectral-bounds", _suite_spectral_bounds),
    ("generator-soundness", _suite_generator_soundness),
    ("filter-normal-forms", _suite_filters),
    ("reducibility-extraction", _suite_reducibility),
)


def run_selftest(quick: bool = False, seed: int = 0) -> list[SuiteResult]:
    trials = 10 if quick else 50
    results = []
    for name, fn in _SUITES:
        start = time.perf_counter()
        try:
            passed, detail = fn(trials, seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, passed, detail, time.perf_counter() - start))
    return results
