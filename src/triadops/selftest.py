"""The invariant sweeps, one definition each.

``triadops selftest`` and the acceptance tests run these same suites.  Each
suite checks one family of identities or class properties on seeded inputs
at the acceptance thresholds and reports its worst residual.  The full
profile runs the acceptance trial counts; the quick profile runs the first
fifth of each sweep.  ``seed`` is added to every draw's seed, so seed 0
reproduces the acceptance inputs.
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
from .criteria import (
    bound_gamma_pt,
    bound_realign_sq,
    bound_triad,
    ccnr_entanglement_flag,
    classify,
)
from .filters import doubly_stochastic_check, sinkhorn_filter
from .generators import (
    _complex_normal,
    canonical,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    rng_from_seed,
)
from .reducibility import minimal_rank_extract, rank_bound_check, SeparableDecomposition
from .tensor_core import BipartiteOperator, _congruence, _kron, norms


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _suite_realignment_identities(div: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for k in (2, 3):
        f = flip(k).mat
        rng = rng_from_seed(seed + 1000 + k)
        for _ in range(100 // div):
            g = BipartiteOperator(_complex_normal(rng, (k * k, k * k)), k, k)
            d = BipartiteOperator(_complex_normal(rng, (k * k, k * k)), k, k)
            gm, rg, rd = g.mat, realign(g).mat, realign(d).mat
            v = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
            w = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
            lv, lw, lm, ln = (
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                for _ in range(4)
            )
            sandwich = _kron(lv, lw) @ gm @ _kron(lm, ln)
            residuals = (
                # (1) rank-one reshape rule
                realign(BipartiteOperator(np.outer(v, w), k, k)).mat
                - _kron(v.reshape(k, k), w.reshape(k, k)),
                # (2) involution
                realign(realign(g)).mat - gm,
                # (3) interchange with local sandwiches
                realign(BipartiteOperator(sandwich, k, k)).mat
                - _kron(lv, lm.T) @ rg @ _kron(lw.T, ln),
                # (4) realign(g F) F = partial transpose
                realign(BipartiteOperator(gm @ f, k, k)).mat @ f - partial_transpose(g).mat,
                # (5) realign of the partial transpose
                realign(partial_transpose(g)).mat - rg @ f,
                # (6) realign(g F) = partial transpose of the realignment
                realign(BipartiteOperator(gm @ f, k, k)).mat
                - partial_transpose(realign(g)).mat,
                # (7) double partial transpose chain collapses to right flip
                partial_transpose(realign(partial_transpose(g))).mat - gm @ f,
                # (8) multiplicativity over the star product
                realign(star_product(g, d)).mat - rg @ rd,
                # (9) conjugation rule
                realign(BipartiteOperator(f @ gm.conj() @ f, k, k)).mat - rg.conj().T,
            )
            worst = max(worst, max(float(np.linalg.norm(r)) for r in residuals))
    return worst <= 1e-11, f"max identity residual {worst:.2e}"


def _suite_isometry_contraction(div: int, seed: int) -> tuple[bool, str]:
    named = ((1, 2, 4, 3), (2, 1, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2))
    worst_iso = 0.0
    worst_exceed = -np.inf
    for k in (2, 3):
        rng = rng_from_seed(seed + 2000 + k)
        for _ in range(50 // div):
            g = BipartiteOperator(_complex_normal(rng, (k * k, k * k)), k, k)
            fro = norms(g).frobenius_norm
            for sigma in named:
                out = norms(contraction_by_permutation(sigma, g)).frobenius_norm
                worst_iso = max(worst_iso, abs(out - fro))
        for s in range(100 // div):
            sep, _ = random_separable(k, k + 2, seed + 2100 + s)
            tn = norms(sep).trace_norm
            for sigma in named:
                out = norms(contraction_by_permutation(sigma, sep)).trace_norm
                worst_exceed = max(worst_exceed, out - tn)
    ok = worst_iso <= 1e-12 and worst_exceed <= 1e-9
    return ok, f"isometry defect {worst_iso:.2e}, contraction exceedance {worst_exceed:.2e}"


def _suite_spectral_bounds(div: int, seed: int) -> tuple[bool, str]:
    worst = np.inf
    for k in (2, 3):
        for s in range(250 // div):
            g = random_density(k, k * k, seed + 3000 + s)
            worst = min(worst, bound_gamma_pt(g).margin, bound_realign_sq(g).margin)
        for gen in (random_ppt, random_spc, random_invariant):
            for s in range(100 // div):
                g = gen(k, seed + 3500 + s)
                worst = min(worst, bound_triad(g, classify(g)).margin)
    return worst >= -1e-9, f"smallest bound margin {worst:.2e}"


def _suite_generator_soundness(div: int, seed: int) -> tuple[bool, str]:
    bad = checked = 0
    for k in (2, 3):
        for s in range(250 // div):
            c_spc = classify(random_spc(k, seed + s))
            c_inv = classify(random_invariant(k, seed + s))
            c_ppt = classify(random_ppt(k, seed + s))
            sep, _ = random_separable(k, k + 2, seed + s)
            verdicts = (
                c_spc.spc and c_spc.residuals.spc_min_eigenvalue >= -1e-9,
                c_inv.invariant and c_inv.residuals.invariance_distance <= 1e-9,
                c_ppt.ppt and c_ppt.residuals.ppt_min_eigenvalue >= -1e-9,
                not ccnr_entanglement_flag(sep),
            )
            checked += len(verdicts)
            bad += verdicts.count(False)
    return bad == 0, f"{bad} of {checked} class checks failed"


def _suite_filters(div: int, seed: int) -> tuple[bool, str]:
    worst_marg = worst_class = worst_top = 0.0
    for k in (2, 3):
        for s in range(50 // div):
            a = _complex_normal(rng_from_seed(seed + 5000 + 31 * s + k), (k, k))
            scale = a @ a.conj().T + 0.3 * np.eye(k)
            for mode, state, right in (
                ("symmetric", random_spc(k, seed + 5100 + s), scale),
                ("conjugate", random_invariant(k, seed + 5200 + s), scale.conj()),
            ):
                m = _congruence(scale, right, state.mat)
                m = 0.5 * (m + m.conj().T)
                fr = sinkhorn_filter(BipartiteOperator(m / np.trace(m).real, k, k), mode)
                if not fr.converged:
                    return False, f"{mode} filter failed to converge (k={k}, draw {s})"
                if not doubly_stochastic_check(fr.normal_form).doubly_stochastic:
                    return False, f"{mode} normal form is not doubly stochastic (k={k}, draw {s})"
                worst_marg = max(worst_marg, fr.marginal_residual_a, fr.marginal_residual_b)
                worst_class = max(worst_class, fr.class_residual)
                sd = fr.schmidt_of_normal_form
                top = sd.left_ops[0].mat
                overlap = np.trace(top @ np.eye(k) / np.sqrt(k)).real
                worst_top = max(
                    worst_top,
                    abs(sd.coefficients[0] - 1.0 / k),
                    float(np.linalg.norm(top - overlap * np.eye(k) / np.sqrt(k))),
                )
    ok = worst_marg <= 1e-9 and worst_class <= 1e-8 and worst_top <= 1e-7
    return ok, (
        f"marginals {worst_marg:.2e}, class {worst_class:.2e}, top datum {worst_top:.2e}"
    )


def _suite_reducibility(div: int, seed: int) -> tuple[bool, str]:
    states = 0
    for k in (2, 3):
        for s in range(125 // div):
            for gen in (random_ppt, random_spc):
                g = gen(k, seed + 7000 + s)
                if not rank_bound_check(g, classify(g)).bound_holds:
                    return False, f"rank bound failed ({gen.__name__}, k={k}, draw {s})"
                states += 1
    worst = 0.0
    extractions = 0
    for shape, k, g, count in _extraction_inputs(div, seed):
        out = minimal_rank_extract(g, classify(g))
        if not isinstance(out, SeparableDecomposition):
            return False, f"extraction failed at step {out.step} ({shape}, k={k})"
        if len(out.terms) != count:
            return False, f"{len(out.terms)} product terms, expected {count} ({shape}, k={k})"
        if any(np.linalg.eigvalsh(f.mat)[0] < -1e-9 for _, x, y in out.terms for f in (x, y)):
            return False, f"extracted factor is not PSD ({shape}, k={k})"
        worst = max(worst, out.reconstruction_residual)
        extractions += 1
    return worst <= 1e-7, (
        f"rank bounds on {states} states, {extractions} extractions, worst residual {worst:.2e}"
    )


def _extraction_inputs(div: int, seed: int):
    """Minimal-rank separable states as (shape, k, state, number of terms):
    classical_diag under Haar and positive definite local congruences, and
    n generic product vectors x_i (x) y_i on C^m (x) C^n, m <= n <= k,
    embedded in C^k (x) C^k by random isometries, with y_i = x_i or conj(x_i)
    when m = n, and in either order when m < n (one term when m = 1)."""
    for k, n in ((2, 34), (3, 33), (4, 33)):
        fixture = canonical("classical_diag", k)
        for s in range(n // div):
            rng = rng_from_seed(seed + 7500 + 13 * s + k)
            q, r = np.linalg.qr(_complex_normal(rng, (k, k)))
            u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # Haar unitary
            x, y = _complex_normal(rng, (k, k)), _complex_normal(rng, (k, k))
            v, w = x @ x.conj().T + 0.3 * np.eye(k), y @ y.conj().T + 0.3 * np.eye(k)
            for shape, a, b in (
                ("Haar V (x) V", u, u),
                ("PD V (x) V", v, v),
                ("PD V (x) conj(V)", v, v.conj()),
                ("PD V (x) W", v, w),
            ):
                yield f"{shape}, draw {s}", k, BipartiteOperator(_congruence(a, b, fixture.mat), k, k), k
    for k in range(2, 7):
        for n in range(1, k + 1):
            for m in range(1 if k > 2 else n, n + 1):
                for s in range(-(-(5 if m == n else 3) // div)):  # a fifth when quick, rounded up
                    rng = rng_from_seed(seed + 7700 + 100 * k + 10 * n + m + 1000 * s)
                    draws = (_complex_normal(rng, (d, d)) for d in (k, n, k, n))
                    x = np.linalg.qr(next(draws))[0][:, :m] @ next(draws)[:m]
                    y = np.linalg.qr(next(draws))[0][:, :n] @ next(draws)
                    if m == n:
                        pairs = {"x (x) x": (x, x), "x (x) conj(x)": (x, x.conj()), "x (x) y": (x, y)}
                    else:
                        pairs = {"r_A < r_B": (x, y), "r_A > r_B": (y, x)}
                    for shape, (a, b) in pairs.items():
                        vecs = (a[:, None, :] * b[None, :, :]).reshape(k * k, n)
                        g = BipartiteOperator(vecs @ vecs.conj().T, k, k)
                        yield f"{n} terms, {shape}, C^{m} (x) C^{n}, draw {s}", k, g, n if m > 1 else 1


SUITES = {
    "realignment-identities": _suite_realignment_identities,
    "isometry-contraction": _suite_isometry_contraction,
    "spectral-bounds": _suite_spectral_bounds,
    "generator-soundness": _suite_generator_soundness,
    "filter-normal-forms": _suite_filters,
    "reducibility-extraction": _suite_reducibility,
}


def run_suite(name: str, quick: bool = False, seed: int = 0) -> SuiteResult:
    """Run one suite of ``SUITES``; ``quick`` runs the first fifth of each sweep."""
    fn = SUITES[name]
    start = time.perf_counter()
    try:
        passed, detail = fn(5 if quick else 1, seed)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return SuiteResult(name, passed, detail, time.perf_counter() - start)


def run_selftest(quick: bool = False, seed: int = 0) -> list[SuiteResult]:
    return [run_suite(name, quick, seed) for name in SUITES]
