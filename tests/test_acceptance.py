"""Acceptance suite: one test per criterion, printed as one line each.

The sweeps are the suites of ``triadops.selftest``, the same code that
``triadops selftest`` runs; criteria 4, 6 and 8 are checked here.  Every
criterion runs at its stated tolerance and within its stated time budget;
the budgets are asserted, not just reported.
"""

import time

import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    canonical,
    classify,
    find_psd_eigenvector,
    norms,
    ppt_pair_forces_invariance,
    random_invariant,
    random_ppt,
    random_spc,
    rng_from_seed,
    selftest,
    split,
)


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[PASS] acceptance {number}: {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


# each suite of triadops.selftest and its time budget in seconds
BUDGETS = {
    "realignment-identities": 5.0,
    "isometry-contraction": 10.0,
    "spectral-bounds": 30.0,
    "generator-soundness": 60.0,
    "filter-normal-forms": 60.0,
    "reducibility-extraction": 120.0,
}


@pytest.mark.parametrize("name", list(selftest.SUITES))
def test_acceptance_suite(name):
    assert list(BUDGETS) == list(selftest.SUITES)
    started = time.perf_counter()
    result = selftest.run_suite(name)
    assert result.passed, result.detail
    _report(name, result.detail, started, BUDGETS[name])


def test_acceptance_4_ppt_pair_lemma():
    started = time.perf_counter()
    anchor = canonical("identity_plus_u", 2)
    checked = 0
    for seed in range(100):
        base = random_invariant(2, 4000 + seed)
        for t in np.linspace(0.0, 1.0, 21):
            mixed = BipartiteOperator((1 - t) * base.mat + t * anchor.mat, 2, 2)
            rep = ppt_pair_forces_invariance(mixed)
            if rep.both_ppt:
                scale = float(np.linalg.norm(mixed.mat))
                assert rep.realign_distance <= 1e-8 * scale, (seed, t)
                checked += 1
                break
        else:
            pytest.fail(f"no PPT member found in the invariant family (seed {seed})")
    assert checked == 100
    _report(4, "both-PPT members of the invariant family are fixed points", started, 30.0)


def test_acceptance_6_reducibility_suite():
    started = time.perf_counter()
    # exact splits of block-constructed states
    from test_reducibility import _orthogonal_block_state
    from triadops import decompose

    worst_split = worst_tree = 0.0
    rng = rng_from_seed(6000)
    for k, sizes in ((2, (1, 1)), (3, (1, 2)), (3, (1, 1, 1)), (4, (2, 2)), (4, (1, 3))):
        for _ in range(10):
            g = _orthogonal_block_state(rng, k, sizes)
            res = find_psd_eigenvector(g)
            assert res.found, (k, sizes)
            cert = split(g, res.x)
            worst_split = max(worst_split, cert.residual)
            tree = decompose(g)
            worst_tree = max(
                worst_tree, float(np.linalg.norm(tree.reconstruct() - g.mat))
            )
            assert len(tree.leaves()) == len(sizes)
    assert worst_split <= 1e-10
    assert worst_tree <= 1e-8

    # complete-reducibility residual on triad generator outputs
    worst_rel = 0.0
    for k in (2, 3):
        for seed in range(40):
            for gen in (random_ppt, random_spc, random_invariant):
                g = gen(k, 6100 + seed)
                res = find_psd_eigenvector(g)
                if res.found:
                    cert = split(g, res.x)
                    worst_rel = max(
                        worst_rel, cert.residual / np.linalg.norm(g.mat)
                    )
    assert worst_rel <= 1e-8
    _report(
        6,
        f"splits exact to {worst_split:.2e}, trees to {worst_tree:.2e}, "
        f"triad residual {worst_rel:.2e}",
        started,
        60.0,
    )


def test_acceptance_8_fixture_exactness():
    started = time.perf_counter()
    bell = canonical("bell", 2)
    c = classify(bell)
    assert abs(c.ccnr_value - 2.0) <= 1e-9
    assert abs(c.residuals.ppt_min_eigenvalue + 0.5) <= 1e-10

    ipu = canonical("identity_plus_u", 2)
    c = classify(ipu)
    assert c.invariant and c.ppt
    assert abs(norms(ipu).operator_norm - 0.5) <= 1e-10
    _report(8, "fixture values exact", started, 5.0)
