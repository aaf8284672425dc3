"""Property tests: invariants checked on generated inputs, not fixed seeds.

Hypothesis draws the inputs under the derandomized ``tier1`` profile that
``conftest.py`` loads, so every run checks the same examples.
"""

import json
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from triadops import (
    BipartiteOperator,
    LocalOperator,
    SeparableDecomposition,
    bound_gamma_pt,
    bound_realign_sq,
    bound_triad,
    canonical,
    classify,
    decompose,
    doubly_stochastic_check,
    fully_indecomposable_probe,
    minimal_rank_extract,
    random_density,
    random_invariant,
    random_ppt,
    random_spc,
    psd_check,
    realign,
    schmidt,
    sinkhorn_filter,
)
from triadops.cli import _format_json
from triadops.contractions import _PARTIAL_TRANSPOSE
from triadops.errors import ToolkitError, WrongClassForMode
from triadops.generators import _STEP_BACK
from triadops.tensor_core import _MEMO, _json_value, _permute_slots
from triadops.tolerances import DEFAULT

from conftest import haar_congruence, haar_unitary, local_scale, random_pd_local


@given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_random_spc_is_a_flagged_state(k, seed):
    gamma = random_spc(k, seed)
    assert abs(np.trace(gamma.mat).real - 1.0) <= 1e-13
    c = classify(gamma)
    assert c.spc and c.is_state
    assert np.linalg.eigvalsh(gamma.mat)[0] >= (1.0 - _STEP_BACK) / k**2 - 1e-14


@given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_random_ppt_is_a_flagged_state_clear_of_both_boundaries(k, seed):
    gamma = random_ppt(k, seed)
    assert abs(np.trace(gamma.mat).real - 1.0) <= 1e-13
    c = classify(gamma)
    assert c.ppt and c.is_state
    for mat in (gamma.mat, _permute_slots(gamma.mat, k, k, _PARTIAL_TRANSPOSE)):
        assert np.linalg.eigvalsh(mat)[0] >= (1.0 - _STEP_BACK) / k**2 - 1e-14


@given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_random_invariant_is_invariant_to_roundoff_with_rank_one_short(k, seed):
    gamma = random_invariant(k, seed)
    assert abs(np.trace(gamma.mat).real - 1.0) <= 1e-13
    assert np.linalg.norm(realign(gamma).mat - gamma.mat) <= 1e-13 * np.linalg.norm(gamma.mat)
    w = np.linalg.eigvalsh(gamma.mat)
    assert w[0] >= -1e-13 * w[-1]
    assert np.sum(w > DEFAULT.rank * w[-1]) == k * k - 1


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(["spc", "invariant", "ppt"]),
    weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimal_rank_extract_recovers_k_product_terms(k, kind, weights, seed):
    # sum_i w_i P(a_i) (x) P(b_i) with orthonormal {a_i} and {b_i} is
    # minimal-rank; b_i = a_i keeps it SPC, b_i = conj(a_i) invariant, and
    # the PD congruence V (x) V, V (x) conj(V) or V (x) W keeps the class
    rng = np.random.default_rng(seed)
    a = haar_unitary(rng, k)
    b = {"spc": a, "invariant": a.conj(), "ppt": haar_unitary(rng, k)}[kind]
    mat = sum(
        p * np.kron(np.outer(a[:, i], a[:, i].conj()), np.outer(b[:, i], b[:, i].conj()))
        for i, p in enumerate(weights[:k])
    )
    v = random_pd_local(rng, k)
    w = {"spc": v, "invariant": v.conj(), "ppt": random_pd_local(rng, k)}[kind]
    g = local_scale(BipartiteOperator(mat, k, k), v, w)

    out = minimal_rank_extract(g, classify(g))
    assert isinstance(out, SeparableDecomposition), out
    assert len(out.terms) == k
    for weight, x, y in out.terms:
        assert weight > 0
        for f in (x.mat, y.mat):
            assert abs(np.trace(f).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(f)[0] >= -DEFAULT.psd
    residual = np.linalg.norm(out.reconstruct() - g.mat)
    assert residual <= DEFAULT.separable * max(1.0, np.linalg.norm(g.mat))


GENERATORS = {
    "spc": random_spc,
    "invariant": random_invariant,
    "ppt": random_ppt,
    "density": lambda k, seed: random_density(k, k * k, seed),
}
MODES = ("general", "symmetric", "conjugate", "left")


def _leaves(g):
    """Side and status of each leaf of ``decompose(g)``."""
    return [(n.state.dim_a, n.state.dim_b, n.leaf_status) for n in decompose(g).leaves()]


def _verdicts(g):
    """Class flags, doubly-stochastic verdict, decompose leaves and filter
    convergence per mode; a refused call records its error's name."""

    def outcome(call):
        try:
            return call()
        except ToolkitError as exc:
            return type(exc).__name__

    c = classify(g)
    return (
        (c.ppt, c.spc, c.invariant),
        outcome(lambda: doubly_stochastic_check(g).doubly_stochastic),
        outcome(lambda: _leaves(g)),
        [outcome(lambda: sinkhorn_filter(g, mode).converged) for mode in MODES],
    )


@given(
    k=st.integers(2, 4),
    kind=st.sampled_from(["spc", "invariant", "ppt"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-15.0, 6.0),
)
def test_verdicts_do_not_depend_on_scale(k, kind, seed, exponent):
    # gamma -> c gamma with c log-uniform in [1e-15, 1e6]
    g = GENERATORS[kind](k, seed)
    scaled = BipartiteOperator(10.0**exponent * g.mat, k, k)
    assert _verdicts(scaled) == _verdicts(g)


# the local shape that keeps each class: V (x) W for PPT, V (x) V for SPC and
# V (x) conj(V) for invariant states, and the flags it keeps (a local
# congruence keeps the PPT flag, set or not)
SHAPES = {"ppt": "W", "spc": "V", "invariant": "Vbar"}
KEPT_FLAGS = {"ppt": ("ppt",), "spc": ("ppt", "spc"), "invariant": ("ppt", "invariant")}


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(list(SHAPES)),
    split=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_flags_and_leaves_survive_class_preserving_congruences(k, kind, split, seed):
    # a generated state of the class, or classical_diag (in all three
    # classes), which splits into k leaves of side 1
    g = canonical("classical_diag", k) if split else GENERATORS[kind](k, seed)
    rng = np.random.default_rng(seed)
    v = random_pd_local(rng, k)
    w = {"W": lambda: random_pd_local(rng, k), "V": lambda: v, "Vbar": v.conj}[SHAPES[kind]]()
    scaled = local_scale(g, v, w)

    def flags(op):
        c = classify(op)
        return [getattr(c, name) for name in KEPT_FLAGS[kind]]

    assert getattr(classify(g), kind)
    assert flags(scaled) == flags(g)
    assert _leaves(haar_congruence(g, rng, SHAPES[kind])) == _leaves(g)


# fully indecomposable maps (the four generated classes) and decomposable
# ones: a rank-2 state (two Kraus operators) and classical_diag
PROBE_INPUTS = {
    **GENERATORS,
    "density-rank2": lambda k, seed: random_density(k, 2, seed),
    "classical_diag": lambda k, seed: canonical("classical_diag", k),
}


@given(
    k=st.integers(2, 4),
    kind=st.sampled_from(list(PROBE_INPUTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_verdict_survives_invertible_local_congruences(k, kind, seed):
    # (V (x) W) gamma (V (x) W)^* with V, W positive definite changes no rank
    # of the contraction map's images, so the verdict stays
    g = PROBE_INPUTS[kind](k, seed)
    rng = np.random.default_rng(seed)
    scaled = local_scale(g, random_pd_local(rng, k), random_pd_local(rng, k))
    verdict = fully_indecomposable_probe(g).verdict
    assert verdict != "inconclusive"
    assert fully_indecomposable_probe(scaled).verdict == verdict


@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    exponent=st.floats(-300.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_survive_a_json_round_trip(dims, exponent, seed):
    # the CLI's 17 significant digits carry every float64 back unchanged
    rng = np.random.default_rng(seed)
    ka, kb = dims
    n = ka * kb
    mat = 10.0**exponent * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def round_trip(op):
        return type(op).from_json(json.loads(_format_json(op.to_json())))

    op = BipartiteOperator(mat, ka, kb)
    back = round_trip(op)
    assert np.array_equal(back.mat, op.mat) and (back.dim_a, back.dim_b) == dims
    local = LocalOperator(mat[:ka, :ka])
    back = round_trip(local)
    assert np.array_equal(back.mat, local.mat) and back.dim == ka


@given(
    k=st.integers(2, 4),
    kind=st.sampled_from(list(GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_expansion_is_orthonormal_and_normal_forms_stay_fixed(k, kind, seed):
    # a PD V (x) V keeps SPC, V (x) conj(V) invariance and V (x) W PPT
    rng = np.random.default_rng(seed)
    v = random_pd_local(rng, k)
    w = {"spc": v, "invariant": v.conj()}.get(kind)
    g = local_scale(GENERATORS[kind](k, seed), v, random_pd_local(rng, k) if w is None else w)
    for mode in MODES:
        try:
            fr = sinkhorn_filter(g, mode)
        except WrongClassForMode:
            continue
        if not fr.converged:
            continue
        sd = fr.schmidt_of_normal_form
        for ops in (sd.left_ops, sd.right_ops):
            flat = np.array([op.mat.ravel() for op in ops])
            gram = flat.conj() @ flat.T
            assert np.max(np.abs(gram - np.eye(len(ops)))) <= 1e-7, mode
        # the coefficients dropped below tols.rank * s_1 are missing from the sum
        nf = fr.normal_form.mat
        bound = 1e-9 * np.linalg.norm(nf)
        bound += DEFAULT.rank * sd.coefficients[0] * np.sqrt(k * k - len(sd.coefficients))
        assert np.linalg.norm(sd.reconstruct().mat - nf) <= bound, mode
        assert sinkhorn_filter(fr.normal_form, mode).iterations == 0, mode


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(["spc", "invariant", "ppt"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_tree_reconstructs_its_input(k, kind, seed):
    # two generated states of the class on complementary local subspaces; a
    # block-diagonal PD congruence and a Haar rotation, V (x) V for SPC,
    # V (x) conj(V) for invariant and V (x) W for PPT, keep both the class
    # and the split
    rng = np.random.default_rng(seed)
    a = int(rng.integers(1, k))
    eye = np.eye(k)
    mat = sum(
        np.kron(e, e) @ GENERATORS[kind](e.shape[1], seed + i).mat @ np.kron(e, e).T
        for i, e in enumerate((eye[:, :a], eye[:, a:]))
    )

    def local():
        blocks = np.zeros((k, k), dtype=complex)
        blocks[:a, :a] = random_pd_local(rng, a)
        blocks[a:, a:] = random_pd_local(rng, k - a)
        return haar_unitary(rng, k) @ blocks

    v = local()
    w = {"spc": v, "invariant": v.conj(), "ppt": local()}[kind]
    g = local_scale(BipartiteOperator(mat, k, k), v, w)
    assert getattr(classify(g), kind)

    tree = decompose(g)
    assert len(tree.leaves()) >= 2
    residual = np.linalg.norm(tree.reconstruct() - g.mat)
    assert residual <= k * DEFAULT.split * np.linalg.norm(g.mat)


def _memo_reports(g):
    """The survey calls on ``g``, each giving the JSON text of its report."""
    c = classify(g)
    calls = {
        "classify": lambda: classify(g),
        "bound_gamma_pt": lambda: bound_gamma_pt(g),
        "bound_realign_sq": lambda: bound_realign_sq(g),
        "bound_triad": lambda: bound_triad(g, c) if c.any_flag else None,
        "schmidt": lambda: schmidt(g),
        "psd_check": lambda: psd_check(g),
    }
    return {name: (lambda call=call: _format_json(_json_value(call()))) for name, call in calls.items()}


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(list(GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-12.0, 6.0),
    order=st.permutations(range(6)),
)
def test_memo_keeps_every_report_byte_for_byte(k, kind, seed, exponent, order):
    # a cold memo before each call, one warm memo shared by all calls in
    # shuffled order, and two threads with a memo each give the same bytes
    g = BipartiteOperator(10.0**exponent * GENERATORS[kind](k, seed).mat, k, k)
    reports = _memo_reports(g)
    cold = {}
    for name, report in reports.items():
        _MEMO.entries.clear()
        cold[name] = report()
    _MEMO.entries.clear()
    names = list(reports)
    warm = {names[i]: reports[names[i]]() for i in order}
    assert warm == cold

    threaded = []
    start = threading.Barrier(2)

    def worker():
        start.wait()
        threaded.append({name: report() for name, report in reports.items()})

    workers = [threading.Thread(target=worker) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert threaded == [cold, cold]
