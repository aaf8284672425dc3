"""Property tests: invariants checked on generated inputs, not fixed seeds.

Hypothesis draws the inputs under the derandomized ``tier1`` profile that
``conftest.py`` loads, so every run checks the same examples.
"""

import json
import threading

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

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
    norms,
    partial_transpose,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    psd_check,
    realign,
    schmidt,
    sinkhorn_filter,
)
from triadops.cli import _format_json
from triadops.contractions import _PARTIAL_TRANSPOSE
from triadops.errors import (
    MarginalRankDeficient,
    NotHermitian,
    NotPSD,
    PreconditionNotMet,
    ToolkitError,
    WrongClassForMode,
)
from triadops.generators import _STEP_BACK
from triadops.tensor_core import _MEMO, _json_value, _permute_slots
from triadops.tolerances import DEFAULT

from conftest import haar_congruence, haar_unitary, local_scale, random_pd_local, spc_boundary_state


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
    """Class flags, the three bound verdicts, doubly-stochastic verdict,
    decompose leaves and filter convergence per mode; a refused call records
    its error's name."""

    def outcome(call):
        try:
            return call()
        except ToolkitError as exc:
            return type(exc).__name__

    c = classify(g)
    return (
        (c.ppt, c.spc, c.invariant),
        [outcome(lambda: bound(g).bound_holds) for bound in (bound_gamma_pt, bound_realign_sq)],
        outcome(lambda: bound_triad(g, c).bound_holds),
        outcome(lambda: doubly_stochastic_check(g).doubly_stochastic),
        outcome(lambda: _leaves(g)),
        [outcome(lambda: sinkhorn_filter(g, mode).converged) for mode in MODES],
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    k=st.integers(2, 4),
    kind=st.sampled_from(["spc", "invariant", "ppt"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-300.0, 300.0),
)
def test_verdicts_do_not_depend_on_scale(k, kind, seed, exponent):
    # gamma -> c gamma with c log-uniform in [1e-300, 1e300]: every norm a
    # verdict reads neither overflows nor underflows there
    g = GENERATORS[kind](k, seed)
    scaled = BipartiteOperator(10.0**exponent * g.mat, k, k)
    assert _verdicts(scaled) == _verdicts(g)


# states in and out of the three classes; the rotated classical_diag is not
# re-Hermitized, so it is Hermitian only to roundoff, and the SPC states on
# the PSD boundary are often not PPT
GATE_STATES = {
    **GENERATORS,
    "spc_boundary": spc_boundary_state,
    "density": lambda k, seed: random_density(k, 1 + seed % (k * k), seed),
    "separable": lambda k, seed: random_separable(k, 1 + seed % (2 * k), seed)[0],
    "classical_diag": lambda k, seed: haar_congruence(
        canonical("classical_diag", k), np.random.default_rng(seed), ("V", "Vbar", "W")[seed % 3]
    ),
}


def _perturbed(g, how, size, seed):
    """g plus a non-Hermitian term of relative size ``size``, or shifted so
    that its smallest eigenvalue is -size times its largest."""
    mat = g.mat
    if how == "non_hermitian":
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
        mat = mat + size * np.linalg.norm(mat) / np.linalg.norm(b) * b
    elif how == "non_psd":
        w = np.linalg.eigvalsh(mat)
        mat = mat - (w[0] + size * w[-1]) * np.eye(mat.shape[0])
    return mat


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(list(GATE_STATES)),
    how=st.sampled_from(["none", "non_hermitian", "non_psd"]),
    size=st.sampled_from([1e-13, 1e-10, 1e-9, 1e-6, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-300.0, 300.0),
)
# SPC states that are not PPT, which only the SPC flag admits to decompose
@example(k=3, kind="spc_boundary", how="none", size=1e-2, seed=0, exponent=0.0)
@example(k=4, kind="spc_boundary", how="none", size=1e-2, seed=5, exponent=120.0)
@example(k=5, kind="spc_boundary", how="non_hermitian", size=1e-13, seed=11, exponent=-200.0)
def test_gates_agree_with_classify(k, kind, how, size, seed, exponent):
    # decompose refuses exactly the inputs with no flag, and the symmetric
    # and conjugate modes, once the filter's admission lets an input reach
    # their gate, refuse exactly the non-SPC and the non-invariant ones
    mat = _perturbed(GATE_STATES[kind](k, seed), how, size, seed)
    g = BipartiteOperator(10.0**exponent * mat, k, k)
    c = classify(g)

    def refusal(call):
        try:
            call()
        except ToolkitError as exc:
            return exc
        return None

    assert isinstance(refusal(lambda: decompose(g)), PreconditionNotMet) == (not c.any_flag)
    for mode, flag in (("symmetric", c.spc), ("conjugate", c.invariant)):
        exc = refusal(lambda: sinkhorn_filter(g, mode, max_iter=1))
        if isinstance(exc, (NotHermitian, NotPSD)):
            assert not c.any_flag  # every class flag presupposes a Hermitian PSD input
        elif not isinstance(exc, MarginalRankDeficient):  # else refused before the gate
            assert isinstance(exc, WrongClassForMode) == (not flag), (mode, exc)


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
    """The survey calls on ``g`` and the norms they read (from the spectrum
    of an exactly Hermitian operator, from the shared SVD of R(g)), each
    giving the JSON text of its report."""
    c = classify(g)
    calls = {
        "classify": lambda: classify(g),
        "bound_gamma_pt": lambda: bound_gamma_pt(g),
        "bound_realign_sq": lambda: bound_realign_sq(g),
        "bound_triad": lambda: bound_triad(g, c) if c.any_flag else None,
        "schmidt": lambda: schmidt(g),
        "psd_check": lambda: psd_check(g),
        "norms gamma": lambda: norms(g),
        "norms partial transpose": lambda: norms(partial_transpose(g)),
        "norms realign": lambda: norms(realign(g)),
    }
    return {name: (lambda call=call: _format_json(_json_value(call()))) for name, call in calls.items()}


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(list(GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-12.0, 6.0),
    order=st.permutations(range(9)),
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
