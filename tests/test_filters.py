import dataclasses
import warnings

import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    LocalOperator,
    canonical,
    classify,
    doubly_stochastic_check,
    flip,
    fully_indecomposable_probe,
    g_apply,
    kron,
    random_density,
    random_invariant,
    random_spc,
    realign,
    reduced_a,
    reduced_b,
    rng_from_seed,
    sinkhorn_filter,
    star_product,
)
from triadops.errors import MarginalRankDeficient, NotHermitian, NotPSD, WrongClassForMode, ZeroMatrix
from triadops.generators import _complex_normal
from triadops.tolerances import DEFAULT

from conftest import factorizations, haar_congruence, local_scale, random_pd_local, unmatched_classical_state


@pytest.mark.parametrize("mode", ["general", "symmetric", "conjugate"])
def test_classical_diag_already_normal(mode, classical_diag2):
    fr = sinkhorn_filter(classical_diag2, mode)
    assert fr.converged and fr.iterations <= 1
    assert np.allclose(fr.normal_form.mat, classical_diag2.mat)
    # the filter is a scalar multiple of the identity
    fa = fr.filter_a.mat
    assert np.allclose(fa, fa[0, 0] * np.eye(2))


@pytest.mark.parametrize("diag", [[2.0, 1.0], [1.5, 1.0, 0.7]], ids=["k2", "k3"])
def test_prescaled_classical_diag_recovers_filter(diag):
    k = len(diag)
    fixture = canonical("classical_diag", k)
    d = np.diag(diag)
    fr = sinkhorn_filter(local_scale(fixture, d, d), "symmetric")
    assert fr.converged
    assert np.linalg.norm(fr.normal_form.mat - fixture.mat) <= 1e-8
    ratio = fr.filter_a.mat @ d
    ratio /= ratio[0, 0]
    assert np.linalg.norm(ratio - np.eye(k)) <= 1e-7
    assert fr.marginal_residual_a <= 1e-8 and fr.marginal_residual_b <= 1e-8
    assert fr.class_residual <= 1e-8


def test_identity_plus_u_conjugate(identity_plus_u2):
    fr = sinkhorn_filter(identity_plus_u2, "conjugate")
    assert fr.converged and fr.iterations == 0
    assert np.allclose(fr.normal_form.mat, identity_plus_u2.mat)
    assert fr.class_residual <= 1e-12


def _scaled_spc(k, seed):
    g = random_spc(k, seed)
    rng = rng_from_seed(900 + seed)
    s = random_pd_local(rng, k)
    return local_scale(g, s, s)


def _scaled_invariant(k, seed):
    g = random_invariant(k, seed)
    rng = rng_from_seed(800 + seed)
    s = random_pd_local(rng, k)
    return local_scale(g, s, s.conj())


@pytest.mark.parametrize("k", [2, 3])
def test_symmetric_mode_random_spc(k):
    for seed in range(15):
        op = _scaled_spc(k, seed)
        assert classify(op).spc
        fr = sinkhorn_filter(op, "symmetric")
        assert fr.converged
        assert fr.marginal_residual_a <= 1e-9 and fr.marginal_residual_b <= 1e-9
        assert fr.class_residual <= 1e-8
        assert np.array_equal(fr.filter_a.mat, fr.filter_b.mat)
        sd = fr.schmidt_of_normal_form
        assert sd.coefficients[0] == pytest.approx(1.0 / k, abs=1e-7)
        top = sd.left_ops[0].mat
        overlap = np.trace(top @ np.eye(k) / np.sqrt(k)).real
        assert np.linalg.norm(top - overlap * np.eye(k) / np.sqrt(k)) <= 1e-7
        assert np.all(sd.coefficients <= 1.0 / k + 1e-9)
        # reconstruction through the filters
        big = np.kron(fr.filter_a.mat, fr.filter_b.mat)
        assert np.linalg.norm(big @ op.mat @ big.conj().T - fr.normal_form.mat) <= 1e-9


@pytest.mark.parametrize("k", [2, 3])
def test_conjugate_mode_random_invariant(k):
    for seed in range(15):
        op = _scaled_invariant(k, seed)
        assert classify(op).invariant
        fr = sinkhorn_filter(op, "conjugate")
        assert fr.converged
        assert fr.marginal_residual_a <= 1e-9 and fr.marginal_residual_b <= 1e-9
        assert fr.class_residual <= 1e-8
        assert np.array_equal(fr.filter_b.mat, fr.filter_a.mat.conj())
        sd = fr.schmidt_of_normal_form
        assert sd.coefficients[0] == pytest.approx(1.0 / k, abs=1e-7)
        top = sd.left_ops[0].mat
        overlap = np.trace(top @ np.eye(k) / np.sqrt(k)).real
        assert np.linalg.norm(top - overlap * np.eye(k) / np.sqrt(k)) <= 1e-7


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["symmetric", "conjugate"])
def test_one_filter_modes_converge_in_few_steps(mode, k):
    # the damped (k * marginal)^(-1/4) step needed about 30 iterations here
    make = _scaled_spc if mode == "symmetric" else _scaled_invariant
    for seed in range(4):
        fr = sinkhorn_filter(make(k, seed), mode)
        assert fr.converged and fr.iterations <= 12, (seed, fr.iterations)
        assert max(fr.marginal_residual_a, fr.marginal_residual_b) <= 1e-9
        monitors = [entry["monitor"] for entry in fr.iteration_log]
        assert monitors[-1] < 0.0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_converged_runs_take_no_step_from_a_converged_iterate(k):
    # one stopping rule in every mode: the first iterate within tols.filter
    # ends the run, so every logged step starts from a residual above it
    runs = [
        (_scaled_spc, "symmetric"),
        (_scaled_invariant, "conjugate"),
        (lambda k, seed: random_density(k, k * k, seed), "general"),
        (lambda k, seed: random_density(k, k * k, seed), "left"),
    ]
    for make, mode in runs:
        for seed in range(4):
            fr = sinkhorn_filter(make(k, seed), mode)
            assert fr.converged, (mode, seed)
            assert max(fr.marginal_residual_a, fr.marginal_residual_b) <= DEFAULT.filter
            assert len(fr.iteration_log) == fr.iterations
            for entry in fr.iteration_log:
                assert max(entry["residual_a"], entry["residual_b"]) > DEFAULT.filter, (mode, seed)


_MODE_INPUTS = {
    "general": lambda k, seed: random_density(k, k * k, seed),
    "symmetric": _scaled_spc,
    "conjugate": _scaled_invariant,
    "left": lambda k, seed: random_density(k, k * k, seed),
}


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("mode", list(_MODE_INPUTS))
def test_filter_takes_no_svd_until_the_expansion_is_read(mode, k, monkeypatch):
    # the expansion is built on its first read and kept; the class residual,
    # left mode's included, needs no SVD
    g = _MODE_INPUTS[mode](k, 3)
    seen = factorizations(monkeypatch)

    def svd_calls():
        return sum(key[0] == "svd" for key in seen)

    fr = sinkhorn_filter(g, mode)
    assert fr.converged and svd_calls() == 0
    sd = fr.schmidt_of_normal_form
    first = svd_calls()
    assert first >= 1
    assert fr.schmidt_of_normal_form is sd
    fr.to_json()
    assert svd_calls() == first


def test_filter_report_keeps_its_keys_and_the_run_tolerances():
    g = random_density(3, 9, 0)
    fr = sinkhorn_filter(g, "general")
    assert list(fr.to_json()) == [
        "mode",
        "filter_a",
        "filter_b",
        "normal_form",
        "marginal_residual_a",
        "marginal_residual_b",
        "iterations",
        "converged",
        "class_residual",
        "schmidt_of_normal_form",
        "iteration_log",
    ]
    assert fr.to_json()["schmidt_of_normal_form"] == fr.schmidt_of_normal_form.to_json()
    assert "tolerances" not in repr(fr)
    # the expansion drops coefficients below the run's own rank tolerance
    loose = dataclasses.replace(DEFAULT, rank=0.2)
    coarse = sinkhorn_filter(g, "general", tols=loose)
    assert coarse.tolerances is loose
    assert len(fr.schmidt_of_normal_form.coefficients) == 9
    assert len(coarse.schmidt_of_normal_form.coefficients) == 6


def test_general_mode_random_density():
    for seed in range(10):
        g = random_density(3, 9, seed)
        fr = sinkhorn_filter(g, "general")
        assert fr.converged
        assert fr.marginal_residual_a <= 1e-9 and fr.marginal_residual_b <= 1e-9
        assert doubly_stochastic_check(fr.normal_form).doubly_stochastic


def test_monitor_is_nonincreasing():
    for k in (2, 3):
        for seed in range(10):
            fr = sinkhorn_filter(_scaled_spc(k, seed), "symmetric")
            monitors = [entry["monitor"] for entry in fr.iteration_log]
            assert all(
                monitors[i + 1] <= monitors[i] + 1e-12 for i in range(len(monitors) - 1)
            )
            fr = sinkhorn_filter(random_density(k, k * k, seed), "general")
            assert all(abs(e["monitor"]) <= 1e-12 for e in fr.iteration_log)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_max_iter_below_one_is_rejected(max_iter, classical_diag2):
    with pytest.raises(ValueError, match="max_iter"):
        sinkhorn_filter(classical_diag2, "symmetric", max_iter=max_iter)


def test_unconverged_run_returns_flagged_result():
    op = _scaled_spc(3, 0)
    fr = sinkhorn_filter(op, "symmetric", max_iter=2)
    assert not fr.converged
    assert fr.iterations == 2
    assert len(fr.iteration_log) == 2


def test_stalled_symmetric_run_stops_unconverged():
    # The marginals of this SPC input (PD V (x) V, cond(V) = 404) drift apart
    # by 2.3e-9 > tols.filter; from iteration 10 the steps are roundoff and
    # the residual stays put, where the run once spent all MAX_ITER steps.
    g = _complex_normal(rng_from_seed(5125), (4, 4))
    v = g @ g.conj().T + 0.02 * np.eye(4)
    op = local_scale(random_spc(4, 94), v, v)
    fr = sinkhorn_filter(op, "symmetric")
    assert not fr.converged
    assert fr.iterations <= 30
    assert len(fr.iteration_log) == fr.iterations
    assert max(fr.marginal_residual_a, fr.marginal_residual_b) > DEFAULT.filter


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_rotated_classical_diag_expansion_has_k_terms_identity_first(k):
    # the normal form's exact expansion is (1/k) sum_i P(v_i) (x) P(w_i): k
    # equal coefficients, whose span holds Id/sqrt(k)
    for right in ("V", "Vbar", "W"):
        g = haar_congruence(canonical("classical_diag", k), rng_from_seed(30 + k), right)
        for mode in ("general", "symmetric", "conjugate", "left"):
            try:
                sd = sinkhorn_filter(g, mode).schmidt_of_normal_form
            except WrongClassForMode:
                continue
            assert len(sd.coefficients) == k, (right, mode, len(sd.coefficients))
            top = sd.left_ops[0].mat
            assert np.linalg.norm(top - np.eye(k) / np.sqrt(k)) <= 1e-12, (right, mode)


def test_mode_gates(bell2, classical_diag2, identity_plus_u2):
    with pytest.raises(WrongClassForMode):
        sinkhorn_filter(bell2, "symmetric")
    with pytest.raises(WrongClassForMode):
        sinkhorn_filter(canonical("werner", 2, alpha=0.5), "conjugate")
    with pytest.raises(NotPSD):
        sinkhorn_filter(BipartiteOperator(np.diag([1.0, -0.5, 1, 1]), 2, 2), "general")


@pytest.mark.parametrize("mode", ["general", "symmetric", "conjugate", "left"])
def test_zero_input_is_refused_before_the_trace_division(mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ZeroMatrix):
            sinkhorn_filter(BipartiteOperator(np.zeros((4, 4)), 2, 2), mode)


def test_marginal_rank_gate():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    deficient = kron(LocalOperator(e11), LocalOperator(np.eye(2) / 2))
    with pytest.raises(MarginalRankDeficient):
        sinkhorn_filter(deficient, "general")


def test_marginal_condition_guard_needs_a_rank_cut_below_its_limit():
    # a marginal spread of 1e13 meets the default rank cut first; the
    # condition guard (limit 1e12) fires only once tols.rank is below 1e-12
    g = kron(LocalOperator(np.diag([1.0, 1e-13])), LocalOperator(np.eye(2) / 2))
    with pytest.raises(MarginalRankDeficient, match=r"eigenvalue 1\.000e-13 fell below the rank threshold"):
        sinkhorn_filter(g, "general")
    with pytest.raises(MarginalRankDeficient, match=r"condition number 1\.000e\+13 exceeds 1e\+12"):
        sinkhorn_filter(g, "general", tols=DEFAULT.but(rank=1e-14))


def test_filters_that_overflow_are_refused():
    # the iterate is fine, but no finite filter pair maps the input onto it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        fr = sinkhorn_filter(unmatched_classical_state(), "general", max_iter=2000)
        assert not fr.converged and np.isfinite(fr.filter_a.mat).all()
        with pytest.raises(MarginalRankDeficient, match="the filters overflowed in 2100 steps"):
            sinkhorn_filter(unmatched_classical_state(), "general", max_iter=2100)


def test_left_mode_structure():
    for k in (2, 3):
        for seed in range(10):
            g = random_density(k, k * k, seed)
            fr = sinkhorn_filter(g, "left")
            assert fr.converged
            assert fr.filter_b is None
            sd = fr.schmidt_of_normal_form
            assert np.linalg.norm(sd.left_ops[0].mat - np.eye(k) / np.sqrt(k)) <= 1e-7
            assert sd.coefficients[0] >= np.max(sd.coefficients) - 1e-12
            n = len(sd.coefficients)
            for i in range(n):
                for j in range(n):
                    gij = np.trace(sd.left_ops[i].mat @ sd.left_ops[j].mat).real
                    dij = np.trace(sd.right_ops[i].mat @ sd.right_ops[j].mat).real
                    assert abs(gij - (i == j)) <= 1e-8
                    assert abs(dij - (i == j)) <= 1e-8
            rebuilt = sum(
                c * np.kron(a.mat, b.mat)
                for c, a, b in zip(sd.coefficients, sd.left_ops, sd.right_ops)
            )
            assert np.linalg.norm(rebuilt - fr.normal_form.mat) <= 1e-8
            # one-sided reconstruction and coefficient-norm link
            big = np.kron(fr.filter_a.mat, np.eye(k))
            gn = g.mat / np.trace(g.mat).real
            assert np.linalg.norm(big @ gn @ big.conj().T - fr.normal_form.mat) <= 1e-9
            s1 = np.linalg.svd(realign(fr.normal_form).mat, compute_uv=False)[0]
            assert sd.coefficients[0] == pytest.approx(s1, abs=1e-8)


def _ill_conditioned_local(rng, k, cond):
    """Q diag(logspace(0, log10 cond, k)) Q^*, Q from the QR of a complex Gaussian."""
    q, _ = np.linalg.qr(_complex_normal(rng, (k, k)))
    return (q * np.logspace(0, np.log10(cond), k)) @ q.conj().T


@pytest.mark.parametrize("cond", [300, 1e3, 3e3])
def test_left_mode_converges_under_ill_conditioned_local_scaling(cond):
    # Scaling the accumulated star product once stalled here at residuals of
    # 1e-9 to 3e-6; rebuilding it from each iterate does not pile up roundoff.
    k = 3
    for seed in range(6):
        rng = rng_from_seed(77 + seed)
        v, w = (_ill_conditioned_local(rng, k, cond) for _ in range(2))
        fr = sinkhorn_filter(local_scale(random_density(k, k * k, seed), v, w), "left")
        assert fr.converged, (cond, seed)
        assert fr.class_residual <= DEFAULT.invariance, (cond, seed)
        # the residuals describe the star product of the returned normal form
        # with its flip-conjugate, trace-normalized
        f = flip(k).mat
        nf = fr.normal_form.mat
        omega = star_product(fr.normal_form, BipartiteOperator(f @ nf.conj() @ f, k, k)).mat
        omega = BipartiteOperator(omega / np.trace(omega).real, k, k)
        res_a = np.linalg.norm(reduced_a(omega).mat - np.eye(k) / k)
        res_b = np.linalg.norm(reduced_b(omega).mat - np.eye(k) / k)
        assert abs(res_a - fr.marginal_residual_a) <= 1e-14, (cond, seed)
        assert abs(res_b - fr.marginal_residual_b) <= 1e-14, (cond, seed)
        monitors = [entry["monitor"] for entry in fr.iteration_log]
        assert all(b <= a for a, b in zip(monitors, monitors[1:])), (cond, seed)


@pytest.mark.parametrize("mode", ["general", "symmetric", "left"])
def test_expansion_signs_do_not_follow_roundoff(mode):
    # The second left operator is proportional to X, whose two Hermitian-basis
    # coordinates have equal modulus at eps = 0; a plain argmax pivot picked
    # the one that roundoff made larger and flipped the operator's sign.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    ops = []
    for eps in (0.0, -1e-15):
        x = (sx - (1 + eps) * sz) / 2
        g = BipartiteOperator(np.eye(4) / 4 + 0.1 * np.kron(x, x), 2, 2)
        ops.append(sinkhorn_filter(g, mode).schmidt_of_normal_form.left_ops[1].mat)
    assert np.max(np.abs(ops[0] - ops[1])) <= 1e-14


def test_doubly_stochastic_check_examples(classical_diag2):
    rep = doubly_stochastic_check(classical_diag2)
    assert rep.doubly_stochastic
    assert rep.forward_residual <= 1e-14 and rep.adjoint_residual <= 1e-14

    lopsided = kron(LocalOperator(np.diag([0.7, 0.3])), LocalOperator(np.eye(2) / 2))
    rep = doubly_stochastic_check(lopsided)
    assert not rep.doubly_stochastic
    assert rep.adjoint_residual > 1e-2  # first-factor marginal is off
    assert rep.forward_residual <= 1e-12

    with pytest.raises(NotHermitian):
        doubly_stochastic_check(BipartiteOperator(np.triu(np.ones((4, 4))), 2, 2))


def test_converged_normal_forms_are_doubly_stochastic():
    for seed in range(5):
        fr = sinkhorn_filter(_scaled_spc(2, seed), "symmetric")
        assert doubly_stochastic_check(fr.normal_form).doubly_stochastic


def test_probe_block_state_witness():
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    e22 = np.zeros((2, 2))
    e22[1, 1] = 1.0
    g = BipartiteOperator(np.kron(e11, e11) + np.kron(e22, e22), 2, 2)
    res = fully_indecomposable_probe(g)
    assert res.verdict == "decomposable_witness"
    x, y = res.witness
    assert abs(np.trace(g_apply(g, x).mat @ y.mat)) <= 1e-12
    ranks = [int(np.sum(np.linalg.eigvalsh(m.mat) > 1e-8)) for m in (x, y)]
    assert sum(ranks) >= 2


def test_probe_identity_plus_u_likely(identity_plus_u2):
    res = fully_indecomposable_probe(identity_plus_u2)
    assert res.verdict == "fully_indecomposable"
    assert res.witness is None


def test_probe_bell_rank_preserving_witness(bell2):
    # the contraction map of the maximally entangled state is the transpose
    # (up to scale), which preserves rank; a rank-preserving map on singular
    # inputs admits an orthogonality witness with rank sum k
    res = fully_indecomposable_probe(bell2)
    assert res.verdict == "decomposable_witness"
    x, y = res.witness
    assert abs(np.trace(g_apply(bell2, x).mat @ y.mat)) <= 1e-12


def test_probe_rejects_non_psd():
    with pytest.raises(NotPSD):
        fully_indecomposable_probe(BipartiteOperator(np.diag([1.0, -1, 1, 1]), 2, 2))
