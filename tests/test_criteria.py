import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    LocalOperator,
    bound_gamma_pt,
    bound_realign_sq,
    bound_triad,
    ccnr_entanglement_flag,
    classify,
    decompose,
    kron,
    ppt_pair_forces_invariance,
    random_invariant,
    random_spc,
    rng_from_seed,
    schmidt,
)
from triadops.criteria import _bound_report
from triadops.errors import NotAState, NotPSD, PreconditionNotMet
from triadops.tolerances import DEFAULT

from conftest import random_psd_local


def test_classify_classical_diag(classical_diag2):
    c = classify(classical_diag2)
    assert c.is_state and c.ppt and c.spc and c.invariant
    assert c.ccnr_value == pytest.approx(1.0, abs=1e-12)


def test_classify_bell(bell2):
    c = classify(bell2)
    assert c.is_state
    assert not c.ppt and not c.spc and not c.invariant
    assert c.ccnr_value == pytest.approx(2.0, abs=1e-12)
    assert c.residuals.ppt_min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_bell_verdicts_do_not_depend_on_scale(bell2, scale):
    # an absolute PSD floor once flagged the Bell state ppt and spc at scale
    # 1e-9, and decompose then raised CompleteReducibilityViolation
    gamma = BipartiteOperator(scale * bell2.mat, 2, 2)
    c = classify(gamma)
    assert not (c.ppt or c.spc or c.invariant)
    with pytest.raises(PreconditionNotMet):
        decompose(gamma)
    assert bound_gamma_pt(gamma).bound_holds and bound_realign_sq(gamma).bound_holds
    # ||gamma|| = 1 exceeds ||gamma_A|| = 1/2: a violation, by a margin of -scale / 2
    report = _bound_report(gamma, DEFAULT, gamma)
    assert report.margin == pytest.approx(-0.5 * scale)
    assert not report.bound_holds


def test_classify_identity_plus_u(identity_plus_u2):
    c = classify(identity_plus_u2)
    assert c.is_state and c.ppt and c.invariant
    assert c.residuals.invariance_distance <= 1e-14


def test_classify_flags_need_hermitian_input():
    # I/4 plus a skew-Hermitian part: the Hermitian part is PSD, the input is not
    for seed in range(3):
        rng = rng_from_seed(seed)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        gamma = BipartiteOperator(np.eye(4) / 4 + 0.3 * 0.5 * (z - z.conj().T), 2, 2)
        c = classify(gamma)
        assert not (c.is_state or c.ppt or c.spc or c.invariant), seed
        with pytest.raises(PreconditionNotMet):
            bound_triad(gamma, c)
        with pytest.raises(PreconditionNotMet):
            decompose(gamma)


def test_ccnr_flags(bell2, classical_diag2):
    assert ccnr_entanglement_flag(bell2) is True
    assert ccnr_entanglement_flag(classical_diag2) is False
    rng = rng_from_seed(40)
    rho = random_psd_local(rng, 2)
    sigma = random_psd_local(rng, 2)
    product = kron(
        LocalOperator(rho / np.trace(rho).real), LocalOperator(sigma / np.trace(sigma).real)
    )
    assert ccnr_entanglement_flag(product) is False


def test_ccnr_rejects_non_states():
    with pytest.raises(NotAState):
        ccnr_entanglement_flag(BipartiteOperator(2 * np.eye(4), 2, 2))


def test_bound_gamma_pt_fixtures(bell2):
    eye = BipartiteOperator(np.eye(4) / 4, 2, 2)
    rep = bound_gamma_pt(eye)
    assert rep.bound_holds
    assert rep.op_norm_state == pytest.approx(0.25)
    assert min(rep.op_norm_a, rep.op_norm_b) == pytest.approx(0.5)
    rep_bell = bound_gamma_pt(bell2)
    assert rep_bell.bound_holds
    assert rep_bell.op_norm_state == pytest.approx(0.5, abs=1e-12)
    assert rep_bell.margin == pytest.approx(0.0, abs=1e-12)


def test_bound_realign_sq_fixtures(bell2):
    rng = rng_from_seed(41)
    rho = random_psd_local(rng, 3)
    sigma = random_psd_local(rng, 3)
    product = kron(LocalOperator(rho), LocalOperator(sigma))
    rep = bound_realign_sq(product)
    assert rep.bound_holds
    rep_bell = bound_realign_sq(bell2)
    assert rep_bell.bound_holds
    assert rep_bell.margin == pytest.approx(0.0, abs=1e-12)


def test_bounds_reject_non_psd():
    h = BipartiteOperator(np.diag([1.0, -1.0, 1.0, 1.0]), 2, 2)
    with pytest.raises(NotPSD):
        bound_gamma_pt(h)
    with pytest.raises(NotPSD):
        bound_realign_sq(h)


def test_bound_triad_fixtures(classical_diag2, identity_plus_u2):
    c = classify(classical_diag2)
    rep = bound_triad(classical_diag2, c)
    assert rep.bound_holds
    assert rep.op_norm_state == pytest.approx(0.5)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    rep2 = bound_triad(identity_plus_u2, classify(identity_plus_u2))
    assert rep2.op_norm_state == pytest.approx(0.5, abs=1e-10)
    assert rep2.margin == pytest.approx(0.0, abs=1e-10)


def test_bound_triad_requires_flag(bell2):
    with pytest.raises(PreconditionNotMet):
        bound_triad(bell2, classify(bell2))


def test_ppt_pair_reports(classical_diag2, identity_plus_u2, bell2):
    rep = ppt_pair_forces_invariance(identity_plus_u2)
    assert rep.both_ppt and rep.realign_distance <= 1e-12
    rep = ppt_pair_forces_invariance(classical_diag2)
    assert rep.both_ppt and rep.realign_distance <= 1e-12
    rep = ppt_pair_forces_invariance(bell2)
    assert not rep.both_ppt


@pytest.mark.parametrize(
    "make",
    [lambda: random_spc(6, 3), lambda: random_invariant(5, 1)],
    ids=["spc-6-3", "invariant-5-1"],
)
def test_survey_calls_factor_each_matrix_once(make, monkeypatch):
    # classify, the three bounds and schmidt share the spectra of gamma, its
    # partial transpose, their realignments and the marginals: each distinct
    # (routine, compute_uv, matrix) is factored once
    gamma = make()
    seen = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            key = np.ascontiguousarray(a)
            seen.append((name, kwargs.get("compute_uv"), key.shape, key.tobytes()))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    c = classify(gamma)
    assert c.any_flag
    bound_gamma_pt(gamma)
    bound_realign_sq(gamma)
    bound_triad(gamma, c)
    schmidt(gamma)
    repeats = [key[:3] for key in seen if seen.count(key) > 1]
    assert not repeats, repeats
