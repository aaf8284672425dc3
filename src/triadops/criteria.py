"""Triad classification (PPT / SPC / invariant) and spectral-radius bounds.

The three classes tested here, for a state gamma on C^k (x) C^k:

    ppt        both gamma and its partial transpose are PSD
    spc        realign(partial_transpose(gamma)) is Hermitian PSD
    invariant  realign(gamma) = gamma

Every PSD gamma obeys two unconditional operator-norm bounds (on the partial
transpose and on the realignment), and membership in any of the three classes
promotes the first bound to gamma itself.  ``ccnr_value`` is the trace norm
of the realignment; exceeding 1 on a state certifies entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contractions import partial_transpose, realign
from .errors import NotAState, PreconditionNotMet
from .tensor_core import (
    BipartiteOperator,
    _hermitian_ok,
    _JsonRecord,
    _psd_ok,
    _require_psd,
    _require_square,
    _spectrum,
    norms,
    psd_check,
)
from .schmidt_maps import reduced_a, reduced_b
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "TriadResiduals",
    "TriadClassification",
    "BoundReport",
    "PptPairReport",
    "classify",
    "ccnr_entanglement_flag",
    "bound_gamma_pt",
    "bound_realign_sq",
    "bound_triad",
    "ppt_pair_forces_invariance",
]

_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class TriadResiduals(_JsonRecord):
    """Numerical evidence behind each flag."""

    ppt_min_eigenvalue: float        # min eig of the partial transpose
    spc_min_eigenvalue: float        # min eig of Herm(realign(partial transpose))
    spc_hermiticity_defect: float    # ||R(g^PT) - R(g^PT)^*|| / ||gamma||
    invariance_distance: float       # ||realign(g) - g||_F


@dataclass(frozen=True)
class TriadClassification(_JsonRecord):
    is_state: bool
    ppt: bool
    spc: bool
    invariant: bool
    ccnr_value: float
    residuals: TriadResiduals

    @property
    def any_flag(self) -> bool:
        return self.ppt or self.spc or self.invariant


def classify(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> TriadClassification:
    """Evaluate all three class flags and the CCNR value in one pass."""
    _require_square(gamma, "classification")
    mat = gamma.mat
    scale = float(np.linalg.norm(mat))
    tiny = np.finfo(float).tiny
    is_hermitian = _hermitian_ok(float(np.linalg.norm(mat - mat.conj().T)), scale, tols)

    w = _spectrum(gamma)
    op_norm = float(np.max(np.abs(w)))
    # every class flag presupposes a Hermitian PSD input
    is_psd = is_hermitian and _psd_ok(float(w[0]), op_norm, tols)
    is_state = bool(is_psd and abs(np.trace(mat).real - 1.0) <= _TRACE_TOL)

    pt = partial_transpose(gamma)
    ppt_min = float(_spectrum(pt)[0])
    ppt = is_psd and _psd_ok(ppt_min, op_norm, tols)

    rpt = realign(pt)
    # the defect is already relative to ||gamma||, so its scale is 1
    spc_defect = float(np.linalg.norm(rpt.mat - rpt.mat.conj().T)) / max(scale, tiny)
    spc_min = float(_spectrum(rpt)[0])
    spc = is_psd and _hermitian_ok(spc_defect, 1.0, tols) and _psd_ok(spc_min, op_norm, tols)

    r = realign(gamma)
    inv_dist = float(np.linalg.norm(r.mat - mat))
    invariant = bool(is_psd and inv_dist <= tols.invariance * max(scale, tiny))

    return TriadClassification(
        is_state=is_state,
        ppt=ppt,
        spc=spc,
        invariant=invariant,
        ccnr_value=norms(r).trace_norm,
        residuals=TriadResiduals(
            ppt_min_eigenvalue=ppt_min,
            spc_min_eigenvalue=spc_min,
            spc_hermiticity_defect=spc_defect,
            invariance_distance=inv_dist,
        ),
    )


def ccnr_entanglement_flag(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> bool:
    """True when the realignment's trace norm strictly exceeds 1.

    Sound but not complete: True certifies entanglement of the state, False
    decides nothing.  Raises NotAState unless gamma is PSD with unit trace.
    """
    report = psd_check(gamma, tols)
    if not report.is_psd or abs(np.trace(gamma.mat).real - 1.0) > _TRACE_TOL:
        raise NotAState("CCNR flag is defined for trace-one PSD inputs")
    _require_square(gamma, "the CCNR flag")
    return bool(norms(realign(gamma)).trace_norm > 1.0 + tols.ccnr)


@dataclass(frozen=True)
class BoundReport(_JsonRecord):
    """Operator-norm comparison for one of the spectral bounds.

    ``margin`` is the amount by which the bound holds (negative means a
    violation): the right-hand side minus the bounded quantity.  For the
    min-form bounds this is min(op_norm_a, op_norm_b, op_norm_realign) -
    op_norm_state; for the squared realignment bound it is
    op_norm_a * op_norm_b - op_norm_realign**2.
    """

    op_norm_state: float
    op_norm_a: float
    op_norm_b: float
    op_norm_realign: float
    bound_holds: bool
    margin: float


def _bound_report(
    gamma: BipartiteOperator, tols: Tolerances, lhs: BipartiteOperator | None = None
) -> BoundReport:
    """The bound on ``lhs``'s operator norm by min(||gamma_A||, ||gamma_B||, ||R(gamma)||).

    With no ``lhs`` it is instead the bound ||R(gamma)||^2 <= ||gamma_A|| ||gamma_B||.
    The bound holds when the margin is at least ``-tols.psd`` times the
    right-hand side, a verdict that does not change when gamma is scaled.
    """
    ga, gb = reduced_a(gamma), reduced_b(gamma)
    na = norms(ga).operator_norm
    # equal marginals (as for random_spc) are factored once: the memo is per operator
    nb = na if np.array_equal(ga.mat, gb.mat) else norms(gb).operator_norm
    nr = norms(realign(gamma)).operator_norm
    if lhs is None:
        state, rhs = nr, na * nb
        margin = rhs - nr * nr
    else:
        state, rhs = norms(lhs).operator_norm, min(na, nb, nr)
        margin = rhs - state
    return BoundReport(
        op_norm_state=state,
        op_norm_a=na,
        op_norm_b=nb,
        op_norm_realign=nr,
        bound_holds=bool(margin >= -tols.psd * rhs),
        margin=float(margin),
    )


def bound_gamma_pt(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> BoundReport:
    """Bound the partial transpose's operator norm by the three right-hand norms.

    Holds for every PSD input; the margin quantifies the slack.
    """
    _require_square(gamma, "the bound")
    _require_psd(gamma, tols)
    return _bound_report(gamma, tols, partial_transpose(gamma))


def bound_realign_sq(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> BoundReport:
    """Bound the squared realignment norm by the product of marginal norms."""
    _require_square(gamma, "the bound")
    _require_psd(gamma, tols)
    return _bound_report(gamma, tols)


def bound_triad(
    gamma: BipartiteOperator,
    classification: TriadClassification,
    tols: Tolerances = DEFAULT,
) -> BoundReport:
    """Bound the state's own operator norm, valid when any triad flag is set."""
    if not classification.any_flag:
        raise PreconditionNotMet(
            "the operator-norm bound on the state itself needs at least one triad flag"
        )
    return _bound_report(gamma, tols, gamma)


@dataclass(frozen=True)
class PptPairReport(_JsonRecord):
    both_ppt: bool
    realign_distance: float


def ppt_pair_forces_invariance(
    gamma: BipartiteOperator, tols: Tolerances = DEFAULT
) -> PptPairReport:
    """Report whether gamma and realign(gamma) are both PPT, and their distance.

    When both are PPT the distance must vanish up to numerical noise, i.e. the
    state is invariant under realignment.  The function only reports; asserting
    the implication is the caller's (or the test suite's) job.
    """
    _require_square(gamma, "the PPT-pair test")
    _require_psd(gamma, tols)
    op_norm = norms(gamma).operator_norm

    gamma_ppt = _psd_ok(_spectrum(partial_transpose(gamma))[0], op_norm, tols)
    r = realign(gamma)
    defect = float(np.linalg.norm(r.mat - r.mat.conj().T))
    r_herm = _hermitian_ok(defect, float(np.linalg.norm(gamma.mat)), tols)
    r_psd = _psd_ok(_spectrum(r)[0], op_norm, tols)
    r_ppt = _psd_ok(_spectrum(partial_transpose(r))[0], op_norm, tols)

    both = gamma_ppt and r_herm and r_psd and r_ppt
    dist = float(np.linalg.norm(r.mat - gamma.mat))
    return PptPairReport(both_ppt=both, realign_distance=dist)
