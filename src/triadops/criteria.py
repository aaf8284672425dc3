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

import math
from dataclasses import dataclass

import numpy as np

from .contractions import partial_transpose, realign
from .errors import NotAState, PreconditionNotMet
from .tensor_core import (
    BipartiteOperator,
    _frobenius,
    _hermitian_ok,
    _JsonRecord,
    _Psd,
    _psd,
    _psd_ok,
    _require_psd,
    _require_square,
    _spectrum,
    norms,
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


# each flag's verdict below takes the state's ``_psd`` verdict and returns its residuals, then its flag


def _ppt(gamma: BipartiteOperator, psd: _Psd, tols: Tolerances) -> tuple[float, bool]:
    """The partial transpose's smallest eigenvalue."""
    ppt_min = float(_spectrum(partial_transpose(gamma))[0])
    return ppt_min, psd.ok and _psd_ok(ppt_min, psd.op_norm, tols)


def _spc(gamma: BipartiteOperator, psd: _Psd, tols: Tolerances) -> tuple[float, float, bool]:
    """The relative Hermiticity defect and the smallest eigenvalue of R(gamma^PT)."""
    rpt = realign(partial_transpose(gamma))
    # the defect is already relative to ||gamma||, so its scale is 1
    defect = _frobenius(rpt.mat - rpt.mat.conj().T) / max(psd.scale, np.finfo(float).tiny)
    spc_min = float(_spectrum(rpt)[0])
    ok = psd.ok and _hermitian_ok(defect, 1.0, tols) and _psd_ok(spc_min, psd.op_norm, tols)
    return defect, spc_min, ok


def _invariance(gamma: BipartiteOperator, psd: _Psd, tols: Tolerances) -> tuple[float, bool]:
    """||R(gamma) - gamma||_F, with no eigensolve."""
    dist = _frobenius(realign(gamma).mat - gamma.mat)
    return dist, bool(psd.ok and dist <= tols.invariance * max(psd.scale, np.finfo(float).tiny))


def _any_flag(gamma: BipartiteOperator, tols: Tolerances) -> bool:
    """``classify(gamma).any_flag`` with no CCNR SVD, cheapest verdict first:
    invariance, then PPT, then SPC."""
    _require_square(gamma, "classification")
    psd = _psd(gamma, tols)
    return psd.ok and any(test(gamma, psd, tols)[-1] for test in (_invariance, _ppt, _spc))


def classify(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> TriadClassification:
    """Evaluate all three class flags and the CCNR value in one pass."""
    _require_square(gamma, "classification")
    psd = _psd(gamma, tols)
    ppt_min, ppt = _ppt(gamma, psd, tols)
    spc_defect, spc_min, spc = _spc(gamma, psd, tols)
    inv_dist, invariant = _invariance(gamma, psd, tols)
    return TriadClassification(
        is_state=bool(psd.ok and abs(np.trace(gamma.mat).real - 1.0) <= _TRACE_TOL),
        ppt=ppt,
        spc=spc,
        invariant=invariant,
        ccnr_value=norms(realign(gamma)).trace_norm,
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
    decides nothing.  Raises NotAState unless ``classify`` finds a state, so
    also for a non-Hermitian input.
    """
    c = classify(gamma, tols)
    if not c.is_state:
        raise NotAState("CCNR flag is defined for trace-one PSD inputs")
    return bool(c.ccnr_value > 1.0 + tols.ccnr)


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
        # both sides over p^2, p the power of two above the three norms: an
        # exact scaling under which neither overflows nor underflows
        p = 2.0 ** min(math.frexp(max(na, nb, nr))[1], 1023)
        state, rhs = nr, (na / p) * (nb / p)
        margin = rhs - (nr / p) * (nr / p)
    else:
        p, state, rhs = 1.0, norms(lhs).operator_norm, min(na, nb, nr)
        margin = rhs - state
    return BoundReport(
        op_norm_state=state,
        op_norm_a=na,
        op_norm_b=nb,
        op_norm_realign=nr,
        bound_holds=bool(margin >= -tols.psd * rhs),
        margin=float(margin * p * p),
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
    state is invariant under realignment.  Both are ``classify``'s PPT flags,
    read from its PSD and PPT verdicts alone, so the PSD floor of R(gamma) is
    relative to ||R(gamma)||.  The function only reports; asserting the
    implication is the caller's (or the test suite's) job.
    """
    _require_square(gamma, "the PPT pair test")
    _require_psd(gamma, tols)
    r = realign(gamma)
    both = all(_ppt(op, _psd(op, tols), tols)[1] for op in (gamma, r))
    return PptPairReport(both_ppt=both, realign_distance=_frobenius(r.mat - gamma.mat))
