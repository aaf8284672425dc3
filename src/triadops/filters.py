"""Filter normal forms by iterative marginal scaling, and a stochasticity check.

A filter normal form of a state is a locally transformed representative
whose reduced states are both Id/k.  Four modes are provided:

    general     independent invertible filters on the two factors,
                alternating exact one-sided normalizations
    symmetric   one filter applied to both factors (valid for SPC states,
                whose two marginals coincide); the output stays SPC
    conjugate   one filter on the first factor and its conjugate on the
                second (valid for realignment-invariant states); the output
                stays invariant
    left        one filter on the first factor only; the leading left
                operator of the normal form's expansion is Id/sqrt(k), with
                the largest coefficient

Every mode reports the operator Schmidt expansion of its normal form, read
off one SVD of the Hermitian-basis matrix of the contraction map: Hermitian,
orthonormal operators on both sides, with Id/sqrt(k) first, rotated to the
front of its coefficient cluster.  The expansion is computed on its first
read and kept, so a run whose caller reads only the normal form, its
residuals or its filters takes no SVD.

The general mode alternates exact one-sided normalizations; its monitor is
the larger trace defect |1 - t| of the two half-steps, 0 up to roundoff.

The symmetric and conjugate modes minimize the potential

    f(H) = log tr[delta (E (x) E~)],   E = exp(H), E~ = E or conj(E),

over traceless Hermitian H, where delta is the current iterate.  f is
convex along every geodesic t -> exp(tH), and its gradient vanishes exactly
when G = ga + gb (ga + gb^T in conjugate mode) is a multiple of Id; the
inputs of these modes have gb = ga (or gb = ga^T), so there both marginals
are Id/k.  The first step tries the closed-form marginal step
p = (k ga)^(-1/2), scaled to determinant 1, which is exact on product
states; it is taken when it lowers f by more than roundoff.  Otherwise, and
at every later step, a Newton step in the k^2 - 1 real coordinates of the
traceless Hermitian basis runs, safeguarded by a step cap and an Armijo
backtracking line search (gradient direction when the Newton direction does
not descend).  Each step is applied as the congruence p (x) (p, or its
conjugate), p = exp(alpha H / 2).  The runs converge quadratically near the
fixed point, in about 5 iterations at k <= 6.

Each symmetric step ends with delta <- (delta + F delta F)/2, F the flip,
and each conjugate step with the exact projection onto the Hermitian,
realignment-fixed matrices (``contractions._invariant_projection``).  So
roundoff cannot carry the iterate out of its class and part its marginals
by more than ``tols.filter``: gb = ga holds to the bit in symmetric mode,
and gb = ga^T to roundoff in conjugate mode.

Left mode scales delta by p (x) Id and runs the conjugate mode's test and
step on omega(delta) = R(R(delta) R(delta)^*), trace-normalized, with R the
realignment: the composite contraction map's Choi matrix, the star product
of delta with F conj(delta) F (so gb = ga^T), rebuilt from each iterate.
p (x) Id on delta acts on it as p (x) conj(p).

Every mode returns delta = (fa (x) fb) M (fa (x) fb)^* by construction, M
the trace-normalized input and fb = Id in left mode: each step applies one
congruence to the iterate, multiplies it into the filters and adds one entry
to the iteration log.  In symmetric and conjugate mode this holds up to the
input's class defect: the projections remove it, and the input is only
within ``tols.herm`` and ``tols.invariance`` of its class.

One stopping rule serves every mode: each iterate's marginal residual
max(||ga - Id/k||, ||gb - Id/k||) is measured once, and the run ends at the
first iterate within ``tols.filter`` (converged), after ``max_iter`` steps,
or at a stall: the last step's predicted decrease was below roundoff and the
residual is no lower than before it.  General steps predict none, so only
one-filter runs stall: with the class projections no generated input is
known to, but a ``tols.filter`` below what float iterates reach (0, say)
ends a one-filter run there within 10 steps.

Each step guards the marginals it factors or steps on (full rank, condition
number within 1e12): a general step ga and the A-scaled gb, a one-filter step
its iterate's ga alone, whose gb is ga or ga^T in class (omega's always).
The first one-filter step takes one eigensolve of ga for its guard and its
closed-form step.

Convergence monitor of these modes: the cumulative sum of log t, with t the
trace of each scaled iterate before renormalization (in left mode, the line
search's checked t of omega, 1 for an unchecked step).  A closed-form first
step is taken only with log t below -roundoff, and the line search makes
every later log t negative (or below roundoff when the predicted decrease
is), so the monitor is non-increasing along the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contractions import _REALIGN, _SWAP, _invariant_projection, partial_transpose, realign
from .criteria import _invariance, _spc
from .errors import MarginalRankDeficient, PreconditionNotMet, WrongClassForMode, ZeroMatrix
from .schmidt_maps import (
    SchmidtDecomposition,
    _identity_split,
    f_apply,
    g_apply,
    g_matrix,
    hermitian_basis,
)
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    _clusters,
    _congruence,
    _herm_eigvalsh,
    _herm_support,
    _hermiticity,
    _JsonRecord,
    _kron,
    _partial_trace,
    _permute_slots,
    _pivot_phases,
    _psd,
    _rank_cut,
    _spectrum,
    _unit,
)
from .tolerances import DEFAULT, MAX_ITER, MODES, Tolerances

__all__ = [
    "FilterResult",
    "StochasticityReport",
    "sinkhorn_filter",
    "doubly_stochastic_check",
]

_COND_LIMIT = 1e12
_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton line search
_MAX_STEP = 2.0  # cap on the operator norm of one step's alpha * H
_ROUNDOFF_DECREASE = 1e-13  # predicted decreases below this are taken unchecked


@dataclass(frozen=True)
class FilterResult(_JsonRecord):
    """Outcome of a filtering run.

    ``normal_form`` is (filter_a (x) filter_b) M (filter_a (x) filter_b)^*
    by construction, M the trace-normalized input and filter_b = Id in left
    mode, up to the input's class defect in symmetric and conjugate mode,
    which each step's class projection removes; ``iterations`` counts the steps, one ``iteration_log`` entry
    each.  ``schmidt_of_normal_form`` is its operator Schmidt
    expansion, Hermitian and identity first in every mode (module
    docstring); coefficients below ``tolerances.rank`` times the largest
    are dropped.  It is computed from ``normal_form`` and ``tolerances``
    (the run's, kept out of the report) on first read and then kept;
    ``to_json`` reports it between ``class_residual`` and
    ``iteration_log``.  ``class_residual`` quantifies how well the output
    keeps its class shape: the SPC defect in symmetric mode, the
    realignment distance in conjugate mode, the identity-eigenvector defect
    of the composite contraction map in left mode, and None in general
    mode.  In left mode the marginal residuals are those of
    omega(normal_form) (module docstring), not of ``normal_form`` itself (a
    one-sided filter does not make both marginals Id/k).
    """

    mode: str
    filter_a: LocalOperator
    filter_b: LocalOperator | None
    normal_form: BipartiteOperator
    marginal_residual_a: float
    marginal_residual_b: float
    iterations: int
    converged: bool
    class_residual: float | None
    iteration_log: list[dict] = field(default_factory=list)
    tolerances: Tolerances = field(
        default=DEFAULT, metadata={"json": False}, compare=False, repr=False
    )

    @cached_property
    def schmidt_of_normal_form(self) -> SchmidtDecomposition:
        return _identity_aligned_expansion(self.normal_form, self.tolerances)

    def to_json(self) -> dict:
        report = super().to_json()
        log = report.pop("iteration_log")
        report["schmidt_of_normal_form"] = self.schmidt_of_normal_form.to_json()
        report["iteration_log"] = log
        return report


def _guard_spectrum(w: np.ndarray, rank_tol: float, side: str) -> None:
    """Refuse a marginal by its ascending eigenvalues ``w``: the smallest must
    exceed the rank cutoff (``_rank_cut``), and w[-1] / w[0] may not exceed
    ``_COND_LIMIT``."""
    if w[0] <= _rank_cut(w, rank_tol):
        raise MarginalRankDeficient(
            f"{side}-marginal eigenvalue {w[0]:.3e} fell below the rank threshold"
        )
    if w[-1] / w[0] > _COND_LIMIT:
        raise MarginalRankDeficient(
            f"{side}-marginal condition number {w[-1] / w[0]:.3e} exceeds {_COND_LIMIT:.0e}"
        )


def _inv_sqrt(marginal: np.ndarray, k: int, side: str, rank_tol: float) -> np.ndarray:
    """(k * marginal)^(-1/2) through the guarded eigendecomposition."""
    w, v, _ = _herm_support(marginal, rank_tol)
    _guard_spectrum(w, rank_tol, side)
    out = (v * (k * w) ** (-0.5)) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def _potential_trace(realigned: np.ndarray, e: np.ndarray, conjugate: bool) -> float:
    """t = tr[delta (E (x) E~)] for a Hermitian E, from delta's realignment
    (``_newton_step``): vec(E^T) . realigned . vec(E~^T)."""
    vec_t = e.conj().ravel()
    return float((vec_t @ realigned @ (e.ravel() if conjugate else vec_t)).real)


def _marginal_step(
    delta: np.ndarray, w: np.ndarray, v: np.ndarray, conjugate: bool
) -> tuple[np.ndarray, float, float] | None:
    """The closed-form step p = (k ga)^(-1/2), scaled to determinant 1, from
    ga's ascending eigenpairs (w, v), with its decrease -log t and its trace
    t = tr[delta (p^2 (x) p~^2)] (``_newton_step``'s potential at H = 2 log p);
    None unless the decrease exceeds roundoff.  It is exact on product states.
    """
    k = len(w)
    lam = -0.5 * np.log(w)
    lam -= lam.mean()  # traceless log p, so det p = 1
    e = (v * np.exp(2 * lam)) @ v.conj().T  # p^2
    t = _potential_trace(_permute_slots(delta, k, k, _REALIGN), e, conjugate)
    if not (t > 0 and -math.log(t) > _ROUNDOFF_DECREASE):
        return None
    return (v * np.exp(lam)) @ v.conj().T, -math.log(t), t


def _newton_step(
    delta: np.ndarray, ga: np.ndarray, gb: np.ndarray, k: int, conjugate: bool
) -> tuple[np.ndarray, float, float]:
    """exp(alpha H / 2) for one safeguarded Newton step on the one-filter
    potential, the step's predicted decrease |alpha * slope|, and its trace t.

    The potential is f(H) = log tr[delta (E (x) E~)] over traceless Hermitian
    H, with E = exp(H) and E~ = E (symmetric) or conj(E) (conjugate); f(0) = 0
    since delta has trace 1.  In the coordinates of the traceless Hermitian
    basis B_a its gradient at 0 is tr(G B_a), G = ga + gb (or ga + gb^T), and
    its Hessian S + 2Q - g g^T with S_ab = Re tr(G B_a B_b) and
    Q_ab = tr[delta (B_a (x) B~_b)].  A failed or non-descending Newton solve
    falls back to the gradient.  The step length alpha starts at 1, capped so
    that ||alpha H|| <= 2, and halves until Armijo's condition holds on
    log t(alpha) = f(alpha H) (returned t = t(alpha)) or the predicted
    decrease is below roundoff (returned t = 1).  Left mode passes omega.
    """
    basis = hermitian_basis(k)[1:]
    flat = basis.reshape(k * k - 1, k * k)  # row a is the row-major vec(B_a)
    flat_t = flat.conj()  # row a is vec(B_a^T)
    g_mat = ga + (gb.T if conjugate else gb)
    grad = (flat_t @ g_mat.ravel()).real
    # realigned[(i, p), (j, q)] = delta[(i, j), (p, q)], so that
    # tr[delta (X (x) Y)] = vec(X^T) . realigned . vec(Y^T).  S + 2Q is then
    # the real part of flat_t W flat^T with W = G (x) Id + X + X^*, where X is
    # realigned itself (conjugate) or realigned with its column index pair
    # swapped (symmetric).
    t4 = delta.reshape(k, k, k, k)
    realigned = t4.transpose(0, 2, 1, 3).reshape(k * k, k * k)
    x = realigned if conjugate else t4.transpose(0, 2, 3, 1).reshape(k * k, k * k)
    w = _kron(g_mat, np.eye(k)) + x + x.conj().T
    hess = (flat_t @ w @ flat.T).real - np.outer(grad, grad)
    try:
        d = -np.linalg.solve(hess, grad)
        slope = float(grad @ d)
    except np.linalg.LinAlgError:
        slope = np.nan
    if not slope < 0:  # also catches a NaN from a singular solve
        d = -grad
        slope = -float(grad @ grad)

    lam, u = np.linalg.eigh((d @ flat).reshape(k, k))
    alpha = min(1.0, _MAX_STEP / max(abs(lam[0]), abs(lam[-1]), np.finfo(float).tiny))
    while abs(alpha * slope) >= _ROUNDOFF_DECREASE:
        t = _potential_trace(realigned, (u * np.exp(alpha * lam)) @ u.conj().T, conjugate)
        if t > 0 and math.log(t) <= _ARMIJO * alpha * slope:
            break
        alpha *= 0.5
    else:
        t = 1.0  # a step below roundoff is taken unchecked and claims no decrease
    return (u * np.exp(0.5 * alpha * lam)) @ u.conj().T, abs(alpha * slope), t


def _identity_aligned_expansion(
    normal_form: BipartiteOperator, tols: Tolerances
) -> SchmidtDecomposition:
    """Schmidt expansion of a normal form, read off one SVD of its contraction map.

    With M = U S V^T the Hermitian-basis matrix of the first-factor map, the
    normal form is sum_i s_i A_i (x) B_i, where A_i has the coordinates v_i
    and B_i the coordinates M v_i / s_i; both families are Hermitian and
    orthonormal.  The identity direction (a right singular vector of any
    converged normal form, possibly inside a degenerate cluster where the
    SVD picks an arbitrary basis) is rotated to the front of its cluster.
    Singular values below ``tols.rank * s_1`` are dropped.
    """
    k = normal_form.dim_a
    n = k * k
    m = g_matrix(normal_form, tols)
    _, s, vt = np.linalg.svd(m)
    v = vt.T.copy()
    jstar = int(np.argmax(np.abs(v[0])))
    cluster = next(c for c in _clusters(s, 1e-8 * s[0]) if jstar in c)
    coords, others = _identity_split(v[:, cluster])
    columns = [coords / np.linalg.norm(coords)]
    if len(cluster) > 1:  # a basis of the rest of the cluster; a lone column has none
        columns.append(np.linalg.svd(others, full_matrices=False)[0][:, : len(cluster) - 1])
    v[:, cluster] = np.column_stack(columns)

    keep = int(np.sum(s > tols.rank * s[0]))
    lefts = v[:, :keep]
    # sign fix: each kept left operator's pivot coordinate is positive
    lefts = lefts * _pivot_phases(lefts.T)
    rights = (m @ lefts) / s[:keep]
    ops = (np.hstack([lefts, rights]).T @ hermitian_basis(k).reshape(n, n)).reshape(2 * keep, k, k)
    ops = 0.5 * (ops + ops.conj().swapaxes(1, 2))
    return SchmidtDecomposition(
        coefficients=s[:keep],
        left_ops=LocalOperator._stack(ops[:keep]),
        right_ops=LocalOperator._stack(ops[keep:]),
        dims=(k, k),
    )


def sinkhorn_filter(
    gamma: BipartiteOperator,
    mode: str = "general",
    max_iter: int = MAX_ITER,
    tols: Tolerances = DEFAULT,
) -> FilterResult:
    """Bring a full-marginal-rank state to its filter normal form.

    The input is admitted and trace-normalized by ``tensor_core._unit``,
    its one gate; the zero matrix, its one input of trace 0, raises
    ZeroMatrix.  Symmetric mode requires an SPC input and conjugate mode a
    realignment-invariant one (WrongClassForMode otherwise), each reading
    only its own flag's verdict (``criteria._spc``, ``criteria._invariance``).
    Each step guards the marginals it factors or steps on (module docstring):
    MarginalRankDeficient unless they have full rank and condition numbers
    within ``_COND_LIMIT``, and at the first step whose filters overflow as
    the scaling diverges.  ``max_iter`` must be at least 1 (ValueError
    otherwise).  Every mode stops by one rule (module docstring) and counts
    the steps it took.  The normal form is the filters applied to the
    trace-normalized input by construction, in symmetric and conjugate mode
    up to the input's class defect, which the class projections remove.  Runs that stall or exhaust ``max_iter`` return their
    partial result with ``converged=False`` instead of raising, since
    decomposable inputs may cycle and the iteration log is useful evidence.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    unit, trace = _unit(gamma, tols, "filtering")
    if trace <= 0:  # a PSD input of trace 0 is the zero matrix
        raise ZeroMatrix("the filter needs a nonzero input")
    k, mat = gamma.dim_a, unit.mat
    if mode == "symmetric" and not _spc(gamma, _psd(gamma, tols), tols)[-1]:
        raise WrongClassForMode("symmetric mode needs an SPC input")
    if mode == "conjugate" and not _invariance(gamma, _psd(gamma, tols), tols)[-1]:
        raise WrongClassForMode("conjugate mode needs a realignment-invariant input")

    delta = mat / np.trace(mat).real
    fa = fb = np.eye(k, dtype=complex)  # never written in place
    eye_k = np.eye(k) / k
    log: list[dict] = []
    monitor = 0.0
    predicted = previous = math.inf  # of the last step, and the residual before it

    try:  # a diverging scaling overflows its filters while the iterate stays bounded
        with np.errstate(over="raise"):
            while True:
                scaled = delta
                if mode == "left":  # omega(delta), trace-normalized (module docstring)
                    r = _permute_slots(delta, k, k, _REALIGN)
                    scaled = _permute_slots(r @ r.conj().T, k, k, _REALIGN)
                    scaled = (scaled + scaled.conj().T) / (2 * np.trace(scaled).real)
                ga = _partial_trace(scaled.reshape(k, k, k, k), "a")
                gb = _partial_trace(scaled.reshape(k, k, k, k), "b")
                res_a = float(np.linalg.norm(ga - eye_k))
                res_b = float(np.linalg.norm(gb - eye_k))
                residual = max(res_a, res_b)
                converged = residual <= tols.filter
                stalled = predicted < _ROUNDOFF_DECREASE and residual >= previous
                if converged or stalled or len(log) == max_iter:
                    break
                previous = residual

                if mode == "general":
                    pa = _inv_sqrt(ga, k, "A", tols.rank)
                    delta = _congruence(pa, np.eye(k), delta)
                    t1 = np.trace(delta).real
                    delta /= t1
                    fa = pa @ fa / np.sqrt(t1)
                    gb = _partial_trace(delta.reshape(k, k, k, k), "b")
                    pb = _inv_sqrt(gb, k, "B", tols.rank)
                    delta = _congruence(np.eye(k), pb, delta)
                    t2 = np.trace(delta).real
                    delta /= t2
                    fb = pb @ fb / np.sqrt(t2)
                    monitor = max(abs(1.0 - t1), abs(1.0 - t2))
                else:
                    conjugate, step = mode != "symmetric", None
                    if log:
                        _guard_spectrum(_herm_eigvalsh(ga), tols.rank, "A")  # the marginal it steps on
                    else:  # one eigensolve guards ga and gives the closed-form first step
                        w, v, _ = _herm_support(ga, tols.rank)
                        _guard_spectrum(w, tols.rank, "A")
                        step = _marginal_step(scaled, w, v, conjugate)
                    p, predicted, t_step = step or _newton_step(scaled, ga, gb, k, conjugate)
                    pb = {"symmetric": p, "conjugate": p.conj(), "left": np.eye(k)}[mode]
                    delta = _congruence(p, pb, delta)
                    t = np.trace(delta).real
                    delta /= t
                    left = mode == "left"
                    fa = p @ fa / t ** (0.5 if left else 0.25)
                    monitor += math.log(t_step if left else t)

                if mode == "conjugate":  # back into the class, Hermitian part included
                    delta = _invariant_projection(delta, k)
                else:
                    delta = 0.5 * (delta + delta.conj().T)
                    if mode == "symmetric":
                        delta = 0.5 * (delta + _permute_slots(delta, k, k, _SWAP))
                log.append({"iteration": len(log) + 1, "residual_a": res_a, "residual_b": res_b, "monitor": monitor})
    except FloatingPointError:  # at the first step whose filters overflow
        msg = f"the filters overflowed in {len(log) + 1} steps: the scaling diverges"
        raise MarginalRankDeficient(msg) from None
    fb = {"general": fb, "symmetric": fa, "conjugate": fa.conj(), "left": None}[mode]
    normal_form = BipartiteOperator(delta, k, k)
    if mode == "symmetric":  # the SPC defect: Hermiticity defect plus negative part of R(delta^Gamma)
        rpt = realign(partial_transpose(normal_form))
        class_residual = _hermiticity(rpt)[0] + max(0.0, -float(_spectrum(rpt)[0]))
    elif mode == "conjugate":
        class_residual = float(np.linalg.norm(realign(normal_form).mat - delta))
    elif mode == "left":
        # column 0 of M^T M is the composite map applied to Id/sqrt(k)
        m = g_matrix(normal_form, tols)
        class_residual = float(np.linalg.norm((m.T @ m[:, 0])[1:]))
    else:
        class_residual = None
    return FilterResult(
        mode=mode,
        filter_a=LocalOperator(fa),
        filter_b=None if fb is None else LocalOperator(fb),
        normal_form=normal_form,
        marginal_residual_a=res_a,
        marginal_residual_b=res_b,
        iterations=len(log),
        converged=converged,
        class_residual=class_residual,
        iteration_log=log,
        tolerances=tols,
    )


@dataclass(frozen=True)
class StochasticityReport(_JsonRecord):
    forward_residual: float
    adjoint_residual: float
    doubly_stochastic: bool


def doubly_stochastic_check(
    gamma: BipartiteOperator, tols: Tolerances = DEFAULT
) -> StochasticityReport:
    """Test whether the state's contraction maps fix the normalized identity.

    The state is admitted and trace-normalized by ``tensor_core._unit``
    (PreconditionNotMet for the zero matrix); both contraction maps applied
    to Id must then return Id/k, and the residuals are measured in the
    Id/sqrt(k) normalization on the forward map and its adjoint.
    """
    gn, trace = _unit(gamma, tols, "the doubly stochastic check")
    if trace <= 0:  # a PSD input of trace 0 is the zero matrix
        raise PreconditionNotMet("trace too small to normalize")
    k = gn.dim_a
    v = np.eye(k) / np.sqrt(k)
    forward = float(np.linalg.norm(k * g_apply(gn, v).mat - v))
    adjoint = float(np.linalg.norm(k * f_apply(gn, v).mat - v))
    ds = bool(forward <= tols.doubly_stochastic and adjoint <= tols.doubly_stochastic)
    return StochasticityReport(
        forward_residual=forward, adjoint_residual=adjoint, doubly_stochastic=ds
    )
