"""Seeded random and canonical constructions for each state class.

Randomness comes from numpy's Philox generator (a documented 64-bit
counter-based RNG), so identical (parameters, seed) pairs reproduce bitwise
identical matrices on every platform.  The distributions are chosen for test
coverage, not for any physical sampling measure.

No generator loops.  The three triad classes each take one draw and one
closed-form walk toward the PSD boundary (``tensor_core._boundary_step``):
``random_spc`` and ``random_ppt`` walk from Id/k^2 and stop ``_STEP_BACK``
of the way, so the state, and for PPT its partial transpose, keeps
lambda_min >= (1 - _STEP_BACK)/k^2; ``random_invariant`` walks from
identity_plus_u onto the boundary itself, at rank k^2 - 1.
"""

from __future__ import annotations

import numpy as np

from .contractions import _PARTIAL_TRANSPOSE, _REALIGN, flip, maximally_entangled_vector
from .errors import BadRank, UnknownName
from .schmidt_maps import hermitian_basis
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    _boundary_step,
    _permute_slots,
)

__all__ = [
    "rng_from_seed",
    "random_density",
    "random_separable",
    "random_spc",
    "random_invariant",
    "random_ppt",
    "canonical",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_density(k: int, rank: int, seed: int) -> BipartiteOperator:
    """GG*/tr(GG*) with G a (k^2 x rank) complex Gaussian matrix."""
    if not 1 <= rank <= k * k:
        raise BadRank(f"rank must lie in [1, {k * k}], got {rank}")
    rng = rng_from_seed(seed)
    g = _complex_normal(rng, (k * k, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return BipartiteOperator(0.5 * (rho + rho.conj().T), dim_a=k, dim_b=k)


def random_separable(
    k: int, terms: int, seed: int
) -> tuple[BipartiteOperator, list[tuple[float, LocalOperator, LocalOperator]]]:
    """Dirichlet-weighted mixture of random pure product states, plus its recipe.

    The recipe lists (w_t, P(x_t), P(y_t)) per term, and the state is
    sum_t w_t P(x_t) (x) P(y_t), summed in one einsum over all terms.
    """
    if terms < 1:
        raise BadRank(f"terms must be at least 1, got {terms}")
    rng = rng_from_seed(seed)
    weights = rng.dirichlet(np.ones(terms))
    # per term, in stream order: the real and imaginary parts of x, then of y
    draws = rng.standard_normal((terms, 4, k))
    xs = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)
    ys = (draws[:, 2] + 1j * draws[:, 3]) / np.sqrt(2.0)
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    pxs = xs[:, :, None] * xs.conj()[:, None, :]
    pys = ys[:, :, None] * ys.conj()[:, None, :]
    total = np.einsum("t,tij,tpq->ipjq", weights, pxs, pys).reshape(k * k, k * k)
    ground_truth = list(zip(weights.tolist(), LocalOperator._stack(pxs), LocalOperator._stack(pys)))
    return BipartiteOperator(0.5 * (total + total.conj().T), dim_a=k, dim_b=k), ground_truth


def _random_hermitian_orthobasis(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random orthonormal Hermitian frame, shape (k^2, k, k), led by Id/sqrt(k).

    The traceless elements are Haar distributed: their coordinates in
    ``hermitian_basis(k)[1:]`` are the columns of Q from one QR of a real
    Gaussian (k^2-1) x (k^2-1) matrix, signs fixed by diag(R) (Mezzadri,
    Notices AMS 54, 2007).  The elements are orthonormal under tr(X Y).
    """
    fixed = hermitian_basis(k)
    q, r = np.linalg.qr(rng.standard_normal((k * k - 1, k * k - 1)))
    q *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return np.concatenate([fixed[:1], np.einsum("ab,bij->aij", q.T, fixed[1:])])


# Fraction of the way to the class boundary at which the SPC and PPT walks
# stop.  Along Id/k^2 + s D every eigenvalue is affine in s, so stopping there
# leaves lambda_min of the state (and, for PPT, of its partial transpose) at
# least (1 - _STEP_BACK)/k^2: no class flag rests on the sign of an eigenvalue
# of roundoff size.
_STEP_BACK = 0.9


def _walk_from_centre(step: np.ndarray, t: float, k: int) -> BipartiteOperator:
    """Id/k^2 + _STEP_BACK t D for the traceless Hermitian direction D = ``step``,
    hermitized and trace-normalized."""
    out = np.eye(k * k) / (k * k) + (_STEP_BACK * t) * step
    out = 0.5 * (out + out.conj().T)
    return BipartiteOperator(out / np.trace(out).real, dim_a=k, dim_b=k)


def random_spc(k: int, seed: int) -> BipartiteOperator:
    """Random state Id/k^2 + sum_i a_i B_i (x) B_i, a_i > 0, {B_i} a traceless Hermitian frame.

    The frame is ``_random_hermitian_orthobasis`` without its lead Id/sqrt(k)
    (one QR), and the direction D = sum_i a_i B_i (x) B_i takes one draw of
    exponential coefficients.  D is the realignment of sum_i a_i vec(B_i)
    vec(B_i)^T, so it costs one product.  The state is the walk from Id/k^2
    toward D, stopped ``_STEP_BACK`` of the way to the PSD boundary; each
    coefficient stays positive, and lambda_min >= (1 - _STEP_BACK)/k^2 keeps
    the ``spc`` flag off roundoff.  At k = 1 the unit state is the only state.
    """
    if k == 1:
        return BipartiteOperator(np.ones((1, 1)), dim_a=1, dim_b=1)
    rng = rng_from_seed(seed)
    basis = _random_hermitian_orthobasis(rng, k)
    vecs = basis[1:].reshape(k * k - 1, k * k)
    coeffs = rng.exponential(1.0, k * k - 1)
    step = _permute_slots((vecs.T * coeffs) @ vecs, k, k, _REALIGN)
    return _walk_from_centre(step, _boundary_step(k * np.eye(k * k), step), k)


# Realignment R (axes (0, 2, 1, 3)) and the adjoint A (axes (2, 3, 0, 1),
# then conjugation) generate a group of order 8: 1, R, ARA, RARA, each
# alone and followed by A.
_INVARIANT_AXES = ((0, 1, 2, 3), _REALIGN, (3, 1, 2, 0), (3, 2, 1, 0))


def _invariant_projection(mat: np.ndarray, k: int) -> np.ndarray:
    """The average of ``mat`` over the group of R and A above.  R and A are
    isometries of Re tr(X^* Y), so it is the orthogonal projection onto the
    Hermitian, realignment-fixed matrices."""
    plain = sum(mat.reshape(k, k, k, k).transpose(axes) for axes in _INVARIANT_AXES)
    plain = plain.reshape(k * k, k * k)
    return (plain + plain.conj().T) / 8.0


def random_invariant(k: int, seed: int) -> BipartiteOperator:
    """Random realignment-invariant state of rank k^2 - 1, in one eigensolve.

    The draw of ``random_density(k, k^2, seed)``, projected exactly by
    ``_invariant_projection`` and trace-normalized, is H.  The state is where
    the walk from c = ``canonical("identity_plus_u", k)`` through H meets the
    PSD boundary (``_boundary_step``); c^(-1/2) is closed form, as c is 1/k
    on u and 1/(k^2 + k) off it.  Invariance holds to roundoff, and the rank
    is k^2 - 1 for almost every seed.  At k = 1 the unit state is the only
    state.
    """
    if k == 1:
        return BipartiteOperator(np.ones((1, 1)), dim_a=1, dim_b=1)
    h = _invariant_projection(random_density(k, k * k, seed).mat, k)
    h /= np.trace(h).real
    centre = canonical("identity_plus_u", k).mat
    u = maximally_entangled_vector(k)
    p_u = np.outer(u, u.conj()) / k
    whiten = np.sqrt(k * k + k) * (np.eye(k * k) + (1.0 / np.sqrt(1.0 + k) - 1.0) * p_u)
    step = h - centre
    out = centre + _boundary_step(whiten, step) * step
    out = 0.5 * (out + out.conj().T)
    return BipartiteOperator(out / np.trace(out).real, dim_a=k, dim_b=k)


def random_ppt(k: int, seed: int) -> BipartiteOperator:
    """Random PPT state: the walk from Id/k^2 toward ``random_density(k, k^2, seed)``.

    With D the draw minus Id/k^2, Id/k^2 + t D is PSD up to t = 1, and as
    partial transposition is linear and fixes Id, its partial transpose
    meets the PSD boundary at the t from one ``_boundary_step`` on D^Gamma.
    The state takes ``_STEP_BACK`` of the smaller step, so lambda_min of the
    state and of its partial transpose is at least (1 - _STEP_BACK)/k^2 and
    the ``ppt`` flag does not rest on roundoff.  At k = 1 the unit state is
    the only state.
    """
    if k == 1:
        return BipartiteOperator(np.ones((1, 1)), dim_a=1, dim_b=1)
    step = random_density(k, k * k, seed).mat - np.eye(k * k) / (k * k)
    t_pt = _boundary_step(k * np.eye(k * k), _permute_slots(step, k, k, _PARTIAL_TRANSPOSE))
    return _walk_from_centre(step, min(1.0, t_pt), k)


def canonical(name: str, k: int, alpha: float | None = None) -> BipartiteOperator:
    """Named fixture states used across the test suites.

    classical_diag     (1/k) sum_i e_ii (x) e_ii
    bell               normalized projector on the maximally entangled vector
    identity_plus_u    (Id (x) Id + u u^t) / (k^2 + k)
    werner             (Id (x) Id + alpha * F) / (k^2 + alpha k), |alpha| <= 1
    """
    if name == "classical_diag":  # e_ii (x) e_ii is the diagonal unit at row i * k + i
        return BipartiteOperator(np.diag(np.eye(k).ravel() / k), dim_a=k, dim_b=k)
    if name == "bell":
        u = maximally_entangled_vector(k)
        return BipartiteOperator(np.outer(u, u.conj()) / k, dim_a=k, dim_b=k)
    if name == "identity_plus_u":
        u = maximally_entangled_vector(k)
        mat = (np.eye(k * k) + np.outer(u, u.conj())) / (k * k + k)
        return BipartiteOperator(mat, dim_a=k, dim_b=k)
    if name == "werner":
        if alpha is None or not -1.0 <= alpha <= 1.0:
            raise UnknownName("werner requires a mixing parameter alpha in [-1, 1]")
        mat = (np.eye(k * k) + alpha * flip(k).mat) / (k * k + alpha * k)
        return BipartiteOperator(mat, dim_a=k, dim_b=k)
    raise UnknownName(f"unknown canonical state {name!r}")
