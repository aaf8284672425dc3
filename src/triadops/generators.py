"""Seeded random and canonical constructions for each state class.

Randomness comes from numpy's Philox generator (a documented 64-bit
counter-based RNG), so identical (parameters, seed) pairs reproduce bitwise
identical matrices on every platform.  The distributions are chosen for test
coverage, not for any physical sampling measure.
"""

from __future__ import annotations

import numpy as np

from .contractions import _PARTIAL_TRANSPOSE, _REALIGN, flip, maximally_entangled_vector
from .errors import BadRank, RejectionBudgetExhausted, UnknownName
from .schmidt_maps import hermitian_basis
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    _boundary_step,
    _clip_psd,
    _herm_eigvalsh,
    _kron,
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


def random_spc(k: int, seed: int) -> BipartiteOperator:
    """Random state of the form sum_i a_i B_i (x) B_i with orthonormal Hermitian B_i.

    The frame {B_i} comes from ``_random_hermitian_orthobasis`` (one QR).  The
    leading term is fixed at (1/k) Id/sqrt(k) (x) Id/sqrt(k), which pins the
    trace at one; the remaining coefficients are resampled (with a slow scale
    back-off, up to 1000 draws) until the total is PSD.  At k = 1 the leading
    term is the whole state.
    """
    rng = rng_from_seed(seed)
    basis = _random_hermitian_orthobasis(rng, k)
    lead = _kron(basis[0], basis[0]) / k
    if k == 1:
        return BipartiteOperator(lead, dim_a=1, dim_b=1)
    tail = np.einsum("aij,apq->aipjq", basis[1:], basis[1:]).reshape(-1, k * k, k * k)
    scale = 0.5 / (k * k * np.sqrt(len(tail)))
    for attempt in range(1000):
        coeffs = rng.exponential(scale, size=len(tail))
        cand = lead + np.einsum("i,ijk->jk", coeffs, tail)
        cand = 0.5 * (cand + cand.conj().T)
        if np.linalg.eigvalsh(cand)[0] >= 0.0:
            return BipartiteOperator(cand, dim_a=k, dim_b=k)
        if (attempt + 1) % 25 == 0:
            scale *= 0.75
    raise RejectionBudgetExhausted(f"no PSD draw in 1000 attempts at k={k}")


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


def _is_ppt_strict(mat: np.ndarray, k: int) -> bool:
    return bool(_herm_eigvalsh(_permute_slots(mat, k, k, _PARTIAL_TRANSPOSE))[0] >= 0.0)


def random_ppt(k: int, seed: int) -> BipartiteOperator:
    """Random PPT state.

    For k = 2 this is plain accept-reject over full-rank random densities
    (about one in four draws is PPT; at most 200000 draws).  From k = 3 on
    the acceptance rate collapses below 1e-3, so the draw instead mixes a
    random separable state with a little Gaussian PSD noise and alternately
    clips the negative eigenvalues of the state and of its partial
    transpose; the resulting distribution is ad hoc but the output is
    genuinely PPT.
    """
    rng = rng_from_seed(seed)
    if k <= 2:
        for _ in range(200_000):
            g = _complex_normal(rng, (k * k, k * k))
            rho = g @ g.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            rho /= np.trace(rho).real
            if _is_ppt_strict(rho, k):
                return BipartiteOperator(rho, dim_a=k, dim_b=k)
        raise RejectionBudgetExhausted(f"no PPT draw in 200000 attempts at k={k}")

    sep, _ = random_separable(k, 2 * k * k, seed)
    noise = _complex_normal(rng, (k * k, k * k))
    noise = noise @ noise.conj().T
    noise /= np.trace(noise).real
    rho = 0.9 * sep.mat + 0.1 * noise
    for _ in range(500):
        clipped, w = _clip_psd(_permute_slots(rho, k, k, _PARTIAL_TRANSPOSE))
        if w[0] >= 0.0 and _herm_eigvalsh(rho)[0] >= 0.0:
            rho = 0.5 * (rho + rho.conj().T)
            return BipartiteOperator(rho / np.trace(rho).real, dim_a=k, dim_b=k)
        rho, _ = _clip_psd(_permute_slots(clipped, k, k, _PARTIAL_TRANSPOSE))
        rho /= np.trace(rho).real
    raise RejectionBudgetExhausted(f"PPT re-projection did not settle at k={k}")


def canonical(name: str, k: int, alpha: float | None = None) -> BipartiteOperator:
    """Named fixture states used across the test suites.

    classical_diag     (1/k) sum_i e_ii (x) e_ii
    bell               normalized projector on the maximally entangled vector
    identity_plus_u    (Id (x) Id + u u^t) / (k^2 + k)
    werner             (Id (x) Id + alpha * F) / (k^2 + alpha k), |alpha| <= 1
    """
    if name == "classical_diag":
        mat = np.zeros((k * k, k * k), dtype=complex)
        for i in range(k):
            e = np.zeros((k, k))
            e[i, i] = 1.0
            mat += _kron(e, e) / k
        return BipartiteOperator(mat, dim_a=k, dim_b=k)
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
