"""Reduced states, the adjoint contraction-map pair, and Schmidt data.

For gamma = sum_n A_n (x) B_n the two maps implemented here are

    g_apply(gamma, x) = sum_n tr(A_n x) B_n      (contract the first factor)
    f_apply(gamma, y) = sum_n tr(B_n y) A_n      (contract the second factor)

pinned down basis-free by tr(g_apply(gamma, x) y^*) = tr(gamma (x (x) y^*)).
For Hermitian gamma the two maps are adjoint with respect to the trace inner
product, and for PSD gamma both are positive maps.

The operator Schmidt decomposition gamma = sum_i s_i A_i (x) B_i is the SVD
of the realignment of gamma, reshaped back to local operators.  Its largest
coefficient equals the operator norm of realign(gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contractions import realign
from .errors import DimensionMismatch
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    _JsonRecord,
    _cached,
    _locked,
    _partial_trace,
    _pivot_phases,
    _require_hermitian,
    _require_square,
    _sum_of_products,
    _svd,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SchmidtDecomposition",
    "reduced_a",
    "reduced_b",
    "g_apply",
    "f_apply",
    "fg_apply",
    "schmidt",
    "hermitian_basis",
    "hermitian_coords",
    "hermitian_from_coords",
    "g_matrix",
    "fg_matrix",
]


def reduced_a(gamma: BipartiteOperator) -> LocalOperator:
    """Partial trace over the second factor."""
    return _cached(
        gamma, "reduced_a", lambda: LocalOperator(_partial_trace(gamma.tensor4, "a"), dim=gamma.dim_a)
    )


def reduced_b(gamma: BipartiteOperator) -> LocalOperator:
    """Partial trace over the first factor."""
    return _cached(
        gamma, "reduced_b", lambda: LocalOperator(_partial_trace(gamma.tensor4, "b"), dim=gamma.dim_b)
    )


def _local_mat(x) -> np.ndarray:
    return x.mat if isinstance(x, LocalOperator) else np.asarray(x, dtype=complex)


def g_apply(gamma: BipartiteOperator, x) -> LocalOperator:
    """Contract the first factor of gamma against x, leaving a second-factor operator."""
    xm = _local_mat(x)
    if xm.shape != (gamma.dim_a, gamma.dim_a):
        raise DimensionMismatch(
            f"x must be {gamma.dim_a} x {gamma.dim_a}, got {xm.shape}"
        )
    out = np.einsum("ijaq,ai->jq", gamma.tensor4, xm)
    return LocalOperator(out, dim=gamma.dim_b)


def f_apply(gamma: BipartiteOperator, y) -> LocalOperator:
    """Contract the second factor of gamma against y, leaving a first-factor operator."""
    ym = _local_mat(y)
    if ym.shape != (gamma.dim_b, gamma.dim_b):
        raise DimensionMismatch(
            f"y must be {gamma.dim_b} x {gamma.dim_b}, got {ym.shape}"
        )
    out = np.einsum("ijpb,bj->ip", gamma.tensor4, ym)
    return LocalOperator(out, dim=gamma.dim_a)


def fg_apply(gamma: BipartiteOperator, x) -> LocalOperator:
    """The composite f_apply(gamma, g_apply(gamma, x)).

    For Hermitian gamma this composite is self-adjoint and PSD on the real
    space of Hermitian matrices; its top eigenvalue is the squared largest
    Schmidt coefficient of gamma.
    """
    return f_apply(gamma, g_apply(gamma, x))


@dataclass(frozen=True)
class SchmidtDecomposition(_JsonRecord):
    """Singular data of the realignment: gamma = sum_i coefficients[i] * left (x) right,
    with gamma's factor dimensions ``dims`` kept out of the report."""

    coefficients: np.ndarray
    left_ops: list[LocalOperator]
    right_ops: list[LocalOperator]
    dims: tuple[int, int] = field(metadata={"json": False}, compare=False)

    def reconstruct(self) -> BipartiteOperator:
        total = _sum_of_products(zip(self.coefficients, self.left_ops, self.right_ops), *self.dims)
        return BipartiteOperator(total, *self.dims)


def schmidt(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> SchmidtDecomposition:
    """Operator Schmidt decomposition via the memoized SVD of realign(gamma)
    (``tensor_core._svd``), the factorization behind ``classify``'s
    ``ccnr_value`` and the bounds' ||R(gamma)|| too.

    Left singular vectors reshape (row-major) to the left operators, the
    conjugated right singular vectors to the right operators.  Coefficients
    below ``rank_tol * s1`` are dropped.  Each left operator's phase is fixed
    by ``_pivot_phases``, so a tie between mirror entries does not follow
    roundoff.
    """
    k = _require_square(gamma, "the Schmidt decomposition")
    u, s, vh = _svd(realign(gamma))
    if s[0] <= 0:
        return SchmidtDecomposition(coefficients=np.zeros(0), left_ops=[], right_ops=[], dims=(k, k))
    keep = s > tols.rank * s[0]
    lefts = u[:, keep].T
    phases = _pivot_phases(lefts)[:, None]
    return SchmidtDecomposition(
        coefficients=_locked(s[keep]),
        left_ops=LocalOperator._stack((lefts * phases).reshape(-1, k, k)),
        right_ops=LocalOperator._stack((vh[keep] * np.conj(phases)).reshape(-1, k, k)),
        dims=(k, k),
    )


# ---------------------------------------------------------------------------
# Orthonormal Hermitian basis and matrix representations of the maps
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict[int, np.ndarray] = {}


def hermitian_basis(k: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the k x k matrices, shape (k^2, k, k).

    Fixed order: the normalized identity Id/sqrt(k) first, then for each pair
    i < j (lexicographic) the symmetric element (E_ij + E_ji)/sqrt(2), then
    for each pair i < j the antisymmetric element i(E_ji - E_ij)/sqrt(2), and
    finally the diagonal traceless elements
    diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)) for l = 1 .. k-1.
    The elements are orthonormal under tr(X Y^*).
    """
    if k in _BASIS_CACHE:
        return _BASIS_CACHE[k]
    elems = [np.eye(k, dtype=complex) / np.sqrt(k)]
    for i in range(k):
        for j in range(i + 1, k):
            h = np.zeros((k, k), dtype=complex)
            h[i, j] = h[j, i] = 1.0 / np.sqrt(2.0)
            elems.append(h)
    for i in range(k):
        for j in range(i + 1, k):
            h = np.zeros((k, k), dtype=complex)
            h[i, j] = -1j / np.sqrt(2.0)
            h[j, i] = 1j / np.sqrt(2.0)
            elems.append(h)
    for l in range(1, k):
        h = np.zeros((k, k), dtype=complex)
        h[np.arange(l), np.arange(l)] = 1.0
        h[l, l] = -l
        elems.append(h / np.sqrt(l * (l + 1)))
    basis = _locked(np.stack(elems))
    _BASIS_CACHE[k] = basis
    return basis


def hermitian_coords(mat: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the fixed basis."""
    basis = hermitian_basis(mat.shape[0])
    return np.einsum("aij,ij->a", basis.conj(), mat).real.copy()


def hermitian_from_coords(coords: np.ndarray, k: int) -> np.ndarray:
    """Hermitian matrix with the given real basis coordinates."""
    basis = hermitian_basis(k)
    return np.einsum("a,aij->ij", np.asarray(coords, dtype=float), basis)


def _identity_split(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the identity's projection onto the span of ``top``'s
    orthonormal columns, and those columns made orthogonal to it.

    Coordinate 0 is Id/sqrt(k).  The projection is nonzero whenever the span
    holds an element of nonzero trace.
    """
    coords = top @ top[0, :]
    return coords, top - np.outer(coords, coords @ top) / (coords @ coords)


def g_matrix(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> np.ndarray:
    """Read-only real k^2 x k^2 matrix of the first-factor contraction map g in
    the fixed Hermitian basis, entry [a, b] = tr(g(h_b) h_a).  It is symmetric
    exactly when g is self-adjoint for the trace inner product."""
    k = _require_square(gamma, "the Hermitian-basis representation")
    _require_hermitian(gamma, tols)
    # entry [a, b] is vec(h_b^T) . realign(gamma) . vec(h_a^T), and row a of
    # ``rows`` is vec(h_a^T)
    rows = hermitian_basis(k).reshape(k * k, k * k).conj()
    return _locked(np.ascontiguousarray((rows @ realign(gamma).mat.T @ rows.T).real))


def fg_matrix(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> np.ndarray:
    """Read-only matrix of the composite second-after-first contraction map.

    For Hermitian gamma the two contraction maps are mutually adjoint, so the
    composite's matrix is M^T M with M the first-factor map's matrix; it is
    symmetric PSD.
    """
    m = g_matrix(gamma, tols)
    out = m.T @ m
    return _locked(0.5 * (out + out.T))
