"""Complex dense-matrix substrate for bipartite operators.

Index convention
----------------
A bipartite operator on C^k (x) C^m is stored as a single (k*m) x (k*m)
complex matrix.  The composite basis vector e_i (x) f_j maps to row
``i*m + j`` (row-major composite index).  Every contraction formula in the
toolkit is written against this convention.

All values are immutable after construction, so they are safe to share
between threads.  An operator's matrix is a read-only view whose owning
array is read-only too, so its writes cannot be turned back on.

Memo
----
Classification, the spectral bounds and the Schmidt decomposition read the
spectra of the same few matrices of one input: gamma, its partial transpose,
their realignments and the two marginals.  ``_cached`` computes each of
these once per operator: ``realign``, ``partial_transpose``, ``reduced_a``,
``reduced_b``, the singular values behind ``norms`` and the ascending
spectrum of the Hermitian part behind ``psd_check`` and ``classify``.  The
memo is thread-local and bounded: it holds the last ``_MEMO_SIZE`` operators
asked about and evicts the least recently used, so operators that the caller
keeps alive do not keep their derived matrices alive too.  A cached value is
the one the same routine computes on the same bytes, so every output keeps
its bytes whether the memo is cold or warm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import NamedTuple, Union

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotPSD, ZeroMatrix
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "BipartiteOperator",
    "LocalOperator",
    "SpectralData",
    "Norms",
    "PsdReport",
    "kron",
    "hermitian_eig",
    "norms",
    "psd_check",
    "inv_sqrt_psd",
]


def _locked(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` whose owning array is read-only too.

    numpy refuses to make an array writable while the array owning its data
    is read-only, so no holder of the view can turn its writes back on.  A
    reshape that copies returns a view of its copy, hence the walk up.
    """
    owner = arr
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    owner.setflags(write=False)
    arr.setflags(write=False)
    return arr.view()


def _as_locked_complex(entries, stacked: bool = False) -> np.ndarray:
    """Locked complex C-order copy of a finite square matrix, or of a stack of them."""
    mat = np.array(entries, dtype=complex, order="C")
    if mat.ndim != 2 + stacked or mat.shape[-2] != mat.shape[-1]:
        what = "stack of square matrices" if stacked else "square matrix"
        raise ValueError(f"entries must be a {what}, got shape {mat.shape}")
    if not np.isfinite(mat.view(float)).all():
        raise ValueError("entries must be finite (no NaN/Inf)")
    return _locked(mat)


class LocalOperator:
    """A dim x dim complex matrix acting on one tensor factor."""

    __slots__ = ("dim", "mat")

    def __init__(self, entries, dim: int | None = None):
        mat = _as_locked_complex(entries)
        if dim is None:
            dim = mat.shape[0]
        if dim != mat.shape[0]:
            raise ValueError(f"declared dim {dim} does not match matrix side {mat.shape[0]}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("LocalOperator is immutable")

    def __repr__(self):
        return f"LocalOperator(dim={self.dim})"

    @classmethod
    def _stack(cls, entries) -> list["LocalOperator"]:
        """One operator per matrix of an (n, d, d) stack, validated once as a whole."""
        stack = _as_locked_complex(entries, stacked=True)
        ops = []
        for mat in stack:
            op = object.__new__(cls)
            object.__setattr__(op, "dim", mat.shape[0])
            object.__setattr__(op, "mat", mat)
            ops.append(op)
        return ops

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LocalOperator":
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(mat, dim=int(data["dim"]))


class BipartiteOperator:
    """A (k*m) x (k*m) complex matrix with declared factor dimensions k, m."""

    __slots__ = ("dim_a", "dim_b", "mat")

    def __init__(self, entries, dim_a: int, dim_b: int):
        mat = _as_locked_complex(entries)
        dim_a, dim_b = int(dim_a), int(dim_b)
        if dim_a < 1 or dim_b < 1:
            raise ValueError("factor dimensions must be positive")
        if mat.shape[0] != dim_a * dim_b:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not equal dim_a*dim_b = {dim_a * dim_b}"
            )
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteOperator is immutable")

    def __repr__(self):
        return f"BipartiteOperator(dim_a={self.dim_a}, dim_b={self.dim_b})"

    @property
    def tensor4(self) -> np.ndarray:
        """Read-only view with axes (row_a, row_b, col_a, col_b)."""
        k, m = self.dim_a, self.dim_b
        return self.mat.reshape(k, m, k, m)

    def _permuted(self, axes: tuple[int, ...], dim_a: int, dim_b: int) -> "BipartiteOperator":
        """The operator on C^dim_a (x) C^dim_b whose 4-tensor is this one's with ``axes`` permuted.

        The entries are this operator's, already checked finite, so the result
        is locked without ``__init__``'s copy and check.
        """
        mat = _locked(_permute_slots(self.mat, self.dim_a, self.dim_b, axes))
        op = object.__new__(BipartiteOperator)
        object.__setattr__(op, "dim_a", dim_a)
        object.__setattr__(op, "dim_b", dim_b)
        object.__setattr__(op, "mat", mat)
        return op

    def to_json(self) -> dict:
        return {
            "dim_a": self.dim_a,
            "dim_b": self.dim_b,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "BipartiteOperator":
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return cls(mat, dim_a=int(data["dim_a"]), dim_b=int(data["dim_b"]))


Operator = Union[LocalOperator, BipartiteOperator]

_MEMO_SIZE = 8


class _ThreadMemo(threading.local):
    """Each thread's ``entries``: ``id(op) -> (op, {key: value})``, least recently used first."""

    def __init__(self):
        self.entries = OrderedDict()


_MEMO = _ThreadMemo()


def _cached(op: Operator, key: str, compute):
    """``compute()``, computed once per operator and key on this thread.

    The entry holds ``op`` itself, so ``id(op)`` cannot be reused while the
    entry exists.  Asking about an operator beyond the last ``_MEMO_SIZE``
    evicts the least recently used one with all its values.  Cached arrays
    are locked read-only.
    """
    memo = _MEMO.entries
    entry = memo.get(id(op))
    if entry is None:
        if len(memo) >= _MEMO_SIZE:
            memo.popitem(last=False)
        entry = memo[id(op)] = (op, {})
    else:
        memo.move_to_end(id(op))
    values = entry[1]
    if key not in values:
        value = compute()
        values[key] = _locked(value) if isinstance(value, np.ndarray) else value
    return values[key]


def _json_value(value):
    if isinstance(value, _JsonRecord):
        return {
            f.name: _json_value(getattr(value, f.name))
            for f in fields(value)
            if f.metadata.get("json", True)
        }
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "_asdict"):
        return {name: _json_value(v) for name, v in value._asdict().items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


class _JsonRecord:
    """Mixin giving a result dataclass its ``to_json``.

    The report's keys are the dataclass fields in declaration order, less any
    declared with ``metadata={"json": False}``.  Operators and nested records
    become their own ``to_json`` dicts, named tuples dicts of their fields,
    arrays, lists and tuples lists; any other value passes through unchanged.
    """

    to_json = _json_value


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending) and matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Norms(NamedTuple):
    trace_norm: float
    frobenius_norm: float
    operator_norm: float


class PsdReport(NamedTuple):
    is_psd: bool
    min_eigenvalue: float


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, bit for bit equal to numpy's ``kron``.

    It is the same broadcast elementwise multiply, without the general-rank
    shape handling that dominates numpy's cost at sides <= 36.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def _permute_slots(mat: np.ndarray, k: int, m: int, axes: tuple[int, ...]) -> np.ndarray:
    """A (k*m) x (k*m) matrix with the axes of its (k, m, k, m) tensor permuted."""
    side = k * m
    return mat.reshape(k, m, k, m).transpose(axes).reshape(side, side)


def kron(a: LocalOperator, b: LocalOperator) -> BipartiteOperator:
    """Tensor product a (x) b under the row-major composite index."""
    return BipartiteOperator(_kron(a.mat, b.mat), dim_a=a.dim, dim_b=b.dim)


def _congruence(a: np.ndarray, b: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The local congruence (a (x) b) mat (a (x) b)^*."""
    big = _kron(a, b)
    return big @ mat @ big.conj().T


def _require_square(gamma: BipartiteOperator, what: str) -> int:
    """Raise DimensionMismatch unless both factors of gamma have one dimension k; return k."""
    if gamma.dim_a != gamma.dim_b:
        raise DimensionMismatch(
            f"{what} requires equal factor dimensions, got ({gamma.dim_a}, {gamma.dim_b})"
        )
    return gamma.dim_a


def _hermitian_ok(defect: float, scale: float, tols: Tolerances) -> bool:
    """The Hermiticity verdict: ``defect <= tols.herm * scale`` (scale floored at tiny)."""
    return bool(defect <= tols.herm * max(scale, np.finfo(float).tiny))


def _psd_ok(min_eig: float, op_norm: float, tols: Tolerances) -> bool:
    """The PSD verdict: ``min_eig >= -tols.psd * op_norm``."""
    return bool(min_eig >= -tols.psd * op_norm)


def _require_hermitian(mat: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Check the relative Hermiticity defect and return the Hermitian part."""
    defect = np.linalg.norm(mat - mat.conj().T)
    scale = np.linalg.norm(mat)
    if not _hermitian_ok(defect, scale, tols):
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {tols.herm:.1e} * ||a|| = {tols.herm * scale:.3e}"
        )
    return 0.5 * (mat + mat.conj().T)


def _require_psd(a: Operator, tols: Tolerances) -> None:
    """Raise NotPSD unless ``psd_check`` accepts ``a``."""
    report = psd_check(a, tols)
    if not report.is_psd:
        raise NotPSD(f"input has min eigenvalue {report.min_eigenvalue:.3e}")


def _boundary_step(whiten: np.ndarray, direction: np.ndarray) -> float | None:
    """The step t at which x_pd + t D, from x_pd = L L^* PD, first turns singular.

    With ``whiten`` = L^-1 and M = L^-1 D L^-*, x_pd + t D = L (Id + t M) L^*,
    so t = -1/mu for mu the smallest eigenvalue of M (t > 0, tried first) or
    the largest (t < 0); None when neither side crosses.
    """
    mu = _herm_eigvalsh(whiten @ direction @ whiten.conj().T)
    if mu[0] < 0:
        return -1.0 / mu[0]
    if mu[-1] > 0:
        return -1.0 / mu[-1]
    return None


def _herm_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``mat``, or of each matrix in a stack."""
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().swapaxes(-1, -2)))


def _spectrum(a: Operator) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``a``'s matrix, memoized."""
    return _cached(a, "spectrum", lambda: _herm_eigvalsh(a.mat))


def _herm_support(mat: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs (ascending) of the Hermitian part of ``mat`` and its rank cutoff.

    Eigenvalues above the cutoff ``rank_tol * max(largest eigenvalue, tiny)``
    span the numerical support; the rest span the kernel.  A matrix with no
    positive eigenvalue has rank zero.
    """
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return w, v, rank_tol * max(float(w[-1]), np.finfo(float).tiny)


def _partial_trace(t4: np.ndarray, keep: str) -> np.ndarray:
    """Reduced matrix on factor ``keep`` ("a" or "b") of a (k, m, k, m) tensor."""
    return np.einsum("ijpj->ip" if keep == "a" else "ijiq->jq", t4)


def _clusters(w: np.ndarray, width: float) -> list[range]:
    """Index ranges of a sorted spectrum's clusters.

    A new cluster starts wherever two consecutive eigenvalues differ by more
    than ``width``.
    """
    cuts = (np.nonzero(np.abs(np.diff(w)) > width)[0] + 1).tolist()
    bounds = [0, *cuts, len(w)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _pivot_phases(rows: np.ndarray) -> np.ndarray:
    """The phase conj(p)/|p| that makes each row's pivot p, its first entry
    within a relative 1e-12 of its largest modulus, real positive.  Mirror
    entries of equal modulus would make a plain argmax follow roundoff."""
    mags = np.abs(rows)
    first_top = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=1, keepdims=True), axis=1)
    pivots = rows[np.arange(len(rows)), first_top]
    # scalar arithmetic per pivot: numpy's array abs and division round differently
    return np.array([np.conj(p) / abs(p) if abs(p) > 0 else 1.0 for p in pivots])


def hermitian_eig(a: Operator, tols: Tolerances = DEFAULT) -> SpectralData:
    """Eigendecomposition of a Hermitian operator, deterministic for fixed input.

    Eigenvalues are sorted descending.  Each eigenvector's phase is fixed by
    ``_pivot_phases`` (a tie-aware largest-modulus pivot), and within degenerate
    clusters the columns are ordered lexicographically by their rounded
    coordinates, so repeated runs (and golden files) agree bit for bit.  A
    cluster's width is ``1e-12 * max|eigenvalue|``, so it scales with the
    input.
    """
    mat = _require_hermitian(np.asarray(a.mat), tols)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if w.size:
        v *= _pivot_phases(v.T)

        # Reorder inside degenerate clusters only; the eigenvalue order is kept.
        scale = max(abs(float(w[0])), abs(float(w[-1])), np.finfo(float).tiny)
        for cluster in _clusters(w, 1e-12 * scale):
            if len(cluster) > 1:
                keys = [
                    tuple(np.round(np.concatenate([v[:, c].real, v[:, c].imag]), 10))
                    for c in cluster
                ]
                order = sorted(range(len(cluster)), key=lambda i: keys[i])
                v[:, cluster] = v[:, [cluster[i] for i in order]]
    return SpectralData(eigenvalues=_locked(w), eigenvectors=_locked(v))


def norms(a: Operator) -> Norms:
    """Trace, Frobenius, and operator norms from the (memoized) singular values."""
    s = _cached(a, "singular_values", lambda: np.linalg.svd(a.mat, compute_uv=False))
    return Norms(
        trace_norm=float(np.sum(s)),
        frobenius_norm=float(np.sqrt(np.sum(s * s))),
        operator_norm=float(s[0]),
    )


def psd_check(a: Operator, tols: Tolerances = DEFAULT) -> PsdReport:
    """Decide positive semidefiniteness of a Hermitian operator.

    The verdict is ``min_eig >= -tols.psd * operator_norm``, so it does not
    change when the operator is scaled.
    """
    _require_hermitian(a.mat, tols)
    w = _spectrum(a)
    min_eig = float(w[0])
    op_norm = float(np.max(np.abs(w))) if w.size else 0.0
    return PsdReport(is_psd=_psd_ok(min_eig, op_norm, tols), min_eigenvalue=min_eig)


def inv_sqrt_psd(a: LocalOperator, tols: Tolerances = DEFAULT) -> LocalOperator:
    """Pseudo-inverse square root of a PSD operator.

    Eigenvalues above ``tols.rank * max_eigenvalue`` map to 1/sqrt(eig), the
    rest to zero, so the result restricted to the kernel vanishes.
    """
    _require_hermitian(a.mat, tols)
    w, v, cut = _herm_support(a.mat, tols.rank)
    if not np.any(w > cut):
        raise ZeroMatrix("all eigenvalues fall below the rank threshold")
    if not _psd_ok(w[0], float(w[-1]), tols):
        raise NotPSD(f"negative eigenvalue {w[0]:.3e} in inv_sqrt_psd input")
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, np.finfo(float).tiny)), 0.0)
    out = (v * inv) @ v.conj().T
    return LocalOperator(0.5 * (out + out.conj().T), dim=a.dim)
