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
``reduced_b``, and by key ``norms`` (the ``Norms`` record), ``hermiticity``
(||a - a^*||_F and ||a||_F), ``spectrum`` (the ascending spectrum of the
Hermitian part; with ``hermiticity`` behind the ``_psd`` verdict, the
state's rank in ``reducibility`` and an exactly Hermitian operator's
``norms``), ``svd`` (the full SVD u, s, vh; any other operator's ``norms``,
and for R(gamma) the Schmidt decomposition) and ``unit`` (``_unit_form``'s
trace-normalized form).  The memo is thread-local and bounded: it holds the last
``_MEMO_SIZE`` operators asked about and evicts the least recently used, so
operators that the caller keeps alive do not keep their derived matrices
alive too.  A cached value is the one the same routine computes on the same
bytes, so every output keeps its bytes whether the memo is cold or warm.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotPSD
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


class Operator:
    """Immutable base of the operators: ``mat``, a locked complex matrix, and
    the dimensions named ``_DIMS``, read through properties."""

    __slots__ = ("mat", "_dims")
    _DIMS: tuple[str, ...]

    @classmethod
    def _wrap(cls, mat: np.ndarray, dims: tuple[int, ...]):
        """An operator around a locked matrix already checked finite: no copy, no check."""
        op = object.__new__(cls)
        object.__setattr__(op, "mat", mat)
        object.__setattr__(op, "_dims", dims)
        return op

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        dims = ", ".join(f"{name}={d}" for name, d in zip(self._DIMS, self._dims))
        return f"{type(self).__name__}({dims})"

    def to_json(self) -> dict:
        dims = dict(zip(self._DIMS, self._dims))
        return {**dims, "re": self.mat.real.tolist(), "im": self.mat.imag.tolist()}

    @classmethod
    def from_json(cls, data: dict):
        """The operator of a ``to_json`` record: integer dimensions, numeric
        entries.  numpy reads a boolean among numbers as one, so each entry's
        own type is checked as well."""
        re, im, dims = np.asarray(data["re"]), np.asarray(data["im"]), [data[name] for name in cls._DIMS]
        numeric = re.dtype.kind in "iuf" and im.dtype.kind in "iuf"
        entries = (x for part in ("re", "im") for x in np.asarray(data[part], dtype=object).flat)
        if not numeric or any(type(x) is bool for x in entries) or any(type(d) is not int for d in dims):
            raise TypeError("dimensions must be integers and entries numbers")
        return cls(re + 1j * im, *dims)


class LocalOperator(Operator):
    """A dim x dim complex matrix acting on one tensor factor."""

    __slots__ = ()
    _DIMS = ("dim",)
    dim = property(lambda self: self._dims[0])

    def __init__(self, entries, dim: int | None = None):
        mat = _as_locked_complex(entries)
        if dim is None:
            dim = mat.shape[0]
        if dim != mat.shape[0]:
            raise ValueError(f"declared dim {dim} does not match matrix side {mat.shape[0]}")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_dims", (int(dim),))

    @classmethod
    def _stack(cls, entries) -> list["LocalOperator"]:
        """One operator per matrix of an (n, d, d) stack, validated once as a whole."""
        stack = _as_locked_complex(entries, stacked=True)
        wrap, dims = cls._wrap, (stack.shape[1],)
        return [wrap(mat, dims) for mat in stack]


class BipartiteOperator(Operator):
    """A (k*m) x (k*m) complex matrix with declared factor dimensions k, m."""

    __slots__ = ()
    _DIMS = ("dim_a", "dim_b")
    dim_a = property(lambda self: self._dims[0])
    dim_b = property(lambda self: self._dims[1])

    def __init__(self, entries, dim_a: int, dim_b: int):
        mat = _as_locked_complex(entries)
        dim_a, dim_b = int(dim_a), int(dim_b)
        if dim_a < 1 or dim_b < 1:
            raise ValueError("factor dimensions must be positive")
        if mat.shape[0] != dim_a * dim_b:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not equal dim_a*dim_b = {dim_a * dim_b}"
            )
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_dims", (dim_a, dim_b))

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
        mat = _locked(_permute_slots(self.mat, *self._dims, axes))
        return self._wrap(mat, (dim_a, dim_b))


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


def _sum_of_products(terms, k: int, m: int) -> np.ndarray:
    """sum_i w_i a_i (x) b_i over the (w_i, a_i, b_i) in ``terms``, with local
    operators a_i on C^k and b_i on C^m, accumulated in the given order."""
    total = np.zeros((k * m, k * m), dtype=complex)
    for w, a, b in terms:
        total += w * _kron(a.mat, b.mat)
    return total


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


@np.errstate(over="ignore")
def _frobenius(mat: np.ndarray) -> float:
    """The Frobenius norm of ``mat``: numpy's where that lies in (1e-140, inf).

    Elsewhere numpy's sum of squares may underflow or overflow, so it is the
    norm of ``mat`` / 2^e, 2^e the power of two above its largest entry (an
    exact scaling), times 2^e; inf only if the norm overflows, with no warning.
    """
    nrm = float(np.linalg.norm(mat))
    # a zero matrix, such as the Hermiticity defect of a Hermitian input, is common
    if 1e-140 < nrm < math.inf or not mat.any():
        return nrm
    parts = (mat.real, mat.imag)
    e = math.frexp(max(float(np.max(np.abs(p), initial=0.0)) for p in parts))[1]
    small = math.hypot(*(float(np.linalg.norm(np.ldexp(p, -e))) for p in parts))
    return small * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)  # 2^e in halves: 2^1024 is no float


def _over_trace(mat: np.ndarray, trace: float) -> np.ndarray:
    """``mat / trace`` for a nonzero trace, at any scale.  numpy divides a
    complex matrix by a real number through its reciprocal, which overflows
    for a subnormal trace; both are then first scaled by an exact power of
    two, in two halves (2^1075 is no float)."""
    if abs(trace) >= np.finfo(float).tiny:
        return mat / trace
    e = 1 - math.frexp(trace)[1]  # 2^e brings |trace| to [1, 2)
    for half in (e // 2, e - e // 2):
        mat, trace = mat * 2.0**half, trace * 2.0**half
    return mat / trace


def _hermiticity(a: Operator) -> tuple[float, float]:
    """(||a - a^*||_F, ||a||_F), measured once per operator."""
    return _cached(a, "hermiticity", lambda: (_frobenius(a.mat - a.mat.conj().T), _frobenius(a.mat)))


def _require_hermitian(a: Operator, tols: Tolerances) -> None:
    """Raise NotHermitian unless the relative Hermiticity defect is within tolerance."""
    defect, scale = _hermiticity(a)
    if not _hermitian_ok(defect, scale, tols):
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {tols.herm:.1e} * ||a|| = {tols.herm * scale:.3e}"
        )


class _Psd(NamedTuple):
    scale: float  # ||a||_F
    op_norm: float  # the largest |eigenvalue| of a's Hermitian part
    min_eigenvalue: float
    ok: bool  # a is Hermitian PSD, which every class flag presupposes


def _psd(a: Operator, tols: Tolerances) -> _Psd:
    """The Hermitian-PSD verdict on ``a`` (``psd_check``'s rule), from its
    memoized ``_hermiticity`` and ``_spectrum``.  Every gate reads it."""
    defect, scale = _hermiticity(a)
    w = _spectrum(a)
    min_eig, op_norm = float(w[0]), float(np.max(np.abs(w)))
    ok = _hermitian_ok(defect, scale, tols) and _psd_ok(min_eig, op_norm, tols)
    return _Psd(scale, op_norm, min_eig, ok)


def _require_psd(a: Operator, tols: Tolerances) -> None:
    """Raise NotPSD unless ``psd_check`` accepts ``a``."""
    report = psd_check(a, tols)
    if not report.is_psd:
        raise NotPSD(f"input has min eigenvalue {report.min_eigenvalue:.3e}")


def _unit_form(gamma: BipartiteOperator) -> tuple[BipartiteOperator, float]:
    """Gamma's Hermitian part over its trace, and the trace, computed once per
    operator and checked for nothing; the zero matrix is divided by 1."""

    def form():
        mat = 0.5 * (gamma.mat + gamma.mat.conj().T)
        trace = float(np.trace(mat).real)
        return BipartiteOperator(_over_trace(mat, trace or 1.0), gamma.dim_a, gamma.dim_b), trace

    return _cached(gamma, "unit", form)


def _unit(gamma: BipartiteOperator, tols: Tolerances, what: str) -> tuple[BipartiteOperator, float]:
    """``_unit_form`` of a state admitted by ``_require_square`` and ``_psd``'s verdict."""
    _require_square(gamma, what)
    _require_psd(gamma, tols)
    return _unit_form(gamma)


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


def _rank_cut(w: np.ndarray, rank_tol: float) -> float:
    """The rank cutoff ``rank_tol * max(largest eigenvalue, tiny)`` of an
    ascending spectrum ``w``: eigenvalues above it count towards the rank, so
    a matrix with no positive eigenvalue has rank zero."""
    return rank_tol * max(float(w[-1]), np.finfo(float).tiny)


def _herm_support(mat: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs (ascending) of the Hermitian part of ``mat`` and its rank cutoff.

    Eigenvalues above the cutoff (``_rank_cut``) span the numerical support;
    the rest span the kernel.
    """
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return w, v, _rank_cut(w, rank_tol)


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
    within a relative 1e-12 of its largest modulus, real positive; 1 for a
    zero pivot.  Mirror entries of equal modulus would make a plain argmax
    follow roundoff.  Real rows give real phases."""
    mags = np.abs(rows)
    first_top = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=1, keepdims=True), axis=1)
    pivots = rows[np.arange(len(rows)), first_top]
    # hypot, as a complex scalar's abs: numpy's complex array abs rounds differently
    mods = np.hypot(pivots.real, pivots.imag)
    nonzero = mods > 0
    return np.where(nonzero, np.conj(pivots) / np.where(nonzero, mods, 1.0), 1.0)


def hermitian_eig(a: Operator, tols: Tolerances = DEFAULT) -> SpectralData:
    """Eigendecomposition of a Hermitian operator, deterministic for fixed input.

    Eigenvalues are sorted descending.  Each eigenvector's phase is fixed by
    ``_pivot_phases`` (a tie-aware largest-modulus pivot), and within degenerate
    clusters the columns are ordered lexicographically by their rounded
    coordinates, so repeated runs (and golden files) agree bit for bit.  A
    cluster's width is ``1e-12 * max|eigenvalue|``, so it scales with the
    input.
    """
    _require_hermitian(a, tols)
    try:
        w, v, _ = _herm_support(a.mat, tols.rank)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    if w.size:
        v *= _pivot_phases(v.T)

        # Reorder inside degenerate clusters only; the eigenvalue order is kept.
        scale = max(abs(float(w[0])), abs(float(w[-1])), np.finfo(float).tiny)
        for cluster in _clusters(w, 1e-12 * scale):
            if len(cluster) > 1:
                cols = v[:, cluster]
                # a stable sort with the first coordinate as primary key, -0.0 equal to 0.0
                keys = np.round(np.concatenate([cols.real, cols.imag]), 10)
                v[:, cluster] = cols[:, np.lexsort(keys[::-1])]
    return SpectralData(eigenvalues=_locked(w), eigenvectors=_locked(v))


def _svd(a: Operator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (u, s, vh) of ``a``'s matrix, memoized, each factor locked."""
    return _cached(a, "svd", lambda: tuple(_locked(x) for x in np.linalg.svd(a.mat)))


def norms(a: Operator) -> Norms:
    """Trace, Frobenius and operator norms, memoized.

    The singular values of an exactly Hermitian operator (a zero
    ``_hermiticity`` defect) are the moduli of its memoized ``_spectrum``, so
    it takes no SVD; any other operator's come from ``_svd``, the one
    factorization that ``schmidt`` reads too.  So does an operator whose
    entries reach half the largest float, where the spectrum's a + a^*
    would overflow.  The Frobenius norm is ``_hermiticity``'s, measured on
    the matrix.
    """

    def measure():
        defect, frobenius = _hermiticity(a)
        spectral = defect == 0.0 and 2.0 * frobenius < math.inf  # every entry of a + a^* is finite
        s = np.abs(_spectrum(a)) if spectral else _svd(a)[1]
        return Norms(trace_norm=float(np.sum(s)), frobenius_norm=frobenius, operator_norm=float(s.max()))

    return _cached(a, "norms", measure)


def psd_check(a: Operator, tols: Tolerances = DEFAULT) -> PsdReport:
    """Decide positive semidefiniteness of a Hermitian operator (``_psd``).

    The verdict is ``min_eig >= -tols.psd * operator_norm``, so it does not
    change when the operator is scaled.
    """
    _require_hermitian(a, tols)
    psd = _psd(a, tols)
    return PsdReport(is_psd=psd.ok, min_eigenvalue=psd.min_eigenvalue)
