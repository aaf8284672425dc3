"""The group of linear index contractions on bipartite operators.

Each map permutes the four tensor slots of gamma viewed as
``gamma[(i,j),(p,q)]`` with slots (1,2,3,4) = (row_a, col_a, row_b, col_b).
They are realized as pure index permutations of the underlying 4-tensor, so
apart from products with the flip operator every identity they satisfy is
exact to the bit.

Entry rules under the row-major composite index:

    partial_transpose:  out[(i,j),(p,q)] = g[(i,q),(p,j)]
    left_transpose:     out[(i,j),(p,q)] = g[(p,j),(i,q)]
    realign:            out[(i,j),(p,q)] = g[(i,p),(j,q)]
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .tensor_core import BipartiteOperator, _cached, _require_square

__all__ = [
    "partial_transpose",
    "left_transpose",
    "realign",
    "flip",
    "maximally_entangled_vector",
    "star_product",
    "contraction_by_permutation",
]

# Natural axis of each slot in mat.reshape(k, m, k, m) = (row_a, row_b, col_a, col_b).
_SLOT_AXIS = {1: 0, 2: 2, 3: 1, 4: 3}


def _tensor_axes(sig: tuple[int, ...]) -> tuple[int, ...]:
    """The 4-tensor transpose realizing the slot permutation ``sig`` (one-line, 1-based)."""
    axes = [0, 0, 0, 0]
    for s, image in enumerate(sig, start=1):
        axes[_SLOT_AXIS[s]] = _SLOT_AXIS[image]
    return tuple(axes)


# The 4-tensor transpose of each of the 24 contractions, keyed by sigma.
_AXES = {sig: _tensor_axes(sig) for sig in permutations((1, 2, 3, 4))}
_PARTIAL_TRANSPOSE = _AXES[1, 2, 4, 3]
_LEFT_TRANSPOSE = _AXES[2, 1, 3, 4]
_REALIGN = _AXES[1, 3, 2, 4]


def partial_transpose(gamma: BipartiteOperator) -> BipartiteOperator:
    """Transpose the second factor (slot swap 3<->4); an involution."""
    return _cached(
        gamma,
        "partial_transpose",
        lambda: gamma._permuted(_PARTIAL_TRANSPOSE, gamma.dim_a, gamma.dim_b),
    )


def left_transpose(gamma: BipartiteOperator) -> BipartiteOperator:
    """Transpose the first factor (slot swap 1<->2); an involution."""
    return gamma._permuted(_LEFT_TRANSPOSE, gamma.dim_a, gamma.dim_b)


def realign(gamma: BipartiteOperator) -> BipartiteOperator:
    """Realignment map (slot swap 2<->3): out[(i,j),(p,q)] = g[(i,p),(j,q)].

    Sends a (x) b^t (x) c (x) d^t to a (x) c^t (x) b (x) d^t, is an involution,
    and preserves the Frobenius norm.  Requires equal factor dimensions.
    """
    k = _require_square(gamma, "realign")
    return _cached(gamma, "realign", lambda: gamma._permuted(_REALIGN, k, k))


def maximally_entangled_vector(k: int) -> np.ndarray:
    """The unnormalized vector sum_i e_i (x) e_i in C^k (x) C^k."""
    return np.eye(k, dtype=complex).reshape(-1)


def flip(k: int) -> BipartiteOperator:
    """Swap operator F on C^k (x) C^k: F (a (x) b) = b (x) a.

    F is the partial transpose of the rank-one projector on the maximally
    entangled vector; it is real symmetric with F^2 = Id, and conjugation by
    F exchanges the tensor factors of any operator.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    eye = np.eye(k)
    mat = np.einsum("iq,jp->ijpq", eye, eye).reshape(k * k, k * k)
    return BipartiteOperator(mat, dim_a=k, dim_b=k)


def star_product(gamma: BipartiteOperator, delta: BipartiteOperator) -> BipartiteOperator:
    """Generalized Hadamard product contracting the inner tensor factors.

    For gamma = sum_i A_i (x) B_i on C^m (x) C^k and delta = sum_j C_j (x) D_j
    on C^k (x) C^s the result is sum_ij A_i (x) D_j * tr(B_i C_j^t), living on
    C^m (x) C^s.  Equivalently it is the sandwich
    (Id (x) u^t (x) Id)(gamma (x) delta)(Id (x) u (x) Id) with u the
    maximally entangled vector, so it maps PSD pairs to PSD results.
    """
    if gamma.dim_b != delta.dim_a:
        raise DimensionMismatch(
            f"inner dimensions disagree: gamma acts on (.,{gamma.dim_b}), "
            f"delta on ({delta.dim_a},.)"
        )
    m, s = gamma.dim_a, delta.dim_b
    out = np.einsum("aibj,icjd->acbd", gamma.tensor4, delta.tensor4).reshape(m * s, m * s)
    return BipartiteOperator(out, dim_a=m, dim_b=s)


def contraction_by_permutation(sigma: Sequence[int], gamma: BipartiteOperator) -> BipartiteOperator:
    """Apply one of the 24 slot-permutation contractions.

    ``sigma`` is given in one-line notation, 1-based, listing the images
    (sigma(1), sigma(2), sigma(3), sigma(4)): a product operator
    v1 v2^t (x) v3 v4^t maps to the product operator whose slot s holds the
    vector from slot sigma(s).  The identity returns gamma unchanged,
    (1,2,4,3) is the partial transpose, (1,3,2,4) the realignment, and
    (1,4,3,2) right-multiplication by the flip operator.  Permutations that
    mix the two factors require k = m.
    """
    sig = tuple(int(x) for x in sigma)
    axes = _AXES.get(sig)
    if axes is None:
        raise ValueError(f"sigma must be a permutation of (1,2,3,4), got {sig}")

    k, m = gamma.dim_a, gamma.dim_b
    slot_dim = (None, k, k, m, m)
    out_a, out_b = slot_dim[sig[0]], slot_dim[sig[2]]
    if out_a != slot_dim[sig[1]] or out_b != slot_dim[sig[3]]:
        raise DimensionMismatch(
            f"permutation {sig} mixes factors of unequal dimensions ({k}, {m})"
        )
    return gamma._permuted(axes, out_a, out_b)
