"""Complete-reducibility splitting, rank bounds, and separable extraction.

For states in the triad classes, every PSD eigenvector of the composite
contraction map with a nontrivial kernel splits the state into two blocks
with orthogonal local supports; recursive splits give weakly irreducible
components.  A minimal-rank state (rank equal to its larger reduced rank) is
separable, with product terms read off in one closed-form step: whiten the
marginal of larger rank, and the images of the other factor's Hermitian
basis share one eigenbasis, the product vectors of that side.  The top
eigenspace of the composite map of the filter normal form decides, for any
state, whether its contraction map is fully indecomposable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .criteria import TriadClassification, classify
from .errors import (
    CompleteReducibilityViolation,
    FullRankEigenvector,
    MarginalRankDeficient,
    PreconditionNotMet,
    ZeroMatrix,
)
from .filters import _scaling_engine
from .schmidt_maps import (
    _identity_split,
    fg_apply,
    fg_matrix,
    g_apply,
    hermitian_basis,
    hermitian_from_coords,
    schmidt,
)
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    _boundary_step,
    _cached,
    _clusters,
    _congruence,
    _herm_support,
    _JsonRecord,
    _kron,
    _locked,
    _partial_trace,
    _permute_slots,
    _require_psd,
    _require_square,
    norms,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "PsdEigenvectorResult",
    "ProbeResult",
    "SplitCertificate",
    "DecompositionTree",
    "EqualCoefficientReport",
    "RankBoundReport",
    "ProductTerm",
    "SeparableDecomposition",
    "ExtractionFailure",
    "find_psd_eigenvector",
    "fully_indecomposable_probe",
    "split",
    "decompose",
    "equal_schmidt_certificate",
    "rank_bound_check",
    "minimal_rank_extract",
]


# ---------------------------------------------------------------------------
# PSD eigenvector search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdEigenvectorResult:
    """Outcome of ``find_psd_eigenvector``: a singular PSD eigenvector ``x`` of
    the top eigenvalue cluster, or ``found=False`` (which that function's
    docstring qualifies) with the identity's normalized projection onto the
    cluster as ``full_rank_witness``."""

    found: bool
    x: LocalOperator | None
    eigenvalue: float | None
    full_rank_witness: LocalOperator | None = None


def _unit_psd(mat: np.ndarray, rank_tol: float) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Nearest PSD matrix to the Hermitian part of ``mat``, Frobenius-normalized,
    from one eigensolve: that matrix, its rank (eigenvalues above ``rank_tol``
    times the largest), and its ascending spectrum and eigenvectors."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    nrm = np.linalg.norm(out) or 1.0
    rank = int(np.sum(w > rank_tol * max(float(w[-1]), np.finfo(float).tiny)))
    return out / nrm, rank, w / nrm, v


def _eigen_residual(gamma: BipartiteOperator, x: np.ndarray) -> tuple[float, float]:
    """Eigenvalue estimate and residual of x under the composite map."""
    y = fg_apply(gamma, x).mat
    lam = float(np.real(np.trace(x.conj().T @ y)))
    return lam, float(np.linalg.norm(y - lam * x))


def _trace_normalized(gamma: BipartiteOperator) -> tuple[BipartiteOperator, float]:
    """gamma / tr gamma, and tr gamma (1 for the zero matrix).  The composite
    map is quadratic in gamma; on the result it neither overflows nor underflows."""
    trace = float(np.trace(gamma.mat).real) or 1.0
    return BipartiteOperator(gamma.mat / trace, gamma.dim_a, gamma.dim_b), trace


def find_psd_eigenvector(
    gamma: BipartiteOperator, tols: Tolerances = DEFAULT
) -> PsdEigenvectorResult:
    """Search the top eigenvalue cluster of the composite contraction map for
    a PSD eigenvector with a kernel.

    The search runs on gamma / tr gamma, so that it does not depend on the
    input's scale; ``eigenvalue`` is reported in the input's scale, (tr
    gamma)^2 times that of the normalized map.  One dense eigensolve of the
    Hermitian-basis matrix gives the clusters.  The candidate is the
    identity's projection onto the top cluster, the limit of power iteration
    from the identity, which is PSD (Evans and Hoegh-Krohn).  When it is
    positive definite and the cluster has dimension at least 2, the search
    walks from it along each of the cluster's other directions to the PSD
    boundary; every crossing point is a singular PSD element of the cluster.
    Each candidate is clipped to PSD, normalized and rank-counted from one
    eigensolve, whose eigenpairs also whiten the walks' starting point.
    ``found=False`` certifies that the top cluster (width 1e-8 *
    lambda_max) holds no singular PSD element.  For triad-class inputs that
    is complete, since a state that splits has one there (complete
    reducibility, Cariello); other inputs are not searched below the top
    cluster.  A 1 x 1 input has no candidate with a nontrivial kernel and
    returns not-found at once.
    """
    k = _require_square(gamma, "the eigenvector search")
    _require_psd(gamma, tols)
    if k == 1:
        return PsdEigenvectorResult(
            found=False, x=None, eigenvalue=None, full_rank_witness=LocalOperator(np.ones((1, 1)))
        )

    gamma, trace = _trace_normalized(gamma)
    w, v = np.linalg.eigh(fg_matrix(gamma, tols).matrix)
    w = w[::-1]
    v = v[:, ::-1]
    lam_scale = max(float(w[0]), np.finfo(float).tiny)
    accept_res = 1e-8 * max(lam_scale, 1e-30)

    def _accept(cand: np.ndarray, rank: int) -> PsdEigenvectorResult | None:
        if not 0 < rank < k:
            return None
        lam, res = _eigen_residual(gamma, cand)
        if res > accept_res:
            return None
        return PsdEigenvectorResult(found=True, x=LocalOperator(cand), eigenvalue=lam * trace * trace)

    # the identity's projection is nonzero: the top eigenspace holds a PSD
    # element of positive trace
    top = v[:, _clusters(w, 1e-8 * lam_scale)[0]]
    coords, others = _identity_split(top)
    witness, rank, wx, vx = _unit_psd(hermitian_from_coords(coords, k), tols.rank)
    hit = _accept(witness, rank)
    if hit is not None:
        return hit

    if top.shape[1] >= 2 and rank == k:
        whiten = vx.conj().T / np.sqrt(wx)[:, None]
        # the cluster's directions orthogonal to the witness each have
        # eigenvalues of both signs, so each walk crosses the boundary
        for d in others.T:
            if np.linalg.norm(d) < 1e-8:
                continue
            direction = hermitian_from_coords(d, k)
            t = _boundary_step(whiten, direction)
            hit = None if t is None else _accept(*_unit_psd(witness + t * direction, tols.rank)[:2])
            if hit is not None:
                return hit

    return PsdEigenvectorResult(
        found=False, x=None, eigenvalue=None, full_rank_witness=LocalOperator(witness)
    )


# ---------------------------------------------------------------------------
# Full-indecomposability verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult(_JsonRecord):
    verdict: str  # "fully_indecomposable" | "decomposable_witness" | "inconclusive"
    witness: tuple[LocalOperator, LocalOperator] | None


def fully_indecomposable_probe(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> ProbeResult:
    """Decide whether the contraction map g = g_apply(gamma, .) is fully
    indecomposable: rank g(X) > rank X for every PSD X with 0 < rank X < k.

    Otherwise a ``decomposable_witness`` (X, Y) is returned once its ranks
    check: such an X with rank g(X) <= rank X, counting the eigenvalues of
    g(X) above tols.rank * ||gamma|| * lambda_max(X), and Y the kernel
    projector of g(X).  The probe runs on gamma / tr gamma, so its verdict
    does not depend on the input's scale.  The spectral projectors (onto
    each eigenvalue cluster, and the positive and negative parts) of the
    composite map's eigenvectors are scanned first, which settles at once
    inputs the filter cannot scale, such as diag(1, 1, 0, 1).  Then the general filter gives
    delta = (Fa (x) Fb) gamma (Fa (x) Fb)^* with marginals Id/k, and
    g_delta(X) = Fb g_gamma(Fa^* X Fa) Fb^*, so ranks carry over through
    X -> Fa^* X Fa.  The top cluster (width 1e-8 * lambda_max) of delta's
    composite map decides; if it is wider than one eigenvalue,
    ``find_psd_eigenvector(delta)`` gives X.  If gamma_A is singular, its
    kernel projector P has g(P) = 0.  ``inconclusive``: no normal form, and
    no witness from P or the scans of gamma and of the filter's last
    iterate; or, in floating point only, a wide top cluster whose X fails.

    Why (Cariello, IEEE TIT 2016; Gurvits, JCSS 2004): T = k g_delta and T*
    are positive, unital and trace preserving, so T(X) is majorized by X for
    Hermitian X (Ando, 1989).  So ||T(X)||_2 <= ||X||_2, T*T has top
    eigenvalue 1 at Id, and rank T(X) >= rank X for PSD X, with equality
    exactly when it holds for the support projector P of X.  (=>) If
    rank T(P) = rank P = r < k, the r nonzero eigenvalues of T(P) are at
    most 1 and sum to r, so T(P) = Q is a projector; T*(Q) <= Id and
    tr(T*(Q) P) = tr(Q T(P)) = r = tr T*(Q) give T*(Q) = P: T*T fixes P and
    Id, so its top eigenvalue is not simple.  (<=) If it is not simple, the
    walk from Id along another Hermitian element of the eigenspace meets the
    PSD boundary at a singular X there; ||T(X)||_2^2 = tr(X T*T(X)) =
    ||X||_2^2 with T(X) majorized by X forces equal spectra (the sum of
    squares is strictly Schur-convex), so rank T(X) = rank X.
    """
    _require_psd(gamma, tols)
    k = _require_square(gamma, "the probe")
    if k == 1:  # no X has 0 < rank X < 1
        return ProbeResult("fully_indecomposable", None)
    gamma, _ = _trace_normalized(gamma)  # ranks, and so witnesses, do not depend on scale

    def witness(x: np.ndarray) -> ProbeResult | None:
        x = 0.5 * (x + x.conj().T)
        wx, _, cut_x = _herm_support(x, tols.rank)
        wg, vg, _ = _herm_support(g_apply(gamma, x).mat, tols.rank)
        kernel = vg[:, wg <= tols.rank * norms(gamma).operator_norm * wx[-1]]  # of g(X)
        rank_x = int(np.sum(wx > cut_x))
        if not 0 < rank_x < k or k - kernel.shape[1] > rank_x:
            return None
        y = kernel @ kernel.conj().T
        return ProbeResult("decomposable_witness", (LocalOperator(x), LocalOperator(y)))

    def scan(state: BipartiteOperator, fa: np.ndarray) -> ProbeResult | None:
        for coords in np.linalg.eigh(fg_matrix(state, tols).matrix)[1].T:
            w, v = np.linalg.eigh(hermitian_from_coords(coords, k))
            floor = 1e-8 * float(np.max(np.abs(w)))
            groups = [c for c in _clusters(w, floor) if abs(w[c[0]]) > floor]
            for c in groups + [np.flatnonzero(sign * w > floor) for sign in (1.0, -1.0)]:
                hit = witness(fa.conj().T @ v[:, c] @ v[:, c].conj().T @ fa)
                if hit is not None:
                    return hit
        return None

    hit = scan(gamma, np.eye(k))
    if hit is not None:
        return hit
    try:
        run = _scaling_engine(0.5 * (gamma.mat + gamma.mat.conj().T), k, "general", tols)
    except MarginalRankDeficient:  # the kernel projector P of gamma_A has g(P) = 0
        w, v, cut = _herm_support(_partial_trace(gamma.tensor4, "a"), tols.rank)
        kernel = v[:, w <= cut]
        return witness(kernel @ kernel.conj().T) or ProbeResult("inconclusive", None)
    delta, fa, _, _, converged, *_ = run
    normal_form = BipartiteOperator(delta, k, k)
    if not converged:
        return scan(normal_form, fa) or ProbeResult("inconclusive", None)
    w = np.linalg.eigvalsh(fg_matrix(normal_form, tols).matrix)[::-1]
    if len(_clusters(w, 1e-8 * w[0])[0]) == 1:
        return ProbeResult("fully_indecomposable", None)
    found = find_psd_eigenvector(normal_form, tols)
    hit = witness(fa.conj().T @ found.x.mat @ fa) if found.found else None
    return hit or ProbeResult("inconclusive", None)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitCertificate(_JsonRecord):
    """Evidence that a state splits along orthogonal local supports.

    The projections are built from the spectral data of the eigenvector x
    (first factor) and of its image under the contraction map (second
    factor); the residual measures how exactly the state equals the sum of
    its two projected blocks.
    """

    x: LocalOperator
    eigenvalue: float
    proj_v: LocalOperator
    proj_w: LocalOperator
    proj_v_perp: LocalOperator
    proj_w_perp: LocalOperator
    residual: float


def split(
    gamma: BipartiteOperator, x: LocalOperator, tols: Tolerances = DEFAULT
) -> SplitCertificate:
    """Split a triad-class state along the supports of x and of its image.

    ``x`` must be a PSD eigenvector of the composite contraction map with
    rank strictly between 0 and k.  The projections come from one
    eigensolve of x and one of g(x); an image below roundoff of gamma and x
    has no support.  A residual above tolerance signals that gamma was not
    actually in a triad class (or x not an eigenvector) and raises
    CompleteReducibilityViolation.
    """
    return _split(gamma, x, tols)[0]


def _split(
    gamma: BipartiteOperator, x: LocalOperator, tols: Tolerances
) -> tuple[SplitCertificate, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """``split``, also returning its two blocks, each with the orthonormal
    eigenvectors of x and of g(x) that span its local supports: the support
    eigenvectors for the first block, the kernel eigenvectors for the second."""
    k = _require_square(gamma, "split")
    xm = 0.5 * (x.mat + x.mat.conj().T)
    w, v, cut = _herm_support(xm, tols.rank)
    support_v, kernel_v = v[:, w > cut], v[:, w <= cut]
    if support_v.shape[1] == 0:
        raise ZeroMatrix("split eigenvector is numerically zero")
    if support_v.shape[1] == k:
        raise FullRankEigenvector("split needs an eigenvector with a nontrivial kernel")

    gx = g_apply(gamma, xm).mat
    # an eigenvalue-zero eigenvector has a genuinely vanishing image; do not
    # let roundoff noise masquerade as a support
    if np.linalg.norm(gx) <= 1e-13 * np.linalg.norm(gamma.mat) * np.linalg.norm(xm):
        w, v, cut = np.zeros(k), np.eye(k), 0.0
    else:
        w, v, cut = _herm_support(gx, tols.rank)
    support_w, kernel_w = v[:, w > cut], v[:, w <= cut]
    proj_v = support_v @ support_v.conj().T
    proj_w = support_w @ support_w.conj().T
    block_1 = _congruence(proj_v, proj_w, gamma.mat)
    block_2 = _congruence(np.eye(k) - proj_v, np.eye(k) - proj_w, gamma.mat)
    residual = float(np.linalg.norm(gamma.mat - block_1 - block_2))
    scale = max(float(np.linalg.norm(gamma.mat)), np.finfo(float).tiny)
    if residual > tols.split * scale:
        raise CompleteReducibilityViolation(
            f"split residual {residual:.3e} exceeds {tols.split:.1e} * ||gamma||; "
            "the input is not a triad-class state within tolerance"
        )
    lam, _ = _eigen_residual(gamma, xm / np.linalg.norm(xm))
    cert = SplitCertificate(
        x=LocalOperator(xm),
        eigenvalue=lam,
        proj_v=LocalOperator(proj_v),
        proj_w=LocalOperator(proj_w),
        proj_v_perp=LocalOperator(np.eye(k) - proj_v),
        proj_w_perp=LocalOperator(np.eye(k) - proj_w),
        residual=residual,
    )
    return cert, ((block_1, support_v, support_w), (block_2, kernel_v, kernel_w))


# ---------------------------------------------------------------------------
# Recursive decomposition tree
# ---------------------------------------------------------------------------


@dataclass
class DecompositionTree(_JsonRecord):
    """Recursive record of complete-reducibility splits.

    Each node holds its (unnormalized) operator in its own compressed local
    dimensions together with the isometries embedding it into the parent's
    factors; summing the lifted leaves reproduces the root operator.  Blocks
    with numerically zero trace are dropped, so internal nodes carry one or
    two children.
    """

    state: BipartiteOperator
    embed_a: np.ndarray | None = field(default=None, metadata={"json": False})
    embed_b: np.ndarray | None = field(default=None, metadata={"json": False})
    leaf_status: str | None = None  # weakly_irreducible | not_split_found | None
    certificate: SplitCertificate | None = None
    children: list["DecompositionTree"] = field(default_factory=list)

    def reconstruct(self) -> np.ndarray:
        """Operator of this node assembled from its leaves."""
        if not self.children:
            return self.state.mat
        return sum(_congruence(c.embed_a, c.embed_b, c.reconstruct()) for c in self.children)

    def leaves(self) -> list["DecompositionTree"]:
        return [leaf for child in self.children for leaf in child.leaves()] or [self]


def decompose(
    gamma: BipartiteOperator,
    max_depth: int | None = None,
    tols: Tolerances = DEFAULT,
) -> DecompositionTree:
    """Recursively split a triad-class state into weakly irreducible leaves.

    Each internal node carries the split certificate that produced its
    children.  A child is its block compressed, by one local congruence, to
    the eigenvectors of x and of g(x) that span the block's local supports
    (``_split``); those eigenvectors are its embeddings into the parent's
    factors.  Leaves are marked ``weakly_irreducible`` when
    ``find_psd_eigenvector`` certifies that the top eigenvalue cluster holds
    no singular PSD element (complete for triad-class blocks), and
    ``not_split_found`` when the depth cap is hit or a compressed block ends
    up with unequal local dimensions (where the square-only search does not
    apply).
    """
    classification = classify(gamma, tols)
    if not classification.any_flag:
        raise PreconditionNotMet("decompose needs at least one triad flag")
    if max_depth is None:
        max_depth = gamma.dim_a

    def _node(mat: np.ndarray, ka: int, kb: int, depth: int) -> DecompositionTree:
        state = BipartiteOperator(0.5 * (mat + mat.conj().T), ka, kb)
        if ka != kb:
            return DecompositionTree(state=state, leaf_status="not_split_found")
        found = find_psd_eigenvector(state, tols)
        if not found.found:
            return DecompositionTree(state=state, leaf_status="weakly_irreducible")
        if depth <= 0:
            return DecompositionTree(state=state, leaf_status="not_split_found")
        cert, blocks = _split(state, found.x, tols)
        node = DecompositionTree(state=state, certificate=cert)
        for block, basis_a, basis_b in blocks:
            if np.trace(block).real <= 1e-12 * max(np.trace(mat).real, 1e-300):
                continue
            compressed = _congruence(basis_a.conj().T, basis_b.conj().T, block)
            child = _node(compressed, basis_a.shape[1], basis_b.shape[1], depth - 1)
            child.embed_a = basis_a
            child.embed_b = basis_b
            node.children.append(child)
        if not node.children:
            node.leaf_status = "not_split_found"
        return node

    return _node(gamma.mat, gamma.dim_a, gamma.dim_b, max_depth)


# ---------------------------------------------------------------------------
# Equal-coefficient certificate and rank bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualCoefficientReport(_JsonRecord):
    applies: bool
    coefficient_spread: float
    certificate: dict | None


def equal_schmidt_certificate(
    gamma: BipartiteOperator,
    classification: TriadClassification,
    tols: Tolerances = DEFAULT,
) -> EqualCoefficientReport:
    """Separability certificate from equal nonzero Schmidt coefficients.

    A triad-class state whose nonzero Schmidt coefficients all coincide is
    separable; ``applies`` requires a triad flag and a relative coefficient
    spread below tolerance.  No explicit decomposition is produced here.
    """
    sd = schmidt(gamma, tols)
    if len(sd.coefficients) == 0:
        return EqualCoefficientReport(False, 0.0, None)
    spread = float(
        (np.max(sd.coefficients) - np.min(sd.coefficients)) / sd.coefficients[0]
    )
    applies = bool(classification.any_flag and spread <= tols.equal_coeff)
    certificate = None
    if applies:
        certificate = {
            "criterion": "equal nonzero Schmidt coefficients of a triad-class state",
            "coefficients": [float(s) for s in sd.coefficients],
            "spread": spread,
        }
    return EqualCoefficientReport(
        applies=applies, coefficient_spread=spread, certificate=certificate
    )


@dataclass(frozen=True)
class RankBoundReport(_JsonRecord):
    rank: int
    reduced_ranks: tuple[int, int]
    bound_holds: bool


def rank_bound_check(
    gamma: BipartiteOperator,
    classification: TriadClassification,
    tols: Tolerances = DEFAULT,
) -> RankBoundReport:
    """Compare the state's rank against its reduced ranks.

    For triad-class states the rank can never be smaller than either reduced
    rank; the report's claim is only meaningful when a flag is set.
    """
    del classification  # recorded by the caller; the comparison is unconditional
    rank, supports = _reduced_supports(gamma, tols)
    ra, rb = (len(w) for w, _ in supports)
    return RankBoundReport(
        rank=rank, reduced_ranks=(ra, rb), bound_holds=bool(rank >= max(ra, rb))
    )


def _reduced_supports(
    gamma: BipartiteOperator, tols: Tolerances
) -> tuple[int, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The state's rank, and the eigenvalues and eigenvectors of each
    marginal's numerical support, first factor first.  Memoized per operator
    and ``tols.rank``, with the arrays locked read-only."""

    def factor():
        marginals = (_partial_trace(gamma.tensor4, keep) for keep in "ab")
        (w, _, cut), *spectra = (_herm_support(m, tols.rank) for m in (gamma.mat, *marginals))
        supports = tuple((_locked(w[w > c]), _locked(v[:, w > c])) for w, v, c in spectra)
        return int(np.sum(w > cut)), supports

    return _cached(gamma, f"reduced_supports:{tols.rank!r}", factor)


# ---------------------------------------------------------------------------
# Minimal-rank separable extraction
# ---------------------------------------------------------------------------


class ProductTerm(NamedTuple):
    """One product state of a separable decomposition, with its weight."""

    weight: float
    left: LocalOperator
    right: LocalOperator


@dataclass(frozen=True)
class SeparableDecomposition(_JsonRecord):
    """Explicit mixture of product states: sum_i weight_i x_i (x) y_i."""

    terms: list[ProductTerm]
    reconstruction_residual: float

    def reconstruct(self) -> np.ndarray:
        k = self.terms[0].left.dim
        m = self.terms[0].right.dim
        total = np.zeros((k * m, k * m), dtype=complex)
        for w, x, y in self.terms:
            total += w * _kron(x.mat, y.mat)
        return total


@dataclass(frozen=True)
class ExtractionFailure(_JsonRecord):
    """Step-labelled report of a tolerance failure during extraction."""

    step: str
    detail: str
    residuals: dict


def minimal_rank_extract(
    gamma: BipartiteOperator,
    classification: TriadClassification,
    tols: Tolerances = DEFAULT,
) -> SeparableDecomposition | ExtractionFailure:
    """Constructive separable decomposition of a minimal-rank triad state.

    Preconditions: at least one triad flag, and rank = max(r_A, r_B) for the
    reduced ranks r_A, r_B (a lower rank contradicts the rank bound of triad
    states; a higher one is not minimal rank).  Such a state is separable,
    and one closed-form step reads its terms off.  Compress the
    trace-normalized state to supp gamma_A (x) supp gamma_B, swap the factors
    if r_A > r_B, so that m = r_A <= n = r_B, and whiten the second factor:
    delta = (Id (x) S^-1) c (Id (x) S^-1), S = (n c_B)^1/2.  As c is a sum of
    n product terms and delta_B = Id/n, delta = (1/n) sum_i P(e_i) (x) P(f_i)
    with orthonormal f_i, so each h(X) = tr_A[delta (X (x) Id)] is diagonal
    in {f_i}, with eigenvalue <e_i|X|e_i>/n at f_i.

    The images h(B_a) of the orthonormal Hermitian basis of C^m split the
    f_i into groups.  As sum_a (<e_i|B_a|e_i> - <e_j|B_a|e_j>)^2 =
    ||P(e_i) - P(e_j)||^2 and B_0 = Id/sqrt(m) adds nothing (at m = 1 it is
    the only direction, and splits nothing), some direction separates f_i
    from f_j by at least ||P(e_i) - P(e_j)|| / (n sqrt(m^2 - 1)).
    Each group is split at the widest gap of the direction whose widest gap
    is largest, since roundoff mixes eigenvectors across a gap less the wider
    it is: a near-tie in one direction never decides a split that another
    makes cleanly.  A group whose gaps are all at most tols.equal_coeff / n
    shares one e: it is the term P(e) (x) S P S/tr(S P S), P its projector,
    with weight tr(S P S)/n and P(e) read off tr_B[delta (Id (x) P)].

    The one failure step, returned as an ExtractionFailure:

    ``reconstruction``  with the whitening and the supports undone, the
                        terms must sum to the trace-normalized input within
                        ``tols.separable``.

    Terms come by descending weight, equal weights by ascending
    tr(x diag(1..k)) (see ``_stable_order``).
    """
    if not classification.any_flag:
        raise PreconditionNotMet("extraction needs at least one triad flag")
    k = _require_square(gamma, "extraction")
    rank, ((wa, va), (wb, vb)) = _reduced_supports(gamma, tols)
    bound = max(len(wa), len(wb))
    if rank != bound or rank == 0:
        why = "contradicts the rank lower bound of triad states" if rank < bound else "is not minimal rank"
        raise PreconditionNotMet(
            f"extraction needs rank = max(r_A, r_B) > 0; rank {rank} with reduced ranks "
            f"({len(wa)}, {len(wb)}) {why}"
        )

    _require_psd(gamma, tols)
    gn = 0.5 * (gamma.mat + gamma.mat.conj().T)
    trace = np.trace(gn).real
    gn = gn / trace
    swap = len(wa) > len(wb)
    if swap:
        (wa, va), (wb, vb) = (wb, vb), (wa, va)
    m, n = len(wa), len(wb)
    half = vb * np.sqrt(n * wb / trace)  # S, lifted to C^k
    lift = _kron(va, vb / np.sqrt(n * wb / trace))
    flipped = _permute_slots(gn, k, k, (1, 0, 3, 2)) if swap else gn
    delta = (lift.conj().T @ flipped @ lift).reshape(m, n, m, n)

    # all h(B_a) in one product: h(X)[b, b'] = sum delta[a, b, a', b'] X[a', a]
    basis = hermitian_basis(m).reshape(m * m, m * m)
    images = (basis @ delta.transpose(1, 3, 2, 0).reshape(n * n, m * m).T).reshape(-1, n, n)
    pending, groups = [np.eye(n, dtype=complex)], []
    while pending:
        q = pending.pop()
        blocks = q.conj().T @ images @ q
        widest = np.diff(np.linalg.eigvalsh(blocks), axis=1).max(axis=1, initial=0.0)
        if widest.max() <= tols.equal_coeff / n:
            groups.append(q)
            continue
        wd, vd = np.linalg.eigh(blocks[np.argmax(widest)])
        cut = int(np.argmax(np.diff(wd))) + 1
        for part in (vd[:, :cut], vd[:, cut:]):
            (pending if part.shape[1] > 1 else groups).append(q @ part)

    projs = np.stack([q @ q.conj().T for q in groups])
    # tr_B[delta (Id (x) P)][a, a'] = sum delta[a, b, a', b'] P[b', b]
    contracted = projs.reshape(-1, n * n) @ delta.transpose(0, 2, 3, 1).reshape(m * m, n * n).T
    factors = [s @ f @ s.conj().T for s, f in ((va, contracted.reshape(-1, m, m)), (half, projs))]
    weights = np.trace(factors[1], axis1=1, axis2=2).real / n
    lefts, rights = factors[::-1] if swap else factors
    terms = [
        ProductTerm(float(w), *(LocalOperator(0.5 * (f + f.conj().T) / np.trace(f).real) for f in (x, y)))
        for w, x, y in zip(weights, lefts, rights)
    ]
    residual = float(np.linalg.norm(SeparableDecomposition(terms, 0.0).reconstruct() - gn))
    if residual > tols.separable * max(1.0, float(np.linalg.norm(gn))):
        return ExtractionFailure(
            step="reconstruction",
            detail=f"the product terms reconstruct the state to residual {residual:.3e}",
            residuals={"residual": residual},
        )
    return SeparableDecomposition(terms=_stable_order(terms, tols), reconstruction_residual=residual)


def _stable_order(terms: list[ProductTerm], tols: Tolerances) -> list[ProductTerm]:
    """Terms by descending weight, ties by ascending tr(x diag(1..k)).

    Consecutive weights that differ by at most ``tols.equal_coeff`` times the
    largest weight are ties, so roundoff in the weights does not decide the
    order of terms that carry the same weight.
    """
    terms = sorted(terms, key=lambda t: -t.weight)
    weights = np.array([t.weight for t in terms])
    ordered: list[ProductTerm] = []
    for cluster in _clusters(weights, tols.equal_coeff * max(weights[0], np.finfo(float).tiny)):
        ordered += sorted(
            (terms[i] for i in cluster),
            key=lambda t: float(np.diagonal(t.left.mat).real @ np.arange(1, t.left.dim + 1)),
        )
    return ordered
