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

from .criteria import TriadClassification, _any_flag
from .errors import (
    CompleteReducibilityViolation,
    FullRankEigenvector,
    MarginalRankDeficient,
    PreconditionNotMet,
    ZeroMatrix,
)
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
    _frobenius,
    _herm_support,
    _hermiticity,
    _JsonRecord,
    _kron,
    _locked,
    _partial_trace,
    _permute_slots,
    _rank_cut,
    _spectrum,
    _sum_of_products,
    _unit,
    _unit_form,
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
    w, v, cut = _herm_support(mat, rank_tol)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    nrm = np.linalg.norm(out) or 1.0
    return out / nrm, int(np.sum(w > cut)), w / nrm, v


def _eigen_residual(gamma: BipartiteOperator, x: np.ndarray) -> tuple[float, float]:
    """Eigenvalue estimate and residual of x under the composite map."""
    y = fg_apply(gamma, x).mat
    lam = float(np.real(np.trace(x.conj().T @ y)))
    return lam, float(np.linalg.norm(y - lam * x))


def find_psd_eigenvector(
    gamma: BipartiteOperator, tols: Tolerances = DEFAULT
) -> PsdEigenvectorResult:
    """Search the top eigenvalue cluster of the composite contraction map for
    a PSD eigenvector with a kernel.

    The search runs on gamma / tr gamma (``tensor_core._unit``), so that it
    does not depend on the input's scale; ``eigenvalue`` is reported in the
    input's scale, (tr gamma)^2 times that of the normalized map.  One dense
    eigensolve of the Hermitian-basis matrix gives the clusters.  The
    candidate is the identity's projection onto the top cluster, the limit
    of power iteration from the identity, which is PSD (Evans and
    Hoegh-Krohn).  When it is
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
    return _search(*_unit(gamma, tols, "the eigenvector search"), tols)


def _search(gamma: BipartiteOperator, trace: float, tols: Tolerances) -> PsdEigenvectorResult:
    """``find_psd_eigenvector`` on the unit form ``gamma`` of a state of trace ``trace``."""
    k = gamma.dim_a
    if k == 1:
        return PsdEigenvectorResult(
            found=False, x=None, eigenvalue=None, full_rank_witness=LocalOperator(np.ones((1, 1)))
        )

    w, v = np.linalg.eigh(fg_matrix(gamma, tols))
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
    projector of g(X).  The probe runs on gamma / tr gamma
    (``tensor_core._unit``), so its verdict does not depend on the input's
    scale.  It runs the general mode of ``sinkhorn_filter`` first, on
    gamma itself: the normal form delta = (Fa (x) Fb) gamma (Fa (x) Fb)^*
    has marginals Id/k, and g_delta(X) = Fb g_gamma(Fa^* X Fa) Fb^*, so
    ranks carry over through X -> Fa^* X Fa.  The top cluster (width
    1e-8 * lambda_max) of delta's composite map decides: if it is wider than
    one eigenvalue, X is a spectral projector (onto an eigenvalue cluster,
    or the positive or negative part) of one generic element E of it, with
    coordinates top @ (sqrt(2..n+1) mod 1).  With no normal form the same
    projectors of the composite map's eigenvectors are scanned: of gamma and
    then of the last iterate after an unconverged run; after one of the
    filter's refusals, ZeroMatrix or MarginalRankDeficient, of gamma alone,
    once the kernel projector P of gamma_A has been tried, since g(P) = 0.
    ``inconclusive``: no normal form and no witness from P or the scans; or,
    in floating point only, no X from E.

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
    squares is strictly Schur-convex), so rank T(X) = rank X.  The generic
    E is no multiple of Id, so the walk from Id along -E meets the boundary
    at X = lambda_max(E) Id - E, a witness.  So its support projector P, the
    complement of E's top cluster, is one too, and its image Q is a
    projector (=>); T is unital, so T(Id - P) = Id - Q, and the top
    cluster's projector is a witness as well.  The scan of E tries it, or P
    as E's negative part when that cluster's eigenvalue is 0.
    """
    from .filters import sinkhorn_filter  # only the probe runs the filter

    unit = _unit(gamma, tols, "the probe")[0]  # ranks, and so witnesses, do not depend on scale
    k = unit.dim_a
    if k == 1:  # no X has 0 < rank X < 1
        return ProbeResult("fully_indecomposable", None)
    inconclusive = ProbeResult("inconclusive", None)

    def witness(x: np.ndarray) -> ProbeResult | None:
        x = 0.5 * (x + x.conj().T)
        wx, _, cut_x = _herm_support(x, tols.rank)
        wg, vg, _ = _herm_support(g_apply(unit, x).mat, tols.rank)
        kernel = vg[:, wg <= tols.rank * norms(unit).operator_norm * wx[-1]]  # of g(X)
        rank_x = int(np.sum(wx > cut_x))
        if not 0 < rank_x < k or k - kernel.shape[1] > rank_x:
            return None
        y = kernel @ kernel.conj().T
        return ProbeResult("decomposable_witness", (LocalOperator(x), LocalOperator(y)))

    def scan(stack, fa: np.ndarray) -> ProbeResult | None:  # X pulled back through fa
        for coords in stack:
            w, v = np.linalg.eigh(hermitian_from_coords(coords, k))
            floor = 1e-8 * float(np.max(np.abs(w)))
            groups = [c for c in _clusters(w, floor) if abs(w[c[0]]) > floor]
            for c in groups + [np.flatnonzero(sign * w > floor) for sign in (1.0, -1.0)]:
                hit = witness(fa.conj().T @ v[:, c] @ v[:, c].conj().T @ fa)
                if hit is not None:
                    return hit
        return None

    def eigenvectors(state: BipartiteOperator) -> np.ndarray:
        return np.linalg.eigh(fg_matrix(state, tols))[1].T

    try:  # on the caller's operator, whose memoized unit form the filter reads
        run = sinkhorn_filter(gamma, "general", tols=tols)
    except (ZeroMatrix, MarginalRankDeficient):  # the kernel projector P of gamma_A has g(P) = 0
        w, v, cut = _herm_support(_partial_trace(unit.tensor4, "a"), tols.rank)
        kernel = v[:, w <= cut]
        return witness(kernel @ kernel.conj().T) or scan(eigenvectors(unit), np.eye(k)) or inconclusive
    normal_form, fa = run.normal_form, run.filter_a.mat
    if not run.converged:
        return scan(eigenvectors(unit), np.eye(k)) or scan(eigenvectors(normal_form), fa) or inconclusive
    w, v = np.linalg.eigh(fg_matrix(normal_form, tols))
    top = v[:, _clusters(w, 1e-8 * w[-1])[-1]]
    if top.shape[1] == 1:
        return ProbeResult("fully_indecomposable", None)
    return scan([top @ (np.sqrt(np.arange(2, top.shape[1] + 2)) % 1)], fa) or inconclusive


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

    gamma must pass ``tensor_core._unit``'s gate, and ``x`` must be a PSD
    eigenvector of the composite contraction map with rank strictly between
    0 and k.  The projections come from one eigensolve of x and one of g(x);
    an image below roundoff of gamma and x has no support.  The certificate
    eigenvalue is (tr gamma)^2 times that on gamma / tr gamma, as in the
    search, so no step depends on the input's scale.  A residual above
    tolerance signals that gamma was not actually in a triad class (or x not
    an eigenvector) and raises CompleteReducibilityViolation.
    """
    _unit(gamma, tols, "split")
    return _split(gamma, x, tols, _hermiticity(gamma)[1])[0]


def _split(
    gamma: BipartiteOperator, x: LocalOperator, tols: Tolerances, scale: float
) -> tuple[SplitCertificate, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """``split`` of an admitted gamma, judged at the Frobenius norm ``scale``,
    also returning its two blocks, each with the orthonormal eigenvectors of x
    and of g(x) that span its local supports: the support eigenvectors for
    the first block, the kernel eigenvectors for the second."""
    unit, trace = _unit_form(gamma)
    k = gamma.dim_a
    xm = 0.5 * (x.mat + x.mat.conj().T)
    w, v, cut = _herm_support(xm, tols.rank)
    support_v, kernel_v = v[:, w > cut], v[:, w <= cut]
    if support_v.shape[1] == 0:
        raise ZeroMatrix("split eigenvector is numerically zero")
    if support_v.shape[1] == k:
        raise FullRankEigenvector("split needs an eigenvector with a nontrivial kernel")

    gx = g_apply(gamma, xm).mat
    scale, x_norm = max(scale, np.finfo(float).tiny), _frobenius(xm)
    # an eigenvalue-zero eigenvector has a genuinely vanishing image; do not
    # let roundoff noise masquerade as a support
    if _frobenius(gx) <= 1e-13 * scale * x_norm:
        w, v, cut = np.zeros(k), np.eye(k), 0.0
    else:
        w, v, cut = _herm_support(gx, tols.rank)
    support_w, kernel_w = v[:, w > cut], v[:, w <= cut]
    proj_v = support_v @ support_v.conj().T
    proj_w = support_w @ support_w.conj().T
    block_1 = _congruence(proj_v, proj_w, gamma.mat)
    block_2 = _congruence(np.eye(k) - proj_v, np.eye(k) - proj_w, gamma.mat)
    residual = _frobenius(gamma.mat - block_1 - block_2)
    if residual > tols.split * scale:
        raise CompleteReducibilityViolation(
            f"split residual {residual:.3e} exceeds {tols.split:.1e} * ||gamma||; "
            "the input is not a triad-class state within tolerance"
        )
    lam, _ = _eigen_residual(unit, xm / x_norm)
    ops = LocalOperator._stack([xm, proj_v, proj_w, np.eye(k) - proj_v, np.eye(k) - proj_w])
    cert = SplitCertificate(ops[0], lam * trace * trace, *ops[1:], residual=residual)
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


def decompose(gamma: BipartiteOperator, tols: Tolerances = DEFAULT) -> DecompositionTree:
    """Recursively split a triad-class state into weakly irreducible leaves.

    The gate needs any one flag (PreconditionNotMet otherwise) and reads
    ``criteria._any_flag``: invariance, then PPT, then SPC, never the CCNR
    value.  It is the one admission.  The root is gamma's Hermitian part, and
    every node is searched and split on its unit form
    (``tensor_core._unit_form``) with no gate of its own, judged at the
    root's scale: ``_split`` reads the root's Frobenius norm, and a block of
    trace at most 1e-12 times the root's is dropped.  Each internal node
    carries the split certificate that produced its children.  A child is
    its block compressed, by one local congruence, to the eigenvectors of x
    and of g(x) that span the block's local supports (``_split``); those
    eigenvectors are its embeddings into the parent's factors.  Leaves are
    marked ``weakly_irreducible`` when they have side 1, with no search, or
    when the search of ``find_psd_eigenvector`` certifies that the top
    eigenvalue cluster holds no singular PSD element (complete for
    triad-class blocks).  They are marked ``not_split_found`` when a
    compressed block ends up with unequal local dimensions (where the
    square-only search does not apply), or when a split leaves no block of
    nonzero trace.  A child's first side is below its parent's, so the
    recursion ends within k levels.
    """
    if not _any_flag(gamma, tols):
        raise PreconditionNotMet("decompose needs at least one triad flag")

    def _node(state: BipartiteOperator) -> DecompositionTree:
        ka, kb = state.dim_a, state.dim_b
        if ka != kb:
            return DecompositionTree(state=state, leaf_status="not_split_found")
        if ka == 1:  # no X has 0 < rank X < 1
            return DecompositionTree(state=state, leaf_status="weakly_irreducible")
        found = _search(*_unit_form(state), tols)
        if not found.found:
            return DecompositionTree(state=state, leaf_status="weakly_irreducible")
        cert, blocks = _split(state, found.x, tols, scale)
        node = DecompositionTree(state=state, certificate=cert)
        for block, basis_a, basis_b in blocks:
            if np.trace(block).real <= 1e-12 * root_trace:
                continue
            c = _congruence(basis_a.conj().T, basis_b.conj().T, block)
            child = _node(BipartiteOperator(0.5 * (c + c.conj().T), basis_a.shape[1], basis_b.shape[1]))
            child.embed_a = basis_a
            child.embed_b = basis_b
            node.children.append(child)
        if not node.children:
            node.leaf_status = "not_split_found"
        return node

    scale, root_trace = _hermiticity(gamma)[1], np.trace(gamma.mat).real
    return _node(BipartiteOperator(0.5 * (gamma.mat + gamma.mat.conj().T), gamma.dim_a, gamma.dim_b))


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
    and ``tols.rank``, with the arrays locked read-only.  The rank is read
    off the state's memoized spectrum."""

    def factor():
        spectra = (_herm_support(_partial_trace(gamma.tensor4, keep), tols.rank) for keep in "ab")
        supports = tuple((_locked(w[w > c]), _locked(v[:, w > c])) for w, v, c in spectra)
        w = _spectrum(gamma)
        return int(np.sum(w > _rank_cut(w, tols.rank))), supports

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
        k = self.terms[0].left.dim  # extraction's terms act on C^k (x) C^k
        return _sum_of_products(self.terms, k, k)


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
    unit, trace = _unit(gamma, tols, "extraction")
    k = gamma.dim_a
    rank, ((wa, va), (wb, vb)) = _reduced_supports(gamma, tols)
    bound = max(len(wa), len(wb))
    if rank != bound or rank == 0:
        why = "contradicts the rank lower bound of triad states" if rank < bound else "is not minimal rank"
        raise PreconditionNotMet(
            f"extraction needs rank = max(r_A, r_B) > 0; rank {rank} with reduced ranks "
            f"({len(wa)}, {len(wb)}) {why}"
        )

    gn = unit.mat
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
    factors = np.stack([s @ f @ s.conj().T for s, f in ((va, contracted.reshape(-1, m, m)), (half, projs))])
    traces = np.trace(factors, axis1=2, axis2=3).real  # the weights are the second side's over n
    units = 0.5 * (factors + factors.conj().swapaxes(2, 3)) / traces[..., None, None]
    lefts, rights = (LocalOperator._stack(u) for u in (units[::-1] if swap else units))
    terms = [ProductTerm(float(w), x, y) for w, x, y in zip(traces[1] / n, lefts, rights)]
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
