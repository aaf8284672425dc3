"""Numerical toolkit for bipartite operators and the triad of state classes.

The package is organized around a single matrix substrate
(:mod:`triadops.tensor_core`) and six functional layers:

- :mod:`triadops.contractions` - index-permutation maps (partial transposes,
  realignment, flip) and the star product
- :mod:`triadops.schmidt_maps` - reduced states, the adjoint contraction-map
  pair, operator Schmidt decompositions, Hermitian-basis matrices
- :mod:`triadops.criteria`     - PPT / SPC / invariant classification, CCNR
  value, and operator-norm bounds
- :mod:`triadops.filters`      - filter normal forms by iterative marginal
  scaling, doubly-stochastic and indecomposability diagnostics
- :mod:`triadops.reducibility` - complete-reducibility splitting, rank
  bounds, and minimal-rank separable extraction
- :mod:`triadops.generators`   - seeded random and canonical states

A command-line shell (``triadops``) exposes the same operations on the JSON
matrix format; see the README.
"""

from . import errors
from .contractions import (
    contraction_by_permutation,
    flip,
    left_transpose,
    maximally_entangled_vector,
    partial_transpose,
    realign,
    star_product,
)
from .criteria import (
    BoundReport,
    PptPairReport,
    TriadClassification,
    TriadResiduals,
    bound_gamma_pt,
    bound_realign_sq,
    bound_triad,
    ccnr_entanglement_flag,
    classify,
    ppt_pair_forces_invariance,
)
from .filters import (
    FilterResult,
    ProbeResult,
    StochasticityReport,
    doubly_stochastic_check,
    fully_indecomposable_probe,
    sinkhorn_filter,
)
from .generators import (
    canonical,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    rng_from_seed,
)
from .reducibility import (
    DecompositionTree,
    EqualCoefficientReport,
    ExtractionFailure,
    ProductTerm,
    PsdEigenvectorResult,
    RankBoundReport,
    SeparableDecomposition,
    SplitCertificate,
    decompose,
    equal_schmidt_certificate,
    find_psd_eigenvector,
    minimal_rank_extract,
    rank_bound_check,
    split,
)
from .schmidt_maps import (
    HermitianBasisMatrix,
    SchmidtDecomposition,
    f_apply,
    fg_apply,
    fg_matrix,
    g_apply,
    g_matrix,
    hermitian_basis,
    hermitian_coords,
    hermitian_from_coords,
    reduced_a,
    reduced_b,
    schmidt,
)
from .tensor_core import (
    BipartiteOperator,
    LocalOperator,
    Norms,
    PsdReport,
    SpectralData,
    hermitian_eig,
    inv_sqrt_psd,
    kron,
    norms,
    psd_check,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "errors",
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
    "partial_transpose",
    "left_transpose",
    "realign",
    "flip",
    "maximally_entangled_vector",
    "star_product",
    "contraction_by_permutation",
    "SchmidtDecomposition",
    "HermitianBasisMatrix",
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
    "TriadClassification",
    "TriadResiduals",
    "BoundReport",
    "PptPairReport",
    "classify",
    "ccnr_entanglement_flag",
    "bound_gamma_pt",
    "bound_realign_sq",
    "bound_triad",
    "ppt_pair_forces_invariance",
    "FilterResult",
    "StochasticityReport",
    "ProbeResult",
    "sinkhorn_filter",
    "doubly_stochastic_check",
    "fully_indecomposable_probe",
    "PsdEigenvectorResult",
    "SplitCertificate",
    "DecompositionTree",
    "EqualCoefficientReport",
    "RankBoundReport",
    "ProductTerm",
    "SeparableDecomposition",
    "ExtractionFailure",
    "find_psd_eigenvector",
    "split",
    "decompose",
    "equal_schmidt_certificate",
    "rank_bound_check",
    "minimal_rank_extract",
    "rng_from_seed",
    "random_density",
    "random_separable",
    "random_spc",
    "random_invariant",
    "random_ppt",
    "canonical",
    "Tolerances",
    "DEFAULT",
]
