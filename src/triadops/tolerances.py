"""Default numerical tolerances, and the filter's modes and iteration cap.

All tolerances are relative unless a docstring says otherwise.  The defaults
sit roughly two orders of magnitude above double-precision eigensolver noise
at the matrix sizes this toolkit targets (composite dimension <= 36), so a
genuine property violation is cleanly separated from roundoff.  Every field
must be finite and non-negative (ValueError otherwise): a negative tolerance
would turn each verdict it gates into a refusal.
"""

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10          # Hermiticity defect, relative to Frobenius norm
    psd: float = 1e-9            # negative eigenvalue / bound margin, relative to op norm / bound
    rank: float = 1e-8           # eigenvalue / singular-value cutoff, relative to the largest
    invariance: float = 1e-8     # ||realign(g) - g|| relative to ||g||
    ccnr: float = 1e-9           # strict exceedance required above the CCNR threshold 1
    filter: float = 1e-9         # marginal distance from Id/k at filter convergence
    doubly_stochastic: float = 1e-8
    equal_coeff: float = 1e-7    # relative spread for "equal" coefficients / eigenvalues
    split: float = 1e-8          # complete-reducibility split residual, relative
    separable: float = 1e-7      # product-decomposition reconstruction residual

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {name} must be finite and non-negative, got {value!r}")

    def but(self, **kw) -> "Tolerances":
        """Copy with selected fields overridden."""
        return replace(self, **kw)


DEFAULT = Tolerances()

# filter modes and default iteration cap, here so that the CLI's parser can
# name them without loading the filter engine
MODES = ("general", "symmetric", "conjugate", "left")
MAX_ITER = 10_000
