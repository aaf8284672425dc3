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
  scaling, and the doubly-stochastic check
- :mod:`triadops.reducibility` - complete-reducibility splitting, the
  full-indecomposability verdict, rank bounds, and minimal-rank separable
  extraction
- :mod:`triadops.generators`   - seeded random and canonical states

A command-line shell (``triadops``) exposes the same operations on the JSON
matrix format; see the README.
"""

from . import (
    contractions,
    criteria,
    errors,
    filters,
    generators,
    reducibility,
    schmidt_maps,
    tensor_core,
)
from .contractions import *  # noqa: F401,F403
from .criteria import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .reducibility import *  # noqa: F401,F403
from .schmidt_maps import *  # noqa: F401,F403
from .tensor_core import *  # noqa: F401,F403
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

# each module's own __all__ lists its public names once
__all__ = [
    "errors",
    *tensor_core.__all__,
    *contractions.__all__,
    *schmidt_maps.__all__,
    *criteria.__all__,
    *filters.__all__,
    *reducibility.__all__,
    *generators.__all__,
    "Tolerances",
    "DEFAULT",
]
