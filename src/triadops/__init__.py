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

``import triadops`` loads only this package shell and the tolerances.  The
seven layers load together on the first read of any other attribute
(``triadops.classify``, ``triadops.filters``, ``__all__``, ``from triadops
import *``), and each layer's ``__all__`` names are then bound here.
Importing a layer module by name (``from triadops.criteria import
classify``) loads that layer and the ones it imports only.

A command-line shell (``triadops``) exposes the same operations on the JSON
matrix format and loads only the layers its subcommand runs; see the README.
"""

from importlib import import_module

from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

# in dependency order; each layer's own __all__ lists its public names once
_LAYERS = (
    "tensor_core",
    "contractions",
    "schmidt_maps",
    "criteria",
    "filters",
    "reducibility",
    "generators",
)


def _load_layers() -> None:
    """Import every layer, bind its public names and ``__all__`` here, and
    drop the module ``__getattr__``: CPython does not specialize attribute
    reads on a module that has one, and each ``triadops.name`` read would
    stay about 2.7 times slower (52 against 19 ns, CPython 3.11, 2 vCPUs)."""
    names = ["errors"]
    for layer in _LAYERS:
        module = import_module(f".{layer}", __name__)
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names + ["Tolerances", "DEFAULT"]
    globals().pop("__getattr__", None)


def __getattr__(name: str):
    # PEP 562: called for names not bound yet, so only until the layers load
    _load_layers()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load_layers()
    return sorted(globals())
