"""Bit-identity guard for the filter and decomposition hot path at k = 4..6.

The CLI goldens stop at k = 3.  This file stores, per case, the SHA-256
digest of ``cli._format_json(result.to_json())`` (17 significant digits, so
every float64 round-trips) for ``sinkhorn_filter`` in every mode and for
``decompose``, on library-generated states and on a seeded Haar V (x) V
rotation of classical_diag, for the symmetric and conjugate modes on
random_spc and random_invariant under a seeded positive definite filter
(inputs on which those modes iterate), and for ``minimal_rank_extract`` on
classical_diag under seeded Haar V (x) V, V (x) conj(V) and V (x) W and under
seeded positive definite filters of the same three shapes (inputs whose
marginals the extraction must whiten).  A mode,
a decomposition or an extraction that the input does not admit records the
name of the error raised.

The remaining cases reach the records no other golden serializes:
``ppt_pair_forces_invariance`` and ``doubly_stochastic_check`` on each
library-generated and rotated state at k = 4, ``fully_indecomposable_probe``
on classical_diag (``decomposable_witness``, with its witness pair) and on
random_spc (``fully_indecomposable``), and a constructed
``ExtractionFailure``, since no generated input declines.

The survey path has its own cases: each of the five generators at k = 4..6
(seed 12), and ``hermitian_eig`` on those states and on classical_diag,
bell and identity_plus_u at k = 2..4, whose degenerate clusters exercise
the reordering.  An eigendecomposition is digested as the bytes of its
eigenvalues followed by those of its eigenvectors.

To rewrite the goldens after a deliberate output change, run
``PYTHONPATH=src python tests/test_hotpath_golden.py``; it prints the names
of the cases whose digest changed.
"""

import hashlib
import json
import pathlib

from triadops import (
    ExtractionFailure,
    canonical,
    classify,
    decompose,
    doubly_stochastic_check,
    fully_indecomposable_probe,
    hermitian_eig,
    minimal_rank_extract,
    ppt_pair_forces_invariance,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    rng_from_seed,
    sinkhorn_filter,
)
from triadops.cli import _format_json
from triadops.errors import ToolkitError

from conftest import haar_congruence, local_scale, random_pd_local, rewrite_goldens

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "hotpath.json"
MODES = ("general", "symmetric", "conjugate", "left")


def _rotated_classical_diag(k, seed, right="V"):
    """classical_diag under V (x) V, V (x) conj(V) or V (x) W (right = "V", "Vbar", "W")."""
    return haar_congruence(canonical("classical_diag", k), rng_from_seed(seed), right)


STATES = {
    "spc": lambda k: random_spc(k, 11),
    "invariant": lambda k: random_invariant(k, 11),
    "ppt": lambda k: random_ppt(k, 11),
    "density": lambda k: random_density(k, k * k, 11),
    "classical_diag-VV": lambda k: _rotated_classical_diag(k, 60 + k),
}


def _pd_scaled(gamma, k, seed, right):
    """gamma under a seeded positive definite V (x) V, V (x) conj(V) or V (x) W
    (right = "V", "Vbar", "W")."""
    rng = rng_from_seed(seed)
    v = random_pd_local(rng, k)
    w = {"V": lambda: v, "Vbar": v.conj, "W": lambda: random_pd_local(rng, k)}[right]()
    return local_scale(gamma, v, w)


# inputs that are not yet normal, so the one-filter modes iterate
ITERATING = {
    "spc-PD": ("symmetric", lambda k: _pd_scaled(random_spc(k, 11), k, 80 + k, "V")),
    "invariant-PD": ("conjugate", lambda k: _pd_scaled(random_invariant(k, 11), k, 90 + k, "Vbar")),
}


GENERATORS = {
    "density": lambda k: random_density(k, k * k, 12),
    "separable": lambda k: random_separable(k, 2 * k, 12)[0],
    "ppt": lambda k: random_ppt(k, 12),
    "spc": lambda k: random_spc(k, 12),
    "invariant": lambda k: random_invariant(k, 12),
}


def _eig_digest(gamma):
    spectral = hermitian_eig(gamma)
    data = spectral.eigenvalues.tobytes() + spectral.eigenvectors.tobytes()
    return hashlib.sha256(data).hexdigest()


def _digest(call):
    try:
        text = _format_json(call().to_json())
    except ToolkitError as exc:
        return f"error:{type(exc).__name__}"
    return hashlib.sha256(text.encode()).hexdigest()


def _collect():
    """Yields (case name, digest or error name) for every case."""
    for k in (4, 5, 6):
        for name, make in STATES.items():
            gamma = make(k)
            for mode in MODES:
                yield f"{name} k{k} filter {mode}", _digest(lambda: sinkhorn_filter(gamma, mode))
            yield f"{name} k{k} decompose", _digest(lambda: decompose(gamma))
    for k in (4, 5, 6):
        for name, (mode, make) in ITERATING.items():
            gamma = make(k)
            yield f"{name} k{k} filter {mode}", _digest(lambda: sinkhorn_filter(gamma, mode))
    for k in (4, 5, 6):
        for right in ("V", "Vbar", "W"):
            gamma = _rotated_classical_diag(k, 70 + k, right)
            yield f"classical_diag-V{right} k{k} extract", _digest(
                lambda: minimal_rank_extract(gamma, classify(gamma))
            )
    for k in (4, 5, 6):
        for right in ("V", "Vbar", "W"):
            gamma = _pd_scaled(canonical("classical_diag", k), k, 900 + k, right)
            yield f"classical_diag-PDV{right} k{k} extract", _digest(
                lambda: minimal_rank_extract(gamma, classify(gamma))
            )
    for name, make in STATES.items():
        gamma = make(4)
        yield f"{name} k4 ppt-pair", _digest(lambda: ppt_pair_forces_invariance(gamma))
        yield f"{name} k4 doubly-stochastic", _digest(lambda: doubly_stochastic_check(gamma))
    yield "classical_diag k4 probe", _digest(
        lambda: fully_indecomposable_probe(canonical("classical_diag", 4))
    )
    yield "spc k4 probe", _digest(lambda: fully_indecomposable_probe(random_spc(4, 11)))
    yield "extraction-failure", _digest(
        lambda: ExtractionFailure("split", "forced", {"residual": 1e-3})
    )
    for k in (4, 5, 6):
        for name, make in GENERATORS.items():
            gamma = make(k)
            yield f"{name} k{k} generate", _digest(lambda: gamma)
            yield f"{name} k{k} hermitian_eig", _eig_digest(gamma)
    for k in (2, 3, 4):
        for name in ("classical_diag", "bell", "identity_plus_u"):
            yield f"{name} k{k} hermitian_eig", _eig_digest(canonical(name, k))


def test_hot_path_matches_goldens():
    goldens = json.loads(GOLDEN.read_text())
    got = dict(_collect())
    assert list(got) == list(goldens)
    changed = [name for name in goldens if got[name] != goldens[name]]
    assert not changed, changed


if __name__ == "__main__":
    rewrite_goldens(GOLDEN, dict(_collect()))
