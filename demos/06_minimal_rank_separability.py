"""Minimal rank forces separability, and the decomposition is constructive.

A triad-class state whose rank equals its larger reduced rank (here both
reduced ranks and the rank are k) is separable.  The extraction below
whitens one marginal to the identity, in closed form; the images of the
other factor's Hermitian basis then share one eigenbasis, which gives the
product vectors on the whitened side, and each group of them gives one
product term.

Run:  python demos/06_minimal_rank_separability.py
"""

import numpy as np

from triadops import (
    BipartiteOperator,
    canonical,
    classify,
    equal_schmidt_certificate,
    minimal_rank_extract,
    rank_bound_check,
    rng_from_seed,
)

k = 3
fixture = canonical("classical_diag", k)

# hide the product structure behind a shared local rotation
rng = rng_from_seed(17)
z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
q, r = np.linalg.qr(z)
u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
big = np.kron(u, u)
state = BipartiteOperator(big @ fixture.mat @ big.conj().T, k, k)

cls = classify(state)
print("flags: ppt", cls.ppt, "spc", cls.spc, "invariant", cls.invariant)

rb = rank_bound_check(state, cls)
print(f"rank {rb.rank}, reduced ranks {rb.reduced_ranks}, bound holds: {rb.bound_holds}")

eq = equal_schmidt_certificate(state, cls)
print(f"equal-coefficient certificate applies: {eq.applies} "
      f"(spread {eq.coefficient_spread:.2e})")

out = minimal_rank_extract(state, cls)
print(f"\nextracted {len(out.terms)} product terms, "
      f"reconstruction residual {out.reconstruction_residual:.2e}")
for i, (w, x, y) in enumerate(out.terms):
    px = np.sum(np.linalg.eigvalsh(x.mat) > 1e-8)
    py = np.sum(np.linalg.eigvalsh(y.mat) > 1e-8)
    print(f"  term {i}: weight {w:.6f}  factor ranks ({px}, {py})")

# the recovered factors really are the rotated basis projectors
expected = [u[:, i : i + 1] @ u[:, i : i + 1].conj().T for i in range(k)]
matched = 0
for _, x, _ in out.terms:
    if any(np.linalg.norm(x.mat - p) < 1e-6 for p in expected):
        matched += 1
print(f"\nfactors matching the hidden rotated projectors: {matched}/{k}")
