"""Property tests: invariants checked on generated inputs, not fixed seeds.

Hypothesis draws the inputs under the derandomized ``tier1`` profile that
``conftest.py`` loads, so every run checks the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from triadops import BipartiteOperator, SeparableDecomposition, classify, minimal_rank_extract
from triadops.tolerances import DEFAULT

from conftest import haar_unitary, local_scale, random_pd_local


@given(
    k=st.integers(2, 5),
    kind=st.sampled_from(["spc", "invariant", "ppt"]),
    weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimal_rank_extract_recovers_k_product_terms(k, kind, weights, seed):
    # sum_i w_i P(a_i) (x) P(b_i) with orthonormal {a_i} and {b_i} is
    # minimal-rank; b_i = a_i keeps it SPC, b_i = conj(a_i) invariant, and
    # the PD congruence V (x) V, V (x) conj(V) or V (x) W keeps the class
    rng = np.random.default_rng(seed)
    a = haar_unitary(rng, k)
    b = {"spc": a, "invariant": a.conj(), "ppt": haar_unitary(rng, k)}[kind]
    mat = sum(
        p * np.kron(np.outer(a[:, i], a[:, i].conj()), np.outer(b[:, i], b[:, i].conj()))
        for i, p in enumerate(weights[:k])
    )
    v = random_pd_local(rng, k)
    w = {"spc": v, "invariant": v.conj(), "ppt": random_pd_local(rng, k)}[kind]
    g = local_scale(BipartiteOperator(mat, k, k), v, w)

    out = minimal_rank_extract(g, classify(g))
    assert isinstance(out, SeparableDecomposition), out
    assert len(out.terms) == k
    for weight, x, y in out.terms:
        assert weight > 0
        for f in (x.mat, y.mat):
            assert abs(np.trace(f).real - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(f)[0] >= -DEFAULT.psd
    residual = np.linalg.norm(out.reconstruct() - g.mat)
    assert residual <= DEFAULT.separable * max(1.0, np.linalg.norm(g.mat))
