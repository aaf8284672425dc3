import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    canonical,
    classify,
    contraction_by_permutation,
    flip,
    maximally_entangled_vector,
    norms,
    psd_check,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    realign,
    reduced_a,
    reduced_b,
)
from triadops.contractions import _invariant_projection
from triadops.errors import BadRank, UnknownName
from triadops.generators import _random_hermitian_orthobasis, rng_from_seed


@pytest.mark.parametrize(
    "draw",
    [
        lambda s: random_density(3, 9, s),
        lambda s: random_separable(2, 4, s)[0],
        lambda s: random_spc(3, s),
        lambda s: random_invariant(2, s),
        lambda s: random_ppt(2, s),
        lambda s: random_ppt(3, s),
    ],
)
def test_generators_deterministic(draw):
    assert np.array_equal(draw(123).mat, draw(123).mat)


@pytest.mark.parametrize(
    "draw",
    [
        lambda s: random_density(1, 1, s),
        lambda s: random_separable(1, 3, s)[0],
        lambda s: random_spc(1, s),
        lambda s: random_invariant(1, s),
        lambda s: random_ppt(1, s),
    ],
    ids=["density", "separable", "spc", "invariant", "ppt"],
)
def test_generators_at_k1_return_the_unit_state(draw):
    g = draw(7)
    assert (g.dim_a, g.dim_b) == (1, 1)
    assert np.allclose(g.mat, [[1.0]], rtol=0.0, atol=1e-14)


def test_random_density_shape_and_rank():
    g = random_density(2, 4, 0)
    rep = psd_check(g)
    assert rep.is_psd and rep.min_eigenvalue > 0
    assert np.trace(g.mat).real == pytest.approx(1.0)
    pure = random_density(2, 1, 1)
    w = np.linalg.eigvalsh(pure.mat)
    assert np.sum(w > 1e-10) == 1
    with pytest.raises(BadRank):
        random_density(2, 5, 0)


def test_random_separable_is_ppt_and_contractive():
    for seed in range(20):
        sep, recipe = random_separable(3, 4, seed)
        assert classify(sep).ppt
        rebuilt = sum(w * np.kron(x.mat, y.mat) for w, x, y in recipe)
        assert np.allclose(rebuilt, sep.mat)
        assert sum(w for w, _, _ in recipe) == pytest.approx(1.0)
        tn = norms(sep).trace_norm
        for sigma in ((1, 2, 4, 3), (2, 1, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2)):
            assert norms(contraction_by_permutation(sigma, sep)).trace_norm <= tn + 1e-9
    single, _ = random_separable(2, 1, 7)
    c = classify(single)
    assert c.ppt and c.ccnr_value <= 1 + 1e-9
    with pytest.raises(BadRank):
        random_separable(2, 0, 7)


@pytest.mark.parametrize("k", range(1, 7))
def test_hermitian_orthobasis_is_an_orthonormal_hermitian_frame(k):
    frame = _random_hermitian_orthobasis(rng_from_seed(40 + k), k)
    assert frame.shape == (k * k - 1, k, k)
    assert np.array_equal(frame, frame.conj().transpose(0, 2, 1))
    gram = np.einsum("aij,bji->ab", frame, frame)
    assert np.abs(gram - np.eye(k * k - 1)).max(initial=0.0) <= 1e-13
    assert np.abs(np.trace(frame, axis1=1, axis2=2)).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("k", range(1, 7))
def test_random_separable_state_is_its_recipe(k):
    for terms in (1, 3, 2 * k * k):
        sep, recipe = random_separable(k, terms, 500 + terms)
        rebuilt = sum(w * np.kron(x.mat, y.mat) for w, x, y in recipe)
        assert np.abs(sep.mat - rebuilt).max() <= 1e-15 * np.abs(rebuilt).max()


def test_random_spc_class_and_marginals():
    for k in (2, 3):
        for seed in range(20):
            g = random_spc(k, seed)
            c = classify(g)
            assert c.spc and c.is_state
            assert c.residuals.spc_min_eigenvalue >= -1e-10
            assert np.allclose(reduced_a(g).mat, reduced_b(g).mat, atol=1e-12)


def test_random_invariant_class_and_symmetry():
    for k in (2, 3):
        for seed in range(15):
            g = random_invariant(k, seed)
            c = classify(g)
            assert c.invariant and c.is_state
            assert np.linalg.norm(
                reduced_a(g).mat - reduced_b(g).mat.conj()
            ) <= 1e-8


@pytest.mark.parametrize("k", range(1, 7))
def test_invariant_projection_is_orthogonal_onto_hermitian_fixed_points(k):
    rng = rng_from_seed(60 + k)
    x, y = (
        rng.standard_normal((k * k, k * k)) + 1j * rng.standard_normal((k * k, k * k))
        for _ in range(2)
    )
    px, py = _invariant_projection(x, k), _invariant_projection(y, k)
    scale = np.linalg.norm(px)
    assert np.array_equal(px, px.conj().T)
    assert np.linalg.norm(realign(BipartiteOperator(px, k, k)).mat - px) <= 1e-15 * scale
    assert np.linalg.norm(_invariant_projection(px, k) - px) <= 1e-15 * scale
    # self-adjoint under the real inner product Re tr(X^* Y)
    lhs, rhs = np.vdot(px, y).real, np.vdot(x, py).real
    assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)
    centre = canonical("identity_plus_u", k).mat
    assert np.abs(_invariant_projection(centre, k) - centre).max() <= 1e-16


def test_identity_plus_u_is_projection_fixed_point(identity_plus_u2):
    half = 0.5 * (identity_plus_u2.mat + realign(identity_plus_u2).mat)
    assert np.allclose(half, identity_plus_u2.mat)


def test_random_ppt_class():
    for k, seeds in ((2, 20), (3, 10), (4, 3)):
        for seed in range(seeds):
            g = random_ppt(k, seed)
            assert classify(g).ppt, (k, seed)


def test_canonical_fixtures():
    cd = canonical("classical_diag", 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(cd.mat, expected)

    u = maximally_entangled_vector(2)
    bell = canonical("bell", 2)
    assert np.allclose(bell.mat, np.outer(u, u.conj()) / 2)

    ipu = canonical("identity_plus_u", 2)
    assert np.allclose(ipu.mat, (np.eye(4) + np.outer(u, u.conj())) / 6)
    assert np.trace(ipu.mat).real == pytest.approx(1.0)

    w = canonical("werner", 3, alpha=-0.5)
    assert psd_check(w).is_psd
    assert np.trace(w.mat).real == pytest.approx(1.0)
    assert np.allclose(w.mat, (np.eye(9) - 0.5 * flip(3).mat) / (9 - 1.5))


def test_canonical_unknown_name():
    with pytest.raises(UnknownName):
        canonical("garbage", 2)
    with pytest.raises(UnknownName):
        canonical("werner", 2)  # missing mixing parameter
