import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    LocalOperator,
    f_apply,
    fg_apply,
    flip,
    g_apply,
    g_matrix,
    fg_matrix,
    hermitian_basis,
    hermitian_coords,
    hermitian_eig,
    hermitian_from_coords,
    kron,
    maximally_entangled_vector,
    norms,
    random_invariant,
    random_ppt,
    random_spc,
    realign,
    reduced_a,
    reduced_b,
    rng_from_seed,
    schmidt,
    star_product,
)
from triadops.errors import NotHermitian

from conftest import random_hermitian, random_operator, random_psd_local


def _rand_local(rng, k):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def _random_hermitian_bipartite(rng, k):
    g = random_operator(rng, k)
    return BipartiteOperator(0.5 * (g.mat + g.mat.conj().T), k, k)


def test_reduced_states_product_rule():
    rng = rng_from_seed(20)
    a, b = _rand_local(rng, 2), _rand_local(rng, 3)
    g = kron(LocalOperator(a), LocalOperator(b))
    assert np.allclose(reduced_a(g).mat, a * np.trace(b))
    assert np.allclose(reduced_b(g).mat, b * np.trace(a))


def test_reduced_states_fixtures(bell2, identity_plus_u2):
    assert np.allclose(reduced_a(bell2).mat, np.eye(2) / 2)
    assert np.allclose(reduced_b(bell2).mat, np.eye(2) / 2)
    assert np.allclose(reduced_a(identity_plus_u2).mat, np.eye(2) / 2)
    assert np.allclose(reduced_b(identity_plus_u2).mat, np.eye(2) / 2)


def test_reduced_traces_agree():
    rng = rng_from_seed(21)
    g = random_operator(rng, 3)
    assert np.isclose(np.trace(reduced_a(g).mat), np.trace(g.mat))
    assert np.isclose(np.trace(reduced_b(g).mat), np.trace(g.mat))


def test_g_apply_product_and_identity():
    rng = rng_from_seed(22)
    a, b = _rand_local(rng, 2), _rand_local(rng, 3)
    g = kron(LocalOperator(a), LocalOperator(b))
    x = _rand_local(rng, 2)
    assert np.allclose(g_apply(g, x).mat, np.trace(a @ x) * b)
    assert np.allclose(g_apply(g, np.eye(2)).mat, reduced_b(g).mat)
    assert np.allclose(f_apply(g, np.eye(3)).mat, reduced_a(g).mat)


def test_g_apply_of_entangled_projector_is_transpose():
    u = maximally_entangled_vector(2)
    uut = BipartiteOperator(np.outer(u, u.conj()), 2, 2)
    rng = rng_from_seed(23)
    x = _rand_local(rng, 2)
    assert np.allclose(g_apply(uut, x).mat, x.T)


def test_defining_identity_and_adjointness():
    rng = rng_from_seed(24)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        g = _random_hermitian_bipartite(rng, k)
        x, y = _rand_local(rng, k), _rand_local(rng, k)
        lhs = np.trace(g_apply(g, x).mat @ y.conj().T)
        assert abs(lhs - np.trace(g.mat @ np.kron(x, y.conj().T))) <= 1e-11
        rhs = np.trace(x @ f_apply(g, y).mat.conj().T)
        assert abs(lhs - rhs) <= 1e-11


def test_positivity_of_contraction_maps():
    rng = rng_from_seed(25)
    for _ in range(50):
        k = int(rng.integers(2, 4))
        g = BipartiteOperator(random_psd_local(rng, k * k), k, k)
        x = random_psd_local(rng, k)
        out = g_apply(g, x).mat
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] >= -1e-10


def test_fg_apply_product_rule():
    rng = rng_from_seed(26)
    a = random_psd_local(rng, 3)
    b = random_psd_local(rng, 3)
    g = kron(LocalOperator(a), LocalOperator(b))
    out = fg_apply(g, a).mat
    assert np.allclose(out, np.trace(a @ a) * np.trace(b @ b) * a)


def test_fg_apply_balanced_marginals(classical_diag2):
    # both marginals Id/k force the composite to send Id to Id/k^2
    out = fg_apply(classical_diag2, np.eye(2)).mat
    assert np.allclose(out, np.eye(2) / 4)


def test_fg_apply_adjoint_link():
    rng = rng_from_seed(27)
    g = _random_hermitian_bipartite(rng, 3)
    x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
    lhs = np.trace(fg_apply(g, x).mat @ y)
    rhs = np.trace(g_apply(g, x).mat @ g_apply(g, y).mat.conj().T)
    assert abs(lhs - rhs) <= 1e-11


def test_fg_apply_star_product_link():
    # the composite map equals (transposed) contraction against the star
    # product of the operator with its flip-conjugated transpose
    rng = rng_from_seed(28)
    k = 3
    g = random_operator(rng, k)
    f = flip(k).mat
    mixed = star_product(g, BipartiteOperator(f @ g.mat.T @ f, k, k))
    x = _rand_local(rng, k)
    lhs = g_apply(mixed, x).mat
    rhs = f_apply(g, g_apply(g, x).mat).mat.T
    assert np.allclose(lhs, rhs)


def test_schmidt_product_state():
    rng = rng_from_seed(29)
    a, b = _rand_local(rng, 3), _rand_local(rng, 3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    sd = schmidt(kron(LocalOperator(a), LocalOperator(b)))
    assert len(sd.coefficients) == 1
    assert sd.coefficients[0] == pytest.approx(1.0)
    phase_a = sd.left_ops[0].mat / a
    assert np.allclose(phase_a, phase_a.flat[0])
    assert abs(abs(phase_a.flat[0]) - 1.0) <= 1e-10


def test_schmidt_bell_and_classical(bell2, classical_diag2):
    sd = schmidt(bell2)
    assert np.allclose(sd.coefficients, [0.5] * 4)
    sdc = schmidt(classical_diag2)
    assert np.allclose(sdc.coefficients, [0.5, 0.5])
    for op in sdc.left_ops:
        assert np.allclose(op.mat, np.diag(np.diag(op.mat)))


def test_schmidt_of_the_zero_matrix_reconstructs_to_the_zero_operator():
    # the expansion has no terms, so its dimensions come from its own field,
    # which neither the report nor a comparison reads
    for k in (1, 2, 3):
        sd = schmidt(BipartiteOperator(np.zeros((k * k, k * k)), k, k))
        assert len(sd.coefficients) == 0 and sd.left_ops == [] and sd.right_ops == []
        rec = sd.reconstruct()
        assert (rec.dim_a, rec.dim_b) == (k, k) and not rec.mat.any()
    assert list(sd.to_json()) == ["coefficients", "left_ops", "right_ops"]
    assert sd == type(sd)(sd.coefficients, [], [], dims=(5, 5))


def test_schmidt_phases_do_not_follow_roundoff_between_mirror_entries():
    # a Hermitian state's operators have mirror entries of equal modulus, so
    # a 1-ulp change of one mirror pair of gamma must not pick another pivot
    g = random_ppt(3, 5)
    base = schmidt(g)
    n = g.mat.shape[0]
    for p in range(n):
        for q in range(p + 1, n):
            mat = np.array(g.mat)
            re = np.nextafter(mat[p, q].real, np.inf)
            mat[p, q], mat[q, p] = re + 1j * mat[p, q].imag, re - 1j * mat[p, q].imag
            moved = schmidt(BipartiteOperator(mat, 3, 3))
            assert np.abs(moved.coefficients - base.coefficients).max() <= 1e-12
            for old, new in zip(base.left_ops + base.right_ops, moved.left_ops + moved.right_ops):
                assert np.abs(new.mat - old.mat).max() <= 1e-12, (p, q)


@pytest.mark.parametrize("make", [random_invariant, random_spc])
def test_eigenvector_phases_do_not_follow_roundoff_between_mirror_entries(make):
    # an invariant or SPC state's eigenvectors have mirror coordinates of
    # equal modulus; a 1-ulp change of one mirror pair must not pick another
    # pivot
    g = make(3, 5)
    base = hermitian_eig(g)
    n = g.mat.shape[0]
    for p in range(n):
        for q in range(p + 1, n):
            mat = np.array(g.mat)
            re = np.nextafter(mat[p, q].real, np.inf)
            mat[p, q], mat[q, p] = re + 1j * mat[p, q].imag, re - 1j * mat[p, q].imag
            moved = hermitian_eig(BipartiteOperator(mat, 3, 3))
            assert np.abs(moved.eigenvalues - base.eigenvalues).max() <= 1e-12
            assert np.abs(moved.eigenvectors - base.eigenvectors).max() <= 1e-12, (p, q)


def test_schmidt_invariants_sweep():
    rng = rng_from_seed(30)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        g = random_operator(rng, k)
        sd = schmidt(g)
        n = len(sd.coefficients)
        for i in range(n):
            for j in range(n):
                li = np.trace(sd.left_ops[i].mat @ sd.left_ops[j].mat.conj().T)
                ri = np.trace(sd.right_ops[i].mat @ sd.right_ops[j].mat.conj().T)
                assert abs(li - (i == j)) <= 1e-10
                assert abs(ri - (i == j)) <= 1e-10
        assert np.linalg.norm(sd.reconstruct().mat - g.mat) <= 1e-9
        assert sd.coefficients[0] == pytest.approx(
            norms(realign(g)).operator_norm, abs=1e-10
        )


def test_hermitian_basis_structure():
    for k in (2, 3, 4, 5):
        basis = hermitian_basis(k)
        assert basis.shape == (k * k, k, k)
        gram = np.einsum("aij,bij->ab", basis, basis.conj())
        assert np.allclose(gram, np.eye(k * k))
        for h in basis:
            assert np.allclose(h, h.conj().T)
    b2 = hermitian_basis(2)
    assert np.allclose(b2[0], np.eye(2) / np.sqrt(2))
    assert np.allclose(b2[1], np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    assert np.allclose(b2[2], np.array([[0, -1j], [1j, 0]]) / np.sqrt(2))
    assert np.allclose(b2[3], np.array([[1, 0], [0, -1]]) / np.sqrt(2))


def test_hermitian_coords_round_trip():
    rng = rng_from_seed(31)
    for k in (2, 3, 4):
        h = random_hermitian(rng, k)
        c = hermitian_coords(h)
        assert c.dtype == float
        assert np.allclose(hermitian_from_coords(c, k), h)


def test_g_matrix_identity_example():
    g = BipartiteOperator(np.eye(4) / 4, 2, 2)
    m = g_matrix(g)
    assert isinstance(m, np.ndarray) and not m.flags.writeable
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.5
    assert np.allclose(m, expected)


def test_g_matrix_bell_example(bell2):
    m = g_matrix(bell2)
    assert np.allclose(m, np.diag([1.0, 1.0, -1.0, 1.0]) / 2)


def test_g_matrix_spc_symmetric_psd():
    from triadops import random_spc

    for seed in range(10):
        g = random_spc(3, seed)
        m = g_matrix(g)
        assert np.allclose(m, m.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] >= -1e-10


def test_g_matrix_gates():
    rng = rng_from_seed(32)
    with pytest.raises(NotHermitian):
        g_matrix(random_operator(rng, 2))


def test_fg_matrix_matches_composite():
    rng = rng_from_seed(33)
    k = 3
    g = _random_hermitian_bipartite(rng, k)
    m = fg_matrix(g)
    basis = hermitian_basis(k)
    for b_idx in (0, 3, 7):
        image = fg_apply(g, basis[b_idx]).mat
        assert np.allclose(m[:, b_idx], hermitian_coords(image), atol=1e-11)


def test_hermitian_attainment_of_realignment_norm():
    # for a Hermitian operator the top singular pair of the basis matrix
    # yields Hermitian unit-norm factors attaining the realignment norm
    rng = rng_from_seed(34)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        g = _random_hermitian_bipartite(rng, k)
        target = norms(realign(g)).operator_norm
        u, s, vt = np.linalg.svd(g_matrix(g))
        gamma_1 = hermitian_from_coords(vt[0], k)
        delta_1 = hermitian_from_coords(u[:, 0], k)
        value = np.trace(g.mat @ np.kron(gamma_1, delta_1)).real
        assert abs(abs(value) - target) <= 1e-9
        assert abs(np.linalg.norm(gamma_1) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(delta_1) - 1.0) <= 1e-10
