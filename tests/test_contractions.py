import json

import numpy as np
import pytest

from triadops import (
    BipartiteOperator,
    LocalOperator,
    contraction_by_permutation,
    flip,
    kron,
    left_transpose,
    maximally_entangled_vector,
    norms,
    partial_transpose,
    psd_check,
    realign,
    rng_from_seed,
    star_product,
)
from triadops.errors import DimensionMismatch

from conftest import random_operator, random_psd_local


def _rand_local(rng, k):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def test_partial_transpose_product_rule():
    rng = rng_from_seed(1)
    a, b = _rand_local(rng, 2), _rand_local(rng, 3)
    out = partial_transpose(kron(LocalOperator(a), LocalOperator(b)))
    assert np.array_equal(out.mat, np.kron(a, b.T))


def test_partial_transpose_bell_is_flip(bell2):
    assert np.array_equal(partial_transpose(bell2).mat, flip(2).mat / 2)


def test_partial_transpose_diagonal_fixed():
    d = BipartiteOperator(np.diag([1.0, 2.0, 3.0, 4.0]), 2, 2)
    assert np.array_equal(partial_transpose(d).mat, d.mat)


def test_left_transpose_product_rule():
    rng = rng_from_seed(2)
    a, b = _rand_local(rng, 3), _rand_local(rng, 2)
    out = left_transpose(kron(LocalOperator(a), LocalOperator(b)))
    assert np.array_equal(out.mat, np.kron(a.T, b))
    eye = BipartiteOperator(np.eye(6), 3, 2)
    assert np.array_equal(left_transpose(eye).mat, eye.mat)


def test_left_transpose_of_hermitian():
    rng = rng_from_seed(3)
    m = _rand_local(rng, 4)
    g = BipartiteOperator(0.5 * (m + m.conj().T).reshape(4, 4), 2, 2)
    assert np.allclose(left_transpose(g).mat, partial_transpose(g).mat.conj())


@pytest.mark.parametrize("op", [partial_transpose, left_transpose, realign])
def test_involutions(op):
    rng = rng_from_seed(4)
    g = random_operator(rng, 3)
    assert np.array_equal(op(op(g)).mat, g.mat)


def test_realign_elementary():
    e = [np.zeros((2, 2)) for _ in range(2)]
    e[0][0, 0] = 1.0
    e[1][1, 1] = 1.0
    out = realign(kron(LocalOperator(e[0]), LocalOperator(e[1]))).mat
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.array_equal(out, np.kron(e12, e12))


def test_realign_identity_to_entangled_projector():
    u = maximally_entangled_vector(2)
    eye4 = BipartiteOperator(np.eye(4), 2, 2)
    assert np.array_equal(realign(eye4).mat, np.outer(u, u.conj()))
    uut = BipartiteOperator(np.outer(u, u.conj()), 2, 2)
    assert np.array_equal(realign(uut).mat, np.eye(4))


def test_realign_rank_one_rule():
    rng = rng_from_seed(5)
    k = 3
    v = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
    w = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
    out = realign(BipartiteOperator(np.outer(v, w), k, k)).mat
    assert np.allclose(out, np.kron(v.reshape(k, k), w.reshape(k, k)))


def test_flip_permutation_and_conjugation():
    f2 = flip(2).mat
    expected = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(f2, expected)
    rng = rng_from_seed(6)
    for k in (2, 3):
        f = flip(k).mat
        a, b = _rand_local(rng, k), _rand_local(rng, k)
        assert np.allclose(f @ np.kron(a, b) @ f, np.kron(b, a))
        assert np.array_equal(f, f.T)
        assert np.array_equal(f, f.real)
        assert np.array_equal(f @ f, np.eye(k * k))
        assert np.trace(f) == k


def test_flip_is_partial_transpose_of_entangled_projector():
    u = maximally_entangled_vector(3)
    uut = BipartiteOperator(np.outer(u, u.conj()), 3, 3)
    assert np.array_equal(flip(3).mat, partial_transpose(uut).mat)


def test_star_identity_case():
    eye = BipartiteOperator(np.eye(4), 2, 2)
    assert np.allclose(star_product(eye, eye).mat, 2 * np.eye(4))


def test_star_product_rule_rectangular():
    rng = rng_from_seed(7)
    a, b = _rand_local(rng, 2), _rand_local(rng, 3)
    c, d = _rand_local(rng, 3), _rand_local(rng, 4)
    gamma = kron(LocalOperator(a), LocalOperator(b))
    delta = kron(LocalOperator(c), LocalOperator(d))
    out = star_product(gamma, delta)
    assert out.dim_a == 2 and out.dim_b == 4
    assert np.allclose(out.mat, np.trace(b @ c.T) * np.kron(a, d))


def test_star_sandwich_formula():
    # independent oracle: conjugation of the plain tensor product by
    # Id (x) u^t (x) Id with u the maximally entangled vector
    rng = rng_from_seed(8)
    m, k, s = 2, 3, 2
    gamma = random_operator(rng, m, k)
    delta = random_operator(rng, k, s)
    u = maximally_entangled_vector(k).reshape(1, -1)
    pinch = np.kron(np.kron(np.eye(m), u), np.eye(s))
    oracle = pinch @ np.kron(gamma.mat, delta.mat) @ pinch.conj().T
    assert np.allclose(star_product(gamma, delta).mat, oracle)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_star_realigns_to_the_product_of_realignments(k):
    # identity (8), R(gamma * delta) = R(gamma) R(delta), holds to the bit:
    # the star product is that matrix product, realigned back
    rng = rng_from_seed(30 + k)
    g, d = random_operator(rng, k), random_operator(rng, k)
    assert np.array_equal(realign(star_product(g, d)).mat, realign(g).mat @ realign(d).mat)


def test_star_trace_identity_and_psd():
    rng = rng_from_seed(9)
    from triadops import reduced_a, reduced_b

    for _ in range(20):
        k = int(rng.integers(2, 4))
        g = BipartiteOperator(random_psd_local(rng, k * k), k, k)
        d = BipartiteOperator(random_psd_local(rng, k * k), k, k)
        prod = star_product(g, d)
        lhs = np.trace(prod.mat)
        rhs = np.trace(reduced_b(g).mat @ reduced_a(d).mat.T)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
        assert psd_check(prod).is_psd


def test_star_dimension_gate():
    with pytest.raises(DimensionMismatch):
        star_product(
            BipartiteOperator(np.eye(6), 2, 3), BipartiteOperator(np.eye(4), 2, 2)
        )


def test_permutation_identity_and_generators():
    rng = rng_from_seed(10)
    g = random_operator(rng, 2)
    assert np.array_equal(contraction_by_permutation((1, 2, 3, 4), g).mat, g.mat)
    assert np.array_equal(
        contraction_by_permutation((1, 2, 4, 3), g).mat, partial_transpose(g).mat
    )
    assert np.array_equal(
        contraction_by_permutation((2, 1, 3, 4), g).mat, left_transpose(g).mat
    )
    assert np.array_equal(
        contraction_by_permutation((1, 3, 2, 4), g).mat, realign(g).mat
    )


def test_permutation_24_is_right_flip_multiplication():
    rng = rng_from_seed(11)
    g = random_operator(rng, 2)
    assert np.allclose(
        contraction_by_permutation((1, 4, 3, 2), g).mat, g.mat @ flip(2).mat
    )


def test_permutation_mixing_requires_square():
    g = BipartiteOperator(np.eye(6), 2, 3)
    with pytest.raises(DimensionMismatch):
        contraction_by_permutation((1, 3, 2, 4), g)
    # factor-preserving permutations stay legal on rectangles
    out = contraction_by_permutation((1, 2, 4, 3), g)
    assert (out.dim_a, out.dim_b) == (2, 3)
    # full factor swap is legal as well and swaps the dimensions
    out = contraction_by_permutation((3, 4, 1, 2), g)
    assert (out.dim_a, out.dim_b) == (3, 2)


def test_permutation_validates_input():
    g = BipartiteOperator(np.eye(4), 2, 2)
    with pytest.raises(ValueError):
        contraction_by_permutation((1, 1, 3, 4), g)


def _all_permutations():
    import itertools

    return list(itertools.permutations((1, 2, 3, 4)))


def test_all_24_against_defining_rank_one_action():
    # independent oracle: every slot permutation is pinned down by its action
    # on product operators v1 v2^t (x) v3 v4^t
    rng = rng_from_seed(14)
    for k in (2, 3):
        for sigma in _all_permutations():
            vs = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(4)]
            gamma = BipartiteOperator(
                np.kron(np.outer(vs[0], vs[1]), np.outer(vs[2], vs[3])), k, k
            )
            expected = np.kron(
                np.outer(vs[sigma[0] - 1], vs[sigma[1] - 1]),
                np.outer(vs[sigma[2] - 1], vs[sigma[3] - 1]),
            )
            assert np.allclose(
                contraction_by_permutation(sigma, gamma).mat, expected
            ), sigma


def test_all_24_preserve_frobenius():
    rng = rng_from_seed(12)
    for k in (2, 3):
        g = random_operator(rng, k)
        fro = norms(g).frobenius_norm
        for sigma in _all_permutations():
            assert abs(norms(contraction_by_permutation(sigma, g)).frobenius_norm - fro) <= 1e-12


def test_all_24_are_locked_transposes_that_round_trip_json():
    # each result is read-only, equals the defining transpose of the input's
    # slots (slot s of the output holds slot sigma(s) of the input), and
    # serializes losslessly
    rng = rng_from_seed(15)
    for k, m in ((2, 2), (3, 3), (2, 3)):
        g = random_operator(rng, k, m)
        slots = g.mat.reshape(k, m, k, m).transpose(0, 2, 1, 3)  # (row_a, col_a, row_b, col_b)
        for sigma in _all_permutations():
            out_slots = slots.transpose([s - 1 for s in sigma])
            if out_slots.shape[0] != out_slots.shape[1]:
                with pytest.raises(DimensionMismatch):
                    contraction_by_permutation(sigma, g)
                continue
            out = contraction_by_permutation(sigma, g)
            assert (out.dim_a, out.dim_b) == (out_slots.shape[0], out_slots.shape[2]), sigma
            expected = out_slots.transpose(0, 2, 1, 3).reshape(k * m, k * m)
            assert np.array_equal(out.mat, expected), sigma
            assert not out.mat.flags.writeable, sigma
            with pytest.raises(ValueError):
                out.mat[0, 0] = 1.0
            back = BipartiteOperator.from_json(json.loads(json.dumps(out.to_json())))
            assert (back.dim_a, back.dim_b) == (out.dim_a, out.dim_b), sigma
            assert np.array_equal(back.mat, out.mat), sigma


def test_operator_copies_the_callers_array():
    # the copy boundary is __init__: a caller mutating its array afterwards
    # changes neither the operator nor the contractions taken from it
    arr = random_operator(rng_from_seed(16), 2).mat.copy()
    original = arr.copy()
    g = BipartiteOperator(arr, 2, 2)
    images = [contraction_by_permutation(sigma, g) for sigma in _all_permutations()]
    before = [image.mat.copy() for image in images]
    arr[:] = 7.0
    assert np.array_equal(g.mat, original)
    for sigma, image, mat in zip(_all_permutations(), images, before):
        assert np.array_equal(image.mat, mat), sigma
        assert np.array_equal(contraction_by_permutation(sigma, g).mat, mat), sigma
