import gc
import json
import math
import threading
import weakref

import numpy as np
import pytest

import triadops
from triadops import (
    DEFAULT,
    BipartiteOperator,
    LocalOperator,
    TriadClassification,
    TriadResiduals,
    bound_gamma_pt,
    canonical,
    classify,
    contraction_by_permutation,
    find_psd_eigenvector,
    flip,
    hermitian_eig,
    kron,
    norms,
    ppt_pair_forces_invariance,
    psd_check,
    random_density,
    random_separable,
    realign,
    rng_from_seed,
)
from triadops.errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotPSD
from triadops.schmidt_maps import hermitian_basis, hermitian_from_coords
from triadops.tensor_core import _MEMO, _MEMO_SIZE, _clusters, _herm_eigvalsh, _kron, _pivot_phases, _svd

from conftest import random_hermitian, random_operator, random_psd_local

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_kron_identity():
    out = kron(LocalOperator(np.eye(2)), LocalOperator(np.eye(2)))
    assert np.array_equal(out.mat, np.eye(4))
    assert out.dim_a == out.dim_b == 2


def test_kron_elementary_tensor():
    e1 = np.zeros((2, 2))
    e1[0, 0] = 1.0
    e2 = np.zeros((2, 2))
    e2[1, 1] = 1.0
    out = kron(LocalOperator(e1), LocalOperator(e2)).mat
    expected = np.zeros((4, 4))
    expected[0 * 2 + 1, 0 * 2 + 1] = 1.0
    assert np.array_equal(out, expected)


def test_kron_pauli_x_pair():
    # worked out entrywise: sigma_x (x) sigma_x is the anti-diagonal of ones
    out = kron(LocalOperator(SX), LocalOperator(SX)).mat
    assert np.array_equal(out, np.fliplr(np.eye(4)))


def test_kron_bilinear_sweep():
    rng = rng_from_seed(101)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = kron(LocalOperator(alpha * a + b), LocalOperator(c)).mat
        rhs = alpha * kron(LocalOperator(a), LocalOperator(c)).mat + kron(
            LocalOperator(b), LocalOperator(c)
        ).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-13



def test_private_kron_matches_numpy_bit_for_bit():
    rng = rng_from_seed(102)

    def real(shape):
        out = rng.standard_normal(shape)
        out.flat[::3] = -0.0  # signed zeros must survive the products unchanged
        return out

    def cplx(shape):
        return real(shape) + 1j * real(shape)

    def isometry(k, m):
        # a k x m basis of orthonormal columns, as compressed blocks are lifted with
        q, _ = np.linalg.qr(cplx((k, k)))
        return q[:, :m]

    for k in (1, 2, 3, 6):
        for m in range(1, k + 1):
            pairs = [
                (real((k, k)), cplx((m, m))),
                (cplx((k, m)), real((m, k))),
                (cplx((k, k)), cplx((k, k))),
                (isometry(k, m), isometry(k, k - m + 1)),
                (isometry(k, m).conj().T, np.eye(k)),
                (np.eye(m), real((k, m)).T),
                (real((k, m)), real((m, m))),
            ]
            for a, b in pairs:
                got, want = _kron(a, b), np.kron(a, b)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_stacked_linalg_matches_per_matrix_calls_bit_for_bit(k):
    # Code that screens its candidates in one stacked call (none in src/
    # does today) gives the same results as a loop only if every stacked
    # matrix gets the bits it gets alone.
    rng = rng_from_seed(103 + k)
    shape = (2 * k * k, k, k)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for mat, got in zip(stack, _herm_eigvalsh(stack)):
        assert got.tobytes() == _herm_eigvalsh(mat).tobytes()
    for mat, got in zip(stack, np.linalg.svd(stack, compute_uv=False)):
        assert got.tobytes() == np.linalg.svd(mat, compute_uv=False).tobytes()

    sym = rng.standard_normal((k * k, k * k))
    _, vecs = np.linalg.eigh(sym + sym.T)
    mats = np.einsum("an,aij->nij", vecs, hermitian_basis(k))
    for n in range(k * k):
        assert mats[n].tobytes() == hermitian_from_coords(vecs[:, n], k).tobytes()


def test_hermitian_eig_reports_a_failed_eigensolve(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="eigensolver did not converge: Eigenvalues"):
        hermitian_eig(LocalOperator(np.eye(2)))


def test_hermitian_eig_identity():
    sd = hermitian_eig(LocalOperator(np.eye(2)))
    assert np.allclose(sd.eigenvalues, [1.0, 1.0])
    assert np.allclose(sd.eigenvectors @ sd.eigenvectors.conj().T, np.eye(2))


def test_hermitian_eig_flip():
    # the swap operator squares to the identity; its +1 eigenspace is the
    # symmetric subspace (dim 3 for k=2), the -1 eigenspace antisymmetric
    sd = hermitian_eig(flip(2))
    assert np.allclose(sd.eigenvalues, [1.0, 1.0, 1.0, -1.0])


def test_hermitian_eig_diagonal():
    sd = hermitian_eig(LocalOperator(np.diag([3.0, 1.0])))
    assert np.allclose(sd.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(2))


def test_hermitian_eig_reconstruction_sweep():
    rng = rng_from_seed(7)
    for n in (2, 3, 4, 9, 16, 36):
        h = random_hermitian(rng, n)
        sd = hermitian_eig(LocalOperator(h))
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)
        assert np.all(np.diff(sd.eigenvalues) <= 1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-13, 1e-15])
def test_hermitian_eig_pairs_vectors_with_values_at_any_scale(scale):
    # reordering inside a degenerate cluster must keep every eigenvector with
    # its eigenvalue at any scale, so the cluster width is relative
    a = scale * random_density(3, 9, 1).mat
    sd = hermitian_eig(BipartiteOperator(a, 3, 3))
    v, w = sd.eigenvectors, sd.eigenvalues
    assert np.linalg.norm(a @ v - v * w) <= 1e-13 * np.linalg.norm(a)
    assert np.all(np.diff(w) <= 0.0)


def test_hermitian_eig_deterministic():
    rng = rng_from_seed(13)
    h = random_hermitian(rng, 5)
    a = hermitian_eig(LocalOperator(h))
    b = hermitian_eig(LocalOperator(h.copy()))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _tuple_sorted_eig(a):
    """``hermitian_eig``'s pairs, each degenerate cluster ordered by a sort
    of one tuple of rounded coordinates per column: the reference order."""
    w, v = np.linalg.eigh(0.5 * (a.mat + a.mat.conj().T))
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    v *= _pivot_phases(v.T)
    scale = max(abs(float(w[0])), abs(float(w[-1])), np.finfo(float).tiny)
    clusters = [c for c in _clusters(w, 1e-12 * scale) if len(c) > 1]
    for cluster in clusters:
        keys = [tuple(np.round(np.concatenate([v[:, c].real, v[:, c].imag]), 10)) for c in cluster]
        order = sorted(range(len(cluster)), key=lambda i: keys[i])
        v[:, cluster] = v[:, [cluster[i] for i in order]]
    return w, v, len(clusters)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_hermitian_eig_orders_degenerate_clusters_as_a_tuple_sort(k):
    # separable states of rank < k^2 - 1, the fixtures and low-rank densities
    # all have a degenerate cluster, whose columns one lexsort orders
    states = [canonical(name, k) for name in ("classical_diag", "bell", "identity_plus_u")]
    for seed in range(6):
        states.append(random_separable(k, 1 + seed % (k * k - 2), 700 + seed)[0])
        states.append(random_density(k, 1 + seed % k, 800 + seed))
    degenerate = 0
    for g in states:
        w, v, clusters = _tuple_sorted_eig(g)
        degenerate += clusters > 0
        sd = hermitian_eig(g)
        assert np.array_equal(sd.eigenvalues, w)
        assert sd.eigenvectors.tobytes() == v.tobytes()
    assert degenerate == len(states)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(LocalOperator([[0.0, 1.0], [0.0, 0.0]]))


def test_norms_identity_and_rank_one():
    assert norms(LocalOperator(np.eye(3))) == pytest.approx((3.0, np.sqrt(3.0), 1.0))
    u = np.array([0.6, 0.8])
    assert norms(LocalOperator(np.outer(u, u))) == pytest.approx((1.0, 1.0, 1.0))


def test_norms_are_measured_once_per_operator():
    op = LocalOperator(random_psd_local(rng_from_seed(25), 4))
    assert norms(op) is norms(op)


def _looped_pivot_phases(rows):
    """The phase rule one pivot at a time, in scalar arithmetic."""
    mags = np.abs(rows)
    first_top = np.argmax(mags >= (1.0 - 1e-12) * mags.max(axis=1, keepdims=True), axis=1)
    pivots = rows[np.arange(len(rows)), first_top]
    return np.array([np.conj(p) / abs(p) if abs(p) > 0 else 1.0 for p in pivots])


def test_pivot_phases_match_the_scalar_rule_bit_for_bit():
    rng = rng_from_seed(26)
    cases = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (4, 9, 36)]
    cases += [rng.standard_normal((n, n)) for n in (4, 36)]
    cases += [10.0 ** rng.uniform(-300, 300, (36, 36)) * np.exp(2j * np.pi * rng.random((36, 36)))]
    rows = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    rows[0] = 0.0  # a zero pivot
    rows[1, 2] = complex(-0.0, 30.0)  # pivots with -0.0 parts
    rows[2, :] = 0.0
    rows[2, 1] = complex(0.0, -0.0)
    rows[2, 3] = complex(-2.0, -0.0)
    rows[3, 1], rows[3, 4] = 10.0 + 10.0j, 10.0 - 10.0j  # tied moduli, the first taken
    rows[4, 0], rows[4, 3] = np.array([0.6 - 0.8j, -0.8 + 0.6j]) * 9.0
    cases += [rows, np.zeros((3, 4), dtype=complex), np.array([[0.0, -0.0, -2.0, 2.0], [0.0, 0.0, 0.0, 0.0]])]
    cases += [np.eye(4, dtype=complex), -np.eye(4)]
    for rows in cases:
        # the loop gives real phases for complex rows whose pivots are all zero
        got, want = _pivot_phases(rows), _looped_pivot_phases(rows).astype(rows.dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_norms_of_an_exactly_hermitian_operator_come_from_its_spectrum(monkeypatch):
    rng = rng_from_seed(27)
    ops = [LocalOperator(random_hermitian(rng, n)) for n in (1, 3, 6, 36)]
    psd = random_psd_local(rng, 5)
    ops += [LocalOperator(0.5 * (psd + psd.conj().T)), flip(3)]
    want = {id(op): np.linalg.svd(op.mat, compute_uv=False) for op in ops}
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svds.append(1) or svd(*args, **kw))
    for op in ops:
        s = want[id(op)]
        got = norms(op)
        assert got.operator_norm == pytest.approx(s[0], rel=1e-14)
        assert got.trace_norm == pytest.approx(np.sum(s), rel=1e-14)
        assert got.frobenius_norm == pytest.approx(np.linalg.norm(s), rel=1e-14)
    assert not svds

    # a Hermiticity defect of 1e-14, far inside tols.herm, still takes the SVD
    tilted = random_hermitian(rng, 4)
    tilted[0, 1] += 1e-14
    op = LocalOperator(tilted)
    got = norms(op)
    assert len(svds) == 1 and got.operator_norm == float(_svd(op)[1][0])

    # entries near the largest float would overflow a + a^*, so they take the SVD too
    huge = LocalOperator(np.diag([1e308, -5e307]))
    got = norms(huge)
    assert len(svds) == 2
    assert got.operator_norm == pytest.approx(1e308, rel=1e-14)
    assert got.trace_norm == pytest.approx(1.5e308, rel=1e-14)
    assert got.frobenius_norm == pytest.approx(math.hypot(1e308, 5e307), rel=1e-14)


def test_svd_is_memoized_and_locked():
    op = LocalOperator(random_hermitian(rng_from_seed(28), 4) + 1j * np.eye(4))
    u, s, vh = _svd(op)
    assert _svd(op) is _svd(op)
    assert np.allclose((u * s) @ vh, op.mat, atol=1e-14)
    for factor in (u, s, vh):
        with pytest.raises(ValueError):
            factor.setflags(write=True)


def test_norms_flip():
    assert norms(flip(2)) == pytest.approx((4.0, 2.0, 1.0))


def test_norm_ordering_sweep():
    rng = rng_from_seed(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tn, fn, on = norms(LocalOperator(m))
        assert tn >= fn - 1e-12
        assert fn >= on - 1e-12


def test_trace_norm_equals_trace_for_psd():
    rng = rng_from_seed(24)
    for _ in range(20):
        a = random_psd_local(rng, int(rng.integers(2, 6)))
        assert norms(LocalOperator(a)).trace_norm == pytest.approx(
            np.trace(a).real, abs=1e-10
        )


def test_psd_check_examples(bell2):
    assert psd_check(LocalOperator(np.eye(2))) == (True, pytest.approx(1.0))
    from triadops import partial_transpose

    rep = psd_check(partial_transpose(bell2))
    assert rep.is_psd is False
    assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    zero = psd_check(LocalOperator(np.zeros((3, 3))))
    assert zero.is_psd is True and zero.min_eigenvalue == 0.0


def test_operator_validation():
    with pytest.raises(ValueError):
        BipartiteOperator(np.eye(5), 2, 2)
    with pytest.raises(ValueError):
        BipartiteOperator(np.full((4, 4), np.nan), 2, 2)
    with pytest.raises(ValueError):
        LocalOperator(np.ones((2, 3)))


def test_operators_immutable(bell2):
    with pytest.raises((ValueError, AttributeError)):
        bell2.mat[0, 0] = 5.0
    # the checked constructors and both unchecked paths build the same
    # immutable records, which name their class and show their dimensions
    ops = {
        "BipartiteOperator(dim_a=2, dim_b=2)": (bell2, "dim_a"),
        "BipartiteOperator(dim_a=3, dim_b=2)": (
            BipartiteOperator(np.eye(6), 2, 3)._permuted((1, 0, 3, 2), 3, 2),
            "dim_b",
        ),
        "LocalOperator(dim=2)": (LocalOperator(np.eye(2)), "dim"),
        "LocalOperator(dim=3)": (LocalOperator._stack(np.zeros((2, 3, 3)))[1], "dim"),
    }
    for text, (op, dim_name) in ops.items():
        assert repr(op) == text
        for name, value in ((dim_name, 3), ("mat", np.eye(2)), ("extra", 1)):
            with pytest.raises(AttributeError, match=f"^{type(op).__name__} is immutable$"):
                setattr(op, name, value)
        assert repr(op) == text


def test_operator_writes_cannot_be_turned_back_on(bell2):
    # the memo (and hermitian_basis's cache) reuses results by identity, so
    # no matrix may change after construction, not even by re-enabling writes
    mats = {
        "__init__": bell2.mat,
        "_permuted": contraction_by_permutation((2, 1, 4, 3), bell2).mat,
        "_stack": LocalOperator._stack(np.zeros((3, 2, 2)))[1].mat,
        "cached realign": realign(bell2).mat,
        "hermitian_eig": hermitian_eig(bell2).eigenvectors,
        "hermitian_basis": hermitian_basis(2),
    }
    assert realign(bell2) is realign(bell2)
    for name, mat in mats.items():
        with pytest.raises(ValueError):
            mat.setflags(write=True)
        assert not mat.flags.writeable, name


def test_memo_is_bounded_and_drops_what_it_evicts():
    # with gc off only reference counts free objects, so an object dies
    # exactly when nothing refers to it; an operator's ``mat`` view dies with it
    rng = rng_from_seed(11)
    gc.disable()
    try:
        _MEMO.entries.clear()
        first = random_operator(rng, 3)
        first_mat, realigned_mat = weakref.ref(first.mat), weakref.ref(realign(first).mat)
        del first
        assert first_mat() is not None and realigned_mat() is not None
        for _ in range(_MEMO_SIZE):
            norms(random_operator(rng, 3))
        assert len(_MEMO.entries) == _MEMO_SIZE
        assert first_mat() is None and realigned_mat() is None

        # a derived operator holds no reference back to its source
        source = random_operator(rng, 3)
        source_mat, derived = weakref.ref(source.mat), realign(source)
        _MEMO.entries.clear()
        del source
        assert source_mat() is None and derived.mat.shape == (9, 9)
    finally:
        gc.enable()


def test_memo_is_per_thread():
    realign(random_operator(rng_from_seed(12), 2))
    assert len(_MEMO.entries) > 0
    seen = []
    worker = threading.Thread(target=lambda: seen.append(len(_MEMO.entries)))
    worker.start()
    worker.join()
    assert seen == [0]


def test_json_round_trip(bell2):
    data = json.loads(json.dumps(bell2.to_json()))
    back = BipartiteOperator.from_json(data)
    assert np.array_equal(back.mat, bell2.mat)
    local = LocalOperator(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.5]]))
    back_local = LocalOperator.from_json(json.loads(json.dumps(local.to_json())))
    assert np.array_equal(back_local.mat, local.mat)


# Every public entry point defined only for equal factor dimensions, with
# the arguments it takes after the state.  A PPT flag lets the entries that
# need a triad flag reach their dimension check.
_FLAGGED = TriadClassification(True, True, False, False, 1.0, TriadResiduals(0.0, 0.0, 0.0, 0.0))
SQUARE_ONLY = {
    "realign": (),
    "schmidt": (),
    "g_matrix": (),
    "fg_matrix": (),
    "classify": (),
    "ccnr_entanglement_flag": (),
    "bound_gamma_pt": (),
    "bound_realign_sq": (),
    "bound_triad": (_FLAGGED,),
    "ppt_pair_forces_invariance": (),
    "sinkhorn_filter": (),
    "doubly_stochastic_check": (),
    "fully_indecomposable_probe": (),
    "find_psd_eigenvector": (),
    "split": (LocalOperator(np.diag([1.0, 0.0])),),
    "decompose": (),
    "equal_schmidt_certificate": (_FLAGGED,),
    "minimal_rank_extract": (_FLAGGED,),
}


@pytest.mark.parametrize("name", list(SQUARE_ONLY))
def test_square_only_entry_points_reject_rectangles(name):
    g = rng_from_seed(5).standard_normal((6, 6))
    state = BipartiteOperator(g @ g.T / np.trace(g @ g.T), 2, 3)  # a valid state
    with pytest.raises(DimensionMismatch, match=r"\(2, 3\)"):
        getattr(triadops, name)(state, *SQUARE_ONLY[name])


@pytest.mark.parametrize("norm", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("depth", [0.5, 2.0])
def test_psd_floor_agrees_across_entry_points(norm, depth):
    # a diagonal state equals its partial transpose, so PPT holds exactly
    # when the state is PSD; its lowest eigenvalue sits at depth x the floor
    floor = DEFAULT.psd * norm
    gamma = BipartiteOperator(np.diag([norm, norm / 2, norm / 3, -depth * floor]), 2, 2)

    def accepts(fn):
        try:
            fn(gamma)
        except NotPSD:
            return False
        return True

    verdicts = {
        "classify.ppt": classify(gamma).ppt,
        "psd_check": psd_check(gamma).is_psd,
        "bound_gamma_pt": accepts(bound_gamma_pt),
        "ppt_pair_forces_invariance": accepts(ppt_pair_forces_invariance),
        "find_psd_eigenvector": accepts(find_psd_eigenvector),
    }
    assert set(verdicts.values()) == {depth < 1}, verdicts
