import dataclasses
import json

import numpy as np
import pytest

from triadops import (
    DEFAULT,
    BipartiteOperator,
    ExtractionFailure,
    LocalOperator,
    ProductTerm,
    SeparableDecomposition,
    bound_gamma_pt,
    bound_realign_sq,
    canonical,
    classify,
    decompose,
    doubly_stochastic_check,
    equal_schmidt_certificate,
    fg_apply,
    find_psd_eigenvector,
    fully_indecomposable_probe,
    g_apply,
    hermitian_eig,
    kron,
    minimal_rank_extract,
    psd_check,
    random_density,
    random_invariant,
    random_ppt,
    random_separable,
    random_spc,
    rank_bound_check,
    rng_from_seed,
    sinkhorn_filter,
    split,
)
from triadops.errors import (
    CompleteReducibilityViolation,
    FullRankEigenvector,
    NotPSD,
    PreconditionNotMet,
    ZeroMatrix,
)

from triadops import reducibility
from triadops.cli import _format_json, main
from triadops.reducibility import _unit_psd
from triadops.tensor_core import _MEMO, _boundary_step

from conftest import (
    factorizations,
    haar_congruence,
    haar_unitary,
    light_block_state,
    local_scale,
    random_pd_local,
    random_psd_local,
    spc_not_ppt_states,
    unmatched_classical_state,
)


def test_find_eigenvector_product_state():
    rng = rng_from_seed(50)
    a = random_psd_local(rng, 3, rank=2)
    b = random_psd_local(rng, 3)
    g = kron(LocalOperator(a), LocalOperator(b))
    res = find_psd_eigenvector(g)
    assert res.found
    assert np.linalg.norm(res.x.mat - a / np.linalg.norm(a)) <= 1e-8
    assert res.eigenvalue == pytest.approx(
        np.trace(a @ a).real * np.trace(b @ b).real, rel=1e-9
    )


def test_find_eigenvector_classical_diag(classical_diag2):
    res = find_psd_eigenvector(classical_diag2)
    assert res.found
    assert res.eigenvalue == pytest.approx(0.25, abs=1e-12)
    x = res.x.mat
    hits_e11 = np.linalg.norm(x - np.diag([1.0, 0.0])) <= 1e-9
    hits_e22 = np.linalg.norm(x - np.diag([0.0, 1.0])) <= 1e-9
    assert hits_e11 or hits_e22


def test_find_eigenvector_not_found(identity_plus_u2):
    res = find_psd_eigenvector(identity_plus_u2)
    assert not res.found
    assert res.x is None
    witness = res.full_rank_witness.mat
    assert np.linalg.eigvalsh(witness)[0] > 1e-6


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_not_found_witness_is_a_positive_definite_eigenvector(k):
    # A full-rank near-copy of rotated classical_diag: the top two eigenvalues
    # of the composite map differ by about 0.2%, so the top eigenvector is far
    # from anything a few hundred power steps from the identity reach, and
    # LAPACK's sign for it is arbitrary.
    rng = rng_from_seed(700 + 10 * k)
    big = np.kron(haar_unitary(rng, k), haar_unitary(rng, k))
    mix = 0.999 * canonical("classical_diag", k).mat + 0.001 * random_density(k, k * k, 700 + k).mat
    for g in (canonical("identity_plus_u", k), BipartiteOperator(big @ mix @ big.conj().T, k, k)):
        res = find_psd_eigenvector(g)
        assert not res.found and res.x is None
        x = res.full_rank_witness.mat
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(x)[0] > 0
        y = fg_apply(g, x).mat
        lam = float(np.trace(x.conj().T @ y).real)
        assert np.linalg.norm(y - lam * x) <= 1e-8 * lam


@pytest.mark.parametrize("right", ["V", "Vbar", "W"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_rotated_classical_diag_splits_into_k_leaves(k, right):
    # The top cluster of the composite map is the rotated diagonal algebra;
    # eigh picks an arbitrary basis of it, which for k >= 4 rarely holds a
    # singular PSD element, yet the walk from the identity's projection finds
    # one.  Key 1000 at k = 5 under V (x) V once gave one weakly_irreducible
    # leaf of side 5.
    cd = canonical("classical_diag", k)
    for key in range(1000, 1040):
        leaves = decompose(haar_congruence(cd, np.random.default_rng(key), right)).leaves()
        assert len(leaves) == k, (key, len(leaves))
        assert all(leaf.leaf_status == "weakly_irreducible" for leaf in leaves), key
        assert all(leaf.state.dim_a == leaf.state.dim_b == 1 for leaf in leaves), key


def _bisected_boundary(x_pd, direction, sign):
    """Reference crossing point on the side ``sign`` of x_pd, by doubling and bisection."""
    hi = sign
    while np.linalg.eigvalsh(x_pd + hi * direction)[0] >= 0:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.eigvalsh(x_pd + mid * direction)[0] < 0:
            hi = mid
        else:
            lo = mid
    out = x_pd + lo * direction
    return out / np.linalg.norm(out)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_closed_form_boundary_matches_bisection(k):
    rng = rng_from_seed(900 + k)
    for _ in range(5):
        x = random_pd_local(rng, k)
        w, v = np.linalg.eigh(x)
        whiten = v.conj().T / np.sqrt(w)[:, None]
        h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        # a Hermitian direction crosses on the positive side; a PSD one
        # only on the negative side
        for direction, sign in ((h + h.conj().T, 1.0), (h @ h.conj().T, -1.0)):
            got = _unit_psd(x + _boundary_step(whiten, direction) * direction, DEFAULT.rank)[0]
            low = np.linalg.eigvalsh(got)
            assert abs(low[0]) <= 1e-12 * low[-1]  # singular and PSD up to roundoff
            assert np.linalg.norm(got - _bisected_boundary(x, direction, sign)) <= 1e-12


def test_find_eigenvector_one_by_one_is_not_found():
    res = find_psd_eigenvector(BipartiteOperator([[0.7]], 1, 1))
    assert not res.found and res.x is None and res.eigenvalue is None


def test_find_eigenvector_rejects_non_psd():
    with pytest.raises(NotPSD):
        find_psd_eigenvector(BipartiteOperator(np.diag([1.0, -1, 1, 1]), 2, 2))


def test_split_classical_diag(classical_diag2):
    cert = split(classical_diag2, LocalOperator(np.diag([1.0, 0.0])))
    assert cert.residual <= 1e-14
    assert np.allclose(cert.proj_v.mat, np.diag([1.0, 0.0]))
    assert np.allclose(cert.proj_w.mat, np.diag([1.0, 0.0]))
    # complementary orthogonal projections
    assert np.allclose(cert.proj_v.mat + cert.proj_v_perp.mat, np.eye(2))
    assert np.linalg.norm(cert.proj_v.mat @ cert.proj_v_perp.mat) <= 1e-10
    assert np.allclose(cert.proj_w.mat + cert.proj_w_perp.mat, np.eye(2))
    # eigenvector relation
    x = cert.x.mat
    assert np.linalg.norm(
        fg_apply(classical_diag2, x).mat - cert.eigenvalue * x
    ) <= 1e-8
    # vanishing cross block
    cross = np.kron(cert.proj_v.mat, cert.proj_w.mat) @ classical_diag2.mat @ np.kron(
        cert.proj_v_perp.mat, cert.proj_w_perp.mat
    )
    assert np.linalg.norm(cross) <= 1e-8


def _orthogonal_block_state(rng, k, sizes):
    """Direct sum of random product states on orthogonal local supports."""
    mat = np.zeros((k * k, k * k), dtype=complex)
    offset = 0
    weights = rng.dirichlet(np.ones(len(sizes)))
    for w, size in zip(weights, sizes):
        basis = np.zeros((k, size))
        for i in range(size):
            basis[offset + i, i] = 1.0
        rho = random_psd_local(rng, size)
        rho /= np.trace(rho).real
        sig = random_psd_local(rng, size)
        sig /= np.trace(sig).real
        lift = np.kron(basis, basis)
        mat += w * lift @ np.kron(rho, sig) @ lift.conj().T
        offset += size
    return BipartiteOperator(mat, k, k)


def test_split_recovers_orthogonal_blocks():
    rng = rng_from_seed(51)
    g = _orthogonal_block_state(rng, 3, (1, 2))
    res = find_psd_eigenvector(g)
    assert res.found
    cert = split(g, res.x)
    assert cert.residual <= 1e-10
    ranks = sorted(
        int(round(np.trace(p.mat).real)) for p in (cert.proj_v, cert.proj_v_perp)
    )
    assert ranks == [1, 2]


def test_split_gates(bell2, classical_diag2):
    with pytest.raises(FullRankEigenvector):
        split(classical_diag2, LocalOperator(np.eye(2)))
    with pytest.raises(CompleteReducibilityViolation):
        split(bell2, LocalOperator(np.diag([1.0, 0.0])))


def test_split_refuses_a_zero_eigenvector(classical_diag2):
    with pytest.raises(ZeroMatrix, match="split eigenvector is numerically zero"):
        split(classical_diag2, LocalOperator(np.zeros((2, 2))))


def test_decompose_classical_diag(classical_diag2):
    tree = decompose(classical_diag2)
    leaves = tree.leaves()
    assert len(leaves) == 2
    assert all(leaf.leaf_status == "weakly_irreducible" for leaf in leaves)
    assert all(leaf.state.dim_a == 1 for leaf in leaves)
    assert np.linalg.norm(tree.reconstruct() - classical_diag2.mat) <= 1e-8


def test_decompose_weakly_irreducible(identity_plus_u2):
    tree = decompose(identity_plus_u2)
    assert tree.leaf_status == "weakly_irreducible"
    assert not tree.children


def test_decompose_three_blocks():
    rng = rng_from_seed(52)
    g = _orthogonal_block_state(rng, 3, (1, 1, 1))
    tree = decompose(g)
    assert len(tree.leaves()) == 3
    assert np.linalg.norm(tree.reconstruct() - g.mat) <= 1e-8
    # the report leaves the embeddings out at every depth; the nodes keep them
    nodes = [(tree, tree.to_json())]
    while nodes:
        node, report = nodes.pop()
        assert "embed_a" not in report and "embed_b" not in report
        for child, child_report in zip(node.children, report["children"], strict=True):
            assert isinstance(child.embed_a, np.ndarray) and isinstance(child.embed_b, np.ndarray)
            nodes.append((child, child_report))


def test_decompose_mixed_block_sizes():
    rng = rng_from_seed(53)
    g = _orthogonal_block_state(rng, 4, (2, 2))
    tree = decompose(g)
    assert len(tree.leaves()) == 2
    assert np.linalg.norm(tree.reconstruct() - g.mat) <= 1e-8
    assert sorted(leaf.state.dim_a for leaf in tree.leaves()) == [2, 2]


def test_decompose_unequal_blocks_end_in_rectangular_leaves():
    # a (2, 1) + (1, 2) direct sum at k = 3 under a Haar U (x) V: each block
    # compresses to unequal local sides, where the square-only search stops
    e = np.eye(3)
    embeds = (np.kron(e[:, :2], e[:, :1]), np.kron(e[:, 2:], e[:, 1:]))
    for seed in range(400, 405):
        rng = rng_from_seed(seed)
        mat = sum(b @ random_psd_local(rng, 2) @ b.T for b in embeds)
        big = np.kron(haar_unitary(rng, 3), haar_unitary(rng, 3))
        g = BipartiteOperator(big @ mat @ big.conj().T, 3, 3)
        assert classify(g).ppt, seed
        tree = decompose(g)
        leaves = sorted((leaf.state.dim_a, leaf.state.dim_b, leaf.leaf_status) for leaf in tree.leaves())
        assert leaves == [(1, 2, "not_split_found"), (2, 1, "not_split_found")], seed
        assert np.linalg.norm(tree.reconstruct() - g.mat) <= 1e-13 * np.linalg.norm(g.mat), seed


def test_decompose_requires_triad_flag(bell2):
    with pytest.raises(PreconditionNotMet):
        decompose(bell2)


@pytest.mark.parametrize("weight", [1e-6, 1e-8, 1e-10])
def test_decompose_judges_light_blocks_at_the_roots_scale(weight):
    # a block of trace 1e-6 to 1e-10 of the root's carries the root's
    # roundoff, far above its own scale: judged at its own scale, it would
    # be refused as not PSD, and at 1e-10 its split's residual (seeds 6, 9
    # and 17) would exceed tols.split.  Down to 1e-8 it still compresses to
    # its product state, a 1 x 1 leaf, and no block of roundoff is kept.
    for seed in (0, 1, 5, 6, 9, 17):
        g = light_block_state(seed, weight)
        assert classify(g).ppt, seed
        tree = decompose(g)
        herm = 0.5 * (g.mat + g.mat.conj().T)
        assert np.linalg.norm(tree.reconstruct() - herm) <= DEFAULT.split * np.linalg.norm(herm), seed
        if weight >= 1e-8:
            leaves = sorted((leaf.state.dim_a, leaf.leaf_status) for leaf in tree.leaves())
            assert leaves == [(1, "weakly_irreducible"), (2, "weakly_irreducible")], seed


def test_decompose_admits_its_input_once(monkeypatch):
    # the gate's verdicts are classify's, and no node is admitted again: each
    # of the four splits takes one eigvalsh, at its boundary step, and five eigh
    g = haar_congruence(canonical("classical_diag", 5), np.random.default_rng(3), "V")
    classify(g)
    seen = factorizations(monkeypatch, names=("eigvalsh", "eigh"))
    assert len(decompose(g).leaves()) == 5
    names = [name for name, *_ in seen]
    assert names.count("eigvalsh") == 4 and names.count("eigh") == 20


@pytest.mark.parametrize("k", [3, 4])
def test_spc_states_that_are_not_ppt_decompose(k):
    # decompose admits them on the SPC flag alone; alone each is one leaf,
    # and beside an SPC block of side 2 it splits off as its own leaf
    for g in spc_not_ppt_states(k):
        c = classify(g)
        assert c.spc and not c.ppt and not c.invariant
        assert rank_bound_check(g, c).bound_holds
        assert [leaf.leaf_status for leaf in decompose(g).leaves()] == ["weakly_irreducible"]
    g = _direct_sum([spc_not_ppt_states(k)[0], random_spc(2, k)])
    assert not classify(g).ppt
    tree = decompose(g)
    leaves = sorted((leaf.state.dim_a, leaf.leaf_status) for leaf in tree.leaves())
    assert leaves == [(2, "weakly_irreducible"), (k, "weakly_irreducible")]
    assert np.linalg.norm(tree.reconstruct() - g.mat) <= 1e-12 * np.linalg.norm(g.mat)


def _tree_nodes(tree):
    yield tree
    for child in tree.children:
        yield from _tree_nodes(child)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_decompose_children_do_not_follow_roundoff_between_mirror_entries(k):
    # each child is compressed to eigenvectors of x and g(x), which 1-ulp
    # nudges move by roundoff only; a basis of a projector's eigenvalue-1
    # eigenspace from an eigensolve is arbitrary and could rotate by O(1)
    g = haar_congruence(canonical("classical_diag", k), rng_from_seed(60 + k), "V")
    base = list(_tree_nodes(decompose(g)))
    rng = np.random.default_rng(k)
    for _ in range(40):
        p, q = sorted(rng.choice(k * k, 2, replace=False))
        mat = np.array(g.mat)
        re = np.nextafter(mat[p, q].real, np.inf)
        mat[p, q], mat[q, p] = re + 1j * mat[p, q].imag, re - 1j * mat[p, q].imag
        moved = list(_tree_nodes(decompose(BipartiteOperator(mat, k, k))))
        assert len(moved) == len(base)
        for old, new in zip(base, moved):
            assert old.state.mat.shape == new.state.mat.shape
            assert np.abs(new.state.mat - old.state.mat).max() <= 1e-10, (p, q)


def test_decompose_factors_each_matrix_once(monkeypatch):
    # per split node: the composite map, the identity's projection, one
    # boundary point, x and g(x); a leaf needs only the first two, and a
    # 1 x 1 leaf none
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))

    def counted(g):
        classify(g)  # warm its memo, so that only the search and the splits count
        calls.clear()
        return decompose(g), len(calls)

    tree, n = counted(random_spc(4, 11))
    assert tree.leaf_status == "weakly_irreducible" and n == 2
    tree, n = counted(haar_congruence(canonical("classical_diag", 4), rng_from_seed(64), "V"))
    assert len(tree.leaves()) == 4 and n <= 15


@pytest.mark.parametrize("k", [2, 4, 6])
def test_gates_compute_only_the_verdicts_they_read(k, monkeypatch):
    # from a cold memo: decompose needs any flag and the one-filter modes one
    # flag each, so no gate takes the CCNR value's values-only SVD; decompose
    # admits its input at the gate alone, so no matrix is factored twice
    v = random_pd_local(rng_from_seed(600 + k), k)
    inv = local_scale(random_invariant(k, k), v, v.conj())
    spc = local_scale(random_spc(k, k), v, v)
    normal_form = sinkhorn_filter(inv, "conjugate").normal_form
    seen = factorizations(monkeypatch)
    calls = {
        "decompose invariant": lambda: decompose(inv),
        "decompose normal form": lambda: decompose(normal_form),
        "symmetric gate": lambda: sinkhorn_filter(spc, "symmetric", max_iter=1),
        "conjugate gate": lambda: sinkhorn_filter(inv, "conjugate", max_iter=1),
    }
    for name, call in calls.items():
        _MEMO.entries.clear()
        seen.clear()
        call()
        assert not [key for key in seen if key[:2] == ("svd", False)], name
        repeats = [key[:3] for key in seen if seen.count(key) > 1]
        assert not repeats, (name, repeats)


def rotated_classical_diag(k, seed):
    """classical_diag under a seeded Haar V (x) V: a state that splits k - 1 times."""
    return haar_congruence(canonical("classical_diag", k), rng_from_seed(seed), "V")


def test_every_gate_reads_one_hermiticity_measurement(monkeypatch):
    # a defect of 1e-14, far inside tols.herm, whose bytes no other matrix
    # that the calls take a norm of shares
    g = rotated_classical_diag(3, 65)
    tilted = g.mat.copy()
    tilted[0, 1] += 1e-14
    g = BipartiteOperator(tilted, 3, 3)
    defect = (g.mat - g.mat.conj().T).tobytes()
    _MEMO.entries.clear()
    seen = factorizations(monkeypatch, names=("norm",))
    hermitian_eig(g)
    classify(g)
    bound_gamma_pt(g)
    bound_realign_sq(g)
    psd_check(g)
    found = find_psd_eigenvector(g)
    assert found.found
    split(g, found.x)
    assert [key[3] for key in seen].count(defect) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [random_spc, random_invariant, random_ppt, rotated_classical_diag])
def test_decompose_and_probe_do_not_depend_on_scale(make):
    # the searches run on gamma / tr gamma, since the composite map is
    # quadratic in gamma and at these scales its entries overflow or
    # underflow; split takes its certificate eigenvalue there too, and its
    # zero-image and residual tests read norms valid over the float range
    for k in (2, 3, 4):
        for seed in range(4):
            g = make(k, seed)
            want = [leaf.leaf_status for leaf in decompose(g).leaves()]
            verdict = fully_indecomposable_probe(g).verdict
            for e in (-300, -200, -160, 160, 200, 300):
                scaled = BipartiteOperator(g.mat * 10.0**e, k, k)
                assert [leaf.leaf_status for leaf in decompose(scaled).leaves()] == want, (k, seed, e)
                assert fully_indecomposable_probe(scaled).verdict == verdict, (k, seed, e)


def _verdicts_at_any_scale(g):
    """Class flags, search and probe outcomes, decompose leaves, the doubly
    stochastic verdict and general-filter convergence."""
    c = classify(g)
    return (
        (c.ppt, c.spc, c.invariant),
        find_psd_eigenvector(g).found,
        fully_indecomposable_probe(g).verdict,
        [leaf.leaf_status for leaf in decompose(g).leaves()],
        doubly_stochastic_check(g).doubly_stochastic,
        sinkhorn_filter(g).converged,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [random_spc, random_invariant, random_ppt, rotated_classical_diag])
def test_verdicts_hold_at_subnormal_traces(make):
    # below about 1e-308 the trace is subnormal, and numpy divides a complex
    # matrix by it through a reciprocal that overflows; the unit form and the
    # doubly stochastic check divide over an exact power-of-two scaling, and
    # decompose drops a child by its trace relative to the parent's alone
    for k in (2, 3, 4):
        for seed in range(3):
            g = make(k, seed)
            want = _verdicts_at_any_scale(g)
            for scale in (1e-305, 1e-308, 1e-310, 1e-312):
                scaled = BipartiteOperator(g.mat * scale, k, k)
                assert _verdicts_at_any_scale(scaled) == want, (k, seed, scale)


def test_the_zero_matrix_keeps_its_answers():
    # the one PSD input of trace 0: its admitted form is divided by 1, so
    # only the filter refuses it outright (``triadops filter`` exits 2)
    zero = BipartiteOperator(np.zeros((4, 4)), 2, 2)
    assert find_psd_eigenvector(zero).found
    assert fully_indecomposable_probe(zero).verdict == "decomposable_witness"
    assert [leaf.leaf_status for leaf in decompose(zero).leaves()] == ["not_split_found"]
    for mode in ("general", "symmetric", "conjugate", "left"):
        with pytest.raises(ZeroMatrix):
            sinkhorn_filter(zero, mode)
    with pytest.raises(PreconditionNotMet, match="rank 0"):
        minimal_rank_extract(zero, classify(zero))
    with pytest.raises(PreconditionNotMet, match="trace too small"):
        doubly_stochastic_check(zero)


def test_equal_schmidt_certificate_of_the_zero_matrix():
    # the zero matrix has no Schmidt coefficient to compare
    zero = BipartiteOperator(np.zeros((4, 4)), 2, 2)
    rep = equal_schmidt_certificate(zero, classify(zero))
    assert (rep.applies, rep.coefficient_spread, rep.certificate) == (False, 0.0, None)


def test_equal_schmidt_reports(classical_diag2, identity_plus_u2):
    rep = equal_schmidt_certificate(classical_diag2, classify(classical_diag2))
    assert rep.applies and rep.coefficient_spread <= 1e-12
    assert rep.certificate is not None

    rep = equal_schmidt_certificate(identity_plus_u2, classify(identity_plus_u2))
    assert not rep.applies
    assert rep.coefficient_spread == pytest.approx(2.0 / 3.0, abs=1e-9)

    spc = random_spc(3, 5)
    rep = equal_schmidt_certificate(spc, classify(spc))
    assert not rep.applies  # generic coefficients are distinct


def test_rank_bound_fixtures(classical_diag2, identity_plus_u2):
    rep = rank_bound_check(classical_diag2, classify(classical_diag2))
    assert rep.rank == 2 and rep.reduced_ranks == (2, 2) and rep.bound_holds
    rep = rank_bound_check(identity_plus_u2, classify(identity_plus_u2))
    assert rep.rank == 4 and rep.bound_holds


def test_rank_bound_separable_sweep():
    for seed in range(50):
        g, _ = random_separable(3, 4, seed)
        assert rank_bound_check(g, classify(g)).bound_holds


def test_rank_bound_generator_sweep_up_to_k4():
    from triadops import random_invariant, random_ppt

    for k in (2, 3, 4):
        for seed in range(15):
            for gen in (random_ppt, random_spc, random_invariant):
                g = gen(k, seed)
                assert rank_bound_check(g, classify(g)).bound_holds, (k, seed, gen)


def test_rank_bound_and_extraction_factor_the_marginals_once(monkeypatch):
    # certify and the split-extract workload ask both in turn: the two
    # marginals' eigensolves behind them run once per operator and rank
    # tolerance, and the state's rank reads the spectrum classify factored
    calls, herm_support = [], reducibility._herm_support

    def counted(mat, rank_tol):
        calls.append(rank_tol)
        return herm_support(mat, rank_tol)

    monkeypatch.setattr("triadops.reducibility._herm_support", counted)
    g = haar_congruence(canonical("classical_diag", 4), rng_from_seed(71), "W")
    c = classify(g)
    assert rank_bound_check(g, c).reduced_ranks == (4, 4)
    assert isinstance(minimal_rank_extract(g, c), SeparableDecomposition)
    assert calls == [DEFAULT.rank] * 2
    _, supports = reducibility._reduced_supports(g, DEFAULT)
    assert not any(arr.flags.writeable for pair in supports for arr in pair)
    reducibility._reduced_supports(g, dataclasses.replace(DEFAULT, rank=1e-6))
    assert calls == [DEFAULT.rank] * 2 + [1e-6] * 2


@pytest.mark.parametrize(
    "weights",
    [[1.0 / k] * k for k in range(1, 7)] + [[0.2, 0.3, 0.5], [0.05, 0.1, 0.15, 0.3, 0.4]],
    ids=lambda w: "-".join(f"{x:.3g}" for x in w),
)
def test_extract_classical_diag(weights):
    # unrotated, most images of the Hermitian basis vanish on every product
    # direction and the rest tie some of them; only the widest gaps split
    k = len(weights)
    diag = np.zeros(k * k)
    diag[np.arange(k) * (k + 1)] = weights
    g = BipartiteOperator(np.diag(diag), k, k)
    out = minimal_rank_extract(g, classify(g))
    assert isinstance(out, SeparableDecomposition), (weights, out)
    assert out.reconstruction_residual <= 1e-12
    assert sorted(w for w, _, _ in out.terms) == pytest.approx(sorted(weights), abs=1e-9)
    assert np.linalg.norm(out.reconstruct() - g.mat) <= 1e-12


def test_extract_reports_the_failing_step(tmp_path, capsys, monkeypatch):
    # no roundoff meets a reconstruction tolerance of 1e-30, so the returned
    # failure names the reconstruction step, and certify exits 2 with its report
    g = haar_congruence(canonical("classical_diag", 3), rng_from_seed(60), "V")
    tight = DEFAULT.but(separable=1e-30)
    out = minimal_rank_extract(g, classify(g), tight)
    assert isinstance(out, ExtractionFailure)
    assert out.step == "reconstruction"
    assert out.residuals["residual"] > 1e-30
    path = tmp_path / "state.json"
    path.write_text(json.dumps(g.to_json()))
    monkeypatch.setattr("triadops.cli.DEFAULT", tight)
    assert main(["certify", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["classification", "equal_schmidt", "rank_bound", "extraction"]
    assert report["extraction"]["step"] == "reconstruction"


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_extract_rotated_classical_diag(k):
    cd = canonical("classical_diag", k)
    # at k = 5 and 6, Haar draws on which an earlier extraction method
    # declined; they stay as regression inputs
    for key in {5: [89], 6: [196]}.get(k, range(60, 68)):
        rng = rng_from_seed(key)
        u = haar_unitary(rng, k)
        big = np.kron(u, u)
        g = BipartiteOperator(big @ cd.mat @ big.conj().T, k, k)
        cls = classify(g)
        assert cls.ppt and cls.spc
        out = minimal_rank_extract(g, cls)
        assert isinstance(out, SeparableDecomposition), (k, key, out)
        assert out.reconstruction_residual <= 1e-7
        assert len(out.terms) == k
        for term, entry in zip(out.terms, out.to_json()["terms"], strict=True):
            assert isinstance(term, ProductTerm)
            assert term._fields == tuple(entry)
        for w, x, y in out.terms:
            assert w > 0
            assert np.linalg.eigvalsh(x.mat)[0] >= -1e-9
            assert np.linalg.eigvalsh(y.mat)[0] >= -1e-9
        # ground truth: the weights of the rotated mixture are all 1/k
        assert max(abs(w - 1.0 / k) for w, _, _ in out.terms) <= 1e-7


@pytest.mark.parametrize("right", ["V", "Vbar"])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_extract_classical_diag_under_pd_filters(k, right):
    # a positive definite, non-unitary V (x) V or V (x) conj(V) leaves
    # marginals far from Id/k for the extraction to whiten; keys 35 (k = 4,
    # Vbar), 8 (k = 5) and 9 (k = 6) once left split residuals above bound,
    # when extraction filtered the state first and a one-filter run stopped
    # as soon as its residual fell under tols.filter
    cd = canonical("classical_diag", k)
    for key in (*range(10), 35):
        v = random_pd_local(rng_from_seed(400 + 10 * k + key), k)
        g = local_scale(cd, v, v if right == "V" else v.conj())
        cls = classify(g)
        assert cls.spc if right == "V" else cls.invariant
        out = minimal_rank_extract(g, cls)
        assert isinstance(out, SeparableDecomposition), (k, right, key, out)
        assert out.reconstruction_residual <= 1e-7
        assert len(out.terms) == k


@pytest.mark.parametrize("right", ["V", "Vbar"])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_extract_does_not_depend_on_the_class_flag(k, right, monkeypatch):
    # classical_diag under a PD V (x) V is SPC, under V (x) conj(V) invariant,
    # and PPT either way; the extraction takes one route for every class and
    # reads no class verdict, neither classify nor any one flag's, so the PPT
    # flag alone gives the same bytes
    v = random_pd_local(rng_from_seed(500 + k), k)
    g = local_scale(canonical("classical_diag", k), v, v if right == "V" else v.conj())
    cls = classify(g)
    assert cls.ppt and (cls.spc if right == "V" else cls.invariant)
    ppt_only = dataclasses.replace(cls, spc=False, invariant=False)

    def refuse(*_):
        raise AssertionError("extraction read a class verdict")

    verdicts = {
        "criteria": ("classify", "_psd", "_ppt", "_spc", "_invariance", "_any_flag"),
        "filters": ("_psd", "_spc", "_invariance"),
        "reducibility": ("_any_flag",),
    }
    for module, names in verdicts.items():
        for name in names:
            monkeypatch.setattr(f"triadops.{module}.{name}", refuse)
    out = minimal_rank_extract(g, cls)
    assert isinstance(out, SeparableDecomposition), out
    assert _format_json(out.to_json()) == _format_json(minimal_rank_extract(g, ppt_only).to_json())


@pytest.mark.parametrize("right", ["V", "Vbar", "W"])
@pytest.mark.parametrize("k", [5, 6])
def test_extract_does_not_split_at_near_ties(k, right):
    # a near-tie in one direction must not split a group, since roundoff
    # still mixes its eigenvectors; a 1e-8 gap rule left residuals up to
    # 2.1e-10 here (k = 5, V, key 52)
    cd = canonical("classical_diag", k)
    worst = 0.0
    for key in range(60):
        rng = rng_from_seed(4000 + 100 * k + key)
        v = random_pd_local(rng, k)
        w = {"V": v, "Vbar": v.conj(), "W": None}[right]
        g = local_scale(cd, v, random_pd_local(rng, k) if w is None else w)
        out = minimal_rank_extract(g, classify(g))
        assert isinstance(out, SeparableDecomposition), (key, out)
        assert len(out.terms) == k
        worst = max(worst, out.reconstruction_residual)
    assert worst <= 5e-11


def _diagonal_moment(x):
    """tr(x diag(1..k)), the tie-break key of equal-weight terms."""
    return float(np.trace(x @ np.diag(np.arange(1.0, len(x) + 1))).real)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_extract_orders_equal_weights_by_diagonal_moment(k):
    # equal weights tie within tols.equal_coeff; roundoff must not order them
    cd = canonical("classical_diag", k)
    for key in range(60, 64):
        u = haar_unitary(rng_from_seed(key), k)
        g = local_scale(cd, u, u)
        out = minimal_rank_extract(g, classify(g))
        moments = [_diagonal_moment(x.mat) for _, x, _ in out.terms]
        assert moments == sorted(moments), (k, key)


def test_extract_orders_unequal_weights_first():
    # weights (0.3, 0.4, 0.3) on |ii><ii|: 0.4 leads, then the tied pair by moment
    diag = np.zeros(9)
    diag[[0, 4, 8]] = [0.3, 0.4, 0.3]
    u = haar_unitary(rng_from_seed(70), 3)
    g = local_scale(BipartiteOperator(np.diag(diag), 3, 3), u, u)
    out = minimal_rank_extract(g, classify(g))
    assert [round(t.weight, 9) for t in out.terms] == [0.4, 0.3, 0.3]
    assert _diagonal_moment(out.terms[1].left.mat) < _diagonal_moment(out.terms[2].left.mat)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_extract_random_rank_k_mixtures(k):
    # minimal-rank states with genuinely non-orthogonal product factors;
    # ground truth is separability by construction, and the rank conditions
    # are all the extraction needs, whichever class flag is set
    for seed in range(15):
        rng = rng_from_seed(10_000 + 7 * seed + k)
        weights = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
        mat = np.zeros((k * k, k * k), dtype=complex)
        for w in weights:
            x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            mat += w * np.kron(np.outer(x, x.conj()), np.outer(y, y.conj()))
        g = BipartiteOperator(mat, k, k)
        out = minimal_rank_extract(g, classify(g))
        assert isinstance(out, SeparableDecomposition), (k, seed, out)
        assert out.reconstruction_residual <= 1e-7


def _unit_columns(rng, rows, cols):
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z / np.linalg.norm(z, axis=0)


def _product_mixture(xs, ys, a, b):
    """sum_i (i + 1) P(x_i) (x) P(y_i) over the columns of xs and ys, under
    the local congruence a (x) b and trace-normalized."""
    mat = sum(
        (i + 1) * np.kron(np.outer(x, x.conj()), np.outer(y, y.conj()))
        for i, (x, y) in enumerate(zip(xs.T, ys.T))
    )
    big = np.kron(a, b)
    out = big @ mat @ big.conj().T
    return BipartiteOperator(out / np.trace(out).real, a.shape[0], b.shape[0])


def _assert_recovers(g, weights):
    out = minimal_rank_extract(g, classify(g))
    assert isinstance(out, SeparableDecomposition), out
    assert out.reconstruction_residual <= 1e-10
    assert sorted(t.weight for t in out.terms) == pytest.approx(sorted(weights), abs=1e-9)
    return out


@pytest.mark.parametrize(
    "seed, k",
    [(758, 5), (825, 6), (1803, 6), (2156, 6), (2489, 6), (2589, 5), (3077, 5), (4275, 6), (5598, 5)],
)
def test_extract_ill_conditioned_rank_k_states(seed, k):
    # gamma_A has condition number 1e5 to 7e5 here; the two-sided filter an
    # earlier extraction ran first spent 1.8 to 3.9 s and did not converge
    rng = np.random.default_rng(seed)
    xs = _unit_columns(rng, k, k)
    g = _product_mixture(xs, xs, np.eye(k), np.eye(k))
    _assert_recovers(g, np.arange(1, k + 1) / (k * (k + 1) / 2))


@pytest.mark.parametrize("right", ["V", "Vbar", "W"])
def test_extract_terms_embedded_below_full_rank(right):
    # three terms x (x) x, x (x) conj(x) or x (x) y of C^3 (x) C^3, embedded
    # in C^5 (x) C^5 by the matching isometries V (x) V, V (x) conj(V), V (x) W
    k, r = 5, 3
    rng = rng_from_seed(8100 + len(right))
    xs = _unit_columns(rng, r, r)
    v = haar_unitary(rng, k)[:, :r]
    ys, w = {
        "V": (xs, v),
        "Vbar": (xs.conj(), v.conj()),
        "W": (_unit_columns(rng, r, r), haar_unitary(rng, k)[:, :r]),
    }[right]
    g = _product_mixture(xs, ys, v, w)
    rb = rank_bound_check(g, classify(g))
    assert (rb.rank, rb.reduced_ranks) == (r, (r, r))
    _assert_recovers(g, [1 / 6, 2 / 6, 3 / 6])


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_extract_unequal_reduced_ranks(order):
    # three terms on C^2 (x) C^3 embedded in C^4 (x) C^4, in either order:
    # rank 3 = max(r_A, r_B) with r_A != r_B
    k = 4
    rng = rng_from_seed(8200)
    xs, ys = _unit_columns(rng, 2, 3), _unit_columns(rng, 3, 3)
    v, w = haar_unitary(rng, k)[:, :2], haar_unitary(rng, k)[:, :3]
    g = _product_mixture(xs, ys, v, w) if order == "AB" else _product_mixture(ys, xs, w, v)
    rb = rank_bound_check(g, classify(g))
    assert (rb.rank, rb.reduced_ranks) == (3, (2, 3) if order == "AB" else (3, 2))
    _assert_recovers(g, [1 / 6, 2 / 6, 3 / 6])


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_extract_pure_factor_gives_one_term(order):
    # P(x) (x) rho with rank rho = 2: the side of reduced rank 1 has no
    # traceless direction, and the state is a single product term
    k = 3
    rng = rng_from_seed(8300)
    x = _unit_columns(rng, k, 1)[:, 0]
    rho = random_psd_local(rng, k, rank=2)
    rho /= np.trace(rho).real
    pure = np.outer(x, x.conj())
    pair = (pure, rho) if order == "AB" else (rho, pure)
    g = BipartiteOperator(np.kron(*pair), k, k)
    out = _assert_recovers(g, [1.0])
    (_, left, right), = out.terms
    assert np.linalg.norm(left.mat - pair[0]) <= 1e-10
    assert np.linalg.norm(right.mat - pair[1]) <= 1e-10


def test_extract_precondition_messages(bell2):
    # a flagged state below the rank bound contradicts it; one above is not
    # minimal rank; an unflagged state is turned away before either check
    flagged = dataclasses.replace(classify(bell2), ppt=True)
    with pytest.raises(PreconditionNotMet, match="contradicts the rank lower bound"):
        minimal_rank_extract(bell2, flagged)
    g = random_spc(3, 0)
    with pytest.raises(PreconditionNotMet, match="not minimal rank"):
        minimal_rank_extract(g, classify(g))
    with pytest.raises(PreconditionNotMet, match="needs at least one triad flag"):
        minimal_rank_extract(bell2, classify(bell2))


def test_extract_preconditions(bell2, identity_plus_u2):
    with pytest.raises(PreconditionNotMet):
        minimal_rank_extract(bell2, classify(bell2))
    with pytest.raises(PreconditionNotMet):
        minimal_rank_extract(identity_plus_u2, classify(identity_plus_u2))


def _rank(m):
    w = np.linalg.eigvalsh(m)
    return int(np.sum(w > DEFAULT.rank * max(np.abs(w).max(), 1e-300)))


def _assert_checked_witness(g, res):
    assert res.verdict == "decomposable_witness"
    x, y = res.witness
    gx = g_apply(g, x).mat
    assert abs(np.trace(gx @ y.mat)) <= 1e-12 * np.linalg.norm(gx) * np.linalg.norm(y.mat)
    assert 0 < _rank(x.mat) < g.dim_a
    assert _rank(gx) <= _rank(x.mat)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_probe_finds_the_witness_of_a_rank_two_state(k):
    # the map of a rank-2 state has two Kraus operators A_1, A_2, so a vector
    # v with A_1 v parallel to A_2 v gives rank g(P(v)) = 1; such witnesses
    # lie on a measure-zero set that random rank probes never hit
    for seed in range(8):
        g = random_density(k, 2, seed)
        _assert_checked_witness(g, fully_indecomposable_probe(g))


PROBE_INPUTS = {
    "spc": random_spc,
    "invariant": random_invariant,
    "ppt": random_ppt,
    "density": lambda k, seed: random_density(k, k * k, seed),
    "classical_diag-VV": lambda k, seed: haar_congruence(
        canonical("classical_diag", k), rng_from_seed(seed), "V"
    ),
}


@pytest.mark.parametrize("kind", list(PROBE_INPUTS))
def test_probe_verdict_on_raw_states_and_their_normal_forms(kind):
    # the four generated classes are fully indecomposable; rotated
    # classical_diag splits, so its map is decomposable
    for k in (2, 3, 4, 5):
        for seed in range(8):
            g = PROBE_INPUTS[kind](k, seed)
            for state in (g, sinkhorn_filter(g).normal_form):
                res = fully_indecomposable_probe(state)
                if kind == "classical_diag-VV":
                    _assert_checked_witness(state, res)
                else:
                    assert res.verdict == "fully_indecomposable", (k, seed)
                    assert res.witness is None


@pytest.mark.parametrize("entry", [1.0, 0.0])
def test_probe_of_a_1x1_state_is_fully_indecomposable(entry):
    # no X has 0 < rank X < 1; the zero matrix, which the filter refuses,
    # would otherwise leave the probe no witness and no verdict
    res = fully_indecomposable_probe(BipartiteOperator(np.full((1, 1), entry), 1, 1))
    assert res.verdict == "fully_indecomposable" and res.witness is None


def test_probe_finds_witnesses_of_a_map_the_filter_cannot_scale():
    # diag(1, 1, 0, 1) has full-rank marginals but no normal form, and E_11
    # keeps its rank: the general filter runs out of steps, and then the scan
    # of the input finds it.  Under a positive definite V (x) W the scan of
    # the input misses, and the scan of the filter's last iterate finds it.
    g = BipartiteOperator(np.diag([1.0, 1.0, 0.0, 1.0]), 2, 2)
    _assert_checked_witness(g, fully_indecomposable_probe(g))
    rng = np.random.default_rng(0)
    scaled = local_scale(g, random_pd_local(rng, 2), random_pd_local(rng, 2))
    _assert_checked_witness(scaled, fully_indecomposable_probe(scaled))
    # here the filters overflow and the filter refuses; the scan of the input
    # finds the witness
    g = unmatched_classical_state()
    _assert_checked_witness(g, fully_indecomposable_probe(g))


def _direct_sum(blocks):
    """The square states ``blocks`` on orthogonal local supports, with equal weights."""
    k = sum(b.dim_a for b in blocks)
    out = np.zeros((k, k, k, k), dtype=complex)
    start = 0
    for b in blocks:
        s = slice(start, start + b.dim_a)
        out[s, s, s, s] = b.tensor4
        start += b.dim_a
    return BipartiteOperator(out.reshape(k * k, k * k) / len(blocks), k, k)


@pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 2), (3, 3), (2, 2, 2), (1, 1, 4)])
def test_probe_finds_a_witness_of_a_direct_sum_of_blocks(sizes):
    # each block's support projector keeps its rank, and under a positive
    # definite V (x) W the map is decomposable only up to that filter: the
    # witness is read off the normal form's top eigenspace and pulled back
    for seed in range(3):
        make = (random_spc, random_ppt)
        g = _direct_sum([make[i % 2](n, seed + i) for i, n in enumerate(sizes)])
        k = g.dim_a
        rng = rng_from_seed(700 + 10 * k + seed)
        for state in (g, local_scale(g, random_pd_local(rng, k), random_pd_local(rng, k))):
            _assert_checked_witness(state, fully_indecomposable_probe(state))


@pytest.mark.parametrize("side", ["A", "B"])
def test_probe_finds_the_kernel_witness_of_a_rank_deficient_marginal(side):
    # (P (x) I) rho (P (x) I) with P = diag(1, .., 1, 0) under a positive
    # definite V (x) W: the filter cannot scale gamma_A, and the kernel
    # projector X of gamma_A has g(X) = 0, whose eigenvalues are roundoff
    # signs, so rank g(X) is judged on the scale of ||gamma|| ||X||.  The
    # mirror copy (I (x) P) is found by the scan of the input.
    for k in (2, 3, 4):
        p = np.diag([1.0] * (k - 1) + [0.0])
        for seed in range(6):
            rho = random_density(k, k * k, seed)
            rng = rng_from_seed(500 + 10 * k + seed)
            v, w = random_pd_local(rng, k), random_pd_local(rng, k)
            cut = local_scale(rho, p, np.eye(k)) if side == "A" else local_scale(rho, np.eye(k), p)
            g = local_scale(cut, v, w)
            res = fully_indecomposable_probe(g)
            assert res.verdict == "decomposable_witness", (k, seed)
            x, y = res.witness
            gx = g_apply(g, x).mat
            scale = np.linalg.norm(g.mat, 2) * np.linalg.norm(x.mat, 2)
            assert abs(np.trace(gx @ y.mat)) <= 1e-12 * scale
            assert 0 < _rank(x.mat) < k
            rank_gx = int(np.sum(np.linalg.eigvalsh(gx) > DEFAULT.rank * scale))
            assert rank_gx <= _rank(x.mat)
