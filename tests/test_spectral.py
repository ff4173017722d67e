"""Spectra, ground spaces, the Lanczos path, and thermal functionals."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from vortexcert import build_lattice, spectral
from vortexcert.clifford import MajoranaPolynomial
from vortexcert.fock import SparseOperator, to_matrix
from vortexcert.model import build_hamiltonian, vortex_operator
from vortexcert.spectral import (
    DenseCapError,
    IllSeparatedError,
    NonHermitianError,
    canonical_subspace_basis,
    default_gap_tol,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    rp_functional,
    thermal_expectation,
)

from conftest import dense_operator, diagonal_operator

# dense-oracle regression values for the diamond lattice
E0_DIAMOND_01 = -4.010037405062517
E0_DIAMOND_05 = -4.2715584101397175


def test_dense_spectrum_sorted_and_trace_consistent(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(op)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    trace = op.to_dense().trace().real
    assert abs(spec.eigenvalues.sum() - trace) <= 1e-8 * max(1.0, abs(trace))


def test_dense_spectrum_rejects_non_hermitian():
    m = dense_operator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError):
        dense_spectrum(m)


def test_dense_spectrum_refuses_beyond_cap():
    big = diagonal_operator(np.ones(8192))
    with pytest.raises(DenseCapError):
        dense_spectrum(big)


def test_ground_space_regression_lambda_01(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    gs = ground_space(op)
    assert abs(gs.e0 - E0_DIAMOND_01) <= 1e-12
    assert gs.n == 8


def test_ground_space_lambda_zero_tensor_degeneracy(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0), diamond.n_modes)
    gs = ground_space(op)
    assert abs(gs.e0 + 4.0) <= 1e-12
    assert gs.n == 16  # 2 per island


def test_ground_projector_invariants(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    b = ground_space(op).basis
    p = b @ b.conj().T
    assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(p - p.conj().T).max() <= 1e-10


def test_canonical_basis_is_gauge_independent(diamond):
    rng = np.random.default_rng(2)
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    b = ground_space(op).basis
    q, _ = np.linalg.qr(rng.normal(size=(b.shape[1],) * 2)
                        + 1j * rng.normal(size=(b.shape[1],) * 2))
    again = canonical_subspace_basis(b @ q)
    np.testing.assert_allclose(again, canonical_subspace_basis(b), atol=1e-10)


def test_default_gap_tol_floor():
    assert default_gap_tol(0.0) == 1e-8
    assert default_gap_tol(-4.0) == 4e-8


def test_ill_separated_cluster_raises():
    # second level sits inside the ambiguous decade around gap_tol
    vals = [0.0, 5e-8] + [1.0] * 14
    with pytest.raises(IllSeparatedError):
        ground_space(diagonal_operator(vals), gap_tol=1e-8)
    # clearly inside and clearly outside are both fine
    inside = diagonal_operator([0.0, 1e-10] + [1.0] * 14)
    outside = diagonal_operator([0.0, 1e-6] + [1.0] * 14)
    assert ground_space(inside, gap_tol=1e-8).n == 2
    assert ground_space(outside, gap_tol=1e-8).n == 1


def test_lanczos_matches_dense_on_diamond(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    dense = ground_space(op)
    lz = lanczos_ground(op, k=dense.n + 1, seed=0)
    assert abs(lz.e0 - dense.e0) <= 1e-8
    assert lz.n == dense.n
    angles = scipy.linalg.subspace_angles(lz.basis, dense.basis)
    assert angles.max() <= 1e-6


# window 16 forces thick restarts on the diamond; 64 converges without
@pytest.mark.parametrize("window", [64, 16])
def test_lanczos_eigenvalues_and_residuals_match_dense(diamond, window):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    dense = dense_spectrum(op).eigenvalues
    k, conv_tol = 9, 1e-9
    lz = lanczos_ground(op, k=k, seed=0, conv_tol=conv_tol, window=window)
    np.testing.assert_allclose(lz.eigenvalues, dense[:k], rtol=0, atol=1e-9)
    assert len(lz.residuals) == k
    for e, r in zip(lz.eigenvalues, lz.residuals):
        assert r <= 100 * conv_tol * max(1.0, abs(e))
    assert lz.matvecs > 0
    # the dense route has no solver diagnostics
    gs = ground_space(op)
    assert gs.eigenvalues == () and gs.residuals == () and gs.matvecs == 0


def test_lanczos_degenerate_pair_through_the_invariant_subspace_branch(
        monkeypatch):
    # a diagonal operator keeps parity, so Lanczos runs in the two 8-dim
    # parity blocks: even holds -1, 0 x3, 1 x4 and odd -1, 0 x4, 1 x3.
    # Three distinct levels per block: every Krylov space closes after
    # three vectors, and with conv_tol = 0 no Ritz estimate is ever
    # accepted, so each pair needs fresh directions injected at
    # beta < 1e-13 until the block (less the deflated vectors) is
    # spanned, and leaves through the exhausted-Krylov exit
    found = []
    lowest = spectral._lowest_eigenpair

    def recording(apply, *args):
        out = lowest(apply, *args)
        found.append((apply.__self__, out))
        return out

    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    op = diagonal_operator([-1.0, -1.0] + [0.0] * 7 + [1.0] * 7)
    gs = lanczos_ground(op, k=3, seed=0, conv_tol=0.0)
    assert gs.n == 2
    assert abs(gs.e0 + 1.0) <= 1e-12
    np.testing.assert_allclose(gs.eigenvalues, [-1.0, -1.0, 0.0], atol=1e-12)
    assert max(gs.residuals) <= 1e-12
    cluster = np.zeros((16, 2))
    cluster[0, 0] = cluster[1, 1] = 1.0
    assert scipy.linalg.subspace_angles(gs.basis, cluster).max() <= 1e-8
    # the merge: even -1, odd -1, even 0, then odd 0 (until then the odd
    # block's last value -1 lies below the third smallest, 0)
    blocks = [block for block, _ in found]
    assert len(found) == 4
    assert blocks[0] is blocks[2] and blocks[1] is blocks[3]
    assert blocks[0] is not blocks[1]
    assert all(block.dim == 8 for block in blocks)
    # every reported residual is the true one of its returned vector
    # against its block operator (a Lanczos estimate reads orders of
    # magnitude below any true residual), and the vectors of each block
    # are orthonormal
    for block, (val, y, res, _) in found:
        true_res = np.linalg.norm(block.apply(y) - val * y)
        assert abs(res - true_res) <= 1e-12
        assert res == pytest.approx(true_res, rel=1e-6, abs=1e-300)
    for block in blocks[:2]:
        vecs = np.column_stack([y for b, (_, y, _, _) in found if b is block])
        assert np.abs(vecs.conj().T @ vecs - np.eye(2)).max() <= 1e-12
    # the k smallest of the four are reported, with their own residuals
    merged = sorted(((val, res) for _, (val, _, res, _) in found),
                    key=lambda p: p[0])[:3]
    assert gs.residuals == tuple(res for _, res in merged)
    assert sorted(gs.parities[:2]) == [0, 1]


def _parity(dim):
    return np.array([bin(r).count("1") % 2 for r in range(dim)])


def _assert_definite_parity(basis):
    """Each column lives on one parity; returns the parity of each."""
    par = _parity(basis.shape[0])
    out = []
    for col in basis.T:
        even = np.linalg.norm(col[par == 0])
        odd = np.linalg.norm(col[par == 1])
        assert min(even, odd) <= 1e-12, (even, odd)
        out.append(int(odd > even))
    return out


def test_lanczos_takes_one_block_when_the_operator_couples_parities(
        diamond):
    # i c_0 c_1 c_2 is odd and Hermitian ((c_0 c_1 c_2)^dagger =
    # -c_0 c_1 c_2), so it couples the parity blocks and the whole
    # space is the single block
    odd = MajoranaPolynomial.monomial((0, 1, 2), 0.3j)
    op = to_matrix(build_hamiltonian(diamond, 0.1) + odd, diamond.n_modes)
    assert op.hermiticity_defect() <= 1e-12
    assert len(spectral._symmetry_blocks(op)) == 1
    dense = dense_spectrum(op)
    k = 9  # an 8-fold ground level
    lz = lanczos_ground(op, k=k, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:k],
                               rtol=0, atol=1e-9)
    assert lz.parities == ()
    ref = ground_space(dense)
    assert lz.n == ref.n == 8
    assert scipy.linalg.subspace_angles(lz.basis, ref.basis).max() <= 1e-6
    # the even Hamiltonian alone splits into the two blocks
    even = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    blocks = spectral._symmetry_blocks(even)
    assert [len(b) for b in blocks] == [128, 128]
    np.testing.assert_array_equal(_parity(256)[blocks[1]], 1)


def test_lanczos_cluster_split_over_both_blocks():
    # i c_1 c_2 has eigenvalues -1 and 1, eight-fold each; the -1 level
    # has four even and four odd states, so the cluster is merged from
    # both blocks
    op = to_matrix(MajoranaPolynomial.monomial((1, 2), 1j), 4)
    dense = dense_spectrum(op)
    lz = lanczos_ground(op, k=9, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    assert lz.n == 8
    assert sorted(lz.parities[:8]) == [0] * 4 + [1] * 4
    ref = ground_space(dense)
    assert scipy.linalg.subspace_angles(lz.basis, ref.basis).max() <= 1e-6
    assert sorted(_assert_definite_parity(lz.basis)) == [0] * 4 + [1] * 4
    for e, r in zip(lz.eigenvalues, lz.residuals):
        assert r <= 100 * 1e-9 * max(1.0, abs(e))


def test_lanczos_vectors_have_definite_parity(diamond, monkeypatch):
    found = []
    lowest = spectral._lowest_eigenpair

    def recording(apply, *args):
        out = lowest(apply, *args)
        found.append(out[1])
        return out

    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    lz = lanczos_ground(op, k=9, seed=0)
    # the solver sees half-length block vectors only
    assert {len(y) for y in found} == {128}
    # the reported cluster carries its block parities, and each basis
    # column lies in one parity sector
    parities = _assert_definite_parity(lz.basis)
    assert sorted(parities) == sorted(lz.parities[:lz.n])


@pytest.mark.parametrize("k", [4, 5])
def test_lanczos_k_equal_to_a_block_dimension(k):
    # every even state lies below every odd one: the even block (dim 4)
    # is exhausted at k = 4, and then stops bounding the odd block
    dim = 8
    par = _parity(dim)
    values = np.empty(dim)
    values[par == 0] = [-4.0, -3.0, -2.0, -1.0]
    values[par == 1] = [1.0, 2.0, 3.0, 4.0]
    lz = lanczos_ground(diagonal_operator(values), k=k, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, np.sort(values)[:k], atol=1e-12)
    assert lz.parities == (0,) * 4 + (1,) * (k - 4)
    assert lz.n == 1
    assert max(lz.residuals) <= 1e-9


@pytest.mark.parametrize("boundary,lam,count", [
    ("periodic", 0.0, 16), ("periodic", 0.1, 16), ("open", 0.1, 16)])
def test_symmetry_blocks_are_invariant_and_floored(boundary, lam, count):
    lat = build_lattice(4, 4, boundary)
    op = to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
    blocks = spectral._symmetry_blocks(op)
    assert len(blocks) == count
    # the blocks partition the index set
    np.testing.assert_array_equal(np.sort(blocks.ravel()), np.arange(op.dim))
    size = blocks.shape[1]
    assert size & (size - 1) == 0 and size >= spectral.SYMMETRY_BLOCK_FLOOR
    # no stored entry couples two blocks
    label = np.empty(op.dim, dtype=np.int64)
    label[blocks] = np.arange(len(blocks))[:, None]
    stored = op.values != 0
    rows = np.broadcast_to(np.arange(op.dim), op.cols.shape)
    assert (label[rows[stored]] == label[op.cols[stored]]).all()
    # every block has a definite parity
    par = _parity(op.dim)[blocks]
    assert (par == par[:, :1]).all()


def test_torus_lanczos_levels_match_eigsh(torus_4x4):
    # ARPACK from one start vector resolves each distinct level once, so
    # the distinct levels are compared both ways: no level below the
    # largest reported value is missed, and none reported is spurious
    op = to_matrix(build_hamiltonian(torus_4x4, 0.1), torus_4x4.n_modes)
    conv_tol = 1e-9
    lz = lanczos_ground(op, k=4, seed=0, conv_tol=conv_tol)
    assert lz.blocks == (16, 4096)
    assert lz.n == 1
    h = scipy.sparse.linalg.LinearOperator((op.dim, op.dim), matvec=op.apply,
                                           dtype=complex)
    ref = scipy.sparse.linalg.eigsh(h, k=3, which="SA", tol=1e-10,
                                    v0=np.ones(op.dim), return_eigenvectors=False)
    ref = np.sort(ref)
    assert ref[-1] > max(lz.eigenvalues)
    for v in lz.eigenvalues:
        assert np.abs(ref - v).min() <= 1e-9, v
    for v in ref[ref <= max(lz.eigenvalues) + 1e-9]:
        assert np.abs(np.array(lz.eigenvalues) - v).min() <= 1e-9, v
    for e, r in zip(lz.eigenvalues, lz.residuals):
        assert r <= 100 * conv_tol * max(1.0, abs(e))


def test_torus_odd_blocks_close_by_their_floors(torus_4x4, monkeypatch):
    # at lambda = 0.1 every odd block's Gershgorin floor (-7.6) lies above
    # the ground cluster and the first level after it (-8.04), so only
    # even blocks are built and solved; a scheduler that solved every
    # block again would spend about twice the products pinned here
    built = []
    block = SparseOperator.block

    def recording_block(self, idx):
        out = block(self, idx)
        built.append((out, idx))
        return out

    solved = []
    lowest = spectral._lowest_eigenpair

    def recording(apply, *args):
        solved.append(apply.__self__)
        return lowest(apply, *args)

    monkeypatch.setattr(SparseOperator, "block", recording_block)
    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    op = to_matrix(build_hamiltonian(torus_4x4, 0.1), torus_4x4.n_modes)
    lz = lanczos_ground(op, seed=0)
    assert lz.blocks == (16, 4096)
    assert len(built) == 8 and lz.closed_by_bound == 8
    assert _parity(op.dim)[[idx[0] for _, idx in built]].tolist() == [0] * 8
    assert len(solved) == 9
    assert all(any(b is out for out, _ in built) for b in solved)
    assert lz.matvecs <= 500
    monkeypatch.undo()
    e0s = [lanczos_ground(op, seed=s).e0 for s in range(1, 5)]
    assert max(abs(e - lz.e0) for e in e0s) <= 1e-8


def test_lanczos_with_loose_floors_visits_every_block(monkeypatch, diamond):
    # at lambda = 1 every floor lies below the ground level, so no block
    # is closed unsolved and the merge alone decides the reported values
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 16)
    op = to_matrix(build_hamiltonian(diamond, 1.0), diamond.n_modes)
    dense = dense_spectrum(op)
    lz = lanczos_ground(op, k=9, seed=0)
    assert lz.blocks == (16, 16) and lz.closed_by_bound == 0
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    ref = ground_space(dense)
    assert lz.n == ref.n
    assert scipy.linalg.subspace_angles(lz.basis, ref.basis).max() <= 1e-6


def test_lanczos_k_1_closes_the_ground_cluster(diamond):
    # k is only a floor: the solver keeps going until a certified value
    # lies above the cut, so the whole 8-fold cluster comes back
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    dense = dense_spectrum(op)
    ref = ground_space(dense)
    lz = lanczos_ground(op, k=1, seed=0)
    assert lz.n == ref.n == 8
    assert len(lz.eigenvalues) == 9  # the cluster and the first level above
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    assert np.abs(lz.basis @ lz.basis.conj().T
                  - ref.basis @ ref.basis.conj().T).max() <= 1e-6


def test_lanczos_closes_a_cluster_that_fills_whole_blocks(diamond):
    # at lambda = 0 the diamond's ground level is 16-fold
    op = to_matrix(build_hamiltonian(diamond, 0.0), diamond.n_modes)
    ref = ground_space(op)
    lz = lanczos_ground(op, seed=0)
    assert lz.n == ref.n == 16
    assert abs(lz.e0 - ref.e0) <= 1e-9
    assert scipy.linalg.subspace_angles(lz.basis, ref.basis).max() <= 1e-6


def test_lanczos_k_beyond_the_cluster_is_a_floor(diamond):
    # k above the cluster size still reports k certified values
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    dense = dense_spectrum(op).eigenvalues
    lz = lanczos_ground(op, k=12, seed=0)
    assert lz.n == 8
    np.testing.assert_allclose(lz.eigenvalues, dense[:12], rtol=0, atol=1e-9)


def test_lanczos_stops_when_every_state_is_in_the_cluster():
    # nothing lies above the cut: the search ends with every block spent
    lz = lanczos_ground(diagonal_operator([2.0] * 8), seed=0)
    assert lz.n == 8 and len(lz.eigenvalues) == 8
    assert abs(lz.e0 - 2.0) <= 1e-12


def test_thermal_expectation_limits(diamond):
    h = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(h)
    w = to_matrix(vortex_operator(diamond, (1, 2)).W, diamond.n_modes)
    # beta = 0 is the flat average; tr W = 0 for a signed permutation
    # with no fixed points
    assert abs(thermal_expectation(w, spec, 0.0)) <= 1e-12
    gs = ground_space(spec)
    beta_large = thermal_expectation(w, spec, 4e5).real
    ground_avg = np.mean(np.einsum("ij,ij->j", gs.basis.conj(),
                                   w.apply(gs.basis))).real
    assert abs(beta_large - ground_avg) <= 1e-6


def test_thermal_tail_is_monotone(diamond):
    """<W>_beta grows toward the ground-state value along the tail."""
    h = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(h)
    w = to_matrix(vortex_operator(diamond, (1, 2)).W, diamond.n_modes)
    vals = [thermal_expectation(w, spec, b).real for b in (5, 10, 20, 50)]
    assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))


def test_rp_functional_checks_support(diamond, diamond_mirror):
    from vortexcert.clifford import MajoranaPolynomial
    h = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(h)
    right_index = diamond_mirror.right[0]
    bad = MajoranaPolynomial.generator(right_index)
    with pytest.raises(ValueError):
        rp_functional(bad, diamond_mirror, spec, 1.0)
    left = diamond_mirror.left
    good = MajoranaPolynomial.monomial((left[0], left[1]), 1.0)
    val = rp_functional(good, diamond_mirror, spec, 1.0)
    assert val.real >= -1e-9
    assert abs(val.imag) <= 1e-9
