"""Spectra, ground spaces, the Lanczos path, and thermal functionals."""

import os
import stat

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from vortexcert import spectral
from vortexcert.fock import SparseOperator, to_matrix
from vortexcert.model import build_hamiltonian, vortex_operator
from vortexcert.spectral import (
    ConvergenceError,
    DenseCapError,
    IllSeparatedError,
    NonHermitianError,
    canonical_subspace_basis,
    default_gap_tol,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    load_eigenvalues,
    rp_functional,
    save_eigenvalues,
    spectrum_cache_key,
    thermal_expectation,
)

# dense-oracle regression values for the diamond lattice
E0_DIAMOND_01 = -4.010037405062517
E0_DIAMOND_05 = -4.2715584101397175


def _diag_op(values):
    m = sp.diags(np.asarray(values, dtype=complex), format="csr")
    n_modes = len(values).bit_length() - 1
    return SparseOperator(m, n_modes)


def test_dense_spectrum_sorted_and_trace_consistent(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(op)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    trace = op.to_dense().trace().real
    assert abs(spec.eigenvalues.sum() - trace) <= 1e-8 * max(1.0, abs(trace))


def test_dense_spectrum_rejects_non_hermitian():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(NonHermitianError):
        dense_spectrum(SparseOperator(m, 1))


def test_dense_spectrum_refuses_beyond_cap():
    big = SparseOperator(sp.identity(8192, format="csr", dtype=complex), 13)
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
        ground_space(_diag_op(vals), gap_tol=1e-8)
    # clearly inside and clearly outside are both fine
    assert ground_space(_diag_op([0.0, 1e-10] + [1.0] * 14), gap_tol=1e-8).n == 2
    assert ground_space(_diag_op([0.0, 1e-6] + [1.0] * 14), gap_tol=1e-8).n == 1


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
    # three distinct levels: every Krylov space closes after three
    # vectors, and with conv_tol = 0 no Ritz estimate is ever accepted,
    # so each pair needs fresh directions injected at beta < 1e-13 until
    # the 16-dim space (less the deflated vectors) is spanned, and leaves
    # through the exhausted-Krylov exit
    found = []
    lowest = spectral._lowest_eigenpair

    def recording(*args):
        out = lowest(*args)
        found.append(out)
        return out

    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    op = _diag_op([-1.0, -1.0] + [0.0] * 7 + [1.0] * 7)
    gs = lanczos_ground(op, k=3, seed=0, conv_tol=0.0)
    assert gs.n == 2
    assert abs(gs.e0 + 1.0) <= 1e-12
    np.testing.assert_allclose(gs.eigenvalues, [-1.0, -1.0, 0.0], atol=1e-12)
    assert max(gs.residuals) <= 1e-12
    cluster = np.zeros((16, 2))
    cluster[0, 0] = cluster[1, 1] = 1.0
    assert scipy.linalg.subspace_angles(gs.basis, cluster).max() <= 1e-8
    # every reported residual is the true one of its returned vector (a
    # Lanczos estimate reads orders of magnitude below any true residual)
    # and the vectors are orthonormal
    assert len(found) == 3
    vecs = np.column_stack([y for _, y, _, _ in found])
    for val, y, res, _ in found:
        true_res = np.linalg.norm(op.apply(y) - val * y)
        assert abs(res - true_res) <= 1e-12
        assert res == pytest.approx(true_res, rel=1e-6, abs=1e-300)
    assert np.abs(vecs.conj().T @ vecs - np.eye(3)).max() <= 1e-12
    assert sorted(gs.residuals) == sorted(res for _, _, res, _ in found)


def test_lanczos_insufficient_k_raises(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    with pytest.raises(ConvergenceError):
        lanczos_ground(op, k=1, seed=0)  # ground cluster has 8 states


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
                                   w.matrix @ gs.basis)).real
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


def test_cache_key_and_eigenvalue_files(tmp_path):
    k1 = spectrum_cache_key("abc", 0.1)
    k2 = spectrum_cache_key("abc", 0.1)
    k3 = spectrum_cache_key("abc", 0.2)
    assert k1 == k2 != k3
    vals = np.array([-4.0, -3.5, 0.25])
    path = tmp_path / "eigs.f8"
    save_eigenvalues(path, vals)
    np.testing.assert_array_equal(load_eigenvalues(path, len(vals)), vals)
    # on-disk format is raw little-endian float64
    assert path.read_bytes() == vals.astype("<f8").tobytes()


def test_eigenvalue_file_has_the_umask_default_mode(tmp_path):
    # as a direct write would: a cache dir shared between users stays readable
    path = tmp_path / "eigs.f8"
    old = os.umask(0o022)
    try:
        save_eigenvalues(path, np.array([-1.0, 1.0]))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["eigs.f8"]
