"""Spectra, ground spaces, the Lanczos path, and thermal functionals."""

import itertools
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from vortexcert import build_lattice, fock, reflection_data, spectral
from vortexcert.clifford import MajoranaPolynomial, reflect
from vortexcert.fock import PauliSum, to_matrix
from vortexcert.lattice import translations
from vortexcert.model import (
    bond_term,
    build_hamiltonian,
    parity_operator,
    vortex_operator,
)
from vortexcert.spectral import (
    DenseCapError,
    IllSeparatedError,
    NonHermitianError,
    SpectralError,
    Spectrum,
    canonical_subspace_basis,
    default_gap_tol,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    rp_functional,
    thermal_expectation,
)

from conftest import (
    apply_columns,
    assert_same_operator,
    dense_operator,
    diagonal_operator,
    diagonal_polynomial,
    embed,
    embedded_basis,
    embedded_loop_product,
    operator_block,
    reference_gauge_string,
    reference_real_gauge,
    random_span_polynomials,
    reference_thermal_expectation,
    row_floors,
    split_oracle,
    symmetry_blocks,
    to_dense,
)


def _max_angle(a, b) -> float:
    """The largest principal angle between two ground spaces' spans."""
    return scipy.linalg.subspace_angles(embedded_basis(a), embedded_basis(b)).max()


# dense-oracle regression values for the diamond lattice
E0_DIAMOND_01 = -4.010037405062517
E0_DIAMOND_05 = -4.2715584101397175


def test_dense_spectrum_sorted_and_trace_consistent(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(op)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    trace = to_dense(op).trace().real
    assert abs(spec.eigenvalues.sum() - trace) <= 1e-8 * max(1.0, abs(trace))


def test_dense_spectrum_rejects_non_hermitian():
    m = dense_operator([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError):
        dense_spectrum(m)


def test_dense_spectrum_refuses_beyond_cap():
    big = diagonal_operator(np.ones(8192))
    with pytest.raises(DenseCapError):
        dense_spectrum(big)


@pytest.mark.parametrize("lam,blocks", [(0, (256, 1)), (0.1, (16, 16)),
                                        (0.5, (16, 16))])
def test_block_spectrum_is_the_full_spectrum_on_the_diamond(diamond, lam, blocks):
    op = to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)
    spec = dense_spectrum(op)
    assert spec.blocks.shape == blocks
    np.testing.assert_array_equal(np.sort(spec.blocks, axis=None),
                                  np.arange(op.dim))
    full = np.linalg.eigvalsh(to_dense(op))
    assert np.abs(spec.eigenvalues - full).max() <= 1e-12


@pytest.fixture(scope="module")
def open_3x4():
    """The open 3x4 lattice at the dense cap (dim 4,096) and, at lambda 0,
    0.1 and 0.5, its operator and block spectrum, built once for the
    module's tests."""
    lat = build_lattice(3, 4, "open")
    ops = {lam: to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
           for lam in (0, 0.1, 0.5)}
    return lat, ops, {lam: dense_spectrum(op) for lam, op in ops.items()}


def test_block_spectrum_is_the_full_spectrum_on_the_open_3x4_lattice(open_3x4):
    # dim 4096, the dense cap: 64 blocks of 64 against the spectrum of the
    # dense matrix.  No stored entry couples the parities, so that is the
    # spectrum of its two 2,048-state parity halves, each filled straight
    # from the operator's slots in a phase gauge d_n = i^parity(n & y)
    # solved from that half's own entries (`reference_gauge_string`):
    # D^dagger M D is exactly real, so a real eigvalsh takes it
    _, ops, spectra = open_3x4
    op, spec = ops[0.1], spectra[0.1]
    assert spec.blocks.shape == (64, 64)
    rows = np.broadcast_to(np.arange(op.dim), op.cols.shape)
    parity = _parity(op.dim)
    stored = op.values != 0
    assert (parity[rows[stored]] == parity[op.cols[stored]]).all()
    pos = np.empty(op.dim, dtype=np.int64)  # each state's place in its half
    halves = [np.flatnonzero(parity == p) for p in (0, 1)]
    for half in halves:
        pos[half] = np.arange(len(half))
    full = []
    for half in halves:
        block = fock.SparseOperator(pos[op.cols[:, half]], op.values[:, half])
        y = reference_gauge_string(block, half)
        assert y is not None
        d = np.where(parity[half & y], 1j, 1)
        gauged = block.values * d.conj() * d[block.cols]
        assert not gauged.imag.any()
        m = np.zeros((len(half), len(half)))
        slots = gauged != 0
        np.add.at(m, (np.broadcast_to(np.arange(len(half)), slots.shape)[slots],
                      block.cols[slots]), gauged.real[slots])
        full.append(np.linalg.eigvalsh(m))
    full = np.sort(np.concatenate(full))
    assert np.abs(spec.eigenvalues - full).max() <= 1e-12


@pytest.mark.parametrize("lam", [0, 0.1, 0.5])
def test_block_ground_projector_is_the_full_one(diamond, lam):
    op = to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)
    gs = ground_space(dense_spectrum(op))
    w, v = np.linalg.eigh(to_dense(op))
    n = int((w - w[0] <= gs.gap_tol).sum())
    assert gs.n == n
    want = v[:, :n] @ v[:, :n].conj().T
    # round-off turns the projector by about eps ||H|| / gap (Davis-Kahan);
    # the gap above the cluster is 6.2e-5 at lambda = 0.1
    tol = max(1e-12, 1e-13 / (w[n] - w[n - 1]))
    b = embedded_basis(gs)
    assert np.abs(b @ b.conj().T - want).max() <= tol


def test_block_eigenvectors_solve_the_full_operator(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(op)
    vecs = embed(spec, np.arange(op.dim))
    assert np.abs(vecs.conj().T @ vecs - np.eye(op.dim)).max() <= 1e-12
    residual = apply_columns(op, vecs) - vecs * spec.values.ravel()
    assert np.abs(residual).max() <= 1e-12


@pytest.mark.parametrize("lam", [0, 0.1])
def test_a_spectrum_maps_each_state_to_its_block_and_place(diamond, lam):
    spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                    diamond.n_modes))
    # row b is the block of label b, its states at their places, read by
    # bit arithmetic on the split's Z-strings
    count, size = spec.blocks.shape
    np.testing.assert_array_equal(spec.blocks, split_oracle(spec.dim, spec.gens))
    np.testing.assert_array_equal(spectral._labels(spec.blocks, spec.gens),
                                  np.repeat(np.arange(count)[:, None], size, axis=1))
    np.testing.assert_array_equal(
        spectral._places(spec.blocks, spec.gens, diamond.n_modes),
        np.broadcast_to(np.arange(size), spec.blocks.shape))
    # a spectrum built by hand with its blocks out of label order is
    # refused at construction
    with pytest.raises(ValueError, match="not every block"):
        Spectrum(blocks=spec.blocks[::-1], gens=spec.gens,
                 values=spec.values[::-1], vectors=spec.vectors[::-1])


def test_dense_spectrum_rejects_a_split_that_breaks_h(monkeypatch, diamond):
    # a commuting Z-string minus one pivot bit of the masks' span
    # anticommutes with some term, so a split by it would drop entries
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    full = np.arange(op.dim)
    masks = np.unique((op.cols ^ full)[op.values != 0])
    span: dict = {}
    for s in masks.tolist():
        spectral._echelon_insert(span, s)
    parity = op.dim - 1
    gen = next(g for g in range(1, parity) if g & sum(1 << p for p in span)
               and not spectral._bit_parity(masks & g).any())
    bad = gen ^ 1 << next(p for p in sorted(span) if gen >> p & 1)

    monkeypatch.setattr(spectral, "_symmetry_generators",
                        lambda op, floor: [parity, gen])
    np.testing.assert_allclose(dense_spectrum(op).eigenvalues,
                               np.linalg.eigvalsh(to_dense(op)), atol=1e-12)
    monkeypatch.setattr(spectral, "_symmetry_generators",
                        lambda op, floor: [parity, bad])
    with pytest.raises(spectral.SpectralError, match="couples symmetry blocks"):
        dense_spectrum(op)


def test_dense_route_keeps_one_block_when_the_operator_couples_parities(diamond):
    # i c_0 c_1 c_2 is odd: no Z-string split survives, not even parity
    odd = MajoranaPolynomial.monomial((0, 1, 2), 0.3j)
    op = to_matrix(build_hamiltonian(diamond, 0.1) + odd, diamond.n_modes)
    spec = dense_spectrum(op)
    assert spec.blocks.shape == (1, op.dim)
    np.testing.assert_array_equal(spec.blocks[0], np.arange(op.dim))
    assert np.abs(spec.eigenvalues
                  - np.linalg.eigvalsh(to_dense(op))).max() <= 1e-12


def _canonical_per_pivot(basis):
    """canonical_subspace_basis as it was before the one product q @ C:
    one q @ c over all of q per pivot, phase fixed column by column.  The
    columns are orthonormalized by the same symmetric step, so that only
    the products differ."""
    w, v = np.linalg.eigh(basis.conj().T @ basis)
    q = basis @ ((v / np.sqrt(w)) @ v.conj().T)
    coeffs, out = [], []
    for i in np.flatnonzero(np.linalg.norm(q, axis=1) > 1e-8):
        c = q[i, :].conj().copy()
        for a in coeffs:
            c -= a * (a.conj() @ c)
        nrm = np.linalg.norm(c)
        if nrm <= 1e-8:
            continue
        c /= nrm
        coeffs.append(c)
        v = q @ c
        j = int(np.argmax(np.abs(v) > 1e-10))
        v *= v[j].conjugate() / abs(v[j])
        out.append(v)
        if len(out) == q.shape[1]:
            break
    return np.column_stack(out)


@pytest.mark.parametrize("lam", [0, 0.1])
def test_canonical_basis_matches_the_per_pivot_products(diamond, lam):
    rng = np.random.default_rng(5)
    op = to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)
    b = embedded_basis(ground_space(dense_spectrum(op)))
    q, _ = np.linalg.qr(rng.normal(size=(b.shape[1],) * 2)
                        + 1j * rng.normal(size=(b.shape[1],) * 2))
    mixed = b @ q
    assert np.abs(canonical_subspace_basis(mixed)[0]
                  - _canonical_per_pivot(mixed)).max() <= 1e-13


def test_canonical_basis_checks_its_columns_are_orthonormal(diamond):
    b = embedded_basis(ground_space(dense_spectrum(
        to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes))))
    # round-off is taken and corrected; a Gram matrix further from the
    # identity than ORTHONORMALITY_TOL is refused
    near = b * (1 + 1e-12)
    np.testing.assert_allclose(canonical_subspace_basis(near)[0],
                               canonical_subspace_basis(b)[0], rtol=0, atol=1e-12)
    with pytest.raises(SpectralError, match="not orthonormal"):
        canonical_subspace_basis(b * (1 + 1e-9))
    skew = b.copy()
    skew[:, 1] += 1e-6 * b[:, 0]
    with pytest.raises(SpectralError, match="not orthonormal"):
        canonical_subspace_basis(skew)


def _assert_the_global_canonical_basis(ground, rows, raw, tol=1e-12):
    """The block-resident basis against the canonical basis of the whole
    raw cluster, as it was formed before it ran per block: one
    `canonical_subspace_basis` of the (len(rows), n) columns `raw` on the
    ascending Fock states `rows`, which hold every cluster block (rows off
    them are exactly zero, and its pivot pass drops them)."""
    want, _ = canonical_subspace_basis(raw)
    got = np.zeros_like(want)
    for r, v, cols in zip(ground.rows, ground.vectors, ground.columns):
        got[np.searchsorted(rows, r)[:, None], cols] = v
    assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("lam", [0, 0.1, 0.5])
@pytest.mark.parametrize("name", ["diamond", "open-3x4"])
def test_per_block_canonical_basis_is_the_global_one(diamond, open_3x4, name, lam):
    # the dense route: the raw cluster is the embedded eigenvectors of the
    # lowest values, as ground_space formed it before
    spec = (dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                     diamond.n_modes))
            if name == "diamond" else open_3x4[2][lam])
    ground = ground_space(spec)
    order = np.argsort(spec.values, axis=None, kind="stable")[:ground.n]
    assert len(ground.rows) > 1
    _assert_the_global_canonical_basis(ground, np.arange(spec.dim),
                                       embed(spec, order))


@pytest.mark.parametrize("lam,n,blocks", [(0, 256, 4), (0.1, 1, 1), (0.5, 1, 1)])
def test_per_block_canonical_basis_is_the_global_one_on_the_torus(
        monkeypatch, torus_4x4, lam, n, blocks):
    # the Lanczos route: the raw parts handed to the per-block step, as one
    # cluster on the union of their rows (16,384 at lambda = 0, where the
    # 256-fold level lies in 4 of the 16 blocks)
    parts = []
    cluster = spectral._block_cluster

    def recording(raw):
        parts.extend(raw)
        return cluster(parts)

    monkeypatch.setattr(spectral, "_block_cluster", recording)
    ground = lanczos_ground(PauliSum(build_hamiltonian(torus_4x4, lam),
                                     torus_4x4.n_modes),
                            seed=0, symmetries=translations(torus_4x4))
    assert (ground.n, len(ground.rows)) == (n, blocks)
    rows = np.sort(np.concatenate([r for r, _ in parts]))
    raw = np.zeros((len(rows), n), dtype=np.complex128)
    col = 0
    for r, v in parts:
        raw[np.searchsorted(rows, r), col:col + v.shape[1]] = v
        col += v.shape[1]
    _assert_the_global_canonical_basis(ground, rows, raw)


def _assert_whole_z_blocks(ground, blocks):
    """Each cluster block of `ground` is one whole block of the solver's
    split `blocks`, a distinct one, so all are of its one size, and each
    block's part stands on that block's states."""
    assert ground.rows.ndim == 2 and ground.rows.shape[1] == blocks.shape[1]
    whole = {tuple(b) for b in blocks.tolist()}
    held = [tuple(r) for r in ground.rows.tolist()]
    assert set(held) <= whole and len(set(held)) == len(held)
    assert [len(v) for v in ground.vectors] == [blocks.shape[1]] * len(held)


@pytest.mark.parametrize("lam", [0, 0.1])
def test_every_cluster_block_is_a_whole_z_block(diamond, torus_4x4, lam):
    # the dense route: 16 blocks of 16 states at lambda = 0.1, 256 of one
    # at lambda = 0
    spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                    diamond.n_modes))
    _assert_whole_z_blocks(ground_space(spec), spec.blocks)
    # Lanczos with translations: 16 blocks of 4,096 states, the carried
    # ones included
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    ground = lanczos_ground(op, seed=0, symmetries=translations(torus_4x4))
    _assert_whole_z_blocks(
        ground, spectral._split(op.dim, spectral._symmetry_generators(op)))
    assert ground.blocks == (16, 4096)


def test_ground_space_regression_lambda_01(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    gs = ground_space(dense_spectrum(op))
    assert abs(gs.e0 - E0_DIAMOND_01) <= 1e-12
    assert gs.n == 8


def test_ground_space_lambda_zero_tensor_degeneracy(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0), diamond.n_modes)
    gs = ground_space(dense_spectrum(op))
    assert abs(gs.e0 + 4.0) <= 1e-12
    assert gs.n == 16  # 2 per island


def test_ground_projector_invariants(diamond):
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    b = embedded_basis(ground_space(dense_spectrum(op)))
    p = b @ b.conj().T
    assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(p - p.conj().T).max() <= 1e-10


def test_canonical_basis_is_gauge_independent(diamond):
    rng = np.random.default_rng(2)
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    b = embedded_basis(ground_space(dense_spectrum(op)))
    q, _ = np.linalg.qr(rng.normal(size=(b.shape[1],) * 2)
                        + 1j * rng.normal(size=(b.shape[1],) * 2))
    again, pivots = canonical_subspace_basis(b @ q)
    np.testing.assert_allclose(again, canonical_subspace_basis(b)[0], atol=1e-10)
    np.testing.assert_array_equal(pivots, canonical_subspace_basis(b)[1])


def test_default_gap_tol_floor():
    assert default_gap_tol(0.0) == 1e-8
    assert default_gap_tol(-4.0) == 4e-8


def test_ill_separated_cluster_raises():
    # second level sits inside the ambiguous decade around gap_tol
    vals = [0.0, 5e-8] + [1.0] * 14
    with pytest.raises(IllSeparatedError):
        ground_space(dense_spectrum(diagonal_operator(vals)), gap_tol=1e-8)
    # clearly inside and clearly outside are both fine
    inside = diagonal_operator([0.0, 1e-10] + [1.0] * 14)
    outside = diagonal_operator([0.0, 1e-6] + [1.0] * 14)
    assert ground_space(dense_spectrum(inside), gap_tol=1e-8).n == 2
    assert ground_space(dense_spectrum(outside), gap_tol=1e-8).n == 1


def test_lanczos_matches_dense_on_diamond(diamond):
    h = build_hamiltonian(diamond, 0.1)
    dense = ground_space(dense_spectrum(to_matrix(h, diamond.n_modes)))
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=dense.n + 1, seed=0)
    assert abs(lz.e0 - dense.e0) <= 1e-8
    assert lz.n == dense.n
    assert _max_angle(lz, dense) <= 1e-6


def test_lanczos_refuses_a_sparse_operator(diamond):
    # Lanczos builds its blocks from Pauli strings; an operator already
    # built, or a bare polynomial, is refused before any work
    h = build_hamiltonian(diamond, 0.1)
    for op in (to_matrix(h, diamond.n_modes), h):
        with pytest.raises(TypeError, match="reads a PauliSum"):
            lanczos_ground(op)


# window 16 forces thick restarts on the diamond; 64 converges without
@pytest.mark.parametrize("window", [64, 16])
def test_lanczos_eigenvalues_and_residuals_match_dense(diamond, window):
    h = build_hamiltonian(diamond, 0.1)
    op = to_matrix(h, diamond.n_modes)
    dense = dense_spectrum(op).eigenvalues
    k, conv_tol = 9, 1e-9
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=k, seed=0,
                        conv_tol=conv_tol, window=window)
    np.testing.assert_allclose(lz.eigenvalues, dense[:k], rtol=0, atol=1e-9)
    assert len(lz.residuals) == k
    for e, r in zip(lz.eigenvalues, lz.residuals):
        assert r <= 100 * conv_tol * max(1.0, abs(e))
    assert lz.matvecs > 0
    # the dense route has no solver diagnostics
    gs = ground_space(dense_spectrum(op))
    assert gs.eigenvalues == () and gs.residuals == () and gs.matvecs == 0


def _same_operator(a, b):
    return np.array_equal(a.cols, b.cols) and np.array_equal(a.values, b.values)


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
    op = PauliSum(diagonal_polynomial([-1.0, -1.0] + [0.0] * 7 + [1.0] * 7), 4)
    gs = lanczos_ground(op, k=3, seed=0, conv_tol=0.0)
    assert gs.n == 2
    assert abs(gs.e0 + 1.0) <= 1e-12
    np.testing.assert_allclose(gs.eigenvalues, [-1.0, -1.0, 0.0], atol=1e-12)
    assert max(gs.residuals) <= 1e-12
    cluster = np.zeros((16, 2))
    cluster[0, 0] = cluster[1, 1] = 1.0
    assert scipy.linalg.subspace_angles(embedded_basis(gs), cluster).max() <= 1e-8
    # the merge: even -1, even 0, odd -1, then odd 0 (the odd floor, -1,
    # lies below the third smallest, 0): the search stays in the even block
    # while its bound -1 is the lowest up to round-off, and leaves it at 0,
    # so each block is built once
    blocks = [block for block, _ in found]
    assert len(found) == 4 and gs.builds == 2
    assert blocks[0] is blocks[1] and blocks[2] is blocks[3]
    assert not _same_operator(blocks[0], blocks[2])
    assert all(block.dim == 8 for block in blocks)
    # every reported residual is the true one of its returned vector
    # against its block operator (a Lanczos estimate reads orders of
    # magnitude below any true residual), and the vectors of each block
    # are orthonormal
    for block, (val, y, res, _) in found:
        true_res = np.linalg.norm(block.apply(y) - val * y)
        assert abs(res - true_res) <= 1e-12
        assert res == pytest.approx(true_res, rel=1e-6, abs=1e-300)
    for block in blocks[::2]:
        vecs = np.column_stack([y for b, (_, y, _, _) in found
                                if _same_operator(b, block)])
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
    h = build_hamiltonian(diamond, 0.1) + odd
    op = to_matrix(h, diamond.n_modes)
    assert len(symmetry_blocks(op)) == 1
    dense = dense_spectrum(op)  # refuses a Hermiticity defect above 1e-12
    k = 9  # an 8-fold ground level
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=k, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:k],
                               rtol=0, atol=1e-9)
    assert lz.parities == ()
    ref = ground_space(dense)
    assert lz.n == ref.n == 8
    assert _max_angle(lz, ref) <= 1e-6
    # the even Hamiltonian alone splits into the two blocks
    even = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    blocks = symmetry_blocks(even)
    assert [len(b) for b in blocks] == [128, 128]
    np.testing.assert_array_equal(_parity(256)[blocks[1]], 1)


def test_lanczos_cluster_split_over_both_blocks():
    # i c_1 c_2 has eigenvalues -1 and 1, eight-fold each; the -1 level
    # has four even and four odd states, so the cluster is merged from
    # both blocks
    h = MajoranaPolynomial.monomial((1, 2), 1j)
    dense = dense_spectrum(to_matrix(h, 4))
    lz = lanczos_ground(PauliSum(h, 4), k=9, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    assert lz.n == 8
    assert sorted(lz.parities[:8]) == [0] * 4 + [1] * 4
    ref = ground_space(dense)
    assert _max_angle(lz, ref) <= 1e-6
    parities = _assert_definite_parity(embedded_basis(lz))
    assert sorted(parities) == [0] * 4 + [1] * 4
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
    op = PauliSum(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    lz = lanczos_ground(op, k=9, seed=0)
    # the solver sees half-length block vectors only
    assert {len(y) for y in found} == {128}
    # the reported cluster carries its block parities, and each basis
    # column lies in one parity sector
    parities = _assert_definite_parity(embedded_basis(lz))
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
    lz = lanczos_ground(PauliSum(diagonal_polynomial(values), 3), k=k, seed=0)
    np.testing.assert_allclose(lz.eigenvalues, np.sort(values)[:k], atol=1e-12)
    assert lz.parities == (0,) * 4 + (1,) * (k - 4)
    assert lz.n == 1
    assert max(lz.residuals) <= 1e-9


@pytest.mark.parametrize("boundary,lam,count", [
    ("periodic", 0.0, 16), ("periodic", 0.1, 16), ("open", 0.1, 16)])
def test_symmetry_blocks_are_invariant_and_floored(boundary, lam, count):
    lat = build_lattice(4, 4, boundary)
    op = to_matrix(build_hamiltonian(lat, lam), lat.n_modes)
    blocks = symmetry_blocks(op)
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
    h = build_hamiltonian(torus_4x4, 0.1)
    op = to_matrix(h, torus_4x4.n_modes)
    conv_tol = 1e-9
    lz = lanczos_ground(PauliSum(h, torus_4x4.n_modes), k=4, seed=0,
                        conv_tol=conv_tol)
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


def _gauge(rows, y):
    """The phases d_n = i^parity(n & y) of the Fock states `rows`."""
    return np.array([1j ** ((int(n) & y).bit_count() & 1) for n in rows])


def _only_even_torus_blocks_are_built(monkeypatch, op):
    """Lanczos on the 4x4 torus at lambda = 0.1 from the PauliSum `op`:
    every odd block's Gershgorin floor (-7.6) lies above the ground
    cluster and the first level after it (-8.04), so only even blocks are
    built and solved; a scheduler that solved every block again would
    spend about twice the products pinned here."""
    built = []
    block = PauliSum.block

    def recording_block(self, idx, y=None):
        out = block(self, idx, y)
        built.append((out, idx))
        return out

    solved = []
    lowest = spectral._lowest_eigenpair

    def recording(apply, *args):
        solved.append(apply.__self__)
        return lowest(apply, *args)

    monkeypatch.setattr(PauliSum, "block", recording_block)
    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    lz = lanczos_ground(op, seed=0)
    assert lz.blocks == (16, 4096)
    assert len(built) == 8 and lz.closed_by_bound == 8
    assert _parity(op.dim)[[idx[0] for _, idx in built]].tolist() == [0] * 8
    assert len(solved) == 9
    # each solved operator is a built block, built in its real gauge: the
    # complex block's cols, and its values times d_n = i^parity(n & y) on
    # both sides
    assert all(any(b is out for out, _ in built) for b in solved)
    for out, idx in built:
        plain = block(op, idx)
        d = _gauge(idx, reference_gauge_string(plain, idx))
        assert np.array_equal(out.cols, plain.cols)
        assert np.array_equal(out.values,
                              (plain.values * d[plain.cols] * d.conj()).real)
    assert lz.real_blocks == 8
    assert lz.matvecs <= 500
    monkeypatch.undo()
    return lz


def test_torus_odd_blocks_close_by_their_floors(torus_4x4, monkeypatch):
    op = PauliSum(build_hamiltonian(torus_4x4, 0.1), torus_4x4.n_modes)
    lz = _only_even_torus_blocks_are_built(monkeypatch, op)
    e0s = [lanczos_ground(op, seed=s).e0 for s in range(1, 5)]
    assert max(abs(e - lz.e0) for e in e0s) <= 1e-8


def test_torus_odd_blocks_close_by_their_floors_from_pauli_strings(
        torus_4x4, monkeypatch):
    # from the Hamiltonian's Pauli strings only the eight solved blocks
    # are ever built, never the operator on all 65,536 states: every
    # PauliSum.block call inside lanczos_ground gets one block's rows
    rows = []
    block = PauliSum.block

    def recording(self, idx, y=None):
        rows.append(len(idx))
        return block(self, idx, y)

    monkeypatch.setattr(PauliSum, "block", recording)
    lz = lanczos_ground(PauliSum(build_hamiltonian(torus_4x4, 0.1),
                                 torus_4x4.n_modes), seed=0)
    assert lz.blocks == (16, 4096)
    assert rows == [4096] * 8


def _torus_orbits(lat, lam):
    """(PauliSum of H, its blocks, representative and carrying mode
    permutation of each block) under the lattice translations."""
    op = PauliSum(build_hamiltonian(lat, lam), lat.n_modes)
    gens = spectral._symmetry_generators(op)
    blocks = spectral._split(op.dim, gens)
    perms = spectral._mode_permutations(op, translations(lat))
    return (op, blocks, *spectral._block_orbits(blocks, gens, perms))


def test_torus_translations_solve_one_block_per_orbit(torus_4x4, monkeypatch):
    """At lambda = 0.1 the translations group the 16 blocks into 6 orbits:
    only the 4 even representatives (0, 2, 4, 14) are built, and 5 solves
    replace the 9 of `_only_even_torus_blocks_are_built`; the Gershgorin
    floors are read on the 6 representatives' rows only."""
    op, blocks, rep, _ = _torus_orbits(torus_4x4, 0.1)
    assert rep == [0, 1, 2, 1, 4, 1, 2, 7, 2, 1, 4, 7, 2, 7, 14, 7]
    built, solved, read = [], [], []
    block, floors = PauliSum.block, PauliSum.floors
    lowest = spectral._lowest_eigenpair

    def recording_block(self, idx, y=None):
        built.append(int(np.flatnonzero(blocks[:, 0] == idx[0])[0]))
        return block(self, idx, y)

    def recording_floors(self, rows=None):
        read.append(len(rows))
        return floors(self, rows)

    def recording(apply, *args):
        solved.append(apply.__self__)
        return lowest(apply, *args)

    monkeypatch.setattr(PauliSum, "block", recording_block)
    monkeypatch.setattr(PauliSum, "floors", recording_floors)
    monkeypatch.setattr(spectral, "_lowest_eigenpair", recording)
    lz = lanczos_ground(op, seed=0, symmetries=translations(torus_4x4))
    assert lz.blocks == (16, 4096) and lz.orbits == 6
    assert sorted(built) == [0, 2, 4, 14] and len(solved) == 5
    # the odd orbits {1, 3, 5, 9} and {7, 11, 13, 15} close by their floor
    assert lz.closed_by_bound == 8
    assert read == [6 * 4096]
    assert lz.matvecs <= 300


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_torus_orbit_route_matches_the_block_route(torus_4x4, lam):
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    plain = lanczos_ground(op, seed=1)
    orbit = lanczos_ground(op, seed=1, symmetries=translations(torus_4x4))
    assert (plain.orbits, orbit.orbits) == (16, 6)
    assert orbit.n == plain.n and abs(orbit.e0 - plain.e0) <= 1e-10
    assert len(orbit.eigenvalues) == len(plain.eigenvalues)
    np.testing.assert_allclose(orbit.eigenvalues, plain.eigenvalues,
                               rtol=0, atol=1e-9)
    assert _max_angle(orbit, plain) <= 1e-6
    assert orbit.matvecs < plain.matvecs


@pytest.mark.parametrize("lam, blocks", [(0.0, 12), (0.1, 4)])
def test_lanczos_holds_one_block_operator_at_a_time(torus_4x4, monkeypatch,
                                                    lam, blocks):
    # a block the search leaves is released before the next is built, and
    # one it comes back to would be built again; at lambda = 0 (no orbits,
    # a 256-fold level in 4 blocks) each of the 12 blocks is solved in one
    # stay, at 0.1 the 4 even representatives are solved in turn, so
    # every block is built once
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    arrays, alive, firsts = [], [], []
    block = PauliSum.block

    def recording(self, rows, y=None):
        out = block(self, rows, y)
        arrays.extend((weakref.ref(out.cols), weakref.ref(out.values)))
        alive.append(sum(ref() is not None for ref in arrays) // 2)
        firsts.append(int(rows[0]))
        return out

    monkeypatch.setattr(PauliSum, "block", recording)
    lz = lanczos_ground(op, seed=0, symmetries=translations(torus_4x4))
    assert len(set(firsts)) == blocks == lz.real_blocks
    assert lz.builds == len(alive) == blocks
    assert alive == [1] * lz.builds


@pytest.mark.parametrize("seed", [0, 1])
def test_lanczos_solves_a_degenerate_level_block_by_block(torus_4x4, seed):
    # the 256-fold level -8 at lambda = 0 comes back from -8 - 4e-15 to
    # -8 + 2e-15; the search stays in a block while its bound is the lowest
    # up to the cluster tolerance, so it does not hop between the 4 cluster
    # blocks at round-off: each of the 12 blocks solved is built once
    op = PauliSum(build_hamiltonian(torus_4x4, 0.0), torus_4x4.n_modes)
    lz = lanczos_ground(op, seed=seed, symmetries=translations(torus_4x4))
    assert lz.builds == lz.real_blocks == 12
    assert lz.closed_by_bound == 4
    assert lz.matvecs == 1336
    assert lz.n == 256 and abs(lz.e0 + 8) <= 1e-12


def test_lanczos_traced_peak_on_the_torus(torus_4x4):
    # one resident block (1.1 MB of slots), its gather (0.5 MB) and the
    # 64-row real Krylov window (2 MB): about 4.5 MB, where the 4 built
    # blocks held to the end and a (k, dim) product array took 7.6 MB
    op = PauliSum(build_hamiltonian(torus_4x4, 0.1), torus_4x4.n_modes)
    maps = translations(torus_4x4)
    tracemalloc.start()
    try:
        lanczos_ground(op, seed=0, symmetries=maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.2f} MB"


def _splitmix64(seed, n):
    """The first n values of the start stream, in Python integers."""
    out, state, mask = [], seed, (1 << 64) - 1
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
        out.append((z ^ z >> 31) >> 11)
    return np.array(out, dtype=np.float64) / 2.0 ** 52 - 1.0


def test_start_stream_is_fixed_by_its_seed():
    first = spectral._start_stream(3)(1000)
    assert np.array_equal(first, spectral._start_stream(3)(1000))
    # a stream continues where its last draw stopped
    draw = spectral._start_stream(3)
    assert np.array_equal(np.concatenate([draw(400), draw(0), draw(600)]), first)
    for other in (0, 4, 3 + (1 << 32)):
        assert not np.isin(spectral._start_stream(other)(1000), first).any()
    for seed in (0, 3, (1 << 64) - 1):
        assert np.array_equal(spectral._start_stream(seed)(64),
                              _splitmix64(seed, 64))
    with pytest.raises(ValueError, match="seed"):
        spectral._start_stream(-1)


def test_start_stream_values_lie_in_the_half_open_unit_interval():
    values = spectral._start_stream(0)(1 << 16)
    assert values.dtype == np.float64
    assert values.min() >= -1.0 and values.max() < 1.0
    # spread over the interval: every sixteenth of it is hit
    assert len(np.unique(np.floor((values + 1) * 8))) == 16


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_torus_ground_level_does_not_depend_on_the_seed(torus_4x4, lam):
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    runs = [lanczos_ground(op, seed=s, symmetries=translations(torus_4x4))
            for s in range(5)]
    assert [lz.n for lz in runs] == [1] * 5
    e0s = [lz.e0 for lz in runs]
    assert max(e0s) - min(e0s) <= 1e-10


def test_orbits_are_trivial_when_the_split_stops_part_way(torus_4x4):
    # at lambda = 0 the block floor stops the split at 3 single-mode
    # strings besides the parity; a translation moves them out of their
    # span, so it maps no block onto a block and is skipped
    op, blocks, rep, carry = _torus_orbits(torus_4x4, 0.0)
    assert blocks.shape == (16, 4096)
    assert rep == list(range(16))
    assert all((pi == np.arange(op.n_modes)).all() for pi in carry)


def test_a_carried_eigenvector_solves_the_mate_block(torus_4x4):
    # U|n> = eps(n)|pi(n)> takes the lowest vector of block 1 into each of
    # its mates 3, 5 and 9 with the same residual; unsigned it fails there
    op, blocks, rep, carry = _torus_orbits(torus_4x4, 0.1)
    val, vec, res, _ = spectral._lowest_eigenpair(
        op.block(blocks[1]).apply, blocks.shape[1],
        np.random.default_rng(0).standard_normal, [], 1e-9, 5000, 64)
    assert [b for b in range(16) if rep[b] == 1] == [1, 3, 5, 9]
    for b in (3, 5, 9):
        states, sign = spectral._signed_permutation(blocks[1], carry[b])
        np.testing.assert_array_equal(np.sort(states), blocks[b])
        place = np.searchsorted(blocks[b], states)
        moved = np.empty_like(vec)
        moved[place] = sign * vec
        mate = op.block(blocks[b])
        assert abs(np.linalg.norm(mate.apply(moved) - val * moved) - res) <= 1e-12
        moved[place] = vec
        assert np.linalg.norm(mate.apply(moved) - val * moved) > 0.1


def test_translation_unitaries_are_signed_permutations():
    # on the 4x2 torus (dim 256): U c_i U^dagger = c_s(i) for every
    # generator, and U H U^dagger = H exactly
    lat = build_lattice(4, 2, "periodic")
    n = lat.n_modes
    states = np.arange(1 << n)
    gens = [to_dense(to_matrix(MajoranaPolynomial.generator(i), n))
            for i in range(2 * n)]
    h = to_dense(to_matrix(build_hamiltonian(lat, 0.1), n))
    maps = translations(lat)
    assert len(maps) == 3
    for s in maps:
        image, sign = spectral._signed_permutation(states, np.array(s[::2]) // 2)
        u = np.zeros((len(states), len(states)))
        u[image, states] = sign
        for i in range(2 * n):
            np.testing.assert_array_equal(u @ gens[i] @ u.T, gens[s[i]])
        np.testing.assert_array_equal(u @ h @ u.T, h)


def test_the_sign_formula_holds_for_any_mode_permutation():
    n = 5
    states = np.arange(1 << n)
    gens = [to_dense(to_matrix(MajoranaPolynomial.generator(i), n))
            for i in range(2 * n)]
    rng = np.random.default_rng(3)
    for _ in range(5):
        pi = rng.permutation(n)
        image, sign = spectral._signed_permutation(states, pi)
        u = np.zeros((len(states), len(states)))
        u[image, states] = sign
        for k in range(n):
            for j in (0, 1):
                np.testing.assert_array_equal(u @ gens[2 * k + j] @ u.T,
                                              gens[2 * pi[k] + j])


def test_cluster_vectors_carried_into_a_mate_block(monkeypatch):
    # fully split, the 4x2 torus at lambda = 1 plus 2 (-1)^N has its
    # 8-fold ground level in block 1 and its mate 3, 4 states each: half
    # of the cluster is carried, and it spans the dense ground space
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
    lat = build_lattice(4, 2, "periodic")
    h = build_hamiltonian(lat, 1.0) + parity_operator(lat) * 2
    lz = lanczos_ground(PauliSum(h, lat.n_modes), seed=0,
                        symmetries=translations(lat))
    ref = ground_space(dense_spectrum(to_matrix(h, lat.n_modes)))
    assert lz.blocks == (4, 64) and lz.orbits == 3
    assert lz.n == ref.n == 8 and abs(lz.e0 - ref.e0) <= 1e-10
    assert _max_angle(lz, ref) <= 1e-6


def test_a_carried_cluster_vector_that_leaks_out_of_its_block_is_refused(
        monkeypatch):
    # the same carried half of the cluster, through a signed permutation
    # off by the lowest mode: its states lie in the other parity, so the
    # vector cannot be kept on the rows of the block it was carried onto
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
    signed = spectral._signed_permutation

    def shifted(states, pi):
        moved, sign = signed(states, pi)
        return moved ^ 1, sign

    monkeypatch.setattr(spectral, "_signed_permutation", shifted)
    lat = build_lattice(4, 2, "periodic")
    h = build_hamiltonian(lat, 1.0) + parity_operator(lat) * 2
    with pytest.raises(SpectralError, match="onto block 3 leaks out of it"):
        lanczos_ground(PauliSum(h, lat.n_modes), seed=0,
                       symmetries=translations(lat))


def test_a_symmetry_claim_is_checked_not_trusted():
    lat = build_lattice(4, 2, "periodic")
    h = build_hamiltonian(lat, 0.1)
    maps = translations(lat)
    assert lanczos_ground(PauliSum(h, lat.n_modes), symmetries=maps).orbits == 2
    # one bond coefficient changed: no translation fixes H any more
    bent = h + bond_term(lat, lat.bonds[0]) * Fraction(1, 100)
    with pytest.raises(SpectralError, match="not a symmetry of H"):
        lanczos_ground(PauliSum(bent, lat.n_modes), symmetries=maps)
    # a SparseOperator has no polynomial to check the claim on
    with pytest.raises(TypeError, match="PauliSum"):
        lanczos_ground(to_matrix(h, lat.n_modes), symmetries=maps)
    # swapping the two generators of a mode, or dropping one, is no mode
    # permutation, whatever it does to H
    swap = (1, 0, *range(2, lat.n_majoranas))
    for s in (swap, maps[0][:-1]):
        with pytest.raises(SpectralError, match="generator pairs"):
            lanczos_ground(PauliSum(h, lat.n_modes), symmetries=[s])


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_pauli_sum_floors_are_the_slot_floors_bit_for_bit(torus_4x4, lam):
    # summed mask by mask, in the gauge's real arithmetic, the floors are
    # those of the complex (masks, rows) slots in mask order
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    assert op.gauge() is not None
    rows = symmetry_blocks(op)[[0, 1, 7]].ravel()
    cols = rows ^ np.array(list(op.terms)).reshape(-1, 1)
    values = np.array([fock._mask_values(col, strings, False)
                       for col, strings in zip(cols, op._strings(None))])
    np.testing.assert_array_equal(op.floors(rows), row_floors(cols, values, rows))


@pytest.mark.parametrize("strings", [False, True])
def test_floors_of_given_rows_are_those_rows_of_every_floor(
        diamond, strings, monkeypatch):
    # chunks of 32 rows, so a PauliSum reads the rows in four chunks
    monkeypatch.setattr(fock, "ROW_CHUNK", 32)
    h = build_hamiltonian(diamond, 0.1)
    if strings:
        floors = PauliSum(h, diamond.n_modes).floors
    else:  # the slots of the operator, through the reference floors
        op = to_matrix(h, diamond.n_modes)

        def floors(rows=np.arange(op.dim)):
            return row_floors(op.cols[:, rows], op.values[:, rows], rows)
    rows = np.random.default_rng(4).permutation(1 << diamond.n_modes)[:100]
    np.testing.assert_array_equal(floors(rows), floors()[rows])


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_pauli_sum_blocks_are_the_operator_blocks_on_the_torus(torus_4x4, lam):
    h = build_hamiltonian(torus_4x4, lam)
    strings, op = PauliSum(h, torus_4x4.n_modes), to_matrix(h, torus_4x4.n_modes)
    np.testing.assert_array_equal(strings.masks, op.masks)
    blocks = symmetry_blocks(strings)
    np.testing.assert_array_equal(blocks, symmetry_blocks(op))
    for idx in blocks:
        assert_same_operator(strings.block(idx), operator_block(op, idx))


def _assert_blocks_built_in_the_reference_gauge(h, n_modes):
    """Every Lanczos block of h, built straight in the operator's gauge
    from its Pauli strings, is the reference route's: the complex block,
    its own gauge string (the operator's), and D^dagger B D formed from
    it, slot for slot."""
    strings = PauliSum(h, n_modes)
    y = strings.gauge()
    assert y is not None
    for rows in symmetry_blocks(strings):
        plain = strings.block(rows)
        assert reference_gauge_string(plain, rows) == y
        ref, d = reference_real_gauge(plain, rows, y)
        assert d is not None
        np.testing.assert_array_equal(d, _gauge(rows, y))
        # D^dagger B D, entry for entry: every imaginary part exactly 0
        expected = plain.values * d[plain.cols] * d.conj()
        assert not expected.imag.any()
        np.testing.assert_array_equal(ref.values, expected.real)
        built = strings.block(rows, y)
        assert built.values.dtype == np.float64
        assert np.array_equal(built.cols, ref.cols)
        assert np.array_equal(built.values, ref.values)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_every_torus_block_has_an_exact_real_gauge(torus_4x4, lam):
    _assert_blocks_built_in_the_reference_gauge(
        build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)


def test_diamond_lanczos_blocks_are_built_in_the_reference_gauge(
        diamond, monkeypatch):
    # the blocks of the lowered-cap Lanczos route: the two parities
    assert symmetry_blocks(PauliSum(
        build_hamiltonian(diamond, 0.1), diamond.n_modes)).shape == (2, 128)
    _assert_blocks_built_in_the_reference_gauge(
        build_hamiltonian(diamond, 0.1), diamond.n_modes)


def test_a_flipped_gauge_bit_is_refused_by_the_exact_check(torus_4x4):
    strings = PauliSum(build_hamiltonian(torus_4x4, 0.1), torus_4x4.n_modes)
    rows = symmetry_blocks(strings)[0]
    block = strings.block(rows)
    y = strings.gauge()
    for bit in range(strings.n_modes):
        wrong, d = reference_real_gauge(block, rows, y ^ 1 << bit)
        assert wrong is block and d is None
        with pytest.raises(ValueError, match="complex"):
            strings.block(rows, y ^ 1 << bit)


def test_a_mask_with_complex_entries_has_no_gauge():
    # i c0 c2 + i c1 c2 = i X0 Z0 X1 - X0 X1: one mask, entries -1 +- i
    c = MajoranaPolynomial.generator
    h = c(0) * c(2) * 1j + c(1) * c(2) * 1j
    op = PauliSum(h, 2)
    rows = np.arange(4)
    block = op.block(rows)
    assert set(block.values[block.values != 0].tolist()) == {-1 + 1j, -1 - 1j}
    assert op.gauge() is None
    assert reference_gauge_string(block, rows) is None
    # (1 + i) c0 c1 = (i - 1) Z0: one string, itself complex
    skew = c(0) * c(1) * (1 + 1j)
    assert PauliSum(skew, 1).gauge() is None
    assert reference_gauge_string(to_matrix(skew, 1), np.arange(2)) is None


def test_lanczos_without_a_gauge_matches_the_dense_route():
    # the mask of i c0 c2 + i c1 c2 leaves every block complex; the rest
    # of this even Hermitian H alone would have a gauge
    c = MajoranaPolynomial.generator
    gaugeable = (c(0) * c(1) * 1j + c(2) * c(3) * 2j + c(4) * c(5) * 1j
                 + c(1) * c(2) * c(3) * c(4) + c(0) * c(5) * 1j)
    complex_mask = c(0) * c(2) * 1j + c(1) * c(2) * 1j
    for h, real in ((gaugeable, 2), (gaugeable + complex_mask, 0)):
        lz = lanczos_ground(PauliSum(h, 3), seed=0)
        ref = ground_space(dense_spectrum(to_matrix(h, 3)))
        assert lz.real_blocks == real
        assert lz.n == ref.n and abs(lz.e0 - ref.e0) <= 1e-10
        assert _max_angle(lz, ref) <= 1e-8


def test_the_4x2_torus_in_its_real_gauge_is_the_dense_route():
    lat = build_lattice(4, 2, "periodic")
    h = build_hamiltonian(lat, 0.1)
    lz = lanczos_ground(PauliSum(h, lat.n_modes), seed=0,
                        symmetries=translations(lat))
    ref = ground_space(dense_spectrum(to_matrix(h, lat.n_modes)))
    assert lz.real_blocks > 0
    assert lz.n == ref.n and abs(lz.e0 - ref.e0) <= 1e-10
    assert _max_angle(lz, ref) <= 1e-8


@pytest.mark.parametrize("lam,real", [(0.1, 4), (0.5, 6)])
def test_ungauged_cluster_vectors_solve_the_complex_block(torus_4x4, lam, real):
    # the cluster comes back from the real gauge into the Fock basis: its
    # true residual under the complex block meets the acceptance rule;
    # every solved representative ran real
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    lz = lanczos_ground(op, seed=0, symmetries=translations(torus_4x4))
    assert lz.real_blocks == real
    blocks = symmetry_blocks(op)
    for v in embedded_basis(lz).T:
        rows = next(b for b in blocks if np.linalg.norm(v[b]) > 0.5)
        assert np.iscomplexobj(op.block(rows).values)
        y = v[rows]
        r = np.linalg.norm(op.block(rows).apply(y) - lz.e0 * y)
        assert r <= 100 * 1e-9 * max(1.0, abs(lz.e0))


@pytest.mark.parametrize("lam", [0.1, 0.5])
def test_krylov_basis_stays_orthonormal_with_the_dgks_rule(
        torus_4x4, lam, monkeypatch):
    # a second Gram-Schmidt pass runs only when the first cancelled most of
    # the vector; every basis a pass projects against stays orthonormal
    worst = []
    project = spectral._project_out

    def recording(basis, w):
        worst.append(np.abs(basis @ basis.conj().T - np.eye(len(basis))).max())
        return project(basis, w)

    monkeypatch.setattr(spectral, "_project_out", recording)
    op = PauliSum(build_hamiltonian(torus_4x4, lam), torus_4x4.n_modes)
    lanczos_ground(op, seed=0, symmetries=translations(torus_4x4))
    assert max(worst) <= 1e-13


def test_an_anti_hermitian_operator_is_refused_on_every_route():
    # (c0 c1)^dagger = c1 c0 = -c0 c1
    p = MajoranaPolynomial.monomial((0, 1))
    assert PauliSum(p, 2).hermiticity_defect() == 2.0
    for solve in (lambda: lanczos_ground(PauliSum(p, 2)),
                  lambda: dense_spectrum(to_matrix(p, 2))):
        with pytest.raises(NonHermitianError, match="hermiticity defect"):
            solve()
    # Lanczos reads Pauli strings only
    with pytest.raises(TypeError, match="PauliSum"):
        lanczos_ground(to_matrix(p, 2))


def test_lanczos_with_loose_floors_visits_every_block(monkeypatch, diamond):
    # at lambda = 1 every floor lies below the ground level, so no block
    # is closed unsolved and the merge alone decides the reported values
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 16)
    h = build_hamiltonian(diamond, 1.0)
    dense = dense_spectrum(to_matrix(h, diamond.n_modes))
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=9, seed=0)
    assert lz.blocks == (16, 16) and lz.closed_by_bound == 0
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    ref = ground_space(dense)
    assert lz.n == ref.n
    assert _max_angle(lz, ref) <= 1e-6


def test_lanczos_k_1_closes_the_ground_cluster(diamond):
    # k is only a floor: the solver keeps going until a certified value
    # lies above the cut, so the whole 8-fold cluster comes back
    h = build_hamiltonian(diamond, 0.1)
    dense = dense_spectrum(to_matrix(h, diamond.n_modes))
    ref = ground_space(dense)
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=1, seed=0)
    assert lz.n == ref.n == 8
    assert len(lz.eigenvalues) == 9  # the cluster and the first level above
    np.testing.assert_allclose(lz.eigenvalues, dense.eigenvalues[:9],
                               rtol=0, atol=1e-9)
    b, b_ref = embedded_basis(lz), embedded_basis(ref)
    assert np.abs(b @ b.conj().T - b_ref @ b_ref.conj().T).max() <= 1e-6


def test_lanczos_closes_a_cluster_that_fills_whole_blocks(diamond):
    # at lambda = 0 the diamond's ground level is 16-fold
    h = build_hamiltonian(diamond, 0.0)
    ref = ground_space(dense_spectrum(to_matrix(h, diamond.n_modes)))
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), seed=0)
    assert lz.n == ref.n == 16
    assert abs(lz.e0 - ref.e0) <= 1e-9
    assert _max_angle(lz, ref) <= 1e-6


def test_lanczos_k_beyond_the_cluster_is_a_floor(diamond):
    # k above the cluster size still reports k certified values
    h = build_hamiltonian(diamond, 0.1)
    dense = dense_spectrum(to_matrix(h, diamond.n_modes)).eigenvalues
    lz = lanczos_ground(PauliSum(h, diamond.n_modes), k=12, seed=0)
    assert lz.n == 8
    np.testing.assert_allclose(lz.eigenvalues, dense[:12], rtol=0, atol=1e-9)


def test_lanczos_stops_when_every_state_is_in_the_cluster():
    # nothing lies above the cut: the search ends with every block spent
    lz = lanczos_ground(PauliSum(diagonal_polynomial([2.0] * 8), 3), seed=0)
    assert lz.n == 8 and len(lz.eigenvalues) == 8
    assert abs(lz.e0 - 2.0) <= 1e-12


def test_thermal_expectation_limits(diamond):
    h = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(h)
    w = vortex_operator(diamond, (1, 2)).W
    # beta = 0 is the flat average; tr W = 0 for a signed permutation
    # with no fixed points
    assert abs(thermal_expectation(w, spec, 0.0)) <= 1e-12
    gs = ground_space(spec)
    beta_large = thermal_expectation(w, spec, 4e5).real
    loop = embedded_loop_product(gs, to_matrix(w, diamond.n_modes))
    ground_avg = np.mean(loop.diagonal()).real
    assert abs(beta_large - ground_avg) <= 1e-6


def test_thermal_tail_is_monotone(diamond):
    """<W>_beta grows toward the ground-state value along the tail."""
    h = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(h)
    w = vortex_operator(diamond, (1, 2)).W
    vals = [thermal_expectation(w, spec, b).real for b in (5, 10, 20, 50)]
    assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))


def _scale(o) -> float:
    """The product of the polynomial factors' normalized Frobenius norms
    ||F||_F / sqrt(dim), the scale of <O> (|a|^2 for A theta(A), 1 for a
    loop operator): distinct monomials are orthonormal Pauli strings, so
    ||F||_F^2 / dim is the sum of the squared coefficients."""
    factors = o if isinstance(o, tuple) else (o,)
    return float(np.prod([np.sqrt(sum(abs(complex(c)) ** 2
                                      for c in f.terms().values()))
                          for f in factors]))


def _assert_block_route_is_the_embedding_route(o, spec, betas):
    """thermal_expectation against the embedding route, to 1e-14 of
    `_scale`, so values that vanish in the thermal state are held to it
    too."""
    scale = _scale(o)
    for beta in betas:
        want = reference_thermal_expectation(o, spec, beta)
        got = thermal_expectation(o, spec, beta)
        assert abs(got - want) <= 1e-14 * scale, (beta, got, want)


@pytest.mark.parametrize("plane", [("x", 1), ("y", 2)])
@pytest.mark.parametrize("lam", [0, 0.1, 0.5])
def test_block_thermal_expectation_is_the_embedding_route(diamond, lam, plane):
    # lambda = 0 splits the diamond into 256 one-state blocks, lambda > 0
    # into 16 of 16; the y = 2 mirror fails RP, so its values are negative
    from vortexcert.verify import rp_sample_polynomials

    n = diamond.n_modes
    r = reflection_data(diamond, *plane)
    spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam), n))
    betas = (0, 1, 5, 4e5)
    w = vortex_operator(diamond, (1, 2)).W
    _assert_block_route_is_the_embedding_route(w, spec, betas)
    for parity in ("even", "odd"):
        rows = [a for _, a in rp_sample_polynomials(r.left, parity=parity,
                                                    max_degree=4)]
        witnesses = [rows[0], rows[len(rows) // 2], rows[-1],
                     *random_span_polynomials(r.left, parity, 4, 2, seed=7)]
        assert [len(a) for a in witnesses] == [1] * 3 + [len(rows)] * 2
        for a in witnesses:
            fa = (a, reflect(a, r.sigma))
            _assert_block_route_is_the_embedding_route(fa, spec, betas)
            _assert_block_route_is_the_embedding_route((fa[0], w, fa[1]),
                                                       spec, betas)


def test_block_thermal_expectation_on_the_open_3x4_lattice(open_3x4):
    # 64 blocks of 64 at the dense cap; the mirror x = 1 cuts islands
    lat, _, spectra = open_3x4
    r = reflection_data(lat, "x", 1)
    spec = spectra[0.1]
    a = MajoranaPolynomial.monomial(tuple(r.left[:4]))
    _assert_block_route_is_the_embedding_route((a, reflect(a, r.sigma)), spec,
                                               (1,))


def test_block_thermal_expectation_holds_one_stack_per_factor(open_3x4):
    # an even monomial's re-check on the open 3x4 lattice holds about four
    # eigenvector stacks at its peak (the result, the part carried out of
    # theta(A), a gathered term and the temporary of ov[b] += term); the
    # term of theta(A), kept alive through the next factor, was a fifth.
    # The full-span even witness (562 monomials, 99 masks per factor)
    # adds each factor's slot tables, read straight from its Pauli
    # strings: 35 MiB, where the full-space operators of A and theta(A)
    # and their tables by mask took 59.5 MiB
    lat, _, spectra = open_3x4
    r = reflection_data(lat, "x", 1)
    spec = spectra[0.1]
    stack = spec.vectors.size * 16  # bytes of one complex eigenvector stack
    a = MajoranaPolynomial.monomial(tuple(r.left[:4]))
    [witness] = random_span_polynomials(r.left, "even", 4, 1, seed=7)
    assert len(witness) == 562
    rp_functional(a, r, spec, 1.0)  # warm the imports

    def traced(x):
        tracemalloc.start()
        try:
            value = rp_functional(x, r, spec, 1.0)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, peak = traced(a)
    assert peak < 4.5 * stack, peak / stack
    value, peak = traced(witness)
    assert peak < 48 * 2**20, peak / 2**20
    fa = (witness, reflect(witness, r.sigma))
    want = reference_thermal_expectation(fa, spec, 1.0)
    assert abs(value - want) <= 1e-14 * _scale(fa), (value, want)


@pytest.mark.parametrize("rows", [
    [[2, 3], [0, 1]],  # out of label order
    [[0, 1], [0, 1]],  # one block twice
    [[1, 0], [2, 3]],  # a block not ascending
    [[0, 1], [2, 4]],  # no coset of {0, 1}
    [[0, 1, 2, 3]],  # not of the blocks' size
    [[8, 9]],  # off the 8 states
])
def test_a_ground_space_refuses_rows_that_are_not_its_blocks(rows):
    # the Z-strings 2 and 4 split 8 states into the cosets of {0, 1}: each
    # row must be one of them, ascending, the rows in ascending label order
    def ground(rows):
        return spectral.GroundSpace(e0=0.0, dim=8, rows=np.array(rows),
                                    gens=(2, 4), vectors=(), columns=(),
                                    gap_tol=1e-8)

    assert ground([[0, 1], [6, 7]]).rows.shape == (2, 2)
    with pytest.raises(ValueError, match="not whole blocks"):
        ground(rows)


def test_thermal_expectation_rejects_blocks_that_are_not_cosets():
    # {2, 4} is no coset of {0, 1}: bit mask 2 would send the block {0, 1}
    # onto {2, 3}, half of block 1 and half of block 2.  A Spectrum refuses
    # the layout when it is built, under the Z-strings whose block of
    # state 0 is {0, 1}
    values = np.zeros((4, 2))
    vectors = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
    with pytest.raises(ValueError, match="not every block"):
        Spectrum(blocks=np.array([[0, 1], [2, 4], [3, 5], [6, 7]]), gens=(2, 4),
                 values=values, vectors=vectors)
    # on the cosets a mask that maps every block onto one block is applied
    spec = Spectrum(blocks=split_oracle(8, (2, 4)), gens=(2, 4), values=values,
                    vectors=vectors)
    swap = MajoranaPolynomial.generator(0)  # X_0
    assert thermal_expectation(swap, spec, 1.0) == 0


@pytest.mark.parametrize("blocks,masks", [
    # masks 2 and 3 both send block 0 onto block 1, but block 2 onto
    # blocks 2 and 3 in turn: each part would be carried with its own
    # block's map
    ([[0, 1], [2, 3], [4, 6], [5, 7]], [1, 2, 3]),
    # mask 14 sends the places 0, 1, 2, 3 of block 0 to 2, 3, 1, 0 of block
    # 3, no involution: a row would be read from the place of row ^ 14
    ([[0, 1, 2, 4], [3, 5, 6, 7], [8, 9, 11, 13], [10, 12, 14, 15]], [0, 14]),
])
def test_thermal_expectation_where_blocks_are_not_cosets(blocks, masks):
    # every mask sends each block onto one block, as on cosets, but the
    # blocks are none: a Spectrum refuses them when it is built.  On the
    # cosets of the low bits (the Z-strings of the bits above them) the
    # embedding route is the oracle
    rng = np.random.default_rng(5)
    blocks = np.array(blocks)
    count, size = blocks.shape
    gens = tuple(size << i for i in range(count.bit_length() - 1))
    vectors = np.linalg.qr(rng.standard_normal((count, size, size))
                           + 1j * rng.standard_normal((count, size, size)))[0]
    values = rng.standard_normal((count, size))
    with pytest.raises(ValueError, match="not every block"):
        Spectrum(blocks=blocks, gens=gens, values=values, vectors=vectors)
    spec = Spectrum(blocks=split_oracle(blocks.size, gens), gens=gens,
                    values=values, vectors=vectors)
    # every string X^x Z^z of the masks x with a random coefficient, so
    # each mask's entries are random; scaled by 2^-n/2, each entry's real
    # and imaginary parts have unit variance
    n_modes = blocks.size.bit_length() - 1
    keys = [key for d in range(2 * n_modes + 1)
            for key in itertools.combinations(range(2 * n_modes), d)
            if fock.monomial_pauli(key, n_modes)[0] in masks]
    assert len(keys) == len(masks) << n_modes
    factors = tuple(MajoranaPolynomial(
        {key: complex(*rng.standard_normal(2)) / np.sqrt(blocks.size)
         for key in keys}) for _ in range(3))
    for o in (factors[0], factors[:2], factors):
        for beta in (0, 1):
            want = reference_thermal_expectation(o, spec, beta)
            assert abs(thermal_expectation(o, spec, beta) - want) <= 1e-14


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
