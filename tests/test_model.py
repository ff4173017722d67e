"""The island Hamiltonian, loop operators, and the mirror factorization."""

from fractions import Fraction

import numpy as np
import pytest

from vortexcert.clifford import GaussianRational, commutator, multiply, reflect
from vortexcert.fock import to_matrix
from vortexcert.lattice import build_lattice, reflection_data, translations
from vortexcert.model import (
    ModelError,
    bond_term,
    build_hamiltonian,
    island_term,
    loop_operator,
    model_manifest,
    parity_operator,
    verify_reflection_symmetry,
    vortex_operator,
)
from vortexcert.spectral import dense_spectrum

from conftest import oracle_matrix, to_dense


def test_island_term_is_pinned_quartic(diamond):
    t = island_term(diamond, (0, 2))
    assert list(t.terms()) == [(0, 1, 2, 3)]
    assert t.coefficient((0, 1, 2, 3)).to_complex() == -1
    assert t.is_hermitian()


def test_bond_term_is_quadratic_imaginary(diamond):
    bond = diamond.bonds[0]
    t = bond_term(diamond, bond)
    assert t.is_hermitian()
    assert t.degree() == 2
    with pytest.raises(ModelError):
        bond_term(diamond, (0, 5))  # not a lattice bond


def test_hamiltonian_term_count_and_hermiticity(diamond):
    h = build_hamiltonian(diamond, 0.1)
    # 4 islands + 4 bonds
    assert len(h) == 8
    assert h.is_hermitian()
    m = to_matrix(h, diamond.n_modes)
    dense_spectrum(m)  # NonHermitianError above a defect of 1e-12
    d = to_dense(m)
    assert np.abs(d - d.conj().T).max() <= 1e-15


def test_lambda_zero_drops_bond_terms(diamond):
    h = build_hamiltonian(diamond, 0)
    assert len(h) == 4
    assert all(isinstance(c, GaussianRational) for c in h.terms().values())


def test_exact_mode_with_fraction_lambda(diamond):
    h = build_hamiltonian(diamond, Fraction(1, 10))
    hf = build_hamiltonian(diamond, 0.1)
    assert h == hf


def test_hamiltonian_matches_oracle(diamond):
    h = build_hamiltonian(diamond, 0.3)
    got = to_dense(to_matrix(h, diamond.n_modes))
    np.testing.assert_allclose(got, oracle_matrix(h, diamond.n_modes), atol=1e-13)


@pytest.mark.parametrize("lam", [0, 0.1, 0.5])
def test_reflection_symmetry_exact(diamond, diamond_mirror, lam):
    h = build_hamiltonian(diamond, lam)
    ok, dev = verify_reflection_symmetry(h, diamond_mirror)
    assert ok and dev == 0


def test_reflection_symmetry_detects_breaking(diamond, diamond_mirror):
    h = build_hamiltonian(diamond, 0.1)
    h = h + island_term(diamond, (0, 2))  # doubles one island only
    ok, dev = verify_reflection_symmetry(h, diamond_mirror)
    assert not ok and dev > 0.5


def test_loop_operator_phase_and_involution(diamond):
    o = diamond.octagons[0]
    w = loop_operator(diamond, o.octet)
    assert w.is_hermitian()
    assert multiply(w, w) == type(w).identity()
    # i^4 prefactor on an 8-site loop
    key = tuple(sorted(o.octet))
    assert abs(w.coefficient(key).to_complex()) == 1


def test_loop_operator_validation(diamond):
    o = diamond.octagons[0]
    with pytest.raises(ModelError):
        loop_operator(diamond, o.octet[:3])  # odd length
    with pytest.raises(ModelError):
        loop_operator(diamond, (0, 0))  # repeated site
    with pytest.raises(ModelError):
        loop_operator(diamond, (0, 15))  # corners not adjacent


def test_two_site_loop_is_bond_like(diamond):
    u, v = diamond.bonds[0]
    w = loop_operator(diamond, (u, v))
    assert w.is_hermitian()
    assert multiply(w, w) == type(w).identity()


def test_vortex_operator_commutes_with_hamiltonian(diamond):
    h = build_hamiltonian(diamond, Fraction(1, 2))
    vl = vortex_operator(diamond, diamond.octagons[0])
    assert commutator(vl.W, h).is_zero


def test_vortex_bisection_factor(diamond, diamond_mirror):
    vl = vortex_operator(diamond, diamond.octagons[0], diamond_mirror)
    assert vl.A_factor is not None
    assert vl.half_length == 4
    left = set(diamond_mirror.left)
    assert set(vl.A_factor.support()) <= left
    prod = multiply(vl.A_factor, reflect(vl.A_factor, diamond_mirror.sigma))
    assert prod == vl.W


def test_vortex_accepts_center_tuple(diamond):
    vl = vortex_operator(diamond, (1, 2))
    assert vl.half_length == 4
    with pytest.raises(ModelError):
        vortex_operator(diamond, (0, 1))  # no octagon there


def test_unbisected_octagon_has_no_factor():
    lat = build_lattice(4, 4, "periodic")
    r = reflection_data(lat, "x", 0)
    # an octagon centred on the mirror plane is bisected; one in the
    # bulk of a half is not
    cut = vortex_operator(lat, (0, 1), r)
    off = vortex_operator(lat, (1, 0), r)
    assert cut.A_factor is not None
    assert off.A_factor is None


def test_horizontal_bisection_also_factorizes(diamond):
    r = reflection_data(diamond, "y", 2)
    vl = vortex_operator(diamond, (1, 2), r)
    assert vl.A_factor is not None
    prod = multiply(vl.A_factor, reflect(vl.A_factor, r.sigma))
    assert prod == vl.W


def test_parity_commutes_and_squares(diamond):
    p = parity_operator(diamond)
    h = build_hamiltonian(diamond, Fraction(1, 10))
    assert commutator(p, h).is_zero
    assert multiply(p, p) == type(p).identity()
    assert p.is_hermitian()


def test_vortex_eigenvalues_pm_one(diamond):
    vl = vortex_operator(diamond, diamond.octagons[0])
    m = to_dense(to_matrix(vl.W, diamond.n_modes))
    vals = np.linalg.eigvalsh(m)
    assert np.all(np.abs(np.abs(vals) - 1.0) <= 1e-10)


def test_model_manifest_shape(diamond):
    man = model_manifest(diamond, 0.1)
    assert man["majoranas"] == 16
    assert man["islands"] == 4
    assert man["bonds"] == 4
    assert man["octagons"] == 1
    assert len(man["terms"]) == 8
    assert man["lattice_hash"] == diamond.content_hash()


@pytest.mark.parametrize("lx, ly", [(4, 4), (4, 2)])
@pytest.mark.parametrize("lam", [0, 0.1, 0.5])
def test_torus_hamiltonian_is_exactly_invariant_under_translations(lx, ly, lam):
    lat = build_lattice(lx, ly, "periodic")
    h = build_hamiltonian(lat, lam)
    maps = translations(lat)
    assert maps and all(h.relabel(s) == h for s in maps)
