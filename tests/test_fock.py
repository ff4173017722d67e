"""Fock-space representation against the independent Kronecker oracle."""

import numpy as np
import pytest

from vortexcert.clifford import EXACT_I, EXACT_ONE, MajoranaPolynomial
from vortexcert.fock import (
    DENSE_DIM_CAP,
    SparseOperator,
    monomial_action,
    to_matrix,
)

from conftest import diagonal_operator, oracle_majorana, oracle_matrix


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_generators_match_oracle(n_modes):
    for i in range(2 * n_modes):
        got = to_matrix(MajoranaPolynomial.generator(i), n_modes).to_dense()
        want = oracle_majorana(i, n_modes)
        np.testing.assert_allclose(got, want, atol=0)


def test_generator_algebra_at_matrix_level():
    n_modes = 3
    dim = 1 << n_modes
    eye = np.eye(dim)
    mats = [to_matrix(MajoranaPolynomial.generator(i), n_modes).to_dense()
            for i in range(2 * n_modes)]
    for i, mi in enumerate(mats):
        np.testing.assert_allclose(mi, mi.conj().T, atol=0)
        np.testing.assert_allclose(mi @ mi, eye, atol=0)
        for mj in mats[i + 1:]:
            np.testing.assert_allclose(mi @ mj + mj @ mi, 0 * eye, atol=0)


def test_monomial_action_phases():
    # c1 = Y_0: |0> -> i|1>, |1> -> -i|0>
    perm, exp = monomial_action((1,), 1)
    assert perm.tolist() == [1, 0]
    assert exp.tolist() == [1, 3]


def test_polynomial_matrix_matches_oracle():
    rng = np.random.default_rng(17)
    n_modes = 3
    for _ in range(25):
        p = _random_poly(rng, 2 * n_modes)
        got = to_matrix(p, n_modes).to_dense()
        np.testing.assert_allclose(got, oracle_matrix(p, n_modes), atol=1e-13)


def test_coincident_masks_accumulate():
    # c0*c1 and the identity share the zero bit-flip mask
    p = (MajoranaPolynomial.monomial((0, 1), EXACT_I)
         + MajoranaPolynomial.identity())
    got = to_matrix(p, 2).to_dense()
    np.testing.assert_allclose(got, oracle_matrix(p, 2), atol=0)
    # on one mode 1 + i c0 c1 = diag(0, 2): the cancelled entry is not stored
    one = to_matrix(p, 1)
    assert one.nnz == 1
    np.testing.assert_array_equal(one.to_dense(), np.diag([0, 2]))


def test_to_matrix_rejects_out_of_range_generators():
    p = MajoranaPolynomial.generator(6)
    with pytest.raises(ValueError):
        to_matrix(p, 3)  # only generators 0..5 exist


def test_dense_cap_refusal():
    big = diagonal_operator(np.ones(2 * DENSE_DIM_CAP))
    with pytest.raises(ValueError):
        big.to_dense()


def test_hermiticity_defect():
    h = to_matrix(MajoranaPolynomial.monomial((0, 1), EXACT_I), 1)
    assert h.hermiticity_defect() == 0.0
    skew = to_matrix(MajoranaPolynomial.monomial((0, 1), EXACT_ONE), 1)
    assert skew.hermiticity_defect() > 1.0


def _random_poly(rng, n_indices, n_terms=6):
    out = MajoranaPolynomial.zero()
    for _ in range(n_terms):
        deg = int(rng.integers(0, n_indices + 1))
        key = tuple(sorted(rng.choice(n_indices, size=deg, replace=False).tolist()))
        out = out + MajoranaPolynomial.monomial(
            key, complex(rng.normal(), rng.normal()))
    return out
