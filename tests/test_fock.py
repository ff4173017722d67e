"""Fock-space representation against the independent Kronecker oracle."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vortexcert import build_lattice, diamond_lattice
from vortexcert.clifford import (
    EXACT_I,
    EXACT_ONE,
    GaussianRational,
    MajoranaPolynomial,
)
from vortexcert import fock
from vortexcert.fock import (
    PauliSum,
    monomial_action,
    monomial_pauli,
    to_matrix,
)
from vortexcert.model import build_hamiltonian, vortex_operator
from vortexcert.spectral import NonHermitianError, dense_spectrum

from conftest import (
    assert_same_operator,
    column_form_to_matrix,
    diagonal_polynomial,
    nnz,
    oracle_majorana,
    oracle_matrix,
    symmetry_split,
    to_dense,
)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_generators_match_oracle(n_modes):
    for i in range(2 * n_modes):
        got = to_dense(to_matrix(MajoranaPolynomial.generator(i), n_modes))
        want = oracle_majorana(i, n_modes)
        np.testing.assert_allclose(got, want, atol=0)


def test_generator_algebra_at_matrix_level():
    n_modes = 3
    dim = 1 << n_modes
    eye = np.eye(dim)
    mats = [to_dense(to_matrix(MajoranaPolynomial.generator(i), n_modes))
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


def _pauli_strings(n_modes):
    """{(x, z): X^x Z^z} as Kronecker chains, mode 0 in the last factor."""
    factors = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
               (0, 1): np.diag([1, -1])}
    factors[1, 1] = factors[1, 0] @ factors[0, 1]
    out = {}
    for x, z in itertools.product(range(1 << n_modes), repeat=2):
        op = np.eye(1, dtype=complex)
        for k in range(n_modes - 1, -1, -1):
            op = np.kron(op, factors[x >> k & 1, z >> k & 1])
        out[x, z] = op
    return out


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_monomial_pauli_matches_action_and_oracle(n_modes):
    # every ordered key of degree <= 4, repeated generators included;
    # the oracle matrix of each canonical monomial is built once
    dim = 1 << n_modes
    strings = _pauli_strings(n_modes)
    oracle = {}
    phases = np.array([1, 1j, -1, -1j])
    for degree in range(5):
        for key in itertools.product(range(2 * n_modes), repeat=degree):
            [(canonical, coeff)] = MajoranaPolynomial.monomial(key).terms().items()
            if canonical not in oracle:
                oracle[canonical] = oracle_matrix(
                    MajoranaPolynomial.monomial(canonical), n_modes)
            want = complex(coeff) * oracle[canonical]
            x, z, c = monomial_pauli(key, n_modes)
            assert 0 <= c <= 3
            assert np.array_equal(phases[c] * strings[x, z], want), key
            perm, exp = monomial_action(key, n_modes)
            action = np.zeros((dim, dim), dtype=complex)
            action[perm, np.arange(dim)] = phases[exp]
            assert np.array_equal(action, want), key


@pytest.mark.parametrize("key", [(4,), (0, -1), (1, 9, 0)])
def test_monomial_pauli_rejects_a_generator_out_of_range(key):
    with pytest.raises(ValueError, match=r"outside 0\.\.3"):
        monomial_pauli(key, 2)


def test_polynomial_matrix_matches_oracle():
    rng = np.random.default_rng(17)
    n_modes = 3
    for _ in range(25):
        p = _random_poly(rng, 2 * n_modes)
        got = to_dense(to_matrix(p, n_modes))
        np.testing.assert_allclose(got, oracle_matrix(p, n_modes), atol=1e-13)


def test_coincident_masks_accumulate():
    # c0*c1 and the identity share the zero bit-flip mask
    p = (MajoranaPolynomial.monomial((0, 1), EXACT_I)
         + MajoranaPolynomial.identity())
    got = to_dense(to_matrix(p, 2))
    np.testing.assert_allclose(got, oracle_matrix(p, 2), atol=0)
    # on one mode 1 + i c0 c1 = diag(0, 2): the cancelled entry is not stored
    one = to_matrix(p, 1)
    assert nnz(one) == 1
    np.testing.assert_array_equal(to_dense(one), np.diag([0, 2]))


_LATTICES = {"diamond": diamond_lattice(),
             "open-3x4": build_lattice(3, 4, "open"),
             "torus-4x4": build_lattice(4, 4, "periodic")}


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("name", list(_LATTICES))
def test_to_matrix_is_the_column_form_build(name, lam):
    lat = _LATTICES[name]
    h = build_hamiltonian(lat, lam)
    assert_same_operator(to_matrix(h, lat.n_modes),
                         column_form_to_matrix(h, lat.n_modes))


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_vector_product_is_the_slot_sum_bit_for_bit(lam):
    # a vector's product sums each row's slots in stored order from 0, as
    # the (k, dim) product array summed down its slots did: on the diamond
    # operator and on six torus blocks, built complex and in their real
    # gauge, for a real and a complex vector
    rng = np.random.default_rng(23)
    diamond, torus = _LATTICES["diamond"], _LATTICES["torus-4x4"]
    ops = [to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)]
    h = PauliSum(build_hamiltonian(torus, lam), torus.n_modes)
    gens, blocks = symmetry_split(h)
    ops += [h.block(blocks[b, 0], gens, y) for b in (0, 3, 6, 9, 12, 15)
            for y in (None, h.gauge())]
    for op in ops:
        x = rng.standard_normal(op.dim)
        for v in (x, x + 1j * rng.standard_normal(op.dim)):
            got = op.apply(v)
            want = (op.values * v[op.cols]).sum(axis=0, initial=0)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gauged", [False, True])
def test_a_chunked_product_is_the_one_einsum_product_bit_for_bit(gauged):
    # a torus block of 4 ROW_CHUNKs (the parity and one more string) is
    # summed chunk by chunk into one output, each row exactly as the one
    # einsum over all its rows sums it
    torus = _LATTICES["torus-4x4"]
    h = PauliSum(build_hamiltonian(torus, 0.1), torus.n_modes)
    gens, blocks = symmetry_split(h, floor=4 * fock.ROW_CHUNK)
    op = h.block(blocks[1, 0], gens, h.gauge() if gauged else None)
    assert op.dim == 4 * fock.ROW_CHUNK
    rng = np.random.default_rng(30)
    x = rng.standard_normal(op.dim)
    for v in (x, x + 1j * rng.standard_normal(op.dim)):
        got = op.apply(v)
        want = np.einsum("ij,ij->j", op.values, v[op.cols])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_block_refuses_a_mask_that_moves_the_label():
    # under the Z-string of mode 1 (gens (2,)) c2 flips mode 1, mask 2 of
    # label 1: it sends each block onto the other, so neither is closed;
    # the label is read off the mask, not off the block's entries
    flip = PauliSum(MajoranaPolynomial.generator(2), 4)
    for start in (0, 2):
        with pytest.raises(ValueError, match=r"mask 2 sends the block of state "
                                             rf"{start} off itself"):
            flip.block(start, (2,))
    # the first mask of `terms` order that moves names the refusal
    c = MajoranaPolynomial.generator
    both = PauliSum(c(0) * c(1) * 1j + c(4) + c(2), 4)
    assert list(both.terms) == [0, 4, 2]
    with pytest.raises(ValueError, match="mask 4 sends"):
        both.block(0, (6,))
    # the strings of the other modes close it
    op = PauliSum(c(0) * c(1) * 1j + c(6), 4).block(0, (2,))
    assert op.dim == 8


def test_dependent_z_strings_name_no_cosets():
    op = PauliSum(MajoranaPolynomial.generator(0), 3)
    for gens in ((3, 5, 6), (1, 1), (0,)):
        with pytest.raises(ValueError, match="are not independent"):
            op.slots([0], gens)
        with pytest.raises(ValueError, match="are not independent"):
            op.block(0, gens)
    # independent strings, however written, are accepted
    assert op.slots([0], (3, 5))[2].shape == (1, 1, 2)


def test_slots_are_built_only_inside_pauli_sum():
    # every slot value is made by PauliSum.slots; a second builder of
    # slots from Pauli strings (_mask_values, PauliSum._strings) anywhere
    # else in the package would be a parallel copy of the one path
    src = Path(fock.__file__).parent
    callers = set()
    for file in sorted(src.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = (*scope, child.name)
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                    if name in ("_mask_values", "_strings"):
                        callers.add((file.stem, ".".join(scope), name))
                visit(child, inner)

        visit(ast.parse(file.read_text()), ())
    assert callers == {("fock", "PauliSum.slots", "_mask_values"),
                       ("fock", "PauliSum.slots", "_strings")}


@pytest.mark.parametrize("name", list(_LATTICES))
def test_loop_operators_are_the_column_form_build(name):
    lat = _LATTICES[name]
    for o in lat.octagons:
        w = vortex_operator(lat, o).W
        assert_same_operator(to_matrix(w, lat.n_modes),
                             column_form_to_matrix(w, lat.n_modes))


@pytest.mark.parametrize("values", [
    [-1, -1] + [0] * 7 + [1] * 7, [2] * 8, [-4, 1, 2, -3, 3, -2, -1, 4], [5, -7]])
def test_diagonal_polynomial_is_the_diagonal_matrix(values):
    n_modes = len(values).bit_length() - 1
    np.testing.assert_array_equal(
        to_dense(to_matrix(diagonal_polynomial(values), n_modes)),
        np.diag(np.array(values, dtype=complex)))


def test_a_mask_whose_coefficients_round_to_zero_has_no_slot_row():
    # 1 and i c0 c1 share the zero mask; at 10**-400 both coefficients
    # round to 0.0, so that mask's values vanish everywhere
    tiny = Fraction(1, 10**400)
    p = MajoranaPolynomial({(): tiny, (0, 1): GaussianRational(0, tiny), (0,): 1})
    assert len(p) == 3
    op = to_matrix(p, 2)
    assert len(op.cols) == 1
    assert_same_operator(op, column_form_to_matrix(p, 2))
    np.testing.assert_array_equal(PauliSum(p, 2).masks, [1])


def test_block_refuses_rows_a_mask_leaves():
    # c0 flips mode 0, so {0, 2}, the block of state 0 under the Z-string
    # of mode 0, is not closed: state 0 reaches state 1
    with pytest.raises(ValueError, match="mask 1 sends the block of state 0"):
        PauliSum(MajoranaPolynomial.generator(0), 2).block(0, (1,))
    # the modes it does not flip close it
    op = PauliSum(MajoranaPolynomial.generator(2), 2).block(0, (1,))
    np.testing.assert_array_equal(to_dense(op), [[0, 1], [1, 0]])


def test_to_matrix_rejects_out_of_range_generators():
    p = MajoranaPolynomial.generator(6)
    with pytest.raises(ValueError):
        to_matrix(p, 3)  # only generators 0..5 exist


def test_hermiticity_defect():
    # i c0 c1 = -Z is Hermitian; c0 c1 = i Z has the defect |i - conj(i)| = 2
    h = to_matrix(MajoranaPolynomial.monomial((0, 1), EXACT_I), 1)
    np.testing.assert_array_equal(dense_spectrum(h).eigenvalues, [-1, 1])
    skew = to_matrix(MajoranaPolynomial.monomial((0, 1), EXACT_ONE), 1)
    with pytest.raises(NonHermitianError, match="hermiticity defect 2.000e"):
        dense_spectrum(skew)


def _random_poly(rng, n_indices, n_terms=6):
    out = MajoranaPolynomial.zero()
    for _ in range(n_terms):
        deg = int(rng.integers(0, n_indices + 1))
        key = tuple(sorted(rng.choice(n_indices, size=deg, replace=False).tolist()))
        out = out + MajoranaPolynomial.monomial(
            key, complex(rng.normal(), rng.normal()))
    return out
