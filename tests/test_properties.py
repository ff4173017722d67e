"""Property tests of the Majorana algebra, its exact coefficient
conversion and the Lanczos symmetry blocks, against the Kronecker oracle.

Polynomials, mode counts and mirror maps are drawn by Hypothesis with a
derandomized search, so every run checks the same cases.  Coefficients
are small Gaussian integers drawn as Python complex numbers and stored
exactly, which leaves only the matrix products to round-off.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexcert import spectral
from vortexcert.clifford import (
    GaussianRational,
    MajoranaPolynomial,
    ReflectionMap,
    adjoint,
    multiply,
    reflect,
)
from vortexcert.fock import to_matrix
from vortexcert.model import build_hamiltonian

from conftest import oracle_matrix

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)

_coefficients = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def polynomials(draw, n_modes):
    """Up to five terms; keys may repeat an index or come unsorted, so
    canonicalization is exercised too."""
    index = st.integers(0, 2 * n_modes - 1)
    terms = draw(st.dictionaries(
        st.lists(index, max_size=4).map(tuple), _coefficients, max_size=5))
    return MajoranaPolynomial(terms)


@st.composite
def mirrors(draw, n_modes):
    """An involution of the generator indices: disjoint swaps, the rest fixed."""
    order = draw(st.permutations(range(2 * n_modes)))
    swaps = draw(st.integers(0, n_modes))
    mapping = {i: i for i in order}
    for a, b in zip(order[0:2 * swaps:2], order[1:2 * swaps:2]):
        mapping[a], mapping[b] = b, a
    return ReflectionMap(mapping)


@st.composite
def cases(draw):
    n_modes = draw(st.integers(1, 3))
    return (n_modes, draw(polynomials(n_modes)), draw(polynomials(n_modes)),
            draw(mirrors(n_modes)), draw(_coefficients))


@PROPERTY_SETTINGS
@given(cases())
def test_to_matrix_is_a_homomorphism(case):
    n_modes, p, q, _, c = case
    mp, mq = oracle_matrix(p, n_modes), oracle_matrix(q, n_modes)
    assert np.allclose(to_matrix(p, n_modes).to_dense(), mp, atol=1e-12)
    product = to_matrix(multiply(p, q), n_modes).to_dense()
    assert np.allclose(product, mp @ mq, atol=1e-9)
    total = to_matrix(c * p + q, n_modes).to_dense()
    assert np.allclose(total, c * mp + mq, atol=1e-9)


@PROPERTY_SETTINGS
@given(cases())
def test_reflection_is_an_antilinear_involution(case):
    n_modes, p, q, theta, c = case
    assert reflect(reflect(p, theta), theta) == p
    linear = c.conjugate() * reflect(p, theta) + reflect(q, theta)
    assert reflect(c * p + q, theta) == linear
    # an algebra automorphism: the order of the factors is kept
    both = reflect(multiply(p, q), theta)
    assert both == multiply(reflect(p, theta), reflect(q, theta))
    assert np.allclose(oracle_matrix(both, n_modes),
                       oracle_matrix(reflect(p, theta), n_modes)
                       @ oracle_matrix(reflect(q, theta), n_modes), atol=1e-9)


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_multiply_is_associative(case, data):
    n_modes, p, q, _, _ = case
    r = data.draw(polynomials(n_modes))
    left = multiply(multiply(p, q), r)
    assert left == multiply(p, multiply(q, r))
    oracle = (oracle_matrix(p, n_modes) @ oracle_matrix(q, n_modes)
              @ oracle_matrix(r, n_modes))
    assert np.allclose(to_matrix(left, n_modes).to_dense(), oracle, atol=1e-9)


@PROPERTY_SETTINGS
@given(cases())
def test_adjoint_is_the_anti_multiplicative_involution(case):
    n_modes, p, q, _, c = case
    assert adjoint(adjoint(p)) == p
    assert adjoint(multiply(p, q)) == multiply(adjoint(q), adjoint(p))
    assert adjoint(c * p + q) == c.conjugate() * adjoint(p) + adjoint(q)
    mp = oracle_matrix(p, n_modes)
    assert np.allclose(to_matrix(adjoint(p), n_modes).to_dense(),
                       mp.conj().T, atol=1e-12)


@st.composite
def even_cases(draw, max_modes=6):
    """An even polynomial on up to `max_modes` modes: every key has even
    length."""
    n_modes = draw(st.integers(1, max_modes))
    index = st.integers(0, 2 * n_modes - 1)
    key = st.integers(0, 2).flatmap(
        lambda half: st.lists(index, min_size=2 * half, max_size=2 * half))
    terms = draw(st.dictionaries(key.map(tuple), _coefficients, max_size=6))
    return n_modes, MajoranaPolynomial(terms)


@PROPERTY_SETTINGS
@given(even_cases())
def test_symmetry_blocks_split_fully_and_are_invariant(case):
    n_modes, p = case
    dim = 1 << n_modes
    # without the floor every commuting Z-string splits the blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        blocks = spectral._symmetry_blocks(to_matrix(p, n_modes))
    np.testing.assert_array_equal(np.sort(blocks.ravel()), np.arange(dim))
    label = np.empty(dim, dtype=np.int64)
    label[blocks] = np.arange(len(blocks))[:, None]
    # the oracle matrix joins no two blocks
    m = oracle_matrix(p, n_modes)
    assert not m[label[:, None] != label[None, :]].any()
    # every Z-string (-1)^popcount(n & g) that commutes with it, the
    # parity among them, is constant on each block
    for g in range(dim):
        z = np.array([(-1) ** bin(n & g).count("1") for n in range(dim)])
        if np.array_equal(z[:, None] * m, m * z[None, :]):
            assert (z[blocks] == z[blocks[:, :1]]).all(), g


@PROPERTY_SETTINGS
@given(cases(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_apply_is_the_oracle_product(case, n, seed):
    n_modes, p, _, _, _ = case
    op, m = to_matrix(p, n_modes), oracle_matrix(p, n_modes)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((op.dim, n)) + 1j * rng.standard_normal((op.dim, n))
    assert np.allclose(op.apply(x), m @ x, atol=1e-9)
    assert np.allclose(op.apply(x[:, 0]), m @ x[:, 0], atol=1e-9)
    assert np.allclose(op.apply(x.real), m @ x.real, atol=1e-9)
    assert np.allclose(op.apply(x), op.to_dense() @ x, atol=1e-9)


@PROPERTY_SETTINGS
@given(even_cases())
def test_block_is_the_oracle_submatrix(case):
    n_modes, p = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        op = to_matrix(p, n_modes)
        blocks = spectral._symmetry_blocks(op)
    m = oracle_matrix(p, n_modes)
    for idx in blocks:
        assert np.allclose(op.block(idx).to_dense(), m[np.ix_(idx, idx)],
                           atol=1e-12)


@PROPERTY_SETTINGS
@given(cases())
def test_hermiticity_defect_is_the_oracle_defect(case):
    n_modes, p, _, _, _ = case
    m = oracle_matrix(p, n_modes)
    want = np.abs(m - m.conj().T).max()
    assert abs(to_matrix(p, n_modes).hermiticity_defect() - want) <= 1e-12
    hermitian = p + adjoint(p)
    assert to_matrix(hermitian, n_modes).hermiticity_defect() == 0.0
    skew = p - adjoint(p)
    assert (to_matrix(skew, n_modes).hermiticity_defect() > 0) == (not skew.is_zero)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_block_is_the_submatrix_on_the_diamond(monkeypatch, diamond, lam):
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 16)
    h = build_hamiltonian(diamond, lam)
    op = to_matrix(h, diamond.n_modes)
    assert op.hermiticity_defect() == 0.0
    blocks = spectral._symmetry_blocks(op)
    assert blocks.shape == (16, 16)
    m = oracle_matrix(h, diamond.n_modes)
    for idx in blocks:
        assert np.allclose(op.block(idx).to_dense(), m[np.ix_(idx, idx)],
                           atol=1e-12)


def _floors_bound_the_blocks(row_floors, h, n_modes):
    """Whether every symmetry block's least row floor is at or below the
    smallest eigenvalue of the block's oracle submatrix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        op = to_matrix(h, n_modes)
        blocks = spectral._symmetry_blocks(op)
    m = oracle_matrix(h, n_modes)
    lowest = [np.linalg.eigvalsh(m[np.ix_(idx, idx)])[0] for idx in blocks]
    return bool((row_floors(op)[blocks].min(axis=1) <= lowest).all())


@PROPERTY_SETTINGS
@given(even_cases(max_modes=5))
def test_gershgorin_floors_bound_every_block(case):
    n_modes, p = case
    assert _floors_bound_the_blocks(spectral._row_floors, p + adjoint(p),
                                    n_modes)


_DIAMOND_LAMBDAS = [0.0, 0.1, 0.5]


@pytest.mark.parametrize("lam", _DIAMOND_LAMBDAS)
def test_gershgorin_floors_bound_the_diamond_blocks(diamond, lam):
    assert _floors_bound_the_blocks(spectral._row_floors,
                                    build_hamiltonian(diamond, lam),
                                    diamond.n_modes)


def test_a_floor_without_the_off_diagonal_sum_fails(diamond):
    # the diagonal alone is no bound once the islands couple: the check
    # above must be able to tell
    def centres(op):
        diag = op.cols == np.arange(op.dim)
        return np.where(diag, op.values.real, 0).sum(axis=0)

    held = [_floors_bound_the_blocks(centres, build_hamiltonian(diamond, lam),
                                     diamond.n_modes)
            for lam in _DIAMOND_LAMBDAS]
    assert not all(held)


_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # the edges of the double range: signed zeros, the smallest subnormal,
    # the smallest normal and the largest finite value
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     sys.float_info.max, -sys.float_info.max]))
_finite_scalars = st.one_of(
    _doubles,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    _doubles.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.builds(complex, _doubles, _doubles).map(np.complex128))
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_non_finite_scalars = st.one_of(
    _non_finite, _non_finite.map(np.float64), _non_finite.map(np.float32),
    st.builds(complex, _doubles, _non_finite),
    st.builds(complex, _non_finite, _doubles).map(np.complex128))


def _coefficient_routes(z):
    """c0 c1 with coefficient z through each input a polynomial takes."""
    c01 = MajoranaPolynomial.generator(0) * MajoranaPolynomial.generator(1)
    return (lambda: MajoranaPolynomial({(0, 1): z}),
            lambda: MajoranaPolynomial.monomial((0, 1), z),
            lambda: MajoranaPolynomial.identity(z) * c01,
            lambda: c01 * z)


@PROPERTY_SETTINGS
@given(_finite_scalars)
def test_coefficient_conversion_is_exact(z):
    for route in _coefficient_routes(z):
        c = route().coefficient((0, 1))
        if c is None:  # only an exact zero is pruned
            assert z == 0
            continue
        assert isinstance(c, GaussianRational)
        assert complex(c) == complex(z)


@PROPERTY_SETTINGS
@given(_non_finite_scalars)
def test_non_finite_coefficients_raise(z):
    for route in _coefficient_routes(z):
        with pytest.raises(ValueError):
            route()


def test_hamiltonian_coefficients_are_exact(diamond):
    terms = build_hamiltonian(diamond, 0.1).terms()
    assert terms and all(isinstance(c, GaussianRational) for c in terms.values())
