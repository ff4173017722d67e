"""Property tests of the Majorana algebra, its exact coefficient
conversion and the Lanczos symmetry blocks, against the Kronecker oracle.

Polynomials, mode counts and mirror maps are drawn by Hypothesis with a
derandomized search, so every run checks the same cases.  Coefficients
are small Gaussian integers drawn as Python complex numbers and stored
exactly, which leaves only the matrix products to round-off.
"""

import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg as scipy_linalg
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
from vortexcert.fock import PauliSum, _echelon_insert, to_matrix
from vortexcert.model import build_hamiltonian

from conftest import (
    apply_columns,
    assert_same_operator,
    column_form_to_matrix,
    embedded_basis,
    oracle_matrix,
    to_dense,
    reference_gauge_string,
    reference_real_gauge,
    row_floors,
    split_oracle,
    symmetry_blocks,
)

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
    assert np.allclose(to_dense(to_matrix(p, n_modes)), mp, atol=1e-12)
    product = to_dense(to_matrix(multiply(p, q), n_modes))
    assert np.allclose(product, mp @ mq, atol=1e-9)
    total = to_dense(to_matrix(c * p + q, n_modes))
    assert np.allclose(total, c * mp + mq, atol=1e-9)


@PROPERTY_SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), polynomials(n))))
def test_to_matrix_is_the_column_form_build(case):
    n_modes, p = case
    assert_same_operator(to_matrix(p, n_modes), column_form_to_matrix(p, n_modes))


@st.composite
def polynomials_on_z_blocks(draw):
    """A polynomial with several Pauli strings on a bit mask (each drawn
    key, which may repeat an index or come unsorted, can come with its
    product by a mode's pair c_2k c_2k+1, which flips no bit but changes
    the Z string), independent Z-strings whose
    blocks (`split_oracle`) lay out the states, the blocks kept, and a
    seed, width and kind (real or complex) of columns on them."""
    n_modes = draw(st.integers(1, 5))
    index = st.integers(0, 2 * n_modes - 1)
    pair = st.one_of(st.none(), st.integers(0, n_modes - 1))
    coeff = st.one_of(_coefficients.filter(bool),
                      st.sampled_from([0.3, -1.7j, 0.6 - 0.8j]))
    terms = {}
    for key, k in draw(st.lists(st.tuples(st.lists(index, max_size=4).map(tuple),
                                          pair), min_size=1, max_size=4)):
        terms[key] = draw(coeff)
        if k is not None:
            terms[key + (2 * k, 2 * k + 1)] = draw(coeff)
    span: dict = {}
    gens = [g for g in draw(st.lists(st.integers(1, (1 << n_modes) - 1),
                                     max_size=n_modes))
            if _echelon_insert(span, g)]
    kept = draw(st.sets(st.integers(0, (1 << len(gens)) - 1), min_size=1))
    return (n_modes, MajoranaPolynomial(terms), gens, sorted(kept),
            draw(st.integers(1, 3)), draw(st.booleans()), draw(st.integers(0, 99)))


@st.composite
def z_splits(draw):
    """1-8 modes, independent Z-strings on them, and a bit mask."""
    n_modes = draw(st.integers(1, 8))
    span: dict = {}
    gens = [g for g in draw(st.lists(st.integers(1, (1 << n_modes) - 1),
                                     max_size=n_modes))
            if _echelon_insert(span, g)]
    return n_modes, gens, draw(st.integers(0, (1 << n_modes) - 1))


@PROPERTY_SETTINGS
@given(z_splits())
def test_z_string_blocks_are_cosets_placed_by_bit_arithmetic(case):
    # the split is the stable-argsort oracle's; row b holds the states of
    # label b at places 0..s-1, and the label and place of n ^ m are those
    # of n XOR those of m
    n_modes, gens, m = case
    dim = 1 << n_modes
    rows = spectral._split(dim, gens)
    np.testing.assert_array_equal(rows, split_oracle(dim, gens))
    count, size = rows.shape
    np.testing.assert_array_equal(spectral._labels(rows, gens),
                                  np.repeat(np.arange(count)[:, None], size, axis=1))
    np.testing.assert_array_equal(spectral._places(rows, gens, n_modes),
                                  np.broadcast_to(np.arange(size), rows.shape))
    states = np.arange(dim)
    for coordinate in (lambda n: spectral._labels(n, gens),
                       lambda n: spectral._places(n, gens, n_modes)):
        np.testing.assert_array_equal(coordinate(states ^ m),
                                      coordinate(states) ^ coordinate(m))


@PROPERTY_SETTINGS
@given(polynomials_on_z_blocks())
def test_the_pauli_string_gather_is_the_operator_product(case):
    # W V carried through W's slots on the kept Z-string blocks
    # (`_mask_slots`), summed in the operator's mask order, against W's
    # operator applied to V on the whole space: equal entry for entry, so
    # bit for bit wherever the entry is non-zero (IEEE equality lets a zero
    # differ only in its sign; a mask that sends a block off the kept ones
    # adds only zeros, as V vanishes there)
    n_modes, w, gens, kept, width, real, seed = case
    dim = 1 << n_modes
    ground = spectral.GroundSpace(e0=0.0, dim=dim,
                                  rows=split_oracle(dim, gens)[kept],
                                  gens=tuple(gens), vectors=(), columns=(),
                                  gap_tol=1e-8)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, width))
    if not real:
        v = v + 1j * rng.standard_normal(v.shape)
    held = np.zeros(dim, dtype=bool)
    held[ground.rows] = True
    v[~held] = 0
    want = apply_columns(to_matrix(w, n_modes), v)
    moves, src, weight = spectral._mask_slots(w, ground.rows, ground.gens)
    masks = sorted(PauliSum(w, n_modes).terms)
    assert len(moves) == len(masks)
    for c, rows in enumerate(ground.rows):
        got = np.zeros((len(rows), width), dtype=np.complex128)
        for m in PauliSum(w, n_modes).terms:  # the operator's slot order
            j = masks.index(m)
            onto = kept[c] ^ int(moves[j])  # the label of rows ^ m
            if onto not in kept:
                assert not held[rows ^ m].any()
                continue
            image = ground.rows[kept.index(onto)][src[j]]
            assert np.array_equal(image, rows ^ m)
            got += v[image] * weight[j, c, :, None]
        assert np.array_equal(got, want[rows])


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
    assert np.allclose(to_dense(to_matrix(left, n_modes)), oracle, atol=1e-9)


@PROPERTY_SETTINGS
@given(cases())
def test_adjoint_is_the_anti_multiplicative_involution(case):
    n_modes, p, q, _, c = case
    assert adjoint(adjoint(p)) == p
    assert adjoint(multiply(p, q)) == multiply(adjoint(q), adjoint(p))
    assert adjoint(c * p + q) == c.conjugate() * adjoint(p) + adjoint(q)
    mp = oracle_matrix(p, n_modes)
    assert np.allclose(to_dense(to_matrix(adjoint(p), n_modes)),
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
        blocks = symmetry_blocks(to_matrix(p, n_modes))
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
    # the product takes one vector: a block of columns goes column by column
    columns = np.column_stack([op.apply(c) for c in x.T])
    assert np.allclose(columns, m @ x, atol=1e-9)
    assert np.allclose(op.apply(x[:, 0]), m @ x[:, 0], atol=1e-9)
    assert np.allclose(np.column_stack([op.apply(c) for c in x.real.T]),
                       m @ x.real, atol=1e-9)
    assert np.allclose(columns, to_dense(op) @ x, atol=1e-9)


@PROPERTY_SETTINGS
@given(even_cases())
def test_block_is_the_oracle_submatrix(case):
    n_modes, p = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        op = PauliSum(p, n_modes)
        blocks = symmetry_blocks(op)
    m = oracle_matrix(p, n_modes)
    for idx in blocks:
        assert np.allclose(to_dense(op.block(idx)), m[np.ix_(idx, idx)],
                           atol=1e-12)


@PROPERTY_SETTINGS
@given(cases())
def test_hermiticity_defect_is_the_oracle_defect(case):
    # dense_spectrum refuses an operator exactly when the oracle defect
    # max |M - M^H| exceeds HERMITICITY_TOL, and names that defect; the
    # Gaussian-integer coefficients make both defects exact
    n_modes, p, _, _, _ = case

    def refused(q):
        m = oracle_matrix(q, n_modes)
        want = np.abs(m - m.conj().T).max()
        if want <= spectral.HERMITICITY_TOL:
            spectral.dense_spectrum(to_matrix(q, n_modes))
            return want, False
        with pytest.raises(spectral.NonHermitianError,
                           match=re.escape(f"hermiticity defect {want:.3e}")):
            spectral.dense_spectrum(to_matrix(q, n_modes))
        return want, True

    refused(p)
    assert refused(p + adjoint(p)) == (0.0, False)
    skew = p - adjoint(p)
    assert refused(skew)[1] == (not skew.is_zero)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_block_is_the_submatrix_on_the_diamond(monkeypatch, diamond, lam):
    monkeypatch.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 16)
    h = build_hamiltonian(diamond, lam)
    op = PauliSum(h, diamond.n_modes)
    assert op.hermiticity_defect() == 0.0
    blocks = symmetry_blocks(op)
    assert blocks.shape == (16, 16)
    m = oracle_matrix(h, diamond.n_modes)
    for idx in blocks:
        assert np.allclose(to_dense(op.block(idx)), m[np.ix_(idx, idx)],
                           atol=1e-12)


def _slot_floors(op):
    """The reference floors of every row of a SparseOperator's slots."""
    return row_floors(op.cols, op.values, np.arange(op.dim))


def _floors_bound_the_blocks(floors, h, n_modes):
    """Whether every symmetry block's least row floor is at or below the
    smallest eigenvalue of the block's oracle submatrix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        op = to_matrix(h, n_modes)
        blocks = symmetry_blocks(op)
    m = oracle_matrix(h, n_modes)
    lowest = [np.linalg.eigvalsh(m[np.ix_(idx, idx)])[0] for idx in blocks]
    return bool((floors(op)[blocks].min(axis=1) <= lowest).all())


@PROPERTY_SETTINGS
@given(even_cases(max_modes=5))
def test_gershgorin_floors_bound_every_block(case):
    n_modes, p = case
    h = p + adjoint(p)
    assert _floors_bound_the_blocks(_slot_floors, h, n_modes)
    assert _floors_bound_the_blocks(
        lambda op: PauliSum(h, n_modes).floors(), h, n_modes)


@PROPERTY_SETTINGS
@given(even_cases(max_modes=5), st.booleans())
def test_lanczos_matches_the_dense_route_with_or_without_a_real_gauge(
        case, ungaugeable):
    # i c0 c2 + i c1 c2 puts entries -1 +- i on one mask, so no block of
    # H has a real gauge; Gaussian-integer coefficients give both kinds
    n_modes, p = case
    h = p + adjoint(p)
    if ungaugeable and n_modes >= 2:
        c = MajoranaPolynomial.generator
        h = h + c(0) * c(2) * 1j + c(1) * c(2) * 1j
    try:
        ref = spectral.ground_space(spectral.dense_spectrum(to_matrix(h, n_modes)))
    except spectral.IllSeparatedError:
        return
    lz = spectral.lanczos_ground(PauliSum(h, n_modes), seed=0)
    if ungaugeable and n_modes >= 2:
        assert lz.real_blocks == 0
    assert lz.n == ref.n and abs(lz.e0 - ref.e0) <= 1e-10 * max(1.0, abs(ref.e0))
    angles = scipy_linalg.subspace_angles(embedded_basis(lz), embedded_basis(ref))
    assert angles.max() <= 1e-8


@PROPERTY_SETTINGS
@given(even_cases(max_modes=5))
def test_blocks_built_in_the_operator_gauge_are_the_reference(case):
    # where the strings give an operator gauge, every block built in it is
    # exactly real and is the complex block gauged after the fact
    n_modes, p = case
    h = p + adjoint(p)
    strings = PauliSum(h, n_modes)
    y = strings.gauge()
    if y is None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SYMMETRY_BLOCK_FLOOR", 1)
        blocks = symmetry_blocks(strings)
    for rows in blocks:
        ref, d = reference_real_gauge(strings.block(rows), rows, y)
        assert d is not None
        built = strings.block(rows, y)
        assert built.values.dtype == np.float64
        assert np.array_equal(built.cols, ref.cols)
        assert np.array_equal(built.values, ref.values)
        # the gauge on the operator solves the system of every block
        plain = strings.block(rows)
        if plain.values.any():
            assert reference_gauge_string(plain, rows) is not None


@PROPERTY_SETTINGS
@given(even_cases(max_modes=5).filter(lambda case: case[0] >= 2))
def test_a_mask_mixing_real_and_imaginary_strings_has_no_gauge(case):
    # 7i c0 c2 = 7i X0 Z0 X1 and 7i c1 c2 = -7 X0 X1 share the mask 0b11,
    # one imaginary and one real; no coefficient of p + p^dagger (at most
    # 6 in size) cancels either, so every solve stays complex
    n_modes, p = case
    c = MajoranaPolynomial.generator
    h = p + adjoint(p) + c(0) * c(2) * 7j + c(1) * c(2) * 7j
    strings = PauliSum(h, n_modes)
    assert strings.gauge() is None
    assert reference_gauge_string(to_matrix(h, n_modes),
                                  np.arange(1 << n_modes)) is None
    try:
        ref = spectral.ground_space(spectral.dense_spectrum(to_matrix(h, n_modes)))
    except spectral.IllSeparatedError:
        return
    lz = spectral.lanczos_ground(strings, seed=0)
    assert lz.real_blocks == 0
    assert lz.n == ref.n and abs(lz.e0 - ref.e0) <= 1e-10 * max(1.0, abs(ref.e0))


_DIAMOND_LAMBDAS = [0.0, 0.1, 0.5]


@pytest.mark.parametrize("lam", _DIAMOND_LAMBDAS)
def test_gershgorin_floors_bound_the_diamond_blocks(diamond, lam):
    h, n_modes = build_hamiltonian(diamond, lam), diamond.n_modes
    assert _floors_bound_the_blocks(_slot_floors, h, n_modes)
    assert _floors_bound_the_blocks(
        lambda op: PauliSum(h, n_modes).floors(), h, n_modes)


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
