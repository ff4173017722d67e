"""Shared fixtures and an independent matrix oracle.

The oracle builds generator matrices by explicit Kronecker chains,
sharing no code with the package's column-permutation construction, so
matrix comparisons in the tests are genuinely two-route.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse

from vortexcert import build_lattice, diamond_lattice, reflection_data
from vortexcert.clifford import GaussianRational, MajoranaPolynomial
from vortexcert.fock import (
    _PHASES,
    SparseOperator,
    _bit_parity,
    _echelon_insert,
    monomial_action,
)
from vortexcert.spectral import _split, _symmetry_generators
from vortexcert.verify import _span_rows

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I = np.eye(2, dtype=complex)


def oracle_majorana(i: int, n_modes: int) -> np.ndarray:
    """Dense matrix of generator i from the string construction.

    Mode 0 is the least significant bit of the basis index, so it sits
    in the last Kronecker factor.
    """
    k, odd = divmod(i, 2)
    op = np.eye(1, dtype=complex)
    for m in range(n_modes - 1, -1, -1):
        if m > k:
            f = _I
        elif m == k:
            f = _Y if odd else _X
        else:
            f = _Z
        op = np.kron(op, f)
    return op


def oracle_matrix(poly, n_modes: int) -> np.ndarray:
    """Dense matrix of a polynomial, built term by term from the oracle
    generators."""
    dim = 1 << n_modes
    acc = np.zeros((dim, dim), dtype=complex)
    for key, coeff in poly.terms().items():
        term = np.eye(dim, dtype=complex)
        for i in key:
            term = term @ oracle_majorana(i, n_modes)
        if isinstance(coeff, (int, float, complex)):
            c = complex(coeff)
        elif hasattr(coeff, "to_complex"):
            c = coeff.to_complex()
        else:  # Fraction
            c = complex(float(coeff))
        acc += c * term
    return acc


def to_dense(op: SparseOperator) -> np.ndarray:
    """The dim x dim matrix of an ELL operator, its slots added in place
    (a repeated column accumulates)."""
    out = np.zeros((op.dim, op.dim), dtype=np.complex128)
    np.add.at(out, (np.arange(op.dim), op.cols), op.values)
    return out


def nnz(op: SparseOperator) -> int:
    """The count of non-zero slots of an ELL operator."""
    return int(np.count_nonzero(op.values))


def apply_columns(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """O X for a (dim, n) block of columns, slot row by slot row, so that
    only one block-sized term is held at a time."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros_like(x)
    term = np.empty_like(x)
    for cols, values in zip(op.cols, op.values):
        np.take(x, cols, axis=0, out=term, mode="clip")
        term *= values[:, None]
        out += term
    return out


def column_form_to_matrix(poly, n_modes: int) -> SparseOperator:
    """The ELL operator of a polynomial as `to_matrix` built it before it
    read Pauli strings row by row: each mask's values over the whole space
    in column form, then gathered into rows, one slot per mask in order of
    first appearance.  Kept as the reference the row-chunked build must
    match bit for bit."""
    dim = 1 << n_modes
    by_mask: dict[int, np.ndarray] = {}
    for key, coeff in poly.terms().items():
        perm, exp = monomial_action(key, n_modes)
        mask = int(perm[0])  # perm[n] == n ^ mask
        vals = complex(coeff) * _PHASES[exp]
        if mask in by_mask:
            by_mask[mask] += vals
        else:
            by_mask[mask] = vals
    masks = [m for m, vals in by_mask.items() if vals.any()]
    rows = np.arange(dim, dtype=np.int64)
    cols = rows[None, :] ^ np.array(masks, dtype=np.int64).reshape(-1, 1)
    values = np.array([by_mask[m] for m in masks],
                      dtype=np.complex128).reshape(-1, dim)
    return SparseOperator(cols, np.take_along_axis(values, cols, axis=1))


def row_floors(cols: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lower end of each row's Gershgorin disc, Re H_ii - sum_{j != i} |H_ij|,
    from the (k, len(rows)) slots of `rows` in any order, lowered by
    (k + 2) eps times the row's absolute sum.  The diagonal is the slot
    whose column is the row itself, and zero padding adds nothing.  The
    second floor provider that `PauliSum.floors` must match."""
    diag = cols == rows
    centre = np.where(diag, values.real, 0).sum(axis=0)
    radius = np.where(diag, 0, np.abs(values)).sum(axis=0)
    slack = (len(cols) + 2) * np.finfo(float).eps * (np.abs(centre) + radius)
    return centre - radius - slack


def symmetry_blocks(op, floor=None) -> np.ndarray:
    """The Z-string blocks of `op` that the solvers split by, one row per
    block in label order: `_split` by `_symmetry_generators`."""
    return _split(op.dim, _symmetry_generators(op, floor))


def split_oracle(dim: int, gens) -> np.ndarray:
    """The states 0..dim-1 split by the Z-strings `gens`, from Python
    integers: each state's label (bit i the parity of its bits in
    gens[i]), then a stable argsort, so row b holds the states of label b
    in ascending order.  The reference `_split`, `_labels` and `_places`
    must match."""
    labels = [sum((bin(n & g).count("1") % 2) << i for i, g in enumerate(gens))
              for n in range(dim)]
    return np.argsort(labels, kind="stable").reshape(1 << len(gens), -1)


def operator_block(op: SparseOperator, idx: np.ndarray) -> SparseOperator:
    """The submatrix of `op` on rows and columns `idx` (ascending, 2**m of
    them), restricted slot by slot; entries leaving the block become zero
    padding.  The reference the blocks built from Pauli strings match."""
    pos = np.full(op.dim, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    cols = pos[op.cols[:, idx]]
    inside = cols >= 0
    return SparseOperator(np.where(inside, cols, 0),
                          np.where(inside, op.values[:, idx], 0))


def reference_gauge_string(block: SparseOperator, rows: np.ndarray):
    """The Z-string y of a real phase gauge of one complex block, solved
    from that block's own entries, as Lanczos found it before the gauge was
    solved once per operator: each stored entry is real (f = 0) or
    imaginary (f = 1) by its mask x = row ^ column, and x . y = f(x) is
    solved by echelon elimination of the rows x << 1 | f.  None for a
    complex entry or an inconsistent system."""
    values = block.values
    imaginary = values.real == 0
    if ((values.imag != 0) & ~imaginary).any():
        return None
    keys = ((rows ^ rows[block.cols]) << 1 | imaginary)[values != 0]
    system: dict = {}
    for v in sorted(set(keys.tolist())):
        _echelon_insert(system, v)
    if 0 in system:
        return None
    return sum(1 << (p - 1) for p, r in system.items() if r & 1)


def reference_real_gauge(block: SparseOperator, rows: np.ndarray, y):
    """(D^dagger B D as a float64 SparseOperator, d) for d_n =
    i^parity(n & y), formed from the complex block: entry (n, m) is B_nm
    where e = a_m - a_n = 0 and -e Im B_nm where e = +-1; (B, None) if y
    is None or leaves an imaginary part.  The reference the blocks built
    straight in their gauge must match."""
    if y is None:
        return block, None
    a = _bit_parity(rows & y)
    e = a[block.cols] - a
    turned = e != 0
    values = block.values
    if np.where(turned, values.real, values.imag).any():
        return block, None
    gauged = np.where(turned, -e * values.imag, values.real)
    return SparseOperator(block.cols, gauged), _PHASES[a]


def assert_same_operator(a: SparseOperator, b: SparseOperator) -> None:
    """Equal slots, bit for bit: columns, values and the signs of zeros."""
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.values, b.values)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a.values)), np.signbit(part(b.values)))


def dense_operator(m) -> SparseOperator:
    """The ELL operator of a dense matrix: slot j of row i holds m[i, j]."""
    m = np.asarray(m, dtype=complex)
    cols = np.broadcast_to(np.arange(len(m))[:, None], m.shape)
    return SparseOperator(cols, m.T)


def diagonal_operator(values) -> SparseOperator:
    """The ELL operator of diag(values), one slot per row."""
    values = np.asarray(values, dtype=complex)
    return SparseOperator(np.arange(len(values))[None, :], values[None, :])


def diagonal_polynomial(values) -> MajoranaPolynomial:
    """The polynomial of diag(values) on 2**n states, as Z-strings:
    sum_z a_z Z^z with a_z = 2^-n sum_m (-1)^popcount(m & z) values[m]
    (Walsh-Hadamard), Z^z the product of Z_k = -i c_2k c_2k+1 over the
    bits k of z.  The coefficients are exact rationals, so integer values
    come back exactly."""
    values = [Fraction(v) for v in values]
    dim = len(values)
    terms = {}
    for z in range(dim):
        a = sum(v if (m & z).bit_count() % 2 == 0 else -v
                for m, v in enumerate(values)) / dim
        bits = [k for k in range(dim.bit_length() - 1) if z >> k & 1]
        # (-i)^len(bits) times a, exactly
        phase = [(a, 0), (0, -a), (-a, 0), (0, a)][len(bits) % 4]
        terms[tuple(i for k in bits for i in (2 * k, 2 * k + 1))] = (
            GaussianRational(*phase))
    return MajoranaPolynomial(terms)


@pytest.fixture(scope="session")
def diamond():
    return diamond_lattice()


@pytest.fixture(scope="session")
def diamond_mirror(diamond):
    return reflection_data(diamond, "x", 1)


@pytest.fixture(scope="session")
def torus_4x4():
    return build_lattice(4, 4, "periodic")


def embed(spec, which: np.ndarray) -> np.ndarray:
    """The eigenvectors of the flat indices `which` (b * s + k names column
    k of block b) of a Spectrum as (dim, len(which)) full-space columns,
    zero outside their block."""
    b, k = np.divmod(which, spec.blocks.shape[1])
    out = np.zeros((spec.dim, len(which)), dtype=np.complex128)
    out[spec.blocks[b].T, np.arange(len(which))] = spec.vectors[b, :, k].T
    return out


def embedded_basis(ground) -> np.ndarray:
    """The ground basis of a block-resident GroundSpace as (dim, n)
    full-space columns in its column order, zero off each column's block:
    the array the ground space held as `basis` before it kept the cluster
    block by block."""
    out = np.zeros((ground.dim, ground.n), dtype=np.complex128)
    for rows, vectors, columns in zip(ground.rows, ground.vectors, ground.columns):
        out[rows[:, None], columns] = vectors
    return out


def embedded_loop_product(ground, w: SparseOperator) -> np.ndarray:
    """B^dagger W B through the full space: the operator W applied to the
    embedded basis B, the route the octagon checks took before
    `loop_product` read W as a Pauli string."""
    b = embedded_basis(ground)
    return b.conj().T @ apply_columns(w, b)


def reference_thermal_expectation(o, spec, beta: float, chunk: int = 512) -> complex:
    """<O> in e^{-beta H} / Z as `thermal_expectation` computed it before
    it ran in blocks and read Pauli strings: the full-space operator of
    each polynomial factor (`column_form_to_matrix`, as a scipy CSR
    matrix) and the eigenvectors embedded as full-space columns, `chunk`
    of them at a time, so the 4,096-state lattices stay small.  For
    O = F_1 ... F_k, <v|O|v> = <F_1^dagger v | F_2 ... F_k v>: every
    product starts from the embedded columns, which are sparse, so a
    562-term witness on 4,096 states takes about a second."""
    n_modes = spec.dim.bit_length() - 1
    factors = []
    for f in (o if isinstance(o, (list, tuple)) else (o,)):
        op = column_form_to_matrix(f, n_modes)
        rows = np.broadcast_to(np.arange(op.dim), op.cols.shape)
        factors.append(scipy.sparse.csr_matrix(
            (op.values.ravel(), (rows.ravel(), op.cols.ravel())),
            shape=(op.dim, op.dim)))
    values = spec.values.ravel()
    weights = np.exp(-beta * (values - values.min()))
    b, k = np.divmod(np.arange(spec.dim), spec.blocks.shape[1])
    diag = np.empty(spec.dim, dtype=np.complex128)
    for start in range(0, spec.dim, chunk):
        part = slice(start, start + chunk)
        vecs = scipy.sparse.csc_matrix(
            (spec.vectors[b[part], :, k[part]].ravel(),
             (spec.blocks[b[part]].ravel(),
              np.repeat(np.arange(len(b[part])), spec.blocks.shape[1]))),
            shape=(spec.dim, len(b[part])))
        left = factors[0].conj().T @ vecs
        right = vecs
        for f in reversed(factors[1:]):
            right = f @ right
        diag[part] = np.asarray(left.conj().multiply(right).sum(axis=0)).ravel()
    return complex((weights * diag).sum() / weights.sum())


def random_span_polynomials(indices, parity: str, max_degree: int, count: int,
                            seed: int) -> list[MajoranaPolynomial]:
    """`count` polynomials with seeded random coefficients, uniform on the
    complex unit disk, on every monomial of the RP trial span over
    `indices`: many-term witnesses for the RP routes, which `check_rp`
    itself never draws."""
    keys = [key for _, key in _span_rows(indices, parity, max_degree)]
    draws = np.random.default_rng(seed).uniform(size=(count, len(keys), 2))
    coeffs = np.sqrt(draws[..., 0]) * np.exp(2j * np.pi * draws[..., 1])
    return [MajoranaPolynomial(dict(zip(keys, map(complex, row)))) for row in coeffs]
