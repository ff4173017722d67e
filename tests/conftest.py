"""Shared fixtures and an independent matrix oracle.

The oracle builds generator matrices by explicit Kronecker chains,
sharing no code with the package's column-permutation construction, so
matrix comparisons in the tests are genuinely two-route.
"""

import numpy as np
import pytest

from vortexcert import build_lattice, diamond_lattice, reflection_data
from vortexcert.fock import SparseOperator

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


def dense_operator(m) -> SparseOperator:
    """The ELL operator of a dense matrix: slot j of row i holds m[i, j]."""
    m = np.asarray(m, dtype=complex)
    cols = np.broadcast_to(np.arange(len(m))[:, None], m.shape)
    return SparseOperator(cols, m.T)


def diagonal_operator(values) -> SparseOperator:
    """The ELL operator of diag(values), one slot per row."""
    values = np.asarray(values, dtype=complex)
    return SparseOperator(np.arange(len(values))[None, :], values[None, :])


@pytest.fixture(scope="session")
def diamond():
    return diamond_lattice()


@pytest.fixture(scope="session")
def diamond_mirror(diamond):
    return reflection_data(diamond, "x", 1)


@pytest.fixture(scope="session")
def torus_4x4():
    return build_lattice(4, 4, "periodic")
