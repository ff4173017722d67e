"""Matrix representation of Majorana polynomials on the mode Fock space.

Mode k pairs generators 2k and 2k+1.  Basis states are labelled by the
occupation bitstring n, with bit k (least significant = mode 0) the
occupation of mode k; state vectors are plain numpy complex arrays of
length 2**n_modes.  The encoding is the usual string construction

    c_{2k}   = Z_0 ... Z_{k-1} X_k,
    c_{2k+1} = Z_0 ... Z_{k-1} Y_k,

so every monomial is a Pauli string i^c X^x Z^z, kept as the integers
(x, z, c) of `monomial_pauli`: it sends basis state n to n ^ x with
amplitude i^c (-1)^popcount(n & z), a signed permutation with exactly
one entry per row and column, values in {+-1, +-i} times the
coefficient.  Operators are assembled by composing bit-flip/phase maps
column by column, never by generic sparse-sparse products, and kept as
numpy arrays of fixed-width rows, one slot per bit-flip mask
(`SparseOperator`).

Dense arrays are only materialized up to ``DENSE_DIM_CAP``; beyond that
callers get the gather product of `SparseOperator`.
"""

from __future__ import annotations

import numpy as np

from .clifford import MajoranaPolynomial

DENSE_DIM_CAP = 4096

_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def _bit_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (non-negative int64) entry."""
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def monomial_pauli(indices, n_modes: int) -> tuple[int, int, int]:
    """Pauli string i^c X^x Z^z of the ordered product of generators
    `indices`, as the integers (x, z, c) with c in 0..3.

    Generator 2k is X_k Z_{<k} and 2k+1 is i X_k Z_k Z_{<k} (Y = iXZ).
    A factor (x_g, z_g, c_g) acting on the left of (x, z, c) gives
    (x_g ^ x, z_g ^ z, c_g + c + 2 popcount(z_g & x)): its Z string
    passes the X string with sign (-1)^popcount(z_g & x).
    """
    x = z = c = 0
    for i in reversed(list(indices)):  # rightmost factor acts first
        if not 0 <= i < 2 * n_modes:
            raise ValueError(f"generator index {i} outside 0..{2 * n_modes - 1}")
        k, odd = divmod(int(i), 2)
        z_g = (1 << k) - 1 | odd << k
        c += odd + 2 * (z_g & x).bit_count()
        x ^= 1 << k
        z ^= z_g
    return x, z, c & 3


def monomial_action(indices, n_modes: int):
    """Column action of the ordered product of generators `indices`.

    Returns (perm, phase_exp): basis column n maps to row perm[n] with
    amplitude i**phase_exp[n].  Phases are tracked as exact quarter-turn
    exponents mod 4, read off the Pauli string of `monomial_pauli`.
    """
    x, z, c = monomial_pauli(indices, n_modes)
    n = np.arange(1 << n_modes, dtype=np.int64)
    return n ^ x, (c + 2 * _bit_parity(n & z)) & 3


class SparseOperator:
    """Fixed-width-row (ELL) operator on the Fock space of n modes.

    `cols` and `values` are (k, dim) arrays: row i of the matrix holds the
    entries values[j, i] in columns cols[j, i], so
    (O x)[i] = sum_j values[j, i] * x[cols[j, i]].  A slot whose value
    is zero is padding and contributes nothing.
    """

    __slots__ = ("cols", "values")

    def __init__(self, cols: np.ndarray, values: np.ndarray):
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.complex128)
        if (self.cols.ndim != 2 or self.values.shape != self.cols.shape
                or not self.dim or self.dim & (self.dim - 1)):
            raise ValueError(
                f"cols {self.cols.shape} and values {self.values.shape} must "
                f"be one (k, 2**n) shape"
            )

    @property
    def dim(self) -> int:
        return self.cols.shape[1]

    @property
    def n_modes(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """O x for a vector or a (dim, n) block of columns.  Every row's
        sum starts from 0 and adds its entries in stored order."""
        if x.ndim == 1:
            return (self.values * x[self.cols]).sum(axis=0, initial=0)
        x = np.asarray(x, dtype=np.complex128)
        out = np.zeros_like(x)
        term = np.empty_like(x)
        # slot row by slot row: gathering all k at once would hold k blocks
        for cols, values in zip(self.cols, self.values):
            np.take(x, cols, axis=0, out=term, mode="clip")
            term *= values[:, None]
            out += term
        return out

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(
                f"dense form refused: dim {self.dim} exceeds cap {DENSE_DIM_CAP}"
            )
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        np.add.at(out, (np.arange(self.dim), self.cols), self.values)
        return out

    def hermiticity_defect(self) -> float:
        """max |O[i, c] - conj(O[c, i])| over the stored entries.

        An entry (i, c) and its transpose partner (c, i) share the bit
        mask s = i ^ c.  Scattered into a table with one row per distinct
        mask, indexed by matrix row, the partner of (s, i) is (s, i ^ s).
        """
        rows = np.arange(self.dim, dtype=np.int64)
        masks, slot = np.unique(self.cols ^ rows, return_inverse=True)
        table = np.zeros((len(masks), self.dim), dtype=np.complex128)
        np.add.at(table, (slot.reshape(self.cols.shape), rows), self.values)
        partner = table[np.arange(len(masks))[:, None], rows ^ masks[:, None]]
        return float(np.abs(table - partner.conj()).max(initial=0.0))

    def block(self, idx: np.ndarray) -> SparseOperator:
        """The submatrix on rows and columns `idx` (ascending, 2**m of
        them); entries leaving the block become zero padding."""
        pos = np.full(self.dim, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        cols = pos[self.cols[:, idx]]
        inside = cols >= 0
        return SparseOperator(np.where(inside, cols, 0),
                              np.where(inside, self.values[:, idx], 0))


def to_matrix(poly: MajoranaPolynomial, n_modes: int) -> SparseOperator:
    """ELL operator of a polynomial: each row has one slot per bit-flip
    mask of its terms; terms that share a mask are summed, so coincident
    entries accumulate exactly once."""
    dim = 1 << n_modes
    support = poly.support()
    if support and max(support) >= 2 * n_modes:
        raise ValueError(
            f"polynomial touches generator {max(support)}; only {2 * n_modes} exist"
        )
    # every monomial with the same mask s shares its permutation
    # n -> n ^ s, so its values fold into one array
    by_mask: dict[int, np.ndarray] = {}
    for key, coeff in poly.terms().items():
        perm, exp = monomial_action(key, n_modes)
        mask = int(perm[0])  # perm[n] == n ^ mask
        vals = complex(coeff) * _PHASES[exp]
        if mask in by_mask:
            by_mask[mask] += vals
        else:
            by_mask[mask] = vals
    # terms of one mask that cancel everywhere leave no slot row
    masks = [m for m, vals in by_mask.items() if vals.any()]
    rows = np.arange(dim, dtype=np.int64)
    cols = rows[None, :] ^ np.array(masks, dtype=np.int64).reshape(-1, 1)
    # the values are in column form: row i of mask s reads column i ^ s
    values = np.array([by_mask[m] for m in masks],
                      dtype=np.complex128).reshape(-1, dim)
    values = np.take_along_axis(values, cols, axis=1)
    # ascending columns in every row: a product sums each row in column
    # order, whatever order the terms came in
    order = np.argsort(cols, axis=0, kind="stable")
    return SparseOperator(np.take_along_axis(cols, order, axis=0),
                          np.take_along_axis(values, order, axis=0))
