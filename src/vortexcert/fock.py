"""Matrix representation of Majorana polynomials on the mode Fock space.

Mode k pairs generators 2k and 2k+1.  Basis states are labelled by the
occupation bitstring n, with bit k (least significant = mode 0) the
occupation of mode k; state vectors are plain numpy complex arrays of
length 2**n_modes.  The encoding is the usual string construction

    c_{2k}   = Z_0 ... Z_{k-1} X_k,
    c_{2k+1} = Z_0 ... Z_{k-1} Y_k,

so every generator, and hence every monomial, is a signed permutation:
exactly one entry per row and column, values in {+-1, +-i} times the
coefficient.  Matrices are assembled by composing bit-flip/phase maps
column by column, never by generic sparse-sparse products.

Dense arrays are only materialized up to ``DENSE_DIM_CAP``; beyond that
callers get the sparse matvec of `SparseOperator`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .clifford import MajoranaPolynomial

DENSE_DIM_CAP = 4096

_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def _bit_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (non-negative int64) entry."""
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def monomial_action(indices, n_modes: int):
    """Column action of the ordered product of generators `indices`.

    Returns (perm, phase_exp): basis column n maps to row perm[n] with
    amplitude i**phase_exp[n].  Phases are tracked as exact quarter-turn
    exponents mod 4.
    """
    dim = 1 << n_modes
    state = np.arange(dim, dtype=np.int64)
    exp = np.zeros(dim, dtype=np.int64)
    for i in reversed(list(indices)):  # rightmost factor acts first
        if not 0 <= i < 2 * n_modes:
            raise ValueError(f"generator index {i} outside 0..{2 * n_modes - 1}")
        k, odd = divmod(i, 2)
        low = np.int64((1 << k) - 1)
        exp += 2 * _bit_parity(state & low)  # Z string on modes < k
        if odd:
            # Y_k: |0> -> i|1>, |1> -> -i|0>
            exp += 1 + 2 * ((state >> k) & 1)
        state ^= np.int64(1 << k)
    return state, exp & 3


class SparseOperator:
    """Sparse matrix wrapper tied to a fixed mode count."""

    __slots__ = ("matrix", "n_modes")

    def __init__(self, matrix: sp.csr_matrix, n_modes: int):
        self.matrix = matrix.tocsr()
        self.n_modes = n_modes
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {self.dim}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(
                f"dense form refused: dim {self.dim} exceeds cap {DENSE_DIM_CAP}"
            )
        return self.matrix.toarray()

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.getH()
        return float(np.abs(d.data).max()) if d.nnz else 0.0


def to_matrix(poly: MajoranaPolynomial, n_modes: int) -> SparseOperator:
    """Sparse matrix of a polynomial; term permutations are summed so
    coincident entries accumulate exactly once."""
    dim = 1 << n_modes
    support = poly.support()
    if support and max(support) >= 2 * n_modes:
        raise ValueError(
            f"polynomial touches generator {max(support)}; only {2 * n_modes} exist"
        )
    terms = poly.terms()
    if not terms:
        return SparseOperator(sp.csr_matrix((dim, dim), dtype=np.complex128),
                              n_modes)
    cols = np.arange(dim, dtype=np.int64)
    # group terms by their bit-flip mask: every monomial with the same
    # mask shares its permutation, so values fold into one row block and
    # the COO triple stays at (distinct masks) x dim instead of terms x dim
    by_mask: dict[int, np.ndarray] = {}
    perms: dict[int, np.ndarray] = {}
    for key, coeff in terms.items():
        perm, exp = monomial_action(key, n_modes)
        mask = int(perm[0])  # perm[n] == n ^ mask
        vals = complex(coeff) * _PHASES[exp]
        if mask in by_mask:
            by_mask[mask] += vals
        else:
            by_mask[mask] = vals
            perms[mask] = perm
    rows = np.concatenate([perms[m] for m in by_mask])
    vals = np.concatenate(list(by_mask.values()))
    m = sp.coo_matrix(
        (vals, (rows, np.tile(cols, len(by_mask)))), shape=(dim, dim)
    ).tocsr()
    # terms of one mask that cancel leave zeros; no product should carry them
    m.eliminate_zeros()
    return SparseOperator(m, n_modes)

