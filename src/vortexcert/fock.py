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
coefficient.  A `PauliSum` groups a polynomial's strings by bit-flip
mask and builds operators from them on any coset of states that every
mask maps to itself (the whole space in `to_matrix`, or a symmetry
block), row chunk by row chunk, with no array of the whole space and
never by generic sparse-sparse products, as numpy arrays of fixed-width
rows, one slot per mask (`SparseOperator`).
Where no operator is needed its strings are read straight, mask by mask
(`_mask_values`): the thermal functionals of `spectral` carry eigenvector
blocks through a polynomial that way.

A phase gauge d_n = i^parity(n & y), for a Z-string y, turns an entry
at (n, n ^ x) into conj(d_n) O_nm d_m, itself times i^(+-1) when
popcount(x & y) is odd and itself otherwise.  So when the entries of
every mask x are all real (f(x) = 0) or all imaginary (f(x) = 1), the
y with x . y = f(x) over GF(2) for every mask makes the operator real
(`PauliSum.gauge`), and its blocks can be built and solved in float64.

A `SparseOperator` keeps what the solvers read: its bit masks, for the
symmetry split, and its vector product.  ``DENSE_DIM_CAP`` bounds the
dimension of the dense route (`spectral.dense_spectrum`).
"""

from __future__ import annotations

import numpy as np

from .clifford import MajoranaPolynomial

DENSE_DIM_CAP = 4096
# rows a PauliSum builds at once: its slot arrays are (masks, ROW_CHUNK)
ROW_CHUNK = 4096

_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def _bit_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (non-negative int64) entry, as int64
    (in uint8, 1 - 2 * parity would wrap to 255)."""
    return (np.bitwise_count(x) & 1).astype(np.int64)


def _reduce(rows: dict, v: int) -> int:
    """v reduced by `rows`, a reduced echelon basis over GF(2) (pivot bit
    -> row, each row clear at every other pivot): 0 exactly if v lies in
    their span."""
    for p, r in rows.items():
        if v >> p & 1:
            v ^= r
    return v


def _echelon_insert(rows: dict, v: int) -> bool:
    """Add v to the reduced echelon basis `rows`; False if v is in its
    span."""
    v = _reduce(rows, v)
    if not v:
        return False
    p = v.bit_length() - 1
    for q in list(rows):
        if rows[q] >> p & 1:
            rows[q] ^= v
    rows[p] = v
    return True


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
    is zero is padding and contributes nothing.  float64 values stay
    real, so a real vector's product is a real gather; any other values
    are stored as complex128.  Built by `PauliSum.block` (`to_matrix`).
    """

    __slots__ = ("cols", "values")

    def __init__(self, cols: np.ndarray, values: np.ndarray):
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        values = np.asarray(values)
        self.values = np.ascontiguousarray(
            values, dtype=np.float64 if values.dtype == np.float64 else np.complex128)
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
    def masks(self) -> np.ndarray:
        """The distinct bit masks row ^ column of the non-zero entries,
        ascending; zero slots are padding and are not read."""
        stored = (self.cols ^ np.arange(self.dim, dtype=np.int64))[self.values != 0]
        return np.flatnonzero(np.bincount(stored, minlength=self.dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """O x for a vector x, ROW_CHUNK rows at a time into one output.
        Every row's sum starts from 0 and adds its entries in stored order,
        as einsum forms them, so the one temporary is a chunk's (k,
        ROW_CHUNK) gather of x."""
        out = np.empty(self.dim, dtype=np.result_type(self.values, x))
        for start in range(0, self.dim, ROW_CHUNK):
            part = slice(start, start + ROW_CHUNK)
            np.einsum("ij,ij->j", self.values[:, part], x[self.cols[:, part]],
                      out=out[part])
        return out


def _mask_values(col: np.ndarray, strings, real: bool) -> np.ndarray:
    """One mask's slot values in the columns `col`: its strings
    (`PauliSum._strings`) summed in term order, the first assigning;
    float64 for gauged strings (`real`), else complex."""
    out = None
    for string in strings:
        if real:
            z, r = string
            entry = np.where(np.bitwise_count(col & z) & 1, -r, r)
        else:
            z, c, a = string
            entry = a * _PHASES[(c + 2 * _bit_parity(col & z)) & 3]
        if out is None:
            out = entry
        else:
            out += entry
    return out


class PauliSum:
    """A polynomial's Pauli strings grouped by bit-flip mask: `terms` maps
    each mask x to the (z, c, coefficient) of its strings i^c X^x Z^z
    (`monomial_pauli`), in term order.  Row i of an operator built from
    them has one slot per mask, in column i ^ x.  The strings of a mask
    have distinct Z characters, which cannot cancel everywhere, so a mask
    has a slot unless all its coefficients round to zero.  A block is
    built complex, or straight in float64 in a phase gauge (`gauge`) that
    makes it real.
    """

    __slots__ = ("poly", "n_modes", "dim", "terms")

    def __init__(self, poly: MajoranaPolynomial, n_modes: int):
        terms: dict[int, list] = {}
        for key, coeff in poly.terms().items():
            x, z, c = monomial_pauli(key, n_modes)
            terms.setdefault(x, []).append((z, c, complex(coeff)))
        self.poly, self.n_modes, self.dim = poly, n_modes, 1 << n_modes
        self.terms = {x: t for x, t in terms.items() if any(a for _, _, a in t)}

    @property
    def masks(self) -> np.ndarray:
        return np.array(sorted(self.terms), dtype=np.int64)

    def hermiticity_defect(self) -> float:
        """The largest coefficient of p - p^dagger: 0 exactly if Hermitian."""
        return (self.poly - self.poly.adjoint()).max_abs_coeff()

    def gauge(self) -> int | None:
        """The Z-string y of a phase gauge that makes every block real, or
        None.  String i^c a X^x Z^z has the entries
        (-1)^popcount(m & z) i^c a, real or imaginary with i^c a, and so is
        a mask whose non-zero strings are all of one kind; a complex
        i^c a, or a mask that mixes the kinds, leaves no gauge.  y solves
        x . y = f over GF(2) for every key x << 1 | f (f = 1 imaginary),
        free bits 0; the system is inconsistent when a row reduces to the
        lone right-hand bit, pivot 0."""
        keys = set()
        for x, strings in self.terms.items():
            for _, c, a in strings:
                v = complex(a * _PHASES[c])
                if v.real and v.imag:
                    return None
                if v:
                    keys.add(x << 1 | (v.real == 0))
        system: dict = {}
        for v in sorted(keys):
            _echelon_insert(system, v)
        if 0 in system:
            return None
        return sum(1 << (p - 1) for p, r in system.items() if r & 1)

    def _strings(self, y: int | None) -> list:
        """Each mask's strings, in `terms` order, as what they add to its
        slot in column m: (z, c, a) for a i^c (-1)^popcount(m & z), or,
        in the gauge y, (z', r) for r (-1)^popcount(m & z') in
        D^dagger H D, whose entry (n, m) is i^e H_nm for e = a_m - a_n,
        a_n = parity(n & y).  On a mask even under y, e = 0, so
        r = Re i^c a and z' = z; on an odd one i Im becomes -e Im with
        -e = (-1)^popcount(m & y), so r = Im i^c a and z' = z ^ y.  A
        part that y would drop being non-zero raises ValueError."""
        if y is None:
            return list(self.terms.values())
        out = []
        for x, strings in self.terms.items():
            odd = (x & y).bit_count() & 1
            gauged = []
            for z, c, a in strings:
                v = complex(a * _PHASES[c])
                if v.real if odd else v.imag:
                    raise ValueError(f"the gauge {y} leaves mask {x} complex")
                gauged.append((z ^ y, v.imag) if odd else (z, v.real))
            out.append(gauged)
        return out

    def floors(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The Gershgorin floor Re H_nn - sum_{m != n} |H_nm| of each of the
        states `rows`, in their order (default every state), ROW_CHUNK rows
        at a time, summed mask by mask in `terms` order.  Every eigenvalue
        of a Hermitian block lies in the union of its rows' discs, so the
        least floor over an invariant block's rows bounds its spectrum
        from below.  Each floor is lowered by (masks + 2) eps times its
        row's absolute sum, which covers the round-off of the sums.  Where
        a gauge exists the slots are computed real; the gauge changes no
        |H_nm| and no diagonal."""
        rows = (np.arange(self.dim, dtype=np.int64) if rows is None
                else np.asarray(rows, dtype=np.int64))
        y = self.gauge()
        strings = self._strings(y)
        slack = (len(self.terms) + 2) * np.finfo(float).eps
        out = np.empty(len(rows))
        for start in range(0, len(rows), ROW_CHUNK):
            part = rows[start:start + ROW_CHUNK]
            centre = np.zeros(len(part))
            radius = np.zeros(len(part))
            for x, s in zip(self.terms, strings):
                v = _mask_values(part ^ x, s, y is not None)
                if x:
                    radius += np.abs(v)
                else:
                    centre += v.real
            out[start:start + ROW_CHUNK] = (
                centre - radius - slack * (np.abs(centre) + radius))
        return out

    def block(self, rows: np.ndarray, y: int | None = None) -> SparseOperator:
        """The operator on the Fock states `rows`, 2**m of them, in their
        own coordinates, each row's slots in mask (`terms`) order, built
        ROW_CHUNK rows at a time: complex, or with a gauge y (`gauge`)
        D^dagger H D in float64, written straight from the strings.

        Rows that are a coset of a subspace W, ascending (a Z-string block,
        or every state), hold n ^ x at place i ^ p_x for a mask x in W,
        p_x the place of rows[0] ^ x (one `searchsorted` per mask), so the
        columns are i ^ p_x with no map of the whole space; they are
        checked, rows[i ^ p_x] == rows[i] ^ x, a chunk at a time.  An
        entry leaving `rows`, or rows that are not such a coset, raises
        ValueError."""
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows) or len(rows) & (len(rows) - 1):
            raise ValueError(f"{len(rows)} rows are not 2**m states")
        strings = self._strings(y)
        masks = np.array(list(self.terms), dtype=np.int64).reshape(-1, 1)
        # a mask whose rows[0] ^ x lies past the last row gets any place:
        # the check below refuses it at row 0
        places = np.minimum(np.searchsorted(rows, rows[0] ^ masks), len(rows) - 1)
        cols = np.empty((len(masks), len(rows)), dtype=np.int64)
        values = np.empty(cols.shape,
                          dtype=np.complex128 if y is None else np.float64)
        for start in range(0, len(rows), ROW_CHUNK):
            part = slice(start, start + ROW_CHUNK)
            c = rows[part] ^ masks
            for out, col, s in zip(values[:, part], c, strings):
                out[:] = _mask_values(col, s, y is not None)
            local = cols[:, part]
            np.bitwise_xor(np.arange(start, start + local.shape[1]), places, out=local)
            bad = rows[local] != c
            if bad.any():
                j, i = np.argwhere(bad)[0]
                entry = f"entry ({rows[part][i]}, {c[j, i]})"
                raise ValueError(f"{entry} leaves the {len(rows)} rows of the block"
                                 if c[j, i] not in rows else
                                 f"the {len(rows)} rows are not a coset: {entry} "
                                 f"is not at place {start + i} ^ {places[j, 0]}")
        return SparseOperator(cols, values)


def to_matrix(poly: MajoranaPolynomial, n_modes: int) -> SparseOperator:
    """ELL operator of a polynomial on the whole Fock space: one slot per
    bit-flip mask, in mask order, the terms of a mask summed once
    (`PauliSum.block`)."""
    return PauliSum(poly, n_modes).block(np.arange(1 << n_modes, dtype=np.int64))
