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
coefficient.

Diagonal Z-strings g, (-1)^popcount(n & g), split the states into
blocks: a state's label has bit i the parity of n & gens[i].  A block is
a coset of W, the block of label 0, so it is named by its least state
and the strings: block b is starts[b] ^ w (`_cosets`, w ascending), and
a state's label and place in its block are bit arithmetic (`_labels`,
`_places`), both linear over XOR.  A `PauliSum` groups a polynomial's
strings by bit-flip mask and turns them into slots on such cosets, one
per mask, in one place (`PauliSum.slots`): mask x sends block b onto
block b ^ label(x), place p onto place p ^ place(x), so its slots are
read by XOR with no array of the whole space and no search.  The
operator of one block (`PauliSum.block`; the whole space, no strings, in
`to_matrix`) is a `SparseOperator` of numpy arrays of fixed-width rows;
its Gershgorin floors (`PauliSum.floors`) and the thermal and loop
carries of `spectral` and `verify` read the same slots.

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
# rows a SparseOperator product sums at once: its gather of the vector is
# (masks, ROW_CHUNK)
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


def _annihilator(vectors, n_modes: int) -> list[int]:
    """Generators of {g : popcount(g & v) even for every v in `vectors`}:
    per free bit f of the vectors' reduced echelon basis, lowest first, e_f
    plus the pivots of the rows that hold f (two bits of each row or none)."""
    span: dict = {}
    for v in vectors:
        _echelon_insert(span, int(v))
    return [(1 << f) | sum(1 << p for p, r in span.items() if r >> f & 1)
            for f in range(n_modes) if f not in span]


def _labels(n, gens, dtype=np.int64) -> np.ndarray:
    """The block label of each state n (an int or an int64 array) under
    the Z-strings `gens`: bit i is popcount(n & gens[i]) mod 2, in
    `dtype`.  Linear over XOR: the label of n ^ m is label(n) ^ label(m)."""
    out = np.zeros(np.shape(n), dtype=dtype)
    for i, g in enumerate(gens):
        out |= (np.bitwise_count(n & g) & 1).astype(dtype) << i
    return out


def _coset_basis(gens, n_modes: int) -> dict:
    """The reduced echelon basis (pivot -> row) of W, the block of state 0
    under the Z-strings `gens` (`_annihilator` of gens).  Each row's
    highest bit is its pivot, and every row is clear at the others.
    Dependent strings, whose labels would not name 2**len(gens) blocks,
    raise ValueError."""
    w: dict = {}
    for a in _annihilator(gens, n_modes):
        _echelon_insert(w, a)
    if len(w) + len(gens) != n_modes:
        raise ValueError(f"the Z-strings {list(gens)} on {n_modes} modes "
                         f"are not independent")
    return w


def _places(n, gens, n_modes: int) -> np.ndarray:
    """The place of each state n (an int or an int64 array) in its block
    of `gens`: its bits at the pivots of `_coset_basis`, in pivot order.
    States of one block differ by elements of W, whose highest bits are
    pivots, so this orders each block ascending; linear over XOR."""
    out = np.zeros(np.shape(n), dtype=np.int64)
    for j, p in enumerate(sorted(_coset_basis(gens, n_modes))):
        out |= (n >> p & 1) << j
    return out


def _combinations(vectors) -> np.ndarray:
    """Every XOR combination of `vectors`, by doubling: entry j combines
    the vectors at the set bits of j."""
    out = np.zeros(1 << len(vectors), dtype=np.int64)
    for i, v in enumerate(vectors):
        np.bitwise_xor(out[:1 << i], v, out=out[1 << i:2 << i])
    return out


def _cosets(gens, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of the Z-strings `gens` on n_modes as cosets (starts, w):
    block b is starts[b] ^ w, ascending, with no array of all 2**n_modes
    states.  w is W, the block of label 0, ascending, so that w[j] is the
    state of place j (`_places`): the combinations of `_coset_basis` in
    pivot order, each row clear above its own pivot and at the other
    pivots.  starts[b], the least state of label b, is the one clear at
    every pivot: the combinations of the free bits, placed by `_labels`."""
    basis = _coset_basis(gens, n_modes)
    w = _combinations([basis[p] for p in sorted(basis)])
    free = _combinations([1 << f for f in range(n_modes) if f not in basis])
    starts = np.empty_like(free)
    starts[_labels(free, gens)] = free
    return starts, w


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
    (`monomial_pauli`), in term order.  The strings of a mask have
    distinct Z characters, which cannot cancel everywhere, so a mask has a
    slot unless all its coefficients round to zero.  Every operator read
    from them comes from `slots`, their slots on Z-string cosets named by
    (starts, gens): one block's operator (`block`), its Gershgorin floors
    (`floors`), and the carries of `spectral` and `verify`, complex, or
    straight in float64 in a phase gauge (`gauge`) that makes them real.
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

    def slots(self, starts, gens, y: int | None = None):
        """The strings' slots on the blocks starts[b] ^ w of the Z-strings
        `gens` (`_cosets`), one row per mask x in `terms` order: (moves,
        src, values).  x sends the block of label l onto that of
        l ^ moves[j] = l ^ label(x), and row p there reads the place
        src[j, p] = p ^ place(x) of the block it comes from; values[j, b, p]
        is x's entry at (n, n ^ x) for the state n = starts[b] ^ w[p], its
        strings (`_strings`) summed in term order, complex, or in the gauge
        y (`gauge`) float64.  The masks are walked one at a time, so no
        (masks, s) array is made but these.  Dependent `gens` raise
        ValueError."""
        _, w = _cosets(gens, self.n_modes)
        rows = np.asarray(starts, dtype=np.int64)[:, None] ^ w
        masks = np.array(list(self.terms), dtype=np.int64)
        values = np.empty((len(masks), *rows.shape),
                          dtype=np.complex128 if y is None else np.float64)
        for out, x, strings in zip(values, self.terms, self._strings(y)):
            out[:] = _mask_values(rows ^ x, strings, y is not None)
        src = np.arange(len(w)) ^ _places(masks, gens, self.n_modes)[:, None]
        return _labels(masks, gens), src, values

    def floors(self, start: int, gens, y: int | None = None) -> np.ndarray:
        """The Gershgorin floor Re H_nn - sum_{m != n} |H_nm| of each state
        of the block start ^ w of the Z-strings `gens`, at its place, summed
        mask by mask in `terms` order from the block's slots (`slots`, in
        the gauge y when one is passed: it changes no |H_nm| and no
        diagonal).  Every eigenvalue of a Hermitian block lies in the union
        of its rows' discs, so the least floor over an invariant block's
        rows bounds its spectrum from below.  Each floor is lowered by
        (masks + 2) eps times its row's absolute sum, which covers the
        round-off of the sums."""
        _, _, values = self.slots([start], gens, y)
        slack = (len(self.terms) + 2) * np.finfo(float).eps
        centre = np.zeros(values.shape[2])
        radius = np.zeros(values.shape[2])
        for x, v in zip(self.terms, values[:, 0]):
            if x:
                radius += np.abs(v)
            else:
                centre += v.real
        return centre - radius - slack * (np.abs(centre) + radius)

    def block(self, start: int, gens, y: int | None = None) -> SparseOperator:
        """The operator on the block start ^ w of the Z-strings `gens`
        (`_cosets`), in its own coordinates, each row's slots in mask
        (`terms`) order (`slots`): complex, or with a gauge y (`gauge`)
        D^dagger H D in float64, written straight from the strings.  A mask
        that moves the label sends the block off itself, and raises
        ValueError naming it; every other mask x reads place p ^ place(x)."""
        moves, src, values = self.slots([start], gens, y)
        moving = np.flatnonzero(moves)
        if len(moving):
            x = list(self.terms)[moving[0]]
            raise ValueError(f"mask {x} sends the block of state {start} off "
                             f"itself under the Z-strings {list(gens)}")
        return SparseOperator(src, values[:, 0])


def to_matrix(poly: MajoranaPolynomial, n_modes: int) -> SparseOperator:
    """ELL operator of a polynomial on the whole Fock space, the one block
    of no Z-strings: one slot per bit-flip mask, in mask order, the terms
    of a mask summed once (`PauliSum.block`)."""
    return PauliSum(poly, n_modes).block(0, ())
