"""Spectra, ground spaces and thermal functionals.

Up to DENSE_DIM_CAP the whole spectrum is computed, in exact symmetry
blocks: diagonal Z-strings (-1)^popcount(n & g) that commute with H,
found by GF(2) elimination of the bit masks of the stored entries.  The
dense route splits by every such string, so each block is as small as
the symmetry allows (16 blocks of 16 on the diamond, 256 blocks of one
state at lambda = 0), fills one (blocks, s, s) stack straight from the
stored entries, checks its Hermiticity there and diagonalizes it with
one batched `eigh`; the full dim x dim matrix is never built.  A
`Spectrum` keeps the block index rows with each block's eigenvalues and
eigenvectors, and everything after the solver (the ground space, the
Pauli table, the thermal functionals) reads a Spectrum only.  The
thermal state is block-diagonal too, so the Pauli table that the RP
Gram reads has only the |span| = s columns x of the masks' span: every
other column is exactly zero.  The blocks are the cosets of that span,
so a state's block and place are bit arithmetic (`_labels`, `_places`),
and a polynomial's Pauli strings of one bit mask send a block onto one
other block: thermal expectations carry the eigenvectors through them in
(blocks, s, s) stacks, with no dim x dim array and no full-space map.

Above the cap a restarted, fully reorthogonalized Lanczos iteration
with sequential deflation finds the low end of the spectrum, up to the
first level above the ground cluster.  Its Krylov basis and the
deflated vectors are stored row-major, one vector per row, so every
Gram-Schmidt pass is a pair of contiguous matrix-vector products that
conjugate only the new vector, never the basis.  It runs in the same
Z-string blocks of a `PauliSum`, and builds the operator of a block, a
`SparseOperator` of numpy gathers, from its strings only when it
solves there, one block at a time (a block it comes back to is built
again): the full-space operator is never built.  An operator
whose bit-flip masks each carry only real or only imaginary entries is
real up to a diagonal phase d_n = i^parity(n & y), for a Z-string y
found once by GF(2) elimination of the masks (`gauge`); Lanczos then
builds every block straight from the strings as D^dagger B D in
float64, solves it in real arithmetic (half the bytes per product and
per Gram-Schmidt pass) and multiplies its vectors back by d.  A second
Gram-Schmidt pass runs only when the first cancelled most of the vector
(the DGKS rule).  The fermion parity
(-1)^N is the first split, and further strings halve the blocks only
while each keeps SYMMETRY_BLOCK_FLOOR states (16 blocks of 4,096 on the
4x4 torus: short vectors, a Krylov basis that fits in cache); the
eigenpairs of the blocks are merged.  An operator that couples the
parities is the one block, on both routes.  Lattice translations that
are exact symmetries of H (checked on its polynomial, never assumed) map
blocks onto blocks of the same spectrum, so Lanczos solves one block
per orbit and gives the others its values, and its cluster vectors
through the signed permutation of the translated modes (6 orbits of the
16 torus blocks at lambda > 0).  Every solved block starts with a
Gershgorin floor, a rigorous lower bound on its spectrum from one pass
over its stored entries, so a block whose floor lies above the values
already certified is closed without a solve.  The Lanczos ground space
carries its diagnostics: the eigenvalues reported, the residual of each
vector, the parity of the block each came from, the block count,
dimension and orbit count, the blocks closed by their floor, the block
builds and the matrix-vector products spent.
A ground space is kept block-resident on both routes: each cluster
vector lies in one whole Z-string block of the solver's split, so a
`GroundSpace` holds those blocks' states as one (count, s) array, one
(vectors, columns) pair per block, and no array spans two blocks.
Its bases are made deterministic by re-orthogonalizing coordinate
projections in a fixed pivot order, block by block, so reports do not
depend on eigensolver gauge; the blocks' columns keep the order of the
whole cluster's canonical basis, by pivot coordinate.

Thermal quantities always shift energies by E0 before exponentiating;
beta can then be large without overflow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clifford import MajoranaPolynomial, reflect
# multiply and to_matrix are imported for the benchmark tracer
# (bench/tracing.py), which wraps them at these names
from .clifford import multiply  # noqa: F401
from .fock import (
    _PHASES,
    DENSE_DIM_CAP,
    PauliSum,
    SparseOperator,
    _bit_parity,
    _echelon_insert,
    _mask_values,
    _reduce,
    monomial_pauli,
)
from .fock import to_matrix  # noqa: F401
from .lattice import ReflectionData

HERMITICITY_TOL = 1e-12
# largest max |B^H B - I| that canonical_subspace_basis takes for round-off:
# its callers hand it eigenvectors of eigh and deflated Lanczos vectors
ORTHONORMALITY_TOL = 1e-10
# relative bound on |Gram value - symbolic value| in the RP cross-check;
# a round-off bound, independent of the verdict tolerance
GRAM_AGREEMENT_TOL = 1e-10


class SpectralError(RuntimeError):
    pass


class DenseCapError(SpectralError):
    """Operator dimension exceeds what dense routines will touch."""


class NonHermitianError(SpectralError):
    pass


class IllSeparatedError(SpectralError):
    """Spectrum has weight within a decade of the clustering cut."""


class ConvergenceError(SpectralError):
    pass


def _labels(n, gens, dtype=np.int64) -> np.ndarray:
    """The block label of each state n (an int or an int64 array) under
    the Z-strings `gens`: bit i is popcount(n & gens[i]) mod 2, in
    `dtype`.  Linear over XOR: the label of n ^ m is label(n) ^ label(m)."""
    out = np.zeros(np.shape(n), dtype=dtype)
    for i, g in enumerate(gens):
        out |= (np.bitwise_count(n & g) & 1).astype(dtype) << i
    return out


def _places(n, gens, n_modes: int) -> np.ndarray:
    """The place of each state n (an int or an int64 array) in its block
    of `gens`: its bits at the pivots of the reduced echelon basis of W,
    the block of state 0 (`_annihilator` of gens), in pivot order.  States
    of one block differ by elements of W, whose highest bits are pivots,
    so this orders each block ascending; linear over XOR."""
    w: dict = {}
    for a in _annihilator(gens, n_modes):
        _echelon_insert(w, a)
    out = np.zeros(np.shape(n), dtype=np.int64)
    for j, p in enumerate(sorted(w)):
        out |= (n >> p & 1) << j
    return out


def _annihilator(vectors, n_modes: int) -> list[int]:
    """Generators of {g : popcount(g & v) even for every v in `vectors`}:
    per free bit f of the vectors' reduced echelon basis, lowest first, e_f
    plus the pivots of the rows that hold f (two bits of each row or none)."""
    span: dict = {}
    for v in vectors:
        _echelon_insert(span, int(v))
    return [(1 << f) | sum(1 << p for p, r in span.items() if r >> f & 1)
            for f in range(n_modes) if f not in span]


def _require_blocks(rows: np.ndarray, gens, dim: int, every: bool) -> None:
    """ValueError unless `rows` are whole blocks of `gens` on `dim` states,
    each ascending, in ascending label order (every block when `every`): a
    block's size of ascending states, all of one label, is that block."""
    labels = _labels(rows, gens, np.min_scalar_type((1 << len(gens)) - 1))
    if not (rows.ndim == 2 and rows.shape[1] == dim >> len(gens)
            and (rows[:, 0] >= 0).all() and (rows[:, -1] < dim).all()
            and (rows[:, 1:] > rows[:, :-1]).all() and (labels == labels[:, :1]).all()
            and (labels[1:, 0] > labels[:-1, 0]).all()
            and (len(rows) == 1 << len(gens) or not every)):
        raise ValueError(f"rows are not {'every block' if every else 'whole blocks'}"
                         f" of the Z-strings {list(gens)} in label order")


@dataclass(frozen=True)
class Spectrum:
    """Every eigenpair of a Hermitian operator, block by block.

    Block b holds the Fock states blocks[b] (ascending) of label b under
    the Z-strings `gens` (ValueError otherwise); its eigenvalues values[b]
    ascend, and column k of vectors[b] is the eigenvector of values[b, k]
    in the coordinates of blocks[b].  The flat index b * s + k names one
    eigenpair.
    """
    blocks: np.ndarray  # (count, s) Fock indices of each Z-string block
    gens: tuple[int, ...]  # the Z-strings of the split
    values: np.ndarray  # (count, s) ascending within each block, real
    vectors: np.ndarray  # (count, s, s) orthonormal columns per block

    def __post_init__(self):
        _require_blocks(self.blocks, self.gens, self.dim, every=True)

    @property
    def dim(self) -> int:
        return self.blocks.size

    @property
    def eigenvalues(self) -> np.ndarray:
        """The sorted union of the block spectra."""
        return np.sort(self.values, axis=None)


@dataclass(frozen=True)
class GroundSpace:
    """The ground cluster {E : E - E0 <= gap_tol} on `dim` Fock states,
    kept block by block.

    Every cluster vector lies in one Z-string block, so the cluster is the
    direct sum of its blocks' parts, and no array spans two blocks.  The
    blocks are whole ones of the solver's split by `gens`, all of one size
    and in label order (ValueError otherwise): rows[i] are the Fock states
    (ascending) of the i-th block that holds any, vectors[i] that part's
    orthonormal columns in those coordinates, in the deterministic gauge
    of `canonical_subspace_basis`, and columns[i] their places in the
    cluster's column order: ascending pivot coordinate, the order of the
    canonical basis of the whole cluster.  `gap` is the first certified
    level above the cluster less e0, None when none lies above.
    """
    e0: float
    dim: int
    rows: np.ndarray  # (count, s) Fock states of each cluster block
    gens: tuple[int, ...]  # the Z-strings of the solver's split
    vectors: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]
    gap_tol: float
    gap: float | None = None
    # Lanczos diagnostics, empty on the dense route: the certified
    # eigenvalues (ascending; the cluster is the first n, then the first
    # value above it, at least lanczos_ground's k in all), the residual of
    # each one's vector and the matrix-vector products spent
    eigenvalues: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()
    matvecs: int = 0
    # fermion parity (0 even, 1 odd) of each eigenvalue's symmetry block,
    # which has a definite parity; empty when the operator couples the
    # parities and Lanczos ran unblocked
    parities: tuple[int, ...] = ()
    # (count, dimension) of the symmetry blocks Lanczos ran in
    blocks: tuple[int, int] = ()
    # orbits of those blocks under the symmetries passed, one solved per
    # orbit; the block count when none applies
    orbits: int = 0
    # blocks closed by their Gershgorin floor without a solve
    closed_by_bound: int = 0
    # solved representative blocks that a Z-string phase gauge made real,
    # so that Lanczos ran there in float64
    real_blocks: int = 0
    # block operators built, counting each rebuild of a representative
    # that the solver came back to (only one is held at a time)
    builds: int = 0
    # wall time of the split, the floors and the block builds, and of the
    # eigenpair solves
    build_ms: float = 0.0
    solve_ms: float = 0.0

    def __post_init__(self):
        _require_blocks(self.rows, self.gens, self.dim, every=False)

    @property
    def n(self) -> int:
        return sum(v.shape[1] for v in self.vectors)


def default_gap_tol(e0: float) -> float:
    return 1e-8 * max(1.0, abs(e0))


def _require_hermitian(defect: float) -> None:
    if defect > HERMITICITY_TOL:
        raise NonHermitianError(f"hermiticity defect {defect:.3e}")


def dense_spectrum(op: SparseOperator) -> Spectrum:
    """Every eigenpair, from one batched `eigh` of the Z-string blocks.

    The split uses every diagonal Z-string that commutes with H
    (`_symmetry_generators` with no floor), and the (count, s, s) stack is
    filled from the stored entries, placed by `_labels` and `_places`.  A
    stored mask of label other than 0 raises SpectralError: its entries
    couple blocks, and the split would drop them.  Then, every stored
    entry and its transpose partner lying in one block, the Hermiticity
    defect max |S - S^H| of the filled stack is the operator's
    (NonHermitianError above HERMITICITY_TOL); it is read at the stored
    places only, since a pair of places that holds no stored entry is zero
    both ways.  DENSE_DIM_CAP bounds the full dimension.
    """
    if op.dim > DENSE_DIM_CAP:
        raise DenseCapError(f"dim {op.dim} exceeds the dense cap {DENSE_DIM_CAP}")
    masks, gens = op.masks, tuple(_symmetry_generators(op, floor=1))
    leaks = masks[_labels(masks, gens) != 0]
    if len(leaks):
        raise SpectralError(f"mask {leaks[0]} couples symmetry blocks")
    blocks = _split(op.dim, gens)
    spec = Spectrum(blocks=blocks, gens=gens, values=np.empty(blocks.shape),
                    vectors=np.zeros(blocks.shape + blocks.shape[1:], complex))
    stored = op.values != 0
    rows = np.broadcast_to(np.arange(op.dim), op.cols.shape)[stored]
    b = _labels(rows, gens)
    i, j = (_places(n, gens, op.n_modes) for n in (rows, op.cols[stored]))
    np.add.at(spec.vectors, (b, i, j), op.values[stored])
    s = spec.vectors
    defect = np.abs(s[b, i, j] - s[b, j, i].conj()).max(initial=0)
    _require_hermitian(float(defect))
    spec.values[:], spec.vectors[:] = np.linalg.eigh(spec.vectors)
    return spec


def _cluster_count(values: np.ndarray, gap_tol: float) -> int:
    """Size of the ground cluster; rejects a cut with nearby weight.

    An eigenvalue whose offset from E0 lies within a decade of gap_tol
    on either side makes the cluster boundary ambiguous, and a gap_tol
    below the round-off floor would split a degenerate level.
    """
    # the round-off floor, 20 times the 3 eps |E0| spread of the diamond's
    # 8-fold level at lambda = 0.1 (up to 2.7e-15 above E0 = -4.01) and of
    # the 4x4 torus's 256-fold level at lambda = 0
    floor = 64 * np.finfo(float).eps * max(1.0, abs(float(values[0])))
    if gap_tol < floor:
        raise IllSeparatedError(f"gap_tol = {gap_tol:.3e} is below the round-off "
                                f"floor {floor:.3e}; choose a larger tolerance")
    rel = values - values[0]
    ambiguous = (rel > gap_tol / 10) & (rel <= 10 * gap_tol)
    if ambiguous.any():
        worst = float(rel[ambiguous][0])
        raise IllSeparatedError(
            f"eigenvalue at E0 + {worst:.3e} is within a decade of "
            f"gap_tol = {gap_tol:.3e}; choose a different tolerance"
        )
    return int((rel <= gap_tol).sum())


def canonical_subspace_basis(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis of the span of orthonormal columns,
    and the pivot coordinate of each of its columns (ascending).

    The columns are checked, not trusted: their Gram matrix G = B^H B
    must lie within ORTHONORMALITY_TOL of the identity (SpectralError
    otherwise), and one symmetric step, q = B G^-1/2 from `eigh` of the
    n x n G, takes them the rest of the way to orthonormal (the same
    LAPACK routine as the spectra, where a Cholesky factor and its
    inverse would load about 0.3 MB more library code into a diamond
    run).  Then projects coordinate
    vectors e_0, e_1, ... into the subspace, Gram-Schmidts them in that
    fixed order, keeps the ones with non-negligible residual, and fixes
    each phase by making the lowest non-negligible amplitude real
    positive.  Depends only on the subspace, not on the gauge of the
    input columns.  A coordinate whose projection is already negligible
    cannot leave a larger residual, so those rows are dropped in one
    pass before the loop.  The pivot loop works on the n-dimensional
    coefficients only; the basis is one product q @ C after it.  Column k
    is the one pivoted at coordinate pivots[k].
    """
    gram = basis.conj().T @ basis
    defect = float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))
    if defect > ORTHONORMALITY_TOL:
        raise SpectralError(f"basis columns are not orthonormal: "
                            f"max |B^H B - I| = {defect:.3e}")
    w, v = np.linalg.eigh(gram)
    q = basis @ ((v / np.sqrt(w)) @ v.conj().T)
    n = q.shape[1]
    coeffs: list[np.ndarray] = []
    pivots: list[int] = []
    for i in np.flatnonzero(np.linalg.norm(q, axis=1) > 1e-8):
        c = q[i, :].conj().copy()
        for a in coeffs:
            c -= a * (a.conj() @ c)
        nrm = np.linalg.norm(c)
        if nrm <= 1e-8:
            continue
        coeffs.append(c / nrm)
        pivots.append(int(i))
        if len(coeffs) == n:
            break
    if len(coeffs) != n:
        raise SpectralError("could not pivot a full basis; subspace degenerate?")
    out = q @ np.column_stack(coeffs)
    j = np.argmax(np.abs(out) > 1e-10, axis=0)
    lead = out[j, np.arange(n)]
    out *= lead.conj() / np.abs(lead)
    return out, np.array(pivots, dtype=np.int64)


def _block_cluster(parts) -> dict:
    """The `rows`, `vectors` and `columns` of a GroundSpace from its raw
    parts, one (rows, orthonormal columns) pair per Z-string block, each
    block a whole one of the solver's split, so that the rows stack into
    one (count, s) array.

    The projection of e_i onto the cluster lies in i's block, and parts of
    different blocks are orthogonal, so the canonical basis of the whole
    cluster is the union of the blocks' canonical bases, each with its own
    orthonormality check, in the order of their pivot coordinates.
    """
    rows, vectors, pivots = [], [], []
    for r, v in parts:
        basis, piv = canonical_subspace_basis(v)
        rows.append(r)
        vectors.append(basis)
        pivots.append(r[piv])
    place = np.empty(sum(map(len, pivots)), dtype=np.int64)
    place[np.argsort(np.concatenate(pivots))] = np.arange(len(place))
    columns = np.split(place, np.cumsum([len(p) for p in pivots])[:-1])
    return {"rows": np.stack(rows), "vectors": tuple(vectors), "columns": tuple(columns)}


def ground_space(spec: Spectrum, gap_tol: float | None = None) -> GroundSpace:
    """Ground cluster of a dense Spectrum.

    The cluster is {E : E - E0 <= gap_tol}; a spectrum with weight within
    a decade of the cut raises IllSeparatedError rather than guessing.
    Its columns are read block by block from the Spectrum's eigenvectors
    (`_block_cluster`); the gap is the next value of the spectrum.
    """
    order = np.argsort(spec.values, axis=None, kind="stable")
    values = spec.values.ravel()[order]
    e0 = float(values[0])
    if gap_tol is None:
        gap_tol = default_gap_tol(e0)
    n = _cluster_count(values, gap_tol)
    b, k = np.divmod(order[:n], spec.blocks.shape[1])
    parts = [(spec.blocks[c], spec.vectors[c][:, k[b == c]])
             for c in sorted(set(b.tolist()))]
    return GroundSpace(e0=e0, dim=spec.dim, gens=spec.gens, gap_tol=gap_tol,
                       gap=float(values[n] - e0) if n < len(values) else None,
                       **_block_cluster(parts))


# ---------------------------------------------------------------------------
# Lanczos beyond the dense cap

def _project_out(basis, w):
    """One classical Gram-Schmidt pass of w against the rows of `basis`.

    Subtracts in place and returns the coefficients <b_i, w>.  Only w is
    conjugated, so both products are contiguous gemv calls on the
    row-major basis.
    """
    h = (basis @ w.conj()).conj()
    w -= h @ basis
    return h


# SplitMix64's counter increment (an odd 64-bit constant) and finalizer
# multipliers
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MIX2 = np.uint64(0x94D049BB133111EB)


def _start_stream(seed: int):
    """The Lanczos start-vector stream of `seed` (an integer >= 0, taken
    mod 2^64): a function that returns the next n values of the stream,
    in [-1, 1).

    Value j is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) at counter
    j: the finalizer of seed + (j + 1) * gamma mod 2^64, whose top 53 bits
    u give u / 2^52 - 1, exactly.  It depends only on the seed and j, in
    numpy uint64 arithmetic, which wraps mod 2^64, so the values are
    deterministic in the seed and in the count drawn before them.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    state = np.uint64(seed % (1 << 64))
    drawn = 0

    def draw(n: int) -> np.ndarray:
        nonlocal drawn
        z = np.arange(drawn + 1, drawn + n + 1, dtype=np.uint64)
        drawn += n
        z *= _SPLITMIX_GAMMA
        z += state
        z ^= z >> 30
        z *= _SPLITMIX_MIX1
        z ^= z >> 27
        z *= _SPLITMIX_MIX2
        z ^= z >> 31
        return (z >> 11).astype(np.float64) * 2.0 ** -52 - 1.0

    return draw


# the projected matrix is diagonalized (the Ritz check) only at every
# RITZ_STRIDE-th Krylov dimension, and at every restart or invariant
# subspace, where the Ritz pairs are needed anyway: a per-step eigh costs
# more than the few products a later acceptance adds
RITZ_STRIDE = 4


def _lowest_eigenpair(apply, dim, draw, deflate, conv_tol, max_matvecs, window,
                      dtype=np.complex128):
    """One converged lowest eigenpair, orthogonal to the `deflate` vectors.

    Thick-restart Lanczos with full reorthogonalization: the small
    projected matrix is accumulated exactly (Rayleigh-Ritz), restarts
    keep the lowest Ritz vectors plus the running residual direction.
    The Ritz check runs at every RITZ_STRIDE-th Krylov dimension.
    The Krylov basis is stored row-major, q[j] being the j-th vector.
    A second Gram-Schmidt pass against it runs only when the first left
    less than 1/sqrt(2) of the vector's norm (the DGKS rule): otherwise
    the first pass already reaches working precision.  The basis, the
    projected matrix and the start vectors are of `dtype`, the
    operator's: a real block runs in real arithmetic throughout.  A start
    vector is `draw(dim)`, the next dim values of a stream
    (`_start_stream`), with a second draw for its imaginary part when
    `dtype` is complex.
    Returns (eigenvalue, vector, residual, matvecs used); the vector is
    projected against the deflated ones and normalized, the eigenvalue
    is its Rayleigh quotient and the residual the true ||H y - E y||.
    """
    window = max(8, min(window, dim))
    keep = min(10, window - 2)
    d = np.vstack(deflate) if deflate else None

    def dproj(w):
        if d is not None:
            _project_out(d, w)
            _project_out(d, w)
        return w

    def start():
        v = draw(dim)
        if dtype == np.complex128:
            v = v + 1j * draw(dim)
        return dproj(v)

    def rayleigh(y):
        # one product: (Rayleigh quotient, unit vector, true residual)
        y = dproj(y)
        y /= np.linalg.norm(y)
        hy = apply(y)
        val = float(np.vdot(y, hy).real)
        return val, y, float(np.linalg.norm(hy - val * y))

    q = np.empty((window, dim), dtype=dtype)
    t = np.zeros((window, window), dtype=dtype)
    v = start()
    q[0] = v / np.linalg.norm(v)
    j = 1
    matvecs = 0
    best_res = np.inf

    while matvecs < max_matvecs:
        w = apply(q[j - 1])
        matvecs += 1
        w = dproj(w)
        before = np.linalg.norm(w)
        h = _project_out(q[:j], w)
        beta = np.linalg.norm(w)
        if beta < before / np.sqrt(2):
            h += _project_out(q[:j], w)
            beta = np.linalg.norm(w)
        t[: j, j - 1] = h
        t[j - 1, : j] = h.conj()

        if j % RITZ_STRIDE == 0 or j == window or beta < 1e-13:
            theta, s = np.linalg.eigh(t[:j, :j])
            res = beta * abs(s[j - 1, 0])
            best_res = min(best_res, res)
            if res <= conv_tol * max(1.0, abs(theta[0])):
                # estimate says converged; accept only if the true
                # residual agrees
                val, y, true_res = rayleigh(s[:, 0] @ q[:j])
                matvecs += 1
                if true_res <= 100 * conv_tol * max(1.0, abs(val)):
                    return val, y, true_res, matvecs

        if beta < 1e-13:
            # invariant subspace; inject a fresh direction (couplings to it
            # vanish exactly, so leaving t untouched is correct)
            v = start()
            _project_out(q[:j], v)
            nrm = np.linalg.norm(v)
            if nrm < 1e-10 or j >= window:
                # nothing left to explore at this dimension
                val, y, true_res = rayleigh(s[:, 0] @ q[:j])
                return val, y, true_res, matvecs + 1
            q[j] = v / nrm
            j += 1
            continue

        if j == window:
            # thick restart: lowest `keep` Ritz pairs plus the residual
            q[:keep] = s[:, :keep].T @ q[:j]
            t[:, :] = 0
            t[np.arange(keep), np.arange(keep)] = theta[:keep]
            # the couplings of q[keep] to the kept vectors are filled in by
            # the next step's full reorthogonalization, before eigh reads t
            q[keep] = w / beta
            j = keep + 1
        else:
            q[j] = w / beta
            j += 1

    raise ConvergenceError(
        f"no eigenpair after {matvecs} products; best residual {best_res:.3e}"
    )


# a symmetry block is halved again only while the halves keep at least
# this many states: at lambda = 0 the torus Hamiltonian is diagonal and
# would split into one-state blocks, and blocks much below this size cost
# more Lanczos runs than their shorter products save
SYMMETRY_BLOCK_FLOOR = 4096


def _split(dim: int, gens) -> np.ndarray:
    """The Fock states 0..dim-1 split by the independent Z-strings `gens`:
    row b holds, ascending, the states of label b (`_labels`).  The labels
    are kept in the narrowest unsigned type (uint8 up to 8 strings), where
    the stable sort is a radix sort."""
    labels = _labels(np.arange(dim, dtype=np.int64), gens,
                     np.min_scalar_type((1 << len(gens)) - 1))
    return np.argsort(labels, kind="stable").reshape(1 << len(gens), -1)


def _symmetry_generators(op: SparseOperator | PauliSum,
                         floor: int | None = None) -> list[int]:
    """The Z-strings that split `op` into its diagonal symmetry blocks.

    Every stored entry of the matrix sits at (n, n ^ s) for a bit mask s.
    A Z-string (-1)^popcount(n & g) is diagonal in the Fock basis and
    commutes with H exactly when popcount(g & s) is even for every stored
    mask s, i.e. when g lies in the annihilator of their span; the joint
    eigenspaces of such strings are exact invariant blocks.  The
    annihilator comes from GF(2) elimination of the distinct masks.  The
    fermion parity (-1)^N (g all ones) is the first split; the
    annihilator's generators follow, lowest free bit first, while every
    block keeps `floor` states (default SYMMETRY_BLOCK_FLOOR, for
    Lanczos; the dense route passes 1 and splits by the whole
    annihilator, so its block of state 0 is the span of the masks), so
    each block has 2^m states and a definite parity.  An operator that
    couples the parities is the one block.  The test is structural, so
    it is exact: it reads only `op.masks`.
    """
    masks = op.masks
    if op.n_modes < 1 or _bit_parity(masks).any():
        return []
    if floor is None:
        floor = SYMMETRY_BLOCK_FLOOR
    gens = [op.dim - 1]  # the parity string: every mode
    chosen: dict = {}
    _echelon_insert(chosen, gens[0])
    for g in _annihilator(masks.tolist(), op.n_modes):
        if op.dim >> (len(gens) + 1) < floor:
            break
        if _echelon_insert(chosen, g):
            gens.append(g)
    return gens


def _mode_permutations(op, symmetries) -> list[np.ndarray]:
    """The mode permutations of `symmetries`, Majorana maps checked to be
    exact symmetries of the polynomial of the PauliSum `op`.

    A map s must permute the generators, take each mode's pair
    (2k, 2k + 1) to a pair (2 pi(k), 2 pi(k) + 1) in order, and leave H
    unchanged: op.poly.relabel(s) == op.poly, exactly.  Then the Fock
    unitary U of `_signed_permutation` has U c_i U^dagger = c_s(i) and
    U H U^dagger = H.  Any failure raises SpectralError: a claim is
    checked, not trusted.  Returns each pi as an array, pi[k] = pi(k).
    """
    perms = []
    for s in symmetries:
        s = np.asarray(s, dtype=np.int64)
        pairs = s.reshape(-1, 2) if s.shape == (2 * op.n_modes,) else None
        if (pairs is None or (np.sort(s) != np.arange(len(s))).any()
                or (pairs[:, 0] % 2).any() or (pairs[:, 1] != pairs[:, 0] + 1).any()):
            raise SpectralError(f"{s.tolist()} does not permute the "
                                f"{op.n_modes} modes' generator pairs in order")
        if op.poly.relabel(s.tolist()) != op.poly:
            raise SpectralError(f"{s.tolist()} is not a symmetry of H")
        perms.append(pairs[:, 0] // 2)
    return perms


def _moved(states, pi: np.ndarray):
    """The bit masks `states` (an int or an int64 array) with bit k moved
    to bit pi[k]."""
    return sum((states >> k & 1) << int(p) for k, p in enumerate(pi))


def _signed_permutation(states: np.ndarray, pi: np.ndarray):
    """(pi(n), eps(n)) for the Fock states n: the unitary U of the mode
    permutation pi, U c_2k U^dagger = c_2pi(k) and U c_2k+1 U^dagger =
    c_2pi(k)+1, sends |n> to eps(n) |pi(n)>.

    |n> is a^dagger_k1 ... a^dagger_km |0> over its occupied modes
    k1 < ... < km, so U|n> is a^dagger_pi(k1) ... a^dagger_pi(km) |0>, and
    reordering those creators gives eps(n) = (-1)^(number of occupied
    pairs k < l with pi(k) > pi(l)).
    """
    inversions = np.zeros_like(states)
    for k, p in enumerate(pi):
        below = sum(1 << l for l in range(k + 1, len(pi)) if pi[l] < p)
        inversions ^= states >> k & _bit_parity(states & below)
    return _moved(states, pi), 1 - 2 * inversions


def _block_orbits(blocks: np.ndarray, gens: list[int], perms: list[np.ndarray]):
    """Orbits of the blocks of `_split(dim, gens)` under the symmetry mode
    permutations `perms`.

    A mode permutation pi sends the Z-string g to pi(g).  When pi(g) lies
    in the span of `gens` for every generator, it sends each block onto
    one block, the one of pi(n) for any state n of it, and the two have
    the same spectrum.  A pi that moves some generator out of the span
    (the split stopped at the block floor part-way) mixes blocks and is
    skipped.  Returns, for each block, its orbit's representative (the
    least block of the orbit) and the mode permutation that carries the
    representative onto it (the identity for a representative).
    """
    span: dict = {}
    for g in gens:
        _echelon_insert(span, g)
    usable = [pi for pi in perms
              if not any(_reduce(span, _moved(g, pi)) for g in gens)]
    rep = [-1] * len(blocks)
    carry: list = [None] * len(blocks)
    for b in range(len(blocks)):
        if rep[b] >= 0:
            continue
        rep[b], carry[b] = b, np.arange(blocks.size.bit_length() - 1)
        reached = [b]
        while reached:
            a = reached.pop()
            n = int(blocks[a, 0])
            for pi in usable:
                c = int(_labels(_moved(n, pi), gens))
                if rep[c] < 0:
                    rep[c], carry[c] = b, pi[carry[a]]
                    reached.append(c)
    return rep, carry


def lanczos_ground(op: PauliSum, k: int = 1, seed: int = 0,
                   gap_tol: float | None = None, conv_tol: float = 1e-9,
                   max_matvecs: int = 60000, window: int = 64,
                   symmetries=()) -> GroundSpace:
    """Ground cluster via deflated Lanczos, closed by the solver itself.

    Reads only the `dim`, `masks`, row `floors`, Hermiticity defect
    (NonHermitianError above HERMITICITY_TOL), phase `gauge` and block
    operators (`block`) of `op`, a PauliSum (TypeError otherwise).  Runs
    inside the Z-string symmetry blocks of `_symmetry_generators`: the two
    fermion-parity blocks, split further while the blocks stay at least
    SYMMETRY_BLOCK_FLOOR states (16 blocks of 4,096 on the 4x4 torus), or
    one block if the operator couples the parities.

    `symmetries` are Majorana maps (`lattice.translations`) claimed to
    leave H unchanged; each is checked exactly on the polynomial of
    `op` (`_mode_permutations`, SpectralError otherwise).  Blocks that
    they map onto each other form an orbit of equal spectra
    (`_block_orbits`), and only its representative is solved: each of its
    values, with its residual, counts once for every block of the orbit,
    and a cluster vector in another block is the representative's carried
    by the signed permutation (`_signed_permutation`).  Without
    symmetries every block is its own orbit.

    Each representative has a lower bound: its last-found eigenvalue,
    since its later ones lie above it, or before its first solve its
    Gershgorin floor (`op.floors`, read on its rows only).  Each step
    finds one more eigenpair, deflated against the earlier ones of its
    block, in the representative whose bound is lowest (ties in block
    order), except that the representative solved last is kept while
    its bound lies within the cluster tolerance (gap_tol, or
    default_gap_tol of the lowest bound) of both the lowest bound and
    the lowest value found, so a degenerate level is solved block by
    block; a value found is certified once it is <= the bound of
    every representative with states left.  The search stops once at
    least k values are certified and one of them lies above the cluster
    cut (E0 + gap_tol, clustered exactly as ground_space does), or once
    every state is found; k is only a floor.  A representative whose
    floor lies above that certified prefix is closed without a solve,
    and its operator is never built.  Only the operator of the
    representative being solved is held: it is released before the next
    one is built, and a representative the search comes back to is built
    again from the strings.  When a Z-string phase gauge makes
    the operator real (`op.gauge()`, solved once), every block is built
    in it and solved in float64, and its cluster vectors are multiplied
    back by the gauge before they are kept or carried.  One start-vector
    stream (`_start_stream` of `seed`) and one matvec budget are shared
    in that fixed order, so results are deterministic.  The cluster
    stays block-resident: each vector is kept
    on its block's rows, a carried one scattered to its places there
    (SpectralError if a carried state's label is not the block's), and
    the canonical basis is formed per block (`_block_cluster`).  The
    reported eigenvalues are the shortest certified prefix that meets
    the rule, max(k, n + 1) of them for a cluster of n: the cluster and
    the first value above it.  They come with their true residuals,
    their block parities (none with a single block), the block count,
    dimension and orbit count, the count of blocks closed by their
    floor, the count of solved blocks that ran real, the block-length
    products spent, the block builds (rebuilds included), and the wall
    time of the split, floors and block builds and that of the solves.
    """
    if not isinstance(op, PauliSum):
        raise TypeError(f"lanczos_ground reads a PauliSum, not {type(op).__name__}")
    if k < 1 or k > op.dim:
        raise ValueError(f"k must be in 1..{op.dim}")
    _require_hermitian(op.hermiticity_defect())
    perms = _mode_permutations(op, symmetries)
    draw = _start_stream(seed)
    gens = _symmetry_generators(op)
    t0 = time.perf_counter()
    blocks = _split(op.dim, gens)
    size = blocks.shape[1]
    rep, carry = _block_orbits(blocks, gens, perms)
    reps = sorted(set(rep))
    orbit = [rep.count(b) for b in reps]  # blocks in each representative's orbit
    floors = op.floors(blocks[reps].ravel()).reshape(len(reps), size).min(axis=1)
    y = op.gauge()
    build = time.perf_counter() - t0
    solve = 0.0
    # the one resident block operator, of representative `resident`
    resident, block = -1, None
    built: set[int] = set()
    builds = 0
    found: list[list[tuple[float, np.ndarray, float]]] = [[] for _ in reps]
    budget = max_matvecs
    while True:
        open_ = [i for i in range(len(reps)) if len(found[i]) < size]
        last = [found[i][-1][0] if found[i] else floors[i] for i in open_]
        bound = min(last, default=np.inf)
        certified = sorted(val for i, pairs in enumerate(found)
                           for val, _, _ in pairs if val <= bound
                           for _ in range(orbit[i]))
        if not open_:
            break
        if len(certified) >= k:
            tol = default_gap_tol(certified[0]) if gap_tol is None else gap_tol
            if certified[-1] - certified[0] > tol:
                break
        i = open_[int(np.argmin(last))]
        if resident in open_:
            # stay while the resident's bound is both the lowest bound and
            # the lowest value found, up to the cluster tolerance: a
            # degenerate level is solved block by block, not hopping
            # between blocks at round-off
            near = default_gap_tol(bound) if gap_tol is None else gap_tol
            lowest = min(bound, *(pairs[0][0] for pairs in found if pairs))
            if last[open_.index(resident)] - lowest <= near:
                i = resident
        t0 = time.perf_counter()
        if i != resident:
            block = None  # released before the next block is built
            resident, block = i, op.block(blocks[reps[i]], y)
            built.add(i)
            builds += 1
        t1 = time.perf_counter()
        val, vec, r, used = _lowest_eigenpair(
            block.apply, size, draw, [v for _, v, _ in found[i]],
            conv_tol, budget, window, block.values.dtype)
        build += t1 - t0
        solve += time.perf_counter() - t1
        budget -= used
        found[i].append((val, vec, r))

    block = None  # the cluster's bases are formed without the last block
    # every block's values are its representative's, in block order
    pairs = sorted(((val, b, vec, r) for b in range(len(blocks))
                    for val, vec, r in found[reps.index(rep[b])]),
                   key=lambda p: p[0])
    e0 = certified[0]
    if gap_tol is None:
        gap_tol = default_gap_tol(e0)
    n = _cluster_count(np.array(certified), gap_tol)
    pairs = pairs[:max(k, n + 1)]
    members: dict[int, list] = {}
    for _, b, vec, _ in pairs[:n]:
        members.setdefault(b, []).append(vec)

    def parts():
        # one block's cluster columns at a time, in the block's own basis
        for b in sorted(members):
            src = blocks[rep[b]]
            vecs = np.column_stack(members.pop(b))
            if y is not None:  # back from the real gauge
                vecs = _PHASES[_bit_parity(src & y)][:, None] * vecs
            if rep[b] != b:  # carried, then scattered to the block's places
                states, sign = _signed_permutation(src, carry[b])
                if (_labels(states, gens) != b).any():
                    raise SpectralError(f"a cluster vector carried from block "
                                        f"{rep[b]} onto block {b} leaks out of it")
                vecs[_places(states, gens, op.n_modes)] = sign[:, None] * vecs
            yield blocks[b], vecs

    return GroundSpace(e0=e0, dim=op.dim, gens=tuple(gens), gap_tol=gap_tol,
                       gap=float(pairs[n][0] - e0) if len(pairs) > n else None,
                       **_block_cluster(parts()),
                       eigenvalues=tuple(float(val) for val, _, _, _ in pairs),
                       residuals=tuple(r for _, _, _, r in pairs),
                       parities=() if len(blocks) == 1 else  # label bit 0
                       tuple(b & 1 for _, b, _, _ in pairs),
                       blocks=(len(blocks), size), orbits=len(reps),
                       closed_by_bound=sum(orbit[i] for i in range(len(reps))
                                           if i not in built),
                       real_blocks=0 if y is None else len(built),
                       matvecs=max_matvecs - budget, builds=builds,
                       build_ms=1e3 * build, solve_ms=1e3 * solve)


# ---------------------------------------------------------------------------
# Thermal functionals (dense only: positivity must be resolved to 1e-9,
# which stochastic trace estimators cannot do at desk effort), block by
# block over the Spectrum: a polynomial's Pauli strings of one bit mask
# send a Z-string block onto one other block, so no dim x dim array and
# no full-space operator is formed

def _boltzmann(values: np.ndarray, beta: float) -> np.ndarray:
    """e^{-beta (E - E0)} for the energies `values`, E0 the least of them.
    Where beta (E - E0) overflows to +inf the weight e^-inf is exactly 0,
    the double nearest the true weight, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return np.exp(-beta * (values - values.min()))


def _mask_slots(f: MajoranaPolynomial, rows: np.ndarray, gens):
    """The slots of f on the blocks `rows` of the Z-strings `gens`, one row
    per bit mask m of its Pauli strings (`PauliSum`), ascending: (moves,
    src, weight).  m sends the block of label l onto that of l ^ moves[j]
    = l ^ label(m), whose row p reads the place src[j, p] = p ^ place(m)
    of the block it comes from; weight[j, c] are the entries (row, row ^ m)
    of the rows of block c, m's strings at the columns row ^ m."""
    n_modes = (rows.shape[1] << len(gens)).bit_length() - 1
    terms = PauliSum(f, n_modes).terms
    masks = np.array(sorted(terms), dtype=np.int64)
    src = np.arange(rows.shape[1]) ^ _places(masks, gens, n_modes)[:, None]
    weight = np.empty((len(masks), *rows.shape), dtype=np.complex128)
    for out, m in zip(weight, masks.tolist()):
        out[:] = _mask_values(rows ^ m, terms[m], False)
    return _labels(masks, gens), src, weight


def thermal_expectation(o, spec: Spectrum, beta: float) -> complex:
    """<O> in the thermal state e^{-beta H} / Z, energies shifted by E0,
    for the Spectrum of H.

    `o` is a MajoranaPolynomial, or a sequence of them standing for their
    product (applied right to left, never multiplied out); a generator
    beyond the spectrum's modes raises ValueError.

    Runs in the blocks of the Spectrum, the cosets of its block of state 0
    in label order.  The Pauli strings of one bit mask m send block b onto
    block b ^ move, move the label of m, and each row there reads the
    place p ^ place(m) (`_mask_slots`).  The eigenvectors pass through the
    factors, right to left, as (count, s, s) stacks of parts, the part of
    every eigenvector block b lying in block b ^ lies for one label lies.
    A factor's masks of one label add into one stack, which passes on to
    the next factor before the next stack is formed, so only one stack per
    factor is held.  At the last factor only the masks that return every
    part to its own block (label lies) are applied, and <v|O|v> is one
    einsum against the eigenvectors.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    factors = o if isinstance(o, (list, tuple)) else (o,)
    slots = [_mask_slots(f, spec.blocks, spec.gens) for f in reversed(factors)]
    own = np.arange(len(spec.blocks))
    ov = np.zeros(spec.vectors.shape, dtype=np.complex128) if slots else spec.vectors

    def carry(depth, lies, u):
        # u[b] is the part of block b's eigenvectors on the rows of b ^ lies
        moves, src, weight = slots[depth]
        if depth == len(slots) - 1:
            for j in np.flatnonzero(moves == lies):
                term = u[:, src[j]]
                term *= weight[j, :, :, None]
                np.add(ov, term, out=ov)
            return
        for move in dict.fromkeys(moves.tolist()):  # in order of first mask
            part = np.zeros(u.shape, dtype=np.complex128)
            for j in np.flatnonzero(moves == move):
                # the rows of blocks own ^ lies ^ move, read from u
                term = u[:, src[j]]
                term *= weight[j, own ^ lies ^ move, :, None]
                part += term
            del term  # only `part` goes on down
            carry(depth + 1, lies ^ move, part)

    if slots:
        carry(0, 0, spec.vectors.astype(np.complex128, copy=False))
    diag = np.einsum("bpk,bpk->bk", spec.vectors.conj(), ov)
    weights = _boltzmann(spec.values.ravel(), beta)
    return complex((weights * diag.ravel()).sum() / weights.sum())


def _check_left_support(indices, r: ReflectionData) -> None:
    allowed = set(r.left)
    stray = sorted(i for i in set(indices) if i not in allowed)
    if stray:
        raise ValueError(
            f"A touches {stray}: not in the Lambda_minus algebra of this mirror"
        )


def rp_functional(a: MajoranaPolynomial, r: ReflectionData, spec: Spectrum,
                  beta: float) -> complex:
    """Tr(A theta(A) e^{-beta H}) / Tr(e^{-beta H}) for the Spectrum of H.

    A must be supported on Lambda_minus; the theorem under test says the
    real part is >= 0, and the imaginary part is returned for the caller
    to report rather than assumed to vanish.

    theta(A) is formed symbolically (antilinear relabelling), then the
    Pauli strings of theta(A) and of A carry the eigenvectors in turn
    (`thermal_expectation`): the string map is an algebra homomorphism,
    so this is the expectation of the symbolic product A theta(A) at the
    cost of 2 * len(A) strings instead of len(A)**2 products.  It goes
    through the symbolic reflect and the eigenvectors, not through the
    Pauli table of `rp_gram`, so it is the second route that `check_rp`
    re-checks its witness on.
    """
    _check_left_support(a.support(), r)
    return thermal_expectation((a, reflect(a, r.sigma)), spec, beta)


def _walsh_hadamard(a: np.ndarray) -> None:
    """a[z] <- sum_q (-1)^popcount(q & z) a[q] over axis 0, in place.

    Each butterfly turns the pair (u, v) into (u + v, u - v) as
    u += v, v *= -2, v += u, so no stage allocates."""
    n = len(a)
    h = 1
    while h < n:
        pairs = a.reshape(n // (2 * h), 2, h, -1)
        u, v = pairs[:, 0], pairs[:, 1]
        u += v
        v *= -2
        v += u
        h *= 2


@dataclass(frozen=True)
class PauliTable:
    """Pauli table of a thermal state on the span of H's masks.

    table[z, place(x)] = P[x, z] = sum_q (-1)^popcount(q & z) rho[q, q ^ x]
    for the s strings x of the span, the block of label 0 of `gens`; off
    the span P[x, z] is exactly zero.
    """
    beta: float
    table: np.ndarray  # (dim, s) complex
    gens: tuple[int, ...]  # the Z-strings of the spectrum's split


def pauli_table(spec: Spectrum, beta: float) -> PauliTable:
    """The Pauli table of rho = e^{-beta (H - E0)} / Z, built block by block.

    rho is V_b diag(w_b) V_b^dagger in each Z-string block, one batched
    product.  It is block-diagonal, so rho[q, q ^ x] vanishes unless q and
    q ^ x share a block.  The blocks are the cosets of blocks[0], the
    block of label 0, so that holds for every q exactly when x lies in
    blocks[0], which `dense_spectrum`'s full split makes the span of H's
    masks.  Only those s columns are gathered, row q at place i reading
    place i ^ c of its block for the string of place c, and transformed
    (Walsh-Hadamard over q): a dim x s table instead of dim x dim.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    weights = _boltzmann(spec.values, beta)
    weights /= weights.sum()
    v = spec.vectors
    rho = (v * weights[:, None, :]) @ v.conj().transpose(0, 2, 1)
    place = np.arange(spec.blocks.shape[1])
    table = np.empty((spec.dim, len(place)), dtype=np.complex128)
    table[spec.blocks] = rho[:, place[:, None], place[:, None] ^ place]
    _walsh_hadamard(table)
    return PauliTable(beta=beta, table=table, gens=spec.gens)


def rp_gram(keys, r: ReflectionData, h, beta: float) -> np.ndarray:
    """Gram matrix G_ij = Tr(m_i theta(m_j) rho) of the RP form.

    `keys` are canonical monomial keys on Lambda_minus and rho is the
    thermal state e^{-beta (H - E0)} / Z.  theta is antilinear, so for
    A = sum_i a_i m_i the functional of `rp_functional` is y^dagger G y
    with y = conj(a), and RP on the span of the keys is G >= 0.  `h` is
    the Spectrum of H or its `pauli_table` at this beta, which one caller
    can share between spans.

    Every monomial is a Pauli string i^c X^x Z^z (`monomial_pauli`), and
    Tr(i^c X^x Z^z rho) = i^c P[x, z] reads the Pauli table of rho.  With
    m_i = (x_i, z_i, c_i) and theta(m_j) = (x'_j, z'_j, c'_j), the
    product m_i theta(m_j) is again a Pauli string, so the whole Gram is
    one lookup:

        G_ij = i^(c_i + c'_j + 2 popcount(z_i & x'_j)) P[x_i ^ x'_j, z_i ^ z'_j].

    An entry whose x_i ^ x'_j lies off the span of H's masks is an exact
    zero (see `pauli_table`).
    """
    _check_left_support([i for k in keys for i in k], r)
    tab = h if isinstance(h, PauliTable) else pauli_table(h, beta)
    if tab.beta != beta:
        raise ValueError(f"Pauli table built at beta {tab.beta}, not {beta}")
    n_modes = len(tab.table).bit_length() - 1

    # theta(m_j) is the mirrored product in the original order; its
    # coefficient conj(1) = 1, so it needs no recanonicalization here
    m = np.array([monomial_pauli(k, n_modes) for k in keys],
                 dtype=np.int64).reshape(-1, 3)
    t = np.array([monomial_pauli([r.sigma(i) for i in k], n_modes) for k in keys],
                 dtype=np.int64).reshape(-1, 3)
    x, z, c = m.T[:, :, None]  # m_i down the rows
    x_t, z_t, c_t = t.T[:, None, :]  # theta(m_j) across the columns
    phase = _PHASES[(c + c_t + 2 * _bit_parity(z & x_t)) & 3]
    x = x ^ x_t
    column = _places(x, tab.gens, n_modes)
    return np.where(_labels(x, tab.gens) == 0, phase * tab.table[z ^ z_t, column], 0)
