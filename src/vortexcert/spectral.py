"""Spectra, ground spaces and thermal functionals.

Dense eigendecomposition is used up to DENSE_DIM_CAP; above that a
restarted, fully reorthogonalized Lanczos iteration with sequential
deflation finds the low end of the spectrum, up to the first level
above the ground cluster.  Its Krylov basis and the deflated vectors
are stored row-major, one vector per row, so every Gram-Schmidt pass is
a pair of contiguous matrix-vector products that conjugate only the new
vector, never the basis.  The iteration runs in exact symmetry blocks:
diagonal Z-strings (-1)^popcount(n & g) that commute with H, found by
GF(2) elimination of the bit masks of the stored entries.  Each block
is the `SparseOperator.block` of H, so its products are the same numpy
gathers as the full operator's.  The fermion parity (-1)^N is the first
split, and further strings halve the blocks while each keeps
SYMMETRY_BLOCK_FLOOR states (16 blocks of 4,096 on the 4x4 torus: short
vectors, a Krylov basis that fits in cache); the eigenpairs of the
blocks are merged.  An operator that couples the parities is the one
block.  Every block starts with a Gershgorin floor, a rigorous lower
bound on its spectrum from one pass over the stored entries, so a block
whose floor lies above the values already certified is closed without a
solve.  The Lanczos ground space carries its diagnostics: the
eigenvalues reported, the residual of each vector, the parity of the
block each came from, the block count and dimension, the blocks closed
by their floor and the matrix-vector products spent.
Ground-space bases are made deterministic by re-orthogonalizing
coordinate projections in a fixed pivot order, so reports do not depend
on eigensolver gauge.

Thermal quantities always shift energies by E0 before exponentiating;
beta can then be large without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# multiply is imported for the benchmark tracer (bench/tracing.py), which
# wraps it at this name
from .clifford import MajoranaPolynomial, multiply, reflect  # noqa: F401
from .fock import (
    _PHASES,
    DENSE_DIM_CAP,
    SparseOperator,
    _bit_parity,
    monomial_action,
    to_matrix,
)
from .lattice import ReflectionData

HERMITICITY_TOL = 1e-12
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


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # ascending, real
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class GroundSpace:
    e0: float
    basis: np.ndarray  # dim x N orthonormal columns, deterministic gauge
    gap_tol: float
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
    # blocks closed by their Gershgorin floor without a solve
    closed_by_bound: int = 0

    @property
    def n(self) -> int:
        return self.basis.shape[1]


def default_gap_tol(e0: float) -> float:
    return 1e-8 * max(1.0, abs(e0))


def dense_spectrum(op: SparseOperator) -> Spectrum:
    if op.dim > DENSE_DIM_CAP:
        raise DenseCapError(f"dim {op.dim} exceeds the dense cap {DENSE_DIM_CAP}")
    defect = op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise NonHermitianError(f"hermiticity defect {defect:.3e}")
    w, v = np.linalg.eigh(op.to_dense())
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _cluster_count(values: np.ndarray, gap_tol: float) -> int:
    """Size of the ground cluster; rejects a cut with nearby weight.

    An eigenvalue whose offset from E0 lies within a decade of gap_tol
    on either side makes the cluster boundary ambiguous.
    """
    rel = values - values[0]
    ambiguous = (rel > gap_tol / 10) & (rel <= 10 * gap_tol)
    if ambiguous.any():
        worst = float(rel[ambiguous][0])
        raise IllSeparatedError(
            f"eigenvalue at E0 + {worst:.3e} is within a decade of "
            f"gap_tol = {gap_tol:.3e}; choose a different tolerance"
        )
    return int((rel <= gap_tol).sum())


def canonical_subspace_basis(basis: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(columns).

    Projects coordinate vectors e_0, e_1, ... into the subspace,
    Gram-Schmidts them in that fixed order, keeps the ones with
    non-negligible residual, and fixes each phase by making the lowest
    non-negligible amplitude real positive.  Depends only on the
    subspace, not on the gauge of the input columns.  A coordinate whose
    projection is already negligible cannot leave a larger residual, so
    those rows are dropped in one pass before the loop.
    """
    q, _ = np.linalg.qr(basis)
    n = q.shape[1]
    coeffs: list[np.ndarray] = []
    out: list[np.ndarray] = []
    for i in np.flatnonzero(np.linalg.norm(q, axis=1) > 1e-8):
        c = q[i, :].conj().copy()
        for a in coeffs:
            c -= a * (a.conj() @ c)
        nrm = np.linalg.norm(c)
        if nrm <= 1e-8:
            continue
        c /= nrm
        coeffs.append(c)
        v = q @ c
        j = int(np.argmax(np.abs(v) > 1e-10))
        v *= v[j].conjugate() / abs(v[j])
        out.append(v)
        if len(out) == n:
            break
    if len(out) != n:
        raise SpectralError("could not pivot a full basis; subspace degenerate?")
    return np.column_stack(out)


def ground_space(op, gap_tol: float | None = None) -> GroundSpace:
    """Ground cluster of a Hermitian operator (dense route).

    Accepts a SparseOperator or a precomputed Spectrum.  The cluster is
    {E : E - E0 <= gap_tol}; a spectrum with weight within a decade of
    the cut raises IllSeparatedError rather than guessing.
    """
    spec = op if isinstance(op, Spectrum) else dense_spectrum(op)
    e0 = float(spec.eigenvalues[0])
    if gap_tol is None:
        gap_tol = default_gap_tol(e0)
    n = _cluster_count(spec.eigenvalues, gap_tol)
    basis = canonical_subspace_basis(spec.eigenvectors[:, :n])
    return GroundSpace(e0=e0, basis=basis, gap_tol=gap_tol)


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


# the projected matrix is diagonalized (the Ritz check) only at every
# RITZ_STRIDE-th Krylov dimension, and at every restart or invariant
# subspace, where the Ritz pairs are needed anyway: a per-step eigh costs
# more than the few products a later acceptance adds
RITZ_STRIDE = 4


def _lowest_eigenpair(apply, dim, rng, deflate, conv_tol, max_matvecs, window):
    """One converged lowest eigenpair, orthogonal to the `deflate` vectors.

    Thick-restart Lanczos with full reorthogonalization: the small
    projected matrix is accumulated exactly (Rayleigh-Ritz), restarts
    keep the lowest Ritz vectors plus the running residual direction.
    The Ritz check runs at every RITZ_STRIDE-th Krylov dimension.
    The Krylov basis is stored row-major, q[j] being the j-th vector.
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

    def rayleigh(y):
        # one product: (Rayleigh quotient, unit vector, true residual)
        y = dproj(y)
        y /= np.linalg.norm(y)
        hy = apply(y)
        val = float(np.vdot(y, hy).real)
        return val, y, float(np.linalg.norm(hy - val * y))

    q = np.empty((window, dim), dtype=np.complex128)
    t = np.zeros((window, window), dtype=np.complex128)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = dproj(v)
    q[0] = v / np.linalg.norm(v)
    j = 1
    matvecs = 0
    best_res = np.inf

    while matvecs < max_matvecs:
        w = apply(q[j - 1])
        matvecs += 1
        w = dproj(w)
        h = _project_out(q[:j], w)
        h += _project_out(q[:j], w)
        t[: j, j - 1] = h
        t[j - 1, : j] = h.conj()
        beta = np.linalg.norm(w)

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
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v = dproj(v)
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


def _echelon_insert(rows: dict, v: int) -> bool:
    """Add v to `rows`, a reduced echelon basis over GF(2) (pivot bit ->
    row, each row clear at every other pivot); False if v is in its span."""
    for p, r in rows.items():
        if v >> p & 1:
            v ^= r
    if not v:
        return False
    p = v.bit_length() - 1
    for q in list(rows):
        if rows[q] >> p & 1:
            rows[q] ^= v
    rows[p] = v
    return True


def _symmetry_blocks(op: SparseOperator) -> np.ndarray:
    """Basis indices of the diagonal blocks the Lanczos runs in, one row
    per block.

    Every stored entry of the matrix sits at (n, n ^ s) for a bit mask s.
    A Z-string (-1)^popcount(n & g) is diagonal in the Fock basis and
    commutes with H exactly when popcount(g & s) is even for every stored
    mask s, i.e. when g lies in the annihilator of their span; the joint
    eigenspaces of such strings are exact invariant blocks.  The
    annihilator comes from GF(2) elimination of the distinct masks.  The
    fermion parity (-1)^N (g all ones) is the first split; the
    annihilator's generators follow, lowest free bit first, while every
    block keeps SYMMETRY_BLOCK_FLOOR states, so each block has 2^m states
    and a definite parity.  An operator that couples the parities is the
    one block.  The test is structural, so it is exact: zero slots are
    padding and are not read.
    """
    full = np.arange(op.dim, dtype=np.int64)
    stored = (op.cols ^ full)[op.values != 0]
    masks = np.flatnonzero(np.bincount(stored, minlength=op.dim))
    if op.n_modes < 1 or _bit_parity(masks).any():
        return full[None, :]
    span: dict = {}
    for s in masks.tolist():
        _echelon_insert(span, s)
    # one annihilator generator per free bit f: e_f plus the pivots of
    # the rows that hold f, so it meets every row in two bits or none
    free = [f for f in range(op.n_modes) if f not in span]
    annihilator = [(1 << f) | sum(1 << p for p, r in span.items() if r >> f & 1)
                   for f in free]
    gens = [op.dim - 1]  # the parity string: every mode
    chosen: dict = {}
    _echelon_insert(chosen, gens[0])
    for g in annihilator:
        if op.dim >> (len(gens) + 1) < SYMMETRY_BLOCK_FLOOR:
            break
        if _echelon_insert(chosen, g):
            gens.append(g)
    labels = sum(_bit_parity(full & g) << i for i, g in enumerate(gens))
    return np.argsort(labels, kind="stable").reshape(1 << len(gens), -1)


def _row_floors(op: SparseOperator) -> np.ndarray:
    """Lower end of each row's Gershgorin disc, Re H_ii - sum_{j != i} |H_ij|.

    The diagonal is the slot whose column is the row itself, and zero
    padding adds nothing.  Every eigenvalue of a Hermitian block lies in
    the union of its rows' discs, so the least floor over an invariant
    block's rows bounds its spectrum from below.  Each floor is lowered by
    (k + 2) eps times its row's absolute sum, for k slots per row, which
    covers the round-off of the sums.
    """
    diag = op.cols == np.arange(op.dim)
    centre = np.where(diag, op.values.real, 0).sum(axis=0)
    radius = np.where(diag, 0, np.abs(op.values)).sum(axis=0)
    slack = (len(op.cols) + 2) * np.finfo(float).eps * (np.abs(centre) + radius)
    return centre - radius - slack


def lanczos_ground(op: SparseOperator, k: int = 1, seed: int = 0,
                   gap_tol: float | None = None, conv_tol: float = 1e-9,
                   max_matvecs: int = 60000, window: int = 64) -> GroundSpace:
    """Ground cluster via deflated Lanczos, closed by the solver itself.

    Runs inside the Z-string symmetry blocks of `_symmetry_blocks`: the
    two fermion-parity blocks, split further while the blocks stay at
    least SYMMETRY_BLOCK_FLOOR states (16 blocks of 4,096 on the 4x4
    torus), or one block if the operator couples the parities.  Each
    block has a lower bound: its last-found eigenvalue, since its later
    ones lie above it, or before its first solve its Gershgorin floor
    (`_row_floors`).  Each step finds one more eigenpair, deflated
    against the earlier ones of its block, in the block whose bound is
    lowest (ties in block order), and a value found is certified once it
    is <= the bound of every block with states left.  The search stops
    once at least k values are certified and one of them lies above the
    cluster cut (E0 + gap_tol, clustered exactly as ground_space does),
    or once every state is found; k is only a floor.  A block whose floor
    lies above that certified prefix is closed without a solve, and its
    block operator is never built.  One RNG and one matvec budget are
    shared in that fixed order, so results are deterministic.  The
    reported eigenvalues are the shortest certified prefix that meets
    the rule, max(k, n + 1) of them for a cluster of n: the cluster and
    the first value above it.  They come with their true residuals,
    their block parities (none with a single block), the block count and
    dimension, the count of blocks closed by their floor and the
    block-length products spent.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k must be in 1..{op.dim}")
    rng = np.random.default_rng(seed)
    blocks = _symmetry_blocks(op)
    size = blocks.shape[1]
    floors = _row_floors(op)[blocks].min(axis=1)
    ops: dict[int, SparseOperator] = {}
    found: list[list[tuple[float, np.ndarray, float]]] = [[] for _ in blocks]
    budget = max_matvecs
    while True:
        open_ = [b for b in range(len(blocks)) if len(found[b]) < size]
        last = [found[b][-1][0] if found[b] else floors[b] for b in open_]
        bound = min(last, default=np.inf)
        certified = sorted(val for pairs in found for val, _, _ in pairs
                           if val <= bound)
        if not open_:
            break
        if len(certified) >= k:
            tol = default_gap_tol(certified[0]) if gap_tol is None else gap_tol
            if certified[-1] - certified[0] > tol:
                break
        b = open_[int(np.argmin(last))]
        if b not in ops:
            ops[b] = op.block(blocks[b])
        val, vec, r, used = _lowest_eigenpair(
            ops[b].apply, size, rng, [v for _, v, _ in found[b]],
            conv_tol, budget, window)
        budget -= used
        found[b].append((val, vec, r))

    pairs = sorted(((val, b, vec, r) for b, block in enumerate(found)
                    for val, vec, r in block), key=lambda p: p[0])
    e0 = certified[0]
    if gap_tol is None:
        gap_tol = default_gap_tol(e0)
    n = _cluster_count(np.array(certified), gap_tol)
    pairs = pairs[:max(k, n + 1)]
    columns = []
    for _, b, vec, _ in pairs[:n]:
        full = np.zeros(op.dim, dtype=np.complex128)
        full[blocks[b]] = vec
        columns.append(full)
    basis = canonical_subspace_basis(np.column_stack(columns))
    parity = _bit_parity(blocks[:, 0])
    return GroundSpace(e0=e0, basis=basis, gap_tol=gap_tol,
                       eigenvalues=tuple(float(val) for val, _, _, _ in pairs),
                       residuals=tuple(r for _, _, _, r in pairs),
                       parities=() if len(blocks) == 1 else
                       tuple(int(parity[b]) for _, b, _, _ in pairs),
                       blocks=(len(blocks), size),
                       closed_by_bound=len(blocks) - len(ops),
                       matvecs=max_matvecs - budget)


# ---------------------------------------------------------------------------
# Thermal functionals (dense only: positivity must be resolved to 1e-9,
# which stochastic trace estimators cannot do at desk effort)

def _as_spectrum(h) -> Spectrum:
    if isinstance(h, Spectrum):
        return h
    return dense_spectrum(h)


def thermal_expectation(o, h, beta: float) -> complex:
    """<O> in the thermal state e^{-beta H} / Z, energies shifted by E0.

    `o` is a SparseOperator, or a sequence of them standing for their
    product (applied right to left, never multiplied out).
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    spec = _as_spectrum(h)
    factors = o if isinstance(o, (list, tuple)) else (o,)
    if any(f.dim != spec.dim for f in factors):
        raise ValueError("operator and Hamiltonian dimensions differ")
    weights = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    ov = spec.eigenvectors
    for f in reversed(factors):
        ov = f.apply(ov)
    diag = np.einsum("ij,ij->j", spec.eigenvectors.conj(), ov)
    return complex((weights * diag).sum() / weights.sum())


def _check_left_support(indices, r: ReflectionData) -> None:
    allowed = set(r.left)
    stray = sorted(i for i in set(indices) if i not in allowed)
    if stray:
        raise ValueError(
            f"A touches {stray}: not in the Lambda_minus algebra of this mirror"
        )


def rp_functional(a: MajoranaPolynomial, r: ReflectionData, h, beta: float) -> complex:
    """Tr(A theta(A) e^{-beta H}) / Tr(e^{-beta H}).

    A must be supported on Lambda_minus; the theorem under test says the
    real part is >= 0, and the imaginary part is returned for the caller
    to report rather than assumed to vanish.

    theta(A) is formed symbolically (antilinear relabelling), then A and
    theta(A) are mapped to Fock operators separately and applied in turn:
    to_matrix is an algebra homomorphism, so this equals the operator of
    the symbolic product A theta(A) while costing 2 * len(A) monomial
    actions instead of len(A)**2.  It goes through the symbolic reflect
    and the Fock map, not through the per-entry gather of `rp_gram`, so
    it is the second route that `check_rp` re-checks its witness on.
    """
    _check_left_support(a.support(), r)
    spec = _as_spectrum(h)
    n_modes = spec.dim.bit_length() - 1
    w_a = (to_matrix(a, n_modes), to_matrix(reflect(a, r.sigma), n_modes))
    return thermal_expectation(w_a, spec, beta)


def rp_gram(keys, r: ReflectionData, h, beta: float) -> np.ndarray:
    """Gram matrix G_ij = Tr(m_i theta(m_j) rho) of the RP form.

    `keys` are canonical monomial keys on Lambda_minus and rho is the
    thermal state e^{-beta (H - E0)} / Z.  theta is antilinear, so for
    A = sum_i a_i m_i the functional of `rp_functional` is y^dagger G y
    with y = conj(a), and RP on the span of the keys is G >= 0.

    Every monomial and mirrored monomial is a signed permutation
    n -> n ^ mask, so an entry is one gather over the basis:
    sum_q phase(q) * rho[q, q ^ a_i ^ b_j], where m_i has mask a_i and
    theta(m_j) has mask b_j.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    _check_left_support([i for k in keys for i in k], r)
    spec = _as_spectrum(h)
    dim = spec.dim
    n_modes = dim.bit_length() - 1
    weights = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    vecs = spec.eigenvectors
    rho = (vecs * (weights / weights.sum())) @ vecs.conj().T

    # theta(m_j) is the mirrored product in the original order; its
    # coefficient conj(1) = 1, so it needs no recanonicalization here
    acts = [monomial_action(k, n_modes) for k in keys]
    mirrored = [monomial_action([r.sigma(i) for i in k], n_modes) for k in keys]
    mask_m = np.array([int(perm[0]) for perm, _ in acts], dtype=np.int64)
    mask_t = np.array([int(perm[0]) for perm, _ in mirrored], dtype=np.int64)
    exp_t = np.array([exp for _, exp in mirrored], dtype=np.int64).reshape(-1, dim)

    q = np.arange(dim, dtype=np.int64)
    q_t = q[None, :] ^ mask_t[:, None]  # row j: theta(m_j) maps q to q ^ b_j
    gram = np.empty((len(keys), len(keys)), dtype=np.complex128)
    for i in range(len(keys)):
        phase = _PHASES[(acts[i][1][q_t] + exp_t) & 3]
        gram[i] = (phase * rho[q, q_t ^ mask_m[i]]).sum(axis=1)
    return gram
