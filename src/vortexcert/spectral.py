"""Spectra, ground spaces and thermal functionals.

Dense eigendecomposition is used up to DENSE_DIM_CAP; above that a
restarted, fully reorthogonalized Lanczos iteration with sequential
deflation finds the low end of the spectrum.  Its Krylov basis and the
deflated vectors are stored row-major, one vector per row, so every
Gram-Schmidt pass is a pair of contiguous matrix-vector products that
conjugate only the new vector, never the basis.  The Lanczos ground
space carries its diagnostics: the eigenvalues found, the residual of
each vector and the matrix-vector products spent.  Ground-space bases
are made deterministic by re-orthogonalizing coordinate projections in
a fixed pivot order, so reports do not depend on eigensolver gauge.

Thermal quantities always shift energies by E0 before exponentiating;
beta can then be large without overflow.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# multiply is imported for the benchmark tracer (bench/tracing.py), which
# wraps it at this name
from .clifford import MajoranaPolynomial, multiply, reflect  # noqa: F401
from .fock import _PHASES, DENSE_DIM_CAP, SparseOperator, monomial_action, to_matrix
from .lattice import ReflectionData

# bump when the Majorana-to-matrix convention changes; keys the eigenvalue cache
REPRESENTATION_VERSION = 1

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
    # Lanczos diagnostics, empty on the dense route: the k eigenvalues
    # found (ascending; the cluster is the first n), the residual of each
    # one's vector and the matrix-vector products spent
    eigenvalues: tuple[float, ...] = ()
    residuals: tuple[float, ...] = ()
    matvecs: int = 0

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
    subspace, not on the gauge of the input columns.
    """
    q, _ = np.linalg.qr(basis)
    dim, n = q.shape
    coeffs: list[np.ndarray] = []
    out: list[np.ndarray] = []
    for i in range(dim):
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


def _lowest_eigenpair(apply, dim, rng, deflate, conv_tol, max_matvecs, window):
    """One converged lowest eigenpair, orthogonal to the `deflate` vectors.

    Thick-restart Lanczos with full reorthogonalization: the small
    projected matrix is accumulated exactly (Rayleigh-Ritz), restarts
    keep the lowest Ritz vectors plus the running residual direction.
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

        theta, s = np.linalg.eigh(t[:j, :j])
        res = beta * abs(s[j - 1, 0])
        best_res = min(best_res, res)
        if res <= conv_tol * max(1.0, abs(theta[0])):
            # estimate says converged; accept only if the true residual agrees
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


def lanczos_ground(op: SparseOperator, k: int = 3, seed: int = 0,
                   gap_tol: float | None = None, conv_tol: float = 1e-9,
                   max_matvecs: int = 60000, window: int = 64) -> GroundSpace:
    """Ground cluster via deflated Lanczos; k must exceed the degeneracy.

    Finds the k lowest eigenpairs one at a time, deflating each
    converged vector, then clusters exactly as ground_space does.  If
    every found eigenvalue fits inside the cluster the degeneracy may
    exceed k, so that is an error: request a larger k.  The k
    eigenvalues, their residuals and the products spent are returned on
    the GroundSpace.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k must be in 1..{op.dim}")
    rng = np.random.default_rng(seed)
    vals: list[float] = []
    vecs: list[np.ndarray] = []
    res: list[float] = []
    budget = max_matvecs
    for _ in range(k):
        val, vec, r, used = _lowest_eigenpair(
            op.apply, op.dim, rng, vecs, conv_tol, budget, window)
        budget -= used
        vals.append(val)
        vecs.append(vec)
        res.append(r)
    order = np.argsort(vals)
    values = np.array([vals[i] for i in order])
    columns = [vecs[i] for i in order]
    e0 = float(values[0])
    if gap_tol is None:
        gap_tol = default_gap_tol(e0)
    n = _cluster_count(values, gap_tol)
    if n == k and k < op.dim:
        raise ConvergenceError(
            f"all {k} eigenvalues fall in the ground cluster; the degeneracy "
            f"may be larger, request k > {k}"
        )
    basis = canonical_subspace_basis(np.column_stack(columns[:n]))
    return GroundSpace(e0=e0, basis=basis, gap_tol=gap_tol,
                       eigenvalues=tuple(float(v) for v in values),
                       residuals=tuple(res[i] for i in order),
                       matvecs=max_matvecs - budget)


# ---------------------------------------------------------------------------
# Thermal functionals (dense only: positivity must be resolved to 1e-9,
# which stochastic trace estimators cannot do at desk effort)

def _as_spectrum(h) -> Spectrum:
    if isinstance(h, Spectrum):
        return h
    return dense_spectrum(h)


def thermal_expectation(o: SparseOperator, h, beta: float) -> complex:
    """<O> in the thermal state e^{-beta H} / Z, energies shifted by E0."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    spec = _as_spectrum(h)
    if o.dim != spec.dim:
        raise ValueError("operator and Hamiltonian dimensions differ")
    weights = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    ov = o.matrix @ spec.eigenvectors
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
    theta(A) are mapped to Fock matrices separately and multiplied there:
    to_matrix is an algebra homomorphism, so this equals the matrix of the
    symbolic product A theta(A) while costing 2 * len(A) monomial actions
    instead of len(A)**2.  It goes through the symbolic reflect and the
    Fock map, not through the per-entry gather of `rp_gram`, so it is the
    second route that `check_rp` re-checks its witness on.
    """
    _check_left_support(a.support(), r)
    spec = _as_spectrum(h)
    n_modes = spec.dim.bit_length() - 1
    w_a = to_matrix(a, n_modes).matrix @ to_matrix(reflect(a, r.sigma), n_modes).matrix
    return thermal_expectation(SparseOperator(w_a, n_modes), spec, beta)


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


# ---------------------------------------------------------------------------
# Eigenvalue cache plumbing

def spectrum_cache_key(lattice_hash: str, lam: float,
                       version: int = REPRESENTATION_VERSION) -> str:
    payload = f"{lattice_hash}:{float(lam)!r}:{version}"
    return hashlib.sha256(payload.encode()).hexdigest()


def save_eigenvalues(path, values) -> None:
    """Write through a temporary file in the target directory and rename
    it into place, so a reader never sees a partly written file.  The
    file gets the umask's default mode, as a direct write would."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(np.asarray(values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_eigenvalues(path, dim: int) -> np.ndarray | None:
    """Cached eigenvalues, or None if the file cannot be a full spectrum:
    wrong length (e.g. a truncated write), a non-finite value, or values
    out of ascending order."""
    values = np.fromfile(path, dtype="<f8")
    if len(values) != dim:
        return None
    if not (np.isfinite(values).all() and (np.diff(values) >= 0).all()):
        return None
    return values
