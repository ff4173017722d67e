"""Reference ground energies by a route independent of vortexcert's Fock
layer and eigensolvers.

    python3 bench/reference.py '{"argv": [command, flags...], "seed": n}'

The lattice, the lambda grid and the beta list are those of the command
line `argv` as vortexcert's own config resolution reads it.  The
Hamiltonian comes from vortexcert's model (the definition under test),
its matrix from Jordan-Wigner Kronecker products, and its low spectrum
from numpy ``eigvalsh`` up to dim 4096, scipy ``eigsh`` beyond.  Prints
``{"lambdas": [...], "betas": [...], "references": [[lambda, e0,
degeneracy, octagons], ...], "stack": {numpy, scipy, blas}}``.

It runs as its own process so that bench/run.py stays small: a
child's peak resident memory, as the kernel reports it, is at least its
parent's at the time of the fork.
"""

import json
import sys
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from gate import gap_tol

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

DENSE_DIM = 4096


def jordan_wigner(n_modes: int) -> list:
    """c_{2k} = Z_0..Z_{k-1} X_k and c_{2k+1} = Z_0..Z_{k-1} Y_k, mode k
    being bit k of the basis index."""
    eye = sp.identity(2, dtype=complex, format="csr")
    pauli_z = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    pauli_x = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
    pauli_y = sp.csr_matrix(np.array([[0, -1j], [1j, 0]]))
    gens = []
    for k in range(n_modes):
        for head in (pauli_x, pauli_y):
            m = sp.identity(1, dtype=complex, format="csr")
            for j in range(n_modes):  # each later factor is a higher bit
                m = sp.kron(eye if j > k else head if j == k else pauli_z, m,
                            format="csr")
            gens.append(m)
    return gens


def ground(lat, lam: float, gens, seed: int) -> tuple[float, int]:
    from vortexcert.model import build_hamiltonian

    dim = 1 << lat.n_modes
    h = sp.csr_matrix((dim, dim), dtype=complex)
    for key, coeff in build_hamiltonian(lat, lam).terms().items():
        term = sp.identity(dim, dtype=complex, format="csr")
        for i in key:
            term = term @ gens[i]
        h = h + complex(coeff) * term
    if dim <= DENSE_DIM:
        values = np.linalg.eigvalsh(h.toarray())
    else:
        v0 = np.random.default_rng(seed).standard_normal(dim).astype(complex)
        # tol 1e-10 resolves e0 far inside the gate's 1e-8 comparison and
        # is ten times faster than machine precision here
        values = np.sort(sla.eigsh(h, k=4, which="SA", v0=v0, ncv=24,
                                   tol=1e-10, return_eigenvectors=False))
    e0 = float(values[0])
    n = int((values - e0 <= gap_tol(e0)).sum())
    if n == len(values):
        raise RuntimeError(f"reference ground cluster fills all {n} eigenvalues")
    return e0, n


def lambda_grid(lam) -> list[float]:
    """A scalar lambda, or ``steps`` evenly spaced values from ``from`` to
    ``to``, both ends included (--lambda.from/to/steps)."""
    if not isinstance(lam, dict):
        return [float(lam)]
    lo, hi, steps = float(lam["from"]), float(lam["to"]), lam["steps"]
    return [lo + (hi - lo) * i / max(steps - 1, 1) for i in range(steps)]


def main(spec: dict) -> dict:
    import vortexcert.cli as cli
    from vortexcert.lattice import build_lattice

    cfg = cli.resolve_config(cli.build_parser().parse_args(spec["argv"]))
    lx, ly, boundary, islands = (cfg["lattice"][k] for k in
                                 ("lx", "ly", "boundary", "islands"))
    lat = build_lattice(lx, ly, boundary,
                        islands=islands and [tuple(p) for p in islands])
    beta = cfg["beta"]
    lambdas = lambda_grid(cfg["lambda"])
    gens = jordan_wigner(lat.n_modes)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "lambdas": lambdas,
        "betas": [float(b) for b in (beta if isinstance(beta, list) else [beta])],
        "references": [[lam, *ground(lat, lam, gens, spec["seed"]),
                        len(lat.octagons)] for lam in lambdas],
        "stack": {"numpy": np.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"},
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
