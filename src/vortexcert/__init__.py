"""Certification toolkit for Majorana island lattices.

Builds the island-plaquette Hamiltonian with imaginary bond couplings,
computes exact spectra at desk scale, and certifies the chain

    reflection symmetry -> reflection positivity -> octagon-loop order
        -> +1 vortex-loop expectations in every ground state

with explicit tolerances and machine-readable reports.
"""

__version__ = "0.1.0"


def _load_blas_with_short_spin() -> None:
    """Import numpy with a short OpenBLAS idle-thread timeout.

    OpenBLAS's idle workers busy-wait for 2**OPENBLAS_THREAD_TIMEOUT clock
    ticks (default 28, about 0.13 s at 2 GHz) after the library loads and
    after every threaded call, which costs more CPU than a short run's own
    work.  18 (about 0.13 ms) still spans the gaps between the BLAS calls
    of one LAPACK routine: at OpenBLAS's minimum, 4, the worker sleeps
    between them and the dense eigh of a 4,096-state operator pays about
    65,000 wake-ups (10% more wall time).  The library reads the timeout
    once, when numpy loads it, so it is set for that import only and then
    removed: the thread count and the arithmetic are unchanged, and
    neither os.environ nor a child process sees it.  A timeout the user
    set (OPENBLAS_THREAD_TIMEOUT or GOTO_THREAD_TIMEOUT), or numpy already
    loaded, is left alone.
    """
    import os
    import sys

    names = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")
    if "numpy" in sys.modules or any(v in os.environ for v in names):
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "18"
    try:
        import numpy  # OpenBLAS reads the timeout here, once
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]


# before the first submodule import: numpy loads with .fock
_load_blas_with_short_spin()

from .clifford import (
    GaussianRational,
    MajoranaPolynomial,
    ReflectionMap,
    anticommutator,
    commutator,
    multiply,
    reflect,
)
from .fock import DENSE_DIM_CAP, PauliSum, SparseOperator, to_matrix
from .lattice import (
    IslandLattice,
    LatticeError,
    Octagon,
    ReflectionData,
    ReflectionError,
    build_lattice,
    diamond_lattice,
    reflection_data,
    translations,
)
from .model import (
    ModelError,
    VortexLoop,
    bond_term,
    build_hamiltonian,
    island_term,
    loop_operator,
    model_manifest,
    parity_operator,
    verify_reflection_symmetry,
    vortex_operator,
)
from .spectral import (
    ConvergenceError,
    DenseCapError,
    GroundSpace,
    IllSeparatedError,
    NonHermitianError,
    PauliTable,
    SpectralError,
    Spectrum,
    canonical_subspace_basis,
    default_gap_tol,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    pauli_table,
    rp_functional,
    rp_gram,
    thermal_expectation,
)
from .verify import (
    CheckReport,
    PositivityResult,
    TopoResult,
    check_conservation,
    check_ground_positivity,
    check_rp,
    check_topological_order,
    loop_expectations,
    loop_product,
    rp_sample_polynomials,
    theorem_chain_violations,
    vortex_map,
)

__all__ = [
    "__version__",
    "GaussianRational",
    "MajoranaPolynomial",
    "ReflectionMap",
    "anticommutator",
    "commutator",
    "multiply",
    "reflect",
    "DENSE_DIM_CAP",
    "PauliSum",
    "SparseOperator",
    "to_matrix",
    "IslandLattice",
    "LatticeError",
    "Octagon",
    "ReflectionData",
    "ReflectionError",
    "build_lattice",
    "diamond_lattice",
    "reflection_data",
    "translations",
    "ModelError",
    "VortexLoop",
    "bond_term",
    "build_hamiltonian",
    "island_term",
    "loop_operator",
    "model_manifest",
    "parity_operator",
    "verify_reflection_symmetry",
    "vortex_operator",
    "ConvergenceError",
    "DenseCapError",
    "GroundSpace",
    "IllSeparatedError",
    "NonHermitianError",
    "PauliTable",
    "SpectralError",
    "Spectrum",
    "canonical_subspace_basis",
    "default_gap_tol",
    "dense_spectrum",
    "ground_space",
    "lanczos_ground",
    "pauli_table",
    "rp_functional",
    "rp_gram",
    "thermal_expectation",
    "CheckReport",
    "PositivityResult",
    "TopoResult",
    "check_conservation",
    "check_ground_positivity",
    "check_rp",
    "check_topological_order",
    "loop_expectations",
    "loop_product",
    "rp_sample_polynomials",
    "theorem_chain_violations",
    "vortex_map",
]
