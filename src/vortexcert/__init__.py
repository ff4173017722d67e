"""Certification toolkit for Majorana island lattices.

Builds the island-plaquette Hamiltonian with imaginary bond couplings,
computes exact spectra at desk scale, and certifies the chain

    reflection symmetry -> reflection positivity -> octagon-loop order
        -> +1 vortex-loop expectations in every ground state

with explicit tolerances and machine-readable reports.
"""

__version__ = "0.1.0"

from .clifford import (
    GaussianRational,
    MajoranaPolynomial,
    ReflectionMap,
    anticommutator,
    commutator,
    multiply,
    reflect,
)
from .fock import DENSE_DIM_CAP, SparseOperator, to_matrix
from .lattice import (
    IslandLattice,
    LatticeError,
    Octagon,
    ReflectionData,
    ReflectionError,
    build_lattice,
    diamond_lattice,
    reflection_data,
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
    SpectralError,
    Spectrum,
    canonical_subspace_basis,
    default_gap_tol,
    dense_spectrum,
    ground_space,
    lanczos_ground,
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
    "SpectralError",
    "Spectrum",
    "canonical_subspace_basis",
    "default_gap_tol",
    "dense_spectrum",
    "ground_space",
    "lanczos_ground",
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
    "rp_sample_polynomials",
    "theorem_chain_violations",
    "vortex_map",
]
