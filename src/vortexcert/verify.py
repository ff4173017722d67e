"""The certification checks.

Each check measures one link of the chain

    reflection symmetry -> reflection positivity -> topological order
    -> vortex-loop expectations +1 in every ground state

and returns either a CheckReport (self-contained, re-runnable from its
witness) or a small result tuple the frontend wraps into one.

Reflection positivity is decided on a Gram matrix.  The trial elements
are exhaustive even monomials to degree 4 on Lambda_minus plus seeded
random even polynomials with unit-disk coefficients, held as one
(samples x monomials) coefficient array: identity rows for the
monomials, one RNG draw for all random samples.  Every sample is
evaluated as y^dagger G y over the span of the samples' monomials, and
the verdict also demands lambda_min(G) >= -tol, which certifies every
element of that span, not just the samples.  Only the reported witness
becomes a polynomial again; its value is re-checked on a second route,
the Fock operators of theta(A) and A applied in turn.  Odd elements
are measured in a separate report that is never asserted: the
positivity literature is written for the even case and we refuse to
hard-fail on a case left implicit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .clifford import MajoranaPolynomial, commutator
from .fock import SparseOperator, to_matrix
from .lattice import IslandLattice, ReflectionData
from .model import (
    build_hamiltonian,
    parity_operator,
    vortex_operator,
)
from .spectral import (
    GRAM_AGREEMENT_TOL,
    GroundSpace,
    SpectralError,
    Spectrum,
    dense_spectrum,
    rp_functional,
    rp_gram,
)

DEFAULT_RP_TOL = 1e-9
DEFAULT_TOPO_TOL = 1e-8
DEFAULT_POS_TOL = 1e-8
DEFAULT_CLASS_TOL = 1e-6


@dataclass(frozen=True)
class RPSampleSpec:
    """One family of trial elements A drawn from the Lambda_minus algebra."""

    mode: str  # "exhaustive-monomials" | "random-polynomials"
    max_degree: int = 4
    count: int = 100
    seed: int = 0
    parity: str = "even"  # even | odd

    def __post_init__(self):
        if self.mode not in ("exhaustive-monomials", "random-polynomials"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"unknown parity filter {self.parity!r}")
        if self.max_degree < 0 or self.count < 0:
            raise ValueError("max_degree and count must be >= 0")


def default_rp_samples(seed: int = 0, *, parity: str = "even", max_degree: int = 4,
                       count: int = 100) -> tuple[RPSampleSpec, RPSampleSpec]:
    """The (exhaustive, random) sample families of one parity."""
    return (
        RPSampleSpec(mode="exhaustive-monomials", max_degree=max_degree, parity=parity),
        RPSampleSpec(mode="random-polynomials", max_degree=max_degree, count=count,
                     seed=seed, parity=parity),
    )


def _degree_basis(indices: tuple[int, ...], max_degree: int, parity: str):
    """All monomial keys over `indices` of the given degree parity."""
    for deg in range(1 if parity == "odd" else 0, max_degree + 1, 2):
        yield from itertools.combinations(sorted(indices), deg)


def _sample_witness(key: str, a) -> str:
    """Sample id plus a bounded rendering; the key and seed pin the
    polynomial exactly, so huge renders add nothing."""
    text = a.render()
    if len(text) > 160:
        text = f"{text[:157]}... ({len(a)} terms)"
    return f"{key} A = {text}"


def _sample_rows(spec: RPSampleSpec, indices, tag: str = ""):
    """Deterministic (labels, keys, coefficients) of one sample spec.

    coefficients[s, j] is sample s's coefficient of monomial keys[j].
    Exhaustive monomials are identity rows.  Random samples come from one
    draw of shape (count, len(keys), 2), column 0 the radius draw and
    column 1 the angle draw of a point uniform on the complex unit disk,
    so the stream runs radius, angle per key, key by key, sample by
    sample.
    """
    keys = list(_degree_basis(tuple(sorted(indices)), spec.max_degree, spec.parity))
    if spec.mode == "exhaustive-monomials":
        labels = ["m{}:{}".format(tag, ",".join(map(str, key))) for key in keys]
        return labels, keys, np.eye(len(keys), dtype=np.complex128)
    draws = np.random.default_rng(spec.seed).uniform(size=(spec.count, len(keys), 2))
    radius = np.sqrt(draws[..., 0])
    angle = 2 * np.pi * draws[..., 1]
    coeffs = np.empty((spec.count, len(keys)), dtype=np.complex128)
    coeffs.real = radius * np.cos(angle)
    coeffs.imag = radius * np.sin(angle)
    return [f"r{tag}:{n:04d}" for n in range(spec.count)], keys, coeffs


def _polynomial(keys, row) -> MajoranaPolynomial:
    """The polynomial sum_j row[j] * m_j; zero coefficients drop out."""
    return MajoranaPolynomial({key: complex(c) for key, c in zip(keys, row)})


def rp_sample_polynomials(spec: RPSampleSpec, indices,
                          tag: str = "") -> list[tuple[str, MajoranaPolynomial]]:
    """Deterministic (label, A) list for one sample spec."""
    labels, keys, coeffs = _sample_rows(spec, indices, tag)
    return [(label, _polynomial(keys, row)) for label, row in zip(labels, coeffs)]


@dataclass(frozen=True)
class CheckReport:
    check: str
    lattice: str  # content hash
    params: dict
    tolerances: dict
    verdict: str  # pass | fail | skipped
    worst: dict | None
    timing_ms: float | None
    version: str = __version__
    # diagnostics for the bundle's sidecar; never part of to_dict, so the
    # deterministic payload does not depend on round-off in them
    sidecar: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "check": self.check,
            "lattice": self.lattice,
            "params": dict(self.params),
            "tolerances": dict(self.tolerances),
            "verdict": self.verdict,
            "worst": dict(self.worst) if self.worst is not None else None,
            "timing_ms": self.timing_ms if include_timing else None,
            "version": self.version,
        }
        return d


def check_rp(lat: IslandLattice, r: ReflectionData, lam: float, beta: float,
             specs=None, tol: float = DEFAULT_RP_TOL,
             spectrum: Spectrum | None = None, name: str = "rp",
             seed: int = 0) -> CheckReport:
    """Tr(A theta(A) e^{-beta H})/Z over A in the Lambda_minus algebra.

    One Gram matrix G over the monomials of all samples gives every
    sample's value as y^dagger G y (y = conj of its coefficients).  Pass
    iff the minimum real part stays above -tol, every imaginary part
    stays within tol, and lambda_min(G) >= -tol, so the whole span is
    certified.  A failing sample is the witness; if only G fails, the
    witness is its lowest eigenvector, keyed "g:min".  With monomials but
    no samples lambda_min(G) alone decides, with the "g:min" witness.
    The samples are rows of one coefficient array and never become
    polynomials; only the witness does.  It is recomputed through
    `rp_functional` (the Fock operators of theta(A), then A, applied to
    the thermal eigenvectors), and a disagreement beyond
    round-off (GRAM_AGREEMENT_TOL, independent of tol) raises
    SpectralError.  Witnesses are serialized in canonical text, so a
    failure is a standalone regression case.  The report's sidecar holds
    the Gram size, lambda_min(G) (measured on every run) and the
    re-check's deviation.  A trial span with no monomials (odd elements
    at max_degree 0) is "skipped", its witness naming parity and degree.
    """
    t0 = time.perf_counter()
    if specs is None:
        specs = default_rp_samples(seed)
    if isinstance(specs, RPSampleSpec):
        specs = (specs,)
    if spectrum is None:
        h = build_hamiltonian(lat, lam)
        spectrum = dense_spectrum(to_matrix(h, lat.n_modes))

    rows = [_sample_rows(sp, r.left, tag=str(k) if k else "")
            for k, sp in enumerate(specs)]
    keys = sorted({key for _, spec_keys, _ in rows for key in spec_keys})
    seeds = [sp.seed for sp in specs if sp.mode == "random-polynomials"]
    params = {"lambda": float(lam), "beta": float(beta),
              "seed": seeds[0] if seeds else None}
    if not keys:
        parities = "/".join(sorted({sp.parity for sp in specs}))
        degree = max((sp.max_degree for sp in specs), default=0)
        return CheckReport(
            check=name, lattice=lat.content_hash(), params=params,
            tolerances={"rp": tol}, verdict="skipped",
            worst={"value_re": 0.0, "value_im": 0.0,
                   "witness": f"no {parities} monomials of degree <= {degree} "
                              f"on Lambda_minus"},
            timing_ms=1e3 * (time.perf_counter() - t0), version=__version__)

    column = {key: j for j, key in enumerate(keys)}
    labels = [label for spec_labels, _, _ in rows for label in spec_labels]
    coeffs = np.zeros((len(labels), len(keys)), dtype=np.complex128)
    start = 0
    for spec_labels, spec_keys, block in rows:
        cols = [column[key] for key in spec_keys]
        coeffs[start:start + len(spec_labels), cols] = block
        start += len(spec_labels)
    order = sorted(range(len(labels)), key=labels.__getitem__)
    labels = [labels[i] for i in order]
    coeffs = coeffs[order]

    gram = rp_gram(keys, r, spectrum, beta)
    # F(A) = sum_ij a_i G_ij conj(a_j) = y^dagger G y with y = conj(a)
    values = [complex(v) for v in ((coeffs @ gram) * coeffs.conj()).sum(axis=1)]

    ok, worst = True, None
    if values:
        min_re = min(range(len(values)), key=lambda i: values[i].real)
        max_im = max(range(len(values)), key=lambda i: abs(values[i].imag))
        im_ok = abs(values[max_im].imag) <= tol
        ok = values[min_re].real >= -tol and im_ok
        i = min_re if (values[min_re].real < -tol or im_ok) else max_im
        worst = (labels[i], _polynomial(keys, coeffs[i]), values[i])
    lams, vecs = np.linalg.eigh(gram)
    lam_min = float(lams[0])
    if worst is None or (ok and lam_min < -tol):
        ok = lam_min >= -tol
        worst = ("g:min", _polynomial(keys, vecs[:, 0].conj()), complex(lams[0]))
    recheck = rp_functional(worst[1], r, spectrum, beta)
    deviation = abs(recheck - worst[2])
    if deviation > GRAM_AGREEMENT_TOL * (1 + abs(recheck)):
        raise SpectralError(
            f"{name}: Gram value {worst[2]!r} of {worst[0]} disagrees with "
            f"the Fock-matrix route {recheck!r}"
        )
    return CheckReport(
        check=name,
        lattice=lat.content_hash(),
        params=params,
        tolerances={"rp": tol},
        verdict="pass" if ok else "fail",
        worst={
            "value_re": float(worst[2].real),
            "value_im": float(worst[2].imag),
            "witness": _sample_witness(worst[0], worst[1]),
        },
        timing_ms=1e3 * (time.perf_counter() - t0),
        version=__version__,
        sidecar={"gram_size": len(keys), "lambda_min": lam_min,
                 "recheck_deviation": deviation},
    )


class TopoResult(NamedTuple):
    alpha: float
    deviation: float
    verdict: str


def check_topological_order(ground: GroundSpace, w: SparseOperator,
                            tol: float = DEFAULT_TOPO_TOL) -> TopoResult:
    """Is P W P a scalar multiple of P on the ground projector?

    alpha is the mean diagonal expectation; the deviation is the
    Frobenius norm of <mu|W|nu> - alpha*delta over the ground basis.
    """
    m = ground.basis.conj().T @ w.apply(ground.basis)
    n = ground.n
    alpha = float(np.trace(m).real) / n
    deviation = float(np.linalg.norm(m - alpha * np.eye(n)))
    return TopoResult(alpha=alpha, deviation=deviation,
                      verdict="pass" if deviation <= tol else "fail")


class PositivityResult(NamedTuple):
    minimum: float
    spread: float
    max_imag: float
    verdict: str


def check_ground_positivity(ground: GroundSpace, w_a: SparseOperator,
                            tol: float = DEFAULT_POS_TOL) -> PositivityResult:
    """Minimum of <Omega^mu, W_A Omega^mu> over the ground basis.

    Pass iff the minimum real part is >= -tol.  The spread max-min is
    reported as well: under topological order it should vanish.
    """
    ov = w_a.apply(ground.basis)
    diag = np.einsum("ij,ij->j", ground.basis.conj(), ov)
    minimum = float(diag.real.min())
    spread = float(diag.real.max() - diag.real.min())
    max_imag = float(np.abs(diag.imag).max())
    return PositivityResult(minimum=minimum, spread=spread, max_imag=max_imag,
                            verdict="pass" if minimum >= -tol else "fail")


def vortex_map(lat: IslandLattice, ground: GroundSpace,
               tol: float = DEFAULT_CLASS_TOL, loops: dict | None = None) -> dict:
    """Classify every octagon by its ground-space vortex expectation.

    `loops` maps octagon centres to their loop matrices W, for a caller
    that has built them already; missing, each W is built here.
    """
    out = {}
    for o in lat.octagons:
        if loops is not None:
            w = loops[o.center]
        else:
            w = to_matrix(vortex_operator(lat, o).W, lat.n_modes)
        ov = w.apply(ground.basis)
        diag = np.einsum("ij,ij->j", ground.basis.conj(), ov)
        alpha = float(diag.real.mean())
        out[o.center] = {"alpha": alpha, "classification": _classify(alpha, tol)}
    return out


def _classify(alpha: float, tol: float) -> str:
    if alpha >= 1 - tol:
        return "vortex-free"
    if alpha <= -1 + tol:
        return "vortex-full"
    if alpha > tol:
        return "partially-free"
    if alpha < -tol:
        return "partially-full"
    return "undetermined"


def check_conservation(lat: IslandLattice, lam) -> CheckReport:
    """[W, H] = 0 for every octagon, decided in exact arithmetic.

    The total fermion parity is checked alongside under the witness key
    "parity"; it commutes for the same structural reason.
    """
    t0 = time.perf_counter()
    h = build_hamiltonian(lat, lam)
    worst = None
    for o in lat.octagons:
        w = vortex_operator(lat, o).W
        c = commutator(w, h)
        if not c.is_zero:
            worst = {
                "value_re": c.max_abs_coeff(),
                "value_im": 0.0,
                "witness": f"octagon {o.center}: [W,H] = {c.render()}",
            }
            break
    if worst is None:
        c = commutator(parity_operator(lat), h)
        if not c.is_zero:
            worst = {
                "value_re": c.max_abs_coeff(),
                "value_im": 0.0,
                "witness": f"parity: [P,H] = {c.render()}",
            }
    return CheckReport(
        check="conservation",
        lattice=lat.content_hash(),
        params={"lambda": float(lam), "beta": None, "seed": None},
        tolerances={},  # exact decision, no tolerance involved
        verdict="pass" if worst is None else "fail",
        worst=worst,
        timing_ms=1e3 * (time.perf_counter() - t0),
        version=__version__,
    )


def theorem_chain_violations(rp_passed: bool | None,
                             conservation_passed: bool | None,
                             topo: TopoResult | None,
                             pos: PositivityResult | None,
                             topo_tol: float = DEFAULT_TOPO_TOL,
                             pos_tol: float = DEFAULT_POS_TOL) -> list[str]:
    """Cross-check the implications the theorem chain promises.

    Any returned string is an internal inconsistency (a bug or a
    counterexample), not a mere check failure.  Checks that did not run
    are passed as None and the implications involving them are skipped.
    """
    bad = []
    if rp_passed and topo is not None and topo.verdict == "pass" and pos is not None:
        if pos.minimum < -pos_tol:
            bad.append(
                f"RP and topological order hold but min expectation "
                f"{pos.minimum:.3e} < -{pos_tol:.1e}"
            )
    if (conservation_passed and topo is not None and topo.verdict == "pass"
            and pos is not None and pos.verdict == "pass"):
        if abs(topo.alpha - 1.0) > topo_tol:
            bad.append(
                f"conservation + order + positivity force alpha = +1, "
                f"got {topo.alpha!r}"
            )
    if topo is not None and topo.verdict == "pass" and pos is not None:
        # each diagonal deviates from alpha by at most the Frobenius deviation
        if pos.spread > 2 * topo_tol:
            bad.append(
                f"diagonal spread {pos.spread:.3e} despite deviation "
                f"{topo.deviation:.3e} <= {topo_tol:.1e}"
            )
    return bad
