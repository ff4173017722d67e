"""The certification checks.

Each check measures one link of the chain

    reflection symmetry -> reflection positivity -> topological order
    -> vortex-loop expectations +1 in every ground state

and returns either a CheckReport (self-contained, re-runnable from its
witness) or a small result tuple the frontend wraps into one.

Reflection positivity is decided on a Gram matrix.  The trial span of
one parity is every monomial of degree <= max_degree (default 4) on
Lambda_minus, and the form A -> Tr(A theta(A) rho) on it is y^dagger G y
with G_ij = Tr(m_i theta(m_j) rho).  It is positive on the span iff G is
Hermitian and positive semidefinite, so the check reads three things off
G: each monomial's value G_ii, the Hermiticity defect max |G - G^dagger|
and lambda_min of the Hermitian part.  No polynomial is sampled; only
the reported witness becomes a polynomial, and its value is re-checked
on a second route: the Pauli strings of theta(A), then of A, carry the
thermal eigenvectors block by block.
Odd elements are measured in a separate report that is never asserted:
the positivity literature is written for the even case and we refuse
to hard-fail on a case left implicit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .clifford import MajoranaPolynomial, commutator
from .fock import PauliSum, _labels
from .fock import to_matrix  # noqa: F401  (wrapped here by bench/tracing.py)
from .lattice import IslandLattice, ReflectionData
from .model import (
    build_hamiltonian,
    parity_operator,
    vortex_operator,
)
from .spectral import (
    GRAM_AGREEMENT_TOL,
    GroundSpace,
    PauliTable,
    SpectralError,
    Spectrum,
    # imported for the benchmark tracer (bench/tracing.py), which wraps
    # it at this name
    dense_spectrum,  # noqa: F401
    rp_functional,
    rp_gram,
)

DEFAULT_RP_TOL = 1e-9
DEFAULT_TOPO_TOL = 1e-8
DEFAULT_POS_TOL = 1e-8
DEFAULT_CLASS_TOL = 1e-6


def _degree_basis(indices: tuple[int, ...], max_degree: int, parity: str):
    """All monomial keys over `indices` of the given degree parity."""
    for deg in range(1 if parity == "odd" else 0, max_degree + 1, 2):
        yield from itertools.combinations(sorted(indices), deg)


def _witness_text(key: str, a) -> str:
    """Witness label plus a bounded rendering of A; the label and the
    run's config pin A exactly, so huge renders add nothing."""
    text = a.render()
    if len(text) > 160:
        text = f"{text[:157]}... ({len(a)} terms)"
    return f"{key} A = {text}"


def _span_rows(indices, parity: str, max_degree: int) -> list[tuple[str, tuple]]:
    """The (label, key) rows of the RP trial span: every monomial of
    `_degree_basis`, labelled "m:<indices>", in label order."""
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity filter {parity!r}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    return sorted(("m:" + ",".join(map(str, key)), key)
                  for key in _degree_basis(tuple(indices), max_degree, parity))


def _polynomial(keys, row) -> MajoranaPolynomial:
    """The polynomial sum_j row[j] * m_j; zero coefficients drop out."""
    return MajoranaPolynomial({key: complex(c) for key, c in zip(keys, row)})


def rp_sample_polynomials(indices, *, parity: str = "even",
                          max_degree: int = 4) -> list[tuple[str, MajoranaPolynomial]]:
    """The (label, A) monomial rows that `check_rp` evaluates, in its order."""
    return [(label, MajoranaPolynomial.monomial(key))
            for label, key in _span_rows(indices, parity, max_degree)]


def _gram_floor(gram: np.ndarray) -> tuple[float, int, int]:
    """(lambda_min, block count, largest block) of the Hermitian matrix
    that `eigvalsh` reads from the lower triangle of `gram` (`check_rp`
    passes the Hermitian part of G), solved in the connected blocks of
    that triangle's non-zero pattern.

    A permutation makes the matrix block-diagonal, so its spectrum is the
    union of the blocks' spectra (the Gram's selection-rule zeros are
    exact).  Each key takes the least label of its neighbours until no
    edge joins two labels; the blocks of one size are one batched
    `eigvalsh`, each block's lower triangle being the full one's.
    """
    i, j = np.nonzero(np.tril(gram, -1))
    keys = np.arange(len(gram))
    label = keys.copy()
    while (label[i] != label[j]).any():
        low = np.minimum(label[i], label[j])
        np.minimum.at(label, i, low)
        np.minimum.at(label, j, low)
    # a block's label is its least key, the one key labelled by itself
    # (np.unique here raised the peak RSS of a diamond certify by 0.75 MB)
    blocks = [np.flatnonzero(label == v) for v in keys[label == keys]]
    floor = np.inf
    for size in {len(b) for b in blocks}:
        idx = np.array([b for b in blocks if len(b) == size])
        stack = gram[idx[:, :, None], idx[:, None, :]]
        floor = min(floor, float(np.linalg.eigvalsh(stack)[:, 0].min()))
    return floor, len(blocks), max(len(b) for b in blocks)


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


def check_rp(lat: IslandLattice, r: ReflectionData, lam: float, beta: float, *,
             spectrum: Spectrum, table: PauliTable | None = None,
             parity: str = "even", max_degree: int = 4, seed: int = 0,
             tol: float = DEFAULT_RP_TOL, name: str = "rp") -> CheckReport:
    """Tr(A theta(A) e^{-beta H})/Z over A in the Lambda_minus algebra.

    The trial span is every `parity` monomial of degree <= max_degree on
    Lambda_minus (`_span_rows`); the form on it is y^dagger G y, y the
    conjugated coefficients of A and G the Gram matrix of `rp_gram`, read
    from `table` (the `pauli_table` at this beta) when the caller shares
    one between parities.  Pass iff, checked in this order, every
    monomial's value G_ii has real part >= -tol and imaginary part within
    tol (witness: the worst monomial, ties to the first label);
    max |G - G^dagger| <= GRAM_AGREEMENT_TOL, a round-off bound
    independent of tol (witness "g:skew": m_i + z m_j on the worst pair,
    whose value has imaginary part |G_ij - conj(G_ji)| + Im(G_ii + G_jj));
    and lambda_min((G + G^dagger)/2) >= -tol, solved per block of G's
    exact zeros (`_gram_floor`; witness "g:min", the lowest eigenvector
    of one `eigh`).  A passing report names the worst monomial.  Nothing
    is drawn at random; `seed` is only echoed in the params.

    Only the witness becomes a polynomial.  It is recomputed through
    `rp_functional` (the Pauli strings of theta(A), then A, carrying the
    thermal eigenvectors), and a disagreement beyond round-off
    (GRAM_AGREEMENT_TOL, independent of tol) raises SpectralError.  The
    sidecar holds the Gram size, lambda_min of the Hermitian part, the
    Hermiticity defect, the count and largest size of G's zero blocks,
    and the re-check's deviation and wall time.  A span with no monomials
    (odd elements at max_degree 0) is "skipped", its witness naming
    parity and degree.
    """
    t0 = time.perf_counter()
    rows = _span_rows(r.left, parity, max_degree)
    labels, keys = [label for label, _ in rows], [key for _, key in rows]
    params = {"lambda": float(lam), "beta": float(beta), "seed": seed}
    if not keys:
        return CheckReport(
            check=name, lattice=lat.content_hash(), params=params,
            tolerances={"rp": tol}, verdict="skipped",
            worst={"value_re": 0.0, "value_im": 0.0,
                   "witness": f"no {parity} monomials of degree <= {max_degree} "
                              f"on Lambda_minus"},
            timing_ms=1e3 * (time.perf_counter() - t0), version=__version__)

    gram = rp_gram(keys, r, spectrum if table is None else table, beta)
    values = gram.diagonal()  # F(m_i) = G_ii
    min_re = int(values.real.argmin())
    max_im = int(np.abs(values.imag).argmax())
    im_ok = abs(values[max_im].imag) <= tol
    ok = values[min_re].real >= -tol and im_ok
    i = min_re if (values[min_re].real < -tol or im_ok) else max_im
    label, y = labels[i], None
    skew = np.abs(gram - gram.conj().T)
    defect = float(skew.max())
    hermitian = (gram + gram.conj().T) / 2
    lam_min, blocks, largest = _gram_floor(hermitian)
    if ok and defect > GRAM_AGREEMENT_TOL:
        ok = False
        i, j = divmod(int(skew.argmax()), len(keys))
        label, y = "g:skew", np.zeros(len(keys), dtype=np.complex128)
        y[i] = 1
        if j != i:
            # Im F(m_i + z m_j) = Im(G_ii + G_jj) + Im(z d), and z d = i|d|
            d = gram[i, j] - np.conj(gram[j, i])
            y[j] = 1j * np.conj(d) / abs(d)
    elif ok and lam_min < -tol:
        ok = False
        label, y = "g:min", np.linalg.eigh(hermitian)[1][:, 0]
    if y is None:
        a, value = MajoranaPolynomial.monomial(keys[i]), complex(values[i])
    else:
        a, value = _polynomial(keys, y.conj()), complex(np.vdot(y, gram @ y))
    t1 = time.perf_counter()
    recheck = rp_functional(a, r, spectrum, beta)
    recheck_ms = 1e3 * (time.perf_counter() - t1)
    deviation = abs(recheck - value)
    if deviation > GRAM_AGREEMENT_TOL * (1 + abs(recheck)):
        raise SpectralError(
            f"{name}: Gram value {value!r} of {label} disagrees with "
            f"the eigenvector route {recheck!r}"
        )
    return CheckReport(
        check=name,
        lattice=lat.content_hash(),
        params=params,
        tolerances={"rp": tol},
        verdict="pass" if ok else "fail",
        worst={
            "value_re": float(value.real),
            "value_im": float(value.imag),
            "witness": _witness_text(label, a),
        },
        timing_ms=1e3 * (time.perf_counter() - t0),
        version=__version__,
        sidecar={"gram_size": len(keys), "lambda_min": lam_min,
                 "hermiticity_defect": defect,
                 "gram_blocks": {"count": blocks, "largest": largest},
                 "recheck_deviation": deviation, "recheck_ms": recheck_ms},
    )


class TopoResult(NamedTuple):
    alpha: float
    deviation: float
    verdict: str


def loop_product(ground: GroundSpace, w: MajoranaPolynomial) -> np.ndarray:
    """B^dagger W B for a one-term loop W on the ground basis B, the n x n
    matrix that both octagon checks read.

    W = a i^c X^x Z^z moves each block's label by that of x, found in the
    cluster through a 2^k index, or off it, where W B has no overlap
    with B.  The slots (move, src, weight) of W on the cluster blocks,
    named by their least states (`PauliSum.slots`), are the ones that
    carry the thermal eigenvectors, so B^dagger W B is one small
    product per block c that W reaches: c's own columns against the
    columns of the block e that W sends onto c, gathered at the places
    src and scaled by W's entries there.  Entries land at the blocks'
    places in the cluster's column order; no full-space array is formed.
    """
    terms = w.terms()
    if len(terms) != 1:
        raise ValueError(f"a loop has one term, not {len(terms)}")
    n_modes = ground.dim.bit_length() - 1
    [move], [src], [weight] = PauliSum(w, n_modes).slots(ground.rows[:, 0],
                                                         ground.gens)
    vectors, columns = ground.vectors, ground.columns
    labels = _labels(ground.rows[:, 0], ground.gens)
    index = np.full(1 << len(ground.gens), -1)  # the cluster block of a label
    index[labels] = np.arange(len(labels))
    out = np.zeros((ground.n, ground.n), dtype=np.complex128)
    for c, e in enumerate(index[labels ^ move].tolist()):
        if e >= 0:  # W sends block e onto block c, and c onto e
            wv = vectors[e][src]
            wv *= weight[c, :, None]
            # V_c^dagger (W V_e) as conj(V_c^T conj(W V_e)): the conjugate
            # is taken in place, with no copy of V_c
            np.conjugate(wv, out=wv)
            out[columns[c][:, None], columns[e]] = (vectors[c].T @ wv).conj()
            del wv  # one block's columns at a time
    return out


def check_topological_order(m: np.ndarray,
                            tol: float = DEFAULT_TOPO_TOL) -> TopoResult:
    """Is P W P a scalar multiple of P on the ground projector?

    `m` is B^dagger W B (`loop_product`).  alpha is the mean diagonal
    expectation; the deviation is the Frobenius norm of
    B^dagger W B - alpha*I.
    """
    n = len(m)
    alpha = float(np.trace(m).real) / n
    deviation = float(np.linalg.norm(m - alpha * np.eye(n)))
    return TopoResult(alpha=alpha, deviation=deviation,
                      verdict="pass" if deviation <= tol else "fail")


class PositivityResult(NamedTuple):
    minimum: float
    spread: float
    max_imag: float
    verdict: str


def loop_expectations(m: np.ndarray) -> np.ndarray:
    """<Omega^mu, W Omega^mu> for every ground basis vector: the diagonal
    of B^dagger W B (`loop_product`)."""
    return m.diagonal().copy()


def check_ground_positivity(diag: np.ndarray,
                            tol: float = DEFAULT_POS_TOL) -> PositivityResult:
    """Minimum of <Omega^mu, W_A Omega^mu> (`loop_expectations`).

    Pass iff the minimum real part is >= -tol.  The spread max-min is
    reported as well: under topological order it should vanish.
    """
    minimum = float(diag.real.min())
    spread = float(diag.real.max() - diag.real.min())
    max_imag = float(np.abs(diag.imag).max())
    return PositivityResult(minimum=minimum, spread=spread, max_imag=max_imag,
                            verdict="pass" if minimum >= -tol else "fail")


def vortex_map(expectations: dict, tol: float = DEFAULT_CLASS_TOL) -> dict:
    """Classify every octagon by its ground-space vortex expectation.

    `expectations` maps each octagon centre to the `loop_expectations` of
    its loop; alpha is their mean.
    """
    out = {}
    for center, diag in expectations.items():
        alpha = float(diag.real.mean())
        out[center] = {"alpha": alpha, "classification": _classify(alpha, tol)}
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


def _commutator_witness(m: MajoranaPolynomial, h: MajoranaPolynomial,
                        name: str) -> dict | None:
    """None if the monomial m commutes with h, else the witness [m, h].

    Monomials on the index sets A and B commute up to the sign
    (-1)^(|A||B| - |A & B|), so each term of h commutes or anticommutes
    with m, read off from its indices alone.  The products of m with
    distinct terms are distinct monomials, so nothing in [m, h] can
    cancel: it vanishes exactly when every term commutes.  The symbolic
    commutator is built only to render a failing witness.
    """
    [key] = m.terms()
    b = set(key)
    if not any((len(a) * len(b) - len(b.intersection(a))) % 2 for a in h.terms()):
        return None
    c = commutator(m, h)
    return {"value_re": c.max_abs_coeff(), "value_im": 0.0,
            "witness": f"{name} = {c.render()}"}


def check_conservation(lat: IslandLattice, lam) -> CheckReport:
    """[W, H] = 0 for every octagon, decided exactly from the commutation
    signs of H's terms with the loop monomial W (`_commutator_witness`).

    The total fermion parity is checked alongside under the witness key
    "parity"; it commutes for the same structural reason.
    """
    t0 = time.perf_counter()
    h = build_hamiltonian(lat, lam)
    worst = None
    for o in lat.octagons:
        worst = _commutator_witness(vortex_operator(lat, o).W, h,
                                    f"octagon {o.center}: [W,H]")
        if worst is not None:
            break
    if worst is None:
        worst = _commutator_witness(parity_operator(lat), h, "parity: [P,H]")
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
