"""The certification checks: sampling, verdicts, and the chain cross-check."""

import numpy as np
import pytest

from vortexcert.clifford import MajoranaPolynomial, multiply, reflect
from vortexcert.fock import to_matrix
from vortexcert.model import build_hamiltonian, vortex_operator
from vortexcert.spectral import (
    SpectralError,
    dense_spectrum,
    ground_space,
    rp_functional,
    rp_gram,
    thermal_expectation,
)
from vortexcert.verify import (
    CheckReport,
    RPSampleSpec,
    check_conservation,
    check_ground_positivity,
    check_rp,
    check_topological_order,
    default_rp_samples,
    rp_sample_polynomials,
    theorem_chain_violations,
    vortex_map,
)
from vortexcert.verify import _degree_basis, _sample_rows, _sample_witness

from conftest import dense_operator


@pytest.fixture(scope="module")
def diamond_spectra(diamond):
    out = {}
    for lam in (0, 0.1):
        h = to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)
        out[lam] = dense_spectrum(h)
    return out


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        RPSampleSpec(mode="cunning-guesses")
    with pytest.raises(ValueError):
        RPSampleSpec(mode="random-polynomials", parity="mixed")
    with pytest.raises(ValueError):
        RPSampleSpec(mode="random-polynomials", parity="both")
    with pytest.raises(ValueError):
        RPSampleSpec(mode="random-polynomials", count=-1)


def test_default_samples_shape():
    exhaustive, random_ = default_rp_samples(seed=7)
    assert exhaustive.mode == "exhaustive-monomials"
    assert exhaustive.parity == random_.parity == "even"
    assert exhaustive.max_degree == random_.max_degree == 4
    assert random_.count == 100
    assert random_.seed == 7


def test_exhaustive_monomial_enumeration():
    spec = RPSampleSpec(mode="exhaustive-monomials", max_degree=2)
    samples = rp_sample_polynomials(spec, (5, 0, 2))
    keys = [k for k, _ in samples]
    assert keys == ["m:", "m:0,2", "m:0,5", "m:2,5"]
    for _, a in samples:
        assert len(a) == 1 and a.degree() in (0, 2)
    odd = rp_sample_polynomials(
        RPSampleSpec(mode="exhaustive-monomials", max_degree=2, parity="odd"),
        (5, 0, 2))
    assert [k for k, _ in odd] == ["m:0", "m:2", "m:5"]


def test_even_basis_size_on_half_lattice(diamond_mirror):
    # 8 indices: C(8,0) + C(8,2) + C(8,4) even monomials through degree 4
    spec = RPSampleSpec(mode="exhaustive-monomials", max_degree=4)
    samples = rp_sample_polynomials(spec, diamond_mirror.left)
    assert len(samples) == 1 + 28 + 70


def test_random_samples_deterministic_in_seed():
    spec = RPSampleSpec(mode="random-polynomials", max_degree=2, count=3, seed=9)
    a = rp_sample_polynomials(spec, (0, 1, 2, 3))
    b = rp_sample_polynomials(spec, (0, 1, 2, 3))
    assert [k for k, _ in a] == ["r:0000", "r:0001", "r:0002"]
    for (ka, pa), (kb, pb) in zip(a, b):
        assert ka == kb and pa.isclose(pb, tol=0.0)
    other = rp_sample_polynomials(
        RPSampleSpec(mode="random-polynomials", max_degree=2, count=3, seed=10),
        (0, 1, 2, 3))
    assert not a[0][1].isclose(other[0][1], tol=1e-6)


def test_witness_rendering_is_bounded():
    small = MajoranaPolynomial.monomial((0, 1), 1.0)
    w = _sample_witness("m:0,1", small)
    assert w.startswith("m:0,1 A = ") and "c0*c1" in w
    big = MajoranaPolynomial.zero()
    for i in range(0, 24, 2):
        big = big + MajoranaPolynomial.monomial((i, i + 1), 0.123456789 + 0.5j)
    text = _sample_witness("r:0000", big)
    assert len(text) <= 160 + len("r:0000 A = ") + 24
    assert "... (12 terms)" in text


def test_check_rp_passes_on_diamond(diamond, diamond_mirror, diamond_spectra):
    specs = (
        RPSampleSpec(mode="exhaustive-monomials", max_degree=2),
        RPSampleSpec(mode="random-polynomials", max_degree=2, count=3, seed=1),
    )
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=specs,
                   spectrum=diamond_spectra[0.1])
    assert rep.verdict == "pass" and rep.passed
    assert rep.worst["value_re"] >= -1e-9
    assert abs(rep.worst["value_im"]) <= 1e-9
    assert rep.worst["witness"].split(" ")[0].startswith(("m:", "r1:"))
    assert rep.params == {"lambda": 0.1, "beta": 1.0, "seed": 1}
    assert rep.lattice == diamond.content_hash()


def test_check_rp_fail_is_reported_not_raised(diamond, diamond_mirror,
                                              diamond_spectra):
    # an impossible tolerance forces the fail path without faking data
    spec = RPSampleSpec(mode="exhaustive-monomials", max_degree=0)
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=spec,
                   spectrum=diamond_spectra[0.1], tol=-2.0)
    assert rep.verdict == "fail"
    assert rep.worst["witness"].startswith("m: ")
    # the Gram diagnostics are measured on a failing run too, and stay
    # out of the serialized report
    assert rep.sidecar["gram_size"] == 1
    assert abs(rep.sidecar["lambda_min"] - 1.0) <= 1e-12  # <1 theta(1)> = 1
    assert rep.sidecar["recheck_deviation"] <= 1e-12
    assert "sidecar" not in rep.to_dict()


def test_check_rp_with_an_empty_trial_span_is_skipped(diamond, diamond_mirror,
                                                    diamond_spectra):
    # odd monomials start at degree 1, so degree 0 leaves no odd trial
    # element even when random samples are asked for
    specs = default_rp_samples(3, parity="odd", max_degree=0, count=5)
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=specs,
                   spectrum=diamond_spectra[0.1])
    assert rep.verdict == "skipped" and not rep.passed
    assert rep.worst == {"value_re": 0.0, "value_im": 0.0,
                         "witness": "no odd monomials of degree <= 0 on Lambda_minus"}
    assert rep.params == {"lambda": 0.1, "beta": 1.0, "seed": 3}
    assert rep.sidecar is None


def test_check_rp_with_monomials_but_no_samples(diamond, diamond_mirror,
                                                diamond_spectra):
    # a random family of zero samples still spans the degree-2 monomials:
    # lambda_min(G) alone decides, witnessed by its eigenvector
    empty = RPSampleSpec(mode="random-polynomials", count=0, max_degree=2)
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=empty,
                   spectrum=diamond_spectra[0.1])
    assert rep.verdict == "pass"
    assert rep.worst["witness"].startswith("g:min A = ")
    assert rep.worst["value_re"] == rep.sidecar["lambda_min"] >= -1e-9
    assert rep.sidecar["recheck_deviation"] <= 1e-12
    # -H is not reflection positive, and G exposes it without a sample
    minus = dense_spectrum(to_matrix(-build_hamiltonian(diamond, 0.5),
                                     diamond.n_modes))
    rep = check_rp(diamond, diamond_mirror, 0.5, 5.0, specs=empty, spectrum=minus)
    assert rep.verdict == "fail"
    assert rep.worst["witness"].startswith("g:min A = ")
    assert rep.worst["value_re"] == rep.sidecar["lambda_min"] < -1e-9


@pytest.mark.parametrize("tol", [1e-16, 1e-18])
def test_check_rp_strict_tolerance_gives_a_report(diamond, diamond_mirror,
                                                  diamond_spectra, tol):
    # round-off between the Gram and Fock-matrix routes is no verdict: a
    # strict tolerance still yields a report, never a SpectralError
    spec = RPSampleSpec(mode="exhaustive-monomials", max_degree=2)
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=spec,
                   spectrum=diamond_spectra[0.1], tol=tol)
    assert rep.verdict in ("pass", "fail")
    assert rep.worst["value_re"] >= -1e-12  # RP holds up to round-off


def test_check_rp_cross_check_ignores_a_loose_tolerance(
        diamond, diamond_mirror, diamond_spectra, monkeypatch):
    # a disagreement between the routes is caught whatever the verdict tol
    import vortexcert.verify as verify

    def off_by_a_micro(*args):
        return rp_functional(*args) + 1e-6

    monkeypatch.setattr(verify, "rp_functional", off_by_a_micro)
    spec = RPSampleSpec(mode="exhaustive-monomials", max_degree=2)
    with pytest.raises(SpectralError, match="disagrees"):
        check_rp(diamond, diamond_mirror, 0.1, 1.0, specs=spec,
                 spectrum=diamond_spectra[0.1], tol=1.0)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rp_gram_matches_rp_functional(diamond, diamond_mirror, parity):
    exhaustive = rp_sample_polynomials(
        RPSampleSpec(mode="exhaustive-monomials", max_degree=4, parity=parity),
        diamond_mirror.left)
    random_ = rp_sample_polynomials(
        RPSampleSpec(mode="random-polynomials", max_degree=2, count=3, seed=4,
                     parity=parity),
        diamond_mirror.left)
    keys = [next(iter(a.terms())) for _, a in exhaustive]
    column = {key: j for j, key in enumerate(keys)}
    for lam in (0, 0.1, 0.5):
        spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                        diamond.n_modes))
        for beta in (0.5, 5):
            g = rp_gram(keys, diamond_mirror, spec, beta)
            assert np.abs(g - g.conj().T).max() <= 1e-12
            for _, a in exhaustive + random_:
                y = np.zeros(len(keys), dtype=complex)
                for key, c in a.terms().items():
                    y[column[key]] = np.conj(complex(c))
                want = rp_functional(a, diamond_mirror, spec, beta)
                assert abs(np.vdot(y, g @ y) - want) <= 1e-12


def test_check_rp_gram_failure_beyond_the_samples(diamond, diamond_mirror):
    # -H is reflection symmetric but not reflection positive; at this
    # tolerance every monomial sample passes and only G exposes it
    spec = dense_spectrum(to_matrix(-build_hamiltonian(diamond, 0.5),
                                    diamond.n_modes))
    exhaustive = RPSampleSpec(mode="exhaustive-monomials", max_degree=4)
    rep = check_rp(diamond, diamond_mirror, 0.5, 5.0, specs=exhaustive,
                   spectrum=spec, tol=1.0)
    keys = [next(iter(a.terms())) for _, a in
            rp_sample_polynomials(exhaustive, diamond_mirror.left)]
    g = rp_gram(keys, diamond_mirror, spec, 5.0)
    sample_min = g.diagonal().real.min()  # monomial samples are unit vectors
    lam_min = np.linalg.eigvalsh(g)[0]
    assert sample_min >= -1.0 > lam_min
    assert rep.verdict == "fail"
    assert rep.worst["witness"].startswith("g:min A = ")
    assert abs(rep.worst["value_re"] - lam_min) <= 1e-12
    assert rep.worst["value_re"] < sample_min


def test_topological_order_verdicts(diamond, diamond_spectra):
    w = to_matrix(vortex_operator(diamond, (1, 2)).W, diamond.n_modes)
    ordered = check_topological_order(ground_space(diamond_spectra[0.1]), w)
    assert ordered.verdict == "pass"
    assert abs(ordered.alpha - 1.0) <= 1e-8
    assert ordered.deviation <= 1e-8
    degenerate = check_topological_order(ground_space(diamond_spectra[0]), w)
    assert degenerate.verdict == "fail"
    assert abs(degenerate.alpha) <= 1e-12
    assert abs(degenerate.deviation - 4.0) <= 1e-10


def test_ground_positivity(diamond, diamond_mirror, diamond_spectra):
    v = vortex_operator(diamond, (1, 2), r=diamond_mirror)
    w = to_matrix(v.W, diamond.n_modes)
    res = check_ground_positivity(ground_space(diamond_spectra[0.1]), w)
    assert res.verdict == "pass"
    assert res.minimum >= 1 - 1e-8  # all eight states sit at +1
    assert res.spread <= 1e-8 and res.max_imag <= 1e-12


def test_vortex_map_classifications(diamond, diamond_spectra, torus_4x4):
    m = vortex_map(diamond, ground_space(diamond_spectra[0.1]))
    assert set(m) == {(1, 2)}
    assert m[(1, 2)]["classification"] == "vortex-free"
    assert m[(1, 2)]["alpha"] >= 1 - 1e-6
    # at lambda = 0 the loop averages to zero over the degenerate space
    m0 = vortex_map(diamond, ground_space(diamond_spectra[0]))
    assert m0[(1, 2)]["classification"] == "undetermined"
    assert abs(m0[(1, 2)]["alpha"]) <= 1e-6


def test_conservation_is_exact(diamond):
    rep = check_conservation(diamond, 0.1)
    assert rep.verdict == "pass"
    assert rep.worst is None
    assert rep.tolerances == {}


def test_chain_cross_checks():
    from vortexcert.verify import PositivityResult, TopoResult
    good_topo = TopoResult(alpha=1.0, deviation=0.0, verdict="pass")
    good_pos = PositivityResult(minimum=1.0, spread=0.0, max_imag=0.0,
                                verdict="pass")
    assert theorem_chain_violations(True, True, good_topo, good_pos) == []
    # order without positivity contradicts RP
    neg = PositivityResult(minimum=-1.0, spread=0.0, max_imag=0.0,
                           verdict="fail")
    msgs = theorem_chain_violations(True, True, good_topo, neg)
    assert any("min expectation" in m for m in msgs)
    # order + positivity with alpha away from +1 contradicts the chain
    half = TopoResult(alpha=0.5, deviation=0.0, verdict="pass")
    half_pos = PositivityResult(minimum=0.5, spread=0.0, max_imag=0.0,
                                verdict="pass")
    msgs = theorem_chain_violations(True, True, half, half_pos)
    assert any("alpha" in m for m in msgs)
    # a spread wider than the order deviation allows is inconsistent
    wide = PositivityResult(minimum=0.9, spread=1e-3, max_imag=0.0,
                            verdict="pass")
    msgs = theorem_chain_violations(None, None, good_topo, wide)
    assert any("spread" in m for m in msgs)
    # checks that did not run suppress their implications
    assert theorem_chain_violations(None, None, None, None) == []


def test_report_serialization(diamond):
    rep = check_conservation(diamond, 0.1)
    d = rep.to_dict()
    assert isinstance(d["timing_ms"], float)
    assert d["check"] == "conservation"
    quiet = rep.to_dict(include_timing=False)
    assert quiet["timing_ms"] is None
    quiet.pop("timing_ms"), d.pop("timing_ms")
    assert quiet == d


def _random_polynomial(rng, indices, parity, max_degree=4):
    terms = {}
    for deg in range(1 if parity == "odd" else 0, max_degree + 1, 2):
        for _ in range(4):
            key = tuple(int(i) for i in rng.choice(indices, size=deg, replace=False))
            terms[key] = complex(*rng.standard_normal(2))
    return MajoranaPolynomial(terms)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rp_functional_matches_the_symbolic_product(diamond, diamond_mirror,
                                                    diamond_spectra, parity):
    # rp_functional multiplies the Fock matrices of A and theta(A); the
    # symbolic product A theta(A) mapped once must give the same value.
    # Odd values vanish to round-off in the diamond's thermal state, so a
    # generic Hermitian matrix stands in as a second "Hamiltonian".
    rng = np.random.default_rng(11)
    dim = 1 << diamond.n_modes
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    generic = dense_spectrum(dense_operator(x + x.conj().T))
    left = np.array(diamond_mirror.left)
    for _ in range(5):
        a = _random_polynomial(rng, left, parity)
        w = to_matrix(multiply(a, reflect(a, diamond_mirror.sigma)),
                      diamond.n_modes)
        for spec in (diamond_spectra[0.1], generic):
            for beta in (0.5, 5):
                want = thermal_expectation(w, spec, beta)
                got = rp_functional(a, diamond_mirror, spec, beta)
                assert abs(got - want) <= 1e-12


def _scalar_draws(spec, indices):
    """The one-key-at-a-time sample loop that the array draw replaced."""
    basis = list(_degree_basis(tuple(sorted(indices)), spec.max_degree,
                               spec.parity))
    rng = np.random.default_rng(spec.seed)
    out = []
    for n in range(spec.count):
        terms = {}
        for key in basis:
            radius = np.sqrt(rng.uniform())
            angle = 2 * np.pi * rng.uniform()
            terms[key] = complex(radius * np.cos(angle), radius * np.sin(angle))
        out.append((f"r:{n:04d}", terms))
    return out


@pytest.mark.parametrize("seed", [0, 3, 12345])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("max_degree", [2, 4])
def test_sample_rows_match_the_scalar_draws(diamond_mirror, seed, parity,
                                            max_degree):
    spec = RPSampleSpec(mode="random-polynomials", max_degree=max_degree,
                        count=20, seed=seed, parity=parity)
    want = _scalar_draws(spec, diamond_mirror.left)
    labels, keys, coeffs = _sample_rows(spec, diamond_mirror.left)
    polys = rp_sample_polynomials(spec, diamond_mirror.left)
    assert labels == [label for label, _ in want] == [label for label, _ in polys]
    for (_, terms), row, (_, a) in zip(want, coeffs, polys):
        expect = np.array([terms[key] for key in keys])
        assert row.tobytes() == expect.tobytes()
        got = np.array([complex(a.terms()[key]) for key in keys])
        assert got.tobytes() == expect.tobytes()
        assert set(a.terms()) == set(terms)
