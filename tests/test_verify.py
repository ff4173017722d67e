"""The certification checks: sampling, verdicts, and the chain cross-check."""

import numpy as np
import pytest

from vortexcert.clifford import MajoranaPolynomial, multiply, reflect
from vortexcert.fock import PauliSum, monomial_pauli, to_matrix
from vortexcert.lattice import build_lattice, reflection_data, translations
from vortexcert.model import build_hamiltonian, parity_operator, vortex_operator
from vortexcert.spectral import (
    GRAM_AGREEMENT_TOL,
    GroundSpace,
    SpectralError,
    dense_spectrum,
    ground_space,
    lanczos_ground,
    pauli_table,
    rp_functional,
    rp_gram,
    thermal_expectation,
)
from vortexcert.verify import (
    CheckReport,
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
from vortexcert.verify import (
    _gram_floor,
    _span_rows,
    _witness_text,
)

from conftest import (
    apply_columns,
    dense_operator,
    embedded_loop_product,
    oracle_matrix,
    random_span_polynomials,
    to_dense,
)


@pytest.fixture(scope="module")
def diamond_spectra(diamond):
    out = {}
    for lam in (0, 0.1):
        h = to_matrix(build_hamiltonian(diamond, lam), diamond.n_modes)
        out[lam] = dense_spectrum(h)
    return out


def test_sample_spec_validation(diamond, diamond_mirror, diamond_spectra):
    with pytest.raises(ValueError):
        rp_sample_polynomials((0, 1), parity="mixed")
    with pytest.raises(ValueError):
        rp_sample_polynomials((0, 1), parity="both")
    with pytest.raises(ValueError):
        rp_sample_polynomials((0, 1), max_degree=-1)
    with pytest.raises(ValueError):
        check_rp(diamond, diamond_mirror, 0.1, 1.0, parity="both",
                 spectrum=diamond_spectra[0.1])


def test_exhaustive_monomial_enumeration():
    samples = rp_sample_polynomials((5, 0, 2), max_degree=2)
    keys = [k for k, _ in samples]
    assert keys == ["m:", "m:0,2", "m:0,5", "m:2,5"]
    for _, a in samples:
        assert len(a) == 1 and a.degree() in (0, 2)
    odd = rp_sample_polynomials((5, 0, 2), parity="odd", max_degree=2)
    assert [k for k, _ in odd] == ["m:0", "m:2", "m:5"]


def test_even_basis_size_on_half_lattice(diamond_mirror):
    # 8 indices: C(8,0) + C(8,2) + C(8,4) even monomials through degree 4
    samples = rp_sample_polynomials(diamond_mirror.left, max_degree=4)
    assert len(samples) == 1 + 28 + 70
    # rows in label order, which is not key order: "m:0,1,2,11" sorts
    # before "m:0,1,2,3"
    labels = [label for label, _ in samples]
    assert labels == sorted(labels)
    assert labels[:4] == ["m:", "m:0,1", "m:0,1,2,11", "m:0,1,2,3"]


def test_witness_rendering_is_bounded():
    small = MajoranaPolynomial.monomial((0, 1), 1.0)
    w = _witness_text("m:0,1", small)
    assert w.startswith("m:0,1 A = ") and "c0*c1" in w
    big = MajoranaPolynomial.zero()
    for i in range(0, 24, 2):
        big = big + MajoranaPolynomial.monomial((i, i + 1), 0.123456789 + 0.5j)
    text = _witness_text("r:0000", big)
    assert len(text) <= 160 + len("r:0000 A = ") + 24
    assert "... (12 terms)" in text


def test_check_rp_passes_on_diamond(diamond, diamond_mirror, diamond_spectra):
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, max_degree=2, seed=1,
                   spectrum=diamond_spectra[0.1])
    assert rep.verdict == "pass" and rep.passed
    assert rep.worst["value_re"] >= -1e-9
    assert abs(rep.worst["value_im"]) <= 1e-9
    assert rep.worst["witness"].startswith("m:")
    assert rep.params == {"lambda": 0.1, "beta": 1.0, "seed": 1}
    assert rep.lattice == diamond.content_hash()


def test_check_rp_fail_is_reported_not_raised(diamond, diamond_mirror,
                                              diamond_spectra):
    # an impossible tolerance forces the fail path without faking data
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, max_degree=0,
                   spectrum=diamond_spectra[0.1], tol=-2.0)
    assert rep.verdict == "fail"
    assert rep.worst["witness"].startswith("m: ")
    # the Gram diagnostics are measured on a failing run too, and stay
    # out of the serialized report
    assert rep.sidecar["gram_size"] == 1
    assert abs(rep.sidecar["lambda_min"] - 1.0) <= 1e-12  # <1 theta(1)> = 1
    assert rep.sidecar["hermiticity_defect"] <= 1e-15
    assert rep.sidecar["gram_blocks"] == {"count": 1, "largest": 1}
    assert rep.sidecar["recheck_deviation"] <= 1e-12
    assert rep.sidecar["recheck_ms"] > 0
    assert "sidecar" not in rep.to_dict()


def test_check_rp_with_an_empty_trial_span_is_skipped(diamond, diamond_mirror,
                                                    diamond_spectra):
    # odd monomials start at degree 1, so degree 0 leaves no odd trial
    # element
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, parity="odd",
                   max_degree=0, seed=3, spectrum=diamond_spectra[0.1])
    assert rep.verdict == "skipped" and not rep.passed
    assert rep.worst == {"value_re": 0.0, "value_im": 0.0,
                         "witness": "no odd monomials of degree <= 0 on Lambda_minus"}
    assert rep.params == {"lambda": 0.1, "beta": 1.0, "seed": 3}
    assert rep.sidecar is None


@pytest.mark.parametrize("tol", [1e-16, 1e-18])
def test_check_rp_strict_tolerance_gives_a_report(diamond, diamond_mirror,
                                                  diamond_spectra, tol):
    # round-off between the Gram and eigenvector routes is no verdict: a
    # strict tolerance still yields a report, never a SpectralError
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0, max_degree=2,
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
    with pytest.raises(SpectralError, match="disagrees"):
        check_rp(diamond, diamond_mirror, 0.1, 1.0, max_degree=2,
                 spectrum=diamond_spectra[0.1], tol=1.0)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rp_gram_matches_rp_functional(diamond, diamond_mirror, parity):
    exhaustive = [a for _, a in rp_sample_polynomials(
        diamond_mirror.left, parity=parity, max_degree=4)]
    random_ = random_span_polynomials(diamond_mirror.left, parity, 2, 3, seed=4)
    keys = [next(iter(a.terms())) for a in exhaustive]
    column = {key: j for j, key in enumerate(keys)}
    for lam in (0, 0.1, 0.5):
        spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                        diamond.n_modes))
        for beta in (0.5, 5):
            g = rp_gram(keys, diamond_mirror, spec, beta)
            assert np.abs(g - g.conj().T).max() <= 1e-12
            for a in exhaustive + random_:
                y = np.zeros(len(keys), dtype=complex)
                for key, c in a.terms().items():
                    y[column[key]] = np.conj(complex(c))
                want = rp_functional(a, diamond_mirror, spec, beta)
                assert abs(np.vdot(y, g @ y) - want) <= 1e-12


def _monomial_keys(r, parity, max_degree):
    """The keys of the trial span, in `check_rp`'s order."""
    return [key for _, key in _span_rows(r.left, parity, max_degree)]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rp_gram_at_beta_zero_is_the_normalized_trace(parity):
    # rho = 1 / 2^n at beta = 0, so G_ij = Tr(m_i theta(m_j)) / 2^n; theta
    # goes through the symbolic reflect and both sides through the oracle.
    # The plane x = 1 of the 3x2 lattice cuts islands, so some modes have
    # one generator on each side.
    lat = build_lattice(3, 2, "open")
    r = reflection_data(lat, "x", 1)
    n_modes = lat.n_modes
    keys = _monomial_keys(r, parity, 4)
    left = np.array([oracle_matrix(MajoranaPolynomial.monomial(k), n_modes)
                     for k in keys])
    right = np.array([oracle_matrix(reflect(MajoranaPolynomial.monomial(k),
                                            r.sigma), n_modes)
                      for k in keys])
    want = np.einsum("iab,jba->ij", left, right) / (1 << n_modes)
    spec = dense_spectrum(to_matrix(build_hamiltonian(lat, 0.1), n_modes))
    got = rp_gram(keys, r, spec, 0.0)
    # only m_i = theta(m_j) = 1 has a nonzero trace
    assert np.count_nonzero(want) == (parity == "even")
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rp_gram_matches_rp_functional_on_the_failing_mirror(diamond, parity):
    # the plane y = 2 breaks RP: the even Gram has negative values, and
    # they must agree with the Fock route as well as the positive ones
    r = reflection_data(diamond, "y", 2)
    keys = _monomial_keys(r, parity, 4)
    samples = [a for _, a in rp_sample_polynomials(r.left, parity=parity,
                                                   max_degree=4)]
    samples += random_span_polynomials(r.left, parity, 4, 3, seed=4)
    spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, 0.1),
                                    diamond.n_modes))
    values = []
    for beta in (0.5, 5):
        g = rp_gram(keys, r, spec, beta)
        for a in samples:
            y = np.array([np.conj(complex(a.coefficient(k) or 0)) for k in keys])
            want = rp_functional(a, r, spec, beta)
            assert abs(np.vdot(y, g @ y) - want) <= 1e-12
            values.append(want.real)
    assert (min(values) < -0.4) == (parity == "even")


def test_check_rp_gram_failure_beyond_the_samples(diamond, diamond_mirror):
    # -H is reflection symmetric but not reflection positive; at this
    # tolerance every monomial sample passes and only G exposes it
    spec = dense_spectrum(to_matrix(-build_hamiltonian(diamond, 0.5),
                                    diamond.n_modes))
    rep = check_rp(diamond, diamond_mirror, 0.5, 5.0, max_degree=4,
                   spectrum=spec, tol=1.0)
    g = rp_gram(_monomial_keys(diamond_mirror, "even", 4), diamond_mirror, spec, 5.0)
    sample_min = g.diagonal().real.min()  # monomial samples are unit vectors
    lam_min = np.linalg.eigvalsh(g)[0]
    assert sample_min >= -1.0 > lam_min
    assert rep.verdict == "fail"
    assert rep.worst["witness"].startswith("g:min A = ")
    assert abs(rep.worst["value_re"] - lam_min) <= 1e-12
    assert rep.worst["value_re"] < sample_min


@pytest.mark.parametrize("lattice,plane,lam", [
    *(pytest.param(None, plane, lam, id=f"diamond-{plane[0]}{plane[1]}-{lam}")
      for plane in (("x", 1), ("y", 2)) for lam in (0, 0.1, 0.5)),
    pytest.param((3, 4, "open"), ("x", 1), 0.1, id="open3x4-x1-0.1"),
    pytest.param((4, 2, "periodic"), ("x", 1), 0.1, id="torus4x2-x1-0.1")])
def test_rp_verdict_grid(diamond, lattice, plane, lam):
    # 8 lattices and planes x 3 betas x 2 parities: only the even span on
    # the diamond's y = 2 mirror fails.  G is Hermitian to round-off on x
    # planes and on the mirror at lambda 0, not on the mirror at lambda > 0
    lat = diamond if lattice is None else build_lattice(*lattice)
    r = reflection_data(lat, *plane)
    spec = dense_spectrum(to_matrix(build_hamiltonian(lat, lam), lat.n_modes))
    for beta in (0.5, 1, 5):
        table = pauli_table(spec, beta)
        for parity in ("even", "odd"):
            rep = check_rp(lat, r, lam, beta, spectrum=spec, table=table,
                           parity=parity)
            mirror = plane == ("y", 2) and parity == "even"
            assert rep.verdict == ("fail" if mirror else "pass"), (beta, parity)
            defect = rep.sidecar["hermiticity_defect"]
            assert (defect > 0.05) == (mirror and lam > 0), defect
            assert defect <= GRAM_AGREEMENT_TOL or (mirror and lam > 0)


def test_check_rp_fails_a_non_hermitian_gram(diamond):
    # on the y = 2 mirror at lambda 0.1 every monomial passes tol = 1, but
    # G is not Hermitian: the form takes a non-real value on the worst pair
    r = reflection_data(diamond, "y", 2)
    spectra = {lam: dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                             diamond.n_modes))
               for lam in (0, 0.1)}
    rep = check_rp(diamond, r, 0.1, 1.0, spectrum=spectra[0.1], tol=1.0)
    defect = rep.sidecar["hermiticity_defect"]
    assert rep.verdict == "fail" and abs(defect - 0.118) <= 1e-3
    assert rep.worst["witness"].startswith("g:skew A = ")
    assert abs(rep.worst["value_im"] - defect) <= 1e-14
    assert rep.sidecar["recheck_deviation"] <= GRAM_AGREEMENT_TOL
    g = rp_gram(_monomial_keys(r, "even", 4), r, spectra[0.1], 1.0)
    assert defect == np.abs(g - g.conj().T).max()
    # at lambda 0 G is Hermitian, and the same tolerance passes
    rep = check_rp(diamond, r, 0, 1.0, spectrum=spectra[0], tol=1.0)
    assert rep.verdict == "pass" and rep.worst["witness"].startswith("m:")
    assert rep.sidecar["hermiticity_defect"] <= 1e-15


def _hermitian_part(g):
    return (g + g.conj().T) / 2


def _full_space_gram(keys, r, op, beta):
    """G_ij = Tr(m_i theta(m_j) rho) with rho from one full-space eigh and
    both monomials as Fock operators: no blocks, no Pauli table."""
    w, v = np.linalg.eigh(to_dense(op))
    weights = np.exp(-beta * (w - w[0]))
    rho = (v * (weights / weights.sum())) @ v.conj().T
    n_modes = op.n_modes
    rows = np.arange(op.dim)
    gram = np.empty((len(keys), len(keys)), dtype=complex)
    left = [to_matrix(MajoranaPolynomial.monomial(k), n_modes) for k in keys]
    for j, key in enumerate(keys):
        # theta(m_j) rho, then Tr(m_i X) over the one slot of the signed
        # permutation m_i
        x = apply_columns(to_matrix(reflect(MajoranaPolynomial.monomial(key),
                                            r.sigma), n_modes), rho)
        gram[:, j] = [(m.values[0] * x[m.cols[0], rows]).sum() for m in left]
    return gram


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("mirror", [("x", 1), ("y", 2)])
def test_block_rp_gram_is_the_full_space_gram(diamond, parity, mirror):
    r = reflection_data(diamond, *mirror)
    keys = _monomial_keys(r, parity, 4)
    op = to_matrix(build_hamiltonian(diamond, 0.1), diamond.n_modes)
    spec = dense_spectrum(op)
    span = {0}
    for s in np.unique((op.cols ^ np.arange(op.dim))[op.values != 0]).tolist():
        span |= {v ^ s for v in span}
    x = [monomial_pauli(k, op.n_modes)[0] for k in keys]
    x_t = [monomial_pauli([r.sigma(i) for i in k], op.n_modes)[0] for k in keys]
    off = np.array([[a ^ b not in span for b in x_t] for a in x])
    for beta in (0, 1, 5):
        g = rp_gram(keys, r, spec, beta)
        want = _full_space_gram(keys, r, op, beta)
        assert np.abs(g - want).max() <= 1e-13
        # an entry whose x strings differ off the span of H's masks is an
        # exact zero of the block table
        assert off.any() and (g[off] == 0).all()


def test_rp_gram_reads_a_shared_pauli_table(diamond, diamond_mirror):
    spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, 0.1),
                                    diamond.n_modes))
    table = pauli_table(spec, 1.0)
    assert table.table.shape == (256, 16)  # dim x |span|
    for parity in ("even", "odd"):
        keys = _monomial_keys(diamond_mirror, parity, 4)
        np.testing.assert_array_equal(rp_gram(keys, diamond_mirror, table, 1.0),
                                      rp_gram(keys, diamond_mirror, spec, 1.0))
        shared = check_rp(diamond, diamond_mirror, 0.1, 1.0, parity=parity,
                          spectrum=spec, table=table)
        alone = check_rp(diamond, diamond_mirror, 0.1, 1.0, parity=parity,
                         spectrum=spec)
        assert shared.to_dict(False) == alone.to_dict(False)
        # every sidecar diagnostic but the re-check's wall time
        timed = [rep.sidecar.pop("recheck_ms") for rep in (shared, alone)]
        assert min(timed) > 0
        assert shared.sidecar == alone.sidecar
    with pytest.raises(ValueError, match="beta"):
        rp_gram(keys, diamond_mirror, table, 5.0)


def test_check_rp_computes_gram_eigenvectors_only_for_a_failing_gram(
        diamond, diamond_mirror, diamond_spectra, monkeypatch):
    # -H at beta = 5 fails on G alone (see above)
    failing = dense_spectrum(to_matrix(-build_hamiltonian(diamond, 0.5),
                                       diamond.n_modes))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rep = check_rp(diamond, diamond_mirror, 0.1, 1.0,
                   spectrum=diamond_spectra[0.1])
    assert rep.verdict == "pass" and calls == []
    keys = _monomial_keys(diamond_mirror, "even", 4)
    lam_min = np.linalg.eigvalsh(_hermitian_part(rp_gram(
        keys, diamond_mirror, diamond_spectra[0.1], 1.0)))[0]
    assert abs(rep.sidecar["lambda_min"] - lam_min) <= 1e-14
    rep = check_rp(diamond, diamond_mirror, 0.5, 5.0,
                   spectrum=failing, tol=1.0)
    assert rep.worst["witness"].startswith("g:min") and calls == [(99, 99)]


@pytest.mark.parametrize("plane", [("x", 1), ("y", 2)])
def test_gram_floor_per_zero_block_is_the_full_eigvalsh(diamond, plane):
    # the criterion-05 grid, on the mirror that passes and the one that
    # fails; on the y = 2 mirror G is not Hermitian, and both routes read
    # its Hermitian part, as check_rp does
    r = reflection_data(diamond, *plane)
    for lam in (0, 0.1, 0.5):
        spec = dense_spectrum(to_matrix(build_hamiltonian(diamond, lam),
                                        diamond.n_modes))
        for parity in ("even", "odd"):
            keys = _monomial_keys(r, parity, 4)
            for beta in (0.5, 1, 5):
                gram = _hermitian_part(rp_gram(keys, r, spec, beta))
                floor, count, largest = _gram_floor(gram)
                assert abs(floor - np.linalg.eigvalsh(gram)[0]) <= 1e-14
                assert 1 < count and largest < len(keys)
                if plane == ("x", 1) and lam == 0.1:
                    # the selection-rule zeros: 8 blocks on both parities
                    assert (count, largest) == (8, 16 if parity == "even" else 13)


def test_gram_floor_blocks_follow_the_lower_triangle():
    # the only coupling of keys 0 and 2 sits in the upper triangle, which
    # eigvalsh does not read: two blocks, {0, 1} and {2}
    gram = np.array([[1.0, 0.5, 3.0], [0.5, 1.0, 0.0], [0.0, 0.0, -2.0]])
    floor, count, largest = _gram_floor(gram)
    assert (count, largest) == (2, 2)
    assert floor == np.linalg.eigvalsh(gram)[0] == -2.0
    # a chain 4 - 0 - 3 - 1 - 2 joins every key through its neighbours
    chain = (np.diag(np.full(5, 2.0)) + np.diag(np.full(4, -1.0), -1)
             + np.diag(np.full(4, -1.0), 1))
    order = [4, 0, 3, 1, 2]
    floor, count, largest = _gram_floor(chain[np.ix_(order, order)])
    assert (count, largest) == (1, 5)
    assert abs(floor - np.linalg.eigvalsh(chain)[0]) <= 1e-15


def test_rp_recheck_forms_no_dense_eigenvector_array(diamond, diamond_mirror,
                                                     diamond_spectra):
    # the re-check runs in the 16 blocks of 16: a monomial witness holds no
    # dim x dim array at all, a random one (64 or 99 terms) less than two,
    # where an embedding route holds four at once (the embedded
    # eigenvectors, two products and a conjugated copy)
    import tracemalloc

    spec = diamond_spectra[0.1]
    dense = spec.dim ** 2 * 16  # bytes of one dim x dim complex array
    monomial = rp_sample_polynomials(diamond_mirror.left, max_degree=4)[1][1]
    [even], [odd] = (random_span_polynomials(diamond_mirror.left, parity, 4, 1,
                                             seed=1) for parity in ("even", "odd"))
    for a, limit in [(monomial, dense / 2), (even, 2 * dense), (odd, 2 * dense)]:
        rp_functional(a, diamond_mirror, spec, 1.0)  # warm the imports
        tracemalloc.start()
        try:
            rp_functional(a, diamond_mirror, spec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (len(a), peak)


def test_diamond_certify_never_densifies_the_full_operator(tmp_path, monkeypatch,
                                                           diamond):
    # the operator on all 2^n states is built once per lambda, for its
    # dense spectrum; the RP re-check reads the witness's Pauli strings
    # and builds none (it built two per parity and beta before)
    from vortexcert import cli
    from vortexcert.fock import PauliSum

    full = []
    block = PauliSum.block

    def recording(self, start, gens, y=None):
        full.append(not gens)  # no Z-strings: the block of every state
        return block(self, start, gens, y)

    monkeypatch.setattr(PauliSum, "block", recording)
    assert cli.main(["certify", "--out", str(tmp_path / "c.json")]) == 0
    assert sum(full) == 1
    full.clear()
    # the benchmark's sweep: 3 lambdas x 2 betas x both parities
    assert cli.main(["sweep", "--lambda.from", "0", "--lambda.to", "0.5",
                     "--lambda.steps", "3", "--beta", "0.5,5", "--samples", "20",
                     "--format", "csv", "--out", str(tmp_path / "s.csv")]) == 0
    assert sum(full) == 3


def test_topological_order_verdicts(diamond, diamond_spectra):
    w = to_matrix(vortex_operator(diamond, (1, 2)).W, diamond.n_modes)
    ground = ground_space(diamond_spectra[0.1])
    ordered = check_topological_order(embedded_loop_product(ground, w))
    assert ordered.verdict == "pass"
    assert abs(ordered.alpha - 1.0) <= 1e-8
    assert ordered.deviation <= 1e-8
    ground = ground_space(diamond_spectra[0])
    degenerate = check_topological_order(embedded_loop_product(ground, w))
    assert degenerate.verdict == "fail"
    assert abs(degenerate.alpha) <= 1e-12
    assert abs(degenerate.deviation - 4.0) <= 1e-10


def test_ground_positivity(diamond, diamond_mirror, diamond_spectra):
    v = vortex_operator(diamond, (1, 2), r=diamond_mirror)
    w = to_matrix(v.W, diamond.n_modes)
    ground = ground_space(diamond_spectra[0.1])
    res = check_ground_positivity(loop_expectations(embedded_loop_product(ground, w)))
    assert res.verdict == "pass"
    assert res.minimum >= 1 - 1e-8  # all eight states sit at +1
    assert res.spread <= 1e-8 and res.max_imag <= 1e-12


@pytest.mark.parametrize("lam", [0, 0.1])
def test_loop_product_is_the_full_space_product(diamond, diamond_spectra, lam):
    # the gather against W applied to the embedded basis: the 8 and 16
    # cluster vectors lie in 8 blocks of 16 and in 16 one-state blocks
    ground = ground_space(diamond_spectra[lam])
    assert len(ground.rows) == {0: 16, 0.1: 8}[lam]
    for mirror in (None, reflection_data(diamond, "x", 1)):
        w = vortex_operator(diamond, (1, 2), mirror).W
        m = loop_product(ground, w)
        want = embedded_loop_product(ground, to_matrix(w, diamond.n_modes))
        assert np.abs(m - want).max() <= 1e-14


def test_loop_product_on_the_torus_is_the_full_space_product(torus_4x4):
    ground = lanczos_ground(PauliSum(build_hamiltonian(torus_4x4, 0.1),
                                     torus_4x4.n_modes),
                            seed=0, symmetries=translations(torus_4x4))
    for o in torus_4x4.octagons:
        w = vortex_operator(torus_4x4, o).W
        want = embedded_loop_product(ground, to_matrix(w, torus_4x4.n_modes))
        assert np.abs(loop_product(ground, w) - want).max() <= 1e-14


def test_loop_product_holds_no_map_over_every_state(torus_4x4):
    # the cluster block of each label and each state's place there are bit
    # arithmetic on the split's Z-strings: a loop product on the torus
    # ground space (one block of 4,096 states at lambda = 0.1) holds about
    # 0.25 MiB (W's entries, its places and the gathered columns), where the
    # first product also built two dim-long int64 maps, 1.2 MiB in all
    import tracemalloc

    ground = lanczos_ground(PauliSum(build_hamiltonian(torus_4x4, 0.1),
                                     torus_4x4.n_modes),
                            seed=0, symmetries=translations(torus_4x4))
    for o in torus_4x4.octagons:
        w = vortex_operator(torus_4x4, o).W
        tracemalloc.start()
        try:
            loop_product(ground, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19, (o.center, peak)


def _hand_ground(rows):
    """A GroundSpace on 8 states with one unit vector per state of the
    equal-size blocks `rows`, columns in block order; the Z-strings 2 and
    4 split the states into the cosets of {0, 1}."""
    rows = np.array(rows)
    count, size = rows.shape
    return GroundSpace(e0=0.0, dim=8, rows=rows, gens=(2, 4),
                       vectors=(np.eye(size, dtype=complex),) * count,
                       columns=tuple(np.arange(count * size).reshape(count, size)),
                       gap_tol=1e-8)


def test_a_loop_image_off_one_block_is_refused():
    # c_2 = X_1 Z_0 flips bit 1: it sends the block {0, 1} onto {2, 3};
    # so does 1j c_3 = -X_1 Z_1 Z_0, whose Z string meets the flipped bit,
    # so its sign must be read on the source state, not on the image
    flip = MajoranaPolynomial.monomial((2,))
    ground = _hand_ground([[0, 1], [2, 3]])
    for w in (flip, MajoranaPolynomial.monomial((3,), 1j)):
        assert np.array_equal(loop_product(ground, w),
                              embedded_loop_product(ground, to_matrix(w, 3)))
    # {2, 4} is no block, so the image {2, 3} of {0, 1} would be half of
    # it and half off the cluster: the ground space is refused when built
    with pytest.raises(ValueError, match="not whole blocks"):
        _hand_ground([[0, 1], [2, 4]])
    # wholly off the cluster: W B has no overlap with B
    off = _hand_ground([[0, 1], [4, 5]])
    assert not loop_product(off, flip)[:2].any()
    assert np.array_equal(loop_product(off, flip),
                          embedded_loop_product(off, to_matrix(flip, 3)))
    with pytest.raises(ValueError, match="one term, not 2"):
        loop_product(ground, flip + MajoranaPolynomial.monomial((0,)))


def _expectations(lat, ground):
    """Each octagon's `loop_expectations` in the ground space."""
    return {o.center: loop_expectations(embedded_loop_product(ground, to_matrix(
        vortex_operator(lat, o).W, lat.n_modes)))
        for o in lat.octagons}


def test_vortex_map_classifications(diamond, diamond_spectra, torus_4x4):
    m = vortex_map(_expectations(diamond, ground_space(diamond_spectra[0.1])))
    assert set(m) == {(1, 2)}
    assert m[(1, 2)]["classification"] == "vortex-free"
    assert m[(1, 2)]["alpha"] >= 1 - 1e-6
    # at lambda = 0 the loop averages to zero over the degenerate space
    m0 = vortex_map(_expectations(diamond, ground_space(diamond_spectra[0])))
    assert m0[(1, 2)]["classification"] == "undetermined"
    assert abs(m0[(1, 2)]["alpha"]) <= 1e-6


def test_conservation_is_exact(diamond):
    rep = check_conservation(diamond, 0.1)
    assert rep.verdict == "pass"
    assert rep.worst is None
    assert rep.tolerances == {}


def _bent_conservation(lat, monkeypatch, bend):
    """check_conservation on H + bend(H), with the witness [m, H] that the
    symbolic commutator gives for the monomial m it names."""
    from vortexcert import verify
    from vortexcert.clifford import commutator

    h = build_hamiltonian(lat, 0.1) + bend
    monkeypatch.setattr(verify, "build_hamiltonian", lambda lat, lam: h)
    return check_conservation(lat, 0.1), h, commutator


def test_conservation_names_an_anticommuting_term(diamond, monkeypatch):
    # the bond i c2 c4 of the loop moved onto c6, off it: the moved term
    # shares one index with the octet, so it anticommutes with W, and the
    # witness is the whole symbolic commutator, as rendered before the
    # decision read commutation signs
    c = MajoranaPolynomial.generator
    bend = (c(2) * c(6) - c(2) * c(4)) * 0.1j
    rep, h, commutator = _bent_conservation(diamond, monkeypatch, bend)
    w = vortex_operator(diamond, (1, 2)).W
    expected = commutator(w, h)
    assert rep.verdict == "fail"
    assert rep.worst == {"value_re": expected.max_abs_coeff(), "value_im": 0.0,
                         "witness": f"octagon (1, 2): [W,H] = {expected.render()}"}
    assert rep.worst["witness"] == (
        "octagon (1, 2): [W,H] = (0.0,0.2)*c1*c4*c5*c6*c10*c11*c12*c15")


def test_conservation_names_a_parity_odd_term(diamond, monkeypatch):
    # c3 lies off the loop, so it commutes with W but not with the parity
    c = MajoranaPolynomial.generator
    rep, h, commutator = _bent_conservation(diamond, monkeypatch, c(3))
    expected = commutator(parity_operator(diamond), h)
    assert rep.verdict == "fail"
    assert rep.worst["witness"] == f"parity: [P,H] = {expected.render()}"
    assert rep.worst["value_re"] == expected.max_abs_coeff()


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
    # rp_functional carries the eigenvectors through the Pauli strings of
    # theta(A) and then A; the symbolic product A theta(A) read as one
    # polynomial must give the same value.
    # Odd values vanish to round-off in the diamond's thermal state, so a
    # generic Hermitian matrix stands in as a second "Hamiltonian".
    rng = np.random.default_rng(11)
    dim = 1 << diamond.n_modes
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    generic = dense_spectrum(dense_operator(x + x.conj().T))
    left = np.array(diamond_mirror.left)
    for _ in range(5):
        a = _random_polynomial(rng, left, parity)
        w = multiply(a, reflect(a, diamond_mirror.sigma))
        for spec in (diamond_spectra[0.1], generic):
            for beta in (0.5, 5):
                want = thermal_expectation(w, spec, beta)
                got = rp_functional(a, diamond_mirror, spec, beta)
                assert abs(got - want) <= 1e-12
