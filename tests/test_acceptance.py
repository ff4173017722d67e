"""The acceptance gate: ten binding criteria, one test each, run with -v
for a pass/fail line per criterion.  Each criterion carries a wall-clock
budget asserted alongside the numerics.

Criterion 8 is expected to fail in its final clause and is left red on
purpose.  At lambda = 0.1 the first excitation above the eightfold ground
cluster sits 6.23e-5 higher, so the beta = 50 Gibbs state still spreads
almost all weight over loop-sign-averaging excited states: <W> there is
1.56e-3, nowhere near alpha = 1 at the demanded 1e-6.  Saturation needs
beta around 2.4e5; test_thermal_limit_far_tail_supplement pins the same
quantity at beta = 3e5 and passes, showing the direction of the limit is
right and only the beta = 50 pin is unreachable on this lattice.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from vortexcert.clifford import (
    MajoranaPolynomial,
    anticommutator,
    commutator,
    multiply,
    reflect,
)
from vortexcert.cli import main
from vortexcert.fock import PauliSum, to_matrix
from vortexcert.lattice import build_lattice, diamond_lattice, reflection_data
from vortexcert.model import (
    build_hamiltonian,
    verify_reflection_symmetry,
    vortex_operator,
)
from vortexcert.spectral import (
    dense_spectrum,
    ground_space,
    lanczos_ground,
    thermal_expectation,
)
from vortexcert.verify import (
    check_ground_positivity,
    check_rp,
    check_topological_order,
    loop_expectations,
    vortex_map,
)

from conftest import embedded_loop_product, to_dense


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds {seconds}s budget"


def _random_poly(rng, n_indices=4, max_degree=4):
    poly = MajoranaPolynomial.zero()
    for _ in range(rng.integers(1, 6)):
        deg = int(rng.integers(0, max_degree + 1))
        key = tuple(sorted(rng.choice(n_indices, size=deg,
                                      replace=False).tolist()))
        coeff = complex(rng.normal(), rng.normal())
        poly = poly + MajoranaPolynomial.monomial(key, coeff)
    return poly


def test_criterion_01_algebra_faithfulness():
    with budget(5):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = _random_poly(rng), _random_poly(rng)
            symbolic = to_dense(to_matrix(multiply(p, q), 2))
            numeric = to_dense(to_matrix(p, 2)) @ to_dense(to_matrix(q, 2))
            assert np.abs(symbolic - numeric).max() <= 1e-12
        two = MajoranaPolynomial.monomial((), 2)
        for i in range(4):
            for j in range(4):
                ac = anticommutator(MajoranaPolynomial.generator(i),
                                    MajoranaPolynomial.generator(j))
                want = two if i == j else MajoranaPolynomial.zero()
                assert ac.isclose(want, tol=0.0)


def test_criterion_02_reflection_symmetry():
    with budget(1):
        cases = [
            (diamond_lattice(), "x", 1),
            (build_lattice(4, 4, "periodic"), "x", 0),
        ]
        for lat, axis, coord in cases:
            r = reflection_data(lat, axis, coord)
            for lam in (0, Fraction(1, 10), Fraction(1, 2)):
                h = build_hamiltonian(lat, lam)
                ok, dev = verify_reflection_symmetry(h, r)
                assert ok and dev == 0


def test_criterion_03_loop_conservation():
    with budget(1):
        for lat in (diamond_lattice(), build_lattice(4, 4, "periodic")):
            h = build_hamiltonian(lat, Fraction(1, 10))
            for o in lat.octagons:
                w = vortex_operator(lat, o).W
                assert commutator(w, h).is_zero


def test_criterion_04_vortex_operator_structure():
    with budget(5):
        lat = diamond_lattice()
        r = reflection_data(lat, "x", 1)
        v = vortex_operator(lat, (1, 2), r=r)
        assert multiply(v.W, v.W).isclose(MajoranaPolynomial.monomial((), 1),
                                          tol=0.0)
        eigs = np.linalg.eigvalsh(to_dense(to_matrix(v.W, lat.n_modes)))
        assert np.abs(np.abs(eigs) - 1.0).max() <= 1e-10
        assert v.A_factor is not None
        rebuilt = multiply(v.A_factor, reflect(v.A_factor, r.sigma))
        assert rebuilt.isclose(v.W, tol=0.0)


def test_criterion_05_reflection_positivity():
    with budget(120):
        lat = diamond_lattice()
        r = reflection_data(lat, "x", 1)
        for lam in (0, 0.1, 0.5):
            spectrum = dense_spectrum(to_matrix(build_hamiltonian(lat, lam),
                                                lat.n_modes))
            for beta in (0.5, 1, 5):
                rep = check_rp(lat, r, lam, beta, tol=1e-9, spectrum=spectrum)
                assert rep.verdict == "pass", rep.worst
                assert rep.worst["value_re"] >= -1e-9


def test_criterion_06_topological_order_and_vortex_freedom():
    with budget(30):
        lat = diamond_lattice()
        ground = ground_space(dense_spectrum(
            to_matrix(build_hamiltonian(lat, 0.1), lat.n_modes)))
        w = to_matrix(vortex_operator(lat, (1, 2)).W, lat.n_modes)
        m = embedded_loop_product(ground, w)
        topo = check_topological_order(m, tol=1e-8)
        assert topo.verdict == "pass"
        assert topo.deviation <= 1e-8
        assert abs(topo.alpha - 1.0) <= 1e-8
        pos = check_ground_positivity(loop_expectations(m), tol=1e-8)
        assert pos.minimum >= 1 - 1e-8
        assert pos.spread <= 1e-8


def test_criterion_07_negative_control_at_lambda_zero():
    with budget(30):
        lat = diamond_lattice()
        ground = ground_space(dense_spectrum(
            to_matrix(build_hamiltonian(lat, 0), lat.n_modes)))
        assert ground.n == 16  # 2 states per island, 4 islands
        w = to_matrix(vortex_operator(lat, (1, 2)).W, lat.n_modes)
        topo = check_topological_order(embedded_loop_product(ground, w), tol=1e-8)
        assert topo.deviation >= 0.5


def test_criterion_08_thermal_limit():
    with budget(60):
        lat = diamond_lattice()
        spectrum = dense_spectrum(to_matrix(build_hamiltonian(lat, 0.1),
                                            lat.n_modes))
        loop = vortex_operator(lat, (1, 2)).W
        w = to_matrix(loop, lat.n_modes)
        vals = {b: thermal_expectation(loop, spectrum, b) for b in
                (0.5, 1, 5, 10, 50)}
        for b, v in vals.items():
            assert v.real >= 0.0, f"<W> negative at beta={b}: {v.real}"
            assert abs(v.imag) <= 1e-12
        ground = ground_space(spectrum)
        alpha = check_topological_order(embedded_loop_product(ground, w)).alpha
        gap = spectrum.eigenvalues[8] - spectrum.eigenvalues[0]
        assert abs(vals[50].real - alpha) <= 1e-6, (
            f"<W>_50 = {vals[50].real:.3e} has not converged to "
            f"alpha = {alpha:.6f}: the excitation gap is {gap:.2e}, so "
            f"reaching 1e-6 needs beta ~ {np.log(1e7) / gap:.1e}, not 50; "
            f"left red deliberately, see the far-tail supplement")


def test_thermal_limit_far_tail_supplement():
    """The beta -> infinity direction itself is sound: push beta past the
    inverse gap and <W>_beta does land on alpha."""
    with budget(60):
        lat = diamond_lattice()
        spectrum = dense_spectrum(to_matrix(build_hamiltonian(lat, 0.1),
                                            lat.n_modes))
        loop = vortex_operator(lat, (1, 2)).W
        w = to_matrix(loop, lat.n_modes)
        ground = ground_space(spectrum)
        alpha = check_topological_order(embedded_loop_product(ground, w)).alpha
        far = thermal_expectation(loop, spectrum, 3e5)
        assert abs(far.real - alpha) <= 1e-6
        # and the approach is monotone from below along the sampled tail
        tail = [thermal_expectation(loop, spectrum, b).real
                for b in (10, 50, 1e3, 1e4, 3e5)]
        assert all(a < b for a, b in zip(tail, tail[1:]))
        assert tail[-1] <= alpha + 1e-12


def test_criterion_09_lanczos_scale_step():
    with budget(600):
        lat = build_lattice(4, 4, "periodic")
        op = PauliSum(build_hamiltonian(lat, 0.1), lat.n_modes)
        ground = lanczos_ground(op, k=3, seed=0)
        assert ground.n == 1
        e0s = [ground.e0]
        e0s += [lanczos_ground(op, k=2, seed=s).e0 for s in range(1, 5)]
        assert max(e0s) - min(e0s) <= 1e-8
        vmap = vortex_map({o.center: loop_expectations(embedded_loop_product(
            ground, to_matrix(vortex_operator(lat, o).W, lat.n_modes)))
            for o in lat.octagons}, tol=1e-6)
        assert len(vmap) == 8
        for center, rec in vmap.items():
            assert rec["classification"] == "vortex-free", (center, rec)
            assert rec["alpha"] >= 1 - 1e-6


def test_criterion_10_byte_determinism(tmp_path):
    bundles = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        assert main(["certify", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        d.pop("sidecar")
        bundles.append(json.dumps(d, indent=2, sort_keys=True))
    assert bundles[0] == bundles[1]

    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = main(["sweep", "--lambda.from", "0", "--lambda.to", "0.2",
                     "--lambda.steps", "3", "--beta", "1", "--format", "csv",
                     "--max-degree", "2", "--out", str(out)])
        assert code == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
